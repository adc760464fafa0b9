//! # pipeline
//!
//! A simulation of the distributed monitoring architecture that motivates
//! DDSketch (paper Figure 1): workers note request latencies into
//! per-window sketches, agents ship encoded sketches to an aggregator, and
//! the aggregator merges them into a time-series store that can roll
//! windows up losslessly — the property only *fully mergeable* sketches
//! provide.
//!
//! Modules:
//! * [`aggregator`] — the decode-free receiving end: raw frames in,
//!   quantiles out, zero intermediate sketches (below). One generic
//!   [`AggregatorOf`] runs the staging/fold machinery for both count
//!   planes: [`Aggregator`] takes integer `DDS2` frames, and
//!   [`WeightedAggregator`] takes the `f64` plane's mixed
//!   `DDS1`/`DDS2`/`DDS3` streams.
//! * [`window`] — the `(metric, window) → sketch` time-series store with
//!   interned metric ids, exact k-way rollups, retention eviction,
//!   trailing-width [`window::SlidingView`] reads over existing cells,
//!   and frame-stream [`TimeSeriesStore::checkpoint`]/
//!   [`TimeSeriesStore::restore`] durability.
//! * [`window_sliding`] — continuously sliding quantile windows ("p99
//!   over the last five minutes"): a ring of per-slot sketches read by
//!   one zero-copy k-way walk, with suffix-aggregate (two-stack) and
//!   exponentially-decayed variants, plus a sharded concurrent front and
//!   an ingest-time decayed window ([`DecayedIngestWindow`]) that pays
//!   the decay once per slot tick on the weighted count plane.
//! * [`concurrent`] — a sharded thread-safe sketch for multi-threaded
//!   producers whose read path merges outside all locks.
//! * [`sim`] — the end-to-end threaded simulation (workers → channel →
//!   aggregator) used by the Figure 2 binary and integration tests.
//!
//! ## Concurrency model
//!
//! Multi-threaded ingestion runs on one of three planes, fastest first:
//!
//! 1. **Lock-free atomic** ([`ConcurrentSketch`] over a dense-store
//!    config, the default): every shard is a [`ddsketch::AnyAtomicDDSketch`]
//!    whose `add` is a relaxed `fetch_add` into an atomic bucket cell —
//!    no lock, no CAS loop; growth/collapse on a rare guarded slow path.
//!    Reads snapshot each shard through an epoch-validated counter scan
//!    into recycled buffers; writers are never blocked by readers.
//! 2. **Thread-local publish** ([`LocalIngest`]): values accumulate in a
//!    private sequential sketch (plain `u64` counters) and publish
//!    bin-wise to the shared sketch at flush boundaries and on drop —
//!    removing even atomic cache-line traffic from the per-value path, at
//!    the cost of bounded read staleness.
//! 3. **Locked shards** (sparse-store configs, or any config via
//!    [`ConcurrentSketch::with_config_locked`]): one sketch per shard
//!    behind its own lock, writers pick shards by thread identity.
//!    [`ConcurrentSlidingWindow`] uses this plane with short-hold reads:
//!    each shard lock is held only for that shard's own head scan or slot
//!    copy, never all shards at once.
//!
//! All three planes share one correctness story, inherited from full
//! mergeability and the contract in [`ddsketch::atomic`]: once writers
//! quiesce with a happens-before edge to the reader (thread join, channel
//! hand-off), the merged view is **exactly** — bit-identical bins, count,
//! min, max — the sketch a single thread would have built over the union
//! of every writer's values, with the `f64` sum equal up to addition
//! reassociation. Reads racing writers see each counter at some instant
//! during the read, never torn, lost, or double-counted. Counter updates
//! are `Relaxed`; store growth and fold epochs use `Release`/`Acquire`
//! (see the `ddsketch` crate's "Concurrency model" section for the full
//! ordering contract). `tests/concurrent_ingest.rs` stress-tests the
//! exactness claim and `tests/zero_alloc_ingest.rs` holds the steady-state
//! atomic hot path to zero allocations; multi-thread throughput is
//! measured in `benches/ingest.rs` (`results/BENCH_ingest.json`).
//!
//! ## Agent → aggregator: the decode-free wire path
//!
//! An agent encodes its sketch (`sketch.encode()`, ~2 bytes per warm
//! bucket) and ships it — one frame per payload, batched per connection
//! or file through [`ddsketch::codec::FrameWriter`]. The receiving
//! [`Aggregator`] never decodes a payload into a sketch:
//!
//! ```
//! use ddsketch::codec::{FrameReader, FrameWriter};
//! use ddsketch::SketchConfig;
//! use pipeline::Aggregator;
//!
//! let config = SketchConfig::dense_collapsing(0.01, 2048);
//!
//! // A fleet of agents, each batching its payloads onto one stream.
//! let mut stream = FrameWriter::new(Vec::new()).unwrap();
//! for agent in 0..4u32 {
//!     let mut sketch = config.build().unwrap();
//!     for i in 1..=1000u32 {
//!         sketch.add(f64::from(agent * 1000 + i) * 1e-3).unwrap();
//!     }
//!     stream.write_sketch(&sketch).unwrap();
//! }
//! let bytes = stream.finish().unwrap();
//!
//! // The aggregator decodes each frame once into a recycled staging
//! // payload (bins + summary, never a sketch), folds every few frames
//! // into one resident sketch (one bulk `add_bins` pass per store),
//! // and answers quantiles over resident ∪ unfolded payloads in a
//! // single k-way walk.
//! let mut agg = Aggregator::with_config(config, 16).unwrap();
//! agg.feed_stream(&mut FrameReader::new(bytes.as_slice()).unwrap()).unwrap();
//! let p = agg.quantiles(&[0.5, 0.99]).unwrap();
//! assert!(p[0] < p[1]);
//! ```
//!
//! The store side gets the same treatment: a long-lived
//! [`TimeSeriesStore`] checkpoints every `(metric, window)` cell through
//! the frame stream and restores it exactly — interned metric ids
//! included — so an aggregator restart costs one stream replay, not a
//! re-ingestion.
//!
//! This crate models the path in-process; the `sketchd` crate deploys it
//! over real sockets. There, `AgentSender` ships each frame with a
//! single atomic `write_all` (reconnect + whole-frame resend on
//! failure), and the server routes frames by FNV-1a metric hash to
//! per-shard workers that absorb each decoded payload into both an
//! [`Aggregator`] (fleet quantiles) and a [`TimeSeriesStore`] (per-window
//! series + checkpoints), behind bounded staging queues whose
//! backpressure throttles agents through TCP flow control. Because both
//! sinks are fed from the same single decode, the served quantiles stay
//! bit-identical to a from-scratch union over every agent's payloads —
//! the same exactness contract as the in-process plane.

pub mod aggregator;
pub mod concurrent;
pub mod sim;
pub mod window;
pub mod window_sliding;

pub use aggregator::{Aggregator, AggregatorOf, WeightedAggregator};
pub use concurrent::{ConcurrentSketch, LocalIngest};
pub use sim::{run_sequential, run_simulation, Payload, SimConfig, SimReport};
pub use window::{MetricId, SlidingView, TimeSeriesStore};
pub use window_sliding::{ConcurrentSlidingWindow, DecayedIngestWindow, SlidingWindowSketch};
