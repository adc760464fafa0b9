//! # DDSketch
//!
//! A fast and fully-mergeable quantile sketch with relative-error
//! guarantees — a from-scratch Rust implementation of
//! *Masson, Rim & Lee, "DDSketch", PVLDB 12(12), 2019*.
//!
//! A DDSketch summarizes a stream of values so that any q-quantile can be
//! estimated within relative error `α`: the returned `x̃_q` satisfies
//! `|x̃_q − x_q| ≤ α·x_q`. Unlike rank-error sketches, this guarantee does
//! not degrade on heavy-tailed data, which is exactly where rank-error
//! sketches can be off by orders of magnitude on the p99.
//!
//! Two sketches built with the same parameters merge *exactly*: the merged
//! sketch is bucket-for-bucket identical to a single sketch over the union
//! of the streams ("full mergeability"), which is what makes the structure
//! suitable for distributed aggregation pipelines.
//!
//! ## Quick start
//!
//! Configuration is runtime data: [`DDSketchBuilder`] resolves to a
//! [`SketchConfig`] and builds an [`AnyDDSketch`], the type-erased sketch
//! every layer of the workspace (pipeline, benchmarks, wire format)
//! operates on.
//!
//! ```
//! use ddsketch::DDSketchBuilder;
//!
//! // α = 1% relative error, at most 2048 buckets (the paper's config).
//! let mut sketch = DDSketchBuilder::new(0.01).dense_collapsing(2048).build().unwrap();
//! for i in 1..=10_000u32 {
//!     sketch.add(f64::from(i)).unwrap();
//! }
//! // True p99 (lower quantile) of 1..=10000 is x_⌊1+0.99·9999⌋ = 9900.
//! let p99 = sketch.quantile(0.99).unwrap();
//! assert!((p99 - 9900.0).abs() <= 0.01 * 9900.0);
//!
//! // Same-config sketches merge exactly.
//! let mut other = DDSketchBuilder::new(0.01).dense_collapsing(2048).build().unwrap();
//! other.add(1e9).unwrap();
//! sketch.merge_from(&other).unwrap();
//! assert_eq!(sketch.count(), 10_001);
//!
//! // Differently-configured sketches refuse to merge instead of silently
//! // corrupting the α guarantee.
//! let sparse = DDSketchBuilder::new(0.01).sparse().build().unwrap();
//! assert!(sketch.merge_from(&sparse).is_err());
//! ```
//!
//! ## Picking a configuration
//!
//! | builder | preset type | mapping | store | use when |
//! |---------|-------------|---------|-------|----------|
//! | `DDSketchBuilder::new(α).unbounded()` | [`presets::unbounded`] | exact log | dense, unbounded | guarantee must hold for every quantile, size is secondary |
//! | `DDSketchBuilder::new(α).dense_collapsing(m)` | [`presets::logarithmic_collapsing`] | exact log | dense, bounded | production default (paper Table 2) |
//! | `DDSketchBuilder::new(α).cubic().dense_collapsing(m)` | [`presets::fast`] | cubic interpolation | dense, bounded | insertion speed matters most |
//! | `DDSketchBuilder::new(α).sparse()` | [`presets::sparse`] | exact log | B-tree | wide value ranges, memory matters |
//! | `DDSketchBuilder::new(α).sparse_collapsing(m)` | [`presets::paper_exact`] | exact log | sparse, Algorithm-3 collapse | studying the paper's exact semantics |
//!
//! The preset constructors return concrete [`DDSketch`] instantiations with
//! zero dispatch overhead; [`AnyDDSketch`] wraps those same five types in an
//! enum (one match per call, no `dyn`) and is bit-identical to them on any
//! stream. Use a preset type when the configuration is fixed at compile
//! time; use [`SketchConfig`]/[`AnyDDSketch`] when it is an operational
//! knob or arrives over the wire.
//!
//! ## Shipping sketches: the self-describing wire format
//!
//! [`AnyDDSketch::decode`] reconstructs whatever configuration was encoded
//! — the aggregator needs no compile-time knowledge of what its agents run:
//!
//! ```
//! use ddsketch::{AnyDDSketch, DDSketchBuilder};
//!
//! let mut agent = DDSketchBuilder::new(0.01).sparse().build().unwrap();
//! agent.add_slice(&[0.012, 0.019, 1.430]).unwrap();
//! let bytes = agent.encode();
//!
//! let arrived = AnyDDSketch::decode(&bytes).unwrap();
//! assert_eq!(arrived.config(), agent.config());
//! assert_eq!(arrived.count(), 3);
//! ```
//!
//! Receivers that only need to *read* payloads — query, merge, forward —
//! should not decode at all: [`SketchView::parse`] validates the bytes in
//! one pass and exposes the live-sketch surface (header accessors, bin
//! walks, bit-identical quantiles) with **zero** allocation, and
//! [`SketchSource`] threads views, decoded payloads, and live sketches
//! through the same merge plane (`merged_quantiles_sources` /
//! `merge_sources`). Frame batching and length-prefixed streams live in
//! [`codec`]; the `pipeline` crate's `Aggregator` puts it all together —
//! 1000 payloads aggregated with zero intermediate sketches, ≥2× faster
//! than decode-then-merge (measured in `benches/codec.rs`).
//!
//! ```
//! use ddsketch::{AnyDDSketch, SketchConfig, SketchView};
//!
//! let mut agent = SketchConfig::dense_collapsing(0.01, 2048).build().unwrap();
//! agent.add_slice(&[0.012, 0.019, 1.430]).unwrap();
//! let bytes = agent.encode();
//!
//! // Zero-copy: p99 straight off the wire bytes, no sketch built.
//! let view = SketchView::parse(&bytes).unwrap();
//! assert_eq!(view.quantile(0.99).unwrap(), agent.quantile(0.99).unwrap());
//!
//! // Absorb the payload into a resident sketch: one bulk add_bins pass
//! // per store, no intermediate sketch.
//! let mut resident = SketchConfig::dense_collapsing(0.01, 2048).build().unwrap();
//! resident.merge_view(&view).unwrap();
//! assert_eq!(resident.count(), agent.count());
//! ```
//!
//! ## Batched ingestion
//!
//! High-throughput producers should buffer values and flush them through
//! `add_slice`, the end-to-end batched fast path (available on the preset
//! types, [`AnyDDSketch`], and generically via
//! [`sketch_core::QuantileSketch::add_slice`]):
//!
//! ```
//! use ddsketch::DDSketchBuilder;
//!
//! let mut sketch = DDSketchBuilder::new(0.01).dense_collapsing(2048).build().unwrap();
//! let latencies: Vec<f64> = (1..=4096).map(|i| f64::from(i) * 1e-4).collect();
//! for batch in latencies.chunks(1024) {
//!     sketch.add_slice(batch).unwrap();
//! }
//! assert_eq!(sketch.count(), 4096);
//! ```
//!
//! `add_slice` classifies the batch in one pass, computes bucket indices
//! with a tight, inlined kernel ([`IndexMapping::index_batch`]), and hands
//! each store its side as one bulk [`Store::add_indices`] call that pays
//! growth/collapse bookkeeping once per batch instead of once per value.
//! The result is **bit-identical** to per-value `add` (same bins, count,
//! sum, min, max — property-tested across every preset) while sustaining
//! over 2× the throughput at batch size 1024 on the dense presets (see
//! `benches/add_batch.rs` in the bench crate; measured speedups are
//! recorded in the workspace `ROADMAP.md`). Batches containing NaN, ±∞, or
//! out-of-range values are rejected **atomically**: the error names the
//! offending value and the sketch is left untouched.
//!
//! The pipeline layers expose the same fast path: `ConcurrentSketch::
//! add_slice` ingests a batch under a single shard-lock acquisition, and
//! `TimeSeriesStore::record_slice` ingests a batch with one cell lookup.
//!
//! When you need several quantiles, prefer `quantiles`: it sorts the
//! requested ranks and walks each store's cumulative counts once, instead
//! of rescanning per quantile.
//!
//! ## Weighted ingestion
//!
//! Every count in the sketch generalizes from `u64` to `f64`
//! (the [`store::Count`] abstraction), and the runtime layers are written
//! once over the count type: [`AnyDDSketchOf`], [`SketchPayloadOf`], and
//! the `pipeline` crate's `AggregatorOf` each have one generic definition
//! and two names, the integer plane ([`AnyDDSketch`], [`SketchPayload`],
//! `Aggregator`) and the weighted plane ([`AnyWeightedDDSketch`],
//! [`WeightedSketchPayload`], `WeightedAggregator`), over the same five
//! configurations. [`CountPlane`] holds the little that differs by count
//! type: the wire dialect and how staged payloads join a resident sketch.
//! `add_with_count(value, w)` inserts one observation at
//! weight `w` — a pre-aggregated client submission ("this value occurred
//! 1 000 times"), an importance weight, or a fractional multiplicity —
//! and for **integral** weights the result is bit-identical to calling
//! `add(value)` `w` times (property-tested across every configuration).
//! Weighted sketches also decay in place (`scale_counts(λ)`, the
//! ingest-time exponential-decay primitive behind the pipeline's decayed
//! sliding windows) and subtract with floor-at-zero semantics
//! (`sub_sketch`). On the wire they travel as the `DDS3` dialect, whose
//! varint fast path keeps integer-weight payloads as compact as `DDS2`;
//! a weighted receiver ([`WeightedSketchPayload`],
//! [`AnyWeightedDDSketch::decode`], `merge_view`) accepts all three
//! dialects, so mixed fleets drain through one merge walk.
//!
//! ```
//! use ddsketch::{AnyWeightedDDSketch, SketchConfig};
//!
//! let config = SketchConfig::dense_collapsing(0.01, 2048);
//! let mut sketch = AnyWeightedDDSketch::new(config).unwrap();
//! // A client reporting pre-aggregated observations:
//! sketch.add_with_count(0.012, 1000.0).unwrap();
//! sketch.add_with_count(0.250, 10.0).unwrap();
//! assert_eq!(sketch.weighted_count(), 1010.0);
//!
//! // Ingest-time decay: halve the weight of everything seen so far.
//! sketch.scale_counts(0.5).unwrap();
//! assert_eq!(sketch.weighted_count(), 505.0);
//!
//! // DDS3 round-trips exactly; integer dialects decode into the same
//! // weighted receiver.
//! let restored = AnyWeightedDDSketch::decode(&sketch.encode()).unwrap();
//! assert_eq!(restored.weighted_count(), sketch.weighted_count());
//! assert_eq!(restored.quantile(0.5).unwrap(), sketch.quantile(0.5).unwrap());
//! ```
//!
//! ## Aggregation plane
//!
//! Full mergeability (Proposition 3) is the read-side counterpart of
//! batched ingestion, and it gets the same bulk treatment. Two k-way
//! primitives — on the preset types and on [`AnyDDSketch`] — replace
//! pairwise `merge_from` folds:
//!
//! * `merge_many(&[&sketch])` merges any number of compatible sketches
//!   with **one** capacity/collapse decision per store (one reallocation
//!   and at most one fold for the whole union, instead of up to k of
//!   each). Bit-identical to folding `merge_from` in order.
//! * `merged_quantiles(&[&sketch], &qs)` answers quantiles of the merge
//!   **without materializing it**: one sorted-rank k-way walk over the
//!   shards' borrowed bins ([`store::BinIter`] — zero copies), with
//!   bounded-store collapse accounted for by clamping each bin to the
//!   index the real merge would fold it to ([`Store::merge_clamp`]).
//!   Identical — including collapsed tails — to merging and then calling
//!   `quantiles`; property-tested across every preset.
//!
//! ```
//! use ddsketch::{AnyDDSketch, DDSketchBuilder};
//!
//! let shards: Vec<AnyDDSketch> = (0..4)
//!     .map(|shard| {
//!         let mut s = DDSketchBuilder::new(0.01).dense_collapsing(2048).build().unwrap();
//!         for i in 1..=1000u32 {
//!             s.add(f64::from(shard * 1000 + i)).unwrap();
//!         }
//!         s
//!     })
//!     .collect();
//! let refs: Vec<&AnyDDSketch> = shards.iter().collect();
//!
//! // Quantiles of the merge, no merged sketch ever built:
//! let p = AnyDDSketch::merged_quantiles(&refs, &[0.5, 0.99]).unwrap();
//!
//! // ... identical to materializing with one k-way merge:
//! let mut merged = shards[0].clone();
//! merged.merge_many(&refs[1..]).unwrap();
//! assert_eq!(p, merged.quantiles(&[0.5, 0.99]).unwrap());
//! ```
//!
//! Both primitives have allocation-conscious forms for callers that ask
//! the same question every tick:
//!
//! * `merged_quantiles_into` walks an **iterator** of borrowed sketches
//!   into caller-owned buffers through a reusable
//!   [`MergedQuantileScratch`] — on the dense store families the walk
//!   performs **zero** heap allocations at steady state (held there by a
//!   counting-allocator test).
//! * `weighted_merged_quantiles_into` scales each sketch's bins by a
//!   per-sketch weight *inside the rank walk* — the query-time
//!   exponential decay behind "recent-biased" sliding-window reads. For
//!   integer weights it is bit-identical to the unweighted walk over
//!   weight-many copies of each sketch (property-tested), and the dense
//!   families keep the vectorized column strategy (weighted f64 column
//!   sums), so even a 3600-shard decayed read stays in the milliseconds.
//! * `AnyWeightedDDSketch::lifted_quantiles_into` is the mixed-plane
//!   walk: quantiles of the weighted union of `(weighted, integer)`
//!   sketch pairs, integer counts lifted to weight 1 as they are read.
//!   Its answers carry the exact bits of merging the pairs in order into
//!   one weighted sketch: it sums every column and running total in the
//!   merge's source order, and on the bounded families it replays the
//!   merge-time folds of the collapsed bucket. `sketchd` answers
//!   `WQUANTILE` with it.
//!
//! The pipeline crate rides this plane end to end: `ConcurrentSketch::
//! snapshot` copies each shard under its own lock and runs one
//! `merge_many` outside all locks; `ConcurrentSketch::quantiles` answers
//! straight off the borrowed shards with the zero-copy walk;
//! `TimeSeriesStore` interns metric names into ids (allocation-free
//! lookups, range-scanned per-metric series), rolls fine windows up with
//! one `merge_many` per coarse cell, bounds a long-lived aggregator with
//! `evict_before`, and serves trailing-width reads over existing cells
//! via `sliding_view`; `SlidingWindowSketch` answers the paper's opening
//! question — "the p99 over the last five minutes" — from a ring of
//! per-slot sketches read by one `merged_quantiles_into` walk, with a
//! two-stack suffix-aggregate layout whose steady-state query folds at
//! most three sketches regardless of slot count, and a
//! `quantiles_decayed` read on the weighted walk.
//!
//! ## Concurrency model
//!
//! The sequential sketches above are `&mut self` and single-writer. For
//! multi-core ingest the [`atomic`] module provides a third plane:
//! [`AtomicDDSketch`] / [`AnyAtomicDDSketch`] take **`&self`** for every
//! ingestion method — the hot `add` is one relaxed `fetch_add` into an
//! atomic dense store ([`store::AtomicDenseStore`]) plus relaxed striped
//! summary updates. No lock and no CAS loop on the fast path; store
//! growth and bucket collapse run on a rare mutex-guarded slow path whose
//! effects are published with `Release`/`Acquire` and fenced from readers
//! by a seqlock epoch.
//!
//! The memory-ordering contract, in one line each:
//!
//! * **Counter updates are `Relaxed`** — counts are commutative sums, so
//!   no ordering between writers is needed, only atomicity per counter.
//! * **Table publication and fold epochs are `Release`/`Acquire`** — a
//!   reader that sees a new table or an even epoch also sees the writes
//!   that built it; snapshots retry while an epoch is odd or changed.
//! * **Quiesced reads are exact** — after writers quiesce with a
//!   happens-before edge to the reader (thread join, channel hand-off), a
//!   snapshot is bit-identical (bins, count, min, max; sum up to addition
//!   reassociation) to a single-threaded sketch over the union of every
//!   writer's values. Mid-race, each counter reads at some instant during
//!   the read — never torn, lost, or double-counted.
//!
//! Only the dense store families run lock-free (bucket identity must be
//! an array slot); sparse configs are rejected by
//! [`AnyAtomicDDSketch::new`] and stay on the locked-shard plane in the
//! `pipeline` crate, whose `ConcurrentSketch` picks the right plane per
//! config automatically and adds a thread-local `LocalIngest` front-end
//! for writers that want to batch even the atomic traffic.
//!
//! ```
//! use ddsketch::{AnyAtomicDDSketch, SketchConfig};
//!
//! let sketch = AnyAtomicDDSketch::new(SketchConfig::dense_collapsing(0.01, 2048)).unwrap();
//! std::thread::scope(|scope| {
//!     for t in 0..4u32 {
//!         let sketch = &sketch; // shared reference: no lock, no clone
//!         scope.spawn(move || {
//!             for i in 1..=1000u32 {
//!                 sketch.add(f64::from(t * 1000 + i)).unwrap();
//!             }
//!         });
//!     }
//! });
//! // Writers joined => the snapshot equals the single-threaded union.
//! let snap = sketch.snapshot().unwrap();
//! assert_eq!(snap.count(), 4000);
//! ```

pub mod any;
pub mod atomic;
pub mod codec;
pub mod config;
pub mod mapping;
pub mod presets;
mod sketch;
pub mod store;

pub use any::{AnyDDSketch, AnyDDSketchOf, AnyWeightedDDSketch};
pub use atomic::{AnyAtomicDDSketch, AtomicDDSketch, AtomicSketchScratch, WeightedAtomicDDSketch};
pub use codec::{
    CountPlane, FrameDecoder, FrameReader, FrameWriter, SketchPayload, SketchPayloadOf,
    SketchSource, SketchView, SketchViewMeta, SourceQuantileScratch, WeightedSketchPayload,
    WeightedViewBinIter,
};
pub use config::{DDSketchBuilder, SketchConfig, DEFAULT_MAX_BINS};
pub use mapping::{
    CubicInterpolatedMapping, IndexMapping, LinearInterpolatedMapping, LogarithmicMapping,
    MappingKind, QuadraticInterpolatedMapping,
};
pub use presets::{
    fast, logarithmic_collapsing, paper_exact, sparse, unbounded, weighted_fast,
    weighted_logarithmic_collapsing, weighted_paper_exact, weighted_sparse, weighted_unbounded,
    BoundedDDSketch, FastDDSketch, PaperExactDDSketch, SparseDDSketch, UnboundedDDSketch,
    WeightedBoundedDDSketch, WeightedFastDDSketch, WeightedPaperExactDDSketch,
    WeightedSparseDDSketch, WeightedUnboundedDDSketch,
};
pub use sketch::{DDSketch, MergedQuantileScratch};
pub use store::{
    CollapsingHighestDenseStore, CollapsingLowestDenseStore, CollapsingSparseStore, Count,
    DenseStore, SparseStore, Store, StoreKind,
};

// Re-export the shared vocabulary so downstream users need only this crate.
pub use sketch_core::{
    ConcurrentIngest, MemoryFootprint, MergeableSketch, QuantileSketch, SketchError,
};
