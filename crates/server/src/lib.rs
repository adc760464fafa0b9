//! `sketchd` — a socket-based agent → aggregator fleet server for
//! DDSketch frame streams.
//!
//! This crate is the deployment story of the paper's Figure 1 run end
//! to end over real sockets: a fleet of agents each builds per-window
//! sketches locally, ships them as `DDSF` frames, and a central server
//! folds every tenant's stream into mergeable state it can answer
//! quantile queries from at any moment — *exactly*, because DDSketch's
//! full mergeability makes the server's folded state bit-identical to a
//! sketch built from the union of every agent's raw data.
//!
//! Everything runs on `std::net` (TCP) and `std::os::unix::net` (Unix
//! domain sockets): fully offline, loopback-friendly, no runtime
//! dependencies.
//!
//! ## Architecture
//!
//! ```text
//!  agents (AgentSender)                  sketchd (ServerHandle)
//!  ┌────────────────────┐   DDSF    ┌─────────────────────────────────┐
//!  │ sketch → envelope  │──frames──▶│ I/O plane: envelope → route     │
//!  │ single write_all   │           │      │ bounded staging queue    │
//!  │ retry + backoff    │           │      ▼ (backpressure)           │
//!  └────────────────────┘           │ shard worker: decode, absorb    │
//!  ┌────────────────────┐   text    │   into Aggregator + TS store    │
//!  │ QueryClient        │◀─lines───▶│ query handling: fold + k-way    │
//!  │ one buffered read  │           │   merged quantiles              │
//!  └────────────────────┘           │ checkpointer: {tenant}@{n}.ddts │
//!                                   └─────────────────────────────────┘
//! ```
//!
//! * Each tenant's metrics are sharded by FNV-1a hash; one worker owns
//!   each shard's state, so absorption is lock-cheap and a tenant-wide
//!   quantile is a k-way merge over one resident sketch per shard.
//! * Staging queues are bounded: a full queue stalls that connection's
//!   reading, which throttles the agent through TCP flow control —
//!   load sheds as backpressure, not OOM.
//! * Corrupt payloads are rejected per frame (framing intact, stream
//!   continues); corrupt framing or a cut connection drops only that
//!   agent's connection. Neither touches tenant state.
//! * [`ServerConfig::max_connections`] caps concurrent connections;
//!   over-cap accepts get a protocol-level
//!   `-ERR server at connection capacity` line before the close.
//!
//! ## Concurrency model: the I/O plane
//!
//! One readiness event loop (`epoll` on Linux, `poll(2)` on other
//! POSIX systems; no external crates) owns the listener and every agent
//! and query socket on a single thread. Each connection is an explicit
//! resumable state machine (handshake → ingest | query) that advances
//! exactly as far as its socket allows, with fairness budgets so one
//! hot socket cannot starve the rest. No thread ever parks on a socket:
//! a full staging queue *suspends* the connection — its fd is
//! deregistered until the shard worker's pop wakes it back up (one
//! waiter per freed slot, with a periodic sweep as the lost-wakeup
//! backstop) — so backpressure still reaches agents through TCP while
//! the loop keeps serving everyone else. The loop decodes only each
//! frame's envelope (metric and timestamp, to route it) and stages the
//! payload's wire bytes; shard workers decode, admit and absorb the
//! payloads on their own threads, in parallel across shards.
//!
//! `STATS` exposes the plane's state: `open_connections`, per-shard
//! `staging_depth`, `ingest_suspensions`, and reactor wakeup/event
//! counters ([`StatsSnapshot`]).
//!
//! The reactor needs POSIX sockets and readiness calls. The crate
//! builds on other targets, where the client side works and
//! [`ServerHandle::spawn`] returns an error.
//!
//! ## Read plane
//!
//! Queries never pay for ingest. Every tenant-wide answer comes from
//! epoch-versioned state that is read entirely outside the shard locks:
//!
//! * **Epochs.** Each shard's aggregators and windowed store carry a
//!   monotonic epoch — a relaxed atomic bumped on every accepted feed,
//!   fold, and eviction. The shard publishes the combined epoch under
//!   its state lock after each mutation, so "has anything changed?" is
//!   one atomic load, never a lock.
//! * **Snapshots.** Each shard double-buffers an immutable
//!   `ShardSnapshot` (folded resident sketch, weighted plane, exact
//!   counts) behind an `Arc`. A query serves the cached snapshot when
//!   its epoch is current; only a genuinely stale *and* idle shard
//!   rebuilds — taking the state lock just long enough for a fold and
//!   bin copy (the short-hold pattern), then walking ranks outside all
//!   locks. Shard workers refresh snapshots in the background every 64
//!   absorbs and on queue drain.
//! * **Bounded staleness, exact answers.** While a shard has staged or
//!   in-flight frames, queries serve the latest published snapshot
//!   rather than racing the workers — bounded by the refresh cadence,
//!   and *bit-identical* to a fresh under-lock fold of the same epoch's
//!   data (full mergeability: fold order cannot change the state).
//!   A quiesced server always serves the exact current state.
//! * **Answer cache.** Rendered `+OK` responses are memoized keyed on
//!   the raw query line and the epoch vector they were computed from;
//!   a hot repeated query is a key probe plus one `memcpy` — zero
//!   allocations at steady state. [`StatsSnapshot`] reports
//!   `query_cache_hits` / `query_cache_misses`, `snapshot_rebuilds`,
//!   and `snapshot_staleness_max` (worst epoch gap ever closed by a
//!   query-path rebuild).
//! * **Rank walks, not unions.** A cache miss never builds a merged
//!   sketch. `QUANTILE` walks the shards' integer residents with
//!   `AnyDDSketch::merged_quantiles`; `WQUANTILE` walks every shard's
//!   `(weighted, integer)` resident pair with
//!   `AnyWeightedDDSketch::lifted_quantiles_into`, which lifts integer
//!   counts to weight 1 as it reads them and answers with the same bits
//!   as the materialized weighted union.
//!
//! The snapshots are the only read path: full mergeability makes a copy
//! of a shard's folded state answer exactly as the live state does. A
//! unit test holds every shard's state lock while cache-missing `COUNT`,
//! `WCOUNT`, `QUANTILE` and `WQUANTILE` lines answer, with no snapshot
//! rebuilt.
//!
//! ## Retention
//!
//! [`ServerConfig::retention`] evicts windowed-store cells only, so it
//! bounds the per-window answers: `SERIES`, `METRICS` and `DUMP`. The
//! tenant-wide `COUNT`, `WCOUNT`, `QUANTILE` and `WQUANTILE` answer over
//! everything ever ingested, retention or not, and keep doing so across a
//! restart.
//!
//! ## Wire protocol (ingest)
//!
//! | step      | bytes                                                  |
//! |-----------|--------------------------------------------------------|
//! | handshake | `INGEST <tenant>\n` then `DDSF` + version (one write)  |
//! | frame     | `varint len` + envelope, one per shipped sketch        |
//! | envelope  | `varint metric_len` + metric + `varint ts_secs` + payload |
//! | end       | clean socket close / write-half shutdown at a boundary |
//!
//! The envelope payload is any sketch dialect: integer `DDS1`/`DDS2`
//! payloads feed each shard's exact `u64` plane (aggregator + windowed
//! store), weighted `DDS3` payloads its `f64` weighted-plane
//! aggregator — pre-aggregated client submissions ship their weights
//! end to end, and `STATS` reports each tenant's absorbed payload
//! count and weighted value total.
//!
//! ## Query protocol (text lines)
//!
//! | command                        | response                            |
//! |--------------------------------|-------------------------------------|
//! | `PING`                         | `+PONG`                             |
//! | `STATS`                        | `+OK key=value …` counters          |
//! | `TENANTS`                      | `+OK name …`                        |
//! | `SHARDS <tenant>`              | `+OK n depth:high …`                |
//! | `METRICS <tenant>`             | `+OK metric …`                      |
//! | `COUNT <tenant>`               | `+OK n`                             |
//! | `WCOUNT <tenant>`              | `+OK w` (f64, both count planes)    |
//! | `QUANTILE <tenant> <q> …`      | `+OK v …` (shortest-round-trip f64) |
//! | `WQUANTILE <tenant> <q> …`     | `+OK v …`, both planes, one walk    |
//! | `SERIES <tenant> <metric> <q>` | `+OK window=v …`                    |
//! | `DUMP <tenant> <shard>`        | `+DUMP <len>` + `len` binary bytes  |
//! | `SYNC`                         | `+OK` once staged frames absorbed   |
//! | `CHECKPOINT`                   | `+OK <files>`                       |
//! | `SHUTDOWN` / `QUIT`            | `+OK`, connection closes            |
//!
//! Errors answer `-ERR <message>` on one line; the connection stays
//! usable. Floats render via Rust's `{:?}` (shortest round-trip), so
//! parsed responses are bit-identical to the server's values.
//!
//! Request lines are capped at [`MAX_LINE`] bytes. Response lines are
//! not: [`QueryClient`] reads them through one buffer per connection,
//! up to [`ddsketch::codec::DEFAULT_MAX_FRAME_LEN`] bytes, so a long
//! `SERIES` or `STATS` answer arrives whole. The buffer serves the
//! `DUMP` body too.
//!
//! ## Quick start (loopback)
//!
//! ```no_run
//! use sketchd::{AgentSender, Bind, QueryClient, ServerConfig, ServerHandle};
//!
//! let server = ServerHandle::spawn(
//!     &Bind::Tcp("127.0.0.1:0".into()),
//!     ServerConfig::default(),
//! ).unwrap();
//!
//! // An agent ships one per-window sketch.
//! let mut sketch = ddsketch::SketchConfig::dense_collapsing(0.01, 2048)
//!     .build().unwrap();
//! sketch.add(42.0).unwrap();
//! let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
//! agent.send("api.latency", 1700000000, &sketch).unwrap();
//! agent.close().unwrap();
//!
//! // A dashboard asks for the fleet p99.
//! let mut client = QueryClient::connect(server.endpoint()).unwrap();
//! client.sync().unwrap();
//! let p99 = client.quantile("acme", 0.99).unwrap();
//! println!("fleet p99 = {p99}");
//! server.shutdown().unwrap();
//! ```

mod agent;
mod client;
mod error;
mod net;
mod protocol;
#[cfg(unix)]
mod reactor;
mod readplane;
mod server;
mod state;
mod worker;

pub use agent::{AgentSender, RetryPolicy};
pub use client::QueryClient;
pub use error::ServerError;
pub use net::{Bind, Endpoint};
pub use protocol::{valid_name, MAX_LINE, MAX_NAME};
pub use server::{ServerConfig, ServerHandle};
pub use state::{StatsSnapshot, TenantStats};
