//! Umbrella crate for the DDSketch reproduction workspace: re-exports every
//! member crate so examples and integration tests have a single dependency
//! surface.
//!
//! # Quick start: a sketch fleet on loopback
//!
//! The workspace's deployment story (paper Figure 1) runs end to end
//! over real sockets via [`sketchd`]: agents build per-window sketches
//! locally, ship them as `DDSF` frames, and a server folds every
//! tenant's stream into state it answers quantile queries from —
//! *exactly*, because DDSketch's full mergeability makes the folded
//! state bit-identical to one sketch over the union of all raw data.
//!
//! | layer | crate | role |
//! |-------|-------|------|
//! | sketch | [`ddsketch`] | the quantile sketch + `DDS2` codec + `DDSF` frame streams |
//! | pipeline | [`pipeline`] | decode-free [`pipeline::Aggregator`], [`pipeline::TimeSeriesStore`], concurrent ingest planes |
//! | fleet | [`sketchd`] | TCP/Unix-socket server (`ServerHandle`), agent library (`AgentSender`), query client (`QueryClient`) |
//! | evaluation | [`evalkit`], [`datasets`] | accuracy/size/merge harnesses and generators |
//! | rivals | [`gkarray`], [`kll`], [`tdigest`], [`hdrhist`], [`momentsketch`] | the paper's comparison sketches |
//!
//! The ingest wire protocol is one handshake line + varint-length-framed
//! envelopes; the query protocol is plain text lines (`PING`, `STATS`,
//! `QUANTILE`, `SERIES`, `DUMP`, `SYNC`, `CHECKPOINT`, …) — both are
//! tabled in full in the [`sketchd`] crate docs.
//!
//! A complete loopback walkthrough (this test really runs a server):
//!
//! ```
//! use ddsketch_repro::sketchd::{AgentSender, Bind, QueryClient, ServerConfig, ServerHandle};
//! use ddsketch_repro::ddsketch::SketchConfig;
//!
//! // 1. A server on an OS-assigned loopback port.
//! let server = ServerHandle::spawn(
//!     &Bind::Tcp("127.0.0.1:0".into()),
//!     ServerConfig::default(),
//! ).unwrap();
//!
//! // 2. An agent ships one per-window sketch for tenant "acme".
//! let mut sketch = SketchConfig::dense_collapsing(0.01, 2048).build().unwrap();
//! for v in [2.0, 8.0, 19.0, 42.0] {
//!     sketch.add(v).unwrap();
//! }
//! let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
//! agent.send("api.latency", 1700000000, &sketch).unwrap();
//! agent.close().unwrap();
//!
//! // 3. A dashboard queries the live server.
//! let mut client = QueryClient::connect(server.endpoint()).unwrap();
//! while client.stats().unwrap().frames_ingested < 1 {
//!     std::thread::sleep(std::time::Duration::from_millis(2));
//! }
//! client.sync().unwrap();
//! assert_eq!(client.count("acme").unwrap(), 4);
//! let p50 = client.quantile("acme", 0.5).unwrap();
//! assert!((p50 - 8.0).abs() / 8.0 <= 0.01, "within the α guarantee");
//! server.shutdown().unwrap();
//! ```
//!
//! `examples/aggregator.rs` scales this to 50 agents over a Unix domain
//! socket with corruption injection and a kill/restore epilogue;
//! `examples/weighted.rs` runs the f64 count plane end to end
//! (trace-sampled `DDS3` submissions + ingest-time decay);
//! `crates/bench/benches/server.rs` scales it from 8 to 512 concurrent
//! agents (`results/BENCH_server_evloop.json`), and the `fleetbench`
//! package measures its ingest and query throughput.

pub use datasets;
pub use ddsketch;
pub use evalkit;
pub use gkarray;
pub use hdrhist;
pub use kll;
pub use momentsketch;
pub use pipeline;
pub use sketch_core;
pub use sketchd;
pub use tdigest;
