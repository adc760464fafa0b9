//! The `sketchd` server proper: spawn and shutdown, shard workers, the
//! query executor, and the periodic sweepers.
//!
//! ## Thread model
//!
//! * **reactor** — one event-loop thread owns the listener and every
//!   agent and query socket (see the `reactor` module): it reads ingest
//!   frames, routes them on their envelopes and stages their payload
//!   bytes, and answers query lines, without ever parking on a socket
//!   or a staging queue.
//! * **shard workers** — one per (tenant, shard), see the `worker`
//!   module: pop staged jobs, decode and admit each payload, and absorb
//!   it into the shard's aggregator + time-series store under the
//!   shard's state lock.
//! * **checkpointer** — optional: periodically snapshots every shard's
//!   store to `{tenant}@{shard}.ddts` and its residents to `.ddsi`/`.ddsw`
//!   (tmp + rename, so a crash mid-write never clobbers the previous good
//!   checkpoint).
//! * **retention sweeper** — optional: evicts windowed-store cells
//!   older than [`ServerConfig::retention`].
//!
//! Shutdown ([`ServerHandle::shutdown`]) is ordered so that no accepted
//! frame is lost: the reactor stops and closes every connection →
//! staging queues close and workers drain the backlog → one final
//! checkpoint sweep.

use std::fs;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ddsketch::codec::DEFAULT_MAX_FRAME_LEN;
use ddsketch::{AnyDDSketch, AnyWeightedDDSketch, CountPlane, SketchConfig, SketchError};
use pipeline::{AggregatorOf, TimeSeriesStore};

use crate::error::ServerError;
use crate::net::{Bind, Endpoint, Listener};
use crate::protocol::{fmt_f64, parse_command, valid_name, Command};
use crate::readplane::{cacheable, CacheFill, CacheScope, QueryCache, ShardSnapshot};
use crate::state::{lock, Registry, ShardState, Stats, StatsSnapshot, Tenant, TenantStats};
use crate::worker::worker_loop;

/// How queries read tenant state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPlane {
    /// Serve from per-shard epoch-labelled read snapshots and the
    /// answer cache: steady-state queries never take a shard state
    /// lock, and answers are bit-identical to a fresh fold at the
    /// epoch they carry (see the crate-level "Read plane" section).
    #[default]
    EpochCached,
    /// Fold per-shard state under the shard locks on every query — the
    /// pre-snapshot behaviour, kept as the measured baseline for the
    /// query-latency bench.
    LockedFold,
}

/// Knobs for a [`ServerHandle::spawn`]ed server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Sketch configuration every tenant runs. Frames whose payload
    /// disagrees on mapping, store family, or α are rejected.
    pub sketch: SketchConfig,
    /// Time-series window width, seconds.
    pub window_secs: u64,
    /// Aggregator fold threshold (pending payloads per shard before a
    /// fold into the resident sketch).
    pub fold_threshold: usize,
    /// Shards per tenant; each metric is owned by exactly one shard.
    pub shards_per_tenant: usize,
    /// Staging-queue bound per shard — the backpressure knob. A frame
    /// that finds its queue full suspends the sending connection, which
    /// stops reading its socket, which throttles the agent via TCP.
    pub staging_bound: usize,
    /// Hostile-length clamp for inbound frames.
    pub max_frame_len: usize,
    /// Where checkpoints live. `None` disables checkpointing (the
    /// `CHECKPOINT` command then answers `-ERR`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Interval between periodic checkpoint sweeps; `None` means only
    /// on-demand (`CHECKPOINT`) and final (shutdown) sweeps run.
    pub checkpoint_interval: Option<Duration>,
    /// Cap on simultaneously open connections. Arrivals past the cap
    /// get a best-effort `-ERR server at connection capacity` line and
    /// are dropped.
    pub max_connections: usize,
    /// How queries read tenant state (see [`ReadPlane`]).
    pub read_plane: ReadPlane,
    /// TTL retention: windowed-store cells whose window ended more than
    /// this far before the newest ingested window are evicted by a
    /// periodic sweep (`STATS` counts them as `evicted_cells`). `None`
    /// retains everything — the pre-retention behaviour.
    pub retention: Option<Duration>,
    /// Under [`ReadPlane::EpochCached`], how many frames a shard worker
    /// takes off its queue between snapshot republishes while the queue
    /// stays busy (it always republishes when the queue drains). This
    /// bounds how far a served answer can trail ingest during a
    /// sustained burst.
    pub snapshot_refresh: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            sketch: SketchConfig::dense_collapsing(0.01, 2048),
            window_secs: 10,
            fold_threshold: 32,
            shards_per_tenant: 4,
            staging_bound: 256,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            checkpoint_dir: None,
            checkpoint_interval: None,
            max_connections: 1024,
            read_plane: ReadPlane::default(),
            retention: None,
            snapshot_refresh: 64,
        }
    }
}

pub(crate) struct ServerInner {
    pub(crate) config: ServerConfig,
    pub(crate) registry: Registry,
    pub(crate) stats: Stats,
    pub(crate) shutdown: AtomicBool,
    pub(crate) endpoint: Endpoint,
    pub(crate) shard_workers: Mutex<Vec<JoinHandle<()>>>,
    /// Wakes the periodic sweepers (checkpointer, retention) out of
    /// their interval waits — on demand (`CHECKPOINT`) and at shutdown.
    pub(crate) sweep_wake: (Mutex<()>, Condvar),
    pub(crate) query_cache: QueryCache,
}

impl ServerInner {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Full stats snapshot: the atomic counters plus the live per-shard
    /// staging depth (shard index summed across tenants).
    pub(crate) fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.staging_depth = vec![0u64; self.config.shards_per_tenant];
        for tenant in self.registry.all() {
            for (index, shard) in tenant.shards.iter().enumerate() {
                let (depth, _) = shard.depth();
                snapshot.staging_depth[index] += depth as u64;
            }
            snapshot.tenants.push(TenantStats {
                name: tenant.name.clone(),
                frames_absorbed: tenant.frames_absorbed.load(Ordering::Relaxed),
                weighted_total: tenant.weighted_total(),
            });
        }
        snapshot
    }
}

/// A running `sketchd` server. Dropping the handle shuts the server
/// down gracefully (prefer calling [`ServerHandle::shutdown`] to
/// observe errors and the final stats).
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    #[cfg(unix)]
    reactor: Mutex<Option<crate::reactor::ReactorHandle>>,
    checkpoint_thread: Mutex<Option<JoinHandle<()>>>,
    retention_thread: Mutex<Option<JoinHandle<()>>>,
    done: AtomicBool,
}

impl ServerHandle {
    /// Bind `bind`, restore any checkpoints found in the configured
    /// checkpoint directory, and start serving. Sockets are served by a
    /// readiness reactor, so non-POSIX targets get an error.
    pub fn spawn(bind: &Bind, config: ServerConfig) -> Result<Self, ServerError> {
        if cfg!(not(unix)) {
            return Err(ServerError::Protocol(
                "sketchd requires a POSIX platform".into(),
            ));
        }
        if config.shards_per_tenant == 0 {
            return Err(ServerError::Protocol(
                "shards_per_tenant must be > 0".into(),
            ));
        }
        config.sketch.validate().map_err(ServerError::Sketch)?;
        let (listener, endpoint) = Listener::bind(bind)?;
        let inner = Arc::new(ServerInner {
            config,
            registry: Registry::default(),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            endpoint,
            shard_workers: Mutex::new(Vec::new()),
            sweep_wake: (Mutex::new(()), Condvar::new()),
            query_cache: QueryCache::default(),
        });
        restore_checkpoints(&inner)?;
        #[cfg(unix)]
        let reactor = crate::reactor::spawn(&inner, listener)?;
        #[cfg(not(unix))]
        drop(listener);
        let checkpointer = inner.config.checkpoint_interval.map(|interval| {
            let inner = inner.clone();
            std::thread::spawn(move || checkpoint_loop(&inner, interval))
        });
        let retainer = inner.config.retention.map(|width| {
            let inner = inner.clone();
            std::thread::spawn(move || retention_loop(&inner, width))
        });
        Ok(Self {
            inner,
            #[cfg(unix)]
            reactor: Mutex::new(Some(reactor)),
            checkpoint_thread: Mutex::new(checkpointer),
            retention_thread: Mutex::new(retainer),
            done: AtomicBool::new(false),
        })
    }

    /// The concrete endpoint the server listens on (with an
    /// OS-assigned port resolved for `tcp://…:0` binds).
    pub fn endpoint(&self) -> &Endpoint {
        &self.inner.endpoint
    }

    /// A point-in-time copy of the server's counters, including the
    /// live per-shard staging depths.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    /// Whether shutdown has been requested (via this handle or a
    /// `SHUTDOWN` command). The owner should then call
    /// [`ServerHandle::shutdown`] to complete it.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutting_down()
    }

    /// Gracefully shut the server down: stop the reactor (closing every
    /// connection), drain every staging queue, run one final checkpoint
    /// sweep, and join every thread. Idempotent; returns the final
    /// stats.
    pub fn shutdown(&self) -> Result<StatsSnapshot, ServerError> {
        if self.done.swap(true, Ordering::AcqRel) {
            return Ok(self.inner.stats_snapshot());
        }
        self.inner.shutdown.store(true, Ordering::Release);
        // The reactor observes the flag as soon as its waker fires.
        #[cfg(unix)]
        if let Some(reactor) = lock(&self.reactor).take() {
            reactor.join();
        }
        // Close staging: workers drain the remaining backlog, then exit
        // — accepted frames are never dropped.
        for tenant in self.inner.registry.all() {
            for shard in &tenant.shards {
                shard.close();
            }
        }
        for handle in lock(&self.inner.shard_workers).drain(..) {
            let _ = handle.join();
        }
        // Wake and join the periodic sweepers, then take the final
        // checkpoint sweep ourselves (after the drain, so it includes
        // every frame).
        self.inner.sweep_wake.1.notify_all();
        if let Some(handle) = lock(&self.checkpoint_thread).take() {
            let _ = handle.join();
        }
        if let Some(handle) = lock(&self.retention_thread).take() {
            let _ = handle.join();
        }
        checkpoint_all(&self.inner)?;
        Ok(self.inner.stats_snapshot())
    }

    /// Run one query command in process, exactly as a socket client
    /// would: the response line(s) are appended to `out`, and the
    /// answer cache / read snapshots serve it under the configured
    /// [`ReadPlane`]. Returns `false` for commands that would close the
    /// connection (`SHUTDOWN`, `QUIT`).
    pub fn execute(&self, line: &str, out: &mut Vec<u8>) -> bool {
        execute_line(&self.inner, line, out)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Look a tenant up, creating it (and spawning its shard workers) on
/// first sight.
pub(crate) fn tenant(inner: &Arc<ServerInner>, name: &str) -> Result<Arc<Tenant>, SketchError> {
    let cfg = &inner.config;
    let (tenant, created) = inner.registry.get_or_create(name, || {
        Tenant::new(
            name,
            cfg.sketch,
            cfg.shards_per_tenant,
            cfg.staging_bound,
            cfg.fold_threshold,
            cfg.window_secs,
        )
    })?;
    if created {
        let mut workers = lock(&inner.shard_workers);
        for shard in &tenant.shards {
            let shard = shard.clone();
            let inner = inner.clone();
            let tenant = tenant.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&inner, &tenant, &shard)
            }));
        }
    }
    Ok(tenant)
}

pub(crate) fn is_retryable(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn respond(out: &mut Vec<u8>, line: &str) {
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}

/// Serve one query line, appending the response bytes to `out` (which
/// may already hold earlier responses — the reactor batches). Shared by
/// the reactor's query machines and [`ServerHandle::execute`]. Under [`ReadPlane::EpochCached`] the
/// answer cache is probed *before* parsing — a hit is served straight
/// from the entry's rendered bytes, with zero locks held and zero
/// allocations — and successful answers to cacheable commands are
/// stored back with the epoch vector they were computed from. Returns
/// `false` when the connection should close after the flush.
pub(crate) fn execute_line(inner: &Arc<ServerInner>, line: &str, out: &mut Vec<u8>) -> bool {
    Stats::add(&inner.stats.queries_served, 1);
    let cached = inner.config.read_plane == ReadPlane::EpochCached && cacheable(line);
    if cached && inner.query_cache.serve(line, out, &inner.stats) {
        return true;
    }
    match parse_command(line) {
        Ok(command) => {
            let start = out.len();
            let mut fill = None;
            let keep_going = execute_into(inner, command, out, &mut fill);
            if let Some(fill) = fill {
                if cached && out[start..].starts_with(b"+OK") {
                    inner.query_cache.store(line, fill, &out[start..]);
                }
            }
            keep_going
        }
        Err(message) => {
            out.extend_from_slice(format!("-ERR {message}\n").as_bytes());
            true
        }
    }
}

/// Run one parsed query command, appending the response bytes to `out`.
/// Commands the answer cache may serve record a [`CacheFill`] (their
/// freshness scope and epoch vector) in `fill`; everything else leaves
/// it `None`. Returns `false` when the connection should close after
/// the response is flushed.
fn execute_into(
    inner: &Arc<ServerInner>,
    command: Command,
    out: &mut Vec<u8>,
    fill: &mut Option<CacheFill>,
) -> bool {
    match command {
        Command::Ping => respond(out, "+PONG"),
        Command::Stats => {
            let s = inner.stats_snapshot();
            let depths: Vec<String> = s.staging_depth.iter().map(u64::to_string).collect();
            // `name:frames:weight` per tenant — names may contain `:`
            // but not `,`, so readers split tenants on `,` and fields
            // from the right.
            let tenants: Vec<String> = s
                .tenants
                .iter()
                .map(|t| {
                    format!(
                        "{}:{}:{}",
                        t.name,
                        t.frames_absorbed,
                        fmt_f64(t.weighted_total)
                    )
                })
                .collect();
            respond(
                out,
                &format!(
                    "+OK frames_ingested={} frames_rejected={} bytes_ingested={} \
                     connections_total={} connections_rejected={} open_connections={} \
                     ingest_disconnects={} queries_served={} backpressure_waits={} \
                     ingest_suspensions={} reactor_wakeups={} reactor_events={} \
                     checkpoints_completed={} query_cache_hits={} query_cache_misses={} \
                     snapshot_rebuilds={} snapshot_staleness_max={} evicted_cells={} \
                     staging_depth={} tenants={}",
                    s.frames_ingested,
                    s.frames_rejected,
                    s.bytes_ingested,
                    s.connections_total,
                    s.connections_rejected,
                    s.open_connections,
                    s.ingest_disconnects,
                    s.queries_served,
                    s.backpressure_waits,
                    s.ingest_suspensions,
                    s.reactor_wakeups,
                    s.reactor_events,
                    s.checkpoints_completed,
                    s.query_cache_hits,
                    s.query_cache_misses,
                    s.snapshot_rebuilds,
                    s.snapshot_staleness_max,
                    s.evicted_cells,
                    depths.join(","),
                    tenants.join(",")
                ),
            );
        }
        Command::Tenants => {
            let names: Vec<String> = inner
                .registry
                .all()
                .iter()
                .map(|t| t.name.clone())
                .collect();
            respond(out, &format!("+OK {}", names.join(" ")));
        }
        Command::Shards(name) => match inner.registry.get(&name) {
            Some(tenant) => {
                let mut line = format!("+OK {}", tenant.shards.len());
                for shard in &tenant.shards {
                    let (depth, high) = shard.depth();
                    line.push_str(&format!(" {depth}:{high}"));
                }
                respond(out, &line);
            }
            None => respond(out, "-ERR unknown tenant"),
        },
        Command::Metrics(name) => match inner.registry.get(&name) {
            Some(tenant) => {
                let mut metrics: Vec<String> = Vec::new();
                for shard in &tenant.shards {
                    let state = lock(&shard.state);
                    metrics.extend(state.store.metrics().map(|(_, m)| m.to_string()));
                }
                metrics.sort();
                metrics.dedup();
                respond(out, &format!("+OK {}", metrics.join(" ")));
            }
            None => respond(out, "-ERR unknown tenant"),
        },
        Command::Count(name) => match inner.registry.get(&name) {
            Some(tenant) => match inner.config.read_plane {
                ReadPlane::EpochCached => {
                    let (snaps, cache_fill) = tenant_snapshots(inner, &tenant);
                    let total: u64 = snaps.iter().map(|s| s.count).sum();
                    *fill = Some(cache_fill);
                    respond(out, &format!("+OK {total}"));
                }
                ReadPlane::LockedFold => {
                    let total: u64 = tenant
                        .shards
                        .iter()
                        .map(|shard| lock(&shard.state).agg.count())
                        .sum();
                    respond(out, &format!("+OK {total}"));
                }
            },
            None => respond(out, "-ERR unknown tenant"),
        },
        Command::WCount(name) => match inner.registry.get(&name) {
            Some(tenant) => {
                // Total resident weight across both planes: integer
                // counts enter at weight 1, `DDS3` frames at their
                // `f64` weights. The summation order is identical under
                // both read planes, so the `f64` totals are
                // bit-identical.
                let total: f64 = match inner.config.read_plane {
                    ReadPlane::EpochCached => {
                        let (snaps, cache_fill) = tenant_snapshots(inner, &tenant);
                        *fill = Some(cache_fill);
                        snaps
                            .iter()
                            .map(|s| s.count as f64 + s.weighted_count)
                            .sum()
                    }
                    ReadPlane::LockedFold => tenant
                        .shards
                        .iter()
                        .map(|shard| {
                            let state = lock(&shard.state);
                            state.agg.count() as f64 + state.wagg.weighted_count()
                        })
                        .sum(),
                };
                respond(out, &format!("+OK {}", fmt_f64(total)));
            }
            None => respond(out, "-ERR unknown tenant"),
        },
        Command::Quantile(name, qs) => match inner.registry.get(&name) {
            Some(tenant) => {
                // One resident copy per shard, answered with a k-way
                // merged walk outside all locks — exact by full
                // mergeability, so the result is bit-identical to a
                // single union sketch. The copies come from the read
                // snapshots (zero lock holds at steady state) or, under
                // the locked baseline, from a fold under each shard's
                // lock.
                let snaps;
                let residents: Vec<AnyDDSketch>;
                let refs: Vec<&AnyDDSketch> = match inner.config.read_plane {
                    ReadPlane::EpochCached => {
                        let (s, cache_fill) = tenant_snapshots(inner, &tenant);
                        snaps = s;
                        *fill = Some(cache_fill);
                        snaps.iter().map(|s| &s.resident).collect()
                    }
                    ReadPlane::LockedFold => {
                        residents = tenant
                            .shards
                            .iter()
                            .map(|shard| {
                                let mut state = lock(&shard.state);
                                state.agg.fold();
                                state.agg.resident().clone()
                            })
                            .collect();
                        residents.iter().collect()
                    }
                };
                match AnyDDSketch::merged_quantiles(&refs, &qs) {
                    Ok(values) => {
                        let rendered: Vec<String> = values.iter().map(|&v| fmt_f64(v)).collect();
                        respond(out, &format!("+OK {}", rendered.join(" ")));
                    }
                    Err(e) => respond(out, &format!("-ERR {e}")),
                }
            }
            None => respond(out, "-ERR unknown tenant"),
        },
        Command::WQuantile(name, qs) => match inner.registry.get(&name) {
            Some(tenant) => {
                // The tenant-wide weighted union — each shard's weighted
                // resident, then its integer resident lifted to weight 1 —
                // answered by one k-way walk over the borrowed residents
                // outside all locks, with the same bits the materialized
                // union would give. Both read planes walk their own
                // copies, in the same shard order.
                let snaps;
                let residents: Vec<(AnyWeightedDDSketch, AnyDDSketch)>;
                let pairs: Vec<(&AnyWeightedDDSketch, &AnyDDSketch)> = match inner.config.read_plane
                {
                    ReadPlane::EpochCached => {
                        let (s, cache_fill) = tenant_snapshots(inner, &tenant);
                        snaps = s;
                        *fill = Some(cache_fill);
                        snaps.iter().map(|s| (&s.weighted, &s.resident)).collect()
                    }
                    ReadPlane::LockedFold => {
                        residents = tenant
                            .shards
                            .iter()
                            .map(|shard| {
                                let mut state = lock(&shard.state);
                                state.agg.fold();
                                state.wagg.fold();
                                (state.wagg.resident().clone(), state.agg.resident().clone())
                            })
                            .collect();
                        residents.iter().map(|(w, i)| (w, i)).collect()
                    }
                };
                let mut values = Vec::with_capacity(qs.len());
                match AnyWeightedDDSketch::lifted_quantiles_into(
                    pairs.iter().copied(),
                    &qs,
                    &mut values,
                ) {
                    Ok(()) => {
                        let rendered: Vec<String> = values.iter().map(|&v| fmt_f64(v)).collect();
                        respond(out, &format!("+OK {}", rendered.join(" ")));
                    }
                    Err(e) => respond(out, &format!("-ERR {e}")),
                }
            }
            None => respond(out, "-ERR unknown tenant"),
        },
        Command::Series {
            tenant: name,
            metric,
            q,
        } => match inner.registry.get(&name) {
            Some(tenant) => {
                // The windowed store is not snapshotted (its cells are
                // absorbed in place), so SERIES keeps the short
                // state-lock hold — but the rendered answer is cached
                // against the owning shard's data epoch, so repeated
                // dashboard pulls of a quiet metric stay lock-free.
                let index = tenant.shard_index_for(&metric);
                let shard = &tenant.shards[index];
                let state = lock(&shard.state);
                let series = state.store.quantile_series(&metric, q);
                if inner.config.read_plane == ReadPlane::EpochCached {
                    shard.publish_epoch(&state);
                    *fill = Some(CacheFill {
                        tenant: Arc::clone(&tenant),
                        scope: CacheScope::Shard(index),
                        epochs: vec![shard.data_epoch()],
                    });
                }
                drop(state);
                let rendered: Vec<String> = series
                    .iter()
                    .map(|&(window, v)| format!("{window}={}", fmt_f64(v)))
                    .collect();
                respond(out, &format!("+OK {}", rendered.join(" ")));
            }
            None => respond(out, "-ERR unknown tenant"),
        },
        Command::Dump {
            tenant: name,
            shard,
        } => match inner.registry.get(&name) {
            Some(tenant) if shard < tenant.shards.len() => {
                let state = lock(&tenant.shards[shard].state);
                let bytes = state.store.checkpoint(Vec::new());
                drop(state);
                match bytes {
                    Ok(bytes) => {
                        respond(out, &format!("+DUMP {}", bytes.len()));
                        out.extend_from_slice(&bytes);
                    }
                    Err(e) => respond(out, &format!("-ERR {e}")),
                }
            }
            Some(_) => respond(out, "-ERR shard index out of range"),
            None => respond(out, "-ERR unknown tenant"),
        },
        Command::Sync => {
            for tenant in inner.registry.all() {
                for shard in &tenant.shards {
                    shard.sync();
                }
            }
            respond(out, "+OK");
        }
        Command::Checkpoint => {
            if inner.config.checkpoint_dir.is_none() {
                respond(out, "-ERR no checkpoint directory configured");
            } else {
                match checkpoint_all(inner) {
                    Ok(files) => respond(out, &format!("+OK {files}")),
                    Err(e) => respond(out, &format!("-ERR {e}")),
                }
            }
        }
        Command::Shutdown => {
            inner.shutdown.store(true, Ordering::Release);
            inner.sweep_wake.1.notify_all();
            respond(out, "+OK");
            return false;
        }
        Command::Quit => {
            respond(out, "+OK");
            return false;
        }
    }
    true
}

/// Every shard's read snapshot plus the [`CacheFill`] recording the
/// epoch vector they carry — the building block of every tenant-wide
/// snapshot-served answer.
fn tenant_snapshots(
    inner: &ServerInner,
    tenant: &Arc<Tenant>,
) -> (Vec<Arc<ShardSnapshot>>, CacheFill) {
    let snaps: Vec<Arc<ShardSnapshot>> = tenant
        .shards
        .iter()
        .map(|shard| shard.read_snapshot(&inner.stats))
        .collect();
    let fill = CacheFill {
        tenant: Arc::clone(tenant),
        scope: CacheScope::Snapshots,
        epochs: snaps.iter().map(|s| s.epoch).collect(),
    };
    (snaps, fill)
}

/// A bare `ServerInner` with no I/O threads attached — lets reactor
/// unit tests drive connection machines and event loops directly
/// against real registry/stats state.
#[cfg(test)]
pub(crate) fn test_inner(config: ServerConfig) -> Arc<ServerInner> {
    Arc::new(ServerInner {
        config,
        registry: Registry::default(),
        stats: Stats::default(),
        shutdown: AtomicBool::new(false),
        endpoint: Endpoint::Tcp("127.0.0.1:9".parse().unwrap()),
        shard_workers: Mutex::new(Vec::new()),
        sweep_wake: (Mutex::new(()), Condvar::new()),
        query_cache: QueryCache::default(),
    })
}

/// TTL retention: periodically evict windowed-store cells that fell out
/// of the trailing retention width. The sweep interval tracks the width
/// (clamped to a sane range) — eviction granularity is whole windows,
/// so sweeping much faster than the width buys nothing.
fn retention_loop(inner: &Arc<ServerInner>, width: Duration) {
    let interval = (width / 2).clamp(Duration::from_millis(10), Duration::from_millis(500));
    let (mutex, condvar) = &inner.sweep_wake;
    loop {
        let guard = mutex.lock().unwrap_or_else(|p| p.into_inner());
        let _unused = condvar
            .wait_timeout(guard, interval)
            .unwrap_or_else(|p| p.into_inner());
        if inner.shutting_down() {
            return;
        }
        retention_sweep(inner, width);
    }
}

/// One retention pass over every shard. Runs under each shard's state
/// lock (eviction mutates the store), publishing the shard's epoch when
/// anything was evicted so cached answers over evicted data invalidate.
fn retention_sweep(inner: &ServerInner, width: Duration) {
    let width_secs = width.as_secs().max(1);
    for tenant in inner.registry.all() {
        for shard in &tenant.shards {
            let mut state = lock(&shard.state);
            let evicted = state.store.retain_recent(width_secs);
            if evicted > 0 {
                shard.publish_epoch(&state);
                Stats::add(&inner.stats.evicted_cells, evicted as u64);
            }
        }
    }
}

fn checkpoint_loop(inner: &Arc<ServerInner>, interval: Duration) {
    let (mutex, condvar) = &inner.sweep_wake;
    loop {
        let guard = mutex.lock().unwrap_or_else(|p| p.into_inner());
        let _unused = condvar
            .wait_timeout(guard, interval)
            .unwrap_or_else(|p| p.into_inner());
        if inner.shutting_down() {
            // The final sweep belongs to `shutdown`, after the drain.
            return;
        }
        let _ = checkpoint_all(inner);
    }
}

/// Fold a plane's aggregator and encode its resident: the contents of a
/// shard's resident file (`.ddsi` holds a bare `DDS2` payload, `.ddsw` a
/// bare `DDS3` one).
fn resident_bytes<C: CountPlane>(agg: &mut AggregatorOf<C>) -> Vec<u8> {
    agg.fold();
    agg.resident().encode()
}

/// Load a resident file written from [`resident_bytes`] back into a
/// plane's aggregator. `feed` re-runs the admission predicate, so a file
/// from a differently-configured server is rejected.
fn restore_resident<C: CountPlane>(
    agg: &mut AggregatorOf<C>,
    bytes: &[u8],
) -> Result<(), ServerError> {
    agg.feed(bytes)?;
    agg.fold();
    Ok(())
}

/// Write `bytes` to `{dir}/{stem}.{ext}` through a tmp file and a rename,
/// so a crash mid-write never clobbers the previous good file.
fn write_checkpoint_file(dir: &Path, stem: &str, ext: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{stem}.{ext}.tmp"));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, dir.join(format!("{stem}.{ext}")))
}

/// Snapshot every shard under the configured directory: its windowed store
/// to `{tenant}@{shard}.ddts`, and its residents to resident files. The
/// weighted resident (`.ddsw`) is written once the shard has absorbed
/// weighted frames, and then on every sweep — so a stale snapshot is
/// always overwritten, never left to double-restore. Under
/// [`ServerConfig::retention`] the integer resident (`.ddsi`) is written
/// too: retention evicts windowed-store cells only, so the store no longer
/// holds everything the resident answers from, and a restart must restore
/// the resident itself rather than rebuild it from the surviving cells.
/// Without retention a leftover `.ddsi` is removed, since the resident is
/// then rebuilt from the cells. Returns the file count.
fn checkpoint_all(inner: &ServerInner) -> Result<usize, ServerError> {
    let Some(dir) = &inner.config.checkpoint_dir else {
        return Ok(0);
    };
    let retention = inner.config.retention.is_some();
    fs::create_dir_all(dir)?;
    let mut files = 0;
    for tenant in inner.registry.all() {
        for (index, shard) in tenant.shards.iter().enumerate() {
            let mut state = lock(&shard.state);
            let store = state.store.checkpoint(Vec::new())?;
            let integer = retention.then(|| resident_bytes(&mut state.agg));
            let weighted = (!state.wagg.is_empty()).then(|| resident_bytes(&mut state.wagg));
            drop(state);
            let stem = format!("{}@{index}", tenant.name);
            let residents = [("ddsi", integer), ("ddsw", weighted)];
            for (ext, bytes) in [("ddts", Some(store))].into_iter().chain(residents) {
                if let Some(bytes) = bytes {
                    write_checkpoint_file(dir, &stem, ext, &bytes)?;
                    files += 1;
                }
            }
            if !retention {
                match fs::remove_file(dir.join(format!("{stem}.ddsi"))) {
                    Err(e) if e.kind() != ErrorKind::NotFound => return Err(e.into()),
                    _ => {}
                }
            }
        }
    }
    Stats::add(&inner.stats.checkpoints_completed, 1);
    Ok(files)
}

/// Boot-time restore: load every `{tenant}@{shard}` checkpoint file under
/// the checkpoint directory back into tenant state. A `.ddts` file
/// restores the windowed store; the shard's integer resident is restored
/// from its `.ddsi` file when retention is on and one exists, and is
/// otherwise rebuilt from the restored cells. A `.ddsw` file restores the
/// weighted resident.
fn restore_checkpoints(inner: &Arc<ServerInner>) -> Result<(), ServerError> {
    let Some(dir) = &inner.config.checkpoint_dir else {
        return Ok(());
    };
    if !dir.exists() {
        return Ok(());
    }
    let retention = inner.config.retention.is_some();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some((stem, ext)) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.rsplit_once('.'))
            .filter(|(_, ext)| matches!(*ext, "ddts" | "ddsi" | "ddsw"))
        else {
            continue;
        };
        let Some((tenant_name, index)) = stem.rsplit_once('@') else {
            return Err(ServerError::Protocol(format!(
                "checkpoint file {} is not named tenant@shard.{ext}",
                path.display()
            )));
        };
        let index: usize = index
            .parse()
            .map_err(|_| ServerError::Protocol(format!("bad shard index in {}", path.display())))?;
        if !valid_name(tenant_name) || index >= inner.config.shards_per_tenant {
            return Err(ServerError::Protocol(format!(
                "checkpoint file {} does not fit this server's layout",
                path.display()
            )));
        }
        let store = if ext == "ddts" {
            let file = fs::File::open(&path)?;
            let store = TimeSeriesStore::restore(io::BufReader::new(file))?;
            if store.config() != inner.config.sketch
                || store.window_secs() != inner.config.window_secs
            {
                return Err(ServerError::Protocol(format!(
                    "checkpoint {} was taken under a different configuration",
                    path.display()
                )));
            }
            Some(store)
        } else {
            None
        };
        let tenant = tenant(inner, tenant_name)?;
        let mut state = lock(&tenant.shards[index].state);
        let ShardState {
            agg,
            store: slot,
            wagg,
        } = &mut *state;
        match (ext, store) {
            ("ddsw", _) => restore_resident(wagg, &fs::read(&path)?)?,
            ("ddsi", _) if retention => restore_resident(agg, &fs::read(&path)?)?,
            (_, Some(store)) => {
                *slot = store;
                if !(retention && path.with_extension("ddsi").exists()) {
                    for (_, _, cell) in slot.cells() {
                        agg.feed(&cell.encode())?;
                    }
                    agg.fold();
                }
            }
            // A `.ddsi` left by a run with retention: without retention
            // the resident is rebuilt from the cells instead.
            _ => {}
        }
        tenant.shards[index].publish_epoch(&state);
    }
    Ok(())
}
