//! Server-side state: global counters, per-tenant sharded sketch state,
//! and the bounded staging queues between the reactor and shard
//! workers.
//!
//! ## Sharding
//!
//! Each tenant owns `shards_per_tenant` shards; a metric is routed to
//! `fnv1a(metric) % shards`, so **every metric is owned by exactly one
//! shard** — no cross-shard merge is ever needed for a per-metric
//! query, and a tenant-wide quantile is a k-way merge over one resident
//! sketch per shard (exact, by the paper's full mergeability).
//!
//! ## Backpressure
//!
//! Every shard has a bounded staging queue. [`Shard::try_push`] never
//! blocks: a full queue hands the job back, and the reactor suspends
//! the ingest connection (registering a [`ShardWaker`] that the next
//! [`Shard::pop`] fires). A suspended connection reads nothing further,
//! so the stall propagates to the agent as TCP backpressure — the
//! server throttles instead of buffering unboundedly. Payload wire-byte
//! buffers and metric-name strings are recycled through the queue in a
//! ping-pong: `try_push` hands back a spare pair for the connection's
//! next frame, and workers return spent buffers via
//! [`Shard::complete`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use ddsketch::SketchConfig;
use pipeline::{Aggregator, TimeSeriesStore, WeightedAggregator};

use crate::readplane::ShardSnapshot;

/// Lock a mutex, surviving poisoning: a thread that panicked
/// mid-operation must not wedge every other agent of the tenant. All
/// state mutations behind these locks are transactional (reject-before-
/// mutate), so the state a panicking thread leaves behind is consistent.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// FNV-1a over the metric name — the shard routing hash. Stable across
/// runs (checkpoint files are per-shard) and dependency-free.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Global monotonic counters, shared by every thread of a server.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub frames_ingested: AtomicU64,
    pub frames_rejected: AtomicU64,
    pub bytes_ingested: AtomicU64,
    pub connections_total: AtomicU64,
    pub connections_rejected: AtomicU64,
    pub open_connections: AtomicU64,
    pub ingest_disconnects: AtomicU64,
    pub queries_served: AtomicU64,
    pub backpressure_waits: AtomicU64,
    pub ingest_suspensions: AtomicU64,
    pub reactor_wakeups: AtomicU64,
    pub reactor_events: AtomicU64,
    pub checkpoints_completed: AtomicU64,
    pub query_cache_hits: AtomicU64,
    pub query_cache_misses: AtomicU64,
    pub snapshot_rebuilds: AtomicU64,
    pub snapshot_staleness_max: AtomicU64,
    pub evicted_cells: AtomicU64,
}

impl Stats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a high-watermark counter to `n` if it is below it.
    pub(crate) fn raise(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// Counter-only snapshot; the server layer fills in `staging_depth`
    /// (it needs the tenant registry, which `Stats` has no view of).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            frames_ingested: self.frames_ingested.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            bytes_ingested: self.bytes_ingested.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            ingest_disconnects: self.ingest_disconnects.load(Ordering::Relaxed),
            queries_served: self.queries_served.load(Ordering::Relaxed),
            backpressure_waits: self.backpressure_waits.load(Ordering::Relaxed),
            ingest_suspensions: self.ingest_suspensions.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            reactor_events: self.reactor_events.load(Ordering::Relaxed),
            checkpoints_completed: self.checkpoints_completed.load(Ordering::Relaxed),
            query_cache_hits: self.query_cache_hits.load(Ordering::Relaxed),
            query_cache_misses: self.query_cache_misses.load(Ordering::Relaxed),
            snapshot_rebuilds: self.snapshot_rebuilds.load(Ordering::Relaxed),
            snapshot_staleness_max: self.snapshot_staleness_max.load(Ordering::Relaxed),
            evicted_cells: self.evicted_cells.load(Ordering::Relaxed),
            staging_depth: Vec::new(),
            tenants: Vec::new(),
        }
    }
}

/// A point-in-time copy of the server's counters — what `STATS` reports
/// and what [`crate::ServerHandle::stats`] returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Frames decoded, routed, and absorbed into tenant state.
    pub frames_ingested: u64,
    /// Frames rejected without touching tenant state: by the reactor
    /// (corrupt envelope or framing) or by a shard worker (corrupt
    /// payload bytes or incompatible configuration).
    pub frames_rejected: u64,
    /// Envelope bytes of frames staged for absorption.
    pub bytes_ingested: u64,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Connections refused at the [`crate::ServerConfig::max_connections`]
    /// cap (not counted in `connections_total`).
    pub connections_rejected: u64,
    /// Connections currently open.
    pub open_connections: u64,
    /// Ingest connections that ended without a clean `DDSF` terminator.
    pub ingest_disconnects: u64,
    /// Query commands answered (including `-ERR` answers).
    pub queries_served: u64,
    /// Times ingest stalled on a full staging queue: a frame bounced,
    /// and its retry after the waker registration bounced too.
    pub backpressure_waits: u64,
    /// Ingest connections deregistered on a full staging queue until
    /// the shard worker drained space, counted once per suspension
    /// (each one also counts in `backpressure_waits`).
    pub ingest_suspensions: u64,
    /// Times the event loop returned from its readiness wait.
    pub reactor_wakeups: u64,
    /// Readiness events dispatched to connection state machines.
    pub reactor_events: u64,
    /// Checkpoint sweeps completed (periodic, on demand, and final).
    pub checkpoints_completed: u64,
    /// Queries answered straight from the answer cache — no parse, no
    /// lock, no allocation.
    pub query_cache_hits: u64,
    /// Cacheable queries that missed the answer cache (uncached line,
    /// or an entry invalidated by an epoch change).
    pub query_cache_misses: u64,
    /// Per-shard read snapshots rebuilt (a short state-lock hold each).
    pub snapshot_rebuilds: u64,
    /// Largest epoch gap any snapshot rebuild has closed — the measured
    /// bound on how far a served answer ever trailed the ingested data.
    pub snapshot_staleness_max: u64,
    /// Windowed-store cells evicted by the TTL retention sweep.
    pub evicted_cells: u64,
    /// Live staging depth (queued + in-flight jobs) per shard index,
    /// summed across tenants; length = `shards_per_tenant`.
    pub staging_depth: Vec<u64>,
    /// Per-tenant absorbed payload counts and weighted value totals,
    /// name-sorted.
    pub tenants: Vec<TenantStats>,
}

/// Per-tenant ingest totals, reported in `STATS`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    pub name: String,
    /// Payloads absorbed into this tenant's state.
    pub frames_absorbed: u64,
    /// Total observation weight absorbed — integer payloads contribute
    /// their counts, `DDS3` payloads their `f64` weights.
    pub weighted_total: f64,
}

/// One routed frame awaiting a shard worker: the envelope's metric and
/// timestamp, and the payload's wire bytes. The worker decodes and
/// admits the payload itself, so the reactor only frames and routes.
#[derive(Debug)]
pub(crate) struct Job {
    pub metric: String,
    pub ts_secs: u64,
    pub payload: Vec<u8>,
}

/// The sketch state a shard worker owns: the tenant-shard's resident
/// aggregator (tenant-wide quantiles), its windowed time-series store
/// (per-metric series, checkpoints), and the weighted-plane aggregator
/// absorbing `DDS3` frames. Integer frames feed the first two from a
/// single decode, so they answer from the same data; weighted frames
/// feed only the weighted plane (the windowed store's rollups stay on
/// exact integer counts).
#[derive(Debug)]
pub(crate) struct ShardState {
    pub agg: Aggregator,
    pub store: TimeSeriesStore,
    pub wagg: WeightedAggregator,
}

/// Readiness callback for a connection suspended on a full staging
/// queue. Wakes must be cheap, non-blocking, and idempotent; a stale
/// wake (the connection already resumed or died) is harmless.
pub(crate) trait ShardWaker: Send + Sync + std::fmt::Debug {
    fn wake(&self);
}

/// Outcome of a nonblocking [`Shard::try_push`]: the job is either
/// stored (with recycled buffers handed back) or returned to the caller
/// untouched, so no accepted frame is ever dropped on a full queue.
#[derive(Debug)]
pub(crate) enum TryPush {
    /// Staged; here are recycled `(payload bytes, metric string)`
    /// buffers for the connection's next frame.
    Stored((Vec<u8>, String)),
    /// Queue at its bound — suspend and retry after a waker fires.
    Full(Job),
    /// Shard closed (server shutting down); the job will never land.
    Closed,
}

#[derive(Debug, Default)]
struct StagingInner {
    queue: VecDeque<Job>,
    /// Spent payload-byte and metric buffers flowing back to ingest
    /// connections.
    spare_frames: Vec<Vec<u8>>,
    spare_strings: Vec<String>,
    /// Jobs popped but not yet [`Shard::complete`]d — `sync` must wait
    /// for these too, or a drained queue could still mean an absorb in
    /// flight.
    in_flight: usize,
    high_watermark: usize,
    closed: bool,
    /// Suspended reactor connections to wake when space frees up (or
    /// the shard closes). Each pop wakes the front waiter — one freed
    /// slot, one resume — and close wakes them all; the reactor's idle
    /// sweep covers any wake consumed by a connection that had already
    /// moved on.
    waiters: Vec<Arc<dyn ShardWaker>>,
}

/// `snap_epoch` value meaning "no snapshot installed yet". Epochs are
/// sums of per-structure counters bumped once per frame; `u64::MAX` is
/// unreachable in any real run.
const NO_SNAPSHOT: u64 = u64::MAX;

/// One shard of a tenant: a bounded staging queue feeding a dedicated
/// worker that owns the shard's [`ShardState`], plus the epoch-cached
/// read plane that serves queries without touching the state lock.
#[derive(Debug)]
pub(crate) struct Shard {
    staging: Mutex<StagingInner>,
    not_empty: Condvar,
    drained: Condvar,
    bound: usize,
    pub state: Mutex<ShardState>,
    /// Staged-plus-in-flight job count, mirrored out of `staging` so
    /// the read plane can probe quiescence without taking any lock.
    live: AtomicU64,
    /// The shard's published data epoch: the sum of the pipeline epochs
    /// ([`Aggregator`], [`TimeSeriesStore`], [`WeightedAggregator`]),
    /// stored by [`Shard::publish_epoch`] after every mutation. May
    /// momentarily trail the in-lock sum — that direction only ever
    /// causes a spurious rebuild, never a stale serve.
    epoch: AtomicU64,
    /// Epoch label of the installed [`ShardSnapshot`], [`NO_SNAPSHOT`]
    /// until the first rebuild — lets freshness probes skip the
    /// snapshot lock entirely.
    snap_epoch: AtomicU64,
    /// The installed read snapshot; the lock is held only for an
    /// `Arc` clone (serve) or pointer swap (install).
    snapshot: Mutex<Option<Arc<ShardSnapshot>>>,
}

impl Shard {
    fn new(state: ShardState, bound: usize) -> Self {
        Self {
            staging: Mutex::new(StagingInner::default()),
            not_empty: Condvar::new(),
            drained: Condvar::new(),
            bound: bound.max(1),
            state: Mutex::new(state),
            live: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            snap_epoch: AtomicU64::new(NO_SNAPSHOT),
            snapshot: Mutex::new(None),
        }
    }

    /// Jobs staged or mid-absorb right now — zero means quiesced: the
    /// published epoch is final until the next push. Lock-free.
    pub(crate) fn live_depth(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// The shard's published data epoch. Lock-free.
    pub(crate) fn data_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Epoch label of the installed read snapshot ([`NO_SNAPSHOT`]
    /// before the first rebuild). Lock-free.
    pub(crate) fn snapshot_epoch(&self) -> u64 {
        self.snap_epoch.load(Ordering::Relaxed)
    }

    /// The combined pipeline epoch of `state` — the label every
    /// publish and snapshot carries.
    fn combined_epoch(state: &ShardState) -> u64 {
        state
            .agg
            .epoch()
            .wrapping_add(state.store.epoch())
            .wrapping_add(state.wagg.epoch())
    }

    /// Publish the shard's data epoch. Callers invoke this while still
    /// holding the state lock after mutating (absorb, restore, sweep),
    /// so the published value never runs ahead of reality.
    pub(crate) fn publish_epoch(&self, state: &ShardState) {
        self.epoch
            .store(Self::combined_epoch(state), Ordering::Relaxed);
    }

    /// Serve the shard's read snapshot, rebuilding only when the shard
    /// is quiesced *and* the installed snapshot is stale (or absent).
    /// While ingest is in flight the installed snapshot serves as-is —
    /// bounded staleness, zero state-lock holds — and the shard worker
    /// republishes on its refresh cadence.
    pub(crate) fn read_snapshot(&self, stats: &Stats) -> Arc<ShardSnapshot> {
        let snap_epoch = self.snapshot_epoch();
        if snap_epoch != NO_SNAPSHOT && (self.live_depth() > 0 || snap_epoch >= self.data_epoch()) {
            if let Some(snap) = lock(&self.snapshot).clone() {
                return snap;
            }
        }
        self.rebuild_snapshot(stats)
    }

    /// Worker-side publish: rebuild the snapshot unless it already
    /// matches the published epoch. Called on the refresh cadence and
    /// when the staging queue drains.
    pub(crate) fn refresh_snapshot(&self, stats: &Stats) {
        if self.snapshot_epoch() != self.data_epoch() {
            self.rebuild_snapshot(stats);
        }
    }

    /// The PR 3 short-hold pattern: take the state lock just long
    /// enough to fold and copy the residents, then install the labelled
    /// copy outside it. Concurrent rebuilds are safe — install keeps
    /// whichever snapshot carries the newest epoch.
    fn rebuild_snapshot(&self, stats: &Stats) -> Arc<ShardSnapshot> {
        let snap = {
            let mut state = lock(&self.state);
            state.agg.fold();
            state.wagg.fold();
            self.publish_epoch(&state);
            Arc::new(ShardSnapshot {
                epoch: Self::combined_epoch(&state),
                resident: state.agg.resident().clone(),
                weighted: state.wagg.resident().clone(),
                count: state.agg.count(),
                weighted_count: state.wagg.weighted_count(),
            })
        };
        Stats::add(&stats.snapshot_rebuilds, 1);
        let mut slot = lock(&self.snapshot);
        let current = self.snap_epoch.load(Ordering::Relaxed);
        if current == NO_SNAPSHOT || snap.epoch >= current {
            if current != NO_SNAPSHOT {
                Stats::raise(&stats.snapshot_staleness_max, snap.epoch - current);
            }
            *slot = Some(Arc::clone(&snap));
            self.snap_epoch.store(snap.epoch, Ordering::Relaxed);
        }
        snap
    }

    /// Stage the job if the queue has room, hand it straight back
    /// otherwise — the event loop must never park on a full queue.
    /// Returns recycled `(payload bytes, metric string)` buffers for the
    /// connection's next frame.
    pub(crate) fn try_push(&self, job: Job) -> TryPush {
        let mut inner = lock(&self.staging);
        if inner.closed {
            drop(job);
            return TryPush::Closed;
        }
        if inner.queue.len() >= self.bound {
            return TryPush::Full(job);
        }
        inner.queue.push_back(job);
        inner.high_watermark = inner.high_watermark.max(inner.queue.len());
        self.live.fetch_add(1, Ordering::Relaxed);
        let spare = (
            inner.spare_frames.pop().unwrap_or_default(),
            inner.spare_strings.pop().unwrap_or_default(),
        );
        drop(inner);
        self.not_empty.notify_one();
        TryPush::Stored(spare)
    }

    /// Register a waker to fire when staging space frees up. Deduped by
    /// `Arc` identity, so re-registering on the lost-wakeup-avoidance
    /// retry path (register → retry `try_push` → still full) is free.
    pub(crate) fn add_waiter(&self, waker: &Arc<dyn ShardWaker>) {
        let mut inner = lock(&self.staging);
        if !inner.waiters.iter().any(|w| Arc::ptr_eq(w, waker)) {
            inner.waiters.push(Arc::clone(waker));
        }
    }

    /// Drop a registered waker. Called when the retry `try_push` after
    /// [`Shard::add_waiter`] lands after all: with one-waiter-per-pop
    /// wakes, a stale registration would otherwise consume a wake some
    /// genuinely suspended connection needed.
    pub(crate) fn remove_waiter(&self, waker: &Arc<dyn ShardWaker>) {
        let mut inner = lock(&self.staging);
        inner.waiters.retain(|w| !Arc::ptr_eq(w, waker));
    }

    /// Worker side: take the next job, blocking while the queue is
    /// empty. `None` once the shard is closed *and* drained — the
    /// worker's signal to exit (already-staged jobs are still handed
    /// out after close, so shutdown never drops accepted frames).
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut inner = lock(&self.staging);
        loop {
            if let Some(job) = inner.queue.pop_front() {
                inner.in_flight += 1;
                // One pop frees one slot, so wake exactly one waiter
                // (FIFO). Waking the whole herd makes every freed slot
                // cost O(waiters) futile resumes. The reactor's idle
                // sweep backstops any wake that lands on a connection
                // that no longer needs it.
                let waiter = if inner.waiters.is_empty() {
                    None
                } else {
                    Some(inner.waiters.remove(0))
                };
                drop(inner);
                if let Some(waker) = waiter {
                    waker.wake();
                }
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Worker side: mark the previously popped job absorbed and return
    /// its buffers to the recycle pools.
    pub(crate) fn complete(&self, mut payload: Vec<u8>, mut metric: String) {
        payload.clear();
        metric.clear();
        let mut inner = lock(&self.staging);
        inner.spare_frames.push(payload);
        inner.spare_strings.push(metric);
        inner.in_flight -= 1;
        // The worker has already published the epoch for this job (it
        // absorbs, publishes, then completes), so decrementing `live`
        // here can never let a query treat a pre-absorb snapshot as
        // caught-up.
        self.live.fetch_sub(1, Ordering::Relaxed);
        if inner.queue.is_empty() && inner.in_flight == 0 {
            drop(inner);
            self.drained.notify_all();
        }
    }

    /// Block until every staged job has been absorbed (queue empty and
    /// nothing in flight) — the barrier behind `SYNC` and checkpoints.
    pub(crate) fn sync(&self) {
        let mut inner = lock(&self.staging);
        while !inner.queue.is_empty() || inner.in_flight > 0 {
            inner = self
                .drained
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Close the queue: pushes start failing, and the worker exits once
    /// the backlog drains. Suspended reactor connections are woken so
    /// they observe the close instead of waiting forever.
    pub(crate) fn close(&self) {
        let waiters = {
            let mut inner = lock(&self.staging);
            inner.closed = true;
            std::mem::take(&mut inner.waiters)
        };
        self.not_empty.notify_all();
        for waker in &waiters {
            waker.wake();
        }
    }

    /// Current staging depth and the deepest it has ever been.
    pub(crate) fn depth(&self) -> (usize, usize) {
        let inner = lock(&self.staging);
        (inner.queue.len() + inner.in_flight, inner.high_watermark)
    }
}

/// One tenant: its name, its shards, and its ingest totals.
#[derive(Debug)]
pub(crate) struct Tenant {
    pub name: String,
    pub shards: Vec<Arc<Shard>>,
    /// Payloads absorbed into this tenant's state (both planes).
    pub frames_absorbed: AtomicU64,
    /// Total observation weight absorbed, as `f64` bits — advanced with
    /// a CAS loop ([`Tenant::add_weight`]), same technique as the
    /// atomic store plane's `f64` cells.
    weighted_total_bits: AtomicU64,
}

impl Tenant {
    pub(crate) fn new(
        name: &str,
        config: SketchConfig,
        num_shards: usize,
        staging_bound: usize,
        fold_threshold: usize,
        window_secs: u64,
    ) -> Result<Self, ddsketch::SketchError> {
        let mut shards = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            shards.push(Arc::new(Shard::new(
                ShardState {
                    agg: Aggregator::with_config(config, fold_threshold)?,
                    store: TimeSeriesStore::with_config(config, window_secs)?,
                    wagg: WeightedAggregator::with_config(config, fold_threshold)?,
                },
                staging_bound,
            )));
        }
        Ok(Self {
            name: name.to_string(),
            shards,
            frames_absorbed: AtomicU64::new(0),
            weighted_total_bits: AtomicU64::new(0.0f64.to_bits()),
        })
    }

    /// Advance the tenant's weighted ingest total by `w`.
    pub(crate) fn add_weight(&self, w: f64) {
        let mut current = self.weighted_total_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + w).to_bits();
            match self.weighted_total_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// The tenant's weighted ingest total.
    pub(crate) fn weighted_total(&self) -> f64 {
        f64::from_bits(self.weighted_total_bits.load(Ordering::Relaxed))
    }

    /// The shard owning `metric`.
    pub(crate) fn shard_for(&self, metric: &str) -> &Arc<Shard> {
        &self.shards[self.shard_index_for(metric)]
    }

    /// The index of the shard owning `metric` (stable across runs — the
    /// checkpoint filenames depend on it).
    pub(crate) fn shard_index_for(&self, metric: &str) -> usize {
        (fnv1a(metric.as_bytes()) % self.shards.len() as u64) as usize
    }
}

/// The tenant registry: name → tenant, created on first ingest (or by
/// checkpoint restore at boot).
#[derive(Debug, Default)]
pub(crate) struct Registry {
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
}

impl Registry {
    pub(crate) fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        lock(&self.tenants).get(name).cloned()
    }

    /// Look up `name`, building it with `make` on first sight. Returns
    /// the tenant and whether this call created it.
    pub(crate) fn get_or_create(
        &self,
        name: &str,
        make: impl FnOnce() -> Result<Tenant, ddsketch::SketchError>,
    ) -> Result<(Arc<Tenant>, bool), ddsketch::SketchError> {
        let mut tenants = lock(&self.tenants);
        if let Some(tenant) = tenants.get(name) {
            return Ok((tenant.clone(), false));
        }
        let tenant = Arc::new(make()?);
        tenants.insert(name.to_string(), tenant.clone());
        Ok((tenant, true))
    }

    /// Every tenant, name-sorted (for `TENANTS` and checkpoint sweeps).
    pub(crate) fn all(&self) -> Vec<Arc<Tenant>> {
        let mut all: Vec<_> = lock(&self.tenants).values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn staging_queue_bounces_at_bound_and_recycles() {
        let config = SketchConfig::dense_collapsing(0.01, 128);
        let tenant = Tenant::new("t", config, 1, 2, 4, 10).unwrap();
        let shard = tenant.shards[0].clone();

        let job = |i: u64| Job {
            metric: format!("m{i}"),
            ts_secs: i,
            payload: Vec::new(),
        };
        let stored = |outcome: TryPush| match outcome {
            TryPush::Stored(spare) => spare,
            other => panic!("expected Stored, got {other:?}"),
        };
        stored(shard.try_push(job(0)));
        stored(shard.try_push(job(1)));
        assert_eq!(shard.depth().0, 2);

        // A third job at the bound comes straight back, untouched.
        let bounced = match shard.try_push(job(2)) {
            TryPush::Full(job) => job,
            other => panic!("expected Full, got {other:?}"),
        };
        assert_eq!(bounced.metric, "m2");

        // The worker side pops in FIFO order, and each pop frees a slot.
        let popped = shard.pop().unwrap();
        assert_eq!(popped.metric, "m0");
        stored(shard.try_push(bounced));
        assert_eq!(shard.depth().0, 3, "two queued plus one in flight");

        // `sync` is a barrier over in-flight jobs too: it cannot return
        // while the popped job is still being absorbed.
        let syncer = {
            let shard = shard.clone();
            std::thread::spawn(move || shard.sync())
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!syncer.is_finished(), "sync returned with jobs pending");

        // Completing a job returns its buffers to the recycle pools: the
        // next push hands them back, cleared, capacity kept.
        let Job {
            metric: mut spent_metric,
            payload: mut spent_payload,
            ..
        } = popped;
        spent_metric.reserve(64);
        let metric_capacity = spent_metric.capacity();
        spent_payload.extend_from_slice(b"DDS2 payload bytes");
        let payload_capacity = spent_payload.capacity();
        shard.complete(spent_payload, spent_metric);
        let next = shard.pop().unwrap();
        let (spare_payload, spare_metric) = stored(shard.try_push(job(3)));
        assert!(spare_metric.is_empty());
        assert_eq!(spare_metric.capacity(), metric_capacity);
        assert!(spare_payload.is_empty());
        assert_eq!(spare_payload.capacity(), payload_capacity);
        shard.complete(next.payload, next.metric);

        // Drain; the syncer returns once queue and in-flight are empty.
        while shard.depth().0 > 0 {
            let job = shard.pop().unwrap();
            shard.complete(job.payload, job.metric);
        }
        syncer.join().unwrap();
        shard.sync();
        let (_, high) = shard.depth();
        assert_eq!(high, 2, "high watermark equals the bound");

        // Closed shard: pushes bounce as Closed, jobs staged before the
        // close still pop, then pop returns None.
        stored(shard.try_push(job(4)));
        shard.close();
        assert!(matches!(shard.try_push(job(5)), TryPush::Closed));
        let last = shard.pop().unwrap();
        assert_eq!(last.metric, "m4");
        shard.complete(last.payload, last.metric);
        assert!(shard.pop().is_none());
    }

    #[derive(Debug, Default)]
    struct CountingWaker(AtomicU64);

    impl ShardWaker for CountingWaker {
        fn wake(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn try_push_returns_full_and_wakes_on_pop() {
        let config = SketchConfig::dense_collapsing(0.01, 128);
        let tenant = Tenant::new("t", config, 1, 2, 4, 10).unwrap();
        let shard = tenant.shards[0].clone();
        let job = |i: u64| Job {
            metric: format!("m{i}"),
            ts_secs: i,
            payload: Vec::new(),
        };

        assert!(matches!(shard.try_push(job(0)), TryPush::Stored(_)));
        assert!(matches!(shard.try_push(job(1)), TryPush::Stored(_)));
        // At the bound: the job comes back untouched, nothing blocks.
        let bounced = match shard.try_push(job(2)) {
            TryPush::Full(job) => job,
            other => panic!("expected Full, got {other:?}"),
        };
        assert_eq!(bounced.metric, "m2");

        // Lost-wakeup protocol: register, retry once, then suspend.
        let waker = Arc::new(CountingWaker::default());
        let dyn_waker: Arc<dyn ShardWaker> = waker.clone();
        shard.add_waiter(&dyn_waker);
        shard.add_waiter(&dyn_waker); // deduped by Arc identity
        let bounced = match shard.try_push(bounced) {
            TryPush::Full(job) => job,
            other => panic!("expected Full, got {other:?}"),
        };

        // A pop frees space and fires the waker exactly once.
        let popped = shard.pop().unwrap();
        assert_eq!(waker.0.load(Ordering::Relaxed), 1);
        assert!(matches!(shard.try_push(bounced), TryPush::Stored(_)));
        shard.complete(popped.payload, popped.metric);

        // Close wakes suspended connections and bounces jobs back.
        shard.add_waiter(&dyn_waker);
        shard.close();
        assert_eq!(waker.0.load(Ordering::Relaxed), 2);
        assert!(matches!(shard.try_push(job(3)), TryPush::Closed));
    }

    #[test]
    fn metrics_route_to_stable_shards() {
        let config = SketchConfig::dense_collapsing(0.01, 128);
        let tenant = Tenant::new("t", config, 4, 8, 4, 10).unwrap();
        for metric in ["api.latency", "db.query", "cache.hit", "queue.depth"] {
            let a = tenant.shard_index_for(metric);
            let b = tenant.shard_index_for(metric);
            assert_eq!(a, b);
            assert!(a < 4);
            assert!(Arc::ptr_eq(tenant.shard_for(metric), &tenant.shards[a]));
        }
    }

    #[test]
    fn registry_creates_once() {
        let registry = Registry::default();
        let config = SketchConfig::dense_collapsing(0.01, 128);
        let make = || Tenant::new("acme", config, 2, 8, 4, 10);
        assert!(registry.get("acme").is_none());
        let (first, created) = registry.get_or_create("acme", make).unwrap();
        assert!(created);
        let (second, created) = registry.get_or_create("acme", make).unwrap();
        assert!(!created);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(registry.all().len(), 1);
    }
}
