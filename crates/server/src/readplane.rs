//! The epoch-cached read plane: per-shard read snapshots and the
//! answer cache that serve QUANTILE/WQUANTILE/COUNT/WCOUNT/SERIES
//! without touching the shard state locks at steady state.
//!
//! ## Why
//!
//! A query that folded per-shard state under the same
//! `Mutex<ShardState>` the shard workers absorb into would inherit the
//! ingest plane's lock contention. DDSketch's full mergeability means a
//! *copy* of the folded state answers exactly the same, so reads are
//! decoupled from ingest with two layers, and these are the only read
//! path:
//!
//! * **Read snapshots** ([`ShardSnapshot`]) — an immutable, epoch-
//!   labelled copy of a shard's folded residents, swapped in whole
//!   behind an `Arc`. Shard workers republish every 64 absorbed frames
//!   and whenever their staging queue drains; queries on a quiesced
//!   shard rebuild on demand (a short hold: the state lock is held only
//!   for the fold + bin copy, the rank walk runs outside).
//! * **Answer cache** ([`QueryCache`]) — rendered responses keyed by
//!   the raw query line, validated against the epoch vector they were
//!   computed from. A hit is a handful of relaxed atomic loads and one
//!   `memcpy` — no state lock, no parse, zero allocations.
//!
//! The server's unit tests hold every shard's state lock while
//! cache-missing tenant-wide queries answer, and check that no snapshot
//! was rebuilt: that is the property this module exists for.
//!
//! ## Staleness contract
//!
//! A served answer is never stale relative to a *quiesced* shard: the
//! freshness predicate accepts a cached epoch only while the shard has
//! staged-but-unabsorbed frames in flight (in which case any answer is
//! inherently racy) or while the snapshot exactly matches the data
//! epoch. After `SYNC` drains the queues, every answer is bit-identical
//! to a fresh under-lock fold — property-tested below and in the
//! workspace suite.

use std::sync::{Arc, Mutex};

use ddsketch::{AnyDDSketch, AnyWeightedDDSketch};

use crate::state::{lock, Stats, Tenant};

/// An immutable, epoch-labelled copy of one shard's folded state — what
/// the read plane answers from instead of the live `ShardState`.
#[derive(Debug)]
pub(crate) struct ShardSnapshot {
    /// The shard's combined data epoch at the moment of the copy (taken
    /// under the state lock, after folding, so the label is exact).
    pub epoch: u64,
    /// The integer plane's folded resident.
    pub resident: AnyDDSketch,
    /// The weighted plane's folded resident.
    pub weighted: AnyWeightedDDSketch,
    /// `resident.count()`, denormalized for COUNT/WCOUNT answers.
    pub count: u64,
    /// `weighted.weighted_count()`, denormalized likewise.
    pub weighted_count: f64,
}

/// Which freshness rule validates a cached answer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CacheScope {
    /// Answered from every shard's read snapshot: fresh while each
    /// shard still serves the same snapshot **and** is either
    /// ingest-busy (bounded staleness applies) or exactly caught up —
    /// so quiesced shards always revalidate against the data epoch.
    Snapshots,
    /// Answered under one shard's state lock (SERIES, whose windowed
    /// store is not snapshotted): fresh only while that shard's data
    /// epoch is unchanged.
    Shard(usize),
}

/// The key material a query handler captures while computing a
/// cacheable answer: which tenant, which freshness rule, and the epoch
/// vector the answer was derived from.
#[derive(Debug)]
pub(crate) struct CacheFill {
    pub tenant: Arc<Tenant>,
    pub scope: CacheScope,
    pub epochs: Vec<u64>,
}

#[derive(Debug)]
struct CacheEntry {
    /// The raw query line — keying on bytes (not the parsed command)
    /// lets hits skip `parse_command` entirely, which is what makes the
    /// hit path allocation-free.
    line: String,
    tenant: Arc<Tenant>,
    scope: CacheScope,
    epochs: Vec<u64>,
    response: Vec<u8>,
}

impl CacheEntry {
    /// Lock-free, allocation-free freshness probe.
    fn is_fresh(&self) -> bool {
        match self.scope {
            CacheScope::Snapshots => {
                self.tenant.shards.len() == self.epochs.len()
                    && self
                        .tenant
                        .shards
                        .iter()
                        .zip(&self.epochs)
                        .all(|(shard, &epoch)| {
                            shard.snapshot_epoch() == epoch
                                && (shard.live_depth() > 0 || shard.data_epoch() == epoch)
                        })
            }
            CacheScope::Shard(index) => self
                .tenant
                .shards
                .get(index)
                .zip(self.epochs.first())
                .is_some_and(|(shard, &epoch)| shard.data_epoch() == epoch),
        }
    }
}

/// Answer-cache capacity: a small bounded set scanned linearly — hot
/// dashboards repeat a handful of distinct lines, and a linear scan of
/// ≤ 64 short strings is cheaper than hashing would ever pay back.
const CACHE_CAPACITY: usize = 64;

#[derive(Debug, Default)]
struct CacheState {
    entries: Vec<CacheEntry>,
    /// Ring-eviction cursor once the cache is full.
    victim: usize,
}

/// The server-wide answer cache for hot repeated queries; see the
/// module docs for the freshness contract.
#[derive(Debug, Default)]
pub(crate) struct QueryCache {
    state: Mutex<CacheState>,
}

impl QueryCache {
    /// Serve `line` from the cache if a fresh entry exists, appending
    /// the stored response to `out`. Counts a hit or a miss either way.
    pub(crate) fn serve(&self, line: &str, out: &mut Vec<u8>, stats: &Stats) -> bool {
        let state = lock(&self.state);
        if let Some(entry) = state.entries.iter().find(|e| e.line == line) {
            if entry.is_fresh() {
                out.extend_from_slice(&entry.response);
                Stats::add(&stats.query_cache_hits, 1);
                return true;
            }
        }
        Stats::add(&stats.query_cache_misses, 1);
        false
    }

    /// Record a freshly computed response for `line`. An existing entry
    /// for the same line is updated in place (reusing its buffers);
    /// otherwise the cache grows to [`CACHE_CAPACITY`] and then evicts
    /// round-robin.
    pub(crate) fn store(&self, line: &str, fill: CacheFill, response: &[u8]) {
        let mut state = lock(&self.state);
        let CacheState { entries, victim } = &mut *state;
        if let Some(entry) = entries.iter_mut().find(|e| e.line == line) {
            entry.tenant = fill.tenant;
            entry.scope = fill.scope;
            entry.epochs.clear();
            entry.epochs.extend_from_slice(&fill.epochs);
            entry.response.clear();
            entry.response.extend_from_slice(response);
            return;
        }
        let entry = CacheEntry {
            line: line.to_string(),
            tenant: fill.tenant,
            scope: fill.scope,
            epochs: fill.epochs,
            response: response.to_vec(),
        };
        if entries.len() < CACHE_CAPACITY {
            entries.push(entry);
        } else {
            entries[*victim] = entry;
            *victim = (*victim + 1) % CACHE_CAPACITY;
        }
    }
}

/// Whether a query line names a command the answer cache may serve.
/// Case-insensitive on the verb (like the parser) and allocation-free;
/// a `false` simply routes the line through the uncached path.
pub(crate) fn cacheable(line: &str) -> bool {
    let verb = line.split_whitespace().next().unwrap_or("");
    ["QUANTILE", "WQUANTILE", "COUNT", "WCOUNT", "SERIES"]
        .iter()
        .any(|v| verb.eq_ignore_ascii_case(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Job, ShardState, Stats, TryPush};
    use ddsketch::{SketchConfig, SketchPayload, WeightedSketchPayload};
    use proptest::prelude::*;

    fn integer_frame(config: SketchConfig, values: &[f64]) -> Vec<u8> {
        let mut s = config.build().unwrap();
        for &v in values {
            s.add(v).unwrap();
        }
        s.encode()
    }

    fn weighted_frame(config: SketchConfig, entries: &[(f64, f64)]) -> Vec<u8> {
        let mut s = AnyWeightedDDSketch::new(config).unwrap();
        for &(v, w) in entries {
            s.add_with_count(v, w).unwrap();
        }
        s.encode()
    }

    /// Drive one shard exactly like a worker would: stage, pop, decode,
    /// absorb under the state lock, publish the epoch, complete.
    fn absorb(tenant: &Tenant, metric: &str, frame: &[u8], weighted: bool) {
        let shard = tenant.shard_for(metric).clone();
        let job = Job {
            metric: metric.to_string(),
            ts_secs: 0,
            payload: frame.to_vec(),
        };
        assert!(matches!(shard.try_push(job), TryPush::Stored(_)));
        let job = shard.pop().unwrap();
        let mut state = lock(&shard.state);
        if weighted {
            let mut p = WeightedSketchPayload::default();
            p.decode_into(&job.payload).unwrap();
            state.wagg.feed_payload(p).unwrap();
        } else {
            let mut p = SketchPayload::default();
            p.decode_into(&job.payload).unwrap();
            state
                .store
                .absorb_payload(&job.metric, job.ts_secs, &p)
                .unwrap();
            state.agg.feed_payload(p).unwrap();
        }
        shard.publish_epoch(&state);
        drop(state);
        shard.complete(job.payload, job.metric);
    }

    /// The "fresh under-lock fold" reference: fold the live state and
    /// read its answers directly.
    fn fresh_fold(
        state: &mut ShardState,
        qs: &[f64],
    ) -> (u64, Vec<f64>, f64, Result<Vec<f64>, ()>) {
        state.agg.fold();
        state.wagg.fold();
        let count = state.agg.count();
        let quantiles = state.agg.quantiles(qs).unwrap_or_default();
        let wcount = state.wagg.weighted_count();
        let wq = state.wagg.quantiles(qs).map_err(|_| ());
        (count, quantiles, wcount, wq)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Across interleaved feed/fold/query schedules, on all five
        // configs and both count planes: a snapshot-served read is
        // bit-identical to a fresh under-lock fold at the same epoch,
        // and a *held* snapshot's answers never drift as later frames
        // land (isolation).
        #[test]
        fn snapshot_reads_equal_fresh_folds(
            ops in proptest::collection::vec((0u8..4, 1u64..50, 1u64..6), 1..40),
        ) {
            let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
            for config in SketchConfig::all(0.01, 128) {
                let stats = Stats::default();
                let tenant = Tenant::new("t", config, 1, 64, 4, 10).unwrap();
                let shard = &tenant.shards[0];
                let mut held: Option<(Arc<ShardSnapshot>, Vec<f64>, u64)> = None;
                for &(kind, seed, len) in &ops {
                    match kind {
                        // Feed an integer frame.
                        0 => {
                            let values: Vec<f64> =
                                (1..=len).map(|i| (seed * i) as f64 * 0.37).collect();
                            absorb(&tenant, "m", &integer_frame(config, &values), false);
                        }
                        // Feed a weighted frame.
                        1 => {
                            let entries: Vec<(f64, f64)> = (1..=len)
                                .map(|i| ((seed * i) as f64 * 0.61, 0.5 + seed as f64))
                                .collect();
                            absorb(&tenant, "m", &weighted_frame(config, &entries), true);
                        }
                        // Explicit fold under the lock (publishes).
                        2 => {
                            let mut state = lock(&shard.state);
                            state.agg.fold();
                            state.wagg.fold();
                            shard.publish_epoch(&state);
                        }
                        // Query: snapshot vs fresh fold, bit-identical.
                        _ => {
                            let snap = shard.read_snapshot(&stats);
                            let (count, quantiles, wcount, wq) = {
                                let mut state = lock(&shard.state);
                                let r = fresh_fold(&mut state, &qs);
                                shard.publish_epoch(&state);
                                r
                            };
                            prop_assert_eq!(snap.count, count);
                            prop_assert_eq!(snap.weighted_count.to_bits(), wcount.to_bits());
                            if count > 0 {
                                prop_assert_eq!(
                                    snap.resident.quantiles(&qs).unwrap(),
                                    quantiles.clone(),
                                    "{}: snapshot quantiles must equal the fresh fold",
                                    config.name()
                                );
                            }
                            if let Ok(expected) = &wq {
                                prop_assert_eq!(
                                    &snap.weighted.quantiles(&qs).unwrap(),
                                    expected
                                );
                            }
                            // Pin the first non-empty snapshot and its
                            // answers for the isolation check below.
                            if held.is_none() && count > 0 {
                                held = Some((
                                    Arc::clone(&snap),
                                    snap.resident.quantiles(&qs).unwrap(),
                                    count,
                                ));
                            }
                        }
                    }
                    // Isolation: the held snapshot is immutable — its
                    // answers must not move no matter what landed since.
                    if let Some((snap, quantiles, count)) = &held {
                        prop_assert_eq!(&snap.resident.quantiles(&qs).unwrap(), quantiles);
                        prop_assert_eq!(snap.count, *count);
                    }
                }
            }
        }
    }

    #[test]
    fn quiesced_reads_are_exact_and_cached() {
        let config = SketchConfig::dense_collapsing(0.01, 128);
        let stats = Stats::default();
        let tenant = Tenant::new("t", config, 1, 64, 4, 10).unwrap();
        let shard = &tenant.shards[0];
        absorb(
            &tenant,
            "m",
            &integer_frame(config, &[1.0, 2.0, 3.0]),
            false,
        );
        // First read rebuilds (the shard is quiesced, no snapshot yet).
        let first = shard.read_snapshot(&stats);
        assert_eq!(first.count, 3);
        assert_eq!(shard.snapshot_epoch(), shard.data_epoch());
        // Second read serves the very same Arc: zero lock holds.
        let second = shard.read_snapshot(&stats);
        assert!(Arc::ptr_eq(&first, &second));
        let rebuilds = stats
            .snapshot_rebuilds
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(rebuilds, 1);
        // New data on a quiesced shard invalidates: next read rebuilds.
        absorb(&tenant, "m", &integer_frame(config, &[4.0]), false);
        let third = shard.read_snapshot(&stats);
        assert_eq!(third.count, 4);
        assert!(!Arc::ptr_eq(&first, &third));
    }

    #[test]
    fn cacheable_matches_the_query_family() {
        for line in [
            "COUNT t",
            "count t",
            "WCOUNT t",
            "QUANTILE t 0.5 0.99",
            "wquantile t 0.5",
            "SERIES t m 0.9",
        ] {
            assert!(cacheable(line), "{line}");
        }
        for line in ["PING", "STATS", "SYNC", "DUMP t 0", "", "  ", "QUANT t"] {
            assert!(!cacheable(line), "{line}");
        }
    }

    #[test]
    fn cache_round_trips_and_invalidates_on_epoch_change() {
        let config = SketchConfig::dense_collapsing(0.01, 128);
        let stats = Stats::default();
        let tenant = Arc::new(Tenant::new("t", config, 2, 64, 4, 10).unwrap());
        absorb(&tenant, "m", &integer_frame(config, &[1.0, 2.0]), false);
        let cache = QueryCache::default();
        let mut out = Vec::new();

        // Miss on an unknown line.
        assert!(!cache.serve("COUNT t", &mut out, &stats));

        // Store an answer computed from the current snapshots.
        let epochs: Vec<u64> = tenant
            .shards
            .iter()
            .map(|s| s.read_snapshot(&stats).epoch)
            .collect();
        cache.store(
            "COUNT t",
            CacheFill {
                tenant: Arc::clone(&tenant),
                scope: CacheScope::Snapshots,
                epochs,
            },
            b"+OK 2\n",
        );
        out.clear();
        assert!(cache.serve("COUNT t", &mut out, &stats));
        assert_eq!(out, b"+OK 2\n");

        // New data on the (now quiesced) owning shard: entry goes stale.
        absorb(&tenant, "m", &integer_frame(config, &[3.0]), false);
        out.clear();
        assert!(!cache.serve("COUNT t", &mut out, &stats));
        assert!(out.is_empty());
        assert_eq!(
            stats
                .query_cache_hits
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            stats
                .query_cache_misses
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }
}
