//! Shard workers: one thread per (tenant, shard) that decodes, admits
//! and absorbs the frames the reactor staged on the shard's queue.
//!
//! The reactor stages each payload's wire bytes untouched, so the
//! payload decode — the costliest per-frame step before absorption —
//! runs here, in parallel across shards, instead of on the one event-loop
//! thread. Each worker decodes into one scratch payload per count plane,
//! outside the shard's state lock, then absorbs under the lock in the
//! queue's FIFO order; the absorbed state, and every answer served from
//! it, is the same as if one thread had decoded every frame in turn.

use ddsketch::{
    CountPlane, SketchConfig, SketchError, SketchPayload, SketchPayloadOf, WeightedSketchPayload,
};
use pipeline::AggregatorOf;

use crate::server::{ReadPlane, ServerInner};
use crate::state::{lock, Job, Shard, Stats, Tenant};

/// A shard worker's decode buffers, one per count plane. The buffer a
/// payload is fed to its aggregator in is swapped for one of the
/// aggregator's spent payloads, so at steady state no frame allocates.
#[derive(Debug, Default)]
struct WorkerScratch {
    integer: SketchPayload,
    weighted: WeightedSketchPayload,
}

/// The count plane an admitted payload was decoded onto.
#[derive(Debug, Clone, Copy)]
enum Plane {
    Integer,
    Weighted,
}

/// One shard worker: absorb staged jobs until the shard closes and its
/// backlog drains. Under [`ReadPlane::EpochCached`] the worker also
/// owns snapshot publishing: it republishes the shard's read snapshot
/// every [`crate::ServerConfig::snapshot_refresh`] jobs while the queue
/// stays busy, and whenever the queue drains — so queries under
/// sustained ingest serve boundedly-stale snapshots without ever
/// contending on the state lock, and a drained shard always serves
/// exact answers.
pub(crate) fn worker_loop(inner: &ServerInner, tenant: &Tenant, shard: &Shard) {
    let refresh_every = inner.config.snapshot_refresh.max(1);
    let mut since_refresh = 0usize;
    let mut scratch = WorkerScratch::default();
    while let Some(job) = shard.pop() {
        absorb_job(inner, tenant, shard, &mut scratch, job);
        if inner.config.read_plane == ReadPlane::EpochCached {
            since_refresh += 1;
            if since_refresh >= refresh_every || shard.live_depth() == 0 {
                since_refresh = 0;
                shard.refresh_snapshot(&inner.stats);
            }
        }
    }
}

/// The worker's per-job step: decode and admit the payload outside the
/// state lock, absorb it under the lock, publish the shard's epoch, and
/// hand the job's buffers back to the staging pools. A payload that
/// fails to decode or was built under another configuration counts in
/// `frames_rejected` and leaves tenant state untouched.
fn absorb_job(
    inner: &ServerInner,
    tenant: &Tenant,
    shard: &Shard,
    scratch: &mut WorkerScratch,
    job: Job,
) {
    let Job {
        metric,
        ts_secs,
        payload,
    } = job;
    match decode_admitted(&inner.config.sketch, &payload, scratch) {
        Some(plane) => {
            let mut state = lock(&shard.state);
            let (weight, absorbed) = match plane {
                // Integer frames feed both exact-plane sinks from the
                // one decode. Both re-check the admission predicate
                // passed above, so neither can fail here; the aggregator
                // is fed only once the store has absorbed.
                Plane::Integer => (
                    scratch.integer.total() as f64,
                    state
                        .store
                        .absorb_payload(&metric, ts_secs, &scratch.integer)
                        .and_then(|()| feed(&mut state.agg, &mut scratch.integer)),
                ),
                // `DDS3` frames land on the weighted plane only (the
                // windowed store's rollups stay on exact integer counts).
                Plane::Weighted => (
                    scratch.weighted.total(),
                    feed(&mut state.wagg, &mut scratch.weighted),
                ),
            };
            shard.publish_epoch(&state);
            drop(state);
            if absorbed.is_ok() {
                Stats::add(&inner.stats.frames_ingested, 1);
                Stats::add(&tenant.frames_absorbed, 1);
                tenant.add_weight(weight);
            } else {
                Stats::add(&inner.stats.frames_rejected, 1);
            }
        }
        None => Stats::add(&inner.stats.frames_rejected, 1),
    }
    shard.complete(payload, metric);
}

/// Stage the decoded `scratch` payload in `agg`, leaving one of the
/// aggregator's spent payloads in `scratch` for the next decode.
fn feed<C: CountPlane>(
    agg: &mut AggregatorOf<C>,
    scratch: &mut SketchPayloadOf<C>,
) -> Result<(), SketchError> {
    let spare = agg.take_spare();
    agg.feed_payload(std::mem::replace(scratch, spare))
}

/// Decode one staged payload into the scratch buffer of its count plane
/// (routed by the payload magic) and run the admission predicate.
/// Returns the plane the payload now sits in, or `None` if the frame
/// must be rejected. Runs on the shard worker, outside the state lock.
fn decode_admitted(
    config: &SketchConfig,
    payload_bytes: &[u8],
    scratch: &mut WorkerScratch,
) -> Option<Plane> {
    fn admit<C: CountPlane>(
        scratch: &mut SketchPayloadOf<C>,
        bytes: &[u8],
        config: &SketchConfig,
    ) -> bool {
        scratch.decode_into(bytes).is_ok() && scratch.matches_config(config)
    }
    if payload_bytes.get(..4) == Some(b"DDS3") {
        admit(&mut scratch.weighted, payload_bytes, config).then_some(Plane::Weighted)
    } else {
        admit(&mut scratch.integer, payload_bytes, config).then_some(Plane::Integer)
    }
}

#[cfg(test)]
mod tests {
    use alloc_counter::{allocations_during, CountingAllocator};
    use ddsketch::AnyWeightedDDSketch;

    use super::*;
    use crate::server::{test_inner, ServerConfig};
    use crate::state::TryPush;

    // Installed for the whole unit-test binary; it only forwards to the
    // system allocator and counts per thread, so other tests are
    // unaffected.
    #[global_allocator]
    static ALLOCATOR: CountingAllocator = CountingAllocator;

    /// After warm-up on one metric and one window, the worker step —
    /// decode, absorb, recycle — allocates nothing, on either count
    /// plane. Staging runs on the test thread too, exactly as the
    /// reactor drives it, so the recycled frame buffers are covered.
    #[test]
    fn steady_state_worker_step_does_not_allocate() {
        let inner = test_inner(ServerConfig::default());
        let cfg = &inner.config;
        let tenant = Tenant::new(
            "acme",
            cfg.sketch,
            1,
            cfg.staging_bound,
            cfg.fold_threshold,
            cfg.window_secs,
        )
        .unwrap();
        let shard = &tenant.shards[0];

        let mut sketch = cfg.sketch.build().unwrap();
        let mut weighted = AnyWeightedDDSketch::new(cfg.sketch).unwrap();
        for k in 1..=256u32 {
            sketch.add(f64::from(k) * 0.75).unwrap();
            weighted.add_with_count(f64::from(k) * 1.5, 0.25).unwrap();
        }
        let integer_frame = sketch.encode();
        let weighted_frame = weighted.encode();
        assert_eq!(&weighted_frame[..4], b"DDS3");

        let mut scratch = WorkerScratch::default();
        let mut spare = (Vec::new(), String::new());
        let mut run = |frame: &[u8]| {
            let (mut payload, mut metric) = std::mem::take(&mut spare);
            payload.extend_from_slice(frame);
            metric.push_str("api.latency");
            let job = Job {
                metric,
                ts_secs: 1_700_000_000,
                payload,
            };
            match shard.try_push(job) {
                TryPush::Stored(buffers) => spare = buffers,
                other => panic!("expected Stored, got {other:?}"),
            }
            let job = shard.pop().unwrap();
            absorb_job(&inner, &tenant, shard, &mut scratch, job);
        };

        // Runs of each kind, so both recycled frame buffers (they take
        // turns) grow to the larger payload during warm-up.
        let warm_up = 4 * cfg.fold_threshold;
        for frame in [&integer_frame, &weighted_frame] {
            for _ in 0..warm_up {
                run(frame);
            }
        }
        const N: usize = 512;
        let integer_allocs = allocations_during(|| {
            for _ in 0..N {
                run(&integer_frame);
            }
        });
        let weighted_allocs = allocations_during(|| {
            for _ in 0..N {
                run(&weighted_frame);
            }
        });
        assert_eq!(integer_allocs, 0, "integer worker step allocated");
        assert_eq!(weighted_allocs, 0, "DDS3 worker step allocated");

        let stats = inner.stats_snapshot();
        assert_eq!(stats.frames_ingested, 2 * (warm_up + N) as u64);
        assert_eq!(stats.frames_rejected, 0);
        let state = lock(&shard.state);
        assert_eq!(state.agg.count(), (warm_up + N) as u64 * 256);
        assert_eq!(state.store.num_cells(), 1);
    }
}
