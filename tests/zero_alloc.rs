//! Allocation accounting for the hot read paths.
//!
//! After the `MetricId` interning refactor, per-metric lookups must not
//! allocate: `TimeSeriesStore::quantile` and `metric_count` are an
//! id-table probe plus a B-tree range scan plus a borrowed cumulative bin
//! walk, and the scalar sketch quantile walks `BinIter` — no `String`
//! keys, no materialized bin vectors. This binary installs a counting
//! global allocator and holds those paths to **zero** allocations (and
//! the series queries to exactly their output allocations).

use alloc_counter::{allocations_during, CountingAllocator};
use ddsketch::SketchConfig;
use pipeline::{SlidingWindowSketch, TimeSeriesStore};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn lookup_paths_do_not_allocate() {
    for config in SketchConfig::all(0.01, 512) {
        let mut store = TimeSeriesStore::with_config(config, 10).unwrap();
        for (metric, scale) in [
            ("api.home", 1.0),
            ("api.checkout", 50.0),
            ("db.query", 0.01),
        ] {
            for window in 0..20u64 {
                for i in 1..=50 {
                    let sign = if i % 7 == 0 { -1.0 } else { 1.0 };
                    store
                        .record(metric, window * 10, sign * scale * f64::from(i))
                        .unwrap();
                }
            }
        }

        // Warm up once (lazy statics, branch caches — nothing should
        // allocate here either, but the assertion below is the contract).
        let _ = store.quantile("api.checkout", 50, 0.99);

        let name = config.name();
        let quantile_allocs = allocations_during(|| {
            for q in [0.0, 0.5, 0.99, 1.0] {
                for window in (0..200u64).step_by(10) {
                    assert!(store.quantile("api.checkout", window, q).is_some());
                }
            }
        });
        assert_eq!(quantile_allocs, 0, "{name}: quantile lookups allocated");

        let count_allocs = allocations_during(|| {
            assert_eq!(store.metric_count("api.home"), 20 * 50);
            assert_eq!(store.metric_count("db.query"), 20 * 50);
            assert_eq!(store.metric_count("nope"), 0);
            assert!(store.metric_id("api.home").is_some());
        });
        assert_eq!(count_allocs, 0, "{name}: metric_count allocated");

        // Missing metrics and cells short-circuit without allocating.
        let miss_allocs = allocations_during(|| {
            assert!(store.quantile("absent.metric", 0, 0.5).is_none());
            assert!(store.quantile("api.home", 999_990, 0.5).is_none());
            assert!(store.quantile_series("absent.metric", 0.5).is_empty());
        });
        assert_eq!(miss_allocs, 0, "{name}: misses allocated");

        // Series queries may allocate exactly their output vector (plus
        // its growth), never per-cell or per-metric scratch.
        let series_allocs = allocations_during(|| {
            let series = store.quantile_series("api.checkout", 0.9);
            assert_eq!(series.len(), 20);
        });
        assert!(
            series_allocs <= 8,
            "{name}: quantile_series allocated {series_allocs} times \
             (expected just the output vector's growth)"
        );
    }

    // The sliding-window read path: on the dense store families,
    // `SlidingWindowSketch::quantiles_into` is one borrowed-shard k-way
    // walk through reusable scratch — zero heap allocations at steady
    // state, for both the ring walk and the suffix-aggregate layout.
    // (The sparse families intentionally keep their per-shard iterator
    // allocations; their walks are covered by the correctness suites.)
    let dense_configs = [
        SketchConfig::unbounded(0.01),
        SketchConfig::dense_collapsing(0.01, 512),
        SketchConfig::fast(0.01, 512),
    ];
    let qs = [0.5, 0.99, 0.0, 1.0];
    for config in dense_configs {
        for folded in [false, true] {
            let mut window = if folded {
                SlidingWindowSketch::with_suffix_aggregates(config, 1, 30).unwrap()
            } else {
                SlidingWindowSketch::with_config(config, 1, 30).unwrap()
            };
            // Several full window turns so rotations (and, for the
            // two-stack layout, flips) have all happened.
            let values: Vec<f64> = (1..=64).map(|i| 0.3 + f64::from(i) * 0.7).collect();
            for ts in 0..95u64 {
                window.record_slice(ts, &values).unwrap();
            }
            let mut out = Vec::new();
            // Warm the scratch and output buffers once.
            window.quantiles_into(&qs, &mut out).unwrap();
            let name = config.name();
            let query_allocs = allocations_during(|| {
                for _ in 0..50 {
                    window.quantiles_into(&qs, &mut out).unwrap();
                    assert_eq!(out.len(), qs.len());
                }
            });
            assert_eq!(
                query_allocs, 0,
                "{name} (suffix aggregates: {folded}): sliding-window \
                 quantiles allocated at steady state"
            );
        }
    }
}
