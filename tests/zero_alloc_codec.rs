//! Allocation accounting for the decode-free wire plane.
//!
//! The aggregator's pitch is *zero materialized sketches*: a payload is
//! parsed as a borrowed view (no allocation at all) and queried through
//! the mixed-source rank walk (scratch-backed, so zero allocations at
//! steady state on the dense store families). This binary installs a
//! counting global allocator and holds both claims to their numbers,
//! after feeding an aggregator 1000 encoded payloads.
//!
//! The sibling `zero_alloc.rs` binary covers the in-memory read paths.

use alloc_counter::{allocations_during, CountingAllocator};
use ddsketch::{SketchConfig, SketchView};
use pipeline::Aggregator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn aggregator_query_path_does_not_allocate() {
    let dense_configs = [
        SketchConfig::unbounded(0.01),
        SketchConfig::dense_collapsing(0.01, 512),
        SketchConfig::fast(0.01, 512),
    ];
    let qs = [0.5, 0.9, 0.99, 0.0, 1.0];
    for config in dense_configs {
        let name = config.name();

        // 1000 agent payloads, each a few dozen observations.
        let frames: Vec<Vec<u8>> = (0..1000u32)
            .map(|k| {
                let mut sketch = config.build().unwrap();
                for i in 1..=40 {
                    sketch.add(f64::from(i * (k % 97 + 1)) * 1e-3).unwrap();
                }
                sketch.encode()
            })
            .collect();

        // Parsing a frame as a view allocates nothing, ever — no warmup
        // involved; there is simply no store to build.
        let parse_allocs = allocations_during(|| {
            for frame in &frames {
                let view = SketchView::parse(frame).unwrap();
                assert!(!view.is_empty());
            }
        });
        assert_eq!(parse_allocs, 0, "{name}: SketchView::parse allocated");

        // Feed all 1000 payloads; folds happen every 32 frames, so the
        // query below walks the resident sketch plus ≤ 32 pending views.
        let mut agg = Aggregator::with_config(config, 32).unwrap();
        for frame in &frames {
            agg.feed(frame).unwrap();
        }
        assert_eq!(agg.frames_received(), 1000);
        assert!(
            agg.pending_frames() > 0,
            "test wants unfolded views in the walk"
        );

        // Steady-state feeding recycles staging payloads: after a full
        // pass the spare pool covers every in-flight frame, so re-feeding
        // the same workload touches the allocator only for stray growth.
        let refeed_allocs = allocations_during(|| {
            for frame in &frames {
                agg.feed(frame).unwrap();
            }
        });
        assert_eq!(refeed_allocs, 0, "{name}: steady-state feed+fold allocated");

        // Warm the scratch and output buffers once, then the query path
        // must be allocation-free: no intermediate sketch, no walk
        // buffers, nothing.
        let mut out = Vec::new();
        agg.quantiles_into(&qs, &mut out).unwrap();
        let expected = out.clone();
        let query_allocs = allocations_during(|| {
            for _ in 0..100 {
                agg.quantiles_into(&qs, &mut out).unwrap();
                assert_eq!(out.len(), qs.len());
            }
        });
        assert_eq!(
            query_allocs, 0,
            "{name}: aggregator quantiles allocated at steady state"
        );
        assert_eq!(out, expected, "{name}: repeated queries must agree");
    }
}
