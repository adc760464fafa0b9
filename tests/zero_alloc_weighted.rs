//! Allocation accounting for the weighted (f64 count) wire plane.
//!
//! The [`pipeline::WeightedAggregator`] accepts every dialect — `DDS3`
//! weighted payloads, `DDS2` integer payloads (counts lifted at weight
//! 1), and legacy `DDS1` bytes — and folds them through one walk. This
//! binary installs a counting global allocator and holds the weighted
//! plane to the integer plane's number: zero allocations at steady
//! state, for both feeding and querying, over a *mixed-dialect* stream.

use alloc_counter::{allocations_during, CountingAllocator};
use ddsketch::{AnyDDSketch, AnyWeightedDDSketch, SketchConfig};
use pipeline::WeightedAggregator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Re-dress a `DDS2` frame in the legacy `DDS1` layout: the dialects
/// differ only in the magic and the `store` byte at offset 5 (which v1
/// lacked — its store family is guessed from the bucket limit, so this
/// only round-trips for the collapsing-dense family used below).
fn to_dds1(frame: &[u8]) -> Vec<u8> {
    assert_eq!(&frame[..4], b"DDS2");
    let mut v1 = Vec::with_capacity(frame.len() - 1);
    v1.extend_from_slice(b"DDS1");
    v1.push(frame[4]);
    v1.extend_from_slice(&frame[6..]);
    v1
}

#[test]
fn weighted_aggregator_mixed_dialect_path_does_not_allocate() {
    let config = SketchConfig::dense_collapsing(0.01, 512);
    let qs = [0.5, 0.9, 0.99, 0.0, 1.0];

    // 999 agent payloads cycling through the three dialects. Dyadic
    // weights keep every partial sum exact, so the total-weight anchor
    // below is an equality, not a tolerance.
    let mut expected_weight = 0.0f64;
    let frames: Vec<Vec<u8>> = (0..999u32)
        .map(|k| match k % 3 {
            0 => {
                let mut sketch = AnyWeightedDDSketch::new(config).unwrap();
                for i in 1..=40u32 {
                    let w = f64::from(i % 8 + 1) / 4.0;
                    sketch
                        .add_with_count(f64::from(i * (k % 97 + 1)) * 1e-3, w)
                        .unwrap();
                    expected_weight += w;
                }
                sketch.encode()
            }
            rest => {
                let mut sketch = AnyDDSketch::new(config).unwrap();
                for i in 1..=40u32 {
                    sketch.add(f64::from(i * (k % 97 + 1)) * 1e-3).unwrap();
                }
                expected_weight += 40.0;
                let frame = sketch.encode();
                if rest == 1 {
                    frame
                } else {
                    to_dds1(&frame)
                }
            }
        })
        .collect();

    // Feed all 999 payloads; folds happen every 32 frames, so the query
    // below walks the resident sketch plus ≤ 32 pending payloads.
    let mut agg = WeightedAggregator::with_config(config, 32).unwrap();
    for frame in &frames {
        agg.feed(frame).unwrap();
    }
    assert_eq!(agg.frames_received(), 999);
    assert!(
        agg.pending_frames() > 0,
        "test wants unfolded payloads in the walk"
    );
    assert_eq!(
        agg.weighted_count(),
        expected_weight,
        "integer dialects must lift at weight 1, exactly"
    );

    // Steady-state feeding recycles staging payloads across all three
    // dialects: after a full pass the spare pool covers every in-flight
    // frame, so re-feeding the same workload never touches the allocator.
    let refeed_allocs = allocations_during(|| {
        for frame in &frames {
            agg.feed(frame).unwrap();
        }
    });
    assert_eq!(
        refeed_allocs, 0,
        "steady-state mixed-dialect feed allocated"
    );
    assert_eq!(agg.weighted_count(), expected_weight * 2.0);

    // Warm the scratch and output buffers once, then the weighted query
    // walk must be allocation-free.
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
        "weighted quantile walk allocated at steady state"
    );
    assert_eq!(out, expected, "repeated queries must agree");
}
