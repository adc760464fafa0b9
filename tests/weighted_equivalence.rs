//! Property tests for the weighted count plane: `add_with_count(v, k)`
//! at an integral weight `k` must be **bit-identical** to k-fold
//! `add(v)` — same bins, weighted count, zero weight, `sum`, `min`,
//! `max`, quantiles — across all five preset configurations, and the
//! weighted plane at integral weights must mirror the integer (`u64`)
//! plane exactly. The lock-free `f64` atomic plane (per-bucket CAS on
//! float bits) must agree bit-for-bit too, both single-threaded and
//! under racing writers.
//!
//! Every stream is dyadic (values `m/64`, weights `k/4`), so each f64
//! partial sum is exact and bit-equality is independent of association
//! order — the assertions below hold mathematically, not just "usually".
//! The lifted-walk properties at the end are the exception: they use
//! non-dyadic weights on purpose, so they only pass if the walk sums in
//! the very order a materialized union does.

use ddsketch::{
    AnyDDSketch, AnyWeightedDDSketch, LogarithmicMapping, SketchConfig, SketchError, SketchView,
    WeightedAtomicDDSketch,
};
use proptest::prelude::*;

/// Bit-exact comparison of two weighted bin lists.
fn assert_bins_eq(got: &[(i32, f64)], want: &[(i32, f64)], label: &str) {
    let got: Vec<(i32, u64)> = got.iter().map(|&(i, c)| (i, c.to_bits())).collect();
    let want: Vec<(i32, u64)> = want.iter().map(|&(i, c)| (i, c.to_bits())).collect();
    assert_eq!(got, want, "{label}: bins");
}

/// Assert two weighted sketches are bit-identical, field for field.
fn assert_weighted_eq(got: &AnyWeightedDDSketch, want: &AnyWeightedDDSketch, label: &str) {
    assert_eq!(
        got.weighted_count().to_bits(),
        want.weighted_count().to_bits(),
        "{label}: weighted count"
    );
    assert_eq!(
        got.zero_weight().to_bits(),
        want.zero_weight().to_bits(),
        "{label}: zero weight"
    );
    assert_eq!(got.sum().to_bits(), want.sum().to_bits(), "{label}: sum");
    assert_eq!(got.min(), want.min(), "{label}: min");
    assert_eq!(got.max(), want.max(), "{label}: max");
    assert_bins_eq(&got.positive_bins(), &want.positive_bins(), label);
    assert_bins_eq(&got.negative_bins(), &want.negative_bins(), label);
    if !got.is_empty() {
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                got.quantile(q).unwrap().to_bits(),
                want.quantile(q).unwrap().to_bits(),
                "{label}: quantile {q}"
            );
        }
    }
}

/// For one config: fold `(value, k)` pairs three ways — weighted
/// `add_with_count(v, k)`, k-fold `add(v)` on a second weighted sketch,
/// and `add_with_count(v, k)` on the integer plane — and demand exact
/// agreement.
fn check_config(config: SketchConfig, pairs: &[(f64, u32)]) {
    let label = config.name();
    let mut folded = AnyWeightedDDSketch::new(config).unwrap();
    let mut replicated = AnyWeightedDDSketch::new(config).unwrap();
    let mut integer = AnyDDSketch::new(config).unwrap();
    for &(v, k) in pairs {
        folded.add_with_count(v, f64::from(k)).unwrap();
        for _ in 0..k {
            replicated.add(v).unwrap();
        }
        integer.add_with_count(v, u64::from(k)).unwrap();
    }
    assert_weighted_eq(&folded, &replicated, label);

    // Integral weights mirror the u64 plane: same bins, counts exactly
    // widened, bit-identical quantiles.
    assert_eq!(
        folded.weighted_count().to_bits(),
        (integer.count() as f64).to_bits(),
        "{label}: weighted vs integer count"
    );
    let widened: Vec<(i32, f64)> = integer
        .positive_bins()
        .into_iter()
        .map(|(i, c)| (i, c as f64))
        .collect();
    assert_bins_eq(&folded.positive_bins(), &widened, label);
    if !folded.is_empty() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(
                folded.quantile(q).unwrap().to_bits(),
                integer.quantile(q).unwrap().to_bits(),
                "{label}: weighted vs integer quantile {q}"
            );
        }
    }
}

/// Dyadic test stream: values `m/64`, integral weights `0..=20`
/// (zero-weight inserts must be exact no-ops).
fn dyadic_pairs(raw: &[(i64, u32)]) -> Vec<(f64, u32)> {
    raw.iter().map(|&(m, k)| (m as f64 / 64.0, k)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn folded_weights_equal_replication_on_all_configs(
        raw in proptest::collection::vec((-(1i64 << 20)..(1i64 << 20), 0u32..20), 1..100),
    ) {
        let pairs = dyadic_pairs(&raw);
        for config in SketchConfig::all(0.02, 64) {
            check_config(config, &pairs);
        }
    }

    #[test]
    fn atomic_f64_plane_matches_the_sequential_weighted_sketch(
        raw in proptest::collection::vec((-(1i64 << 20)..(1i64 << 20), 0u32..20), 1..100),
    ) {
        // Fractional (quarter-unit) weights: the plane the u64 stores
        // cannot express.
        let config = SketchConfig::dense_collapsing(0.02, 64);
        let atomic =
            WeightedAtomicDDSketch::with_config(LogarithmicMapping::new(0.02).unwrap(), config)
                .unwrap();
        let mut sequential = AnyWeightedDDSketch::new(config).unwrap();
        for &(m, k) in &raw {
            let (v, w) = (m as f64 / 64.0, f64::from(k) / 4.0);
            atomic.add_with_count(v, w).unwrap();
            sequential.add_with_count(v, w).unwrap();
        }
        assert_weighted_eq(&atomic.snapshot_weighted().unwrap(), &sequential, "atomic");
    }
}

/// Racing writers on the f64 atomic count plane: the quiesced snapshot
/// must be bit-identical to a single-threaded weighted sketch over the
/// union of every thread's stream, regardless of interleaving. This is
/// the test CI soaks in release mode, where optimized atomics produce
/// real interleavings.
#[test]
fn racing_weighted_writers_quiesce_to_the_sequential_union() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 4_000;
    let config = SketchConfig::dense_collapsing(0.01, 512);
    let atomic =
        WeightedAtomicDDSketch::with_config(LogarithmicMapping::new(0.01).unwrap(), config)
            .unwrap();

    // Deterministic dyadic stream for thread `t`: mixed-sign values on
    // a wide range, quarter-unit weights 0.25..=4.0.
    let pair = |t: u64, i: u64| {
        let h = (t * PER_THREAD + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        let m = (h % 200_001) as i64 - 100_000;
        let w = f64::from((h >> 24 & 15) as u32 + 1) / 4.0;
        (m as f64 / 64.0, w)
    };

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let atomic = &atomic;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let (v, w) = pair(t, i);
                    atomic.add_with_count(v, w).unwrap();
                }
            });
        }
    });

    let mut sequential = AnyWeightedDDSketch::new(config).unwrap();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let (v, w) = pair(t, i);
            sequential.add_with_count(v, w).unwrap();
        }
    }
    assert_weighted_eq(
        &atomic.snapshot_weighted().unwrap(),
        &sequential,
        "racing writers",
    );
}

#[test]
fn invalid_weights_are_rejected_without_corrupting_state() {
    let config = SketchConfig::dense_collapsing(0.01, 512);
    let mut sketch = AnyWeightedDDSketch::new(config).unwrap();
    let atomic =
        WeightedAtomicDDSketch::with_config(LogarithmicMapping::new(0.01).unwrap(), config)
            .unwrap();
    sketch.add_with_count(1.5, 2.25).unwrap();
    atomic.add_with_count(1.5, 2.25).unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.25] {
        assert!(
            matches!(
                sketch.add_with_count(3.0, bad),
                Err(SketchError::InvalidConfig(_))
            ),
            "sequential accepted weight {bad}"
        );
        assert!(
            atomic.add_with_count(3.0, bad).is_err(),
            "atomic accepted weight {bad}"
        );
    }
    assert_eq!(sketch.weighted_count(), 2.25, "state corrupted by rejects");
    assert_eq!(
        atomic.snapshot_weighted().unwrap().weighted_count(),
        2.25,
        "atomic state corrupted by rejects"
    );
}

/// The materialized union the lifted walk must reproduce bit for bit:
/// merge each weighted sketch, then its integer twin through the encoded
/// bytes (`merge_view` of `SketchView::parse`), into one empty weighted
/// sketch, and read its quantiles.
fn materialized_union_quantiles(
    config: SketchConfig,
    pairs: &[(AnyWeightedDDSketch, AnyDDSketch)],
    qs: &[f64],
) -> Result<Vec<f64>, SketchError> {
    let mut union = AnyWeightedDDSketch::new(config)?;
    for (weighted, integer) in pairs {
        union.merge_from(weighted)?;
        union.merge_view(&SketchView::parse(&integer.encode())?)?;
    }
    union.quantiles(qs)
}

/// Build one `(weighted, integer)` resident pair. The weighted sketch is
/// folded from `DDS3` frames of a few entries each, as a shard's weighted
/// aggregator folds them, so its running totals are real merge sums.
fn resident_pair(
    config: SketchConfig,
    weighted: &[(i64, u32)],
    integer: &[i64],
) -> (AnyWeightedDDSketch, AnyDDSketch) {
    // Values span about nine orders of magnitude, both signs and zero, so
    // small `max_bins` collapse both tails.
    let value = |m: i64| m.signum() as f64 * 1.37f64.powi(m.unsigned_abs() as i32 % 64) * 0.01;
    let mut w = AnyWeightedDDSketch::new(config).unwrap();
    for chunk in weighted.chunks(5) {
        let mut frame = AnyWeightedDDSketch::new(config).unwrap();
        for &(m, k) in chunk {
            // Non-dyadic, non-integral weights.
            frame
                .add_with_count(value(m), f64::from(k) / 3.0 + 0.1)
                .unwrap();
        }
        w.merge_view(&SketchView::parse(&frame.encode()).unwrap())
            .unwrap();
    }
    let mut i = AnyDDSketch::new(config).unwrap();
    for &m in integer {
        i.add(value(m)).unwrap();
    }
    (w, i)
}

/// Quantiles whose ranks land within an ulp of the union's cumulative
/// bucket boundaries, where one rounding step in a column or total sum
/// flips the answer: these make the bit-identity check sharp.
fn boundary_quantiles(
    config: SketchConfig,
    pairs: &[(AnyWeightedDDSketch, AnyDDSketch)],
) -> Vec<f64> {
    let mut union = AnyWeightedDDSketch::new(config).unwrap();
    for (weighted, integer) in pairs {
        union.merge_from(weighted).unwrap();
        union
            .merge_view(&SketchView::parse(&integer.encode()).unwrap())
            .unwrap();
    }
    let span = (union.weighted_count() - 1.0).max(0.0);
    if span == 0.0 {
        return Vec::new();
    }
    let counts = union
        .negative_bins()
        .into_iter()
        .rev()
        .map(|(_, c)| c)
        .chain(std::iter::once(union.zero_weight()))
        .chain(union.positive_bins().into_iter().map(|(_, c)| c));
    let mut cum = 0.0;
    let mut qs = Vec::new();
    for c in counts {
        cum += c;
        let q = cum / span;
        for q in [
            q,
            f64::from_bits(q.to_bits() - 1),
            f64::from_bits(q.to_bits() + 1),
        ] {
            if (0.0..=1.0).contains(&q) {
                qs.push(q);
            }
        }
    }
    qs
}

/// Assert the lifted walk equals the materialized union, bits and errors.
fn check_lifted(config: SketchConfig, pairs: &[(AnyWeightedDDSketch, AnyDDSketch)], qs: &[f64]) {
    let want = materialized_union_quantiles(config, pairs, qs);
    let mut got = vec![f64::NAN; 3];
    let result =
        AnyWeightedDDSketch::lifted_quantiles_into(pairs.iter().map(|(w, i)| (w, i)), qs, &mut got);
    let label = format!("{config:?}, {} pairs, qs {qs:?}", pairs.len());
    match want {
        Ok(want) => {
            assert!(result.is_ok(), "{label}: {result:?}");
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{label}: quantile bits");
        }
        Err(e) => assert_eq!(
            format!("{:?}", result.unwrap_err()),
            format!("{e:?}"),
            "{label}: error"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The lifted k-way walk behind WQUANTILE answers with the exact bits
    // of the materialized union, on every preset, from 1 to 8 pairs, with
    // tails collapsed by small bucket limits, negative values and zeros,
    // empty weighted or integer residents, and fractional weights.
    #[test]
    fn lifted_walk_equals_the_materialized_union(
        residents in proptest::collection::vec(
            (
                proptest::collection::vec((-200i64..200, 0u32..40), 0..24),
                proptest::collection::vec(-200i64..200, 0..24),
            ),
            1..9,
        ),
        limit in 0usize..8,
    ) {
        let max_bins = [1usize, 2, 3, 5, 8, 16, 64, 2048][limit];
        for config in SketchConfig::all(0.02, max_bins) {
            let pairs: Vec<_> = residents
                .iter()
                .map(|(w, i)| resident_pair(config, w, i))
                .collect();
            let mut qs = vec![0.5, 0.0, 0.99, 0.25, 1.0, 0.01, 0.75, 0.9, 0.5, 0.1];
            qs.extend(boundary_quantiles(config, &pairs));
            check_lifted(config, &pairs, &qs);
        }
    }
}

#[test]
fn lifted_walk_errors_match_the_materialized_union() {
    let config = SketchConfig::dense_collapsing(0.02, 16);
    let empty = vec![resident_pair(config, &[], &[])];
    let full = vec![resident_pair(config, &[(3, 4), (-7, 2)], &[0, 5, 9])];
    for pairs in [&empty, &full] {
        for qs in [&[][..], &[0.5], &[1.5, 0.5], &[0.5, -0.1], &[f64::NAN]] {
            check_lifted(config, pairs, qs);
        }
    }
    // No pairs at all: the union of nothing.
    for qs in [&[][..], &[0.5], &[2.0, 0.5]] {
        check_lifted(config, &[], qs);
    }
    // Sketches of another configuration do not mix.
    let other = resident_pair(SketchConfig::sparse(0.02), &[(1, 1)], &[1]);
    let mixed = [(&full[0].0, &other.1)];
    assert!(matches!(
        AnyWeightedDDSketch::lifted_quantiles_into(mixed.into_iter(), &[0.5], &mut Vec::new()),
        Err(SketchError::IncompatibleMerge(_))
    ));
}
