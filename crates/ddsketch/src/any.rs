//! [`AnyDDSketchOf`]: the type-erased sketch behind [`SketchConfig`], one
//! enum for both count planes.
//!
//! The five preset types in [`crate::presets`] are distinct concrete types,
//! which is perfect for a single process that knows its configuration at
//! compile time — and useless for an aggregator that must merge whatever
//! arrives over the wire (paper Figure 1). `AnyDDSketchOf<C>` closes that
//! gap: an enum over the five presets with macro-generated match arms (no
//! `dyn`, no allocation per call) exposing the full sketch surface, plus
//! [`AnyDDSketchOf::config`] to recover the runtime configuration and a
//! self-describing codec ([`AnyDDSketchOf::decode`] in [`crate::codec`])
//! that reconstructs the right variant with no caller-side type knowledge.
//!
//! The paper's algorithms (insert, merge, quantile, collapse) never depend
//! on whether bucket counts are integers, so the enum is generic over the
//! stores' count type `C` and written once. Two instantiations exist, each
//! under its own name:
//!
//! * [`AnyDDSketch`] = `AnyDDSketchOf<u64>` — the paper's integer plane,
//!   with the fused batched `add_slice`, integer `count`, and the
//!   mixed-source merge plane ([`crate::codec::SketchSource`]).
//! * [`AnyWeightedDDSketch`] = `AnyDDSketchOf<f64>` — the weighted plane:
//!   occurrences carry fractional weights (`add_with_count`), decay in
//!   place ([`AnyDDSketchOf::scale_counts`]), and subtract with
//!   floor-at-zero semantics ([`AnyDDSketchOf::sub_sketch`]). It is what
//!   the `DDS3` wire dialect decodes into and what the sliding-window
//!   plane's ingest-time-decay slots are built on.
//!
//! Everything both planes share is one generic `impl`; only the methods
//! whose algorithm differs by count type (integer fast paths, the integer
//! rank walk vs the weighted one) live in per-plane `impl` blocks.
//!
//! Every operation dispatches to the statically-typed preset it wraps, so
//! an `AnyDDSketch` is bit-identical (bins, count, sum, min, max) to the
//! matching preset fed the same stream — property-tested in the workspace
//! integration suite.

use std::fmt::Debug;

use crate::config::SketchConfig;
use crate::mapping::{CubicInterpolatedMapping, IndexMapping, LogarithmicMapping, MappingKind};
use crate::presets::{
    BoundedDDSketch, FastDDSketch, PaperExactDDSketch, SparseDDSketch, UnboundedDDSketch,
};
use crate::sketch::DDSketch;
use crate::store::{
    CollapsingHighestDenseStore, CollapsingLowestDenseStore, CollapsingSparseStore, DenseStore,
    PlainCell, SparseStore, Store, StoreKind,
};
use sketch_core::{MemoryFootprint, MergeableSketch, QuantileSketch, SketchError};

/// A runtime-configured DDSketch counting in `C`: one of the five preset
/// types behind a single enum, selected by [`SketchConfig`]. Use the
/// [`AnyDDSketch`] (`u64`) and [`AnyWeightedDDSketch`] (`f64`) names.
#[derive(Debug, Clone)]
pub enum AnyDDSketchOf<C: PlainCell> {
    /// [`crate::presets::unbounded`]: exact log mapping, unbounded dense
    /// stores.
    Unbounded(DDSketch<LogarithmicMapping, DenseStore<C>, DenseStore<C>>),
    /// [`crate::presets::logarithmic_collapsing`]: the paper's Table 2
    /// sketch.
    Bounded(
        DDSketch<LogarithmicMapping, CollapsingLowestDenseStore<C>, CollapsingHighestDenseStore<C>>,
    ),
    /// [`crate::presets::fast`]: cubic mapping, collapsing dense stores.
    Fast(
        DDSketch<
            CubicInterpolatedMapping,
            CollapsingLowestDenseStore<C>,
            CollapsingHighestDenseStore<C>,
        >,
    ),
    /// [`crate::presets::sparse`]: exact log mapping, B-tree stores.
    Sparse(DDSketch<LogarithmicMapping, SparseStore<C>, SparseStore<C>>),
    /// [`crate::presets::paper_exact`]: Algorithm-3 collapsing sparse
    /// stores.
    PaperExact(DDSketch<LogarithmicMapping, CollapsingSparseStore<C>, CollapsingSparseStore<C>>),
}

/// The integer-counted runtime sketch: the paper's plane.
pub type AnyDDSketch = AnyDDSketchOf<u64>;

/// The weighted (`f64`-counted) runtime sketch.
pub type AnyWeightedDDSketch = AnyDDSketchOf<f64>;

/// Recover the runtime configuration of a borrowed preset — the body of
/// [`AnyDDSketchOf::config`], callable while the enum itself is already
/// borrowed through one of its variants (as the merge error paths need).
pub(crate) fn config_of<M, SP, SN>(sketch: &DDSketch<M, SP, SN>) -> SketchConfig
where
    M: IndexMapping,
    SP: Store,
    SN: Store<Count = SP::Count>,
{
    SketchConfig {
        alpha: sketch.relative_accuracy(),
        mapping: sketch.mapping().kind(),
        store: sketch.positive_store().store_kind(),
        max_bins: sketch.positive_store().bin_limit().unwrap_or(0),
    }
}

/// The error every cross-variant merge, subtraction, and walk reports.
pub(crate) fn mismatch(ours: impl Debug, theirs: impl Debug) -> SketchError {
    SketchError::IncompatibleMerge(format!("store/mapping mismatch: {ours:?} vs {theirs:?}"))
}

/// What a multi-sketch query over no sketches returns: an invalid `q` is
/// still an error, an empty `qs` succeeds, and anything else is `Empty`.
pub(crate) fn no_sketches(qs: &[f64]) -> Result<(), SketchError> {
    if let Some(&q) = qs.iter().find(|q| !(0.0..=1.0).contains(*q)) {
        return Err(SketchError::InvalidQuantile(q));
    }
    if qs.is_empty() {
        Ok(())
    } else {
        Err(SketchError::Empty)
    }
}

/// Dispatch `$body` over whichever preset `$self` wraps, binding it to
/// `$s`. One macro, five arms, zero virtual calls.
macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            $crate::any::AnyDDSketchOf::Unbounded($s) => $body,
            $crate::any::AnyDDSketchOf::Bounded($s) => $body,
            $crate::any::AnyDDSketchOf::Fast($s) => $body,
            $crate::any::AnyDDSketchOf::Sparse($s) => $body,
            $crate::any::AnyDDSketchOf::PaperExact($s) => $body,
        }
    };
}
pub(crate) use dispatch;

/// Dispatch `$body` over two sketches wrapping the same variant, binding
/// them to `$a` and `$b`; differing variants fail with [`mismatch`].
macro_rules! pair_dispatch {
    ($x:expr, $y:expr, $a:ident, $b:ident => $body:expr) => {
        match ($x, $y) {
            (AnyDDSketchOf::Unbounded($a), AnyDDSketchOf::Unbounded($b)) => $body,
            (AnyDDSketchOf::Bounded($a), AnyDDSketchOf::Bounded($b)) => $body,
            (AnyDDSketchOf::Fast($a), AnyDDSketchOf::Fast($b)) => $body,
            (AnyDDSketchOf::Sparse($a), AnyDDSketchOf::Sparse($b)) => $body,
            (AnyDDSketchOf::PaperExact($a), AnyDDSketchOf::PaperExact($b)) => $body,
            (a, b) => Err(mismatch(a.config(), b.config())),
        }
    };
}

impl<C: PlainCell> AnyDDSketchOf<C> {
    /// Build an empty sketch for `config` (validating it first).
    pub fn new(config: SketchConfig) -> Result<Self, SketchError> {
        config.validate()?;
        let (alpha, bins) = (config.alpha, config.max_bins);
        Ok(match (config.mapping, config.store) {
            (MappingKind::Logarithmic, StoreKind::Unbounded) => {
                AnyDDSketchOf::Unbounded(DDSketch::from_parts(
                    LogarithmicMapping::new(alpha)?,
                    DenseStore::default(),
                    DenseStore::default(),
                ))
            }
            (MappingKind::Logarithmic, StoreKind::CollapsingDense) => {
                AnyDDSketchOf::Bounded(DDSketch::from_parts(
                    LogarithmicMapping::new(alpha)?,
                    CollapsingLowestDenseStore::with_max_bins(bins),
                    CollapsingHighestDenseStore::with_max_bins(bins),
                ))
            }
            (MappingKind::CubicInterpolated, StoreKind::CollapsingDense) => {
                AnyDDSketchOf::Fast(DDSketch::from_parts(
                    CubicInterpolatedMapping::new(alpha)?,
                    CollapsingLowestDenseStore::with_max_bins(bins),
                    CollapsingHighestDenseStore::with_max_bins(bins),
                ))
            }
            (MappingKind::Logarithmic, StoreKind::Sparse) => {
                AnyDDSketchOf::Sparse(DDSketch::from_parts(
                    LogarithmicMapping::new(alpha)?,
                    SparseStore::default(),
                    SparseStore::default(),
                ))
            }
            (MappingKind::Logarithmic, StoreKind::CollapsingSparse) => {
                AnyDDSketchOf::PaperExact(DDSketch::from_parts(
                    LogarithmicMapping::new(alpha)?,
                    CollapsingSparseStore::with_max_bins(bins),
                    CollapsingSparseStore::with_max_bins(bins),
                ))
            }
            _ => unreachable!("validate() rejects unsupported combinations"),
        })
    }

    /// Recover the runtime configuration this sketch was built with.
    ///
    /// Round-trips exactly: `AnyDDSketch::new(c)?.config() == c` for every
    /// valid `c`.
    pub fn config(&self) -> SketchConfig {
        dispatch!(self, s => config_of(s))
    }

    /// The relative accuracy `α` guaranteed for non-collapsed buckets.
    pub fn relative_accuracy(&self) -> f64 {
        dispatch!(self, s => s.relative_accuracy())
    }

    /// Insert `count` occurrences of `value` through the count-generic
    /// ingestion path ([`DDSketch::add_with_count`]): on the weighted plane
    /// `count` may be fractional; on the integer plane this is `add_n`.
    pub fn add_with_count(&mut self, value: f64, count: C) -> Result<(), SketchError> {
        dispatch!(self, s => s.add_with_count(value, count))
    }

    /// Bulk-insert `(value, count)` pairs atomically; see
    /// [`DDSketch::add_weighted_slice`].
    pub fn add_weighted_slice(&mut self, pairs: &[(f64, C)]) -> Result<(), SketchError> {
        dispatch!(self, s => s.add_weighted_slice(pairs))
    }

    /// Subtract another sketch's contents bucket-by-bucket, flooring at
    /// zero; see [`DDSketch::sub_sketch`]. Both sketches must wrap the
    /// same variant with mergeable mappings.
    pub fn sub_sketch(&mut self, other: &Self) -> Result<(), SketchError> {
        pair_dispatch!(self, other, a, b => a.sub_sketch(b))
    }

    /// Scale every stored count by `factor` — ingest-time exponential
    /// decay (integer counts round to nearest); see
    /// [`DDSketch::scale_counts`].
    pub fn scale_counts(&mut self, factor: f64) -> Result<(), SketchError> {
        dispatch!(self, s => s.scale_counts(factor))
    }

    /// Total stored weight as `f64`; see [`DDSketch::weighted_count`].
    pub fn weighted_count(&self) -> f64 {
        dispatch!(self, s => s.weighted_count())
    }

    /// Count (weight) in the exact zero bucket.
    pub fn zero_weight(&self) -> C {
        dispatch!(self, s => s.zero_weight())
    }

    /// Total stored count (weight) in the plane's own count type.
    pub fn total(&self) -> C {
        dispatch!(self, s => {
            s.zero_weight() + s.positive_store().total_count() + s.negative_store().total_count()
        })
    }

    /// Merge another runtime-configured sketch into this one.
    ///
    /// Succeeds exactly when both sketches wrap the same variant with
    /// mergeable mappings (same family, same `α`); the merge is then
    /// bucket-exact (Algorithm 4). Cross-variant merges fail with
    /// [`SketchError::IncompatibleMerge`] naming both configurations —
    /// sketches built from different store families do not share collapse
    /// semantics, so merging them would silently void Proposition 4.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        pair_dispatch!(self, other, a, b => a.merge_from(b))
    }

    /// Merge any number of same-variant sketches into this one in a
    /// single k-way pass; see [`DDSketch::merge_many`].
    ///
    /// Like [`Self::merge_from`], every sketch must wrap the same variant
    /// with a mergeable mapping; the first mismatch fails the whole call
    /// with `IncompatibleMerge` before anything is merged.
    pub fn merge_many(&mut self, others: &[&Self]) -> Result<(), SketchError> {
        macro_rules! merge_arm {
            ($target:ident, $variant:ident) => {{
                let mut typed = Vec::with_capacity(others.len());
                for other in others {
                    match other {
                        AnyDDSketchOf::$variant(sketch) => typed.push(sketch),
                        mismatched => {
                            return Err(mismatch(config_of($target), mismatched.config()))
                        }
                    }
                }
                $target.merge_many(&typed)
            }};
        }
        match self {
            AnyDDSketchOf::Unbounded(s) => merge_arm!(s, Unbounded),
            AnyDDSketchOf::Bounded(s) => merge_arm!(s, Bounded),
            AnyDDSketchOf::Fast(s) => merge_arm!(s, Fast),
            AnyDDSketchOf::Sparse(s) => merge_arm!(s, Sparse),
            AnyDDSketchOf::PaperExact(s) => merge_arm!(s, PaperExact),
        }
    }

    /// Whether the sketch holds no data.
    pub fn is_empty(&self) -> bool {
        dispatch!(self, s => s.is_empty())
    }

    /// Exact (weighted) sum of inserted values.
    pub fn sum(&self) -> f64 {
        dispatch!(self, s => s.sum())
    }

    /// Exact (weighted) mean, or `None` if empty.
    pub fn average(&self) -> Option<f64> {
        dispatch!(self, s => s.average())
    }

    /// Exact minimum inserted value.
    pub fn min(&self) -> Option<f64> {
        dispatch!(self, s => s.min())
    }

    /// Exact maximum inserted value.
    pub fn max(&self) -> Option<f64> {
        dispatch!(self, s => s.max())
    }

    /// Number of non-empty buckets plus the zero bucket.
    pub fn num_bins(&self) -> usize {
        dispatch!(self, s => s.num_bins())
    }

    /// Whether any store has collapsed buckets (Proposition 4).
    pub fn has_collapsed(&self) -> bool {
        dispatch!(self, s => s.has_collapsed())
    }

    /// Reset to empty, retaining allocations and configuration.
    pub fn clear(&mut self) {
        dispatch!(self, s => s.clear())
    }

    /// Free the batched-ingestion scratch buffers; see
    /// [`DDSketch::release_scratch`].
    pub fn release_scratch(&mut self) {
        dispatch!(self, s => s.release_scratch())
    }

    /// Structural memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        dispatch!(self, s => s.memory_bytes())
    }

    /// Positive-store bins in ascending index order (read-only; used by
    /// tests asserting bit-identity against the statically-typed presets).
    pub fn positive_bins(&self) -> Vec<(i32, C)> {
        dispatch!(self, s => s.positive_store().bins_ascending())
    }

    /// Negative-store bins in ascending index order (of `|x|`).
    pub fn negative_bins(&self) -> Vec<(i32, C)> {
        dispatch!(self, s => s.negative_store().bins_ascending())
    }

    /// Internal: bulk-absorb raw state (summary statistics plus positive /
    /// negative bins) with union-merge semantics — one [`Store::add_bins`]
    /// pass per store, so bounded families apply their collapse clamp
    /// exactly as a merge would. This is how the lock-free ingest plane's
    /// snapshots ([`crate::atomic`]) and the codec's payload folds
    /// materialize: raw counters in, a regular sketch out, without an
    /// intermediate sketch.
    pub(crate) fn absorb_raw(
        &mut self,
        zero_count: C,
        min: f64,
        max: f64,
        sum: f64,
        pos_bins: &[(i32, C)],
        neg_bins: &[(i32, C)],
    ) {
        dispatch!(self, s => s.absorb_bins(zero_count, min, max, sum, pos_bins, neg_bins))
    }

    /// Internal: bulk-load decoded state into an empty sketch (an exact
    /// overwrite, not a fold) — the codec's payload-to-sketch path.
    pub(crate) fn load_raw(
        &mut self,
        zero_count: C,
        min: f64,
        max: f64,
        sum: f64,
        pos_bins: &[(i32, C)],
        neg_bins: &[(i32, C)],
    ) {
        dispatch!(self, s => s.load(zero_count, min, max, sum, pos_bins, neg_bins))
    }
}

impl AnyDDSketch {
    /// Insert one occurrence of `value`.
    pub fn add(&mut self, value: f64) -> Result<(), SketchError> {
        dispatch!(self, s => s.add(value))
    }

    /// Insert `count` occurrences of `value` in O(1).
    pub fn add_n(&mut self, value: f64, count: u64) -> Result<(), SketchError> {
        dispatch!(self, s => s.add_n(value, count))
    }

    /// Bulk-insert a batch through the preset's fused fast path. Atomic
    /// like [`DDSketch::add_slice`]: an unsupported value fails the whole
    /// batch without ingesting anything.
    pub fn add_slice(&mut self, values: &[f64]) -> Result<(), SketchError> {
        dispatch!(self, s => s.add_slice(values))
    }

    /// Remove one previously-inserted occurrence of `value`; see
    /// [`DDSketch::delete`].
    pub fn delete(&mut self, value: f64) -> bool {
        dispatch!(self, s => s.delete(value))
    }

    /// Estimate the q-quantile (Algorithm 2).
    pub fn quantile(&self, q: f64) -> Result<f64, SketchError> {
        dispatch!(self, s => s.quantile(q))
    }

    /// Estimate several quantiles in one sorted-rank store walk; see
    /// [`DDSketch::quantiles`].
    pub fn quantiles(&self, qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        dispatch!(self, s => s.quantiles(qs))
    }

    /// Hard bounds on the q-quantile; see [`DDSketch::quantile_bounds`].
    pub fn quantile_bounds(&self, q: f64) -> Result<(f64, f64), SketchError> {
        dispatch!(self, s => s.quantile_bounds(q))
    }

    /// Estimate quantiles of the merge of `sketches` without materializing
    /// the merged sketch; see [`DDSketch::merged_quantiles`].
    ///
    /// Every sketch must wrap the same variant with a mergeable mapping.
    /// With no sketches (or no data), non-empty `qs` fail with `Empty`
    /// while an empty `qs` succeeds with an empty vec.
    pub fn merged_quantiles(sketches: &[&Self], qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        let Some((first, rest)) = sketches.split_first() else {
            return no_sketches(qs).map(|()| Vec::new());
        };
        macro_rules! quantiles_arm {
            ($head:ident, $variant:ident) => {{
                let mut typed = Vec::with_capacity(sketches.len());
                typed.push($head);
                for other in rest {
                    match other {
                        AnyDDSketchOf::$variant(sketch) => typed.push(sketch),
                        mismatched => return Err(mismatch(config_of($head), mismatched.config())),
                    }
                }
                DDSketch::merged_quantiles(&typed, qs)
            }};
        }
        match first {
            AnyDDSketchOf::Unbounded(s) => quantiles_arm!(s, Unbounded),
            AnyDDSketchOf::Bounded(s) => quantiles_arm!(s, Bounded),
            AnyDDSketchOf::Fast(s) => quantiles_arm!(s, Fast),
            AnyDDSketchOf::Sparse(s) => quantiles_arm!(s, Sparse),
            AnyDDSketchOf::PaperExact(s) => quantiles_arm!(s, PaperExact),
        }
    }

    /// [`Self::merged_quantiles`] over an iterator of borrowed sketches,
    /// writing into caller-owned buffers; see
    /// [`DDSketch::merged_quantiles_into`]. With `scratch` and `out`
    /// reused across calls, dense-store walks perform zero heap
    /// allocations at steady state — the sliding-window read path.
    ///
    /// Every sketch must wrap the same variant with a mergeable mapping;
    /// the first mismatch fails the whole call before any walk state is
    /// built.
    pub fn merged_quantiles_into<'a>(
        sketches: impl Iterator<Item = &'a Self> + Clone,
        qs: &[f64],
        scratch: &mut crate::MergedQuantileScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError> {
        let Some(first) = sketches.clone().next() else {
            out.clear();
            return no_sketches(qs);
        };
        macro_rules! into_arm {
            ($head:ident, $variant:ident) => {{
                for other in sketches.clone() {
                    if !matches!(other, AnyDDSketchOf::$variant(_)) {
                        return Err(mismatch(config_of($head), other.config()));
                    }
                }
                DDSketch::merged_quantiles_into(
                    sketches.map(|s| match s {
                        AnyDDSketchOf::$variant(sketch) => sketch,
                        _ => unreachable!("variants checked above"),
                    }),
                    qs,
                    scratch,
                    out,
                )
            }};
        }
        match first {
            AnyDDSketchOf::Unbounded(s) => into_arm!(s, Unbounded),
            AnyDDSketchOf::Bounded(s) => into_arm!(s, Bounded),
            AnyDDSketchOf::Fast(s) => into_arm!(s, Fast),
            AnyDDSketchOf::Sparse(s) => into_arm!(s, Sparse),
            AnyDDSketchOf::PaperExact(s) => into_arm!(s, PaperExact),
        }
    }

    /// Weighted merged quantiles over `(sketch, weight)` pairs; see
    /// [`DDSketch::weighted_merged_quantiles_into`]. Each sketch's bins
    /// count `weight` times in the rank walk — the query-time decay
    /// behind "recent-biased" sliding-window reads. Every sketch must
    /// wrap the same variant with a mergeable mapping.
    pub fn weighted_merged_quantiles_into<'a>(
        sketches: impl Iterator<Item = (&'a Self, f64)> + Clone,
        qs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError> {
        let Some((first, _)) = sketches.clone().next() else {
            out.clear();
            return no_sketches(qs);
        };
        macro_rules! weighted_arm {
            ($head:ident, $variant:ident) => {{
                for (other, _) in sketches.clone() {
                    if !matches!(other, AnyDDSketchOf::$variant(_)) {
                        return Err(mismatch(config_of($head), other.config()));
                    }
                }
                DDSketch::weighted_merged_quantiles_into(
                    sketches.map(|(s, w)| match s {
                        AnyDDSketchOf::$variant(sketch) => (sketch, w),
                        _ => unreachable!("variants checked above"),
                    }),
                    qs,
                    out,
                )
            }};
        }
        match first {
            AnyDDSketchOf::Unbounded(s) => weighted_arm!(s, Unbounded),
            AnyDDSketchOf::Bounded(s) => weighted_arm!(s, Bounded),
            AnyDDSketchOf::Fast(s) => weighted_arm!(s, Fast),
            AnyDDSketchOf::Sparse(s) => weighted_arm!(s, Sparse),
            AnyDDSketchOf::PaperExact(s) => weighted_arm!(s, PaperExact),
        }
    }

    /// Convenience slice form of [`Self::weighted_merged_quantiles_into`].
    pub fn weighted_merged_quantiles(
        sketches: &[(&Self, f64)],
        qs: &[f64],
    ) -> Result<Vec<f64>, SketchError> {
        let mut out = Vec::with_capacity(qs.len());
        Self::weighted_merged_quantiles_into(sketches.iter().copied(), qs, &mut out)?;
        Ok(out)
    }

    /// Total number of stored occurrences.
    pub fn count(&self) -> u64 {
        dispatch!(self, s => s.count())
    }

    /// Count of values in the exact zero bucket.
    pub fn zero_count(&self) -> u64 {
        dispatch!(self, s => s.zero_count())
    }
}

impl AnyWeightedDDSketch {
    /// Insert one occurrence of `value` at weight 1.
    pub fn add(&mut self, value: f64) -> Result<(), SketchError> {
        self.add_with_count(value, 1.0)
    }

    /// Estimate the q-quantile of the weighted multiset; see
    /// [`DDSketch::weighted_quantile`].
    pub fn quantile(&self, q: f64) -> Result<f64, SketchError> {
        dispatch!(self, s => s.weighted_quantile(q))
    }

    /// Estimate several quantiles; output order matches input order.
    pub fn quantiles(&self, qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        dispatch!(self, s => s.weighted_quantiles(qs))
    }

    /// [`AnyWeightedDDSketch::quantiles`] into a caller-owned buffer —
    /// the allocation-free query form (on the dense store families the
    /// walk touches no heap). On error `out`'s contents are unspecified.
    pub fn quantiles_into(&self, qs: &[f64], out: &mut Vec<f64>) -> Result<(), SketchError> {
        out.clear();
        out.reserve(qs.len());
        for &q in qs {
            out.push(self.quantile(q)?);
        }
        Ok(())
    }
}

impl Extend<f64> for AnyDDSketch {
    /// Bulk insertion; unsupported values are silently skipped.
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            let _ = self.add(v);
        }
    }
}

impl QuantileSketch for AnyDDSketch {
    fn add(&mut self, value: f64) -> Result<(), SketchError> {
        AnyDDSketch::add(self, value)
    }

    fn add_n(&mut self, value: f64, count: u64) -> Result<(), SketchError> {
        AnyDDSketch::add_n(self, value, count)
    }

    fn add_slice(&mut self, values: &[f64]) -> Result<(), SketchError> {
        AnyDDSketch::add_slice(self, values)
    }

    fn quantile(&self, q: f64) -> Result<f64, SketchError> {
        AnyDDSketch::quantile(self, q)
    }

    fn quantiles(&self, qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        AnyDDSketch::quantiles(self, qs)
    }

    fn count(&self) -> u64 {
        AnyDDSketch::count(self)
    }

    fn name(&self) -> &'static str {
        self.config().name()
    }
}

impl<C: PlainCell> MergeableSketch for AnyDDSketchOf<C> {
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        AnyDDSketchOf::merge_from(self, other)
    }
}

impl<C: PlainCell> MemoryFootprint for AnyDDSketchOf<C> {
    fn memory_bytes(&self) -> usize {
        AnyDDSketchOf::memory_bytes(self)
    }
}

macro_rules! impl_from_preset {
    ($($preset:ty => $variant:ident),* $(,)?) => {
        $(impl From<$preset> for AnyDDSketch {
            fn from(sketch: $preset) -> Self {
                AnyDDSketchOf::$variant(sketch)
            }
        })*
    };
}

impl_from_preset!(
    UnboundedDDSketch => Unbounded,
    BoundedDDSketch => Bounded,
    FastDDSketch => Fast,
    SparseDDSketch => Sparse,
    PaperExactDDSketch => PaperExact,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DDSketchBuilder;
    use crate::presets;

    // The exhaustive config-matrix properties (bit-identity against every
    // preset, batched-vs-scalar equivalence, cross-variant merge
    // rejection, same-config exact merges) live in the workspace
    // integration suite (`tests/runtime_config.rs`), which is their
    // single home; this module only smoke-tests the dispatch surface and
    // conversions.

    #[test]
    fn full_surface_smoke() {
        let mut s = DDSketchBuilder::new(0.01)
            .dense_collapsing(512)
            .build()
            .unwrap();
        s.add_n(2.0, 3).unwrap();
        s.add_slice(&[1.0, 4.0, -2.0, 0.0]).unwrap();
        s.extend([8.0, f64::NAN, 16.0]);
        assert_eq!(s.count(), 9);
        assert_eq!(s.zero_count(), 1);
        assert_eq!(s.min(), Some(-2.0));
        assert_eq!(s.max(), Some(16.0));
        assert!(s.average().unwrap() > 0.0);
        assert!(s.num_bins() >= 5);
        assert!(!s.has_collapsed());
        assert!(s.memory_bytes() > 0);
        let (lo, hi) = s.quantile_bounds(0.5).unwrap();
        assert!(lo <= hi);
        let qs = s.quantiles(&[0.0, 0.5, 1.0]).unwrap();
        assert_eq!(qs[0], s.quantile(0.0).unwrap());
        assert!(s.delete(2.0));
        assert_eq!(s.count(), 8);
        assert_eq!(QuantileSketch::name(&s), "DDSketch");
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.config().max_bins, 512);
        // From<preset> conversions preserve the configuration.
        let any: AnyDDSketch = presets::sparse(0.03).unwrap().into();
        assert_eq!(any.config(), SketchConfig::sparse(0.03));
    }

    #[test]
    fn weighted_any_surface_smoke() {
        for config in [
            SketchConfig::unbounded(0.01),
            SketchConfig::dense_collapsing(0.01, 256),
            SketchConfig::fast(0.01, 256),
            SketchConfig::sparse(0.01),
            SketchConfig::paper_exact(0.01, 256),
        ] {
            let mut w = AnyWeightedDDSketch::new(config).unwrap();
            assert_eq!(w.config(), config, "config must round-trip");
            let mut u = AnyDDSketch::new(config).unwrap();
            for i in 1..=500u64 {
                let v = match i % 5 {
                    0 => 0.0,
                    1 | 2 => (i as f64) * 0.7,
                    _ => -(i as f64) * 0.3,
                };
                let k = i % 3 + 1;
                u.add_n(v, k).unwrap();
                w.add_with_count(v, k as f64).unwrap();
            }
            // Integral weights mirror the integer plane exactly.
            assert_eq!(w.weighted_count(), u.count() as f64, "{config:?}");
            assert_eq!(w.sum(), u.sum(), "{config:?}");
            assert_eq!(w.min(), u.min(), "{config:?}");
            assert_eq!(w.max(), u.max(), "{config:?}");
            assert_eq!(w.zero_weight(), u.zero_count() as f64, "{config:?}");
            for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                assert_eq!(w.quantile(q).unwrap(), u.quantile(q).unwrap(), "{config:?}");
            }
            // Merge and subtract round-trip: (w ∪ w) − w == w.
            let snapshot = w.clone();
            w.merge_from(&snapshot).unwrap();
            assert_eq!(w.weighted_count(), 2.0 * snapshot.weighted_count());
            w.sub_sketch(&snapshot).unwrap();
            assert_eq!(w.positive_bins(), snapshot.positive_bins(), "{config:?}");
            assert_eq!(w.negative_bins(), snapshot.negative_bins(), "{config:?}");
            // Decay halves the weight exactly on the f64 plane.
            w.scale_counts(0.5).unwrap();
            assert_eq!(w.weighted_count(), snapshot.weighted_count() / 2.0);
            w.clear();
            assert!(w.is_empty());
        }
        // Cross-variant merges and subtractions are rejected.
        let mut a = AnyWeightedDDSketch::new(SketchConfig::unbounded(0.01)).unwrap();
        let b = AnyWeightedDDSketch::new(SketchConfig::sparse(0.01)).unwrap();
        assert!(matches!(
            a.merge_from(&b),
            Err(SketchError::IncompatibleMerge(_))
        ));
        assert!(matches!(
            a.sub_sketch(&b),
            Err(SketchError::IncompatibleMerge(_))
        ));
    }

    #[test]
    fn merge_plane_smoke() {
        let build = |vals: &[f64]| {
            let mut s = SketchConfig::dense_collapsing(0.01, 512).build().unwrap();
            s.add_slice(vals).unwrap();
            s
        };
        let a = build(&[1.0, 2.0, 3.0]);
        let b = build(&[4.0, 5.0]);
        let c = build(&[6.0]);
        let mut bulk = a.clone();
        bulk.merge_many(&[&b, &c]).unwrap();
        let mut seq = a.clone();
        seq.merge_from(&b).unwrap();
        seq.merge_from(&c).unwrap();
        assert_eq!(bulk.positive_bins(), seq.positive_bins());
        assert_eq!(bulk.count(), 6);
        // merged_quantiles ≡ quantiles of the materialized merge.
        let qs = [0.0, 0.5, 1.0];
        assert_eq!(
            AnyDDSketch::merged_quantiles(&[&a, &b, &c], &qs).unwrap(),
            bulk.quantiles(&qs).unwrap()
        );
        // Cross-variant inputs are rejected atomically with the configs
        // named.
        let sparse = SketchConfig::sparse(0.01).build().unwrap();
        let mut target = a.clone();
        assert!(matches!(
            target.merge_many(&[&b, &sparse]),
            Err(SketchError::IncompatibleMerge(_))
        ));
        assert_eq!(target.positive_bins(), a.positive_bins());
        assert!(matches!(
            AnyDDSketch::merged_quantiles(&[&a, &sparse], &[0.5]),
            Err(SketchError::IncompatibleMerge(_))
        ));
        // Empty input handling.
        assert_eq!(
            AnyDDSketch::merged_quantiles(&[], &[]).unwrap(),
            Vec::<f64>::new()
        );
        assert!(matches!(
            AnyDDSketch::merged_quantiles(&[], &[0.5]),
            Err(SketchError::Empty)
        ));
        assert!(matches!(
            AnyDDSketch::merged_quantiles(&[], &[1.5]),
            Err(SketchError::InvalidQuantile(_))
        ));
    }
}
