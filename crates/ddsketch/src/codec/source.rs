//! [`SketchSource`]: live sketches and borrowed views, one merge plane.
//!
//! The aggregator's working set is *mixed*: a resident sketch it has been
//! folding into, plus the payloads that arrived since the last fold —
//! still raw bytes. This module threads both through the k-way rank walk
//! and the merge path behind one small abstraction, so
//!
//! * `merged_quantiles_sources` answers quantiles of the union of N
//!   sketches-and-payloads with **zero** materialized sketches (and, with
//!   a reused [`SourceQuantileScratch`], zero heap allocations), and
//! * `merge_sources` folds payloads into a resident sketch with one bulk
//!   `add_bins` pass per store per payload — no intermediate stores, no
//!   per-bin insert bookkeeping.
//!
//! Both are defined generically on [`DDSketch`] (a source is then a live
//! `&DDSketch` of that exact type, or any view) and dispatched from
//! [`AnyDDSketch`] for the runtime-configured plane. Semantics match the
//! in-memory plane: sources must share a mapping family and `α` and a
//! store family (differing `max_bins` is allowed; the first source's
//! bound governs collapse prediction, mirroring [`Store::merge_clamp`]),
//! and results are identical to decoding every payload and running the
//! live-sketch equivalents — property-tested across every configuration.

use super::view::SketchView;
use super::{bins_total, SketchPayload, WeightedSketchPayload};
use crate::any::{config_of, mismatch, no_sketches, AnyDDSketch, AnyWeightedDDSketch};
use crate::mapping::{IndexMapping, MappingKind};
use crate::sketch::{DDSketch, GenericRankCursor};
use crate::store::{BinIter, Store, StoreKind};
use sketch_core::{target_rank, SketchError};

/// One input to the mixed merge plane: a borrowed live sketch or a
/// borrowed view over encoded bytes.
///
/// `S` is the live-sketch type — a concrete [`DDSketch`] instantiation on
/// the statically-typed plane, [`AnyDDSketch`] (the default) on the
/// runtime-configured one. Sources are `Copy`: a view is two slices and a
/// few scalars, a live source is a reference.
#[derive(Debug)]
pub enum SketchSource<'a, S = AnyDDSketch> {
    /// A live, in-memory sketch.
    Live(&'a S),
    /// A validated view over encoded payload bytes.
    View(SketchView<'a>),
    /// An already-decoded payload (bins + summary, no stores). The walk
    /// trusts the payload's documented invariants — bins strictly
    /// ascending, counts non-zero — which every decode upholds;
    /// hand-built payloads that violate them yield wrong estimates
    /// (never unsafety). Summary consistency *is* re-checked.
    Payload(&'a SketchPayload),
}

impl<S> Clone for SketchSource<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for SketchSource<'_, S> {}

impl<'a, S> From<&'a S> for SketchSource<'a, S> {
    fn from(sketch: &'a S) -> Self {
        SketchSource::Live(sketch)
    }
}

impl<'a, S> From<SketchView<'a>> for SketchSource<'a, S> {
    fn from(view: SketchView<'a>) -> Self {
        SketchSource::View(view)
    }
}

/// A bin walk over either kind of source: a store's borrowed [`BinIter`]
/// or a view's varint-decoding `ViewBinIter`. Double-ended like both, so
/// the negative-store rank walk and the clamp probes work unchanged.
#[derive(Debug, Clone)]
pub enum SourceBins<'a> {
    /// Bins of a live store.
    Store(BinIter<'a>),
    /// Bins of an encoded payload.
    View(super::view::ViewBinIter<'a>),
    /// Bins of a decoded payload.
    Pairs(std::slice::Iter<'a, (i32, u64)>),
}

impl Iterator for SourceBins<'_> {
    type Item = (i32, u64);

    fn next(&mut self) -> Option<(i32, u64)> {
        match self {
            SourceBins::Store(iter) => iter.next(),
            SourceBins::View(iter) => iter.next(),
            SourceBins::Pairs(iter) => iter.next().copied(),
        }
    }
}

impl DoubleEndedIterator for SourceBins<'_> {
    fn next_back(&mut self) -> Option<(i32, u64)> {
        match self {
            SourceBins::Store(iter) => iter.next_back(),
            SourceBins::View(iter) => iter.next_back(),
            SourceBins::Pairs(iter) => iter.next_back().copied(),
        }
    }
}

/// Reusable buffers for the mixed-source quantile walk: hold one across
/// calls and repeated `merged_quantiles_sources` queries perform **zero**
/// heap allocations on the dense store families (counting-allocator
/// tested) — the aggregator's per-tick read path. Contents are transient;
/// only capacity persists.
#[derive(Debug, Default)]
pub struct SourceQuantileScratch {
    /// Requested-quantile slots in ascending-rank visit order.
    order: Vec<usize>,
    /// Parked (empty) bin-walk and head buffers for the positive side.
    pos_iters: Vec<SourceBins<'static>>,
    pos_heads: Vec<Option<(i32, u64)>>,
    /// ... and the negative side.
    neg_iters: Vec<SourceBins<'static>>,
    neg_heads: Vec<Option<(i32, u64)>>,
}

/// Re-lifetime an **empty** source-bins buffer so its capacity can be
/// reused for the current call's borrows (and parked again afterwards).
fn recycle_sources<'dst, 'src>(mut buf: Vec<SourceBins<'src>>) -> Vec<SourceBins<'dst>> {
    buf.clear();
    // SAFETY: the vector was just emptied, so no `'src`-lifetimed value is
    // reinterpreted at the new lifetime; `Vec<SourceBins<'_>>` has one
    // layout regardless of the lifetime (lifetimes are erased at
    // monomorphization), so only the allocation's capacity crosses over.
    unsafe { std::mem::transmute::<Vec<SourceBins<'src>>, Vec<SourceBins<'dst>>>(buf) }
}

/// Which store side a clamp is being predicted for — bounded dense stores
/// collapse from opposite ends on the two sides (lowest indices on the
/// positive store, highest on the negative one).
#[derive(Clone, Copy)]
enum Side {
    Positive,
    Negative,
}

/// K-way walk over the distinct ascending indices of several bin walks —
/// the Algorithm-3 collapse predictor's input (mirrors the sparse store's
/// internal `DistinctAscending`, generalized to mixed sources).
struct DistinctSources<'a> {
    iters: Vec<std::iter::Peekable<SourceBins<'a>>>,
}

impl<'a> DistinctSources<'a> {
    fn over(bins: impl Iterator<Item = SourceBins<'a>>) -> Self {
        Self {
            iters: bins.map(Iterator::peekable).collect(),
        }
    }
}

impl Iterator for DistinctSources<'_> {
    type Item = i32;

    fn next(&mut self) -> Option<i32> {
        let mut min: Option<i32> = None;
        for iter in &mut self.iters {
            if let Some(&(i, _)) = iter.peek() {
                min = Some(match min {
                    None => i,
                    Some(m) => m.min(i),
                });
            }
        }
        let min = min?;
        for iter in &mut self.iters {
            while matches!(iter.peek(), Some(&(i, _)) if i == min) {
                iter.next();
            }
        }
        Some(min)
    }
}

/// The effective-index clamp that merging these sources into a fresh
/// store of the first source's configuration would apply — the
/// mixed-source generalization of [`Store::merge_clamp_iter`], computed
/// from store *kind* + bound + the walks themselves (a view has no store
/// to ask).
fn sources_clamp<'a>(
    kind: StoreKind,
    limit: Option<usize>,
    bins: impl Iterator<Item = SourceBins<'a>> + Clone,
    side: Side,
) -> (i32, i32) {
    let unclamped = (i32::MIN, i32::MAX);
    let Some(limit) = limit else {
        return unclamped;
    };
    match (kind, side) {
        (StoreKind::Unbounded | StoreKind::Sparse, _) => unclamped,
        (StoreKind::CollapsingDense, Side::Positive) => {
            // Everything below the merged window's lowest kept bucket
            // folds into it.
            let Some(union_max) = bins.filter_map(|mut b| b.next_back().map(|(i, _)| i)).max()
            else {
                return unclamped;
            };
            let lo = (i64::from(union_max) - limit as i64 + 1).max(i64::from(i32::MIN));
            (lo as i32, i32::MAX)
        }
        (StoreKind::CollapsingDense, Side::Negative) => {
            // Mirror image: the negative store collapses its highest
            // |x| indices... which are its *lowest* buckets after the
            // highest-collapsing store's negation — in index terms,
            // everything above the merged window's highest kept bucket
            // folds down.
            let Some(union_min) = bins.filter_map(|mut b| b.next().map(|(i, _)| i)).min() else {
                return unclamped;
            };
            let hi = (i64::from(union_min) + limit as i64 - 1).min(i64::from(i32::MAX));
            (i32::MIN, hi as i32)
        }
        (StoreKind::CollapsingSparse, _) => {
            // Algorithm 3 on the summed buckets: if the union's distinct
            // indices exceed the bound, everything at or below the
            // (distinct − m + 1)-th smallest distinct index folds into it.
            let distinct = DistinctSources::over(bins.clone()).count();
            if distinct <= limit {
                return unclamped;
            }
            let threshold = DistinctSources::over(bins)
                .nth(distinct - limit)
                .expect("distinct > limit implies at least distinct - limit + 1 indices");
            (threshold, i32::MAX)
        }
    }
}

impl<'a, M: IndexMapping, SP: Store<Count = u64>, SN: Store<Count = u64>>
    SketchSource<'a, DDSketch<M, SP, SN>>
{
    fn count(&self) -> u64 {
        match self {
            SketchSource::Live(s) => s.count(),
            SketchSource::View(v) => v.count(),
            SketchSource::Payload(p) => p.total(),
        }
    }

    fn zero_count(&self) -> u64 {
        match self {
            SketchSource::Live(s) => s.zero_count(),
            SketchSource::View(v) => v.zero_count(),
            SketchSource::Payload(p) => p.zero_count,
        }
    }

    fn negative_total(&self) -> u64 {
        match self {
            SketchSource::Live(s) => s.negative_store().total_count(),
            SketchSource::View(v) => v.negative_section().total(),
            SketchSource::Payload(p) => bins_total(&p.negative),
        }
    }

    /// Raw `(min, max, sum)` with the empty-state sentinels intact, so
    /// accumulation folds are unconditional.
    fn summary(&self) -> (f64, f64, f64) {
        match self {
            SketchSource::Live(s) => (
                s.min().unwrap_or(f64::INFINITY),
                s.max().unwrap_or(f64::NEG_INFINITY),
                s.sum(),
            ),
            SketchSource::View(v) => v.raw_summary(),
            SketchSource::Payload(p) => (p.min, p.max, p.sum),
        }
    }

    /// Fallible only for raw payloads, whose `store` byte is caller data.
    fn store_kind(&self) -> Result<StoreKind, SketchError> {
        match self {
            SketchSource::Live(s) => Ok(s.positive_store().store_kind()),
            SketchSource::View(v) => Ok(v.store_kind()),
            SketchSource::Payload(p) => StoreKind::from_u8(p.store),
        }
    }

    fn bin_limit(&self) -> Option<usize> {
        match self {
            SketchSource::Live(s) => s.positive_store().bin_limit(),
            SketchSource::View(v) => v.bin_limit(),
            SketchSource::Payload(p) => usize::try_from(p.bin_limit).ok().filter(|&l| l > 0),
        }
    }

    fn positive_bins(&self) -> SourceBins<'a> {
        match *self {
            SketchSource::Live(s) => SourceBins::Store(s.positive_store().bin_iter()),
            SketchSource::View(v) => SourceBins::View(v.positive_bins()),
            SketchSource::Payload(p) => SourceBins::Pairs(p.positive.iter()),
        }
    }

    fn negative_bins(&self) -> SourceBins<'a> {
        match *self {
            SketchSource::Live(s) => SourceBins::Store(s.negative_store().bin_iter()),
            SketchSource::View(v) => SourceBins::View(v.negative_bins()),
            SketchSource::Payload(p) => SourceBins::Pairs(p.negative.iter()),
        }
    }

    /// The mapping every source must be compatible with, and the one
    /// whose `value()` the walk reports: a clone of the first live
    /// source's, or a bit-identical reconstruction from the first view's
    /// wire header ([`IndexMapping::with_accuracy`]).
    fn reference_mapping(sources: impl Iterator<Item = Self> + Clone) -> Result<M, SketchError> {
        for source in sources.clone() {
            if let SketchSource::Live(s) = source {
                return Ok(s.mapping().clone());
            }
        }
        let (alpha, kind) = match sources.clone().next() {
            Some(SketchSource::View(first)) => (first.relative_accuracy(), first.mapping_kind()),
            Some(SketchSource::Payload(first)) => {
                (first.relative_accuracy, MappingKind::from_u8(first.kind)?)
            }
            _ => return Err(SketchError::Empty),
        };
        let mapping = M::with_accuracy(alpha)?;
        if mapping.kind() != kind {
            return Err(SketchError::IncompatibleMerge(format!(
                "payload mapping {kind:?} walked as {:?}",
                mapping.kind()
            )));
        }
        Ok(mapping)
    }

    fn check_compatible(&self, reference: &M, ref_kind: StoreKind) -> Result<(), SketchError> {
        let (kind, alpha, store) = match self {
            SketchSource::Live(s) => (
                s.mapping().kind(),
                s.mapping().relative_accuracy(),
                s.positive_store().store_kind(),
            ),
            SketchSource::View(v) => {
                // DDS3 counts are not integers; weighted payloads join the
                // weighted merge plane (`AnyWeightedDDSketch::merge_view`).
                if v.is_weighted() {
                    return Err(SketchError::IncompatibleMerge(
                        "weighted DDS3 payload on the integer merge plane".into(),
                    ));
                }
                (v.mapping_kind(), v.relative_accuracy(), v.store_kind())
            }
            SketchSource::Payload(p) => {
                // A raw payload's fields are caller data: hold its summary
                // to the same standard the byte decoders enforce, so a
                // hand-built inconsistency can't poison a resident sketch
                // or a walk's clamp.
                super::validate_summary(p)?;
                (
                    MappingKind::from_u8(p.kind)?,
                    p.relative_accuracy,
                    StoreKind::from_u8(p.store)?,
                )
            }
        };
        let mergeable =
            kind == reference.kind() && (alpha - reference.relative_accuracy()).abs() < 1e-12;
        if !mergeable {
            return Err(SketchError::IncompatibleMerge(format!(
                "mapping {:?} (α={}) vs {:?} (α={})",
                reference.kind(),
                reference.relative_accuracy(),
                kind,
                alpha
            )));
        }
        if store != ref_kind {
            return Err(SketchError::IncompatibleMerge(format!(
                "store family {} vs {}",
                ref_kind.name(),
                store.name()
            )));
        }
        Ok(())
    }
}

impl<M: IndexMapping, SP: Store<Count = u64>, SN: Store<Count = u64>> DDSketch<M, SP, SN> {
    /// Estimate quantiles of the merge of mixed live-and-encoded sources
    /// without materializing anything: the decode-free generalization of
    /// [`DDSketch::merged_quantiles_into`].
    ///
    /// Live shards contribute their borrowed store bins, views decode
    /// their varint bins lazily inside the walk; bounded-store collapse
    /// is accounted for by the same effective-index clamp the in-memory
    /// plane uses (predicted from store kind + the first source's bound).
    /// The estimates are **identical** to decoding every view, merging
    /// everything into a clone of the first source, and querying it —
    /// property-tested across every configuration, collapsed tails
    /// included.
    ///
    /// With `scratch` and `out` reused across calls the walk performs no
    /// heap allocations for dense-family sources (the sparse families
    /// allocate only in the collapse predictor).
    ///
    /// # Errors
    ///
    /// `InvalidQuantile` for any `q` outside `[0, 1]`;
    /// `IncompatibleMerge` when sources disagree on mapping family, `α`,
    /// or store family; `Empty` when there are no sources or no data
    /// (unless `qs` is empty, which always succeeds).
    pub fn merged_quantiles_sources<'a>(
        sources: impl Iterator<Item = SketchSource<'a, Self>> + Clone,
        qs: &[f64],
        scratch: &mut SourceQuantileScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError>
    where
        M: 'a,
        SP: 'a,
        SN: 'a,
    {
        for &q in qs {
            if !(0.0..=1.0).contains(&q) {
                return Err(SketchError::InvalidQuantile(q));
            }
        }
        out.clear();
        if qs.is_empty() {
            return Ok(());
        }
        let Some(first) = sources.clone().next() else {
            return Err(SketchError::Empty);
        };
        let reference = SketchSource::reference_mapping(sources.clone())?;
        let ref_kind = first.store_kind()?;
        let ref_limit = first.bin_limit();
        for source in sources.clone() {
            source.check_compatible(&reference, ref_kind)?;
        }

        let (mut n, mut neg_total, mut zero_total) = (0u64, 0u64, 0u64);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for source in sources.clone() {
            n += source.count();
            neg_total += source.negative_total();
            zero_total += source.zero_count();
            let (lo, hi, _) = source.summary();
            min = min.min(lo);
            max = max.max(hi);
        }
        if n == 0 {
            return Err(SketchError::Empty);
        }

        let pos_clamp = sources_clamp(
            ref_kind,
            ref_limit,
            sources.clone().map(|s| s.positive_bins()),
            Side::Positive,
        );
        let neg_clamp = sources_clamp(
            ref_kind,
            ref_limit,
            sources.clone().map(|s| s.negative_bins()),
            Side::Negative,
        );

        // Heads cursors per side, on the scratch's recycled buffers. The
        // positive walk runs ascending; the negative walk runs from the
        // most negative value, i.e. from the largest |x| bucket downward.
        let mut pos_iters = recycle_sources(std::mem::take(&mut scratch.pos_iters));
        pos_iters.extend(sources.clone().map(|s| s.positive_bins()));
        let mut pos = GenericRankCursor::with_buffers(
            pos_iters,
            std::mem::take(&mut scratch.pos_heads),
            false,
            pos_clamp,
        );
        let mut neg_iters = recycle_sources(std::mem::take(&mut scratch.neg_iters));
        neg_iters.extend(sources.map(|s| s.negative_bins()));
        let mut neg = GenericRankCursor::with_buffers(
            neg_iters,
            std::mem::take(&mut scratch.neg_heads),
            true,
            neg_clamp,
        );

        scratch.order.clear();
        scratch.order.extend(0..qs.len());
        scratch
            .order
            .sort_unstable_by(|&a, &b| qs[a].total_cmp(&qs[b]));

        let neg_total = neg_total as f64;
        let zero_total = zero_total as f64;
        out.resize(qs.len(), 0.0);
        for &slot in &scratch.order {
            let rank = target_rank(qs[slot], n);
            let raw = if rank < neg_total {
                let idx = neg
                    .advance_to(rank)
                    .expect("rank < neg_total implies a negative bin");
                -reference.value(idx)
            } else if rank < neg_total + zero_total {
                0.0
            } else {
                let idx = pos
                    .advance_to(rank - neg_total - zero_total)
                    .expect("rank < total implies a positive bin");
                reference.value(idx)
            };
            out[slot] = raw.clamp(min, max);
        }

        let (iters, heads) = pos.into_buffers();
        scratch.pos_iters = recycle_sources(iters);
        scratch.pos_heads = heads;
        let (iters, heads) = neg.into_buffers();
        scratch.neg_iters = recycle_sources(iters);
        scratch.neg_heads = heads;
        Ok(())
    }

    /// Merge mixed live-and-encoded sources into this sketch, in iterator
    /// order — the decode-free generalization of [`DDSketch::merge_many`].
    ///
    /// Live sources merge through the store-level bulk path; views are
    /// absorbed with **one** [`Store::add_bins`] pass per store (a single
    /// capacity/collapse decision per payload, bins flowing straight from
    /// the varint walk into the resident stores — no intermediate sketch,
    /// no intermediate store). The result is bucket-identical to decoding
    /// every view and folding `merge_from` in the same order
    /// (property-tested across every configuration).
    ///
    /// # Errors
    ///
    /// `IncompatibleMerge` when any source's mapping family, `α`, or
    /// store family differs from this sketch's; the check runs before any
    /// mutation, so a failed call leaves the sketch untouched. A view's
    /// differing `max_bins` is accepted — bucket boundaries agree and the
    /// resident store re-collapses to its own bound (Algorithm 4).
    pub fn merge_sources<'a>(
        &mut self,
        sources: impl Iterator<Item = SketchSource<'a, Self>> + Clone,
    ) -> Result<(), SketchError>
    where
        M: 'a,
        SP: 'a,
        SN: 'a,
    {
        let ref_kind = self.positive_store().store_kind();
        for source in sources.clone() {
            source.check_compatible(self.mapping(), ref_kind)?;
        }
        // One reusable bin buffer serves every view in the batch; its
        // capacity is the largest payload's bin count.
        let mut bins: Vec<(i32, u64)> = Vec::new();
        for source in sources {
            match source {
                SketchSource::Live(other) => {
                    self.merge_from(other)
                        .expect("compatibility verified above");
                }
                SketchSource::View(view) => {
                    let (min, max, sum) = view.raw_summary();
                    bins.clear();
                    view.append_positive_bins(&mut bins);
                    let neg_start = bins.len();
                    view.append_negative_bins(&mut bins);
                    let (pos_bins, neg_bins) = bins.split_at(neg_start);
                    self.absorb_bins(view.zero_count(), min, max, sum, pos_bins, neg_bins);
                }
                SketchSource::Payload(p) => {
                    // Already decoded: the bins absorb straight from the
                    // payload's slices, one bulk pass per store.
                    self.absorb_bins(p.zero_count, p.min, p.max, p.sum, &p.positive, &p.negative);
                }
            }
        }
        Ok(())
    }

    /// Absorb one encoded payload; see [`DDSketch::merge_sources`].
    pub fn merge_view(&mut self, view: &SketchView<'_>) -> Result<(), SketchError> {
        self.merge_sources(std::iter::once(SketchSource::View(*view)))
    }
}

/// Which preset variant a runtime source belongs to — from the enum for
/// live sources, from the validated wire header for views.
pub(crate) enum VariantKind {
    Unbounded,
    Bounded,
    Fast,
    Sparse,
    PaperExact,
}

/// The preset variant implementing a (mapping, store) pair; a pair no
/// preset implements is a decode error (it came off the wire or out of a
/// payload).
pub(crate) fn variant_of(
    mapping: MappingKind,
    store: StoreKind,
) -> Result<VariantKind, SketchError> {
    Ok(match (mapping, store) {
        (MappingKind::Logarithmic, StoreKind::Unbounded) => VariantKind::Unbounded,
        (MappingKind::Logarithmic, StoreKind::CollapsingDense) => VariantKind::Bounded,
        (MappingKind::CubicInterpolated, StoreKind::CollapsingDense) => VariantKind::Fast,
        (MappingKind::Logarithmic, StoreKind::Sparse) => VariantKind::Sparse,
        (MappingKind::Logarithmic, StoreKind::CollapsingSparse) => VariantKind::PaperExact,
        (mapping, store) => {
            return Err(SketchError::Decode(format!(
                "no sketch variant for {mapping:?} mapping with {} store",
                store.name()
            )))
        }
    })
}

fn variant_kind(source: &SketchSource<'_, AnyDDSketch>) -> Result<VariantKind, SketchError> {
    match source {
        SketchSource::Live(any) => Ok(match any {
            AnyDDSketch::Unbounded(_) => VariantKind::Unbounded,
            AnyDDSketch::Bounded(_) => VariantKind::Bounded,
            AnyDDSketch::Fast(_) => VariantKind::Fast,
            AnyDDSketch::Sparse(_) => VariantKind::Sparse,
            AnyDDSketch::PaperExact(_) => VariantKind::PaperExact,
        }),
        SketchSource::View(view) => variant_of(view.mapping_kind(), view.store_kind()),
        SketchSource::Payload(p) => {
            variant_of(MappingKind::from_u8(p.kind)?, StoreKind::from_u8(p.store)?)
        }
    }
}

fn describe_source(source: &SketchSource<'_, AnyDDSketch>) -> String {
    match source {
        SketchSource::Live(any) => format!("{:?}", any.config()),
        SketchSource::View(view) => format!("{:?}", view.config()),
        SketchSource::Payload(p) => format!(
            "payload (kind {}, store {}, α={})",
            p.kind, p.store, p.relative_accuracy
        ),
    }
}

impl AnyDDSketch {
    /// Estimate quantiles over mixed live sketches and encoded payloads;
    /// see [`DDSketch::merged_quantiles_sources`]. The first source
    /// selects the variant; every live source must wrap it and every view
    /// must name a compatible configuration.
    pub fn merged_quantiles_sources<'a>(
        sources: impl Iterator<Item = SketchSource<'a, AnyDDSketch>> + Clone,
        qs: &[f64],
        scratch: &mut SourceQuantileScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError> {
        let Some(first) = sources.clone().next() else {
            out.clear();
            return no_sketches(qs);
        };
        macro_rules! sources_arm {
            ($variant:ident) => {{
                for source in sources.clone() {
                    if let SketchSource::Live(other) = source {
                        if !matches!(other, AnyDDSketch::$variant(_)) {
                            return Err(SketchError::IncompatibleMerge(format!(
                                "store/mapping mismatch: {} vs {:?}",
                                describe_source(&first),
                                other.config()
                            )));
                        }
                    }
                }
                DDSketch::merged_quantiles_sources(
                    sources.map(|source| match source {
                        SketchSource::Live(AnyDDSketch::$variant(sketch)) => {
                            SketchSource::Live(sketch)
                        }
                        SketchSource::Live(_) => unreachable!("live variants checked above"),
                        SketchSource::View(view) => SketchSource::View(view),
                        SketchSource::Payload(p) => SketchSource::Payload(p),
                    }),
                    qs,
                    scratch,
                    out,
                )
            }};
        }
        match variant_kind(&first)? {
            VariantKind::Unbounded => sources_arm!(Unbounded),
            VariantKind::Bounded => sources_arm!(Bounded),
            VariantKind::Fast => sources_arm!(Fast),
            VariantKind::Sparse => sources_arm!(Sparse),
            VariantKind::PaperExact => sources_arm!(PaperExact),
        }
    }

    /// Merge mixed live sketches and encoded payloads into this one, in
    /// iterator order; see [`DDSketch::merge_sources`]. Every live source
    /// must wrap this sketch's variant and every view must name a
    /// compatible configuration; the check runs before any mutation.
    pub fn merge_sources<'a>(
        &mut self,
        sources: impl Iterator<Item = SketchSource<'a, AnyDDSketch>> + Clone,
    ) -> Result<(), SketchError> {
        macro_rules! merge_arm {
            ($target:ident, $variant:ident) => {{
                for source in sources.clone() {
                    if let SketchSource::Live(other) = source {
                        if !matches!(other, AnyDDSketch::$variant(_)) {
                            return Err(mismatch(config_of($target), other.config()));
                        }
                    }
                }
                $target.merge_sources(sources.map(|source| match source {
                    SketchSource::Live(AnyDDSketch::$variant(sketch)) => SketchSource::Live(sketch),
                    SketchSource::Live(_) => unreachable!("live variants checked above"),
                    SketchSource::View(view) => SketchSource::View(view),
                    SketchSource::Payload(p) => SketchSource::Payload(p),
                }))
            }};
        }
        match self {
            AnyDDSketch::Unbounded(s) => merge_arm!(s, Unbounded),
            AnyDDSketch::Bounded(s) => merge_arm!(s, Bounded),
            AnyDDSketch::Fast(s) => merge_arm!(s, Fast),
            AnyDDSketch::Sparse(s) => merge_arm!(s, Sparse),
            AnyDDSketch::PaperExact(s) => merge_arm!(s, PaperExact),
        }
    }

    /// Absorb one encoded payload without materializing a sketch for it;
    /// see [`DDSketch::merge_sources`].
    pub fn merge_view(&mut self, view: &SketchView<'_>) -> Result<(), SketchError> {
        self.merge_sources(std::iter::once(SketchSource::View(*view)))
    }
}

impl AnyWeightedDDSketch {
    /// Absorb one encoded payload — any dialect (`DDS1`/`DDS2`/`DDS3`),
    /// integer counts widened exactly — without materializing a sketch
    /// for it. Weighted walks are forward-only (the `DDS3` escape encoding
    /// defeats the backward varint boundary scan), so the view's bins are
    /// copied into a weighted payload first; the parse already validated
    /// them.
    pub fn merge_view(&mut self, view: &SketchView<'_>) -> Result<(), SketchError> {
        let config = self.config();
        let vc = view.config();
        // The payload admission predicate (`matches_config`): mapping
        // family, store family, and α must agree; `max_bins` may differ
        // (the receiver's bound governs).
        if !super::admits(&config, vc.mapping as u8, vc.store as u8, vc.alpha) {
            return Err(mismatch(config, vc));
        }
        if view.is_empty() {
            return Ok(());
        }
        let mut p = WeightedSketchPayload::default();
        p.fill_from_view(view);
        self.absorb_raw(p.zero_count, p.min, p.max, p.sum, &p.positive, &p.negative);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DDSketchBuilder, SketchConfig};

    fn encoded(config: SketchConfig, values: impl IntoIterator<Item = f64>) -> Vec<u8> {
        let mut s = config.build().unwrap();
        for v in values {
            s.add(v).unwrap();
        }
        s.encode()
    }

    #[test]
    fn mixed_walk_equals_decode_then_merge() {
        for config in SketchConfig::all(0.01, 128) {
            let mut live = config.build().unwrap();
            for i in 1..=500 {
                live.add(i as f64 * 0.3).unwrap();
            }
            let frames: Vec<Vec<u8>> = (0..4)
                .map(|k| {
                    encoded(
                        config,
                        (1..=200)
                            .map(|i| (i * (k + 1)) as f64 * if i % 5 == 0 { -0.2 } else { 1.1 }),
                    )
                })
                .collect();
            let views: Vec<SketchView<'_>> = frames
                .iter()
                .map(|f| SketchView::parse(f).unwrap())
                .collect();

            // Baseline: decode + fold + query.
            let mut materialized = live.clone();
            for f in &frames {
                let decoded = AnyDDSketch::decode(f).unwrap();
                materialized.merge_from(&decoded).unwrap();
            }
            let qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0];
            let expected = materialized.quantiles(&qs).unwrap();

            // Decode-free walk.
            let mut scratch = SourceQuantileScratch::default();
            let mut out = Vec::new();
            let sources = std::iter::once(SketchSource::Live(&live))
                .chain(views.iter().map(|v| SketchSource::View(*v)));
            AnyDDSketch::merged_quantiles_sources(sources.clone(), &qs, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(
                out,
                expected,
                "{}: walk must match materialized",
                config.name()
            );

            // Decode-free fold.
            let mut folded = live.clone();
            folded
                .merge_sources(views.iter().map(|v| SketchSource::View(*v)))
                .unwrap();
            assert_eq!(
                folded.to_payload(),
                materialized.to_payload(),
                "{}: merge_sources must match decode-then-merge",
                config.name()
            );
        }
    }

    #[test]
    fn sources_reject_incompatibles_atomically() {
        let mut a = DDSketchBuilder::new(0.01)
            .dense_collapsing(128)
            .build()
            .unwrap();
        a.add(1.0).unwrap();
        let foreign_alpha = encoded(SketchConfig::dense_collapsing(0.02, 128), [1.0]);
        let foreign_store = encoded(SketchConfig::sparse(0.01), [1.0]);
        let before = a.to_payload();
        for frame in [&foreign_alpha, &foreign_store] {
            let view = SketchView::parse(frame).unwrap();
            assert!(matches!(
                a.merge_view(&view),
                Err(SketchError::IncompatibleMerge(_))
            ));
            assert_eq!(a.to_payload(), before, "failed merge must not mutate");
            let mut scratch = SourceQuantileScratch::default();
            let mut out = Vec::new();
            assert!(matches!(
                AnyDDSketch::merged_quantiles_sources(
                    [SketchSource::Live(&a), SketchSource::View(view)].into_iter(),
                    &[0.5],
                    &mut scratch,
                    &mut out
                ),
                Err(SketchError::IncompatibleMerge(_))
            ));
        }
        // Cross-variant live sources are rejected by the dispatch too.
        let sparse = SketchConfig::sparse(0.01).build().unwrap();
        let mut scratch = SourceQuantileScratch::default();
        let mut out = Vec::new();
        assert!(matches!(
            AnyDDSketch::merged_quantiles_sources(
                [SketchSource::Live(&a), SketchSource::Live(&sparse)].into_iter(),
                &[0.5],
                &mut scratch,
                &mut out
            ),
            Err(SketchError::IncompatibleMerge(_))
        ));
    }

    #[test]
    fn view_only_sources_need_no_live_sketch() {
        let frames: Vec<Vec<u8>> = (1..=3)
            .map(|k| {
                encoded(
                    SketchConfig::fast(0.01, 256),
                    (1..=100).map(|i| (i * k) as f64),
                )
            })
            .collect();
        let views: Vec<SketchView<'_>> = frames
            .iter()
            .map(|f| SketchView::parse(f).unwrap())
            .collect();
        let mut scratch = SourceQuantileScratch::default();
        let mut out = Vec::new();
        AnyDDSketch::merged_quantiles_sources(
            views.iter().map(|v| SketchSource::View(*v)),
            &[0.5, 0.99],
            &mut scratch,
            &mut out,
        )
        .unwrap();
        let mut union = AnyDDSketch::decode(&frames[0]).unwrap();
        for f in &frames[1..] {
            union.merge_from(&AnyDDSketch::decode(f).unwrap()).unwrap();
        }
        assert_eq!(out, union.quantiles(&[0.5, 0.99]).unwrap());
        // Empty source set: empty qs succeed, data queries say Empty.
        let none = std::iter::empty::<SketchSource<'_, AnyDDSketch>>();
        assert!(
            AnyDDSketch::merged_quantiles_sources(none.clone(), &[], &mut scratch, &mut out)
                .is_ok()
        );
        assert!(matches!(
            AnyDDSketch::merged_quantiles_sources(none, &[0.5], &mut scratch, &mut out),
            Err(SketchError::Empty)
        ));
    }
}
