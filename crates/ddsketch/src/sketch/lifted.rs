//! The lifted rank walk: quantiles of the weighted union of
//! `(weighted, integer)` sketch pairs, read straight off the borrowed
//! stores.
//!
//! The union it answers for is the one a fresh weighted sketch would hold
//! after merging `w₀`, then `i₀` lifted onto the `f64` plane (each integer
//! count entering at weight 1), then `w₁`, `i₁`, and so on. The walk never
//! builds that sketch, yet its answers carry the same bits, because it
//! replays every floating-point sum the merge would perform, in the
//! merge's order:
//!
//! * **Columns.** A merged bin is the sum of its sources' counts added in
//!   source order, so the walk sums each column across the sources in
//!   that order — blocked slice adds over the dense families' live
//!   windows, a column-grouped heads scan over the sparse ones.
//! * **Totals.** A store's running total grows by each weighted source's
//!   total and, for an integer source, by its bins: summed first and then
//!   added on the dense families (`add_bins`), added one at a time on the
//!   sparse ones (`add_n`).
//! * **Collapse.** On the bounded families every bin beyond the final
//!   merge clamp ends in one bucket, but the bits of that bucket depend on
//!   the intermediate folds the sequential merges performed. The walk
//!   replays those folds for the collapsed region only and reads every
//!   other bin as a plain column sum.

use std::collections::{BTreeMap, BTreeSet};

use sketch_core::SketchError;

use super::{DDSketch, COLUMN_BLOCK};
use crate::mapping::IndexMapping;
use crate::store::{BinIter, Store, StoreKind};

/// One source's bins on the `f64` plane: a weighted store's own counts,
/// or an integer store's counts lifted exactly to `f64`.
#[derive(Clone)]
enum Lifted<'a> {
    Weighted(BinIter<'a, f64>),
    Integer(BinIter<'a, u64>),
}

impl Iterator for Lifted<'_> {
    type Item = (i32, f64);

    fn next(&mut self) -> Option<(i32, f64)> {
        match self {
            Lifted::Weighted(iter) => iter.next(),
            Lifted::Integer(iter) => iter.next().map(|(i, c)| (i, c as f64)),
        }
    }
}

impl DoubleEndedIterator for Lifted<'_> {
    fn next_back(&mut self) -> Option<(i32, f64)> {
        match self {
            Lifted::Weighted(iter) => iter.next_back(),
            Lifted::Integer(iter) => iter.next_back().map(|(i, c)| (i, c as f64)),
        }
    }
}

/// How one side's store family merges: which running-total rule it
/// follows and what it collapses.
#[derive(Clone, Copy)]
enum Family {
    /// Unbounded dense store: totals add whole, nothing collapses.
    Dense,
    /// Span-bounded dense store: the lowest indices collapse (`mirrored`:
    /// the highest, as the negative side's store works on negated
    /// indices).
    DenseSpan { max_bins: i64, mirrored: bool },
    /// Unbounded sparse store: totals add bin by bin, nothing collapses.
    Sparse,
    /// Algorithm-3 sparse store: at most `max_bins` non-empty buckets,
    /// the lowest folding upward.
    SparseCount { max_bins: usize },
}

impl Family {
    fn of(store: &impl Store, negative: bool) -> Self {
        let max_bins = store.bin_limit().unwrap_or(usize::MAX);
        match store.store_kind() {
            StoreKind::Unbounded => Family::Dense,
            StoreKind::CollapsingDense => Family::DenseSpan {
                max_bins: max_bins as i64,
                mirrored: negative,
            },
            StoreKind::Sparse => Family::Sparse,
            StoreKind::CollapsingSparse => Family::SparseCount { max_bins },
        }
    }

    /// The coordinate the family collapses in: lowest coordinates fold.
    fn coord(self, index: i32) -> i64 {
        match self {
            Family::DenseSpan { mirrored: true, .. } => -i64::from(index),
            _ => i64::from(index),
        }
    }
}

/// One side (positive or negative store) of the lifted union.
struct Side<'a> {
    sources: Vec<Lifted<'a>>,
    family: Family,
    /// The union store's running total, accumulated as the merges do.
    total: f64,
}

impl<'a> Side<'a> {
    fn new(family: Family, capacity: usize) -> Self {
        Self {
            sources: Vec::with_capacity(capacity),
            family,
            total: 0.0,
        }
    }

    fn push_weighted<S: Store<Count = f64>>(&mut self, store: &'a S) {
        self.total += store.total_count();
        self.sources.push(Lifted::Weighted(store.bin_iter()));
    }

    fn push_integer<S: Store<Count = u64>>(&mut self, store: &'a S) {
        match self.family {
            // `add_bins` sums the batch first, then adds it to the total.
            Family::Dense | Family::DenseSpan { .. } => {
                self.total += store.bin_iter().fold(0.0, |sum, (_, c)| sum + c as f64);
            }
            // `add_n` per bin.
            Family::Sparse | Family::SparseCount { .. } => {
                for (_, c) in store.bin_iter() {
                    self.total += c as f64;
                }
            }
        }
        self.sources.push(Lifted::Integer(store.bin_iter()));
    }

    /// The collapsed bucket as `(index, value)`, when the merge folds
    /// anything: its index is the final merge clamp, its value the bits
    /// the sequential merges leave there.
    fn folded_bucket(&self) -> Option<(i32, f64)> {
        let family = self.family;
        let clamp = match family {
            Family::Dense | Family::Sparse => return None,
            Family::DenseSpan { max_bins, .. } => {
                let mut extents = self.sources.iter().filter_map(|src| {
                    let (a, b) = (src.clone().next()?.0, src.clone().next_back()?.0);
                    let (a, b) = (family.coord(a), family.coord(b));
                    Some((a.min(b), a.max(b)))
                });
                let union_max = extents.clone().map(|(_, hi)| hi).max()?;
                let clamp = union_max - max_bins + 1;
                if !extents.any(|(lo, _)| lo < clamp) {
                    return None;
                }
                clamp
            }
            Family::SparseCount { max_bins } => {
                let mut distinct: Vec<i32> = self
                    .sources
                    .iter()
                    .flat_map(|s| s.clone().map(|(i, _)| i))
                    .collect();
                distinct.sort_unstable();
                distinct.dedup();
                if distinct.len() <= max_bins {
                    return None;
                }
                i64::from(distinct[distinct.len() - max_bins])
            }
        };
        let value = replay_folds(&self.sources, family, clamp);
        let index = match family {
            Family::DenseSpan { mirrored: true, .. } => -clamp,
            _ => clamp,
        };
        Some((index as i32, value))
    }
}

/// Replay the sequential merges' folds over the region that ends in the
/// collapsed bucket (coordinates at or below `clamp`) and return the
/// bucket's value. Bins above `clamp` are never folded, so they are left
/// to the column walk.
fn replay_folds(sources: &[Lifted<'_>], family: Family, clamp: i64) -> f64 {
    // The union's bins at or below `clamp`, by coordinate.
    let mut low: BTreeMap<i64, f64> = BTreeMap::new();
    match family {
        Family::DenseSpan { max_bins, mirrored } => {
            let mut union_max: Option<i64> = None;
            for src in sources {
                let Some(src_max) = src.clone().map(|(i, _)| family.coord(i)).reduce(i64::max)
                else {
                    continue;
                };
                let new_max = union_max.map_or(src_max, |m| m.max(src_max));
                let allowed = new_max - max_bins + 1;
                // `collapse_lowest_to`: fold the union's buckets below
                // `allowed` in ascending order, then add the sum there.
                if low.first_key_value().is_some_and(|(&k, _)| k < allowed) {
                    let mut folded = 0.0;
                    while let Some(entry) = low.first_entry() {
                        if *entry.key() >= allowed {
                            break;
                        }
                        folded += entry.remove();
                    }
                    *low.entry(allowed).or_insert(0.0) += folded;
                }
                // Then the source's bins, clamped to `allowed`, in the
                // order the merge adds them: a weighted store's window
                // ascending in coordinates, an integer payload's bins
                // ascending by index.
                let mut add = |(i, c): (i32, f64)| {
                    let k = family.coord(i);
                    if k <= clamp {
                        *low.entry(k.max(allowed)).or_insert(0.0) += c;
                    }
                };
                match src {
                    Lifted::Weighted(_) if mirrored => src.clone().rev().for_each(&mut add),
                    _ => src.clone().for_each(&mut add),
                }
                union_max = Some(new_max);
            }
        }
        Family::SparseCount { max_bins } => {
            // Distinct indices above `clamp` seen so far: they count
            // towards the bucket limit but never fold.
            let mut above: BTreeSet<i64> = BTreeSet::new();
            for src in sources {
                for (i, c) in src.clone() {
                    let k = i64::from(i);
                    if k <= clamp {
                        *low.entry(k).or_insert(0.0) += c;
                    } else {
                        above.insert(k);
                    }
                }
                // `collapse_if_needed`: fold the lowest bucket into the
                // next one up until the limit holds.
                while low.len() + above.len() > max_bins {
                    let (_, lowest) = low.pop_first().expect("over the limit");
                    *low.values_mut().next().expect("a bucket at the clamp") += lowest;
                }
            }
        }
        Family::Dense | Family::Sparse => unreachable!("unbounded families never fold"),
    }
    debug_assert_eq!(low.len(), 1, "every folded bin ends in the clamp bucket");
    low.get(&clamp).copied().unwrap_or(0.0)
}

/// A counter window of one dense source.
#[derive(Clone, Copy)]
enum Window<'a> {
    Weighted(&'a [f64]),
    Integer(&'a [u64]),
}

impl Window<'_> {
    fn len(self) -> usize {
        match self {
            Window::Weighted(w) => w.len(),
            Window::Integer(w) => w.len(),
        }
    }
}

/// The dense strategy: per-block column sums over the sources' borrowed
/// counter windows, in storage coordinates (see the integer walk's
/// `DenseColumnCursor`).
struct DenseColumns<'a> {
    windows: Vec<(Window<'a>, i64)>,
    /// Output index = `sign * storage index`.
    sign: i64,
    /// Storage-order step per column.
    dir: i64,
    g: i64,
    last: i64,
    exhausted: bool,
    buf: [f64; COLUMN_BLOCK],
    buf_lo: i64,
    buf_filled: bool,
}

impl<'a> DenseColumns<'a> {
    /// The dense strategy over `sources`, or `None` when any source is
    /// sparse (or the orientations differ).
    fn new(sources: &[Lifted<'a>], descending: bool) -> Option<Self> {
        let mut windows = Vec::with_capacity(sources.len());
        let mut mirrored: Option<bool> = None;
        for src in sources {
            let (window, first, is_mirrored) = match *src {
                Lifted::Weighted(BinIter::Dense { counts, first }) => {
                    (Window::Weighted(counts), first, false)
                }
                Lifted::Weighted(BinIter::DenseNeg { counts, first }) => {
                    (Window::Weighted(counts), first, true)
                }
                Lifted::Integer(BinIter::Dense { counts, first }) => {
                    (Window::Integer(counts), first, false)
                }
                Lifted::Integer(BinIter::DenseNeg { counts, first }) => {
                    (Window::Integer(counts), first, true)
                }
                Lifted::Weighted(BinIter::Sparse(_)) | Lifted::Integer(BinIter::Sparse(_)) => {
                    return None
                }
            };
            if window.len() == 0 {
                continue;
            }
            if *mirrored.get_or_insert(is_mirrored) != is_mirrored {
                return None;
            }
            windows.push((window, first));
        }
        let mirrored = mirrored.unwrap_or(false);
        let dir = if mirrored == descending { 1 } else { -1 };
        let lo = windows.iter().map(|&(_, first)| first).min();
        let hi = windows
            .iter()
            .map(|&(w, first)| first + w.len() as i64 - 1)
            .max();
        let (g, last, exhausted) = match (lo, hi) {
            (Some(lo), Some(hi)) if dir > 0 => (lo, hi, false),
            (Some(lo), Some(hi)) => (hi, lo, false),
            _ => (0, 0, true),
        };
        Some(Self {
            windows,
            sign: if mirrored { -1 } else { 1 },
            dir,
            g,
            last,
            exhausted,
            buf: [0.0; COLUMN_BLOCK],
            buf_lo: 0,
            buf_filled: false,
        })
    }

    /// Sum every source's overlap with the block containing `g`, source
    /// by source — each column accumulates in source order.
    fn fill_block(&mut self, g: i64) {
        let lo = if self.dir > 0 {
            g
        } else {
            g - (COLUMN_BLOCK as i64 - 1)
        };
        self.buf = [0.0; COLUMN_BLOCK];
        for &(window, first) in &self.windows {
            let overlap_lo = lo.max(first);
            let overlap_hi = (lo + COLUMN_BLOCK as i64).min(first + window.len() as i64);
            if overlap_lo < overlap_hi {
                let dst = &mut self.buf[(overlap_lo - lo) as usize..(overlap_hi - lo) as usize];
                let src = (overlap_lo - first) as usize..(overlap_hi - first) as usize;
                match window {
                    Window::Weighted(counts) => {
                        for (d, s) in dst.iter_mut().zip(&counts[src]) {
                            *d += *s;
                        }
                    }
                    Window::Integer(counts) => {
                        for (d, s) in dst.iter_mut().zip(&counts[src]) {
                            *d += *s as f64;
                        }
                    }
                }
            }
        }
        self.buf_lo = lo;
        self.buf_filled = true;
    }

    fn next_column(&mut self) -> Option<(i32, f64)> {
        while !self.exhausted {
            if !self.buf_filled
                || self.g < self.buf_lo
                || self.g >= self.buf_lo + COLUMN_BLOCK as i64
            {
                self.fill_block(self.g);
            }
            let column = self.buf[(self.g - self.buf_lo) as usize];
            let index = (self.sign * self.g) as i32;
            if self.g == self.last {
                self.exhausted = true;
            } else {
                self.g += self.dir;
            }
            if column > 0.0 {
                return Some((index, column));
            }
        }
        None
    }
}

/// The sparse strategy: a heads scan that gathers each column across the
/// sources (in source order) before it reaches the rank sum.
struct HeadColumns<'a> {
    iters: Vec<Lifted<'a>>,
    heads: Vec<Option<(i32, f64)>>,
    descending: bool,
}

impl<'a> HeadColumns<'a> {
    fn new(mut iters: Vec<Lifted<'a>>, descending: bool) -> Self {
        let heads = iters
            .iter_mut()
            .map(|iter| {
                if descending {
                    iter.next_back()
                } else {
                    iter.next()
                }
            })
            .collect();
        Self {
            iters,
            heads,
            descending,
        }
    }

    fn next_column(&mut self) -> Option<(i32, f64)> {
        let heads = self.heads.iter().flatten().map(|&(i, _)| i);
        let index = if self.descending {
            heads.max()
        } else {
            heads.min()
        }?;
        let mut column = 0.0;
        for (head, iter) in self.heads.iter_mut().zip(&mut self.iters) {
            if let Some((i, c)) = *head {
                if i == index {
                    column += c;
                    *head = if self.descending {
                        iter.next_back()
                    } else {
                        iter.next()
                    };
                }
            }
        }
        Some((index, column))
    }
}

// As with the integer walk's cursor, the size gap is deliberate: the
// cursor is a short-lived local, and boxing the dense variant would put an
// allocation on the read path.
#[allow(clippy::large_enum_variant)]
enum Columns<'a> {
    Dense(DenseColumns<'a>),
    Heads(HeadColumns<'a>),
}

/// Monotone rank cursor over one side of the lifted union: plain column
/// sums everywhere except the collapsed region, which reads as the one
/// replayed bucket.
struct LiftedCursor<'a> {
    columns: Columns<'a>,
    /// The collapsed bucket, until the walk has emitted it.
    folded: Option<(i32, f64)>,
    /// The collapsed bucket's index, bounding the collapsed region.
    clamp: Option<i32>,
    /// Which side of the folded bucket's index the collapsed region lies.
    region_below: bool,
    /// Whether the walk meets the collapsed region first (else last).
    folded_first: bool,
    done: bool,
    cum: f64,
    cursor: Option<i32>,
}

impl<'a> LiftedCursor<'a> {
    fn new(side: Side<'a>, descending: bool) -> Self {
        let folded = side.folded_bucket();
        let region_below = !matches!(side.family, Family::DenseSpan { mirrored: true, .. });
        let columns = match DenseColumns::new(&side.sources, descending) {
            Some(dense) => Columns::Dense(dense),
            None => Columns::Heads(HeadColumns::new(side.sources, descending)),
        };
        Self {
            columns,
            folded,
            clamp: folded.map(|(index, _)| index),
            region_below,
            folded_first: region_below != descending,
            done: false,
            cum: 0.0,
            cursor: None,
        }
    }

    fn next_column(&mut self) -> Option<(i32, f64)> {
        if self.done {
            return None;
        }
        if self.folded_first {
            if let Some(bucket) = self.folded.take() {
                return Some(bucket);
            }
        }
        loop {
            let next = match &mut self.columns {
                Columns::Dense(c) => c.next_column(),
                Columns::Heads(c) => c.next_column(),
            };
            let Some((index, column)) = next else {
                self.done = true;
                return self.folded.take();
            };
            let in_region = self.clamp.is_some_and(|clamp| {
                if self.region_below {
                    index <= clamp
                } else {
                    index >= clamp
                }
            });
            if !in_region {
                return Some((index, column));
            }
            if !self.folded_first {
                self.done = true;
                return self.folded.take();
            }
        }
    }

    /// Advance until the cumulative weight exceeds `rank` (ranks in
    /// ascending order) and return the bucket there, or the last bucket
    /// when rounding pushes `rank` past the total — `key_at_rank`'s rule.
    /// Like `key_at_rank`, the first bucket is always taken: a rank
    /// rounded just below zero still lands there.
    fn advance_to(&mut self, rank: f64) -> Option<i32> {
        while self.cursor.is_none() || self.cum <= rank {
            let Some((index, column)) = self.next_column() else {
                break;
            };
            if column > 0.0 {
                self.cum += column;
                self.cursor = Some(index);
            }
        }
        self.cursor
    }
}

/// Everything the walk reads of the union before walking it: both sides'
/// sources and running totals, plus the summary fields.
struct LiftedUnion<'a> {
    pos: Side<'a>,
    neg: Side<'a>,
    zero: f64,
    min: f64,
    max: f64,
}

impl<'a> LiftedUnion<'a> {
    /// Lay out the sources in merge order — w₀, i₀, w₁, i₁, … — with the
    /// summary fields folded as `merge_many` and `absorb_bins` fold them.
    /// An empty integer sketch is skipped, as `merge_view` skips an empty
    /// payload. `pairs` must not be empty.
    fn new<M, SP, SN, IP, IN>(
        pairs: impl Iterator<Item = (&'a DDSketch<M, SP, SN>, &'a DDSketch<M, IP, IN>)> + Clone,
    ) -> Self
    where
        M: IndexMapping + 'a,
        SP: Store<Count = f64> + 'a,
        SN: Store<Count = f64> + 'a,
        IP: Store<Count = u64> + 'a,
        IN: Store<Count = u64> + 'a,
    {
        let (first, _) = pairs.clone().next().expect("at least one pair");
        let capacity = 2 * pairs.clone().count();
        let mut union = Self {
            pos: Side::new(Family::of(&first.positive, false), capacity),
            neg: Side::new(Family::of(&first.negative, true), capacity),
            zero: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        for (weighted, integer) in pairs {
            union.pos.push_weighted(&weighted.positive);
            union.neg.push_weighted(&weighted.negative);
            union.zero += weighted.zero_count;
            union.min = union.min.min(weighted.min);
            union.max = union.max.max(weighted.max);
            if !integer.is_empty() {
                union.pos.push_integer(&integer.positive);
                union.neg.push_integer(&integer.negative);
                union.zero += integer.zero_count as f64;
                union.min = union.min.min(integer.min);
                union.max = union.max.max(integer.max);
            }
        }
        union
    }
}

impl<M: IndexMapping, SP: Store<Count = f64>, SN: Store<Count = f64>> DDSketch<M, SP, SN> {
    /// Quantiles of the weighted union of `(weighted, integer)` pairs,
    /// integer counts lifted to weight 1, without building the union;
    /// see [`crate::AnyWeightedDDSketch::lifted_quantiles_into`] for the
    /// contract. Mappings must already be checked mergeable.
    pub(crate) fn lifted_quantiles_into<'a, IP, IN>(
        pairs: impl Iterator<Item = (&'a Self, &'a DDSketch<M, IP, IN>)> + Clone,
        qs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError>
    where
        M: 'a,
        SP: 'a,
        SN: 'a,
        IP: Store<Count = u64> + 'a,
        IN: Store<Count = u64> + 'a,
    {
        out.clear();
        let Some((first, _)) = pairs.clone().next() else {
            return empty_union(qs);
        };
        let LiftedUnion {
            pos,
            neg,
            zero,
            min,
            max,
        } = LiftedUnion::new(pairs);
        // `weighted_count`'s summation order.
        let total = zero + pos.total + neg.total;
        if total <= 0.0 {
            return empty_union(qs);
        }
        if let Some(&q) = qs.iter().find(|q| !(0.0..=1.0).contains(*q)) {
            return Err(SketchError::InvalidQuantile(q));
        }
        let neg_total = neg.total;
        // The positive walk runs ascending; the negative walk from the
        // most negative value, i.e. from the largest |x| bucket down.
        let mut pos = LiftedCursor::new(pos, false);
        let mut neg = LiftedCursor::new(neg, true);
        let mut order: Vec<usize> = (0..qs.len()).collect();
        order.sort_unstable_by(|&a, &b| qs[a].total_cmp(&qs[b]));
        out.resize(qs.len(), 0.0);
        for slot in order {
            // `weighted_quantile`'s rank and branch arithmetic, verbatim.
            let rank = qs[slot] * (total - 1.0).max(0.0);
            let raw = if rank < neg_total {
                let idx = neg
                    .advance_to(rank)
                    .expect("rank < negative total implies a negative bin");
                -first.mapping.value(idx)
            } else if rank < neg_total + zero {
                0.0
            } else {
                let idx = pos
                    .advance_to(rank - neg_total - zero)
                    .expect("rank < total implies a positive bin");
                first.mapping.value(idx)
            };
            out[slot] = raw.clamp(min, max);
        }
        Ok(())
    }
}

/// What `weighted_quantiles` reports for an empty sketch: the first `q`
/// decides between `InvalidQuantile` and `Empty`, and no `qs` succeeds.
pub(crate) fn empty_union(qs: &[f64]) -> Result<(), SketchError> {
    match qs.first() {
        None => Ok(()),
        Some(&q) if !(0.0..=1.0).contains(&q) => Err(SketchError::InvalidQuantile(q)),
        Some(_) => Err(SketchError::Empty),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyDDSketch, AnyDDSketchOf, AnyWeightedDDSketch, SketchConfig, SketchView};

    /// Drain one side's walk into ascending index order.
    fn columns(side: Side<'_>, descending: bool) -> Vec<(i32, u64)> {
        let mut cursor = LiftedCursor::new(side, descending);
        let mut columns = Vec::new();
        while let Some((index, column)) = cursor.next_column() {
            columns.push((index, column.to_bits()));
        }
        if descending {
            columns.reverse();
        }
        columns
    }

    fn bin_bits<S: Store<Count = f64>>(store: &S) -> Vec<(i32, u64)> {
        store.bin_iter().map(|(i, c)| (i, c.to_bits())).collect()
    }

    /// The walk's view of the union — every column, the collapsed bucket,
    /// both running totals and the summary fields — must carry the bits
    /// the materialized union holds.
    fn check_state<'a, M, SP, SN, IP, IN>(
        pairs: impl Iterator<Item = (&'a DDSketch<M, SP, SN>, &'a DDSketch<M, IP, IN>)> + Clone,
        union: &DDSketch<M, SP, SN>,
        label: &str,
    ) where
        M: IndexMapping + 'a,
        SP: Store<Count = f64> + 'a,
        SN: Store<Count = f64> + 'a,
        IP: Store<Count = u64> + 'a,
        IN: Store<Count = u64> + 'a,
    {
        let lifted = LiftedUnion::new(pairs);
        assert_eq!(
            lifted.zero.to_bits(),
            union.zero_count.to_bits(),
            "{label}: zero"
        );
        assert_eq!(lifted.min.to_bits(), union.min.to_bits(), "{label}: min");
        assert_eq!(lifted.max.to_bits(), union.max.to_bits(), "{label}: max");
        let totals = (lifted.pos.total.to_bits(), lifted.neg.total.to_bits());
        let want = (
            union.positive.total_count().to_bits(),
            union.negative.total_count().to_bits(),
        );
        assert_eq!(totals, want, "{label}: store totals");
        assert_eq!(
            columns(lifted.pos, false),
            bin_bits(&union.positive),
            "{label}: positive"
        );
        assert_eq!(
            columns(lifted.neg, true),
            bin_bits(&union.negative),
            "{label}: negative"
        );
    }

    #[test]
    fn lifted_state_equals_the_materialized_union() {
        let mut seed = 0x5eed_u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % n
        };
        // Both signs, zeros, and about nine orders of magnitude.
        let value = |m: i64| m.signum() as f64 * 1.37f64.powi(m.unsigned_abs() as i32 % 64) * 0.01;
        for case in 0..150 {
            let max_bins = [1usize, 2, 3, 5, 8, 16, 64][case % 7];
            let pair_count = 1 + next(8) as usize;
            for config in SketchConfig::all(0.02, max_bins) {
                let mut pairs = Vec::new();
                for _ in 0..pair_count {
                    let mut w = AnyWeightedDDSketch::new(config).unwrap();
                    for _ in 0..next(4) {
                        let mut frame = AnyWeightedDDSketch::new(config).unwrap();
                        for _ in 0..next(12) {
                            let weight = next(40) as f64 / 3.0 + 0.1;
                            frame
                                .add_with_count(value(next(200) as i64 - 100), weight)
                                .unwrap();
                        }
                        w.merge_view(&SketchView::parse(&frame.encode()).unwrap())
                            .unwrap();
                    }
                    let mut i = AnyDDSketch::new(config).unwrap();
                    for _ in 0..next(3) * next(30) {
                        i.add(value(next(200) as i64 - 100)).unwrap();
                    }
                    pairs.push((w, i));
                }
                let mut union = AnyWeightedDDSketch::new(config).unwrap();
                for (w, i) in &pairs {
                    union.merge_from(w).unwrap();
                    union
                        .merge_view(&SketchView::parse(&i.encode()).unwrap())
                        .unwrap();
                }
                let label = format!("case {case}, {config:?}");
                macro_rules! check_arm {
                    ($($variant:ident),*) => {
                        match &union {
                            $(AnyDDSketchOf::$variant(union) => {
                                let typed: Vec<_> = pairs
                                    .iter()
                                    .map(|pair| match pair {
                                        (AnyDDSketchOf::$variant(w), AnyDDSketchOf::$variant(i)) => {
                                            (w, i)
                                        }
                                        _ => unreachable!("one config"),
                                    })
                                    .collect();
                                check_state(typed.iter().copied(), union, &label);
                            })*
                        }
                    };
                }
                check_arm!(Unbounded, Bounded, Fast, Sparse, PaperExact);
            }
        }
    }
}
