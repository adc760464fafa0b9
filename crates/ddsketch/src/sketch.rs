//! The DDSketch itself (paper Section 2).

use crate::mapping::{IndexMapping, MappingKind};
use crate::store::{BinIter, Count, Store};
use sketch_core::{target_rank, MemoryFootprint, MergeableSketch, QuantileSketch, SketchError};

pub(crate) mod lifted;

/// A quantile sketch with relative-error guarantees over all of ℝ.
///
/// Values are routed to one of three sub-structures (paper Section 2.2):
///
/// * positives → `positive` store, bucketed by `mapping.index(x)`;
/// * negatives → `negative` store, bucketed by `mapping.index(-x)` (so for
///   bounded stores, "collapses start from the highest indices" — use a
///   highest-collapsing store for `SN`);
/// * zero and anything smaller than the mapping's minimum indexable value
///   → an exact `zero_count` bucket.
///
/// The sketch additionally tracks `min`, `max`, and `sum` (the paper:
/// "like most sketch implementations, it is useful to keep separate track
/// of the minimum and maximum values") — exact on insert-only streams, and
/// kept tight through deletions by re-deriving the touched extreme from
/// the surviving buckets. That also lets quantile estimates be clamped
/// into `[min, max]` — a strict improvement that preserves the α guarantee
/// since the true quantile always lies in that interval.
///
/// Type parameters select the bucket-index scheme (`M`) and the backing
/// stores for the positive (`SP`) and negative (`SN`) halves; see the
/// [`crate::presets`] constructors for the standard combinations.
#[derive(Debug, Clone)]
pub struct DDSketch<M: IndexMapping, SP: Store, SN: Store<Count = SP::Count> = SP> {
    mapping: M,
    positive: SP,
    negative: SN,
    zero_count: SP::Count,
    min: f64,
    max: f64,
    sum: f64,
    scratch: Scratch,
}

/// Reusable buffers for [`DDSketch::add_slice`]: contents are transient
/// (cleared on every call), only the capacity persists, so repeated batch
/// ingestion allocates nothing in steady state.
#[derive(Debug, Default)]
struct Scratch {
    /// Positive values of the current batch.
    pos: Vec<f64>,
    /// Magnitudes of the negative values of the current batch.
    neg: Vec<f64>,
    /// Bucket indices computed by `IndexMapping::index_batch`.
    indices: Vec<i32>,
}

impl Clone for Scratch {
    /// Scratch contents are transient and its capacity is a private
    /// ingest-side optimization, so a cloned sketch starts with fresh
    /// (empty) buffers. This keeps snapshot clones — e.g. a concurrent
    /// shard copied under its lock — a pure bin copy.
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl Scratch {
    /// Retained heap capacity, counted by [`DDSketch::memory_bytes`].
    fn heap_bytes(&self) -> usize {
        (self.pos.capacity() + self.neg.capacity()) * std::mem::size_of::<f64>()
            + self.indices.capacity() * std::mem::size_of::<i32>()
    }
}

/// Block width of the dense column walk: wide enough that the per-shard
/// slice additions vectorize, small enough that the block buffer lives in
/// L1 alongside the shard windows being summed.
const COLUMN_BLOCK: usize = 256;

/// One side's reusable dense-window buffer: `(borrowed counters, first
/// index)` pairs. Parked with a `'static` placeholder lifetime between
/// calls — the buffer is always **empty** at rest, so no borrow actually
/// outlives the call that pushed it.
type WindowBuf = Vec<(&'static [u64], i64)>;

/// Re-lifetime an **empty** dense-window buffer so its capacity can be
/// reused for the current call's borrows (and parked again afterwards).
fn recycle_windows<'dst>(mut buf: Vec<(&[u64], i64)>) -> Vec<(&'dst [u64], i64)> {
    buf.clear();
    // SAFETY: the vector was just emptied, so no `&'src [u64]` value is
    // reinterpreted at the new lifetime; `Vec<(&[u64], i64)>` has one
    // layout regardless of the slice lifetime (lifetimes are erased at
    // monomorphization), so only the allocation's capacity crosses over.
    unsafe { std::mem::transmute(buf) }
}

/// Reusable buffers for [`DDSketch::merged_quantiles_into`] (and its
/// [`crate::AnyDDSketch`] counterpart): holding one of these across calls
/// makes repeated merged-quantile walks over dense-store sketches
/// allocation-free at steady state — the backbone of the sliding-window
/// read path, where a p99 is asked of the same window shape every tick.
///
/// Contents are transient (cleared on every call); only capacity persists.
/// Sparse-store walks keep their per-call iterator allocations and ignore
/// the window buffers.
#[derive(Debug, Default)]
pub struct MergedQuantileScratch {
    /// Requested-quantile slots in ascending-rank visit order.
    order: Vec<usize>,
    /// Dense counter windows for the positive-store walk.
    pos_windows: WindowBuf,
    /// Dense counter windows for the negative-store walk.
    neg_windows: WindowBuf,
}

/// Monotone cursor over the (virtual) merge of several stores' bins: a
/// k-way walk that answers ascending rank queries with the effective
/// bucket index the materialized merge would report, without building it.
///
/// `descending = false` walks bins in ascending index order (the
/// positive-store walk); `descending = true` walks them in descending
/// order (the negative-store walk from the most negative value). The
/// clamp maps each raw index to the bucket a real merge would fold it
/// into ([`Store::merge_clamp`]); clamping is monotone, so sub-bins of
/// one effective bucket are always consumed consecutively and the
/// cumulative-count stopping rule matches the merged store's
/// `key_at_rank` exactly.
///
/// Two strategies behind one face: all-dense shard sets (the contiguous
/// store families) walk **columns** — per-block vectorized slice sums of
/// the shards' borrowed counter windows, the same arithmetic a
/// materialized merge would do but with no allocation, no store
/// bookkeeping, and early exit at the last requested rank. Sparse (or
/// mixed) sets fall back to a per-bin smallest/largest-head scan, which
/// is proportional to *non-empty* bins — exactly the regime sparse
/// stores are chosen for.
// The size gap between variants is deliberate: the cursor is a
// short-lived stack local of the quantile walk, and boxing the dense
// variant would put an allocation on the hot read path.
#[allow(clippy::large_enum_variant)]
enum KWayRankCursor<'a> {
    Dense(DenseColumnCursor<'a>),
    /// The heads walk plus the (empty) window buffer it was handed, so
    /// the buffer's capacity can be recovered by the caller's scratch.
    Generic(GenericRankCursor<BinIter<'a>>, Vec<(&'a [u64], i64)>),
}

impl<'a> KWayRankCursor<'a> {
    /// Build a cursor over `stores`' bins. The shards of one merge share a
    /// store type, so their iterators share a `BinIter` variant; only the
    /// dense families take the column walk, whose borrowed counter windows
    /// land in `windows` — a reusable scratch buffer, so the dense path
    /// performs **no** heap allocation. Sparse (or mixed-orientation) sets
    /// fall back to the per-bin heads walk, which allocates its iterator
    /// and head vectors.
    fn for_stores<S: Store<Count = u64> + 'a>(
        stores: impl Iterator<Item = &'a S> + Clone,
        descending: bool,
        clamp: (i32, i32),
        mut windows: Vec<(&'a [u64], i64)>,
    ) -> Self {
        windows.clear();
        let mut mirrored: Option<bool> = None;
        let mut all_dense = true;
        for store in stores.clone() {
            let (counts, first, is_mirrored) = match store.bin_iter() {
                BinIter::Dense { counts, first } => (counts, first, false),
                BinIter::DenseNeg { counts, first } => (counts, first, true),
                BinIter::Sparse(_) => {
                    all_dense = false;
                    break;
                }
            };
            if counts.is_empty() {
                continue;
            }
            if *mirrored.get_or_insert(is_mirrored) != is_mirrored {
                all_dense = false;
                break;
            }
            windows.push((counts, first));
        }
        if all_dense {
            KWayRankCursor::Dense(DenseColumnCursor::new(
                windows,
                mirrored.unwrap_or(false),
                descending,
                clamp,
            ))
        } else {
            windows.clear();
            let iters: Vec<BinIter<'a>> = stores.map(|s| s.bin_iter()).collect();
            KWayRankCursor::Generic(GenericRankCursor::new(iters, descending, clamp), windows)
        }
    }

    /// Advance until the cumulative count exceeds `rank` (ranks must be
    /// presented in ascending order) and return the effective bucket index
    /// there — or stay on the last bucket when floating-point rounding
    /// pushes `rank` past the total, matching `key_at_rank`'s fallback.
    fn advance_to(&mut self, rank: f64) -> Option<i32> {
        match self {
            KWayRankCursor::Dense(cursor) => cursor.advance_to(rank),
            KWayRankCursor::Generic(cursor, _) => cursor.advance_to(rank),
        }
    }

    /// Hand the (emptied) dense-window buffer back for scratch reuse.
    fn recover_windows(self) -> Vec<(&'a [u64], i64)> {
        match self {
            KWayRankCursor::Dense(cursor) => {
                let mut windows = cursor.windows;
                windows.clear();
                windows
            }
            KWayRankCursor::Generic(_, windows) => windows,
        }
    }
}

/// The all-dense strategy: per-block column sums over the shards'
/// borrowed counter windows.
///
/// Walk order and index signs are normalized into *storage* coordinates:
/// a mirrored window (the highest-collapsing store's negated inner array)
/// reports index `-g` for storage index `g` and therefore walks storage
/// in the direction opposite to the requested output order.
struct DenseColumnCursor<'a> {
    windows: Vec<(&'a [u64], i64)>,
    /// Output index = `sign * storage index` (−1 for mirrored windows).
    sign: i64,
    /// Storage-order step per consumed column (+1 or −1).
    dir: i64,
    clamp: (i32, i32),
    /// Next storage index to consume.
    g: i64,
    /// Final storage index (inclusive) in walk direction.
    last: i64,
    exhausted: bool,
    /// Column sums for storage indices `[buf_lo, buf_lo + COLUMN_BLOCK)`.
    buf: [u64; COLUMN_BLOCK],
    buf_lo: i64,
    buf_filled: bool,
    cum: u64,
    cursor: Option<i32>,
}

impl<'a> DenseColumnCursor<'a> {
    fn new(
        windows: Vec<(&'a [u64], i64)>,
        mirrored: bool,
        descending: bool,
        clamp: (i32, i32),
    ) -> Self {
        // Output ascending walks plain windows upward and mirrored
        // windows downward; output descending mirrors both.
        let dir = match (mirrored, descending) {
            (false, false) | (true, true) => 1,
            (false, true) | (true, false) => -1,
        };
        let sign = if mirrored { -1 } else { 1 };
        let lo = windows.iter().map(|&(_, first)| first).min();
        let hi = windows
            .iter()
            .map(|&(counts, first)| first + counts.len() as i64 - 1)
            .max();
        let (g, last, exhausted) = match (lo, hi) {
            (Some(lo), Some(hi)) if dir > 0 => (lo, hi, false),
            (Some(lo), Some(hi)) => (hi, lo, false),
            _ => (0, 0, true),
        };
        Self {
            windows,
            sign,
            dir,
            clamp,
            g,
            last,
            exhausted,
            buf: [0; COLUMN_BLOCK],
            buf_lo: 0,
            buf_filled: false,
            cum: 0,
            cursor: None,
        }
    }

    /// Sum every shard's overlap with the block containing `g` (aligned
    /// so the block extends in walk direction) — contiguous slice adds,
    /// the vectorizable core of the walk.
    fn fill_block(&mut self, g: i64) {
        let lo = if self.dir > 0 {
            g
        } else {
            g - (COLUMN_BLOCK as i64 - 1)
        };
        self.buf = [0; COLUMN_BLOCK];
        for &(counts, first) in &self.windows {
            let overlap_lo = lo.max(first);
            let overlap_hi = (lo + COLUMN_BLOCK as i64).min(first + counts.len() as i64);
            if overlap_lo < overlap_hi {
                let dst = (overlap_lo - lo) as usize..(overlap_hi - lo) as usize;
                let src = (overlap_lo - first) as usize..(overlap_hi - first) as usize;
                for (d, s) in self.buf[dst].iter_mut().zip(&counts[src]) {
                    *d += s;
                }
            }
        }
        self.buf_lo = lo;
        self.buf_filled = true;
    }

    fn advance_to(&mut self, rank: f64) -> Option<i32> {
        while (self.cum as f64) <= rank && !self.exhausted {
            if !self.buf_filled
                || self.g < self.buf_lo
                || self.g >= self.buf_lo + COLUMN_BLOCK as i64
            {
                self.fill_block(self.g);
            }
            // Consume columns inside the current block.
            loop {
                let column = self.buf[(self.g - self.buf_lo) as usize];
                if column > 0 {
                    self.cum += column;
                    let out = (self.sign * self.g) as i32;
                    self.cursor = Some(out.clamp(self.clamp.0, self.clamp.1));
                }
                if self.g == self.last {
                    self.exhausted = true;
                    break;
                }
                self.g += self.dir;
                if (self.cum as f64) > rank
                    || self.g < self.buf_lo
                    || self.g >= self.buf_lo + COLUMN_BLOCK as i64
                {
                    break;
                }
            }
        }
        self.cursor
    }
}

/// The fallback strategy: per-bin smallest/largest-head scan across any
/// double-ended bin iterators (store [`BinIter`]s for live shards, the
/// codec's `ViewBinIter`s for encoded payloads — the mixed-source walk in
/// [`crate::codec`] instantiates it over an either-enum of both).
pub(crate) struct GenericRankCursor<I> {
    iters: Vec<I>,
    heads: Vec<Option<(i32, u64)>>,
    descending: bool,
    clamp: (i32, i32),
    cum: u64,
    cursor: Option<i32>,
}

impl<I: DoubleEndedIterator<Item = (i32, u64)>> GenericRankCursor<I> {
    fn new(iters: Vec<I>, descending: bool, clamp: (i32, i32)) -> Self {
        let heads = Vec::with_capacity(iters.len());
        Self::with_buffers(iters, heads, descending, clamp)
    }

    /// Build the cursor on caller-provided buffers (`heads` is cleared and
    /// refilled), so a scratch-reusing walk performs no allocation.
    pub(crate) fn with_buffers(
        mut iters: Vec<I>,
        mut heads: Vec<Option<(i32, u64)>>,
        descending: bool,
        clamp: (i32, i32),
    ) -> Self {
        heads.clear();
        heads.extend(iters.iter_mut().map(|iter| {
            if descending {
                iter.next_back()
            } else {
                iter.next()
            }
        }));
        Self {
            iters,
            heads,
            descending,
            clamp,
            cum: 0,
            cursor: None,
        }
    }

    /// Hand the (emptied) buffers back for scratch reuse.
    pub(crate) fn into_buffers(self) -> (Vec<I>, Vec<Option<(i32, u64)>>) {
        let (mut iters, mut heads) = (self.iters, self.heads);
        iters.clear();
        heads.clear();
        (iters, heads)
    }

    pub(crate) fn advance_to(&mut self, rank: f64) -> Option<i32> {
        while (self.cum as f64) <= rank {
            let mut best: Option<usize> = None;
            for (k, head) in self.heads.iter().enumerate() {
                if let Some((idx, _)) = *head {
                    best = Some(match best {
                        None => k,
                        Some(b) => {
                            let (best_idx, _) = self.heads[b].expect("best head is live");
                            let take = if self.descending {
                                idx > best_idx
                            } else {
                                idx < best_idx
                            };
                            if take {
                                k
                            } else {
                                b
                            }
                        }
                    });
                }
            }
            let Some(k) = best else { break };
            let (idx, count) = self.heads[k].take().expect("best head is live");
            self.heads[k] = if self.descending {
                self.iters[k].next_back()
            } else {
                self.iters[k].next()
            };
            self.cum += count;
            self.cursor = Some(idx.clamp(self.clamp.0, self.clamp.1));
        }
        self.cursor
    }
}

/// The decayed-read counterpart of [`KWayRankCursor`]: the same two
/// strategies (vectorized dense column walk / per-bin heads walk), with
/// every shard's cumulative counts scaled by a caller-supplied weight —
/// the sliding-window plane's "recent-biased" read path, where slot
/// sketches age at query time. Weights are query-time data: nothing in
/// the shards is mutated, copied, or re-bucketed. The dense column
/// strategy matters just as much here: a 3600-slot decayed window walks
/// 3600 shards, and an O(shards)-per-bin heads scan would turn a
/// sub-millisecond read into seconds.
#[allow(clippy::large_enum_variant)]
enum WeightedRankCursor<'a> {
    Dense(WeightedColumnCursor<'a>),
    Generic(WeightedHeadsCursor<'a>),
}

impl<'a> WeightedRankCursor<'a> {
    fn new(
        sources: impl Iterator<Item = (BinIter<'a>, f64)> + Clone,
        descending: bool,
        clamp: (i32, i32),
    ) -> Self {
        let mut windows: Vec<(&[u64], i64, f64)> = Vec::new();
        let mut mirrored: Option<bool> = None;
        let mut all_dense = true;
        for (iter, weight) in sources.clone() {
            let (counts, first, is_mirrored) = match iter {
                BinIter::Dense { counts, first } => (counts, first, false),
                BinIter::DenseNeg { counts, first } => (counts, first, true),
                BinIter::Sparse(_) => {
                    all_dense = false;
                    break;
                }
            };
            if counts.is_empty() {
                continue;
            }
            if *mirrored.get_or_insert(is_mirrored) != is_mirrored {
                all_dense = false;
                break;
            }
            windows.push((counts, first, weight));
        }
        if all_dense {
            WeightedRankCursor::Dense(WeightedColumnCursor::new(
                windows,
                mirrored.unwrap_or(false),
                descending,
                clamp,
            ))
        } else {
            WeightedRankCursor::Generic(WeightedHeadsCursor::new(sources, descending, clamp))
        }
    }

    fn advance_to(&mut self, rank: f64) -> Option<i32> {
        match self {
            WeightedRankCursor::Dense(cursor) => cursor.advance_to(rank),
            WeightedRankCursor::Generic(cursor) => cursor.advance_to(rank),
        }
    }
}

/// Weighted variant of [`DenseColumnCursor`]: per-block column sums of
/// `weight × count` over the shards' borrowed counter windows. For
/// integer weights the f64 sums are exact, so the walk is bit-identical
/// to an unweighted walk over weight-many copies of each shard.
struct WeightedColumnCursor<'a> {
    windows: Vec<(&'a [u64], i64, f64)>,
    sign: i64,
    dir: i64,
    clamp: (i32, i32),
    g: i64,
    last: i64,
    exhausted: bool,
    buf: [f64; COLUMN_BLOCK],
    buf_lo: i64,
    buf_filled: bool,
    cum: f64,
    cursor: Option<i32>,
}

impl<'a> WeightedColumnCursor<'a> {
    fn new(
        windows: Vec<(&'a [u64], i64, f64)>,
        mirrored: bool,
        descending: bool,
        clamp: (i32, i32),
    ) -> Self {
        let dir = match (mirrored, descending) {
            (false, false) | (true, true) => 1,
            (false, true) | (true, false) => -1,
        };
        let sign = if mirrored { -1 } else { 1 };
        let lo = windows.iter().map(|&(_, first, _)| first).min();
        let hi = windows
            .iter()
            .map(|&(counts, first, _)| first + counts.len() as i64 - 1)
            .max();
        let (g, last, exhausted) = match (lo, hi) {
            (Some(lo), Some(hi)) if dir > 0 => (lo, hi, false),
            (Some(lo), Some(hi)) => (hi, lo, false),
            _ => (0, 0, true),
        };
        Self {
            windows,
            sign,
            dir,
            clamp,
            g,
            last,
            exhausted,
            buf: [0.0; COLUMN_BLOCK],
            buf_lo: 0,
            buf_filled: false,
            cum: 0.0,
            cursor: None,
        }
    }

    /// Weighted mirror of [`DenseColumnCursor::fill_block`].
    fn fill_block(&mut self, g: i64) {
        let lo = if self.dir > 0 {
            g
        } else {
            g - (COLUMN_BLOCK as i64 - 1)
        };
        self.buf = [0.0; COLUMN_BLOCK];
        for &(counts, first, weight) in &self.windows {
            let overlap_lo = lo.max(first);
            let overlap_hi = (lo + COLUMN_BLOCK as i64).min(first + counts.len() as i64);
            if overlap_lo < overlap_hi {
                let dst = (overlap_lo - lo) as usize..(overlap_hi - lo) as usize;
                let src = (overlap_lo - first) as usize..(overlap_hi - first) as usize;
                for (d, s) in self.buf[dst].iter_mut().zip(&counts[src]) {
                    *d += weight * *s as f64;
                }
            }
        }
        self.buf_lo = lo;
        self.buf_filled = true;
    }

    fn advance_to(&mut self, rank: f64) -> Option<i32> {
        while self.cum <= rank && !self.exhausted {
            if !self.buf_filled
                || self.g < self.buf_lo
                || self.g >= self.buf_lo + COLUMN_BLOCK as i64
            {
                self.fill_block(self.g);
            }
            loop {
                let column = self.buf[(self.g - self.buf_lo) as usize];
                if column > 0.0 {
                    self.cum += column;
                    let out = (self.sign * self.g) as i32;
                    self.cursor = Some(out.clamp(self.clamp.0, self.clamp.1));
                }
                if self.g == self.last {
                    self.exhausted = true;
                    break;
                }
                self.g += self.dir;
                if self.cum > rank
                    || self.g < self.buf_lo
                    || self.g >= self.buf_lo + COLUMN_BLOCK as i64
                {
                    break;
                }
            }
        }
        self.cursor
    }
}

/// Weighted fallback strategy for the sparse (or mixed) families: the
/// per-bin smallest/largest-head scan of [`GenericRankCursor`] with a
/// weighted cumulative count.
struct WeightedHeadsCursor<'a> {
    iters: Vec<BinIter<'a>>,
    weights: Vec<f64>,
    heads: Vec<Option<(i32, u64)>>,
    descending: bool,
    clamp: (i32, i32),
    cum: f64,
    cursor: Option<i32>,
}

impl<'a> WeightedHeadsCursor<'a> {
    fn new(
        sources: impl Iterator<Item = (BinIter<'a>, f64)>,
        descending: bool,
        clamp: (i32, i32),
    ) -> Self {
        let mut iters = Vec::new();
        let mut weights = Vec::new();
        let mut heads = Vec::new();
        for (mut iter, weight) in sources {
            heads.push(if descending {
                iter.next_back()
            } else {
                iter.next()
            });
            iters.push(iter);
            weights.push(weight);
        }
        Self {
            iters,
            weights,
            heads,
            descending,
            clamp,
            cum: 0.0,
            cursor: None,
        }
    }

    fn advance_to(&mut self, rank: f64) -> Option<i32> {
        while self.cum <= rank {
            let mut best: Option<usize> = None;
            for (k, head) in self.heads.iter().enumerate() {
                if let Some((idx, _)) = *head {
                    best = Some(match best {
                        None => k,
                        Some(b) => {
                            let (best_idx, _) = self.heads[b].expect("best head is live");
                            let take = if self.descending {
                                idx > best_idx
                            } else {
                                idx < best_idx
                            };
                            if take {
                                k
                            } else {
                                b
                            }
                        }
                    });
                }
            }
            let Some(k) = best else { break };
            let (idx, count) = self.heads[k].take().expect("best head is live");
            self.heads[k] = if self.descending {
                self.iters[k].next_back()
            } else {
                self.iters[k].next()
            };
            self.cum += self.weights[k] * count as f64;
            self.cursor = Some(idx.clamp(self.clamp.0, self.clamp.1));
        }
        self.cursor
    }
}

/// The count-generic surface: everything here works for any store count
/// type ([`Count`]), so a `u64`-counted sketch and an `f64`-counted
/// (weighted) sketch share one implementation. The `u64`-specific block
/// below keeps the historical integer-count API bit-identical.
impl<M: IndexMapping, SP: Store, SN: Store<Count = SP::Count>> DDSketch<M, SP, SN> {
    /// Assemble a sketch from a mapping and two (empty) stores.
    pub fn from_parts(mapping: M, positive: SP, negative: SN) -> Self {
        Self {
            mapping,
            positive,
            negative,
            zero_count: SP::Count::ZERO,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            scratch: Scratch::default(),
        }
    }

    /// The index mapping in use.
    pub fn mapping(&self) -> &M {
        &self.mapping
    }

    /// The relative accuracy `α` guaranteed for quantiles backed by
    /// non-collapsed buckets.
    pub fn relative_accuracy(&self) -> f64 {
        self.mapping.relative_accuracy()
    }

    /// Insert `count` occurrences of `value` in O(1), where `count` is
    /// whatever the stores count in — a `u64` multiplicity or, for the
    /// weighted (`f64`-counted) configurations, a fractional weight.
    ///
    /// For integer counts this is **bit-identical** to `count` repeated
    /// [`Self::add`] calls (property-tested across every preset and both
    /// count types). Invalid counts — NaN, infinite, or negative `f64`
    /// weights — are rejected with `InvalidConfig` before any state
    /// changes; a zero count is an accepted no-op.
    pub fn add_with_count(&mut self, value: f64, count: SP::Count) -> Result<(), SketchError> {
        if !value.is_finite() {
            return Err(SketchError::UnsupportedValue(value));
        }
        if !count.is_valid() {
            return Err(SketchError::InvalidConfig(format!(
                "count must be finite and non-negative, got {count:?}"
            )));
        }
        if count == SP::Count::ZERO {
            return Ok(());
        }
        let magnitude = value.abs();
        if magnitude > self.mapping.max_indexable_value() {
            return Err(SketchError::UnsupportedValue(value));
        }
        if magnitude < self.mapping.min_indexable_value() {
            // Within floating-point distance of zero (paper §2.2): exact
            // zero bucket.
            self.zero_count += count;
        } else if value > 0.0 {
            self.positive.add_n(self.mapping.index(value), count);
        } else {
            self.negative.add_n(self.mapping.index(magnitude), count);
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value * count.to_f64();
        Ok(())
    }

    /// Bulk-insert `(value, count)` pairs through [`Self::add_with_count`].
    ///
    /// The whole batch is validated up front, so a rejected pair (NaN or
    /// out-of-range value, invalid count) leaves the sketch exactly as it
    /// was — the weighted counterpart of [`Self::add_slice`]'s atomicity.
    pub fn add_weighted_slice(&mut self, pairs: &[(f64, SP::Count)]) -> Result<(), SketchError> {
        let max_indexable = self.mapping.max_indexable_value();
        for &(value, count) in pairs {
            let magnitude = value.abs();
            // Negated comparison (rather than `>`) so NaN also lands here.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(magnitude <= max_indexable) {
                return Err(SketchError::UnsupportedValue(value));
            }
            if !count.is_valid() {
                return Err(SketchError::InvalidConfig(format!(
                    "count must be finite and non-negative, got {count:?}"
                )));
            }
        }
        for &(value, count) in pairs {
            self.add_with_count(value, count)?;
        }
        Ok(())
    }

    /// Subtract `other`'s contents bucket-by-bucket, flooring every bucket
    /// at zero ([`Store::remove_up_to`]) — the bulk generalization of
    /// [`Self::delete`] for weighted/decayed planes, where a whole interval
    /// sketch is retired from a running aggregate at once.
    ///
    /// `sum` is adjusted by each removed bucket's representative value (it
    /// is α-approximate after subtraction, exactly as after collapses);
    /// `min`/`max` are re-tightened to the surviving buckets' bounds, and
    /// subtracting to empty resets the summary state entirely.
    ///
    /// # Errors
    ///
    /// `IncompatibleMerge` when the mappings cannot merge; the check runs
    /// before any mutation.
    pub fn sub_sketch(&mut self, other: &Self) -> Result<(), SketchError> {
        if !self.mapping.is_mergeable_with(&other.mapping) {
            return Err(SketchError::IncompatibleMerge(format!(
                "mapping {} (α={}) vs {} (α={})",
                self.mapping.name(),
                self.mapping.relative_accuracy(),
                other.mapping.name(),
                other.mapping.relative_accuracy()
            )));
        }
        let mut removed_sum = 0.0;
        for (idx, count) in other.positive.bin_iter() {
            let removed = self.positive.remove_up_to(idx, count);
            removed_sum += self.mapping.value(idx) * removed.to_f64();
        }
        for (idx, count) in other.negative.bin_iter() {
            let removed = self.negative.remove_up_to(idx, count);
            removed_sum -= self.mapping.value(idx) * removed.to_f64();
        }
        self.zero_count = self.zero_count.sub_clamped(other.zero_count);
        self.sum -= removed_sum;
        if self.is_empty() {
            // Fully drained: drop every summary so the next add is exact
            // again (mirroring delete-to-empty).
            self.min = f64::INFINITY;
            self.max = f64::NEG_INFINITY;
            self.sum = 0.0;
        } else {
            // Tighten-only: the surviving buckets' bounds are always valid
            // bounds on the remaining data.
            self.min = self.min.max(self.surviving_lower_bound());
            self.max = self.max.min(self.surviving_upper_bound());
        }
        Ok(())
    }

    /// Scale every stored count by `factor` — ingest-time exponential
    /// decay ([`Store::scale_counts`]). `u64` counts round to nearest (a
    /// bucket decaying below half an occurrence empties); `f64` counts
    /// scale exactly. `sum` scales with the counts; `min`/`max` are
    /// unchanged while data survives (decay does not move the support),
    /// and scaling to empty resets the summary state.
    ///
    /// # Errors
    ///
    /// `InvalidConfig` for a NaN, infinite, or negative factor.
    pub fn scale_counts(&mut self, factor: f64) -> Result<(), SketchError> {
        if !(factor.is_finite() && factor >= 0.0) {
            return Err(SketchError::InvalidConfig(format!(
                "scale factor must be finite and non-negative, got {factor}"
            )));
        }
        self.positive.scale_counts(factor);
        self.negative.scale_counts(factor);
        self.zero_count = self.zero_count.scale(factor);
        self.sum *= factor;
        if self.is_empty() {
            self.min = f64::INFINITY;
            self.max = f64::NEG_INFINITY;
            self.sum = 0.0;
        } else {
            self.min = self.min.max(self.surviving_lower_bound());
            self.max = self.max.min(self.surviving_upper_bound());
        }
        Ok(())
    }

    /// Total stored weight as `f64`: the count-type-agnostic form of
    /// [`DDSketch::count`] (exact for integer counts below 2⁵³).
    pub fn weighted_count(&self) -> f64 {
        self.zero_count.to_f64()
            + self.positive.total_count().to_f64()
            + self.negative.total_count().to_f64()
    }

    /// Weight in the exact zero bucket, in the stores' count type (the
    /// count-generic form of [`DDSketch::zero_count`]).
    pub fn zero_weight(&self) -> SP::Count {
        self.zero_count
    }

    /// Whether the sketch holds no data.
    pub fn is_empty(&self) -> bool {
        self.zero_count == SP::Count::ZERO
            && self.positive.total_count() == SP::Count::ZERO
            && self.negative.total_count() == SP::Count::ZERO
    }

    /// Exact sum of inserted values (weighted).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact weighted mean, or `None` if empty.
    pub fn average(&self) -> Option<f64> {
        let n = self.weighted_count();
        (n > 0.0).then(|| self.sum / n)
    }

    /// The tracked minimum: exact for insert-only streams. After a
    /// [`Self::delete`] at the minimum it is re-tightened to the surviving
    /// buckets' lower bound, so it is always a valid lower bound within
    /// one bucket's relative error of the true surviving minimum — never a
    /// fully-deleted value.
    pub fn min(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// The tracked maximum: exact for insert-only streams; after deletions
    /// a tight upper bound (see [`Self::min`] for the symmetric contract).
    pub fn max(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Number of non-empty buckets across both stores plus the zero bucket
    /// (the "bins" of the paper's Figure 7).
    pub fn num_bins(&self) -> usize {
        self.positive.num_bins()
            + self.negative.num_bins()
            + usize::from(self.zero_count > SP::Count::ZERO)
    }

    /// Whether any store has collapsed buckets, i.e. whether the lowest
    /// quantiles may no longer carry the α guarantee (Proposition 4).
    pub fn has_collapsed(&self) -> bool {
        self.positive.has_collapsed() || self.negative.has_collapsed()
    }

    /// A lower bound on the smallest value still stored, from the
    /// surviving buckets: the most-negative bucket's magnitude bound, the
    /// exact zero bucket, or the lowest positive bucket's lower edge.
    fn surviving_lower_bound(&self) -> f64 {
        if let Some(idx) = self.negative.max_index() {
            -self.mapping.upper_bound(idx)
        } else if self.zero_count > SP::Count::ZERO {
            0.0
        } else if let Some(idx) = self.positive.min_index() {
            self.mapping.lower_bound(idx)
        } else {
            f64::INFINITY
        }
    }

    /// Mirror of [`Self::surviving_lower_bound`]: an upper bound on the
    /// largest value still stored.
    fn surviving_upper_bound(&self) -> f64 {
        if let Some(idx) = self.positive.max_index() {
            self.mapping.upper_bound(idx)
        } else if self.zero_count > SP::Count::ZERO {
            0.0
        } else if let Some(idx) = self.negative.min_index() {
            -self.mapping.lower_bound(idx)
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Merge another sketch into this one (Algorithm 4). Bucket-exact: the
    /// result is identical to a single sketch over the union of the inputs.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        self.merge_many(&[other])
    }

    /// Merge any number of compatible sketches into this one in a single
    /// k-way pass.
    ///
    /// Equivalent — bins, count, `sum`, `min`, `max`, and the collapse
    /// flag, all bit-identical — to folding [`Self::merge_from`] over
    /// `others` in order, but each store makes its capacity and collapse
    /// decisions **once** for the whole union ([`Store::merge_many`]): one
    /// reallocation and at most one fold instead of up to k of each. This
    /// is the aggregation-plane workhorse behind shard snapshots and
    /// time-series rollups.
    ///
    /// # Errors
    ///
    /// `IncompatibleMerge` if any sketch's mapping cannot merge with this
    /// one's; the check runs before any mutation, so a failed call leaves
    /// the sketch untouched.
    pub fn merge_many(&mut self, others: &[&Self]) -> Result<(), SketchError> {
        for other in others {
            if !self.mapping.is_mergeable_with(&other.mapping) {
                return Err(SketchError::IncompatibleMerge(format!(
                    "mapping {} (α={}) vs {} (α={})",
                    self.mapping.name(),
                    self.mapping.relative_accuracy(),
                    other.mapping.name(),
                    other.mapping.relative_accuracy()
                )));
            }
        }
        let positives: Vec<&SP> = others.iter().map(|s| &s.positive).collect();
        self.positive.merge_many(&positives);
        let negatives: Vec<&SN> = others.iter().map(|s| &s.negative).collect();
        self.negative.merge_many(&negatives);
        for other in others {
            self.zero_count += other.zero_count;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            self.sum += other.sum;
        }
        Ok(())
    }

    /// Reset to empty, retaining allocations.
    pub fn clear(&mut self) {
        self.positive.clear();
        self.negative.clear();
        self.zero_count = SP::Count::ZERO;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.sum = 0.0;
    }

    /// Free the batched-ingestion scratch buffers.
    ///
    /// [`Self::add_slice`] retains its scratch capacity (proportional to
    /// the largest batch seen) so steady-state ingestion allocates
    /// nothing; that capacity is real resident memory and is counted by
    /// [`Self::memory_bytes`]. Call this when switching from ingestion to
    /// a query-only phase — or before measuring sketch size — to drop it.
    /// The buffers regrow transparently on the next `add_slice`.
    pub fn release_scratch(&mut self) {
        self.scratch = Scratch::default();
    }

    /// Structural memory footprint in bytes, including the batched-ingest
    /// scratch buffers (whose capacity persists across `add_slice` calls).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<SP>() - std::mem::size_of::<SN>()
            + self.positive.memory_bytes()
            + self.negative.memory_bytes()
            + self.scratch.heap_bytes()
    }

    /// Access the positive-value store (read-only; used by the codec and
    /// the evaluation harness).
    pub fn positive_store(&self) -> &SP {
        &self.positive
    }

    /// Access the negative-value store.
    pub fn negative_store(&self) -> &SN {
        &self.negative
    }

    /// Internal: merge decoded state into the live sketch — one bulk
    /// [`Store::add_bins`] pass per store (a single capacity/collapse
    /// decision each), with the summary statistics folded the way
    /// [`Self::merge_many`] folds them. This is how the codec's
    /// [`crate::codec::SketchView`]s are absorbed without ever
    /// materializing an intermediate sketch; empty-state sentinels
    /// (`min = +∞`, `max = −∞`, `sum = 0`) fold as no-ops.
    pub(crate) fn absorb_bins(
        &mut self,
        zero_count: SP::Count,
        min: f64,
        max: f64,
        sum: f64,
        pos_bins: &[(i32, SP::Count)],
        neg_bins: &[(i32, SP::Count)],
    ) {
        self.positive.add_bins(pos_bins);
        self.negative.add_bins(neg_bins);
        self.zero_count += zero_count;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
        self.sum += sum;
    }

    /// Internal: bulk-load decoded state. Used by the codec.
    pub(crate) fn load(
        &mut self,
        zero_count: SP::Count,
        min: f64,
        max: f64,
        sum: f64,
        pos_bins: &[(i32, SP::Count)],
        neg_bins: &[(i32, SP::Count)],
    ) {
        for &(i, c) in pos_bins.iter().rev() {
            self.positive.add_n(i, c);
        }
        for &(i, c) in neg_bins {
            self.negative.add_n(i, c);
        }
        self.zero_count = zero_count;
        self.min = min;
        self.max = max;
        self.sum = sum;
    }
}

/// The weighted quantile surface, available when the stores count in
/// `f64`: target ranks generalize from the paper's `q·(n − 1)` to
/// `q·(W − 1)` over the total stored weight `W`. For integral weights the
/// walk is bit-identical to the `u64` sketch's [`DDSketch::quantile`]
/// (property-tested), since the stores' cumulative counts are exact f64
/// integers.
impl<M: IndexMapping, SP: Store<Count = f64>, SN: Store<Count = f64>> DDSketch<M, SP, SN> {
    /// Estimate the q-quantile of the weighted multiset.
    pub fn weighted_quantile(&self, q: f64) -> Result<f64, SketchError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::InvalidQuantile(q));
        }
        let total = self.weighted_count();
        if total <= 0.0 {
            return Err(SketchError::Empty);
        }
        let rank = q * (total - 1.0).max(0.0);
        let neg = self.negative.total_count();
        let raw = if rank < neg {
            // Walk the negative store from the most negative value, i.e.
            // from its largest |x| bucket index downward.
            let idx = self
                .negative
                .key_at_rank_descending(rank)
                .expect("negative store non-empty");
            -self.mapping.value(idx)
        } else if rank < neg + self.zero_count {
            0.0
        } else {
            let idx = self
                .positive
                .key_at_rank(rank - neg - self.zero_count)
                .expect("rank < total implies positive store non-empty");
            self.mapping.value(idx)
        };
        Ok(raw.clamp(self.min, self.max))
    }

    /// Estimate several quantiles of the weighted multiset; output order
    /// matches the input order.
    pub fn weighted_quantiles(&self, qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        qs.iter().map(|&q| self.weighted_quantile(q)).collect()
    }
}

/// The historical integer-count API: pinned to `u64`-counted stores so
/// every body — and therefore every bin, count, and sum it produces —
/// stays bit-identical to the pre-weighted implementation.
impl<M: IndexMapping, SP: Store<Count = u64>, SN: Store<Count = u64>> DDSketch<M, SP, SN> {
    /// Insert `count` occurrences of `value` in O(1).
    pub fn add_n(&mut self, value: f64, count: u64) -> Result<(), SketchError> {
        if !value.is_finite() {
            return Err(SketchError::UnsupportedValue(value));
        }
        if count == 0 {
            return Ok(());
        }
        let magnitude = value.abs();
        if magnitude > self.mapping.max_indexable_value() {
            return Err(SketchError::UnsupportedValue(value));
        }
        if magnitude < self.mapping.min_indexable_value() {
            // Within floating-point distance of zero (paper §2.2): exact
            // zero bucket.
            self.zero_count += count;
        } else if value > 0.0 {
            self.positive.add_n(self.mapping.index(value), count);
        } else {
            self.negative.add_n(self.mapping.index(magnitude), count);
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value * count as f64;
        Ok(())
    }

    /// Insert one occurrence of `value`.
    pub fn add(&mut self, value: f64) -> Result<(), SketchError> {
        self.add_n(value, 1)
    }

    /// Bulk-insert a batch of values — the fast path for high-throughput
    /// producers.
    ///
    /// The batch is ingested in three phases: (1) a single classification
    /// pass splits the values by sign into reusable scratch buffers while
    /// accumulating `sum`/`min`/`max` as running scalars, (2) each side's
    /// bucket indices are computed with one tight
    /// [`IndexMapping::index_batch`] loop, and (3) each store absorbs its
    /// side with one bulk [`Store::add_indices`] call that pays growth and
    /// collapse bookkeeping once per batch instead of once per value.
    ///
    /// The result is **bit-identical** to calling [`Self::add`] on every
    /// value in order (same bins, `count`, `sum`, `min`, `max`) — the
    /// equivalence is property-tested across every preset.
    ///
    /// # Errors
    ///
    /// If any value is NaN, ±∞, or beyond the mapping's indexable range,
    /// returns `UnsupportedValue` for the first such value and ingests
    /// **nothing**: the sketch is left exactly as it was. Callers that want
    /// skip-bad-values semantics should filter first (or use `extend`).
    pub fn add_slice(&mut self, values: &[f64]) -> Result<(), SketchError> {
        // Fast path: one fused pass computes every value's bucket index
        // *and* the running stats, with **deferred** validation — a NaN
        // anywhere poisons the running sum, and any value that is
        // negative, zero, subnormal, infinite, or beyond the indexable
        // range shows up in the batch extremes. The overwhelming common
        // case (all values strictly positive and indexable, e.g.
        // latencies) then needs no per-value branching and no copy: the
        // mapping indexes the input slice directly, and the min/max/sum
        // dependency chains execute in the shadow of the index math.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.indices.resize(values.len(), 0);
        let out = &mut scratch.indices[..values.len()];
        let (batch_min, batch_max, sum) = self.mapping.index_batch_stats(values, self.sum, out);
        if batch_min >= self.mapping.min_indexable_value()
            && batch_max <= self.mapping.max_indexable_value()
            && !sum.is_nan()
        {
            self.positive.add_indices(out);
            // Value-equal to folding each element into the running
            // extremes in stream order.
            self.min = self.min.min(batch_min);
            self.max = self.max.max(batch_max);
            self.sum = sum;
            self.scratch = scratch;
            return Ok(());
        }
        // The batch contains zeros, negatives, or unsupported values: the
        // speculative indices are meaningless — reclassify from scratch.
        self.scratch = scratch;
        self.add_slice_mixed(values)
    }

    /// Slow path for batches containing zeros, negatives, or values that
    /// need rejecting: validate + classify by sign into scratch buffers,
    /// touching no sketch state until the whole batch is known good.
    #[cold]
    fn add_slice_mixed(&mut self, values: &[f64]) -> Result<(), SketchError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.pos.clear();
        scratch.neg.clear();
        let max_indexable = self.mapping.max_indexable_value();
        let min_indexable = self.mapping.min_indexable_value();
        let mut zeros = 0u64;
        let (mut min, mut max, mut sum) = (self.min, self.max, self.sum);
        for &v in values {
            let magnitude = v.abs();
            // Negated comparison (rather than `>`) so NaN also lands here.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(magnitude <= max_indexable) {
                self.scratch = scratch;
                return Err(SketchError::UnsupportedValue(v));
            }
            if magnitude < min_indexable {
                zeros += 1;
            } else if v > 0.0 {
                scratch.pos.push(v);
            } else {
                scratch.neg.push(magnitude);
            }
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        // Batch-index each side, then one bulk store call per side.
        let widest = scratch.pos.len().max(scratch.neg.len());
        scratch.indices.resize(widest, 0);
        if !scratch.pos.is_empty() {
            let out = &mut scratch.indices[..scratch.pos.len()];
            self.mapping.index_batch(&scratch.pos, out);
            self.positive.add_indices(out);
        }
        if !scratch.neg.is_empty() {
            let out = &mut scratch.indices[..scratch.neg.len()];
            self.mapping.index_batch(&scratch.neg, out);
            self.negative.add_indices(out);
        }
        self.zero_count += zeros;
        self.min = min;
        self.max = max;
        self.sum = sum;
        self.scratch = scratch;
        Ok(())
    }

    /// Remove one previously-inserted occurrence of `value` (paper §2:
    /// "it is straightforward to insert items into this sketch as well as
    /// delete items").
    ///
    /// Returns `false` if the bucket `value` maps to holds no occurrences —
    /// which can happen legitimately after a collapse folded it away.
    /// `sum` is adjusted exactly. [`Self::min`]/[`Self::max`] stay honest:
    /// deleting at (or beyond) a tracked extreme re-tightens that extreme
    /// to the surviving buckets' bounds, deleting to empty resets the
    /// sketch's summary state entirely (so a later re-add starts exact),
    /// and the quantile clamp therefore can never pin an estimate to a
    /// fully-deleted extreme — only to a bound of data still present.
    pub fn delete(&mut self, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        let magnitude = value.abs();
        let removed = if magnitude > self.mapping.max_indexable_value() {
            false
        } else if magnitude < self.mapping.min_indexable_value() {
            if self.zero_count > 0 {
                self.zero_count -= 1;
                true
            } else {
                false
            }
        } else if value > 0.0 {
            self.positive.remove_n(self.mapping.index(value), 1)
        } else {
            self.negative.remove_n(self.mapping.index(magnitude), 1)
        };
        if removed {
            self.sum -= value;
            if self.is_empty() {
                // Fully drained: drop every summary so the next add is
                // exact again (in particular, `sum` sheds any
                // floating-point residue of the add/delete sequence).
                self.min = f64::INFINITY;
                self.max = f64::NEG_INFINITY;
                self.sum = 0.0;
            } else {
                // The deleted value may have *been* the tracked extreme;
                // re-tighten from the surviving buckets (tighten-only:
                // the recomputed value is always a valid bound, within
                // one bucket of the true surviving extreme).
                if value <= self.min {
                    self.min = self.min.max(self.surviving_lower_bound());
                }
                if value >= self.max {
                    self.max = self.max.min(self.surviving_upper_bound());
                }
            }
        }
        removed
    }

    /// Total number of stored occurrences.
    pub fn count(&self) -> u64 {
        self.zero_count + self.positive.total_count() + self.negative.total_count()
    }

    /// Count of values in the exact zero bucket.
    pub fn zero_count(&self) -> u64 {
        self.zero_count
    }

    /// Estimate the q-quantile (Algorithm 2, generalized to ℝ).
    pub fn quantile(&self, q: f64) -> Result<f64, SketchError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::InvalidQuantile(q));
        }
        let n = self.count();
        if n == 0 {
            return Err(SketchError::Empty);
        }
        let rank = target_rank(q, n);
        let neg = self.negative.total_count() as f64;
        let raw = if rank < neg {
            // Walk the negative store from the most negative value, i.e.
            // from its largest |x| bucket index downward.
            let idx = self
                .negative
                .key_at_rank_descending(rank)
                .expect("negative store non-empty");
            -self.mapping.value(idx)
        } else if rank < neg + self.zero_count as f64 {
            0.0
        } else {
            let idx = self
                .positive
                .key_at_rank(rank - neg - self.zero_count as f64)
                .expect("rank < total implies positive store non-empty");
            self.mapping.value(idx)
        };
        // The true quantile lies in [min, max]; clamping can only reduce
        // the error of the bucket representative.
        Ok(raw.clamp(self.min, self.max))
    }

    /// Estimate several quantiles in a single pass.
    ///
    /// Where repeated [`Self::quantile`] calls re-walk the stores'
    /// cumulative counts from scratch for every rank (O(k·bins) for k
    /// quantiles), this sorts the requested ranks and advances one cursor
    /// per store monotonically, answering all k in one walk (O(k·log k +
    /// bins)). Output order matches the input order, and every estimate is
    /// identical to what [`Self::quantile`] returns for the same `q`.
    ///
    /// This is the single-shard case of [`Self::merged_quantiles`], and is
    /// implemented as exactly that.
    pub fn quantiles(&self, qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        Self::merged_quantiles(&[self], qs)
    }

    /// Estimate quantiles of the **merge** of `sketches` without
    /// materializing the merged sketch.
    ///
    /// The borrowed shards' bins are consumed through one k-way
    /// sorted-rank walk per store side ([`crate::store::BinIter`], so no
    /// intermediate store, no reallocation, no collapse work), with
    /// bounded store families accounted for by clamping each bin to the
    /// effective index the real merge would fold it to
    /// ([`Store::merge_clamp`]). The result is **identical** — including
    /// collapsed tails — to `target.quantiles(qs)` where `target` is a
    /// clone of `sketches[0]` that merged every remaining shard
    /// ([`Self::merge_from`] / [`Self::merge_many`]); the equivalence is
    /// property-tested across every preset.
    ///
    /// # Errors
    ///
    /// `InvalidQuantile` for any `q` outside `[0, 1]`, `IncompatibleMerge`
    /// when the sketches' mappings cannot merge, and `Empty` when
    /// `sketches` is empty or holds no data (unless `qs` is empty, which
    /// always succeeds with an empty vec).
    pub fn merged_quantiles(sketches: &[&Self], qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        let mut out = Vec::with_capacity(qs.len());
        Self::merged_quantiles_into(
            sketches.iter().copied(),
            qs,
            &mut MergedQuantileScratch::default(),
            &mut out,
        )?;
        Ok(out)
    }

    /// [`Self::merged_quantiles`] over an iterator of borrowed sketches,
    /// writing into caller-owned buffers — the allocation-free form of the
    /// k-way walk.
    ///
    /// `sketches` must be restartable (`Clone`): the walk takes several
    /// passes (compatibility check, totals, clamp prediction, bin
    /// windows) without ever materializing a slice of references. With a
    /// `scratch` and `out` reused across calls, a walk over dense-store
    /// sketches performs **zero** heap allocations at steady state —
    /// this is what lets a sliding window answer its per-tick p99 without
    /// touching the allocator. Sparse-store walks still allocate their
    /// per-bin head iterators (proportional to shard count, not bins).
    ///
    /// `out` is cleared and then filled to `qs.len()`, in `qs` order.
    /// Errors and estimates are identical to [`Self::merged_quantiles`].
    pub fn merged_quantiles_into<'a>(
        sketches: impl Iterator<Item = &'a Self> + Clone,
        qs: &[f64],
        scratch: &mut MergedQuantileScratch,
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
            // Nothing to estimate: succeed even with no data, as the
            // per-quantile mapping always has.
            return Ok(());
        }
        let Some(first) = sketches.clone().next() else {
            return Err(SketchError::Empty);
        };
        for other in sketches.clone() {
            if !first.mapping.is_mergeable_with(&other.mapping) {
                return Err(SketchError::IncompatibleMerge(format!(
                    "mapping {} (α={}) vs {} (α={})",
                    first.mapping.name(),
                    first.mapping.relative_accuracy(),
                    other.mapping.name(),
                    other.mapping.relative_accuracy()
                )));
            }
        }
        let (mut n, mut neg_total, mut zero_total) = (0u64, 0u64, 0u64);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in sketches.clone() {
            n += s.count();
            neg_total += s.negative.total_count();
            zero_total += s.zero_count;
            min = min.min(s.min);
            max = max.max(s.max);
        }
        if n == 0 {
            return Err(SketchError::Empty);
        }

        // Positive walk runs ascending; the negative walk runs from the
        // most negative value, i.e. from the largest |x| bucket downward —
        // mirroring key_at_rank_descending.
        let mut pos = KWayRankCursor::for_stores(
            sketches.clone().map(|s| &s.positive),
            false,
            SP::merge_clamp_iter(sketches.clone().map(|s| &s.positive)),
            recycle_windows(std::mem::take(&mut scratch.pos_windows)),
        );
        let mut neg = KWayRankCursor::for_stores(
            sketches.clone().map(|s| &s.negative),
            true,
            SN::merge_clamp_iter(sketches.map(|s| &s.negative)),
            recycle_windows(std::mem::take(&mut scratch.neg_windows)),
        );

        // Visit the ranks in ascending order, remembering each one's
        // original slot so the output order stays stable (in-place
        // unstable sort: equal quantiles give equal estimates anyway).
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
                -first.mapping.value(idx)
            } else if rank < neg_total + zero_total {
                0.0
            } else {
                let idx = pos
                    .advance_to(rank - neg_total - zero_total)
                    .expect("rank < total implies a positive bin");
                first.mapping.value(idx)
            };
            out[slot] = raw.clamp(min, max);
        }
        scratch.pos_windows = recycle_windows(pos.recover_windows());
        scratch.neg_windows = recycle_windows(neg.recover_windows());
        Ok(())
    }

    /// Estimate quantiles of the **weighted** merge of `sketches`: each
    /// sketch's bins count `weight` times, as if every value it stored had
    /// been inserted `weight` times — the rank walk that backs
    /// exponentially-decayed ("recent-biased") sliding-window reads.
    ///
    /// Weights are applied at query time through the cumulative rank walk;
    /// nothing is copied, scaled, or re-bucketed. The target rank for `q`
    /// is `q·(W − 1)` where `W` is the total weighted count, the direct
    /// generalization of the paper's `q·(n − 1)`: for **integer** weights
    /// the result is bit-identical to an unweighted
    /// [`Self::merged_quantiles`] walk over the same sketches repeated
    /// `weight` times (property-tested). Sketches with `weight == 0.0` are
    /// excluded entirely (they contribute neither counts nor min/max).
    ///
    /// # Errors
    ///
    /// `InvalidQuantile` for any `q` outside `[0, 1]`; `InvalidConfig` for
    /// a NaN, infinite, or negative weight; `IncompatibleMerge` when the
    /// sketches' mappings cannot merge; `Empty` when no positive-weight
    /// data remains (unless `qs` is empty, which always succeeds).
    pub fn weighted_merged_quantiles_into<'a>(
        sketches: impl Iterator<Item = (&'a Self, f64)> + Clone,
        qs: &[f64],
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
        for (_, weight) in sketches.clone() {
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(SketchError::InvalidConfig(format!(
                    "sketch weight must be finite and non-negative, got {weight}"
                )));
            }
        }
        out.clear();
        if qs.is_empty() {
            return Ok(());
        }
        let Some((first, _)) = sketches.clone().next() else {
            return Err(SketchError::Empty);
        };
        for (other, _) in sketches.clone() {
            if !first.mapping.is_mergeable_with(&other.mapping) {
                return Err(SketchError::IncompatibleMerge(format!(
                    "mapping {} (α={}) vs {} (α={})",
                    first.mapping.name(),
                    first.mapping.relative_accuracy(),
                    other.mapping.name(),
                    other.mapping.relative_accuracy()
                )));
            }
        }
        // Zero-weight sketches are out of the union entirely.
        let live = sketches.filter(|&(_, weight)| weight > 0.0);
        let (mut total_w, mut neg_w, mut zero_w) = (0.0f64, 0.0f64, 0.0f64);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (s, weight) in live.clone() {
            total_w += weight * s.count() as f64;
            neg_w += weight * s.negative.total_count() as f64;
            zero_w += weight * s.zero_count as f64;
            min = min.min(s.min);
            max = max.max(s.max);
        }
        if total_w <= 0.0 {
            return Err(SketchError::Empty);
        }

        let mut pos = WeightedRankCursor::new(
            live.clone().map(|(s, w)| (s.positive.bin_iter(), w)),
            false,
            SP::merge_clamp_iter(live.clone().map(|(s, _)| &s.positive)),
        );
        let mut neg = WeightedRankCursor::new(
            live.clone().map(|(s, w)| (s.negative.bin_iter(), w)),
            true,
            SN::merge_clamp_iter(live.map(|(s, _)| &s.negative)),
        );

        let mut order: Vec<usize> = (0..qs.len()).collect();
        order.sort_unstable_by(|&a, &b| qs[a].total_cmp(&qs[b]));

        out.resize(qs.len(), 0.0);
        for &slot in &order {
            // q·(W − 1): the weighted generalization of target_rank.
            let rank = qs[slot].clamp(0.0, 1.0) * (total_w - 1.0).max(0.0);
            let raw = if rank < neg_w {
                let idx = neg
                    .advance_to(rank)
                    .expect("rank < weighted neg total implies a negative bin");
                -first.mapping.value(idx)
            } else if rank < neg_w + zero_w {
                0.0
            } else {
                let idx = pos
                    .advance_to(rank - neg_w - zero_w)
                    .expect("rank < weighted total implies a positive bin");
                first.mapping.value(idx)
            };
            out[slot] = raw.clamp(min, max);
        }
        Ok(())
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

    /// Hard bounds on the q-quantile: the boundaries of the bucket the
    /// quantile falls in, intersected with the tracked `[min, max]`.
    ///
    /// Unlike [`Self::quantile`]'s point estimate (which is α-accurate),
    /// the returned interval *contains the true quantile with certainty*
    /// as long as its bucket has not been collapsed — useful for
    /// alerting logic that must not fire on sketch error.
    pub fn quantile_bounds(&self, q: f64) -> Result<(f64, f64), SketchError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(SketchError::InvalidQuantile(q));
        }
        let n = self.count();
        if n == 0 {
            return Err(SketchError::Empty);
        }
        let rank = target_rank(q, n);
        let neg = self.negative.total_count() as f64;
        let (lo, hi) = if rank < neg {
            let idx = self
                .negative
                .key_at_rank_descending(rank)
                .expect("negative store non-empty");
            (
                -self.mapping.upper_bound(idx),
                -self.mapping.lower_bound(idx),
            )
        } else if rank < neg + self.zero_count as f64 {
            (0.0, 0.0)
        } else {
            let idx = self
                .positive
                .key_at_rank(rank - neg - self.zero_count as f64)
                .expect("rank < total implies positive store non-empty");
            (self.mapping.lower_bound(idx), self.mapping.upper_bound(idx))
        };
        Ok((lo.max(self.min), hi.min(self.max)))
    }
}

impl<M: IndexMapping, SP: Store<Count = u64>, SN: Store<Count = u64>> Extend<f64>
    for DDSketch<M, SP, SN>
{
    /// Bulk insertion; values the sketch cannot represent (NaN, ±∞,
    /// beyond the indexable range) are silently skipped — use [`Self::add`]
    /// when per-value errors matter.
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            let _ = self.add(v);
        }
    }
}

impl<M: IndexMapping, SP: Store<Count = u64>, SN: Store<Count = u64>> QuantileSketch
    for DDSketch<M, SP, SN>
{
    fn add(&mut self, value: f64) -> Result<(), SketchError> {
        DDSketch::add(self, value)
    }

    fn add_n(&mut self, value: f64, count: u64) -> Result<(), SketchError> {
        DDSketch::add_n(self, value, count)
    }

    fn add_slice(&mut self, values: &[f64]) -> Result<(), SketchError> {
        DDSketch::add_slice(self, values)
    }

    fn quantile(&self, q: f64) -> Result<f64, SketchError> {
        DDSketch::quantile(self, q)
    }

    fn quantiles(&self, qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        DDSketch::quantiles(self, qs)
    }

    fn count(&self) -> u64 {
        DDSketch::count(self)
    }

    fn name(&self) -> &'static str {
        match self.mapping.kind() {
            MappingKind::Logarithmic => "DDSketch",
            _ => "DDSketch (fast)",
        }
    }
}

impl<M: IndexMapping, SP: Store, SN: Store<Count = SP::Count>> MergeableSketch
    for DDSketch<M, SP, SN>
{
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        DDSketch::merge_from(self, other)
    }
}

impl<M: IndexMapping, SP: Store, SN: Store<Count = SP::Count>> MemoryFootprint
    for DDSketch<M, SP, SN>
{
    fn memory_bytes(&self) -> usize {
        DDSketch::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::mapping::IndexMapping;
    use crate::presets::{self, *};
    use crate::sketch::DDSketch;
    use crate::store::Store;
    use sketch_core::SketchError;

    #[test]
    fn empty_sketch_behaviour() {
        let s = unbounded(0.01).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.average(), None);
        assert!(matches!(s.quantile(0.5), Err(SketchError::Empty)));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut s = unbounded(0.01).unwrap();
        assert!(s.add(f64::NAN).is_err());
        assert!(s.add(f64::INFINITY).is_err());
        assert!(s.add(f64::NEG_INFINITY).is_err());
        assert!(s.quantile(1.5).is_err());
        assert!(s.quantile(-0.5).is_err());
        assert!(s.quantile(f64::NAN).is_err());
        assert!(s.is_empty(), "failed adds must not change state");
    }

    #[test]
    fn single_value() {
        let mut s = unbounded(0.01).unwrap();
        s.add(42.0).unwrap();
        assert_eq!(s.count(), 1);
        for q in [0.0, 0.5, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!((v - 42.0).abs() <= 0.42, "q={q}: {v}");
        }
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
        assert_eq!(s.sum(), 42.0);
    }

    #[test]
    fn alpha_accuracy_on_a_known_stream() {
        let alpha = 0.01;
        let mut s = unbounded(alpha).unwrap();
        let mut values: Vec<f64> = (1..=10_000).map(|i| (i as f64).powf(1.3)).collect();
        for &v in &values {
            s.add(v).unwrap();
        }
        values.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let actual = values[sketch_core::lower_quantile_index(q, values.len())];
            let est = s.quantile(q).unwrap();
            let rel = (est - actual).abs() / actual;
            assert!(
                rel <= alpha + 1e-9,
                "q={q}: est {est} vs actual {actual} rel {rel}"
            );
        }
    }

    #[test]
    fn zero_and_tiny_values_use_the_zero_bucket() {
        let mut s = unbounded(0.01).unwrap();
        s.add(0.0).unwrap();
        s.add(1e-320).unwrap(); // subnormal → zero bucket
        s.add(-0.0).unwrap();
        assert_eq!(s.zero_count(), 3);
        assert_eq!(s.quantile(0.5).unwrap(), 0.0);
    }

    #[test]
    fn negative_values_are_alpha_accurate() {
        let alpha = 0.01;
        let mut s = unbounded(alpha).unwrap();
        let mut values: Vec<f64> = (1..=1000).map(|i| -(i as f64)).collect();
        for &v in &values {
            s.add(v).unwrap();
        }
        values.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let actual = values[sketch_core::lower_quantile_index(q, values.len())];
            let est = s.quantile(q).unwrap();
            let rel = (est - actual).abs() / actual.abs();
            assert!(rel <= alpha + 1e-9, "q={q}: est {est} vs actual {actual}");
        }
    }

    #[test]
    fn mixed_sign_stream_orders_correctly() {
        let mut s = unbounded(0.01).unwrap();
        for v in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            s.add(v).unwrap();
        }
        // q = 0 → most negative; q = 1 → most positive; q = 0.5 → zero.
        assert!(s.quantile(0.0).unwrap() <= -99.0);
        assert_eq!(s.quantile(0.5).unwrap(), 0.0);
        assert!(s.quantile(1.0).unwrap() >= 99.0);
        // Quantile estimates must be monotone in q.
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=20 {
            let v = s.quantile(k as f64 / 20.0).unwrap();
            assert!(v >= prev, "quantiles must be monotone: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn weighted_add_matches_repeated_add() {
        let mut a = unbounded(0.01).unwrap();
        let mut b = unbounded(0.01).unwrap();
        a.add_n(3.5, 100).unwrap();
        for _ in 0..100 {
            b.add(3.5).unwrap();
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(
            a.positive_store().bins_ascending(),
            b.positive_store().bins_ascending()
        );
        assert_eq!(a.sum(), b.sum());
    }

    #[test]
    fn delete_reverses_add() {
        let mut s = unbounded(0.01).unwrap();
        s.add(5.0).unwrap();
        s.add(10.0).unwrap();
        assert!(s.delete(5.0));
        assert_eq!(s.count(), 1);
        assert!((s.sum() - 10.0).abs() < 1e-12);
        // Deleting a value whose bucket is empty fails cleanly.
        assert!(!s.delete(5.0));
        assert!(!s.delete(1e9));
        // Zero-bucket deletion.
        s.add(0.0).unwrap();
        assert!(s.delete(0.0));
        assert!(!s.delete(0.0));
    }

    #[test]
    fn delete_to_empty_then_readd_is_exact() {
        // Regression: min/max/sum must not survive a delete-to-empty —
        // pre-fix, the stale extremes of the drained stream leaked into
        // the re-added one (min() reported 5.0 here with only 10.0 live).
        let mut s = unbounded(0.01).unwrap();
        s.add(5.0).unwrap();
        assert!(s.delete(5.0));
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        s.add(10.0).unwrap();
        assert_eq!(s.min(), Some(10.0));
        assert_eq!(s.max(), Some(10.0));
        assert_eq!(s.sum(), 10.0);
        // Same through the zero bucket and the negative store.
        let mut s = unbounded(0.01).unwrap();
        s.add(0.0).unwrap();
        s.add(-3.0).unwrap();
        assert!(s.delete(-3.0));
        assert!(s.delete(0.0));
        assert!(s.is_empty());
        s.add(-7.0).unwrap();
        assert_eq!(s.min(), Some(-7.0));
        assert_eq!(s.max(), Some(-7.0));
        // And sum sheds the float residue of the drained stream: after
        // deleting 0.1 and 0.3 the naive running sum holds ~5.5e-17.
        let mut s = unbounded(0.01).unwrap();
        s.add(0.1).unwrap();
        s.add(0.3).unwrap();
        assert!(s.delete(0.1));
        assert!(s.delete(0.3));
        s.add(10.0).unwrap();
        assert_eq!(s.sum(), 10.0, "sum must be exact after drain + re-add");
    }

    #[test]
    fn delete_at_the_extremes_keeps_min_max_honest() {
        let alpha = 0.01;
        // Deleting the maximum: max() must tighten to the surviving
        // bucket's bound instead of reporting the fully-deleted 1000.0
        // (the pre-fix accessors kept the stale extreme).
        let mut s = unbounded(alpha).unwrap();
        s.add(1.0).unwrap();
        s.add(1000.0).unwrap();
        assert!(s.delete(1000.0));
        let max = s.max().unwrap();
        assert!(
            max <= 1.0 * (1.0 + alpha) * (1.0 + 1e-9) && max >= 1.0,
            "stale max must tighten to the surviving bucket, got {max}"
        );
        // The quantile clamp therefore cannot pin to the deleted value.
        let p100 = s.quantile(1.0).unwrap();
        assert!(p100 <= max, "estimate {p100} pinned above the bound {max}");
        // Mirror case at the minimum, through the negative store.
        let mut s = unbounded(alpha).unwrap();
        s.add(-1000.0).unwrap();
        s.add(-1.0).unwrap();
        s.add(5.0).unwrap();
        assert!(s.delete(-1000.0));
        let min = s.min().unwrap();
        assert!(
            min >= -((1.0 + alpha) * (1.0 + 1e-9)) && min <= -1.0,
            "stale min must tighten to the surviving bucket, got {min}"
        );
        assert!(s.quantile(0.0).unwrap() >= min);
        // Deleting a non-extreme value leaves the exact extremes alone.
        let mut s = unbounded(alpha).unwrap();
        for v in [1.0, 50.0, 1000.0] {
            s.add(v).unwrap();
        }
        assert!(s.delete(50.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(1000.0));
        // Deleting one of several occupants of the extreme bucket keeps
        // the extreme (the bucket still holds a count).
        let mut s = unbounded(alpha).unwrap();
        s.add(1000.0).unwrap();
        s.add(1000.0).unwrap();
        s.add(1.0).unwrap();
        assert!(s.delete(1000.0));
        assert_eq!(s.max(), Some(1000.0));
        // Zero as the surviving extreme is exact.
        let mut s = unbounded(alpha).unwrap();
        s.add(0.0).unwrap();
        s.add(9.0).unwrap();
        assert!(s.delete(9.0));
        assert_eq!(s.max(), Some(0.0));
        assert_eq!(s.min(), Some(0.0));
    }

    #[test]
    fn weighted_walk_with_unit_weights_matches_unweighted() {
        let mut shards = Vec::new();
        for shard in 0..3usize {
            let mut s = unbounded(0.01).unwrap();
            for i in 1..=(150 * (shard + 1)) {
                let v = match i % 4 {
                    0 => 0.0,
                    1 | 2 => (i as f64).sqrt() * 1.3,
                    _ => -(i as f64) * 0.2,
                };
                s.add(v).unwrap();
            }
            shards.push(s);
        }
        let refs: Vec<_> = shards.iter().collect();
        let pairs: Vec<_> = shards.iter().map(|s| (s, 1.0)).collect();
        let qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0];
        assert_eq!(
            DDSketch::weighted_merged_quantiles(&pairs, &qs).unwrap(),
            DDSketch::merged_quantiles(&refs, &qs).unwrap(),
            "unit weights must reproduce the unweighted walk exactly"
        );
    }

    #[test]
    fn weighted_walk_with_integer_weights_matches_replication() {
        // Weight w ≡ the sketch repeated w times in an unweighted walk:
        // for integer weights the cumulative counts are identical f64
        // sums, so the answers must agree bit-for-bit.
        let build = |seed: usize, n: usize| {
            let mut s = unbounded(0.01).unwrap();
            for i in 1..=n {
                let v = ((seed * 37 + i) as f64).sqrt() * 0.9 - 5.0;
                if v.abs() > 1e-6 {
                    s.add(v).unwrap();
                } else {
                    s.add(0.0).unwrap();
                }
            }
            s
        };
        let (a, b, c) = (build(1, 200), build(2, 333), build(3, 77));
        let weighted = [(&a, 1.0), (&b, 2.0), (&c, 3.0)];
        let replicated = [&a, &b, &b, &c, &c, &c];
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
        assert_eq!(
            DDSketch::weighted_merged_quantiles(&weighted, &qs).unwrap(),
            DDSketch::merged_quantiles(&replicated, &qs).unwrap(),
            "integer weights must equal unweighted replication"
        );
        // Zero-weight sketches drop out of the union entirely.
        let zeroed = [(&a, 1.0), (&b, 0.0)];
        assert_eq!(
            DDSketch::weighted_merged_quantiles(&zeroed, &qs).unwrap(),
            DDSketch::merged_quantiles(&[&a], &qs).unwrap(),
            "weight 0 must exclude the sketch"
        );
    }

    #[test]
    fn weighted_walk_biases_toward_heavier_shards() {
        // A recent shard of large values at weight 8 must pull the median
        // far above the unweighted merge's.
        let mut old = unbounded(0.01).unwrap();
        let mut recent = unbounded(0.01).unwrap();
        for i in 1..=1000 {
            old.add(1.0 + (i % 10) as f64 * 0.01).unwrap();
            recent.add(100.0 + (i % 10) as f64).unwrap();
        }
        let unweighted = DDSketch::merged_quantiles(&[&old, &recent], &[0.25]).unwrap()[0];
        let biased = DDSketch::weighted_merged_quantiles(&[(&old, 1.0), (&recent, 8.0)], &[0.25])
            .unwrap()[0];
        assert!(
            unweighted < 2.0,
            "q25 of the even merge sits in the old data"
        );
        assert!(
            biased > 90.0,
            "q25 of the 8× weighting sits in the recent data"
        );
    }

    #[test]
    fn weighted_walk_validation() {
        let mut s = unbounded(0.01).unwrap();
        s.add(1.0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                DDSketch::weighted_merged_quantiles(&[(&s, bad)], &[0.5]),
                Err(SketchError::InvalidConfig(_))
            ));
        }
        assert!(matches!(
            DDSketch::weighted_merged_quantiles(&[(&s, 1.0)], &[1.5]),
            Err(SketchError::InvalidQuantile(_))
        ));
        // All weights zero → no data.
        assert!(matches!(
            DDSketch::weighted_merged_quantiles(&[(&s, 0.0)], &[0.5]),
            Err(SketchError::Empty)
        ));
        // Empty qs succeeds even with no sketches.
        let none: [(&presets::UnboundedDDSketch, f64); 0] = [];
        assert_eq!(
            DDSketch::weighted_merged_quantiles(&none, &[]).unwrap(),
            Vec::<f64>::new()
        );
        assert!(matches!(
            DDSketch::weighted_merged_quantiles(&none, &[0.5]),
            Err(SketchError::Empty)
        ));
        // Mismatched mappings are rejected.
        let other = unbounded(0.02).unwrap();
        assert!(matches!(
            DDSketch::weighted_merged_quantiles(&[(&s, 1.0), (&other, 1.0)], &[0.5]),
            Err(SketchError::IncompatibleMerge(_))
        ));
    }

    #[test]
    fn merged_quantiles_into_reuses_scratch_across_shard_sets() {
        // One scratch serving alternating shard sets (different counts,
        // different window spans) must keep answering exactly like the
        // allocating entry point.
        let mut scratch = crate::MergedQuantileScratch::default();
        let mut out = Vec::new();
        let build = |lo: usize, n: usize| {
            let mut s = logarithmic_collapsing(0.01, 64).unwrap();
            for i in lo..lo + n {
                s.add(1.001_f64.powi(i as i32) * 3.0).unwrap();
            }
            s
        };
        let sets = [
            vec![build(0, 500), build(2000, 300)],
            vec![build(100, 50)],
            vec![build(0, 10), build(5000, 700), build(900, 20)],
        ];
        let qs = [0.99, 0.0, 0.5, 1.0];
        for set in &sets {
            let refs: Vec<_> = set.iter().collect();
            DDSketch::merged_quantiles_into(set.iter(), &qs, &mut scratch, &mut out).unwrap();
            assert_eq!(out, DDSketch::merged_quantiles(&refs, &qs).unwrap());
        }
        // Error paths leave the buffers reusable.
        assert!(
            DDSketch::merged_quantiles_into(sets[0].iter(), &[2.0], &mut scratch, &mut out)
                .is_err()
        );
        DDSketch::merged_quantiles_into(sets[2].iter(), &qs, &mut scratch, &mut out).unwrap();
        let refs: Vec<_> = sets[2].iter().collect();
        assert_eq!(out, DDSketch::merged_quantiles(&refs, &qs).unwrap());
    }

    #[test]
    fn merge_is_bucket_exact() {
        let mut a = unbounded(0.01).unwrap();
        let mut b = unbounded(0.01).unwrap();
        let mut union = unbounded(0.01).unwrap();
        for i in 1..500 {
            let v = i as f64 * 0.37;
            a.add(v).unwrap();
            union.add(v).unwrap();
        }
        for i in 1..300 {
            let v = i as f64 * 11.1;
            b.add(v).unwrap();
            union.add(v).unwrap();
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.count(), union.count());
        assert_eq!(
            a.positive_store().bins_ascending(),
            union.positive_store().bins_ascending()
        );
        assert_eq!(a.min(), union.min());
        assert_eq!(a.max(), union.max());
        assert!((a.sum() - union.sum()).abs() < 1e-6 * union.sum().abs());
    }

    #[test]
    fn merge_rejects_mismatched_accuracy() {
        let mut a = unbounded(0.01).unwrap();
        let b = unbounded(0.02).unwrap();
        assert!(matches!(
            a.merge_from(&b),
            Err(SketchError::IncompatibleMerge(_))
        ));
    }

    #[test]
    fn clamping_keeps_estimates_inside_observed_range() {
        let mut s = unbounded(0.05).unwrap();
        s.add(100.0).unwrap();
        let v = s.quantile(1.0).unwrap();
        assert!(v <= 100.0, "estimate {v} must not exceed the observed max");
        let v = s.quantile(0.0).unwrap();
        assert!(v >= 100.0 - 100.0 * 0.05 - 1e-9);
    }

    #[test]
    fn bounded_sketch_keeps_upper_quantiles_after_collapse() {
        // Proposition 4: with m buckets, quantiles q with
        // x₁ ≤ x_q·γ^(m−1) stay accurate. Build a stream wide enough to
        // force collapse and check the upper half.
        let alpha = 0.01;
        let mut s = logarithmic_collapsing(alpha, 128).unwrap();
        let mut values = Vec::new();
        for i in 0..50_000 {
            // Span many orders of magnitude so the 128-bucket cap collapses.
            let v = 1.0001_f64.powi(i % 30_000) * (1.0 + (i % 7) as f64);
            s.add(v).unwrap();
            values.push(v);
        }
        assert!(s.has_collapsed());
        values.sort_by(f64::total_cmp);
        for q in [0.9, 0.95, 0.99, 1.0] {
            let actual = values[sketch_core::lower_quantile_index(q, values.len())];
            let est = s.quantile(q).unwrap();
            let rel = (est - actual).abs() / actual;
            assert!(rel <= alpha + 1e-9, "q={q}: rel {rel}");
        }
        assert_eq!(s.count(), 50_000, "collapse must not lose counts");
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = fast(0.01, 1024).unwrap();
        for i in 1..100 {
            s.add(i as f64).unwrap();
        }
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.num_bins(), 0);
        assert!(s.quantile(0.5).is_err());
        s.add(7.0).unwrap();
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn rejects_values_beyond_indexable_range() {
        let mut s = unbounded(1e-9).unwrap(); // tight α → narrow range
        let too_big = s.mapping().max_indexable_value() * 2.0;
        assert!(s.add(too_big).is_err());
        assert!(s.add(-too_big).is_err());
    }

    #[test]
    fn quantile_bounds_contain_the_true_quantile() {
        let mut s = unbounded(0.01).unwrap();
        let mut values: Vec<f64> = (1..=5000).map(|i| (i as f64) * 1.7).collect();
        for &v in &values {
            s.add(v).unwrap();
        }
        values.sort_by(f64::total_cmp);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let actual = values[sketch_core::lower_quantile_index(q, values.len())];
            let (lo, hi) = s.quantile_bounds(q).unwrap();
            assert!(
                lo <= actual && actual <= hi,
                "q={q}: true {actual} outside [{lo}, {hi}]"
            );
            // The point estimate also lies inside its own bounds.
            let est = s.quantile(q).unwrap();
            assert!(lo <= est && est <= hi);
        }
    }

    #[test]
    fn quantile_bounds_mixed_signs_and_zero() {
        let mut s = unbounded(0.01).unwrap();
        for v in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            s.add(v).unwrap();
        }
        let (lo, hi) = s.quantile_bounds(0.5).unwrap();
        assert_eq!((lo, hi), (0.0, 0.0), "zero bucket is exact");
        let (lo, hi) = s.quantile_bounds(0.0).unwrap();
        assert!(lo <= -10.0 && hi >= -10.0 * 1.01);
        assert!(s.quantile_bounds(2.0).is_err());
        assert!(unbounded(0.01).unwrap().quantile_bounds(0.5).is_err());
    }

    #[test]
    fn extend_skips_unsupported_values() {
        let mut s = unbounded(0.01).unwrap();
        s.extend([1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 6.0);
    }

    #[test]
    fn add_slice_matches_scalar_adds() {
        let values: Vec<f64> = (1..=5000)
            .map(|i| {
                let v = (i as f64).sqrt() * 3.3;
                if i % 3 == 0 {
                    -v
                } else if i % 97 == 0 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        let mut scalar = unbounded(0.01).unwrap();
        let mut batch = unbounded(0.01).unwrap();
        for &v in &values {
            scalar.add(v).unwrap();
        }
        // Ingest in several chunks to exercise scratch reuse.
        for chunk in values.chunks(700) {
            batch.add_slice(chunk).unwrap();
        }
        assert_eq!(batch.count(), scalar.count());
        assert_eq!(batch.zero_count(), scalar.zero_count());
        assert_eq!(batch.sum(), scalar.sum(), "sum must be bit-identical");
        assert_eq!(batch.min(), scalar.min());
        assert_eq!(batch.max(), scalar.max());
        assert_eq!(
            batch.positive_store().bins_ascending(),
            scalar.positive_store().bins_ascending()
        );
        assert_eq!(
            batch.negative_store().bins_ascending(),
            scalar.negative_store().bins_ascending()
        );
    }

    #[test]
    fn add_slice_rejects_without_corrupting_state() {
        let mut s = unbounded(0.01).unwrap();
        s.add_slice(&[1.0, 2.0]).unwrap();
        let before_bins = s.positive_store().bins_ascending();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = s.add_slice(&[3.0, bad, 4.0]).unwrap_err();
            assert!(matches!(err, SketchError::UnsupportedValue(_)), "{bad}");
        }
        assert_eq!(
            s.count(),
            2,
            "failed batches must not be partially ingested"
        );
        assert_eq!(s.sum(), 3.0);
        assert_eq!(s.positive_store().bins_ascending(), before_bins);
        // Out-of-range magnitude is also rejected atomically.
        let mut tight = unbounded(1e-9).unwrap();
        let too_big = tight.mapping().max_indexable_value() * 2.0;
        assert!(tight.add_slice(&[1.0, too_big]).is_err());
        assert!(tight.is_empty());
    }

    #[test]
    fn add_slice_of_empty_batch_is_a_noop() {
        let mut s = fast(0.01, 1024).unwrap();
        s.add_slice(&[]).unwrap();
        assert!(s.is_empty());
        s.add_slice(&[5.0]).unwrap();
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn quantiles_single_pass_matches_per_quantile() {
        let mut s = unbounded(0.01).unwrap();
        for v in [-50.0, -3.0, 0.0, 0.0, 2.0, 7.0, 7.5, 1000.0] {
            s.add(v).unwrap();
        }
        for i in 1..=2000 {
            s.add((i as f64).powf(1.2) - 300.0).unwrap();
        }
        // Unsorted, duplicated, boundary-heavy request order.
        let qs = [0.99, 0.0, 0.5, 0.5, 1.0, 0.01, 0.25, 0.75, 0.99];
        let batch = s.quantiles(&qs).unwrap();
        for (&q, &got) in qs.iter().zip(&batch) {
            assert_eq!(got, s.quantile(q).unwrap(), "q = {q}");
        }
        // Validation matches the scalar path.
        assert!(s.quantiles(&[0.5, 1.5]).is_err());
        assert!(s.quantiles(&[f64::NAN]).is_err());
        assert!(unbounded(0.01).unwrap().quantiles(&[0.5]).is_err());
        assert_eq!(s.quantiles(&[]).unwrap(), Vec::<f64>::new());
        // An empty request succeeds even on an empty sketch (matching the
        // behaviour of mapping `quantile` over zero inputs).
        assert_eq!(
            unbounded(0.01).unwrap().quantiles(&[]).unwrap(),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn merge_many_matches_sequential_merges() {
        let mut shards = Vec::new();
        for shard in 0..5 {
            let mut s = unbounded(0.01).unwrap();
            for i in 1..=400 {
                let v = (shard * 400 + i) as f64 * 0.7 - 500.0;
                s.add(v).unwrap();
            }
            shards.push(s);
        }
        // One shard left intentionally empty.
        shards.push(unbounded(0.01).unwrap());
        let refs: Vec<_> = shards[1..].iter().collect();
        let mut bulk = shards[0].clone();
        bulk.merge_many(&refs).unwrap();
        let mut seq = shards[0].clone();
        for other in &refs {
            seq.merge_from(other).unwrap();
        }
        assert_eq!(bulk.count(), seq.count());
        assert_eq!(bulk.zero_count(), seq.zero_count());
        assert_eq!(bulk.sum(), seq.sum(), "sum must be bit-identical");
        assert_eq!(bulk.min(), seq.min());
        assert_eq!(bulk.max(), seq.max());
        assert_eq!(
            bulk.positive_store().bins_ascending(),
            seq.positive_store().bins_ascending()
        );
        assert_eq!(
            bulk.negative_store().bins_ascending(),
            seq.negative_store().bins_ascending()
        );
        // Merging nothing is a no-op that still succeeds.
        let before = bulk.count();
        bulk.merge_many(&[]).unwrap();
        assert_eq!(bulk.count(), before);
    }

    #[test]
    fn merge_many_rejects_atomically() {
        let mut target = unbounded(0.01).unwrap();
        target.add(1.0).unwrap();
        let mut good = unbounded(0.01).unwrap();
        good.add(2.0).unwrap();
        let bad = unbounded(0.02).unwrap();
        assert!(matches!(
            target.merge_many(&[&good, &bad]),
            Err(SketchError::IncompatibleMerge(_))
        ));
        // Validation precedes mutation: nothing was merged.
        assert_eq!(target.count(), 1);
    }

    #[test]
    fn merged_quantiles_match_materialized_merge() {
        // Mixed signs and zeros across unevenly-sized shards.
        let mut shards = Vec::new();
        for shard in 0..4usize {
            let mut s = unbounded(0.01).unwrap();
            for i in 1..=(200 * (shard + 1)) {
                let v = match i % 5 {
                    0 => 0.0,
                    1 | 2 => (i as f64).sqrt() * 2.5,
                    _ => -(i as f64) * 0.3,
                };
                s.add(v).unwrap();
            }
            shards.push(s);
        }
        let refs: Vec<_> = shards.iter().collect();
        let mut materialized = shards[0].clone();
        materialized.merge_many(&refs[1..]).unwrap();
        let qs = [0.99, 0.0, 0.5, 0.5, 1.0, 0.01, 0.25, 0.75];
        assert_eq!(
            DDSketch::merged_quantiles(&refs, &qs).unwrap(),
            materialized.quantiles(&qs).unwrap()
        );
        // Validation mirrors `quantiles`.
        assert!(DDSketch::merged_quantiles(&refs, &[1.5]).is_err());
        assert!(DDSketch::merged_quantiles(&refs, &[f64::NAN]).is_err());
        assert_eq!(
            DDSketch::merged_quantiles(&refs, &[]).unwrap(),
            Vec::<f64>::new()
        );
        // No sketches (or only empty sketches) → Empty, unless qs is
        // empty too.
        let no_shards: [&presets::UnboundedDDSketch; 0] = [];
        assert!(matches!(
            DDSketch::merged_quantiles(&no_shards, &[0.5]),
            Err(SketchError::Empty)
        ));
        assert_eq!(
            DDSketch::merged_quantiles(&no_shards, &[]).unwrap(),
            Vec::<f64>::new()
        );
        let empty = unbounded(0.01).unwrap();
        assert!(matches!(
            DDSketch::merged_quantiles(&[&empty], &[0.5]),
            Err(SketchError::Empty)
        ));
        // Mismatched mappings are rejected.
        let other_alpha = unbounded(0.02).unwrap();
        assert!(matches!(
            DDSketch::merged_quantiles(&[&shards[0], &other_alpha], &[0.5]),
            Err(SketchError::IncompatibleMerge(_))
        ));
    }

    #[test]
    fn merged_quantiles_honour_collapsed_tails() {
        // Tiny bin cap: the union spans far more buckets than any single
        // shard, so the (virtual) merge must collapse — and the k-way walk
        // must report exactly what the materialized collapse reports.
        let mut shards = Vec::new();
        for shard in 0..6 {
            let mut s = logarithmic_collapsing(0.01, 32).unwrap();
            for i in 1..=500 {
                let v = 1.001_f64.powi(shard * 700 + i) * (1.0 + (i % 3) as f64);
                s.add(v).unwrap();
            }
            shards.push(s);
        }
        let refs: Vec<_> = shards.iter().collect();
        let mut materialized = shards[0].clone();
        materialized.merge_many(&refs[1..]).unwrap();
        assert!(materialized.has_collapsed());
        let qs = [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0];
        assert_eq!(
            DDSketch::merged_quantiles(&refs, &qs).unwrap(),
            materialized.quantiles(&qs).unwrap()
        );
    }

    #[test]
    fn memory_bytes_counts_batch_scratch() {
        let mut batched = unbounded(0.01).unwrap();
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        let before = batched.memory_bytes();
        batched.add_slice(&values).unwrap();
        // The retained scratch capacity (≥ 10_000 × 4-byte indices) must
        // show up in the footprint on top of whatever the store grew to.
        assert!(
            batched.memory_bytes() >= before + values.len() * 4,
            "after {} vs before {}",
            batched.memory_bytes(),
            before
        );
    }

    #[test]
    fn average_and_sum_are_exact() {
        let mut s = unbounded(0.01).unwrap();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.add(v).unwrap();
        }
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.average(), Some(2.5));
    }
}
