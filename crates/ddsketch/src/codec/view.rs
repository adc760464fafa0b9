//! [`SketchView`]: a validated, zero-allocation view over encoded sketch
//! bytes.
//!
//! An aggregator that receives thousands of `DDS2` payloads per second
//! does not need a materialized sketch per payload — it needs the
//! payload's *bins*, walked in place. `SketchView::parse` validates a
//! byte buffer once (one forward pass, no allocation) and then exposes
//! the same bin-walk surface as a live sketch: header accessors, exact
//! totals, and a double-ended [`ViewBinIter`] over the varint-delta bins
//! of each store. Views plug into the merge plane through
//! [`crate::codec::SketchSource`], so quantiles over N payloads and
//! absorption into a resident sketch both run straight over the wire
//! bytes.
//!
//! A caller that retains the frame bytes (the pipeline's aggregator, a
//! payload cache) can detach a view's [`SketchViewMeta`] — the parse
//! result with the borrow replaced by offsets — and rebind it in O(1)
//! later, paying the validation walk exactly once per frame.

use bytes::Buf;

use super::varint::{get_varint, rsplit_varint, scan_varint, scan_weighted_count, unzigzag};
use super::{MAGIC, MAGIC_V1, MAGIC_V3};
use crate::config::SketchConfig;
use crate::mapping::MappingKind;
use crate::store::StoreKind;
use sketch_core::SketchError;

/// One store's encoded bin section, as offsets into the frame.
///
/// `offset..offset + len` spans the section's varints *after* the leading
/// bin-count varint: `zigzag(first_index), count, (gap, count)*`. The
/// summary fields let rank walks budget totals and clamp bounds without
/// a second decode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinSection {
    offset: usize,
    len: usize,
    bins: usize,
    /// Index of the first (lowest) bin; meaningless when `bins == 0`.
    /// With `last`, bounds the section's bucket span for the dense
    /// decode-growth ceiling.
    first: i32,
    /// Index of the last (highest) bin; meaningless when `bins == 0`.
    /// Seeds the back cursor of the double-ended bin walk.
    last: i32,
    /// Sum of the section's counts. Exact for the integer dialects;
    /// zero for `DDS3` sections (whose total lives in `ftotal`).
    total: u64,
    /// Sum of the section's counts as an `f64` — exact for `DDS3`
    /// sections, a rounding of `total` for the integer dialects.
    ftotal: f64,
}

impl BinSection {
    /// Validate one bin section of `frame` starting at `*pos`, advancing
    /// the cursor past it.
    fn parse(frame: &[u8], pos: &mut usize) -> Result<Self, SketchError> {
        let n = scan_varint(frame, pos)?;
        // A bin is at least two bytes (index-or-gap varint + count
        // varint); clamp the declared length against the bytes actually
        // present *before* trusting it anywhere (hostile payloads declare
        // absurd lengths hoping for a huge allocation or a long loop).
        let n = usize::try_from(n)
            .ok()
            .filter(|n| {
                n.checked_mul(2)
                    .is_some_and(|floor| floor <= frame.len() - *pos)
            })
            .ok_or_else(|| SketchError::Malformed(format!("bin count {n} exceeds payload size")))?;
        let offset = *pos;
        let (mut first, mut last, mut total) = (0i64, 0i64, 0u64);
        if n > 0 {
            // First bin: absolute zigzag index (peeled so the loop body
            // is branch-minimal — this validation walk runs once per
            // received payload on the aggregator's hot path).
            let mut idx = unzigzag(scan_varint(frame, pos)?);
            first = idx;
            if idx < i64::from(i32::MIN) || idx > i64::from(i32::MAX) {
                return Err(SketchError::Malformed(format!(
                    "bin index {idx} out of i32 range"
                )));
            }
            let count = scan_varint(frame, pos)?;
            if count == 0 {
                return Err(SketchError::Malformed("zero-count bin".into()));
            }
            total = count;
            for _ in 1..n {
                // Indices are strictly ascending, so after the first only
                // the upper bound can be violated.
                idx = idx
                    .checked_add(scan_varint(frame, pos)? as i64)
                    .and_then(|v| v.checked_add(1))
                    .ok_or_else(|| SketchError::Malformed("bin index overflow".into()))?;
                if idx > i64::from(i32::MAX) {
                    return Err(SketchError::Malformed(format!(
                        "bin index {idx} out of i32 range"
                    )));
                }
                let count = scan_varint(frame, pos)?;
                if count == 0 {
                    return Err(SketchError::Malformed("zero-count bin".into()));
                }
                total = total
                    .checked_add(count)
                    .ok_or_else(|| SketchError::Malformed("bin count total overflow".into()))?;
            }
            last = idx;
        }
        Ok(Self {
            offset,
            len: *pos - offset,
            bins: n,
            first: first as i32,
            last: last as i32,
            total,
            ftotal: total as f64,
        })
    }

    /// Validate one **`DDS3`** bin section of `frame` starting at `*pos`.
    /// Same structure as the integer layout, but each count is a weighted
    /// count (see [`scan_weighted_count`]): every bin's count must be
    /// finite and strictly positive, and the section total must stay
    /// finite.
    fn parse_weighted(frame: &[u8], pos: &mut usize) -> Result<Self, SketchError> {
        let n = scan_varint(frame, pos)?;
        // A weighted bin still needs at least 2 bytes (index varint +
        // count tag); clamp before trusting the declared length.
        let n = usize::try_from(n)
            .ok()
            .filter(|n| {
                n.checked_mul(2)
                    .is_some_and(|floor| floor <= frame.len() - *pos)
            })
            .ok_or_else(|| SketchError::Malformed(format!("bin count {n} exceeds payload size")))?;
        let offset = *pos;
        let (mut first, mut ftotal) = (0i64, 0.0f64);
        let mut idx = 0i64;
        for k in 0..n {
            if k == 0 {
                idx = unzigzag(scan_varint(frame, pos)?);
                first = idx;
                if idx < i64::from(i32::MIN) || idx > i64::from(i32::MAX) {
                    return Err(SketchError::Malformed(format!(
                        "bin index {idx} out of i32 range"
                    )));
                }
            } else {
                idx = idx
                    .checked_add(scan_varint(frame, pos)? as i64)
                    .and_then(|v| v.checked_add(1))
                    .ok_or_else(|| SketchError::Malformed("bin index overflow".into()))?;
                if idx > i64::from(i32::MAX) {
                    return Err(SketchError::Malformed(format!(
                        "bin index {idx} out of i32 range"
                    )));
                }
            }
            let count = scan_weighted_count(frame, pos)?;
            if !count.is_finite() || count <= 0.0 {
                return Err(SketchError::Malformed(format!(
                    "weighted bin count {count} is not a positive finite value"
                )));
            }
            ftotal += count;
        }
        if !ftotal.is_finite() {
            return Err(SketchError::Malformed("bin count total overflow".into()));
        }
        Ok(Self {
            offset,
            len: *pos - offset,
            bins: n,
            first: first as i32,
            last: if n > 0 { idx as i32 } else { 0 },
            total: 0,
            ftotal,
        })
    }

    /// Bucket-index span the section covers (0 when empty).
    fn span(&self) -> u64 {
        if self.bins == 0 {
            0
        } else {
            (i64::from(self.last) - i64::from(self.first) + 1).unsigned_abs()
        }
    }

    /// Decode the whole section into `out` in one tight cursor loop — the
    /// fold path's bulk transfer, ~2× faster than draining the
    /// double-ended iterator bin by bin (no per-item iterator state or
    /// capacity checks).
    fn append_to(&self, frame: &[u8], out: &mut Vec<(i32, u64)>) {
        if self.bins == 0 {
            return;
        }
        let bytes = &frame[self.offset..self.offset + self.len];
        let mut pos = 0usize;
        out.reserve(self.bins);
        let mut idx = unzigzag(ViewBinIter::expect_varint(bytes, &mut pos));
        let count = ViewBinIter::expect_varint(bytes, &mut pos);
        out.push((idx as i32, count));
        for _ in 1..self.bins {
            idx += ViewBinIter::expect_varint(bytes, &mut pos) as i64 + 1;
            let count = ViewBinIter::expect_varint(bytes, &mut pos);
            out.push((idx as i32, count));
        }
    }

    /// Decode a whole **`DDS3`** section into `out` (appended) in one
    /// cursor loop — the weighted fold path's bulk transfer.
    fn append_weighted_to(&self, frame: &[u8], out: &mut Vec<(i32, f64)>) {
        if self.bins == 0 {
            return;
        }
        let bytes = &frame[self.offset..self.offset + self.len];
        let mut pos = 0usize;
        out.reserve(self.bins);
        let mut idx = unzigzag(ViewBinIter::expect_varint(bytes, &mut pos));
        let count = Self::expect_weighted(bytes, &mut pos);
        out.push((idx as i32, count));
        for _ in 1..self.bins {
            idx += ViewBinIter::expect_varint(bytes, &mut pos) as i64 + 1;
            let count = Self::expect_weighted(bytes, &mut pos);
            out.push((idx as i32, count));
        }
    }

    /// Infallible weighted-count decode over a region `parse_weighted`
    /// already validated.
    #[inline]
    fn expect_weighted(bytes: &[u8], pos: &mut usize) -> f64 {
        scan_weighted_count(bytes, pos).expect("bin region validated by SketchView::parse")
    }

    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    fn iter<'a>(&self, frame: &'a [u8]) -> ViewBinIter<'a> {
        ViewBinIter {
            bytes: &frame[self.offset..self.offset + self.len],
            remaining: self.bins,
            front_index: 0,
            front_started: false,
            back_index: i64::from(self.last),
        }
    }

    fn weighted_iter<'a>(&self, frame: &'a [u8], weighted: bool) -> WeightedViewBinIter<'a> {
        WeightedViewBinIter {
            weighted,
            bytes: &frame[self.offset..self.offset + self.len],
            remaining: self.bins,
            front_index: 0,
            front_started: false,
        }
    }
}

/// Double-ended iterator over a view's `(index, count)` bins in ascending
/// index order — the wire-format counterpart of [`crate::store::BinIter`].
///
/// Forward iteration decodes the delta-coded varints in stream order.
/// *Backward* iteration exploits LEB128's self-delimiting continuation
/// bits (`varint::rsplit_varint`): each bin is exactly two varints, so the back
/// cursor peels `(gap, count)` pairs off the end of the (pre-validated)
/// region while tracking the running index arithmetically from the
/// section's last index. No allocation, no re-scan, O(1) amortized per
/// bin from either end — which is what lets the negative-store quantile
/// walk (largest `|x|` first) run over encoded bytes.
#[derive(Debug, Clone)]
pub struct ViewBinIter<'a> {
    /// Unconsumed byte region (front and back cursors share it).
    bytes: &'a [u8],
    /// Bins not yet yielded from either end.
    remaining: usize,
    /// Index of the most recently yielded front bin.
    front_index: i64,
    front_started: bool,
    /// Index of the next bin the back cursor will yield.
    back_index: i64,
}

impl ViewBinIter<'_> {
    /// Decoding is infallible here because [`SketchView::parse`] already
    /// validated every varint in the region.
    #[inline]
    fn expect_varint(bytes: &[u8], pos: &mut usize) -> u64 {
        scan_varint(bytes, pos).expect("bin region validated by SketchView::parse")
    }
}

impl Iterator for ViewBinIter<'_> {
    type Item = (i32, u64);

    #[inline]
    fn next(&mut self) -> Option<(i32, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let mut pos = 0usize;
        let idx = if self.front_started {
            self.front_index + Self::expect_varint(self.bytes, &mut pos) as i64 + 1
        } else {
            self.front_started = true;
            unzigzag(Self::expect_varint(self.bytes, &mut pos))
        };
        let count = Self::expect_varint(self.bytes, &mut pos);
        self.bytes = &self.bytes[pos..];
        self.front_index = idx;
        self.remaining -= 1;
        Some((idx as i32, count))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl DoubleEndedIterator for ViewBinIter<'_> {
    fn next_back(&mut self) -> Option<(i32, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let (rest, count) = rsplit_varint(self.bytes);
        let (rest, delta) = rsplit_varint(rest);
        let idx = self.back_index;
        self.bytes = rest;
        self.remaining -= 1;
        if self.remaining > 0 {
            // The consumed bin still has a predecessor, so `delta` was its
            // gap; when it was bin 0, `delta` was the zigzag'd first index
            // and there is nothing left to track.
            self.back_index = idx - delta as i64 - 1;
        }
        Some((idx as i32, count))
    }
}

impl ExactSizeIterator for ViewBinIter<'_> {}

/// Forward-only iterator over a view's `(index, count)` bins with **f64**
/// counts — the dialect-agnostic weighted walk: integer-dialect counts
/// are widened to `f64`, `DDS3` counts decode natively.
///
/// Forward-only by necessity: the `DDS3` escape encoding embeds 8 raw
/// `f64` bytes whose bit patterns are opaque to the LEB128 boundary scan
/// that makes [`ViewBinIter`] double-ended. Descending walks over
/// weighted payloads materialize into a [`crate::WeightedSketchPayload`]
/// instead.
#[derive(Debug, Clone)]
pub struct WeightedViewBinIter<'a> {
    /// Whether counts decode as `DDS3` weighted counts (vs plain varints).
    weighted: bool,
    bytes: &'a [u8],
    remaining: usize,
    front_index: i64,
    front_started: bool,
}

impl Iterator for WeightedViewBinIter<'_> {
    type Item = (i32, f64);

    #[inline]
    fn next(&mut self) -> Option<(i32, f64)> {
        if self.remaining == 0 {
            return None;
        }
        let mut pos = 0usize;
        let idx = if self.front_started {
            self.front_index + ViewBinIter::expect_varint(self.bytes, &mut pos) as i64 + 1
        } else {
            self.front_started = true;
            unzigzag(ViewBinIter::expect_varint(self.bytes, &mut pos))
        };
        let count = if self.weighted {
            BinSection::expect_weighted(self.bytes, &mut pos)
        } else {
            ViewBinIter::expect_varint(self.bytes, &mut pos) as f64
        };
        self.bytes = &self.bytes[pos..];
        self.front_index = idx;
        self.remaining -= 1;
        Some((idx as i32, count))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for WeightedViewBinIter<'_> {}

/// Everything [`SketchView::parse`] computed, detached from the borrow.
#[derive(Debug, Clone, Copy)]
struct ViewMeta {
    config: SketchConfig,
    /// Whether the payload is a `DDS3` weighted frame (f64 counts).
    weighted: bool,
    /// Exact integer totals for the `DDS1`/`DDS2` dialects; zero for
    /// weighted frames (whose totals live in the `f*` fields).
    zero_count: u64,
    count: u64,
    /// `f64` totals: exact for weighted frames, a rounding of the exact
    /// integer totals otherwise.
    fzero: f64,
    fcount: f64,
    min: f64,
    max: f64,
    sum: f64,
    positive: BinSection,
    negative: BinSection,
}

/// A borrowed, validated, zero-allocation view over encoded `DDS2` (or
/// legacy `DDS1`) sketch bytes.
///
/// [`SketchView::parse`] makes exactly one forward pass over the buffer:
/// it checks the magic, header, and every bin varint (strictly ascending
/// indices, non-zero counts, no overflow, no trailing garbage) and
/// records per-store summaries — after which every accessor is O(1) and
/// every bin walk is a cursor over the borrowed bytes. No store is ever
/// constructed; `Copy`ing a view copies a slice and a few scalars.
///
/// The view's lifetime is the byte buffer's: a view never outlives (or
/// copies) the frame it was parsed from, which is what makes it safe to
/// hand out walks over a network buffer that will be reused for the next
/// payload — the borrow checker pins the buffer for as long as any walk
/// is live. Callers that *retain* frames can detach the parse result
/// with [`SketchView::meta`] and rebind it in O(1) with
/// [`SketchViewMeta::bind`].
///
/// Views of legacy `DDS1` payloads carry the store family **guess**
/// documented in [`crate::codec`] (bounded ⇒ collapsing-dense, unbounded
/// ⇒ dense); parse `DDS2` producers to avoid the ambiguity.
#[derive(Debug, Clone, Copy)]
pub struct SketchView<'a> {
    frame: &'a [u8],
    meta: ViewMeta,
}

impl<'a> SketchView<'a> {
    /// Validate `bytes` and borrow a view over them.
    ///
    /// # Errors
    ///
    /// [`SketchError::Malformed`] for structural corruption (bad magic,
    /// truncation, hostile length claims, non-ascending or zero-count
    /// bins, a summary inconsistent with the counts, trailing garbage)
    /// and [`SketchError::Decode`]/[`SketchError::InvalidConfig`] for
    /// structurally-valid payloads whose header names an unknown or
    /// unsupported configuration.
    pub fn parse(frame: &'a [u8]) -> Result<Self, SketchError> {
        let mut header = frame;
        let buf = &mut header;
        if buf.remaining() < 4 {
            return Err(SketchError::Malformed("bad magic".into()));
        }
        let (v1, weighted) = match &buf[..4] {
            m if m == MAGIC => (false, false),
            m if m == MAGIC_V1 => (true, false),
            m if m == MAGIC_V3 => (false, true),
            _ => return Err(SketchError::Malformed("bad magic".into())),
        };
        buf.advance(4);
        if !buf.has_remaining() {
            return Err(SketchError::Malformed("truncated header".into()));
        }
        let mapping = MappingKind::from_u8(buf.get_u8())?;
        let store = if v1 {
            None
        } else {
            if !buf.has_remaining() {
                return Err(SketchError::Malformed("truncated header".into()));
            }
            Some(StoreKind::from_u8(buf.get_u8())?)
        };
        if buf.remaining() < 8 {
            return Err(SketchError::Malformed("truncated header".into()));
        }
        let alpha = buf.get_f64_le();
        let bin_limit = get_varint(buf)?;
        let store = store.unwrap_or(if bin_limit > 0 {
            // The documented DDS1 heuristic; see the module docs.
            StoreKind::CollapsingDense
        } else {
            StoreKind::Unbounded
        });
        let (zero_count, fzero) = if weighted {
            let mut pos = frame.len() - buf.len();
            let z = scan_weighted_count(frame, &mut pos)?;
            if !z.is_finite() || z < 0.0 {
                return Err(SketchError::Malformed(format!(
                    "weighted zero-bucket count {z} is not a finite non-negative value"
                )));
            }
            buf.advance(pos - (frame.len() - buf.len()));
            (0, z)
        } else {
            let z = get_varint(buf)?;
            (z, z as f64)
        };
        if buf.remaining() < 24 {
            return Err(SketchError::Malformed("truncated summary".into()));
        }
        let min = buf.get_f64_le();
        let max = buf.get_f64_le();
        let sum = buf.get_f64_le();
        let mut pos = frame.len() - buf.len();
        let (positive, negative) = if weighted {
            let p = BinSection::parse_weighted(frame, &mut pos)?;
            let n = BinSection::parse_weighted(frame, &mut pos)?;
            (p, n)
        } else {
            let p = BinSection::parse(frame, &mut pos)?;
            let n = BinSection::parse(frame, &mut pos)?;
            (p, n)
        };
        if pos != frame.len() {
            return Err(SketchError::Malformed(format!(
                "{} trailing bytes after the negative store",
                frame.len() - pos
            )));
        }
        let config = SketchConfig {
            alpha,
            mapping,
            store,
            max_bins: usize::try_from(bin_limit)
                .map_err(|_| SketchError::Malformed("bin limit exceeds usize".into()))?,
        };
        // Every view must name a configuration a sketch could actually be
        // built with (same contract as `AnyDDSketch::decode`), so callers
        // can rely on `config().build()` succeeding.
        config.validate()?;
        // Same dense-growth ceiling as the payload decoder (the two
        // readers must accept exactly the same payloads).
        super::validate_dense_growth(store, bin_limit, positive.span(), negative.span())?;
        let (count, fcount) = if weighted {
            let fcount = fzero + positive.ftotal + negative.ftotal;
            if !fcount.is_finite() {
                return Err(SketchError::Malformed("total count overflow".into()));
            }
            (0, fcount)
        } else {
            let count = zero_count
                .checked_add(positive.total)
                .and_then(|c| c.checked_add(negative.total))
                .ok_or_else(|| SketchError::Malformed("total count overflow".into()))?;
            (count, count as f64)
        };
        // Same consistency rule as `codec::validate_summary`: the two
        // readers must accept exactly the same payloads.
        let empty = if weighted { fcount == 0.0 } else { count == 0 };
        let consistent = if empty {
            min == f64::INFINITY && max == f64::NEG_INFINITY && sum == 0.0
        } else {
            min.is_finite() && max.is_finite() && min <= max && !sum.is_nan()
        };
        if !consistent {
            return Err(SketchError::Malformed(format!(
                "summary (min {min}, max {max}, sum {sum}) is inconsistent with count {fcount}"
            )));
        }
        Ok(Self {
            frame,
            meta: ViewMeta {
                config,
                weighted,
                zero_count,
                count,
                fzero,
                fcount,
                min,
                max,
                sum,
                positive,
                negative,
            },
        })
    }

    /// Detach the parse result from the borrow, so a caller retaining the
    /// frame bytes can rebind later in O(1) — see [`SketchViewMeta`].
    pub fn meta(&self) -> SketchViewMeta {
        SketchViewMeta {
            meta: self.meta,
            frame_len: self.frame.len(),
        }
    }

    /// The runtime configuration this payload was produced with (for
    /// `DDS1` bytes, the documented store-family guess).
    pub fn config(&self) -> SketchConfig {
        self.meta.config
    }

    /// Mapping family of the encoded sketch.
    pub fn mapping_kind(&self) -> MappingKind {
        self.meta.config.mapping
    }

    /// Store family of the encoded sketch.
    pub fn store_kind(&self) -> StoreKind {
        self.meta.config.store
    }

    /// The relative accuracy `α` the producer ran with.
    pub fn relative_accuracy(&self) -> f64 {
        self.meta.config.alpha
    }

    /// The producer's bucket limit, if its store family is bounded.
    pub fn bin_limit(&self) -> Option<usize> {
        (self.meta.config.max_bins > 0).then_some(self.meta.config.max_bins)
    }

    /// Whether this is a `DDS3` weighted frame (`f64` counts). Weighted
    /// views only join the weighted merge plane; the integer accessors
    /// ([`SketchView::count`], [`SketchView::positive_bins`], …) are
    /// reserved for the `DDS1`/`DDS2` dialects.
    pub fn is_weighted(&self) -> bool {
        self.meta.weighted
    }

    /// Total number of encoded occurrences (integer dialects; zero for
    /// weighted frames — use [`SketchView::weighted_count`]).
    pub fn count(&self) -> u64 {
        self.meta.count
    }

    /// Total encoded weight as an `f64`: exact for `DDS3` frames, the
    /// rounded integer total for `DDS1`/`DDS2`.
    pub fn weighted_count(&self) -> f64 {
        self.meta.fcount
    }

    /// Whether the payload holds no data.
    pub fn is_empty(&self) -> bool {
        self.meta.fcount == 0.0
    }

    /// Count of values in the exact zero bucket (integer dialects; zero
    /// for weighted frames — use [`SketchView::weighted_zero_count`]).
    pub fn zero_count(&self) -> u64 {
        self.meta.zero_count
    }

    /// Weight in the exact zero bucket as an `f64` (all dialects).
    pub fn weighted_zero_count(&self) -> f64 {
        self.meta.fzero
    }

    /// The tracked minimum, `None` when empty — same contract as
    /// [`crate::DDSketch::min`].
    pub fn min(&self) -> Option<f64> {
        (self.meta.fcount > 0.0).then_some(self.meta.min)
    }

    /// The tracked maximum, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.meta.fcount > 0.0).then_some(self.meta.max)
    }

    /// Exact sum of the encoded values.
    pub fn sum(&self) -> f64 {
        self.meta.sum
    }

    /// Exact mean, or `None` if empty.
    pub fn average(&self) -> Option<f64> {
        (self.meta.fcount > 0.0).then(|| self.meta.sum / self.meta.fcount)
    }

    /// Number of non-empty buckets across both stores plus the zero
    /// bucket, mirroring [`crate::DDSketch::num_bins`].
    pub fn num_bins(&self) -> usize {
        self.meta.positive.bins + self.meta.negative.bins + usize::from(self.meta.zero_count > 0)
    }

    /// Walk the positive store's bins in ascending index order.
    ///
    /// # Panics
    ///
    /// On a `DDS3` weighted view, whose counts are not integers — use
    /// [`SketchView::weighted_positive_bins`] instead (callers route on
    /// [`SketchView::is_weighted`]).
    pub fn positive_bins(&self) -> ViewBinIter<'a> {
        assert!(
            !self.meta.weighted,
            "integer bin walk over a DDS3 weighted payload; use weighted_positive_bins"
        );
        self.meta.positive.iter(self.frame)
    }

    /// Walk the negative store's bins in ascending `|x|`-index order.
    ///
    /// # Panics
    ///
    /// On a `DDS3` weighted view; see [`SketchView::positive_bins`].
    pub fn negative_bins(&self) -> ViewBinIter<'a> {
        assert!(
            !self.meta.weighted,
            "integer bin walk over a DDS3 weighted payload; use weighted_negative_bins"
        );
        self.meta.negative.iter(self.frame)
    }

    /// Walk the positive store's bins with `f64` counts, ascending —
    /// works on every dialect (integer counts are widened).
    pub fn weighted_positive_bins(&self) -> WeightedViewBinIter<'a> {
        self.meta
            .positive
            .weighted_iter(self.frame, self.meta.weighted)
    }

    /// Walk the negative store's bins with `f64` counts, ascending
    /// `|x|`-index order — every dialect.
    pub fn weighted_negative_bins(&self) -> WeightedViewBinIter<'a> {
        self.meta
            .negative
            .weighted_iter(self.frame, self.meta.weighted)
    }

    /// Bulk-decode the positive store's bins with `f64` counts onto
    /// `out` (appended) — the weighted fold path, every dialect.
    pub(crate) fn append_weighted_positive_bins(&self, out: &mut Vec<(i32, f64)>) {
        if self.meta.weighted {
            self.meta.positive.append_weighted_to(self.frame, out);
        } else {
            out.extend(self.meta.positive.weighted_iter(self.frame, false));
        }
    }

    /// Bulk-decode the negative store's bins with `f64` counts onto `out`.
    pub(crate) fn append_weighted_negative_bins(&self, out: &mut Vec<(i32, f64)>) {
        if self.meta.weighted {
            self.meta.negative.append_weighted_to(self.frame, out);
        } else {
            out.extend(self.meta.negative.weighted_iter(self.frame, false));
        }
    }

    pub(crate) fn negative_section(&self) -> BinSection {
        self.meta.negative
    }

    /// Bulk-decode the positive store's bins onto `out`; see
    /// [`BinSection::append_to`].
    pub(crate) fn append_positive_bins(&self, out: &mut Vec<(i32, u64)>) {
        self.meta.positive.append_to(self.frame, out);
    }

    /// Bulk-decode the negative store's bins onto `out`.
    pub(crate) fn append_negative_bins(&self, out: &mut Vec<(i32, u64)>) {
        self.meta.negative.append_to(self.frame, out);
    }

    /// Raw min/max/sum (empty-state sentinels included), for the merge
    /// plane's accumulation passes.
    pub(crate) fn raw_summary(&self) -> (f64, f64, f64) {
        (self.meta.min, self.meta.max, self.meta.sum)
    }

    /// Estimate the q-quantile straight off the encoded bytes —
    /// bit-identical to decoding the payload and calling
    /// [`crate::DDSketch::quantile`] (property-tested across every
    /// configuration), with no store ever built.
    pub fn quantile(&self, q: f64) -> Result<f64, SketchError> {
        Ok(self.quantiles(std::slice::from_ref(&q))?[0])
    }

    /// Estimate several quantiles in one double-cursor walk; see
    /// [`SketchView::quantile`].
    pub fn quantiles(&self, qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        let mut out = Vec::with_capacity(qs.len());
        let mut scratch = super::source::SourceQuantileScratch::default();
        self.quantiles_into(qs, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`SketchView::quantiles`] into caller-owned buffers: with `scratch`
    /// and `out` reused across calls the walk allocates nothing.
    pub fn quantiles_into(
        &self,
        qs: &[f64],
        scratch: &mut super::source::SourceQuantileScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError> {
        crate::AnyDDSketch::merged_quantiles_sources(
            std::iter::once(super::source::SketchSource::View(*self)),
            qs,
            scratch,
            out,
        )
    }
}

/// A [`SketchView`]'s parse result with the borrow replaced by offsets:
/// `Copy`, lifetime-free, and rebindable to the original frame bytes in
/// O(1) via [`SketchViewMeta::bind`] — no varint is ever re-validated.
///
/// This is the "parse once, read many" contract for callers that retain
/// frames (the pipeline's `Aggregator` keeps pending payload bytes and a
/// meta per frame; every fold and every query rebinds instead of
/// rescanning). `bind` checks that the buffer has the meta's recorded
/// length and rejects others, but it cannot prove byte-for-byte identity
/// — binding a *different* equal-length buffer yields garbage estimates
/// or a panic from the bin walk (never memory unsafety). Keep metas next
/// to the frames they came from.
#[derive(Debug, Clone, Copy)]
pub struct SketchViewMeta {
    meta: ViewMeta,
    frame_len: usize,
}

impl SketchViewMeta {
    /// Rebind to the frame this meta was parsed from.
    pub fn bind<'a>(&self, frame: &'a [u8]) -> Result<SketchView<'a>, SketchError> {
        if frame.len() != self.frame_len {
            return Err(SketchError::Malformed(format!(
                "meta was parsed from a {}-byte frame, got {} bytes",
                self.frame_len,
                frame.len()
            )));
        }
        Ok(SketchView {
            frame,
            meta: self.meta,
        })
    }

    /// The runtime configuration recorded at parse time.
    pub fn config(&self) -> SketchConfig {
        self.meta.config
    }

    /// Total number of encoded occurrences recorded at parse time.
    pub fn count(&self) -> u64 {
        self.meta.count
    }
}
