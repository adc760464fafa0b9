//! The wire plane: compact binary codec, borrowed views, mixed-source
//! merges, and frame streams.
//!
//! DDSketch is designed for agents that ship sketches to a central
//! monitoring system every few seconds (paper Figure 1), so the codec is
//! built for the *aggregator's* economics, not just the producer's:
//!
//! * [`SketchPayloadOf`] + [`AnyDDSketchOf::decode`] — the materializing
//!   path: reconstruct a full sketch from bytes (self-describing, no
//!   caller-side type knowledge), on either count plane.
//! * [`SketchView`] — the decode-free path: a validated, zero-allocation
//!   **borrowed view** over the bytes exposing the same header accessors
//!   and bin walks as a live sketch. Views join the merge plane through
//!   [`SketchSource`], so an aggregator answers p50/p99 over N payloads
//!   and folds payloads into a resident sketch without materializing a
//!   single intermediate sketch.
//! * [`FrameWriter`] / [`FrameReader`] — a length-prefixed frame stream
//!   for batching many payloads per connection or file (and the substrate
//!   of the pipeline's `TimeSeriesStore` checkpoints).
//!
//! ## The `DDS2` payload layout
//!
//! | field | encoding |
//! |-------|----------|
//! | magic | 4 bytes `"DDS2"` |
//! | kind | u8 mapping family ([`MappingKind`]) |
//! | store | u8 store family ([`StoreKind`]) |
//! | alpha | f64 LE relative accuracy |
//! | limit | varint bucket limit (0 = unbounded) |
//! | zero | varint zero-bucket count |
//! | min, max, sum | 3 × f64 LE (empty state: `+∞`, `−∞`, `0`) |
//! | positive | bin section (below) |
//! | negative | bin section |
//!
//! A bin section is `varint n`, then — if `n > 0` —
//! `zigzag-varint first_index`, and `n` counts interleaved with `n − 1`
//! gaps (`gap = index_delta − 1`; indices are strictly ascending), all
//! LEB128 varints. A warm sketch with mostly small dense counts costs
//! ~2 bytes per non-empty bucket.
//!
//! ## The `DDS3` weighted payload layout
//!
//! | field | encoding |
//! |-------|----------|
//! | magic | 4 bytes `"DDS3"` |
//! | kind | u8 mapping family ([`MappingKind`]) |
//! | store | u8 store family ([`StoreKind`]) |
//! | alpha | f64 LE relative accuracy |
//! | limit | varint bucket limit (0 = unbounded) |
//! | zero | **weighted count** zero-bucket weight |
//! | min, max, sum | 3 × f64 LE (empty state: `+∞`, `−∞`, `0`) |
//! | positive | weighted bin section |
//! | negative | weighted bin section |
//!
//! `DDS3` is `DDS2` with every count generalized to `f64`. A *weighted
//! count* is one varint tag `v`: even `v` means the integral count
//! `v >> 1` (so integer-weight payloads cost exactly what `DDS2` charges,
//! plus nothing); `v == 1` escapes to 8 raw little-endian `f64` bytes;
//! odd `v > 1` is reserved and rejected. Weighted bin sections use the
//! same strictly-ascending delta-coded indices as the integer layout with
//! weighted counts in place of varint counts. Bin weights must be finite
//! and strictly positive, the zero-bucket weight finite and non-negative,
//! and every per-section and whole-payload total finite — NaN, infinite,
//! and negative counts are structural corruption
//! ([`SketchError::Malformed`]), enforced identically by
//! [`SketchView::parse`] and the weighted payload decoder. Because the
//! escape's raw `f64` bytes are opaque to LEB128 boundary recovery,
//! weighted bin walks are **forward-only** (descending walks materialize
//! through a scratch buffer).
//!
//! One plain-data payload type, [`SketchPayloadOf<C>`], carries both
//! dialects; its count type picks the dialect through [`CountPlane`]. The
//! integer instantiation [`SketchPayload`] encodes `DDS2` and decodes
//! `DDS1`/`DDS2` with a fused varint decoder, deliberately rejecting
//! `DDS3` (integer receivers cannot hold fractional weights). The weighted
//! instantiation [`WeightedSketchPayload`] encodes `DDS3` and decodes all
//! three dialects (integer counts widen exactly) as a [`SketchView::parse`]
//! plus a bulk bin transfer, so its acceptance set is the view's by
//! construction. [`AnyDDSketchOf::decode`] and [`AnyDDSketchOf::encode`]
//! follow the same split for the [`AnyDDSketch`] and
//! [`AnyWeightedDDSketch`] instantiations.
//!
//! Decoders never trust a declared length: bin counts are clamped against
//! the bytes actually present before any allocation, dense-store growth
//! (bucket-index span, bucket limit) is capped by
//! [`MAX_DECODE_DENSE_SPAN`] before any store exists, and structural
//! corruption (truncation, overflow, trailing garbage after the negative
//! store) fails with [`SketchError::Malformed`] rather than panicking or
//! ballooning memory.
//!
//! ## View lifetimes
//!
//! A [`SketchView`] borrows the buffer it was parsed from — `SketchView:
//! 'a` where the bytes are `&'a [u8]` — and so does every
//! [`view::ViewBinIter`] it hands out. Nothing is copied: receiving code
//! can parse a network buffer, answer quantiles over it, fold it into a
//! resident sketch, and only then reuse the buffer for the next payload;
//! the borrow checker enforces that ordering. Views are `Copy` (two
//! slices and a few scalars).
//!
//! ## Frame-stream layout
//!
//! A frame stream is `"DDSF"`, a version byte (`1`), then frames:
//! `varint length` + `length` payload bytes, ending at clean EOF. The
//! framing is payload-agnostic — sketch payloads, checkpoint cells, or
//! any other blob — and the reader clamps declared lengths against a
//! configurable ceiling before allocating.
//!
//! ## Legacy `DDS1` payloads
//!
//! The v1 format lacked the `store` byte, so the store family must be
//! **guessed** from the bucket limit: `limit > 0` is read as collapsing
//! dense stores (the only bounded v1 producers in practice were the
//! bounded/fast presets) and `limit == 0` as unbounded dense stores. The
//! guess is documented rather than reliable — v1 payloads from the sparse
//! preset are literally indistinguishable from unbounded ones (both
//! encoded `limit == 0`), and bounded v1 payloads from the paper-exact
//! preset decode as collapsing-dense. Callers who *know* their producer
//! can override the guess with [`AnyDDSketch::decode_v1_as`]; `DDS2`
//! exists precisely to close the ambiguity. Decoders accept both formats,
//! encoders only emit v2.

pub mod frame;
pub mod source;
pub mod varint;
pub mod view;

pub use frame::{
    FrameDecoder, FrameReader, FrameWriter, DEFAULT_MAX_FRAME_LEN, FRAME_STREAM_VERSION,
};
pub use source::{SketchSource, SourceQuantileScratch};
pub use view::{SketchView, SketchViewMeta, ViewBinIter, WeightedViewBinIter};

use bytes::{Buf, BufMut};

use crate::any::{dispatch, AnyDDSketch, AnyDDSketchOf, AnyWeightedDDSketch};
use crate::config::SketchConfig;
use crate::mapping::{IndexMapping, MappingKind};
use crate::presets::{
    BoundedDDSketch, FastDDSketch, PaperExactDDSketch, SparseDDSketch, UnboundedDDSketch,
};
use crate::sketch::DDSketch;
use crate::store::{Count, PlainCell, Store, StoreKind};
use sketch_core::SketchError;
use varint::{get_varint, put_varint, unzigzag, zigzag};

pub(crate) const MAGIC_V1: &[u8; 4] = b"DDS1";
pub(crate) const MAGIC: &[u8; 4] = b"DDS2";
pub(crate) const MAGIC_V3: &[u8; 4] = b"DDS3";

/// Mapping-agnostic serializable snapshot of a sketch's state, counting
/// in `C`. Use the [`SketchPayload`] (`u64`, the `DDS2` dialect) and
/// [`WeightedSketchPayload`] (`f64`, the `DDS3` dialect) names.
///
/// Any `DDSketch` converts to a payload with [`DDSketch::to_payload`], and
/// each preset converts back via its `from_payload` constructor — or, when
/// the concrete type is only known at runtime, via
/// [`AnyDDSketchOf::from_payload`], which dispatches on the mapping and
/// store discriminants. (The offline build has no `serde`; the plain-data
/// payload struct is the integration point where a serde derive would go.)
///
/// The payload materializes both bin vectors; when the bytes only need to
/// be *read* — merged, queried, forwarded — prefer [`SketchView`], which
/// borrows them in place.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchPayloadOf<C> {
    /// Mapping family discriminant ([`MappingKind`] as u8).
    pub kind: u8,
    /// Store family discriminant ([`StoreKind`] as u8). For payloads read
    /// from legacy `DDS1` bytes this is a documented guess (see the module
    /// docs), not ground truth.
    pub store: u8,
    /// Relative accuracy α.
    pub relative_accuracy: f64,
    /// Bucket limit of the positive store; 0 means unbounded.
    pub bin_limit: u64,
    /// Exact zero-bucket count (weight: finite, ≥ 0).
    pub zero_count: C,
    /// Tracked minimum (`+∞` when empty).
    pub min: f64,
    /// Tracked maximum (`−∞` when empty).
    pub max: f64,
    /// Exact (weighted) sum of inserted values.
    pub sum: f64,
    /// Positive-store bins, ascending index; counts non-zero (weights
    /// finite and > 0).
    pub positive: Vec<(i32, C)>,
    /// Negative-store bins, ascending index (of |x|).
    pub negative: Vec<(i32, C)>,
}

/// The integer payload: what `DDS1`/`DDS2` bytes decode into.
pub type SketchPayload = SketchPayloadOf<u64>;

/// The weighted payload: `DDS3` bytes, and integer dialects widened.
pub type WeightedSketchPayload = SketchPayloadOf<f64>;

/// A count type the runtime layers are instantiated over — `u64` (the
/// paper's integer plane) or `f64` (the weighted plane). Everything the two
/// planes share is written once over this bound; its items are the few
/// operations whose algorithm really differs by count type: the wire
/// dialect each plane speaks, and how staged payloads join a resident
/// sketch.
pub trait CountPlane: PlainCell {
    /// Whether [`CountPlane::merged_quantiles_into`] walks staged payloads
    /// in place (the integer plane's [`SketchSource`] rank walk). Without
    /// one, a staged payload joins a query only through a fold, so
    /// receivers fold before they read.
    const WALKS_PAYLOADS: bool;

    /// Whether `count` may stand in a payload's bin section. Weighted bins
    /// must be finite and strictly positive. Every integer count passes:
    /// the integer decoders reject zero-count bins at the byte boundary,
    /// and the payload checks on that plane's decode, absorb, and fold
    /// paths pay nothing per bin.
    fn valid_bin(count: Self) -> bool;

    /// Serialize in the plane's dialect: `DDS2` for `u64`, `DDS3` for
    /// `f64`.
    fn encode(payload: &SketchPayloadOf<Self>) -> Vec<u8>;

    /// Decode `bytes` into `payload`, reusing its bin vectors' capacity.
    /// The integer plane runs the fused varint decoder over `DDS1`/`DDS2`
    /// (rejecting `DDS3`: integer receivers cannot hold fractional
    /// weights); the weighted plane accepts all three dialects through the
    /// view parser. On error, `payload`'s contents are unspecified.
    fn decode_into(payload: &mut SketchPayloadOf<Self>, bytes: &[u8]) -> Result<(), SketchError>;

    /// Fold admitted payloads into `resident`, in order: one bulk
    /// `add_bins` pass per store per payload.
    fn fold(
        resident: &mut AnyDDSketchOf<Self>,
        payloads: &[SketchPayloadOf<Self>],
    ) -> Result<(), SketchError>;

    /// Quantiles of `resident` ∪ `payloads` into `out`.
    fn merged_quantiles_into(
        resident: &AnyDDSketchOf<Self>,
        payloads: &[SketchPayloadOf<Self>],
        qs: &[f64],
        scratch: &mut SourceQuantileScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError>;
}

impl CountPlane for u64 {
    const WALKS_PAYLOADS: bool = true;

    #[inline(always)]
    fn valid_bin(_: u64) -> bool {
        true
    }

    fn encode(payload: &SketchPayload) -> Vec<u8> {
        encode_with(payload, MAGIC, put_varint)
    }

    fn decode_into(payload: &mut SketchPayload, bytes: &[u8]) -> Result<(), SketchError> {
        payload.decode_inner_into(bytes, None)
    }

    fn fold(resident: &mut AnyDDSketch, payloads: &[SketchPayload]) -> Result<(), SketchError> {
        resident.merge_sources(payloads.iter().map(SketchSource::Payload))
    }

    fn merged_quantiles_into(
        resident: &AnyDDSketch,
        payloads: &[SketchPayload],
        qs: &[f64],
        scratch: &mut SourceQuantileScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError> {
        let sources = std::iter::once(SketchSource::Live(resident))
            .chain(payloads.iter().map(SketchSource::Payload));
        AnyDDSketch::merged_quantiles_sources(sources, qs, scratch, out)
    }
}

impl CountPlane for f64 {
    const WALKS_PAYLOADS: bool = false;

    #[inline(always)]
    fn valid_bin(count: f64) -> bool {
        count.is_finite() && count > 0.0
    }

    fn encode(payload: &WeightedSketchPayload) -> Vec<u8> {
        encode_with(payload, MAGIC_V3, varint::put_weighted_count)
    }

    /// The acceptance set is *identical* to [`SketchView::parse`] by
    /// construction — a view parse plus a bulk bin transfer — keeping the
    /// borrowed and owned weighted readers in lockstep.
    fn decode_into(payload: &mut WeightedSketchPayload, bytes: &[u8]) -> Result<(), SketchError> {
        let view = SketchView::parse(bytes)?;
        payload.fill_from_view(&view);
        Ok(())
    }

    fn fold(
        resident: &mut AnyWeightedDDSketch,
        payloads: &[WeightedSketchPayload],
    ) -> Result<(), SketchError> {
        payloads.iter().try_for_each(|p| resident.merge_payload(p))
    }

    /// Answers from `resident` alone when nothing is staged (the
    /// allocation-free path); otherwise folds the payloads into a copy.
    fn merged_quantiles_into(
        resident: &AnyWeightedDDSketch,
        payloads: &[WeightedSketchPayload],
        qs: &[f64],
        _scratch: &mut SourceQuantileScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError> {
        if payloads.is_empty() {
            return resident.quantiles_into(qs, out);
        }
        let mut union = resident.clone();
        Self::fold(&mut union, payloads)?;
        union.quantiles_into(qs, out)
    }
}

/// Lay out a payload — magic, header, zero count, summary, both bin
/// sections — writing every count with `put_count`, the one thing the
/// `DDS2` and `DDS3` layouts disagree on.
fn encode_with<C: Copy>(
    payload: &SketchPayloadOf<C>,
    magic: &[u8; 4],
    put_count: impl Fn(&mut Vec<u8>, C),
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + 4 * (payload.positive.len() + payload.negative.len()));
    buf.put_slice(magic);
    buf.put_u8(payload.kind);
    buf.put_u8(payload.store);
    buf.put_f64_le(payload.relative_accuracy);
    put_varint(&mut buf, payload.bin_limit);
    put_count(&mut buf, payload.zero_count);
    buf.put_f64_le(payload.min);
    buf.put_f64_le(payload.max);
    buf.put_f64_le(payload.sum);
    put_bins(&mut buf, &payload.positive, &put_count);
    put_bins(&mut buf, &payload.negative, &put_count);
    buf
}

fn put_bins<C: Copy>(buf: &mut Vec<u8>, bins: &[(i32, C)], put_count: &impl Fn(&mut Vec<u8>, C)) {
    put_varint(buf, bins.len() as u64);
    let mut prev: Option<i32> = None;
    for &(idx, count) in bins {
        match prev {
            None => put_varint(buf, zigzag(idx as i64)),
            Some(p) => {
                debug_assert!(idx > p, "bins must be strictly ascending");
                put_varint(buf, (idx as i64 - p as i64 - 1) as u64);
            }
        }
        put_count(buf, count);
        prev = Some(idx);
    }
}

/// Decode one bin section into `out` (cleared first, capacity reused).
///
/// Runs on the cursor-based fast scanner: this is the aggregator's
/// per-received-frame hot loop.
fn get_bins_into(buf: &mut &[u8], out: &mut Vec<(i32, u64)>) -> Result<(), SketchError> {
    use varint::scan_varint;
    out.clear();
    let bytes = *buf;
    let mut pos = 0usize;
    let n = scan_varint(bytes, &mut pos)?;
    // Each bin needs at least 2 bytes (index-or-gap varint + count
    // varint); clamp the declared length against the bytes actually
    // remaining **before** allocating, so hostile payloads cannot request
    // huge vectors.
    let n = usize::try_from(n)
        .ok()
        .filter(|n| {
            n.checked_mul(2)
                .is_some_and(|floor| floor <= bytes.len() - pos)
        })
        .ok_or_else(|| SketchError::Malformed(format!("bin count {n} exceeds payload size")))?;
    out.reserve(n);
    if n > 0 {
        // First bin peeled: absolute zigzag index instead of a gap.
        let mut idx = unzigzag(scan_varint(bytes, &mut pos)?);
        if idx < i64::from(i32::MIN) || idx > i64::from(i32::MAX) {
            return Err(SketchError::Malformed(format!(
                "bin index {idx} out of i32 range"
            )));
        }
        let count = scan_varint(bytes, &mut pos)?;
        if count == 0 {
            return Err(SketchError::Malformed("zero-count bin".into()));
        }
        out.push((idx as i32, count));
        for _ in 1..n {
            // Indices are strictly ascending, so after the first only the
            // upper bound can be violated.
            idx = idx
                .checked_add(scan_varint(bytes, &mut pos)? as i64)
                .and_then(|v| v.checked_add(1))
                .ok_or_else(|| SketchError::Malformed("bin index overflow".into()))?;
            if idx > i64::from(i32::MAX) {
                return Err(SketchError::Malformed(format!(
                    "bin index {idx} out of i32 range"
                )));
            }
            let count = scan_varint(bytes, &mut pos)?;
            if count == 0 {
                return Err(SketchError::Malformed("zero-count bin".into()));
            }
            out.push((idx as i32, count));
        }
    }
    *buf = &bytes[pos..];
    Ok(())
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, SketchError> {
    if buf.remaining() < 8 {
        return Err(SketchError::Malformed("truncated f64".into()));
    }
    Ok(buf.get_f64_le())
}

/// Sum of one bin section's counts (payloads cache no totals).
pub(crate) fn bins_total<C: Count>(bins: &[(i32, C)]) -> C {
    bins.iter().fold(C::ZERO, |total, &(_, c)| total + c)
}

impl<C: Count> SketchPayloadOf<C> {
    /// Whether a sketch built from `config` could merge this payload:
    /// same mapping family, same store family, same relative accuracy α
    /// (to within float-print noise). A differing `max_bins` does **not**
    /// disqualify — bucket boundaries agree and the receiver's bound
    /// governs (paper Algorithm 4) — so it is deliberately not compared.
    /// This is the shared admission predicate of every payload-staging
    /// receiver (the pipeline aggregator, the time-series store, the
    /// fleet server).
    pub fn matches_config(&self, config: &SketchConfig) -> bool {
        admits(config, self.kind, self.store, self.relative_accuracy)
    }

    /// Total count (weight) the payload carries: the zero bucket plus both
    /// bin sections.
    pub fn total(&self) -> C {
        self.zero_count + bins_total(&self.positive) + bins_total(&self.negative)
    }
}

/// The payload admission predicate behind
/// [`SketchPayloadOf::matches_config`], over raw header fields so views
/// and payloads share it.
pub(crate) fn admits(config: &SketchConfig, kind: u8, store: u8, alpha: f64) -> bool {
    kind == config.mapping as u8
        && store == config.store as u8
        && (alpha - config.alpha).abs() < 1e-12
}

impl<C: CountPlane> SketchPayloadOf<C> {
    /// Serialize to the plane's compact binary wire format (`DDS2` for
    /// integer payloads, `DDS3` for weighted ones).
    pub fn encode(&self) -> Vec<u8> {
        C::encode(self)
    }

    /// Decode from the compact binary wire format. Integer payloads accept
    /// the self-describing `DDS2` layout and legacy `DDS1` bytes (whose
    /// store family is inferred by the heuristic in the module docs);
    /// weighted payloads accept all three dialects, integer counts
    /// widened exactly.
    pub fn decode(bytes: &[u8]) -> Result<Self, SketchError> {
        let mut payload = Self::default();
        payload.decode_into(bytes)?;
        Ok(payload)
    }

    /// [`SketchPayloadOf::decode`] into `self`, reusing the bin vectors'
    /// capacity — the ingest-loop form: a receiver recycling payload
    /// buffers decodes at steady state without touching the allocator
    /// (this is how the pipeline's aggregators stage pending frames).
    ///
    /// On error, `self`'s contents are unspecified (safe to reuse for the
    /// next decode, not safe to read).
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), SketchError> {
        C::decode_into(self, bytes)
    }
}

impl SketchPayload {
    /// Decode legacy `DDS1` bytes, overriding the heuristic store-family
    /// guess with what the caller knows the producer ran.
    ///
    /// Fails with [`SketchError::Decode`] on `DDS2` bytes (their store
    /// byte is authoritative — overriding it would forge a payload) and
    /// when `store`'s boundedness contradicts the encoded bucket limit.
    pub fn decode_v1_as(store: StoreKind, bytes: &[u8]) -> Result<Self, SketchError> {
        let mut payload = Self::default();
        payload.decode_inner_into(bytes, Some(store))?;
        Ok(payload)
    }

    fn decode_inner_into(
        &mut self,
        mut bytes: &[u8],
        v1_store: Option<StoreKind>,
    ) -> Result<(), SketchError> {
        let buf = &mut bytes;
        if buf.remaining() < 4 {
            return Err(SketchError::Malformed("bad magic".into()));
        }
        let v1 = match &buf[..4] {
            m if m == MAGIC => false,
            m if m == MAGIC_V1 => true,
            _ => return Err(SketchError::Malformed("bad magic".into())),
        };
        if !v1 && v1_store.is_some() {
            return Err(SketchError::Decode(
                "decode_v1_as on a DDS2 payload: its store byte is authoritative".into(),
            ));
        }
        buf.advance(4);
        if !buf.has_remaining() {
            return Err(SketchError::Malformed("truncated header".into()));
        }
        let kind = buf.get_u8();
        MappingKind::from_u8(kind)?;
        let store = if v1 {
            // v1 carried no store byte: filled in once the bucket limit is
            // known (below). Placeholder here.
            0
        } else {
            if !buf.has_remaining() {
                return Err(SketchError::Malformed("truncated header".into()));
            }
            let store = buf.get_u8();
            StoreKind::from_u8(store)?;
            store
        };
        let relative_accuracy = get_f64(buf)?;
        let bin_limit = get_varint(buf)?;
        let store = if v1 {
            match v1_store {
                // The caller knows the producer: take its word, but hold it
                // to the limit actually encoded.
                Some(kind) => {
                    if kind.is_bounded() != (bin_limit > 0) {
                        return Err(SketchError::Decode(format!(
                            "v1 payload with bin_limit {bin_limit} cannot come from a {} store",
                            kind.name()
                        )));
                    }
                    kind as u8
                }
                // The documented v1 heuristic: bounded payloads came from
                // the collapsing dense presets, unbounded ones from the
                // dense unbounded preset (sparse payloads are
                // indistinguishable).
                None if bin_limit > 0 => StoreKind::CollapsingDense as u8,
                None => StoreKind::Unbounded as u8,
            }
        } else {
            store
        };
        let zero_count = get_varint(buf)?;
        let min = get_f64(buf)?;
        let max = get_f64(buf)?;
        let sum = get_f64(buf)?;
        get_bins_into(buf, &mut self.positive)?;
        get_bins_into(buf, &mut self.negative)?;
        if buf.has_remaining() {
            return Err(SketchError::Malformed(format!(
                "{} trailing bytes after the negative store",
                buf.remaining()
            )));
        }
        self.kind = kind;
        self.store = store;
        self.relative_accuracy = relative_accuracy;
        self.bin_limit = bin_limit;
        self.zero_count = zero_count;
        self.min = min;
        self.max = max;
        self.sum = sum;
        // Reject hostile dense growth and summaries the counts contradict
        // right at the byte boundary, matching `SketchView::parse`.
        validate_dense_growth(
            StoreKind::from_u8(store).expect("store byte validated above"),
            bin_limit,
            side_span(&self.positive),
            side_span(&self.negative),
        )?;
        validate_summary(self)
    }
}

impl WeightedSketchPayload {
    /// Populate from an already-parsed view (no further validation — the
    /// parse did it all).
    pub(crate) fn fill_from_view(&mut self, view: &SketchView<'_>) {
        let config = view.config();
        let (min, max, sum) = view.raw_summary();
        self.kind = config.mapping as u8;
        self.store = config.store as u8;
        self.relative_accuracy = config.alpha;
        self.bin_limit = config.max_bins as u64;
        self.zero_count = view.weighted_zero_count();
        self.min = min;
        self.max = max;
        self.sum = sum;
        self.positive.clear();
        self.negative.clear();
        view.append_weighted_positive_bins(&mut self.positive);
        view.append_weighted_negative_bins(&mut self.negative);
    }
}

impl<C: Count> Default for SketchPayloadOf<C> {
    /// The canonical **empty** payload (zero counts, `min = +∞`,
    /// `max = −∞`, `sum = 0`), mainly useful as a reusable buffer for
    /// [`SketchPayloadOf::decode_into`]. The configuration fields are
    /// placeholders (`kind`/`store` 0, `relative_accuracy` 0) that do not
    /// name a buildable sketch until a decode fills them.
    fn default() -> Self {
        Self {
            kind: 0,
            store: 0,
            relative_accuracy: 0.0,
            bin_limit: 0,
            zero_count: C::ZERO,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            positive: Vec::new(),
            negative: Vec::new(),
        }
    }
}

/// A payload's counts and summary must be consistent before it may become
/// (or join) a live sketch. The zero-bucket count must be *valid*
/// ([`Count::is_valid`]: a finite, non-negative weight), every bin count
/// pass [`CountPlane::valid_bin`], and the total be representable; a
/// corrupt `min > max` would make the quantile clamp
/// panic, and a non-empty summary on a zero-count payload would poison the
/// extremes of whatever it later merges into. Live encoders can only
/// produce consistent payloads, so rejection (as
/// [`SketchError::Malformed`]) never loses a real one; the [`SketchView`]
/// parser enforces the identical rules, keeping the readers in lockstep.
pub(crate) fn validate_summary<C: CountPlane>(
    payload: &SketchPayloadOf<C>,
) -> Result<(), SketchError> {
    let zero = payload.zero_count;
    if !zero.is_valid() {
        return Err(SketchError::Malformed(format!(
            "zero-bucket count {zero:?} is not finite and non-negative"
        )));
    }
    let mut count = zero;
    for &(_, c) in payload.positive.iter().chain(&payload.negative) {
        if !C::valid_bin(c) {
            return Err(SketchError::Malformed(format!(
                "bin count {c:?} is not finite and positive"
            )));
        }
        count = count
            .checked_add(c)
            .ok_or_else(|| SketchError::Malformed("total count overflow".into()))?;
    }
    let (min, max, sum) = (payload.min, payload.max, payload.sum);
    let consistent = if count == C::ZERO {
        // The canonical empty state, exactly as every encoder writes it.
        min == f64::INFINITY && max == f64::NEG_INFINITY && sum == 0.0
    } else {
        min.is_finite() && max.is_finite() && min <= max && !sum.is_nan()
    };
    if !consistent {
        return Err(SketchError::Malformed(format!(
            "summary (min {min}, max {max}, sum {sum}) is inconsistent with count {count:?}"
        )));
    }
    Ok(())
}

impl<M: IndexMapping, SP: Store, SN: Store<Count = SP::Count>> DDSketch<M, SP, SN> {
    /// Snapshot this sketch into a serializable payload.
    pub fn to_payload(&self) -> SketchPayloadOf<SP::Count> {
        SketchPayloadOf {
            kind: self.mapping().kind() as u8,
            store: self.positive_store().store_kind() as u8,
            relative_accuracy: self.mapping().relative_accuracy(),
            bin_limit: self.positive_store().bin_limit().unwrap_or(0) as u64,
            zero_count: self.zero_weight(),
            min: self.min().unwrap_or(f64::INFINITY),
            max: self.max().unwrap_or(f64::NEG_INFINITY),
            sum: self.sum(),
            positive: self.positive_store().bins_ascending(),
            negative: self.negative_store().bins_ascending(),
        }
    }

    /// Serialize to the compact binary wire format of the sketch's count
    /// plane (`DDS2` or `DDS3`).
    pub fn encode(&self) -> Vec<u8>
    where
        SP::Count: CountPlane,
    {
        self.to_payload().encode()
    }
}

impl<C: CountPlane> AnyDDSketchOf<C> {
    /// Snapshot into a serializable payload (dispatching to the wrapped
    /// preset).
    pub fn to_payload(&self) -> SketchPayloadOf<C> {
        dispatch!(self, s => s.to_payload())
    }

    /// Serialize to the self-describing wire format of the plane (`DDS2`
    /// or `DDS3`).
    pub fn encode(&self) -> Vec<u8> {
        self.to_payload().encode()
    }

    /// Reconstruct the right sketch variant from a payload — the
    /// self-describing decode path: the payload's mapping and store
    /// discriminants select the variant, so the caller needs no
    /// compile-time knowledge of what produced the bytes.
    ///
    /// The payload is validated first (counts, summary, dense growth):
    /// payloads decoded from bytes already hold these invariants, but this
    /// also accepts hand-built ones.
    pub fn from_payload(payload: &SketchPayloadOf<C>) -> Result<Self, SketchError> {
        let mapping = MappingKind::from_u8(payload.kind)?;
        let store = StoreKind::from_u8(payload.store)?;
        if store.is_bounded() != (payload.bin_limit > 0) {
            return Err(SketchError::Decode(format!(
                "{} store with bin_limit {} is inconsistent",
                store.name(),
                payload.bin_limit
            )));
        }
        source::variant_of(mapping, store)?;
        let config = SketchConfig {
            alpha: payload.relative_accuracy,
            mapping,
            store,
            max_bins: usize::try_from(payload.bin_limit)
                .map_err(|_| SketchError::Decode("bin_limit exceeds usize".into()))?,
        };
        config.validate()?;
        validate_payload(payload, store)?;
        let mut sketch = Self::new(config)?;
        sketch.load_raw(
            payload.zero_count,
            payload.min,
            payload.max,
            payload.sum,
            &payload.positive,
            &payload.negative,
        );
        Ok(sketch)
    }

    /// Decode from the plane's wire format, reconstructing whichever
    /// variant was encoded: `DDS2` (with legacy `DDS1` fallback) on the
    /// integer plane, any dialect on the weighted plane.
    pub fn decode(bytes: &[u8]) -> Result<Self, SketchError> {
        Self::from_payload(&SketchPayloadOf::decode(bytes)?)
    }

    /// Absorb one payload into this sketch without materializing a sketch
    /// for it (one bulk `add_bins` pass per store).
    ///
    /// The payload must pass [`SketchPayloadOf::matches_config`] and is
    /// re-validated here (counts, summary, dense growth): a corrupt
    /// hand-built payload must never poison a resident sketch.
    pub fn merge_payload(&mut self, payload: &SketchPayloadOf<C>) -> Result<(), SketchError> {
        let config = self.config();
        if !payload.matches_config(&config) {
            return Err(SketchError::IncompatibleMerge(format!(
                "sketch runs {config:?}, payload is (kind {}, store {}, α={})",
                payload.kind, payload.store, payload.relative_accuracy
            )));
        }
        validate_payload(payload, config.store)?;
        self.absorb_raw(
            payload.zero_count,
            payload.min,
            payload.max,
            payload.sum,
            &payload.positive,
            &payload.negative,
        );
        Ok(())
    }
}

/// [`validate_summary`] plus the [`MAX_DECODE_DENSE_SPAN`] ceiling for a
/// payload headed at a store of `kind`.
fn validate_payload<C: CountPlane>(
    payload: &SketchPayloadOf<C>,
    kind: StoreKind,
) -> Result<(), SketchError> {
    validate_summary(payload)?;
    validate_dense_growth(
        kind,
        payload.bin_limit,
        side_span(&payload.positive),
        side_span(&payload.negative),
    )
}

impl AnyDDSketch {
    /// Decode legacy `DDS1` bytes as a *known* store family, overriding
    /// the documented heuristic.
    ///
    /// v1 payloads carry no store byte, so [`AnyDDSketchOf::decode`] has
    /// to guess — and the guess is provably wrong for v1 sparse and
    /// paper-exact producers. A caller who knows what the producing fleet
    /// ran (the usual situation during a v1 → v2 migration) can pin the
    /// family here: `decode_v1_as(StoreKind::Sparse, bytes)` reconstructs
    /// the sparse variant the bytes actually came from. Fails with
    /// [`SketchError::Decode`] on `DDS2` bytes, on a family whose
    /// boundedness contradicts the encoded bucket limit, and on
    /// (mapping, store) combinations with no sketch variant.
    pub fn decode_v1_as(store: StoreKind, bytes: &[u8]) -> Result<Self, SketchError> {
        Self::from_payload(&SketchPayload::decode_v1_as(store, bytes)?)
    }
}

/// Shared reconstruction logic for the preset `from_payload`
/// implementations.
///
/// Validates the mapping discriminant and boundedness but deliberately
/// **not** the store discriminant: a caller reaching for a concrete preset
/// type has already decided the store family, and legacy `DDS1` payloads
/// only carry a guessed one (see the module docs). Runtime store dispatch
/// belongs to [`AnyDDSketchOf::from_payload`], where the byte is
/// authoritative.
fn rebuild<M: IndexMapping, SP: Store<Count = u64>, SN: Store<Count = u64>>(
    payload: &SketchPayload,
    mapping: M,
    positive: SP,
    negative: SN,
) -> Result<DDSketch<M, SP, SN>, SketchError> {
    if payload.kind != mapping.kind() as u8 {
        return Err(SketchError::Decode(format!(
            "payload mapping kind {} does not match target {:?}",
            payload.kind,
            mapping.kind()
        )));
    }
    // The *target* store family governs the growth ceiling here (preset
    // decodes deliberately ignore the payload's store byte).
    validate_payload(payload, positive.store_kind())?;
    let mut sketch = DDSketch::from_parts(mapping, positive, negative);
    sketch.load(
        payload.zero_count,
        payload.min,
        payload.max,
        payload.sum,
        &payload.positive,
        &payload.negative,
    );
    Ok(sketch)
}

/// Ceiling on the **dense-store growth** a decoded payload may demand:
/// 2²³ buckets (64 MiB of counters) per store side.
///
/// Bin *counts* are clamped against the payload's byte length, but a
/// dense store's allocation is driven by the bucket-index **span** (and,
/// for the collapsing families, the bucket limit) — two bins and a huge
/// limit in a ~40-byte payload could otherwise demand a multi-GiB
/// counter array. Every payload a real producer can emit sits far below
/// this ceiling (a span of 2²³ buckets needs α ≲ 8·10⁻⁵ over the full
/// f64 range); the sparse families, whose memory is proportional to the
/// bins actually present, are exempt.
pub const MAX_DECODE_DENSE_SPAN: u64 = 1 << 23;

/// Bucket-index span of one (ascending) bin section.
fn side_span<C>(bins: &[(i32, C)]) -> u64 {
    match (bins.first(), bins.last()) {
        (Some(&(lo, _)), Some(&(hi, _))) => (i64::from(hi) - i64::from(lo) + 1).unsigned_abs(),
        _ => 0,
    }
}

/// Enforce [`MAX_DECODE_DENSE_SPAN`] for a payload headed at a store of
/// `kind` — shared verbatim by the payload decoder, the view parser, and
/// sketch reconstruction, so the three readers accept the same payloads.
pub(crate) fn validate_dense_growth(
    kind: StoreKind,
    bin_limit: u64,
    pos_span: u64,
    neg_span: u64,
) -> Result<(), SketchError> {
    match kind {
        // A collapsing dense store never allocates beyond its limit
        // (wide spans fold), so only the limit needs the ceiling.
        StoreKind::CollapsingDense => {
            if bin_limit > MAX_DECODE_DENSE_SPAN {
                return Err(SketchError::Malformed(format!(
                    "bucket limit {bin_limit} exceeds the dense decode ceiling \
                     ({MAX_DECODE_DENSE_SPAN})"
                )));
            }
        }
        // An unbounded dense store allocates its whole index span.
        StoreKind::Unbounded => {
            let span = pos_span.max(neg_span);
            if span > MAX_DECODE_DENSE_SPAN {
                return Err(SketchError::Malformed(format!(
                    "bucket span {span} exceeds the dense decode ceiling \
                     ({MAX_DECODE_DENSE_SPAN})"
                )));
            }
        }
        // Sparse memory is proportional to the bins present, which the
        // byte-length clamp already bounds.
        StoreKind::Sparse | StoreKind::CollapsingSparse => {}
    }
    Ok(())
}

macro_rules! impl_from_payload {
    ($ty:ty, $ctor:expr, $doc:literal) => {
        impl $ty {
            #[doc = $doc]
            pub fn from_payload(payload: &SketchPayload) -> Result<Self, SketchError> {
                #[allow(clippy::redundant_closure_call)]
                ($ctor)(payload)
            }

            /// Decode from the compact binary wire format.
            pub fn decode(bytes: &[u8]) -> Result<Self, SketchError> {
                Self::from_payload(&SketchPayload::decode(bytes)?)
            }
        }
    };
}

impl_from_payload!(
    UnboundedDDSketch,
    |p: &SketchPayload| {
        rebuild(
            p,
            crate::mapping::LogarithmicMapping::new(p.relative_accuracy)?,
            crate::store::DenseStore::new(),
            crate::store::DenseStore::new(),
        )
    },
    "Reconstruct an unbounded sketch from a payload."
);

impl_from_payload!(
    BoundedDDSketch,
    |p: &SketchPayload| {
        let limit = usize::try_from(p.bin_limit)
            .ok()
            .filter(|&l| l > 0)
            .ok_or_else(|| SketchError::Decode("bounded sketch requires bin_limit > 0".into()))?;
        rebuild(
            p,
            crate::mapping::LogarithmicMapping::new(p.relative_accuracy)?,
            crate::store::CollapsingLowestDenseStore::new(limit),
            crate::store::CollapsingHighestDenseStore::new(limit),
        )
    },
    "Reconstruct a bounded (collapsing) sketch from a payload."
);

impl_from_payload!(
    FastDDSketch,
    |p: &SketchPayload| {
        let limit = usize::try_from(p.bin_limit)
            .ok()
            .filter(|&l| l > 0)
            .ok_or_else(|| SketchError::Decode("fast sketch requires bin_limit > 0".into()))?;
        rebuild(
            p,
            crate::mapping::CubicInterpolatedMapping::new(p.relative_accuracy)?,
            crate::store::CollapsingLowestDenseStore::new(limit),
            crate::store::CollapsingHighestDenseStore::new(limit),
        )
    },
    "Reconstruct a fast (cubic-mapping) sketch from a payload."
);

impl_from_payload!(
    SparseDDSketch,
    |p: &SketchPayload| {
        rebuild(
            p,
            crate::mapping::LogarithmicMapping::new(p.relative_accuracy)?,
            crate::store::SparseStore::new(),
            crate::store::SparseStore::new(),
        )
    },
    "Reconstruct a sparse sketch from a payload."
);

impl_from_payload!(
    PaperExactDDSketch,
    |p: &SketchPayload| {
        let limit = usize::try_from(p.bin_limit)
            .ok()
            .filter(|&l| l > 0)
            .ok_or_else(|| {
                SketchError::Decode("paper-exact sketch requires bin_limit > 0".into())
            })?;
        rebuild(
            p,
            crate::mapping::LogarithmicMapping::new(p.relative_accuracy)?,
            crate::store::CollapsingSparseStore::new(limit),
            crate::store::CollapsingSparseStore::new(limit),
        )
    },
    "Reconstruct an Algorithm-3-exact sketch from a payload."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use proptest::prelude::*;

    fn populated() -> BoundedDDSketch {
        let mut s = presets::logarithmic_collapsing(0.01, 2048).unwrap();
        for i in 1..=1000 {
            s.add(i as f64 * 0.01).unwrap();
        }
        for i in 1..=50 {
            s.add(-(i as f64)).unwrap();
        }
        s.add(0.0).unwrap();
        s
    }

    #[test]
    fn roundtrip_preserves_state_exactly() {
        let s = populated();
        let bytes = s.encode();
        let d = BoundedDDSketch::decode(&bytes).unwrap();
        assert_eq!(d.count(), s.count());
        assert_eq!(d.zero_count(), s.zero_count());
        assert_eq!(d.min(), s.min());
        assert_eq!(d.max(), s.max());
        assert_eq!(d.sum(), s.sum());
        assert_eq!(d.to_payload(), s.to_payload());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(d.quantile(q).unwrap(), s.quantile(q).unwrap(), "q = {q}");
        }
    }

    /// Encoding an empty sketch writes the empty-state sentinels
    /// (`min = +∞`, `max = −∞`, `sum = 0`) as raw f64s; decoding must
    /// restore the documented empty behaviour — count 0, `None`
    /// accessors, `Empty` quantiles — for **every** configuration, and a
    /// subsequent add must start exact (no sentinel leakage).
    #[test]
    fn roundtrip_empty_sketch_all_configs() {
        for config in crate::SketchConfig::all(0.02, 512) {
            let s = config.build().unwrap();
            let bytes = s.encode();
            let mut d = AnyDDSketch::decode(&bytes).unwrap();
            assert_eq!(d.config(), config, "{}", config.name());
            assert!(d.is_empty());
            assert_eq!(d.count(), 0);
            assert_eq!(d.zero_count(), 0);
            assert_eq!(d.min(), None, "{}: empty min must be None", config.name());
            assert_eq!(d.max(), None);
            assert_eq!(d.average(), None);
            assert_eq!(d.sum(), 0.0);
            assert!(matches!(d.quantile(0.5), Err(SketchError::Empty)));
            // The decoded empty sketch must behave exactly like a fresh
            // one on the next insertion.
            d.add(7.5).unwrap();
            assert_eq!(d.min(), Some(7.5));
            assert_eq!(d.max(), Some(7.5));
            assert_eq!(d.sum(), 7.5);
            // And the view agrees on the empty invariants.
            let view = SketchView::parse(&bytes).unwrap();
            assert!(view.is_empty());
            assert_eq!(view.min(), None);
            assert_eq!(view.max(), None);
            assert_eq!(view.average(), None);
            assert_eq!(view.sum(), 0.0);
            assert_eq!(view.num_bins(), 0);
            assert!(matches!(view.quantile(0.5), Err(SketchError::Empty)));
        }
    }

    #[test]
    fn roundtrip_all_presets() {
        let mut u = presets::unbounded(0.01).unwrap();
        let mut f = presets::fast(0.01, 512).unwrap();
        let mut sp = presets::sparse(0.01).unwrap();
        let mut pe = presets::paper_exact(0.01, 512).unwrap();
        for i in 1..200 {
            let v = (i * i) as f64;
            u.add(v).unwrap();
            f.add(v).unwrap();
            sp.add(v).unwrap();
            pe.add(v).unwrap();
        }
        assert_eq!(
            presets::UnboundedDDSketch::decode(&u.encode())
                .unwrap()
                .to_payload(),
            u.to_payload()
        );
        assert_eq!(
            presets::FastDDSketch::decode(&f.encode())
                .unwrap()
                .to_payload(),
            f.to_payload()
        );
        assert_eq!(
            presets::SparseDDSketch::decode(&sp.encode())
                .unwrap()
                .to_payload(),
            sp.to_payload()
        );
        assert_eq!(
            presets::PaperExactDDSketch::decode(&pe.encode())
                .unwrap()
                .to_payload(),
            pe.to_payload()
        );
    }

    #[test]
    fn decode_rejects_wrong_kind() {
        let s = populated(); // logarithmic kind
        let bytes = s.encode();
        assert!(matches!(
            presets::FastDDSketch::decode(&bytes),
            Err(SketchError::Decode(_))
        ));
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(SketchPayload::decode(b"").is_err());
        assert!(SketchPayload::decode(b"XXXX").is_err());
        assert!(SketchPayload::decode(b"DDS1").is_err());
        let bytes = populated().encode();
        // Every strict prefix must fail, never panic.
        for cut in 0..bytes.len() {
            assert!(
                SketchPayload::decode(&bytes[..cut]).is_err(),
                "prefix of length {cut} decoded successfully"
            );
        }
        // Trailing garbage must fail too, as structural corruption.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            SketchPayload::decode(&extended),
            Err(SketchError::Malformed(_))
        ));
    }

    #[test]
    fn decode_rejects_hostile_bin_count() {
        // Header claiming 2^40 bins with a tiny body must fail fast, as
        // Malformed, before any allocation happens.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(0); // kind
        buf.push(0); // store
        buf.extend_from_slice(&0.01f64.to_le_bytes());
        put_varint(&mut buf, 0); // limit
        put_varint(&mut buf, 0); // zero
        buf.extend_from_slice(&f64::INFINITY.to_le_bytes());
        buf.extend_from_slice(&f64::NEG_INFINITY.to_le_bytes());
        buf.extend_from_slice(&0f64.to_le_bytes());
        put_varint(&mut buf, 1 << 40); // absurd bin count
        assert!(matches!(
            SketchPayload::decode(&buf),
            Err(SketchError::Malformed(_))
        ));
        assert!(matches!(
            SketchView::parse(&buf),
            Err(SketchError::Malformed(_))
        ));
        // Even a u64-overflowing count must be caught by the clamp.
        let cut = buf.len() - 6;
        buf.truncate(cut);
        put_varint(&mut buf, u64::MAX);
        assert!(matches!(
            SketchPayload::decode(&buf),
            Err(SketchError::Malformed(_))
        ));
    }

    /// Re-encode a payload in the legacy `DDS1` layout (no store byte) so
    /// the fallback reader can be regression-tested against real v1 bytes.
    fn encode_v1(payload: &SketchPayload) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V1);
        buf.put_u8(payload.kind);
        buf.put_f64_le(payload.relative_accuracy);
        put_varint(&mut buf, payload.bin_limit);
        put_varint(&mut buf, payload.zero_count);
        buf.put_f64_le(payload.min);
        buf.put_f64_le(payload.max);
        buf.put_f64_le(payload.sum);
        put_bins(&mut buf, &payload.positive, &put_varint);
        put_bins(&mut buf, &payload.negative, &put_varint);
        buf
    }

    /// The DDS2 store byte closes the v1 ambiguity: sparse, unbounded and
    /// paper-exact payloads — indistinguishable or conflated under v1 —
    /// each decode back to their own variant with no caller-side type
    /// knowledge.
    #[test]
    fn any_decode_distinguishes_every_variant() {
        for config in crate::SketchConfig::all(0.01, 512) {
            let mut s = config.build().unwrap();
            for i in 1..200 {
                s.add(i as f64 * 1.7).unwrap();
            }
            let decoded = AnyDDSketch::decode(&s.encode()).unwrap();
            assert_eq!(decoded.config(), config, "store byte must disambiguate");
            assert_eq!(decoded.to_payload(), s.to_payload());
        }
        // The pair that was literally indistinguishable under DDS1
        // (both encoded bin_limit = 0):
        let sparse = crate::SketchConfig::sparse(0.01).build().unwrap();
        let unbounded = crate::SketchConfig::unbounded(0.01).build().unwrap();
        assert!(matches!(
            AnyDDSketch::decode(&sparse.encode()).unwrap(),
            AnyDDSketch::Sparse(_)
        ));
        assert!(matches!(
            AnyDDSketch::decode(&unbounded.encode()).unwrap(),
            AnyDDSketch::Unbounded(_)
        ));
        // And the bounded pair DDS1 conflated with collapsing-dense:
        let paper = crate::SketchConfig::paper_exact(0.01, 512).build().unwrap();
        assert!(matches!(
            AnyDDSketch::decode(&paper.encode()).unwrap(),
            AnyDDSketch::PaperExact(_)
        ));
    }

    /// Legacy `DDS1` bytes still decode, via the documented heuristic:
    /// `bin_limit > 0` reads as collapsing dense stores, `bin_limit == 0`
    /// as unbounded dense stores. The heuristic is *wrong* for v1 sparse
    /// and paper-exact producers — that loss is inherent to v1 and the
    /// reason DDS2 exists; this test pins down exactly what a v1 payload
    /// turns into, and [`AnyDDSketch::decode_v1_as`] shows the caller-side
    /// fix when the producer is known.
    #[test]
    fn legacy_v1_fallback_applies_documented_heuristic() {
        let mut values = Vec::new();
        for i in 1..300 {
            values.push((i * i) as f64 * 0.01);
        }

        // Faithful cases: v1 bytes from the presets the heuristic targets.
        let mut bounded = presets::logarithmic_collapsing(0.01, 512).unwrap();
        let mut fast = presets::fast(0.01, 512).unwrap();
        let mut unbounded = presets::unbounded(0.01).unwrap();
        for &v in &values {
            bounded.add(v).unwrap();
            fast.add(v).unwrap();
            unbounded.add(v).unwrap();
        }
        let decoded = AnyDDSketch::decode(&encode_v1(&bounded.to_payload())).unwrap();
        assert!(matches!(decoded, AnyDDSketch::Bounded(_)));
        assert_eq!(decoded.count(), bounded.count());
        let decoded = AnyDDSketch::decode(&encode_v1(&fast.to_payload())).unwrap();
        assert!(matches!(decoded, AnyDDSketch::Fast(_)));
        let decoded = AnyDDSketch::decode(&encode_v1(&unbounded.to_payload())).unwrap();
        assert!(matches!(decoded, AnyDDSketch::Unbounded(_)));

        // Lossy cases: the heuristic's documented misreadings.
        let mut sparse = presets::sparse(0.01).unwrap();
        let mut paper = presets::paper_exact(0.01, 512).unwrap();
        for &v in &values {
            sparse.add(v).unwrap();
            paper.add(v).unwrap();
        }
        let decoded = AnyDDSketch::decode(&encode_v1(&sparse.to_payload())).unwrap();
        assert!(
            matches!(decoded, AnyDDSketch::Unbounded(_)),
            "v1 sparse payloads are indistinguishable from unbounded ones"
        );
        // The bins themselves survive the store-family misreading intact.
        assert_eq!(
            decoded.positive_bins(),
            sparse.positive_store().bins_ascending()
        );
        let decoded = AnyDDSketch::decode(&encode_v1(&paper.to_payload())).unwrap();
        assert!(
            matches!(decoded, AnyDDSketch::Bounded(_)),
            "v1 bounded payloads all read as collapsing-dense"
        );

        // Statically-typed decoding of v1 bytes keeps working: the preset
        // constructors ignore the (guessed) store byte entirely.
        let restored = BoundedDDSketch::decode(&encode_v1(&bounded.to_payload())).unwrap();
        assert_eq!(restored.to_payload(), bounded.to_payload());
        let restored = SparseDDSketch::decode(&encode_v1(&sparse.to_payload())).unwrap();
        assert_eq!(restored.count(), sparse.count());
    }

    /// A caller who knows the v1 producer overrides the heuristic:
    /// `decode_v1_as` reconstructs the true variant from the ambiguous
    /// bytes — the runtime counterpart of the statically-typed preset
    /// decode above.
    #[test]
    fn decode_v1_as_overrides_the_guess() {
        let mut sparse = presets::sparse(0.01).unwrap();
        let mut paper = presets::paper_exact(0.01, 512).unwrap();
        for i in 1..300 {
            let v = (i * i) as f64 * 0.01;
            sparse.add(v).unwrap();
            paper.add(v).unwrap();
        }
        let sparse_v1 = encode_v1(&sparse.to_payload());
        let paper_v1 = encode_v1(&paper.to_payload());

        let decoded = AnyDDSketch::decode_v1_as(StoreKind::Sparse, &sparse_v1).unwrap();
        assert!(matches!(decoded, AnyDDSketch::Sparse(_)));
        assert_eq!(decoded.to_payload().positive, sparse.to_payload().positive);
        assert_eq!(decoded.count(), sparse.count());

        let decoded = AnyDDSketch::decode_v1_as(StoreKind::CollapsingSparse, &paper_v1).unwrap();
        assert!(matches!(decoded, AnyDDSketch::PaperExact(_)));
        assert_eq!(decoded.count(), paper.count());

        // The override is held to the encoded limit: claiming a bounded
        // family for an unbounded payload (or vice versa) is rejected.
        assert!(matches!(
            AnyDDSketch::decode_v1_as(StoreKind::CollapsingSparse, &sparse_v1),
            Err(SketchError::Decode(_))
        ));
        assert!(matches!(
            AnyDDSketch::decode_v1_as(StoreKind::Unbounded, &paper_v1),
            Err(SketchError::Decode(_))
        ));
        // And DDS2 bytes refuse the override outright: their store byte
        // is authoritative.
        assert!(matches!(
            AnyDDSketch::decode_v1_as(StoreKind::Sparse, &sparse.encode()),
            Err(SketchError::Decode(_))
        ));
        // Corrupt v1 bytes still fail structurally, not semantically.
        assert!(AnyDDSketch::decode_v1_as(StoreKind::Sparse, &sparse_v1[..10]).is_err());
    }

    #[test]
    fn any_from_payload_rejects_inconsistent_store_and_limit() {
        let mut s = presets::sparse(0.01).unwrap();
        s.add(1.0).unwrap();
        let mut payload = s.to_payload();
        payload.bin_limit = 64; // unbounded store with a bound
        assert!(matches!(
            AnyDDSketch::from_payload(&payload),
            Err(SketchError::Decode(_))
        ));
        let mut b = presets::logarithmic_collapsing(0.01, 64).unwrap();
        b.add(1.0).unwrap();
        let mut payload = b.to_payload();
        payload.bin_limit = 0; // bounded store without a bound
        assert!(matches!(
            AnyDDSketch::from_payload(&payload),
            Err(SketchError::Decode(_))
        ));
        // Unknown store discriminant is rejected outright.
        let mut payload = b.to_payload();
        payload.store = 200;
        assert!(AnyDDSketch::from_payload(&payload).is_err());
    }

    /// Regression for the hostile-growth hole (confirmed by a live
    /// repro pre-fix): a ~40-byte payload claiming a huge bucket limit,
    /// or an unbounded payload with two bins at opposite ends of the
    /// i32 index range, used to drive a multi-GiB dense-store
    /// allocation through every decode entry point. All readers now
    /// reject both shapes before any store exists.
    #[test]
    fn decode_rejects_hostile_dense_growth() {
        // Huge limit on a collapsing-dense payload.
        let mut s = presets::logarithmic_collapsing(0.01, 512).unwrap();
        s.add(1.0).unwrap();
        let mut huge_limit = s.to_payload();
        huge_limit.bin_limit = 1 << 40;
        let bytes = huge_limit.encode();
        assert!(matches!(
            SketchPayload::decode(&bytes),
            Err(SketchError::Malformed(_))
        ));
        assert!(matches!(
            SketchView::parse(&bytes),
            Err(SketchError::Malformed(_))
        ));
        assert!(matches!(
            AnyDDSketch::from_payload(&huge_limit),
            Err(SketchError::Malformed(_))
        ));
        assert!(matches!(
            BoundedDDSketch::from_payload(&huge_limit),
            Err(SketchError::Malformed(_))
        ));

        // Unbounded payload whose two bins span ~2³² buckets.
        let mut u = presets::unbounded(0.01).unwrap();
        u.add(1.0).unwrap();
        u.add(2.0).unwrap();
        let mut wide = u.to_payload();
        wide.positive = vec![(-2_000_000_000, 1), (2_000_000_000, 1)];
        let bytes = wide.encode();
        assert!(matches!(
            SketchPayload::decode(&bytes),
            Err(SketchError::Malformed(_))
        ));
        assert!(matches!(
            SketchView::parse(&bytes),
            Err(SketchError::Malformed(_))
        ));
        assert!(matches!(
            AnyDDSketch::from_payload(&wide),
            Err(SketchError::Malformed(_))
        ));
        let mut payload = SketchPayload::default();
        assert!(matches!(
            payload.decode_into(&bytes),
            Err(SketchError::Malformed(_))
        ));

        // The same wide span under a *small* collapsing limit is fine:
        // the store folds it to ≤ 512 buckets on arrival.
        let mut folded = s.to_payload();
        folded.positive = vec![(-2_000_000_000, 1), (2_000_000_000, 1)];
        let decoded = AnyDDSketch::decode(&folded.encode()).unwrap();
        assert_eq!(decoded.count(), 2);
        assert!(decoded.has_collapsed());
    }

    /// Regression for the corrupt-summary hole: a payload whose summary
    /// contradicts its counts used to decode into a live sketch whose
    /// quantile clamp could panic (`min > max`) or whose empty-state
    /// sentinels would poison later merges. Both readers now reject it.
    #[test]
    fn decode_rejects_inconsistent_summaries() {
        let mut s = presets::unbounded(0.01).unwrap();
        s.add(5.0).unwrap();
        let base = s.to_payload();

        let mut swapped = base.clone();
        swapped.min = 10.0;
        swapped.max = 1.0;
        let mut nan = base.clone();
        nan.min = f64::NAN;
        let mut inf = base.clone();
        inf.max = f64::INFINITY;
        for corrupt in [&swapped, &nan, &inf] {
            let bytes = corrupt.encode();
            assert!(matches!(
                presets::UnboundedDDSketch::decode(&bytes),
                Err(SketchError::Malformed(_))
            ));
            assert!(matches!(
                AnyDDSketch::decode(&bytes),
                Err(SketchError::Malformed(_))
            ));
            assert!(matches!(
                SketchView::parse(&bytes),
                Err(SketchError::Malformed(_))
            ));
        }

        // A zero-count payload must carry the canonical empty sentinels.
        let empty = presets::unbounded(0.01).unwrap().to_payload();
        let mut stale = empty.clone();
        stale.min = 5.0;
        let mut residue = empty;
        residue.sum = 1e-17;
        for corrupt in [&stale, &residue] {
            let bytes = corrupt.encode();
            assert!(matches!(
                AnyDDSketch::decode(&bytes),
                Err(SketchError::Malformed(_))
            ));
            assert!(matches!(
                SketchView::parse(&bytes),
                Err(SketchError::Malformed(_))
            ));
        }
    }

    #[test]
    fn encoding_is_compact() {
        // 1000 adjacent buckets with count 1 should take ~2 bytes each.
        let mut s = presets::unbounded(0.01).unwrap();
        for i in 0..1000 {
            s.add(1.0210_f64.powi(i)).unwrap();
        }
        let bytes = s.encode();
        assert!(
            bytes.len() < 1000 * 3 + 64,
            "encoding too large: {} bytes for 1000 bins",
            bytes.len()
        );
    }

    proptest! {
        #[test]
        fn prop_payload_roundtrip(values in proptest::collection::vec(-1e9f64..1e9, 0..300)) {
            let mut s = presets::logarithmic_collapsing(0.02, 1024).unwrap();
            for &v in &values {
                s.add(v).unwrap();
            }
            let decoded = BoundedDDSketch::decode(&s.encode()).unwrap();
            prop_assert_eq!(decoded.to_payload(), s.to_payload());
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = SketchPayload::decode(&bytes);
            let _ = SketchView::parse(&bytes);
        }
    }
}
