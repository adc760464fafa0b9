//! The fleet-facing aggregator: raw frames in, quantiles out, no
//! intermediate sketches.
//!
//! This is the receiving half of the paper's Figure 1 deployment: agents
//! encode their per-window sketches and ship them every few seconds; the
//! aggregator answers "what is the fleet's p99 right now?" continuously.
//! The naive implementation decodes every payload into a sketch and
//! merges it — paying two store allocations, a per-bin scalar rebuild,
//! and a grow/collapse *per payload*. [`AggregatorOf`] never does that:
//!
//! * [`AggregatorOf::feed`] decodes each frame exactly once, into a
//!   **recycled** staging payload (bins + summary, no stores — see
//!   [`ddsketch::SketchPayloadOf::decode_into`]): one validate-and-decode
//!   pass, no allocation at steady state.
//! * Every `fold_threshold` frames, the pending payloads fold into one
//!   resident [`AnyDDSketchOf`] — one bulk `add_bins` pass per store per
//!   payload, bins flowing straight from the staged slices into the
//!   resident stores.
//! * [`AggregatorOf::quantiles_into`] answers over resident ∪ pending;
//!   with warm buffers neither feeding, folding, nor querying touches the
//!   allocator on the dense store families (counting-allocator tested).
//!
//! The aggregator is written once over the count plane `C` and used
//! through two names:
//!
//! * [`Aggregator`] (`u64`) feeds on integer `DDS1`/`DDS2` frames and
//!   answers from the resident sketch ∪ the not-yet-folded payloads in one
//!   k-way rank walk ([`ddsketch::SketchSource`]): zero intermediate
//!   sketches ever exist.
//! * [`WeightedAggregator`] (`f64`) feeds on **any** dialect in one mixed
//!   stream — `DDS3` weighted payloads from agents submitting
//!   pre-aggregated observations, integer payloads widened exactly — with
//!   no routing on the magic. There is no mixed-source weighted rank walk,
//!   so its queries fold pending payloads first.
//!
//! Callers that want to *inspect* a frame without staging it — routing,
//! compatibility probes, ad-hoc quantiles — use the zero-copy
//! [`ddsketch::SketchView`] directly; the aggregator's rejection path is
//! exactly that validation.

use std::sync::atomic::{AtomicU64, Ordering};

use ddsketch::codec::FrameReader;
use ddsketch::{
    AnyDDSketchOf, CountPlane, MappingKind, SketchConfig, SketchError, SketchPayloadOf,
    SourceQuantileScratch, StoreKind,
};

/// Decode-free sketch aggregator over the count plane `C`: feeds on
/// encoded frames, periodically folds them into a resident sketch, and
/// serves quantiles over resident ∪ unfolded payloads without
/// materializing any sketch per payload. Use the [`Aggregator`] and
/// [`WeightedAggregator`] names.
#[derive(Debug)]
pub struct AggregatorOf<C: CountPlane> {
    config: SketchConfig,
    resident: AnyDDSketchOf<C>,
    /// Decoded frames awaiting the next fold (recycled buffers).
    pending: Vec<SketchPayloadOf<C>>,
    /// Spent staging payloads (bin-vector capacity only).
    spare: Vec<SketchPayloadOf<C>>,
    fold_threshold: usize,
    scratch: SourceQuantileScratch,
    frames_received: u64,
    frames_folded: u64,
    /// Monotonic data epoch: bumped on every accepted feed and every
    /// non-empty fold, so `epoch() unchanged` ⟺ `answers unchanged`.
    epoch: AtomicU64,
}

/// The integer-plane aggregator: `DDS1`/`DDS2` frames, exact `u64` counts.
pub type Aggregator = AggregatorOf<u64>;

/// The weighted-plane aggregator: frames of every dialect, `f64` weights.
pub type WeightedAggregator = AggregatorOf<f64>;

impl<C: CountPlane> AggregatorOf<C> {
    /// Create an aggregator whose resident sketch uses `config`, folding
    /// pending payloads whenever `fold_threshold` of them accumulate.
    ///
    /// The threshold trades fold frequency against query fan-in: queries
    /// walk at most `fold_threshold` unfolded payloads plus the resident
    /// sketch. A threshold of 1 folds on every frame (queries always walk
    /// one source); thresholds in the tens suit per-second query loads.
    pub fn with_config(config: SketchConfig, fold_threshold: usize) -> Result<Self, SketchError> {
        if fold_threshold == 0 {
            return Err(SketchError::InvalidConfig(
                "fold_threshold must be positive".into(),
            ));
        }
        Ok(Self {
            resident: AnyDDSketchOf::new(config)?,
            config,
            pending: Vec::new(),
            spare: Vec::new(),
            fold_threshold,
            scratch: SourceQuantileScratch::default(),
            frames_received: 0,
            frames_folded: 0,
            epoch: AtomicU64::new(0),
        })
    }

    /// Convenience constructor for the paper's default configuration
    /// (collapsing dense stores, exact logarithmic mapping).
    pub fn new(alpha: f64, max_bins: usize, fold_threshold: usize) -> Result<Self, SketchError> {
        Self::with_config(
            SketchConfig::dense_collapsing(alpha, max_bins),
            fold_threshold,
        )
    }

    /// The configuration the resident sketch runs.
    pub fn config(&self) -> SketchConfig {
        self.config
    }

    /// The pending-payload count that triggers a fold.
    pub fn fold_threshold(&self) -> usize {
        self.fold_threshold
    }

    /// Frames accepted so far.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Frames already folded into the resident sketch.
    pub fn frames_folded(&self) -> u64 {
        self.frames_folded
    }

    /// Frames awaiting the next fold.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Monotonic data epoch: advanced by every accepted
    /// [`AggregatorOf::feed`]/[`AggregatorOf::feed_payload`] and every
    /// non-empty [`AggregatorOf::fold`] (a relaxed atomic, so a reader
    /// holding only `&self` can probe it cheaply). An unchanged epoch
    /// guarantees unchanged state — the contract read-side caches key
    /// their invalidation on.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The resident sketch (excludes pending payloads; fold first for a
    /// complete one).
    pub fn resident(&self) -> &AnyDDSketchOf<C> {
        &self.resident
    }

    /// Total count (weight) across resident and pending payloads.
    pub fn count(&self) -> C {
        let pending = self.pending.iter().fold(C::ZERO, |sum, p| sum + p.total());
        self.resident.total() + pending
    }

    /// [`AggregatorOf::count`] as an `f64`.
    pub fn weighted_count(&self) -> f64 {
        self.count().to_f64()
    }

    /// Whether the aggregator has seen no data.
    pub fn is_empty(&self) -> bool {
        self.count() == C::ZERO
    }

    /// Reject payloads the resident sketch could not merge, *before* they
    /// enter the pending set — a bad frame never corrupts a fold.
    fn check_compatible(&self, payload: &SketchPayloadOf<C>) -> Result<(), SketchError> {
        if !payload.matches_config(&self.config) {
            // A differing max_bins is fine (the resident bound governs,
            // Algorithm 4); family or α mismatches are not.
            return Err(SketchError::IncompatibleMerge(format!(
                "aggregator runs {:?}, payload is (mapping {:?}, store {:?}, α={})",
                self.config,
                MappingKind::from_u8(payload.kind),
                StoreKind::from_u8(payload.store),
                payload.relative_accuracy
            )));
        }
        Ok(())
    }

    /// Accept one encoded payload.
    ///
    /// The frame is decoded **once**, into a recycled staging payload —
    /// validating structure, summary consistency, and configuration
    /// without building a sketch or (at steady state) touching the
    /// allocator. Rejected frames (corrupt bytes, incompatible
    /// configuration) leave the aggregator untouched.
    pub fn feed(&mut self, frame: &[u8]) -> Result<(), SketchError> {
        let mut payload = self.take_spare();
        if let Err(e) = payload.decode_into(frame) {
            self.recycle(payload);
            return Err(e);
        }
        self.feed_payload(payload)
    }

    /// Take a recycled staging payload (or a fresh one) so a caller can
    /// run [`ddsketch::SketchPayloadOf::decode_into`] itself — e.g. a
    /// server thread that must route on the decoded bytes *before*
    /// deciding where to stage them. Hand the buffer back through
    /// [`AggregatorOf::feed_payload`] or [`AggregatorOf::recycle`] to
    /// keep the steady state allocation-free.
    pub fn take_spare(&mut self) -> SketchPayloadOf<C> {
        self.spare.pop().unwrap_or_default()
    }

    /// Return a payload buffer to the recycle pool without staging it
    /// (the counterpart of [`AggregatorOf::take_spare`] for rejected or
    /// unused buffers).
    pub fn recycle(&mut self, payload: SketchPayloadOf<C>) {
        self.spare.push(payload);
    }

    /// Stage one already-decoded payload — the out-of-band half of
    /// [`AggregatorOf::feed`], for callers that decoded (and perhaps
    /// routed on) the payload themselves. The compatibility gate is the
    /// same as `feed`'s; a rejected payload's buffer is recycled
    /// internally and the aggregator is left untouched.
    pub fn feed_payload(&mut self, payload: SketchPayloadOf<C>) -> Result<(), SketchError> {
        if let Err(e) = self.check_compatible(&payload) {
            self.recycle(payload);
            return Err(e);
        }
        self.pending.push(payload);
        self.frames_received += 1;
        self.epoch.fetch_add(1, Ordering::Relaxed);
        if self.pending.len() >= self.fold_threshold {
            self.fold();
        }
        Ok(())
    }

    /// Drain every frame of a [`FrameReader`] into the aggregator,
    /// returning how many were accepted. Stops at the first corrupt or
    /// incompatible frame (already-accepted frames stay absorbed).
    pub fn feed_stream<R: std::io::Read>(
        &mut self,
        reader: &mut FrameReader<R>,
    ) -> Result<usize, SketchError> {
        let mut accepted = 0;
        let mut buf = Vec::new();
        while reader.read_frame(&mut buf)?.is_some() {
            self.feed(&buf)?;
            accepted += 1;
        }
        Ok(accepted)
    }

    /// Fold every pending payload into the resident sketch, returning how
    /// many were absorbed. Each payload costs one bulk `add_bins` pass
    /// per store — no intermediate sketch is ever constructed.
    pub fn fold(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        C::fold(&mut self.resident, &self.pending)
            .expect("pending payloads are compatibility-checked by feed");
        let folded = self.pending.len();
        self.frames_folded += folded as u64;
        self.spare.append(&mut self.pending);
        self.epoch.fetch_add(1, Ordering::Relaxed);
        folded
    }

    /// Estimate quantiles over everything fed so far — resident sketch ∪
    /// unfolded payloads. On the integer plane this is one mixed-source
    /// rank walk: no sketch is materialized, no merge performed, and
    /// `&mut self` is for scratch reuse only. The weighted plane has no
    /// such walk, so it folds pending payloads first (an observable but
    /// semantics-preserving state change). With buffers warm (one prior
    /// call), dense-family queries allocate nothing beyond `out`'s
    /// capacity.
    pub fn quantiles_into(&mut self, qs: &[f64], out: &mut Vec<f64>) -> Result<(), SketchError> {
        if !C::WALKS_PAYLOADS {
            self.fold();
        }
        let Self {
            resident,
            pending,
            scratch,
            ..
        } = self;
        C::merged_quantiles_into(resident, pending, qs, scratch, out)
    }

    /// Convenience allocating form of [`AggregatorOf::quantiles_into`].
    pub fn quantiles(&mut self, qs: &[f64]) -> Result<Vec<f64>, SketchError> {
        let mut out = Vec::with_capacity(qs.len());
        self.quantiles_into(qs, &mut out)?;
        Ok(out)
    }

    /// Convenience: a single quantile via [`AggregatorOf::quantiles_into`].
    pub fn quantile(&mut self, q: f64) -> Result<f64, SketchError> {
        Ok(self.quantiles(std::slice::from_ref(&q))?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsketch::codec::FrameWriter;
    use ddsketch::{AnyDDSketch, AnyWeightedDDSketch};

    fn frame(config: SketchConfig, values: impl IntoIterator<Item = f64>) -> Vec<u8> {
        let mut s = config.build().unwrap();
        for v in values {
            s.add(v).unwrap();
        }
        s.encode()
    }

    #[test]
    fn aggregator_equals_decode_then_merge_under_every_config() {
        for config in SketchConfig::all(0.01, 256) {
            // Thresholds straddling the frame count: folds mid-stream,
            // at-end, and never.
            for threshold in [1, 7, 100] {
                let mut agg = Aggregator::with_config(config, threshold).unwrap();
                let mut reference = config.build().unwrap();
                for k in 0..20u32 {
                    let values: Vec<f64> = (1..=50)
                        .map(|i| {
                            let v = f64::from(i * (k + 1)) * 0.7;
                            if i % 9 == 0 {
                                -v
                            } else if i % 5 == 0 {
                                0.0
                            } else {
                                v
                            }
                        })
                        .collect();
                    let bytes = frame(config, values.iter().copied());
                    agg.feed(&bytes).unwrap();
                    reference
                        .merge_from(&AnyDDSketch::decode(&bytes).unwrap())
                        .unwrap();
                }
                assert_eq!(agg.frames_received(), 20);
                assert_eq!(agg.count(), reference.count(), "{}", config.name());
                let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
                assert_eq!(
                    agg.quantiles(&qs).unwrap(),
                    reference.quantiles(&qs).unwrap(),
                    "{} (threshold {threshold}): aggregator must equal decode-then-merge",
                    config.name()
                );
                // Folding everything must not change the answers.
                agg.fold();
                assert_eq!(agg.pending_frames(), 0);
                assert_eq!(
                    agg.quantiles(&qs).unwrap(),
                    reference.quantiles(&qs).unwrap()
                );
                assert_eq!(
                    agg.resident().to_payload().positive,
                    reference.to_payload().positive
                );
            }
        }
    }

    /// Encode one frame on plane `C`: each `(value, count)` inserted
    /// through the count-generic `add_with_count`.
    fn plane_frame<C: CountPlane>(config: SketchConfig, entries: &[(f64, C)]) -> Vec<u8> {
        let mut s = AnyDDSketchOf::<C>::new(config).unwrap();
        for &(v, c) in entries {
            s.add_with_count(v, c).unwrap();
        }
        s.encode()
    }

    /// The magic of plane `C`'s own dialect (`DDS2` or `DDS3`).
    fn plane_magic<C: CountPlane>() -> Vec<u8> {
        SketchPayloadOf::<C>::default().encode()[..4].to_vec()
    }

    /// One body for both planes: bad frames are rejected without
    /// touching the aggregator's state.
    fn check_feed_rejects_bad_frames<C: CountPlane>(
        first: &[(f64, C)],
        second: &[(f64, C)],
        total: C,
    ) {
        let config = SketchConfig::dense_collapsing(0.01, 256);
        let mut agg = AggregatorOf::<C>::with_config(config, 8).unwrap();
        agg.feed(&plane_frame(config, first)).unwrap();
        // Corrupt bytes: truncation is Malformed, an unknown mapping
        // discriminant is a (semantic) Decode error; both are
        // rejected.
        let magic = plane_magic::<C>();
        assert!(matches!(agg.feed(&magic), Err(SketchError::Malformed(_))));
        assert!(agg.feed(&[&magic[..], b"garbage"].concat()).is_err());
        // Wrong store family and wrong alpha.
        assert!(matches!(
            agg.feed(&plane_frame(SketchConfig::sparse(0.01), first)),
            Err(SketchError::IncompatibleMerge(_))
        ));
        assert!(matches!(
            agg.feed(&plane_frame(
                SketchConfig::dense_collapsing(0.02, 256),
                first
            )),
            Err(SketchError::IncompatibleMerge(_))
        ));
        // A differing max_bins is accepted: the resident bound
        // governs.
        agg.feed(&plane_frame(
            SketchConfig::dense_collapsing(0.01, 64),
            second,
        ))
        .unwrap();
        assert_eq!(agg.frames_received(), 2);
        assert_eq!(agg.count(), total);
        assert!(AggregatorOf::<C>::with_config(config, 0).is_err());
    }

    #[test]
    fn feed_rejects_bad_frames_atomically() {
        check_feed_rejects_bad_frames::<u64>(&[(1.0, 1), (2.0, 1)], &[(3.0, 1)], 3);
    }

    #[test]
    fn weighted_feed_rejects_bad_frames_atomically() {
        check_feed_rejects_bad_frames::<f64>(&[(1.0, 2.5)], &[(3.0, 0.5)], 3.0);
    }

    #[test]
    fn feed_stream_drains_a_frame_stream() {
        let config = SketchConfig::dense_collapsing(0.01, 256);
        let mut writer = FrameWriter::new(Vec::new()).unwrap();
        let mut reference = config.build().unwrap();
        for k in 1..=10u32 {
            let bytes = frame(config, (1..=30).map(|i| f64::from(i * k)));
            reference
                .merge_from(&AnyDDSketch::decode(&bytes).unwrap())
                .unwrap();
            writer.write_frame(&bytes).unwrap();
        }
        let stream = writer.finish().unwrap();
        let mut agg = Aggregator::with_config(config, 4).unwrap();
        let mut reader = FrameReader::new(stream.as_slice()).unwrap();
        assert_eq!(agg.feed_stream(&mut reader).unwrap(), 10);
        let qs = [0.5, 0.99];
        assert_eq!(
            agg.quantiles(&qs).unwrap(),
            reference.quantiles(&qs).unwrap()
        );
    }

    /// One body for both planes: an empty aggregator answers `Empty`.
    fn check_empty_aggregator<C: CountPlane>() {
        let mut agg = AggregatorOf::<C>::new(0.01, 256, 4).unwrap();
        assert!(agg.is_empty());
        assert!(matches!(agg.quantile(0.5), Err(SketchError::Empty)));
        assert!(agg.quantiles(&[]).unwrap().is_empty());
        assert_eq!(agg.fold(), 0);
        // An empty payload is accepted and contributes nothing.
        agg.feed(&plane_frame::<C>(
            SketchConfig::dense_collapsing(0.01, 256),
            &[],
        ))
        .unwrap();
        assert!(agg.is_empty());
        assert!(matches!(agg.quantile(0.5), Err(SketchError::Empty)));
        assert!(AggregatorOf::<C>::new(0.01, 256, 0).is_err());
    }

    #[test]
    fn empty_aggregator_behaviour() {
        check_empty_aggregator::<u64>();
    }

    #[test]
    fn empty_weighted_aggregator_behaviour() {
        check_empty_aggregator::<f64>();
    }

    fn weighted_frame(
        config: SketchConfig,
        entries: impl IntoIterator<Item = (f64, f64)>,
    ) -> Vec<u8> {
        let mut s = AnyWeightedDDSketch::new(config).unwrap();
        for (v, w) in entries {
            s.add_with_count(v, w).unwrap();
        }
        s.encode()
    }

    #[test]
    fn weighted_aggregator_equals_decode_then_merge_over_mixed_dialects() {
        let config = SketchConfig::dense_collapsing(0.01, 256);
        for threshold in [1, 3, 100] {
            let mut agg = WeightedAggregator::with_config(config, threshold).unwrap();
            let mut reference = AnyWeightedDDSketch::new(config).unwrap();
            let mut frames: Vec<Vec<u8>> = Vec::new();
            // Integer frames (DDS2 wire) from the unweighted plane...
            for k in 1..=4u32 {
                frames.push(frame(config, (1..=40).map(|i| f64::from(i * k) * 0.3)));
            }
            // ...interleaved with genuinely fractional DDS3 frames.
            for k in 1..=4u32 {
                frames.push(weighted_frame(
                    config,
                    (1..=40).map(|i| (f64::from(i) * 1.7, f64::from(k) * 0.25)),
                ));
            }
            for bytes in &frames {
                agg.feed(bytes).unwrap();
                reference
                    .merge_from(&AnyWeightedDDSketch::decode(bytes).unwrap())
                    .unwrap();
            }
            assert_eq!(agg.frames_received(), frames.len() as u64);
            assert!((agg.weighted_count() - reference.weighted_count()).abs() < 1e-9);
            let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
            assert_eq!(
                agg.quantiles(&qs).unwrap(),
                reference.quantiles(&qs).unwrap(),
                "threshold {threshold}: weighted aggregator must equal decode-then-merge"
            );
            assert_eq!(agg.pending_frames(), 0, "quantiles folds everything");
        }
    }

    #[test]
    fn epoch_advances_only_on_data_changes() {
        fn check<C: CountPlane>(entries: &[(f64, C)]) {
            let config = SketchConfig::dense_collapsing(0.01, 256);
            let mut agg = AggregatorOf::<C>::with_config(config, 4).unwrap();
            assert_eq!(agg.epoch(), 0);
            // Rejected frames leave the epoch untouched.
            assert!(agg.feed(&plane_magic::<C>()).is_err());
            assert_eq!(agg.epoch(), 0);
            agg.feed(&plane_frame(config, entries)).unwrap();
            let after_feed = agg.epoch();
            assert!(after_feed > 0);
            // Folding nothing is not a data change; folding something is.
            agg.fold();
            let after_fold = agg.epoch();
            assert!(after_fold > after_feed);
            assert_eq!(agg.fold(), 0);
            assert_eq!(agg.epoch(), after_fold);
            // Queries never advance the epoch (a weighted quantile folds
            // pending payloads first — with none pending it must not move
            // the epoch either).
            agg.quantile(0.5).unwrap();
            assert_eq!(agg.epoch(), after_fold);
        }
        check::<u64>(&[(1.0, 1), (2.0, 1)]);
        check::<f64>(&[(1.0, 2.5)]);
    }
}
