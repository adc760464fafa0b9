//! Lock-free concurrently-writable DDSketch: [`AtomicDDSketch`] and its
//! runtime-configured wrapper [`AnyAtomicDDSketch`].
//!
//! This is the sketch-level face of the atomic ingest plane
//! ([`crate::store::AtomicDenseStore`]): every ingestion method takes
//! `&self`, so any number of writer threads share one sketch with **no
//! lock and no CAS loop on the hot path** — one relaxed `fetch_add` into
//! the right bucket cell, plus relaxed summary-statistic updates.
//!
//! # What is atomic, and what a racing reader sees
//!
//! Each *counter* update is atomic; a logical `add` (bucket + count +
//! sum + min/max) is **not** one atomic transaction. A reader racing
//! writers therefore observes each statistic at some point during its
//! read — bucket counts can be momentarily ahead of the striped totals
//! and vice versa. Two reads are exact:
//!
//! * **Quiesced reads.** After writers quiesce with a happens-before edge
//!   to the reader (thread join, channel hand-off), a snapshot is exactly
//!   the sketch a single thread would have built from the union of every
//!   writer's values: bit-identical bins, count, min, max (the `f64` sum
//!   matches up to addition reassociation across threads).
//! * **Per-bucket consistency.** Even mid-race, each bucket's count is a
//!   real value the bucket held during the read (counts are never torn,
//!   lost, or double-counted), and the collapse clamp is applied with
//!   exact union-merge semantics when the snapshot is absorbed into a
//!   regular [`AnyDDSketch`].
//!
//! The summary statistics (total count, sum) are striped across
//! cache-padded slots indexed by a per-thread id, so same-core writers
//! don't bounce one shared line; min/max use an order-preserving `f64`
//! bit encoding with `fetch_min`/`fetch_max` (no CAS loop) behind a
//! cheap load-and-compare gate.
//!
//! Only the dense store families run on this plane: bucket identity must
//! be an array slot for a wait-free `fetch_add`. The sparse families keep
//! their locked-shard path in `pipeline` (their B-tree rebalancing cannot
//! be made lock-free with these techniques).

use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU64, AtomicUsize};

use crossbeam::utils::CachePadded;

use crate::any::{dispatch, AnyDDSketch, AnyWeightedDDSketch};
use crate::config::SketchConfig;
use crate::mapping::{CubicInterpolatedMapping, IndexMapping, LogarithmicMapping, MappingKind};
use crate::store::{
    AtomicDenseStore, AtomicF64, AtomicSnapshotScratch, Cell, Count, SharedCell, Store, StoreKind,
};
use sketch_core::SketchError;

/// Number of summary stripes (power of two). Sixteen covers typical
/// writer-thread counts without false sharing; overflow threads share
/// stripes, which stays correct (just occasionally contended).
const STRIPES: usize = 16;

/// Sign bit of an `f64`'s bit pattern.
const SIGN: u64 = 1 << 63;

/// Map `f64` to `u64` preserving total order (`a < b ⇔ key(a) < key(b)`
/// for non-NaN), so min/max tracking is a plain integer
/// `fetch_min`/`fetch_max` instead of a CAS loop.
#[inline]
fn f64_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & SIGN != 0 {
        !bits
    } else {
        bits | SIGN
    }
}

/// Inverse of [`f64_key`].
#[inline]
fn key_f64(key: u64) -> f64 {
    if key & SIGN != 0 {
        f64::from_bits(key & !SIGN)
    } else {
        f64::from_bits(!key)
    }
}

/// Dense per-thread stripe ids: each thread grabs the next counter value
/// once and caches it. Ids are dense (0, 1, 2, …), so up to `STRIPES`
/// threads get private stripes.
fn stripe_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ID: usize = NEXT.fetch_add(1, Relaxed);
    }
    ID.with(|id| *id) & (STRIPES - 1)
}

/// One cache line of summary counters, private to (usually) one thread.
/// The count cell matches the sketch's count plane (`AtomicU64` for
/// integer multiplicities, [`AtomicF64`] for weighted ingestion).
#[derive(Debug, Default)]
struct Stripe<C: SharedCell = AtomicU64> {
    count: C,
    /// `f64` bit pattern of this stripe's partial sum; updated by a CAS
    /// loop that only ever contends within the stripe.
    sum_bits: AtomicU64,
}

impl<C: SharedCell> Stripe<C> {
    fn add_sum(&self, add: f64) {
        let mut cur = self.sum_bits.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Reusable buffers for [`AtomicDDSketch::snapshot_into`]; keep one per
/// reader and steady-state snapshots stop allocating once warm. `V` is
/// the count type of the plane being snapshotted (`u64` by default, `f64`
/// for the weighted plane).
#[derive(Debug, Default)]
pub struct AtomicSketchScratch<V: Count = u64> {
    store: AtomicSnapshotScratch<V>,
    raw: Vec<(i64, V)>,
    pos: Vec<(i32, V)>,
    neg: Vec<(i32, V)>,
}

/// A DDSketch whose every ingestion method takes `&self` (see module
/// docs). Reads go through [`AtomicDDSketch::snapshot_into`], which
/// materializes a regular sketch with union-merge semantics.
///
/// `C` selects the count plane: the default [`AtomicU64`] is the integer
/// plane every prior release shipped; [`AtomicF64`] (see
/// [`WeightedAtomicDDSketch`]) carries `f64` weighted multiplicities with
/// the same lock-free geometry (per-bucket `to_bits`/`from_bits` CAS).
#[derive(Debug)]
pub struct AtomicDDSketch<M: IndexMapping, C: SharedCell = AtomicU64> {
    mapping: M,
    config: SketchConfig,
    positive: AtomicDenseStore<C>,
    /// Holds **negated** indices, so the low-bucket fold of
    /// [`AtomicDenseStore`] collapses the *highest* magnitude buckets —
    /// the exact mirror the sequential negative store implements.
    negative: AtomicDenseStore<C>,
    zero_count: C,
    /// [`f64_key`]-encoded running minimum / maximum.
    min_key: AtomicU64,
    max_key: AtomicU64,
    stripes: Box<[CachePadded<Stripe<C>>]>,
}

/// The lock-free **weighted** sketch: `f64` counts end to end, every
/// ingestion method `&self`. Snapshots materialize into
/// [`AnyWeightedDDSketch`] via
/// [`AtomicDDSketch::snapshot_weighted_into`].
pub type WeightedAtomicDDSketch<M> = AtomicDDSketch<M, AtomicF64>;

impl<M: IndexMapping, C: SharedCell> AtomicDDSketch<M, C> {
    /// An empty sketch for `mapping` under `config` (already validated);
    /// `config.store` selects whether the stores fold (bounded families).
    fn with_mapping(mapping: M, config: SketchConfig) -> Self {
        let bound = config.store.is_bounded().then_some(config.max_bins);
        Self {
            mapping,
            config,
            positive: AtomicDenseStore::new(bound),
            negative: AtomicDenseStore::new(bound),
            zero_count: C::default(),
            min_key: AtomicU64::new(f64_key(f64::INFINITY)),
            max_key: AtomicU64::new(f64_key(f64::NEG_INFINITY)),
            stripes: (0..STRIPES).map(|_| CachePadded::default()).collect(),
        }
    }

    /// An empty sketch for `config`, validating that it names a dense
    /// store family (the only families the lock-free plane supports) and
    /// that `mapping` matches the configured family.
    pub fn with_config(mapping: M, config: SketchConfig) -> Result<Self, SketchError> {
        config.validate()?;
        if !matches!(
            config.store,
            StoreKind::Unbounded | StoreKind::CollapsingDense
        ) {
            return Err(SketchError::InvalidConfig(format!(
                "the lock-free ingest plane requires a dense store family (got {})",
                config.store.name()
            )));
        }
        if mapping.kind() != config.mapping {
            return Err(SketchError::InvalidConfig(format!(
                "mapping {:?} does not match configured {:?}",
                mapping.kind(),
                config.mapping
            )));
        }
        Ok(Self::with_mapping(mapping, config))
    }

    /// The configuration this sketch was built for.
    pub fn config(&self) -> SketchConfig {
        self.config
    }

    /// Fold `value` into min/max through the keyed encoding. The common
    /// case (not a new extreme) is two relaxed loads, no RMW.
    #[inline]
    fn note_extremes(&self, value: f64) {
        let key = f64_key(value);
        if self.min_key.load(Relaxed) > key {
            self.min_key.fetch_min(key, Relaxed);
        }
        if self.max_key.load(Relaxed) < key {
            self.max_key.fetch_max(key, Relaxed);
        }
    }

    /// Insert one occurrence of `value`. Lock-free; shared reference.
    #[inline]
    pub fn add(&self, value: f64) -> Result<(), SketchError> {
        self.add_n(value, C::Value::ONE)
    }

    /// Insert `count` occurrences of `value`. Lock-free; shared reference.
    ///
    /// Validation matches [`crate::DDSketch::add_n`] exactly: non-finite
    /// and over-range values are rejected untouched, near-zero magnitudes
    /// land in the exact zero bucket. On the weighted plane an invalid
    /// count (NaN, infinite, negative) is rejected as `InvalidConfig`,
    /// matching [`crate::DDSketch::add_with_count`].
    pub fn add_n(&self, value: f64, count: C::Value) -> Result<(), SketchError> {
        if !value.is_finite() {
            return Err(SketchError::UnsupportedValue(value));
        }
        if !count.is_valid() {
            return Err(SketchError::InvalidConfig(format!(
                "count {count:?} is not a valid multiplicity"
            )));
        }
        if count == C::Value::ZERO {
            return Ok(());
        }
        let magnitude = value.abs();
        if magnitude > self.mapping.max_indexable_value() {
            return Err(SketchError::UnsupportedValue(value));
        }
        if magnitude < self.mapping.min_indexable_value() {
            self.zero_count.fetch_add(count);
        } else if value > 0.0 {
            self.positive
                .add_n(i64::from(self.mapping.index(value)), count);
        } else {
            self.negative
                .add_n(-i64::from(self.mapping.index(magnitude)), count);
        }
        self.note_extremes(value);
        let stripe = &self.stripes[stripe_id()];
        stripe.count.fetch_add(count);
        stripe.add_sum(value * count.to_f64());
        Ok(())
    }

    /// [`AtomicDDSketch::add_n`] under the name the sequential weighted
    /// plane uses.
    #[inline]
    pub fn add_with_count(&self, value: f64, count: C::Value) -> Result<(), SketchError> {
        self.add_n(value, count)
    }

    /// Insert a batch. All-or-nothing like the sequential fast path: the
    /// whole slice is validated before the first counter moves, and the
    /// summary stripes are updated once per batch rather than per value.
    pub fn add_slice(&self, values: &[f64]) -> Result<(), SketchError> {
        let max_indexable = self.mapping.max_indexable_value();
        for &v in values {
            if !v.is_finite() || v.abs() > max_indexable {
                return Err(SketchError::UnsupportedValue(v));
            }
        }
        let min_indexable = self.mapping.min_indexable_value();
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
        for &v in values {
            let magnitude = v.abs();
            if magnitude < min_indexable {
                self.zero_count.fetch_add(C::Value::ONE);
            } else if v > 0.0 {
                self.positive
                    .add_n(i64::from(self.mapping.index(v)), C::Value::ONE);
            } else {
                self.negative
                    .add_n(-i64::from(self.mapping.index(magnitude)), C::Value::ONE);
            }
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        if values.is_empty() {
            return Ok(());
        }
        self.note_extremes(min);
        self.note_extremes(max);
        let stripe = &self.stripes[stripe_id()];
        stripe
            .count
            .fetch_add(C::Value::from_u64(values.len() as u64));
        stripe.add_sum(sum);
        Ok(())
    }

    /// Total inserted count (striped totals + zero bucket). Lock-free;
    /// exact at quiescence, momentarily approximate while racing writers.
    pub fn count(&self) -> C::Value {
        let mut striped = C::Value::ZERO;
        for s in self.stripes.iter() {
            striped += s.count.get();
        }
        striped
    }

    /// Whether no data has been inserted (subject to the same racing-read
    /// caveat as [`AtomicDDSketch::count`]).
    pub fn is_empty(&self) -> bool {
        self.count() == C::Value::ZERO
    }

    /// Structural memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.positive.memory_bytes()
            + self.negative.memory_bytes()
            + self.stripes.len() * std::mem::size_of::<CachePadded<Stripe<C>>>()
    }

    /// Raw summary pieces shared by both snapshot planes.
    fn summary_parts(&self) -> (f64, f64, f64) {
        let min = key_f64(self.min_key.load(Relaxed));
        let max = key_f64(self.max_key.load(Relaxed));
        let sum: f64 = self
            .stripes
            .iter()
            .map(|s| f64::from_bits(s.sum_bits.load(Relaxed)))
            .sum();
        (min, max, sum)
    }

    /// Scan both stores into `scratch` (positive ascending, negative
    /// un-negated), the shared first half of every snapshot.
    fn scan_stores(&self, scratch: &mut AtomicSketchScratch<C::Value>) {
        scratch.pos.clear();
        scratch.neg.clear();
        scratch.raw.clear();
        self.positive
            .snapshot_bins(&mut scratch.raw, &mut scratch.store);
        for &(i, c) in &scratch.raw {
            scratch.pos.push((i as i32, c));
        }
        scratch.raw.clear();
        self.negative
            .snapshot_bins(&mut scratch.raw, &mut scratch.store);
        for &(i, c) in &scratch.raw {
            // Stored negated; un-negate to the mapping's real index.
            scratch.neg.push(((-i) as i32, c));
        }
    }
}

impl<M: IndexMapping> AtomicDDSketch<M> {
    /// Absorb a regular sketch's contents (the [`LocalIngest`] publish
    /// path): every bin is `fetch_add`ed, summaries are folded. Union
    /// semantics — bounded clamping happens at snapshot time exactly as a
    /// merge would apply it. Allocation-free.
    ///
    /// The caller (the `Any` wrapper) has already checked configuration
    /// compatibility.
    fn absorb_sketch(&self, other: &AnyDDSketch) {
        dispatch!(other, s => {
            for (i, c) in s.positive_store().bin_iter() {
                self.positive.add_n(i64::from(i), c);
            }
            for (i, c) in s.negative_store().bin_iter() {
                self.negative.add_n(-i64::from(i), c);
            }
        });
        let zeros = other.zero_count();
        if zeros > 0 {
            SharedCell::fetch_add(&self.zero_count, zeros);
        }
        if let Some(min) = other.min() {
            self.note_extremes(min);
        }
        if let Some(max) = other.max() {
            self.note_extremes(max);
        }
        let count = other.count();
        if count > 0 {
            let stripe = &self.stripes[stripe_id()];
            SharedCell::fetch_add(&stripe.count, count);
            stripe.add_sum(other.sum());
        }
    }

    /// Materialize the current contents into `target` (cleared first),
    /// which must have been built for the same [`SketchConfig`].
    ///
    /// The bucket scan is epoch-validated against concurrent folds; see
    /// the module docs for what a racing read observes. With `scratch`
    /// reused across calls, steady-state snapshots do not allocate beyond
    /// the target's own store growth.
    pub fn snapshot_into(
        &self,
        target: &mut AnyDDSketch,
        scratch: &mut AtomicSketchScratch,
    ) -> Result<(), SketchError> {
        if target.config() != self.config {
            return Err(SketchError::IncompatibleMerge(format!(
                "snapshot target config {:?} != atomic sketch config {:?}",
                target.config(),
                self.config
            )));
        }
        target.clear();
        self.scan_stores(scratch);
        let (min, max, sum) = self.summary_parts();
        target.absorb_raw(
            Cell::get(&self.zero_count),
            min,
            max,
            sum,
            &scratch.pos,
            &scratch.neg,
        );
        Ok(())
    }

    /// Allocating convenience wrapper around
    /// [`AtomicDDSketch::snapshot_into`].
    pub fn snapshot(&self) -> Result<AnyDDSketch, SketchError> {
        let mut target = AnyDDSketch::new(self.config)?;
        let mut scratch = AtomicSketchScratch::default();
        self.snapshot_into(&mut target, &mut scratch)?;
        Ok(target)
    }
}

impl<M: IndexMapping> WeightedAtomicDDSketch<M> {
    /// Absorb a weighted sketch's contents — the weighted mirror of
    /// [`AnyAtomicDDSketch::absorb`] on the integer plane. The donor must
    /// share this sketch's configuration.
    pub fn absorb_weighted(&self, other: &AnyWeightedDDSketch) -> Result<(), SketchError> {
        if other.config() != self.config {
            return Err(SketchError::IncompatibleMerge(format!(
                "cannot absorb {:?} into atomic sketch {:?}",
                other.config(),
                self.config
            )));
        }
        for (i, c) in other.positive_bins() {
            self.positive.add_n(i64::from(i), c);
        }
        for (i, c) in other.negative_bins() {
            self.negative.add_n(-i64::from(i), c);
        }
        let zeros = other.zero_weight();
        if zeros > 0.0 {
            SharedCell::fetch_add(&self.zero_count, zeros);
        }
        if let Some(min) = other.min() {
            self.note_extremes(min);
        }
        if let Some(max) = other.max() {
            self.note_extremes(max);
        }
        let count = other.weighted_count();
        if count > 0.0 {
            let stripe = &self.stripes[stripe_id()];
            SharedCell::fetch_add(&stripe.count, count);
            stripe.add_sum(other.sum());
        }
        Ok(())
    }

    /// Materialize the weighted plane's contents into `target` (cleared
    /// first), which must have been built for the same [`SketchConfig`] —
    /// the weighted mirror of [`AtomicDDSketch::snapshot_into`].
    pub fn snapshot_weighted_into(
        &self,
        target: &mut AnyWeightedDDSketch,
        scratch: &mut AtomicSketchScratch<f64>,
    ) -> Result<(), SketchError> {
        if target.config() != self.config {
            return Err(SketchError::IncompatibleMerge(format!(
                "snapshot target config {:?} != atomic sketch config {:?}",
                target.config(),
                self.config
            )));
        }
        target.clear();
        self.scan_stores(scratch);
        let (min, max, sum) = self.summary_parts();
        target.absorb_raw(
            Cell::get(&self.zero_count),
            min,
            max,
            sum,
            &scratch.pos,
            &scratch.neg,
        );
        Ok(())
    }

    /// Allocating convenience wrapper around
    /// [`WeightedAtomicDDSketch::snapshot_weighted_into`].
    pub fn snapshot_weighted(&self) -> Result<AnyWeightedDDSketch, SketchError> {
        let mut target = AnyWeightedDDSketch::new(self.config)?;
        let mut scratch = AtomicSketchScratch::default();
        self.snapshot_weighted_into(&mut target, &mut scratch)?;
        Ok(target)
    }
}

/// Runtime-configured [`AtomicDDSketch`]: one enum over the dense-family
/// mappings, mirroring how [`AnyDDSketch`] wraps the sequential presets.
#[derive(Debug)]
pub enum AnyAtomicDDSketch {
    /// Exact logarithmic mapping (unbounded or collapsing dense stores).
    Log(AtomicDDSketch<LogarithmicMapping>),
    /// Cubic-interpolated mapping (the `fast` preset's collapsing dense
    /// stores).
    Cubic(AtomicDDSketch<CubicInterpolatedMapping>),
}

/// Dispatch over the wrapped mapping, mirroring `any::dispatch!`.
macro_rules! adispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnyAtomicDDSketch::Log($s) => $body,
            AnyAtomicDDSketch::Cubic($s) => $body,
        }
    };
}

impl AnyAtomicDDSketch {
    /// Whether `config` can run on the lock-free plane (dense store
    /// families only; see module docs).
    pub fn supports(config: &SketchConfig) -> bool {
        matches!(
            config.store,
            StoreKind::Unbounded | StoreKind::CollapsingDense
        ) && matches!(
            config.mapping,
            MappingKind::Logarithmic | MappingKind::CubicInterpolated
        )
    }

    /// Build an empty lock-free sketch for `config`.
    ///
    /// Errors with `InvalidConfig` for the sparse store families, which
    /// stay on the locked plane.
    pub fn new(config: SketchConfig) -> Result<Self, SketchError> {
        config.validate()?;
        if !Self::supports(&config) {
            return Err(SketchError::InvalidConfig(format!(
                "the lock-free ingest plane requires a dense store family \
                 (got {:?} / {})",
                config.mapping,
                config.store.name()
            )));
        }
        Ok(match config.mapping {
            MappingKind::Logarithmic => AnyAtomicDDSketch::Log(AtomicDDSketch::with_mapping(
                LogarithmicMapping::new(config.alpha)?,
                config,
            )),
            MappingKind::CubicInterpolated => AnyAtomicDDSketch::Cubic(
                AtomicDDSketch::with_mapping(CubicInterpolatedMapping::new(config.alpha)?, config),
            ),
            _ => unreachable!("supports() limits the mapping kinds"),
        })
    }

    /// The configuration this sketch was built for.
    pub fn config(&self) -> SketchConfig {
        adispatch!(self, s => s.config())
    }

    /// Insert one occurrence of `value`. Lock-free; shared reference.
    #[inline]
    pub fn add(&self, value: f64) -> Result<(), SketchError> {
        adispatch!(self, s => s.add(value))
    }

    /// Insert `count` occurrences of `value`. Lock-free; shared reference.
    pub fn add_n(&self, value: f64, count: u64) -> Result<(), SketchError> {
        adispatch!(self, s => s.add_n(value, count))
    }

    /// Insert a batch (all-or-nothing validation). Lock-free.
    pub fn add_slice(&self, values: &[f64]) -> Result<(), SketchError> {
        adispatch!(self, s => s.add_slice(values))
    }

    /// Total inserted count (exact at quiescence).
    pub fn count(&self) -> u64 {
        adispatch!(self, s => s.count())
    }

    /// Whether no data has been inserted.
    pub fn is_empty(&self) -> bool {
        adispatch!(self, s => s.is_empty())
    }

    /// Absorb a regular sketch (the thread-local publish path). The
    /// donor must share this sketch's configuration.
    pub fn absorb(&self, other: &AnyDDSketch) -> Result<(), SketchError> {
        let (ours, theirs) = (self.config(), other.config());
        if ours != theirs {
            return Err(SketchError::IncompatibleMerge(format!(
                "cannot absorb {:?} into atomic sketch {ours:?}",
                theirs
            )));
        }
        adispatch!(self, s => s.absorb_sketch(other));
        Ok(())
    }

    /// Materialize into `target` (same config, cleared first); see
    /// [`AtomicDDSketch::snapshot_into`].
    pub fn snapshot_into(
        &self,
        target: &mut AnyDDSketch,
        scratch: &mut AtomicSketchScratch,
    ) -> Result<(), SketchError> {
        adispatch!(self, s => s.snapshot_into(target, scratch))
    }

    /// Allocating convenience snapshot.
    pub fn snapshot(&self) -> Result<AnyDDSketch, SketchError> {
        adispatch!(self, s => s.snapshot())
    }

    /// Structural memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        adispatch!(self, s => s.memory_bytes())
    }
}

impl<M: IndexMapping + Sync> sketch_core::ConcurrentIngest for AtomicDDSketch<M> {
    fn add(&self, value: f64) -> Result<(), SketchError> {
        AtomicDDSketch::add(self, value)
    }

    fn add_n(&self, value: f64, count: u64) -> Result<(), SketchError> {
        AtomicDDSketch::add_n(self, value, count)
    }

    fn add_slice(&self, values: &[f64]) -> Result<(), SketchError> {
        AtomicDDSketch::add_slice(self, values)
    }

    fn count(&self) -> u64 {
        AtomicDDSketch::count(self)
    }
}

impl sketch_core::ConcurrentIngest for AnyAtomicDDSketch {
    fn add(&self, value: f64) -> Result<(), SketchError> {
        AnyAtomicDDSketch::add(self, value)
    }

    fn add_n(&self, value: f64, count: u64) -> Result<(), SketchError> {
        AnyAtomicDDSketch::add_n(self, value, count)
    }

    fn add_slice(&self, values: &[f64]) -> Result<(), SketchError> {
        AnyAtomicDDSketch::add_slice(self, values)
    }

    fn count(&self) -> u64 {
        AnyAtomicDDSketch::count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_configs() -> Vec<SketchConfig> {
        vec![
            SketchConfig::unbounded(0.01),
            SketchConfig::dense_collapsing(0.01, 512),
            SketchConfig::fast(0.01, 512),
        ]
    }

    #[test]
    fn key_encoding_preserves_order() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(
                f64_key(w[0]) <= f64_key(w[1]),
                "key order broke between {} and {}",
                w[0],
                w[1]
            );
        }
        for v in values {
            assert_eq!(key_f64(f64_key(v)).to_bits(), v.to_bits());
        }
        assert!(f64_key(-0.0) < f64_key(0.0));
    }

    #[test]
    fn sequential_adds_match_plain_sketch_exactly() {
        for config in dense_configs() {
            let atomic = AnyAtomicDDSketch::new(config).unwrap();
            let mut plain = AnyDDSketch::new(config).unwrap();
            for i in 1..=4000 {
                let v = f64::from(i) * 0.37 * if i % 5 == 0 { -1.0 } else { 1.0 };
                atomic.add(v).unwrap();
                plain.add(v).unwrap();
            }
            atomic.add(1e-300).unwrap();
            plain.add(1e-300).unwrap();
            let snap = atomic.snapshot().unwrap();
            assert_eq!(snap.config(), config);
            assert_eq!(snap.count(), plain.count(), "{}", config.name());
            assert_eq!(snap.positive_bins(), plain.positive_bins());
            assert_eq!(snap.negative_bins(), plain.negative_bins());
            assert_eq!(snap.min(), plain.min());
            assert_eq!(snap.max(), plain.max());
            assert_eq!(snap.zero_count(), plain.zero_count());
            assert_eq!(snap.sum().to_bits(), plain.sum().to_bits());
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                assert_eq!(
                    snap.quantile(q).unwrap(),
                    plain.quantile(q).unwrap(),
                    "{} q={q}",
                    config.name()
                );
            }
        }
    }

    #[test]
    fn rejects_what_the_plain_sketch_rejects() {
        let atomic = AnyAtomicDDSketch::new(SketchConfig::unbounded(0.01)).unwrap();
        assert!(matches!(
            atomic.add(f64::NAN),
            Err(SketchError::UnsupportedValue(_))
        ));
        assert!(atomic.add(f64::INFINITY).is_err());
        assert!(atomic.add(f64::MAX).is_err(), "beyond max indexable");
        // Batch validation is all-or-nothing.
        assert!(atomic.add_slice(&[1.0, f64::NAN, 2.0]).is_err());
        assert_eq!(atomic.count(), 0, "failed batch must not ingest");
        assert!(atomic.add_slice(&[]).is_ok());
        assert!(atomic.is_empty());
    }

    #[test]
    fn sparse_configs_are_rejected() {
        let sparse = SketchConfig::sparse(0.01);
        assert!(!AnyAtomicDDSketch::supports(&sparse));
        assert!(matches!(
            AnyAtomicDDSketch::new(sparse),
            Err(SketchError::InvalidConfig(_))
        ));
    }

    #[test]
    fn add_slice_matches_scalar_adds_bucketwise() {
        for config in dense_configs() {
            let batched = AnyAtomicDDSketch::new(config).unwrap();
            let scalar = AnyAtomicDDSketch::new(config).unwrap();
            let values: Vec<f64> = (1..=2000)
                .map(|i| f64::from(i) * 0.11 * if i % 3 == 0 { -1.0 } else { 1.0 })
                .collect();
            batched.add_slice(&values).unwrap();
            for &v in &values {
                scalar.add(v).unwrap();
            }
            let bs = batched.snapshot().unwrap();
            let ss = scalar.snapshot().unwrap();
            assert_eq!(bs.count(), ss.count());
            assert_eq!(bs.positive_bins(), ss.positive_bins());
            assert_eq!(bs.negative_bins(), ss.negative_bins());
            assert_eq!(bs.min(), ss.min());
            assert_eq!(bs.max(), ss.max());
        }
    }

    #[test]
    fn absorb_equals_union_merge() {
        for config in dense_configs() {
            let atomic = AnyAtomicDDSketch::new(config).unwrap();
            let mut donor = AnyDDSketch::new(config).unwrap();
            let mut reference = AnyDDSketch::new(config).unwrap();
            for i in 1..=1000 {
                let direct = f64::from(i) * 0.9;
                atomic.add(direct).unwrap();
                reference.add(direct).unwrap();
                let local = f64::from(i) * -1.3;
                donor.add(local).unwrap();
                reference.add(local).unwrap();
            }
            atomic.absorb(&donor).unwrap();
            let snap = atomic.snapshot().unwrap();
            assert_eq!(snap.count(), reference.count());
            assert_eq!(snap.positive_bins(), reference.positive_bins());
            assert_eq!(snap.negative_bins(), reference.negative_bins());
            assert_eq!(snap.min(), reference.min());
            assert_eq!(snap.max(), reference.max());

            // Config mismatch is rejected.
            let other = AnyDDSketch::new(SketchConfig::sparse(0.01)).unwrap();
            assert!(matches!(
                atomic.absorb(&other),
                Err(SketchError::IncompatibleMerge(_))
            ));
        }
    }

    #[test]
    fn concurrent_mixed_ingest_is_exact_after_join() {
        for config in dense_configs() {
            let atomic = AnyAtomicDDSketch::new(config).unwrap();
            let threads = 8;
            let per_thread = 5_000;
            std::thread::scope(|s| {
                for t in 0..threads {
                    let atomic = &atomic;
                    s.spawn(move || {
                        let base: Vec<f64> = (0..per_thread)
                            .map(|i| (t * per_thread + i + 1) as f64 * 1e-3)
                            .collect();
                        // Mix scalar, weighted, negative, and batch adds.
                        for chunk in base.chunks(97) {
                            atomic.add_slice(chunk).unwrap();
                        }
                        for &v in base.iter().step_by(50) {
                            atomic.add_n(-v, 2).unwrap();
                        }
                    });
                }
            });
            let mut reference = AnyDDSketch::new(config).unwrap();
            for t in 0..threads {
                for i in 0..per_thread {
                    let v = (t * per_thread + i + 1) as f64 * 1e-3;
                    reference.add(v).unwrap();
                }
                for i in (0..per_thread).step_by(50) {
                    let v = (t * per_thread + i + 1) as f64 * 1e-3;
                    reference.add_n(-v, 2).unwrap();
                }
            }
            let snap = atomic.snapshot().unwrap();
            assert_eq!(snap.count(), reference.count(), "{}", config.name());
            assert_eq!(atomic.count(), reference.count());
            assert_eq!(snap.positive_bins(), reference.positive_bins());
            assert_eq!(snap.negative_bins(), reference.negative_bins());
            assert_eq!(snap.min(), reference.min());
            assert_eq!(snap.max(), reference.max());
            assert!((snap.sum() - reference.sum()).abs() <= reference.sum().abs() * 1e-9);
        }
    }

    #[test]
    fn snapshot_into_recycles_and_rejects_mismatched_targets() {
        let config = SketchConfig::dense_collapsing(0.01, 256);
        let atomic = AnyAtomicDDSketch::new(config).unwrap();
        for i in 1..=1000 {
            atomic.add(f64::from(i)).unwrap();
        }
        let mut scratch = AtomicSketchScratch::default();
        let mut target = AnyDDSketch::new(config).unwrap();
        atomic.snapshot_into(&mut target, &mut scratch).unwrap();
        let first_count = target.count();
        // Reuse: target is cleared, not accumulated into.
        atomic.snapshot_into(&mut target, &mut scratch).unwrap();
        assert_eq!(target.count(), first_count);

        let mut wrong = AnyDDSketch::new(SketchConfig::unbounded(0.01)).unwrap();
        assert!(atomic.snapshot_into(&mut wrong, &mut scratch).is_err());
    }

    #[test]
    fn bounded_snapshot_collapses_like_a_merge() {
        let config = SketchConfig::dense_collapsing(0.01, 64);
        let atomic = AnyAtomicDDSketch::new(config).unwrap();
        let mut plain = AnyDDSketch::new(config).unwrap();
        // Wide dynamic range forces collapsing.
        for i in 1..=6000 {
            let v = f64::from(i) * f64::from(i);
            atomic.add(v).unwrap();
            plain.add(v).unwrap();
        }
        let snap = atomic.snapshot().unwrap();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.positive_bins(), plain.positive_bins());
        assert!(snap.has_collapsed());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(snap.quantile(q).unwrap(), plain.quantile(q).unwrap());
        }
    }
}
