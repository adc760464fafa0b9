//! Runtime sketch configuration: [`SketchConfig`] and [`DDSketchBuilder`].
//!
//! The paper's deployment story (Figure 1) is agents shipping sketches to
//! an aggregator that merges whatever arrives. That requires choosing — and
//! transmitting — the sketch's parameters at *runtime*: accuracy `α`, the
//! index-mapping family, the store family, and the bucket bound. This
//! module is the single vocabulary for that choice; the five concrete
//! preset types in [`crate::presets`] remain available as statically-typed
//! fast paths, and every `SketchConfig` builds the type-erased
//! [`AnyDDSketch`] whose behaviour is bit-identical to
//! the matching preset.

use crate::mapping::MappingKind;
use crate::store::StoreKind;
use crate::AnyDDSketch;
use sketch_core::SketchError;

/// The paper's Table 2 bucket limit, used by [`DDSketchBuilder`] when a
/// bounded store is selected without an explicit `max_bins`.
pub const DEFAULT_MAX_BINS: usize = 2048;

/// A complete, validated runtime description of a DDSketch.
///
/// A config names one of the five supported (mapping, store) combinations:
///
/// | mapping | store | preset equivalent |
/// |---------|-------|-------------------|
/// | [`MappingKind::Logarithmic`] | [`StoreKind::Unbounded`] | [`crate::presets::unbounded`] |
/// | [`MappingKind::Logarithmic`] | [`StoreKind::CollapsingDense`] | [`crate::presets::logarithmic_collapsing`] |
/// | [`MappingKind::CubicInterpolated`] | [`StoreKind::CollapsingDense`] | [`crate::presets::fast`] |
/// | [`MappingKind::Logarithmic`] | [`StoreKind::Sparse`] | [`crate::presets::sparse`] |
/// | [`MappingKind::Logarithmic`] | [`StoreKind::CollapsingSparse`] | [`crate::presets::paper_exact`] |
///
/// `max_bins` must be positive exactly when the store kind is bounded, and
/// zero otherwise — so a config equals the config recovered from any sketch
/// built from it ([`AnyDDSketch::config`] round-trips).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Relative accuracy `α ∈ (0, 1)`.
    pub alpha: f64,
    /// Index-mapping family.
    pub mapping: MappingKind,
    /// Store family for both the positive and negative halves.
    pub store: StoreKind,
    /// Bucket bound for bounded store kinds; 0 for unbounded kinds.
    pub max_bins: usize,
}

impl SketchConfig {
    /// The basic unbounded sketch (paper §2.1): exact log mapping, dense
    /// unbounded stores.
    pub fn unbounded(alpha: f64) -> Self {
        Self {
            alpha,
            mapping: MappingKind::Logarithmic,
            store: StoreKind::Unbounded,
            max_bins: 0,
        }
    }

    /// The paper's evaluated configuration (Table 2): exact log mapping,
    /// collapsing dense stores bounded to `max_bins`.
    pub fn dense_collapsing(alpha: f64, max_bins: usize) -> Self {
        Self {
            alpha,
            mapping: MappingKind::Logarithmic,
            store: StoreKind::CollapsingDense,
            max_bins,
        }
    }

    /// "DDSketch (fast)": cubic-interpolated mapping with collapsing dense
    /// stores.
    pub fn fast(alpha: f64, max_bins: usize) -> Self {
        Self {
            alpha,
            mapping: MappingKind::CubicInterpolated,
            store: StoreKind::CollapsingDense,
            max_bins,
        }
    }

    /// Sparse, unbounded sketch: memory proportional to non-empty buckets.
    pub fn sparse(alpha: f64) -> Self {
        Self {
            alpha,
            mapping: MappingKind::Logarithmic,
            store: StoreKind::Sparse,
            max_bins: 0,
        }
    }

    /// Algorithm-3-exact sketch: sparse stores bounding non-empty buckets.
    pub fn paper_exact(alpha: f64, max_bins: usize) -> Self {
        Self {
            alpha,
            mapping: MappingKind::Logarithmic,
            store: StoreKind::CollapsingSparse,
            max_bins,
        }
    }

    /// Every supported configuration at the given parameters, in the
    /// presets' documentation order — handy for parameterizing tests and
    /// benchmarks over the whole matrix.
    pub fn all(alpha: f64, max_bins: usize) -> [SketchConfig; 5] {
        [
            SketchConfig::unbounded(alpha),
            SketchConfig::dense_collapsing(alpha, max_bins),
            SketchConfig::fast(alpha, max_bins),
            SketchConfig::sparse(alpha),
            SketchConfig::paper_exact(alpha, max_bins),
        ]
    }

    /// Check the config without building a sketch: `α ∈ (0, 1)`, a
    /// supported (mapping, store) combination, and a `max_bins` consistent
    /// with the store kind's boundedness.
    pub fn validate(&self) -> Result<(), SketchError> {
        if !(self.alpha.is_finite() && self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(SketchError::InvalidConfig(format!(
                "relative accuracy must be in (0, 1), got {}",
                self.alpha
            )));
        }
        match (self.mapping, self.store) {
            (MappingKind::Logarithmic, _)
            | (MappingKind::CubicInterpolated, StoreKind::CollapsingDense) => {}
            (mapping, store) => {
                return Err(SketchError::InvalidConfig(format!(
                    "unsupported combination: {mapping:?} mapping with {} store \
                     (the cubic mapping is only available with collapsing dense \
                     stores, and the linear/quadratic mappings have no preset)",
                    store.name()
                )));
            }
        }
        if self.store.is_bounded() {
            if self.max_bins == 0 {
                return Err(SketchError::InvalidConfig(format!(
                    "max_bins must be positive for the bounded {} store",
                    self.store.name()
                )));
            }
        } else if self.max_bins != 0 {
            return Err(SketchError::InvalidConfig(format!(
                "max_bins ({}) is meaningless for the unbounded {} store; set it to 0",
                self.max_bins,
                self.store.name()
            )));
        }
        Ok(())
    }

    /// Build the type-erased sketch this config describes.
    pub fn build(&self) -> Result<AnyDDSketch, SketchError> {
        AnyDDSketch::new(*self)
    }

    /// Display name matching the paper's legends. Combinations outside
    /// the supported matrix (constructible via the public fields, but
    /// rejected by [`Self::validate`]) get a distinct label rather than
    /// being conflated with a real preset.
    pub fn name(&self) -> &'static str {
        match (self.mapping, self.store) {
            (MappingKind::Logarithmic, StoreKind::Unbounded) => "DDSketch (unbounded)",
            (MappingKind::Logarithmic, StoreKind::CollapsingDense) => "DDSketch",
            (MappingKind::Logarithmic, StoreKind::Sparse) => "DDSketch (sparse)",
            (MappingKind::Logarithmic, StoreKind::CollapsingSparse) => "DDSketch (paper-exact)",
            (MappingKind::CubicInterpolated, StoreKind::CollapsingDense) => "DDSketch (fast)",
            _ => "DDSketch (unsupported)",
        }
    }
}

/// Fluent construction of an [`AnyDDSketch`] (or a bare [`SketchConfig`]).
///
/// ```
/// use ddsketch::DDSketchBuilder;
///
/// // The paper's Table 2 configuration.
/// let mut sketch = DDSketchBuilder::new(0.01).dense_collapsing(2048).build().unwrap();
/// sketch.add(1.5).unwrap();
/// assert_eq!(sketch.count(), 1);
///
/// // Store and mapping can also be picked piecemeal.
/// use ddsketch::{MappingKind, StoreKind};
/// let sparse = DDSketchBuilder::new(0.02)
///     .mapping(MappingKind::Logarithmic)
///     .store(StoreKind::Sparse)
///     .build()
///     .unwrap();
/// assert_eq!(sparse.config(), ddsketch::SketchConfig::sparse(0.02));
/// ```
#[derive(Debug, Clone)]
pub struct DDSketchBuilder {
    alpha: f64,
    mapping: MappingKind,
    store: StoreKind,
    max_bins: Option<usize>,
}

impl DDSketchBuilder {
    /// Start a builder for relative accuracy `alpha`. Defaults to the
    /// paper's evaluated configuration: exact logarithmic mapping and
    /// collapsing dense stores with [`DEFAULT_MAX_BINS`] buckets.
    pub fn new(alpha: f64) -> Self {
        Self {
            alpha,
            mapping: MappingKind::Logarithmic,
            store: StoreKind::CollapsingDense,
            max_bins: None,
        }
    }

    /// Select the index-mapping family.
    pub fn mapping(mut self, mapping: MappingKind) -> Self {
        self.mapping = mapping;
        self
    }

    /// Select the store family (keeping any `max_bins` already set).
    pub fn store(mut self, store: StoreKind) -> Self {
        self.store = store;
        self
    }

    /// Bound the stores to `max_bins` buckets (only meaningful — and then
    /// mandatory-or-defaulted — for bounded store kinds).
    pub fn max_bins(mut self, max_bins: usize) -> Self {
        self.max_bins = Some(max_bins);
        self
    }

    /// Shorthand: unbounded dense stores ([`crate::presets::unbounded`]).
    /// Last call wins: any bound implied by an earlier bounded shorthand
    /// is cleared.
    pub fn unbounded(mut self) -> Self {
        self.store = StoreKind::Unbounded;
        self.max_bins = None;
        self
    }

    /// Shorthand: collapsing dense stores bounded to `max_bins`
    /// ([`crate::presets::logarithmic_collapsing`] under the default
    /// logarithmic mapping).
    pub fn dense_collapsing(mut self, max_bins: usize) -> Self {
        self.store = StoreKind::CollapsingDense;
        self.max_bins = Some(max_bins);
        self
    }

    /// Shorthand: sparse unbounded stores ([`crate::presets::sparse`]).
    /// Last call wins: any bound implied by an earlier bounded shorthand
    /// is cleared.
    pub fn sparse(mut self) -> Self {
        self.store = StoreKind::Sparse;
        self.max_bins = None;
        self
    }

    /// Shorthand: Algorithm-3 collapsing sparse stores bounded to
    /// `max_bins` ([`crate::presets::paper_exact`]).
    pub fn sparse_collapsing(mut self, max_bins: usize) -> Self {
        self.store = StoreKind::CollapsingSparse;
        self.max_bins = Some(max_bins);
        self
    }

    /// Shorthand: the cubic-interpolated mapping — with the (default)
    /// collapsing dense stores this is the paper's "DDSketch (fast)".
    pub fn cubic(mut self) -> Self {
        self.mapping = MappingKind::CubicInterpolated;
        self
    }

    /// Resolve to a validated [`SketchConfig`].
    pub fn config(&self) -> Result<SketchConfig, SketchError> {
        let max_bins = if self.store.is_bounded() {
            self.max_bins.unwrap_or(DEFAULT_MAX_BINS)
        } else {
            // An explicit bound on an unbounded store is a caller mistake;
            // surface it through validate() rather than silently dropping.
            self.max_bins.unwrap_or(0)
        };
        let config = SketchConfig {
            alpha: self.alpha,
            mapping: self.mapping,
            store: self.store,
            max_bins,
        };
        config.validate()?;
        Ok(config)
    }

    /// Build the configured sketch.
    pub fn build(&self) -> Result<AnyDDSketch, SketchError> {
        self.config()?.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_to_the_paper_configuration() {
        let config = DDSketchBuilder::new(0.01).config().unwrap();
        assert_eq!(
            config,
            SketchConfig::dense_collapsing(0.01, DEFAULT_MAX_BINS)
        );
        assert_eq!(config.name(), "DDSketch");
    }

    #[test]
    fn builder_shorthands_match_preset_configs() {
        let alpha = 0.02;
        assert_eq!(
            DDSketchBuilder::new(alpha).unbounded().config().unwrap(),
            SketchConfig::unbounded(alpha)
        );
        assert_eq!(
            DDSketchBuilder::new(alpha)
                .dense_collapsing(512)
                .config()
                .unwrap(),
            SketchConfig::dense_collapsing(alpha, 512)
        );
        assert_eq!(
            DDSketchBuilder::new(alpha)
                .cubic()
                .dense_collapsing(512)
                .config()
                .unwrap(),
            SketchConfig::fast(alpha, 512)
        );
        assert_eq!(
            DDSketchBuilder::new(alpha).sparse().config().unwrap(),
            SketchConfig::sparse(alpha)
        );
        assert_eq!(
            DDSketchBuilder::new(alpha)
                .sparse_collapsing(64)
                .config()
                .unwrap(),
            SketchConfig::paper_exact(alpha, 64)
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        for alpha in [0.0, 1.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(SketchConfig::dense_collapsing(alpha, 2048)
                .validate()
                .is_err());
        }
        // Bounded store without a bound.
        assert!(SketchConfig::dense_collapsing(0.01, 0).validate().is_err());
        assert!(SketchConfig::paper_exact(0.01, 0).validate().is_err());
        // Bound on an unbounded store.
        let mut c = SketchConfig::sparse(0.01);
        c.max_bins = 8;
        assert!(c.validate().is_err());
        assert!(DDSketchBuilder::new(0.01)
            .sparse()
            .max_bins(8)
            .build()
            .is_err());
        // Unsupported mapping/store combinations.
        let mut c = SketchConfig::fast(0.01, 2048);
        c.store = StoreKind::Sparse;
        c.max_bins = 0;
        assert!(c.validate().is_err());
        assert!(DDSketchBuilder::new(0.01)
            .mapping(MappingKind::LinearInterpolated)
            .build()
            .is_err());
        assert!(DDSketchBuilder::new(0.01)
            .mapping(MappingKind::QuadraticInterpolated)
            .build()
            .is_err());
        assert!(DDSketchBuilder::new(0.01).cubic().sparse().build().is_err());
    }

    #[test]
    fn unbounded_shorthands_clear_a_previous_bound() {
        // Last call wins: switching from a bounded shorthand to an
        // unbounded one must not leave a stale max_bins behind.
        assert_eq!(
            DDSketchBuilder::new(0.01)
                .dense_collapsing(2048)
                .sparse()
                .config()
                .unwrap(),
            SketchConfig::sparse(0.01)
        );
        assert_eq!(
            DDSketchBuilder::new(0.01)
                .sparse_collapsing(64)
                .unbounded()
                .config()
                .unwrap(),
            SketchConfig::unbounded(0.01)
        );
        // And switching back re-defaults the bound.
        assert_eq!(
            DDSketchBuilder::new(0.01)
                .dense_collapsing(64)
                .sparse()
                .dense_collapsing(128)
                .config()
                .unwrap(),
            SketchConfig::dense_collapsing(0.01, 128)
        );
    }

    #[test]
    fn unsupported_combinations_are_not_mislabeled() {
        let mut c = SketchConfig::sparse(0.01);
        c.mapping = MappingKind::LinearInterpolated;
        assert_eq!(c.name(), "DDSketch (unsupported)");
        assert!(c.validate().is_err());
        assert_eq!(SketchConfig::fast(0.01, 64).name(), "DDSketch (fast)");
    }

    #[test]
    fn all_configs_validate_and_build() {
        for config in SketchConfig::all(0.01, 1024) {
            config.validate().unwrap();
            let sketch = config.build().unwrap();
            assert_eq!(sketch.config(), config);
        }
    }
}
