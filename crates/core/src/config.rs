//! Configuration for tree construction and querying.

use crate::error::{PandaError, Result};

/// How the split dimension is chosen at each tree level (§III-A1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitDimStrategy {
    /// Dimension of maximum variance estimated on a sample — PANDA's choice
    /// (costs up to 18% extra construction, buys up to 43% query time).
    MaxVariance {
        /// Number of points sampled for the variance estimate.
        sample: usize,
    },
    /// Dimension of maximum coordinate range (ANN's choice) — cheaper to
    /// compute, worse trees on anisotropic data.
    MaxExtent,
    /// Cycle dimensions round-robin by depth (classic Bentley kd-tree);
    /// ablation baseline.
    RoundRobin,
}

impl Default for SplitDimStrategy {
    fn default() -> Self {
        // The paper computes variances "on a subset of points … similar to
        // the strategy used in FLANN" (which uses ~100); 128 keeps the
        // estimate stable in up to 16 dimensions at negligible cost.
        SplitDimStrategy::MaxVariance { sample: 128 }
    }
}

/// How the split value along the chosen dimension is found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitValueStrategy {
    /// Sampled non-uniform histogram, pick the interval point nearest the
    /// target quantile — PANDA's choice (§III-A1, after \[11\]).
    SampledHistogram {
        /// Sample size (paper: 1024 for the local tree, 256/rank global).
        samples: usize,
    },
    /// Exact median via selection — slower; ablation/ground-truth option.
    ExactMedian,
    /// Mean of the first 100 points along the dimension (FLANN's heuristic,
    /// §V-B2); kept here for ablations.
    MeanFirst100,
}

impl Default for SplitValueStrategy {
    fn default() -> Self {
        SplitValueStrategy::SampledHistogram { samples: 1024 }
    }
}

/// Histogram binning implementation (§III-A1 optimization).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HistScan {
    /// Branchy binary search over the sorted interval points.
    Binary,
    /// Two-level scan: every 32nd interval point is pulled into a
    /// sub-interval array scanned linearly (SIMD-friendly), then the
    /// 32-wide range is scanned — the paper's 42% construction win.
    #[default]
    SubInterval,
}

/// Lower-bound computation used while traversing the tree (Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BoundMode {
    /// Exact incremental bound with per-dimension side distances
    /// (Arya–Mount). Guarantees exact KNN. Default.
    #[default]
    Exact,
    /// The scalar accumulation exactly as printed in the paper's
    /// Algorithm 1 (`d' ← √(d·d + d'·d')`). Slightly over-estimates the
    /// bound when a dimension repeats along a path, which can (rarely)
    /// prune a true neighbor — kept for the fidelity ablation.
    PaperScalar,
}

/// Order in which a query batch is executed (results are always returned
/// in input order; this only affects locality, never values).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueryOrder {
    /// Run queries exactly as given.
    #[default]
    Input,
    /// Sort queries along a Morton (Z-order) curve before dispatch, so
    /// consecutive queries touch the same tree nodes and leaf buckets —
    /// the locality-aware batching that ParlayANN-style schedulers use to
    /// win constant factors. Results are scattered back to input order.
    Morton,
}

/// Local kd-tree construction parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeConfig {
    /// Maximum points per leaf bucket (paper: 32 empirically best).
    pub bucket_size: usize,
    /// Split-dimension strategy.
    pub split_dim: SplitDimStrategy,
    /// Split-value strategy.
    pub split_value: SplitValueStrategy,
    /// Histogram binning variant.
    pub hist_scan: HistScan,
    /// Stop breadth-first data parallelism once the number of open
    /// segments reaches `threads × data_parallel_factor` (paper: ×10).
    pub data_parallel_factor: usize,
    /// Thread count used for (a) real rayon parallelism when `parallel`
    /// and (b) the modeled thread pool in simulated runs.
    pub threads: usize,
    /// Use real rayon parallelism for construction (single-node API).
    /// Distributed ranks run their local build sequentially and charge the
    /// modeled thread pool instead.
    pub parallel: bool,
    /// Segments at or below this size use an exact median regardless of
    /// `split_value` (cheap at small n, bounds tree depth).
    pub exact_median_below: usize,
    /// RNG seed for all sampling, making construction deterministic.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            bucket_size: 32,
            split_dim: SplitDimStrategy::default(),
            split_value: SplitValueStrategy::default(),
            hist_scan: HistScan::default(),
            data_parallel_factor: 10,
            threads: 1,
            parallel: false,
            exact_median_below: 4096,
            seed: 0x9E3779B97F4A7C15,
        }
    }
}

impl TreeConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.bucket_size == 0 {
            return Err(PandaError::BadConfig("bucket_size must be ≥ 1".into()));
        }
        if self.threads == 0 {
            return Err(PandaError::BadConfig("threads must be ≥ 1".into()));
        }
        if self.data_parallel_factor == 0 {
            return Err(PandaError::BadConfig(
                "data_parallel_factor must be ≥ 1".into(),
            ));
        }
        match self.split_dim {
            SplitDimStrategy::MaxVariance { sample } if sample < 2 => {
                return Err(PandaError::BadConfig("variance sample must be ≥ 2".into()))
            }
            _ => {}
        }
        if let SplitValueStrategy::SampledHistogram { samples } = self.split_value {
            if samples < 2 {
                return Err(PandaError::BadConfig(
                    "histogram samples must be ≥ 2".into(),
                ));
            }
        }
        Ok(())
    }

    /// Builder-style: set bucket size.
    #[must_use]
    pub fn with_bucket_size(mut self, b: usize) -> Self {
        self.bucket_size = b;
        self
    }

    /// Builder-style: set thread count.
    #[must_use]
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Builder-style: enable real rayon parallelism.
    #[must_use]
    pub fn with_parallel(mut self, p: bool) -> Self {
        self.parallel = p;
        self
    }

    /// Builder-style: set the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
}

/// Distributed construction parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistConfig {
    /// Local-tree construction parameters (per rank).
    pub local: TreeConfig,
    /// Points sampled *per rank* for each global split (paper: 256).
    pub global_samples_per_rank: usize,
    /// Gather per-rank bounding boxes after redistribution (enables
    /// `bbox_routing` at query time).
    pub gather_rank_bboxes: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            local: TreeConfig::default(),
            global_samples_per_rank: 256,
            gather_rank_bboxes: true,
        }
    }
}

impl DistConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        self.local.validate()?;
        if self.global_samples_per_rank < 2 {
            return Err(PandaError::BadConfig(
                "global_samples_per_rank must be ≥ 2".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_choices() {
        let t = TreeConfig::default();
        assert_eq!(t.bucket_size, 32);
        assert_eq!(t.split_dim, SplitDimStrategy::MaxVariance { sample: 128 });
        assert_eq!(
            t.split_value,
            SplitValueStrategy::SampledHistogram { samples: 1024 }
        );
        assert_eq!(t.hist_scan, HistScan::SubInterval);
        assert_eq!(t.data_parallel_factor, 10);
        let d = DistConfig::default();
        assert_eq!(d.global_samples_per_rank, 256);
        assert_eq!(BoundMode::default(), BoundMode::Exact);
        assert_eq!(QueryOrder::default(), QueryOrder::Input);
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        assert!(TreeConfig::default()
            .with_bucket_size(0)
            .validate()
            .is_err());
        assert!(TreeConfig::default().with_threads(0).validate().is_err());
        assert!(TreeConfig {
            data_parallel_factor: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TreeConfig {
            split_dim: SplitDimStrategy::MaxVariance { sample: 1 },
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TreeConfig {
            split_value: SplitValueStrategy::SampledHistogram { samples: 0 },
            ..Default::default()
        }
        .validate()
        .is_err());

        assert!(DistConfig {
            global_samples_per_rank: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builders_compose() {
        let t = TreeConfig::default()
            .with_bucket_size(16)
            .with_threads(4)
            .with_parallel(true);
        assert_eq!(t.bucket_size, 16);
        assert_eq!(t.threads, 4);
        assert!(t.parallel);
        assert!(t.validate().is_ok());
    }
}
