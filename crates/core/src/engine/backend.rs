//! The backend trait: one algorithm-agnostic interface over every
//! nearest-neighbor engine in the workspace.

use crate::config::TreeConfig;
use crate::engine::{QueryRequest, QueryResponse};
use crate::error::Result;
use crate::knn::KnnIndex;
use crate::point::PointSet;

/// An interchangeable nearest-neighbor engine.
///
/// The trait is object-safe: benches, figures, and parity tests iterate
/// `Box<dyn NnBackend>` (or `&dyn NnBackend`) instead of re-plumbing each
/// engine's build/query shape by hand. `build` is excluded from the
/// vtable (`where Self: Sized`); backends that need more context than
/// `(points, config)` — e.g. [`crate::engine::ShardedIndex`], which
/// needs a shard count — keep `build`'s rejecting default body and
/// provide inherent constructors instead.
///
/// Exactness contract: every implementation in this workspace answers
/// [`QueryRequest`]s **exactly** (bit-identical to brute force under the
/// default [`crate::BoundMode::Exact`]); `tests/backend_parity.rs` holds
/// all of them to it.
pub trait NnBackend {
    /// Build an index over `points`. Backends ignore `TreeConfig` fields
    /// that do not apply to them (e.g. brute force ignores all of it).
    ///
    /// The default body rejects the call: backends that need more context
    /// than `(points, config)` — e.g. [`crate::engine::ShardedIndex`],
    /// which needs a shard count — keep the default and provide inherent
    /// constructors instead.
    fn build(points: &PointSet, cfg: &TreeConfig) -> Result<Self>
    where
        Self: Sized,
    {
        let _ = (points, cfg);
        Err(crate::error::PandaError::BadConfig(
            "this backend cannot be built from (points, config) alone; \
             use its inherent constructor"
                .into(),
        ))
    }

    /// Answer a batch of queries. Results come back in input order as a
    /// flat CSR [`crate::engine::NeighborTable`].
    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse>;

    /// Short stable identifier for tables and logs (e.g. `"panda-local"`).
    fn name(&self) -> &'static str;

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// True when no points are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed points.
    fn dims(&self) -> usize;

    /// Monotonic version stamp of the indexed data: anything that keeps
    /// answers across calls can tell from it whether they may have gone
    /// stale. Immutable backends keep the default constant `0`; mutable
    /// backends must return a value that changes whenever a write could
    /// alter any query's answer.
    fn data_epoch(&self) -> u64 {
        0
    }

    /// Number of independent shards serving this backend (`1` for every
    /// single-node engine). Callers that size or report per-shard work
    /// (benchmarks, telemetry) read it instead of downcasting.
    fn shard_count(&self) -> usize {
        1
    }

    /// The backend's `panda_obs` metrics registry, when it keeps one.
    /// Front ends (e.g. `ServiceHandle::telemetry` in `panda_service`)
    /// merge it into their own snapshot so one exposition call covers
    /// the whole stack. Backends without internal metrics keep the
    /// default `None`.
    fn registry(&self) -> Option<panda_obs::Registry> {
        None
    }
}

impl NnBackend for KnnIndex {
    fn build(points: &PointSet, cfg: &TreeConfig) -> Result<Self> {
        KnnIndex::build(points, cfg)
    }

    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        self.query_session(req)
    }

    fn name(&self) -> &'static str {
        "panda-local"
    }

    fn len(&self) -> usize {
        KnnIndex::len(self)
    }

    fn dims(&self) -> usize {
        KnnIndex::dims(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitRng;

    fn random_ps(n: usize, dims: usize, seed: u64) -> PointSet {
        let mut rng = SplitRng::new(seed);
        PointSet::from_coords(
            dims,
            (0..n * dims)
                .map(|_| (rng.next_f64() * 10.0) as f32)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn knn_index_through_trait_object() {
        let ps = random_ps(2000, 3, 1);
        let queries = random_ps(50, 3, 2);
        let backend: Box<dyn NnBackend> =
            Box::new(KnnIndex::build(&ps, &TreeConfig::default()).unwrap());
        assert_eq!(backend.name(), "panda-local");
        assert_eq!(backend.len(), 2000);
        assert_eq!(backend.dims(), 3);
        assert!(!backend.is_empty());
        let res = backend.query(&QueryRequest::knn(&queries, 4)).unwrap();
        assert_eq!(res.len(), 50);
        assert_eq!(res.counters.queries, 50);
        assert!(res.remote.is_none());
        for row in res.neighbors.iter() {
            assert_eq!(row.len(), 4);
            assert!(row.windows(2).all(|w| w[0].dist_sq <= w[1].dist_sq));
        }
    }
}
