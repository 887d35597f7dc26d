//! A timing adapter placed between `QueryService` and its backend.
//!
//! It forwards every `NnBackend` method, so cache sizing
//! (`shard_count`), epoch invalidation (`data_epoch`) and telemetry
//! (`registry`) behave exactly as with the bare backend; `query` is
//! additionally timed and its counters kept.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use panda_core::engine::{NnBackend, QueryRequest, QueryResponse};
use panda_core::query_distributed::RemoteStats;
use panda_core::{QueryCounters, Result};

/// One timed backend call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub start: Instant,
    pub end: Instant,
    pub queries: usize,
    pub ok: bool,
    pub counters: QueryCounters,
    pub remote: Option<RemoteStats>,
}

impl Call {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct TimedBackend<B: ?Sized> {
    inner: Arc<B>,
    calls: Mutex<Vec<Call>>,
}

impl<B: NnBackend + ?Sized> TimedBackend<B> {
    pub fn new(inner: Arc<B>) -> Self {
        Self {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Every call recorded so far, in completion order.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<B: NnBackend + ?Sized> NnBackend for TimedBackend<B> {
    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        let start = Instant::now();
        let res = self.inner.query(req);
        let end = Instant::now();
        let call = Call {
            start,
            end,
            queries: req.queries().len(),
            ok: res.is_ok(),
            counters: res.as_ref().map(|r| r.counters).unwrap_or_default(),
            remote: res.as_ref().ok().and_then(|r| r.remote),
        };
        self.calls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(call);
        res
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }

    fn data_epoch(&self) -> u64 {
        self.inner.data_epoch()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn registry(&self) -> Option<panda_obs::Registry> {
        self.inner.registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_core::knn::KnnIndex;
    use panda_core::{DistConfig, PointSet, ShardedIndex, TreeConfig};
    use panda_store::{MutableIndex, StoreConfig};

    fn points(n: usize, dims: usize, seed: u64) -> PointSet {
        let mut rng = crate::report::Rng::new(seed);
        PointSet::from_coords(dims, (0..n * dims).map(|_| rng.f64() as f32).collect()).unwrap()
    }

    /// Wrapped and bare backends give identical rows, and every
    /// forwarded method returns the bare backend's value.
    fn assert_transparent<B: NnBackend + ?Sized>(bare: Arc<B>, queries: &PointSet) {
        let wrapped = TimedBackend::new(Arc::clone(&bare));
        let req = QueryRequest::knn(queries, 5);
        let want = bare.query(&req).unwrap();
        let got = wrapped.query(&req).unwrap();
        assert_eq!(got.neighbors.offsets(), want.neighbors.offsets());
        for (g, w) in got.neighbors.arena().iter().zip(want.neighbors.arena()) {
            assert_eq!((g.id, g.dist_sq.to_bits()), (w.id, w.dist_sq.to_bits()));
        }
        assert_eq!(got.counters, want.counters);
        assert_eq!(wrapped.name(), bare.name());
        assert_eq!(wrapped.len(), bare.len());
        assert_eq!(wrapped.is_empty(), bare.is_empty());
        assert_eq!(wrapped.dims(), bare.dims());
        assert_eq!(wrapped.data_epoch(), bare.data_epoch());
        assert_eq!(wrapped.shard_count(), bare.shard_count());
        let names = |r: Option<panda_obs::Registry>| {
            r.map(|r| {
                r.snapshot()
                    .iter()
                    .map(|(n, _)| n.to_string())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(names(wrapped.registry()), names(bare.registry()));
        let calls = wrapped.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].queries, queries.len());
        assert!(calls[0].ok);
        assert_eq!(calls[0].counters, got.counters);
    }

    #[test]
    fn local_index_is_transparent() {
        let ps = points(3000, 3, 1);
        let index = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        assert_transparent(Arc::new(index), &points(40, 3, 2));
    }

    #[test]
    fn sharded_index_is_transparent() {
        let ps = points(3000, 4, 3);
        let index = ShardedIndex::build(&ps, 2, &DistConfig::default()).unwrap();
        let bare: Arc<dyn NnBackend + Send + Sync> = Arc::new(index);
        assert_eq!(bare.shard_count(), 2);
        assert!(bare.registry().is_some());
        assert_transparent(bare, &points(40, 4, 4));
    }

    #[test]
    fn mutable_index_forwards_its_epoch() {
        let ps = points(2000, 3, 5);
        let store = MutableIndex::from_points(&ps, StoreConfig::default()).unwrap();
        store.insert(&[0.5, 0.5, 0.5], 1_000_000).unwrap();
        assert!(store.remove(7).unwrap());
        assert_ne!(store.data_epoch(), 0);
        assert_transparent(Arc::new(store), &points(40, 3, 6));
    }
}
