//! Single-node KNN index: the shared-memory face of PANDA.
//!
//! Wraps [`LocalKdTree`] with a locality-aware batch engine:
//! "parallelizing over queries on shared memory is simple" (§V-B2) — the
//! constant factors are not. The engine optionally reorders the batch
//! along a Morton curve ([`QueryOrder::Morton`]) so consecutive queries
//! share tree paths and cached leaf buckets, dispatches in contiguous
//! chunks (`with_min_len`) so per-task overhead amortizes and each worker
//! reuses one [`QueryWorkspace`], and scatters results back to input
//! order. Every query runs through the fused SIMD leaf kernel inherited
//! from the traversal layer.

use rayon::prelude::*;

use panda_comm::CostModel;

use crate::config::{BoundMode, QueryOrder, TreeConfig};
use crate::counters::QueryCounters;
use crate::engine::{NeighborTable, QueryRequest, QueryResponse};
use crate::error::{PandaError, Result};
use crate::heap::{KnnHeap, Neighbor};
use crate::local_tree::{LocalKdTree, QueryWorkspace};
use crate::morton::morton_schedule;
use crate::point::PointSet;

/// Minimum queries per dispatched chunk: below this, task bookkeeping
/// would rival the traversal work itself.
const MIN_CHUNK: usize = 16;

/// One worker chunk's output: `(input slot, neighbor count)` runs, the
/// chunk-local neighbor arena those runs index into (in run order), and
/// the chunk's aggregate counters. Chunks are spliced into the final CSR
/// table — no per-query `Vec` is ever allocated.
type ChunkResult = (Vec<(u32, u32)>, Vec<Neighbor>, QueryCounters);

/// A single-node KNN index.
#[derive(Clone, Debug)]
pub struct KnnIndex {
    tree: LocalKdTree,
    parallel: bool,
}

impl KnnIndex {
    /// Build an index over `points`.
    pub fn build(points: &PointSet, cfg: &TreeConfig) -> Result<Self> {
        let tree = LocalKdTree::build(points, cfg)?;
        Ok(Self {
            tree,
            parallel: cfg.parallel,
        })
    }

    /// The underlying tree (stats, modeled times).
    pub fn tree(&self) -> &LocalKdTree {
        &self.tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.tree.dims()
    }

    /// `k` nearest neighbors of one query (ascending distance).
    pub fn query(&self, q: &[f32], k: usize) -> Result<Vec<Neighbor>> {
        self.tree.query(q, k)
    }

    /// `k` nearest neighbors within `radius` of one query.
    pub fn query_radius(&self, q: &[f32], k: usize, radius: f32) -> Result<Vec<Neighbor>> {
        self.tree.query_radius(q, k, radius)
    }

    /// Answer a batch [`QueryRequest`] (the [`crate::engine::NnBackend`]
    /// entry point): kNN or radius-limited kNN, with per-request
    /// overrides of execution order (input order unless the request
    /// asks for another), bound mode, and parallelism.
    /// Results come back **in input order** as a flat CSR
    /// [`NeighborTable`]; workers fill chunk-local arenas that are
    /// spliced into the table, so the batch hot path performs no
    /// per-query heap allocation.
    pub fn query_session(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        let t0 = std::time::Instant::now();
        req.validate()?;
        let (neighbors, counters) = self.batch_csr(
            req.queries(),
            req.k(),
            req.radius_sq(),
            req.order().unwrap_or(QueryOrder::Input),
            req.bound_mode(),
            req.parallel().unwrap_or(self.parallel),
        )?;
        panda_obs::trace::record(req.trace(), panda_obs::Stage::LeafKernel, t0);
        Ok(QueryResponse::local(
            neighbors,
            counters,
            t0.elapsed().as_secs_f64(),
        ))
    }

    /// The CSR batch engine behind [`Self::query_session`]. The
    /// execution order affects locality only: results and aggregate
    /// counters are identical for any order (each query's traversal is
    /// independent).
    pub(crate) fn batch_csr(
        &self,
        queries: &PointSet,
        k: usize,
        radius_sq: f32,
        order: QueryOrder,
        bound_mode: BoundMode,
        parallel: bool,
    ) -> Result<(NeighborTable, QueryCounters)> {
        if k == 0 {
            return Err(PandaError::ZeroK);
        }
        if queries.dims() != self.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.dims(),
                got: queries.dims(),
            });
        }
        crate::faultpoint::maybe_fail(crate::faultpoint::points::ENGINE_LEAF_DISPATCH)?;
        let n = queries.len();
        let schedule: Vec<u32> = match order {
            QueryOrder::Input => (0..n as u32).collect(),
            QueryOrder::Morton => morton_schedule(queries),
        };
        // Each worker owns ONE reusable heap + workspace + arena for its
        // whole chunk: a query appends its sorted neighbors to the arena
        // and records `(input slot, count)`.
        let run_one = |qi: u32,
                       heap: &mut KnnHeap,
                       ws: &mut QueryWorkspace,
                       arena: &mut Vec<Neighbor>,
                       runs: &mut Vec<(u32, u32)>,
                       c: &mut QueryCounters| {
            heap.reset(k, radius_sq);
            self.tree
                .query_into(queries.point(qi as usize), heap, bound_mode, ws, c);
            let start = arena.len();
            heap.append_sorted_into(arena);
            runs.push((qi, (arena.len() - start) as u32));
        };
        let chunks: Vec<ChunkResult> = if parallel {
            // Contiguous chunks of the (possibly reordered) schedule.
            schedule
                .into_par_iter()
                .with_min_len(MIN_CHUNK)
                .fold(
                    || {
                        (
                            Vec::new(),
                            Vec::new(),
                            KnnHeap::new(k),
                            QueryWorkspace::new(),
                            QueryCounters::default(),
                        )
                    },
                    |(mut runs, mut arena, mut heap, mut ws, mut c), qi| {
                        run_one(qi, &mut heap, &mut ws, &mut arena, &mut runs, &mut c);
                        (runs, arena, heap, ws, c)
                    },
                )
                .map(|(runs, arena, _heap, _ws, c)| (runs, arena, c))
                .collect()
        } else {
            let mut runs = Vec::with_capacity(n);
            let mut arena = Vec::new();
            let mut heap = KnnHeap::new(k);
            let mut ws = QueryWorkspace::new();
            let mut c = QueryCounters::default();
            for &qi in &schedule {
                run_one(qi, &mut heap, &mut ws, &mut arena, &mut runs, &mut c);
            }
            vec![(runs, arena, c)]
        };
        // Splice: counts → CSR table (input order), then copy each
        // chunk's runs into their final rows in place.
        let mut counts = vec![0u32; n];
        for (runs, _, _) in &chunks {
            for &(slot, count) in runs {
                counts[slot as usize] = count;
            }
        }
        let mut table = NeighborTable::with_row_counts(&counts)?;
        let mut counters = QueryCounters::default();
        for (runs, chunk_arena, c) in chunks {
            counters.add(&c);
            let mut cursor = 0usize;
            for (slot, count) in runs {
                let count = count as usize;
                table
                    .row_mut(slot as usize)
                    .copy_from_slice(&chunk_arena[cursor..cursor + count]);
                cursor += count;
            }
        }
        Ok((table, counters))
    }

    /// The k-nearest-neighbor **graph** of the indexed points themselves
    /// (each point queried against the index, excluding itself) — the
    /// workload of distributed KNN-graph construction (the paper's
    /// related-work \[21\]) and the backbone of density-based analyses like
    /// the halo finder example.
    ///
    /// `graph[i]` holds the k nearest *other* points of point `i`
    /// (ascending). Needs the original points to issue the self-queries.
    pub fn knn_graph(&self, points: &PointSet, k: usize) -> Result<Vec<Vec<Neighbor>>> {
        if k == 0 {
            return Err(PandaError::ZeroK);
        }
        if points.dims() != self.dims() {
            return Err(PandaError::DimsMismatch {
                expected: self.dims(),
                got: points.dims(),
            });
        }
        if points.len() != self.len() {
            return Err(PandaError::LenMismatch {
                expected: self.len(),
                got: points.len(),
            });
        }
        // query k+1 and drop the self-match (distance 0 with own id)
        let (table, _counters) = self.batch_csr(
            points,
            k + 1,
            f32::INFINITY,
            QueryOrder::Input,
            BoundMode::Exact,
            self.parallel,
        )?;
        Ok(table
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut ns = row.to_vec();
                let own = points.id(i);
                if let Some(pos) = ns.iter().position(|n| n.id == own && n.dist_sq == 0.0) {
                    ns.remove(pos);
                } else {
                    ns.pop(); // self wasn't in top-(k+1): keep the k closest
                }
                ns.truncate(k);
                ns
            })
            .collect())
    }

    /// Modeled wall-seconds for a batch of queries with `counters`, under
    /// `cost`'s machine at an explicit thread count (Fig. 6/8 sweeps).
    pub fn modeled_query_time_at(
        &self,
        counters: &QueryCounters,
        cost: &CostModel,
        threads: usize,
        smt: bool,
    ) -> f64 {
        let cpu = counters.cpu_seconds(&cost.ops, self.dims());
        let mem = counters.mem_bytes(self.dims());
        cost.thread.parallel_time_at(cpu, mem, threads, smt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueryOrder;
    use crate::rng::SplitRng;

    fn random_ps(n: usize, dims: usize, seed: u64) -> PointSet {
        let mut rng = SplitRng::new(seed);
        PointSet::from_coords(
            dims,
            (0..n * dims)
                .map(|_| (rng.next_f64() * 100.0) as f32)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn batch_matches_single_queries() {
        let ps = random_ps(3000, 3, 1);
        let queries = random_ps(64, 3, 2);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let res = idx.query_session(&QueryRequest::knn(&queries, 4)).unwrap();
        assert_eq!(res.len(), 64);
        assert_eq!(res.counters.queries, 64);
        assert!(res.wall_seconds >= 0.0);
        for (i, row) in res.neighbors.iter().enumerate() {
            let single = idx.query(queries.point(i), 4).unwrap();
            let a: Vec<f32> = row.iter().map(|n| n.dist_sq).collect();
            let b: Vec<f32> = single.iter().map(|n| n.dist_sq).collect();
            assert_eq!(a, b, "query {i}");
        }
    }

    #[test]
    fn radius_limited_session_matches_query_radius() {
        let ps = random_ps(2000, 3, 52);
        let queries = random_ps(60, 3, 53);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let radius = 5.0f32;
        let res = idx
            .query_session(&QueryRequest::knn(&queries, 8).with_radius(radius))
            .unwrap();
        for (i, row) in res.neighbors.iter().enumerate() {
            let single = idx.query_radius(queries.point(i), 8, radius).unwrap();
            let a: Vec<(f32, u64)> = row.iter().map(|n| (n.dist_sq, n.id)).collect();
            let b: Vec<(f32, u64)> = single.iter().map(|n| (n.dist_sq, n.id)).collect();
            assert_eq!(a, b, "query {i}");
            assert!(row.iter().all(|n| n.dist_sq < radius * radius));
        }
    }

    #[test]
    fn session_rejects_bad_radius() {
        let ps = random_ps(100, 3, 54);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let queries = random_ps(4, 3, 55);
        assert!(matches!(
            idx.query_session(&QueryRequest::knn(&queries, 3).with_radius(f32::NAN)),
            Err(PandaError::BadRadius { .. })
        ));
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let ps = random_ps(5000, 3, 3);
        let queries = random_ps(200, 3, 4);
        let seq = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let par = KnnIndex::build(
            &ps,
            &TreeConfig::default().with_parallel(true).with_threads(2),
        )
        .unwrap();
        let a = seq.query_session(&QueryRequest::knn(&queries, 5)).unwrap();
        let b = par.query_session(&QueryRequest::knn(&queries, 5)).unwrap();
        for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
            let dx: Vec<f32> = x.iter().map(|n| n.dist_sq).collect();
            let dy: Vec<f32> = y.iter().map(|n| n.dist_sq).collect();
            assert_eq!(dx, dy);
        }
        // identical traversal work regardless of execution strategy —
        // both trees are built from the same seed & both traverse exactly
        assert_eq!(a.counters.queries, b.counters.queries);
    }

    #[test]
    fn batch_validates_inputs() {
        let ps = random_ps(100, 3, 5);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let queries = random_ps(4, 2, 6);
        assert!(matches!(
            idx.query_session(&QueryRequest::knn(&queries, 3)),
            Err(PandaError::DimsMismatch { .. })
        ));
        let q3 = random_ps(4, 3, 6);
        assert!(matches!(
            idx.query_session(&QueryRequest::knn(&q3, 0)),
            Err(PandaError::ZeroK)
        ));
    }

    #[test]
    fn modeled_query_time_scales_down_with_threads() {
        let ps = random_ps(20_000, 3, 7);
        let queries = random_ps(2000, 3, 8);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let counters = idx
            .query_session(&QueryRequest::knn(&queries, 5))
            .unwrap()
            .counters;
        let cost = CostModel::default();
        let t1 = idx.modeled_query_time_at(&counters, &cost, 1, false);
        let t24 = idx.modeled_query_time_at(&counters, &cost, 24, false);
        let t24smt = idx.modeled_query_time_at(&counters, &cost, 24, true);
        assert!(t1 > t24);
        let speedup = t1 / t24;
        assert!(
            (4.0..=24.0).contains(&speedup),
            "modeled 24T query speedup {speedup}"
        );
        assert!(t24smt <= t24, "SMT should not hurt");
    }

    #[test]
    fn knn_graph_excludes_self_and_matches_brute() {
        let ps = random_ps(800, 3, 21);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let graph = idx.knn_graph(&ps, 4).unwrap();
        assert_eq!(graph.len(), 800);
        for (i, ns) in graph.iter().enumerate() {
            assert_eq!(ns.len(), 4);
            assert!(ns.iter().all(|n| n.id != ps.id(i)), "self-edge at {i}");
            // brute reference excluding self
            let mut all: Vec<(f32, u64)> = (0..ps.len())
                .filter(|&j| j != i)
                .map(|j| (ps.dist_sq_to(ps.point(i), j), ps.id(j)))
                .collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expect: Vec<f32> = all[..4].iter().map(|p| p.0).collect();
            let got: Vec<f32> = ns.iter().map(|n| n.dist_sq).collect();
            assert_eq!(got, expect, "node {i}");
            if i >= 50 {
                break; // brute check on a prefix keeps the test fast
            }
        }
    }

    #[test]
    fn knn_graph_with_duplicate_points() {
        // duplicates: the self-exclusion must remove *itself*, not a
        // co-located twin (twins are legitimate neighbors at distance 0)
        let mut ps = PointSet::new(2).unwrap();
        for i in 0..10u64 {
            ps.push(&[1.0, 1.0], i);
        }
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let graph = idx.knn_graph(&ps, 3).unwrap();
        for (i, ns) in graph.iter().enumerate() {
            assert_eq!(ns.len(), 3);
            assert!(ns.iter().all(|n| n.dist_sq == 0.0));
            assert!(ns.iter().all(|n| n.id != ps.id(i)));
        }
    }

    #[test]
    fn knn_graph_validates() {
        let ps = random_ps(50, 3, 22);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        assert!(idx.knn_graph(&ps, 0).is_err());
        // same dims, wrong point count: must be a LenMismatch (not a
        // dims error claiming expected == got)
        let other = random_ps(10, 3, 23);
        assert!(matches!(
            idx.knn_graph(&other, 3),
            Err(PandaError::LenMismatch {
                expected: 50,
                got: 10
            })
        ));
        // wrong dims stays a DimsMismatch
        let other_dims = random_ps(50, 2, 23);
        assert!(matches!(
            idx.knn_graph(&other_dims, 3),
            Err(PandaError::DimsMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn morton_order_matches_input_order_exactly() {
        let ps = random_ps(4000, 3, 31);
        let queries = random_ps(500, 3, 32);
        for parallel in [false, true] {
            let cfg = TreeConfig::default()
                .with_parallel(parallel)
                .with_threads(2);
            let idx = KnnIndex::build(&ps, &cfg).unwrap();
            let a = idx
                .query_session(&QueryRequest::knn(&queries, 5).with_order(QueryOrder::Input))
                .unwrap();
            let b = idx
                .query_session(&QueryRequest::knn(&queries, 5).with_order(QueryOrder::Morton))
                .unwrap();
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.neighbors.iter().zip(b.neighbors.iter()).enumerate() {
                let dx: Vec<(f32, u64)> = x.iter().map(|n| (n.dist_sq, n.id)).collect();
                let dy: Vec<(f32, u64)> = y.iter().map(|n| (n.dist_sq, n.id)).collect();
                assert_eq!(dx, dy, "query {i} parallel={parallel}");
            }
            // each query's traversal is independent of execution order, so
            // the aggregate work must be identical too
            assert_eq!(a.counters, b.counters, "parallel={parallel}");
        }
    }

    #[test]
    fn kernel_counters_are_populated() {
        let ps = random_ps(5000, 3, 35);
        let queries = random_ps(100, 3, 36);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let c = idx
            .query_session(&QueryRequest::knn(&queries, 5))
            .unwrap()
            .counters;
        assert_eq!(c.leaf_kernel_calls, c.leaves_scanned);
        // the whole point of the fused kernel: most blocks die in-register
        assert!(c.kernel_blocks_pruned > 0);
        assert!(c.kernel_blocks_pruned <= c.points_scanned / 8);
    }

    #[test]
    fn empty_batch_is_fine() {
        let ps = random_ps(100, 3, 37);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        let empty = PointSet::new(3).unwrap();
        for order in [QueryOrder::Input, QueryOrder::Morton] {
            let res = idx
                .query_session(&QueryRequest::knn(&empty, 4).with_order(order))
                .unwrap();
            assert!(res.is_empty());
            assert_eq!(res.counters.queries, 0);
        }
    }

    #[test]
    fn accessors() {
        let ps = random_ps(128, 10, 9);
        let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
        assert_eq!(idx.len(), 128);
        assert_eq!(idx.dims(), 10);
        assert!(!idx.is_empty());
        assert!(idx.tree().stats().n_leaves > 0);
    }
}
