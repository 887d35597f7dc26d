//! Distributed strategy (1) of §III-A: per-node local trees, **no**
//! global redistribution.
//!
//! Construction is trivially parallel (each rank indexes whatever points
//! it happens to hold), but every query must be answered by *every* rank
//! and `P·k` candidates travel the network per query, of which all but
//! `k` are thrown away — the traffic argument that motivates PANDA's
//! global kd-tree. The `ablation_strategy` bench puts numbers on it.

use std::cell::RefCell;

use panda_comm::{Comm, ReduceOp};
use panda_core::config::{BoundMode, TreeConfig};
use panda_core::engine::{NeighborTable, NnBackend, QueryRequest, QueryResponse};
use panda_core::{KnnHeap, LocalKdTree, Neighbor, PointSet, QueryCounters, QueryWorkspace, Result};

/// One rank's share of the strategy-(1) engine.
#[derive(Clone, Debug)]
pub struct LocalTreesKnn {
    tree: LocalKdTree,
}

/// Traffic/work statistics of a strategy-(1) query round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LocalTreesStats {
    /// Queries this rank submitted.
    pub queries_submitted: u64,
    /// Queries this rank evaluated (= all queries of all ranks).
    pub queries_evaluated: u64,
    /// Candidate neighbors this rank shipped back to owners.
    pub candidates_sent: u64,
    /// Candidates received and merged for this rank's own queries.
    pub candidates_merged: u64,
}

impl LocalTreesKnn {
    /// Index this rank's points as-is (no communication at all — that is
    /// the selling point of strategy (1)).
    pub fn build(comm: &mut Comm, points: &PointSet, cfg: &TreeConfig) -> Result<Self> {
        let local_cfg = TreeConfig {
            parallel: false,
            ..*cfg
        };
        let tree = LocalKdTree::build(points, &local_cfg)?;
        let model = tree.modeled_build(comm.cost());
        comm.advance_time(model.total());
        Ok(Self { tree })
    }

    /// The local tree.
    pub fn tree(&self) -> &LocalKdTree {
        &self.tree
    }

    /// Answer `queries` (this rank's own) by broadcasting them to all
    /// ranks and merging the `P·k` candidate streams.
    pub fn query(
        &self,
        comm: &mut Comm,
        queries: &PointSet,
        k: usize,
    ) -> Result<(Vec<Vec<Neighbor>>, LocalTreesStats, QueryCounters)> {
        if k == 0 {
            return Err(panda_core::PandaError::ZeroK);
        }
        let dims = self.tree.dims();
        let p = comm.size();
        let me = comm.rank();
        let mut stats = LocalTreesStats {
            queries_submitted: queries.len() as u64,
            ..Default::default()
        };
        let mut counters = QueryCounters::default();
        let mut ws = QueryWorkspace::new();

        // Broadcast all queries to all ranks.
        let all_coords = comm.world().allgather(queries.coords().to_vec());
        let total_queries = comm
            .world()
            .allreduce_u64(queries.len() as u64, ReduceOp::Sum);
        stats.queries_evaluated = total_queries;

        // Evaluate every query locally; candidates go back to the origin.
        let mut meta_sends: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
        let mut dist_sends: Vec<Vec<f32>> = (0..p).map(|_| Vec::new()).collect();
        for (origin, coords) in all_coords.iter().enumerate() {
            let n_q = coords.len() / dims.max(1);
            for qi in 0..n_q {
                let q = &coords[qi * dims..(qi + 1) * dims];
                let mut heap = KnnHeap::new(k);
                self.tree
                    .query_into(q, &mut heap, BoundMode::Exact, &mut ws, &mut counters);
                for nb in heap.into_sorted() {
                    stats.candidates_sent += 1;
                    meta_sends[origin].push(qi as u64);
                    meta_sends[origin].push(nb.id);
                    dist_sends[origin].push(nb.dist_sq);
                }
            }
        }
        let cost = *comm.cost();
        comm.work_parallel(
            counters.cpu_seconds(&cost.ops, dims),
            counters.mem_bytes(dims),
        );
        let meta_in = comm.world().alltoallv(meta_sends);
        let dist_in = comm.world().alltoallv(dist_sends);

        // Merge the P·k candidate streams per own query.
        let mut heaps: Vec<KnnHeap<'_>> = (0..queries.len()).map(|_| KnnHeap::new(k)).collect();
        for (meta, dists) in meta_in.iter().zip(&dist_in) {
            for (pair, &d) in meta.chunks_exact(2).zip(dists) {
                let (qi, id) = (pair[0] as usize, pair[1]);
                stats.candidates_merged += 1;
                counters.merge_candidates += 1;
                heaps[qi].offer(d, id);
            }
        }
        let merge_cpu = stats.candidates_merged as f64 * cost.ops.merge;
        comm.work_parallel(merge_cpu, 0.0);
        let _ = me;
        Ok((
            heaps.into_iter().map(KnnHeap::into_sorted).collect(),
            stats,
            counters,
        ))
    }
}

/// [`LocalTreesKnn`] bundled with this rank's communicator handle so the
/// strategy-(1) engine can ride the same [`NnBackend`] loops as PANDA's
/// SPMD pipeline (`query_distributed`): every rank must call
/// [`NnBackend::query`] collectively.
pub struct LocalTreesBackend<'a> {
    comm: RefCell<&'a mut Comm>,
    inner: LocalTreesKnn,
}

impl<'a> LocalTreesBackend<'a> {
    /// Index this rank's points and take ownership of the communicator
    /// handle.
    pub fn build_on(comm: &'a mut Comm, points: &PointSet, cfg: &TreeConfig) -> Result<Self> {
        let inner = LocalTreesKnn::build(comm, points, cfg)?;
        Ok(Self {
            comm: RefCell::new(comm),
            inner,
        })
    }

    /// The wrapped engine (its inherent `query` also reports
    /// [`LocalTreesStats`]).
    pub fn inner(&self) -> &LocalTreesKnn {
        &self.inner
    }

    /// Release the backend, handing the communicator borrow back.
    pub fn into_parts(self) -> (&'a mut Comm, LocalTreesKnn) {
        (self.comm.into_inner(), self.inner)
    }
}

impl NnBackend for LocalTreesBackend<'_> {
    // `build` keeps the rejecting default: a communicator is required —
    // use `LocalTreesBackend::build_on`.

    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        let t0 = std::time::Instant::now();
        req.validate()?;
        let (results, _stats, counters) =
            self.inner
                .query(&mut self.comm.borrow_mut(), req.queries(), req.k())?;
        // Radius-limited kNN is a suffix-filter of plain kNN: results are
        // ascending, so truncate each row at the first distance ≥ r².
        let r_sq = req.radius_sq();
        let mut table = NeighborTable::with_capacity(results.len(), req.k());
        for row in &results {
            let keep = row.partition_point(|n| n.dist_sq < r_sq);
            table.push_row(&row[..keep]);
        }
        Ok(QueryResponse::local(
            table,
            counters,
            t0.elapsed().as_secs_f64(),
        ))
    }

    fn name(&self) -> &'static str {
        "local-trees"
    }

    fn len(&self) -> usize {
        self.inner.tree().len()
    }

    fn dims(&self) -> usize {
        self.inner.tree().dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use crate::tests_support::random_ps;
    use panda_comm::{run_cluster, total_stats, ClusterConfig};
    use panda_data::scatter;

    #[test]
    fn matches_brute_force() {
        let all = random_ps(2000, 3, 1);
        let queries = random_ps(40, 3, 2);
        let out = run_cluster(&ClusterConfig::new(4), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let engine = LocalTreesKnn::build(comm, &mine, &TreeConfig::default()).unwrap();
            let myq = scatter(&queries, comm.rank(), comm.size());
            let (res, stats, _c) = engine.query(comm, &myq, 5).unwrap();
            let pairs: Vec<(Vec<f32>, Vec<f32>)> = (0..myq.len())
                .map(|i| {
                    (
                        myq.point(i).to_vec(),
                        res[i].iter().map(|n| n.dist_sq).collect(),
                    )
                })
                .collect();
            (pairs, stats)
        });
        let bf = BruteForce::new(&all);
        for o in &out {
            for (q, dists) in &o.result.0 {
                let expect: Vec<f32> = bf.query(q, 5).unwrap().iter().map(|n| n.dist_sq).collect();
                assert_eq!(dists, &expect);
            }
            // every rank evaluated every query
            assert_eq!(o.result.1.queries_evaluated, 40);
        }
    }

    #[test]
    fn backend_wrapper_matches_inner_engine() {
        let all = random_ps(1500, 3, 7);
        let queries = random_ps(24, 3, 8);
        let out = run_cluster(&ClusterConfig::new(3), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let backend = LocalTreesBackend::build_on(comm, &mine, &TreeConfig::default()).unwrap();
            let myq = scatter(
                &queries,
                backend.comm.borrow().rank(),
                backend.comm.borrow().size(),
            );
            let res = NnBackend::query(&backend, &QueryRequest::knn(&myq, 5)).unwrap();
            assert_eq!(NnBackend::name(&backend), "local-trees");
            res.neighbors
                .iter()
                .map(|row| row.iter().map(|n| (n.dist_sq, n.id)).collect::<Vec<_>>())
                .zip((0..myq.len()).map(|i| myq.point(i).to_vec()))
                .collect::<Vec<_>>()
        });
        let bf = BruteForce::new(&all);
        for o in &out {
            for (got, q) in &o.result {
                let want: Vec<(f32, u64)> = bf
                    .query(q, 5)
                    .unwrap()
                    .iter()
                    .map(|n| (n.dist_sq, n.id))
                    .collect();
                assert_eq!(got, &want);
            }
        }
    }

    #[test]
    fn ships_p_times_k_candidates() {
        let all = random_ps(4000, 3, 3);
        let queries = random_ps(32, 3, 4);
        let p = 4;
        let out = run_cluster(&ClusterConfig::new(p), |comm| {
            let mine = scatter(&all, comm.rank(), comm.size());
            let engine = LocalTreesKnn::build(comm, &mine, &TreeConfig::default()).unwrap();
            let myq = scatter(&queries, comm.rank(), comm.size());
            let (_res, stats, _c) = engine.query(comm, &myq, 5).unwrap();
            stats
        });
        let total_sent: u64 = out.iter().map(|o| o.result.candidates_sent).sum();
        // P ranks × 32 queries × k=5 candidates (every rank holds ≥ 5 pts)
        assert_eq!(total_sent, (p * 32 * 5) as u64);
        let merged: u64 = out.iter().map(|o| o.result.candidates_merged).sum();
        assert_eq!(merged, total_sent);
        // and the network actually carried them
        let t = total_stats(&out);
        assert!(t.collective_bytes_out > 0);
    }
}
