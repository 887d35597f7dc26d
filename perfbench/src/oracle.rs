//! The exactness check every workload runs on its sampled rows.

use panda_baselines::BruteForce;
use panda_core::engine::{NnBackend, QueryRequest};
use panda_core::{Neighbor, PointSet};

use crate::K;

/// Compare `got[i]` (the program's row for `queries.point(i)`) with
/// brute force over `live`. Row lengths and distances must be
/// bit-identical; each id must be live (`index_of` maps it to its
/// position in `live`), sit at exactly its reported distance, and
/// appear once per row. Returns the number of mismatching rows.
pub fn check(
    live: &PointSet,
    queries: &PointSet,
    got: &[Vec<Neighbor>],
    index_of: impl Fn(u64) -> Option<usize>,
) -> usize {
    assert_eq!(queries.len(), got.len(), "one row per checked query");
    if got.is_empty() {
        return 0;
    }
    let want = match NnBackend::query(&BruteForce::new(live), &QueryRequest::knn(queries, K)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: brute-force oracle failed: {e}");
            return got.len();
        }
    };
    let mut bad = 0;
    for (i, row) in got.iter().enumerate() {
        let q = queries.point(i);
        let expect = want.neighbors.row(i);
        let dists_match = row.len() == expect.len()
            && row
                .iter()
                .zip(expect)
                .all(|(a, b)| a.dist_sq.to_bits() == b.dist_sq.to_bits());
        let mut seen = std::collections::HashSet::new();
        let ids_honest = row.iter().all(|n| {
            seen.insert(n.id)
                && index_of(n.id)
                    .is_some_and(|p| live.dist_sq_to(q, p).to_bits() == n.dist_sq.to_bits())
        });
        if !(dists_match && ids_honest) {
            if bad == 0 {
                eprintln!(
                    "perfbench: mismatch at query {q:?}: got {:?}, brute force {:?}",
                    &row[..row.len().min(4)],
                    &expect[..expect.len().min(4)]
                );
            }
            bad += 1;
        }
    }
    bad
}

/// [`check`] for a point set whose ids are its indices `0..n`.
pub fn check_dense(points: &PointSet, queries: &PointSet, got: &[Vec<Neighbor>]) -> usize {
    let n = points.len();
    check(points, queries, got, |id| {
        ((id as usize) < n).then_some(id as usize)
    })
}
