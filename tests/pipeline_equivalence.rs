//! Query-engine configuration must never change results: batching, bbox
//! routing and rank counts are performance knobs only.
//! (The one deliberate exception — the paper's scalar bound — is verified
//! to only ever *lose* neighbors, never invent closer ones.)

use panda::comm::{run_cluster, ClusterConfig};
use panda::data::{cosmology, queries_from, scatter};
use panda::prelude::*;

fn run_with<F>(make_req: F, ranks: usize, seed: u64) -> Vec<Vec<f32>>
where
    F: for<'q> Fn(&'q PointSet) -> QueryRequest<'q> + Send + Sync + Clone + 'static,
{
    let all = cosmology::generate(3000, &Default::default(), seed);
    let queries = queries_from(&all, 64, 0.01, seed + 1);
    let out = run_cluster(&ClusterConfig::new(ranks), |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = scatter(&queries, comm.rank(), comm.size());
        let res = query_distributed(comm, &tree, &make_req(&myq)).expect("query");
        (0..myq.len())
            .map(|i| {
                (
                    myq.id(i),
                    res.neighbors
                        .row(i)
                        .iter()
                        .map(|n| n.dist_sq)
                        .collect::<Vec<f32>>(),
                )
            })
            .collect::<Vec<_>>()
    });
    // reassemble in global query order
    let mut by_id: Vec<(u64, Vec<f32>)> = out.into_iter().flat_map(|o| o.result).collect();
    by_id.sort_by_key(|(id, _)| *id);
    by_id.into_iter().map(|(_, d)| d).collect()
}

#[test]
fn batch_size_is_result_invariant() {
    let base = run_with(|q| QueryRequest::knn(q, 5).with_batch_size(4096), 4, 1);
    for batch in [1usize, 7, 64, 1000] {
        let got = run_with(
            move |q| QueryRequest::knn(q, 5).with_batch_size(batch),
            4,
            1,
        );
        assert_eq!(got, base, "batch={batch}");
    }
}

#[test]
fn bbox_routing_is_result_invariant() {
    let on = run_with(|q| QueryRequest::knn(q, 5).with_bbox_routing(true), 4, 3);
    let off = run_with(|q| QueryRequest::knn(q, 5).with_bbox_routing(false), 4, 3);
    assert_eq!(on, off);
}

#[test]
fn rank_count_is_result_invariant() {
    let base = run_with(|q| QueryRequest::knn(q, 5), 1, 4);
    for ranks in [2usize, 3, 4, 8] {
        let got = run_with(|q| QueryRequest::knn(q, 5), ranks, 4);
        assert_eq!(got, base, "ranks={ranks}");
    }
}

#[test]
fn paper_scalar_bound_never_invents_closer_neighbors() {
    let exact = run_with(
        |q| QueryRequest::knn(q, 5).with_bound_mode(BoundMode::Exact),
        4,
        5,
    );
    let scalar = run_with(
        |q| QueryRequest::knn(q, 5).with_bound_mode(BoundMode::PaperScalar),
        4,
        5,
    );
    assert_eq!(exact.len(), scalar.len());
    let mut mismatches = 0usize;
    for (e, s) in exact.iter().zip(&scalar) {
        assert_eq!(e.len(), s.len());
        for (de, ds) in e.iter().zip(s) {
            // the scalar bound can only *miss* true neighbors, which makes
            // reported distances ≥ the exact ones
            assert!(ds >= de, "scalar bound produced a closer neighbor");
            if ds > de {
                mismatches += 1;
            }
        }
    }
    // On smooth 3-D data the scalar bound is almost always right — the
    // ablation exists to show "almost", not "always".
    println!(
        "paper-scalar mismatched {mismatches} of {} neighbor slots",
        5 * exact.len()
    );
}
