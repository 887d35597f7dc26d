//! Ablation — query batching and software pipelining (§III-B: "The most
//! important \[optimization\] is batching of queries … We also perform
//! software pipelining between the stages to facilitate overlap of
//! communication and computation. These optimizations are important for
//! good scaling as the number of nodes increase.")

use panda_bench::runner::{run_distributed, RunConfig};
use panda_bench::table::{f, Table};
use panda_bench::Args;
use panda_data::{queries_from, Dataset};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let ranks = args.usize("ranks", 16);

    let points = Dataset::CosmoMedium.generate(scale, seed);
    let queries = queries_from(&points, (points.len() / 10).max(1024), 0.01, seed + 1);
    println!(
        "Pipeline/batching ablation — cosmo_medium ({} pts, {} queries, {ranks} ranks)\n",
        points.len(),
        queries.len()
    );

    let mut table = Table::new(&[
        "Batch",
        "Sync(s)",
        "Pipelined(s)",
        "Gain",
        "Non-overlapped comm(s)",
        "Steps",
    ]);
    for batch in [64usize, 256, 1024, 4096, 16384] {
        let mut cfg = RunConfig::edison(ranks);
        cfg.batch_size = batch;
        let m = run_distributed(&points, &queries, &cfg, false);
        let exposed = m.query_breakdown.comm_non_overlapped();
        table.row(&[
            batch.to_string(),
            f(m.query_sync_s, 4),
            f(m.query_s, 4),
            format!("{:.1}%", 100.0 * (1.0 - m.query_s / m.query_sync_s)),
            f(exposed, 4),
            // the step log carries one epilogue entry (origin return)
            // after the pipeline batches; report the batch count only
            (m.query_breakdown.steps.len().saturating_sub(1)).to_string(),
        ]);
    }
    table.print();
    println!("\nsmaller batches pipeline better (finer overlap) until per-step latency");
    println!("(α·log P per exchange) dominates; large batches degenerate to synchronous.");
}
