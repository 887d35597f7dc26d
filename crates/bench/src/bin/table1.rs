//! Table I — dataset attributes with construction/query times.
//!
//! Paper: 8 datasets from 27 M to 188.8 B particles on 24–49,152 cores.
//! Reproduction: same datasets at `--scale` (default 1/1000) with rank
//! counts `paper_cores / 24` capped at `--max-ranks`; times are virtual
//! seconds from the simulated Edison cluster. Run:
//!
//! ```text
//! cargo run --release -p panda-bench --bin table1 [--scale 1e-3] [--csv t1.csv]
//! ```

use panda_bench::runner::{run_distributed, RunConfig};
use panda_bench::table::{count, f, Table};
use panda_bench::Args;
use panda_data::{queries_from, Dataset};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let max_ranks = args.max_ranks();
    let max_points = args.usize("max-points", 20_000_000);

    println!("Table I (reproduction) — scale {scale}, ranks capped at {max_ranks}, points capped at {max_points}");
    println!("(C) = kd-tree construction, (Q) = querying; model s = virtual seconds\n");

    let mut table = Table::new(&[
        "Name",
        "Particles",
        "Dims",
        "Paper C(s)",
        "Model C(s)",
        "k",
        "Queries(%)",
        "Paper Q(s)",
        "Model Q(s)",
        "Ranks",
        "Cores(model)",
    ]);

    for ds in Dataset::TABLE1 {
        let row = ds.paper_row();
        let ranks = (row.cores / 24).clamp(1, max_ranks);
        let eff_scale = scale.min(max_points as f64 / row.particles as f64);
        let points = ds.generate(eff_scale, seed);
        let n_queries = ((points.len() as f64 * row.query_fraction) as usize).max(16);
        let queries = queries_from(&points, n_queries, 0.01, seed + 1);

        let mut cfg = RunConfig::edison(ranks);
        cfg.k = row.k;
        // verification on the smaller rows only (brute force over all
        // points per sampled query gets slow beyond ~10M points)
        let verify = points.len() <= 2_000_000;
        let m = run_distributed(&points, &queries, &cfg, verify);

        table.row(&[
            row.name.to_string(),
            count(points.len() as u64),
            row.dims.to_string(),
            row.time_construct_s.map_or("-".into(), |t| f(t, 1)),
            f(m.construct_s, 4),
            row.k.to_string(),
            f(row.query_fraction * 100.0, 1),
            row.time_query_s.map_or("-".into(), |t| f(t, 1)),
            f(m.query_s, 4),
            ranks.to_string(),
            cfg.cores().to_string(),
        ]);
        eprintln!(
            "  {}: done ({} pts, {} queries, imbalance {:.2}, remote fanout {:.2})",
            row.name,
            points.len(),
            queries.len(),
            m.max_load_imbalance,
            m.remote.avg_remote_fanout()
        );
    }

    table.print();
    let csv = args.string("csv", "");
    if !csv.is_empty() {
        table.write_csv(&csv).expect("write csv");
        println!("\nwrote {csv}");
    }
}
