//! Figure 4 — multinode strong scaling of construction and querying.
//!
//! Paper: cosmo_large 6144→49152 cores (constr 4.3×, query 5.2×),
//! plasma_large 12288→49152 (2.7× / 4.4×), dayabay_large 768→6144
//! (6.5× / 6.6×). Querying scales better than construction because
//! construction must move the whole dataset while querying ships only
//! per-query traffic.
//!
//! Reproduction: same datasets at `--scale`, rank sweep ×8 starting at
//! `--base-ranks` (default 8). Speedups normalized to the smallest rank
//! count, ideal column printed alongside.

use panda_bench::runner::{run_distributed, RunConfig};
use panda_bench::table::{f, Table};
use panda_bench::Args;
use panda_data::{queries_from, Dataset};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let base = args.usize("base-ranks", 8);
    let steps = args.usize("steps", 4);

    for (ds, paper_c, paper_q, paper_span) in [
        (Dataset::CosmoLarge, 4.3, 5.2, 8.0),
        (Dataset::PlasmaLarge, 2.7, 4.4, 4.0),
        (Dataset::DayabayLarge, 6.5, 6.6, 8.0),
    ] {
        let row = ds.paper_row();
        let eff_scale =
            scale.min(args.usize("max-points", 8_000_000) as f64 / row.particles as f64);
        let points = ds.generate(eff_scale, seed);
        let n_queries = ((points.len() as f64 * row.query_fraction) as usize).max(64);
        let queries = queries_from(&points, n_queries, 0.01, seed + 1);
        println!(
            "\nFig 4 — {} ({} pts, {} queries); paper: constr {paper_c}x, query {paper_q}x over {paper_span}x cores",
            row.name,
            points.len(),
            queries.len()
        );

        let mut table = Table::new(&[
            "Ranks",
            "Cores",
            "Constr(s)",
            "Constr speedup",
            "Query(s)",
            "Query speedup",
            "Ideal",
        ]);
        let mut base_c = 0.0;
        let mut base_q = 0.0;
        for step in 0..steps {
            let ranks = base << step;
            let mut cfg = RunConfig::edison(ranks);
            cfg.k = row.k;
            let m = run_distributed(&points, &queries, &cfg, false);
            if step == 0 {
                base_c = m.construct_s;
                base_q = m.query_s;
            }
            table.row(&[
                ranks.to_string(),
                cfg.cores().to_string(),
                f(m.construct_s, 3),
                f(base_c / m.construct_s, 2),
                f(m.query_s, 3),
                f(base_q / m.query_s, 2),
                f((1 << step) as f64, 0),
            ]);
        }
        table.print();
    }
}
