//! Figure 5(b) — construction time breakdown.
//!
//! Paper (at 6144 / 12288 / 768 cores): global kd-tree construction +
//! particle redistribution dominate (>75% for the 3-D cosmo/plasma
//! datasets); the 10-D dayabay spends more in local split-dimension
//! selection, pulling the global share down to ~58%.

use panda_bench::runner::{run_distributed, RunConfig};
use panda_bench::table::{f, Table};
use panda_bench::Args;
use panda_core::timers::BuildBreakdown;
use panda_data::{queries_from, Dataset};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let seed = args.seed();

    println!("Fig 5(b) — construction breakdown (% of total)\n");
    let mut table = Table::new(&["Phase", "cosmo_large", "plasma_large", "dayabay_large"]);

    let mut columns: Vec<[f64; 5]> = Vec::new();
    for (ds, ranks) in [
        (Dataset::CosmoLarge, 16usize),
        (Dataset::PlasmaLarge, 16),
        (Dataset::DayabayLarge, 16),
    ] {
        let row = ds.paper_row();
        let eff_scale =
            scale.min(args.usize("max-points", 8_000_000) as f64 / row.particles as f64);
        let points = ds.generate(eff_scale, seed);
        let queries = queries_from(&points, 64, 0.01, seed + 1);
        let mut cfg = RunConfig::edison(args.usize("ranks", ranks));
        cfg.k = row.k;
        let m = run_distributed(&points, &queries, &cfg, false);
        columns.push(m.build_breakdown.percentages());
        eprintln!("  {}: total {:.3} model s", row.name, m.construct_s);
    }

    for (i, label) in BuildBreakdown::LABELS.iter().enumerate() {
        table.row(&[
            label.to_string(),
            f(columns[0][i], 1),
            f(columns[1][i], 1),
            f(columns[2][i], 1),
        ]);
    }
    table.print();

    let global_share: Vec<f64> = columns.iter().map(|c| c[0] + c[1]).collect();
    println!(
        "\nglobal construction + redistribution share: cosmo {:.0}%, plasma {:.0}%, dayabay {:.0}%",
        global_share[0], global_share[1], global_share[2]
    );
    println!("paper: >75% for cosmo/plasma, ~58% for dayabay (10-D)");
}
