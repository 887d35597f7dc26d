//! PR 7 perf evidence — the mutable store vs rebuild-per-batch, on a
//! 90/10 read/write stream.
//!
//! Before PR 7 the only way to serve an updating dataset *exactly* was
//! to rebuild the immutable tree after every write batch and query the
//! fresh tree. The store amortizes that: writes land in a log that
//! queries brute-force-scan through the fused leaf kernel, and a
//! background compaction folds the log into a new tree generation off
//! the write path.
//!
//! Both modes answer every query in the stream **bit-identically in
//! distances** (asserted op by op — both are exact over the identical
//! live set, so this is a correctness gate, not a tolerance). Writes
//! `BENCH_PR7.json` (override with `--out`); `--smoke` shrinks every
//! dimension for CI.
//!
//! Latency accounting: per-op wall times are recorded for every query
//! and every write in both modes. The store's write p999 is the
//! **compaction-pause** proxy — the worst write stall the stream ever
//! sees. With a multi-worker pool that is just the freeze (one log pack
//! under the write lock) since the rebuild runs on the background pool;
//! with `rayon_threads: 1` (recorded in the JSON) the triggering write
//! pays the whole rebuild inline, so write p999 ≈ one compaction — the
//! honest single-core number. The baseline's query p999 absorbs its
//! rebuild-after-write stalls either way, which is exactly the cost the
//! store exists to amortize.

use std::fmt::Write as _;
use std::time::Instant;

use panda_bench::load::quantile;
use panda_bench::Args;
use panda_core::engine::{NnBackend, QueryRequest, QueryResponse};
use panda_core::knn::KnnIndex;
use panda_core::rng::SplitRng;
use panda_core::{PointSet, TreeConfig};
use panda_data::uniform;
use panda_store::{MutableIndex, StoreConfig};

/// One op of the pre-generated stream.
enum Op {
    /// `k`-NN for one query point.
    Query(PointSet),
    /// Insert a brand-new point under a fresh id.
    Insert(Vec<f32>, u64),
    /// Remove a currently-live id.
    Remove(u64),
}

/// Pre-generate the whole op stream so both modes replay identical work
/// (including identical remove targets), outside the timed window.
fn make_stream(seed_points: &PointSet, ops: usize, write_pct: usize, seed: u64) -> Vec<Op> {
    let dims = seed_points.dims();
    let mut rng = SplitRng::new(seed);
    let mut live: Vec<u64> = seed_points.ids().to_vec();
    let mut next_id = live.iter().copied().max().unwrap_or(0) + 1;
    (0..ops)
        .map(|_| {
            if (rng.next_f64() * 100.0) as usize >= write_pct {
                let q: Vec<f32> = (0..dims).map(|_| rng.next_f64() as f32).collect();
                Op::Query(PointSet::from_coords(dims, q).expect("finite query"))
            } else if rng.next_f64() < 0.5 && live.len() > 16 {
                let victim = (rng.next_f64() * live.len() as f64) as usize % live.len();
                Op::Remove(live.swap_remove(victim))
            } else {
                let p: Vec<f32> = (0..dims).map(|_| rng.next_f64() as f32).collect();
                let id = next_id;
                next_id += 1;
                live.push(id);
                Op::Insert(p, id)
            }
        })
        .collect()
}

/// Distances of row 0, as comparable bits.
fn row_bits(res: &QueryResponse) -> Vec<u32> {
    res.neighbors
        .row(0)
        .iter()
        .map(|n| n.dist_sq.to_bits())
        .collect()
}

struct ModeResult {
    wall_seconds: f64,
    query_lat: Vec<f64>,
    write_lat: Vec<f64>,
    /// Row-0 distance bits per query op, for the bit-identical gate.
    rows: Vec<Vec<u32>>,
    rebuilds: u64,
}

/// The stream against the mutable store (background compaction).
fn run_store(seed_points: &PointSet, stream: &[Op], k: usize, cfg: &StoreConfig) -> ModeResult {
    let store = MutableIndex::from_points(seed_points, cfg.clone()).expect("store");
    let mut r = ModeResult {
        wall_seconds: 0.0,
        query_lat: Vec::new(),
        write_lat: Vec::new(),
        rows: Vec::new(),
        rebuilds: 0,
    };
    let t0 = Instant::now();
    for op in stream {
        let t = Instant::now();
        match op {
            Op::Query(q) => {
                let res = store.query(&QueryRequest::knn(q, k)).expect("query");
                r.query_lat.push(t.elapsed().as_secs_f64());
                r.rows.push(row_bits(&res));
            }
            Op::Insert(p, id) => {
                store.insert(p, *id).expect("insert");
                r.write_lat.push(t.elapsed().as_secs_f64());
            }
            Op::Remove(id) => {
                assert!(
                    store.remove(*id).expect("remove"),
                    "stream removes live ids"
                );
                r.write_lat.push(t.elapsed().as_secs_f64());
            }
        }
    }
    store.quiesce();
    r.wall_seconds = t0.elapsed().as_secs_f64();
    let stats = store.stats();
    assert_eq!(stats.compaction_failures, 0);
    r.rebuilds = stats.compactions;
    println!(
        "    store internals: {} compactions (p50 {:.1} ms, p99 {:.1} ms), epoch {}, {} left in log",
        stats.compactions,
        stats.compaction_p50_seconds * 1e3,
        stats.compaction_p99_seconds * 1e3,
        stats.epoch,
        stats.log_points,
    );
    r
}

/// The exact-serving baseline PR 7 replaces: writes mutate a plain
/// point-set mirror, and the first query after any write pays a full
/// tree rebuild (rebuild-per-write-batch — consecutive writes coalesce).
fn run_rebuild(seed_points: &PointSet, stream: &[Op], k: usize, tree: &TreeConfig) -> ModeResult {
    let mut live = seed_points.clone();
    let mut index = Some(KnnIndex::build(&live, tree).expect("build"));
    let mut r = ModeResult {
        wall_seconds: 0.0,
        query_lat: Vec::new(),
        write_lat: Vec::new(),
        rows: Vec::new(),
        rebuilds: 0,
    };
    let t0 = Instant::now();
    for op in stream {
        let t = Instant::now();
        match op {
            Op::Query(q) => {
                if index.is_none() {
                    index = Some(KnnIndex::build(&live, tree).expect("rebuild"));
                    r.rebuilds += 1;
                }
                let res = index
                    .as_ref()
                    .expect("rebuilt")
                    .query_session(&QueryRequest::knn(q, k))
                    .expect("query");
                r.query_lat.push(t.elapsed().as_secs_f64());
                r.rows.push(row_bits(&res));
            }
            Op::Insert(p, id) => {
                live.push(p, *id);
                index = None;
                r.write_lat.push(t.elapsed().as_secs_f64());
            }
            Op::Remove(id) => {
                let i = live.ids().iter().position(|x| x == id).expect("live id");
                live.swap_remove(i);
                index = None;
                r.write_lat.push(t.elapsed().as_secs_f64());
            }
        }
    }
    r.wall_seconds = t0.elapsed().as_secs_f64();
    r
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v
}

fn main() {
    let args = Args::from_env();
    let smoke = args.switch("smoke");
    let out_path = args.string("out", "BENCH_PR7.json");
    let dims = args.usize("dims", 10);
    let k = args.usize("k", 16);
    let n_points = args.usize("points", if smoke { 5_000 } else { 50_000 });
    let ops = args.usize("ops", if smoke { 400 } else { 4_000 });
    let write_pct = args.usize("write-pct", 10);
    // thresholds low enough that the stream's insert half crosses them
    // (the ~10% write mix is half inserts) — both the smoke and the full
    // run must exercise the freeze/rebuild/swap path, not just the log
    let compact_points = args.usize("compact-points", if smoke { 16 } else { 96 });
    let reps = args.usize("reps", if smoke { 1 } else { 3 });

    let seed_points = uniform::generate(n_points, dims, 1.0, 42);
    let stream = make_stream(&seed_points, ops, write_pct, 1007);
    let n_queries = stream.iter().filter(|o| matches!(o, Op::Query(_))).count();
    let n_writes = ops - n_queries;
    println!(
        "bench_pr7: {n_points} seed points, {dims}-D, k={k}, {ops} ops \
         ({n_queries} queries / {n_writes} writes), compact at {compact_points}{}",
        if smoke { " [smoke]" } else { "" }
    );

    let tree = TreeConfig::default();
    let store_cfg = StoreConfig::default()
        .with_compact_points(compact_points)
        .with_tree(tree);

    // warmup (untimed) + bit-identical gate on the full stream
    let warm_store = run_store(&seed_points, &stream, k, &store_cfg);
    let warm_rebuild = run_rebuild(&seed_points, &stream, k, &tree);
    assert_eq!(
        warm_store.rows, warm_rebuild.rows,
        "store diverged from the rebuild-per-batch baseline"
    );

    // best-of-reps: single-threaded streams still jitter on shared hosts
    let mut store = run_store(&seed_points, &stream, k, &store_cfg);
    let mut rebuild = run_rebuild(&seed_points, &stream, k, &tree);
    for _ in 1..reps {
        let s = run_store(&seed_points, &stream, k, &store_cfg);
        if s.wall_seconds < store.wall_seconds {
            store = s;
        }
        let b = run_rebuild(&seed_points, &stream, k, &tree);
        if b.wall_seconds < rebuild.wall_seconds {
            rebuild = b;
        }
    }

    let s_ops = ops as f64 / store.wall_seconds;
    let b_ops = ops as f64 / rebuild.wall_seconds;
    let speedup = s_ops / b_ops;
    let s_q = sorted(store.query_lat);
    let s_w = sorted(store.write_lat);
    let b_q = sorted(rebuild.query_lat);
    let b_w = sorted(rebuild.write_lat);
    let report = |name: &str, ops_s: f64, q: &[f64], w: &[f64]| {
        println!(
            "  {name:<16} {ops_s:>9.0} op/s   query p50 {:>7.0}µs p99 {:>8.0}µs p999 {:>8.0}µs   write p999 {:>7.0}µs",
            quantile(q, 0.5) * 1e6,
            quantile(q, 0.99) * 1e6,
            quantile(q, 0.999) * 1e6,
            quantile(w, 0.999) * 1e6,
        );
    };
    report("store", s_ops, &s_q, &s_w);
    report("rebuild/batch", b_ops, &b_q, &b_w);
    println!(
        "  store vs rebuild: {speedup:.2}x  ({} compactions vs {} rebuilds)",
        store.rebuilds, rebuild.rebuilds
    );

    let mut json = String::from(
        "{\n  \"bench\": \"mutable store vs rebuild-per-batch on a 90/10 read/write stream (PR 7)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"n_points\": {n_points}, \"dims\": {dims}, \"k\": {k}, \"ops\": {ops}, \
         \"write_pct\": {write_pct}, \"compact_points\": {compact_points},"
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"rayon_threads\": {},",
        rayon::current_num_threads()
    );
    let _ = writeln!(json, "  \"store_ops_per_sec\": {s_ops:.1},");
    let _ = writeln!(
        json,
        "  \"store_query_p50_us\": {:.1}, \"store_query_p99_us\": {:.1}, \"store_query_p999_us\": {:.1},",
        quantile(&s_q, 0.5) * 1e6,
        quantile(&s_q, 0.99) * 1e6,
        quantile(&s_q, 0.999) * 1e6
    );
    let _ = writeln!(
        json,
        "  \"store_write_p999_us\": {:.1}, \"store_compactions\": {},",
        quantile(&s_w, 0.999) * 1e6,
        store.rebuilds
    );
    let _ = writeln!(json, "  \"rebuild_ops_per_sec\": {b_ops:.1},");
    let _ = writeln!(
        json,
        "  \"rebuild_query_p50_us\": {:.1}, \"rebuild_query_p99_us\": {:.1}, \"rebuild_query_p999_us\": {:.1},",
        quantile(&b_q, 0.5) * 1e6,
        quantile(&b_q, 0.99) * 1e6,
        quantile(&b_q, 0.999) * 1e6
    );
    let _ = writeln!(
        json,
        "  \"rebuild_write_p999_us\": {:.1}, \"rebuild_rebuilds\": {},",
        quantile(&b_w, 0.999) * 1e6,
        rebuild.rebuilds
    );
    let _ = writeln!(json, "  \"store_vs_rebuild\": {speedup:.4}");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_PR7.json");
    println!("\nwrote {out_path}");

    // Regression gate on the full-size run only (smoke runs on shared CI
    // runners where absolute timings are noise). The store's whole point
    // is amortizing rebuilds, so anything near parity is a regression.
    if !smoke {
        assert!(
            speedup >= 2.0,
            "mutable store fell below 2x over rebuild-per-batch: {speedup:.3}x"
        );
    }
}
