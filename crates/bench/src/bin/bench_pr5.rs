//! PR 5 perf evidence — the coalescing query service vs one-query-per-call
//! dispatch, under closed-loop concurrent clients.
//!
//! The workload is the serving scenario the engine was never exposed to
//! before PR 5: `C` independent clients, each a closed loop (submit one
//! small request, wait for the answer, submit the next). Per-query
//! dispatch answers each request with its own `NnBackend::query` call —
//! no batching, no locality, `C` threads contending for the machine.
//! The service coalesces the same stream into Morton-ordered
//! micro-batches on one scheduler, executed on the persistent worker
//! pool, scattering zero-copy row slices back to the clients.
//!
//! Both modes are verified **bit-identical** per client request before
//! timing. Writes `BENCH_PR5.json` (override with `--out`); `--smoke`
//! shrinks every dimension for CI.
//!
//! ## Thread sweep
//!
//! The execution-side parallelism comes from the persistent rayon pool,
//! sized by `RAYON_NUM_THREADS` (the recorded `rayon_threads` field says
//! what a given JSON actually measured — published numbers from 1-worker
//! hosts are single-core results). To sweep:
//!
//! ```text
//! for t in 1 2 4 8; do
//!   RAYON_NUM_THREADS=$t cargo run --release --bin bench_pr5 -- \
//!     --out BENCH_PR5_t$t.json
//! done
//! ```
//!
//! `--min-threads N` makes the run *refuse* to publish numbers from a
//! smaller pool (exit with an error instead of silently recording a
//! 1-core measurement as if it were a parallel one).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_bench::load::{client_queries, quantile};
use panda_bench::Args;
use panda_core::engine::{NnBackend, QueryRequest};
use panda_core::knn::KnnIndex;
use panda_core::{PointSet, TreeConfig};
use panda_data::uniform;
use panda_service::{OverflowPolicy, QueryService, ServiceConfig};

/// Workload shape shared by both modes.
#[derive(Clone, Copy)]
struct Workload {
    k: usize,
    requests: usize,
    seed: u64,
    /// Deadline flush (µs) for the service mode.
    delay_us: u64,
}

/// Neighbor rows as comparable bits.
type Row = Vec<(u32, u64)>;

struct ModeResult {
    wall_seconds: f64,
    /// Per-request latencies, all clients merged (seconds).
    latencies: Vec<f64>,
    /// `rows[client][request]` for the bit-identical gate.
    rows: Vec<Vec<Row>>,
    /// Result-cache hits/misses from the service telemetry snapshot
    /// (zero in direct mode, which has no cache).
    cache_hits: u64,
    cache_misses: u64,
}

/// Closed-loop clients calling `backend.query` one request at a time.
fn run_direct(
    backend: &Arc<KnnIndex>,
    queries: &Arc<Vec<Vec<PointSet>>>,
    w: Workload,
) -> ModeResult {
    let clients = queries.len();
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let backend = Arc::clone(backend);
            let queries = Arc::clone(queries);
            let k = w.k;
            let requests = w.requests;
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(requests);
                let mut rows: Vec<Row> = Vec::with_capacity(requests);
                for q in &queries[c] {
                    let t = Instant::now();
                    // same session entry point the service uses, one
                    // query per call
                    let res = backend
                        .query_session(&QueryRequest::knn(q, k))
                        .expect("query");
                    lat.push(t.elapsed().as_secs_f64());
                    rows.push(
                        res.neighbors
                            .row(0)
                            .iter()
                            .map(|n| (n.dist_sq.to_bits(), n.id))
                            .collect(),
                    );
                }
                (lat, rows)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut rows = Vec::new();
    for w in workers {
        let (lat, r) = w.join().expect("client");
        latencies.extend(lat);
        rows.push(r);
    }
    ModeResult {
        wall_seconds: t0.elapsed().as_secs_f64(),
        latencies,
        rows,
        cache_hits: 0,
        cache_misses: 0,
    }
}

/// The same closed-loop clients, submitting through the service.
fn run_service(
    backend: &Arc<KnnIndex>,
    queries: &Arc<Vec<Vec<PointSet>>>,
    w: Workload,
) -> ModeResult {
    let clients = queries.len();
    let service = QueryService::new(
        Arc::clone(backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            // self-clocking under closed loops: a full client population
            // triggers the size flush; stragglers bound tail latency via
            // the deadline
            .with_max_batch(clients.max(2))
            .with_max_delay(Duration::from_micros(w.delay_us))
            .with_queue_capacity(8192)
            .with_overflow(OverflowPolicy::Block),
    )
    .expect("service");
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let handle = service.handle();
            let queries = Arc::clone(queries);
            let k = w.k;
            let requests = w.requests;
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(requests);
                let mut rows: Vec<Row> = Vec::with_capacity(requests);
                for q in &queries[c] {
                    let t = Instant::now();
                    let reply = handle
                        .submit(&QueryRequest::knn(q, k))
                        .expect("submit")
                        .wait()
                        .expect("wait");
                    lat.push(t.elapsed().as_secs_f64());
                    rows.push(
                        reply
                            .row(0)
                            .iter()
                            .map(|n| (n.dist_sq.to_bits(), n.id))
                            .collect(),
                    );
                }
                (lat, rows)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut rows = Vec::new();
    for w in workers {
        let (lat, r) = w.join().expect("client");
        latencies.extend(lat);
        rows.push(r);
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = service.stats();
    assert_eq!(stats.rejected, 0, "Block policy never rejects");
    println!(
        "    service internals: {} batches, mean size {:.1}, max queue {}",
        stats.batches,
        stats.mean_batch_size(),
        stats.max_queue_depth
    );
    let snap = service.telemetry();
    service.shutdown();
    ModeResult {
        wall_seconds: wall,
        latencies,
        rows,
        cache_hits: snap.counter("service.cache.hits").unwrap_or(0),
        cache_misses: snap.counter("service.cache.misses").unwrap_or(0),
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.switch("smoke");
    let out_path = args.string("out", "BENCH_PR5.json");
    // 10-D is the serving-relevant regime: traversal-heavy queries
    // (tens of µs each) are where coalescing pays; 3-µs 3-D lookups are
    // cheaper than any cross-thread handoff and belong in-process.
    let dims = args.usize("dims", 10);
    let k = args.usize("k", 32);
    let n_points = args.usize("points", if smoke { 20_000 } else { 200_000 });
    let requests = args.usize("requests", if smoke { 25 } else { 100 });
    let client_counts: &[usize] = &[8, 64];
    let w = Workload {
        k,
        requests,
        seed: 1042,
        delay_us: args.usize("delay-us", 300) as u64,
    };

    let hotspots = args.usize("hotspots", 256);
    let min_threads = args.usize("min-threads", 0);
    let threads = rayon::current_num_threads();
    assert!(
        threads >= min_threads,
        "pool has {threads} worker(s) but --min-threads {min_threads} was requested; \
         set RAYON_NUM_THREADS (this guard exists so multi-core claims are never \
         backed by a single-core run)"
    );
    let points = uniform::generate(n_points, dims, 1.0, 42);
    let backend = Arc::new(
        KnnIndex::build(&points, &TreeConfig::default().with_parallel(true)).expect("build"),
    );
    println!(
        "bench_pr5: {n_points} points, {dims}-D, k={k}, {requests} requests/client, {hotspots} hotspots{}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut json = String::from(
        "{\n  \"bench\": \"coalescing query service vs per-query dispatch (PR 5)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"n_points\": {n_points}, \"dims\": {dims}, \"k\": {k}, \"requests_per_client\": {requests}, \"hotspots\": {hotspots},"
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"rayon_threads\": {threads},");
    json.push_str("  \"client_counts\": [\n");

    let reps = args.usize("reps", if smoke { 1 } else { 3 });
    let mut speedup_64 = 0.0f64;
    for (wi, &clients) in client_counts.iter().enumerate() {
        println!("\n{clients} closed-loop clients:");
        // every request pre-generated outside the timed window
        let queries: Arc<Vec<Vec<PointSet>>> = Arc::new(
            (0..clients)
                .map(|c| client_queries(&points, hotspots, c, w.requests, w.seed))
                .collect(),
        );
        // warmup (untimed): touch the tree and both execution paths
        let warm = Workload { requests: 3, ..w };
        let warm_q: Arc<Vec<Vec<PointSet>>> = Arc::new(
            queries
                .iter()
                .map(|qs| qs[..3.min(qs.len())].to_vec())
                .collect(),
        );
        let _ = run_direct(&backend, &warm_q, warm);
        let _ = run_service(&backend, &warm_q, warm);

        // alternating best-of-reps: closed-loop throughput is scheduler
        // noise-prone on shared hosts; the best rep is the cleanest view
        // of each mode's capacity
        let mut direct = run_direct(&backend, &queries, w);
        let mut service = run_service(&backend, &queries, w);
        assert_eq!(direct.rows, service.rows, "service diverged from direct");
        for _ in 1..reps {
            let d = run_direct(&backend, &queries, w);
            if d.wall_seconds < direct.wall_seconds {
                direct = d;
            }
            let s = run_service(&backend, &queries, w);
            if s.wall_seconds < service.wall_seconds {
                service = s;
            }
        }

        let total = (clients * requests) as f64;
        let d_qps = total / direct.wall_seconds;
        let s_qps = total / service.wall_seconds;
        let speedup = s_qps / d_qps;
        if clients == 64 {
            speedup_64 = speedup;
        }
        let mut d_lat = direct.latencies;
        let mut s_lat = service.latencies;
        d_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        s_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let report = |name: &str, qps: f64, lat: &[f64]| {
            println!(
                "  {name:<10} {qps:>9.0} q/s   p50 {:>7.0}µs   p99 {:>7.0}µs",
                quantile(lat, 0.5) * 1e6,
                quantile(lat, 0.99) * 1e6
            );
        };
        report("per-query", d_qps, &d_lat);
        report("service", s_qps, &s_lat);
        println!("  service vs per-query: {speedup:.2}x");

        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"clients\": {clients},");
        let _ = writeln!(json, "      \"direct_qps\": {d_qps:.1},");
        let _ = writeln!(
            json,
            "      \"direct_p50_us\": {:.1}, \"direct_p99_us\": {:.1},",
            quantile(&d_lat, 0.5) * 1e6,
            quantile(&d_lat, 0.99) * 1e6
        );
        let _ = writeln!(json, "      \"service_qps\": {s_qps:.1},");
        let _ = writeln!(
            json,
            "      \"service_p50_us\": {:.1}, \"service_p99_us\": {:.1},",
            quantile(&s_lat, 0.5) * 1e6,
            quantile(&s_lat, 0.99) * 1e6
        );
        let _ = writeln!(
            json,
            "      \"service_cache_hits\": {}, \"service_cache_misses\": {},",
            service.cache_hits, service.cache_misses
        );
        let _ = writeln!(json, "      \"service_vs_direct\": {speedup:.4}");
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < client_counts.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"service_vs_direct_64_clients\": {speedup_64:.4}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR5.json");
    println!("\nwrote {out_path}");
    // Regression gate on the full-size run only (smoke runs on shared CI
    // runners, where absolute timings are noise). Closed-loop timing on
    // a contended host swings ±8% run to run, so the in-binary guard
    // trips a little below the ≥ 1.0 acceptance line; the JSON records
    // the actual ratio.
    if !smoke {
        assert!(
            speedup_64 >= 0.9,
            "coalesced service regressed below per-query dispatch at 64 clients: {speedup_64:.3}x"
        );
    }
}
