//! PR 8 perf evidence — serving the distributed engine: closed-loop
//! concurrent clients through `QueryService` over a `ShardedIndex`,
//! swept across shard counts.
//!
//! Before PR 8 the distributed engine could not sit behind the service
//! at all (`DistIndex` was `!Sync` by design), so there is no "old
//! path" to race. What this bench pins instead:
//!
//! - **Bit-identity across shard counts**: every client request gets
//!   the same neighbors (distance bits and ids) from 1, 2 and 4 shards
//!   — the scatter/gather merge is not allowed to cost exactness.
//! - **Serving throughput and tail latency** per (clients × shards)
//!   cell, so shard-count scaling on real cores is measured, not
//!   assumed.
//!
//! Writes `BENCH_PR8.json` (override with `--out`); `--smoke` shrinks
//! every dimension for CI.
//!
//! ## Thread sweep
//!
//! Shard workers are their own threads, but each worker's local
//! traversal also uses the persistent rayon pool (sized by
//! `RAYON_NUM_THREADS`); the recorded `rayon_threads` field says what a
//! given JSON actually measured — published numbers from 1-worker hosts
//! are single-core results. `--min-threads N` makes the run refuse to
//! publish numbers from a smaller pool.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_bench::load::{client_queries, quantile};
use panda_bench::Args;
use panda_core::engine::{NnBackend, QueryRequest, ShardedIndex};
use panda_core::{DistConfig, PointSet};
use panda_data::uniform;
use panda_service::{OverflowPolicy, QueryService, ServiceConfig};

/// Neighbor rows as comparable bits.
type Row = Vec<(u32, u64)>;

struct CellResult {
    wall_seconds: f64,
    /// Per-request latencies, all clients merged (seconds).
    latencies: Vec<f64>,
    /// `rows[client][request]` for the bit-identical gate.
    rows: Vec<Vec<Row>>,
    /// Result-cache hits/misses from the service telemetry snapshot.
    cache_hits: u64,
    cache_misses: u64,
    /// Worker restarts observed by this cell (always 0 in a clean run).
    shard_restarts: u64,
    /// Bytes moved by the comm layer during this cell (point-to-point
    /// plus collective traffic, delta over the index's lifetime totals).
    comm_bytes: u64,
}

/// Total bytes the index's comm layer has moved so far (cumulative over
/// the index lifetime; callers take deltas around a timed window).
fn comm_bytes_total(index: &ShardedIndex) -> u64 {
    let snap = index.registry().expect("sharded registry").snapshot();
    [
        "comm.sent_bytes",
        "comm.recv_bytes",
        "comm.collective_bytes_out",
        "comm.collective_bytes_in",
    ]
    .iter()
    .map(|name| snap.counter(name).unwrap_or(0))
    .sum()
}

/// Closed-loop clients submitting through a service over `index`.
fn run_cell(
    index: &Arc<ShardedIndex>,
    queries: &Arc<Vec<Vec<PointSet>>>,
    k: usize,
    delay_us: u64,
) -> CellResult {
    let clients = queries.len();
    let service = QueryService::new(
        Arc::clone(index) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            .with_max_batch(clients.max(2))
            .with_max_delay(Duration::from_micros(delay_us))
            .with_queue_capacity(8192)
            .with_overflow(OverflowPolicy::Block),
    )
    .expect("service");
    let bytes_before = comm_bytes_total(index);
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let handle = service.handle();
            let queries = Arc::clone(queries);
            std::thread::spawn(move || {
                let n = queries[c].len();
                let mut lat = Vec::with_capacity(n);
                let mut rows: Vec<Row> = Vec::with_capacity(n);
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
    assert_eq!(index.shard_restarts(), 0, "no worker faults in a bench");
    let snap = service.telemetry();
    service.shutdown();
    CellResult {
        wall_seconds: wall,
        latencies,
        rows,
        cache_hits: snap.counter("service.cache.hits").unwrap_or(0),
        cache_misses: snap.counter("service.cache.misses").unwrap_or(0),
        shard_restarts: index.shard_restarts(),
        comm_bytes: comm_bytes_total(index) - bytes_before,
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.switch("smoke");
    let out_path = args.string("out", "BENCH_PR8.json");
    // 10-D traversal-heavy queries: the serving regime (see bench_pr5).
    let dims = args.usize("dims", 10);
    let k = args.usize("k", 32);
    let n_points = args.usize("points", if smoke { 20_000 } else { 200_000 });
    let requests = args.usize("requests", if smoke { 25 } else { 100 });
    let delay_us = args.usize("delay-us", 300) as u64;
    let hotspots = args.usize("hotspots", 256);
    let seed = 1084u64;
    let client_counts: &[usize] = &[8, 64];
    let shard_counts: &[usize] = &[1, 2, 4];

    let min_threads = args.usize("min-threads", 0);
    let threads = rayon::current_num_threads();
    assert!(
        threads >= min_threads,
        "pool has {threads} worker(s) but --min-threads {min_threads} was requested; \
         set RAYON_NUM_THREADS (this guard exists so multi-core claims are never \
         backed by a single-core run)"
    );

    let points = uniform::generate(n_points, dims, 1.0, 42);
    let indexes: Vec<Arc<ShardedIndex>> = shard_counts
        .iter()
        .map(|&s| Arc::new(ShardedIndex::build(&points, s, &DistConfig::default()).expect("build")))
        .collect();
    println!(
        "bench_pr8: {n_points} points, {dims}-D, k={k}, {requests} requests/client, {hotspots} hotspots{}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut json = String::from(
        "{\n  \"bench\": \"service-fronted ShardedIndex across shard counts (PR 8)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"n_points\": {n_points}, \"dims\": {dims}, \"k\": {k}, \"requests_per_client\": {requests}, \"hotspots\": {hotspots},"
    );
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"rayon_threads\": {threads},");
    json.push_str("  \"cells\": [\n");

    let reps = args.usize("reps", if smoke { 1 } else { 3 });
    let mut first_cell = true;
    for &clients in client_counts {
        println!("\n{clients} closed-loop clients:");
        let queries: Arc<Vec<Vec<PointSet>>> = Arc::new(
            (0..clients)
                .map(|c| client_queries(&points, hotspots, c, requests, seed))
                .collect(),
        );
        // warmup (untimed): touch every shard configuration once
        let warm_q: Arc<Vec<Vec<PointSet>>> = Arc::new(
            queries
                .iter()
                .map(|qs| qs[..3.min(qs.len())].to_vec())
                .collect(),
        );
        for index in &indexes {
            let _ = run_cell(index, &warm_q, k, delay_us);
        }

        // timed cells, best-of-reps; rows gated bit-identical against
        // the 1-shard cell of the same client count
        let mut baseline_rows: Option<Vec<Vec<Row>>> = None;
        for (index, &shards) in indexes.iter().zip(shard_counts) {
            println!("  {shards} shard(s):");
            let mut best = run_cell(index, &queries, k, delay_us);
            match &baseline_rows {
                None => baseline_rows = Some(best.rows.clone()),
                Some(base) => assert_eq!(
                    base, &best.rows,
                    "{shards}-shard results diverged from 1 shard at {clients} clients"
                ),
            }
            for _ in 1..reps {
                let r = run_cell(index, &queries, k, delay_us);
                if r.wall_seconds < best.wall_seconds {
                    best = r;
                }
            }

            let total = (clients * requests) as f64;
            let qps = total / best.wall_seconds;
            let mut lat = best.latencies;
            lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let (p50, p99) = (quantile(&lat, 0.5) * 1e6, quantile(&lat, 0.99) * 1e6);
            println!("    {qps:>9.0} q/s   p50 {p50:>7.0}µs   p99 {p99:>7.0}µs");

            if !first_cell {
                json.push_str(",\n");
            }
            first_cell = false;
            let _ = write!(
                json,
                "    {{ \"clients\": {clients}, \"shards\": {shards}, \"qps\": {qps:.1}, \
                 \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \
                 \"shard_restarts\": {}, \"comm_bytes\": {} }}",
                best.cache_hits, best.cache_misses, best.shard_restarts, best.comm_bytes
            );
        }
    }
    json.push_str("\n  ],\n");
    json.push_str("  \"bit_identical_across_shard_counts\": true\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_PR8.json");
    println!("\nwrote {out_path}");
}
