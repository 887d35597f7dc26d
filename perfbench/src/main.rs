//! The PANDA layered benchmark: one command, three workloads, every
//! end-to-end metric by name with its unit, and a separate traced run
//! that splits the time by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! is the host block (`nproc`, rayon threads, whether the AVX2 kernel
//! runs, git rev, workload seed), so a one-thread number is never read
//! as a parallel one. Sampled result rows of every workload are checked
//! against `panda_baselines::BruteForce`: row lengths and distances must
//! be bit-identical, and every returned id must be live at exactly its
//! reported distance (ids may differ only between equidistant points).
//! A mismatch prints `"correct": false` and exits with code 1.
//!
//! # Workloads
//!
//! Load comes from one generator thread. Service workloads are closed
//! loops: a fixed number of tickets outstanding, waited in submission
//! order and replaced on completion. The program runs with its default
//! `ServiceConfig`, `StoreConfig` and `DistConfig`; k = 16 throughout.
//!
//! * `bulk-cosmo3d` — about 4M Soneira–Peebles 3-D particles,
//!   `KnnIndex::build` (parallel), then self-KNN of a fixed-stride 20%
//!   sample through `query_session` in the library's default query
//!   order, in fixed-size calls. *Why:* the paper's core kernel (local
//!   tree build, traversal, leaf kernel), bypassing service, shards and
//!   store; 48 MB of coordinates sit well above L2 and below L3.
//! * `serve-dayabay10d` — 200k 10-D Daya Bay records in a 2-shard
//!   `ShardedIndex` behind `QueryService`, 64 tickets outstanding, each
//!   request a jittered copy of one of 256 hot spots (no two identical).
//!   *Why:* compute-heavy 10-D traversal through micro-batching, flush
//!   policy and shard scatter/gather; bypasses the store.
//! * `mixed-cosmo3d-durable` — a durable `MutableIndex` seeded (untimed)
//!   with 500k cosmology points and reopened, behind `QueryService`: 90%
//!   reads with 8 tickets outstanding, 10% synchronous writes (half
//!   inserts of new ids, half removes of live ids), default `PerWrite`
//!   fsync and compaction thresholds. *Why:* the same service layer with
//!   light 3-D queries and small deadline-flushed batches, where the
//!   store's log scan, tombstones, WAL fsync and compaction dominate.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | metric | meaning |
//! |---|---|
//! | `setup_s` | median over set-up repetitions of the time until the index serves: bulk `KnnIndex::build`; serve `ShardedIndex::build` + `QueryService::new`; mixed `MutableIndex::open` of the seeded directory + `QueryService::new` (data generation and seeding excluded) |
//! | `query_qps` | read queries answered per second |
//! | `query_p50_us` | median read latency, from submit to reply (bulk: one call) |
//! | `ops_ok_frac` | operations that succeeded / operations attempted; failed, refused and deadline-exceeded operations count against it |
//! | `peak_rss_mb` | process high-water resident set |
//!
//! On a host whose cores, caches and disk are shared with other work, a
//! passing stall can move a run, so each figure is taken the way that
//! least depends on one:
//!
//! * bulk runs whole passes over the sample until `--seconds` is spent;
//!   a call's latency is its median over the passes, `query_qps` is the
//!   sample size over the sum of those medians, and `query_p50_us` is
//!   the median call.
//! * serve takes `query_qps` over the budget and `query_p50_us` as the
//!   median over 0.5 s windows of each window's median.
//! * mixed reads get slower as tombstones accumulate and faster again
//!   at each compaction swap. The run goes on from `--seconds` to the
//!   next swap, and each figure is a median over the compaction cycles
//!   (the stretches between swaps). A read that completes while the
//!   generator is blocked in a synchronous write is only seen when the
//!   write returns, so latency uses the reads during which no write
//!   ran; `query_qps` counts every read.
//!
//! Tail latency is a per-layer metric (`local_tree.call_us_p99`,
//! `service.request_us_p99`, `sharded.call_us_p99`,
//! `store.write_p99_us`): on a 2-core host shared with other work, the
//! serve closed loop's 95th and 99th percentiles spread by a quarter of
//! their median between runs, more than an end-to-end bound may allow.
//! Write latency is a per-layer metric (`store.insert_us_p50`,
//! `store.remove_us_p50`, `store.write_p99_us`): bulk and serve have no
//! write path, and on a shared disk fsync latency spreads too much
//! between runs to hold an end-to-end bound.
//!
//! # Per-layer metrics (`--trace 1`) and the end-to-end metric each should move
//!
//! Layers are timed only from outside, around calls to their public
//! functions; a timing wrapper (`timed::TimedBackend`) sits between the
//! service and its backend. A traced run measures half its time
//! untraced and half traced; per-layer numbers come from the traced
//! half. Metrics of a layer a workload does not execute read 0.
//!
//! | layer | metric | should move |
//! |---|---|---|
//! | `panda_core::local_tree` / `knn` | `local_tree.build_s` | `setup_s` on bulk and mixed (open rebuilds the tree) |
//! | | `local_tree.query_us`, `local_tree.call_us_p99` | `query_qps` and `query_p50_us` on bulk |
//! | | `local_tree.points_scanned_per_query`, `local_tree.nodes_visited_per_query`, `local_tree.blocks_pruned_frac`, `local_tree.computed_bytes_per_query` | `query_qps` on bulk and serve |
//! | `panda_core::engine::sharded` + `panda_comm` | `sharded.build_s` | `setup_s` on serve |
//! | | `sharded.call_us_p50`, `sharded.call_us_p99` | `query_p50_us` on serve |
//! | | `sharded.queries_per_call`, `sharded.remote_fanout`, `comm.bytes_per_query`, `comm.msgs_per_query` | `query_qps` on serve |
//! | | `sharded.restarts` | `ops_ok_frac` |
//! | `panda_service` | `service.batch_size_mean`, `service.backend_busy_frac` | `query_qps` on serve |
//! | | `service.overhead_us`, `service.request_us_p99`, `service.queue_depth_max` | `query_p50_us` on serve and mixed |
//! | | `service.rejected`, `service.deadline_exceeded` | `ops_ok_frac` |
//! | `panda_store` (index + wal) | `store.recover_s` | `setup_s` on mixed |
//! | | `store.query_us`, `store.log_points_mean`, `store.tombstones_mean` | `query_p50_us` on mixed |
//! | | `store.insert_us_p50`, `store.remove_us_p50`, `store.write_p99_us`, `store.wal.fsyncs_per_write`, `store.wal.bytes_per_user_byte` | `query_qps` on mixed (the generator waits on every write) |
//! | | `store.compactions`, `store.compaction_ms_p50` | `query_qps` on mixed |
//! | `panda_obs` | `obs.trace_overhead_frac` | none; bounds the cost of the traced run |
//!
//! The traced run also writes `.bench_out/trace-<workload>-seed<n>.json`:
//! the host block, every benchmark-side span (name, start, end, parent,
//! request id), per-layer busy and self time computed from them, and the
//! program's own `panda_obs::trace` stage table with the stages that
//! recorded nothing.

mod bulk;
mod layers;
mod mixed;
mod oracle;
mod report;
mod serve;
mod service_loop;
mod spans;
mod timed;

use std::process::ExitCode;

use report::{Host, Outcome};

/// Nearest neighbors per query in every workload.
pub const K: usize = 16;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "bulk-cosmo3d" => bulk::run,
        "serve-dayabay10d" => serve::run,
        "mixed-cosmo3d-durable" => mixed::run,
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (bulk-cosmo3d | serve-dayabay10d | mixed-cosmo3d-durable)"
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::probe(&args);
    let outcome: Outcome = match run(&args, &host) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!("{}", host.to_json());
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: exactness check failed");
        ExitCode::from(1)
    }
}
