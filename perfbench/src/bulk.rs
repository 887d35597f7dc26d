//! `bulk-cosmo3d`: local tree build plus bulk self-KNN, no service,
//! shards or store in the path.

use std::time::{Duration, Instant};

use panda_core::engine::QueryRequest;
use panda_core::knn::KnnIndex;
use panda_core::{Neighbor, PointSet, QueryCounters, TreeConfig};
use panda_data::cosmology::{self, CosmologyParams};

use crate::layers::Layers;
use crate::report::{median, quantile, ratio, Host, Outcome};
use crate::spans::{SpanLog, ROOT};
use crate::{oracle, Args, K};

/// Set-up repetitions per run; `setup_s` reports their median
/// (each is a ~1 s parallel build).
const SETUP_REPS: usize = 3;
const POINTS: usize = 4_000_000;
/// Every 5th point is a query: a fixed-stride 20% sample.
const STRIDE: usize = 5;
/// Queries per `query_session` call.
const CALL: usize = 800;
/// Every 20th call keeps one row for the oracle.
const CHECK_EVERY_CALL: usize = 20;

/// What a run of whole passes over the sample measured.
#[derive(Default)]
struct Phase {
    passes: usize,
    /// Per call (indexed like `calls`): its latency in every pass.
    call_us: Vec<Vec<f64>>,
    queries: u64,
    seconds: f64,
    counters: QueryCounters,
}

impl Phase {
    /// Each call's median latency over the passes: a stall on a shared
    /// host spoils one pass of a call, not its typical time.
    fn typical_call_us(&self) -> Vec<f64> {
        self.call_us.iter().map(|t| median(t)).collect()
    }

    /// Queries per second of a pass made of every call at its typical
    /// latency.
    fn qps(&self, calls: &[PointSet]) -> f64 {
        let queries: usize = calls.iter().map(PointSet::len).sum();
        ratio(queries as f64 * 1e6, self.typical_call_us().iter().sum())
    }
}

/// Rows kept for the exactness check: one per checked call, at a fixed
/// offset.
struct Sampled {
    /// Per call: the checked query's position in the call and its row.
    rows: Vec<Option<(usize, Vec<Neighbor>)>>,
    /// Later passes that did not reproduce a kept row.
    changed: usize,
}

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    let points = cosmology::generate(POINTS, &CosmologyParams::default(), args.seed);
    let cfg = TreeConfig::default()
        .with_parallel(true)
        .with_threads(host.rayon_threads);
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);

    let mut build_s = Vec::with_capacity(SETUP_REPS);
    let mut index = None;
    for rep in 0..SETUP_REPS {
        drop(index.take()); // free the previous tree before building the next
        let t0 = Instant::now();
        let built = KnnIndex::build(&points, &cfg).map_err(|e| format!("build: {e}"))?;
        let t1 = Instant::now();
        build_s.push((t1 - t0).as_secs_f64());
        log.push("local_tree.build", t0, t1, ROOT, rep as u64);
        index = Some(built);
    }
    let index = index.expect("at least one set-up repetition");

    let sample: Vec<u32> = (0..points.len() as u32).step_by(STRIDE).collect();
    let calls: Vec<PointSet> = sample.chunks(CALL).map(|c| points.select(c)).collect();
    let mut sampled = Sampled {
        rows: vec![None; calls.len()],
        changed: 0,
    };
    let mut failed = 0u64;
    let budget = Duration::from_secs_f64(args.seconds);

    let mut out;
    if args.trace {
        let base = measure(&index, &calls, budget / 2, None, &mut sampled, &mut failed);
        panda_obs::trace::clear();
        panda_obs::trace::set_sampling(1);
        let traced = measure(
            &index,
            &calls,
            budget / 2,
            Some(&mut log),
            &mut sampled,
            &mut failed,
        );
        panda_obs::trace::set_sampling(0);
        let mut layers = Layers {
            local_tree_build_s: median(&build_s),
            local_tree_query_us: ratio(traced.seconds * 1e6, traced.queries as f64),
            ..Layers::default()
        };
        layers.local_tree_call_us_p99 = quantile(&traced.typical_call_us(), 0.99);
        layers.set_counters(&traced.counters, 3);
        layers.set_trace_overhead(base.qps(&calls), traced.qps(&calls));
        let report = panda_obs::TraceReport::gather();
        let path = log
            .write(host, &report)
            .map_err(|e| format!("trace file: {e}"))?;
        eprintln!("perfbench: spans written to {path}");
        let attempted = base.queries + traced.queries;
        drop(index);
        let bad = check(&points, &calls, &sampled);
        out = Outcome::new(bad == 0, attempted, failed);
        layers.push_into(&mut out);
    } else {
        let phase = measure(&index, &calls, budget, None, &mut sampled, &mut failed);
        drop(index);
        let bad = check(&points, &calls, &sampled);
        out = Outcome::end_to_end(
            bad == 0,
            phase.queries,
            failed,
            median(&build_s),
            phase.qps(&calls),
            quantile(&phase.typical_call_us(), 0.50),
        );
    }
    Ok(out)
}

/// Whole passes over the sample until `budget` is spent (at least one).
/// The first answer of each call keeps one row for the oracle; every
/// later pass must reproduce it bit for bit.
fn measure(
    index: &KnnIndex,
    calls: &[PointSet],
    budget: Duration,
    mut log: Option<&mut SpanLog>,
    sampled: &mut Sampled,
    failed: &mut u64,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    phase.call_us = vec![Vec::new(); calls.len()];
    while phase.passes == 0 || start.elapsed() < budget {
        for (ci, call) in calls.iter().enumerate() {
            let trace = match log {
                Some(_) => panda_obs::trace::maybe_sample(),
                None => panda_obs::TraceId::NONE,
            };
            let req = QueryRequest::knn(call, K)
                .with_parallel(true)
                .with_trace(trace);
            let t0 = Instant::now();
            let res = index.query_session(&req);
            let t1 = Instant::now();
            let res = match res {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: bulk call failed: {e}");
                    *failed += call.len() as u64;
                    continue;
                }
            };
            if let Some(log) = log.as_deref_mut() {
                log.push("local_tree.call", t0, t1, ROOT, ci as u64);
            }
            phase.call_us[ci].push((t1 - t0).as_secs_f64() * 1e6);
            phase.seconds += (t1 - t0).as_secs_f64();
            phase.counters.add(&res.counters);
            phase.queries += call.len() as u64;
            let at = (ci * 7919) % call.len();
            let row = res.neighbors.row(at);
            if ci % CHECK_EVERY_CALL != 0 {
                continue;
            }
            match &sampled.rows[ci] {
                None => sampled.rows[ci] = Some((at, row.to_vec())),
                Some((_, kept)) if same_row(row, kept) => {}
                Some(_) => {
                    eprintln!("perfbench: call {ci} changed its answer between passes");
                    sampled.changed += 1;
                }
            }
        }
        phase.passes += 1;
    }
    phase
}

fn same_row(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist_sq.to_bits() == y.dist_sq.to_bits())
}

fn check(points: &PointSet, calls: &[PointSet], sampled: &Sampled) -> usize {
    let mut queries = PointSet::new(points.dims()).expect("valid dims");
    let mut rows = Vec::new();
    for (call, kept) in calls.iter().zip(&sampled.rows) {
        if let Some((at, row)) = kept {
            queries.push(call.point(*at), call.id(*at));
            rows.push(row.clone());
        }
    }
    sampled.changed + oracle::check_dense(points, &queries, &rows)
}
