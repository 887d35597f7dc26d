//! `serve-dayabay10d`: a 2-shard `ShardedIndex` behind `QueryService`
//! under hot-spot traffic, no store in the path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_core::engine::NnBackend;
use panda_core::{DistConfig, Neighbor, PointSet, QueryCounters, ShardedIndex};
use panda_data::dayabay::{self, DayaBayParams, DIMS};
use panda_service::{QueryService, ServiceConfig};

use crate::layers::Layers;
use crate::report::{median, quantile, ratio, Host, Outcome, Rng};
use crate::service_loop::{service_layers, windowed_p50, ClosedLoop, Done};
use crate::spans::{SpanLog, ROOT};
use crate::timed::TimedBackend;
use crate::{oracle, Args};

/// Set-up repetitions per run; `setup_s` reports their median
/// (a build takes ~0.1 s and jitters with thread start-up).
const SETUP_REPS: usize = 9;
const POINTS: usize = 200_000;
const SHARDS: usize = 2;
const OUTSTANDING: usize = 64;
const HOT_SPOTS: usize = 256;
/// Standard deviation of the per-coordinate jitter around a hot spot.
const JITTER: f32 = 0.05;
/// Every 256th request's row goes to the oracle.
const CHECK_EVERY: u64 = 256;
/// 1-in-N sampling of the program's own pipeline tracer.
const OBS_SAMPLING: u64 = 64;

type Backend = Arc<dyn NnBackend + Send + Sync>;

/// Build the sharded index and start a service over it; returns the
/// instants before the build, after it, and after the service started.
fn start(data: &PointSet) -> Result<(Arc<ShardedIndex>, QueryService, [Instant; 3]), String> {
    let t0 = Instant::now();
    let index = Arc::new(
        ShardedIndex::build(data, SHARDS, &DistConfig::default())
            .map_err(|e| format!("build: {e}"))?,
    );
    let t1 = Instant::now();
    let backend: Backend = index.clone();
    let svc = QueryService::new(backend, ServiceConfig::default())
        .map_err(|e| format!("service: {e}"))?;
    Ok((index, svc, [t0, t1, Instant::now()]))
}

/// Hot-spot request generator: a jittered copy of one of 256 points.
struct Traffic {
    rng: Rng,
    hot: Vec<usize>,
}

impl Traffic {
    fn next(&mut self, data: &PointSet) -> Vec<f32> {
        let p = data.point(self.hot[self.rng.below(HOT_SPOTS)]);
        p.iter().map(|&x| x + JITTER * self.rng.gauss()).collect()
    }
}

/// Checked rows: query coordinates and the service's answer.
#[derive(Default)]
struct Checked {
    coords: Vec<f32>,
    rows: Vec<Vec<Neighbor>>,
}

struct Phase {
    lp: ClosedLoop,
    start: Instant,
    budget: Duration,
    wall_s: f64,
}

impl Phase {
    /// Requests answered per second within the budget.
    fn qps(&self) -> f64 {
        let end = self.start + self.budget;
        let done = self.lp.completions.iter().filter(|c| c.end < end).count();
        ratio(done as f64, self.budget.as_secs_f64())
    }

    fn p50_us(&self) -> f64 {
        windowed_p50(&self.lp.completions, self.start, self.budget)
    }
}

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    let data = dayabay::generate(POINTS, &DayaBayParams::default(), args.seed).points;
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut build_s = Vec::with_capacity(SETUP_REPS);
    let mut ready: Option<(Arc<ShardedIndex>, QueryService)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, svc)) = ready.take() {
            svc.shutdown();
        }
        let (index, svc, [t0, t1, t2]) = start(&data)?;
        setup_s.push((t2 - t0).as_secs_f64());
        build_s.push((t1 - t0).as_secs_f64());
        let rep_span = log.push("setup.rep", t0, t2, ROOT, rep as u64);
        log.push("sharded.build", t0, t1, rep_span, rep as u64);
        log.push("service.new", t1, t2, rep_span, rep as u64);
        ready = Some((index, svc));
    }
    let (index, svc) = ready.expect("at least one set-up repetition");

    let mut rng = Rng::new(args.seed);
    let hot = (0..HOT_SPOTS).map(|_| rng.below(data.len())).collect();
    let mut traffic = Traffic { rng, hot };
    let mut checked = Checked::default();
    let budget = Duration::from_secs_f64(args.seconds);

    let mut out;
    if args.trace {
        let base = drive(&svc, &data, &mut traffic, budget / 2, &mut checked);
        svc.shutdown();
        let timed = Arc::new(TimedBackend::new(index.clone()));
        let backend: Backend = timed.clone();
        let svc = QueryService::new(backend, ServiceConfig::default())
            .map_err(|e| format!("service: {e}"))?;
        let registry = index.registry().expect("sharded index keeps a registry");
        let before = registry.snapshot();
        panda_obs::trace::clear();
        panda_obs::trace::set_sampling(OBS_SAMPLING);
        let traced = drive(&svc, &data, &mut traffic, budget / 2, &mut checked);
        panda_obs::trace::set_sampling(0);
        let report = panda_obs::TraceReport::gather();
        let after = registry.snapshot();
        let stats = svc.stats();
        svc.shutdown();
        let calls = timed.take_calls();

        let mut layers = Layers {
            sharded_build_s: median(&build_s),
            sharded_restarts: index.shard_restarts() as f64,
            ..Layers::default()
        };
        let call_us: Vec<f64> = calls.iter().map(|c| c.seconds() * 1e6).collect();
        let answered: usize = calls.iter().filter(|c| c.ok).map(|c| c.queries).sum();
        let mut counters = QueryCounters::default();
        let (mut pairs, mut owned) = (0u64, 0u64);
        for c in &calls {
            counters.add(&c.counters);
            if let Some(r) = c.remote {
                pairs += r.remote_pairs_sent;
                owned += r.owned_queries;
            }
        }
        layers.set_counters(&counters, DIMS);
        layers.sharded_call_us_p50 = quantile(&call_us, 0.50);
        layers.sharded_call_us_p99 = quantile(&call_us, 0.99);
        layers.sharded_queries_per_call = ratio(answered as f64, calls.len() as f64);
        layers.sharded_remote_fanout = ratio(pairs as f64, owned as f64);
        let delta = |names: &[&str]| -> f64 {
            names
                .iter()
                .map(|n| after.counter(n).unwrap_or(0) - before.counter(n).unwrap_or(0))
                .sum::<u64>() as f64
        };
        layers.comm_bytes_per_query = ratio(
            delta(&["comm.sent_bytes", "comm.collective_bytes_out"]),
            answered as f64,
        );
        layers.comm_msgs_per_query = ratio(
            delta(&["comm.sent_msgs", "comm.collectives"]),
            answered as f64,
        );
        service_layers(
            &mut layers,
            &stats,
            &calls,
            &traced.lp.latency_us(),
            traced.wall_s,
        );
        layers.set_trace_overhead(base.qps(), traced.qps());
        for (i, c) in traced.lp.completions.iter().enumerate() {
            log.push("service.request", c.start, c.end, ROOT, i as u64);
        }
        log.push_calls("sharded.call", &calls, ROOT);
        let path = log
            .write(host, &report)
            .map_err(|e| format!("trace file: {e}"))?;
        eprintln!("perfbench: spans written to {path}");

        let bad = check(&data, &checked);
        let attempted = base.lp.attempted + traced.lp.attempted;
        let failed = base.lp.failed + traced.lp.failed;
        out = Outcome::new(bad == 0, attempted, failed);
        layers.push_into(&mut out);
    } else {
        let phase = drive(&svc, &data, &mut traffic, budget, &mut checked);
        svc.shutdown();
        let failed = phase.lp.failed;
        let bad = check(&data, &checked);
        out = Outcome::end_to_end(
            bad == 0,
            phase.lp.attempted,
            failed,
            median(&setup_s),
            phase.qps(),
            phase.p50_us(),
        );
    }
    Ok(out)
}

/// Closed loop with `OUTSTANDING` tickets for `budget`, then drain.
fn drive(
    svc: &QueryService,
    data: &PointSet,
    traffic: &mut Traffic,
    budget: Duration,
    checked: &mut Checked,
) -> Phase {
    let mut lp = ClosedLoop::new(svc.handle(), DIMS, OUTSTANDING);
    let start = Instant::now();
    let keep = |id: u64| id.is_multiple_of(CHECK_EVERY);
    let mut finish = |done: Option<Done>| {
        if let Some(Done {
            coords,
            row: Some(row),
            ..
        }) = done
        {
            checked.coords.extend_from_slice(&coords);
            checked.rows.push(row);
        }
    };
    while lp.outstanding() < lp.depth {
        lp.submit(traffic.next(data), 0);
    }
    while start.elapsed() < budget {
        let done = lp.complete_oldest(keep);
        finish(done);
        lp.submit(traffic.next(data), 0);
    }
    while lp.outstanding() > 0 {
        let done = lp.complete_oldest(keep);
        finish(done);
    }
    Phase {
        wall_s: start.elapsed().as_secs_f64(),
        start,
        budget,
        lp,
    }
}

fn check(data: &PointSet, checked: &Checked) -> usize {
    let queries = PointSet::from_coords(DIMS, checked.coords.clone()).expect("finite queries");
    oracle::check_dense(data, &queries, &checked.rows)
}
