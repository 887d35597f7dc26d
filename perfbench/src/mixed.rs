//! `mixed-cosmo3d-durable`: a durable `MutableIndex` behind
//! `QueryService`, 90% reads and 10% synchronous writes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_core::engine::{NnBackend, QueryRequest};
use panda_core::knn::KnnIndex;
use panda_core::{Neighbor, PointSet, QueryCounters};
use panda_data::cosmology::{self, CosmologyParams};
use panda_service::{QueryService, ServiceConfig};
use panda_store::{FsyncPolicy, MutableIndex, StoreConfig};

use crate::layers::Layers;
use crate::report::{mean, median, quantile, ratio, Host, Outcome, Rng};
use crate::service_loop::{service_layers, ClosedLoop, Completion, Done};
use crate::spans::{SpanLog, ROOT};
use crate::timed::TimedBackend;
use crate::{oracle, Args, K};

/// Set-up repetitions per run; `setup_s` reports their median
/// (an open takes ~0.3 s).
const SETUP_REPS: usize = 5;
const DIMS: usize = 3;
/// Points in the store when it is reopened.
const SEEDED: usize = 500_000;
/// Points available for inserts (ids `SEEDED..SEEDED + POOL`).
const POOL: usize = 200_000;
const OUTSTANDING: usize = 8;
const WRITE_FRAC: f64 = 0.10;
/// Standard deviation of the per-coordinate jitter around a data point
/// (the box is the unit cube).
const JITTER: f32 = 0.002;
/// Every 64th read is a candidate for the oracle; it is checked when no
/// write ran while it was outstanding.
const CHECK_EVERY: u64 = 64;
/// Reads checked directly against the store after the last write.
const FINAL_CHECKS: usize = 32;
const OBS_SAMPLING: u64 = 16;

type Backend = Arc<dyn NnBackend + Send + Sync>;

/// The store directory, removed when the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only succeeds when empty
        }
    }
}

/// The generator's mirror of the live set. Ids index `all`.
struct Mirror {
    all: PointSet,
    alive: Vec<bool>,
    live: Vec<u64>,
    slot: Vec<u32>,
    next_insert: usize,
}

impl Mirror {
    fn new(all: PointSet) -> Self {
        let n = all.len();
        Self {
            alive: (0..n).map(|i| i < SEEDED).collect(),
            live: (0..SEEDED as u64).collect(),
            slot: (0..n as u32).collect(),
            next_insert: SEEDED,
            all,
        }
    }

    fn apply(&mut self, op: Write) {
        match op {
            Write::Insert(id) => {
                self.alive[id as usize] = true;
                self.slot[id as usize] = self.live.len() as u32;
                self.live.push(id);
            }
            Write::Remove(id) => {
                self.alive[id as usize] = false;
                let at = self.slot[id as usize] as usize;
                self.live.swap_remove(at);
                if let Some(&moved) = self.live.get(at) {
                    self.slot[moved as usize] = at as u32;
                }
            }
        }
    }

    /// The live set as a point set, plus each id's position in it.
    fn snapshot(&self) -> (PointSet, Vec<u32>) {
        let mut ps = PointSet::new(DIMS).expect("3-D");
        let mut pos = vec![u32::MAX; self.all.len()];
        for (i, _) in self.alive.iter().enumerate().filter(|(_, a)| **a) {
            pos[i] = ps.len() as u32;
            ps.push(self.all.point(i), i as u64);
        }
        (ps, pos)
    }
}

#[derive(Clone, Copy, Debug)]
enum Write {
    Insert(u64),
    Remove(u64),
}

/// A read whose answer is checked against the live set after the
/// first `writes` write attempts.
struct Check {
    writes: u64,
    coords: Vec<f32>,
    row: Vec<Neighbor>,
}

/// Everything the generator measured in one phase.
#[derive(Default)]
struct Phase {
    reads_attempted: u64,
    reads_failed: u64,
    reads: Vec<Completion>,
    /// The reads during which no write ran (see `finish_read`).
    clean_reads: Vec<Completion>,
    start: Option<Instant>,
    /// How long the phase ran (its budget, stretched to a swap).
    wall_s: f64,
    /// When the generator saw each compaction swap.
    swaps: Vec<Instant>,
    writes_attempted: u64,
    writes_failed: u64,
    write_us: Vec<f64>,
    insert_us: Vec<f64>,
    remove_us: Vec<f64>,
    user_bytes: u64,
    wal_bytes: u64,
    log_points: Vec<f64>,
    tombstones: Vec<f64>,
    /// Compactions seen from the generator: from the write after which
    /// the store reported one in flight to the swap.
    compaction_ms: Vec<f64>,
    write_spans: Vec<(&'static str, Instant, Instant, u64)>,
}

/// Generator state that carries across phases.
struct Generator {
    rng: Rng,
    mirror: Mirror,
    /// Write attempts so far; acknowledged writes are logged with the
    /// attempt number they were made at.
    attempts: u64,
    acked: Vec<(u64, Write)>,
    checks: Vec<Check>,
    /// Acknowledged writes the store disagreed with (a remove of a live
    /// id that reported nothing removed).
    disagreements: u64,
}

pub fn run(args: &Args, host: &Host) -> Result<Outcome, String> {
    let mut all = cosmology::generate(SEEDED, &CosmologyParams::default(), args.seed);
    let pool = cosmology::generate(POOL, &CosmologyParams::default(), args.seed ^ 0xA5A5);
    let pool_ids: Vec<u64> = (SEEDED as u64..(SEEDED + POOL) as u64).collect();
    let pool = PointSet::from_parts(DIMS, pool.coords().to_vec(), pool_ids)
        .map_err(|e| format!("pool: {e}"))?;
    all.append(&pool).map_err(|e| format!("pool: {e}"))?;
    drop(pool);

    let dir = TmpDir(PathBuf::from(format!(
        ".bench_tmp/mixed-{}",
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("store dir: {e}"))?;
    seed_store(&dir.0, &all).map_err(|e| format!("seeding: {e}"))?;

    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut recover_s = Vec::with_capacity(SETUP_REPS);
    let mut ready: Option<(MutableIndex, QueryService)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((store, svc)) = ready.take() {
            svc.shutdown();
            drop(store);
        }
        let t0 = Instant::now();
        let store = MutableIndex::open(&dir.0, DIMS, StoreConfig::default())
            .map_err(|e| format!("open: {e}"))?;
        let t1 = Instant::now();
        let backend: Backend = Arc::new(store.clone());
        let svc = QueryService::new(backend, ServiceConfig::default())
            .map_err(|e| format!("service: {e}"))?;
        let t2 = Instant::now();
        setup_s.push((t2 - t0).as_secs_f64());
        recover_s.push((t1 - t0).as_secs_f64());
        let rep_span = log.push("setup.rep", t0, t2, ROOT, rep as u64);
        log.push("store.open", t0, t1, rep_span, rep as u64);
        log.push("service.new", t1, t2, rep_span, rep as u64);
        ready = Some((store, svc));
    }
    let (store, svc) = ready.expect("at least one set-up repetition");
    if store.len() != SEEDED {
        return Err(format!("reopened store holds {} points", store.len()));
    }

    let mut gen = Generator {
        rng: Rng::new(args.seed),
        mirror: Mirror::new(all),
        attempts: 0,
        acked: Vec::new(),
        checks: Vec::new(),
        disagreements: 0,
    };
    let budget = Duration::from_secs_f64(args.seconds);

    let mut out;
    if args.trace {
        let base = drive(&store, &svc, &mut gen, budget / 2, false);
        svc.shutdown();
        let timed = Arc::new(TimedBackend::new(Arc::new(store.clone())));
        let backend: Backend = timed.clone();
        let svc = QueryService::new(backend, ServiceConfig::default())
            .map_err(|e| format!("service: {e}"))?;
        let before = store.stats();
        panda_obs::trace::clear();
        panda_obs::trace::set_sampling(OBS_SAMPLING);
        let traced = drive(&store, &svc, &mut gen, budget / 2, true);
        panda_obs::trace::set_sampling(0);
        let report = panda_obs::TraceReport::gather();
        let after = store.stats();
        let stats = svc.stats();
        svc.shutdown();
        let calls = timed.take_calls();

        let mut tree_build_s = Vec::with_capacity(SETUP_REPS);
        let seeded = gen
            .mirror
            .all
            .select(&(0..SEEDED as u32).collect::<Vec<_>>());
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let tree = KnnIndex::build(&seeded, &StoreConfig::default().tree)
                .map_err(|e| format!("tree build: {e}"))?;
            tree_build_s.push(t0.elapsed().as_secs_f64());
            drop(tree);
        }
        drop(seeded);

        let mut layers = Layers {
            local_tree_build_s: median(&tree_build_s),
            store_recover_s: median(&recover_s),
            ..Layers::default()
        };
        let answered: usize = calls.iter().filter(|c| c.ok).map(|c| c.queries).sum();
        let mut counters = QueryCounters::default();
        for c in &calls {
            counters.add(&c.counters);
        }
        layers.set_counters(&counters, DIMS);
        layers.store_query_us = ratio(
            calls.iter().map(|c| c.seconds()).sum::<f64>() * 1e6,
            answered as f64,
        );
        layers.store_log_points_mean = mean(&traced.log_points);
        layers.store_tombstones_mean = mean(&traced.tombstones);
        layers.store_insert_us_p50 = quantile(&traced.insert_us, 0.50);
        layers.store_remove_us_p50 = quantile(&traced.remove_us, 0.50);
        let acked = traced.write_us.len() as f64;
        layers.store_wal_fsyncs_per_write =
            ratio((after.wal_fsyncs - before.wal_fsyncs) as f64, acked);
        layers.store_wal_bytes_per_user_byte =
            ratio(traced.wal_bytes as f64, traced.user_bytes as f64);
        layers.store_compactions = (after.compactions - before.compactions) as f64;
        layers.store_compaction_ms_p50 = median(&traced.compaction_ms);
        layers.store_write_p99_us = quantile(&traced.write_us, 0.99);
        let read_us: Vec<f64> = traced.clean_reads.iter().map(Completion::us).collect();
        service_layers(&mut layers, &stats, &calls, &read_us, traced.wall_s);
        layers.set_trace_overhead(base.qps(), traced.qps());

        for (i, c) in traced.reads.iter().enumerate() {
            log.push("service.request", c.start, c.end, ROOT, i as u64);
        }
        for &(name, s, e, id) in &traced.write_spans {
            log.push(name, s, e, ROOT, id);
        }
        log.push_calls("store.query", &calls, ROOT);
        let path = log
            .write(host, &report)
            .map_err(|e| format!("trace file: {e}"))?;
        eprintln!("perfbench: spans written to {path}");

        let bad = verify(&store, &mut gen);
        let attempted = base.reads_attempted
            + base.writes_attempted
            + traced.reads_attempted
            + traced.writes_attempted;
        let failed =
            base.reads_failed + base.writes_failed + traced.reads_failed + traced.writes_failed;
        out = Outcome::new(bad == 0, attempted, failed);
        layers.push_into(&mut out);
    } else {
        let phase = drive(&store, &svc, &mut gen, budget, false);
        svc.shutdown();
        let bad = verify(&store, &mut gen);
        let attempted = phase.reads_attempted + phase.writes_attempted;
        let failed = phase.reads_failed + phase.writes_failed;
        let (qps, p50) = phase.per_cycle();
        out = Outcome::end_to_end(bad == 0, attempted, failed, median(&setup_s), qps, p50);
    }
    drop(store);
    drop(dir);
    Ok(out)
}

impl Phase {
    /// Reads answered per second over the whole phase.
    fn qps(&self) -> f64 {
        ratio(self.reads.len() as f64, self.wall_s)
    }

    /// Read throughput and median latency as medians over compaction cycles
    /// (the stretches between consecutive swaps; the phase's start
    /// counts as one): a cycle is the period of the read cost, as a
    /// pass is for bulk. Latency uses the reads during which no write
    /// ran. A phase that saw no swap is one cycle.
    fn per_cycle(&self) -> (f64, f64) {
        let start = self.start.expect("phase ran");
        let mut bounds = vec![start];
        bounds.extend(&self.swaps);
        if bounds.len() == 1 {
            bounds.push(start + Duration::from_secs_f64(self.wall_s));
        }
        let cycle_of = |t: Instant| bounds.windows(2).position(|w| t >= w[0] && t < w[1]);
        let n = bounds.len() - 1;
        let mut reads = vec![0usize; n];
        for r in &self.reads {
            if let Some(c) = cycle_of(r.end) {
                reads[c] += 1;
            }
        }
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
        for r in &self.clean_reads {
            if let Some(c) = cycle_of(r.end) {
                lat[c].push(r.us());
            }
        }
        let qps: Vec<f64> = bounds
            .windows(2)
            .zip(&reads)
            .map(|(w, &r)| r as f64 / (w[1] - w[0]).as_secs_f64())
            .collect();
        let p50: Vec<f64> = lat.iter().map(|l| quantile(l, 0.50)).collect();
        (median(&qps), median(&p50))
    }
}

/// Write the first `SEEDED` points into a fresh store directory as one
/// snapshot checkpoint: log everything, compact once, sync, close.
fn seed_store(dir: &std::path::Path, all: &PointSet) -> panda_core::Result<()> {
    let cfg = StoreConfig::default()
        .with_fsync(FsyncPolicy::OnCompaction)
        .with_compact_points(usize::MAX)
        .with_compact_bytes(usize::MAX)
        .with_max_deleted(usize::MAX);
    let store = MutableIndex::open(dir, DIMS, cfg)?;
    for i in 0..SEEDED {
        store.insert(all.point(i), i as u64)?;
    }
    store.compact_now()?;
    store.sync()
}

/// One phase of the closed loop: reads keep `OUTSTANDING` tickets in
/// flight; between them the same thread makes synchronous writes.
///
/// Read cost climbs with the tombstone count and drops back at each
/// compaction swap, so the phase runs for `budget` and then on to the
/// next swap (at most `budget` more): a phase that starts at a swap, or
/// at a fresh open, then spans whole compaction cycles.
fn drive(
    store: &MutableIndex,
    svc: &QueryService,
    gen: &mut Generator,
    budget: Duration,
    traced: bool,
) -> Phase {
    let mut phase = Phase::default();
    let mut lp = ClosedLoop::new(svc.handle(), DIMS, OUTSTANDING);
    let mut wal_prev = store.stats().wal_bytes;
    let start = Instant::now();
    while lp.outstanding() < lp.depth {
        let q = read_query(gen);
        lp.submit(q, gen.attempts);
    }
    let mut epoch = store.epoch();
    let mut compacting_since: Option<Instant> = None;
    loop {
        let now_epoch = store.epoch();
        if now_epoch != epoch {
            epoch = now_epoch;
            let now = Instant::now();
            phase.swaps.push(now);
            if let Some(since) = compacting_since.take() {
                phase.compaction_ms.push((now - since).as_secs_f64() * 1e3);
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        if start.elapsed() >= 2 * budget {
            break;
        }
        if gen.rng.f64() < WRITE_FRAC {
            write_once(store, gen, &mut phase, traced);
            if traced {
                let st = store.stats();
                if st.compacting && compacting_since.is_none() {
                    compacting_since = Some(Instant::now());
                }
                phase.log_points.push(st.log_points as f64);
                phase.tombstones.push(st.deleted as f64);
                // A rotation restarts the active segment: count its
                // whole (new) length.
                phase.wal_bytes += if st.wal_bytes >= wal_prev {
                    st.wal_bytes - wal_prev
                } else {
                    st.wal_bytes
                };
                wal_prev = st.wal_bytes;
            }
        } else {
            let done = lp.complete_oldest(|id| id.is_multiple_of(CHECK_EVERY));
            finish_read(done, gen, &mut phase);
            let q = read_query(gen);
            lp.submit(q, gen.attempts);
        }
    }
    while lp.outstanding() > 0 {
        let done = lp.complete_oldest(|id| id.is_multiple_of(CHECK_EVERY));
        finish_read(done, gen, &mut phase);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.reads_attempted = lp.attempted;
    phase.reads_failed = lp.failed;
    phase.reads = lp.completions;
    phase.start = Some(start);
    phase
}

fn read_query(gen: &mut Generator) -> Vec<f32> {
    let p = gen.mirror.all.point(gen.rng.below(SEEDED));
    p.iter().map(|&x| x + JITTER * gen.rng.gauss()).collect()
}

fn finish_read(done: Option<Done>, gen: &mut Generator, phase: &mut Phase) {
    let Some(d) = done else { return };
    // `tag` is the write-attempt count at submission: unchanged means
    // no write ran while the read was outstanding.
    let clean = d.tag == gen.attempts;
    if clean {
        phase.clean_reads.push(Completion {
            start: d.start,
            end: d.end,
        });
    }
    if let Some(row) = d.row.filter(|_| clean) {
        gen.checks.push(Check {
            writes: d.tag,
            coords: d.coords,
            row,
        });
    }
}

/// One synchronous write: half inserts of new ids, half removes of live
/// ids (removes only once the insert pool is spent).
fn write_once(store: &MutableIndex, gen: &mut Generator, phase: &mut Phase, traced: bool) {
    let insert = gen.rng.f64() < 0.5 && gen.mirror.next_insert < gen.mirror.all.len();
    let attempt = gen.attempts;
    gen.attempts += 1;
    phase.writes_attempted += 1;
    let (op, name, t0, res) = if insert {
        let id = gen.mirror.next_insert as u64;
        gen.mirror.next_insert += 1;
        let t0 = Instant::now();
        let res = store
            .insert(gen.mirror.all.point(id as usize), id)
            .map(|()| true);
        (Write::Insert(id), "store.insert", t0, res)
    } else {
        let id = gen.mirror.live[gen.rng.below(gen.mirror.live.len())];
        let t0 = Instant::now();
        let res = store.remove(id);
        (Write::Remove(id), "store.remove", t0, res)
    };
    let t1 = Instant::now();
    match res {
        Ok(applied) => {
            if !applied {
                gen.disagreements += 1;
            }
            let us = (t1 - t0).as_secs_f64() * 1e6;
            phase.write_us.push(us);
            match op {
                Write::Insert(_) => {
                    phase.insert_us.push(us);
                    phase.user_bytes += (DIMS * 4 + 8) as u64;
                }
                Write::Remove(_) => {
                    phase.remove_us.push(us);
                    phase.user_bytes += 8;
                }
            }
            if traced {
                phase.write_spans.push((name, t0, t1, attempt));
            }
            gen.mirror.apply(op);
            gen.acked.push((attempt, op));
        }
        Err(e) => {
            if phase.writes_failed == 0 {
                eprintln!("perfbench: write failed: {e}");
            }
            phase.writes_failed += 1;
        }
    }
}

/// Check every eligible sampled read against the live set it was served
/// from (replaying the acknowledged writes), then query the store
/// directly after the last write. Returns the mismatch count.
fn verify(store: &MutableIndex, gen: &mut Generator) -> usize {
    let mut bad = gen.disagreements as usize;
    store.quiesce();
    let mut checks = std::mem::take(&mut gen.checks);
    checks.sort_by_key(|c| c.writes);
    let mut replay = Mirror::new(gen.mirror.all.clone());
    let mut next = 0;
    let mut i = 0;
    while i < checks.len() {
        let writes = checks[i].writes;
        while next < gen.acked.len() && gen.acked[next].0 < writes {
            replay.apply(gen.acked[next].1);
            next += 1;
        }
        let group_end = i + checks[i..]
            .iter()
            .take_while(|c| c.writes == writes)
            .count();
        let group = &checks[i..group_end];
        let coords: Vec<f32> = group
            .iter()
            .flat_map(|c| c.coords.iter().copied())
            .collect();
        let rows: Vec<Vec<Neighbor>> = group.iter().map(|c| c.row.clone()).collect();
        bad += check_against(&replay, &coords, &rows);
        i = group_end;
    }

    let mut coords = Vec::with_capacity(FINAL_CHECKS * DIMS);
    for _ in 0..FINAL_CHECKS {
        coords.extend(read_query(gen));
    }
    let queries = PointSet::from_coords(DIMS, coords.clone()).expect("finite queries");
    match store.query(&QueryRequest::knn(&queries, K)) {
        Ok(res) => {
            let rows: Vec<Vec<Neighbor>> = res.neighbors.iter().map(<[Neighbor]>::to_vec).collect();
            bad += check_against(&gen.mirror, &coords, &rows);
        }
        Err(e) => {
            eprintln!("perfbench: final store query failed: {e}");
            bad += FINAL_CHECKS;
        }
    }
    if store.len() != gen.mirror.live.len() {
        eprintln!(
            "perfbench: store holds {} points, generator mirror {}",
            store.len(),
            gen.mirror.live.len()
        );
        bad += 1;
    }
    bad
}

fn check_against(mirror: &Mirror, coords: &[f32], rows: &[Vec<Neighbor>]) -> usize {
    let (live, pos) = mirror.snapshot();
    let queries = PointSet::from_coords(DIMS, coords.to_vec()).expect("finite queries");
    oracle::check(&live, &queries, rows, |id| {
        pos.get(id as usize)
            .filter(|&&p| p != u32::MAX)
            .map(|&p| p as usize)
    })
}
