//! [`ShardedIndex`]: the distributed engine as a **service-grade**
//! backend — message-passing shard workers behind a `Send + Sync` handle.
//!
//! The predecessor (`DistIndex`, PRs 2–7) bundled "this rank's SPMD
//! closure" state — a `&mut Comm` in a `RefCell` — into the backend, so
//! the one scale-out engine was the one engine the `panda_service` query
//! service could not front (`!Sync` by design, pinned in
//! `tests/thread_safety.rs`). This module inverts the ownership model:
//!
//! * **Each shard is a long-lived worker thread** that exclusively owns
//!   its local kd-tree, its comm endpoint (one element of
//!   [`panda_comm::make_endpoints`]'s mesh), and its per-step scratch
//!   (heaps, send lanes, traversal workspace). No shared mutable state,
//!   no `RefCell`, no locks on the hot path inside a worker.
//! * **The front handle routes and assembles.** `query` routes each
//!   query to its owning shard via the (cheap, immutable) global tree,
//!   scatters flat coordinate slices over channels, and the workers run
//!   the same collective pipeline as the SPMD engine
//!   ([`crate::query_distributed`]'s stages 2–5). The front end gathers
//!   each shard's CSR slice and scatters rows back into one
//!   [`NeighborTable`] in submission order — the reply channel *is* the
//!   origin-return leg, so two of the SPMD path's four alltoallv
//!   exchanges simply disappear.
//! * **Workers are supervised** like the service scheduler (PR 6): a
//!   panicking shard resolves the in-flight round with a typed
//!   [`PandaError::BackendPanicked`], the worker restarts with bounded
//!   exponential backoff, and the front end re-synchronizes every
//!   endpoint with [`panda_comm::Comm::quiesce`] (same epoch on every
//!   shard) before the next round. An injected or real comm timeout
//!   inside a worker surfaces as [`PandaError::Comm`] — never a hang —
//!   because every collective on the worker path is the fallible
//!   (`try_*`) variant with the cluster's retry policy.
//!
//! Because results are bit-for-bit identical to the single-shard local
//! engine (same kernels, same merge order — pinned by tests here and in
//! `tests/dist_order_parity.rs`), a service can front a sharded cluster
//! and still promise exactness.
//!
//! Rounds are serialized by a dispatch mutex: one query round's
//! collectives must fully drain before the next begins, or the shards'
//! collective sequence numbers would interleave. Concurrency comes from
//! the layer above (the service's micro-batcher), parallelism from
//! within the round (shards work their slices concurrently).

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use panda_comm::{make_endpoints, ClusterConfig, Comm, CommMeter};
use panda_obs::trace::{self, Stage};
use panda_obs::{Counter, Registry, TraceId};

use crate::build_distributed::{build_distributed, DistKdTree};
use crate::config::DistConfig;
use crate::counters::QueryCounters;
use crate::engine::{check_radius, NeighborTable, NnBackend, QueryRequest, QueryResponse};
use crate::error::{PandaError, Result};
use crate::faultpoint::{self, points};
use crate::global_tree::GlobalKdTree;
use crate::heap::Neighbor;
use crate::local_tree::QueryWorkspace;
use crate::point::PointSet;
use crate::query_distributed::{owned_pipeline, Owned, OwnedOutput, PipelineParams, RemoteStats};
use crate::supervise::{panic_message, restart_backoff};
use crate::timers::QueryBreakdown;

/// One unit of work shipped to a shard worker. Every round sends one job
/// to **every** shard — the KNN pipeline is collective, so a shard with
/// zero routed queries still has to enter the allreduce/alltoallv steps.
enum ShardJob {
    /// Stages 2–5 of the distributed KNN pipeline for the routed slice.
    Knn {
        coords: Vec<f32>,
        qids: Vec<u64>,
        params: PipelineParams,
        trace: TraceId,
    },
    /// Purely local fixed-radius serve (no collectives).
    Radius {
        coords: Vec<f32>,
        qids: Vec<u64>,
        r_sq: f32,
    },
    /// Reset the comm endpoint after a torn round; ack with
    /// [`ShardReply::Quiesced`].
    Quiesce { epoch: u64 },
    /// Exit the worker loop.
    Shutdown,
}

/// Per-query results of a radius job, CSR-style in routed order.
struct RadiusSlice {
    qids: Vec<u64>,
    counts: Vec<u32>,
    arena: Vec<Neighbor>,
}

enum ShardReply {
    Knn(Result<OwnedOutput>),
    Radius(Result<RadiusSlice>),
    Quiesced,
}

/// The serialized dispatch state: senders into every worker plus the one
/// shared reply channel. Guarded by a mutex because a round's collectives
/// must not interleave with another round's.
struct Dispatch {
    job_tx: Vec<Sender<ShardJob>>,
    reply_rx: Receiver<ShardReply>,
    /// Quiesce epoch, bumped once per failed round.
    epoch: u64,
}

/// A distributed kd-tree cluster behind one thread-safe handle.
///
/// `ShardedIndex: Send + Sync` — the compile-time pin that makes the
/// distributed engine service-eligible (`tests/thread_safety.rs`). Build
/// with [`ShardedIndex::build`], then use it anywhere an
/// `Arc<dyn NnBackend + Send + Sync>` is expected:
///
/// ```
/// use panda_core::engine::{NnBackend, QueryRequest, ShardedIndex};
/// use panda_core::{DistConfig, PointSet};
///
/// let points = PointSet::from_coords(1, vec![0.0, 1.0, 2.0, 10.0])?;
/// let queries = PointSet::from_coords(1, vec![1.2])?;
/// let index = ShardedIndex::build(&points, 2, &DistConfig::default())?;
/// let res = index.query(&QueryRequest::knn(&queries, 2))?;
/// assert_eq!(res.neighbors.row(0)[0].id, 1); // x = 1.0
/// # Ok::<(), panda_core::PandaError>(())
/// ```
pub struct ShardedIndex {
    /// Clone of the global BSP tree, used by the front end for routing.
    global: GlobalKdTree,
    dims: usize,
    len: usize,
    n_shards: usize,
    dispatch: Mutex<Dispatch>,
    /// Shared metrics plane: `shard.*` counters plus the workers'
    /// `comm.*` traffic totals (see [`NnBackend::registry`]).
    registry: Registry,
    restarts: Counter,
    rounds: Counter,
    queries_total: Counter,
    workers: Vec<JoinHandle<()>>,
}

fn lock_dispatch(index: &ShardedIndex) -> MutexGuard<'_, Dispatch> {
    index
        .dispatch
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn shard_gone() -> PandaError {
    PandaError::BackendPanicked("shard worker disconnected".into())
}

/// Among the errors of a torn round, prefer a root cause over a symptom:
/// a panic or injected fault on one shard makes its *peers* time out in
/// the collectives, so `Comm` errors are reported only when nothing more
/// specific exists.
fn pick_root_cause(mut errs: Vec<PandaError>) -> PandaError {
    let root = errs
        .iter()
        .position(|e| !matches!(e, PandaError::Comm(_)))
        .unwrap_or(0);
    errs.swap_remove(root)
}

impl ShardedIndex {
    /// Build a cluster of `shards` worker threads over `points` (ids must
    /// be unique). Points are dealt round-robin across shards and then
    /// redistributed by the collective build into spatial cells, exactly
    /// as the SPMD [`build_distributed`] does.
    pub fn build(points: &PointSet, shards: usize, cfg: &DistConfig) -> Result<Self> {
        Self::build_with_cluster(points, cfg, &ClusterConfig::new(shards))
    }

    /// [`ShardedIndex::build`] with an explicit [`ClusterConfig`]:
    /// `cluster.ranks` is the shard count, and its cost model, receive
    /// timeout, and retry policy govern the workers' comm endpoints —
    /// chaos tests shorten the timeout so injected stalls surface as
    /// typed errors in milliseconds rather than minutes.
    pub fn build_with_cluster(
        points: &PointSet,
        cfg: &DistConfig,
        cluster: &ClusterConfig,
    ) -> Result<Self> {
        if cluster.ranks == 0 {
            return Err(PandaError::BadConfig(
                "sharded index needs at least one shard".into(),
            ));
        }
        points.validate()?;
        let shards = cluster.ranks;
        let dims = points.dims();
        let endpoints = make_endpoints(cluster);
        let (reply_tx, reply_rx) = channel::<ShardReply>();
        let (init_tx, init_rx) = channel::<(usize, Result<Option<GlobalKdTree>>)>();
        let registry = Registry::new();
        let restarts = registry.counter("shard.restarts");
        let rounds = registry.counter("shard.rounds");
        let queries_total = registry.counter("shard.queries");
        let mut job_tx = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, comm) in endpoints.into_iter().enumerate() {
            let (tx, rx) = channel::<ShardJob>();
            job_tx.push(tx);
            let mut mine = PointSet::new(dims)?;
            for i in (shard..points.len()).step_by(shards) {
                mine.push(points.point(i), points.id(i));
            }
            let cfg = *cfg;
            let init_tx = init_tx.clone();
            let reply_tx = reply_tx.clone();
            let restarts = restarts.clone();
            let meter = CommMeter::new(&registry);
            let handle = std::thread::Builder::new()
                .name(format!("panda-shard-{shard}"))
                .stack_size(8 << 20)
                .spawn(move || {
                    worker_entry(
                        comm, mine, cfg, shard, rx, reply_tx, init_tx, restarts, meter,
                    );
                })
                .map_err(|e| PandaError::BadConfig(format!("spawn shard worker: {e}")))?;
            workers.push(handle);
        }
        drop(init_tx);
        // The collective build either succeeds on every shard or fails on
        // every shard; keep the first error as the representative one.
        let mut global: Option<GlobalKdTree> = None;
        let mut first_err: Option<PandaError> = None;
        for _ in 0..shards {
            match init_rx.recv() {
                Ok((_, Ok(g))) => {
                    if g.is_some() {
                        global = g;
                    }
                }
                Ok((_, Err(e))) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Err(_) => {
                    if first_err.is_none() {
                        first_err = Some(shard_gone());
                    }
                }
            }
        }
        if let Some(e) = first_err {
            for tx in &job_tx {
                let _ = tx.send(ShardJob::Shutdown);
            }
            for h in workers {
                let _ = h.join();
            }
            return Err(e);
        }
        let global = global.expect("shard 0 publishes the global tree");
        Ok(Self {
            global,
            dims,
            len: points.len(),
            n_shards: shards,
            dispatch: Mutex::new(Dispatch {
                job_tx,
                reply_rx,
                epoch: 0,
            }),
            registry,
            restarts,
            rounds,
            queries_total,
            workers,
        })
    }

    /// Number of shard worker threads.
    pub fn shards(&self) -> usize {
        self.n_shards
    }

    /// The global BSP tree used for routing (rank regions, bboxes).
    pub fn global(&self) -> &GlobalKdTree {
        &self.global
    }

    /// How many times a shard worker recovered from a panic. A healthy
    /// cluster stays at 0; supervision tests assert it advances.
    pub fn shard_restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// Distributed fixed-radius search: per query, **all** dataset points
    /// strictly within `radius`, ascending by `(distance, id)`, as a flat
    /// CSR [`NeighborTable`] (row `i` answers `queries.point(i)`).
    ///
    /// Unlike KNN there is no bound-refinement loop: each query is routed
    /// to every shard whose region intersects the ball and the workers
    /// serve purely locally — no collectives at all. The radius must be
    /// positive and finite ([`PandaError::BadRadius`]).
    pub fn query_radius_all(&self, queries: &PointSet, radius: f32) -> Result<NeighborTable> {
        check_radius(radius)?;
        queries.validate()?;
        if !queries.is_empty() && queries.dims() != self.dims {
            return Err(PandaError::DimsMismatch {
                expected: self.dims,
                got: queries.dims(),
            });
        }
        let r_sq = radius * radius;
        let mut counters = QueryCounters::default();
        let mut coords: Vec<Vec<f32>> = vec![Vec::new(); self.n_shards];
        let mut qids: Vec<Vec<u64>> = vec![Vec::new(); self.n_shards];
        let mut targets = Vec::new();
        for i in 0..queries.len() {
            let q = queries.point(i);
            targets.clear();
            self.global
                .ranks_in_ball(q, r_sq, true, &mut targets, &mut counters);
            for &s in &targets {
                coords[s].extend_from_slice(q);
                qids[s].push(i as u64);
            }
        }
        let slices = {
            let mut d = lock_dispatch(self);
            for (shard, (c, q)) in coords.into_iter().zip(qids).enumerate() {
                d.job_tx[shard]
                    .send(ShardJob::Radius {
                        coords: c,
                        qids: q,
                        r_sq,
                    })
                    .map_err(|_| shard_gone())?;
            }
            self.gather_radius(&mut d)?
        };
        let mut row_counts = vec![0u32; queries.len()];
        for s in &slices {
            for (&qid, &cnt) in s.qids.iter().zip(&s.counts) {
                row_counts[qid as usize] += cnt;
            }
        }
        let mut table = NeighborTable::with_row_counts(&row_counts)?;
        let mut written = vec![0u32; queries.len()];
        for s in &slices {
            let mut cur = 0usize;
            for (&qid, &cnt) in s.qids.iter().zip(&s.counts) {
                let qid = qid as usize;
                let row = table.row_mut(qid);
                for n in &s.arena[cur..cur + cnt as usize] {
                    row[written[qid] as usize] = *n;
                    written[qid] += 1;
                }
                cur += cnt as usize;
            }
        }
        for i in 0..queries.len() {
            table.row_mut(i).sort_by(|a, b| {
                a.dist_sq
                    .partial_cmp(&b.dist_sq)
                    .expect("finite distances")
                    .then(a.id.cmp(&b.id))
            });
        }
        Ok(table)
    }

    /// One serialized KNN round: scatter the routed slices, gather every
    /// shard's output, and on any failure re-synchronize the mesh before
    /// surfacing the root cause.
    fn run_knn_round(
        &self,
        coords: Vec<Vec<f32>>,
        qids: Vec<Vec<u64>>,
        params: PipelineParams,
        trace_id: TraceId,
        scatter_start: Instant,
    ) -> Result<Vec<OwnedOutput>> {
        let mut d = lock_dispatch(self);
        for (shard, (c, q)) in coords.into_iter().zip(qids).enumerate() {
            d.job_tx[shard]
                .send(ShardJob::Knn {
                    coords: c,
                    qids: q,
                    params,
                    trace: trace_id,
                })
                .map_err(|_| shard_gone())?;
        }
        // Scatter = routing + job fan-out; gather starts once the last
        // job is on its channel.
        trace::record(trace_id, Stage::Scatter, scatter_start);
        let gather_start = Instant::now();
        let mut outs = Vec::with_capacity(self.n_shards);
        let mut errs = Vec::new();
        for _ in 0..self.n_shards {
            match d.reply_rx.recv() {
                Ok(ShardReply::Knn(res)) => match res {
                    Ok(o) => outs.push(o),
                    Err(e) => errs.push(e),
                },
                Ok(_) => unreachable!("shard reply protocol violation"),
                Err(_) => return Err(shard_gone()),
            }
        }
        if !errs.is_empty() {
            // The round is torn: some shards may have consumed peer
            // payloads before the failure. Re-synchronize every endpoint
            // under the same epoch before the next round.
            self.quiesce_locked(&mut d)?;
            return Err(pick_root_cause(errs));
        }
        trace::record(trace_id, Stage::Gather, gather_start);
        Ok(outs)
    }

    fn gather_radius(&self, d: &mut Dispatch) -> Result<Vec<RadiusSlice>> {
        let mut outs = Vec::with_capacity(self.n_shards);
        let mut errs = Vec::new();
        for _ in 0..self.n_shards {
            match d.reply_rx.recv() {
                Ok(ShardReply::Radius(res)) => match res {
                    Ok(s) => outs.push(s),
                    Err(e) => errs.push(e),
                },
                Ok(_) => unreachable!("shard reply protocol violation"),
                Err(_) => return Err(shard_gone()),
            }
        }
        if !errs.is_empty() {
            // Radius jobs never touch the comm endpoint, so no quiesce is
            // needed — the failure is local to a worker.
            return Err(pick_root_cause(errs));
        }
        Ok(outs)
    }

    /// Drive every endpoint through [`Comm::quiesce`] with a fresh epoch
    /// and wait for all acks, holding the dispatch lock throughout.
    fn quiesce_locked(&self, d: &mut Dispatch) -> Result<()> {
        d.epoch += 1;
        let epoch = d.epoch;
        for tx in &d.job_tx {
            tx.send(ShardJob::Quiesce { epoch })
                .map_err(|_| shard_gone())?;
        }
        let mut acks = 0;
        while acks < self.n_shards {
            match d.reply_rx.recv() {
                Ok(ShardReply::Quiesced) => acks += 1,
                // A straggler's reply from the torn round can still be in
                // flight; drain and ignore it.
                Ok(_) => {}
                Err(_) => return Err(shard_gone()),
            }
        }
        Ok(())
    }
}

impl Drop for ShardedIndex {
    fn drop(&mut self) {
        {
            let d = lock_dispatch(self);
            for tx in &d.job_tx {
                let _ = tx.send(ShardJob::Shutdown);
            }
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.n_shards)
            .field("len", &self.len)
            .field("dims", &self.dims)
            .field("restarts", &self.shard_restarts())
            .finish()
    }
}

impl NnBackend for ShardedIndex {
    // `build` keeps the rejecting default: the shard count is a required
    // argument — use `ShardedIndex::build`.

    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        let t0 = Instant::now();
        req.validate()?;
        let queries = req.queries();
        if !queries.is_empty() && queries.dims() != self.dims {
            return Err(PandaError::DimsMismatch {
                expected: self.dims,
                got: queries.dims(),
            });
        }
        let n = queries.len();
        let mut counters = QueryCounters::default();
        if n == 0 {
            return Ok(QueryResponse {
                neighbors: NeighborTable::new(),
                counters,
                wall_seconds: t0.elapsed().as_secs_f64(),
                remote: Some(RemoteStats::default()),
                breakdown: Some(QueryBreakdown::default()),
            });
        }
        self.rounds.inc();
        self.queries_total.add(n as u64);
        // Front-end routing: the same stage-1 ownership decision as the
        // SPMD engine, but the "exchange" is the scatter over channels.
        let scatter_start = Instant::now();
        let mut coords: Vec<Vec<f32>> = vec![Vec::new(); self.n_shards];
        let mut qids: Vec<Vec<u64>> = vec![Vec::new(); self.n_shards];
        for i in 0..n {
            let q = queries.point(i);
            let owner = self.global.owner(q, &mut counters);
            coords[owner].extend_from_slice(q);
            qids[owner].push(i as u64);
        }
        let outs = self.run_knn_round(
            coords,
            qids,
            PipelineParams::of(req),
            req.trace(),
            scatter_start,
        )?;

        // Gather: scatter each shard's CSR slice back to submission order.
        let mut row_counts = vec![0u32; n];
        let mut breakdown = QueryBreakdown::default();
        let mut remote = RemoteStats::default();
        for out in &outs {
            debug_assert_eq!(out.qids.len(), out.counts.len());
            for (&qid, &cnt) in out.qids.iter().zip(&out.counts) {
                row_counts[qid as usize] = cnt;
            }
        }
        let mut table = NeighborTable::with_row_counts(&row_counts)?;
        for out in outs {
            let mut cur = 0usize;
            for (&qid, &cnt) in out.qids.iter().zip(&out.counts) {
                let cnt = cnt as usize;
                table
                    .row_mut(qid as usize)
                    .copy_from_slice(&out.arena[cur..cur + cnt]);
                cur += cnt;
            }
            debug_assert_eq!(cur, out.arena.len());
            breakdown.add(&out.breakdown);
            counters.add(&out.counters);
            remote.add(&out.remote);
        }
        Ok(QueryResponse {
            neighbors: table,
            counters,
            // Wall time is the front end's real elapsed time; the
            // breakdown aggregates the shards' *virtual* pipeline time
            // (find_owner stays 0 — routing happens here, not in a
            // worker).
            wall_seconds: t0.elapsed().as_secs_f64(),
            remote: Some(remote),
            breakdown: Some(breakdown),
        })
    }

    fn name(&self) -> &'static str {
        "panda-sharded"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn shard_count(&self) -> usize {
        self.n_shards
    }

    fn registry(&self) -> Option<Registry> {
        Some(self.registry.clone())
    }
}

/// Worker thread body: collective build, publish the init result, then
/// serve jobs until shutdown.
#[allow(clippy::too_many_arguments)] // spawn-time wiring, called once
fn worker_entry(
    mut comm: Comm,
    mine: PointSet,
    cfg: DistConfig,
    shard: usize,
    job_rx: Receiver<ShardJob>,
    reply_tx: Sender<ShardReply>,
    init_tx: Sender<(usize, Result<Option<GlobalKdTree>>)>,
    restarts: Counter,
    meter: CommMeter,
) {
    // The collective build either works everywhere or panics/errs
    // everywhere (a dead peer surfaces as a timeout panic here).
    let built = std::panic::catch_unwind(AssertUnwindSafe(|| {
        build_distributed(&mut comm, mine, &cfg)
    }));
    let tree = match built {
        Ok(Ok(tree)) => {
            // Shard 0 publishes the routing tree (identical on every
            // shard — the build is deterministic and collective).
            let g = (shard == 0).then(|| tree.global.clone());
            let _ = init_tx.send((shard, Ok(g)));
            tree
        }
        Ok(Err(e)) => {
            let _ = init_tx.send((shard, Err(e)));
            return;
        }
        Err(panic) => {
            let _ = init_tx.send((
                shard,
                Err(PandaError::BackendPanicked(format!(
                    "shard {shard} build: {}",
                    panic_message(panic.as_ref())
                ))),
            ));
            return;
        }
    };
    drop(init_tx);
    worker_loop(
        &mut comm, &tree, shard, &job_rx, &reply_tx, &restarts, meter,
    );
}

/// Serve jobs forever. A panic inside a job is the supervised failure
/// mode: the round resolves with a typed error, the restart counter
/// advances, and after a bounded back-off the worker keeps serving — the
/// loop iteration *is* the restart.
#[allow(clippy::too_many_arguments)] // spawn-time wiring, called once
fn worker_loop(
    comm: &mut Comm,
    tree: &DistKdTree,
    shard: usize,
    job_rx: &Receiver<ShardJob>,
    reply_tx: &Sender<ShardReply>,
    restarts: &Counter,
    mut meter: CommMeter,
) {
    let mut ws = QueryWorkspace::new();
    let mut consecutive_panics = 0u32;
    loop {
        let job = match job_rx.recv() {
            Ok(job) => job,
            Err(_) => return, // front handle dropped
        };
        let body = match job {
            ShardJob::Shutdown => return,
            ShardJob::Quiesce { epoch } => {
                comm.quiesce(epoch);
                meter.publish(&comm.stats());
                ShardReply::Quiesced
            }
            ShardJob::Knn {
                coords,
                qids,
                params,
                trace: trace_id,
            } => {
                let t0 = Instant::now();
                let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    faultpoint::maybe_fail_ctx(points::SHARD_WORKER_QUERY, shard as u64)?;
                    owned_pipeline(comm, tree, Owned { coords, qids }, &params)
                }));
                trace::record(trace_id, Stage::ShardWorker, t0);
                meter.publish(&comm.stats());
                match res {
                    Ok(res) => {
                        if res.is_ok() {
                            consecutive_panics = 0;
                        }
                        ShardReply::Knn(res)
                    }
                    Err(panic) => ShardReply::Knn(Err(supervise_panic(
                        shard,
                        &panic,
                        restarts,
                        &mut consecutive_panics,
                    ))),
                }
            }
            ShardJob::Radius { coords, qids, r_sq } => {
                let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run_radius_job(tree, shard, &coords, &qids, r_sq, &mut ws)
                }));
                match res {
                    Ok(res) => {
                        if res.is_ok() {
                            consecutive_panics = 0;
                        }
                        ShardReply::Radius(res)
                    }
                    Err(panic) => ShardReply::Radius(Err(supervise_panic(
                        shard,
                        &panic,
                        restarts,
                        &mut consecutive_panics,
                    ))),
                }
            }
        };
        if reply_tx.send(body).is_err() {
            return; // front handle dropped mid-round
        }
    }
}

/// Record a worker panic: typed error for the in-flight round, restart
/// accounting, bounded exponential back-off before the next job.
fn supervise_panic(
    shard: usize,
    panic: &(dyn std::any::Any + Send),
    restarts: &Counter,
    consecutive: &mut u32,
) -> PandaError {
    restarts.inc();
    let backoff = restart_backoff(*consecutive);
    *consecutive = consecutive.saturating_add(1);
    std::thread::sleep(backoff);
    PandaError::BackendPanicked(format!(
        "shard {shard} panicked mid-batch: {}",
        panic_message(panic)
    ))
}

fn run_radius_job(
    tree: &DistKdTree,
    shard: usize,
    coords: &[f32],
    qids: &[u64],
    r_sq: f32,
    ws: &mut QueryWorkspace,
) -> Result<RadiusSlice> {
    faultpoint::maybe_fail_ctx(points::SHARD_WORKER_RADIUS, shard as u64)?;
    let dims = tree.global.dims();
    let mut counters = QueryCounters::default();
    let mut counts = Vec::with_capacity(qids.len());
    let mut arena = Vec::new();
    for (i, _) in qids.iter().enumerate() {
        let q = &coords[i * dims..(i + 1) * dims];
        let start = arena.len();
        tree.local
            .radius_into(q, r_sq, &mut arena, ws, &mut counters);
        counts.push((arena.len() - start) as u32);
    }
    Ok(RadiusSlice {
        qids: qids.to_vec(),
        counts,
        arena,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::knn::KnnIndex;
    use crate::rng::SplitRng;

    fn random_ps(n: usize, dims: usize, seed: u64) -> PointSet {
        let mut rng = SplitRng::new(seed);
        PointSet::from_coords(
            dims,
            (0..n * dims)
                .map(|_| (rng.next_f64() * 10.0) as f32)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn sharded_index_is_send_and_sync() {
        fn pin<T: Send + Sync>() {}
        pin::<ShardedIndex>();
    }

    #[test]
    fn sharded_matches_local_index_through_the_trait() {
        let all = random_ps(1500, 3, 40);
        let queries = random_ps(48, 3, 41);
        let expect = {
            let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
            local
                .query_session(&QueryRequest::knn(&queries, 5))
                .unwrap()
                .neighbors
        };
        let idx = ShardedIndex::build(&all, 4, &DistConfig::default()).unwrap();
        assert_eq!(idx.name(), "panda-sharded");
        assert_eq!(idx.dims(), 3);
        assert_eq!(idx.len(), 1500);
        assert_eq!(idx.shards(), 4);
        let backend: &dyn NnBackend = &idx;
        let res = backend.query(&QueryRequest::knn(&queries, 5)).unwrap();
        assert!(res.remote.is_some(), "sharded responses carry stats");
        assert!(res.breakdown.is_some());
        assert_eq!(res.neighbors, expect, "bit-identical to single-shard");
        assert_eq!(res.remote.unwrap().owned_queries, 48);
        assert_eq!(idx.shard_restarts(), 0);
    }

    #[test]
    fn registry_carries_shard_and_comm_metrics() {
        let all = random_ps(600, 3, 70);
        let queries = random_ps(24, 3, 71);
        let idx = ShardedIndex::build(&all, 2, &DistConfig::default()).unwrap();
        idx.query(&QueryRequest::knn(&queries, 3)).unwrap();
        idx.query(&QueryRequest::knn(&queries, 3)).unwrap();
        let snap = (&idx as &dyn NnBackend).registry().unwrap().snapshot();
        assert_eq!(snap.counter("shard.rounds"), Some(2));
        assert_eq!(snap.counter("shard.queries"), Some(48));
        assert_eq!(snap.counter("shard.restarts"), Some(0));
        assert!(
            snap.counter("comm.collectives").unwrap_or(0) > 0,
            "workers published collective traffic: {snap:?}"
        );
    }

    #[test]
    fn single_shard_cluster_works() {
        let all = random_ps(300, 2, 50);
        let queries = random_ps(20, 2, 51);
        let idx = ShardedIndex::build(&all, 1, &DistConfig::default()).unwrap();
        let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
        let a = idx.query(&QueryRequest::knn(&queries, 7)).unwrap();
        let b = local
            .query_session(&QueryRequest::knn(&queries, 7))
            .unwrap();
        assert_eq!(a.neighbors, b.neighbors);
    }

    #[test]
    fn repeated_rounds_reuse_the_workers() {
        let all = random_ps(600, 3, 52);
        let idx = ShardedIndex::build(&all, 3, &DistConfig::default()).unwrap();
        for seed in 0..4 {
            let queries = random_ps(15, 3, 60 + seed);
            let res = idx.query(&QueryRequest::knn(&queries, 3)).unwrap();
            assert_eq!(res.neighbors.len(), 15);
        }
    }

    #[test]
    fn trait_build_is_rejected_without_a_shard_count() {
        let ps = random_ps(10, 2, 42);
        let err = <ShardedIndex as NnBackend>::build(&ps, &TreeConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn zero_shards_rejected() {
        let ps = random_ps(10, 2, 43);
        let err = ShardedIndex::build(&ps, 0, &DistConfig::default());
        assert!(matches!(err, Err(PandaError::BadConfig(_))));
    }

    #[test]
    fn radius_request_limits_results() {
        let all = random_ps(800, 2, 43);
        let queries = random_ps(10, 2, 44);
        let idx = ShardedIndex::build(&all, 2, &DistConfig::default()).unwrap();
        let res = idx
            .query(&QueryRequest::knn(&queries, 8).with_radius(0.5))
            .unwrap();
        assert!(
            res.neighbors
                .iter()
                .flat_map(|row| row.iter().map(|n| n.dist_sq))
                .all(|d| d < 0.25),
            "0.5² bound"
        );
    }

    #[test]
    fn radius_all_matches_single_shard() {
        let all = random_ps(700, 3, 45);
        let queries = random_ps(12, 3, 46);
        let idx = ShardedIndex::build(&all, 3, &DistConfig::default()).unwrap();
        let got = idx.query_radius_all(&queries, 1.5).unwrap();
        let local = KnnIndex::build(&all, &TreeConfig::default()).unwrap();
        for i in 0..queries.len() {
            let want = local
                .tree()
                .query_radius_all(queries.point(i), 1.5)
                .unwrap();
            assert_eq!(got.row(i), &want[..], "query {i}");
        }
        assert!(matches!(
            idx.query_radius_all(&queries, f32::INFINITY),
            Err(PandaError::BadRadius { .. })
        ));
    }

    #[test]
    fn empty_query_set_is_fine() {
        let all = random_ps(100, 3, 47);
        let idx = ShardedIndex::build(&all, 2, &DistConfig::default()).unwrap();
        let queries = PointSet::new(3).unwrap();
        let res = idx.query(&QueryRequest::knn(&queries, 3)).unwrap();
        assert_eq!(res.neighbors.len(), 0);
    }

    #[test]
    fn dims_mismatch_rejected() {
        let all = random_ps(100, 3, 48);
        let idx = ShardedIndex::build(&all, 2, &DistConfig::default()).unwrap();
        let queries = random_ps(4, 2, 49);
        let err = idx.query(&QueryRequest::knn(&queries, 3));
        assert!(matches!(err, Err(PandaError::DimsMismatch { .. })));
    }
}
