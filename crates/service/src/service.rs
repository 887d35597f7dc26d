//! The service proper: bounded submission queue, supervised scheduler
//! thread, micro-batch assembly with deadline/cancellation shedding,
//! and zero-copy scatter-back.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use panda_core::engine::{NnBackend, QueryRequest, QueryResponse};
use panda_core::supervise::{panic_message, restart_backoff};
use panda_core::{
    faultpoint, BoundMode, NeighborTable, PandaError, PointSet, QueryCounters, QueryOrder, Result,
};
use panda_obs::trace::{self, Stage};
use panda_obs::{Snapshot, TraceId};

use crate::config::{OverflowPolicy, ServiceConfig};
use crate::metrics::{Metrics, ServiceStats};
use crate::ticket::{Ticket, TicketReply, TicketShared, WakeHub};

/// A scheduler incarnation that survives this long resets the
/// consecutive-panic count (the fault was transient, not systemic).
const RESTART_HEALTHY_RESET: Duration = Duration::from_secs(5);

/// Requests can only be coalesced into one engine batch when they agree
/// on everything that changes answers: `k`, the radius limit, and the
/// traversal bound mode. Submissions with distinct keys flush as
/// separate batches of the same drain cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BatchKey {
    k: usize,
    radius_bits: Option<u32>,
    bound_mode: BoundMode,
}

/// One queued submission: owned coordinates plus the ticket to resolve.
struct Pending {
    coords: Vec<f32>,
    n_queries: usize,
    key: BatchKey,
    ticket: Arc<TicketShared>,
    enqueued_at: Instant,
    /// Relative deadline from `QueryRequest::with_deadline`: if the
    /// submission is still queued when `enqueued_at + deadline` passes,
    /// the scheduler sheds it at flush time instead of executing it.
    deadline: Option<Duration>,
    /// Sampled pipeline trace id minted at submit ([`TraceId::NONE`] for
    /// the unsampled majority).
    trace: TraceId,
}

/// Queue state guarded by the service mutex.
struct QueueState {
    pending: Vec<Pending>,
    /// Total query points across `pending`.
    queued_queries: usize,
    /// Submissions taken by the scheduler but not yet resolved.
    in_flight: usize,
    /// Tickets of the batch currently executing, registered before the
    /// state lock is released so a panicking scheduler iteration leaves
    /// the supervisor enough to resolve every stranded client.
    in_flight_tickets: Vec<Arc<TicketShared>>,
    /// Drain callers currently waiting (forces immediate flushes).
    drain_waiters: usize,
    stopped: bool,
}

struct ServiceInner {
    backend: Arc<dyn NnBackend + Send + Sync>,
    cfg: ServiceConfig,
    dims: usize,
    state: Mutex<QueueState>,
    /// Scheduler wake-up: new work, a drain, or shutdown.
    not_empty: Condvar,
    /// Blocked submitters wake-up: queue space freed (or shutdown).
    space: Condvar,
    /// Drain wake-up: queue empty and nothing in flight.
    idle: Condvar,
    /// Ticket wake-up: one broadcast per resolved micro-batch.
    wake: Arc<WakeHub>,
    metrics: Metrics,
}

impl ServiceInner {
    /// Poison-tolerant state lock: a panicking scheduler iteration must
    /// degrade the service, not brick it. The supervisor restores the
    /// queue invariants in `repair_after_panic` before anyone relies on
    /// them again.
    fn state_lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn submit(&self, req: &QueryRequest<'_>) -> Result<Ticket> {
        req.validate()?;
        let queries = req.queries();
        if queries.dims() != self.dims {
            return Err(PandaError::DimsMismatch {
                expected: self.dims,
                got: queries.dims(),
            });
        }
        let n = queries.len();
        if n == 0 {
            // Nothing to schedule: resolve immediately with an empty
            // slice of an empty response.
            self.metrics.submitted.inc();
            let empty = Arc::new(QueryResponse::local(
                NeighborTable::new(),
                QueryCounters::default(),
                0.0,
            ));
            return Ok(Ticket {
                shared: TicketShared::resolved(
                    Arc::clone(&self.wake),
                    Ok(TicketReply::new(empty, 0, 0)),
                ),
            });
        }
        if n > self.cfg.queue_capacity {
            return Err(PandaError::BadConfig(format!(
                "one submission of {n} queries exceeds the queue capacity {}; \
                 split it or raise the capacity",
                self.cfg.queue_capacity
            )));
        }
        let key = BatchKey {
            k: req.k(),
            radius_bits: req.radius().map(f32::to_bits),
            bound_mode: req.bound_mode(),
        };
        // Pipeline trace id: NONE unless this submission wins the 1-in-N
        // sampling lottery (a single relaxed load when disarmed). A
        // request-carried id (e.g. from an upstream tier) takes priority.
        let trace_id = if req.trace().is_sampled() {
            req.trace()
        } else {
            trace::maybe_sample()
        };
        let ticket = TicketShared::pending(Arc::clone(&self.wake));
        // Stamped before any capacity wait, so the latency histogram
        // reflects what the client observed — including time parked on
        // a full queue under the Block policy. The deadline clock starts
        // here too: time spent blocked on a full queue counts against it.
        let enqueued_at = Instant::now();
        // Copied outside the state lock: the memcpy of a large
        // submission must not serialize other submitters/the scheduler.
        let coords = queries.coords().to_vec();
        let wake_scheduler;
        {
            let mut st = self.state_lock();
            loop {
                if st.stopped {
                    return Err(PandaError::ServiceStopped);
                }
                if st.queued_queries + n <= self.cfg.queue_capacity {
                    break;
                }
                match self.cfg.overflow {
                    OverflowPolicy::Reject => {
                        self.metrics.rejected.inc();
                        return Err(PandaError::Overloaded {
                            depth: st.queued_queries,
                            capacity: self.cfg.queue_capacity,
                        });
                    }
                    OverflowPolicy::Block => {
                        st = self.space.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
            st.pending.push(Pending {
                coords,
                n_queries: n,
                key,
                ticket: Arc::clone(&ticket),
                enqueued_at,
                deadline: req.deadline(),
                trace: trace_id,
            });
            st.queued_queries += n;
            self.metrics.submitted.inc();
            self.metrics.queries.add(n as u64);
            self.metrics.set_queue_depth(st.queued_queries);
            // Wake the scheduler only when this submission changes what
            // it is waiting for: the queue just became non-empty (a new
            // deadline exists) or the size trigger fired. Intermediate
            // submissions leave the deadline untouched — waking the
            // scheduler for each one is a context-switch per request.
            wake_scheduler = st.pending.len() == 1 || st.queued_queries >= self.cfg.max_batch;
        }
        if wake_scheduler {
            self.not_empty.notify_one();
        }
        Ok(Ticket { shared: ticket })
    }

    /// Block until every queued and in-flight submission has resolved.
    fn drain(&self) {
        let mut st = self.state_lock();
        if st.pending.is_empty() && st.in_flight == 0 {
            return;
        }
        st.drain_waiters += 1;
        self.not_empty.notify_one();
        while !(st.pending.is_empty() && st.in_flight == 0) {
            st = self.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.drain_waiters -= 1;
    }

    fn stop(&self) {
        let mut st = self.state_lock();
        st.stopped = true;
        drop(st);
        self.not_empty.notify_all();
        self.space.notify_all();
    }

    /// Resolve one submission and record its end-to-end latency. The
    /// waiter is *not* woken here — callers broadcast once per drain
    /// cycle. A client that already walked away (dropped its ticket
    /// while pending) is counted as abandoned.
    fn resolve(&self, pending: Pending, result: Result<TicketReply>) {
        self.metrics.record_latency(pending.enqueued_at.elapsed());
        pending.ticket.resolve(result);
        if pending.ticket.is_abandoned() {
            self.metrics.abandoned.inc();
        }
    }

    /// Resolve a submission that was shed before execution (cancelled or
    /// past its deadline), bumping the matching counter.
    fn resolve_shed(&self, pending: Pending, err: PandaError) {
        match &err {
            PandaError::Cancelled => {
                self.metrics.cancelled.inc();
            }
            PandaError::DeadlineExceeded { .. } => {
                self.metrics.deadline_exceeded.inc();
            }
            _ => {}
        }
        self.resolve(pending, Err(err));
    }

    /// Group one drained queue by [`BatchKey`] (stable order) and run
    /// each group as a single coalesced engine batch. Each group's
    /// clients are woken with one broadcast as soon as *their* group
    /// resolves — a fast group must not sleep through a slow group's
    /// backend execution.
    fn execute(&self, taken: Vec<Pending>) {
        // Chaos hook on the drain path. `Fail`/`Timeout` degrade the
        // whole flush to typed errors (clients see them, the service
        // keeps serving); `Panic` escapes to the supervisor, which
        // resolves these tickets via the in-flight registry.
        if let Err(e) = faultpoint::maybe_fail(faultpoint::points::SERVICE_DRAIN) {
            for m in taken {
                self.resolve(m, Err(e.clone()));
            }
            self.wake.wake_all();
            return;
        }
        let mut groups: Vec<(BatchKey, Vec<Pending>)> = Vec::new();
        for p in taken {
            match groups.iter_mut().find(|(k, _)| *k == p.key) {
                Some((_, members)) => members.push(p),
                None => groups.push((p.key, vec![p])),
            }
        }
        for (key, members) in groups {
            self.execute_group(key, members);
            self.wake.wake_all();
        }
    }

    fn execute_group(&self, key: BatchKey, members: Vec<Pending>) {
        let total: usize = members.iter().map(|m| m.n_queries).sum();
        // Queue span closes for every sampled member the moment its
        // group starts assembling; the whole coalesced batch then rides
        // the first sampled member's id through the backend.
        let flush_start = Instant::now();
        let batch_trace = members
            .iter()
            .map(|m| m.trace)
            .find(|t| t.is_sampled())
            .unwrap_or(TraceId::NONE);
        for m in &members {
            trace::record_between(m.trace, Stage::Queue, m.enqueued_at, flush_start);
        }
        let mut coords = Vec::with_capacity(total * self.dims);
        for m in &members {
            coords.extend_from_slice(&m.coords);
        }
        let points = match PointSet::from_coords(self.dims, coords) {
            Ok(p) => p,
            Err(e) => {
                for m in members {
                    self.resolve(m, Err(e.clone()));
                }
                return;
            }
        };
        let mut req = QueryRequest::knn(&points, key.k)
            .with_order(QueryOrder::Morton)
            .with_bound_mode(key.bound_mode)
            .with_trace(batch_trace);
        if let Some(bits) = key.radius_bits {
            req = req.with_radius(f32::from_bits(bits));
        }
        self.metrics.record_batch(total);
        // Flush span: coords assembly + request construction.
        trace::record(batch_trace, Stage::Flush, flush_start);
        // A panicking backend must not strand tickets in Pending —
        // clients blocked in `wait` would hang forever. Catch, resolve
        // everyone with an error, and let the scheduler keep serving.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.backend.query(&req)));
        match outcome {
            Ok(Ok(response)) => {
                let shared = Arc::new(response);
                let resolve_start = Instant::now();
                let mut row = 0u32;
                for m in members {
                    let n = m.n_queries as u32;
                    let reply = TicketReply::new(Arc::clone(&shared), row, n);
                    row += n;
                    let member_trace = m.trace;
                    self.resolve(m, Ok(reply));
                    trace::record(member_trace, Stage::Resolve, resolve_start);
                }
            }
            Ok(Err(e)) => {
                for m in members {
                    self.resolve(m, Err(e.clone()));
                }
            }
            Err(panic) => {
                let msg = panic_message(&*panic);
                for m in members {
                    self.resolve(m, Err(PandaError::BackendPanicked(msg.clone())));
                }
            }
        }
    }

    /// Post-panic repair, run by the supervisor before restarting the
    /// scheduler: resolve every ticket the dead incarnation had in
    /// flight with [`PandaError::BackendPanicked`], rebuild the queue
    /// accounting from what is still pending, and release anyone blocked
    /// on queue space or idleness.
    fn repair_after_panic(&self, msg: &str) {
        let stranded: Vec<Arc<TicketShared>>;
        {
            let mut st = self.state_lock();
            stranded = std::mem::take(&mut st.in_flight_tickets);
            st.in_flight = 0;
            st.queued_queries = st.pending.iter().map(|p| p.n_queries).sum();
            self.metrics.set_queue_depth(st.queued_queries);
            if st.pending.is_empty() {
                self.idle.notify_all();
            }
        }
        self.space.notify_all();
        let mut resolved_any = false;
        for ticket in stranded {
            // Anything the dying iteration already resolved stays as it
            // was; only still-pending tickets get the panic error.
            if !ticket.is_done() {
                ticket.resolve(Err(PandaError::BackendPanicked(format!(
                    "scheduler panicked mid-batch: {msg}"
                ))));
                if ticket.is_abandoned() {
                    self.metrics.abandoned.inc();
                }
                resolved_any = true;
            }
        }
        if resolved_any {
            self.wake.wake_all();
        }
    }

    /// One coherent telemetry snapshot for the whole stack: the
    /// service's own registry, the backend's registry when it keeps one
    /// (shard/comm/store metrics), and the process-lifetime fault-point
    /// trip counts as `fault.<point>.fired` counters.
    fn telemetry(&self) -> Snapshot {
        let mut snap = self.metrics.registry.snapshot();
        if let Some(reg) = self.backend.registry() {
            snap.merge(&reg.snapshot());
        }
        for (point, n) in faultpoint::fired_counts() {
            snap.push_counter(&format!("fault.{point}.fired"), n);
        }
        snap
    }
}

fn scheduler_loop(inner: &ServiceInner) {
    loop {
        let taken: Vec<Pending>;
        let shed: Vec<(Pending, PandaError)>;
        {
            let mut st = inner.state_lock();
            loop {
                if st.pending.is_empty() {
                    if st.stopped {
                        return;
                    }
                    st = inner
                        .not_empty
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                // Flush triggers: size, shutdown/drain pressure, or the
                // oldest submission's batching delay.
                if st.stopped || st.drain_waiters > 0 || st.queued_queries >= inner.cfg.max_batch {
                    break;
                }
                let waited = st.pending[0].enqueued_at.elapsed();
                if waited >= inner.cfg.max_delay {
                    break;
                }
                let remaining = inner.cfg.max_delay - waited;
                let (guard, _timeout) = inner
                    .not_empty
                    .wait_timeout(st, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
            // Shed before assembling the batch: cancelled submissions
            // and ones whose request deadline already expired give their
            // queue slots back here instead of wasting backend work.
            // (Resolved outside the lock, below.)
            let mut shed_acc: Vec<(Pending, PandaError)> = Vec::new();
            let mut i = 0;
            while i < st.pending.len() {
                if st.pending[i].ticket.is_cancelled() {
                    let p = st.pending.remove(i);
                    st.queued_queries -= p.n_queries;
                    shed_acc.push((p, PandaError::Cancelled));
                    continue;
                }
                if let Some(deadline) = st.pending[i].deadline {
                    let waited = st.pending[i].enqueued_at.elapsed();
                    if waited >= deadline {
                        let p = st.pending.remove(i);
                        st.queued_queries -= p.n_queries;
                        shed_acc.push((p, PandaError::DeadlineExceeded { deadline, waited }));
                        continue;
                    }
                }
                i += 1;
            }
            shed = shed_acc;
            // `max_batch` is a cap as well as a trigger: dispatch whole
            // submissions until the next one would overflow it (always
            // at least one, so an oversized multi-query submission still
            // flows). Anything left stays queued — its head is already
            // past its deadline, so the next cycle flushes immediately.
            let mut take_n = 0usize;
            let mut take_q = 0usize;
            for p in &st.pending {
                if take_n > 0 && take_q + p.n_queries > inner.cfg.max_batch {
                    break;
                }
                take_q += p.n_queries;
                take_n += 1;
            }
            taken = st.pending.drain(..take_n).collect();
            st.queued_queries -= take_q;
            st.in_flight += take_n;
            // Register the batch's tickets while still holding the lock:
            // if this iteration panics mid-execute, the supervisor finds
            // them here and resolves every stranded client.
            st.in_flight_tickets = taken.iter().map(|p| Arc::clone(&p.ticket)).collect();
            inner.metrics.set_queue_depth(st.queued_queries);
            if taken.is_empty() && st.pending.is_empty() && st.in_flight == 0 {
                // Everything queued was shed; drain waiters are idle.
                inner.idle.notify_all();
            }
        }
        // Queue space freed: wake any blocked submitters before the
        // (possibly long) batch execution.
        inner.space.notify_all();
        if !shed.is_empty() {
            for (p, e) in shed {
                inner.resolve_shed(p, e);
            }
            inner.wake.wake_all();
        }
        if taken.is_empty() {
            continue;
        }
        let n_taken = taken.len();
        inner.execute(taken);
        {
            let mut st = inner.state_lock();
            st.in_flight -= n_taken;
            st.in_flight_tickets.clear();
            if st.in_flight == 0 && st.pending.is_empty() {
                inner.idle.notify_all();
            }
        }
    }
}

/// Supervised scheduler entry point: run [`scheduler_loop`]; when a
/// panic escapes it (an injected fault, or a bug outside the backend
/// `catch_unwind`), repair the queue state, resolve stranded tickets,
/// and restart the loop after a bounded exponential backoff. A clean
/// return (shutdown) ends supervision. The service therefore keeps
/// accepting and serving work across scheduler crashes instead of
/// silently dying with clients blocked forever.
fn supervisor_loop(inner: &ServiceInner) {
    let mut consecutive = 0u32;
    loop {
        let started = Instant::now();
        match std::panic::catch_unwind(AssertUnwindSafe(|| scheduler_loop(inner))) {
            Ok(()) => return,
            Err(panic) => {
                let msg = panic_message(&*panic);
                inner.metrics.scheduler_restarts.inc();
                inner.repair_after_panic(&msg);
                if started.elapsed() >= RESTART_HEALTHY_RESET {
                    consecutive = 0;
                }
                let backoff = restart_backoff(consecutive);
                consecutive = consecutive.saturating_add(1);
                // Restart even when stopped: a shutdown-concurrent panic
                // still leaves queued submissions to flush, and the loop
                // exits cleanly once the queue is empty. Progress is
                // guaranteed — every incarnation takes at least one
                // submission out of the queue.
                std::thread::sleep(backoff);
            }
        }
    }
}

/// A cheap clonable submission handle onto a [`QueryService`].
///
/// Handles share the service's queue and scheduler; clone one per
/// client thread. Handles do not keep the service alive — once the
/// owning [`QueryService`] is shut down (or dropped), `submit` returns
/// [`PandaError::ServiceStopped`].
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<ServiceInner>,
}

impl ServiceHandle {
    /// Queue a batch of queries described by `req`; returns immediately
    /// with a [`Ticket`] unless the bounded queue is full (then the
    /// configured [`OverflowPolicy`] applies). The request's `k`,
    /// radius, and bound mode are honored; its order/parallel knobs are
    /// ignored here: every coalesced batch runs in Morton order with the
    /// backend's own parallelism.
    pub fn submit(&self, req: &QueryRequest<'_>) -> Result<Ticket> {
        self.inner.submit(req)
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.metrics.snapshot()
    }

    /// One coherent [`Snapshot`] across the whole stack — service
    /// counters, the backend's shard/comm/store metrics (when it keeps a
    /// registry), and fault-point trip counts. Feed it to
    /// [`panda_obs::render_prometheus`] or [`panda_obs::render_json`].
    pub fn telemetry(&self) -> Snapshot {
        self.inner.telemetry()
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("backend", &self.inner.backend.name())
            .finish()
    }
}

/// An in-process concurrent query service over one thread-safe
/// [`NnBackend`].
///
/// See the crate docs for the execution model; in short: `submit`
/// enqueues, a dedicated scheduler coalesces the queue into
/// Morton-ordered micro-batches (flushing on size *or* deadline),
/// batches execute on the persistent worker pool, and each client's
/// ticket resolves to a zero-copy slice of the shared batch response.
pub struct QueryService {
    inner: Arc<ServiceInner>,
    scheduler: Option<std::thread::JoinHandle<()>>,
}

impl QueryService {
    /// Start a service over `backend`. Validates `cfg` and spawns the
    /// scheduler thread.
    pub fn new(backend: Arc<dyn NnBackend + Send + Sync>, cfg: ServiceConfig) -> Result<Self> {
        cfg.validate()?;
        let dims = backend.dims();
        let inner = Arc::new(ServiceInner {
            backend,
            cfg,
            dims,
            state: Mutex::new(QueueState {
                pending: Vec::new(),
                queued_queries: 0,
                in_flight: 0,
                in_flight_tickets: Vec::new(),
                drain_waiters: 0,
                stopped: false,
            }),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            wake: WakeHub::new(),
            metrics: Metrics::default(),
        });
        let scheduler = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("panda-service".into())
                .spawn(move || supervisor_loop(&inner))
                .map_err(|e| PandaError::BadConfig(format!("spawn scheduler: {e}")))?
        };
        Ok(Self {
            inner,
            scheduler: Some(scheduler),
        })
    }

    /// A clonable submission handle (one per client thread).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Submit directly on the service (same as going through a handle).
    pub fn submit(&self, req: &QueryRequest<'_>) -> Result<Ticket> {
        self.inner.submit(req)
    }

    /// Block until every queued and in-flight submission has resolved
    /// (their tickets are ready). New submissions remain welcome; this
    /// only flushes what was accepted before and during the call.
    pub fn drain(&self) {
        self.inner.drain();
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.metrics.snapshot()
    }

    /// One coherent [`Snapshot`] across the whole stack (see
    /// [`ServiceHandle::telemetry`]).
    pub fn telemetry(&self) -> Snapshot {
        self.inner.telemetry()
    }

    /// The backend's stable name (e.g. `"panda-local"`).
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend.name()
    }

    /// Graceful shutdown: stop accepting submissions, flush everything
    /// already queued (all outstanding tickets resolve), and join the
    /// scheduler thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.inner.stop();
        if let Some(handle) = self.scheduler.take() {
            // The supervisor absorbs scheduler panics (restarting after
            // repair), so a normal join returns once the queue is
            // flushed; `let _` only guards against panics in the
            // supervisor itself.
            let _ = handle.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state_lock();
        f.debug_struct("QueryService")
            .field("backend", &self.inner.backend.name())
            .field("queued_queries", &st.queued_queries)
            .field("in_flight", &st.in_flight)
            .field("stopped", &st.stopped)
            .finish()
    }
}
