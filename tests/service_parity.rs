//! End-to-end tests of the concurrent query service.
//!
//! The load-bearing claim: coalescing many clients' interleaved singles
//! into Morton-ordered micro-batches is a pure locality play — every
//! client gets **bit-identical** neighbors to a direct `query_session`
//! call over the same points. Plus the lifecycle contracts: `drain`
//! resolves everything, shutdown is graceful, and the bounded queue
//! rejects (or blocks) exactly as configured.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use panda::core::rng::SplitRng;
use panda::prelude::*;

fn random_ps(n: usize, dims: usize, seed: u64) -> PointSet {
    let mut rng = SplitRng::new(seed);
    PointSet::from_coords(
        dims,
        (0..n * dims)
            .map(|_| (rng.next_f64() * 100.0) as f32)
            .collect(),
    )
    .unwrap()
}

fn rows(reply: &TicketReply) -> Vec<Vec<(f32, u64)>> {
    reply
        .iter()
        .map(|row| row.iter().map(|n| (n.dist_sq, n.id)).collect())
        .collect()
}

/// N concurrent client threads submitting interleaved singles produce
/// bit-identical neighbors to one direct `query_session` batch over the
/// same queries.
#[test]
fn concurrent_singles_match_one_direct_batch() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;
    let points = random_ps(4000, 3, 1);
    let queries = random_ps(CLIENTS * PER_CLIENT, 3, 2);
    let k = 5;

    let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default()).unwrap());
    let direct = index
        .query_session(&QueryRequest::knn(&queries, k))
        .unwrap();

    let service = QueryService::new(
        index,
        ServiceConfig::default()
            .with_max_batch(32)
            .with_max_delay(Duration::from_millis(1)),
    )
    .unwrap();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = service.handle();
            // client c owns query slots c*PER_CLIENT .. (c+1)*PER_CLIENT
            let mine: Vec<Vec<f32>> = (0..PER_CLIENT)
                .map(|i| queries.point(c * PER_CLIENT + i).to_vec())
                .collect();
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(PER_CLIENT);
                for q in mine {
                    let qs = PointSet::from_coords(3, q).unwrap();
                    let ticket = handle.submit(&QueryRequest::knn(&qs, k)).unwrap();
                    let reply = ticket.wait().unwrap();
                    assert_eq!(reply.len(), 1);
                    got.push(
                        reply
                            .row(0)
                            .iter()
                            .map(|n| (n.dist_sq, n.id))
                            .collect::<Vec<_>>(),
                    );
                }
                got
            })
        })
        .collect();

    for (c, w) in workers.into_iter().enumerate() {
        let got = w.join().unwrap();
        for (i, row) in got.iter().enumerate() {
            let want: Vec<(f32, u64)> = direct
                .neighbors
                .row(c * PER_CLIENT + i)
                .iter()
                .map(|n| (n.dist_sq, n.id))
                .collect();
            assert_eq!(row, &want, "client {c} query {i}");
        }
    }

    let stats = service.stats();
    assert_eq!(stats.queries, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.rejected, 0);
    // singles were actually coalesced, not executed one by one
    assert!(
        stats.batches < stats.submitted,
        "batches {} vs submissions {}",
        stats.batches,
        stats.submitted
    );
    assert!(stats.mean_batch_size() > 1.0);
    assert!(stats.p99_latency_seconds() >= stats.p50_latency_seconds());
    service.shutdown();
}

/// Multi-query submissions with heterogeneous request shapes (different
/// k, with/without radius): the scheduler may only coalesce compatible
/// requests, and every client's row slice must match a direct call.
#[test]
fn mixed_request_shapes_stay_exact() {
    let points = random_ps(3000, 2, 10);
    let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default()).unwrap());
    let service = QueryService::new(
        Arc::clone(&index) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            .with_max_batch(64)
            .with_max_delay(Duration::from_millis(1)),
    )
    .unwrap();

    let workers: Vec<_> = (0..6usize)
        .map(|c| {
            let handle = service.handle();
            let index = Arc::clone(&index);
            std::thread::spawn(move || {
                let qs = random_ps(7, 2, 100 + c as u64);
                let k = 3 + (c % 3); // 3, 4, 5
                let mut req = QueryRequest::knn(&qs, k);
                if c % 2 == 0 {
                    req = req.with_radius(25.0);
                }
                let reply = handle.submit(&req).unwrap().wait().unwrap();
                assert_eq!(reply.len(), qs.len());
                assert_eq!(reply.rows().len(), qs.len());
                let direct = index.query_session(&req).unwrap();
                let want: Vec<Vec<(f32, u64)>> = direct
                    .neighbors
                    .iter()
                    .map(|row| row.iter().map(|n| (n.dist_sq, n.id)).collect())
                    .collect();
                assert_eq!(rows(&reply), want, "client {c}");
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    service.shutdown();
}

/// `drain` resolves every queued ticket without shutting the service
/// down; submissions stay welcome afterwards.
#[test]
fn drain_resolves_all_outstanding_tickets() {
    let points = random_ps(500, 3, 20);
    let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default()).unwrap());
    // deadline far away and size trigger unreachable: only drain (or
    // shutdown) can flush
    let service = QueryService::new(
        index,
        ServiceConfig::default()
            .with_max_batch(10_000)
            .with_queue_capacity(10_000)
            .with_max_delay(Duration::from_secs(600)),
    )
    .unwrap();

    let qs = random_ps(40, 3, 21);
    let tickets: Vec<Ticket> = (0..qs.len())
        .map(|i| {
            let one = PointSet::from_coords(3, qs.point(i).to_vec()).unwrap();
            service.submit(&QueryRequest::knn(&one, 4)).unwrap()
        })
        .collect();
    assert!(
        tickets.iter().all(|t| !t.is_ready()),
        "deadline not hit yet"
    );

    service.drain();
    assert!(tickets.iter().all(Ticket::is_ready), "drain left a ticket");
    for (i, t) in tickets.into_iter().enumerate() {
        let reply = t.wait().unwrap();
        assert_eq!(reply.len(), 1);
        assert_eq!(reply.row(0).len(), 4, "query {i}");
    }
    let stats = service.stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.batches, 1, "one coalesced flush served everyone");

    // the service still accepts work after a drain
    let one = PointSet::from_coords(3, qs.point(0).to_vec()).unwrap();
    let t = service.submit(&QueryRequest::knn(&one, 2)).unwrap();
    service.drain();
    assert_eq!(t.wait().unwrap().row(0).len(), 2);
    service.shutdown();
}

/// Graceful shutdown: everything already queued resolves; later
/// submissions fail with `ServiceStopped`.
#[test]
fn shutdown_flushes_then_closes_intake() {
    let points = random_ps(400, 2, 30);
    let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default()).unwrap());
    let service = QueryService::new(
        index,
        ServiceConfig::default()
            .with_max_batch(1000)
            .with_queue_capacity(1000)
            .with_max_delay(Duration::from_secs(600)),
    )
    .unwrap();
    let handle = service.handle();

    let qs = random_ps(10, 2, 31);
    let tickets: Vec<Ticket> = (0..qs.len())
        .map(|i| {
            let one = PointSet::from_coords(2, qs.point(i).to_vec()).unwrap();
            handle.submit(&QueryRequest::knn(&one, 3)).unwrap()
        })
        .collect();

    service.shutdown();
    for t in tickets {
        assert!(t.is_ready());
        assert_eq!(t.wait().unwrap().row(0).len(), 3);
    }
    // the retained handle sees the closed service
    let one = PointSet::from_coords(2, qs.point(0).to_vec()).unwrap();
    assert!(matches!(
        handle.submit(&QueryRequest::knn(&one, 3)),
        Err(PandaError::ServiceStopped)
    ));
}

/// A backend whose queries block on a gate until the test opens it —
/// lets the tests hold the scheduler busy deterministically.
struct GatedBackend {
    inner: BruteForce,
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicBool,
}

impl GatedBackend {
    fn new(points: &PointSet) -> Self {
        Self {
            inner: BruteForce::new(points),
            open: Mutex::new(false),
            cv: Condvar::new(),
            entered: AtomicBool::new(false),
        }
    }

    fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Spin until a batch is inside `query` (bounded; panics after 5s).
    fn await_entry(&self) {
        for _ in 0..5000 {
            if self.entered.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("scheduler never reached the backend");
    }
}

impl NnBackend for GatedBackend {
    fn query(&self, req: &QueryRequest<'_>) -> panda::core::Result<QueryResponse> {
        self.entered.store(true, Ordering::Release);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        drop(open);
        NnBackend::query(&self.inner, req)
    }

    fn name(&self) -> &'static str {
        "gated-brute"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dims(&self) -> usize {
        NnBackend::dims(&self.inner)
    }
}

/// With the scheduler stuck in an in-flight batch and the queue full,
/// `Reject` fails fast with `Overloaded` — and the queued work still
/// completes once the backend recovers.
#[test]
fn reject_policy_returns_overloaded_when_full() {
    let points = random_ps(200, 2, 40);
    let backend = Arc::new(GatedBackend::new(&points));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            .with_max_batch(4)
            .with_queue_capacity(4)
            .with_max_delay(Duration::from_micros(50))
            .with_overflow(OverflowPolicy::Reject),
    )
    .unwrap();

    let one = |seed: u64| {
        let q = random_ps(1, 2, seed);
        PointSet::from_coords(2, q.point(0).to_vec()).unwrap()
    };
    // bait the scheduler into the gated backend …
    let bait = service.submit(&QueryRequest::knn(&one(41), 3)).unwrap();
    backend.await_entry();
    // … then fill the queue to capacity behind it
    let queued: Vec<Ticket> = (0..4)
        .map(|i| service.submit(&QueryRequest::knn(&one(50 + i), 3)).unwrap())
        .collect();
    // the queue is full and the scheduler cannot drain: fail fast
    let err = service.submit(&QueryRequest::knn(&one(60), 3)).unwrap_err();
    match err {
        PandaError::Overloaded { depth, capacity } => {
            assert_eq!(depth, 4);
            assert_eq!(capacity, 4);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(service.stats().rejected, 1);

    // recovery: open the gate, everything queued resolves exactly
    backend.open_gate();
    service.drain();
    assert_eq!(bait.wait().unwrap().row(0).len(), 3);
    for t in queued {
        assert_eq!(t.wait().unwrap().row(0).len(), 3);
    }
    service.shutdown();
}

/// `Block` policy: a submitter over capacity parks until the scheduler
/// frees space, then succeeds — nothing is rejected.
#[test]
fn block_policy_applies_backpressure_without_loss() {
    let points = random_ps(200, 2, 70);
    let backend = Arc::new(GatedBackend::new(&points));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            .with_max_batch(4)
            .with_queue_capacity(4)
            .with_max_delay(Duration::from_micros(50))
            .with_overflow(OverflowPolicy::Block),
    )
    .unwrap();

    let one = |seed: u64| {
        let q = random_ps(1, 2, seed);
        PointSet::from_coords(2, q.point(0).to_vec()).unwrap()
    };
    let bait = service.submit(&QueryRequest::knn(&one(71), 3)).unwrap();
    backend.await_entry();
    let queued: Vec<Ticket> = (0..4)
        .map(|i| service.submit(&QueryRequest::knn(&one(80 + i), 3)).unwrap())
        .collect();

    // this submitter must block (queue full) until the gate opens
    let handle = service.handle();
    let blocked = std::thread::spawn(move || {
        let q = random_ps(1, 2, 90);
        let qs = PointSet::from_coords(2, q.point(0).to_vec()).unwrap();
        handle.submit(&QueryRequest::knn(&qs, 3)).unwrap().wait()
    });
    backend.open_gate();
    let reply = blocked.join().unwrap().unwrap();
    assert_eq!(reply.row(0).len(), 3);
    service.drain();
    assert_eq!(service.stats().rejected, 0);
    assert_eq!(bait.wait().unwrap().row(0).len(), 3);
    for t in queued {
        assert_eq!(t.wait().unwrap().row(0).len(), 3);
    }
    service.shutdown();
}

/// `max_batch` caps dispatched batches, not just triggers them: a
/// backlog that built up behind a stuck backend flows out in capped
/// chunks, never as one oversized batch.
#[test]
fn max_batch_caps_dispatched_batches() {
    let points = random_ps(300, 2, 110);
    let backend = Arc::new(GatedBackend::new(&points));
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            .with_max_batch(8)
            .with_queue_capacity(64)
            .with_max_delay(Duration::from_micros(50)),
    )
    .unwrap();

    // bait the scheduler into the gate, then build a 20-query backlog
    let bait = service
        .submit(&QueryRequest::knn(
            &PointSet::from_coords(2, random_ps(1, 2, 111).point(0).to_vec()).unwrap(),
            3,
        ))
        .unwrap();
    backend.await_entry();
    let queued: Vec<Ticket> = (0..20)
        .map(|i| {
            let q = PointSet::from_coords(2, random_ps(1, 2, 120 + i).point(0).to_vec()).unwrap();
            service.submit(&QueryRequest::knn(&q, 3)).unwrap()
        })
        .collect();

    backend.open_gate();
    service.drain();
    assert_eq!(bait.wait().unwrap().row(0).len(), 3);
    for t in queued {
        assert_eq!(t.wait().unwrap().row(0).len(), 3);
    }
    let stats = service.stats();
    // 1 bait batch + the 20-query backlog in ≥ 3 capped chunks
    assert!(stats.batches >= 4, "batches {}", stats.batches);
    // no dispatched batch exceeded max_batch = 8 (pow2 buckets above
    // 8..=15 must be empty)
    for (i, &count) in stats.batch_hist.iter().enumerate().skip(4) {
        assert_eq!(count, 0, "batch of 2^{i}..2^{} dispatched", i + 1);
    }
    service.shutdown();
}

/// A panicking backend is contained: its batch's tickets resolve with
/// `BackendPanicked`, the service keeps serving afterwards.
#[test]
fn backend_panic_is_contained() {
    struct FlakyBackend {
        inner: BruteForce,
        fail: AtomicBool,
    }
    impl NnBackend for FlakyBackend {
        fn query(&self, req: &QueryRequest<'_>) -> panda::core::Result<QueryResponse> {
            if self.fail.load(Ordering::Acquire) {
                panic!("injected backend failure");
            }
            NnBackend::query(&self.inner, req)
        }
        fn name(&self) -> &'static str {
            "flaky-brute"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dims(&self) -> usize {
            NnBackend::dims(&self.inner)
        }
    }

    let points = random_ps(100, 2, 130);
    let backend = Arc::new(FlakyBackend {
        inner: BruteForce::new(&points),
        fail: AtomicBool::new(true),
    });
    let service = QueryService::new(
        Arc::clone(&backend) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default().with_max_delay(Duration::from_micros(50)),
    )
    .unwrap();

    let q = PointSet::from_coords(2, random_ps(1, 2, 131).point(0).to_vec()).unwrap();
    let err = service
        .submit(&QueryRequest::knn(&q, 3))
        .unwrap()
        .wait()
        .unwrap_err();
    match err {
        PandaError::BackendPanicked(msg) => assert!(msg.contains("injected"), "{msg}"),
        other => panic!("expected BackendPanicked, got {other:?}"),
    }

    // the scheduler survived the panic: the service still answers
    backend.fail.store(false, Ordering::Release);
    let reply = service
        .submit(&QueryRequest::knn(&q, 3))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(reply.row(0).len(), 3);
    service.shutdown();
}

/// Degenerate submissions: empty query sets resolve immediately;
/// invalid requests fail at submit time, not inside the batch.
#[test]
fn degenerate_submissions() {
    let points = random_ps(100, 3, 95);
    let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default()).unwrap());
    let service = QueryService::new(index, ServiceConfig::default()).unwrap();

    let empty = PointSet::new(3).unwrap();
    let t = service.submit(&QueryRequest::knn(&empty, 5)).unwrap();
    assert!(t.is_ready());
    assert!(t.wait().unwrap().is_empty());

    let qs = random_ps(1, 3, 96);
    assert!(matches!(
        service.submit(&QueryRequest::knn(&qs, 0)),
        Err(PandaError::ZeroK)
    ));
    let wrong_dims = random_ps(1, 2, 97);
    assert!(matches!(
        service.submit(&QueryRequest::knn(&wrong_dims, 3)),
        Err(PandaError::DimsMismatch { .. })
    ));
    let oversized = random_ps(20_000, 3, 98);
    assert!(matches!(
        service.submit(&QueryRequest::knn(&oversized, 3)),
        Err(PandaError::BadConfig(_))
    ));
    service.shutdown();
}

/// The PR 8 acceptance gate: `QueryService` fronting a 4-shard
/// `ShardedIndex` under 8 concurrent clients is bit-identical to a
/// direct single-shard `query_session` over the same queries.
#[test]
fn sharded_backend_under_concurrent_clients_matches_single_shard() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 20;
    let points = random_ps(3000, 3, 140);
    let queries = random_ps(CLIENTS * PER_CLIENT, 3, 141);
    let k = 6;

    // ground truth: one shard, one direct collective query
    let single = ShardedIndex::build(&points, 1, &DistConfig::default()).unwrap();
    let direct = NnBackend::query(&single, &QueryRequest::knn(&queries, k)).unwrap();

    let sharded = Arc::new(ShardedIndex::build(&points, 4, &DistConfig::default()).unwrap());
    assert_eq!(sharded.shards(), 4);
    let service = QueryService::new(
        Arc::clone(&sharded) as Arc<dyn NnBackend + Send + Sync>,
        ServiceConfig::default()
            .with_max_batch(32)
            .with_max_delay(Duration::from_millis(1)),
    )
    .unwrap();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = service.handle();
            let mine: Vec<Vec<f32>> = (0..PER_CLIENT)
                .map(|i| queries.point(c * PER_CLIENT + i).to_vec())
                .collect();
            std::thread::spawn(move || {
                let mut got = Vec::with_capacity(PER_CLIENT);
                for q in mine {
                    let qs = PointSet::from_coords(3, q).unwrap();
                    let reply = handle
                        .submit(&QueryRequest::knn(&qs, k))
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert_eq!(reply.len(), 1);
                    got.push(
                        reply
                            .row(0)
                            .iter()
                            .map(|n| (n.dist_sq.to_bits(), n.id))
                            .collect::<Vec<_>>(),
                    );
                }
                got
            })
        })
        .collect();

    for (c, w) in workers.into_iter().enumerate() {
        let got = w.join().unwrap();
        for (i, row) in got.iter().enumerate() {
            let want: Vec<(u32, u64)> = direct
                .neighbors
                .row(c * PER_CLIENT + i)
                .iter()
                .map(|n| (n.dist_sq.to_bits(), n.id))
                .collect();
            assert_eq!(row, &want, "client {c} query {i}");
        }
    }

    let stats = service.stats();
    assert_eq!(stats.queries, (CLIENTS * PER_CLIENT) as u64);
    assert!(stats.mean_batch_size() > 1.0, "singles were coalesced");
    assert_eq!(sharded.shard_restarts(), 0, "no worker faults under load");
    service.shutdown();
}
