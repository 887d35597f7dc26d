//! # PANDA-rs — facade crate
//!
//! Re-exports the full PANDA reproduction surface:
//!
//! * [`core`] — distributed kd-tree construction and exact KNN
//!   querying (the paper's contribution);
//! * [`comm`] — the simulated distributed runtime substrate;
//! * [`data`] — synthetic science-dataset generators;
//! * [`baselines`] — brute force, FLANN-like, ANN-like and
//!   local-trees comparison implementations;
//! * [`service`] — the concurrent query service: dynamic
//!   micro-batching of many small client requests over a persistent
//!   worker pool;
//! * [`store`] — the mutable index: insert/delete log over the
//!   immutable tree with background compaction and atomic tree swap;
//! * [`obs`] — unified telemetry: the metrics registry, per-query
//!   pipeline tracing, and the Prometheus/JSON exposition surface.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index.
//!
//! ## Quickstart: the query-session API
//!
//! One vocabulary drives every engine. Build a backend, describe a batch
//! with a [`QueryRequest`](prelude::QueryRequest), get a
//! [`QueryResponse`](prelude::QueryResponse) whose neighbors live in a
//! flat CSR [`NeighborTable`](prelude::NeighborTable):
//!
//! ```
//! use panda::prelude::*;
//!
//! // four points on a line, three queries
//! let points = PointSet::from_coords(1, vec![0.0, 1.0, 2.0, 10.0])?;
//! let queries = PointSet::from_coords(1, vec![1.2, 9.0, 0.1])?;
//!
//! // any engine behind the same trait: panda's kd-tree, brute force, …
//! let index = KnnIndex::build(&points, &TreeConfig::default())?;
//! let backend: &dyn NnBackend = &index;
//!
//! let req = QueryRequest::knn(&queries, 2); // + .with_radius / .with_order / …
//! let res = backend.query(&req)?;
//!
//! assert_eq!(res.len(), 3);
//! assert_eq!(res.neighbors.row(0)[0].id, 1); // nearest to 1.2 is x = 1.0
//! for row in res.neighbors.iter() {
//!     assert_eq!(row.len(), 2); // k neighbors per query, ascending
//! }
//! assert_eq!(res.counters.queries, 3);
//! # Ok::<(), PandaError>(())
//! ```
//!
//! The same request replays against any backend — the parity suite in
//! `tests/backend_parity.rs` holds every engine to bit-identical answers.
//! The distributed engine is [`ShardedIndex`](prelude::ShardedIndex):
//! one `Send + Sync` handle over long-lived shard worker threads, each
//! exclusively owning its local tree and communicator — build it with
//! `ShardedIndex::build(&points, shards, &cfg)` and query it through the
//! identical trait, no `run_cluster` closure required. (The SPMD
//! entry points `build_distributed` + `query_distributed` remain public
//! for virtual-time scaling studies that simulate thousands of ranks;
//! `LocalTreesBackend` is likewise built per rank inside `run_cluster`.)
//!
//! ## Quickstart: sharded serving
//!
//! The sharded engine *is* a service backend — the front handle is
//! `Send + Sync`, so a [`QueryService`](prelude::QueryService) can coalesce
//! many clients' queries over a whole distributed tree:
//!
//! ```
//! use std::sync::Arc;
//! use panda::prelude::*;
//!
//! let points = PointSet::from_coords(1, (0..64).map(|i| i as f32).collect())?;
//! // two shard workers, each owning half the points and a comm endpoint
//! let sharded = ShardedIndex::build(&points, 2, &DistConfig::default())?;
//! let service = QueryService::new(Arc::new(sharded), ServiceConfig::default())?;
//!
//! let q = PointSet::from_coords(1, vec![7.3, 41.9])?;
//! let reply = service.submit(&QueryRequest::knn(&q, 2))?.wait()?;
//! assert_eq!(reply.row(0)[0].id, 7);  // exact, same as a local KnnIndex
//! assert_eq!(reply.row(1)[0].id, 42);
//! service.shutdown();
//! # Ok::<(), PandaError>(())
//! ```
//!
//! ## Quickstart: serving concurrent clients
//!
//! One-shot `query` calls forfeit the batching the engine is fast at.
//! [`QueryService`](prelude::QueryService) recovers it for many
//! independent clients: submissions are coalesced into Morton-ordered
//! micro-batches (flushed on size *or* deadline) executed on the
//! persistent worker pool, and every client gets a zero-copy slice of
//! the shared batch response. This closed loop is exactly the
//! `bench_pr5` workload:
//!
//! ```
//! use std::sync::Arc;
//! use panda::prelude::*;
//!
//! let points = PointSet::from_coords(1, (0..64).map(|i| i as f32).collect())?;
//! let index = Arc::new(KnnIndex::build(&points, &TreeConfig::default())?);
//! let service = QueryService::new(
//!     index,
//!     ServiceConfig::default()
//!         .with_max_batch(32)
//!         .with_max_delay(std::time::Duration::from_micros(200)),
//! )?;
//!
//! // four clients, each a closed loop: submit one query, wait, repeat
//! let workers: Vec<_> = (0..4u64)
//!     .map(|c| {
//!         let handle = service.handle(); // cheap clonable submitter
//!         std::thread::spawn(move || {
//!             let mut nearest = Vec::new();
//!             for r in 0..8u64 {
//!                 let x = (c * 8 + r) as f32 + 0.3;
//!                 let q = PointSet::from_coords(1, vec![x]).unwrap();
//!                 let ticket = handle.submit(&QueryRequest::knn(&q, 1)).unwrap();
//!                 let reply = ticket.wait().unwrap(); // zero-copy row slice
//!                 nearest.push(reply.row(0)[0].id);
//!             }
//!             nearest
//!         })
//!     })
//!     .collect();
//! for (c, w) in workers.into_iter().enumerate() {
//!     let ids = w.join().unwrap();
//!     let expect: Vec<u64> = (0..8).map(|r| (c * 8 + r) as u64).collect();
//!     assert_eq!(ids, expect); // exact — identical to direct queries
//! }
//!
//! let stats = service.stats();
//! assert_eq!(stats.queries, 32);
//! assert!(stats.batches >= 1); // singles were coalesced
//! service.shutdown();
//! # Ok::<(), PandaError>(())
//! ```
//!
//! Backpressure is built in: the submission queue is bounded, and
//! `submit` either blocks or fails fast with `PandaError::Overloaded`
//! ([`OverflowPolicy`](prelude::OverflowPolicy)). `drain` flushes all
//! outstanding tickets; `stats` exposes queue depth, the batch-size
//! histogram, and p50/p99/p999 submit→resolve latency. The service
//! requires `Send + Sync` backends (pinned by `tests/thread_safety.rs`);
//! `KnnIndex`, `MutableIndex`, the in-process baselines, **and** the
//! sharded distributed engine all qualify. Every submission reaches the
//! backend: science query streams carry no exact repeats, so the
//! service keeps no result cache.
//!
//! ## Quickstart: streaming updates
//!
//! The PANDA tree is immutable by design; [`MutableIndex`](prelude::MutableIndex)
//! makes it a streaming store without giving up exactness. Inserts land
//! in an in-memory log that every query brute-force-scans through the
//! same fused SIMD leaf kernel the tree uses; deletes lay tombstones;
//! when the log (or tombstone set) crosses the
//! [`StoreConfig`](prelude::StoreConfig) thresholds, a background
//! compaction rebuilds tree + log − tombstones into a fresh generation
//! and swaps it in atomically. Writers and readers never block on the
//! rebuild, and answers stay **bit-identical in distances to a
//! brute-force scan of the live set** at every step:
//!
//! ```
//! use panda::prelude::*;
//!
//! let store = MutableIndex::new(1, StoreConfig::default().with_compact_points(8))?;
//! for i in 0..20u64 {
//!     store.insert(&[i as f32], i)?;
//! }
//! store.remove(7)?; // tombstoned (or dropped from the log) immediately
//!
//! // same trait, same request vocabulary as every other backend
//! let q = PointSet::from_coords(1, vec![6.9])?;
//! let res = store.query(&QueryRequest::knn(&q, 2))?;
//! assert_eq!(res.neighbors.row(0)[0].id, 6); // 7 is gone, exactly
//!
//! store.quiesce(); // wait out any in-flight background compaction
//! let stats = store.stats();
//! assert_eq!(stats.live_points, 19);
//! assert!(stats.epoch >= 1); // at least one atomic tree swap happened
//! # Ok::<(), PandaError>(())
//! ```
//!
//! Updates address points by **global id**: inserting a live id fails
//! with `PandaError::DuplicateId` (remove first to update), and removed
//! ids can be re-inserted freely. The store is `Send + Sync` and
//! clonable, so it serves behind a
//! [`QueryService`](prelude::QueryService) while writers mutate it
//! concurrently; `tests/store_parity.rs` holds interleaved
//! insert/query/delete histories — including ones overlapping an
//! in-flight compaction — to brute-force parity, and
//! [`StoreStats`](prelude::StoreStats) reports log depth, tombstones,
//! compaction counts/latency quantiles, and the swap epoch.
//!
//! ## Failure semantics
//!
//! Every failure mode surfaces as a **typed error or a clean degraded
//! result — never a hang**:
//!
//! * **Deadlines.** `QueryRequest::with_deadline(d)` bounds how long a
//!   submission may sit in the service queue. If it is still queued when
//!   `d` elapses (measured from `submit`, including time blocked on a
//!   full queue), the scheduler sheds it at flush time and its ticket
//!   resolves with `PandaError::DeadlineExceeded { deadline, waited }` —
//!   the backend never runs it. Counted in
//!   `ServiceStats::deadline_exceeded`.
//! * **Cancellation.** `Ticket::cancel()` detaches a submission; an
//!   unflushed one gives its queue slot back at the next flush
//!   (`PandaError::Cancelled` internally, `ServiceStats::cancelled`).
//!   Dropping a still-pending ticket instead (e.g. after a
//!   `wait_timeout` miss) *abandons* it: the work still runs, the reply
//!   is discarded, and `ServiceStats::abandoned` counts it.
//! * **Backend panics and scheduler crashes.** A panicking backend
//!   resolves its whole micro-batch with `PandaError::BackendPanicked`.
//!   A panic that escapes the scheduler loop itself is absorbed by a
//!   **supervisor**: in-flight tickets resolve with `BackendPanicked`,
//!   the queue is repaired, and the scheduler restarts after a bounded
//!   exponential backoff (`ServiceStats::scheduler_restarts`) — the
//!   service keeps serving.
//! * **Distributed communication.** A stalled or dead peer inside a
//!   distributed query surfaces as
//!   `PandaError::Comm(CommError::Timeout { .. })` on **every** rank
//!   instead of aborting the process; transient stalls are absorbed by a
//!   per-exchange retry with jittered exponential backoff
//!   ([`RetryPolicy`](comm::RetryPolicy), configurable via
//!   `ClusterConfig::with_retry`). After an error the communicator is
//!   reusable once every rank calls `Comm::quiesce` with a common epoch —
//!   [`ShardedIndex`](prelude::ShardedIndex) runs that protocol
//!   automatically across its workers after any failed round.
//! * **Shard worker crashes.** Each shard of a
//!   [`ShardedIndex`](prelude::ShardedIndex) runs supervised: a panic
//!   mid-batch resolves the round with `PandaError::BackendPanicked`,
//!   the worker restarts after a bounded exponential backoff
//!   (`ShardedIndex::shard_restarts` counts them), and the next round
//!   proceeds normally.
//! * **Durability and crash recovery.** A mutable store opened with
//!   [`MutableIndex::open`](prelude::MutableIndex::open) appends every
//!   mutation to a CRC-checksummed write-ahead log *before*
//!   acknowledging it, and each compaction publishes an atomic snapshot
//!   checkpoint (write-temp → fsync → rename) that absorbs the log it
//!   covers. After a kill at **any** instant, reopening recovers
//!   exactly a prefix of the acknowledged write sequence — never a torn
//!   point, a reordering, or a resurrected delete. The
//!   [`FsyncPolicy`](prelude::FsyncPolicy) (`PerWrite` default,
//!   `EveryN(n)`, `OnCompaction`) only sets how long that at-risk
//!   suffix may be; under `PerWrite` it is empty. A torn WAL tail is
//!   truncated silently on recovery, while an unreadable snapshot —
//!   acknowledged-durable state — surfaces as `PandaError::Corrupt`.
//!   The crash-point sweep in `tests/recovery.rs` kills a scripted
//!   workload at every durability fault point and diffs the reopened
//!   store against a brute-force oracle. `.pnda` dataset files carry
//!   the same protection: a versioned header plus a whole-file
//!   checksum, with truncation and bit-flips rejected as
//!   `PandaError::Corrupt` at load.
//! * **Fault injection.** All of the above is provable on demand:
//!   [`panda_core::faultpoint`] compiles named fault points into the
//!   comm exchanges, the leaf-kernel dispatch, and the service drain
//!   path (near-zero cost while disarmed), and a `FaultPlan` arms them
//!   deterministically — fail the Nth hit, delay, panic, or time out.
//!   The chaos suite (`tests/chaos.rs`) drives every injected fault to a
//!   typed error and a still-healthy system.
//!
//! ### Locality on the distributed path
//!
//! `QueryRequest::with_order(QueryOrder::Morton)` is honored by the
//! distributed pipeline too (both [`ShardedIndex`](prelude::ShardedIndex)
//! and the SPMD `query_distributed`): after queries are routed to
//! their owning shards, each re-sorts its *owned* queries along a
//! Morton (Z-order) curve, so every pipeline step's local KNN and remote
//! request streams touch spatially coherent leaves. Results always come
//! back in submission order — the knob changes locality, never values
//! (`tests/dist_order_parity.rs` pins bit-identical results under skewed
//! query distributions). The distributed engine is CSR-native end to
//! end: responses are assembled directly into the flat
//! [`NeighborTable`](prelude::NeighborTable) with no nested
//! `Vec<Vec<Neighbor>>` intermediate.
//!
//! ## Observability
//!
//! Every runtime crate publishes typed, lock-free metrics into a
//! [`obs::Registry`] under dotted names (`service.*`, `shard.*`,
//! `comm.*`, `store.*`, `fault.*`). One call —
//! [`ServiceHandle::telemetry`](prelude::ServiceHandle::telemetry) (or
//! `QueryService::telemetry`) — merges the service's registry with the
//! backend's (shard workers' comm meters, the store's WAL counters, …)
//! and the process-lifetime fault-point trip counts into a single
//! coherent [`obs::Snapshot`], ready for [`obs::render_prometheus`]
//! (text format 0.0.4) or [`obs::render_json`]. The existing
//! [`ServiceStats`](prelude::ServiceStats) / `StoreStats` structs remain
//! as cheap typed views fed from the same cells.
//!
//! Per-query **pipeline tracing** rides on top: `submit` mints a
//! 1-in-N-sampled [`obs::TraceId`] (the disarmed check is a single
//! relaxed load), the micro-batch carries it into the backend, and each
//! stage — queue wait, flush, shard scatter/gather, leaf kernel,
//! resolve, plus the store's WAL/compaction stages — drops a timestamped
//! event into a fixed-size lock-free ring. [`obs::TraceReport::gather`]
//! turns the ring into a per-stage latency table:
//!
//! ```
//! use std::sync::Arc;
//! use panda::prelude::*;
//!
//! let points = PointSet::from_coords(1, (0..32).map(|i| i as f32).collect())?;
//! let service = QueryService::new(
//!     Arc::new(KnnIndex::build(&points, &TreeConfig::default())?),
//!     ServiceConfig::default(),
//! )?;
//! panda::obs::trace::set_sampling(1); // trace every query (0 = off, the default)
//! let q = PointSet::from_coords(1, vec![7.3])?;
//! let reply = service.submit(&QueryRequest::knn(&q, 2))?.wait()?;
//! assert_eq!(reply.row(0)[0].id, 7);
//! service.drain();
//!
//! let snap = service.telemetry(); // one snapshot, whole stack
//! assert_eq!(snap.counter("service.queries"), Some(1));
//! let page = panda::obs::render_prometheus(&snap);
//! assert!(page.contains("panda_service_queries 1"));
//! assert!(page.contains("panda_service_latency_ns_bucket"));
//!
//! let report = panda::obs::TraceReport::gather(); // per-stage table
//! assert!(report.stage(panda::obs::Stage::Queue).is_some());
//! panda::obs::trace::set_sampling(0);
//! service.shutdown();
//! # Ok::<(), PandaError>(())
//! ```
//!
//! `examples/telemetry.rs` runs live traffic through a sharded service
//! and dumps the full Prometheus page plus the trace report.
//!
//! ## Migrating from the pre-session (tuple) API
//!
//! The 0.1 tuple methods (`query_batch`, `query_batch_ordered`, the
//! free `query_distributed`, the baselines' `query_batch`s) survived
//! one release as `#[deprecated]` shims and are now **removed**:
//!
//! | old (0.1, removed) | new |
//! |---|---|
//! | `index.query_batch(&q, k)` → `(Vec<Vec<Neighbor>>, QueryCounters)` | `backend.query(&QueryRequest::knn(&q, k))` → `QueryResponse` |
//! | `index.query_batch_ordered(&q, k, order)` | `QueryRequest::knn(&q, k).with_order(order)` |
//! | `query_distributed(comm, &tree, &q, &cfg)` → `DistQueryResult` | `ShardedIndex::build(&pts, shards, &cfg)` then `backend.query(&req)` (or the SPMD `query_distributed(comm, &tree, &req)` → `DistQueryOutput` under `run_cluster`) |
//! | `brute.query_batch(&q, k, parallel)` | `QueryRequest::knn(&q, k).with_parallel(parallel)` |
//! | `flann.query_batch(&q, k, parallel)` / `ann.query_batch(&q, k)` | same request, any backend |
//! | `results[i]` (a `Vec<Neighbor>`) | `res.neighbors.row(i)` (a `&[Neighbor]` into one arena) |
//! | the distributed engine's config struct (`k`, `batch_size`, `bbox_routing`, `order`, `bound_mode`) | the same knobs on `QueryRequest`, which `query_distributed` takes directly and validates like every backend |
//! | its `initial_radius` (`+inf` = no limit) | `QueryRequest::with_radius` (validated: positive finite; unbounded = no radius) |
//! | its `pipeline` flag | removed: reported times always model software pipelining (`QueryBreakdown::total_pipelined`) |
//! | `radius_search_distributed(..)` → `Vec<Vec<Neighbor>>` | same call → flat CSR `NeighborTable` |

#![warn(missing_docs)]

pub use panda_baselines as baselines;
pub use panda_comm as comm;
pub use panda_core as core;
pub use panda_data as data;
pub use panda_obs as obs;
pub use panda_service as service;
pub use panda_store as store;

/// The working vocabulary of the query-session API, re-exported flat so
/// callers stop reaching through `panda::core::...` internals.
pub mod prelude {
    pub use panda_baselines::{AnnLikeTree, BruteForce, FlannLikeTree, LocalTreesBackend};
    pub use panda_core::build_distributed::{build_distributed, DistKdTree};
    pub use panda_core::engine::{
        NeighborTable, NnBackend, QueryRequest, QueryResponse, ShardedIndex,
    };
    pub use panda_core::knn::KnnIndex;
    pub use panda_core::query_distributed::{query_distributed, DistQueryOutput};
    pub use panda_core::radius::radius_search_distributed;
    pub use panda_core::{
        BoundMode, DistConfig, Neighbor, PandaError, PointSet, QueryCounters, QueryOrder, Result,
        TreeConfig,
    };
    pub use panda_obs::{render_json, render_prometheus, Registry, Snapshot, TraceReport};
    pub use panda_service::{
        OverflowPolicy, QueryService, ServiceConfig, ServiceHandle, ServiceStats, Ticket,
        TicketReply,
    };
    pub use panda_store::{FsyncPolicy, MutableIndex, StoreConfig, StoreStats};
}

/// Crate version of the facade (matches the workspace version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
