//! The mutable index: an immutable tree generation + a write log +
//! copy-on-write deletion sets, compacted in the background.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use arc_swap::ArcSwap;
use panda_core::engine::{NeighborTable, NnBackend, QueryRequest, QueryResponse};
use panda_core::faultpoint::{self, points};
use panda_core::knn::KnnIndex;
use panda_core::local_tree::{PackedLeaves, LANE};
use panda_core::supervise::panic_message;
use panda_core::{KnnHeap, Neighbor, PandaError, PointSet, QueryCounters, Result, TreeConfig};
use panda_obs::trace::{self, Stage};
use panda_obs::{Registry, Snapshot};

use crate::config::StoreConfig;
use crate::stats::{StoreMetrics, StoreStats};
use crate::wal::{Wal, WalRecord};

/// One immutable tree generation: the index plus the exact point set it
/// was built from (retained so the next compaction can rebuild without
/// re-reading the tree).
#[derive(Debug)]
struct TreeGen {
    /// `None` only when `base` is empty (a tree cannot be built over
    /// zero points); queries then run against the log alone.
    index: Option<KnnIndex>,
    base: Arc<PointSet>,
    epoch: u64,
}

/// The frozen half of the log while a compaction is in flight: the
/// points, pre-packed once into a single lane-padded kernel bucket so
/// every query scans it through the fused SIMD kernel without repacking.
#[derive(Clone, Debug)]
struct FrozenSeg {
    points: Arc<PointSet>,
    packed: Arc<PackedLeaves>,
    cap: usize,
    id_set: Arc<HashSet<u64>>,
}

impl FrozenSeg {
    fn pack(points: PointSet) -> Self {
        let mut packed = PackedLeaves::new(points.dims());
        let n = points.len();
        let cap = n.div_ceil(LANE) * LANE;
        if n > 0 {
            packed.push_leaf(n, |i, d| points.coord(i, d), |i| points.id(i));
        }
        let id_set = points.ids().iter().copied().collect();
        Self {
            points: Arc::new(points),
            packed: Arc::new(packed),
            cap,
            id_set: Arc::new(id_set),
        }
    }
}

/// Mutable state behind the write lock. Every piece a query snapshot
/// needs is either cheap to clone (`Arc`s) or packed under the read
/// lock, so queries hold the lock only briefly and compute lock-free.
#[derive(Debug)]
struct WriteState {
    /// Fresh points since the last freeze. Physically clean: a removed
    /// fresh point is swap-removed, never tombstoned.
    fresh: PointSet,
    /// The log half currently being compacted (None otherwise).
    frozen: Option<FrozenSeg>,
    /// Tombstones whose live-at-the-time copy sat in the current tree
    /// generation. Copy-on-write: replaced wholesale so query snapshots
    /// stay immutable.
    deleted_tree: Arc<HashSet<u64>>,
    /// Tombstones whose live copy sat in the frozen segment.
    deleted_frozen: Arc<HashSet<u64>>,
    /// Ids of every live point (tree ∪ frozen ∪ fresh, minus deletions).
    members: HashSet<u64>,
    compacting: bool,
    /// Most recent compaction failure, kept until taken.
    last_error: Option<PandaError>,
}

/// Everything a background compaction needs, captured at freeze time
/// under the write lock.
struct CompactTask {
    frozen: FrozenSeg,
    deleted_tree_at_freeze: Arc<HashSet<u64>>,
    old_gen: Arc<TreeGen>,
    /// WAL segment the freeze closed (durable stores only): the
    /// snapshot this compaction publishes absorbs segments `≤` this.
    closed_seq: Option<u64>,
}

#[derive(Debug)]
struct StoreInner {
    dims: usize,
    cfg: StoreConfig,
    /// The serving tree. Swapped atomically **while holding the state
    /// write lock**, so a query snapshot (taken under the read lock)
    /// never pairs a new tree with an old log or vice versa.
    tree: ArcSwap<TreeGen>,
    state: RwLock<WriteState>,
    /// The durability layer, present only for stores opened with
    /// [`MutableIndex::open`]. Lock order: `state` (write) → `wal`,
    /// never the reverse — the compactor takes `wal` alone (off the
    /// state lock) to write snapshots, which cannot invert.
    wal: Option<Mutex<Wal>>,
    metrics: StoreMetrics,
    quiesce_lock: Mutex<()>,
    quiesce_cv: Condvar,
}

/// A mutable exact-KNN index: `insert` / `remove` alongside the
/// standard [`NnBackend`] query path, with background compaction.
///
/// # Architecture
///
/// Writes append to an in-memory **fresh log**; queries execute against
/// the immutable tree generation, then exactly scan the log (fresh +
/// any frozen segment) through the fused SIMD leaf kernel, and merge
/// both into one CSR [`NeighborTable`] — so results are **bit-identical
/// in distances to a brute-force scan of the live point set at the
/// moment the query snapshotted state**, by construction, at every
/// point of an interleaved insert/query/delete history (pinned by
/// `tests/store_parity.rs`).
///
/// # Lifecycle contract
///
/// * **Visibility.** An `insert` or `remove` that has returned is
///   visible to every subsequently issued query (writes and snapshots
///   serialize on one writer lock). Queries in flight keep the snapshot
///   they took; a swap never invalidates it.
/// * **Identity.** Global ids are the identity updates address: a live
///   id cannot be inserted again ([`PandaError::DuplicateId`]) —
///   `remove` it first. Removing an unknown id returns `Ok(false)` and
///   changes nothing. Re-inserting a previously removed id is fine, and
///   older (tombstoned) copies of that id can never resurface — not
///   even if the compaction that would have dropped them fails.
/// * **Deletes during compaction.** `remove` works at full fidelity
///   while a compaction is in flight: a tombstone laid on a point that
///   the in-progress rebuild will carry into the new tree survives the
///   swap and keeps applying to the new generation.
/// * **Compaction.** When the log or tombstone set crosses the
///   [`StoreConfig`] thresholds, the log is frozen and a background
///   task (on the persistent rayon pool) rebuilds tree + frozen −
///   tombstones into a new generation, then swaps it in atomically
///   (epoch + 1). Writes continue against a new fresh log meanwhile;
///   queries keep serving the old generation + frozen segment. A
///   compaction failure (error or panic) is supervised: the frozen
///   points splice back into the fresh log, the old tree keeps serving,
///   and the typed error is surfaced via
///   [`take_last_compaction_error`](Self::take_last_compaction_error)
///   and counted in [`StoreStats::compaction_failures`].
///
/// `MutableIndex` is `Send + Sync` and cheaply clonable (all clones
/// share one store), so it can serve behind a `QueryService` while
/// writers mutate it concurrently.
#[derive(Clone, Debug)]
pub struct MutableIndex {
    inner: Arc<StoreInner>,
}

impl MutableIndex {
    /// An empty mutable index of `dims`-dimensional points.
    pub fn new(dims: usize, cfg: StoreConfig) -> Result<Self> {
        Self::from_points(&PointSet::new(dims)?, cfg)
    }

    /// A mutable index seeded with `points` (built into the first tree
    /// generation, epoch 0). Ids must be unique.
    pub fn from_points(points: &PointSet, cfg: StoreConfig) -> Result<Self> {
        Self::build_store(points, cfg, None)
    }

    /// Open (or create) a **durable** mutable index backed by the store
    /// directory at `path`.
    ///
    /// Every acknowledged `insert`/`remove` is first appended to a
    /// checksummed write-ahead log in that directory; each compaction
    /// additionally publishes a snapshot checkpoint that absorbs the
    /// log it covers. Reopening recovers the newest snapshot, replays
    /// the WAL (truncating a torn tail — it holds only writes whose
    /// durability the fsync policy had not yet promised), and resumes.
    /// An unreadable *snapshot* is acknowledged-durable state and
    /// surfaces as [`PandaError::Corrupt`].
    ///
    /// The crate-level "Durability contract" section spells out exactly
    /// which acknowledged writes each [`crate::FsyncPolicy`] lets a
    /// crash take; `tests/recovery.rs` enforces it with a crash-point
    /// sweep. Dropping the store does **not** fsync — call
    /// [`sync`](Self::sync) first when running a batched policy.
    pub fn open(path: impl AsRef<Path>, dims: usize, cfg: StoreConfig) -> Result<Self> {
        // Validates dims before any file is touched.
        let probe = PointSet::new(dims)?;
        let recovered = Wal::open_dir(path.as_ref(), dims, cfg.fsync)?;
        let base = recovered.snapshot.unwrap_or(probe);
        let store = Self::build_store(&base, cfg, Some(recovered.wal))?;
        // Replay post-snapshot records through the in-memory write path
        // (without re-logging, and without compaction triggers — the
        // first post-recovery write re-evaluates the thresholds).
        let mut st = store.inner.write_state();
        for rec in recovered.records {
            match rec {
                WalRecord::Insert { id, coords } => {
                    if st.members.insert(id) {
                        st.fresh.push(&coords, id);
                    }
                }
                WalRecord::Remove { id } => {
                    if st.members.remove(&id) {
                        if let Some(i) = st.fresh.ids().iter().position(|&x| x == id) {
                            st.fresh.swap_remove(i);
                        } else {
                            let mut set = (*st.deleted_tree).clone();
                            set.insert(id);
                            st.deleted_tree = Arc::new(set);
                        }
                    }
                }
            }
        }
        drop(st);
        Ok(store)
    }

    fn build_store(points: &PointSet, cfg: StoreConfig, wal: Option<Wal>) -> Result<Self> {
        let mut members = HashSet::with_capacity(points.len());
        for &id in points.ids() {
            if !members.insert(id) {
                return Err(PandaError::DuplicateId { id });
            }
        }
        let index = if points.is_empty() {
            None
        } else {
            Some(KnnIndex::build(points, &cfg.tree)?)
        };
        let dims = points.dims();
        let metrics = StoreMetrics::new();
        if let Some(w) = &wal {
            w.register_metrics(&metrics.registry);
        }
        metrics.live_points.set(members.len() as u64);
        let inner = StoreInner {
            dims,
            cfg,
            tree: ArcSwap::from_pointee(TreeGen {
                index,
                base: Arc::new(points.clone()),
                epoch: 0,
            }),
            state: RwLock::new(WriteState {
                fresh: PointSet::new(dims)?,
                frozen: None,
                deleted_tree: Arc::new(HashSet::new()),
                deleted_frozen: Arc::new(HashSet::new()),
                members,
                compacting: false,
                last_error: None,
            }),
            wal: wal.map(Mutex::new),
            metrics,
            quiesce_lock: Mutex::new(()),
            quiesce_cv: Condvar::new(),
        };
        Ok(Self {
            inner: Arc::new(inner),
        })
    }

    /// Insert one point under a fresh global id. Returns
    /// [`PandaError::DuplicateId`] if `id` is already live, and the
    /// usual shape/finiteness errors for a malformed point. May trigger
    /// a background compaction on the way out.
    pub fn insert(&self, point: &[f32], id: u64) -> Result<()> {
        let inner = &self.inner;
        if point.len() != inner.dims {
            return Err(PandaError::DimsMismatch {
                expected: inner.dims,
                got: point.len(),
            });
        }
        for (d, &v) in point.iter().enumerate() {
            if !v.is_finite() {
                return Err(PandaError::NonFiniteCoordinate { point: 0, dim: d });
            }
        }
        faultpoint::maybe_fail(points::STORE_LOG_APPEND)?;
        let task = {
            let mut st = inner.write_state();
            if st.members.contains(&id) {
                return Err(PandaError::DuplicateId { id });
            }
            // Durable stores log before applying: an `Ok` from here on
            // means the record is in the WAL (and, under `PerWrite`, on
            // disk); an `Err` means nothing changed, in memory or out.
            if let Some(wal) = &inner.wal {
                inner.lock_wal(wal).append(&WalRecord::Insert {
                    id,
                    coords: point.to_vec(),
                })?;
            }
            st.members.insert(id);
            st.fresh.push(point, id);
            inner.metrics.inserted.inc();
            inner.metrics.live_points.set(st.members.len() as u64);
            inner.metrics.log_points.set(st.fresh.len() as u64);
            inner.maybe_freeze(&mut st)
        };
        inner.dispatch(task);
        Ok(())
    }

    /// Remove the live point with id `id`. Returns `Ok(true)` if it was
    /// live (a fresh-log point is dropped physically; a tree or frozen
    /// point gets a tombstone cleared by the next compaction),
    /// `Ok(false)` if no such live point exists. May trigger a
    /// background compaction when the tombstone threshold is reached.
    pub fn remove(&self, id: u64) -> Result<bool> {
        let inner = &self.inner;
        let task = {
            let mut st = inner.write_state();
            if !st.members.contains(&id) {
                return Ok(false);
            }
            if let Some(wal) = &inner.wal {
                inner.lock_wal(wal).append(&WalRecord::Remove { id })?;
            }
            st.members.remove(&id);
            if let Some(i) = st.fresh.ids().iter().position(|&x| x == id) {
                st.fresh.swap_remove(i);
            } else if st.frozen.as_ref().is_some_and(|f| f.id_set.contains(&id)) {
                // The live copy sits in the frozen segment (precedence
                // fresh > frozen > tree; older copies of a re-inserted
                // id are always already tombstoned).
                let mut set = (*st.deleted_frozen).clone();
                set.insert(id);
                st.deleted_frozen = Arc::new(set);
            } else {
                let mut set = (*st.deleted_tree).clone();
                set.insert(id);
                st.deleted_tree = Arc::new(set);
            }
            inner.metrics.removed.inc();
            inner.metrics.live_points.set(st.members.len() as u64);
            inner.metrics.log_points.set(st.fresh.len() as u64);
            inner.maybe_freeze(&mut st)
        };
        inner.dispatch(task);
        Ok(true)
    }

    /// Force a compaction **now**, synchronously on the calling thread
    /// (waiting first for any in-flight background compaction), and
    /// propagate its outcome. A no-op `Ok(())` when there is nothing to
    /// compact.
    pub fn compact_now(&self) -> Result<()> {
        self.quiesce();
        let task = {
            let mut st = self.inner.write_state();
            if st.compacting || (st.fresh.is_empty() && st.deleted_tree.is_empty()) {
                None
            } else {
                Some(self.inner.freeze(&mut st)?)
            }
        };
        match task {
            Some(task) => self.inner.run_compaction(task),
            None => Ok(()),
        }
    }

    /// Block until no compaction is in flight.
    pub fn quiesce(&self) {
        let mut g = self
            .inner
            .quiesce_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if !self.inner.read_state().compacting {
                return;
            }
            // The timeout covers the (harmless) race where completion
            // notifies between our check and the wait.
            let (g2, _) = self
                .inner
                .quiesce_cv
                .wait_timeout(g, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner);
            g = g2;
        }
    }

    /// True while a background compaction is in flight.
    pub fn compacting(&self) -> bool {
        self.inner.read_state().compacting
    }

    /// Take (and clear) the most recent compaction failure, if any.
    pub fn take_last_compaction_error(&self) -> Option<PandaError> {
        self.inner.write_state().last_error.take()
    }

    /// Fsync the write-ahead log's active segment, making every
    /// acknowledged write durable regardless of the configured
    /// [`crate::FsyncPolicy`]. A no-op `Ok(())` on in-memory stores.
    /// Call before dropping a durable store running a batched policy.
    pub fn sync(&self) -> Result<()> {
        match &self.inner.wal {
            Some(wal) => self.inner.lock_wal(wal).sync(),
            None => Ok(()),
        }
    }

    /// True when this store persists to disk (opened via
    /// [`open`](Self::open)).
    pub fn is_durable(&self) -> bool {
        self.inner.wal.is_some()
    }

    /// Snapshot of the store's counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let st = self.inner.read_state();
        let gen = self.inner.tree.load_full();
        let hist = self.inner.metrics.hist_snapshot();
        let (p50, p99) = StoreStats::quantiles(&hist);
        // Lock order state → wal, same as the write path.
        let wal = self.inner.wal.as_ref().map(|w| self.inner.lock_wal(w));
        StoreStats {
            live_points: st.members.len(),
            tree_points: gen.base.len(),
            log_points: st.fresh.len(),
            frozen_points: st.frozen.as_ref().map_or(0, |f| f.points.len()),
            deleted: st.deleted_tree.len() + st.deleted_frozen.len(),
            inserted: self.inner.metrics.inserted.get(),
            removed: self.inner.metrics.removed.get(),
            compactions: self.inner.metrics.compactions.get(),
            compaction_failures: self.inner.metrics.compaction_failures.get(),
            compacting: st.compacting,
            epoch: gen.epoch,
            compaction_p50_seconds: p50,
            compaction_p99_seconds: p99,
            durable: wal.is_some(),
            wal_segments: wal.as_ref().map_or(0, |w| w.segment_count()),
            wal_bytes: wal.as_ref().map_or(0, |w| w.active_len()),
            wal_synced_bytes: wal.as_ref().map_or(0, |w| w.active_synced_len()),
            wal_appends: wal.as_ref().map_or(0, |w| w.appends()),
            wal_fsyncs: wal.as_ref().map_or(0, |w| w.fsyncs()),
            snapshot_seq: wal.as_ref().and_then(|w| w.snapshot_seq()).unwrap_or(0),
            snapshots_written: wal.as_ref().map_or(0, |w| w.snapshots_written()),
        }
    }

    /// Generation number of the serving tree (bumped by each swap).
    pub fn epoch(&self) -> u64 {
        self.inner.tree.load_full().epoch
    }

    /// Point-in-time [`Snapshot`] of the store's metric registry
    /// (`store.*` counters/gauges/histograms, plus `store.wal.*` on
    /// durable stores). Gauges are refreshed from live state first.
    pub fn telemetry(&self) -> Snapshot {
        {
            let st = self.inner.read_state();
            self.inner.metrics.live_points.set(st.members.len() as u64);
            self.inner.metrics.log_points.set(st.fresh.len() as u64);
        }
        self.inner.metrics.registry.snapshot()
    }
}

impl NnBackend for MutableIndex {
    fn build(points: &PointSet, cfg: &TreeConfig) -> Result<Self> {
        Self::from_points(points, StoreConfig::default().with_tree(*cfg))
    }

    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        self.inner.query(req)
    }

    fn name(&self) -> &'static str {
        "panda-store"
    }

    fn len(&self) -> usize {
        self.inner.read_state().members.len()
    }

    fn dims(&self) -> usize {
        self.inner.dims
    }

    /// The write counters, not the compaction [`epoch`](MutableIndex::epoch):
    /// compaction swaps never change answers, while every insert/remove
    /// can — and both counters are monotone, so their sum moves on every
    /// mutation, i.e. exactly when an earlier answer may be stale.
    fn data_epoch(&self) -> u64 {
        self.inner.metrics.inserted.get() + self.inner.metrics.removed.get()
    }

    fn registry(&self) -> Option<Registry> {
        Some(self.inner.metrics.registry.clone())
    }
}

impl StoreInner {
    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, WriteState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_state(&self) -> std::sync::RwLockWriteGuard<'_, WriteState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_wal<'a>(&self, wal: &'a Mutex<Wal>) -> MutexGuard<'a, Wal> {
        wal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Freeze the log for compaction if a threshold is crossed and no
    /// compaction is already in flight. Called with the write lock held;
    /// the returned task must be dispatched after the lock is released.
    /// A WAL-rotation failure cannot fail the (already-acknowledged)
    /// triggering write, so it lands in `last_error` instead.
    fn maybe_freeze(&self, st: &mut WriteState) -> Option<CompactTask> {
        if st.compacting {
            return None;
        }
        let log_bytes = st.fresh.len() * (self.dims * 4 + 8);
        let over = st.fresh.len() >= self.cfg.compact_points
            || log_bytes >= self.cfg.compact_bytes
            || st.deleted_tree.len() + st.deleted_frozen.len() >= self.cfg.max_deleted;
        if !over || (st.fresh.is_empty() && st.deleted_tree.is_empty()) {
            return None;
        }
        match self.freeze(st) {
            Ok(task) => Some(task),
            Err(e) => {
                st.last_error = Some(e);
                self.metrics.compaction_failures.inc();
                None
            }
        }
    }

    /// Split the log: fresh becomes the frozen segment (pre-packed for
    /// the kernel), a new empty fresh log takes over, and the tombstone
    /// sets are snapshotted. `deleted_frozen` is empty here by
    /// invariant — the previous frozen segment was fully resolved when
    /// its compaction finished. Durable stores rotate the WAL *first*
    /// (closing the segment that holds exactly the records up to this
    /// freeze); a rotation failure aborts the freeze with no state
    /// change.
    fn freeze(&self, st: &mut WriteState) -> Result<CompactTask> {
        debug_assert!(!st.compacting && st.frozen.is_none());
        debug_assert!(st.deleted_frozen.is_empty());
        let t = trace::maybe_sample();
        let t0 = Instant::now();
        let closed_seq = match &self.wal {
            Some(wal) => Some(self.lock_wal(wal).rotate()?),
            None => None,
        };
        let fresh = std::mem::replace(
            &mut st.fresh,
            PointSet::new(self.dims).expect("dims validated at construction"),
        );
        let frozen = FrozenSeg::pack(fresh);
        st.frozen = Some(frozen.clone());
        st.compacting = true;
        trace::record(t, Stage::Freeze, t0);
        Ok(CompactTask {
            frozen,
            deleted_tree_at_freeze: Arc::clone(&st.deleted_tree),
            old_gen: self.tree.load_full(),
            closed_seq,
        })
    }

    /// Send a freeze task to the background pool (or run it inline,
    /// per config). The background outcome lands in `last_error` /
    /// the failure counter; callers who need it synchronously use
    /// `compact_now`.
    fn dispatch(self: &Arc<Self>, task: Option<CompactTask>) {
        let Some(task) = task else { return };
        if self.cfg.synchronous_compaction {
            let _ = self.run_compaction(task);
        } else {
            let inner = Arc::clone(self);
            rayon::spawn(move || {
                let _ = inner.run_compaction(task);
            });
        }
    }

    /// The supervised compaction body: build off-lock, then either swap
    /// atomically or roll the frozen segment back into the fresh log.
    fn run_compaction(self: &Arc<Self>, task: CompactTask) -> Result<()> {
        let trace_id = trace::maybe_sample();
        let t0 = Instant::now();
        let CompactTask {
            frozen,
            deleted_tree_at_freeze,
            old_gen,
            closed_seq,
        } = task;
        // Build phase — no shared state is touched, so a failure here
        // cannot corrupt anything; the old tree keeps serving.
        let built: Result<TreeGen> = catch_unwind(AssertUnwindSafe(|| -> Result<TreeGen> {
            faultpoint::maybe_fail(points::STORE_COMPACT_BUILD)?;
            let mut pts = PointSet::new(self.dims)?;
            pts.reserve(old_gen.base.len() + frozen.points.len());
            for i in 0..old_gen.base.len() {
                if !deleted_tree_at_freeze.contains(&old_gen.base.id(i)) {
                    pts.push(old_gen.base.point(i), old_gen.base.id(i));
                }
            }
            // The frozen segment is physically clean at freeze time;
            // tombstones laid on it *during* the build are applied via
            // the surviving-tombstone union at swap below.
            pts.append(&frozen.points)?;
            let index = if pts.is_empty() {
                None
            } else {
                Some(KnnIndex::build(&pts, &self.cfg.tree)?)
            };
            Ok(TreeGen {
                index,
                base: Arc::new(pts),
                epoch: old_gen.epoch + 1,
            })
        }))
        .unwrap_or_else(|payload| {
            Err(PandaError::BackendPanicked(format!(
                "compaction build panicked: {}",
                panic_message(&*payload)
            )))
        });

        // Durable stores checkpoint the new generation before the swap,
        // still off the state lock. The new base is by construction the
        // net state of every WAL record in segments ≤ closed_seq, so
        // once the snapshot's atomic rename lands those segments are
        // redundant and are deleted. A failure here (or a crash before
        // the rename) takes the same rollback path as a build failure:
        // the previous snapshot + intact WAL remain the recovery
        // source, and the in-memory rollback keeps the *next* freeze's
        // snapshot equal to its own segment prefix.
        let built = built.and_then(|gen| {
            if let (Some(wal), Some(seq)) = (&self.wal, closed_seq) {
                self.lock_wal(wal).write_snapshot(seq, &gen.base)?;
            }
            Ok(gen)
        });
        trace::record(trace_id, Stage::CompactBuild, t0);

        let outcome = {
            let swap_start = Instant::now();
            let mut st = self.write_state();
            match built.and_then(|gen| {
                faultpoint::maybe_fail(points::STORE_COMPACT_SWAP)?;
                Ok(gen)
            }) {
                Ok(gen) => {
                    // Atomic swap: tree, frozen segment, and tombstone
                    // sets all change under one write lock — a query
                    // snapshot sees either the complete old world or
                    // the complete new one, never a mix.
                    let epoch = gen.epoch;
                    self.tree.store(Arc::new(gen));
                    st.frozen = None;
                    // Tombstones laid after the freeze survive and now
                    // target the new generation (which carried those
                    // points over); resolved ones are dropped.
                    let survivors: HashSet<u64> = st
                        .deleted_tree
                        .iter()
                        .filter(|id| !deleted_tree_at_freeze.contains(*id))
                        .chain(st.deleted_frozen.iter())
                        .copied()
                        .collect();
                    st.deleted_tree = Arc::new(survivors);
                    st.deleted_frozen = Arc::new(HashSet::new());
                    st.compacting = false;
                    self.metrics.record_compaction(t0.elapsed());
                    self.metrics.live_points.set(st.members.len() as u64);
                    self.metrics.log_points.set(st.fresh.len() as u64);
                    trace::record(trace_id, Stage::CompactSwap, swap_start);
                    let _ = epoch;
                    Ok(())
                }
                Err(e) => {
                    // Roll back: splice still-live frozen points into
                    // the front of the fresh log (order does not affect
                    // results — merges sort by (distance, id)). Frozen
                    // tombstones are applied physically right here, so
                    // none can ever target a fresh-log point.
                    let mut restored = PointSet::new(self.dims)?;
                    restored.reserve(frozen.points.len() + st.fresh.len());
                    for i in 0..frozen.points.len() {
                        if !st.deleted_frozen.contains(&frozen.points.id(i)) {
                            restored.push(frozen.points.point(i), frozen.points.id(i));
                        }
                    }
                    restored.append(&st.fresh)?;
                    st.fresh = restored;
                    st.frozen = None;
                    st.deleted_frozen = Arc::new(HashSet::new());
                    st.compacting = false;
                    st.last_error = Some(e.clone());
                    self.metrics.compaction_failures.inc();
                    self.metrics.log_points.set(st.fresh.len() as u64);
                    Err(e)
                }
            }
        };
        // Wake any `quiesce` waiters now that `compacting` is false.
        let _g = self
            .quiesce_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.quiesce_cv.notify_all();
        drop(_g);
        outcome
    }

    /// The merged query path. Exactness: the tree answers with heaps
    /// inflated by the tree tombstone count, the frozen segment with
    /// heaps inflated by its tombstone count, the fresh log exactly;
    /// after filtering tombstones each source still contributes its k
    /// nearest *live* points, so the (distance, id)-sorted merge
    /// truncated to k equals a brute-force scan of the live set.
    fn query(&self, req: &QueryRequest<'_>) -> Result<QueryResponse> {
        let t0 = Instant::now();
        req.validate()?;
        if req.queries().dims() != self.dims {
            return Err(PandaError::DimsMismatch {
                expected: self.dims,
                got: req.queries().dims(),
            });
        }
        // Snapshot under the read lock; all heavy work happens after.
        let (gen, frozen, deleted_tree, deleted_frozen, fresh_packed, fresh_cap, fresh_len) = {
            let st = self.read_state();
            let gen = self.tree.load_full();
            let mut packed = PackedLeaves::new(self.dims);
            let n = st.fresh.len();
            let cap = n.div_ceil(LANE) * LANE;
            if n > 0 {
                packed.push_leaf(n, |i, d| st.fresh.coord(i, d), |i| st.fresh.id(i));
            }
            (
                gen,
                st.frozen.clone(),
                Arc::clone(&st.deleted_tree),
                Arc::clone(&st.deleted_frozen),
                packed,
                cap,
                n,
            )
        };

        let k = req.k();
        let radius_sq = req.radius_sq();
        let n_queries = req.queries().len();

        // Fast path: no log, no tombstones — the tree alone is exact.
        let log_empty = frozen.as_ref().is_none_or(|f| f.points.is_empty()) && fresh_len == 0;
        if log_empty && deleted_tree.is_empty() {
            return match &gen.index {
                Some(index) => index.query_session(req),
                None => {
                    // Empty store: all-empty rows.
                    let mut table = NeighborTable::new();
                    for _ in 0..n_queries {
                        table.push_row(&[]);
                    }
                    let counters = QueryCounters {
                        queries: n_queries as u64,
                        ..QueryCounters::default()
                    };
                    Ok(QueryResponse::local(
                        table,
                        counters,
                        t0.elapsed().as_secs_f64(),
                    ))
                }
            };
        }

        // Tree side, with heaps inflated by the tree tombstone count.
        let k_tree = k + deleted_tree.len();
        let tree_res = match &gen.index {
            Some(index) => {
                let mut treq = QueryRequest::knn(req.queries(), k_tree);
                if let Some(r) = req.radius() {
                    treq = treq.with_radius(r);
                }
                if let Some(o) = req.order() {
                    treq = treq.with_order(o);
                }
                treq = treq.with_bound_mode(req.bound_mode());
                if let Some(p) = req.parallel() {
                    treq = treq.with_parallel(p);
                }
                Some(index.query_session(&treq)?)
            }
            None => None,
        };
        let mut counters = tree_res.as_ref().map(|r| r.counters).unwrap_or_default();
        counters.queries = n_queries as u64;

        // Log side: one fused-kernel scan of the frozen segment (heap
        // inflated by its tombstone count) and one of the fresh log
        // (exact), per query; then a three-way sorted merge.
        let k_frozen = k + deleted_frozen.len();
        let mut frozen_heap = KnnHeap::new(k_frozen.max(1));
        let mut fresh_heap = KnnHeap::new(k.max(1));
        let mut frozen_buf: Vec<Neighbor> = Vec::new();
        let mut fresh_buf: Vec<Neighbor> = Vec::new();
        let mut merged: Vec<Neighbor> = Vec::new();
        let mut table = NeighborTable::with_capacity(n_queries, k);
        for qi in 0..n_queries {
            let q = req.queries().point(qi);
            merged.clear();
            if let Some(r) = &tree_res {
                merged.extend(
                    r.neighbors
                        .row(qi)
                        .iter()
                        .filter(|n| !deleted_tree.contains(&n.id)),
                );
            }
            if let Some(f) = &frozen {
                if !f.points.is_empty() {
                    frozen_heap.reset(k_frozen, radius_sq);
                    let stats = f.packed.scan_and_offer(0, f.cap, q, &mut frozen_heap);
                    counters.points_scanned += f.cap as u64;
                    counters.leaf_kernel_calls += 1;
                    counters.kernel_blocks_pruned += stats.pruned_blocks as u64;
                    counters.heap_ops += stats.accepted as u64;
                    frozen_buf.clear();
                    frozen_heap.append_sorted_into(&mut frozen_buf);
                    merged.extend(
                        frozen_buf
                            .iter()
                            .filter(|n| !deleted_frozen.contains(&n.id)),
                    );
                }
            }
            if fresh_len > 0 {
                fresh_heap.reset(k, radius_sq);
                let stats = fresh_packed.scan_and_offer(0, fresh_cap, q, &mut fresh_heap);
                counters.points_scanned += fresh_cap as u64;
                counters.leaf_kernel_calls += 1;
                counters.kernel_blocks_pruned += stats.pruned_blocks as u64;
                counters.heap_ops += stats.accepted as u64;
                fresh_buf.clear();
                fresh_heap.append_sorted_into(&mut fresh_buf);
                merged.extend_from_slice(&fresh_buf);
            }
            counters.merge_candidates += merged.len() as u64;
            merged.sort_unstable_by(|a, b| {
                a.dist_sq
                    .partial_cmp(&b.dist_sq)
                    .expect("finite distances")
                    .then(a.id.cmp(&b.id))
            });
            merged.truncate(k);
            table.push_row(&merged);
        }
        Ok(QueryResponse::local(
            table,
            counters,
            t0.elapsed().as_secs_f64(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_baselines::BruteForce;

    fn line_store(n: usize, cfg: StoreConfig) -> MutableIndex {
        let store = MutableIndex::new(1, cfg).unwrap();
        for i in 0..n {
            store.insert(&[i as f32], i as u64).unwrap();
        }
        store
    }

    fn ids_of(res: &QueryResponse, row: usize) -> Vec<u64> {
        res.neighbors.row(row).iter().map(|n| n.id).collect()
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let store = line_store(10, StoreConfig::default());
        assert_eq!(store.len(), 10);
        assert_eq!(store.dims(), 1);
        let q = PointSet::from_coords(1, vec![3.2]).unwrap();
        let res = store.query(&QueryRequest::knn(&q, 2)).unwrap();
        assert_eq!(ids_of(&res, 0), vec![3, 4]);
        assert!(store.remove(3).unwrap());
        assert!(!store.remove(3).unwrap(), "already gone");
        let res = store.query(&QueryRequest::knn(&q, 2)).unwrap();
        assert_eq!(
            ids_of(&res, 0),
            vec![4, 2],
            "tombstoned? no: fresh, physical"
        );
        assert_eq!(store.len(), 9);
    }

    #[test]
    fn duplicate_insert_is_rejected_and_reinsert_after_remove_works() {
        let store = line_store(4, StoreConfig::default());
        assert!(matches!(
            store.insert(&[9.0], 2),
            Err(PandaError::DuplicateId { id: 2 })
        ));
        assert!(store.remove(2).unwrap());
        store.insert(&[9.0], 2).unwrap();
        let q = PointSet::from_coords(1, vec![8.8]).unwrap();
        let res = store.query(&QueryRequest::knn(&q, 1)).unwrap();
        assert_eq!(ids_of(&res, 0), vec![2], "re-inserted id at new coords");
    }

    #[test]
    fn compaction_swaps_epoch_and_preserves_results() {
        let cfg = StoreConfig::default()
            .with_compact_points(8)
            .with_synchronous_compaction(true);
        let store = line_store(40, cfg);
        assert!(
            store.epoch() >= 4,
            "epoch {} after 40 inserts",
            store.epoch()
        );
        store.quiesce();
        let stats = store.stats();
        assert_eq!(stats.live_points, 40);
        assert!(stats.compactions >= 4);
        assert_eq!(stats.compaction_failures, 0);
        assert!(stats.compaction_p50_seconds > 0.0);
        let q = PointSet::from_coords(1, vec![17.4, 0.0, 39.0]).unwrap();
        let res = store.query(&QueryRequest::knn(&q, 3)).unwrap();
        assert_eq!(ids_of(&res, 0), vec![17, 18, 16]);
        assert_eq!(ids_of(&res, 1), vec![0, 1, 2]);
        assert_eq!(ids_of(&res, 2), vec![39, 38, 37]);
    }

    #[test]
    fn tombstones_across_compaction_do_not_resurrect() {
        // remove a tree-resident point, then compact: it must stay gone
        let cfg = StoreConfig::default().with_synchronous_compaction(true);
        let store = line_store(10, cfg);
        store.compact_now().unwrap(); // all 10 into the tree
        assert_eq!(store.stats().tree_points, 10);
        assert!(store.remove(5).unwrap());
        assert_eq!(store.stats().deleted, 1);
        let q = PointSet::from_coords(1, vec![5.1]).unwrap();
        let res = store.query(&QueryRequest::knn(&q, 2)).unwrap();
        assert_eq!(ids_of(&res, 0), vec![5 + 1, 4]);
        store.compact_now().unwrap();
        let stats = store.stats();
        assert_eq!(stats.deleted, 0, "tombstone physically resolved");
        assert_eq!(stats.tree_points, 9);
        let res = store.query(&QueryRequest::knn(&q, 2)).unwrap();
        assert_eq!(ids_of(&res, 0), vec![6, 4]);
    }

    #[test]
    fn matches_brute_force_with_mixed_tree_log_and_tombstones() {
        let cfg = StoreConfig::default().with_synchronous_compaction(true);
        let store = MutableIndex::new(3, cfg).unwrap();
        let mut live = Vec::new(); // (id, coords)
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 40) as f32 / 1000.0
        };
        for id in 0..60u64 {
            let p = [next(), next(), next()];
            store.insert(&p, id).unwrap();
            live.push((id, p));
            if id == 30 {
                store.compact_now().unwrap(); // half tree, half log
            }
        }
        for id in [2u64, 17, 31, 55] {
            assert!(store.remove(id).unwrap());
            live.retain(|(i, _)| *i != id);
        }
        let mut oracle_pts = PointSet::new(3).unwrap();
        for (id, p) in &live {
            oracle_pts.push(p, *id);
        }
        let brute = BruteForce::new(&oracle_pts);
        let queries = PointSet::from_coords(3, (0..30).map(|_| next()).collect()).unwrap();
        let req = QueryRequest::knn(&queries, 5);
        let got = store.query(&req).unwrap();
        for i in 0..queries.len() {
            let want = brute.query(queries.point(i), 5).unwrap();
            let g: Vec<f32> = got.neighbors.row(i).iter().map(|n| n.dist_sq).collect();
            let w: Vec<f32> = want.iter().map(|n| n.dist_sq).collect();
            assert_eq!(g, w, "query {i}: distances must be bit-identical");
        }
    }

    #[test]
    fn radius_queries_merge_exactly() {
        let store = line_store(20, StoreConfig::default().with_synchronous_compaction(true));
        store.compact_now().unwrap();
        for i in 20..25 {
            store.insert(&[i as f32], i as u64).unwrap(); // stays in log
        }
        store.remove(21).unwrap();
        store.remove(10).unwrap();
        let q = PointSet::from_coords(1, vec![20.2]).unwrap();
        let res = store
            .query(&QueryRequest::knn(&q, 10).with_radius(2.0))
            .unwrap();
        // within (20.2 ± 2.0): 19, 20, 22 (21 and nothing else removed)
        assert_eq!(ids_of(&res, 0), vec![20, 19, 22]);
    }

    #[test]
    fn empty_store_answers_empty_rows() {
        let store = MutableIndex::new(2, StoreConfig::default()).unwrap();
        let q = PointSet::from_coords(2, vec![0.0, 0.0]).unwrap();
        let res = store.query(&QueryRequest::knn(&q, 3)).unwrap();
        assert_eq!(res.len(), 1);
        assert!(res.neighbors.row(0).is_empty());
        assert!(store.is_empty());
        assert!(!store.remove(7).unwrap());
    }

    #[test]
    fn deleted_only_compaction_triggers_on_threshold() {
        let cfg = StoreConfig::default()
            .with_max_deleted(3)
            .with_synchronous_compaction(true);
        let store = line_store(10, cfg);
        store.compact_now().unwrap();
        let e0 = store.epoch();
        store.remove(1).unwrap();
        store.remove(2).unwrap();
        assert_eq!(store.stats().deleted, 2);
        store.remove(3).unwrap(); // hits max_deleted => compacts
        store.quiesce();
        assert!(store.epoch() > e0);
        assert_eq!(store.stats().deleted, 0);
        assert_eq!(store.stats().tree_points, 7);
    }

    struct TmpDir(std::path::PathBuf);

    impl TmpDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "panda-store-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TmpDir(dir)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn durable_store_survives_reopen() {
        let tmp = TmpDir::new("reopen");
        let cfg = StoreConfig::default().with_synchronous_compaction(true);
        {
            let store = MutableIndex::open(&tmp.0, 1, cfg.clone()).unwrap();
            assert!(store.is_durable());
            for i in 0..10 {
                store.insert(&[i as f32], i as u64).unwrap();
            }
            store.remove(3).unwrap();
            let stats = store.stats();
            assert!(stats.durable);
            assert_eq!(stats.wal_appends, 11);
            assert_eq!(stats.wal_bytes, stats.wal_synced_bytes, "PerWrite");
            // No clean shutdown: recovery must come from the WAL alone.
        }
        let store = MutableIndex::open(&tmp.0, 1, cfg).unwrap();
        assert_eq!(store.len(), 9);
        let q = PointSet::from_coords(1, vec![3.2]).unwrap();
        let res = store.query(&QueryRequest::knn(&q, 2)).unwrap();
        assert_eq!(ids_of(&res, 0), vec![4, 2], "3 stays removed");
        assert!(matches!(
            store.insert(&[0.5], 5),
            Err(PandaError::DuplicateId { id: 5 })
        ));
    }

    #[test]
    fn durable_store_compaction_checkpoints_and_truncates_wal() {
        let tmp = TmpDir::new("checkpoint");
        let cfg = StoreConfig::default()
            .with_compact_points(8)
            .with_synchronous_compaction(true);
        {
            let store = MutableIndex::open(&tmp.0, 1, cfg.clone()).unwrap();
            for i in 0..20 {
                store.insert(&[i as f32], i as u64).unwrap();
            }
            store.quiesce();
            let stats = store.stats();
            assert!(stats.snapshots_written >= 1, "{stats:?}");
            assert!(stats.snapshot_seq >= 1);
            assert_eq!(stats.wal_segments, 1, "absorbed segments are deleted");
        }
        let store = MutableIndex::open(&tmp.0, 1, cfg).unwrap();
        assert_eq!(store.len(), 20);
        assert!(store.stats().tree_points >= 8, "snapshot seeded the tree");
        let q = PointSet::from_coords(1, vec![17.4]).unwrap();
        let res = store.query(&QueryRequest::knn(&q, 3)).unwrap();
        assert_eq!(ids_of(&res, 0), vec![17, 18, 16]);
    }

    #[test]
    fn durable_store_explicit_sync_flushes_batched_policy() {
        use crate::config::FsyncPolicy;
        let tmp = TmpDir::new("sync");
        let cfg = StoreConfig::default().with_fsync(FsyncPolicy::OnCompaction);
        let store = MutableIndex::open(&tmp.0, 1, cfg).unwrap();
        for i in 0..5 {
            store.insert(&[i as f32], i as u64).unwrap();
        }
        let stats = store.stats();
        assert!(stats.wal_synced_bytes < stats.wal_bytes);
        store.sync().unwrap();
        let stats = store.stats();
        assert_eq!(stats.wal_synced_bytes, stats.wal_bytes);
    }

    #[test]
    fn in_memory_store_reports_no_durability() {
        let store = line_store(3, StoreConfig::default());
        assert!(!store.is_durable());
        store.sync().unwrap();
        let stats = store.stats();
        assert!(!stats.durable);
        assert_eq!(stats.wal_appends, 0);
    }

    #[test]
    fn through_nn_backend_build() {
        let ps = PointSet::from_coords(2, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]).unwrap();
        let backend = <MutableIndex as NnBackend>::build(&ps, &TreeConfig::default()).unwrap();
        assert_eq!(backend.name(), "panda-store");
        assert_eq!(backend.len(), 3);
        let q = PointSet::from_coords(2, vec![1.1, 1.1]).unwrap();
        let res = backend.query(&QueryRequest::knn(&q, 1)).unwrap();
        assert_eq!(ids_of(&res, 0), vec![1]);
    }
}
