//! PR 9 durability evidence — write-path overhead of the WAL and the
//! recovery-time-vs-WAL-length curve.
//!
//! Part A answers "what does durability cost per acknowledged write?":
//! the same insert stream runs against an in-memory store and against
//! durable stores under each [`FsyncPolicy`] — `PerWrite` (fsync every
//! append: zero loss window), `EveryN(64)` (batched fsync), and
//! `OnCompaction` (fsync only at checkpoints). Each durable mode is
//! `sync`'d, dropped, and reopened, gating that recovery restores every
//! acknowledged write.
//!
//! Part B answers "how long does a cold open take?": stores are loaded
//! to increasing WAL lengths (compaction disabled so the whole history
//! is replayed), dropped, and reopened under a timer; then the longest
//! one is compacted and reopened again to show the snapshot
//! checkpointing that keeps real recovery times flat.
//!
//! Writes `BENCH_PR9.json` (override with `--out`); `--smoke` shrinks
//! every dimension for CI. Timings on shared runners are informational;
//! the only non-smoke gate is a very conservative replay-rate floor.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use panda_bench::load::quantile;
use panda_bench::Args;
use panda_core::PointSet;
use panda_data::uniform;
use panda_store::{FsyncPolicy, MutableIndex, StoreConfig};

/// Scratch directory under the system temp dir, wiped before use and
/// removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("panda-bench-pr9-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Insert every point of `pts`, returning (wall seconds, sorted per-op
/// latencies).
fn drive_inserts(store: &MutableIndex, pts: &PointSet) -> (f64, Vec<f64>) {
    let mut lat = Vec::with_capacity(pts.len());
    let t0 = Instant::now();
    for i in 0..pts.len() {
        let t = Instant::now();
        store.insert(pts.point(i), pts.id(i)).expect("insert");
        lat.push(t.elapsed().as_secs_f64());
    }
    let wall = t0.elapsed().as_secs_f64();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (wall, lat)
}

struct ModeRow {
    name: &'static str,
    inserts_per_sec: f64,
    p50_us: f64,
    p999_us: f64,
    fsyncs: u64,
}

fn main() {
    let args = Args::from_env();
    let smoke = args.switch("smoke");
    let out_path = args.string("out", "BENCH_PR9.json");
    let dims = args.usize("dims", 8);
    let n_writes = args.usize("writes", if smoke { 500 } else { 4_000 });

    // Compaction disabled throughout: Part A isolates the pure write
    // path (no background rebuild jitter), Part B needs the whole
    // history resident in the WAL so reopen really replays it.
    let cfg = StoreConfig::default().with_compact_points(usize::MAX);
    let pts = uniform::generate(n_writes, dims, 1.0, 42);

    println!(
        "bench_pr9: {n_writes} inserts, {dims}-D, compaction disabled{}",
        if smoke { " [smoke]" } else { "" }
    );

    // ---- Part A: write-path overhead per fsync policy ----------------
    println!("\npart A: acknowledged-write cost (in-memory vs WAL per policy)");
    let mut rows: Vec<ModeRow> = Vec::new();

    // baseline: no WAL at all
    {
        let store = MutableIndex::from_points(&PointSet::new(dims).expect("dims"), cfg.clone())
            .expect("store");
        let (wall, lat) = drive_inserts(&store, &pts);
        rows.push(ModeRow {
            name: "in-memory",
            inserts_per_sec: n_writes as f64 / wall,
            p50_us: quantile(&lat, 0.5) * 1e6,
            p999_us: quantile(&lat, 0.999) * 1e6,
            fsyncs: 0,
        });
    }

    for (name, policy) in [
        ("wal-per-write", FsyncPolicy::PerWrite),
        ("wal-every-64", FsyncPolicy::EveryN(64)),
        ("wal-on-compaction", FsyncPolicy::OnCompaction),
    ] {
        let tmp = TmpDir::new(name);
        let store =
            MutableIndex::open(&tmp.0, dims, cfg.clone().with_fsync(policy)).expect("open durable");
        let (wall, lat) = drive_inserts(&store, &pts);
        // a planned shutdown under a batched policy: force the tail out
        store.sync().expect("sync");
        let fsyncs = store.stats().wal_fsyncs;
        drop(store);
        // gate: every acknowledged (and now synced) write survives reopen
        let reopened = MutableIndex::open(&tmp.0, dims, cfg.clone()).expect("reopen");
        assert_eq!(
            reopened.stats().live_points,
            n_writes,
            "{name}: recovery lost acknowledged writes"
        );
        rows.push(ModeRow {
            name,
            inserts_per_sec: n_writes as f64 / wall,
            p50_us: quantile(&lat, 0.5) * 1e6,
            p999_us: quantile(&lat, 0.999) * 1e6,
            fsyncs,
        });
    }

    for r in &rows {
        println!(
            "  {:<18} {:>9.0} inserts/s   p50 {:>7.1}µs  p999 {:>8.1}µs   {} fsyncs",
            r.name, r.inserts_per_sec, r.p50_us, r.p999_us, r.fsyncs
        );
    }

    // ---- Part B: recovery time vs WAL length -------------------------
    println!("\npart B: cold-open time vs WAL length (pure replay, no snapshot)");
    let wal_lens: Vec<usize> = if smoke {
        vec![500, 2_000]
    } else {
        vec![2_000, 8_000, 32_000]
    };
    // EveryN keeps the load phase fast; recovery replays the same
    // records regardless of how they were fsynced.
    let load_cfg = cfg.clone().with_fsync(FsyncPolicy::EveryN(256));
    let mut curve: Vec<(usize, u64, f64)> = Vec::new(); // (records, wal bytes, seconds)
    let mut snapshot_recovery = (0usize, 0.0f64);
    for (li, &len) in wal_lens.iter().enumerate() {
        let tmp = TmpDir::new(&format!("curve-{len}"));
        let load = uniform::generate(len, dims, 1.0, 9_000 + len as u64);
        let store = MutableIndex::open(&tmp.0, dims, load_cfg.clone()).expect("open");
        for i in 0..load.len() {
            store.insert(load.point(i), load.id(i)).expect("insert");
        }
        store.sync().expect("sync");
        let wal_bytes = store.stats().wal_bytes;
        drop(store);

        let t0 = Instant::now();
        let reopened = MutableIndex::open(&tmp.0, dims, load_cfg.clone()).expect("replay");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(reopened.stats().live_points, len);
        assert_eq!(reopened.stats().snapshot_seq, 0, "no snapshot yet");
        curve.push((len, wal_bytes, secs));
        println!(
            "  {len:>7} records  {:>9} WAL bytes  reopen {:>8.2} ms  ({:>9.0} records/s)",
            wal_bytes,
            secs * 1e3,
            len as f64 / secs
        );

        // longest run: checkpoint, then show the snapshot-backed reopen
        if li == wal_lens.len() - 1 {
            reopened.compact_now().expect("compact");
            drop(reopened);
            let t0 = Instant::now();
            let snap = MutableIndex::open(&tmp.0, dims, load_cfg.clone()).expect("snapshot open");
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(snap.stats().live_points, len);
            assert!(snap.stats().snapshot_seq > 0, "compaction checkpointed");
            snapshot_recovery = (len, secs);
            println!(
                "  {len:>7} records  after compaction: snapshot-backed reopen {:>8.2} ms",
                secs * 1e3
            );
        }
    }

    // ---- JSON --------------------------------------------------------
    let mut json = String::from(
        "{\n  \"bench\": \"WAL write-path overhead + recovery-time-vs-WAL-length (PR 9)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"dims\": {dims}, \"writes\": {n_writes}, \"smoke\": {smoke},"
    );
    let _ = writeln!(json, "  \"write_path\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"inserts_per_sec\": {:.1}, \"p50_us\": {:.2}, \"p999_us\": {:.2}, \"fsyncs\": {}}}{}",
            r.name,
            r.inserts_per_sec,
            r.p50_us,
            r.p999_us,
            r.fsyncs,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"recovery_curve\": [");
    for (i, (len, bytes, secs)) in curve.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"records\": {len}, \"wal_bytes\": {bytes}, \"reopen_seconds\": {secs:.6}}}{}",
            if i + 1 < curve.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"snapshot_reopen\": {{\"records\": {}, \"reopen_seconds\": {:.6}}}",
        snapshot_recovery.0, snapshot_recovery.1
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_PR9.json");
    println!("\nwrote {out_path}");

    // Regression gate on the full run only: WAL replay is a sequential
    // read + in-memory rebuild, so even slow disks clear this floor by
    // orders of magnitude; falling under it means recovery went
    // accidentally quadratic (e.g. re-fsyncing per replayed record).
    if !smoke {
        let (len, _, secs) = *curve.last().expect("curve");
        let rate = len as f64 / secs;
        assert!(
            rate >= 20_000.0,
            "WAL replay rate collapsed: {rate:.0} records/s"
        );
    }
}
