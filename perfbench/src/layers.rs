//! The per-layer metric set every traced run prints (a layer the
//! workload does not execute reads 0).

use panda_core::local_tree::LANE;
use panda_core::QueryCounters;

use crate::report::{ratio, Outcome};

#[derive(Default)]
pub struct Layers {
    pub local_tree_build_s: f64,
    pub local_tree_query_us: f64,
    pub local_tree_call_us_p99: f64,
    pub points_scanned_per_query: f64,
    pub nodes_visited_per_query: f64,
    pub blocks_pruned_frac: f64,
    pub computed_bytes_per_query: f64,
    pub sharded_build_s: f64,
    pub sharded_call_us_p50: f64,
    pub sharded_call_us_p99: f64,
    pub sharded_queries_per_call: f64,
    pub sharded_remote_fanout: f64,
    pub comm_bytes_per_query: f64,
    pub comm_msgs_per_query: f64,
    pub sharded_restarts: f64,
    pub service_batch_size_mean: f64,
    pub service_backend_busy_frac: f64,
    pub service_overhead_us: f64,
    pub service_request_us_p99: f64,
    pub service_queue_depth_max: f64,
    pub service_rejected: f64,
    pub service_deadline_exceeded: f64,
    pub store_recover_s: f64,
    pub store_query_us: f64,
    pub store_log_points_mean: f64,
    pub store_tombstones_mean: f64,
    pub store_insert_us_p50: f64,
    pub store_remove_us_p50: f64,
    pub store_write_p99_us: f64,
    pub store_wal_fsyncs_per_write: f64,
    pub store_wal_bytes_per_user_byte: f64,
    pub store_compactions: f64,
    pub store_compaction_ms_p50: f64,
    pub obs_trace_overhead_frac: f64,
}

impl Layers {
    /// Traversal work per query from the counters a response carries.
    /// Computed bytes are `QueryCounters::mem_bytes`: a count of the
    /// coordinates and nodes the traversal touched, not a measured
    /// memory transfer.
    pub fn set_counters(&mut self, c: &QueryCounters, dims: usize) {
        let q = c.queries as f64;
        self.points_scanned_per_query = ratio(c.points_scanned as f64, q);
        self.nodes_visited_per_query = ratio(c.nodes_visited as f64, q);
        self.blocks_pruned_frac = ratio(
            c.kernel_blocks_pruned as f64,
            c.points_scanned as f64 / LANE as f64,
        );
        self.computed_bytes_per_query = ratio(c.mem_bytes(dims), q);
    }

    /// `1 − traced / untraced` query throughput.
    pub fn set_trace_overhead(&mut self, untraced_qps: f64, traced_qps: f64) {
        self.obs_trace_overhead_frac = 1.0 - ratio(traced_qps, untraced_qps);
    }

    pub fn push_into(&self, out: &mut Outcome) {
        let rows: [(&'static str, f64, &'static str); 34] = [
            ("local_tree.build_s", self.local_tree_build_s, "s"),
            ("local_tree.query_us", self.local_tree_query_us, "us"),
            ("local_tree.call_us_p99", self.local_tree_call_us_p99, "us"),
            (
                "local_tree.points_scanned_per_query",
                self.points_scanned_per_query,
                "count",
            ),
            (
                "local_tree.nodes_visited_per_query",
                self.nodes_visited_per_query,
                "count",
            ),
            (
                "local_tree.blocks_pruned_frac",
                self.blocks_pruned_frac,
                "ratio",
            ),
            (
                "local_tree.computed_bytes_per_query",
                self.computed_bytes_per_query,
                "bytes",
            ),
            ("sharded.build_s", self.sharded_build_s, "s"),
            ("sharded.call_us_p50", self.sharded_call_us_p50, "us"),
            ("sharded.call_us_p99", self.sharded_call_us_p99, "us"),
            (
                "sharded.queries_per_call",
                self.sharded_queries_per_call,
                "count",
            ),
            ("sharded.remote_fanout", self.sharded_remote_fanout, "count"),
            ("comm.bytes_per_query", self.comm_bytes_per_query, "bytes"),
            ("comm.msgs_per_query", self.comm_msgs_per_query, "count"),
            ("sharded.restarts", self.sharded_restarts, "count"),
            (
                "service.batch_size_mean",
                self.service_batch_size_mean,
                "count",
            ),
            (
                "service.backend_busy_frac",
                self.service_backend_busy_frac,
                "ratio",
            ),
            ("service.overhead_us", self.service_overhead_us, "us"),
            ("service.request_us_p99", self.service_request_us_p99, "us"),
            (
                "service.queue_depth_max",
                self.service_queue_depth_max,
                "count",
            ),
            ("service.rejected", self.service_rejected, "count"),
            (
                "service.deadline_exceeded",
                self.service_deadline_exceeded,
                "count",
            ),
            ("store.recover_s", self.store_recover_s, "s"),
            ("store.query_us", self.store_query_us, "us"),
            ("store.log_points_mean", self.store_log_points_mean, "count"),
            ("store.tombstones_mean", self.store_tombstones_mean, "count"),
            ("store.insert_us_p50", self.store_insert_us_p50, "us"),
            ("store.remove_us_p50", self.store_remove_us_p50, "us"),
            ("store.write_p99_us", self.store_write_p99_us, "us"),
            (
                "store.wal.fsyncs_per_write",
                self.store_wal_fsyncs_per_write,
                "count",
            ),
            (
                "store.wal.bytes_per_user_byte",
                self.store_wal_bytes_per_user_byte,
                "ratio",
            ),
            ("store.compactions", self.store_compactions, "count"),
            (
                "store.compaction_ms_p50",
                self.store_compaction_ms_p50,
                "ms",
            ),
            (
                "obs.trace_overhead_frac",
                self.obs_trace_overhead_frac,
                "ratio",
            ),
        ];
        for (name, value, unit) in rows {
            out.push(name, value, unit);
        }
    }
}
