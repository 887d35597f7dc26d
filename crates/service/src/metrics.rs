//! Service observability: lock-free counters (including the robustness
//! set: deadline sheds, cancellations, scheduler restarts, abandoned
//! tickets), a batch-size histogram, and a latency histogram with
//! quantile readout, all surfaced as a [`ServiceStats`] snapshot the way distributed
//! responses surface `QueryBreakdown`.
//!
//! Since the `panda_obs` unification the live cells are shared
//! [`panda_obs`] handles registered under `service.*` names in the
//! service's own [`Registry`] — [`ServiceStats`] is a cheap view over
//! the same cells that `ServiceHandle::telemetry` exposes, so there is
//! exactly one source of truth.

use std::time::Duration;

use panda_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

/// Power-of-two batch-size buckets: bucket `i` counts batches of
/// `2^i ..= 2^(i+1) - 1` query points (bucket 0 is size 1).
pub const BATCH_BUCKETS: usize = 21;

/// Power-of-two latency buckets: bucket `i` counts requests that
/// resolved in `2^i ..= 2^(i+1) - 1` nanoseconds (~36 minutes tops).
pub const LATENCY_BUCKETS: usize = 41;

/// Live metric handles updated by submitters and the scheduler, all
/// registered in the service's `panda_obs` [`Registry`].
#[derive(Debug)]
pub(crate) struct Metrics {
    pub registry: Registry,
    pub submitted: Counter,
    pub queries: Counter,
    pub rejected: Counter,
    pub batches: Counter,
    pub deadline_exceeded: Counter,
    pub cancelled: Counter,
    pub scheduler_restarts: Counter,
    pub abandoned: Counter,
    pub queue_depth: Gauge,
    pub max_queue_depth: Gauge,
    batch_hist: Histogram,
    latency_hist: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        Self {
            submitted: registry.counter("service.submitted"),
            queries: registry.counter("service.queries"),
            rejected: registry.counter("service.rejected"),
            batches: registry.counter("service.batches"),
            deadline_exceeded: registry.counter("service.deadline_exceeded"),
            cancelled: registry.counter("service.cancelled"),
            scheduler_restarts: registry.counter("service.scheduler_restarts"),
            abandoned: registry.counter("service.abandoned"),
            queue_depth: registry.gauge("service.queue_depth"),
            max_queue_depth: registry.gauge("service.queue_depth_max"),
            batch_hist: registry.histogram("service.batch_size", BATCH_BUCKETS),
            latency_hist: registry.histogram("service.latency_ns", LATENCY_BUCKETS),
            registry,
        }
    }

    pub(crate) fn record_batch(&self, queries: usize) {
        self.batches.inc();
        self.batch_hist.record(queries as u64);
    }

    /// Record a submit→resolve latency.
    pub(crate) fn record_latency(&self, waited: Duration) {
        let ns = waited.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.latency_hist.record(ns);
    }

    /// Track the current queued query-point count; remembers the high
    /// water mark.
    pub(crate) fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as u64);
        self.max_queue_depth.set_max(depth as u64);
    }

    pub(crate) fn snapshot(&self) -> ServiceStats {
        let batch = self.batch_hist.snapshot();
        let latency = self.latency_hist.snapshot();
        ServiceStats {
            submitted: self.submitted.get(),
            queries: self.queries.get(),
            rejected: self.rejected.get(),
            batches: self.batches.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            cancelled: self.cancelled.get(),
            scheduler_restarts: self.scheduler_restarts.get(),
            abandoned: self.abandoned.get(),
            queue_depth: self.queue_depth.get() as usize,
            max_queue_depth: self.max_queue_depth.get() as usize,
            batch_hist: std::array::from_fn(|i| batch.counts[i]),
            latency_hist: std::array::from_fn(|i| latency.counts[i]),
            latency_sum_seconds: latency.sum as f64 * 1e-9,
        }
    }
}

/// Point-in-time snapshot of a service's counters (cheap to take; the
/// live counters are relaxed atomics).
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceStats {
    /// Accepted `submit` calls.
    pub submitted: u64,
    /// Query points accepted across all submissions.
    pub queries: u64,
    /// Submissions rejected with `Overloaded`.
    pub rejected: u64,
    /// Micro-batches dispatched to the backend.
    pub batches: u64,
    /// Submissions shed at flush time because their
    /// [`deadline`](panda_core::engine::QueryRequest::with_deadline) had
    /// already expired; resolved with `PandaError::DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Submissions detached via `Ticket::cancel` and reclaimed at flush
    /// time; resolved with `PandaError::Cancelled`.
    pub cancelled: u64,
    /// Times the supervisor restarted the scheduler thread after a
    /// panic escaped the scheduler loop.
    pub scheduler_restarts: u64,
    /// Tickets whose client dropped the handle before the reply arrived
    /// (e.g. after a `wait_timeout` miss); the reply was discarded.
    pub abandoned: u64,
    /// Query points queued at snapshot time.
    pub queue_depth: usize,
    /// Largest queued query-point count ever observed.
    pub max_queue_depth: usize,
    /// Batch-size histogram: bucket `i` counts batches of
    /// `2^i ..= 2^(i+1) - 1` query points.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Request-latency histogram (submit → ticket resolved): bucket `i`
    /// counts requests in `2^i ..= 2^(i+1) - 1` nanoseconds.
    pub latency_hist: [u64; LATENCY_BUCKETS],
    /// Sum of all request latencies, for means.
    pub latency_sum_seconds: f64,
}

impl ServiceStats {
    /// Requests resolved so far (latency histogram total).
    pub fn resolved(&self) -> u64 {
        self.latency_hist.iter().sum()
    }

    /// Mean query points per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }

    /// Mean submit→resolve latency in seconds.
    pub fn mean_latency_seconds(&self) -> f64 {
        let n = self.resolved();
        if n == 0 {
            0.0
        } else {
            self.latency_sum_seconds / n as f64
        }
    }

    /// Latency quantile in seconds (`q` in `[0, 1]`), reported as the
    /// upper edge of the histogram bucket containing the quantile —
    /// conservative to within the 2× bucket resolution.
    pub fn latency_quantile_seconds(&self, q: f64) -> f64 {
        hist_quantile_seconds(&self.latency_hist, q)
    }

    /// Median submit→resolve latency (seconds, bucket-resolution).
    pub fn p50_latency_seconds(&self) -> f64 {
        self.latency_quantile_seconds(0.50)
    }

    /// 99th-percentile submit→resolve latency (seconds,
    /// bucket-resolution).
    pub fn p99_latency_seconds(&self) -> f64 {
        self.latency_quantile_seconds(0.99)
    }

    /// 99.9th-percentile submit→resolve latency (seconds,
    /// bucket-resolution) — the tail the robustness work watches.
    pub fn p999_latency_seconds(&self) -> f64 {
        self.latency_quantile_seconds(0.999)
    }
}

/// Walk a power-of-two latency histogram to the bucket containing
/// quantile `q` and report that bucket's upper edge in seconds (the
/// shared `panda_obs` quantile math).
fn hist_quantile_seconds(hist: &[u64], q: f64) -> f64 {
    HistogramSnapshot {
        counts: hist.to_vec(),
        sum: 0,
    }
    .quantile_seconds(q.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_obs::pow2_bucket;

    #[test]
    fn pow2_buckets_cover_the_range() {
        assert_eq!(pow2_bucket(0, 8), 0);
        assert_eq!(pow2_bucket(1, 8), 0);
        assert_eq!(pow2_bucket(2, 8), 1);
        assert_eq!(pow2_bucket(3, 8), 1);
        assert_eq!(pow2_bucket(4, 8), 2);
        assert_eq!(pow2_bucket(u64::MAX, 8), 7, "clamped to the last bucket");
    }

    #[test]
    fn batch_and_latency_metrics_accumulate() {
        let m = Metrics::new();
        m.record_batch(1);
        m.record_batch(64);
        m.record_batch(65);
        m.record_latency(Duration::from_micros(10));
        m.record_latency(Duration::from_micros(10));
        m.record_latency(Duration::from_millis(5));
        m.set_queue_depth(7);
        m.set_queue_depth(3);
        let s = m.snapshot();
        assert_eq!(s.batches, 3);
        assert_eq!(s.batch_hist[0], 1); // size 1
        assert_eq!(s.batch_hist[6], 2); // sizes 64..=127
        assert_eq!(s.resolved(), 3);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.max_queue_depth, 7);
        assert!(s.mean_latency_seconds() > 0.0);
    }

    #[test]
    fn p999_separates_the_extreme_tail() {
        let m = Metrics::new();
        // 1 straggler in 501: beyond the 99.9th percentile, inside 99th
        for _ in 0..500 {
            m.record_latency(Duration::from_nanos(1000));
        }
        m.record_latency(Duration::from_millis(8));
        let s = m.snapshot();
        assert!((s.p99_latency_seconds() - 1023e-9).abs() < 1e-12);
        assert!(s.p999_latency_seconds() >= 8e-3, "p999 sees the straggler");
    }

    #[test]
    fn robustness_counters_round_trip_through_snapshots() {
        let m = Metrics::new();
        m.deadline_exceeded.add(2);
        m.cancelled.add(3);
        m.scheduler_restarts.inc();
        m.abandoned.add(4);
        let s = m.snapshot();
        assert_eq!(s.deadline_exceeded, 2);
        assert_eq!(s.cancelled, 3);
        assert_eq!(s.scheduler_restarts, 1);
        assert_eq!(s.abandoned, 4);
    }

    #[test]
    fn quantiles_are_conservative_bucket_edges() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record_latency(Duration::from_nanos(1000)); // bucket 9 (512..1023)
        }
        m.record_latency(Duration::from_nanos(1 << 20));
        let s = m.snapshot();
        let p50 = s.p50_latency_seconds();
        // upper edge of the 1000ns bucket: 2^10 - 1 ns
        assert!((p50 - 1023e-9).abs() < 1e-12, "p50={p50}");
        let p99 = s.p99_latency_seconds();
        assert!(
            (p99 - 1023e-9).abs() < 1e-12,
            "p99 stays in the fast bucket"
        );
        assert!(
            s.latency_quantile_seconds(1.0) >= 1e-3,
            "max sees the slow one"
        );
        // empty histogram
        assert_eq!(Metrics::new().snapshot().p99_latency_seconds(), 0.0);
    }

    #[test]
    fn registry_view_matches_stats_view() {
        let m = Metrics::new();
        m.submitted.add(5);
        m.record_batch(16);
        m.record_latency(Duration::from_micros(3));
        let snap = m.registry.snapshot();
        let stats = m.snapshot();
        assert_eq!(snap.counter("service.submitted"), Some(stats.submitted));
        assert_eq!(
            snap.histogram("service.batch_size").unwrap().total(),
            stats.batches
        );
        assert_eq!(
            snap.histogram("service.latency_ns").unwrap().total(),
            stats.resolved()
        );
    }
}
