//! The closed-loop read generator shared by the service workloads, and
//! the service-layer metrics both derive from it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use panda_core::engine::QueryRequest;
use panda_core::{Neighbor, PointSet};
use panda_service::{ServiceHandle, ServiceStats, Ticket};

use crate::layers::Layers;
use crate::report::{mean, median, quantile, ratio};
use crate::timed::Call;
use crate::K;

struct Pending {
    ticket: Ticket,
    start: Instant,
    id: u64,
    coords: Vec<f32>,
    tag: u64,
}

/// One finished request.
pub struct Done {
    pub coords: Vec<f32>,
    /// Caller-chosen label given at submission.
    pub tag: u64,
    pub start: Instant,
    pub end: Instant,
    /// The reply row, when the caller asked to keep it.
    pub row: Option<Vec<Neighbor>>,
}

/// When one answered request was submitted and when its reply was seen.
#[derive(Clone, Copy)]
pub struct Completion {
    pub start: Instant,
    pub end: Instant,
}

impl Completion {
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// A fixed number of outstanding single-query tickets, waited in
/// submission order.
pub struct ClosedLoop {
    handle: ServiceHandle,
    dims: usize,
    pub depth: usize,
    inflight: VecDeque<Pending>,
    next_id: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Every answered request, in completion order.
    pub completions: Vec<Completion>,
}

impl ClosedLoop {
    pub fn new(handle: ServiceHandle, dims: usize, depth: usize) -> Self {
        Self {
            handle,
            dims,
            depth,
            inflight: VecDeque::with_capacity(depth),
            next_id: 0,
            attempted: 0,
            failed: 0,
            completions: Vec::new(),
        }
    }

    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// Submit one k-NN query; a refused submission counts as failed.
    pub fn submit(&mut self, coords: Vec<f32>, tag: u64) {
        self.attempted += 1;
        let id = self.next_id;
        self.next_id += 1;
        let queries = PointSet::from_coords(self.dims, coords.clone())
            .expect("generated coordinates are finite and shaped");
        let start = Instant::now();
        match self.handle.submit(&QueryRequest::knn(&queries, K)) {
            Ok(ticket) => self.inflight.push_back(Pending {
                ticket,
                start,
                id,
                coords,
                tag,
            }),
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("perfbench: submit refused: {e}");
                }
                self.failed += 1;
            }
        }
    }

    /// Wait for the oldest outstanding ticket. `keep_row` decides from
    /// the request id whether its reply row is copied out.
    pub fn complete_oldest(&mut self, keep_row: impl Fn(u64) -> bool) -> Option<Done> {
        let p = self.inflight.pop_front()?;
        let reply = p.ticket.wait();
        let end = Instant::now();
        match reply {
            Ok(reply) => {
                self.completions.push(Completion {
                    start: p.start,
                    end,
                });
                Some(Done {
                    row: keep_row(p.id).then(|| reply.row(0).to_vec()),
                    coords: p.coords,
                    tag: p.tag,
                    start: p.start,
                    end,
                })
            }
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("perfbench: request failed: {e}");
                }
                self.failed += 1;
                None
            }
        }
    }

    pub fn latency_us(&self) -> Vec<f64> {
        self.completions.iter().map(Completion::us).collect()
    }
}

/// Length of one measurement window.
const WINDOW: Duration = Duration::from_millis(500);

/// Median read latency as the median over the whole `WINDOW`s in
/// `[start, start + budget)` of each window's median: a stall on a
/// shared host spoils a few windows, not the run.
pub fn windowed_p50(completions: &[Completion], start: Instant, budget: Duration) -> f64 {
    let n = ((budget.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    for c in completions {
        let w = ((c.end - start).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if let Some(bucket) = lat.get_mut(w) {
            bucket.push(c.us());
        }
    }
    median(&lat.iter().map(|l| quantile(l, 0.50)).collect::<Vec<_>>())
}

/// Service-layer metrics of one traced phase: `calls` are the timed
/// backend calls, `latency_us` the request latencies, `wall_s` the
/// phase's wall time.
pub fn service_layers(
    layers: &mut Layers,
    stats: &ServiceStats,
    calls: &[Call],
    latency_us: &[f64],
    wall_s: f64,
) {
    let call_us: Vec<f64> = calls.iter().map(|c| c.seconds() * 1e6).collect();
    layers.service_batch_size_mean = stats.mean_batch_size();
    layers.service_backend_busy_frac = ratio(call_us.iter().sum::<f64>() / 1e6, wall_s);
    layers.service_overhead_us = mean(latency_us) - mean(&call_us);
    layers.service_request_us_p99 = quantile(latency_us, 0.99);
    layers.service_queue_depth_max = stats.max_queue_depth as f64;
    layers.service_rejected = stats.rejected as f64;
    layers.service_deadline_exceeded = stats.deadline_exceeded as f64;
}
