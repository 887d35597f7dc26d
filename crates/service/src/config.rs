//! Service tuning knobs: flush triggers, queue bounds, overflow policy.

use std::time::Duration;

use panda_core::{PandaError, Result};

/// What `submit` does when the bounded queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the submitting thread until queue space frees up — natural
    /// backpressure for in-process clients that can afford to wait.
    #[default]
    Block,
    /// Fail fast with [`PandaError::Overloaded`] so the caller can shed
    /// load, retry with backoff, or divert traffic.
    Reject,
}

/// Builder-style configuration for a [`crate::QueryService`].
///
/// The two flush triggers implement dynamic micro-batching: a batch is
/// dispatched as soon as **either** `max_batch` query points have
/// accumulated **or** the oldest queued submission has waited
/// `max_delay`. Small `max_delay` bounds tail latency under light load;
/// `max_batch` bounds memory and keeps heavy load flowing in
/// locality-friendly chunks.
///
/// Every flushed batch runs in Morton order, so queries from unrelated
/// clients share tree paths and cached leaves, with whatever
/// parallelism the backend was built with. Results are scattered back
/// per client, so neither choice changes any answer.
///
/// ```
/// use panda_service::{OverflowPolicy, ServiceConfig};
/// use std::time::Duration;
///
/// let cfg = ServiceConfig::default()
///     .with_max_batch(128)
///     .with_max_delay(Duration::from_micros(200))
///     .with_queue_capacity(4096)
///     .with_overflow(OverflowPolicy::Reject);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Flush as soon as this many query points are queued, and cap
    /// each dispatched batch at this size (a single submission larger
    /// than the cap still dispatches whole).
    pub max_batch: usize,
    /// Flush once the oldest queued submission has waited this long.
    pub max_delay: Duration,
    /// Bounded-queue capacity in query points; `submit` applies the
    /// [`OverflowPolicy`] beyond it.
    pub queue_capacity: usize,
    /// Behavior when the queue is full.
    pub overflow: OverflowPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_batch: 256,
            max_delay: Duration::from_micros(500),
            queue_capacity: 8192,
            overflow: OverflowPolicy::Block,
        }
    }
}

impl ServiceConfig {
    /// Set the size flush trigger (query points per micro-batch).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Set the deadline flush trigger.
    #[must_use]
    pub fn with_max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Set the bounded-queue capacity (query points).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the overflow policy.
    #[must_use]
    pub fn with_overflow(mut self, overflow: OverflowPolicy) -> Self {
        self.overflow = overflow;
        self
    }

    /// Validate: `max_batch ≥ 1`, `queue_capacity ≥ max_batch` (a full
    /// batch must be queueable), non-zero `max_delay`.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(PandaError::BadConfig("max_batch must be ≥ 1".into()));
        }
        if self.queue_capacity < self.max_batch {
            return Err(PandaError::BadConfig(format!(
                "queue_capacity ({}) must be at least max_batch ({})",
                self.queue_capacity, self.max_batch
            )));
        }
        if self.max_delay.is_zero() {
            return Err(PandaError::BadConfig(
                "max_delay must be non-zero (use e.g. 1µs for near-immediate flushes)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates_and_builders_compose() {
        let cfg = ServiceConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.overflow, OverflowPolicy::Block);
        let cfg = cfg
            .with_max_batch(64)
            .with_max_delay(Duration::from_millis(2))
            .with_queue_capacity(64)
            .with_overflow(OverflowPolicy::Reject);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.max_batch, 64);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(ServiceConfig::default()
            .with_max_batch(0)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_max_batch(100)
            .with_queue_capacity(10)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_max_delay(Duration::ZERO)
            .validate()
            .is_err());
    }
}
