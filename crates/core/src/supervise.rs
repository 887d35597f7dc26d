//! Shared supervision policy for the long-lived worker threads: the
//! query service's scheduler, the sharded engine's shard workers, and
//! the mutable store's background compaction. Each catches a panic,
//! turns its payload into a typed error message, and (for restartable
//! workers) sleeps a bounded exponential backoff before serving again.

use std::any::Any;
use std::time::Duration;

/// First restart delay after a worker panic.
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Ceiling for the restart backoff.
const RESTART_BACKOFF_MAX: Duration = Duration::from_millis(250);

/// Best-effort human-readable payload of a caught panic.
pub fn panic_message(panic: &(dyn Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Restart delay after `consecutive` earlier panics in a row: 5 ms,
/// doubling per consecutive panic, capped at 250 ms.
pub fn restart_backoff(consecutive: u32) -> Duration {
    RESTART_BACKOFF_BASE
        .saturating_mul(1u32 << consecutive.min(16))
        .min(RESTART_BACKOFF_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_5ms_up_to_250ms() {
        let ms: Vec<u128> = (0..8).map(|c| restart_backoff(c).as_millis()).collect();
        assert_eq!(ms, [5, 10, 20, 40, 80, 160, 250, 250]);
        assert_eq!(restart_backoff(u32::MAX), RESTART_BACKOFF_MAX);
    }

    #[test]
    fn panic_payloads_render() {
        let s: Box<dyn Any + Send> = Box::new("boom");
        let owned: Box<dyn Any + Send> = Box::new(String::from("bang"));
        let other: Box<dyn Any + Send> = Box::new(7u32);
        assert_eq!(panic_message(&*s), "boom");
        assert_eq!(panic_message(&*owned), "bang");
        assert_eq!(panic_message(&*other), "non-string panic payload");
    }
}
