//! Cooperative cancellation for long-running streaming pipelines.
//!
//! A [`CancelToken`] is a cloneable flag shared between the thread driving
//! a [`StreamPks`](crate::StreamPks) run and whoever wants to stop it (the
//! `pka-server` session teardown path). The pipeline polls it at **batch
//! boundaries only** — after a mini-batch has been classified and folded,
//! before the next refill — so cancellation never observes a half-folded
//! batch and the checkpoint-on-cancel snapshot is always taken at a
//! consistent record count. Cancelling costs one relaxed atomic store;
//! polling costs one relaxed load per batch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag, checked by the streaming pipeline at batch
/// boundaries.
///
/// Cloning shares the flag: any clone can cancel, every clone observes it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
        // Idempotent.
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
