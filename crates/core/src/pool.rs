//! A lock-light pool of [`PlanCtx`] scratch instances.
//!
//! Planning through a [`PlanCtx`] is allocation-free after warm-up, but a
//! context is `&mut self` state: several threads may establish sessions
//! or run admission rounds on one coordinator at once, and funnelling
//! them through a single `Mutex<PlanCtx>` would serialize their
//! planning. A [`PlanCtxPool`] hands each caller its own context
//! instead: a checkout pops a warmed context (or creates a fresh one
//! when the pool runs dry), and dropping the [`PooledCtx`] guard returns
//! it. The pool's mutex is held only for the `Vec` push/pop —
//! nanoseconds — never for the planning work itself.
//!
//! Each context keeps the [`QrgSkeleton`](crate::QrgSkeleton) of every
//! service spec it has planned, until no session of that spec is left,
//! so a pool that serves a recurring service mix builds each skeleton
//! once per context and stays warm across checkouts.

use crate::ctx::PlanCtx;
use std::sync::Mutex;

/// A pool of reusable [`PlanCtx`] instances for concurrent planning.
///
/// Grows on demand — a checkout never blocks waiting for a peer to
/// finish — and never shrinks; the steady-state size is the maximum
/// number of simultaneous planners observed so far.
#[derive(Debug, Default)]
pub struct PlanCtxPool {
    free: Mutex<Vec<PlanCtx>>,
}

impl PlanCtxPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a context out of the pool, creating a fresh one when none
    /// is idle. The guard returns the context on drop.
    pub fn checkout(&self) -> PooledCtx<'_> {
        let ctx = self.lock_free().pop().unwrap_or_default();
        PooledCtx {
            pool: self,
            ctx: Some(ctx),
        }
    }

    /// The number of idle contexts currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.lock_free().len()
    }

    fn checkin(&self, ctx: PlanCtx) {
        self.lock_free().push(ctx);
    }

    fn lock_free(&self) -> std::sync::MutexGuard<'_, Vec<PlanCtx>> {
        // A panic while holding this lock can only poison a Vec of
        // scratch buffers — always safe to keep using.
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An exclusive checkout of one [`PlanCtx`]; derefs to the context and
/// returns it to its [`PlanCtxPool`] on drop.
#[derive(Debug)]
pub struct PooledCtx<'a> {
    pool: &'a PlanCtxPool,
    ctx: Option<PlanCtx>,
}

impl std::ops::Deref for PooledCtx<'_> {
    type Target = PlanCtx;

    fn deref(&self) -> &PlanCtx {
        self.ctx.as_ref().expect("ctx present until drop")
    }
}

impl std::ops::DerefMut for PooledCtx<'_> {
    fn deref_mut(&mut self) -> &mut PlanCtx {
        self.ctx.as_mut().expect("ctx present until drop")
    }
}

impl Drop for PooledCtx<'_> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            self.pool.checkin(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_grows_and_checkin_reuses() {
        let pool = PlanCtxPool::new();
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.idle(), 0, "both contexts are out");
        }
        assert_eq!(pool.idle(), 2, "guards returned their contexts");
        {
            let _c = pool.checkout();
            assert_eq!(pool.idle(), 1, "reused an idle context");
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = PlanCtxPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..64 {
                        let _ctx = pool.checkout();
                    }
                });
            }
        });
        assert!(pool.idle() <= 4, "at most one context per worker");
        assert!(pool.idle() >= 1);
    }
}
