//! The canonical lock-hierarchy document and the debug-build rank
//! tracker that enforces it.
//!
//! # The global lock hierarchy
//!
//! Every lock in the service stack has a rank; a thread may only acquire
//! locks in strictly ascending rank order. Ranks gap by 10 so future
//! locks can slot in without renumbering. **The machine-readable twin of
//! this table lives in `crates/av-guard/src/config.rs`** — the `G1`
//! static pass and its fixtures execute against that copy; change the
//! two together.
//!
//! | Rank | Lock | Where | Why this position |
//! |------|------|-------|-------------------|
//! | 10 | `ckpt` | `DurableLog` | Serializes whole checkpoints; taken before the WAL fence so two checkpoints can never interleave their shard writes. |
//! | 20 | `wal` | `DurableLog` | The WAL fence: the outermost lock of every durable mutating path, which appends and applies its record under it. Holding it across the snapshot is what makes the checkpoint watermark exact. |
//! | 50 | `epoch` | `av-index::ShardedIndex` | The live index epoch: a delta is applied under its write side (inside the WAL fence on durable paths) and a snapshot cloned under its read side, so readers never observe a half-merged epoch. Nothing else is acquired while it is held. |
//! | 70 | `catalog` | `ValidationService` | The rule catalog, the one table of per-rule state: it owns the catalog automaton and each rule's telemetry, and its own insert and remove patch the automaton through `&mut`, so a writer takes no second lock. Readers take no second lock either: `classify`, `explain` and `validate` scan the catalog automaton and each rule's own automaton through `&self` under the read guard, each thread on its own DFA caches. Written under the WAL fence on durable paths. |
//!
//! # The runtime tracker
//!
//! [`rank_guard`] pushes a rank onto a thread-local stack and
//! `debug_assert!`s that acquisition order ascends; dropping the guard
//! pops it. In release builds the guard is a zero-sized no-op. Lock
//! sites pair the rank guard with the lock guard in one tuple binding —
//!
//! ```ignore
//! let (_wal_rank, mut wal) = (rank_guard(WAL), log.wal.lock().expect("wal lock poisoned"));
//! ```
//!
//! — tuple evaluation order records the rank before blocking on the
//! lock, and the two guards leave scope together. Deliberately **not** a
//! `lock_wal()` helper method: the `.lock()` call must stay visible at
//! the call site for av-guard's `G1` static pass to see it.
//!
//! Single-statement temporaries
//! (`self.catalog.read().expect(…).get(…)`) are not tracked: a
//! temporary's guard cannot be held across the statements or calls where
//! cross-function nesting — the half of the problem the static
//! per-function pass cannot see — arises. The static pass covers
//! temporaries; this tracker covers guards held across calls.

#![allow(dead_code)] // release builds compile the consts/guards away

#[cfg(debug_assertions)]
use std::cell::RefCell;

/// Rank of `DurableLog.ckpt`.
pub(crate) const CKPT: u32 = 10;
/// Rank of `DurableLog.wal` (the WAL fence).
pub(crate) const WAL: u32 = 20;
/// Rank of `av-index`'s epoch lock.
pub(crate) const EPOCH: u32 = 50;
/// Rank of `ValidationService.catalog`.
pub(crate) const CATALOG: u32 = 70;

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Evidence that a rank was pushed; dropping pops it. Zero-sized in
/// release builds.
pub(crate) struct RankGuard {
    #[cfg(debug_assertions)]
    rank: u32,
}

/// Record acquisition of `rank`, asserting it exceeds every held rank.
#[cfg(debug_assertions)]
pub(crate) fn rank_guard(rank: u32) -> RankGuard {
    // Assert outside the RefCell borrow: a failing assert unwinds
    // through live RankGuards whose Drop needs the cell.
    let max = HELD.with(|h| h.borrow().iter().max().copied());
    if let Some(max) = max {
        debug_assert!(
            rank > max,
            "lock-order violation: acquiring rank {rank} while holding rank {max} \
             (see the hierarchy table in lockorder.rs)"
        );
    }
    HELD.with(|h| h.borrow_mut().push(rank));
    RankGuard { rank }
}

/// Release builds track nothing.
#[cfg(not(debug_assertions))]
pub(crate) fn rank_guard(_rank: u32) -> RankGuard {
    RankGuard {}
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            // Remove *this* rank's newest entry (not whatever is on
            // top): guards may be dropped out of acquisition order.
            if let Some(pos) = held.iter().rposition(|&r| r == self.rank) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_passes() {
        let _a = rank_guard(CKPT);
        let _b = rank_guard(WAL);
        let _c = rank_guard(EPOCH);
        let _d = rank_guard(CATALOG);
    }

    #[test]
    fn release_then_lower_is_fine() {
        {
            let _a = rank_guard(CATALOG);
        }
        let _b = rank_guard(EPOCH);
    }

    #[test]
    fn out_of_order_drop_keeps_tracking() {
        let a = rank_guard(WAL);
        let b = rank_guard(CATALOG);
        drop(a);
        drop(b);
        let _c = rank_guard(CKPT);
    }

    // The check is a `debug_assert!`: a release build compiles it out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn inversion_asserts_in_debug() {
        let _a = rank_guard(CATALOG);
        let _b = rank_guard(WAL);
    }
}
