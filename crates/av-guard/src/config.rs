//! The checked-in rule configuration: the global lock hierarchy (G1) and
//! the per-rule path scopes and exemptions.
//!
//! **This file is the machine-readable twin of the canonical
//! lock-hierarchy document in `crates/av-service/src/lockorder.rs`.** The
//! two must agree: the doc explains *why* the order is what it is (the
//! WAL fence is the crash-safety argument), this table is what the G1
//! pass and its fixtures execute against. Change them together.

/// One lock in the global hierarchy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LockEntry {
    /// The field/binding name the lock is acquired through (`.lock()`,
    /// `.read()`, `.write()` receivers are matched by exact identifier).
    pub name: &'static str,
    /// Rank: acquisitions must be strictly ascending in rank within a
    /// function (gaps left for future locks).
    pub rank: u32,
}

/// The global lock hierarchy, outermost first. Mirrors the canonical doc
/// in `crates/av-service/src/lockorder.rs` (which carries the full
/// rationale); the ranks here gap by 10 so future locks can slot in
/// without renumbering.
pub(crate) const LOCK_HIERARCHY: &[LockEntry] = &[
    // av-service DurableLog.ckpt: serializes checkpoints; taken before the
    // WAL fence.
    LockEntry {
        name: "ckpt",
        rank: 10,
    },
    // av-service DurableLog.wal: the WAL fence; outermost lock of every
    // durable mutating path.
    LockEntry {
        name: "wal",
        rank: 20,
    },
    // av-index ShardedIndex.epoch: the live index epoch; deltas applied
    // under write, snapshots cloned under read, nothing acquired while held.
    LockEntry {
        name: "epoch",
        rank: 50,
    },
    // av-service ValidationService.catalog: the persistent rule catalog.
    LockEntry {
        name: "catalog",
        rank: 70,
    },
    // av-service ValidationService.classifier: the catalog automaton;
    // always innermost.
    LockEntry {
        name: "classifier",
        rank: 80,
    },
];

/// Look up a tracked lock by receiver identifier.
pub(crate) fn lock_by_name(name: &str) -> Option<&'static LockEntry> {
    LOCK_HIERARCHY.iter().find(|e| e.name == name)
}

/// G2: crates whose sources may not touch `std::fs` directly.
pub(crate) const G2_SCOPE: &[&str] = &[
    "crates/av-service/src/",
    "crates/av-index/src/",
    "crates/av-durable/src/",
];

/// G2: the explicitly-allowed raw-I/O sites. `OsStorage` lives here — it
/// is the one production implementation of the `Storage` trait, and the
/// trait boundary is exactly what G2 defends.
pub(crate) const G2_ALLOWED_FILES: &[&str] = &["crates/av-durable/src/storage.rs"];

/// G3: event-loop and connection sources that must be panic-free (a
/// panic kills an event loop and every connection on it).
pub(crate) const G3_SCOPE: &[&str] = &["crates/av-service/src/server/"];

/// G4: av-index accumulator/persist modules that must stay float-free
/// (fixed-point exactness is what makes merges order-independent).
pub(crate) const G4_SCOPE: &[&str] = &[
    "crates/av-index/src/stats.rs",
    "crates/av-index/src/delta.rs",
    "crates/av-index/src/shard.rs",
    "crates/av-index/src/persist.rs",
];

/// G4: the two sanctioned float↔fixed-point conversion boundaries.
/// `add_impurity` quantizes an incoming impurity once; `finish` converts
/// the accumulated integer back to a presentation float. Everything
/// between them is integer-only.
pub(crate) const G4_EXEMPT_FNS: &[&str] = &["add_impurity", "finish"];

/// G4: persist/serialization-path files where iterating a hash map
/// without sorting would leak nondeterministic order into bytes.
pub(crate) const G4_PERSIST_FILES: &[&str] = &[
    "crates/av-index/src/persist.rs",
    "crates/av-service/src/catalog.rs",
    "crates/av-service/src/durable.rs",
];

/// G4: hash-map- and hash-set-backed fields whose iteration order is
/// nondeterministic.
pub(crate) const G4_HASHMAP_FIELDS: &[&str] = &["map", "patterns", "prefixes"];

/// G5: event-loop sources where a blocking call would stall every
/// connection on the loop at once.
pub(crate) const G5_SCOPE: &[&str] = &[
    "crates/av-service/src/server/event_loop.rs",
    "crates/av-service/src/server/conn.rs",
];

/// G5: banned blocking calls.
pub(crate) const G5_BANNED: &[&str] = &[
    "sleep",
    "recv",
    "recv_timeout",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "lines",
    "join",
    "wait",
    "wait_timeout",
];

/// G5: receivers on which otherwise-banned names are the point, not a
/// bug: `poller.wait(...)` *is* an event loop's wait.
pub(crate) const G5_ALLOWED_RECEIVERS: &[(&str, &str)] = &[("wait", "poller")];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_ranks_strictly_ascend() {
        for w in LOCK_HIERARCHY.windows(2) {
            assert!(w[0].rank < w[1].rank, "{} !< {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn lookup_finds_every_entry() {
        for e in LOCK_HIERARCHY {
            assert_eq!(lock_by_name(e.name).unwrap().rank, e.rank);
        }
        assert!(lock_by_name("not_a_lock").is_none());
    }
}
