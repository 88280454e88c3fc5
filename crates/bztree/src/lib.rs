//! # bztree — BzTree (Arulraj et al., PVLDB 2018)
//!
//! A latch-free, PM-only B+-tree built entirely on persistent
//! multi-word CAS (the `pmwcas` crate). The design trades the custom
//! flush-ordering protocols of its contemporaries for one powerful
//! primitive: every state transition — record visibility, node freeze,
//! child-pointer swap, root replacement — is a durable PMwCAS, so the
//! tree is always recoverable by replaying descriptor state alone
//! (instant recovery, no inner-node rebuild).
//!
//! * **Node = sorted base + unsorted append area.** A consolidated node
//!   starts with its records sorted (binary-searchable). Inserts and
//!   updates (new versions) append to the free space, coordinated by a
//!   per-record metadata word: `FREE → RESERVED → VISIBLE` (or
//!   `ABORTED`), with a fingerprint byte to skip key probes; a delete
//!   turns the newest version's word into a tombstone. Lookups scan the
//!   append area newest-first, then binary-search the base.
//! * **Two PMwCAS per append.** One 2-word PMwCAS reserves a slot: it
//!   bumps the node's used count and claims the slot's metadata
//!   (`FREE → RESERVED`) together, so no slot below the count is ever
//!   `FREE`. The record is then written and persisted, and a second
//!   2-word PMwCAS makes it `VISIBLE` while checking the node is not
//!   frozen. An insert's probe also returns the first slot its
//!   duplicate re-check must see: the count it read, or the lowest
//!   in-flight slot below it with the key's fingerprint. After the
//!   reservation the re-check scans only from there up to its own slot;
//!   below it the probe already decided, and a final entry never turns
//!   live again.
//! * **Copy-on-write SMOs.** A full node is *frozen* (PMwCAS on its
//!   status word), compacted or split into fresh nodes, and swapped
//!   into its parent with a PMwCAS that simultaneously verifies the
//!   parent is not itself frozen. Replaced nodes are reclaimed after an
//!   epoch grace period; a crash at any point leaves either the old or
//!   the new node installed, plus possibly an unreachable node that
//!   recovery garbage-collects by reachability.
//! * **Helping, not blocking.** Threads that encounter an in-flight
//!   PMwCAS help complete it; threads that encounter a frozen node
//!   perform the pending consolidation themselves and retry. A stuck
//!   `RESERVED` record (crashed or preempted writer) is aborted by the
//!   thread that needs the slot resolved.
//!
//! The concurrency control here is what the evaluation measures: no
//! locks anywhere, at the price of extra PM writes for descriptors and
//! dirty-bit maintenance.

mod node;
mod tree;

pub use node::BzLayout;
pub use tree::BzTree;

/// Tuning knobs. Default 62 record slots per node (~1.5 KiB nodes).
#[derive(Debug, Clone, Copy)]
pub struct BzTreeConfig {
    /// Record slots per node (sorted base + append area combined).
    pub node_entries: usize,
}

/// Consolidation keeps nodes at most this fraction full (percent);
/// denser nodes are split instead.
pub(crate) const SPLIT_THRESHOLD_PCT: usize = 70;

impl Default for BzTreeConfig {
    fn default() -> Self {
        Self { node_entries: 62 }
    }
}

/// One-byte key fingerprint stored in record metadata.
#[inline]
pub(crate) fn fingerprint(key: u64) -> u8 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_config() {
        let c = super::BzTreeConfig::default();
        assert_eq!(c.node_entries, 62);
    }
}
