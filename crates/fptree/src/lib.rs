//! # fptree — FPTree (Oukid et al., SIGMOD 2016)
//!
//! The best-performing pre-Optane persistent range index, reimplemented
//! faithfully from the paper (the original code is proprietary — the
//! evaluation paper also had to reimplement it):
//!
//! * **Hybrid DRAM–PM architecture.** Inner nodes live in DRAM and only
//!   guide traffic; leaf nodes live in PM and hold the truth. Inner
//!   nodes are rebuilt from the leaf chain on recovery (bulk loading),
//!   trading instant recovery for DRAM-speed traversal. The inner layer
//!   is [`htm::InnerLayer`], shared with the DRAM B+-tree baseline
//!   (`dram-index`); this crate owns the PM leaves and hands the layer
//!   leaf words `off << 1 | 1`.
//! * **Unsorted leaves with fingerprints.** Leaves keep a slot bitmap
//!   and one-byte key hashes; a lookup probes fingerprints first and
//!   touches PM-resident keys only on a hash match, cutting PM reads
//!   dramatically (especially negative lookups). The fingerprint probe
//!   can be disabled ([`FpTreeConfig::use_fingerprints`]) for the E9
//!   ablation.
//! * **One cache line per record.** As in the paper's leaf, a record is
//!   one 16-byte `(key, value)` cell ([`LeafLayout`]): a positive lookup
//!   reads the header block and the record's block, and writing a
//!   record flushes one pair line plus the fingerprint line before the
//!   bitmap commit.
//! * **Selective concurrency.** Traversals run as (emulated) HTM
//!   transactions; leaf writers take a per-leaf version lock, which
//!   doubles as the optimistic-read validation readers need (real HTM
//!   provides that validation in hardware; see the `htm` crate docs).
//!   A leaf split runs under the leaf lock alone; only the separator
//!   insert that publishes it is a write transaction
//!   ([`htm::InnerLayer::publish_split`]), so two threads split two
//!   leaves at once.
//! * **Crash-consistent inserts and splits.** An insert persists the
//!   record and fingerprint before atomically publishing the slot
//!   bitmap (8-byte write). A split runs under a persistent micro-log
//!   (allocate-and-publish via `pmalloc`), one per thread — 32 in the
//!   root area, claimed through `pmem::ThreadSlots` — so recovery
//!   replays each log: it completes a published split or rolls back an
//!   unpublished one.
//!
//! See [`FpTree`] for the API and `tree.rs` for the recovery protocol.

mod layout;
mod tree;

pub use layout::LeafLayout;
pub use tree::FpTree;

/// How leaf key words store keys.
///
/// FPTree supports variable-length keys the way the paper describes
/// (Table 1, "Var. Keys = Pointer"): the 8-byte key field holds a
/// pointer to a key cell in the persistent heap, and every comparison
/// dereferences it. [`KeyMode::Pointer`] forces that path for the
/// standard 8-byte keys so the indirection cost can be measured in
/// isolation (experiment E14) — exactly the methodology the evaluation
/// papers use. Fingerprints still hash the *actual* key, so a
/// fingerprint miss skips the dereference entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// Keys stored inline in the leaf (the fixed-length fast path).
    Inline,
    /// Key fields are pool offsets of heap-stored key cells.
    Pointer,
}

/// Tuning knobs. Defaults follow the evaluation papers: 128-entry inner
/// nodes, 64-entry leaves, fingerprints on, inline keys.
#[derive(Debug, Clone, Copy)]
pub struct FpTreeConfig {
    /// Records per leaf node (max 64: the slot bitmap is one word).
    pub leaf_entries: usize,
    /// Keys per inner node.
    pub inner_fanout: usize,
    /// Probe one-byte fingerprints before touching keys (E9 ablation).
    pub use_fingerprints: bool,
    /// Inline vs pointer-stored keys (E14 ablation).
    pub key_mode: KeyMode,
}

impl Default for FpTreeConfig {
    fn default() -> Self {
        Self {
            leaf_entries: 64,
            inner_fanout: 128,
            use_fingerprints: true,
            key_mode: KeyMode::Inline,
        }
    }
}

/// One-byte key fingerprint (multiplicative hash, top byte).
#[inline]
pub fn fingerprint(key: u64) -> u8 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_spread() {
        // Not a crypto test — just confirm adjacent keys do not collapse
        // onto a handful of fingerprint values.
        let mut seen = std::collections::HashSet::new();
        for k in 0..1024u64 {
            seen.insert(fingerprint(k));
        }
        assert!(
            seen.len() > 200,
            "only {} distinct fingerprints",
            seen.len()
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let c = FpTreeConfig::default();
        assert_eq!(c.leaf_entries, 64);
        assert_eq!(c.inner_fanout, 128);
        assert!(c.use_fingerprints);
    }
}
