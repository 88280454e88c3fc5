//! BzTree node format.
//!
//! ```text
//! +0        status u64   PMwCAS-managed: bits 0..20 used-slot count,
//!                        bit 21 frozen
//! +8        info   u64   immutable: bit 63 is_leaf, bits 0..20 sorted count
//! +16       meta[m] u64  PMwCAS-managed per record: bits 56..58 state,
//!                        bits 0..7 key fingerprint
//! +16+8m    records m × (key u64, val u64)
//!                        leaf: val = user value (never PMwCAS-managed);
//!                        inner: val = child offset (PMwCAS-managed)
//! ```

use pmwcas::PmwCas;

/// Record-metadata states (bits 56..58 of the meta word).
pub const ST_FREE: u64 = 0;
pub const ST_RESERVED: u64 = 1 << 56;
pub const ST_VISIBLE: u64 = 2 << 56;
pub const ST_DELETED: u64 = 3 << 56;
pub const ST_ABORTED: u64 = 4 << 56;
pub const ST_STATE_MASK: u64 = 7 << 56;

/// Status word: frozen flag and used-count mask.
pub const FROZEN: u64 = 1 << 21;
pub const COUNT_MASK: u64 = (1 << 21) - 1;

/// Info word: leaf flag and sorted-count mask.
pub const INFO_LEAF: u64 = 1 << 63;

/// Runtime node layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BzLayout {
    /// Record slots per node.
    pub entries: usize,
    /// Offset of the record array.
    pub recs_off: u64,
    /// Node size in bytes.
    pub size: usize,
}

impl BzLayout {
    /// Layout for `entries` record slots.
    pub fn new(entries: usize) -> BzLayout {
        assert!((4..=1024).contains(&entries));
        let recs_off = 16 + 8 * entries as u64;
        BzLayout {
            entries,
            recs_off,
            size: (recs_off + 16 * entries as u64) as usize,
        }
    }

    /// Offset of the status word.
    #[inline]
    pub fn status(&self, node: u64) -> u64 {
        node
    }

    /// Offset of the info word.
    #[inline]
    pub fn info(&self, node: u64) -> u64 {
        node + 8
    }

    /// Offset of record `i`'s metadata word.
    #[inline]
    pub fn meta(&self, node: u64, i: usize) -> u64 {
        node + 16 + 8 * i as u64
    }

    /// Offset of record `i`'s key.
    #[inline]
    pub fn key(&self, node: u64, i: usize) -> u64 {
        node + self.recs_off + 16 * i as u64
    }

    /// Offset of record `i`'s value / child pointer.
    #[inline]
    pub fn val(&self, node: u64, i: usize) -> u64 {
        self.key(node, i) + 8
    }
}

/// Decoded status word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub raw: u64,
    pub frozen: bool,
    pub count: usize,
}

/// Read and decode a node's status word.
pub fn read_status(mw: &PmwCas, layout: &BzLayout, node: u64) -> Status {
    let raw = mw.read(layout.status(node));
    Status {
        raw,
        frozen: raw & FROZEN != 0,
        count: (raw & COUNT_MASK) as usize,
    }
}

/// Whether a node is a leaf, and its sorted-base record count.
pub fn read_info(mw: &PmwCas, layout: &BzLayout, node: u64) -> (bool, usize) {
    let info = mw.pool().read_u64(layout.info(node));
    (info & INFO_LEAF != 0, (info & COUNT_MASK) as usize)
}

/// Build a persisted node from sorted records. All records start
/// `VISIBLE`; the remaining slots are `FREE`. The used prefix (header,
/// the whole meta array and the records) is written with one store and
/// persisted; the record slots past it are only read once an append
/// has written them. Returns nothing — the node is unreachable until
/// the caller installs it.
pub fn build_node(
    mw: &PmwCas,
    layout: &BzLayout,
    node: u64,
    is_leaf: bool,
    records: &[(u64, u64)],
) {
    debug_assert!(records.len() <= layout.entries);
    debug_assert!(
        records.windows(2).all(|w| w[0].0 < w[1].0),
        "unsorted build: {records:?}"
    );
    let n = records.len() as u64;
    let leaf_flag = if is_leaf { INFO_LEAF } else { 0 };
    let metas = (0..layout.entries).map(|i| match records.get(i) {
        Some(&(k, _)) => ST_VISIBLE | crate::fingerprint(k) as u64,
        None => ST_FREE,
    });
    let words = [n, leaf_flag | n]
        .into_iter()
        .chain(metas)
        .chain(records.iter().flat_map(|&(k, v)| [k, v]));
    let used = layout.recs_off as usize + 16 * records.len();
    let mut prefix = Vec::with_capacity(used);
    for w in words {
        prefix.extend_from_slice(&w.to_le_bytes());
    }
    debug_assert_eq!(prefix.len(), used);
    let pool = mw.pool();
    pool.write_bytes(node, &prefix);
    pool.persist(node, used);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmalloc::{AllocMode, PmAllocator};
    use pmem::{PmConfig, PmPool};
    use std::sync::Arc;

    #[test]
    fn layout_offsets() {
        let l = BzLayout::new(8);
        assert_eq!(l.recs_off, 16 + 64);
        assert_eq!(l.size, 16 + 64 + 128);
        let base = 4096;
        assert_eq!(l.meta(base, 2), base + 32);
        assert_eq!(l.key(base, 2), base + 80 + 32);
        assert_eq!(l.val(base, 2), base + 80 + 40);
    }

    #[test]
    fn build_and_decode() {
        let pool = Arc::new(PmPool::new(1 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let mw = pmwcas::PmwCas::create(&alloc);
        let l = BzLayout::new(8);
        let off = alloc.alloc(l.size).unwrap();
        build_node(&mw, &l, off, true, &[(10, 100), (20, 200)]);
        let st = read_status(&mw, &l, off);
        assert!(!st.frozen);
        assert_eq!(st.count, 2);
        let (leaf, sorted) = read_info(&mw, &l, off);
        assert!(leaf);
        assert_eq!(sorted, 2);
        assert_eq!(mw.read(l.meta(off, 0)) & ST_STATE_MASK, ST_VISIBLE);
        assert_eq!(mw.read(l.meta(off, 5)) & ST_STATE_MASK, ST_FREE);
        assert_eq!(pool.read_u64(l.key(off, 1)), 20);
        // Fully persisted: survives a crash.
        pool.crash();
        assert_eq!(read_status(&mw, &l, off).count, 2);
    }
}
