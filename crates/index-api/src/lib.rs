//! # index-api — the common range-index interface
//!
//! PiBench requires every index to implement one abstract interface so
//! that the same harness can drive them all; this crate is that
//! interface, plus shared testing machinery:
//!
//! * [`RangeIndex`] — the operation set the paper benchmarks
//!   (lookup / insert / update / remove / scan), object-safe so the
//!   harness can hold `dyn RangeIndex`.
//! * [`Footprint`] — PM/DRAM space reporting for the memory-consumption
//!   table.
//! * [`Op`] / [`Outcome`] — the operation contract: one resolved
//!   operation, what it reports, and the one executor ([`Op::apply`])
//!   every harness, server and crash sweep drives an index through.
//! * [`Oracle`] — the `BTreeMap`-backed reference model
//!   ([`Oracle::apply`]) those outcomes are judged against, plus the
//!   conformance driver used by every index's test suite.
//!
//! No other crate restates what an operation does: they convert
//! (`net::wire`), generate (`pibench::workload`, `crashpoint`) or
//! compare, and import the rest from here.

use std::fmt;
use std::sync::Mutex;

mod op;
pub mod oracle;
pub mod testing;

pub use op::{Op, OpKind, Outcome, OP_KINDS};
pub use oracle::Oracle;

/// Fixed-size key type used throughout the evaluation (the paper's
/// default workload uses 8-byte integer keys).
pub type Key = u64;
/// 8-byte values, as in the paper.
pub type Value = u64;

/// Memory consumed by an index, split by device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes resident on (emulated) persistent memory.
    pub pm_bytes: u64,
    /// Bytes resident in DRAM (inner nodes, caches, metadata mirrors).
    pub dram_bytes: u64,
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PM {:.2} MiB / DRAM {:.2} MiB",
            self.pm_bytes as f64 / (1 << 20) as f64,
            self.dram_bytes as f64 / (1 << 20) as f64
        )
    }
}

/// The abstract index interface every evaluated structure implements
/// (PiBench's `tree_api` equivalent).
///
/// All operations take `&self`: indexes are internally synchronized.
/// Implementations define their own concurrency control (HTM+locks,
/// lock-free PMwCAS, plain locking …), which is precisely what the
/// benchmark compares.
pub trait RangeIndex: Send + Sync {
    /// Insert `key → value`. Returns `false` (and changes nothing) if
    /// the key already exists.
    fn insert(&self, key: Key, value: Value) -> bool;

    /// Point lookup.
    fn lookup(&self, key: Key) -> Option<Value>;

    /// Replace the value of an existing key. Returns `false` if the key
    /// does not exist.
    fn update(&self, key: Key, value: Value) -> bool;

    /// Delete a key. Returns `false` if it was not present.
    fn remove(&self, key: Key) -> bool;

    /// Ascending range scan: append up to `count` records with
    /// `key >= start` to `out` in key order. Returns the number of
    /// records appended. `out` is cleared first.
    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize;

    /// Short static name for reports ("fptree", "bztree", …).
    fn name(&self) -> &'static str;

    /// Space consumption; indexes that cannot attribute usage return
    /// zeroes.
    fn footprint(&self) -> Footprint {
        Footprint::default()
    }
}

/// The name of a wrapper around the index called `inner`:
/// `"{prefix}-{inner}"`, as the `&'static str` [`RangeIndex::name`]
/// returns. Each distinct name is allocated once and kept for the life of
/// the process; asking again returns the same string (crash sweeps build
/// tens of thousands of wrappers over a handful of names).
pub fn prefixed_name(prefix: &str, inner: &str) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let name = format!("{prefix}-{inner}");
    // A panic cannot leave the list half-updated: `push` is the only write.
    let mut names = NAMES.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(known) = names.iter().find(|n| **n == name) {
        return known;
    }
    let leaked: &'static str = name.leak();
    names.push(leaked);
    leaked
}

/// The records a log of entries leaves, sorted by key: `log` holds
/// `(key, value, live)` in the order the entries were written, a
/// tombstone has `live == false`. Each key's newest entry wins, and a
/// key whose newest entry is a tombstone is dropped. (NV-Tree's leaves
/// and BzTree's nodes are such logs.)
pub fn newest_wins(mut log: Vec<(Key, Value, bool)>) -> Vec<(Key, Value)> {
    // An ascending prefix (a node's sorted base) holds each of its keys
    // once, oldest of all: it is merged, not sorted again.
    let sorted = (log.windows(2).take_while(|w| w[0].0 < w[1].0).count() + 1).min(log.len());
    let (base, rest) = log.split_at_mut(sorted);
    // The rest newest first: the stable sort then leads each key's run
    // with its newest entry, the one that counts.
    rest.reverse();
    rest.sort_by_key(|&(k, ..)| k);
    let mut out = Vec::with_capacity(base.len() + rest.len());
    let mut base = base.iter().peekable();
    let mut last = None;
    for &(k, v, live) in rest.iter() {
        if last.replace(k) == Some(k) {
            continue;
        }
        while let Some(&(bk, bv, blive)) = base.next_if(|b| b.0 < k) {
            if blive {
                out.push((bk, bv));
            }
        }
        base.next_if(|b| b.0 == k);
        if live {
            out.push((k, v));
        }
    }
    out.extend(base.filter(|b| b.2).map(|&(k, v, _)| (k, v)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newest_wins_keeps_each_keys_last_entry_and_drops_tombstones() {
        let log = vec![
            (5, 50, true),
            (3, 30, true),
            (5, 51, true),
            (9, 90, true),
            (3, 0, false),
            (7, 70, false),
            (9, 0, false),
            (9, 92, true),
            (1, 10, true),
        ];
        assert_eq!(newest_wins(log), [(1, 10), (5, 51), (9, 92)]);
        assert_eq!(newest_wins(Vec::new()), []);
        assert_eq!(newest_wins(vec![(4, 0, false), (4, 40, true)]), [(4, 40)]);
        // A sorted base, then appends that replace, delete and add.
        let log = vec![
            (1, 10, true),
            (2, 20, true),
            (4, 0, false),
            (6, 60, true),
            (8, 80, true),
            (2, 21, true),
            (6, 0, false),
            (3, 30, true),
            (2, 22, true),
            (8, 81, true),
            (8, 82, true),
        ];
        assert_eq!(newest_wins(log), [(1, 10), (2, 22), (3, 30), (8, 82)]);
        // A repeat right after the ascending run is newer than its base.
        let log = vec![(1, 10, true), (3, 30, true), (3, 31, true)];
        assert_eq!(newest_wins(log), [(1, 10), (3, 31)]);
    }

    #[test]
    fn prefixed_names_are_interned() {
        let a = prefixed_name("cached", "sharded-fptree-nofp");
        assert_eq!(a, "cached-sharded-fptree-nofp");
        let b = prefixed_name("cached", &String::from("sharded-fptree-nofp"));
        assert!(std::ptr::eq(a, b), "the second call must not leak again");
        let sharded = prefixed_name("sharded", "learned");
        assert_eq!(prefixed_name("cached", sharded), "cached-sharded-learned");
    }

    #[test]
    fn map_index_passes_conformance() {
        let idx = testing::MapIndex::new();
        crate::oracle::check_conformance(&idx, 0xC0FFEE, 5_000, 1_000);
    }

    #[test]
    fn footprint_display() {
        let f = Footprint {
            pm_bytes: 3 << 20,
            dram_bytes: 1 << 19,
        };
        assert_eq!(format!("{f}"), "PM 3.00 MiB / DRAM 0.50 MiB");
    }
}
