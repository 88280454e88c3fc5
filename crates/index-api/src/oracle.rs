//! Reference model and conformance driver.
//!
//! Every index in the workspace is validated against [`Oracle`], a
//! `BTreeMap` with the exact [`crate::RangeIndex`] semantics: it is the
//! one statement of what insert-on-present, update-on-absent,
//! remove-on-absent and a scan mean. The driver generates a
//! deterministic random operation stream and asserts outcome-for-outcome
//! agreement between [`Op::apply`] and [`Oracle::apply`], including
//! scan contents and order.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Key, Op, Outcome, RangeIndex, Value};

/// The `BTreeMap`-backed reference model.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Oracle {
    map: BTreeMap<Key, Value>,
}

impl Oracle {
    /// Empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Model semantics of [`RangeIndex::insert`].
    pub fn insert(&mut self, key: Key, value: Value) -> bool {
        use std::collections::btree_map::Entry;
        match self.map.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        }
    }

    /// Model semantics of [`RangeIndex::lookup`].
    pub fn lookup(&self, key: Key) -> Option<Value> {
        self.map.get(&key).copied()
    }

    /// Model semantics of [`RangeIndex::update`].
    pub fn update(&mut self, key: Key, value: Value) -> bool {
        match self.map.get_mut(&key) {
            Some(v) => {
                *v = value;
                true
            }
            None => false,
        }
    }

    /// Model semantics of [`RangeIndex::remove`].
    pub fn remove(&mut self, key: Key) -> bool {
        self.map.remove(&key).is_some()
    }

    /// Model semantics of [`RangeIndex::scan`].
    pub fn scan(&self, start: Key, count: usize) -> Vec<(Key, Value)> {
        self.range(start).take(count).collect()
    }

    /// Records with `key >= start`, in key order.
    pub fn range(&self, start: Key) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.map.range(start..).map(|(&k, &v)| (k, v))
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate all records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.range(Key::MIN)
    }

    /// What `op` must report, with its effect applied to the model.
    pub fn apply(&mut self, op: Op) -> Outcome {
        match op {
            Op::Lookup(k) => Outcome::Value(self.lookup(k)),
            Op::Insert(k, v) => Outcome::Acked(self.insert(k, v)),
            Op::Update(k, v) => Outcome::Acked(self.update(k, v)),
            Op::Remove(k) => Outcome::Acked(self.remove(k)),
            Op::Scan(k, n) => Outcome::Rows(self.scan(k, n)),
        }
    }
}

/// Bulk load: later records overwrite earlier ones with the same key.
impl Extend<(Key, Value)> for Oracle {
    fn extend<I: IntoIterator<Item = (Key, Value)>>(&mut self, records: I) {
        self.map.extend(records);
    }
}

/// Generate a deterministic mixed operation stream. Keys are drawn from
/// `[0, key_range)` so collisions (duplicate inserts, misses, repeated
/// removes) are exercised; values encode the op index for debuggability.
pub fn random_ops(seed: u64, n: usize, key_range: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let key = rng.gen_range(0..key_range);
            let value = i as Value + 1;
            match rng.gen_range(0..100) {
                0..=39 => Op::Insert(key, value),
                40..=64 => Op::Lookup(key),
                65..=79 => Op::Update(key, value),
                80..=89 => Op::Remove(key),
                _ => Op::Scan(key, rng.gen_range(1..32)),
            }
        })
        .collect()
}

/// Run a full conformance pass: `n` random ops over `key_range` keys,
/// checking every outcome and a final full sweep.
pub fn check_conformance(index: &dyn RangeIndex, seed: u64, n: usize, key_range: u64) {
    let mut model = Oracle::new();
    let mut buf = Vec::new();
    for op in random_ops(seed, n, key_range) {
        assert_eq!(op.apply(index, &mut buf), model.apply(op), "{op:?}");
    }
    // Final sweep: everything in the model must be scannable in order.
    let want: Vec<_> = model.iter().collect();
    let mut got = Vec::new();
    index.scan(0, want.len() + 1, &mut got);
    assert_eq!(got, want, "final full scan mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_btreemap_semantics() {
        let mut o = Oracle::new();
        assert!(o.insert(5, 50));
        assert!(!o.insert(5, 51), "duplicate insert must fail");
        assert_eq!(o.lookup(5), Some(50));
        assert!(o.update(5, 55));
        assert!(!o.update(6, 60));
        assert_eq!(o.lookup(5), Some(55));
        assert!(o.remove(5));
        assert!(!o.remove(5));
        assert!(o.is_empty());
    }

    #[test]
    fn scan_is_sorted_and_bounded() {
        let mut o = Oracle::new();
        for k in [9u64, 3, 7, 1, 5] {
            o.insert(k, k * 10);
        }
        assert_eq!(o.scan(3, 3), vec![(3, 30), (5, 50), (7, 70)]);
        assert_eq!(o.scan(0, 100).len(), 5);
        assert_eq!(o.scan(10, 3), vec![]);
    }

    #[test]
    fn random_ops_are_deterministic() {
        assert_eq!(random_ops(1, 100, 50), random_ops(1, 100, 50));
        assert_ne!(random_ops(1, 100, 50), random_ops(2, 100, 50));
    }

    #[test]
    fn op_mix_covers_all_variants() {
        let mut seen = [false; 5];
        for op in random_ops(3, 2_000, 100) {
            seen[op.kind() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "mix missing a variant: {seen:?}");
    }

    #[test]
    fn apply_reports_and_folds_each_op() {
        let mut o = Oracle::new();
        assert_eq!(o.apply(Op::Insert(5, 50)), Outcome::Acked(true));
        assert_eq!(o.apply(Op::Insert(5, 51)), Outcome::Acked(false));
        assert_eq!(o.apply(Op::Update(6, 60)), Outcome::Acked(false));
        assert_eq!(o.apply(Op::Update(5, 55)), Outcome::Acked(true));
        assert_eq!(o.apply(Op::Lookup(5)), Outcome::Value(Some(55)));
        assert_eq!(o.apply(Op::Scan(0, 9)), Outcome::Rows(vec![(5, 55)]));
        assert_eq!(o.apply(Op::Remove(5)), Outcome::Acked(true));
        assert_eq!(o.apply(Op::Remove(5)), Outcome::Acked(false));
        assert_eq!(o.apply(Op::Lookup(5)), Outcome::Value(None));
        o.extend([(1, 10), (2, 20), (1, 11)]);
        assert_eq!(o.iter().collect::<Vec<_>>(), [(1, 11), (2, 20)]);
    }
}
