//! Shared test doubles.
//!
//! [`MapIndex`] is the reference `RangeIndex` used across the workspace's
//! test suites (trait-contract tests, runner plumbing tests, sharded-engine
//! proptests): the [`Oracle`] behind a lock, so the double and the model
//! cannot disagree about the contract.

use std::sync::{Mutex, MutexGuard};

use crate::{Footprint, Key, Oracle, RangeIndex, Value};

/// Minimal reference implementation of [`RangeIndex`]: a
/// `Mutex<Oracle>`.
#[derive(Default)]
pub struct MapIndex {
    model: Mutex<Oracle>,
}

impl MapIndex {
    pub fn new() -> Self {
        Self::default()
    }

    fn model(&self) -> MutexGuard<'_, Oracle> {
        self.model.lock().unwrap()
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.model().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RangeIndex for MapIndex {
    fn insert(&self, key: Key, value: Value) -> bool {
        self.model().insert(key, value)
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        self.model().lookup(key)
    }

    fn update(&self, key: Key, value: Value) -> bool {
        self.model().update(key, value)
    }

    fn remove(&self, key: Key) -> bool {
        self.model().remove(key)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        out.extend(self.model().range(start).take(count));
        out.len()
    }

    fn name(&self) -> &'static str {
        "map-index"
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            pm_bytes: 0,
            dram_bytes: (self.len() * 16) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_basics() {
        let idx = MapIndex::new();
        assert!(idx.insert(1, 10));
        assert!(!idx.insert(1, 99));
        assert_eq!(idx.lookup(1), Some(10));
        assert!(!idx.update(2, 0));
        assert!(idx.update(1, 11));
        assert!(idx.remove(1));
        assert!(!idx.remove(1));
        assert!(idx.is_empty());
    }
}
