//! The operation contract: what an operation is ([`Op`]), what it
//! reports ([`Outcome`]) and how it runs against any [`RangeIndex`]
//! ([`Op::apply`]). Every layer above an index — the benchmark runner,
//! the crash harness, the wire protocol — drives indexes through this
//! one executor and judges them against [`crate::Oracle::apply`].

use crate::{Key, RangeIndex, Value};

/// Operation types, in the order metrics are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point lookup.
    Lookup = 0,
    /// Insert of a fresh key.
    Insert = 1,
    /// Value update of an existing key.
    Update = 2,
    /// Delete.
    Remove = 3,
    /// Range scan.
    Scan = 4,
}

/// All op kinds, for iteration/reporting: per-kind counters and
/// histograms are indexed by `OpKind as usize` in this order.
pub const OP_KINDS: [OpKind; 5] = [
    OpKind::Lookup,
    OpKind::Insert,
    OpKind::Update,
    OpKind::Remove,
    OpKind::Scan,
];

impl OpKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Lookup => "lookup",
            OpKind::Insert => "insert",
            OpKind::Update => "update",
            OpKind::Remove => "remove",
            OpKind::Scan => "scan",
        }
    }
}

/// A fully resolved operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup of a key.
    Lookup(Key),
    /// Insert `key → value`; refused on a present key.
    Insert(Key, Value),
    /// Update `key → value`; refused on an absent key.
    Update(Key, Value),
    /// Remove a key; refused on an absent key.
    Remove(Key),
    /// Scan `count` records from a start key.
    Scan(Key, usize),
}

/// What an operation reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A write: applied (`true`) or refused with nothing changed.
    Acked(bool),
    /// A lookup: the value, if the key is present.
    Value(Option<Value>),
    /// A scan: the records found, ascending.
    Rows(Vec<(Key, Value)>),
}

impl Outcome {
    /// False for a refused write, an absent key or an empty scan.
    pub fn hit(&self) -> bool {
        match self {
            Outcome::Acked(applied) => *applied,
            Outcome::Value(v) => v.is_some(),
            Outcome::Rows(rows) => !rows.is_empty(),
        }
    }
}

impl Op {
    /// The kind of this op.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Lookup(_) => OpKind::Lookup,
            Op::Insert(..) => OpKind::Insert,
            Op::Update(..) => OpKind::Update,
            Op::Remove(_) => OpKind::Remove,
            Op::Scan(..) => OpKind::Scan,
        }
    }

    /// The key the operation targets (a scan's start key).
    pub fn key(&self) -> Key {
        match *self {
            Op::Lookup(k) | Op::Remove(k) | Op::Scan(k, _) => k,
            Op::Insert(k, _) | Op::Update(k, _) => k,
        }
    }

    /// Whether the operation can change the index.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert(..) | Op::Update(..) | Op::Remove(_))
    }

    /// The same operation on key `f(key)`.
    pub fn map_key(self, f: impl FnOnce(Key) -> Key) -> Op {
        match self {
            Op::Lookup(k) => Op::Lookup(f(k)),
            Op::Insert(k, v) => Op::Insert(f(k), v),
            Op::Update(k, v) => Op::Update(f(k), v),
            Op::Remove(k) => Op::Remove(f(k)),
            Op::Scan(k, n) => Op::Scan(f(k), n),
        }
    }

    /// Run the operation against `idx`. A scan fills `scan_buf` and
    /// moves it into the outcome, so a caller that hands the rows back
    /// (`scan_buf = rows`) scans without allocating.
    #[inline]
    pub fn apply(self, idx: &dyn RangeIndex, scan_buf: &mut Vec<(Key, Value)>) -> Outcome {
        match self {
            Op::Lookup(k) => Outcome::Value(idx.lookup(k)),
            Op::Insert(k, v) => Outcome::Acked(idx.insert(k, v)),
            Op::Update(k, v) => Outcome::Acked(idx.update(k, v)),
            Op::Remove(k) => Outcome::Acked(idx.remove(k)),
            Op::Scan(k, n) => {
                idx.scan(k, n, scan_buf);
                Outcome::Rows(std::mem::take(scan_buf))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indexes_follow_op_kinds_order() {
        // `ServeStats::served`, `RunResult::ops` and the benchmark's
        // per-kind histograms are arrays indexed by `kind() as usize`.
        let ops = [
            Op::Lookup(1),
            Op::Insert(1, 2),
            Op::Update(1, 2),
            Op::Remove(1),
            Op::Scan(1, 2),
        ];
        for (i, (op, kind)) in ops.iter().zip(OP_KINDS).enumerate() {
            assert_eq!(op.kind(), kind);
            assert_eq!(op.kind() as usize, i);
            assert_eq!(op.is_write(), (1..=3).contains(&i), "{op:?}");
            assert_eq!(op.map_key(|k| k + 6).key(), 7);
        }
        let labels = OP_KINDS.map(OpKind::label);
        assert_eq!(labels, ["lookup", "insert", "update", "remove", "scan"]);
    }
}
