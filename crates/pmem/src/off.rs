//! Typed persistent offsets.
//!
//! Persistent data structures must not store virtual addresses: a pool
//! can be mapped at a different address after restart. Everything in PM
//! therefore refers to other PM locations by *offset from the pool
//! base*. [`PmOff<T>`] is a thin typed wrapper over such an offset, the
//! moral equivalent of PMDK's `PMEMoid` or an offset-based smart
//! pointer.

use std::marker::PhantomData;

/// A typed offset into a [`crate::PmPool`].
///
/// `PmOff<T>` does not borrow the pool and is freely `Copy`; it is the
/// caller's job to pair it with the right pool (all crates in this
/// workspace use a single pool per index instance).
pub struct PmOff<T> {
    raw: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> PmOff<T> {
    /// Wrap a raw byte offset.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self {
            raw,
            _marker: PhantomData,
        }
    }

    /// The raw byte offset.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.raw
    }
}

// Manual impls: `derive` would bound them on `T`, which is wrong for a
// pointer-like type.
impl<T> Clone for PmOff<T> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PmOff<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Node;

    #[test]
    fn copy_does_not_require_t_bounds() {
        // Node is not Clone; PmOff<Node> still is Copy.
        let a: PmOff<Node> = PmOff::new(8);
        let b = a;
        assert_eq!((a.raw(), b.raw()), (8, 8));
    }
}
