//! Per-structure thread slots.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Which of a PM structure's `n` per-thread slots (redo-log entries,
/// descriptors, magazines) the calling thread uses. The structure owns
/// the assignment: the k-th distinct thread to touch it gets slot k,
/// whatever else the process has run, so the PM offsets a
/// single-threaded run writes are a function of that run alone.
///
/// Slots pick a stripe, they do not guard it: threads past the `n`-th
/// share slots, and so may a thread started after an earlier user
/// exited, so every slot's state still sits behind its own lock.
pub struct ThreadSlots {
    /// Token of the thread that claimed each slot; 0 = unclaimed.
    owners: Box<[AtomicUsize]>,
}

/// A value unique among live threads: the address of a thread-local.
fn thread_token() -> usize {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize)
}

impl ThreadSlots {
    /// `n` unclaimed slots.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a structure needs at least one slot");
        Self {
            owners: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The calling thread's slot, claiming the lowest free one on the
    /// thread's first call.
    #[inline]
    pub fn slot(&self) -> usize {
        let me = thread_token();
        // Relaxed: a claim publishes nothing but itself.
        for (i, owner) in self.owners.iter().enumerate() {
            let claimed = match owner.load(Ordering::Relaxed) {
                0 => owner.compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed),
                by => Err(by),
            };
            if claimed.is_ok() || claimed == Err(me) {
                return i;
            }
        }
        ((me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.owners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_first_touch_order_per_structure() {
        let (a, b) = (ThreadSlots::new(2), ThreadSlots::new(2));
        assert_eq!((a.slot(), a.slot()), (0, 0));
        // A second thread is the first to touch `b` and the second to
        // touch `a`; a third finds `a` full and shares.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!((b.slot(), a.slot(), a.slot()), (0, 1, 1)));
        });
        std::thread::scope(|s| {
            s.spawn(|| assert!(a.slot() < 2));
        });
        assert_eq!((a.slot(), b.slot()), (0, 1));
    }
}
