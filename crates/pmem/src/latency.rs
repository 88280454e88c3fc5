//! Calibrated latency injection.
//!
//! Real Optane DCPMM sits between DRAM and flash: ~300 ns random-read
//! latency, writes complete into the ADR domain quickly but are
//! bandwidth-bound at the media, and sequential access is noticeably
//! cheaper than random access. The emulator cannot reproduce absolute
//! numbers, but it can reproduce the *ordering* of costs (PM read >
//! DRAM read, PM flush > plain store, random > sequential) which is
//! what determines the shape of every figure in the paper.
//!
//! Latency is charged by busy-waiting; the penalties are per 256-byte
//! media block touched, so a 64-byte access and a 256-byte access cost
//! the same, exactly like DCPMM's internal granularity.

use std::cell::Cell;
use std::time::Instant;

/// Per-media-block latency penalties, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Charged per media block on a load that misses the (modelled)
    /// CPU cache, i.e. on every counted PM read.
    pub read_ns: u32,
    /// Charged per media block written back by `clwb`/`clflushopt`
    /// at the next fence, or by `ntstore`.
    pub write_ns: u32,
    /// Multiplier numerator applied to a sequential media block: one
    /// that is the block touched just before it, or that block's
    /// successor; the charged cost is `ns * seq_discount_pct / 100`.
    pub seq_discount_pct: u32,
}

impl LatencyModel {
    /// No latency injection (unit tests, functional runs).
    pub const fn off() -> Self {
        Self {
            read_ns: 0,
            write_ns: 0,
            seq_discount_pct: 100,
        }
    }

    /// Rough Optane shape: reads ~170 ns/block, persisted writes
    /// ~90 ns/block, sequential accesses at 40 % of the random cost.
    /// Measured, not tuned (EXPERIMENTS.md E13, 2-vCPU box): an FPTree
    /// lookup costs 2.3× the same tree with every charge elided and 2.7×
    /// a DRAM B+-tree lookup, against the paper's ~2× on real Optane.
    pub const fn optane_like() -> Self {
        Self {
            read_ns: 170,
            write_ns: 90,
            seq_discount_pct: 40,
        }
    }

    /// Whether any penalty is configured.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.read_ns != 0 || self.write_ns != 0
    }

    /// Charge `random` read penalties at the full rate and `sequential`
    /// ones at the discounted rate to the calling thread.
    #[inline]
    pub fn charge_read(&self, random: u64, sequential: u64) {
        if self.read_ns != 0 {
            self.charge(self.read_ns, random, sequential);
        }
    }

    /// Charge write penalties, as [`LatencyModel::charge_read`] does reads.
    #[inline]
    pub fn charge_write(&self, random: u64, sequential: u64) {
        if self.write_ns != 0 {
            self.charge(self.write_ns, random, sequential);
        }
    }

    #[inline]
    fn charge(&self, ns_per_block: u32, random: u64, sequential: u64) {
        let hundredths = random * 100 + sequential * self.seq_discount_pct as u64;
        let ns = ns_per_block as u64 * hundredths / 100;
        DEBT.with(|d| {
            d.charge(ns as i64, ns_per_block as i64, spin);
            if d.waits.get() == WARM_WAITS {
                d.calibrate(|| self.charge(CALIBRATION_NS, 1, 0));
            }
        });
    }
}

thread_local! {
    static DEBT: Debt = const {
        Debt {
            owed: Cell::new(0),
            waits: Cell::new(0),
            unseen: Cell::new(0),
        }
    };
}

/// Waits a thread makes before it calibrates: enough to warm the clock
/// path, whose first reads run long.
const WARM_WAITS: u64 = 1024;
/// The charge the calibration waits for: long enough that a wait takes
/// several clock reads, as the model's own charges do.
const CALIBRATION_NS: u32 = 200;

/// A thread's latency account. A busy-wait overshoots (by up to a clock
/// read, by a time slice when preempted); carrying the overshoot
/// forward as credit makes the time paid per charge converge to the
/// model's value. Credit is capped at one block's charge, so a
/// preemption cannot buy a burst of free accesses.
struct Debt {
    /// In ns: positive = charged but not yet waited for, negative =
    /// credit from a wait that ran long.
    owed: Cell<i64>,
    /// Waits so far; the thread calibrates at [`WARM_WAITS`].
    waits: Cell<u64>,
    /// What a wait costs beyond what it reads off the clock, in ns
    /// (0 until calibrated).
    unseen: Cell<i64>,
}

impl Debt {
    /// Add `ns` to the account and settle it: `wait(owed)` waits at
    /// least `owed` ns and returns how long it really took.
    #[inline]
    fn charge(&self, ns: i64, max_credit: i64, wait: impl FnOnce(i64) -> i64) {
        let owed = self.owed.get() + ns;
        self.owed.set(if owed <= 0 {
            owed
        } else {
            self.waits.set(self.waits.get() + 1);
            -(wait(owed) + self.unseen.get() - owed).min(max_credit)
        });
    }

    /// Measure what a wait costs beyond what [`spin`] reads off the
    /// clock: the call into it, the bookkeeping around it, the loop's
    /// exit (4–13 ns on a 2-vCPU VM, where a clock read is 50–60 ns).
    /// `charge_one` charges [`CALIBRATION_NS`] through the path every
    /// charge takes; runs of back-to-back charges are timed whole
    /// against what they paid, and the lower quartile of the runs'
    /// excess per wait is kept: a preemption or a slow spell of the
    /// host only ever adds time, and the quartile holds while such a
    /// spell spans fewer than three quarters of the runs.
    #[cold]
    #[inline(never)]
    fn calibrate(&self, mut charge_one: impl FnMut()) {
        let ns = CALIBRATION_NS as i64;
        let mut excess: [i64; 15] = std::array::from_fn(|_| {
            let (before, t) = (self.owed.get(), Instant::now());
            (0..64).for_each(|_| charge_one());
            (t.elapsed().as_nanos() as i64 - 64 * ns - before + self.owed.get()) / 64
        });
        excess.sort_unstable();
        self.unseen.set(excess[15 / 4].clamp(0, ns / 4));
    }
}

/// Busy-wait at least `owed` ns and return the time spent
/// (`thread::sleep` is far too coarse for nanosecond-scale penalties).
/// About one clock read's worth of a wait — before its first read
/// returns, after its last was taken — lies outside what it reads off
/// the clock, and the gap between its last two reads is what one read
/// costs right now; the rest of what it does not see is the thread's
/// calibrated `Debt::unseen`. No `spin_loop` hint: its `pause` would
/// widen the gap without widening the unseen part.
#[inline(never)]
fn spin(owed: i64) -> i64 {
    let start = Instant::now();
    let mut prev = 0;
    loop {
        let seen = start.elapsed().as_nanos() as i64;
        let spent = seen + (seen - prev);
        if spent >= owed {
            return spent;
        }
        prev = seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn debt() -> Debt {
        Debt {
            owed: Cell::new(0),
            waits: Cell::new(0),
            unseen: Cell::new(0),
        }
    }

    #[test]
    fn off_charges_nothing() {
        let m = LatencyModel::off();
        assert!(!m.enabled());
        let t = Instant::now();
        m.charge_read(1_000_000, 0);
        m.charge_write(1_000_000, 0);
        // A million blocks at zero cost must return ~instantly.
        assert!(t.elapsed() < std::time::Duration::from_millis(50));
    }

    #[test]
    fn a_long_stall_buys_at_most_one_block_of_credit() {
        let d = debt();
        // The wait for one 170 ns block is preempted for 10 ms...
        d.charge(170, 170, |owed| owed + 10_000_000);
        assert_eq!(d.owed.get(), -170, "credit is capped at one block");
        // ...which prepays exactly the next block and nothing more.
        d.charge(170, 170, |_| panic!("the credit covers this block"));
        assert_eq!(d.owed.get(), 0);
        let mut waited = 0;
        d.charge(170, 170, |owed| {
            waited = owed;
            owed + 30
        });
        assert_eq!(waited, 170, "the third block is waited for in full");
        assert_eq!(d.owed.get(), -30, "a normal overshoot carries over");
        // Credit shortens the next wait instead of being dropped.
        d.charge(68, 170, |owed| {
            waited = owed;
            owed
        });
        assert_eq!(waited, 38);
    }

    #[test]
    fn the_unseen_part_of_a_wait_counts_as_paid() {
        let d = debt();
        d.unseen.set(8);
        // A wait that read off the clock exactly what it owed took 8 ns
        // more than that...
        d.charge(170, 170, |owed| owed);
        assert_eq!(d.owed.get(), -8);
        // ...which the next wait does not wait for again.
        let mut waited = 0;
        d.charge(170, 170, |owed| {
            waited = owed;
            owed
        });
        assert_eq!(waited, 162);
    }

    #[test]
    fn sequential_discount_reduces_cost() {
        let m = LatencyModel {
            read_ns: 1_000,
            write_ns: 0,
            seq_discount_pct: 10,
        };
        let t = Instant::now();
        m.charge_read(0, 1_000); // 0.1 ms total
        let seq = t.elapsed();
        assert!(
            seq < std::time::Duration::from_micros(800),
            "seq took {seq:?}"
        );
    }
}
