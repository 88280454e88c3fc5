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
    /// Multiplier numerator applied when an access hits the same media
    /// block as the previous access from the same thread (sequential
    /// pattern); the charged cost is `ns * seq_discount_pct / 100`.
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

    /// Charge `blocks` read penalties to the calling thread.
    /// `sequential` selects the discounted rate.
    #[inline]
    pub fn charge_read(&self, blocks: u64, sequential: bool) {
        if self.read_ns != 0 {
            self.charge(self.read_ns, blocks, sequential);
        }
    }

    /// Charge `blocks` write penalties to the calling thread.
    #[inline]
    pub fn charge_write(&self, blocks: u64, sequential: bool) {
        if self.write_ns != 0 {
            self.charge(self.write_ns, blocks, sequential);
        }
    }

    #[inline]
    fn charge(&self, ns_per_block: u32, blocks: u64, sequential: bool) {
        let pct = if sequential {
            self.seq_discount_pct
        } else {
            100
        };
        let ns = ns_per_block as u64 * blocks * pct as u64 / 100;
        DEBT.with(|d| d.charge(ns as i64, ns_per_block as i64, spin));
    }
}

thread_local! {
    static DEBT: Debt = const { Debt(Cell::new(0)) };
}

/// A thread's latency account, in ns: positive = charged but not yet
/// waited for, negative = credit from a wait that ran long. A busy-wait
/// overshoots (by up to a clock read, by a time slice when preempted);
/// carrying the overshoot forward as credit makes the time paid per
/// charge converge to the model's value. Credit is capped at one
/// block's charge, so a preemption cannot buy a burst of free accesses.
struct Debt(Cell<i64>);

impl Debt {
    /// Add `ns` to the account and settle it: `wait(owed)` waits at
    /// least `owed` ns and returns how long it really took.
    #[inline]
    fn charge(&self, ns: i64, max_credit: i64, wait: impl FnOnce(i64) -> i64) {
        let owed = self.0.get() + ns;
        self.0.set(if owed <= 0 {
            owed
        } else {
            -(wait(owed) - owed).min(max_credit)
        });
    }
}

/// Busy-wait at least `owed` ns and return the time spent
/// (`thread::sleep` is far too coarse for nanosecond-scale penalties).
/// About one clock read's worth of a wait — before its first read
/// returns, after its last was taken — lies outside what it reads off
/// the clock, and the gap between its last two reads is what one read
/// costs right now. No `spin_loop` hint: its `pause` would widen the gap
/// without widening the unseen part.
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

    #[test]
    fn off_charges_nothing() {
        let m = LatencyModel::off();
        assert!(!m.enabled());
        let t = Instant::now();
        m.charge_read(1_000_000, false);
        m.charge_write(1_000_000, false);
        // A million blocks at zero cost must return ~instantly.
        assert!(t.elapsed() < std::time::Duration::from_millis(50));
    }

    #[test]
    fn a_long_stall_buys_at_most_one_block_of_credit() {
        let d = Debt(Cell::new(0));
        // The wait for one 170 ns block is preempted for 10 ms...
        d.charge(170, 170, |owed| owed + 10_000_000);
        assert_eq!(d.0.get(), -170, "credit is capped at one block");
        // ...which prepays exactly the next block and nothing more.
        d.charge(170, 170, |_| panic!("the credit covers this block"));
        assert_eq!(d.0.get(), 0);
        let mut waited = 0;
        d.charge(170, 170, |owed| {
            waited = owed;
            owed + 30
        });
        assert_eq!(waited, 170, "the third block is waited for in full");
        assert_eq!(d.0.get(), -30, "a normal overshoot carries over");
        // Credit shortens the next wait instead of being dropped.
        d.charge(68, 170, |owed| {
            waited = owed;
            owed
        });
        assert_eq!(waited, 38);
    }

    #[test]
    fn sequential_discount_reduces_cost() {
        let m = LatencyModel {
            read_ns: 1_000,
            write_ns: 0,
            seq_discount_pct: 10,
        };
        let t = Instant::now();
        m.charge_read(1_000, true); // 0.1 ms total
        let seq = t.elapsed();
        assert!(
            seq < std::time::Duration::from_micros(800),
            "seq took {seq:?}"
        );
    }
}
