//! # pmwcas — persistent multi-word compare-and-swap
//!
//! A from-scratch implementation of PMwCAS (Wang, Levandoski, Larson,
//! ICDE 2018): the lock-free building block BzTree is written against.
//! It atomically — and durably — swaps up to [`MAX_WORDS`] 8-byte words,
//! surviving crashes at any point.
//!
//! ## Protocol
//!
//! 1. **Describe.** The operation records `(address, expected, new)`
//!    for each word in a persistent *descriptor*, then publishes the
//!    descriptor by persisting its status word (sequence + `Undecided`).
//! 2. **Phase 1 — install.** For every word in address order, CAS
//!    `expected → descriptor pointer` (a tagged sentinel with bit 63
//!    set). Any thread that reads a descriptor pointer *helps* complete
//!    the operation instead of blocking. A mismatch decides `Failed`.
//! 3. **Decide.** CAS the status to `Succeeded`/`Failed` and persist it
//!    — the linearization and durability point.
//! 4. **Phase 2 — propagate.** Replace descriptor pointers with the new
//!    (or, on failure, old) values, marked *dirty* until flushed;
//!    readers that encounter a dirty word flush it and clear the bit
//!    before use, guaranteeing no one depends on unpersisted data.
//!
//! Recovery scans the descriptor pool: `Succeeded` descriptors roll
//! forward, anything else rolls back, and dirty bits are scrubbed.
//!
//! ## Reserved bits
//!
//! Managed words reserve **bit 63** (descriptor pointer flag) and
//! **bit 62** (dirty). Values stored through PMwCAS must fit in 62
//! bits — BzTree only stores node offsets and small metadata in managed
//! words, so this costs nothing.

use std::sync::Arc;

use parking_lot::Mutex;
use pmalloc::PmAllocator;
use pmem::{MediaError, PmPool, ThreadSlots};

/// Maximum words per operation (BzTree needs at most 3).
pub const MAX_WORDS: usize = 4;

/// Bit 63: the word currently holds a descriptor pointer.
pub const DESC_FLAG: u64 = 1 << 63;
/// Bit 62: the word's value may not have been persisted yet.
pub const DIRTY: u64 = 1 << 62;

const ST_FREE: u64 = 0;
const ST_UNDECIDED: u64 = 1;
const ST_SUCCEEDED: u64 = 2;
const ST_FAILED: u64 = 3;
const ST_MASK: u64 = 7;

/// Descriptors per pool: one per claim stripe.
const N_DESC: usize = 64;
/// Bytes per descriptor: status_seq, count, 4 × (addr, old, new).
const DESC_BYTES: u64 = 128;

/// Root-area slot where the descriptor area offset is published.
const SLOT_DESC_AREA: u64 = 32;

#[inline]
fn desc_ptr(idx: usize, seq: u64) -> u64 {
    DESC_FLAG | ((idx as u64) << 48) | (seq & 0xFFFF_FFFF_FFFF)
}

#[inline]
fn ptr_idx(ptr: u64) -> usize {
    ((ptr >> 48) & 0x3FFF) as usize
}

#[inline]
fn ptr_seq(ptr: u64) -> u64 {
    ptr & 0xFFFF_FFFF_FFFF
}

/// One word of an operation.
#[derive(Debug, Clone, Copy)]
pub struct WordDescriptor {
    /// Pool offset of the target word (8-aligned).
    pub addr: u64,
    /// Expected current value.
    pub old: u64,
    /// Value to install.
    pub new: u64,
}

/// The PMwCAS runtime: a persistent descriptor pool bound to a
/// [`PmPool`].
pub struct PmwCas {
    pool: Arc<PmPool>,
    /// Pool offset of the descriptor area.
    base: u64,
    /// Which descriptor each thread uses.
    stripes: ThreadSlots,
    /// Volatile claim locks, one per descriptor.
    claims: Vec<Mutex<()>>,
}

impl PmwCas {
    /// Create a fresh descriptor area on a formatted allocator.
    pub fn create(alloc: &PmAllocator) -> Arc<PmwCas> {
        let pool = alloc.pool().clone();
        let base = alloc
            .alloc(N_DESC * DESC_BYTES as usize)
            .expect("pool too small for PMwCAS descriptors");
        for i in 0..N_DESC as u64 {
            for w in 0..DESC_BYTES / 8 {
                pool.write_u64(base + i * DESC_BYTES + w * 8, 0);
            }
        }
        pool.persist(base, (N_DESC as u64 * DESC_BYTES) as usize);
        pool.write_u64(SLOT_DESC_AREA * 8, base);
        pool.persist(SLOT_DESC_AREA * 8, 8);
        Arc::new(Self::shell(pool, base))
    }

    /// Reopen after a crash: complete or roll back every in-flight
    /// descriptor, then scrub dirty bits from their target words. The
    /// descriptor area and every in-flight target word are probed for
    /// media errors before they are interpreted, so a poisoned line
    /// surfaces as a reported [`MediaError`] instead of an emulated
    /// machine-check.
    pub fn try_recover(alloc: &PmAllocator) -> Result<Arc<PmwCas>, MediaError> {
        let pool = alloc.pool().clone();
        pool.check_readable(SLOT_DESC_AREA * 8, 8)
            .map_err(|e| e.context("PMwCAS descriptor-area slot"))?;
        let base = pool.read_u64(SLOT_DESC_AREA * 8);
        assert!(base != 0, "try_recover() without a descriptor area");
        pool.check_readable(base, N_DESC * DESC_BYTES as usize)
            .map_err(|e| e.context("PMwCAS descriptor area"))?;
        let s = Self::shell(pool, base);
        for idx in 0..N_DESC {
            s.recover_descriptor(idx)?;
        }
        Ok(Arc::new(s))
    }

    fn shell(pool: Arc<PmPool>, base: u64) -> PmwCas {
        PmwCas {
            pool,
            base,
            stripes: ThreadSlots::new(N_DESC),
            claims: (0..N_DESC).map(|_| Mutex::new(())).collect(),
        }
    }

    #[inline]
    fn d_off(&self, idx: usize) -> u64 {
        self.base + idx as u64 * DESC_BYTES
    }

    #[inline]
    fn status_seq(&self, idx: usize) -> u64 {
        self.pool
            .load_u64(self.d_off(idx), std::sync::atomic::Ordering::Acquire)
    }

    fn word_of(&self, idx: usize, w: usize) -> WordDescriptor {
        let o = self.d_off(idx) + 16 + w as u64 * 24;
        WordDescriptor {
            addr: self.pool.read_u64(o),
            old: self.pool.read_u64(o + 8),
            new: self.pool.read_u64(o + 16),
        }
    }

    fn count_of(&self, idx: usize) -> usize {
        (self.pool.read_u64(self.d_off(idx) + 8) as usize).min(MAX_WORDS)
    }

    /// Atomically (and durably) swap `entries`. Returns `true` when all
    /// expected values matched and the new values are installed.
    ///
    /// Every word named here must be managed exclusively through
    /// [`PmwCas::mwcas`] / [`PmwCas::read`].
    pub fn mwcas(&self, entries: &[WordDescriptor]) -> bool {
        let _site = obs::site("pmwcas_mwcas");
        assert!(!entries.is_empty() && entries.len() <= MAX_WORDS);
        debug_assert!(entries
            .iter()
            .all(|e| e.old & (DESC_FLAG | DIRTY) == 0 && e.new & (DESC_FLAG | DIRTY) == 0));
        let idx = self.stripes.slot();
        let _claim = self.claims[idx].lock();
        let pool = &*self.pool;
        let d = self.d_off(idx);

        // Describe: fields first, then the status word that makes the
        // descriptor live.
        let mut sorted: Vec<WordDescriptor> = entries.to_vec();
        sorted.sort_unstable_by_key(|e| e.addr);
        pool.write_u64(d + 8, sorted.len() as u64);
        for (w, e) in sorted.iter().enumerate() {
            let o = d + 16 + w as u64 * 24;
            pool.write_u64(o, e.addr);
            pool.write_u64(o + 8, e.old);
            pool.write_u64(o + 16, e.new);
        }
        pool.persist(d + 8, 8 + sorted.len() * 24);
        let seq = (self.status_seq(idx) >> 3) + 1;
        let status = seq << 3 | ST_UNDECIDED;
        pool.store_u64(d, status, std::sync::atomic::Ordering::Release);
        pool.persist(d, 8);

        let ptr = desc_ptr(idx, seq);
        let ok = self.run_phase1(idx, seq, ptr);
        // Decide + persist (linearization point). A concurrent helper
        // may have decided differently (it can observe a word become
        // installable after we saw a mismatch, or vice versa), so the
        // authoritative outcome is the *decided status*, never our
        // local phase-1 result.
        let decided = seq << 3 | if ok { ST_SUCCEEDED } else { ST_FAILED };
        let _ = pool.cas_u64(d, status, decided);
        pool.persist(d, 8);
        let final_status = self.status_seq(idx);
        debug_assert_eq!(final_status >> 3, seq, "claimed descriptor reused");
        let ok = final_status & ST_MASK == ST_SUCCEEDED;
        // Propagate.
        self.run_phase2(idx, seq, ptr);
        // Retire.
        pool.store_u64(d, seq << 3 | ST_FREE, std::sync::atomic::Ordering::Release);
        pool.persist(d, 8);
        ok
    }

    /// Install descriptor pointers (phase 1). Returns whether all
    /// words matched.
    fn run_phase1(&self, idx: usize, seq: u64, ptr: u64) -> bool {
        let pool = &*self.pool;
        let count = self.count_of(idx);
        for w in 0..count {
            let e = self.word_of(idx, w);
            loop {
                // Stop if another helper already decided us.
                let st = self.status_seq(idx);
                if st >> 3 != seq || st & ST_MASK != ST_UNDECIDED {
                    return st & ST_MASK == ST_SUCCEEDED || st >> 3 != seq;
                }
                let cur = pool.load_u64(e.addr, std::sync::atomic::Ordering::Acquire);
                if cur == ptr {
                    break; // already installed (by a helper)
                }
                if cur & DESC_FLAG != 0 {
                    self.help(cur);
                    continue;
                }
                if cur & DIRTY != 0 {
                    self.flush_word(e.addr, cur);
                    continue;
                }
                if cur != e.old {
                    return false;
                }
                if pool.cas_u64(e.addr, cur, ptr).is_ok() {
                    pool.persist(e.addr, 8);
                    break;
                }
            }
        }
        true
    }

    /// Replace descriptor pointers with final values (phase 2).
    fn run_phase2(&self, idx: usize, seq: u64, ptr: u64) {
        let pool = &*self.pool;
        let st = self.status_seq(idx);
        if st >> 3 != seq {
            return; // descriptor reused; someone finished for us
        }
        let succeeded = st & ST_MASK == ST_SUCCEEDED;
        let count = self.count_of(idx);
        for w in 0..count {
            let e = self.word_of(idx, w);
            let val = if succeeded { e.new } else { e.old };
            if pool.cas_u64(e.addr, ptr, val | DIRTY).is_ok() {
                self.flush_word(e.addr, val | DIRTY);
            }
        }
    }

    /// Persist a dirty word and clear its dirty bit.
    fn flush_word(&self, addr: u64, observed: u64) {
        debug_assert!(observed & DIRTY != 0);
        self.pool.persist(addr, 8);
        let _ = self.pool.cas_u64(addr, observed, observed & !DIRTY);
    }

    /// Help complete the operation behind a descriptor pointer.
    fn help(&self, ptr: u64) {
        let idx = ptr_idx(ptr);
        let seq = ptr_seq(ptr);
        if idx >= N_DESC {
            return;
        }
        let st = self.status_seq(idx);
        if st >> 3 != seq {
            return; // already completed and reused
        }
        if st & ST_MASK == ST_UNDECIDED {
            let ok = self.run_phase1(idx, seq, ptr);
            let decided = seq << 3 | if ok { ST_SUCCEEDED } else { ST_FAILED };
            let _ = self.pool.cas_u64(self.d_off(idx), st, decided);
            self.pool.persist(self.d_off(idx), 8);
        }
        self.run_phase2(idx, seq, ptr);
    }

    /// Read a PMwCAS-managed word, resolving descriptor pointers and
    /// dirty bits. This is the only legal way to read managed words.
    pub fn read(&self, addr: u64) -> u64 {
        loop {
            let v = self
                .pool
                .load_u64(addr, std::sync::atomic::Ordering::Acquire);
            if v & DESC_FLAG != 0 {
                self.help(v);
                continue;
            }
            if v & DIRTY != 0 {
                self.flush_word(addr, v);
                return v & !DIRTY;
            }
            return v;
        }
    }

    /// Initialize a managed word (the word must not be shared yet).
    pub fn init_word(&self, addr: u64, value: u64) {
        debug_assert_eq!(value & (DESC_FLAG | DIRTY), 0);
        self.pool.write_u64(addr, value);
        self.pool.persist(addr, 8);
    }

    /// Recovery for one descriptor slot. Probes each in-flight target
    /// word before reading it — the descriptor names arbitrary
    /// application offsets that may sit on poisoned lines.
    fn recover_descriptor(&self, idx: usize) -> Result<(), MediaError> {
        let pool = &*self.pool;
        let st = self.status_seq(idx);
        let state = st & ST_MASK;
        if state == ST_FREE {
            return Ok(());
        }
        let seq = st >> 3;
        let ptr = desc_ptr(idx, seq);
        let succeeded = state == ST_SUCCEEDED;
        for w in 0..self.count_of(idx) {
            let e = self.word_of(idx, w);
            pool.check_readable(e.addr, 8)
                .map_err(|err| err.context("PMwCAS in-flight target word"))?;
            let cur = pool.read_u64(e.addr);
            if cur == ptr {
                let val = if succeeded { e.new } else { e.old };
                pool.write_u64(e.addr, val);
                pool.persist(e.addr, 8);
            } else if cur & DIRTY != 0 && cur & DESC_FLAG == 0 {
                pool.write_u64(e.addr, cur & !DIRTY);
                pool.persist(e.addr, 8);
            }
        }
        pool.write_u64(self.d_off(idx), seq << 3 | ST_FREE);
        pool.persist(self.d_off(idx), 8);
        Ok(())
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<PmPool> {
        &self.pool
    }

    /// Pool offset of the descriptor area block (so reachability GC in
    /// index recovery does not reclaim it).
    pub fn descriptor_area(&self) -> u64 {
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmalloc::AllocMode;
    use pmem::PmConfig;

    fn setup() -> (Arc<PmPool>, Arc<PmAllocator>, Arc<PmwCas>) {
        let pool = Arc::new(PmPool::new(4 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let mw = PmwCas::create(&alloc);
        (pool, alloc, mw)
    }

    #[test]
    fn single_word_success_and_failure() {
        let (_, alloc, mw) = setup();
        let a = alloc.alloc(64).unwrap();
        mw.init_word(a, 5);
        assert!(mw.mwcas(&[WordDescriptor {
            addr: a,
            old: 5,
            new: 6
        }]));
        assert_eq!(mw.read(a), 6);
        assert!(!mw.mwcas(&[WordDescriptor {
            addr: a,
            old: 5,
            new: 7
        }]));
        assert_eq!(mw.read(a), 6);
    }

    #[test]
    fn multi_word_is_all_or_nothing() {
        let (_, alloc, mw) = setup();
        let a = alloc.alloc(64).unwrap();
        let b = a + 8;
        mw.init_word(a, 1);
        mw.init_word(b, 2);
        // Second word mismatches: nothing may change.
        assert!(!mw.mwcas(&[
            WordDescriptor {
                addr: a,
                old: 1,
                new: 10
            },
            WordDescriptor {
                addr: b,
                old: 99,
                new: 20
            },
        ]));
        assert_eq!(mw.read(a), 1);
        assert_eq!(mw.read(b), 2);
        assert!(mw.mwcas(&[
            WordDescriptor {
                addr: a,
                old: 1,
                new: 10
            },
            WordDescriptor {
                addr: b,
                old: 2,
                new: 20
            },
        ]));
        assert_eq!(mw.read(a), 10);
        assert_eq!(mw.read(b), 20);
    }

    #[test]
    fn concurrent_transfers_conserve_sum() {
        // Two "accounts"; threads move one unit with 2-word PMwCAS.
        let (_, alloc, mw) = setup();
        let a = alloc.alloc(64).unwrap();
        let b = a + 8;
        mw.init_word(a, 1_000);
        mw.init_word(b, 1_000);
        std::thread::scope(|s| {
            for t in 0..8 {
                let mw = mw.clone();
                s.spawn(move || {
                    let (from, to) = if t % 2 == 0 { (a, b) } else { (b, a) };
                    let mut done = 0;
                    while done < 200 {
                        let f = mw.read(from);
                        let g = mw.read(to);
                        if f == 0 {
                            break;
                        }
                        if mw.mwcas(&[
                            WordDescriptor {
                                addr: from,
                                old: f,
                                new: f - 1,
                            },
                            WordDescriptor {
                                addr: to,
                                old: g,
                                new: g + 1,
                            },
                        ]) {
                            done += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(mw.read(a) + mw.read(b), 2_000, "sum must be conserved");
    }

    #[test]
    fn concurrent_same_word_cas_once_each() {
        let (_, alloc, mw) = setup();
        let a = alloc.alloc(64).unwrap();
        mw.init_word(a, 0);
        // 8 threads increment 500 times each via 1-word mwcas.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let mw = mw.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        loop {
                            let v = mw.read(a);
                            if mw.mwcas(&[WordDescriptor {
                                addr: a,
                                old: v,
                                new: v + 1,
                            }]) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(mw.read(a), 4_000);
    }

    #[test]
    fn recovery_rolls_forward_succeeded_descriptor() {
        let (pool, alloc, mw) = setup();
        let a = alloc.alloc(64).unwrap();
        mw.init_word(a, 7);
        // Manually stage a crashed phase-2: descriptor decided
        // Succeeded, word still holds the descriptor pointer.
        let base = pool.read_u64(SLOT_DESC_AREA * 8);
        let seq = 41u64;
        pool.write_u64(base + 8, 1);
        pool.write_u64(base + 16, a);
        pool.write_u64(base + 24, 7);
        pool.write_u64(base + 32, 9);
        pool.write_u64(base, seq << 3 | ST_SUCCEEDED);
        pool.write_u64(a, desc_ptr(0, seq));
        pool.persist_all();
        pool.crash();
        let alloc = PmAllocator::try_recover(pool.clone()).unwrap();
        let mw = PmwCas::try_recover(&alloc).unwrap();
        assert_eq!(mw.read(a), 9, "succeeded mwcas must roll forward");
    }

    #[test]
    fn recovery_rolls_back_undecided_descriptor() {
        let (pool, alloc, mw) = setup();
        let a = alloc.alloc(64).unwrap();
        mw.init_word(a, 7);
        let base = pool.read_u64(SLOT_DESC_AREA * 8);
        let seq = 17u64;
        pool.write_u64(base + 8, 1);
        pool.write_u64(base + 16, a);
        pool.write_u64(base + 24, 7);
        pool.write_u64(base + 32, 9);
        pool.write_u64(base, seq << 3 | ST_UNDECIDED);
        pool.write_u64(a, desc_ptr(0, seq));
        pool.persist_all();
        pool.crash();
        let alloc = PmAllocator::try_recover(pool.clone()).unwrap();
        let mw = PmwCas::try_recover(&alloc).unwrap();
        assert_eq!(mw.read(a), 7, "undecided mwcas must roll back");
    }

    #[test]
    fn read_scrubs_dirty_bits() {
        let (pool, alloc, mw) = setup();
        let a = alloc.alloc(64).unwrap();
        // init_word rejects dirty values; stage one through the pool.
        pool.write_u64(a, 3 | DIRTY);
        pool.persist(a, 8);
        assert_eq!(mw.read(a), 3);
        assert_eq!(pool.read_u64(a), 3, "dirty bit cleared in place");
    }
}
