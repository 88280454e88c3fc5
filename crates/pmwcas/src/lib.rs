//! # pmwcas — persistent multi-word compare-and-swap
//!
//! A from-scratch implementation of PMwCAS (Wang, Levandoski, Larson,
//! ICDE 2018): the lock-free building block BzTree is written against.
//! It atomically — and durably — swaps up to [`MAX_WORDS`] 8-byte words,
//! surviving crashes at any point.
//!
//! ## Protocol
//!
//! A k-word operation that meets no other costs 2k + 2 write-backs and
//! 4 fences.
//!
//! 1. **Describe.** The owner stores the descriptor body — the count and
//!    `(address, expected, new)` per word — with one store, then the
//!    status word (sequence + `Undecided`), and writes both back with
//!    one persist (one cache line for k ≤ 2). Nothing points at the
//!    descriptor yet, so nothing can depend on it before that fence.
//! 2. **Phase 1 — install.** For every word in address order, CAS
//!    `expected → descriptor pointer` (a tagged sentinel with bit 63
//!    set) and write the word back; one fence follows the last install.
//!    Any thread that reads a descriptor pointer *helps* complete the
//!    operation instead of blocking. A mismatch decides `Failed`.
//! 3. **Decide.** CAS the status to `Succeeded`/`Failed` and persist it
//!    — the linearization and durability point.
//! 4. **Phase 2 — propagate.** Replace descriptor pointers with the new
//!    (or, on failure, old) values marked *dirty*, write each back, then
//!    one fence, then clear the dirty bits. A reader that meets a dirty
//!    word flushes it and clears the bit before use, so no one depends
//!    on unpersisted data.
//! 5. **Retire.** A plain store of a free status. After phase 2's fence
//!    no word holds the descriptor's pointer, so recovery has nothing to
//!    do with it and the store need not persist.
//!
//! The owner works from its own (DRAM) copy of the words. A helper
//! reads the descriptor's fields, then re-checks that the status still
//! names the operation's sequence number before acting on them. A
//! helper always finishes with phase 2 — as a failure if the operation
//! has retired — so a pointer it installed too late goes back to the
//! `old` value it displaced.
//!
//! **Recovery** rolls every word that holds a descriptor's *own*
//! pointer forward (`Succeeded`) or back (anything else) and touches
//! nothing else: a descriptor's fields on PM may predate its status
//! (they are described before the status, under one write-back), but
//! only an operation whose description was fenced can have installed
//! its pointer anywhere. Dirty bits are left for [`PmwCas::read`] to
//! clear.
//!
//! ## Reserved bits
//!
//! Managed words reserve **bit 63** (descriptor pointer flag) and
//! **bit 62** (dirty). Values stored through PMwCAS must fit in 62
//! bits — BzTree only stores node offsets and small metadata in managed
//! words, so this costs nothing.

use std::ops::ControlFlow;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmalloc::PmAllocator;
use pmem::{MediaError, PmPool, ThreadSlots};

/// Maximum words per operation (BzTree needs at most 2).
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
#[derive(Debug, Clone, Copy, Default)]
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
        self.pool.load_u64(self.d_off(idx), Ordering::Acquire)
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

        // Describe: the body with one store, then the status word that
        // makes the descriptor live, then one write-back over both.
        let mut copy = [WordDescriptor::default(); MAX_WORDS];
        let words = &mut copy[..entries.len()];
        words.copy_from_slice(entries);
        words.sort_unstable_by_key(|e| e.addr);
        let mut body = [0u8; 8 + 24 * MAX_WORDS];
        let fields = std::iter::once(words.len() as u64)
            .chain(words.iter().flat_map(|e| [e.addr, e.old, e.new]));
        for (chunk, v) in body.chunks_exact_mut(8).zip(fields) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        let body = &body[..8 + 24 * words.len()];
        let seq = (self.status_seq(idx) >> 3) + 1;
        let status = seq << 3 | ST_UNDECIDED;
        // A helper that read the previous operation's status must not
        // see this body before the retire store that ended it.
        fence(Ordering::Release);
        pool.write_bytes(d + 8, body);
        pool.store_u64(d, status, Ordering::Release);
        pool.persist(d, 8 + body.len());

        let ptr = desc_ptr(idx, seq);
        let ok = self.run_phase1(idx, seq, ptr, words);
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
        self.run_phase2(ptr, words, ok);
        // Retire: no word holds `ptr` any more, so recovery would do
        // nothing with this descriptor; the store need not persist.
        pool.store_u64(d, seq << 3 | ST_FREE, Ordering::Release);
        ok
    }

    /// Install descriptor pointers (phase 1), writing each word back,
    /// then fence once. Returns whether all words matched.
    fn run_phase1(&self, idx: usize, seq: u64, ptr: u64, words: &[WordDescriptor]) -> bool {
        let pool = &*self.pool;
        for e in words {
            loop {
                // Stop if another helper already decided us.
                let st = self.status_seq(idx);
                if st >> 3 != seq || st & ST_MASK != ST_UNDECIDED {
                    return st & ST_MASK == ST_SUCCEEDED || st >> 3 != seq;
                }
                let cur = pool.load_u64(e.addr, Ordering::Acquire);
                if cur == ptr {
                    // Installed by a helper: write it back too, so the
                    // fence below covers it before anyone decides.
                    pool.clwb(e.addr, 8);
                    break;
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
                    pool.clwb(e.addr, 8);
                    break;
                }
            }
        }
        pool.sfence();
        true
    }

    /// Replace descriptor pointers with final values (phase 2): store
    /// each value dirty and write it back, fence once, then clear the
    /// dirty bits this thread set.
    fn run_phase2(&self, ptr: u64, words: &[WordDescriptor], succeeded: bool) {
        let pool = &*self.pool;
        let val = |e: &WordDescriptor| if succeeded { e.new } else { e.old };
        let mut mine = [false; MAX_WORDS];
        for (w, e) in words.iter().enumerate() {
            match pool.cas_u64(e.addr, ptr, val(e) | DIRTY) {
                Ok(_) => mine[w] = true,
                // A helper propagated it: write its value back too, so
                // our fence covers it before the descriptor is reused.
                Err(cur) if cur & DIRTY != 0 => {}
                Err(_) => continue,
            }
            pool.clwb(e.addr, 8);
        }
        pool.sfence();
        for (w, e) in words.iter().enumerate() {
            if mine[w] {
                let _ = pool.cas_u64(e.addr, val(e) | DIRTY, val(e));
            }
        }
    }

    /// Persist a dirty word and clear its dirty bit.
    fn flush_word(&self, addr: u64, observed: u64) {
        debug_assert!(observed & DIRTY != 0);
        self.pool.persist(addr, 8);
        let _ = self.pool.cas_u64(addr, observed, observed & !DIRTY);
    }

    /// The words of descriptor `idx` while it still runs operation
    /// `seq`, and that operation's status; `None` once it retired. The
    /// status is re-read after the fields, so they belong to `seq`.
    fn words_of(&self, idx: usize, seq: u64) -> Option<(u64, [WordDescriptor; MAX_WORDS], usize)> {
        let running = |st: u64| st >> 3 == seq && st & ST_MASK != ST_FREE;
        if !running(self.status_seq(idx)) {
            return None;
        }
        let n = self.count_of(idx);
        let mut words = [WordDescriptor::default(); MAX_WORDS];
        for (w, e) in words[..n].iter_mut().enumerate() {
            *e = self.word_of(idx, w);
        }
        // Pairs with the release fence in `mwcas`: a later operation
        // writes its body after `seq`'s retire store, so if any field
        // above came from it, this second status load sees the retire.
        fence(Ordering::Acquire);
        let st = self.status_seq(idx);
        running(st).then_some((st, words, n))
    }

    /// Help complete the operation behind a descriptor pointer.
    fn help(&self, ptr: u64) {
        let idx = ptr_idx(ptr);
        let seq = ptr_seq(ptr);
        if idx >= N_DESC {
            return;
        }
        let Some((st, words, n)) = self.words_of(idx, seq) else {
            return; // already completed and retired
        };
        let words = &words[..n];
        if st & ST_MASK == ST_UNDECIDED {
            let ok = self.run_phase1(idx, seq, ptr, words);
            let decided = seq << 3 | if ok { ST_SUCCEEDED } else { ST_FAILED };
            let _ = self.pool.cas_u64(self.d_off(idx), st, decided);
            self.pool.persist(self.d_off(idx), 8);
        }
        // Propagate even if the operation has retired meanwhile: a word
        // that still holds its pointer then got it from an install that
        // came too late (ours or another helper's), and goes back to the
        // `old` value that install displaced.
        let st = self.status_seq(idx);
        self.run_phase2(ptr, words, st >> 3 == seq && st & ST_MASK == ST_SUCCEEDED);
    }

    /// Read a PMwCAS-managed word, resolving descriptor pointers and
    /// dirty bits. This and [`PmwCas::resolve`] are the only legal ways
    /// to read managed words.
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        loop {
            let v = self.pool.load_u64(addr, Ordering::Acquire);
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

    /// Copy `dst.len()` words starting at `addr` with one PM access,
    /// then fence as [`PmwCas::read`]'s acquire load would. A copy of a
    /// managed word may still hold a descriptor pointer or a dirty bit:
    /// pass it through [`PmwCas::resolve`] before using it.
    #[inline]
    pub fn read_words(&self, addr: u64, dst: &mut [u64]) {
        self.pool.read_words(addr, dst);
        fence(Ordering::Acquire);
    }

    /// [`PmPool::read_blocks_rev`] with [`PmwCas::read_words`]' acquire
    /// fence after each block's copy.
    #[inline]
    pub fn read_blocks_rev<B>(
        &self,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, &[u64]) -> ControlFlow<B>,
    ) -> Option<B> {
        self.pool.read_blocks_rev(lo, hi, |off, words| {
            fence(Ordering::Acquire);
            f(off, words)
        })
    }

    /// The value of the managed word at `addr`, given `copy` from
    /// [`PmwCas::read_words`] or [`PmwCas::read_blocks_rev`]: the copy
    /// itself when it is a plain value, else what [`PmwCas::read`]
    /// returns after helping the descriptor or flushing the dirty word.
    #[inline]
    pub fn resolve(&self, addr: u64, copy: u64) -> u64 {
        if copy & (DESC_FLAG | DIRTY) == 0 {
            copy
        } else {
            self.read(addr)
        }
    }

    /// Initialize a managed word (the word must not be shared yet).
    pub fn init_word(&self, addr: u64, value: u64) {
        debug_assert_eq!(value & (DESC_FLAG | DIRTY), 0);
        self.pool.write_u64(addr, value);
        self.pool.persist(addr, 8);
    }

    /// Recovery for one descriptor slot: roll every word that holds
    /// this descriptor's pointer forward or back, then free the slot.
    /// Only words holding the pointer are touched — the fields may
    /// predate the status — and dirty bits are left for `read`. Probes
    /// each named word before reading it, since the fields name
    /// arbitrary application offsets that may sit on poisoned lines.
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
            if pool.read_u64(e.addr) == ptr {
                pool.write_u64(e.addr, if succeeded { e.new } else { e.old });
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

    /// Words `a, a + 8, …` initialised to `1, 2, …`, and the entries of
    /// a k-word `mwcas` that adds 100 to each.
    fn words(alloc: &PmAllocator, mw: &PmwCas, k: usize) -> Vec<WordDescriptor> {
        let a = alloc.alloc(64).unwrap();
        (0..k as u64)
            .map(|w| {
                mw.init_word(a + 8 * w, w + 1);
                WordDescriptor {
                    addr: a + 8 * w,
                    old: w + 1,
                    new: w + 101,
                }
            })
            .collect()
    }

    #[test]
    fn uncontended_mwcas_writes_back_2k_plus_2_lines_and_fences_4_times() {
        for k in [1, 2, 4] {
            let (pool, alloc, mw) = setup();
            let entries = words(&alloc, &mw, k);
            let before = pool.stats();
            assert!(mw.mwcas(&entries));
            let op = pool.stats().since(&before);
            assert_eq!(op.clwb, 2 * k as u64 + 2, "{k}-word write-backs");
            assert_eq!(op.fence, 4, "{k}-word fences");
            assert!(entries.iter().all(|e| mw.read(e.addr) == e.new));
        }
    }

    /// Crash a k-word `mwcas` at every persistence event it issues,
    /// with each residual image of its last written lines, recover, and
    /// check the words are all old or all new with no descriptor
    /// pointer left; a second recovery must change nothing.
    fn crash_at_every_boundary(k: usize) {
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info
                    .payload()
                    .downcast_ref::<pmem::CrashPointHit>()
                    .is_none()
                {
                    prev(info);
                }
            }));
        });
        let events = {
            let (pool, alloc, mw) = setup();
            let entries = words(&alloc, &mw, k);
            let before = pool.persist_event_count();
            assert!(mw.mwcas(&entries));
            pool.persist_event_count() - before
        };
        assert_eq!(events, 2 * k as u64 + 6, "2k + 2 write-backs and 4 fences");
        for n in 1..=events {
            for mask in 0..8u64 {
                let (pool, alloc, mw) = setup();
                let entries = words(&alloc, &mw, k);
                pool.arm_crash_after(n);
                let r =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mw.mwcas(&entries)));
                let hit = r.expect_err("every boundary of the op trips");
                assert!(hit.downcast_ref::<pmem::CrashPointHit>().is_some());
                drop((alloc, mw));
                pool.crash_with(pmem::ResidualPolicy::Subset { mask });
                let raw = |pool: &PmPool| -> Vec<u64> {
                    entries.iter().map(|e| pool.read_u64(e.addr)).collect()
                };
                let recover = || {
                    let alloc = PmAllocator::try_recover(pool.clone()).unwrap();
                    PmwCas::try_recover(&alloc).unwrap()
                };
                recover();
                let first = raw(&pool);
                assert!(
                    first.iter().all(|v| v & DESC_FLAG == 0),
                    "k={k} n={n} mask={mask}: descriptor pointer survived {first:x?}"
                );
                pool.crash();
                let mw = recover();
                assert_eq!(
                    raw(&pool),
                    first,
                    "k={k} n={n} mask={mask}: second recovery moved"
                );
                let got: Vec<u64> = entries.iter().map(|e| mw.read(e.addr)).collect();
                let old: Vec<u64> = entries.iter().map(|e| e.old).collect();
                let new: Vec<u64> = entries.iter().map(|e| e.new).collect();
                assert!(
                    got == old || got == new,
                    "k={k} n={n} mask={mask}: torn {got:?}"
                );
            }
        }
    }

    #[test]
    fn one_word_mwcas_survives_a_crash_at_every_boundary() {
        crash_at_every_boundary(1);
    }

    #[test]
    fn two_word_mwcas_survives_a_crash_at_every_boundary() {
        crash_at_every_boundary(2);
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
