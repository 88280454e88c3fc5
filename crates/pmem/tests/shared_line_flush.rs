//! Write-backs of one cache line from several threads must never move
//! the persisted image backwards: a store that its own thread flushed
//! survives a power cut, whatever a neighbour flushing the same line
//! did at the same time.
//!
//! The shape is an append log with two 32-byte slots per line, claimed
//! by atomic increment, as a log with concurrent appenders has: each
//! thread writes its slot once and persists it, the threads join, and
//! the pool loses power. Every slot was flushed by its writer, so every
//! slot must be on media.

use std::sync::atomic::{AtomicU64, Ordering};

use pmem::{PmConfig, PmPool, ROOT_AREA};

const SLOTS: u64 = 20_000;
const SLOT_BYTES: u64 = 32;
const THREADS: u64 = 2;
const ROUNDS: u64 = 4;

fn slot_words(i: u64) -> [u64; 4] {
    [i + 1, !i, i.rotate_left(32), i ^ 0xA5A5_A5A5_A5A5_A5A5]
}

fn lost_slots() -> Vec<u64> {
    let pool = PmPool::new((ROOT_AREA + SLOTS * SLOT_BYTES) as usize, PmConfig::real());
    let next = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= SLOTS {
                    break;
                }
                let off = ROOT_AREA + i * SLOT_BYTES;
                let bytes: Vec<u8> = slot_words(i).iter().flat_map(|w| w.to_le_bytes()).collect();
                pool.write_bytes(off, &bytes);
                pool.persist(off, SLOT_BYTES as usize);
            });
        }
    });
    pool.crash();
    (0..SLOTS)
        .filter(|&i| {
            let off = ROOT_AREA + i * SLOT_BYTES;
            let got: [u64; 4] = std::array::from_fn(|j| pool.read_u64(off + j as u64 * 8));
            got != slot_words(i)
        })
        .collect()
}

#[test]
fn concurrent_flushes_of_one_line_keep_every_flushed_store() {
    for round in 0..ROUNDS {
        let lost = lost_slots();
        assert!(
            lost.is_empty(),
            "round {round}: {} of {SLOTS} flushed slots lost at the power cut (first {:?})",
            lost.len(),
            &lost[..lost.len().min(8)]
        );
    }
}
