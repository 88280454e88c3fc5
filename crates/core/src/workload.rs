//! Operation mixes and per-thread operation streams.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::dist::Sampler;
use crate::keys::KeySpace;

/// The operation contract lives in `index_api`; the harness generates
/// operations, it does not define them.
pub use index_api::{Op, OpKind};

/// An operation mix as percentages summing to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Percent lookups.
    pub lookup: u8,
    /// Percent inserts.
    pub insert: u8,
    /// Percent updates.
    pub update: u8,
    /// Percent removes.
    pub remove: u8,
    /// Percent scans.
    pub scan: u8,
}

impl OpMix {
    /// A single-operation workload.
    pub fn pure(kind: OpKind) -> OpMix {
        let mut m = OpMix {
            lookup: 0,
            insert: 0,
            update: 0,
            remove: 0,
            scan: 0,
        };
        match kind {
            OpKind::Lookup => m.lookup = 100,
            OpKind::Insert => m.insert = 100,
            OpKind::Update => m.update = 100,
            OpKind::Remove => m.remove = 100,
            OpKind::Scan => m.scan = 100,
        }
        m
    }

    /// Lookup/insert mix (the paper's mixed workloads: 90/10, 50/50,
    /// 10/90).
    pub fn read_insert(lookup: u8) -> OpMix {
        OpMix {
            lookup,
            insert: 100 - lookup,
            update: 0,
            remove: 0,
            scan: 0,
        }
    }

    /// Parse `L,I,U,R,S` (percent lookups, inserts, updates, removes,
    /// scans); the error says what a mix flag expects.
    pub fn parse(s: &str) -> Result<OpMix, String> {
        let parts: Vec<Option<u8>> = s.split(',').map(|p| p.trim().parse().ok()).collect();
        match parts[..] {
            [Some(lookup), Some(insert), Some(update), Some(remove), Some(scan)]
                if [lookup, insert, update, remove, scan]
                    .iter()
                    .map(|&p| u32::from(p))
                    .sum::<u32>()
                    == 100 =>
            {
                Ok(OpMix {
                    lookup,
                    insert,
                    update,
                    remove,
                    scan,
                })
            }
            _ => Err(format!(
                "expects five percentages lookup,insert,update,remove,scan summing to 100, got {s:?}"
            )),
        }
    }

    /// Validate that percentages sum to 100.
    pub fn validate(&self) {
        let sum = self.lookup as u32
            + self.insert as u32
            + self.update as u32
            + self.remove as u32
            + self.scan as u32;
        assert_eq!(sum, 100, "op mix must sum to 100, got {sum}");
    }

    /// Draw the next op kind.
    #[inline]
    pub fn draw(&self, rng: &mut SmallRng) -> OpKind {
        let r = rng.gen_range(0..100u32);
        let mut acc = self.lookup as u32;
        if r < acc {
            return OpKind::Lookup;
        }
        acc += self.insert as u32;
        if r < acc {
            return OpKind::Insert;
        }
        acc += self.update as u32;
        if r < acc {
            return OpKind::Update;
        }
        acc += self.remove as u32;
        if r < acc {
            return OpKind::Remove;
        }
        OpKind::Scan
    }
}

/// Per-thread operation generator.
pub struct OpStream<'a> {
    mix: OpMix,
    sampler: Sampler,
    keyspace: &'a KeySpace,
    scan_len: usize,
    negative_lookups: bool,
}

impl<'a> OpStream<'a> {
    /// New stream drawing existing-key indexes from `sampler`.
    pub fn new(mix: OpMix, sampler: Sampler, keyspace: &'a KeySpace, scan_len: usize) -> Self {
        mix.validate();
        OpStream {
            mix,
            sampler,
            keyspace,
            scan_len,
            negative_lookups: false,
        }
    }

    /// Make lookups target keys guaranteed to be absent (the
    /// fingerprint-effectiveness experiment).
    pub fn with_negative_lookups(mut self, negative: bool) -> Self {
        self.negative_lookups = negative;
        self
    }

    /// Generate the next operation.
    #[inline]
    pub fn next_op(&self, rng: &mut SmallRng) -> Op {
        match self.mix.draw(rng) {
            OpKind::Lookup => {
                let i = self.sampler.sample(rng);
                let k = if self.negative_lookups {
                    self.keyspace.negative_key(i)
                } else {
                    self.keyspace.key(i)
                };
                Op::Lookup(k)
            }
            OpKind::Insert => {
                let k = self.keyspace.next_insert_key();
                Op::Insert(k, self.keyspace.value_for(k))
            }
            OpKind::Update => {
                let k = self.keyspace.key(self.sampler.sample(rng));
                Op::Update(k, self.keyspace.value_for(k) ^ rng.gen::<u64>() | 1)
            }
            OpKind::Remove => Op::Remove(self.keyspace.key(self.sampler.sample(rng))),
            OpKind::Scan => Op::Scan(self.keyspace.key(self.sampler.sample(rng)), self.scan_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use index_api::OP_KINDS;
    use rand::SeedableRng;

    #[test]
    fn pure_mixes_draw_only_their_kind() {
        let mut rng = SmallRng::seed_from_u64(5);
        for kind in OP_KINDS {
            let m = OpMix::pure(kind);
            m.validate();
            for _ in 0..100 {
                assert_eq!(m.draw(&mut rng), kind);
            }
        }
    }

    #[test]
    fn mixed_ratios_are_respected() {
        let m = OpMix::read_insert(90);
        m.validate();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut lookups = 0;
        for _ in 0..10_000 {
            if m.draw(&mut rng) == OpKind::Lookup {
                lookups += 1;
            }
        }
        assert!((8_700..=9_300).contains(&lookups), "lookups={lookups}");
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn invalid_mix_rejected() {
        OpMix {
            lookup: 50,
            insert: 10,
            update: 0,
            remove: 0,
            scan: 0,
        }
        .validate();
    }

    #[test]
    fn stream_produces_resolved_ops() {
        let ks = KeySpace::new(1_000);
        let s = OpStream::new(
            OpMix {
                lookup: 20,
                insert: 20,
                update: 20,
                remove: 20,
                scan: 20,
            },
            Distribution::Uniform.sampler(1_000),
            &ks,
            100,
        );
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let op = s.next_op(&mut rng);
            seen[op.kind() as usize] = true;
            if let Op::Scan(_, n) = op {
                assert_eq!(n, 100);
            }
        }
        assert!(seen.iter().all(|&s| s), "all op kinds generated");
    }
}
