//! Seeded input generation: an op stream plus the expected result of
//! every op.
//!
//! The generator keeps a model of the live-key set, so every op's
//! outcome is known before the program sees it: lookups, updates and
//! removes pick a live key, inserts take a fresh `KeySpace` key, and no
//! op can fail on a correct index. Index size stays steady when the mix
//! inserts as often as it removes. Everything is a pure function of the
//! seed; the program receives only the generated ops.

use std::collections::BTreeMap;

use pibench::dist::Distribution;
use pibench::keys::{mix as mix64, KeySpace};
use pibench::workload::{OpKind, OpMix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Insert, update or remove.
pub fn is_write(kind: OpKind) -> bool {
    matches!(kind, OpKind::Insert | OpKind::Update | OpKind::Remove)
}

/// One generated op. `arg` is the expected value (lookup), the value to
/// write (insert/update), unused (remove) or the index of the expected
/// result in [`Segment::scans`] (scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub class: OpKind,
    /// Key (scan: start key).
    pub key: u64,
    /// See the type's doc.
    pub arg: u64,
}

/// A fixed-count stretch of the op stream with its expectations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Segment {
    /// The ops, in issue order.
    pub ops: Vec<Op>,
    /// Expected records of every scan, back to back.
    pub scan_pairs: Vec<(u64, u64)>,
    /// `(offset, len)` into `scan_pairs`, one per scan op.
    pub scans: Vec<(u32, u32)>,
}

impl Segment {
    /// The records scan op `op` must return.
    pub fn scan_expect(&self, op: &Op) -> &[(u64, u64)] {
        let (off, len) = self.scans[op.arg as usize];
        &self.scan_pairs[off as usize..(off + len) as usize]
    }
}

/// Logical indexes a seed owns: seeds get disjoint windows of the
/// `KeySpace`, so another seed means other keys.
const SEED_WINDOW_BITS: u32 = 28;

/// The generator-side model and op source for one client (thread or
/// connection). With `parts` clients, client `part` owns the logical
/// indexes congruent to `part`, so its expectations stay exact while
/// the others run.
pub struct Generator {
    ks: KeySpace,
    rng: SmallRng,
    dist: Distribution,
    mix: OpMix,
    scan_len: usize,
    /// Live records; position is the rank the distribution draws.
    live: Vec<(u64, u64)>,
    /// Ordered copy of `live`, kept only when the mix scans.
    sorted: Option<BTreeMap<u64, u64>>,
    base: u64,
    next_fresh: u64,
    stride: u64,
}

impl Generator {
    /// A client's generator over `records` prefilled records (shared by
    /// `parts` clients).
    pub fn new(
        seed: u64,
        records: u64,
        part: u64,
        parts: u64,
        dist: Distribution,
        mix: OpMix,
        scan_len: usize,
    ) -> Generator {
        assert!(part < parts && records >= parts);
        mix.validate();
        if let Distribution::HotStorm { .. } = dist {
            // The hot window is a range of ranks; it only stays put
            // while the live set does.
            assert!(
                mix.insert == 0 && mix.remove == 0,
                "storm needs a static key set"
            );
        }
        let ks = KeySpace::new(records);
        let base = (mix64(seed) & 0xFFFF_FFFF) << SEED_WINDOW_BITS;
        let live: Vec<(u64, u64)> = (part..records)
            .step_by(parts as usize)
            .map(|i| {
                let k = ks.key(base + i);
                (k, ks.value_for(k))
            })
            .collect();
        let sorted = (mix.scan > 0).then(|| live.iter().copied().collect());
        Generator {
            ks,
            rng: SmallRng::seed_from_u64(mix_seed(seed, part)),
            dist,
            mix,
            scan_len,
            live,
            sorted,
            base,
            next_fresh: records + part,
            stride: parts,
        }
    }

    /// The records this client's share of the prefill inserts (before
    /// any segment was generated) or, later, the live records.
    pub fn live(&self) -> &[(u64, u64)] {
        &self.live
    }

    /// Switches the op mix for the segments generated from now on (the
    /// single-class phases of the per-layer runs).
    pub fn set_mix(&mut self, mix: OpMix) {
        assert!(
            mix.scan == 0 || self.sorted.is_some(),
            "scans need the sorted model"
        );
        self.mix = mix;
    }

    fn pick(&mut self) -> usize {
        self.dist
            .sampler(self.live.len() as u64)
            .sample(&mut self.rng) as usize
    }

    fn fresh_value(&mut self) -> u64 {
        self.rng.gen::<u64>() | 1
    }

    /// Generates the next `n` ops and advances the model past them.
    pub fn segment(&mut self, n: usize) -> Segment {
        let mut seg = Segment {
            ops: Vec::with_capacity(n),
            ..Segment::default()
        };
        for _ in 0..n {
            let class = self.mix.draw(&mut self.rng);
            let (key, arg) = match class {
                OpKind::Lookup => {
                    let i = self.pick();
                    self.live[i]
                }
                OpKind::Insert => {
                    assert!(
                        self.next_fresh < 1 << SEED_WINDOW_BITS,
                        "seed window exhausted"
                    );
                    let key = self.ks.key(self.base + self.next_fresh);
                    self.next_fresh += self.stride;
                    let value = self.fresh_value();
                    self.live.push((key, value));
                    if let Some(s) = &mut self.sorted {
                        s.insert(key, value);
                    }
                    (key, value)
                }
                OpKind::Update => {
                    let i = self.pick();
                    let value = self.fresh_value();
                    self.live[i].1 = value;
                    let key = self.live[i].0;
                    if let Some(s) = &mut self.sorted {
                        s.insert(key, value);
                    }
                    (key, value)
                }
                OpKind::Remove => {
                    let i = self.pick();
                    let (key, _) = self.live.swap_remove(i);
                    if let Some(s) = &mut self.sorted {
                        s.remove(&key);
                    }
                    (key, 0)
                }
                OpKind::Scan => {
                    let i = self.pick();
                    let key = self.live[i].0;
                    let sorted = self
                        .sorted
                        .as_ref()
                        .expect("a scanning mix keeps a sorted model");
                    let off = seg.scan_pairs.len() as u32;
                    seg.scan_pairs.extend(
                        sorted
                            .range(key..)
                            .take(self.scan_len)
                            .map(|(k, v)| (*k, *v)),
                    );
                    seg.scans.push((off, seg.scan_pairs.len() as u32 - off));
                    (key, seg.scans.len() as u64 - 1)
                }
            };
            let op = Op { class, key, arg };
            seg.ops.push(op);
        }
        seg
    }
}

fn mix_seed(seed: u64, part: u64) -> u64 {
    mix64(seed ^ mix64(part.wrapping_add(0xB5)))
}

/// The sorted union of the clients' live records: what the index must
/// hold once every generated op was acknowledged.
pub fn expected_contents(gens: &[Generator]) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = gens.iter().flat_map(|g| g.live.iter().copied()).collect();
    all.sort_unstable();
    all
}

/// Poisson arrival instants (ns from the schedule's start) for `n`
/// requests at `rate_per_s`, from their own stream of the seed.
pub fn arrivals(seed: u64, rate_per_s: f64, n: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 0xA221));
    let mut a = pibench::dist::Arrivals::poisson(rate_per_s);
    (0..n).map(|_| a.next(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const RW: OpMix = OpMix {
        lookup: 50,
        insert: 15,
        update: 15,
        remove: 15,
        scan: 5,
    };

    type Records = Vec<(u64, u64)>;

    fn stream(seed: u64) -> (Records, Segment, Segment, Records) {
        let mut g = Generator::new(seed, 1_000, 0, 1, Distribution::Uniform, RW, 20);
        let prefill = g.live().to_vec();
        let a = g.segment(3_000);
        let b = g.segment(3_000);
        (prefill, a, b, expected_contents(&[g]))
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        assert_eq!(stream(7), stream(7));
        assert_eq!(arrivals(7, 20_000.0, 500), arrivals(7, 20_000.0, 500));
    }

    #[test]
    fn another_seed_means_other_keys() {
        let (p7, a7, ..) = stream(7);
        let (p8, a8, ..) = stream(8);
        let keys7: std::collections::HashSet<u64> = p7.iter().map(|r| r.0).collect();
        assert!(p8.iter().all(|r| !keys7.contains(&r.0)));
        assert_ne!(a7, a8);
        assert_ne!(arrivals(7, 20_000.0, 500), arrivals(8, 20_000.0, 500));
    }

    #[test]
    fn expectations_replay_exactly_on_a_model() {
        let (prefill, a, b, end) = stream(11);
        let mut model: BTreeMap<u64, u64> = prefill.into_iter().collect();
        for seg in [&a, &b] {
            for op in &seg.ops {
                match op.class {
                    OpKind::Lookup => assert_eq!(model.get(&op.key), Some(&op.arg)),
                    OpKind::Insert => assert!(model.insert(op.key, op.arg).is_none()),
                    OpKind::Update => assert!(model.insert(op.key, op.arg).is_some()),
                    OpKind::Remove => assert!(model.remove(&op.key).is_some()),
                    OpKind::Scan => {
                        let want: Vec<_> = model
                            .range(op.key..)
                            .take(20)
                            .map(|(k, v)| (*k, *v))
                            .collect();
                        assert_eq!(seg.scan_expect(op), &want[..]);
                    }
                }
            }
        }
        assert_eq!(end, model.into_iter().collect::<Vec<_>>());
        // Inserts balance removes, so the index size is steady.
        assert!((900..1_100).contains(&end.len()), "{}", end.len());
    }

    #[test]
    fn clients_own_disjoint_keys() {
        let rw = OpMix {
            lookup: 50,
            insert: 15,
            update: 20,
            remove: 15,
            scan: 0,
        };
        let mut g0 = Generator::new(3, 1_000, 0, 2, Distribution::Uniform, rw, 0);
        let mut g1 = Generator::new(3, 1_000, 1, 2, Distribution::Uniform, rw, 0);
        let k0: std::collections::HashSet<u64> =
            g0.segment(2_000).ops.iter().map(|o| o.key).collect();
        assert!(g1.segment(2_000).ops.iter().all(|o| !k0.contains(&o.key)));
        assert_eq!(
            expected_contents(&[g0, g1])
                .windows(2)
                .filter(|w| w[0].0 == w[1].0)
                .count(),
            0
        );
    }

    #[test]
    fn storm_aims_most_ops_at_the_hot_window() {
        let mix = OpMix {
            lookup: 95,
            insert: 0,
            update: 5,
            remove: 0,
            scan: 0,
        };
        let dist = Distribution::HotStorm { hot: 40, frac: 0.9 };
        let mut g = Generator::new(5, 4_000, 0, 1, dist, mix, 0);
        let hot: std::collections::HashSet<u64> = g.live()[..40].iter().map(|r| r.0).collect();
        let seg = g.segment(10_000);
        let hits = seg.ops.iter().filter(|o| hot.contains(&o.key)).count();
        assert!((8_800..9_400).contains(&hits), "{hits}");
    }
}
