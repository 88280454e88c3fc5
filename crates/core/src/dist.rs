//! Access distributions over logical key indexes.

use rand::rngs::SmallRng;
use rand::Rng;

/// Which logical index the next point operation targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Every index equally likely.
    Uniform,
    /// Self-similar (Gray et al., SIGMOD '94): a fraction `h` of
    /// accesses hits a fraction `h` of the key space, recursively.
    /// `h = 0.2` gives the paper's "80% of accesses on 20% of keys".
    SelfSimilar {
        /// Skew parameter in (0, 0.5).
        skew: f64,
    },
    /// Zipfian with parameter `theta` (YCSB-style).
    Zipfian {
        /// Skew parameter in (0, 1).
        theta: f64,
    },
    /// Hot-key storm: a fraction `frac` of accesses hammers a
    /// *contiguous* window of `hot` indexes at the front of the key
    /// space; the rest are uniform over everything. Unlike
    /// [`Distribution::SelfSimilar`], the hot set is a single dense
    /// range, which is what drives one shard (and one cache region)
    /// hot — the worst case the DRAM tier is built for.
    HotStorm {
        /// Hot-window size in indexes (clamped to the key space).
        hot: u64,
        /// Fraction of accesses aimed at the hot window, in (0, 1).
        frac: f64,
    },
}

/// The distribution names [`Distribution::parse`] accepts.
pub const NAMES: [&str; 4] = ["uniform", "selfsimilar", "zipfian", "storm"];

impl Distribution {
    /// The paper's default skewed workload.
    pub fn self_similar_80_20() -> Distribution {
        Distribution::SelfSimilar { skew: 0.2 }
    }

    /// The hot-key storm every tool means by `storm`: 90% of accesses
    /// hammer a contiguous 1% of `records`.
    pub fn storm(records: u64) -> Distribution {
        Distribution::HotStorm {
            hot: (records / 100).max(1),
            frac: 0.9,
        }
    }

    /// The distribution a tool's `--dist name [--theta x]` names, over
    /// `records` prefilled records (zipfian's θ defaults to YCSB's
    /// 0.99); the error says what the flag expects.
    pub fn parse(name: &str, theta: Option<f64>, records: u64) -> Result<Distribution, String> {
        let theta = theta.unwrap_or(0.99);
        match name {
            "uniform" => Ok(Distribution::Uniform),
            "selfsimilar" => Ok(Distribution::self_similar_80_20()),
            "zipfian" if theta > 0.0 && theta < 1.0 => Ok(Distribution::Zipfian { theta }),
            "zipfian" => Err(format!("zipfian expects --theta in (0, 1), got {theta}")),
            "storm" => Ok(Distribution::storm(records)),
            _ => Err(format!("expects one of {}, got {name:?}", NAMES.join("|"))),
        }
    }

    /// Build a sampler for indexes in `[0, n)`.
    pub fn sampler(&self, n: u64) -> Sampler {
        assert!(n > 0);
        match *self {
            Distribution::Uniform => Sampler::Uniform { n },
            Distribution::SelfSimilar { skew } => {
                assert!(skew > 0.0 && skew < 0.5, "skew must be in (0, 0.5)");
                Sampler::SelfSimilar {
                    n,
                    exp: skew.ln() / (1.0 - skew).ln(),
                }
            }
            Distribution::Zipfian { theta } => {
                assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
                // YCSB's rejection-free Zipfian generator.
                let zetan = zeta(n, theta);
                let zeta2 = zeta(2, theta);
                Sampler::Zipfian {
                    n,
                    theta,
                    zetan,
                    alpha: 1.0 / (1.0 - theta),
                    eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
                }
            }
            Distribution::HotStorm { hot, frac } => {
                assert!(hot > 0, "hot window must be non-empty");
                assert!(frac > 0.0 && frac < 1.0, "frac must be in (0, 1)");
                Sampler::HotStorm {
                    n,
                    hot: hot.min(n),
                    frac,
                }
            }
        }
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct sum; cached per sampler. For very large n this is the
    // dominant setup cost, so benchmarks construct samplers once.
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// A concrete sampler (one per thread; cheap to copy).
#[derive(Debug, Clone, Copy)]
pub enum Sampler {
    /// See [`Distribution::Uniform`].
    Uniform {
        /// Key-space size.
        n: u64,
    },
    /// See [`Distribution::SelfSimilar`].
    SelfSimilar {
        /// Key-space size.
        n: u64,
        /// Precomputed exponent `ln(h) / ln(1-h)`.
        exp: f64,
    },
    /// See [`Distribution::Zipfian`].
    Zipfian {
        /// Key-space size.
        n: u64,
        /// Skew.
        theta: f64,
        /// `zeta(n, theta)`.
        zetan: f64,
        /// `1 / (1 - theta)`.
        alpha: f64,
        /// YCSB eta constant.
        eta: f64,
    },
    /// See [`Distribution::HotStorm`].
    HotStorm {
        /// Key-space size.
        n: u64,
        /// Hot-window size (≤ n).
        hot: u64,
        /// Hot-window access fraction.
        frac: f64,
    },
}

impl Sampler {
    /// Draw a logical index in `[0, n)`.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match *self {
            Sampler::Uniform { n } => rng.gen_range(0..n),
            Sampler::SelfSimilar { n, exp } => {
                let u: f64 = rng.gen();
                let v = (n as f64 * u.powf(exp)) as u64;
                v.min(n - 1)
            }
            Sampler::Zipfian {
                n,
                theta,
                zetan,
                alpha,
                eta,
            } => {
                let u: f64 = rng.gen();
                let uz = u * zetan;
                if uz < 1.0 {
                    return 0;
                }
                if uz < 1.0 + 0.5f64.powf(theta) {
                    return 1;
                }
                let v = (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64;
                v.min(n - 1)
            }
            Sampler::HotStorm { n, hot, frac } => {
                if rng.gen::<f64>() < frac {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..n)
                }
            }
        }
    }
}

/// Open-loop arrival-time generator: a Poisson process at `target_qps`,
/// produced by sampling exponential inter-arrival gaps. Used by remote
/// drivers (`pmload --open-loop`) where each request's latency is
/// measured from its *intended* arrival instant, so queueing delay shows
/// up in the tail instead of being absorbed by a closed loop.
#[derive(Debug, Clone)]
pub struct Arrivals {
    mean_ns: f64,
    next_ns: f64,
}

impl Arrivals {
    /// A Poisson arrival process averaging `target_qps` events/second.
    pub fn poisson(target_qps: f64) -> Arrivals {
        assert!(target_qps > 0.0, "target qps must be positive");
        Arrivals {
            mean_ns: 1e9 / target_qps,
            next_ns: 0.0,
        }
    }

    /// Nanoseconds (from schedule start) of the next arrival.
    #[inline]
    pub fn next(&mut self, rng: &mut SmallRng) -> u64 {
        let at = self.next_ns as u64;
        // Inverse-CDF exponential gap; clamp u away from 1.0 so ln()
        // stays finite.
        let u: f64 = rng.gen::<f64>().min(0.999_999_999);
        self.next_ns += -(1.0 - u).ln() * self.mean_ns;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn hits(dist: Distribution, n: u64, draws: usize) -> Vec<u64> {
        let s = dist.sampler(n);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let counts = hits(Distribution::Uniform, 100, 100_000);
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min > 700 && *max < 1_300, "min={min} max={max}");
    }

    #[test]
    fn self_similar_is_80_20() {
        let n = 10_000u64;
        let counts = hits(Distribution::self_similar_80_20(), n, 200_000);
        let hot: u64 = counts[..(n as usize / 5)].iter().sum();
        let total: u64 = counts.iter().sum();
        let frac = hot as f64 / total as f64;
        assert!(
            (0.75..=0.85).contains(&frac),
            "hot fraction {frac} should be ~0.8"
        );
    }

    #[test]
    fn zipfian_head_is_heavy() {
        let n = 10_000u64;
        let counts = hits(Distribution::Zipfian { theta: 0.99 }, n, 200_000);
        let total: u64 = counts.iter().sum();
        // Rank 0 alone takes a sizeable share under theta=0.99.
        assert!(counts[0] as f64 / total as f64 > 0.05);
        // And all samples are in range (implicitly: no panic).
        assert_eq!(total, 200_000);
    }

    #[test]
    fn hot_storm_hammers_the_window() {
        let n = 10_000u64;
        let counts = hits(
            Distribution::HotStorm {
                hot: 100,
                frac: 0.9,
            },
            n,
            200_000,
        );
        let hot: u64 = counts[..100].iter().sum();
        let total: u64 = counts.iter().sum();
        let frac = hot as f64 / total as f64;
        // 90% aimed + ~1% of the uniform remainder lands inside too.
        assert!(
            (0.88..=0.94).contains(&frac),
            "hot fraction {frac} should be ~0.9"
        );
        assert_eq!(total, 200_000);
    }

    #[test]
    fn poisson_arrivals_average_out() {
        let mut arr = Arrivals::poisson(1_000_000.0); // 1 µs mean gap
        let mut rng = SmallRng::seed_from_u64(7);
        let mut last = 0u64;
        for _ in 0..100_000 {
            let t = arr.next(&mut rng);
            assert!(t >= last, "arrival times must be monotone");
            last = t;
        }
        // 100k arrivals at 1M qps should span ~100ms (±20%).
        let ms = last as f64 / 1e6;
        assert!((80.0..120.0).contains(&ms), "span {ms} ms");
    }

    #[test]
    fn samples_stay_in_range() {
        for dist in [
            Distribution::Uniform,
            Distribution::self_similar_80_20(),
            Distribution::Zipfian { theta: 0.5 },
            Distribution::HotStorm {
                hot: 1_000,
                frac: 0.9,
            },
        ] {
            let s = dist.sampler(7);
            let mut rng = SmallRng::seed_from_u64(1);
            for _ in 0..10_000 {
                assert!(s.sample(&mut rng) < 7);
            }
        }
    }
}
