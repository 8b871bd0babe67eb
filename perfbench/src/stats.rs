//! Order statistics, the seeded generator and the process's peak RSS.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`, reordering
/// them in place.  `None` for an empty slice.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, value, _) = samples.select_nth_unstable(rank - 1);
    Some(*value)
}

/// The median of a small set of durations (mean of the middle two when
/// even).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// SplitMix64: every input the benchmark generates derives from the
/// run's `--seed` through this generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (salted per use so that two streams
    /// of one run differ).
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A uniform sample of at most `cap` op latencies (Algorithm R), so the
/// benchmark's own memory stays bounded however fast the ops get: below
/// `cap` ops every latency is kept.
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<u64>,
    rng: Rng,
}

impl Reservoir {
    /// An empty reservoir of capacity `cap`, its sampling seeded by `seed`.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            seen: 0,
            samples: Vec::new(),
            rng: Rng::new(seed, 5),
        }
    }

    /// Offers each of `values`.
    pub fn extend(&mut self, values: &[u64]) {
        for &v in values {
            self.seen += 1;
            if self.samples.len() < self.cap {
                self.samples.push(v);
            } else {
                let j = self.rng.below(self.seen) as usize;
                if j < self.cap {
                    self.samples[j] = v;
                }
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sample (reordered by [`quantile`]).
    pub fn samples_mut(&mut self) -> &mut [u64] {
        &mut self.samples
    }
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(500));
        assert_eq!(quantile(&mut v, 0.99), Some(990));
        assert_eq!(quantile(&mut v, 0.999), Some(999));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn reservoir_keeps_everything_below_capacity_and_caps_above() {
        let mut r = Reservoir::new(100, 1);
        r.extend(&(0..50).collect::<Vec<u64>>());
        assert_eq!(r.samples_mut().len(), 50);
        r.extend(&(50..10_000).collect::<Vec<u64>>());
        assert_eq!((r.seen(), r.samples_mut().len()), (10_000, 100));
        let median = quantile(r.samples_mut(), 0.5).expect("non-empty");
        assert!((2_000..8_000).contains(&median), "{median}");
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(5, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(5, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(6, 1).next_u64());
    }
}
