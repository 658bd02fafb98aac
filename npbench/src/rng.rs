//! The harness's own seeded PRNG and the pure functions of the seed built
//! on it: the open-loop arrival schedule and the skewed endpoint draw. The
//! seed never reaches the program under test, only what is drawn from it.

/// SplitMix64: small, seedable, and good enough to draw traffic from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`label`) of one run (`seed`): streams with
    /// different labels are independent, so adding a draw to one purpose
    /// does not shift another's sequence.
    pub fn new(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Popularity rank of one draw among `n` endpoints: `⌊u²·n⌋`, so rank 0 is
/// drawn most and the tail thins out without vanishing.
pub fn skewed_rank(u: f64, n: usize) -> usize {
    ((u * u * n as f64) as usize).min(n - 1)
}

/// Which endpoint holds each popularity rank: a shuffle of `0..n`.
///
/// The shuffle's seed is part of the benchmark, not of the run: which
/// layers are hot decides how much work a request is, so letting `--seed`
/// move it would make two seeds two different workloads. `--seed` drives
/// the tensors, the draw order, the arrival times and the duplicate keys.
pub fn popularity_order(n: usize) -> Vec<usize> {
    const POPULARITY_SEED: u64 = 0x4E50_4347_5241; // "NPCGRA"
    let mut rng = Rng::new(POPULARITY_SEED, 0);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Poisson arrivals at `rate_hz` over `seconds`: the instants (ns from the
/// start of the repetition) at which requests are due, ascending.
pub fn poisson_schedule(rng: &mut Rng, rate_hz: f64, seconds: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate_hz * seconds * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate_hz;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_draw_are_pure_functions_of_the_seed() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 1500.0, 0.5);
        let b = poisson_schedule(&mut Rng::new(7, 1), 1500.0, 0.5);
        let c = poisson_schedule(&mut Rng::new(8, 1), 1500.0, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // ~750 arrivals expected; Poisson spread is ±27 (1σ).
        assert!((600..900).contains(&a.len()), "{} arrivals", a.len());

        let draw = |seed| {
            let mut r = Rng::new(seed, 2);
            (0..64).map(|_| skewed_rank(r.unit(), 77)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn popularity_is_skewed_and_covers_every_endpoint() {
        let mut r = Rng::new(1, 2);
        let mut hits = [0usize; 77];
        for _ in 0..20_000 {
            hits[skewed_rank(r.unit(), 77)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0));
        assert!(hits[0] > 5 * hits[76]);
        let mut order = popularity_order(77);
        assert_eq!(order, popularity_order(77));
        order.sort_unstable();
        assert_eq!(order, (0..77).collect::<Vec<_>>());
    }
}
