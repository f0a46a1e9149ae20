//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the testbed (noise, payload bits, traffic
//! arrival jitter) draws from this generator so that experiments are exactly
//! reproducible from a seed. The core is xoshiro256**, seeded through
//! SplitMix64; Gaussian variates come from the Box-Muller transform.

/// A small, fast, deterministic PRNG (xoshiro256**).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller pair.
    spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Rng { s, spare: None }
    }

    /// Derives an independent child generator; used to give each experiment
    /// arm its own stream without correlation.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        unit(self.next_u64() >> 11)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift bounded rejection (Lemire); bias is negligible for
        // the ranges used here but we reject to be exact.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal variate (mean 0, variance 1) via Box-Muller: the
    /// cosine half of a fresh [`PolarDraw`], whose sine half is kept as the
    /// spare the next call returns.
    #[inline]
    pub fn gaussian(&mut self) -> f64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        let d = self.polar_draw();
        self.spare = Some(d.sin_part());
        d.cos_part()
    }

    /// Draws the uniform pair of one Box-Muller transform, in the order
    /// [`Rng::gaussian`] draws it. Callers that take both halves of every
    /// draw produce exactly the variates of two `gaussian` calls per draw,
    /// provided no spare is pending ([`Rng::has_spare`]).
    #[inline]
    pub fn polar_draw(&mut self) -> PolarDraw {
        let (u1, u2) = self.polar_uniforms();
        PolarDraw::new(u1, u2)
    }

    /// The uniforms `(u1, u2)` of one [`Rng::polar_draw`], drawn in its
    /// order: `u1` in `[2⁻⁵³, 1]`, then `u2` in `[0, 1)`. For callers that
    /// evaluate [`PolarDraw::new`] of them their own way.
    #[inline]
    pub fn polar_uniforms(&mut self) -> (f64, f64) {
        Rng::polar_uniforms_of(self.polar_bits())
    }

    /// The 53-bit integers `(a, b)` behind one [`Rng::polar_uniforms`]
    /// draw, in its order; [`Rng::polar_uniforms_of`] turns them into its
    /// uniforms. For callers that decide from the integers and need the
    /// uniforms only sometimes.
    #[inline]
    pub fn polar_bits(&mut self) -> (u64, u64) {
        let a = self.next_u64() >> 11;
        (a, self.next_u64() >> 11)
    }

    /// The uniforms of the integers `(a, b)` of [`Rng::polar_bits`]:
    /// `u1 = 1 − a·2⁻⁵³`, in `(0, 1]` to avoid `ln 0`, and `u2 = b·2⁻⁵³`.
    #[inline]
    pub fn polar_uniforms_of((a, b): (u64, u64)) -> (f64, f64) {
        (1.0 - unit(a), unit(b))
    }

    /// Whether a Box-Muller spare is pending: the next [`Rng::gaussian`]
    /// returns it instead of drawing.
    pub fn has_spare(&self) -> bool {
        self.spare.is_some()
    }

    /// Fills a byte buffer with pseudo-random data (packet payloads).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// The uniform `bits·2⁻⁵³` in `[0, 1)` of 53 random bits.
#[inline]
fn unit(bits: u64) -> f64 {
    bits as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One Box-Muller transform in polar form: radius `sqrt(-2 ln u1)` and
/// angle `2π·u2`. Its two halves [`PolarDraw::cos_part`] and
/// [`PolarDraw::sin_part`] are the two standard normal variates; this is the
/// one definition of that transform, so a faster evaluation of the same
/// draw can fall back to exactly these bits.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PolarDraw {
    /// Radius `sqrt(-2 ln u1)`.
    pub r: f64,
    /// Angle `2π·u2`, in `[0, 2π)`.
    pub theta: f64,
}

impl PolarDraw {
    /// The transform of `u1` in `(0, 1]` and `u2` in `[0, 1)`.
    #[inline]
    pub fn new(u1: f64, u2: f64) -> Self {
        PolarDraw {
            r: (-2.0 * u1.ln()).sqrt(),
            theta: PolarDraw::angle(u2),
        }
    }

    /// The angle `2π·u2` of the transform of `u2`.
    #[inline]
    pub fn angle(u2: f64) -> f64 {
        2.0 * std::f64::consts::PI * u2
    }

    /// The first variate, `r·cos θ`.
    #[inline]
    pub fn cos_part(self) -> f64 {
        self.r * self.theta.cos()
    }

    /// The second variate, `r·sin θ`.
    #[inline]
    pub fn sin_part(self) -> f64 {
        self.r * self.theta.sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng::seed_from(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng::seed_from(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from(3);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut rng = Rng::seed_from(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fork_streams_are_independent_of_parent_continuation() {
        let mut parent = Rng::seed_from(77);
        let mut child = parent.fork();
        // Child must be reproducible given the same parent state.
        let mut parent2 = Rng::seed_from(77);
        let mut child2 = parent2.fork();
        assert_eq!(child.next_u64(), child2.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Rng::seed_from(7);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(21);
        assert!(!(0..1000).any(|_| rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }
}
