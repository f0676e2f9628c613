//! Seeded random tensor initialisers.
//!
//! Every stochastic component of the workspace draws from [`TensorRng`], a
//! thin deterministic wrapper over a counter-seeded PCG-style generator from
//! the `rand` crate, so that experiments are exactly reproducible from a
//! single `u64` seed recorded in the experiment logs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Shape, Tensor};

/// Deterministic random source for tensor initialisation and datasets.
///
/// # Example
///
/// ```
/// use mp_tensor::init::TensorRng;
///
/// let mut a = TensorRng::seed_from(42);
/// let mut b = TensorRng::seed_from(42);
/// assert_eq!(a.uniform([4], -1.0, 1.0), b.uniform([4], -1.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: StdRng,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one uniform sample from `[lo, hi)`.
    pub fn next_uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.gen_range(lo..hi)
    }

    /// Draws one standard-normal sample via the Box–Muller transform.
    ///
    /// Implemented locally because the offline dependency set excludes
    /// `rand_distr`.
    pub fn next_normal(&mut self) -> f32 {
        // Box–Muller: u1 ∈ (0,1] keeps ln() finite.
        let u1: f32 = 1.0 - self.rng.gen::<f32>();
        let u2: f32 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Draws one sample from `N(mean, std²)`.
    pub fn next_gaussian(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.next_normal()
    }

    /// Uniform random integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn next_bool(&mut self, p: f32) -> bool {
        self.rng.gen::<f32>() < p
    }

    /// Tensor of i.i.d. uniform samples from `[lo, hi)`.
    pub fn uniform(&mut self, shape: impl Into<Shape>, lo: f32, hi: f32) -> Tensor {
        let shape = shape.into();
        Tensor::from_fn(shape, |_| self.next_uniform(lo, hi))
    }

    /// Tensor of i.i.d. `N(mean, std²)` samples.
    pub fn normal(&mut self, shape: impl Into<Shape>, mean: f32, std: f32) -> Tensor {
        let shape = shape.into();
        Tensor::from_fn(shape, |_| self.next_gaussian(mean, std))
    }

    /// He (Kaiming) initialisation for layers feeding ReLUs: `N(0, √(2/fan_in))`.
    pub fn he(&mut self, shape: impl Into<Shape>, fan_in: usize) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        self.normal(shape, 0.0, std)
    }

    /// Xavier (Glorot) uniform initialisation: `U(±√(6/(fan_in+fan_out)))`.
    pub fn xavier(&mut self, shape: impl Into<Shape>, fan_in: usize, fan_out: usize) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
        self.uniform(shape, -bound, bound)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Forks an independent generator seeded from this one's stream.
    ///
    /// Useful for giving parallel workers decorrelated streams while
    /// keeping the whole run reproducible from the root seed.
    pub fn fork(&mut self) -> TensorRng {
        TensorRng::seed_from(self.rng.gen())
    }
}

/// SplitMix64-style hash of `(seed, a, b, salt)` folded into `[0, 1)`:
/// a stateless seeded draw for decisions that must not depend on thread
/// interleaving or on how many draws came before (fault injection,
/// stream stalls). Deterministic across platforms.
pub fn unit_hash(seed: u64, a: u64, b: u64, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::seed_from(7);
        let mut b = TensorRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_normal(), b.next_normal());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TensorRng::seed_from(1);
        let mut b = TensorRng::seed_from(2);
        let same = (0..32)
            .filter(|_| a.next_normal() == b.next_normal())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::seed_from(3);
        let t = rng.uniform([1000], -0.5, 0.5);
        assert!(t.iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = TensorRng::seed_from(4);
        let t = rng.normal([20_000], 1.0, 2.0);
        let mean = t.mean();
        let var = t.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn he_scales_with_fan_in() {
        let mut rng = TensorRng::seed_from(5);
        let wide = rng.he([10_000], 1000);
        let narrow = rng.he([10_000], 10);
        let spread = |t: &Tensor| t.iter().map(|&x| x * x).sum::<f32>() / t.len() as f32;
        assert!(spread(&narrow) > spread(&wide) * 10.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = TensorRng::seed_from(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = TensorRng::seed_from(8);
        let mut f1 = root.fork();
        let mut f2 = root.fork();
        assert_ne!(f1.next_normal(), f2.next_normal());
    }

    #[test]
    fn next_bool_probability() {
        let mut rng = TensorRng::seed_from(9);
        let hits = (0..10_000).filter(|_| rng.next_bool(0.25)).count();
        assert!((hits as f32 / 10_000.0 - 0.25).abs() < 0.03);
    }
}
