//! Seed management: one master seed, many independent labeled streams.
//!
//! Components ask the [`RngFactory`] for a stream by label (e.g.
//! `"workload/durations"`, `"session/42/jitter"`). Stream seeds are derived
//! with a SplitMix64-based hash of the label, so adding or removing one
//! consumer never shifts the randomness another consumer sees — the property
//! that keeps figure regeneration stable as the code evolves.
//!
//! The streams themselves are in-tree, dependency-free [`CounterRng`]s: a
//! Weyl counter stepped by the golden-ratio increment and finalized with the
//! SplitMix64 mixer (the same core the fault layer's `FaultRng` uses). The
//! whole workspace draws randomness through the [`Rng`] trait below, so
//! `cargo tree` stays free of external crates.
//!
//! ```
//! use pscp_simnet::rng::{Rng, RngFactory};
//!
//! let f = RngFactory::new(2016);
//! let mut stream = f.stream("workload/durations");
//! let u: f64 = stream.gen();           // uniform in [0, 1)
//! let word: u64 = stream.gen();        // 64 uniform bits
//! assert!((0.0..1.0).contains(&u));
//!
//! // Same label, same stream — always.
//! let a: u64 = f.stream("x").gen();
//! let b: u64 = f.stream("x").gen();
//! assert_eq!(a, b);
//! ```

/// Uniform random source. Implemented by [`CounterRng`]; consumers bound
/// generic parameters as `R: Rng + ?Sized` so tests can substitute
/// instrumented sources.
pub trait Rng {
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw in `[0, 1)` with 53-bit resolution.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draws a value of any [`Sample`] type: `rng.gen::<f64>()` is uniform
    /// in `[0, 1)`, integer types get full-width uniform bits.
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }
}

/// Types drawable from an [`Rng`] via [`Rng::gen`].
pub trait Sample: Sized {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_f64()
    }
}

impl Sample for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// A counter-based deterministic RNG: the state is a Weyl sequence (adds the
/// golden-ratio constant each step) and each output is the SplitMix64
/// finalizer of the state. Period 2^64 per stream; streams for different
/// labels start from independently mixed states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// Creates a stream from a raw seed.
    pub fn new(seed: u64) -> Self {
        CounterRng { state: splitmix64(seed ^ 0xa54f_f53a_5f1d_36f1) }
    }

    /// Moves the stream past its next `n` outputs without computing them:
    /// the state is a counter, so `n` draws are one multiply-add. A copy of
    /// the stream taken before the skip still yields those outputs.
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(WEYL.wrapping_mul(n));
    }
}

impl Rng for CounterRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(WEYL);
        splitmix64_mix(self.state)
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Derives independent [`CounterRng`] streams from a master seed.
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory from the master seed.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the RNG stream for `label`.
    pub fn stream(&self, label: &str) -> CounterRng {
        let mut state = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for chunk in label.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            state = splitmix64(state ^ u64::from_le_bytes(word));
        }
        CounterRng::new(state)
    }

    /// Convenience: stream for a label with a numeric suffix, e.g. per
    /// session or per broadcast.
    pub fn stream_n(&self, label: &str, n: u64) -> CounterRng {
        self.stream(&format!("{label}/{n}"))
    }

    /// Derives a child factory, used to give a subsystem its own namespace.
    pub fn child(&self, label: &str) -> RngFactory {
        let mut state = self.seed ^ 0x2545_f491_4f6c_dd1d;
        for chunk in label.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            state = splitmix64(state ^ u64::from_le_bytes(word));
        }
        RngFactory { seed: state }
    }
}

/// The Weyl increment: 2^64 / φ, odd, so the counter visits every state.
const WEYL: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 step: advance by the golden-ratio increment, then mix.
pub fn splitmix64(z: u64) -> u64 {
    splitmix64_mix(z.wrapping_add(WEYL))
}

/// The SplitMix64 finalizer on its own (no increment).
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(7);
        let a: Vec<u64> = {
            let mut r = f.stream("x");
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        let b: Vec<u64> = {
            let mut r = f.stream("x");
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(7);
        let a: u64 = f.stream("x").gen();
        let b: u64 = f.stream("y").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngFactory::new(1).stream("x").gen();
        let b: u64 = RngFactory::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn stream_n_matches_formatted_label() {
        let f = RngFactory::new(3);
        let a: u64 = f.stream_n("s", 42).gen();
        let b: u64 = f.stream("s/42").gen();
        assert_eq!(a, b);
    }

    #[test]
    fn child_namespace_is_independent() {
        let f = RngFactory::new(3);
        let c = f.child("sub");
        let a: u64 = c.stream("x").gen();
        let b: u64 = f.stream("x").gen();
        assert_ne!(a, b);
        // But reproducible.
        assert_eq!(c.seed(), f.child("sub").seed());
    }

    #[test]
    fn labels_longer_than_word_distinguished() {
        let f = RngFactory::new(9);
        let a: u64 = f.stream("abcdefgh-1").gen();
        let b: u64 = f.stream("abcdefgh-2").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn stream_quality_rough_uniformity() {
        // A crude sanity check that bits look uniform: mean of 10k u8 draws.
        let f = RngFactory::new(11);
        let mut rng = f.stream("uniformity");
        let mean: f64 = (0..10_000).map(|_| rng.gen::<u8>() as f64).sum::<f64>() / 10_000.0;
        assert!((mean - 127.5).abs() < 3.0, "mean={mean}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = RngFactory::new(13).stream("unit");
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn bool_roughly_balanced() {
        let mut rng = RngFactory::new(15).stream("bool");
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&trues), "trues={trues}");
    }

    #[test]
    fn skip_is_that_many_draws() {
        pscp_check::check(
            "skip_is_that_many_draws",
            |g: &mut pscp_check::Gen| (g.u64(..), g.usize(0..40)),
            |&(seed, warm)| {
                let mut start = CounterRng::new(seed);
                for _ in 0..warm {
                    start.next_u64();
                }
                for n in [0u64, 1, 2, 1_000_000] {
                    let (mut skipped, mut drawn) = (start, start);
                    skipped.skip(n);
                    for _ in 0..n {
                        drawn.next_u64();
                    }
                    pscp_check::ensure_eq!(skipped, drawn);
                    pscp_check::ensure_eq!(skipped.next_u64(), drawn.next_u64());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn rng_through_mut_ref_advances_underlying() {
        let mut rng = RngFactory::new(17).stream("ref");
        let a: u64 = {
            let r: &mut CounterRng = &mut rng;
            Sample::sample(r)
        };
        let b: u64 = rng.gen();
        assert_ne!(a, b);
    }
}
