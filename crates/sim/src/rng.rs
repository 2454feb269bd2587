//! Deterministic randomness plumbing.
//!
//! Every stochastic component of the reproduction owns its own
//! [`rand::rngs::SmallRng`], derived from a single experiment seed through
//! a splitmix64 substream of it ([`rng`]). Components never share an
//! RNG, so adding a sampling site to one component cannot perturb
//! another — experiments stay
//! reproducible bit-for-bit across refactors as long as the component
//! stream labels are stable.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derives the seed of a named substream from an experiment master seed.
///
/// Uses the splitmix64 finalizer, which is a bijective avalanche function:
/// distinct `(master, stream)` pairs yield well-separated seeds even for
/// small consecutive stream indices.
fn substream(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates a deterministic RNG for the given substream of a master seed.
pub fn rng(master: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(substream(master, stream))
}

/// Well-known stream labels so components never collide.
///
/// New components append; existing numbers are frozen to preserve
/// experiment reproducibility.
pub mod streams {
    /// Request inter-arrival sampling.
    pub const ARRIVALS: u64 = 1;
    /// Request service-time sampling.
    pub const SERVICE: u64 = 2;
    /// Hardware latency jitter (interrupt delivery, cache effects).
    pub const HW_JITTER: u64 = 3;
    /// Kernel latency jitter (signals, timers, syscalls).
    pub const KERNEL_JITTER: u64 = 4;
    // Numbers 5-7 are retired (never read); do not reuse them.
    /// Fault-injection decision sampling (see [`crate::fault`]).
    pub const FAULTS: u64 = 8;
    /// Chaos-adversary plan sampling and search moves (`lp-chaos`).
    pub const CHAOS: u64 = 9;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn substream_is_deterministic() {
        assert_eq!(substream(123, 4), substream(123, 4));
    }

    #[test]
    fn substreams_differ() {
        let a = substream(1, streams::ARRIVALS);
        let b = substream(1, streams::SERVICE);
        let c = substream(2, streams::ARRIVALS);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn rngs_from_same_stream_agree() {
        let mut r1 = rng(99, 3);
        let mut r2 = rng(99, 3);
        for _ in 0..16 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn consecutive_streams_are_decorrelated() {
        // A crude avalanche check: consecutive stream seeds differ in many
        // bits.
        let x = substream(7, 10);
        let y = substream(7, 11);
        let differing = (x ^ y).count_ones();
        assert!(differing > 16, "only {differing} differing bits");
    }
}
