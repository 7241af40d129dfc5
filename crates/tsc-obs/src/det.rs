//! Stateless determinism primitives — the stack's one implementation
//! of splitmix64 draws and FNV-1a digests.
//!
//! A probabilistic decision at `(seed, time, entity)` is the pure hash
//! [`uniform`]`(seed, time, entity)`: it consumes no RNG state and does
//! not depend on evaluation order, which is what makes every "same
//! seed + plan ⇒ same bits" replay hold. [`salt`] separates the streams
//! of one seed; [`mix3`] and [`splitmix64`] derive seeds. [`Fnv64`]
//! fingerprints scenarios, checkpoints, flight frames and fleet steps.
//! Reference vectors (published FNV-1a and splitmix64 outputs, and
//! draws recorded from the copies this module replaced) pin every bit.

/// The 64-bit golden-ratio increment of splitmix64 (`2⁶⁴ / φ`).
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer multipliers.
const MIX_A: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_B: u64 = 0x94D0_49BB_1331_11EB;

/// FNV-1a 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The splitmix64 output finalizer.
#[inline]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX_A);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_B);
    z ^ (z >> 31)
}

/// splitmix64 as a pure hash: the generator's output from state `x`.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    finalize(x.wrapping_add(GOLDEN))
}

/// The finalizer over packed coordinates, `finalize(a + b·GOLDEN +
/// c·MIX_A)` (wrapping); `mix3(x, 1, 0) == splitmix64(x)`.
#[inline]
#[must_use]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    finalize(
        a.wrapping_add(b.wrapping_mul(GOLDEN))
            .wrapping_add(c.wrapping_mul(MIX_A)),
    )
}

/// Maps a 64-bit hash onto `[0, 1)` by its top 53 bits.
#[inline]
#[must_use]
pub fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The deterministic `[0, 1)` draw at `(seed, t, entity)`.
#[inline]
#[must_use]
pub fn uniform(seed: u64, t: u32, entity: usize) -> f64 {
    unit(mix3(seed, u64::from(t) + 1, entity as u64))
}

/// Decorrelates stream `idx` (a fault, a tenant, a load phase) from the
/// other streams of `seed`.
#[inline]
#[must_use]
pub fn salt(seed: u64, idx: usize) -> u64 {
    seed ^ MIX_B.wrapping_mul(idx as u64 + 1)
}

/// FNV-1a 64-bit hasher. The `write_*` methods fold bytes (integers
/// little-endian), the published FNV-1a; [`word`](Self::word) folds a
/// whole `u64` per multiply, 8× cheaper for per-step digests. The two
/// give different digests, so each digest says which it uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Folds raw bytes into the state.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a string (as UTF-8 bytes plus a terminator, so `"ab","c"`
    /// and `"a","bc"` hash differently).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_bytes(&[0xff]);
    }

    /// Folds a `u64` (little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize`.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` by its exact bit pattern.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a whole 64-bit word in one step (`h ^= w; h *= prime`).
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// The current hash value.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over a byte string.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_writes_fold_le_bytes_and_word_folds_whole_words() {
        let mut a = Fnv64::new();
        a.write_u64(0x0102_0304_0506_0708);
        a.write_str("a");
        let mut b = Fnv64::new();
        b.write_bytes(&[8, 7, 6, 5, 4, 3, 2, 1, b'a', 0xff]);
        assert_eq!(a, b);
        let mut w = Fnv64::new();
        w.word(0x61);
        assert_eq!(w.finish(), fnv1a64(b"a"), "a byte-sized word");
        w.word(u64::MAX);
        assert_eq!(
            w.finish(),
            (fnv1a64(b"a") ^ u64::MAX).wrapping_mul(FNV_PRIME)
        );
    }

    #[test]
    fn splitmix64_matches_reference_outputs() {
        // The reference generator's first two outputs from seed 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(GOLDEN), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix3(7, 1, 0), splitmix64(7));
    }

    /// `(seed, t, entity) -> uniform bits`, recorded from the chaos
    /// engine's draw before it moved here.
    const UNIFORM: [(u64, u32, usize, u64); 8] = [
        (0, 0, 0, 0x3fec_4415_072f_63b9),
        (42, 7, 3, 0x3fe6_36fc_2552_f413),
        (0xdead_beef, 3599, 35, 0x3fd3_39e3_ee55_b046),
        (u64::MAX, u32::MAX, usize::MAX, 0x3fe5_8f1e_4f74_f5d1),
        (1, 0, 1, 0x3fa5_630b_776d_3450),
        (0x1a9f_0c3d_5b71_e842, 10, 2, 0x3fef_7725_5c95_ea8e),
        (7, 1000, 0, 0x3fe9_e371_aa8b_a2c2),
        (0x5eed_ab1e_0f00_d5cd, 123, 4, 0x3fee_23a3_5108_4058),
    ];

    /// `(a, b, c) -> mix3`, recorded from the rollout seed derivation
    /// (`base_seed, round, env_idx`) before it moved here.
    const MIX3: [(u64, u64, u64, u64); 6] = [
        (0, 0, 0, 0),
        (0, 0, 1, 0xf2fe_a582_3ed3_a667),
        (0, 1, 0, 0xe220_a839_7b1d_cdaf),
        (1, 0, 0, 0x5692_161d_100b_05e5),
        (42, 17, 0x5A17, 0xca89_1bae_6932_e79c),
        (u64::MAX, u64::MAX, u64::MAX, 0x9e2f_fcc9_4e07_07c1),
    ];

    /// `(seed, idx) -> salt`, recorded from the chaos engine's
    /// per-fault salt before it moved here.
    const SALT: [(u64, usize, u64); 3] = [
        (0, 0, 0x94d0_49bb_1331_11eb),
        (7, 1, 0x29a0_9376_2662_23d1),
        (u64::MAX, 31, 0x65f6_c89d_99dd_c29f),
    ];

    #[test]
    fn draws_match_recorded_outputs() {
        for (seed, t, e, bits) in UNIFORM {
            assert_eq!(
                uniform(seed, t, e).to_bits(),
                bits,
                "uniform({seed:#x}, {t}, {e})"
            );
        }
        for (a, b, c, out) in MIX3 {
            assert_eq!(mix3(a, b, c), out, "mix3({a:#x}, {b:#x}, {c:#x})");
        }
        for (seed, idx, out) in SALT {
            assert_eq!(salt(seed, idx), out, "salt({seed:#x}, {idx})");
        }
        assert_eq!((unit(0), unit(u64::MAX)), (0.0, 1.0 - f64::EPSILON / 2.0));
    }
}
