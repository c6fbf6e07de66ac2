//! Small deterministic hashing utilities (FNV-1a).
//!
//! Used wherever the simulators need noise that is a *pure function* of
//! its inputs — e.g. "does model M detect concept C in text T?" — so that
//! repeated runs, and different pipeline stages looking at the same text,
//! agree.

/// The FNV-1a hash of the empty string, where every hash starts.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a hash of a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The FNV-1a hash of a text whose hash so far is `h`, extended by
/// `bytes`: `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
#[must_use]
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Mixes several u64s into one (xor-multiply-rotate chain).
#[must_use]
pub fn mix(values: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &v in values {
        h ^= v;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = h.rotate_left(31);
    }
    // Final avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Maps a hash to a uniform float in `[0, 1)`.
#[must_use]
pub fn unit_float(h: u64) -> f64 {
    // 53 mantissa bits for an unbiased uniform double.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic_and_distinguishes() {
        assert_eq!(fnv1a(b"hello"), fnv1a(b"hello"));
        assert_ne!(fnv1a(b"hello"), fnv1a(b"hellp"));
        assert_ne!(fnv1a(b""), fnv1a(b"a"));
    }

    #[test]
    fn fnv_extends_across_cuts() {
        let text = b"big screens on every wall";
        for cut in 0..=text.len() {
            let (a, b) = text.split_at(cut);
            assert_eq!(fnv1a_extend(fnv1a(a), b), fnv1a(text));
        }
    }

    #[test]
    fn mix_order_sensitive() {
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
    }

    #[test]
    fn unit_float_in_range() {
        for i in 0..1000u64 {
            let f = unit_float(mix(&[i]));
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn unit_float_roughly_uniform() {
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|i| unit_float(mix(&[i, 42]))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
