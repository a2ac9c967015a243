//! CRC-32C (Castagnoli), the one integrity check of the workspace: the
//! `lattice-io` container chunks, the solve-service spill records and the
//! halo [`crate::comms::Frame`]s. The SSE4.2 `crc32` instruction where the
//! CPU has it, else (and as its test oracle) table-driven slice-by-8
//! implemented from the polynomial.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables built at first use: `t[0]` is the bytewise
/// table, and `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold in with eight independent look-ups.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256 {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            t[0][i] = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// One byte folded into a running (inverted) CRC.
fn step(t: &[u32; 256], crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize]
}

/// CRC-32C of a byte slice: the SSE4.2 instruction when this CPU has it,
/// slice-by-8 otherwise. Both produce the same value for every input.
pub fn crc32c(data: &[u8]) -> u32 {
    let (words, tail) = le_words(data);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` needs only the `sse4.2` target feature,
        // which `is_x86_feature_detected!` just confirmed on this CPU.
        return unsafe { crc32c_sse42(words, tail) };
    }
    crc32c_sliced(words, tail)
}

/// CRC-32C of `words` serialized little-endian, in order: equal to
/// [`crc32c`] of their concatenated `to_le_bytes()`, without building that
/// buffer. On SSE4.2 it is one `crc32` instruction per word.
pub fn crc32c_words(words: impl IntoIterator<Item = u64>) -> u32 {
    let words = words.into_iter();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` needs only the `sse4.2` target feature,
        // which `is_x86_feature_detected!` just confirmed on this CPU.
        return unsafe { crc32c_sse42(words, &[]) };
    }
    crc32c_sliced(words, &[])
}

/// `data` as little-endian 8-byte words plus the bytes left over.
fn le_words(data: &[u8]) -> (impl Iterator<Item = u64> + '_, &[u8]) {
    let words = data.chunks_exact(8);
    let tail = words.remainder();
    let words = words.map(|w| {
        let mut a = [0u8; 8];
        a.copy_from_slice(w);
        u64::from_le_bytes(a)
    });
    (words, tail)
}

/// CRC-32C of `words` (little-endian) then `tail` on the SSE4.2 `crc32`
/// instruction. Sound to call only once `sse4.2` is detected: the `unsafe`
/// at each call site.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(words: impl Iterator<Item = u64>, tail: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!0u32);
    for w in words {
        crc = _mm_crc32_u64(crc, w);
    }
    let mut crc = crc as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// CRC-32C of `words` (little-endian) then `tail` by slice-by-8 table
/// look-ups.
fn crc32c_sliced(words: impl Iterator<Item = u64>, tail: &[u8]) -> u32 {
    let t = tables();
    let byte = |x: u32, k: u32| ((x >> (8 * k)) & 0xFF) as usize;
    let crc = words.fold(!0u32, |crc, w| {
        let (lo, hi) = (crc ^ w as u32, (w >> 32) as u32);
        t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 1)]
            ^ t[5][byte(lo, 2)]
            ^ t[4][byte(lo, 3)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 1)]
            ^ t[1][byte(hi, 2)]
            ^ t[0][byte(hi, 3)]
    });
    !tail.iter().fold(crc, |crc, &b| step(&t[0], crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// One table look-up per byte: the definition both fast paths must
    /// reproduce, and what every file on disk was written with.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        !data
            .iter()
            .fold(!0u32, |crc, &b| step(&tables()[0], crc, b))
    }

    type Crc = fn(&[u8]) -> u32;

    /// Every implementation this CPU can run, by name: slice-by-8 always,
    /// the SSE4.2 loop called directly when the feature is detected.
    fn implementations() -> Vec<(&'static str, Crc)> {
        #[allow(unused_mut)]
        let mut v: Vec<(&'static str, Crc)> = vec![("sliced", |d| {
            let (words, tail) = le_words(d);
            crc32c_sliced(words, tail)
        })];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            v.push(("sse42", |d| {
                let (words, tail) = le_words(d);
                // SAFETY: only reached when `sse4.2` was detected on this
                // CPU, the one target feature `crc32c_sse42` requires.
                unsafe { crc32c_sse42(words, tail) }
            }));
        }
        v
    }

    /// Assert that the public entry point and every implementation agree
    /// with the bytewise reference on `data`.
    fn assert_all_equal_bytewise(data: &[u8], what: &str) {
        let want = crc32c_bytewise(data);
        assert_eq!(crc32c(data), want, "dispatched, {what}");
        for (name, f) in implementations() {
            assert_eq!(f(data), want, "{name}, {what}");
        }
    }

    #[test]
    fn known_test_vectors() {
        // RFC 3720 / common CRC-32C vectors.
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0x0000_0000),
            (b"a", 0xC1D0_4330),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c_bytewise(data), want, "bytewise, {data:?}");
            assert_all_equal_bytewise(data, &format!("vector {data:?}"));
        }
    }

    #[test]
    fn every_implementation_equals_bytewise_at_every_length_and_offset() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5EED);
        let buf: Vec<u8> = (0..4099 + 8).map(|_| rng.gen::<u8>()).collect();
        for offset in 0..8 {
            for len in 0..=4099 {
                let data = &buf[offset..offset + len];
                assert_all_equal_bytewise(data, &format!("offset {offset}, length {len}"));
            }
        }
    }

    #[test]
    fn every_implementation_equals_bytewise_on_a_bundle_sized_buffer() {
        // 9 MiB: the size of one of `contract_io`'s propagator bundles.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x9_0000);
        let buf: Vec<u8> = (0..9 << 20).map(|_| rng.gen::<u8>()).collect();
        assert_all_equal_bytewise(&buf, "9 MiB");
    }

    #[test]
    fn words_hash_as_their_little_endian_bytes() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x3_0005);
        for n in 0..=64 {
            let words: Vec<u64> = (0..n).map(|_| rng.gen::<u64>()).collect();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let want = crc32c_bytewise(&bytes);
            assert_eq!(crc32c_words(words.iter().copied()), want, "{n} words");
            assert_all_equal_bytewise(&bytes, &format!("{n} words"));
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0x5Au8; 1024];
        let base = crc32c(&data);
        for bit in [0usize, 13, 8000] {
            let mut corrupt = data.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&corrupt), base, "bit {bit} undetected");
        }
    }
}
