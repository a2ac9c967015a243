//! CRC-32C (Castagnoli), the one integrity check of the workspace: the
//! `lattice-io` container chunks, the solve-service spill records and the
//! halo [`crate::comms::Frame`]s. Two entry points serve every caller:
//! [`crc32c`] of a byte slice, and [`crc32c_extend`], which continues a
//! finished CRC over more bytes, so `crc32c_extend(crc32c(a), b)` is the
//! CRC of `a` followed by `b`.
//!
//! With SSE4.2 the bytes go through three independent `crc32` chains over
//! adjacent blocks (3 × 8192 bytes, then 3 × 256), whose states are joined
//! by shift tables: the instruction has a latency of three cycles and a
//! throughput of one, so three chains keep it busy where one would wait on
//! itself (Adler's method). What is left after the last block runs one
//! chain. Without SSE4.2 (and as the test oracle) a table-driven slice-by-8
//! implemented from the polynomial computes the same value.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// The block lengths of the three-way kernel: three chains over
/// `3 × LONG` bytes at a time, then over `3 × SHORT`.
#[cfg(target_arch = "x86_64")]
const LONG: usize = 8192;
/// See [`LONG`].
#[cfg(target_arch = "x86_64")]
const SHORT: usize = 256;

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

/// One little-endian 8-byte word folded into a running (inverted) CRC by
/// slice-by-8 look-ups.
fn step_word(t: &[[u32; 256]; 8], crc: u32, w: u64) -> u32 {
    let byte = |x: u32, k: u32| ((x >> (8 * k)) & 0xFF) as usize;
    let (lo, hi) = (crc ^ w as u32, (w >> 32) as u32);
    t[7][byte(lo, 0)]
        ^ t[6][byte(lo, 1)]
        ^ t[5][byte(lo, 2)]
        ^ t[4][byte(lo, 3)]
        ^ t[3][byte(hi, 0)]
        ^ t[2][byte(hi, 1)]
        ^ t[1][byte(hi, 2)]
        ^ t[0][byte(hi, 3)]
}

/// An 8-byte chunk as a little-endian word.
#[inline(always)]
fn le(chunk: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(chunk);
    u64::from_le_bytes(a)
}

/// CRC-32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_extend(0, data)
}

/// The CRC-32C of some bytes `a` followed by `data`, given `crc` =
/// [`crc32c`]`(a)`: `crc32c_extend(crc32c(a), b) == crc32c(a ‖ b)`, and
/// `crc32c_extend(0, b) == crc32c(b)`. The three-way SSE4.2 kernel when
/// this CPU has the instruction, slice-by-8 otherwise; both produce the
/// same value for every input.
pub fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `sse42_three_way` needs only the `sse4.2` target
        // feature, which `is_x86_feature_detected!` just confirmed.
        return !unsafe { sse42_three_way(!crc, data) };
    }
    !sliced(!crc, data)
}

/// The running (inverted) CRC `crc` continued over `data` by slice-by-8
/// look-ups.
fn sliced(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let words = data.chunks_exact(8);
    let tail = words.remainder();
    let crc = words.fold(crc, |crc, w| step_word(t, crc, le(w)));
    tail.iter().fold(crc, |crc, &b| step(&t[0], crc, b))
}

/// Shift tables of the three-way kernel, built at first use: `long[k][b]`
/// is the running CRC that state `b << 8k` becomes after [`LONG`] zero
/// bytes, `short` the same for [`SHORT`]. Appending zeros is linear over
/// GF(2) in the state, so four look-ups move any state past a block.
#[cfg(target_arch = "x86_64")]
struct Shifts {
    long: [[u32; 256]; 4],
    short: [[u32; 256]; 4],
}

#[cfg(target_arch = "x86_64")]
fn shifts() -> &'static Shifts {
    use std::sync::OnceLock;
    static SHIFTS: OnceLock<Shifts> = OnceLock::new();
    SHIFTS.get_or_init(|| Shifts {
        long: zeros_table(LONG),
        short: zeros_table(SHORT),
    })
}

/// The four byte tables of the operator "append `n` zero bytes" (`n` a
/// multiple of 8). Its 32 columns are the images of the one-bit states,
/// found by running each through `n` zero bytes; an entry is the XOR of
/// the columns of its set bits.
#[cfg(target_arch = "x86_64")]
fn zeros_table(n: usize) -> [[u32; 256]; 4] {
    let t = tables();
    let column: [u32; 32] =
        std::array::from_fn(|i| (0..n / 8).fold(1u32 << i, |crc, _| step_word(t, crc, 0)));
    let mut z = [[0u32; 256]; 4];
    for (k, table) in z.iter_mut().enumerate() {
        for b in 1..256usize {
            let low = b.trailing_zeros() as usize;
            table[b] = table[b & (b - 1)] ^ column[8 * k + low];
        }
    }
    z
}

/// The running CRC `crc` moved past the zero bytes `z` stands for.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn shift(z: &[[u32; 256]; 4], crc: u32) -> u32 {
    let byte = |k: u32| ((crc >> (8 * k)) & 0xFF) as usize;
    z[0][byte(0)] ^ z[1][byte(1)] ^ z[2][byte(2)] ^ z[3][byte(3)]
}

/// The running (inverted) CRC `crc` continued over `data` by three `crc32`
/// chains per block: the first continues `crc` over the block's first
/// third, the others start from zero on the second and third, and the
/// shift tables join them (`state(a ‖ b) = shift_|b|(state(a)) ^
/// state_0(b)`). The bytes after the last block go through [`sse42_chain`].
/// Sound to call only once `sse4.2` is detected: the `unsafe` at each call
/// site.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_three_way(mut crc: u32, mut data: &[u8]) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    if data.len() >= 3 * SHORT {
        let z = shifts();
        for (block, z) in [(LONG, &z.long), (SHORT, &z.short)] {
            while data.len() >= 3 * block {
                let (a, rest) = data.split_at(block);
                let (b, rest) = rest.split_at(block);
                let (c, rest) = rest.split_at(block);
                let (mut c0, mut c1, mut c2) = (u64::from(crc), 0u64, 0u64);
                let words = a.chunks_exact(8).zip(b.chunks_exact(8));
                for ((x, y), w) in words.zip(c.chunks_exact(8)) {
                    c0 = _mm_crc32_u64(c0, le(x));
                    c1 = _mm_crc32_u64(c1, le(y));
                    c2 = _mm_crc32_u64(c2, le(w));
                }
                crc = shift(z, shift(z, c0 as u32) ^ c1 as u32) ^ c2 as u32;
                data = rest;
            }
        }
    }
    sse42_chain(crc, data)
}

/// The running (inverted) CRC `crc` continued over `data` by one `crc32`
/// chain: 8-byte words, then the bytes left over. Sound to call only once
/// `sse4.2` is detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_chain(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let words = data.chunks_exact(8);
    let tail = words.remainder();
    let crc = words.fold(u64::from(crc), |crc, w| _mm_crc32_u64(crc, le(w)));
    tail.iter().fold(crc as u32, |crc, &b| _mm_crc32_u8(crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// One table look-up per byte: the definition every fast path must
    /// reproduce, and what every file on disk was written with.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        !data
            .iter()
            .fold(!0u32, |crc, &b| step(&tables()[0], crc, b))
    }

    type Crc = fn(&[u8]) -> u32;

    /// Every implementation this CPU can run, by name: slice-by-8 always;
    /// the one-chain SSE4.2 loop and the three-way kernel, each called
    /// directly, when the feature is detected.
    fn implementations() -> Vec<(&'static str, Crc)> {
        #[allow(unused_mut)]
        let mut v: Vec<(&'static str, Crc)> = vec![("sliced", |d| !sliced(!0, d))];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            v.push(("sse42 one chain", |d| {
                // SAFETY: only reached when `sse4.2` was detected on this
                // CPU, the one target feature `sse42_chain` requires.
                !unsafe { sse42_chain(!0, d) }
            }));
            v.push(("sse42 three-way", |d| {
                // SAFETY: as above, for `sse42_three_way`.
                !unsafe { sse42_three_way(!0, d) }
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
        // Its prefixes at each three-way block length, one and eight bytes
        // either side: a block taken or not, a one-chain word or a tail
        // byte more or less.
        for block in [3 * 256, 3 * 8192] {
            for len in [block - 8, block - 1, block, block + 1, block + 8] {
                assert_all_equal_bytewise(&buf[..len], &format!("length {len}"));
            }
        }
    }

    #[test]
    fn extend_continues_a_crc_at_every_split_point() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5_9117);
        let buf: Vec<u8> = (0..2053).map(|_| rng.gen::<u8>()).collect();
        let want = crc32c_bytewise(&buf);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(crc32c_extend(crc32c(a), b), want, "split at {split}");
        }
        assert_eq!(crc32c_extend(0, &buf), want);
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
