//! CRC-32C (Castagnoli), table-driven (slice-by-8), implemented from the
//! polynomial — the per-chunk integrity check of the container format.

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

/// CRC-32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = step(&t[0], crc, b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One table look-up per byte: the definition the sliced loop must
    /// reproduce, and what every file on disk was written with.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        !data
            .iter()
            .fold(!0u32, |crc, &b| step(&tables()[0], crc, b))
    }

    #[test]
    fn known_test_vectors() {
        // RFC 3720 / common CRC-32C vectors.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn sliced_loop_equals_bytewise_at_every_length_and_offset() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5EED);
        let buf: Vec<u8> = (0..4099 + 8).map(|_| rng.gen::<u8>()).collect();
        for offset in 0..8 {
            for len in 0..=4099 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32c(data),
                    crc32c_bytewise(data),
                    "offset {offset}, length {len}"
                );
            }
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
