//! CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant), computed
//! slicing-by-8 with compile-time lookup tables. Hand-rolled because
//! the build is offline; the constants match the standard
//! `crc32fast`/zlib output, pinned by the test vectors below.
//!
//! `TABLES[0]` is the classic byte-at-a-time table. `TABLES[k][b]` is
//! the CRC contribution of byte `b` followed by `k` zero bytes, so one
//! step folds eight input bytes with eight independent lookups instead
//! of eight dependent ones.

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the sliced loop must equal.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (64-bit LCG, high byte).
    fn noise(n: usize) -> Vec<u8> {
        let mut k = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                k = k
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (k >> 56) as u8
            })
            .collect()
    }

    /// Standard test vectors (zlib's crc32).
    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_equals_bytewise_at_every_short_length_and_offset() {
        let buf = noise(64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), bytewise(s), "offset {offset}, length {len}");
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_a_megabyte() {
        let buf = noise(1 << 20);
        assert_eq!(crc32(&buf), bytewise(&buf));
        assert_eq!(crc32(&buf[3..]), bytewise(&buf[3..]));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = crc32(b"hello, world");
        let mut bytes = *b"hello, world";
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "flip at bit {i} undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }
}
