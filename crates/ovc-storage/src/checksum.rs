//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for spill-frame
//! integrity — slice-by-8, table-driven, dependency-free.
//!
//! Spilled runs are written once and read back once on a path where a
//! torn write or a flipped bit would otherwise decode into *plausible but
//! wrong rows* (a flipped payload word is just a different value).  A
//! 32-bit frame checksum turns both failure modes into a typed
//! `ExecError::SpillCorruption` instead.
//!
//! Every spilled byte passes through it twice (write, read back), so it
//! takes eight bytes per step: eight independent table lookups replace
//! eight dependent bytewise steps.

/// The reflected IEEE polynomial used by zip, Ethernet, PNG, et al.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the crc
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF` — the
/// standard IEEE convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        let v = v ^ u64::from(crc);
        // Byte `i` is followed by `7 - i` more bytes of this word.
        crc = (0..8).fold(0, |acc, i| {
            acc ^ TABLES[7 - i][(v >> (8 * i)) as u8 as usize]
        });
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bytewise loop slice-by-8 replaced: one table lookup per byte.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_oracle() {
        let mut rng = StdRng::seed_from_u64(32);
        let data: Vec<u8> = (0..308).map(|_| rng.gen_range(0..=255u8)).collect();
        for start in 0..8 {
            for len in 0..300 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let data = vec![0xABu8; 256];
        let base = crc32(&data);
        for pos in [0usize, 1, 100, 255] {
            let mut flipped = data.clone();
            flipped[pos] ^= 0x01;
            assert_ne!(crc32(&flipped), base, "flip at {pos} must change crc");
        }
    }
}
