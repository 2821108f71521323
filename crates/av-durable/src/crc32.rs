//! CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
//!
//! Uses the slice-by-16 variant: sixteen precomputed tables let the
//! hot loop fold 16 input bytes per iteration instead of 1, which
//! matters because every WAL append checksums its whole payload on the
//! acknowledge path. The sixteen lookups per iteration are mutually
//! independent, so they pipeline; a byte-at-a-time loop is a serial
//! dependency chain.

const SLICES: usize = 16;

const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
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
    // tables[t][b] = CRC of byte b followed by t zero bytes: shifting a
    // byte's contribution t positions deeper into the stream.
    let mut t = 1;
    while t < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// Streaming CRC-32 accumulator (a split input checksums as the whole
/// one does; see the tests).
#[derive(Debug, Clone)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(SLICES);
        for chunk in &mut chunks {
            let a = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            let b = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            let c = u32::from_le_bytes([chunk[8], chunk[9], chunk[10], chunk[11]]);
            let d = u32::from_le_bytes([chunk[12], chunk[13], chunk[14], chunk[15]]);
            crc = TABLES[15][(a & 0xFF) as usize]
                ^ TABLES[14][((a >> 8) & 0xFF) as usize]
                ^ TABLES[13][((a >> 16) & 0xFF) as usize]
                ^ TABLES[12][(a >> 24) as usize]
                ^ TABLES[11][(b & 0xFF) as usize]
                ^ TABLES[10][((b >> 8) & 0xFF) as usize]
                ^ TABLES[9][((b >> 16) & 0xFF) as usize]
                ^ TABLES[8][(b >> 24) as usize]
                ^ TABLES[7][(c & 0xFF) as usize]
                ^ TABLES[6][((c >> 8) & 0xFF) as usize]
                ^ TABLES[5][((c >> 16) & 0xFF) as usize]
                ^ TABLES[4][(c >> 24) as usize]
                ^ TABLES[3][(d & 0xFF) as usize]
                ^ TABLES[2][((d >> 8) & 0xFF) as usize]
                ^ TABLES[1][((d >> 16) & 0xFF) as usize]
                ^ TABLES[0][(d >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Finalize and return the checksum; the accumulator may be discarded.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        for split in [0, 1, 7, 100, 4095, 4096] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data));
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
