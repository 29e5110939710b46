//! CRC-32 (IEEE 802.3 polynomial), slice-by-16 table-driven.
//!
//! Every wire frame and snapshot file carries a CRC so that torn writes,
//! bit rot and truncated streams are rejected with a typed error rather
//! than silently decoding into garbage state. The tables are built at
//! compile time — no lazy initialization, no dependencies.
//!
//! The kernel is the slice-by-16 scheme: sixteen derived tables (16 KiB)
//! let one loop iteration fold sixteen message bytes into the state with
//! sixteen independent table loads, so the loop-carried dependency (one
//! XOR into the state) is paid once per 16 bytes instead of once per
//! byte, or once per 8 with the 8 KiB slice-by-8 tables. The checksum
//! value is identical to the bytewise definition (same polynomial, same
//! reflection), so wire frames and snapshot files are byte-compatible in
//! both directions.

/// The reflected IEEE polynomial (as used by zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per iteration of the main loop.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` advances
/// the contribution of a byte that sits `k` positions before the end of
/// a sixteen-byte group (`TABLES[k][i] = shift8(TABLES[k-1][i])`).
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
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
    while k < SLICE {
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

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut groups = bytes.chunks_exact(SLICE);
        for group in &mut groups {
            let word =
                |at: usize| u32::from_le_bytes(group[at..at + 4].try_into().expect("four bytes"));
            // Byte `j` of the group sits `15 - j` bytes before its end.
            let (a, b, c, d) = (word(0) ^ state, word(4), word(8), word(12));
            state = TABLES[15][(a & 0xFF) as usize]
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
        for &b in groups.remainder() {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = state;
    }

    /// Finishes and returns the checksum value.
    #[must_use]
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut crc = Crc32::new();
        for chunk in data.chunks(7) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32(data));
    }

    /// The textbook byte-at-a-time loop, kept as the oracle the
    /// slice-by-16 kernel must match on every input length.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_16_matches_bytewise_at_every_length() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        // Split points that leave the streaming state mid-group.
        for split in [1, 3, 7, 8, 9, 15, 16, 17, 63, 100] {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32_bytewise(&data));
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"regmon-wire-v1 payload".to_vec();
        let clean = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
