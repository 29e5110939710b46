//! CRC-32 (IEEE 802.3 polynomial): a carry-less-multiply fold on x86_64
//! hosts with PCLMULQDQ, slice-by-16 tables everywhere else.
//!
//! Every wire frame, WAL record, journal and snapshot file carries a CRC
//! so that torn writes, bit rot and truncated streams are rejected with
//! a typed error rather than silently decoding into garbage state. Each
//! checksum covers one whole body, so [`crc32`] is the module's only
//! entry point.
//!
//! Two kernels compute the same value (same polynomial, same
//! reflection), so the bytes on the wire and on disk do not depend on
//! which one ran, and nothing but the CPU and the input length selects
//! between them:
//!
//! * The fold (`fold_x86`), when `is_x86_feature_detected!("pclmulqdq")`
//!   holds and the input is at least 64 bytes: four 128-bit lanes are
//!   folded forward 64 bytes at a time with `PCLMULQDQ`, merged into
//!   one lane, folded 16 bytes at a time, then Barrett-reduced to 32
//!   bits. The constants are the standard ones for the reflected IEEE
//!   polynomial (the same as Linux's `crc32-pclmul`, zlib and
//!   crc32fast). It reads ~21 bytes per ns where the table kernel
//!   reads ~1.8, at which rate the checksum was the larger half of
//!   decoding a `Batch` frame.
//! * The table kernel (`table_update`), for inputs under 64 bytes, the
//!   fold's tail under 16 bytes and every other host: sixteen
//!   compile-time tables (16 KiB) let one loop iteration fold sixteen
//!   message bytes into the state with sixteen independent loads, so
//!   the loop-carried XOR is paid once per 16 bytes. No lazy
//!   initialization, no dependencies.
//!
//! The tests hold both kernels to the textbook bytewise loop.

/// The reflected IEEE polynomial (as used by zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per iteration of the table loop.
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

/// CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Advances the raw (pre-inversion) CRC register over `bytes` with the
/// fastest kernel this host runs.
fn update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    let kernel = fold_x86::update;
    #[cfg(not(target_arch = "x86_64"))]
    let kernel = table_update;
    kernel(state, bytes)
}

/// The slice-by-16 kernel: advances the raw CRC register over `bytes`.
fn table_update(mut state: u32, bytes: &[u8]) -> u32 {
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
    state
}

/// The PCLMULQDQ fold, the crate's only `target_feature` code. One
/// feature gates it: the final lane is read with SSE2, which every
/// x86_64 host has, rather than SSE4.1's `_mm_extract_epi32`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod fold_x86 {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::table_update;

    /// Shortest input the fold takes: its four opening lanes.
    const MIN_LEN: usize = 64;

    // Folding constants for the reflected IEEE polynomial, each
    // `x^n mod P(x)` bit-reflected and shifted left one place.
    // Fold a lane forward 512 bits (fold by four): `x^(4*128+32)`,
    // `x^(4*128-32)`.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    // Fold a lane forward 128 bits (fold by one): `x^(128+32)`,
    // `x^(128-32)`.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    // Reduce 96 bits to 64: `x^64`.
    const K5: i64 = 0x1_63CD_6124;
    // The polynomial `P(x)` and Barrett's `u = x^64 / P(x)`, reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Advances the raw CRC register over `bytes`. Inputs shorter than
    /// [`MIN_LEN`], and every input on a CPU without PCLMULQDQ, go to
    /// the table kernel, as does the fold's tail under 16 bytes.
    pub fn update(state: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < MIN_LEN || !std::is_x86_feature_detected!("pclmulqdq") {
            return table_update(state, bytes);
        }
        // SAFETY: PCLMULQDQ was just detected (std caches the answer),
        // and `bytes.len() >= MIN_LEN` as `fold` requires.
        let (state, tail) = unsafe { fold(state, bytes) };
        table_update(state, tail)
    }

    /// Loads one 16-byte lane. The array type carries the length check.
    #[inline]
    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// The `chunk`'th 16-byte lane of a 64-byte block.
    #[inline]
    fn lane(block: &[u8], chunk: usize) -> &[u8; 16] {
        block[chunk * 16..chunk * 16 + 16]
            .try_into()
            .expect("sixteen bytes")
    }

    /// `acc` carried 128 bits forward (by the pair of constants in
    /// `keys`) and added to `next`.
    ///
    /// # Safety
    ///
    /// Requires PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Folds every whole 16-byte lane of `bytes` into the register and
    /// returns it with the unread tail (under 16 bytes).
    ///
    /// # Safety
    ///
    /// Requires PCLMULQDQ, and `bytes.len() >= MIN_LEN`.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let mut blocks = bytes.chunks_exact(MIN_LEN);
        let first = blocks.next().expect("at least MIN_LEN bytes");
        // SAFETY: the intrinsics need PCLMULQDQ and SSE2, which this
        // function's feature and the x86_64 baseline provide; every load
        // goes through `load`, which takes exactly 16 bytes.
        unsafe {
            // The register enters as the first lane's low 32 bits.
            let mut four = [
                _mm_xor_si128(load(lane(first, 0)), _mm_cvtsi32_si128(state as i32)),
                load(lane(first, 1)),
                load(lane(first, 2)),
                load(lane(first, 3)),
            ];
            let k1k2 = _mm_set_epi64x(K2, K1);
            for block in &mut blocks {
                for (chunk, acc) in four.iter_mut().enumerate() {
                    *acc = fold_into(*acc, load(lane(block, chunk)), k1k2);
                }
            }

            let k3k4 = _mm_set_epi64x(K4, K3);
            let mut acc = fold_into(four[0], four[1], k3k4);
            acc = fold_into(acc, four[2], k3k4);
            acc = fold_into(acc, four[3], k3k4);
            let mut lanes = blocks.remainder().chunks_exact(16);
            for next in &mut lanes {
                acc = fold_into(acc, load(next.try_into().expect("sixteen bytes")), k3k4);
            }

            // 128 bits to 64: fold the low half onto the high one, then
            // the low 32 bits of that onto the rest.
            let low32 = _mm_set_epi32(0, 0, 0, !0);
            let x = _mm_xor_si128(
                _mm_clmulepi64_si128(acc, k3k4, 0x10),
                _mm_srli_si128(acc, 8),
            );
            let x = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
                _mm_srli_si128(x, 4),
            );

            // Barrett reduction, 64 bits to 32 (bit-reflected form):
            // T1 = (R mod x^32) * u, T2 = (T1 mod x^32) * P, and the
            // register is the upper half of R ^ T2.
            let pu = _mm_set_epi64x(U_PRIME, P_X);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
            let state = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
            (state, lanes.remainder())
        }
    }
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

    /// The textbook byte-at-a-time loop, kept as the oracle both
    /// kernels must match.
    fn bytewise_update(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state
    }

    /// A kernel: advances the raw CRC register over some bytes.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this host can run, by name: the table loop, and the
    /// fold where the CPU has PCLMULQDQ.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("pclmulqdq") {
            return vec![("table", table_update), ("fold", fold_x86::update)];
        }
        vec![("table", table_update)]
    }

    /// Seeded pseudo-random bytes (xorshift64).
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    /// Each kernel over every prefix of `data[offset..]` up to
    /// `max_len` bytes, against the bytewise loop advanced one byte at
    /// a time.
    fn check_every_prefix(data: &[u8], offset: usize, max_len: usize, what: &str) {
        let body = &data[offset..offset + max_len];
        let kernels = kernels();
        let mut oracle = !0u32;
        for len in 0..=max_len {
            for &(name, kernel) in &kernels {
                assert_eq!(
                    kernel(!0, &body[..len]),
                    oracle,
                    "{name} kernel, {what}, offset {offset}, len {len}"
                );
            }
            if len < max_len {
                oracle = bytewise_update(oracle, &body[len..=len]);
            }
        }
    }

    #[test]
    fn kernels_match_bytewise_at_every_length_and_offset() {
        const MAX_LEN: usize = 4096;
        let random = random_bytes(MAX_LEN + 15, 0x5EED_C0DE);
        for offset in 0..16 {
            check_every_prefix(&random, offset, MAX_LEN, "random");
        }
        for (fill, what) in [(0x00, "all-zero"), (0xFF, "all-0xFF")] {
            check_every_prefix(&vec![fill; MAX_LEN], 0, MAX_LEN, what);
        }
    }

    #[test]
    fn kernels_match_bytewise_at_frame_sizes() {
        // The serve_loops `Batch` frame body with delta-of-delta cycle
        // columns, and with delta columns only.
        for len in [7_230, 13_316] {
            let data = random_bytes(len + 15, len as u64);
            for offset in 0..16 {
                let body = &data[offset..offset + len];
                let expected = bytewise_update(!0, body);
                for (name, kernel) in kernels() {
                    assert_eq!(
                        kernel(!0, body),
                        expected,
                        "{name}, len {len}, offset {offset}"
                    );
                }
                assert_eq!(
                    crc32(body),
                    !expected,
                    "dispatch, len {len}, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn state_carries_across_every_split() {
        // Splits from 48 to 80 put each half on either side of the
        // fold's 64-byte minimum, and leave the table loop mid-group.
        let data = random_bytes(1_000, 7);
        let expected = bytewise_update(!0, &data);
        for split in 48..=80 {
            let (head, tail) = data.split_at(split);
            for (name, kernel) in kernels() {
                assert_eq!(
                    kernel(kernel(!0, head), tail),
                    expected,
                    "{name}, split {split}"
                );
            }
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
