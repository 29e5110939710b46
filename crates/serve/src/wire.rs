//! `regmon-wire`: the framed binary ingestion protocol.
//!
//! Every frame on the wire is laid out as
//!
//! ```text
//! ┌────────────┬────────────┬───────────┬──────────────────────┐
//! │ len: u32LE │ crc: u32LE │ type: u8  │ payload (len-1 bytes)│
//! └────────────┴────────────┴───────────┴──────────────────────┘
//! ```
//!
//! where `len` counts the type byte plus the payload and `crc` is the
//! CRC-32 (IEEE) of the type byte plus the payload. A stream is a
//! `Hello` frame followed by any interleaving of `Admit`, `Batch` and
//! `Finish` frames for the connection's tenants. All integers are
//! little-endian; floats travel as raw IEEE-754 bit patterns so decoded
//! configurations are *bit-identical* to what the producer encoded —
//! the whole determinism contract rests on that.
//!
//! Everything regmon writes and reads — journals, the durable WAL,
//! `send` and `migrate` — is **wire-v2**, encoded by [`Frame::encode`]:
//!
//! * `Batch2` — the delta-columnar batch representation: per interval
//!   the addr and cycle streams travel as separate columns, each either
//!   a `[width u8][base u64][deltas…]` run of zigzag-encoded wrapping
//!   deltas narrowed to the smallest of {1, 2, 4} bytes that fits (or
//!   raw 8-byte values when deltas do not help), or a delta-of-delta
//!   run `[0x10|width u8][base u64][first delta u64][second
//!   differences…]`, whichever is smaller. PC streams are local, so
//!   the addr column takes narrow deltas; sampled cycles advance by a
//!   near-constant period, so the cycle column takes 1-byte second
//!   differences. A 2,032-sample interval of pipebench's `serve_loops`
//!   traffic is 7,230 bytes (3.6 per sample) — and the CRC and decode
//!   passes shrink with it.
//! * `Snapshot` / `Checkpoint` — the live-migration handshake: a
//!   checkpoint request pulls a tenant's RGSN session snapshot back
//!   over the wire, and a snapshot frame admits that tenant elsewhere.
//!
//! Nothing is negotiated: a `Hello` must carry [`WIRE_VERSION`], and the
//! server answers each one with its own. Wire v1 (a raw-sample `Batch`,
//! frame type 3) and LZSS-compressed frames (type 6) are retired: a v1
//! `Hello` and both frame types are rejected with errors that name
//! them, so an old journal or WAL fails loudly instead of being
//! misread.
//!
//! Decoding is strict: truncated streams, corrupt checksums, foreign
//! magic, unknown frame types and out-of-range field values are all
//! rejected with a typed [`WireError`] naming the failure, never a
//! panic and never a silently wrong value.

use std::fmt;
use std::io::{self, Read, Write};

use regmon::{PruningConfig, SessionConfig};
use regmon_binary::Addr;
use regmon_gpd::GpdConfig;
use regmon_lpd::{LpdConfig, SimilarityKind, ThresholdPolicy};
use regmon_regions::{FormationConfig, IndexKind};
use regmon_sampling::{Interval, PcSample, SamplingConfig};

use crate::crc::crc32;
use crate::snapshot::SNAPSHOT_VERSION;

/// Magic bytes opening every `Hello` frame and snapshot file header.
pub const WIRE_MAGIC: [u8; 4] = *b"RGMN";

/// The protocol version this build writes and reads.
pub const WIRE_VERSION: u16 = 2;

/// Upper bound on a single frame's `len` field (64 MiB). A frame
/// claiming more is rejected before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Upper bound on an encoded string field (tenant / workload names).
const MAX_STRING_LEN: u32 = 4096;

/// Upper bound on a decoded GPD `history_len` (the paper's is 4).
const MAX_GPD_HISTORY: usize = 1 << 16;

const TYPE_HELLO: u8 = 1;
const TYPE_ADMIT: u8 = 2;
// Types 3 (the wire-v1 raw-sample batch) and 6 (the LZSS wrapper) are
// retired. Never reuse them: an old file must fail as an unknown type,
// not be misread.
const TYPE_FINISH: u8 = 4;
const TYPE_BATCH2: u8 = 5;
const TYPE_SNAPSHOT: u8 = 7;
const TYPE_CHECKPOINT: u8 = 8;
const TYPE_RESUME: u8 = 9;
const TYPE_RESUME_ACK: u8 = 10;
const TYPE_BUSY: u8 = 11;

/// The checksummed unit a [`WireError::BadCrc`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checksummed {
    /// A wire frame, checked against the CRC in its header.
    Frame,
    /// An `RGSN` session snapshot, checked against its CRC trailer.
    Snapshot,
}

/// Why a wire stream or a snapshot file failed to decode.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended inside a frame (torn write, killed producer).
    Truncated {
        /// Byte offset of the start of the frame the stream died inside.
        offset: u64,
        /// Zero-based index of that frame within the stream.
        frame: u64,
    },
    /// A `Hello` frame carried foreign magic bytes.
    BadMagic,
    /// The producer speaks a protocol version this build does not.
    BadVersion {
        /// The version the producer announced.
        got: u16,
    },
    /// A frame body (or snapshot) does not hash to its stored checksum.
    BadCrc {
        /// What the checksum covers.
        of: Checksummed,
        /// Checksum the header (or trailer) claimed.
        want: u32,
        /// Checksum the body actually hashes to.
        got: u32,
    },
    /// The frame type byte names no known frame.
    UnknownFrameType(u8),
    /// A structurally invalid payload (short field, bad enum tag,
    /// out-of-range value, invalid UTF-8).
    Malformed(&'static str),
    /// A frame header claimed a body larger than [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// A frame header claimed an empty body (no type byte), as zeroed
    /// bytes past a crash point read.
    ZeroLengthFrame,
    /// A session snapshot is shorter than its fixed magic, version and
    /// CRC trailer.
    SnapshotTooShort {
        /// Length of the rejected file image in bytes.
        len: usize,
    },
    /// A session snapshot does not start with the `RGSN` magic.
    NotASnapshot,
    /// A session snapshot declares a format version this build does
    /// not read.
    SnapshotVersion {
        /// The version the snapshot declared.
        got: u16,
    },
    /// A session snapshot whose checksum holds but whose contents are
    /// structurally invalid (the snapshot-side [`WireError::Malformed`]).
    SnapshotMalformed(&'static str),
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { offset, frame } => write!(
                f,
                "wire stream truncated mid-frame (frame {frame} at byte offset {offset})"
            ),
            Self::BadMagic => write!(f, "bad magic (expected \"RGMN\")"),
            Self::BadVersion { got: 1 } => write!(
                f,
                "wire v1 is no longer read (this build reads wire v{WIRE_VERSION})"
            ),
            Self::BadVersion { got } => write!(
                f,
                "unsupported wire version {got} (this build reads wire v{WIRE_VERSION})"
            ),
            Self::BadCrc {
                of: Checksummed::Frame,
                want,
                got,
            } => {
                write!(
                    f,
                    "frame checksum mismatch (header {want:#010x}, body {got:#010x})"
                )
            }
            Self::BadCrc {
                of: Checksummed::Snapshot,
                want,
                got,
            } => write!(
                f,
                "RGSN snapshot checksum mismatch (trailer {want:#010x}, contents {got:#010x})"
            ),
            Self::UnknownFrameType(3) => write!(
                f,
                "unknown frame type 3 (a wire v1 batch; wire v1 is no longer read)"
            ),
            Self::UnknownFrameType(6) => write!(
                f,
                "unknown frame type 6 (an LZSS-compressed frame; compression is no longer read)"
            ),
            Self::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            Self::Malformed(what) => write!(f, "malformed frame: {what}"),
            Self::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            Self::ZeroLengthFrame => write!(f, "malformed frame: zero-length frame"),
            Self::SnapshotTooShort { len } => write!(
                f,
                "RGSN snapshot truncated: {len} bytes, shorter than its 10-byte header and trailer"
            ),
            Self::NotASnapshot => {
                write!(f, "not a session snapshot: bad magic (expected \"RGSN\")")
            }
            Self::SnapshotVersion { got } => write!(
                f,
                "unsupported RGSN snapshot version {got} (this build reads {SNAPSHOT_VERSION})"
            ),
            Self::SnapshotMalformed(what) => write!(f, "malformed RGSN snapshot: {what}"),
            Self::Io(e) => write!(f, "wire transport error: {e}"),
        }
    }
}

impl WireError {
    /// Whether the frame envelope failed: the stream ended inside a
    /// frame, or its length word is zero or over the cap, or its body
    /// misses the checksum. Every other error is a checksummed payload
    /// that does not decode.
    #[must_use]
    pub(crate) fn is_envelope(&self) -> bool {
        matches!(
            self,
            Self::Truncated { .. }
                | Self::FrameTooLarge(_)
                | Self::ZeroLengthFrame
                | Self::BadCrc {
                    of: Checksummed::Frame,
                    ..
                }
        )
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            // Positionless contexts (snapshot files) have no frame
            // cursor; [`FrameReader`] maps EOF itself to report the
            // real offset and frame index.
            Self::Truncated {
                offset: 0,
                frame: 0,
            }
        } else {
            Self::Io(e)
        }
    }
}

/// A tenant admission: everything a server needs to start the session.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitFrame {
    /// Producer-chosen tenant id, scoping later `Batch`/`Finish` frames
    /// on the same connection.
    pub tenant: u32,
    /// Display name of the tenant.
    pub name: String,
    /// Workload (suite binary) name the server resolves the program
    /// image from.
    pub workload: String,
    /// Full session configuration, bit-exact.
    pub config: SessionConfig,
    /// Intervals the producer intends to stream (0 = unknown).
    pub max_intervals: u64,
}

/// A live tenant hand-off (wire-v2): everything `Admit` carries plus
/// the RGSN session snapshot to resume from. Flows server → client as
/// the `Checkpoint` reply and client → server as an admit-with-state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFrame {
    /// Producer-chosen tenant id, scoping later frames.
    pub tenant: u32,
    /// Display name of the tenant.
    pub name: String,
    /// Workload (suite binary) name the server resolves the program
    /// image from.
    pub workload: String,
    /// Intervals the producer intends to stream in total (0 = unknown).
    pub max_intervals: u64,
    /// The encoded RGSN snapshot (validated at decode; see
    /// [`crate::snapshot::decode_snapshot`]).
    pub snapshot: Vec<u8>,
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Stream opener: magic + protocol version.
    Hello {
        /// Protocol version the producer speaks.
        version: u16,
    },
    /// Admits a tenant session.
    Admit(Box<AdmitFrame>),
    /// A batch of sampled intervals for one tenant, in stream order.
    Batch {
        /// The tenant these intervals belong to.
        tenant: u32,
        /// The intervals, oldest first.
        intervals: Vec<Interval>,
    },
    /// Marks a tenant's stream complete.
    Finish {
        /// The finished tenant.
        tenant: u32,
    },
    /// Wire-v2: admits a tenant mid-stream from a session snapshot
    /// (migration hand-off).
    Snapshot(Box<SnapshotFrame>),
    /// Wire-v2: asks the server to freeze a tenant and return its
    /// session as a `Snapshot` frame.
    Checkpoint {
        /// The tenant to check out.
        tenant: u32,
    },
    /// Wire-v2: reconnect-and-resume opener. Same payload as `Admit`,
    /// but asks the server to attach to an existing live session *by
    /// name* (wire tenant ids are connection-scoped, so a reconnecting
    /// producer cannot rely on them). The server answers `ResumeAck`;
    /// it never admits on a miss — the producer re-opens explicitly.
    Resume(Box<AdmitFrame>),
    /// Wire-v2 server reply to `Resume`: where the stream left off.
    ResumeAck {
        /// Echo of the producer-chosen tenant id from the `Resume`.
        tenant: u32,
        /// Whether a matching live session was found and attached.
        found: bool,
        /// Whether that session already finished (nothing left to send).
        done: bool,
        /// First interval index the server has not yet folded in.
        next_interval: u64,
    },
    /// Wire-v2: graceful server refusal (admission control). The peer
    /// should back off and retry, or give up.
    Busy {
        /// Human-readable reason.
        message: String,
    },
}

// --------------------------------------------------------- raw helpers

pub(crate) fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over one frame's payload.
#[derive(Debug)]
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(WireError::Malformed("field runs past the payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()?;
        if len > MAX_STRING_LEN {
            return Err(WireError::Malformed("string field too long"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("invalid UTF-8"))
    }

    pub(crate) fn usize_field(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("usize field overflows"))
    }

    /// A `0`/`1` byte; anything else is malformed as `what`.
    pub(crate) fn flag(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed(what)),
        }
    }

    pub(crate) fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

// ----------------------------------------------------- config codec

/// Serializes a full [`SessionConfig`] into `out`, bit-exact.
pub fn encode_config(config: &SessionConfig, out: &mut Vec<u8>) {
    // Sampling.
    push_u64(out, config.sampling.period());
    push_u64(out, config.sampling.buffer_capacity() as u64);
    push_u64(out, config.sampling.max_skid());
    // Formation.
    push_f64(out, config.formation.ucr_trigger);
    push_u64(out, config.formation.min_region_samples as u64);
    out.push(u8::from(config.formation.interprocedural));
    // Index.
    out.push(match config.index {
        IndexKind::Linear => 0,
        IndexKind::IntervalTree => 1,
        IndexKind::FlatSorted => 2,
    });
    // GPD.
    push_u64(out, config.gpd.history_len as u64);
    push_f64(out, config.gpd.th1);
    push_f64(out, config.gpd.th2);
    push_f64(out, config.gpd.th3);
    push_f64(out, config.gpd.th4);
    push_u64(out, config.gpd.stable_timer as u64);
    push_f64(out, config.gpd.max_band_ratio);
    // LPD.
    match config.lpd.threshold {
        ThresholdPolicy::Fixed(rt) => {
            out.push(0);
            push_f64(out, rt);
        }
        ThresholdPolicy::Adaptive {
            base,
            reference_slots,
            slope,
            floor,
        } => {
            out.push(1);
            push_f64(out, base);
            push_u64(out, reference_slots as u64);
            push_f64(out, slope);
            push_f64(out, floor);
        }
    }
    out.push(match config.lpd.similarity {
        SimilarityKind::Pearson => 0,
        SimilarityKind::Cosine => 1,
        SimilarityKind::Manhattan => 2,
        SimilarityKind::Rank => 3,
    });
    push_u64(out, config.lpd.min_samples);
    // Pruning.
    match config.pruning {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            push_u64(out, p.cold_intervals as u64);
            push_u64(out, p.min_samples);
        }
    }
    // Reserved slot: written as 0 and ignored on decode, so frames and
    // WALs from writers that filled it still parse.
    push_u64(out, 0);
}

pub(crate) fn decode_config(cur: &mut Cursor<'_>) -> Result<SessionConfig, WireError> {
    let period = cur.u64()?;
    let buffer_capacity = cur.usize_field()?;
    let max_skid = cur.u64()?;
    if period == 0 || buffer_capacity == 0 {
        return Err(WireError::Malformed(
            "sampling period/buffer must be positive",
        ));
    }
    if max_skid >= period {
        return Err(WireError::Malformed(
            "sampling skid must be below the period",
        ));
    }
    let sampling = SamplingConfig::with_buffer(period, buffer_capacity).with_skid(max_skid);

    let formation = FormationConfig {
        ucr_trigger: cur.f64()?,
        min_region_samples: cur.usize_field()?,
        interprocedural: cur.flag("bad interprocedural flag")?,
    };
    if !(0.0..=1.0).contains(&formation.ucr_trigger) {
        return Err(WireError::Malformed("ucr_trigger outside [0,1]"));
    }

    let index = match cur.u8()? {
        0 => IndexKind::Linear,
        1 => IndexKind::IntervalTree,
        2 => IndexKind::FlatSorted,
        _ => return Err(WireError::Malformed("bad index kind")),
    };

    let gpd = GpdConfig {
        history_len: cur.usize_field()?,
        th1: cur.f64()?,
        th2: cur.f64()?,
        th3: cur.f64()?,
        th4: cur.f64()?,
        stable_timer: cur.usize_field()?,
        max_band_ratio: cur.f64()?,
    };
    if gpd.history_len == 0 {
        return Err(WireError::Malformed("gpd history_len must be positive"));
    }
    // The detector preallocates its history: an unchecked length is an
    // allocation a peer picks.
    if gpd.history_len > MAX_GPD_HISTORY {
        return Err(WireError::Malformed("gpd history_len above 65536"));
    }

    let threshold = match cur.u8()? {
        0 => ThresholdPolicy::Fixed(cur.f64()?),
        1 => ThresholdPolicy::Adaptive {
            base: cur.f64()?,
            reference_slots: cur.usize_field()?,
            slope: cur.f64()?,
            floor: cur.f64()?,
        },
        _ => return Err(WireError::Malformed("bad threshold policy tag")),
    };
    let similarity = match cur.u8()? {
        0 => SimilarityKind::Pearson,
        1 => SimilarityKind::Cosine,
        2 => SimilarityKind::Manhattan,
        3 => SimilarityKind::Rank,
        _ => return Err(WireError::Malformed("bad similarity kind")),
    };
    let lpd = LpdConfig {
        threshold,
        similarity,
        min_samples: cur.u64()?,
    };

    let pruning = match cur.u8()? {
        0 => None,
        1 => {
            let cold_intervals = cur.usize_field()?;
            let min_samples = cur.u64()?;
            if cold_intervals == 0 {
                return Err(WireError::Malformed(
                    "pruning cold_intervals must be positive",
                ));
            }
            Some(PruningConfig {
                cold_intervals,
                min_samples,
            })
        }
        _ => return Err(WireError::Malformed("bad pruning flag")),
    };

    let _reserved = cur.u64()?;

    Ok(SessionConfig {
        sampling,
        formation,
        index,
        gpd,
        lpd,
        pruning,
    })
}

// ------------------------------------------- delta-columnar codec (v2)

/// Zigzag-folds a signed delta so small magnitudes of either sign get
/// small codes. A bijection on all 64 bits (`i64::MIN` included).
fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Column-code flag for a delta-of-delta column; the low bits of a
/// column code give the entry width in bytes.
const COLUMN_DOD: u8 = 0x10;

/// The narrowest of {1, 2, 4, 8} bytes that holds `max_fold`.
fn fold_width(max_fold: u64) -> u8 {
    match max_fold {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

/// Appends the low `width` bytes of `fold` (little-endian).
fn push_fold(out: &mut Vec<u8>, fold: u64, width: u8) {
    out.extend_from_slice(&fold.to_le_bytes()[..usize::from(width)]);
}

/// Encodes one value column in whichever of two layouts is smaller:
///
/// * delta: `[w u8][base u64][n-1 deltas]` — the first value verbatim,
///   then zigzag-folded *wrapping* deltas narrowed to the smallest of
///   {1, 2, 4} bytes that holds every fold. When even 4 bytes do not
///   fit the column falls back to width 8: raw values (no deltas).
/// * delta-of-delta (`0x10|w`, w ∈ {1, 2, 4}): `[0x10|w u8][base u64]
///   [first delta u64][n-2 second differences]`, each entry the zigzag
///   fold of `delta[i] - delta[i-1]`. A sampled cycle column is a
///   constant period plus a few cycles of skid, so its second
///   differences fit one byte where its deltas need four (Gorilla's
///   timestamp encoding, Pelkonen et al., VLDB 2015).
///
/// One pass finds both maxima. Wrapping arithmetic makes the round trip
/// exact for every `u64` input, including columns that wrap past zero.
fn encode_column(values: &[u64], out: &mut Vec<u8>) {
    let Some((&base, rest)) = values.split_first() else {
        return; // empty column: nsamples == 0 says it all
    };
    let first_delta = rest.first().map_or(0, |&v| v.wrapping_sub(base));
    let (mut max_fold, mut max_fold2) = (0u64, 0u64);
    let (mut prev, mut prev_delta) = (base, first_delta);
    for &v in rest {
        let delta = v.wrapping_sub(prev);
        max_fold = max_fold.max(zigzag(delta as i64));
        max_fold2 = max_fold2.max(zigzag(delta.wrapping_sub(prev_delta) as i64));
        (prev, prev_delta) = (v, delta);
    }
    let width = fold_width(max_fold);
    let width2 = fold_width(max_fold2);
    let delta_len = rest.len() * usize::from(width);
    let dod_len = rest
        .len()
        .checked_sub(1)
        .map(|m| 8 + m * usize::from(width2));
    if width2 <= 4 && dod_len.is_some_and(|len| len < delta_len) {
        out.push(COLUMN_DOD | width2);
        push_u64(out, base);
        push_u64(out, first_delta);
        let (mut prev, mut prev_delta) = (rest[0], first_delta);
        for &v in &rest[1..] {
            let delta = v.wrapping_sub(prev);
            push_fold(out, zigzag(delta.wrapping_sub(prev_delta) as i64), width2);
            (prev, prev_delta) = (v, delta);
        }
        return;
    }
    write_delta_column(values, width, out);
}

/// Writes `values` in the delta layout at `width` (nothing when empty).
fn write_delta_column(values: &[u64], width: u8, out: &mut Vec<u8>) {
    let Some((&base, rest)) = values.split_first() else {
        return;
    };
    out.push(width);
    push_u64(out, base);
    let mut prev = base;
    for &v in rest {
        match width {
            8 => push_u64(out, v),
            _ => push_fold(out, zigzag(v.wrapping_sub(prev) as i64), width),
        }
        prev = v;
    }
}

/// Walks `W`-byte little-endian entries, writing `value(entry)` into
/// successive `slots`.
fn fill_entries<T, const W: usize>(
    slots: &mut [T],
    bytes: &[u8],
    mut value: impl FnMut(u64) -> u64,
    set: &mut impl FnMut(&mut T, u64),
) {
    for (slot, rec) in slots.iter_mut().zip(bytes.chunks_exact(W)) {
        let mut le = [0u8; 8];
        le[..W].copy_from_slice(rec);
        set(slot, value(u64::from_le_bytes(le)));
    }
}

/// [`fill_entries`] at a runtime width of 1, 2, 4 or 8 bytes.
fn fill_column<T>(
    width: u8,
    slots: &mut [T],
    bytes: &[u8],
    value: impl FnMut(u64) -> u64,
    mut set: impl FnMut(&mut T, u64),
) {
    match width {
        1 => fill_entries::<T, 1>(slots, bytes, value, &mut set),
        2 => fill_entries::<T, 2>(slots, bytes, value, &mut set),
        4 => fill_entries::<T, 4>(slots, bytes, value, &mut set),
        _ => fill_entries::<T, 8>(slots, bytes, value, &mut set),
    }
}

/// Walks an `n`-entry column written by [`encode_column`] (either
/// layout), writing each decoded value into the matching `out` slot
/// via `set`. Decoding in place lets [`decode_interval_v2`] fill the
/// final `PcSample` vector directly — no intermediate per-column
/// `Vec<u64>` on the hot path.
fn decode_column_into<T>(
    cur: &mut Cursor<'_>,
    out: &mut [T],
    mut set: impl FnMut(&mut T, u64),
) -> Result<(), WireError> {
    let Some((first, rest)) = out.split_first_mut() else {
        return Ok(());
    };
    let code = cur.u8()?;
    let base = cur.u64()?;
    let width = code & !COLUMN_DOD;
    let dod = code & COLUMN_DOD != 0;
    let (head, entries) = match (dod, width) {
        (false, 1 | 2 | 4 | 8) => (0, rest.len()),
        (true, 1 | 2 | 4) => (8, rest.len().saturating_sub(1)),
        _ => return Err(WireError::Malformed("bad column width")),
    };
    // Refuse counts the payload cannot hold before allocating.
    let payload = entries
        .saturating_mul(usize::from(width))
        .saturating_add(head);
    if payload > cur.bytes.len() - cur.pos {
        return Err(WireError::Malformed("sample count exceeds payload"));
    }
    set(first, base);
    let mut prev = base;
    if !dod {
        let bytes = cur.take(payload)?;
        if width == 8 {
            // Raw values: no delta chain to walk.
            fill_column(width, rest, bytes, |raw| raw, set);
        } else {
            let step = |fold| {
                prev = prev.wrapping_add(unzigzag(fold) as u64);
                prev
            };
            fill_column(width, rest, bytes, step, set);
        }
        return Ok(());
    }
    let Some((second, tail)) = rest.split_first_mut() else {
        return Err(WireError::Malformed("delta-of-delta column of one value"));
    };
    let mut delta = cur.u64()?;
    let bytes = cur.take(payload - head)?;
    prev = prev.wrapping_add(delta);
    set(second, prev);
    let step = |fold| {
        delta = delta.wrapping_add(unzigzag(fold) as u64);
        prev = prev.wrapping_add(delta);
        prev
    };
    fill_column(width, tail, bytes, step, set);
    Ok(())
}

/// Decodes an `n`-value column written by [`encode_column`].
#[cfg(test)]
fn decode_column(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<u64>, WireError> {
    let mut values = vec![0u64; n];
    decode_column_into(cur, &mut values, |slot, v| *slot = v)?;
    Ok(values)
}

/// Encodes one interval in the v2 delta-columnar layout, each column
/// written by `column`.
fn encode_interval_v2(interval: &Interval, out: &mut Vec<u8>, column: fn(&[u64], &mut Vec<u8>)) {
    push_u64(out, interval.index as u64);
    push_u64(out, interval.start_cycle);
    push_u64(out, interval.end_cycle);
    push_u32(out, interval.samples.len() as u32);
    let addrs: Vec<u64> = interval.samples.iter().map(|s| s.addr.get()).collect();
    let cycles: Vec<u64> = interval.samples.iter().map(|s| s.cycle).collect();
    column(&addrs, out);
    column(&cycles, out);
}

/// The column encoder builds before delta-of-delta wrote: always the
/// delta layout. Kept as the reference for the old-file tests.
#[cfg(test)]
fn encode_delta_column(values: &[u64], out: &mut Vec<u8>) {
    let max_fold = values
        .windows(2)
        .map(|pair| zigzag(pair[1].wrapping_sub(pair[0]) as i64))
        .max()
        .unwrap_or(0);
    write_delta_column(values, fold_width(max_fold), out);
}

/// Decodes one v2 interval.
fn decode_interval_v2(cur: &mut Cursor<'_>) -> Result<Interval, WireError> {
    let index = cur.usize_field()?;
    let start_cycle = cur.u64()?;
    let end_cycle = cur.u64()?;
    let nsamples = cur.u32()? as usize;
    // Each non-base sample costs at least one delta byte per column;
    // refuse counts the payload cannot hold before allocating.
    if nsamples > 0 && nsamples - 1 > cur.bytes.len() - cur.pos {
        return Err(WireError::Malformed("sample count exceeds payload"));
    }
    let mut samples = vec![
        PcSample {
            addr: Addr::new(0),
            cycle: 0,
        };
        nsamples
    ];
    decode_column_into(cur, &mut samples, |s, v| s.addr = Addr::new(v))?;
    decode_column_into(cur, &mut samples, |s, v| s.cycle = v)?;
    Ok(Interval {
        index,
        start_cycle,
        end_cycle,
        samples,
    })
}

// ------------------------------------------------------ frame codec

/// The payload `Admit` and `Resume` share.
fn decode_admit(cur: &mut Cursor<'_>) -> Result<Box<AdmitFrame>, WireError> {
    Ok(Box::new(AdmitFrame {
        tenant: cur.u32()?,
        name: cur.string()?,
        workload: cur.string()?,
        config: decode_config(cur)?,
        max_intervals: cur.u64()?,
    }))
}

impl Frame {
    /// The stream-opening frame this build emits.
    #[must_use]
    pub fn hello() -> Self {
        Self::Hello {
            version: WIRE_VERSION,
        }
    }

    fn type_byte(&self) -> u8 {
        match self {
            Self::Hello { .. } => TYPE_HELLO,
            Self::Admit(_) => TYPE_ADMIT,
            Self::Batch { .. } => TYPE_BATCH2,
            Self::Finish { .. } => TYPE_FINISH,
            Self::Snapshot(_) => TYPE_SNAPSHOT,
            Self::Checkpoint { .. } => TYPE_CHECKPOINT,
            Self::Resume(_) => TYPE_RESUME,
            Self::ResumeAck { .. } => TYPE_RESUME_ACK,
            Self::Busy { .. } => TYPE_BUSY,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::Hello { version } => {
                out.extend_from_slice(&WIRE_MAGIC);
                push_u16(out, *version);
            }
            Self::Admit(admit) | Self::Resume(admit) => {
                push_u32(out, admit.tenant);
                push_str(out, &admit.name);
                push_str(out, &admit.workload);
                encode_config(&admit.config, out);
                push_u64(out, admit.max_intervals);
            }
            Self::Batch { tenant, intervals } => {
                push_u32(out, *tenant);
                push_u32(out, intervals.len() as u32);
                for interval in intervals {
                    encode_interval_v2(interval, out, encode_column);
                }
            }
            Self::Finish { tenant } => push_u32(out, *tenant),
            Self::Snapshot(snap) => {
                push_u32(out, snap.tenant);
                push_str(out, &snap.name);
                push_str(out, &snap.workload);
                push_u64(out, snap.max_intervals);
                push_u32(out, snap.snapshot.len() as u32);
                out.extend_from_slice(&snap.snapshot);
            }
            Self::Checkpoint { tenant } => push_u32(out, *tenant),
            Self::ResumeAck {
                tenant,
                found,
                done,
                next_interval,
            } => {
                push_u32(out, *tenant);
                out.push(u8::from(*found));
                out.push(u8::from(*done));
                push_u64(out, *next_interval);
            }
            Self::Busy { message } => push_str(out, message),
        }
    }

    fn decode(frame_type: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut cur = Cursor::new(payload);
        let frame = match frame_type {
            TYPE_HELLO => {
                if cur.take(4)? != WIRE_MAGIC {
                    return Err(WireError::BadMagic);
                }
                let version = cur.u16()?;
                if version != WIRE_VERSION {
                    return Err(WireError::BadVersion { got: version });
                }
                Self::Hello { version }
            }
            TYPE_ADMIT => Self::Admit(decode_admit(&mut cur)?),
            TYPE_BATCH2 => {
                let tenant = cur.u32()?;
                let count = cur.u32()? as usize;
                let mut intervals = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    intervals.push(decode_interval_v2(&mut cur)?);
                }
                Self::Batch { tenant, intervals }
            }
            TYPE_FINISH => Self::Finish { tenant: cur.u32()? },
            TYPE_SNAPSHOT => {
                let tenant = cur.u32()?;
                let name = cur.string()?;
                let workload = cur.string()?;
                let max_intervals = cur.u64()?;
                let len = cur.u32()? as usize;
                let snapshot = cur.take(len)?.to_vec();
                // Validate the embedded RGSN blob eagerly: a corrupt
                // snapshot must fail at the wire, not at admit time.
                crate::snapshot::decode_snapshot(&snapshot)?;
                Self::Snapshot(Box::new(SnapshotFrame {
                    tenant,
                    name,
                    workload,
                    max_intervals,
                    snapshot,
                }))
            }
            TYPE_CHECKPOINT => Self::Checkpoint { tenant: cur.u32()? },
            TYPE_RESUME => Self::Resume(decode_admit(&mut cur)?),
            TYPE_RESUME_ACK => Self::ResumeAck {
                tenant: cur.u32()?,
                found: cur.flag("resume-ack found flag")?,
                done: cur.flag("resume-ack done flag")?,
                next_interval: cur.u64()?,
            },
            TYPE_BUSY => Self::Busy {
                message: cur.string()?,
            },
            other => return Err(WireError::UnknownFrameType(other)),
        };
        cur.finish()?;
        Ok(frame)
    }

    /// Serializes the frame into its full wire representation
    /// (header + checksum + body): `Batch` travels as `Batch2`. This is
    /// the only encoder; every journal, WAL record and reply frame holds
    /// its output.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = vec![self.type_byte()];
        self.encode_payload(&mut body);
        seal_frame(body)
    }
}

/// Wraps a complete frame body (type byte + payload) in the length +
/// checksum envelope.
fn seal_frame(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    push_u32(&mut out, body.len() as u32);
    push_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// A stand-in for the retired encoder selector, kept only until the
/// benchmark harness calls [`Frame::encode`] directly.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireDialect;

impl WireDialect {
    /// The plain wire-v2 encoder.
    ///
    /// # Panics
    ///
    /// When `compress` is set: compressed frames are no longer written.
    #[must_use]
    pub fn v2(compress: bool) -> Self {
        assert!(!compress, "compressed frames are no longer written");
        Self
    }

    /// [`Frame::encode`].
    #[must_use]
    pub fn encode_frame(&self, frame: &Frame) -> Vec<u8> {
        frame.encode()
    }
}

/// [`Frame::encode`] as builds before delta-of-delta wrote it: every
/// batch column in the delta layout. The reference encoder for the
/// tests that read journals and WALs those builds left behind.
#[cfg(test)]
pub(crate) fn encode_frame_delta_columns(frame: &Frame) -> Vec<u8> {
    let Frame::Batch { tenant, intervals } = frame else {
        return frame.encode();
    };
    let mut body = vec![TYPE_BATCH2];
    push_u32(&mut body, *tenant);
    push_u32(&mut body, intervals.len() as u32);
    for interval in intervals {
        encode_interval_v2(interval, &mut body, encode_delta_column);
    }
    seal_frame(body)
}

/// Writes one frame to a transport.
///
/// # Errors
///
/// Propagates transport write failures.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())
}

/// Reads one frame from a transport. Returns `Ok(None)` on a clean
/// end-of-stream (EOF exactly on a frame boundary); EOF anywhere inside
/// a frame is [`WireError::Truncated`].
///
/// # Errors
///
/// Any [`WireError`]: truncation, checksum mismatch, unknown type,
/// malformed payload or transport failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut reader = FrameReader::new(r);
    reader.next_frame()
}

/// The frame check [`FrameReader`] and [`FrameParser`] share, in wire
/// order: the length cap, the zero-length rejection, the CRC and the
/// payload decode. `rest(len)` supplies the `4 + len` bytes after the
/// length word (checksum, then body), or `None` while they have not
/// all arrived.
fn check_frame<B: AsRef<[u8]>>(
    len_word: [u8; 4],
    rest: impl FnOnce(usize) -> Result<Option<B>, WireError>,
) -> Result<Option<Frame>, WireError> {
    let len = u32::from_le_bytes(len_word);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    if len == 0 {
        return Err(WireError::ZeroLengthFrame);
    }
    let Some(rest) = rest(len as usize)? else {
        return Ok(None);
    };
    let (crc, body) = rest.as_ref().split_at(4);
    let want = u32::from_le_bytes(crc.try_into().expect("four bytes"));
    let got = crc32(body);
    if got != want {
        return Err(WireError::BadCrc {
            of: Checksummed::Frame,
            want,
            got,
        });
    }
    Frame::decode(body[0], &body[1..]).map(Some)
}

/// A frame decoder over a byte stream that also tracks how many wire
/// bytes it has consumed (for ingestion telemetry) and which frame it
/// is in (for truncation reports).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    bytes_read: u64,
    frames_read: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a transport.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            bytes_read: 0,
            frames_read: 0,
        }
    }

    /// Total wire bytes consumed so far (headers included).
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Frames fully decoded so far.
    #[must_use]
    pub fn frames_read(&self) -> u64 {
        self.frames_read
    }

    /// The [`WireError::Truncated`] naming the frame currently being
    /// read: it starts at `start` and is frame number `frames_read`.
    fn truncated_at(&self, start: u64) -> WireError {
        WireError::Truncated {
            offset: start,
            frame: self.frames_read,
        }
    }

    /// Reads the next frame; `Ok(None)` on clean end-of-stream.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; see [`read_frame`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let start = self.bytes_read;
        let mut len_word = [0u8; 4];
        match read_exact_or_eof(&mut self.inner, &mut len_word)? {
            ReadOutcome::CleanEof => return Ok(None),
            ReadOutcome::Partial => return Err(self.truncated_at(start)),
            ReadOutcome::Full => {}
        }
        self.bytes_read += 4;
        let checked = check_frame(len_word, |len| {
            let mut rest = vec![0u8; 4 + len];
            match read_exact_or_eof(&mut self.inner, &mut rest)? {
                ReadOutcome::Full => self.bytes_read += rest.len() as u64,
                ReadOutcome::Partial | ReadOutcome::CleanEof => {
                    return Err(self.truncated_at(start))
                }
            }
            Ok(Some(rest))
        })?;
        let frame = checked.expect("a blocking read supplies the whole frame");
        self.frames_read += 1;
        Ok(Some(frame))
    }
}

/// An incremental (push-fed) frame parser for nonblocking transports:
/// the event loop feeds whatever bytes `read(2)` produced and drains
/// the complete frames, with the same validation and accounting as
/// [`FrameReader`].
#[derive(Debug, Default)]
pub struct FrameParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames (compacted
    /// away lazily so feeding is amortized O(1)).
    pos: usize,
    /// Stream offset of `buf[pos]`.
    offset: u64,
    frames_read: u64,
}

impl FrameParser {
    /// An empty parser.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends transport bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Frames fully decoded so far.
    #[must_use]
    pub fn frames_read(&self) -> u64 {
        self.frames_read
    }

    /// Decodes the next complete frame out of the buffer; `Ok(None)`
    /// means more bytes are needed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] except `Truncated` (only [`FrameParser::finish_eof`]
    /// can know the stream ended).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_record()?.map(|(frame, _)| frame))
    }

    /// [`FrameParser::next_frame`], plus the frame's bytes as they
    /// arrived: the whole envelope, the span its CRC just checked.
    ///
    /// # Errors
    ///
    /// As [`FrameParser::next_frame`].
    pub fn next_record(&mut self) -> Result<Option<(Frame, &[u8])>, WireError> {
        let start = self.pos;
        let avail = &self.buf[start..];
        let Some(len_word) = avail.get(..4) else {
            return Ok(None);
        };
        let mut total = 0;
        let checked = check_frame(len_word.try_into().expect("four bytes"), |len| {
            total = 8 + len;
            Ok(avail.get(4..total))
        })?;
        let Some(frame) = checked else {
            return Ok(None);
        };
        self.pos += total;
        self.offset += total as u64;
        self.frames_read += 1;
        Ok(Some((frame, &self.buf[start..self.pos])))
    }

    /// Declares end-of-stream: any buffered partial frame is a
    /// positioned truncation.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] naming the frame the stream died inside.
    pub fn finish_eof(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Truncated {
                offset: self.offset,
                frame: self.frames_read,
            })
        }
    }
}

enum ReadOutcome {
    Full,
    Partial,
    CleanEof,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmon_binary::Addr;
    use regmon_sampling::PcSample;
    use regmon_stats::simd::SimdLevel;

    fn sample_config() -> SessionConfig {
        let mut config = SessionConfig::new(45_000);
        config.sampling = SamplingConfig::with_buffer(45_000, 512).with_skid(7);
        config.index = IndexKind::FlatSorted;
        config.lpd.threshold = ThresholdPolicy::Adaptive {
            base: 0.8,
            reference_slots: 64,
            slope: 0.05,
            floor: 0.6,
        };
        config.lpd.similarity = SimilarityKind::Rank;
        config.pruning = Some(PruningConfig {
            cold_intervals: 9,
            min_samples: 3,
        });
        config
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::hello(),
            Frame::Admit(Box::new(AdmitFrame {
                tenant: 3,
                name: "mgrid#3".into(),
                workload: "172.mgrid".into(),
                config: sample_config(),
                max_intervals: 40,
            })),
            Frame::Batch {
                tenant: 3,
                intervals: vec![Interval {
                    index: 0,
                    start_cycle: 0,
                    end_cycle: 45_000 * 3,
                    samples: vec![
                        PcSample {
                            addr: Addr::new(0x4000_1000),
                            cycle: 45_000,
                        },
                        PcSample {
                            addr: Addr::new(0x4000_1008),
                            cycle: 90_000,
                        },
                    ],
                }],
            },
            Frame::Finish { tenant: 3 },
        ]
    }

    #[test]
    fn frames_roundtrip() {
        let mut stream = Vec::new();
        let frames = sample_frames();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut reader = FrameReader::new(stream.as_slice());
        for frame in &frames {
            assert_eq!(reader.next_frame().unwrap().unwrap(), *frame);
        }
        assert!(reader.next_frame().unwrap().is_none());
        assert_eq!(reader.bytes_read(), stream.len() as u64);
    }

    #[test]
    fn config_codec_is_bit_exact() {
        let config = sample_config();
        let mut bytes = Vec::new();
        encode_config(&config, &mut bytes);
        let mut cur = Cursor::new(&bytes);
        let decoded = decode_config(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(decoded, config);
        // The trailing reserved slot is written as 0 and any value an
        // older writer left there is ignored.
        let slot = bytes.len() - 8;
        assert_eq!(bytes[slot..], [0; 8]);
        bytes[slot] = 4;
        let mut cur = Cursor::new(&bytes);
        assert_eq!(decode_config(&mut cur).unwrap(), config);
    }

    #[test]
    fn corrupt_byte_is_bad_crc() {
        for frame in sample_frames() {
            let mut bytes = frame.encode();
            // Flip a bit inside the body (past the 8-byte header).
            let idx = bytes.len() - 1;
            bytes[idx] ^= 0x01;
            let err = read_frame(&mut bytes.as_slice()).unwrap_err();
            assert!(matches!(err, WireError::BadCrc { .. }), "{err}");
        }
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let bytes = Frame::hello().encode();
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated {
                        offset: 0,
                        frame: 0
                    }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn truncation_reports_the_offset_and_index_of_the_torn_frame() {
        // Two whole frames, then a torn third: the error must name
        // frame 2 and the byte offset where it starts.
        let frames = sample_frames();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frames[0].encode());
        bytes.extend_from_slice(&frames[1].encode());
        let boundary = bytes.len() as u64;
        let torn = frames[2].encode();
        for cut in 1..torn.len() {
            let mut stream = bytes.clone();
            stream.extend_from_slice(&torn[..cut]);
            let mut reader = FrameReader::new(stream.as_slice());
            assert!(reader.next_frame().unwrap().is_some());
            assert!(reader.next_frame().unwrap().is_some());
            let err = reader.next_frame().unwrap_err();
            match err {
                WireError::Truncated { offset, frame } => {
                    assert_eq!(offset, boundary, "cut {cut}");
                    assert_eq!(frame, 2, "cut {cut}");
                }
                other => panic!("cut {cut}: expected Truncated, got {other}"),
            }
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let bytes = Frame::Hello {
            version: WIRE_VERSION + 1,
        }
        .encode();
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::BadVersion { got } if got == WIRE_VERSION + 1));
    }

    #[test]
    fn foreign_magic_rejected() {
        let mut body = vec![TYPE_HELLO];
        body.extend_from_slice(b"NOPE");
        body.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        let bytes = seal_frame(body);
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::BadMagic));
    }

    #[test]
    fn unknown_frame_type_rejected() {
        let body = vec![99u8, 1, 2, 3];
        let bytes = seal_frame(body);
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::UnknownFrameType(99)));
    }

    #[test]
    fn retired_frame_types_are_rejected_by_name() {
        // A v1 raw-sample batch (type 3) and an LZSS-compressed frame
        // (type 6) behind a v2 Hello: both stop the stream, and the
        // error says which retired format it met.
        for (frame_type, names) in [(3u8, "wire v1"), (6, "LZSS-compressed")] {
            let mut body = vec![frame_type];
            push_u32(&mut body, 0);
            push_u32(&mut body, 0);
            let mut stream = Frame::hello().encode();
            stream.extend_from_slice(&seal_frame(body));
            let mut reader = FrameReader::new(stream.as_slice());
            assert_eq!(reader.next_frame().unwrap(), Some(Frame::hello()));
            let err = reader.next_frame().unwrap_err();
            assert!(
                matches!(err, WireError::UnknownFrameType(t) if t == frame_type),
                "{err}"
            );
            assert!(err.to_string().contains(names), "{err}");
        }
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut bytes = Vec::new();
        push_u32(&mut bytes, MAX_FRAME_LEN + 1);
        push_u32(&mut bytes, 0);
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge(_)));
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        let mut body = vec![TYPE_FINISH];
        push_u32(&mut body, 7);
        body.push(0xAB); // one byte too many
        let bytes = seal_frame(body);
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }

    #[test]
    fn batch_sample_count_is_bounds_checked() {
        // A Batch frame claiming 1M samples in a tiny payload must be
        // rejected without a huge allocation.
        let mut body = vec![TYPE_BATCH2];
        push_u32(&mut body, 0); // tenant
        push_u32(&mut body, 1); // one interval
        push_u64(&mut body, 0); // index
        push_u64(&mut body, 0); // start
        push_u64(&mut body, 1); // end
        push_u32(&mut body, 1_000_000); // claimed samples
        let bytes = seal_frame(body);
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }

    // ------------------------------------------------- wire-v2 tests

    /// A batch whose columns exercise every delta width: tight local
    /// strides (1), page-sized hops (2), far jumps (4) and wrap-around
    /// chaos (8).
    fn stress_batch(n: usize) -> Frame {
        let samples: Vec<PcSample> = (0..n as u64)
            .map(|i| PcSample {
                addr: match i % 4 {
                    0 => Addr::new(0x4000_0000 + i * 4),
                    1 => Addr::new(0x4000_0000 + i * 0x1000),
                    2 => Addr::new(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    _ => Addr::new(u64::MAX - i),
                },
                cycle: i.wrapping_mul(45_000) ^ (i << 56),
            })
            .collect();
        Frame::Batch {
            tenant: 7,
            intervals: vec![Interval {
                index: 3,
                start_cycle: 1,
                end_cycle: u64::MAX - 2,
                samples,
            }],
        }
    }

    #[test]
    fn batch2_roundtrips_bit_identically_for_every_remainder_shape() {
        // Every sample count 0..=64 must survive the round trip exactly:
        // the delta-columnar v2 batch (including the width-8 raw and
        // delta-of-delta columns) and the delta-only v2 batch older
        // builds wrote.
        for n in 0..=64usize {
            for frame in [stress_batch(n), sampler_batch(n)] {
                let encodings = [frame.encode(), encode_frame_delta_columns(&frame)];
                for (i, bytes) in encodings.iter().enumerate() {
                    let decoded = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
                    assert_eq!(decoded, frame, "n {n} encoding {i}");
                }
            }
        }
    }

    #[test]
    fn batch2_roundtrip_is_identical_at_every_simd_level() {
        let frame = stress_batch(64);
        let bytes = frame.encode();
        let before = regmon_stats::simd::active();
        for level in SimdLevel::ALL {
            if regmon_stats::simd::force(level) != level {
                continue;
            }
            let decoded = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
            assert_eq!(decoded, frame, "{}", level.label());
        }
        regmon_stats::simd::force(before);
    }

    /// Deterministic per-index noise in `0..2^24`.
    fn jitter(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40
    }

    /// A column shaped like the sampler's cycle stream: sample `i`
    /// fires at `base + i * period` plus up to `skid` cycles of skid.
    fn cycle_column(n: usize, base: u64, period: u64, skid: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| {
                base.wrapping_add(i.wrapping_mul(period))
                    .wrapping_add(jitter(i) % (skid + 1))
            })
            .collect()
    }

    /// A batch as the sampler emits it: local PCs, and cycles one
    /// interrupt period apart plus up to 20 cycles of skid.
    fn sampler_batch(n: usize) -> Frame {
        let cycles = cycle_column(n, 45_000, 45_000, 20);
        let samples = cycles
            .iter()
            .enumerate()
            .map(|(i, &cycle)| PcSample {
                addr: Addr::new(0x4000_0000 + (jitter(i as u64) % 64) * 4),
                cycle,
            })
            .collect();
        Frame::Batch {
            tenant: 2,
            intervals: vec![Interval {
                index: 5,
                start_cycle: 0,
                end_cycle: 45_000 * (n as u64 + 1),
                samples,
            }],
        }
    }

    /// Encodes `values` as one column, checks it decodes back exactly
    /// and consumes every byte, and returns its column code.
    fn roundtrip_column(values: &[u64]) -> u8 {
        let mut out = Vec::new();
        encode_column(values, &mut out);
        let mut cur = Cursor::new(&out);
        assert_eq!(decode_column(&mut cur, values.len()).unwrap(), values);
        cur.finish().unwrap();
        out.first().copied().unwrap_or(0)
    }

    #[test]
    fn every_column_width_is_chosen_and_roundtrips() {
        // Delta layout: a constant stride of 4 → width 1 (a 1-byte
        // delta is never beaten); strides of 300 and 100k jittered by
        // up to one stride, so their second differences are as wide as
        // their deltas → widths 2 and 4; pseudorandom → 8.
        for (stride, noise, want) in [(4u64, 1u64, 1u8), (300, 300, 2), (100_000, 100_000, 4)] {
            let values: Vec<u64> = (0..50)
                .map(|i| 0x4000_0000 + i * stride + jitter(i) % noise)
                .collect();
            assert_eq!(roundtrip_column(&values), want, "stride {stride}");
        }
        let values: Vec<u64> = (0..50u64)
            .map(|i| {
                let z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
            })
            .collect();
        assert_eq!(roundtrip_column(&values), 8);
        // Delta-of-delta: constant strides of 300 and 100k, a sampled
        // cycle column, one with 1000 cycles of skid, and a stride past
        // 32 bits with 2^20 of noise.
        let stride =
            |stride: u64| -> Vec<u64> { (0..50).map(|i| 0x4000_0000 + i * stride).collect() };
        for (values, want) in [
            (stride(300), 1),
            (stride(100_000), 1),
            (cycle_column(50, 45_000, 45_000, 20), 1),
            (cycle_column(50, 45_000, 45_000, 1000), 2),
            (cycle_column(50, 0, 1 << 40, 1 << 20), 4),
        ] {
            assert_eq!(roundtrip_column(&values), COLUMN_DOD | want, "{values:?}");
        }
    }

    #[test]
    fn cycle_columns_roundtrip_at_every_length() {
        // `i64::MIN` second differences: deltas alternating 0 and 2^63.
        let extreme =
            |n: usize| -> Vec<u64> { (0..n as u64).map(|i| ((i / 2) % 2) << 63).collect() };
        for n in 0..=64usize {
            let sampled = cycle_column(n, 45_000, 45_000, 20);
            let code = roundtrip_column(&sampled);
            // Delta-of-delta pays its 8-byte first delta back from the
            // fourth sample on (8 + (n-2) < 4 (n-1)).
            if n >= 4 {
                assert_eq!(code, COLUMN_DOD | 1, "n {n}");
            } else {
                assert_eq!(code & COLUMN_DOD, 0, "n {n}");
            }
            let wrapping = cycle_column(n, u64::MAX - 3 * 45_000, 45_000, 20);
            assert_eq!(roundtrip_column(&wrapping), code, "n {n}");
            roundtrip_column(&cycle_column(n, 0, 45_000, 0));
            roundtrip_column(&extreme(n));
            // A first delta of 2^63, then a constant stride: the raw
            // first delta carries what no zigzag fold could.
            let far: Vec<u64> = (0..n as u64).map(|i| i << 63).collect();
            roundtrip_column(&far);
        }
        // The encoder never picks delta-of-delta below four values, but
        // the decoder reads it from two on: 7, 12 (+5), 20 (+8 = +5+3).
        let mut column = vec![COLUMN_DOD | 1];
        column.extend_from_slice(&7u64.to_le_bytes());
        column.extend_from_slice(&5u64.to_le_bytes());
        let two = decode_column(&mut Cursor::new(&column), 2).unwrap();
        assert_eq!(two, [7, 12]);
        column.push(zigzag(3) as u8);
        let three = decode_column(&mut Cursor::new(&column), 3).unwrap();
        assert_eq!(three, [7, 12, 20]);
    }

    #[test]
    fn malformed_delta_of_delta_columns_are_rejected() {
        let values = cycle_column(10, 45_000, 45_000, 20);
        let mut column = Vec::new();
        encode_column(&values, &mut column);
        assert_eq!(column[0], COLUMN_DOD | 1);
        let decode = |bytes: &[u8], n| decode_column(&mut Cursor::new(bytes), n);
        // Every cut, and every count past what the entries can hold.
        for cut in 0..column.len() {
            assert!(decode(&column[..cut], values.len()).is_err(), "cut {cut}");
        }
        for n in values.len() + 1..values.len() + 9 {
            let err = decode(&column, n).unwrap_err();
            assert!(matches!(err, WireError::Malformed(_)), "n {n}: {err}");
        }
        // Widths delta-of-delta does not define, and one value (no
        // second value for the first delta to reach).
        for code in [COLUMN_DOD, COLUMN_DOD | 3, COLUMN_DOD | 8, 0x20 | 1] {
            let mut bad = column.clone();
            bad[0] = code;
            let err = decode(&bad, values.len()).unwrap_err();
            assert!(
                err.to_string().contains("bad column width"),
                "{code:#x}: {err}"
            );
        }
        let err = decode(&column, 1).unwrap_err();
        assert!(err.to_string().contains("of one value"), "{err}");
    }

    #[test]
    fn columns_wrap_around_u64_space_exactly() {
        let values = vec![u64::MAX - 1, u64::MAX, 0, 1, u64::MAX, 3];
        let mut out = Vec::new();
        encode_column(&values, &mut out);
        let mut cur = Cursor::new(&out);
        assert_eq!(decode_column(&mut cur, values.len()).unwrap(), values);
        cur.finish().unwrap();
    }

    #[test]
    fn zigzag_is_a_bijection_at_the_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn v2_batches_are_much_smaller_on_local_streams() {
        // The bench-shaped payload (constant strides) must shrink to
        // under a quarter of the 16 bytes per sample raw `[addr][cycle]`
        // pairs spend; v2 spends about 2.
        let samples: Vec<PcSample> = (0..2048u64)
            .map(|i| PcSample {
                addr: Addr::new(0x4000_0000 + i * 4),
                cycle: 45_000 + i,
            })
            .collect();
        let frame = Frame::Batch {
            tenant: 0,
            intervals: vec![Interval {
                index: 0,
                start_cycle: 0,
                end_cycle: 90_000,
                samples,
            }],
        };
        let v2 = frame.encode();
        assert!(v2.len() * 4 < 2048 * 16, "v2 {}", v2.len());
    }

    #[test]
    fn hello_accepts_v2_and_rejects_v1() {
        let bytes = Frame::hello().encode();
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(frame, Frame::Hello { version: 2 });
        let bytes = Frame::Hello { version: 1 }.encode();
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::BadVersion { got: 1 }), "{err}");
        assert_eq!(
            err.to_string(),
            "wire v1 is no longer read (this build reads wire v2)"
        );
    }

    #[test]
    fn checkpoint_frame_roundtrips() {
        let frame = Frame::Checkpoint { tenant: 42 };
        let bytes = frame.encode();
        assert_eq!(read_frame(&mut bytes.as_slice()).unwrap().unwrap(), frame);
    }

    #[test]
    fn frame_parser_matches_frame_reader_at_every_chunk_size() {
        let mut stream = Vec::new();
        for frame in sample_frames() {
            stream.extend_from_slice(&frame.encode());
        }
        let mut reader = FrameReader::new(stream.as_slice());
        let mut want = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            want.push(frame);
        }
        for chunk in [1usize, 3, 7, 64, stream.len()] {
            let mut parser = FrameParser::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                parser.feed(piece);
                while let Some(frame) = parser.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            parser.finish_eof().unwrap();
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn frame_parser_reports_truncation_position_at_eof() {
        let whole = Frame::hello().encode();
        let torn = sample_frames()[1].encode();
        let mut parser = FrameParser::new();
        parser.feed(&whole);
        parser.feed(&torn[..torn.len() - 1]);
        assert!(parser.next_frame().unwrap().is_some());
        assert!(parser.next_frame().unwrap().is_none());
        let err = parser.finish_eof().unwrap_err();
        match err {
            WireError::Truncated { offset, frame } => {
                assert_eq!(offset, whole.len() as u64);
                assert_eq!(frame, 1);
            }
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn snapshot_frame_roundtrips_and_rejects_corrupt_blobs() {
        let session = regmon::MonitoringSession::new(sample_config());
        let blob = crate::snapshot::encode_snapshot(&session.snapshot());
        let frame = Frame::Snapshot(Box::new(SnapshotFrame {
            tenant: 5,
            name: "mcf#5".into(),
            workload: "181.mcf".into(),
            max_intervals: 64,
            snapshot: blob.clone(),
        }));
        let bytes = frame.encode();
        assert_eq!(read_frame(&mut bytes.as_slice()).unwrap().unwrap(), frame);

        let mut corrupt = blob;
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let bad = Frame::Snapshot(Box::new(SnapshotFrame {
            tenant: 5,
            name: "mcf#5".into(),
            workload: "181.mcf".into(),
            max_intervals: 64,
            snapshot: corrupt,
        }))
        .encode();
        assert!(read_frame(&mut bad.as_slice()).is_err());
    }

    // ------------------------------------------ decoder property test

    use proptest::TestRng;

    /// Uniform in `0..n` (0 when `n` is 0).
    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.gen_u64(0, n.max(1) as u64) as usize
    }

    /// Every frame a decoder yields from a stream, then how it stopped:
    /// `None` at a clean end, else the error's text (its kind, plus the
    /// frame position for truncations).
    type Decoded = (Vec<Frame>, Option<String>);

    fn read_all(bytes: &[u8]) -> Decoded {
        let mut reader = FrameReader::new(bytes);
        let mut frames = Vec::new();
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                end => return (frames, end.err().map(|e| e.to_string())),
            }
        }
    }

    /// Feeds `bytes` to a [`FrameParser`] in random chunks of 1–64 bytes.
    fn parse_all(bytes: &[u8], rng: &mut TestRng) -> Decoded {
        let mut parser = FrameParser::new();
        let mut frames = Vec::new();
        for chunk in bytes.chunks(1 + below(rng, 64)) {
            parser.feed(chunk);
            loop {
                match parser.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break,
                    Err(e) => return (frames, Some(e.to_string())),
                }
            }
        }
        (frames, parser.finish_eof().err().map(|e| e.to_string()))
    }

    fn random_bytes(rng: &mut TestRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    /// Arbitrary bytes, or a byte-mutated copy of a valid stream.
    fn fuzz_stream(rng: &mut TestRng) -> Vec<u8> {
        let mut frames = sample_frames();
        frames.insert(3, stress_batch(below(rng, 24)));
        frames.insert(4, sampler_batch(below(rng, 24)));
        frames.push(Frame::Checkpoint { tenant: 3 });
        let mut bodies: Vec<Vec<u8>> = frames
            .iter()
            .map(|frame| frame.encode()[8..].to_vec())
            .collect();
        match below(rng, 4) {
            0 => {
                let n = below(rng, 96);
                return random_bytes(rng, n);
            }
            // Arbitrary payloads behind valid envelopes, so every frame
            // type's payload decoder (and unassigned type 12) sees them.
            1 => {
                bodies = (0..1 + below(rng, 3))
                    .map(|_| {
                        let n = 1 + below(rng, 64);
                        let mut body = random_bytes(rng, n);
                        body[0] = 1 + below(rng, 12) as u8;
                        body
                    })
                    .collect();
            }
            // Bodies overwritten, cut short or grown behind a valid
            // checksum, so the payload decoders see the damage.
            2 => {
                for _ in 0..1 + below(rng, 3) {
                    let f = below(rng, bodies.len());
                    let at = below(rng, bodies[f].len());
                    match below(rng, 3) {
                        0 => bodies[f][at] = rng.next_u64() as u8,
                        1 => bodies[f].truncate(at + 1),
                        _ => bodies[f].insert(at, rng.next_u64() as u8),
                    }
                }
            }
            _ => {}
        }
        let mut bytes: Vec<u8> = bodies.into_iter().flat_map(seal_frame).collect();
        if rng.gen_u64(0, 3) == 0 {
            // Bit flips and a cut anywhere: length, checksum and
            // truncation damage.
            for _ in 0..1 + below(rng, 4) {
                let at = below(rng, bytes.len());
                bytes[at] ^= 1 << below(rng, 8);
            }
            bytes.truncate(below(rng, 2 * bytes.len()));
        }
        bytes
    }

    #[test]
    fn frame_parser_and_reader_agree_on_arbitrary_and_mutated_streams() {
        let mut endings = std::collections::BTreeSet::new();
        for case in 0..4000 {
            // Case `case` replays from `TestRng::for_case` alone.
            let mut rng = TestRng::for_case("wire::decoder_fuzz", case);
            let bytes = fuzz_stream(&mut rng);
            let (read, parsed) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (read_all(&bytes), parse_all(&bytes, &mut rng))
            }))
            .unwrap_or_else(|_| panic!("case {case}: a decoder panicked on {bytes:02x?}"));
            assert_eq!(
                read, parsed,
                "case {case}: decoders disagree on {bytes:02x?}"
            );
            endings.insert(read.1.unwrap_or_default());
        }
        // The cases reach past the envelope into the payload decoders.
        for want in [
            "wire stream",
            "frame checksum",
            "malformed",
            "unknown frame",
            "bad magic",
        ] {
            assert!(
                endings.iter().any(|e| e.starts_with(want)),
                "no {want:?} ending"
            );
        }
        assert!(endings.contains(""), "no stream ended cleanly");
    }
}
