//! Frame batching: the sender-side accumulator and the wire codec.
//!
//! Batching amortises per-message costs — one channel operation, one wake-up,
//! one (modelled) NIC doorbell per *frame* instead of per message. Two pieces
//! live here:
//!
//! * [`FrameBatcher`] — a per-destination accumulation buffer with a size
//!   trigger (`batch_size`), used by the switch reply path and available to
//!   any fabric client. It never sends by itself; it hands full frames back
//!   to the caller, which routes them through
//!   [`crate::Fabric::send_frame_no_latency`], and the caller flushes the
//!   partial ones when it runs out of work.
//! * [`encode_frame`] / [`decode_frame_prefix`] — the versioned, checksummed
//!   byte encoding a frame would have on a real wire. The simulator fabric
//!   passes typed messages and does not need it to function, but the codec
//!   pins down the contract a torn frame must obey: like the WAL's torn-record
//!   rule, a frame truncated at *any* byte boundary decodes to exactly its
//!   intact envelope prefix and a structured error — never to a corrupted
//!   extra envelope. The property tests sweep every split point.

use crate::endpoint::EndpointId;
use crate::message::Envelope;
use p4db_common::hash::FastMap;
use p4db_common::{NodeId, SwitchId, WorkerId};
use std::fmt;

// ---------------------------------------------------------------------------
// FrameBatcher
// ---------------------------------------------------------------------------

/// Accumulates payloads per destination and releases them as frames of up to
/// `batch_size`; [`FrameBatcher::flush_all`] takes the partial ones.
/// `batch_size <= 1` degenerates to pass-through: every push immediately
/// returns a one-payload frame, reproducing unbatched behaviour exactly.
#[derive(Debug)]
pub struct FrameBatcher<M> {
    batch_size: usize,
    buffers: FastMap<EndpointId, Vec<M>>,
}

impl<M> FrameBatcher<M> {
    pub fn new(batch_size: usize) -> Self {
        FrameBatcher { batch_size: batch_size.max(1), buffers: FastMap::default() }
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Buffers one payload for `dst`. Returns a full frame (ready to send)
    /// when the destination's buffer reaches the batch size.
    pub fn push(&mut self, dst: EndpointId, payload: M) -> Option<(EndpointId, Vec<M>)> {
        if self.batch_size <= 1 {
            return Some((dst, vec![payload]));
        }
        let buffer = self.buffers.entry(dst).or_default();
        buffer.push(payload);
        if buffer.len() >= self.batch_size {
            return Some((dst, std::mem::take(buffer)));
        }
        None
    }

    /// Takes every partially filled frame, emptying the batcher.
    pub fn flush_all(&mut self) -> Vec<(EndpointId, Vec<M>)> {
        let mut frames: Vec<(EndpointId, Vec<M>)> =
            self.buffers.drain().filter(|(_, frame)| !frame.is_empty()).collect();
        // Deterministic flush order keeps batched runs reproducible per seed.
        frames.sort_by_key(|(dst, _)| endpoint_key(*dst));
        frames
    }
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// First bytes of every encoded frame: magic + format version.
const FRAME_MAGIC: &[u8; 5] = b"P4FB\x01";

/// A parse failure while decoding a frame, pointing at the byte offset where
/// decoding stopped. Torn trailing envelopes — a frame cut mid-flight —
/// surface here as a regular error, with every intact envelope before the
/// tear already decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameCodecError {
    pub offset: usize,
    pub message: String,
}

impl FrameCodecError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        FrameCodecError { offset, message: message.into() }
    }
}

impl fmt::Display for FrameCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for FrameCodecError {}

/// FNV-1a 64-bit over a byte slice — the same per-record checksum the WAL
/// uses, here guarding each envelope of a frame against torn or bit-flipped
/// tails that would otherwise decode as a shorter but well-formed envelope.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn endpoint_key(ep: EndpointId) -> (u8, u16, u16) {
    match ep {
        EndpointId::Node(n) => (0, n.0, 0),
        EndpointId::Worker(n, w) => (1, n.0, w.0),
        EndpointId::Switch(s) => (2, s.0, 0),
        EndpointId::Control(c) => (3, c as u16, (c >> 16) as u16),
    }
}

fn encode_endpoint(out: &mut Vec<u8>, ep: EndpointId) {
    let (tag, a, b) = endpoint_key(ep);
    out.push(tag);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
}

fn decode_endpoint(bytes: &[u8], at: usize) -> Result<EndpointId, FrameCodecError> {
    let tag = bytes[at];
    let a = u16::from_le_bytes([bytes[at + 1], bytes[at + 2]]);
    let b = u16::from_le_bytes([bytes[at + 3], bytes[at + 4]]);
    match tag {
        0 => Ok(EndpointId::Node(NodeId(a))),
        1 => Ok(EndpointId::Worker(NodeId(a), WorkerId(b))),
        2 => Ok(EndpointId::Switch(SwitchId(a))),
        3 => Ok(EndpointId::Control(a as u32 | (b as u32) << 16)),
        other => Err(FrameCodecError::new(at, format!("unknown endpoint tag {other}"))),
    }
}

/// Bytes occupied by an encoded endpoint (tag + two u16s).
const ENDPOINT_BYTES: usize = 5;

/// Encodes a batch of byte-payload envelopes into the frame wire format:
/// a 5-byte header (`P4FB` + version) followed by one record per envelope —
/// src, dst, payload length (u32 LE), payload bytes, FNV-1a-64 checksum of
/// everything before it in the record (u64 LE).
pub fn encode_frame(envelopes: &[Envelope<Vec<u8>>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + envelopes.len() * 32);
    out.extend_from_slice(FRAME_MAGIC);
    for env in envelopes {
        let record_start = out.len();
        encode_endpoint(&mut out, env.src);
        encode_endpoint(&mut out, env.dst);
        out.extend_from_slice(&(env.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&env.payload);
        let crc = fnv1a(&out[record_start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }
    out
}

/// Decodes a (possibly truncated) frame, returning every envelope whose
/// record is fully intact before the first tear or corruption, plus the
/// error that terminated decoding, if any. The checksum is verified before
/// the record is accepted, so a tear that leaves a shorter-but-well-formed
/// record behind is still rejected.
pub fn decode_frame_prefix(bytes: &[u8]) -> (Vec<Envelope<Vec<u8>>>, Option<FrameCodecError>) {
    let mut envelopes = Vec::new();
    if bytes.is_empty() {
        return (envelopes, None);
    }
    if bytes.len() < FRAME_MAGIC.len() {
        return (envelopes, Some(FrameCodecError::new(0, "truncated frame header")));
    }
    if &bytes[..FRAME_MAGIC.len()] != FRAME_MAGIC {
        return (envelopes, Some(FrameCodecError::new(0, "bad frame magic or unsupported version")));
    }
    let mut at = FRAME_MAGIC.len();
    while at < bytes.len() {
        let record_start = at;
        // Fixed-size prefix: src + dst + payload length.
        let fixed = 2 * ENDPOINT_BYTES + 4;
        if bytes.len() - at < fixed {
            return (envelopes, Some(FrameCodecError::new(record_start, "torn record: truncated envelope header")));
        }
        let len_at = at + 2 * ENDPOINT_BYTES;
        let payload_len =
            u32::from_le_bytes([bytes[len_at], bytes[len_at + 1], bytes[len_at + 2], bytes[len_at + 3]]) as usize;
        let body_end = at + fixed + payload_len;
        let record_end = body_end + 8;
        if bytes.len() < record_end {
            return (envelopes, Some(FrameCodecError::new(record_start, "torn record: truncated payload or checksum")));
        }
        let stored = u64::from_le_bytes(bytes[body_end..record_end].try_into().expect("8 checksum bytes"));
        let actual = fnv1a(&bytes[record_start..body_end]);
        if stored != actual {
            return (
                envelopes,
                Some(FrameCodecError::new(
                    record_start,
                    format!(
                        "checksum mismatch (stored {stored:016x}, computed {actual:016x}) — torn or corrupt record"
                    ),
                )),
            );
        }
        let src = match decode_endpoint(bytes, at) {
            Ok(ep) => ep,
            Err(e) => return (envelopes, Some(e)),
        };
        let dst = match decode_endpoint(bytes, at + ENDPOINT_BYTES) {
            Ok(ep) => ep,
            Err(e) => return (envelopes, Some(e)),
        };
        envelopes.push(Envelope::new(src, dst, bytes[at + fixed..body_end].to_vec()));
        at = record_end;
    }
    (envelopes, None)
}

/// Like [`decode_frame_prefix`] but all-or-nothing.
pub fn decode_frame(bytes: &[u8]) -> Result<Vec<Envelope<Vec<u8>>>, FrameCodecError> {
    match decode_frame_prefix(bytes) {
        (envelopes, None) => Ok(envelopes),
        (_, Some(err)) => Err(err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(key: u8) -> Envelope<Vec<u8>> {
        Envelope::new(
            EndpointId::Worker(NodeId(key as u16), WorkerId(7)),
            EndpointId::Switch(SwitchId(key as u16 % 3)),
            vec![key, key.wrapping_add(1), 0xAB],
        )
    }

    #[test]
    fn frame_roundtrip_is_exact() {
        let frame = vec![
            env(1),
            env(2),
            Envelope::new(EndpointId::Switch(SwitchId(1)), EndpointId::Node(NodeId(3)), Vec::new()),
            Envelope::new(EndpointId::Control(0x0012_3456), EndpointId::Switch(SwitchId(0)), vec![1]),
        ];
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
        // Empty frames round-trip too.
        assert_eq!(decode_frame(&encode_frame(&[])).unwrap(), Vec::new());
        assert_eq!(decode_frame(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn torn_frame_recovers_the_intact_prefix() {
        let frame = vec![env(1), env(2), env(3)];
        let bytes = encode_frame(&frame);
        // Cut in the middle of the last record.
        let cut = bytes.len() - 4;
        let (prefix, err) = decode_frame_prefix(&bytes[..cut]);
        assert_eq!(prefix, frame[..2].to_vec());
        assert!(err.is_some());
    }

    #[test]
    fn flipped_payload_byte_is_detected() {
        let frame = vec![env(9)];
        let mut bytes = encode_frame(&frame);
        let flip_at = bytes.len() - 10; // inside the payload
        bytes[flip_at] ^= 0x40;
        let err = decode_frame(&bytes).unwrap_err();
        assert!(err.message.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = decode_frame(b"NOPE\x01").unwrap_err();
        assert!(err.message.contains("magic"), "{err}");
        let err = decode_frame(b"P4").unwrap_err();
        assert!(err.message.contains("truncated frame header"), "{err}");
    }

    #[test]
    fn batcher_passthrough_at_batch_size_one() {
        let mut b: FrameBatcher<u64> = FrameBatcher::new(1);
        let dst = EndpointId::Node(NodeId(0));
        assert_eq!(b.push(dst, 7), Some((dst, vec![7])));
        assert!(b.flush_all().is_empty());
    }

    #[test]
    fn batcher_releases_full_frames_and_flushes_partials() {
        let mut b: FrameBatcher<u64> = FrameBatcher::new(3);
        let a = EndpointId::Node(NodeId(0));
        let c = EndpointId::Node(NodeId(1));
        assert_eq!(b.push(a, 1), None);
        assert_eq!(b.push(c, 10), None);
        assert_eq!(b.push(a, 2), None);
        assert_eq!(b.push(a, 3), Some((a, vec![1, 2, 3])));
        assert_eq!(b.flush_all(), vec![(c, vec![10])], "c still had a partial frame");
        assert!(b.flush_all().is_empty());
    }
}
