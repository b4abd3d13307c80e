//! The binary, segmented on-disk codec of the write-ahead log.
//!
//! This is the representation of [`crate::wal::Wal`] itself — appends encode
//! into the active segment and the log keeps nothing but these bytes — and
//! the form every crash drill round-trips the log through. It reuses the
//! checksummed, truncation-safe wire idiom of `p4db_net::frame`: a 5-byte
//! versioned magic, then length-prefixed records each closed by an
//! FNV-1a-64 checksum over the record's own bytes, so a prefix of a segment
//! decodes to a prefix of its records and a torn final record is detected
//! rather than misparsed.
//!
//! ## Wire format
//!
//! ```text
//! segment   := magic base_lsn record*
//! magic     := "P4WS" 0x01                     (5 bytes)
//! base_lsn  := u64 LE        — LSN of the segment's first record
//! record    := len:u32 LE  body  crc:u64 LE    (crc over len+body bytes)
//! body      := tag:u8 fields…                  (all integers LE)
//! ```
//!
//! Record bodies: `1` ColdWrite (txn, table:u16, key, before, after — values
//! as width:u8 = 1 + u64), `2` SwitchIntent (txn, `n:u16` ops of table:u16,
//! key, opcode:u8, operand, from-flag:u8 + from:u8), `3` SwitchResult (txn,
//! gid, `n:u16` results of table:u16, key, value), `4` Commit (txn), `5`
//! Abort (txn).
//!
//! ## Torn tail vs. interior corruption
//!
//! The contract of [`crate::wal`], byte by byte: a record that fails **at
//! the physical end of the final segment** — a truncated length header, a
//! body or checksum cut short, or a checksum mismatch on a record ending
//! exactly at the buffer's last byte — is a legitimate torn tail;
//! [`decode_segments`] returns the intact prefix plus the tear as a note. A
//! checksum mismatch with bytes *remaining after* the record, or any failure
//! in a sealed (non-final) segment, is interior corruption — data loss that
//! must not be silently truncated away — and is a hard [`WalCodecError`]. A
//! record whose checksum holds but whose body does not decode is a hard
//! error wherever it sits. (One inherent limit of length-prefixed framing:
//! a corrupted length field that points past the end of the final segment is
//! indistinguishable from a tear and is treated as one; in every other
//! position the checksum, which covers the length bytes, catches it.)

use crate::wal::{LogRecord, LoggedSwitchOp, WalCodecError};
use p4db_common::{GlobalTxnId, TableId, TupleId, TxnId, Value};
use p4db_switch::OpCode;

/// Versioned magic opening every binary WAL segment.
pub const SEGMENT_MAGIC: &[u8; 5] = b"P4WS\x01";

/// Byte length of the segment header (magic + base LSN).
const HEADER_BYTES: usize = SEGMENT_MAGIC.len() + 8;

/// FNV-1a 64-bit over raw bytes, the per-record checksum. Not cryptographic
/// — it only needs to make it overwhelmingly unlikely that a torn or
/// bit-flipped record still carries a matching checksum.
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_tuple(out: &mut Vec<u8>, tuple: TupleId) {
    put_u16(out, tuple.table.0);
    put_u64(out, tuple.key);
}

/// A value's wire form: a width byte, always 1, then the word. The byte
/// keeps the established log and checkpoint format; `BodyReader::value`
/// rejects any other width.
pub(crate) fn put_value(out: &mut Vec<u8>, value: &Value) {
    out.push(1);
    put_u64(out, value.switch_word());
}

/// Stable wire code of an opcode.
fn opcode_code(op: OpCode) -> u8 {
    match op {
        OpCode::Read => 0,
        OpCode::Write => 1,
        OpCode::Add => 2,
        OpCode::FetchAdd => 3,
        OpCode::CondSub => 4,
        OpCode::WriteIfGreater => 5,
    }
}

fn opcode_from_code(code: u8) -> Option<OpCode> {
    Some(match code {
        0 => OpCode::Read,
        1 => OpCode::Write,
        2 => OpCode::Add,
        3 => OpCode::FetchAdd,
        4 => OpCode::CondSub,
        5 => OpCode::WriteIfGreater,
        _ => return None,
    })
}

fn encode_body(out: &mut Vec<u8>, record: &LogRecord) {
    match record {
        LogRecord::ColdWrite { txn, tuple, before, after } => {
            out.push(1);
            put_u64(out, txn.0);
            put_tuple(out, *tuple);
            put_value(out, before);
            put_value(out, after);
        }
        LogRecord::SwitchIntent { txn, ops } => {
            out.push(2);
            put_u64(out, txn.0);
            put_u16(out, ops.len() as u16);
            for op in ops {
                put_tuple(out, op.tuple);
                out.push(opcode_code(op.op));
                put_u64(out, op.operand);
                match op.operand_from {
                    Some(src) => out.extend_from_slice(&[1, src]),
                    None => out.extend_from_slice(&[0, 0]),
                }
            }
        }
        LogRecord::SwitchResult { txn, gid, results } => {
            out.push(3);
            put_u64(out, txn.0);
            put_u64(out, gid.0);
            put_u16(out, results.len() as u16);
            for &(tuple, value) in results {
                put_tuple(out, tuple);
                put_u64(out, value);
            }
        }
        LogRecord::Commit { txn } => {
            out.push(4);
            put_u64(out, txn.0);
        }
        LogRecord::Abort { txn } => {
            out.push(5);
            put_u64(out, txn.0);
        }
    }
}

/// Appends a segment header (magic + base LSN) to `out`. The format carries
/// no record count, so a header followed by any number of whole records is a
/// valid segment — which is what lets [`crate::wal::Wal`] grow its active
/// segment in place.
pub(crate) fn encode_header(out: &mut Vec<u8>, base_lsn: u64) {
    out.extend_from_slice(SEGMENT_MAGIC);
    put_u64(out, base_lsn);
}

/// Appends one framed record (`len` + body + `crc`) to `out`.
pub(crate) fn encode_record(out: &mut Vec<u8>, record: &LogRecord) {
    let frame_start = out.len();
    put_u32(out, 0); // length placeholder
    encode_body(out, record);
    let body_len = (out.len() - frame_start - 4) as u32;
    out[frame_start..frame_start + 4].copy_from_slice(&body_len.to_le_bytes());
    let crc = fnv1a_bytes(&out[frame_start..]);
    put_u64(out, crc);
}

/// Encodes `records` as one segment whose first record has LSN `base_lsn`.
pub fn encode_segment(base_lsn: u64, records: &[LogRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + records.len() * 40);
    encode_header(&mut out, base_lsn);
    for record in records {
        encode_record(&mut out, record);
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over one record body; every read is bounds-checked so a
/// malformed body yields a structured error, never a panic.
pub(crate) struct BodyReader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) at: usize,
    pub(crate) record: usize,
}

impl<'a> BodyReader<'a> {
    pub(crate) fn err(&self, message: impl Into<String>) -> WalCodecError {
        WalCodecError { record: self.record, message: message.into() }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WalCodecError> {
        let end = self.at + n;
        if end > self.bytes.len() {
            return Err(self.err(format!("record body too short for {what}")));
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, WalCodecError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, WalCodecError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, WalCodecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn tuple(&mut self) -> Result<TupleId, WalCodecError> {
        let table = self.u16("table id")?;
        let key = self.u64("tuple key")?;
        Ok(TupleId::new(TableId(table), key))
    }

    pub(crate) fn value(&mut self, what: &str) -> Result<Value, WalCodecError> {
        let width = self.u8(what)?;
        if width != 1 {
            return Err(self.err(format!("invalid {what} width {width}")));
        }
        Ok(Value::scalar(self.u64(what)?))
    }

    fn finish(self) -> Result<(), WalCodecError> {
        if self.at != self.bytes.len() {
            return Err(self.err(format!("{} trailing garbage bytes after record body", self.bytes.len() - self.at)));
        }
        Ok(())
    }
}

fn decode_body(record: usize, bytes: &[u8]) -> Result<LogRecord, WalCodecError> {
    let mut r = BodyReader { bytes, at: 0, record };
    let tag = r.u8("record tag")?;
    let decoded = match tag {
        1 => {
            let txn = TxnId(r.u64("transaction id")?);
            let tuple = r.tuple()?;
            let before = r.value("before image")?;
            let after = r.value("after image")?;
            LogRecord::ColdWrite { txn, tuple, before, after }
        }
        2 => {
            let txn = TxnId(r.u64("transaction id")?);
            let n = r.u16("op count")? as usize;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let tuple = r.tuple()?;
                let code = r.u8("opcode")?;
                let op = opcode_from_code(code).ok_or_else(|| r.err(format!("unknown opcode {code}")))?;
                let operand = r.u64("operand")?;
                let has_from = r.u8("operand source flag")?;
                let src = r.u8("operand source")?;
                let operand_from = match has_from {
                    0 => None,
                    1 => Some(src),
                    other => return Err(r.err(format!("invalid operand source flag {other}"))),
                };
                ops.push(LoggedSwitchOp { tuple, op, operand, operand_from });
            }
            LogRecord::SwitchIntent { txn, ops }
        }
        3 => {
            let txn = TxnId(r.u64("transaction id")?);
            let gid = GlobalTxnId(r.u64("gid")?);
            let n = r.u16("result count")? as usize;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let tuple = r.tuple()?;
                let value = r.u64("result value")?;
                results.push((tuple, value));
            }
            LogRecord::SwitchResult { txn, gid, results }
        }
        4 => LogRecord::Commit { txn: TxnId(r.u64("transaction id")?) },
        5 => LogRecord::Abort { txn: TxnId(r.u64("transaction id")?) },
        other => return Err(r.err(format!("unknown record tag {other}"))),
    };
    r.finish()?;
    Ok(decoded)
}

/// The result of decoding a prefix of one segment.
#[derive(Debug)]
pub struct SegmentPrefix {
    /// LSN of the segment's first record; `None` when even the header was
    /// torn (nothing of the segment reached stable storage).
    pub base_lsn: Option<u64>,
    /// Every record that decoded cleanly before the tear (all of them, for a
    /// clean segment).
    pub records: Vec<LogRecord>,
    /// The tear that terminated decoding at the segment's physical end, if
    /// any. Interior corruption is a hard error, never a note.
    pub torn: Option<WalCodecError>,
}

/// Decodes one segment under the torn-tail contract (module docs): failures
/// at the physical end of the buffer become [`SegmentPrefix::torn`] notes,
/// failures with intact bytes after them are hard errors.
pub fn decode_segment_prefix(bytes: &[u8]) -> Result<SegmentPrefix, WalCodecError> {
    if bytes.len() < HEADER_BYTES {
        let message = format!("torn segment header ({} of {HEADER_BYTES} bytes)", bytes.len());
        return Ok(SegmentPrefix {
            base_lsn: None,
            records: Vec::new(),
            torn: Some(WalCodecError { record: 0, message }),
        });
    }
    if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(WalCodecError { record: 0, message: "bad segment magic (not a P4WS v1 segment)".into() });
    }
    let base_lsn = u64::from_le_bytes(bytes[SEGMENT_MAGIC.len()..HEADER_BYTES].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut at = HEADER_BYTES;
    let mut torn = None;
    while at < bytes.len() {
        let record_no = records.len() + 1;
        let torn_err = |message: String| WalCodecError { record: record_no, message };
        if bytes.len() - at < 4 {
            torn = Some(torn_err(format!("torn record at byte {at}: truncated length header")));
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let body_end = at + 4 + len;
        let record_end = body_end + 8;
        if record_end > bytes.len() {
            torn = Some(torn_err(format!("torn record at byte {at}: truncated body or checksum")));
            break;
        }
        let stored = u64::from_le_bytes(bytes[body_end..record_end].try_into().expect("8 bytes"));
        let actual = fnv1a_bytes(&bytes[at..body_end]);
        if stored != actual {
            let message = format!(
                "checksum mismatch at byte {at} (stored {stored:016x}, computed {actual:016x}) — torn or corrupt \
                 record"
            );
            if record_end == bytes.len() {
                // The failing record is the last thing in the segment: a
                // torn tail (the tear landed inside the final record).
                torn = Some(torn_err(message));
                break;
            }
            // Intact bytes follow the failing record: interior data loss.
            return Err(torn_err(format!("interior corruption (intact records follow): {message}")));
        }
        records.push(decode_body(record_no, &bytes[at + 4..body_end])?);
        at = record_end;
    }
    Ok(SegmentPrefix { base_lsn: Some(base_lsn), records, torn })
}

/// Decodes a whole segment sequence into one record vector: the tail from
/// LSN 0 ([`decode_segment_tail`]). A torn tail is tolerated in the **final**
/// segment only and returned as a note; a tear in any sealed segment, a
/// base-LSN discontinuity (a missing or reordered segment) or interior
/// corruption anywhere is a hard error.
#[allow(clippy::type_complexity)]
pub fn decode_segments(blobs: &[impl AsRef<[u8]>]) -> Result<(Vec<LogRecord>, Option<WalCodecError>), WalCodecError> {
    decode_segment_tail(blobs, 0)
}

/// Reads a segment's base LSN from its header without decoding any records.
/// `None` means the header itself is torn (fewer than `HEADER_BYTES` (13)
/// bytes); a wrong magic is a hard error as in [`decode_segment_prefix`].
pub fn peek_base_lsn(bytes: &[u8]) -> Result<Option<u64>, WalCodecError> {
    if bytes.len() < HEADER_BYTES {
        return Ok(None);
    }
    if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(WalCodecError { record: 0, message: "bad segment magic (not a P4WS v1 segment)".into() });
    }
    Ok(Some(u64::from_le_bytes(bytes[SEGMENT_MAGIC.len()..HEADER_BYTES].try_into().expect("8 bytes"))))
}

/// Decodes only the suffix of a segment sequence needed to replay records
/// from `from_lsn` onward — the checkpoint-tail read path. Sealed segments
/// that lie wholly below `from_lsn` are *skipped without decoding* (their
/// headers are still checked: valid magic and strictly increasing base
/// LSNs), which is what makes a checkpointed restart O(tail) instead of
/// O(log). Decoding starts at the last segment whose base LSN is ≤
/// `from_lsn`; a sequence that starts above `from_lsn` is missing segments.
/// Only the final segment may be torn, and base LSNs must be contiguous from
/// the first decoded segment on. Returns the records from `from_lsn` on,
/// plus the torn-tail note if the final segment was torn.
#[allow(clippy::type_complexity)]
pub fn decode_segment_tail(
    blobs: &[impl AsRef<[u8]>],
    from_lsn: u64,
) -> Result<(Vec<LogRecord>, Option<WalCodecError>), WalCodecError> {
    // Peek every header up front; the skip decision needs the successor's
    // base LSN. A torn header is only legitimate on the final segment.
    let mut bases = Vec::with_capacity(blobs.len());
    for (i, blob) in blobs.iter().enumerate() {
        match peek_base_lsn(blob.as_ref())? {
            Some(base) => {
                if bases.last().is_some_and(|&prev| base <= prev) {
                    return Err(WalCodecError {
                        record: 0,
                        message: format!(
                            "segment {i} base LSN {base} does not increase — missing or reordered segment"
                        ),
                    });
                }
                bases.push(base);
            }
            None if i + 1 == blobs.len() => break, // torn final header, handled below
            None => {
                return Err(WalCodecError {
                    record: 0,
                    message: format!("segment {i} has a torn header but is not the final segment"),
                })
            }
        }
    }
    // A sequence that starts above from_lsn lacks the segments holding it.
    if let Some(&base) = bases.first().filter(|&&base| base > from_lsn) {
        return Err(WalCodecError {
            record: 0,
            message: format!("segment 0 starts at LSN {base}, past LSN {from_lsn} — missing or reordered segment"),
        });
    }
    // Last segment whose base is ≤ from_lsn: the fence lands inside it (or
    // at its start), so everything before it holds only pre-fence records.
    let start = bases.iter().rposition(|&base| base <= from_lsn).unwrap_or(0);
    let mut records: Vec<LogRecord> = Vec::new();
    let mut expected_next = bases.get(start).copied();
    let mut torn = None;
    for (i, blob) in blobs.iter().enumerate().skip(start) {
        let last = i + 1 == blobs.len();
        let prefix = decode_segment_prefix(blob.as_ref())?;
        if let Some(note) = prefix.torn {
            if !last {
                return Err(WalCodecError {
                    record: note.record,
                    message: format!(
                        "segment {i} is torn but is not the final segment — interior data loss: {}",
                        note.message
                    ),
                });
            }
            torn = Some(note);
        }
        if let (Some(base), Some(expected)) = (prefix.base_lsn, expected_next) {
            if base != expected {
                return Err(WalCodecError {
                    record: 0,
                    message: format!(
                        "segment {i} starts at LSN {base} but LSN {expected} was expected — missing or reordered \
                         segment"
                    ),
                });
            }
            expected_next = Some(expected + prefix.records.len() as u64);
        }
        records.extend(prefix.records);
    }
    // Drop the pre-fence records of the first decoded segment.
    let first_base = bases.get(start).copied().unwrap_or(0);
    let skip = (from_lsn.saturating_sub(first_base) as usize).min(records.len());
    records.drain(..skip);
    Ok((records, torn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::{NodeId, WorkerId};

    fn txn(seq: u32) -> TxnId {
        TxnId::compose(seq, NodeId(0), WorkerId(0))
    }

    fn tuple(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::ColdWrite { txn: txn(3), tuple: tuple(9), before: Value::scalar(1), after: Value::scalar(2) },
            LogRecord::SwitchIntent {
                txn: txn(3),
                ops: vec![
                    LoggedSwitchOp { tuple: tuple(1), op: OpCode::Add, operand: 2, operand_from: None },
                    LoggedSwitchOp { tuple: tuple(2), op: OpCode::CondSub, operand: 5, operand_from: Some(0) },
                ],
            },
            LogRecord::SwitchResult { txn: txn(3), gid: GlobalTxnId(0), results: vec![(tuple(1), 3), (tuple(2), 95)] },
            LogRecord::Commit { txn: txn(3) },
            LogRecord::Abort { txn: txn(4) },
        ]
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let records = sample_records();
        let blob = encode_segment(0, &records);
        let prefix = decode_segment_prefix(&blob).unwrap();
        assert_eq!(prefix.base_lsn, Some(0));
        assert!(prefix.torn.is_none());
        assert_eq!(prefix.records, records);
        // Every opcode round-trips through its wire code.
        for code in 0..6u8 {
            assert_eq!(opcode_code(opcode_from_code(code).unwrap()), code);
        }
        assert!(opcode_from_code(6).is_none());
    }

    #[test]
    fn truncation_at_every_byte_recovers_the_intact_prefix() {
        let records = sample_records();
        let blob = encode_segment(0, &records);
        // Record boundaries: the byte length of every i-record prefix.
        let boundaries: Vec<usize> = (0..=records.len()).map(|i| encode_segment(0, &records[..i]).len()).collect();
        for cut in 0..blob.len() {
            let prefix = decode_segment_prefix(&blob[..cut]).unwrap();
            let intact = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(prefix.records, records[..intact], "cut at byte {cut}");
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(prefix.torn.is_none(), at_boundary, "cut at byte {cut}");
        }
    }

    #[test]
    fn interior_corruption_is_a_hard_error_tail_corruption_a_tear() {
        let records = sample_records();
        let blob = encode_segment(0, &records);
        // Flip a byte inside the FIRST record's body: intact records follow,
        // so this is data loss, not a tear.
        let mut corrupt = blob.clone();
        corrupt[HEADER_BYTES + 5] ^= 0xff;
        let err = decode_segment_prefix(&corrupt).unwrap_err();
        assert!(err.message.contains("interior corruption"), "{err}");
        // Flip the LAST byte (inside the final record's checksum): a tear.
        let mut torn = blob.clone();
        *torn.last_mut().unwrap() ^= 0xff;
        let prefix = decode_segment_prefix(&torn).unwrap();
        assert_eq!(prefix.records, records[..records.len() - 1]);
        assert!(prefix.torn.unwrap().message.contains("checksum mismatch"));
        // Wrong magic is refused outright.
        let mut bad = blob;
        bad[0] = b'X';
        assert!(decode_segment_prefix(&bad).unwrap_err().message.contains("magic"));
    }

    #[test]
    fn segment_sequences_check_continuity_and_final_only_tears() {
        let records = sample_records();
        let a = encode_segment(0, &records[..2]);
        let b = encode_segment(2, &records[2..]);
        let (all, torn) = decode_segments(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(all, records);
        assert!(torn.is_none());
        // A torn FINAL segment is fine; the same tear in a sealed one is not.
        let torn_b = &b[..b.len() - 3];
        let (prefix, torn) = decode_segments(&[a.clone(), torn_b.to_vec()]).unwrap();
        assert_eq!(prefix, records[..records.len() - 1]);
        assert!(torn.is_some());
        let torn_a = &a[..a.len() - 3];
        let err = decode_segments(&[torn_a.to_vec(), b.clone()]).unwrap_err();
        assert!(err.message.contains("not the final segment"), "{err}");
        // A gap in the sequence (missing segment) is a hard error.
        let err = decode_segments(&[b]).unwrap_err();
        assert!(err.message.contains("missing or reordered"), "{err}");
    }

    #[test]
    fn tail_decode_matches_full_decode_suffix_at_every_fence() {
        // 2-record segments over the 5 sample records: [0,1] [2,3] [4].
        let records = sample_records();
        let blobs =
            vec![encode_segment(0, &records[..2]), encode_segment(2, &records[2..4]), encode_segment(4, &records[4..])];
        for fence in 0..=records.len() as u64 + 2 {
            let (tail, torn) = decode_segment_tail(&blobs, fence).unwrap();
            assert!(torn.is_none());
            let expected = &records[(fence as usize).min(records.len())..];
            assert_eq!(tail, expected, "fence {fence}");
        }
        // A torn final segment still tears; the pre-fence sealed segments are
        // skipped without being decoded, so corruption *below* the fence in a
        // skipped segment's body goes unread (only its header is checked).
        let mut torn_blobs = blobs.clone();
        let last = torn_blobs.last_mut().unwrap();
        last.truncate(last.len() - 3);
        let (tail, torn) = decode_segment_tail(&torn_blobs, 3).unwrap();
        assert_eq!(tail, records[3..4]);
        assert!(torn.is_some());
        // Headers of skipped segments are still validated: bad magic is a
        // hard error, and a non-increasing base LSN (reordered segments) too.
        let mut bad = blobs.clone();
        bad[0][0] = b'X';
        assert!(decode_segment_tail(&bad, 4).unwrap_err().message.contains("magic"));
        let reordered = vec![blobs[1].clone(), blobs[0].clone(), blobs[2].clone()];
        assert!(decode_segment_tail(&reordered, 4).unwrap_err().message.contains("missing or reordered"));
    }

    #[test]
    fn a_sequence_starting_above_the_fence_is_missing_segments() {
        let records = sample_records();
        let blobs = vec![encode_segment(2, &records[2..4]), encode_segment(4, &records[4..])];
        for fence in 0..2 {
            let err = decode_segment_tail(&blobs, fence).unwrap_err();
            assert!(err.message.contains("missing or reordered"), "fence {fence}: {err}");
        }
        let (tail, torn) = decode_segment_tail(&blobs, 2).unwrap();
        assert_eq!(tail, records[2..]);
        assert!(torn.is_none());
    }

    #[test]
    fn malformed_bodies_under_valid_checksums_are_hard_errors() {
        // Each case frames a hand-built body with a *valid* checksum, so
        // only `decode_body` can reject it; a good record precedes it, so
        // the error must name record 2.
        fn body(record: &LogRecord) -> Vec<u8> {
            let mut out = Vec::new();
            encode_body(&mut out, record);
            out
        }
        fn frame(out: &mut Vec<u8>, body: &[u8]) {
            let start = out.len();
            put_u32(out, body.len() as u32);
            out.extend_from_slice(body);
            let crc = fnv1a_bytes(&out[start..]);
            put_u64(out, crc);
        }
        let records = sample_records();
        let intent = body(&records[1]);
        // SwitchIntent: tag, txn, op count, then per op table, key, opcode,
        // operand, source flag, source.
        let opcode_at = 1 + 8 + 2 + 2 + 8;
        let flag_at = opcode_at + 1 + 8;
        // ColdWrite: tag, txn, table, key, then the before image's width.
        let width_at = 1 + 8 + 2 + 8;
        let patched = |mut bytes: Vec<u8>, at: usize, byte: u8| {
            bytes[at] = byte;
            bytes
        };
        let mut trailing = body(&records[3]);
        trailing.push(0);
        let cases = [
            (vec![9u8, 0, 0, 0, 0, 0, 0, 0, 0], "unknown record tag 9"),
            (patched(intent.clone(), opcode_at, 6), "unknown opcode 6"),
            (patched(intent, flag_at, 2), "invalid operand source flag 2"),
            (patched(body(&records[0]), width_at, 0), "invalid before image width 0"),
            (patched(body(&records[0]), width_at, 2), "invalid before image width 2"),
            (trailing, "trailing garbage"),
        ];
        for (bad, expected) in cases {
            let mut blob = encode_segment(0, &records[3..4]);
            frame(&mut blob, &bad);
            // Last in the segment or followed by intact records: hard error
            // either way, never a torn tail.
            for followed in [false, true] {
                let mut blob = blob.clone();
                if followed {
                    encode_record(&mut blob, &records[4]);
                }
                let err = decode_segment_prefix(&blob).expect_err(expected);
                assert_eq!(err.record, 2, "{err}");
                assert!(err.message.contains(expected), "{err}");
                assert!(err.to_string().contains("record 2"), "{err}");
            }
        }
    }
}
