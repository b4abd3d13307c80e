//! The binary, segmented on-disk codec of the write-ahead log.
//!
//! This is the representation of [`crate::wal::Wal`] itself — appends encode
//! into the active segment and the log keeps nothing but these bytes — and
//! the form every crash drill round-trips the log through. It reuses the
//! checksummed, truncation-safe wire idiom of `p4db_net::frame`: a 5-byte
//! versioned magic, then length-prefixed records each closed by a 64-bit
//! checksum over the record's own bytes, so a prefix of a segment decodes to
//! a prefix of its records and a torn final record is detected rather than
//! misparsed.
//!
//! ## Wire format
//!
//! ```text
//! segment   := magic base_lsn record*
//! magic     := "P4WS" 0x02                     (5 bytes)
//! base_lsn  := u64 LE        — LSN of the segment's first record
//! record    := len:varint  body  crc:u64 LE    (crc over len+body bytes)
//! body      := tag:u8 [txn:u64 LE] fields…
//! varint    := LEB128, at most 10 bytes
//! word      := n:u8 (0..=8)  n bytes LE        — the word's minimal bytes
//! ```
//!
//! The tag's low bits name the record; its high bit (`0x80`) says the
//! record belongs to the same transaction as the previous record of the same
//! segment, and then the 8-byte transaction id is omitted. The first record
//! of a segment always carries it, so every segment decodes on its own.
//!
//! Record fields: `1` ColdWrite (table:varint, key:varint, before:word,
//! after:word), `2` SwitchIntent (`n:varint` ops of table:varint,
//! key:varint, opcode:u8 — high bit set when an operand source byte follows
//! — `[from:u8]`, operand:word), `3` SwitchResult (gid:varint, `n:varint`
//! results of table:varint, key:varint, value:word), `4` Commit, `5` Abort.
//!
//! ## Torn tail vs. interior corruption
//!
//! The contract of [`crate::wal`], byte by byte: a record that fails **at
//! the physical end of the final segment** — a truncated length prefix, a
//! body or checksum cut short, or a checksum mismatch on a record ending
//! exactly at the buffer's last byte — is a legitimate torn tail;
//! [`decode_segments`] returns the intact prefix plus the tear as a note. A
//! checksum mismatch with bytes *remaining after* the record, a malformed
//! length prefix, or any failure in a sealed (non-final) segment, is
//! interior corruption — data loss that must not be silently truncated away
//! — and is a hard [`WalCodecError`]. A record whose checksum holds but
//! whose body does not decode is a hard error wherever it sits. (One
//! inherent limit of length-prefixed framing: a corrupted length field that
//! points past the end of the final segment is indistinguishable from a
//! tear and is treated as one; in every other position the checksum, which
//! covers the length bytes, catches it.)

use crate::wal::{LogRecord, LoggedSwitchOp, WalCodecError};
use p4db_common::{GlobalTxnId, TableId, TupleId, TxnId, Value};
use p4db_switch::OpCode;

/// Versioned magic opening every binary WAL segment.
pub const SEGMENT_MAGIC: &[u8; 5] = b"P4WS\x02";

/// Byte length of the segment header (magic + base LSN).
const HEADER_BYTES: usize = SEGMENT_MAGIC.len() + 8;

/// Tag bit: the record's transaction is the previous record's, and its id
/// is omitted.
const SAME_TXN: u8 = 0x80;

/// Opcode bit: an operand source byte follows the opcode.
const HAS_SOURCE: u8 = 0x80;

/// The per-record checksum: 64 bits over the bytes folded one little-endian
/// word at a time (the last one zero-padded, the length mixed into the
/// seed), each fold a rotate, an xor and a multiply — all bijections of the
/// state, so any change confined to one word always changes the sum. Not
/// cryptographic: it only needs to make it overwhelmingly unlikely that a
/// torn or bit-flipped record still carries a matching checksum.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |hash: u64, word: u64| (hash.rotate_left(23) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut hash = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    for word in &mut words {
        hash = fold(hash, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0; 8];
        last[..rest.len()].copy_from_slice(rest);
        hash = fold(hash, u64::from_le_bytes(last));
    }
    hash
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// LEB128: seven bits per byte, low bits first, high bit set on every byte
/// but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A word's wire form: its byte count, then its minimal little-endian
/// bytes — 1 byte for 0, 9 for a word with its top byte set.
fn put_word(out: &mut Vec<u8>, v: u64) {
    let n = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
    out.push(n as u8);
    out.extend_from_slice(&v.to_le_bytes()[..n]);
}

/// A value's wire form: its switch word, as a word. Shared with the
/// checkpoint codec; `BodyReader::value` reads it back.
pub(crate) fn put_value(out: &mut Vec<u8>, value: &Value) {
    put_word(out, value.switch_word());
}

fn put_tuple(out: &mut Vec<u8>, tuple: TupleId) {
    put_varint(out, tuple.table.0 as u64);
    put_varint(out, tuple.key);
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

/// Encodes `record`'s body; `prev` is the transaction of the previous record
/// in the same segment (`None` for its first record).
fn encode_body(out: &mut Vec<u8>, prev: Option<TxnId>, record: &LogRecord) {
    let tag = match record {
        LogRecord::ColdWrite { .. } => 1,
        LogRecord::SwitchIntent { .. } => 2,
        LogRecord::SwitchResult { .. } => 3,
        LogRecord::Commit { .. } => 4,
        LogRecord::Abort { .. } => 5,
    };
    let txn = record.txn();
    if prev == Some(txn) {
        out.push(tag | SAME_TXN);
    } else {
        out.push(tag);
        put_u64(out, txn.0);
    }
    match record {
        LogRecord::ColdWrite { tuple, before, after, .. } => {
            put_tuple(out, *tuple);
            put_value(out, before);
            put_value(out, after);
        }
        LogRecord::SwitchIntent { ops, .. } => {
            put_varint(out, ops.len() as u64);
            for op in ops {
                put_tuple(out, op.tuple);
                match op.operand_from {
                    Some(src) => out.extend_from_slice(&[opcode_code(op.op) | HAS_SOURCE, src]),
                    None => out.push(opcode_code(op.op)),
                }
                put_word(out, op.operand);
            }
        }
        LogRecord::SwitchResult { gid, results, .. } => {
            put_varint(out, gid.0);
            put_varint(out, results.len() as u64);
            for &(tuple, value) in results {
                put_tuple(out, tuple);
                put_word(out, value);
            }
        }
        LogRecord::Commit { .. } | LogRecord::Abort { .. } => {}
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

/// Appends one framed record (`len` + body + `crc`) to `out`; `prev` is the
/// transaction of the segment's previous record (`None` for its first).
pub(crate) fn encode_record(out: &mut Vec<u8>, prev: Option<TxnId>, record: &LogRecord) {
    let frame_start = out.len();
    out.push(0); // length placeholder: one byte fits bodies under 128 B
    encode_body(out, prev, record);
    let body_len = out.len() - frame_start - 1;
    if body_len < 0x80 {
        out[frame_start] = body_len as u8;
    } else {
        let mut len = Vec::with_capacity(2);
        put_varint(&mut len, body_len as u64);
        out.splice(frame_start..frame_start + 1, len);
    }
    let crc = checksum(&out[frame_start..]);
    put_u64(out, crc);
}

/// Encodes `records` as one segment whose first record has LSN `base_lsn`.
pub fn encode_segment(base_lsn: u64, records: &[LogRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + records.len() * 32);
    encode_header(&mut out, base_lsn);
    let mut prev = None;
    for record in records {
        encode_record(&mut out, prev, record);
        prev = Some(record.txn());
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reads the varint at the start of `bytes`: `Ok(Some((value, length)))`,
/// `Ok(None)` when `bytes` ends inside it, `Err(())` when it is malformed —
/// a tenth byte carrying bits past 64 or a continuation.
fn read_varint(bytes: &[u8]) -> Result<Option<(u64, usize)>, ()> {
    let mut value = 0;
    for (i, &byte) in bytes.iter().take(10).enumerate() {
        if i == 9 && byte > 1 {
            return Err(());
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            return Ok(Some((value, i + 1)));
        }
    }
    Ok(None)
}

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

    fn varint(&mut self, what: &str) -> Result<u64, WalCodecError> {
        match read_varint(&self.bytes[self.at..]) {
            Ok(Some((value, len))) => {
                self.at += len;
                Ok(value)
            }
            Ok(None) => Err(self.err(format!("record body too short for {what}"))),
            Err(()) => Err(self.err(format!("malformed {what} varint (over 10 bytes or past 64 bits)"))),
        }
    }

    /// A count of items that each take at least one byte, bounded by the
    /// bytes left so a corrupt count cannot make the decoder over-allocate.
    fn count(&mut self, what: &str) -> Result<usize, WalCodecError> {
        let n = self.varint(what)?;
        let left = self.bytes.len() - self.at;
        if n > left as u64 {
            return Err(self.err(format!("{what} {n} exceeds the {left} bytes left in the record body")));
        }
        Ok(n as usize)
    }

    fn word(&mut self, what: &str) -> Result<u64, WalCodecError> {
        let n = self.u8(what)? as usize;
        if n > 8 {
            return Err(self.err(format!("invalid {what} width {n}")));
        }
        let mut le = [0; 8];
        le[..n].copy_from_slice(self.take(n, what)?);
        Ok(u64::from_le_bytes(le))
    }

    fn tuple(&mut self) -> Result<TupleId, WalCodecError> {
        let table = self.varint("table id")?;
        let table = u16::try_from(table).map_err(|_| self.err(format!("table id {table} out of range")))?;
        let key = self.varint("tuple key")?;
        Ok(TupleId::new(TableId(table), key))
    }

    pub(crate) fn value(&mut self, what: &str) -> Result<Value, WalCodecError> {
        Ok(Value::scalar(self.word(what)?))
    }

    fn finish(self) -> Result<(), WalCodecError> {
        if self.at != self.bytes.len() {
            return Err(self.err(format!("{} trailing garbage bytes after record body", self.bytes.len() - self.at)));
        }
        Ok(())
    }
}

/// Decodes one record body; `prev` is the transaction of the previous
/// record in the same segment (`None` for its first record).
fn decode_body(record: usize, bytes: &[u8], prev: Option<TxnId>) -> Result<LogRecord, WalCodecError> {
    let mut r = BodyReader { bytes, at: 0, record };
    let tag = r.u8("record tag")?;
    let txn = if tag & SAME_TXN == 0 {
        TxnId(r.u64("transaction id")?)
    } else {
        prev.ok_or_else(|| r.err("the first record of a segment omits its transaction id"))?
    };
    let decoded = match tag & !SAME_TXN {
        1 => {
            let tuple = r.tuple()?;
            let before = r.value("before image")?;
            let after = r.value("after image")?;
            LogRecord::ColdWrite { txn, tuple, before, after }
        }
        2 => {
            let n = r.count("op count")?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let tuple = r.tuple()?;
                let code = r.u8("opcode")?;
                let op = opcode_from_code(code & !HAS_SOURCE)
                    .ok_or_else(|| r.err(format!("unknown opcode {}", code & !HAS_SOURCE)))?;
                let operand_from = if code & HAS_SOURCE == 0 { None } else { Some(r.u8("operand source")?) };
                let operand = r.word("operand")?;
                ops.push(LoggedSwitchOp { tuple, op, operand, operand_from });
            }
            LogRecord::SwitchIntent { txn, ops }
        }
        3 => {
            let gid = GlobalTxnId(r.varint("gid")?);
            let n = r.count("result count")?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let tuple = r.tuple()?;
                let value = r.word("result value")?;
                results.push((tuple, value));
            }
            LogRecord::SwitchResult { txn, gid, results }
        }
        4 => LogRecord::Commit { txn },
        5 => LogRecord::Abort { txn },
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
        return Err(WalCodecError { record: 0, message: "bad segment magic (not a P4WS v2 segment)".into() });
    }
    let base_lsn = u64::from_le_bytes(bytes[SEGMENT_MAGIC.len()..HEADER_BYTES].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut at = HEADER_BYTES;
    let mut torn = None;
    let mut prev = None;
    while at < bytes.len() {
        let record_no = records.len() + 1;
        let torn_err = |message: String| WalCodecError { record: record_no, message };
        let (len, prefix) = match read_varint(&bytes[at..]) {
            Ok(Some(len)) => len,
            Ok(None) => {
                torn = Some(torn_err(format!("torn record at byte {at}: truncated length prefix")));
                break;
            }
            // No cut produces this: a valid prefix is at most 10 bytes.
            Err(()) => return Err(torn_err(format!("interior corruption: malformed length prefix at byte {at}"))),
        };
        let body_start = at + prefix;
        let record_end = (body_start as u64).saturating_add(len).saturating_add(8);
        if record_end > bytes.len() as u64 {
            torn = Some(torn_err(format!("torn record at byte {at}: truncated body or checksum")));
            break;
        }
        let record_end = record_end as usize;
        let body_end = record_end - 8;
        let stored = u64::from_le_bytes(bytes[body_end..record_end].try_into().expect("8 bytes"));
        let actual = checksum(&bytes[at..body_end]);
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
        let record = decode_body(record_no, &bytes[body_start..body_end], prev)?;
        prev = Some(record.txn());
        records.push(record);
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
        return Err(WalCodecError { record: 0, message: "bad segment magic (not a P4WS v2 segment)".into() });
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

    /// Frames a hand-built body with a valid length prefix and checksum.
    fn frame(out: &mut Vec<u8>, body: &[u8]) {
        let start = out.len();
        put_varint(out, body.len() as u64);
        out.extend_from_slice(body);
        let crc = checksum(&out[start..]);
        put_u64(out, crc);
    }

    #[test]
    fn malformed_bodies_under_valid_checksums_are_hard_errors() {
        // Each case frames a hand-built body with a *valid* checksum, so
        // only `decode_body` can reject it; a good record precedes it, so
        // the error must name record 2.
        fn body(record: &LogRecord) -> Vec<u8> {
            let mut out = Vec::new();
            encode_body(&mut out, None, record);
            out
        }
        let records = sample_records();
        let intent = body(&records[1]);
        // SwitchIntent: tag, txn, op count, then the first op's table, key,
        // opcode.
        let count_at = 1 + 8;
        let opcode_at = count_at + 1 + 1 + 1;
        // ColdWrite: tag, txn, table, key, then the before image's width.
        let width_at = 1 + 8 + 1 + 1;
        let patched = |mut bytes: Vec<u8>, at: usize, byte: u8| {
            bytes[at] = byte;
            bytes
        };
        // A ColdWrite whose key is `key`'s bytes, verbatim.
        let cold_write_with_key = |key: &[u8]| {
            let mut out = vec![1];
            put_u64(&mut out, txn(3).0);
            out.push(0);
            out.extend_from_slice(key);
            out.extend_from_slice(&[0, 0]);
            out
        };
        let mut trailing = body(&records[3]);
        trailing.push(0);
        let cases = [
            (vec![9u8, 0, 0, 0, 0, 0, 0, 0, 0], "unknown record tag 9"),
            (patched(intent.clone(), opcode_at, 6), "unknown opcode 6"),
            (patched(intent.clone(), opcode_at, 6 | HAS_SOURCE), "unknown opcode 6"),
            (patched(intent.clone(), count_at, 100), "op count 100 exceeds"),
            (patched(intent[..opcode_at + 1].to_vec(), opcode_at, 2 | HAS_SOURCE), "too short for operand source"),
            (patched(body(&records[0]), width_at, 9), "invalid before image width 9"),
            (patched(body(&records[0]), width_at, 2), "too short for after image"),
            (cold_write_with_key(&[0xff; 11]), "malformed tuple key varint"),
            (cold_write_with_key(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]), "malformed tuple key"),
            (cold_write_with_key(&[0xff, 0xff, 0xff]), "too short for"),
            ([&[1], &txn(3).0.to_le_bytes()[..], &[0x80, 0x80, 0x04, 0, 0, 0]].concat(), "table id 65536 out of range"),
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
                    encode_record(&mut blob, None, &records[4]);
                }
                let err = decode_segment_prefix(&blob).expect_err(expected);
                assert_eq!(err.record, 2, "{err}");
                assert!(err.message.contains(expected), "{err}");
                assert!(err.to_string().contains("record 2"), "{err}");
            }
        }
        // A segment's first record cannot borrow a transaction id.
        let mut blob = encode_segment(0, &[]);
        frame(&mut blob, &[4 | SAME_TXN]);
        let err = decode_segment_prefix(&blob).unwrap_err();
        assert!(err.message.contains("first record of a segment omits its transaction id"), "{err}");
        // A length prefix with bits past 64 is interior corruption, not a
        // tear: no cut produces it.
        let mut blob = encode_segment(0, &[]);
        blob.extend_from_slice(&[0xff; 10]);
        encode_record(&mut blob, None, &records[3]);
        let err = decode_segment_prefix(&blob).unwrap_err();
        assert!(err.message.contains("malformed length prefix"), "{err}");
    }

    #[test]
    fn varints_and_words_roundtrip_at_their_width_edges() {
        for v in [0, 1, 127, 128, 16_383, 16_384, (1 << 56) - 1, 1 << 56, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(read_varint(&out), Ok(Some((v, out.len()))), "{v}");
            assert_eq!(out.len(), (64 - v.leading_zeros() as usize).div_ceil(7).max(1), "{v}");
            assert_eq!(read_varint(&out[..out.len() - 1]), Ok(None), "{v}");
            let mut out = Vec::new();
            put_word(&mut out, v);
            assert_eq!(out.len(), 1 + (64 - v.leading_zeros() as usize).div_ceil(8), "{v}");
            let mut r = BodyReader { bytes: &out, at: 0, record: 1 };
            assert_eq!(r.word("word"), Ok(v));
            r.finish().unwrap();
        }
        assert_eq!(read_varint(&[0xff; 10]), Err(()));
        assert_eq!(read_varint(&[0xff; 9]), Ok(None));
    }

    #[test]
    fn the_checksum_catches_any_one_word_change_and_covers_the_length() {
        let bytes: Vec<u8> = (0..29u8).map(|b| b.wrapping_mul(37)).collect();
        let sum = checksum(&bytes);
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(checksum(&flipped), sum, "bit {bit} of byte {at}");
            }
        }
        // Zero padding of the last word does not hide a dropped or added
        // trailing zero byte.
        assert_ne!(checksum(&[1, 0]), checksum(&[1]));
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 7]));
    }

    /// The encoded size of each record of `records`, in one segment.
    fn record_sizes(records: &[LogRecord]) -> Vec<usize> {
        (1..=records.len())
            .map(|i| encode_segment(0, &records[..i]).len() - encode_segment(0, &records[..i - 1]).len())
            .collect()
    }

    #[test]
    fn record_sizes_meet_their_budgets() {
        let a = txn(41);
        let b = txn(42);
        // A YCSB-A commit group on 1M rows: four cold writes of 64-bit
        // images (9 B each), then the commit. Only the first record carries
        // the transaction id: 40 + 3 x 32 + 10 B.
        let images = [0x8a5c_3e01_77f2_d90b_u64, 0xf00d_cafe_dead_beef, 0x1234_5678_9abc_def0, 0xffff_0000_ffff_0000];
        let mut group: Vec<LogRecord> = [123_456u64, 654_321, 999_999, 524_288]
            .iter()
            .zip(images)
            .map(|(&key, image)| LogRecord::ColdWrite {
                txn: a,
                tuple: tuple(key),
                before: Value::scalar(image),
                after: Value::scalar(image.rotate_left(8)),
            })
            .collect();
        group.push(LogRecord::Commit { txn: a });
        assert_eq!(record_sizes(&group), [40, 32, 32, 32, 10]);
        assert!(encode_segment(0, &group).len() - HEADER_BYTES <= 150);

        // A one-op SmallBank switch transaction: its intent, then the result
        // of another transaction, so both carry their ids.
        let t = TupleId::new(TableId(1), 77_777);
        let share = [
            LogRecord::SwitchIntent {
                txn: a,
                ops: vec![LoggedSwitchOp { tuple: t, op: OpCode::Add, operand: 100, operand_from: None }],
            },
            LogRecord::SwitchResult { txn: b, gid: GlobalTxnId(123_456), results: vec![(t, 10_100)] },
        ];
        assert_eq!(record_sizes(&share), [26, 29]);
        assert!(encode_segment(0, &share).len() - HEADER_BYTES <= 60);

        // A TPC-C order-line insert: a random 64-bit key (a 10-byte varint),
        // no before image and an item id.
        let insert = LogRecord::ColdWrite {
            txn: b,
            tuple: TupleId::new(TableId(8), 0xc0ff_ee00_1234_5678),
            before: Value::scalar(0),
            after: Value::scalar(99_999),
        };
        assert_eq!(record_sizes(&[insert]), [34]);

        // A run of one transaction's records carries its id once per
        // segment: here 3 + 2 records at capacity 3, so twice in all, once
        // at the head of each segment.
        let wal = crate::wal::Wal::with_segment_capacity(3);
        wal.append_group(group);
        let blobs = wal.serialize_segments();
        assert_eq!(blobs.len(), 2);
        let id = a.0.to_le_bytes();
        for blob in &blobs {
            assert_eq!(blob.windows(8).filter(|w| *w == id).count(), 1);
            // Header, one-byte length, tag without the same-transaction bit,
            // then the id.
            assert_eq!(blob[HEADER_BYTES + 1] & SAME_TXN, 0);
            assert_eq!(blob[HEADER_BYTES + 2..HEADER_BYTES + 10], id);
        }
    }
}
