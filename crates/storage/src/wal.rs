//! The per-node write-ahead log.
//!
//! Durability of switch transactions is the responsibility of the database
//! nodes (§6.1): a node appends the *intent* (the operations it is about to
//! send to the switch) to its local log **before** sending the packet —
//! switch transactions count as committed at that point because they can no
//! longer abort — and appends the switch-assigned GID together with the
//! read/write results when the reply arrives. Cold writes are logged with
//! before/after images so that node recovery can redo committed and undo
//! uncommitted work.
//!
//! ## Representation: segment bytes, encoded at append
//!
//! The log has **one** representation — the bytes of its binary segments
//! ([`crate::segment`]). [`Wal::append`] / [`Wal::append_group`] encode each
//! record straight into the active segment's buffer under the log mutex (the
//! segment header is written when the segment's first record arrives; the
//! format has no record count, so the growing buffer is a valid segment at
//! every instant). When the active segment holds
//! [`Wal::segment_capacity`] records it is *sealed*: the buffer is moved —
//! not re-encoded — into an `Arc` that every later
//! [`Wal::serialize_segments`] snapshot shares. These bytes are the only copy
//! of the log: no decoded record is retained, so the log's memory is its
//! serialised size.
//!
//! [`LogRecord`] values are transient staging values: built by the executor
//! on the way in, decoded on demand on the way out. LSNs are absolute record
//! indices and every segment header carries the LSN of its first record, so
//! readers address the log by LSN through segment headers —
//! [`Wal::records_from`] skips sealed segments wholly below the requested
//! LSN without decoding them.
//!
//! ## The text format (compatibility / differential arm)
//!
//! [`Wal::serialize`] renders the decoded log in a hand-rolled, versioned
//! text encoding — one record per line, first line a version header (the
//! build environment has no crates.io access and therefore no `serde_json`).
//! It is kept as the differential baseline of the crash drills
//! ([`WalCodec::Text`]); nothing stores it:
//!
//! ```text
//! p4dbwal 1
//! cw <txn> <table>:<key> <before-fields,comma-separated> <after-fields> #<crc>
//! si <txn> <table>:<key>:<op>:<operand>:<operand_from|-> ... #<crc>
//! sr <txn> <gid> <table>:<key>:<result> ... #<crc>
//! c <txn> #<crc>
//! a <txn> #<crc>
//! ```
//!
//! Every numeric field is decimal. The trailing `#<crc>` token is an
//! FNV-1a-64 checksum (hex) of the record body: without it a torn final
//! record could decode as a *different but well-formed* record (e.g. `c 10`
//! torn to `c 1`), silently corrupting recovery. The encoding round-trips
//! exactly: `Wal::deserialize(&wal.serialize())` reproduces the records
//! verbatim.
//!
//! ## Torn tail vs. interior corruption
//!
//! A failing record is classified by *where* it fails, and the two cases
//! have opposite meanings:
//!
//! * **Torn tail** — the failing record is the **final** one of the input.
//!   That is exactly what a crash mid-flush produces: the prefix reached
//!   stable storage, the last record did not. [`Wal::deserialize_segments`]
//!   and [`Wal::deserialize_prefix`] return the intact prefix together with
//!   the tear as a note, and recovery proceeds from the prefix.
//! * **Interior corruption** — a record fails while *intact records follow
//!   it*. No crash produces that shape; it means the medium lost data in the
//!   middle of the log, and truncating to the prefix would silently discard
//!   the intact records after the hole. This is a hard [`WalCodecError`] on
//!   both arms.
//!
//! In bytes ([`crate::segment`]): an error at the physical end of the
//! *final* segment is a torn tail; anything earlier is data loss. A live
//! `Wal`'s own bytes were written by its own encoder, so failing to decode
//! them is a bug, not a tear — the in-memory readers assert.

use p4db_common::sync::unpoison;
use p4db_common::{GlobalTxnId, TupleId, TxnId, Value};
use p4db_switch::OpCode;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// Version tag written as the first line of every serialised log.
const WAL_HEADER: &str = "p4dbwal 1";

/// Default number of records per log segment before the active tail is
/// sealed and a new one started (see [`Wal::serialize_segments`]).
pub const DEFAULT_SEGMENT_RECORDS: usize = 512;

/// FNV-1a 64-bit hash of a record body, the per-record checksum of the
/// serialised format. Not cryptographic — it only needs to make it
/// overwhelmingly unlikely that a torn or bit-flipped line still carries a
/// matching checksum.
fn fnv1a(body: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in body.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One operation of a switch (sub-)transaction as recorded in the log. The
/// tuple id (not the register slot) is logged so that recovery works even if
/// the hot set is re-offloaded to different registers after a switch failure.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LoggedSwitchOp {
    pub tuple: TupleId,
    pub op: OpCode,
    pub operand: u64,
    /// Operand forwarding source (read-dependent writes), same semantics as
    /// in the switch packet format.
    pub operand_from: Option<u8>,
}

/// A log record.
///
/// `ColdWrite` is much larger than the tag-only variants because it carries
/// two full before/after images inline. Records are transient staging
/// values — the log stores their encoded bytes, never the enum — so the
/// large slot is only ever paid on a worker's reusable staging buffer or a
/// reader's decoded snapshot; boxing the images would put an allocation on
/// the append hot path to shrink a value that is dropped right after.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// A write to a cold tuple performed by `txn` (before/after images).
    ColdWrite { txn: TxnId, tuple: TupleId, before: Value, after: Value },
    /// The intent of a switch (sub-)transaction, written *before* the packet
    /// is sent out.
    SwitchIntent { txn: TxnId, ops: Vec<LoggedSwitchOp> },
    /// The switch's reply: its globally-ordered GID plus the value returned
    /// for every operation (the read/write-set used by recovery to restore
    /// ordering).
    SwitchResult { txn: TxnId, gid: GlobalTxnId, results: Vec<(TupleId, u64)> },
    /// The transaction's cold part committed.
    Commit { txn: TxnId },
    /// The transaction aborted (cold part rolled back; never emitted for
    /// switch sub-transactions, which cannot abort).
    Abort { txn: TxnId },
}

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::ColdWrite { txn, .. }
            | LogRecord::SwitchIntent { txn, .. }
            | LogRecord::SwitchResult { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => *txn,
        }
    }
}

/// Which serialisation arm a crash drill (or a real restart) round-trips
/// the log through. Both arms carry the identical torn-tail-vs-interior-
/// corruption contract; the differential suite in `tests/durability.rs`
/// proves their invariant verdicts equivalent.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum WalCodec {
    /// The segmented binary codec of [`crate::segment`] — the default arm:
    /// sealed bounded segments plus one active tail.
    #[default]
    Binary,
    /// The versioned text format of this module — the compatibility and
    /// differential-baseline arm.
    Text,
}

/// A parse failure while reconstructing a log from its serialised form,
/// pointing at the offending (1-based) line. Torn trailing records — a crash
/// mid-flush — surface here as a regular error the caller can handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalCodecError {
    pub line: usize,
    pub message: String,
}

impl WalCodecError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        WalCodecError { line, message: message.into() }
    }
}

impl fmt::Display for WalCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WAL parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WalCodecError {}

// `write!` into a `String` cannot fail; the unreachable error arm would
// otherwise force `encode_record` to return a `Result` nobody can act on.
macro_rules! w {
    ($out:expr, $($arg:tt)*) => { let _ = write!($out, $($arg)*); };
}

fn encode_tuple(out: &mut String, tuple: TupleId) {
    w!(out, "{}:{}", tuple.table.0, tuple.key);
}

fn encode_value(out: &mut String, value: &Value) {
    let mut first = true;
    for field in value.as_slice() {
        if !first {
            out.push(',');
        }
        w!(out, "{field}");
        first = false;
    }
}

fn encode_record(out: &mut String, record: &LogRecord) {
    match record {
        LogRecord::ColdWrite { txn, tuple, before, after } => {
            w!(out, "cw {} ", txn.0);
            encode_tuple(out, *tuple);
            out.push(' ');
            encode_value(out, before);
            out.push(' ');
            encode_value(out, after);
        }
        LogRecord::SwitchIntent { txn, ops } => {
            w!(out, "si {}", txn.0);
            for op in ops {
                out.push(' ');
                encode_tuple(out, op.tuple);
                w!(out, ":{}:{}", op.op.name(), op.operand);
                match op.operand_from {
                    Some(src) => {
                        w!(out, ":{src}");
                    }
                    None => out.push_str(":-"),
                }
            }
        }
        LogRecord::SwitchResult { txn, gid, results } => {
            w!(out, "sr {} {}", txn.0, gid.0);
            for (tuple, value) in results {
                out.push(' ');
                encode_tuple(out, *tuple);
                w!(out, ":{value}");
            }
        }
        LogRecord::Commit { txn } => {
            w!(out, "c {}", txn.0);
        }
        LogRecord::Abort { txn } => {
            w!(out, "a {}", txn.0);
        }
    }
}

struct LineParser<'a> {
    line: usize,
    fields: std::str::SplitWhitespace<'a>,
}

impl<'a> LineParser<'a> {
    fn new(line: usize, text: &'a str) -> Self {
        LineParser { line, fields: text.split_whitespace() }
    }

    fn err(&self, message: impl Into<String>) -> WalCodecError {
        WalCodecError::new(self.line, message)
    }

    fn next(&mut self, what: &str) -> Result<&'a str, WalCodecError> {
        self.fields.next().ok_or_else(|| self.err(format!("truncated record: missing {what}")))
    }

    fn u64(&self, what: &str, text: &str) -> Result<u64, WalCodecError> {
        text.parse::<u64>().map_err(|_| self.err(format!("invalid {what} {text:?}")))
    }

    fn txn(&mut self) -> Result<TxnId, WalCodecError> {
        let raw = self.next("transaction id")?;
        Ok(TxnId(self.u64("transaction id", raw)?))
    }

    fn tuple(&self, text: &str) -> Result<TupleId, WalCodecError> {
        let (table, key) =
            text.split_once(':').ok_or_else(|| self.err(format!("invalid tuple {text:?} (expected table:key)")))?;
        let table = table.parse::<u16>().map_err(|_| self.err(format!("invalid table id {table:?}")))?;
        let key = self.u64("tuple key", key)?;
        Ok(TupleId::new(p4db_common::TableId(table), key))
    }

    fn value(&mut self, what: &str) -> Result<Value, WalCodecError> {
        let raw = self.next(what)?;
        let mut fields = Vec::new();
        for part in raw.split(',') {
            fields.push(self.u64(what, part)?);
        }
        if fields.is_empty() || fields.len() > p4db_common::value::MAX_FIELDS {
            return Err(self.err(format!("invalid {what} width {}", fields.len())));
        }
        Ok(Value::from_fields(&fields))
    }

    fn finish(mut self) -> Result<(), WalCodecError> {
        match self.fields.next() {
            Some(extra) => Err(self.err(format!("trailing garbage {extra:?}"))),
            None => Ok(()),
        }
    }
}

/// Splits off and verifies the trailing ` #<crc>` token, then decodes the
/// record body. The checksum check comes first so that a torn line which
/// happens to be a well-formed shorter record is still rejected.
fn decode_checksummed_record(line_no: usize, text: &str) -> Result<LogRecord, WalCodecError> {
    let (body, crc_text) =
        text.rsplit_once(" #").ok_or_else(|| WalCodecError::new(line_no, "truncated record: missing checksum"))?;
    let crc = u64::from_str_radix(crc_text.trim(), 16)
        .map_err(|_| WalCodecError::new(line_no, format!("invalid checksum {crc_text:?}")))?;
    let actual = fnv1a(body);
    if crc != actual {
        return Err(WalCodecError::new(
            line_no,
            format!("checksum mismatch (stored {crc:016x}, computed {actual:016x}) — torn or corrupt record"),
        ));
    }
    decode_record(line_no, body)
}

fn decode_record(line_no: usize, text: &str) -> Result<LogRecord, WalCodecError> {
    let mut p = LineParser::new(line_no, text);
    let tag = p.next("record tag")?;
    let record = match tag {
        "cw" => {
            let txn = p.txn()?;
            let tuple_raw = p.next("tuple")?;
            let tuple = p.tuple(tuple_raw)?;
            let before = p.value("before image")?;
            let after = p.value("after image")?;
            LogRecord::ColdWrite { txn, tuple, before, after }
        }
        "si" => {
            let txn = p.txn()?;
            let mut ops = Vec::new();
            while let Some(raw) = p.fields.next() {
                let parts: Vec<&str> = raw.split(':').collect();
                if parts.len() != 5 {
                    return Err(p.err(format!("invalid switch op {raw:?} (expected table:key:op:operand:from)")));
                }
                let tuple = p.tuple(&format!("{}:{}", parts[0], parts[1]))?;
                let op = OpCode::from_name(parts[2]).ok_or_else(|| p.err(format!("unknown opcode {:?}", parts[2])))?;
                let operand = p.u64("operand", parts[3])?;
                let operand_from = match parts[4] {
                    "-" => None,
                    src => Some(src.parse::<u8>().map_err(|_| p.err(format!("invalid operand source {src:?}")))?),
                };
                ops.push(LoggedSwitchOp { tuple, op, operand, operand_from });
            }
            return Ok(LogRecord::SwitchIntent { txn, ops });
        }
        "sr" => {
            let txn = p.txn()?;
            let gid_raw = p.next("gid")?;
            let gid = GlobalTxnId(p.u64("gid", gid_raw)?);
            let mut results = Vec::new();
            while let Some(raw) = p.fields.next() {
                let (tuple_raw, value_raw) = raw
                    .rsplit_once(':')
                    .ok_or_else(|| p.err(format!("invalid result {raw:?} (expected table:key:value)")))?;
                let tuple = p.tuple(tuple_raw)?;
                let value = p.u64("result value", value_raw)?;
                results.push((tuple, value));
            }
            return Ok(LogRecord::SwitchResult { txn, gid, results });
        }
        "c" => LogRecord::Commit { txn: p.txn()? },
        "a" => LogRecord::Abort { txn: p.txn()? },
        other => return Err(p.err(format!("unknown record tag {other:?}"))),
    };
    p.finish()?;
    Ok(record)
}

/// The mutex-guarded interior of a [`Wal`]: the log's segment bytes and the
/// counters that address them. Nothing else is kept.
#[derive(Debug, Default)]
struct WalInner {
    /// Full, immutable segments of exactly `segment_capacity` records each.
    sealed: Vec<Arc<Vec<u8>>>,
    /// The active segment: header plus `active_records` encoded records.
    /// Empty (not even a header) between a seal and the next append.
    active: Vec<u8>,
    active_records: usize,
    /// Total records in the log — the LSN the next record gets.
    len: usize,
}

impl WalInner {
    /// Encodes `record` at the end of the active segment, opening the
    /// segment first if this is its first record and sealing it if this is
    /// its last — the moment a file-backed log closes one segment file and
    /// opens the next.
    fn push(&mut self, record: &LogRecord, capacity: usize) {
        if self.active_records == 0 {
            // Segments of one log are about the same size: start from the
            // last one's instead of doubling up from empty every time.
            self.active.reserve_exact(self.sealed.last().map_or(0, |blob| blob.len()));
            crate::segment::encode_header(&mut self.active, self.len as u64);
        }
        crate::segment::encode_record(&mut self.active, record);
        self.active_records += 1;
        self.len += 1;
        if self.active_records == capacity {
            let mut blob = std::mem::take(&mut self.active);
            blob.shrink_to_fit();
            self.sealed.push(Arc::new(blob));
            self.active_records = 0;
        }
    }
}

/// The per-node write-ahead log. Appends are serialised by a mutex; in the
/// real system this is the log buffer + group commit path, whose cost the
/// paper argues is negligible next to network latency (§A.3).
///
/// The log is physically a sequence of bounded **segments** in the binary
/// codec of [`crate::segment`]: sealed segments (immutable, shared by `Arc`)
/// plus one active tail that appends encode into. [`Wal::serialize_segments`]
/// returns that sequence; readers decode it on demand (module docs).
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<WalInner>,
    segment_capacity: usize,
}

impl Default for Wal {
    fn default() -> Self {
        Self::with_segment_capacity(DEFAULT_SEGMENT_RECORDS)
    }
}

impl Wal {
    pub fn new() -> Self {
        Self::default()
    }

    /// A log that rotates its binary segments every `capacity` records
    /// (clamped to at least 1). The capacity only bounds segment size; the
    /// record contents and the text serialisation are unaffected.
    pub fn with_segment_capacity(capacity: usize) -> Self {
        Wal { inner: Mutex::new(WalInner::default()), segment_capacity: capacity.max(1) }
    }

    /// Number of records per sealed segment.
    pub fn segment_capacity(&self) -> usize {
        self.segment_capacity
    }

    /// The one way a log is rebuilt from decoded records (both
    /// deserialisation arms): re-append them, re-rotating under `capacity`.
    fn from_records(records: Vec<LogRecord>, capacity: usize) -> Self {
        let wal = Self::with_segment_capacity(capacity);
        wal.append_group(records);
        wal
    }

    fn lock(&self) -> MutexGuard<'_, WalInner> {
        unpoison(self.inner.lock())
    }

    /// Appends a record and returns its log sequence number.
    pub fn append(&self, record: LogRecord) -> u64 {
        let mut inner = self.lock();
        let lsn = inner.len as u64;
        inner.push(&record, self.segment_capacity);
        lsn
    }

    /// Group commit: appends a whole batch of records under **one** lock
    /// acquisition — the stand-in for staging records in a worker-local
    /// buffer and encoding + fsyncing them as a single log write. The batch
    /// is appended contiguously and in order (no other appender's record can
    /// interleave inside it, even when it straddles a segment boundary), and
    /// the serialised form is identical to the same records appended one by
    /// one, so the torn-record-safe encoding and recovery are unaffected.
    ///
    /// Returns the LSN of the batch's first record, or `None` for an empty
    /// batch — an empty batch writes nothing, and handing out the current
    /// log length as its "LSN" would name a record that belongs to whoever
    /// appends next.
    pub fn append_group(&self, batch: impl IntoIterator<Item = LogRecord>) -> Option<u64> {
        let mut inner = self.lock();
        let first = inner.len;
        for record in batch {
            inner.push(&record, self.segment_capacity);
        }
        (inner.len > first).then_some(first as u64)
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A decoded snapshot of the whole log (recovery input).
    pub fn records(&self) -> Vec<LogRecord> {
        self.records_from(0)
    }

    /// A decoded snapshot of the log from `lsn` onwards (checkpoint-tail and
    /// epoch-suffix replay input); empty when `lsn` is at or past the end.
    /// Sealed segments wholly below `lsn` are skipped by header, not decoded.
    pub fn records_from(&self, lsn: u64) -> Vec<LogRecord> {
        let blobs = self.serialize_segments();
        let views: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        let (records, torn) = crate::segment::decode_segment_tail(&views, lsn)
            .unwrap_or_else(|e| panic!("the in-memory log does not decode — encoder bug, not a torn tail: {e}"));
        assert!(torn.is_none(), "the in-memory log has a torn tail — encoder bug: {torn:?}");
        records
    }

    /// Renders the log in the versioned text format (header line plus one
    /// record per line) — the compatibility/differential arm. The log holds
    /// only segment bytes, so this decodes before it renders.
    pub fn serialize(&self) -> String {
        let records = self.records();
        let mut out = String::with_capacity(16 + records.len() * 48);
        out.push_str(WAL_HEADER);
        out.push('\n');
        let mut body = String::new();
        for r in &records {
            body.clear();
            encode_record(&mut body, r);
            out.push_str(&body);
            w!(out, " #{:016x}\n", fnv1a(&body));
        }
        out
    }

    /// The log as its binary segment sequence — the stand-in for forcing the
    /// log to stable storage: every sealed segment (the same `Arc` on every
    /// call) followed by a copy of the active tail (it is still growing). An
    /// empty log yields no segments. See [`crate::segment`] for the wire
    /// format and the torn-tail contract.
    pub fn serialize_segments(&self) -> Vec<Arc<Vec<u8>>> {
        let inner = self.lock();
        let mut blobs = Vec::with_capacity(inner.sealed.len() + 1);
        blobs.extend(inner.sealed.iter().cloned());
        if inner.active_records > 0 {
            blobs.push(Arc::new(inner.active.clone()));
        }
        blobs
    }

    /// Reconstructs a log from a binary segment sequence, tolerating a torn
    /// tail in the **final** segment only (see [`crate::segment`]). The
    /// reconstructed log re-rotates under `capacity`.
    pub fn deserialize_segments(
        blobs: &[impl AsRef<[u8]>],
        capacity: usize,
    ) -> Result<(Self, Option<WalCodecError>), WalCodecError> {
        let (records, torn) = crate::segment::decode_segments(blobs)?;
        Ok((Self::from_records(records, capacity), torn))
    }

    /// Reconstructs a log from its serialised form. Empty input yields an
    /// empty log; anything else must start with the version header. Any
    /// failing record — torn tail or interior corruption alike, including a
    /// torn final record that the per-record checksum catches even when the
    /// tear leaves a well-formed shorter record behind — yields a
    /// [`WalCodecError`] rather than panicking. Use
    /// [`Wal::deserialize_prefix`] when recovery should fall back to the
    /// prefix of the log that did reach stable storage.
    pub fn deserialize(data: &str) -> Result<Self, WalCodecError> {
        match Self::deserialize_prefix(data)? {
            (wal, None) => Ok(wal),
            (_, Some(torn)) => Err(torn),
        }
    }

    /// Like [`Wal::deserialize`], but implements the torn-tail contract (see
    /// the module docs): a record that fails on the **final** non-empty line
    /// is a legitimate torn tail — the intact prefix is returned together
    /// with the tear as a note, and recovery proceeds from it. A record that
    /// fails with intact lines *after* it is interior corruption — data
    /// loss, not a tear — and is a hard error: truncating there would
    /// silently discard every intact record behind the hole.
    pub fn deserialize_prefix(data: &str) -> Result<(Self, Option<WalCodecError>), WalCodecError> {
        let mut last_content_line = None;
        for (idx, line) in data.lines().enumerate() {
            if !line.trim().is_empty() {
                last_content_line = Some(idx + 1);
            }
        }
        let mut records = Vec::new();
        let mut seen_header = false;
        let mut torn = None;
        for (idx, line) in data.lines().enumerate() {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let result = if !seen_header {
                if line.trim() == WAL_HEADER {
                    seen_header = true;
                    continue;
                }
                Err(WalCodecError::new(
                    line_no,
                    format!("missing or unsupported header (expected {WAL_HEADER:?}, got {line:?})"),
                ))
            } else {
                decode_checksummed_record(line_no, line)
            };
            match result {
                Ok(record) => records.push(record),
                Err(err) if Some(line_no) == last_content_line => {
                    torn = Some(err);
                    break;
                }
                Err(err) => {
                    return Err(WalCodecError::new(
                        err.line,
                        format!("interior corruption (intact records follow): {}", err.message),
                    ))
                }
            }
        }
        Ok((Self::from_records(records, DEFAULT_SEGMENT_RECORDS), torn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::{NodeId, TableId, WorkerId};

    fn txn(seq: u32) -> TxnId {
        TxnId::compose(seq, NodeId(0), WorkerId(0))
    }

    fn tuple(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    fn sample_wal() -> Wal {
        let wal = Wal::new();
        wal.append(LogRecord::ColdWrite {
            txn: txn(3),
            tuple: tuple(9),
            before: Value::from_fields(&[1, 7, 9]),
            after: Value::from_fields(&[2, 7, 9]),
        });
        wal.append(LogRecord::SwitchIntent {
            txn: txn(3),
            ops: vec![
                LoggedSwitchOp { tuple: tuple(1), op: OpCode::Add, operand: 2, operand_from: None },
                LoggedSwitchOp { tuple: tuple(2), op: OpCode::CondSub, operand: 5, operand_from: Some(0) },
            ],
        });
        wal.append(LogRecord::SwitchResult {
            txn: txn(3),
            gid: GlobalTxnId(0),
            results: vec![(tuple(1), 3), (tuple(2), 95)],
        });
        wal.append(LogRecord::Commit { txn: txn(3) });
        wal.append(LogRecord::Abort { txn: txn(4) });
        wal
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let wal = Wal::new();
        let a = wal.append(LogRecord::Commit { txn: txn(1) });
        let b = wal.append(LogRecord::Abort { txn: txn(2) });
        assert_eq!((a, b), (0, 1));
        assert_eq!(wal.len(), 2);
    }

    #[test]
    fn append_group_is_contiguous_and_serialises_identically() {
        // The same records, appended singly and as a group, must produce the
        // same log — byte-identical once serialised.
        let singles = sample_wal();
        let grouped = Wal::new();
        let first = grouped.append_group(singles.records());
        assert_eq!(first, Some(0));
        assert_eq!(grouped.append_group(Vec::new()), None, "an empty batch has no LSN");
        assert_eq!(grouped.records(), singles.records());
        assert_eq!(grouped.serialize(), singles.serialize());
        // The next single append lands right after the group.
        let lsn = grouped.append(LogRecord::Commit { txn: txn(9) });
        assert_eq!(lsn, singles.len() as u64);
    }

    /// Every intent is immediately followed by its own commit: groups are
    /// atomic with respect to each other and to snapshots.
    fn assert_whole_groups(records: &[LogRecord]) {
        assert_eq!(records.len() % 2, 0, "a snapshot split a group");
        for pair in records.chunks(2) {
            assert!(matches!(pair[0], LogRecord::SwitchIntent { .. }));
            assert!(matches!(pair[1], LogRecord::Commit { .. }));
            assert_eq!(pair[0].txn(), pair[1].txn());
        }
    }

    #[test]
    fn concurrent_append_groups_never_interleave() {
        // Capacity 7: two-record groups straddle every other segment
        // boundary, so sealing happens mid-group under contention.
        let wal = Wal::with_segment_capacity(7);
        let start = std::sync::Barrier::new(5);
        let running = std::sync::atomic::AtomicUsize::new(4);
        std::thread::scope(|scope| {
            for i in 0..4u16 {
                let (wal, start, running) = (&wal, &start, &running);
                scope.spawn(move || {
                    start.wait();
                    for s in 0..100u32 {
                        let t = TxnId::compose(s, NodeId(0), WorkerId(i));
                        wal.append_group(vec![
                            LogRecord::SwitchIntent { txn: t, ops: vec![] },
                            LogRecord::Commit { txn: t },
                        ]);
                    }
                    running.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            // The reader races the appenders: every snapshot is a whole
            // number of groups, decodes with no tear, has contiguous segment
            // LSNs (decode_segments checks them) and only ever grows.
            start.wait();
            let mut seen = 0;
            loop {
                let done = running.load(std::sync::atomic::Ordering::SeqCst) == 0;
                let blobs = wal.serialize_segments();
                let views: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
                let (records, torn) = crate::segment::decode_segments(&views).expect("snapshot decodes");
                assert!(torn.is_none(), "snapshot tore: {torn:?}");
                assert!(records.len() >= seen, "the log shrank");
                seen = records.len();
                assert_whole_groups(&records);
                if done {
                    break;
                }
            }
            assert_eq!(seen, 800);
        });
        assert_eq!(wal.len(), 800);
        assert_whole_groups(&wal.records());
    }

    #[test]
    fn records_snapshot_preserves_order() {
        let wal = Wal::new();
        wal.append(LogRecord::SwitchIntent {
            txn: txn(1),
            ops: vec![LoggedSwitchOp { tuple: tuple(1), op: OpCode::Add, operand: 2, operand_from: None }],
        });
        wal.append(LogRecord::SwitchResult { txn: txn(1), gid: GlobalTxnId(7), results: vec![(tuple(1), 3)] });
        wal.append(LogRecord::Commit { txn: txn(1) });
        let records = wal.records();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0], LogRecord::SwitchIntent { .. }));
        assert!(matches!(records[2], LogRecord::Commit { .. }));
        assert_eq!(records[1].txn(), txn(1));
    }

    #[test]
    fn serialise_roundtrip_is_exact() {
        let wal = sample_wal();
        let data = wal.serialize();
        assert!(data.starts_with(WAL_HEADER));
        let restored = Wal::deserialize(&data).unwrap();
        assert_eq!(restored.records(), wal.records());
        // Round-tripping the restored log reproduces the byte-identical text.
        assert_eq!(restored.serialize(), data);
    }

    #[test]
    fn empty_roundtrip() {
        let wal = Wal::new();
        let restored = Wal::deserialize(&wal.serialize()).unwrap();
        assert!(restored.is_empty());
        assert!(Wal::deserialize("").unwrap().is_empty());
        assert!(Wal::deserialize("  \n\n").unwrap().is_empty());
    }

    /// A serialised log with one hand-written record body, checksummed the
    /// way `serialize` would, so tests can exercise body-level parsing.
    fn checksummed(body: &str) -> String {
        format!("p4dbwal 1\n{body} #{:016x}\n", fnv1a(body))
    }

    #[test]
    fn deserialize_rejects_garbage() {
        let err = Wal::deserialize("not a wal\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("header"), "{err}");
        let err = Wal::deserialize(&checksummed("xy 12")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown record tag"), "{err}");
        // A record line without a checksum token is refused outright.
        let err = Wal::deserialize("p4dbwal 1\nc 1\n").unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
        // Wrong version is refused rather than misparsed.
        assert!(Wal::deserialize("p4dbwal 99\nc 1\n").is_err());
    }

    #[test]
    fn torn_final_record_is_an_error_not_a_panic() {
        let wal = sample_wal();
        let data = wal.serialize();
        let last_line_start = data.trim_end().rfind('\n').unwrap() + 1;
        // A crash mid-flush leaves a prefix of the final line: every possible
        // tear point must yield an error, not a silently different record.
        for cut in last_line_start + 1..data.len() - 1 {
            if !data.is_char_boundary(cut) {
                continue;
            }
            let torn = &data[..cut];
            let err = Wal::deserialize(torn).unwrap_err();
            assert!(err.message.contains("checksum") || err.message.contains("truncated"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn torn_record_that_stays_well_formed_is_still_detected() {
        // "c 10" torn to "c 1" is a different, valid-looking record; the
        // checksum is what catches it.
        let wal = Wal::new();
        wal.append(LogRecord::Commit { txn: TxnId(10) });
        let body = "c 10";
        let crc = fnv1a(body);
        let torn = format!("p4dbwal 1\nc 1 #{crc:016x}\n");
        let err = Wal::deserialize(&torn).unwrap_err();
        assert!(err.message.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn flipped_byte_in_body_is_detected() {
        let data = sample_wal().serialize();
        let corrupted = data.replacen("1,7,9", "1,7,8", 1);
        assert_ne!(corrupted, data);
        let err = Wal::deserialize(&corrupted).unwrap_err();
        assert!(err.message.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn deserialize_prefix_recovers_intact_records() {
        let wal = sample_wal();
        let data = wal.serialize();
        // Tear the final line in half: the first four records survive and
        // the tear is reported as a note, not an error.
        let last_line_start = data.trim_end().rfind('\n').unwrap() + 1;
        let torn = &data[..last_line_start + 3];
        let (prefix, err) = Wal::deserialize_prefix(torn).unwrap();
        assert!(err.is_some());
        assert_eq!(prefix.records(), wal.records()[..4].to_vec());
        // A clean log recovers fully with no error.
        let (full, err) = Wal::deserialize_prefix(&data).unwrap();
        assert!(err.is_none());
        assert_eq!(full.records(), wal.records());
    }

    #[test]
    fn interior_corruption_is_a_hard_error_not_a_shorter_prefix() {
        let wal = sample_wal();
        let data = wal.serialize();
        // Corrupt the FIRST record's body: four intact records follow, so
        // truncating to the (empty) prefix would silently lose them. Both
        // entry points must refuse.
        let corrupted = data.replacen("1,7,9", "1,7,8", 1);
        assert_ne!(corrupted, data);
        let err = Wal::deserialize_prefix(&corrupted).unwrap_err();
        assert!(err.message.contains("interior corruption"), "{err}");
        assert!(Wal::deserialize(&corrupted).is_err());
        // Deleting a middle line entirely shifts the records but leaves each
        // remaining line's own checksum intact — the log still parses; what
        // the prefix contract rules out is a *failing* record followed by
        // intact ones, which the tests above and below pin down.
        // The same corruption on the FINAL record is a legitimate torn tail:
        // flip one hex digit of the final record's checksum.
        let last_line_start = data.trim_end().rfind('\n').unwrap() + 1;
        let (body, crc) = data[last_line_start..].trim_end().rsplit_once(" #").unwrap();
        let flipped = if crc.as_bytes()[0] == b'0' { '1' } else { '0' };
        let torn_tail = format!("{}{body} #{flipped}{}\n", &data[..last_line_start], &crc[1..]);
        let (prefix, note) = Wal::deserialize_prefix(&torn_tail).unwrap();
        assert!(note.is_some());
        assert_eq!(prefix.records(), wal.records()[..4].to_vec());
    }

    #[test]
    fn segment_rotation_seals_and_roundtrips() {
        let wal = Wal::with_segment_capacity(2);
        assert_eq!(wal.segment_capacity(), 2);
        for r in sample_wal().records() {
            wal.append(r);
        }
        // 5 records at capacity 2: two sealed segments + a 1-record tail.
        let blobs = wal.serialize_segments();
        assert_eq!(blobs.len(), 3);
        let views: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        let (restored, torn) = Wal::deserialize_segments(&views, 2).unwrap();
        assert!(torn.is_none());
        assert_eq!(restored.records(), wal.records());
        // Sealed blobs are shared: serialising twice returns the same Arcs,
        // and they are exactly the chunk-wise encoding of the records.
        let again = wal.serialize_segments();
        assert!(Arc::ptr_eq(&blobs[0], &again[0]) && Arc::ptr_eq(&blobs[1], &again[1]));
        for (i, chunk) in wal.records().chunks(2).enumerate() {
            assert_eq!(*blobs[i], crate::segment::encode_segment(2 * i as u64, chunk));
        }
        // A group that crosses segment boundaries seals mid-group and keeps
        // going; it still reports its first record's LSN.
        assert_eq!(wal.append_group(sample_wal().records()), Some(5));
        assert_eq!(wal.len(), 10);
        let grown = wal.serialize_segments();
        assert_eq!(grown.len(), 5);
        assert!(Arc::ptr_eq(&blobs[0], &grown[0]) && Arc::ptr_eq(&blobs[1], &grown[1]));
        assert_eq!(wal.records_from(5), sample_wal().records());
        // An empty log has no segments.
        assert!(Wal::new().serialize_segments().is_empty());
        let (empty, torn) = Wal::deserialize_segments(&Vec::<Vec<u8>>::new(), 2).unwrap();
        assert!(empty.is_empty() && torn.is_none());
    }

    #[test]
    fn records_from_slices_the_tail() {
        let wal = sample_wal();
        assert_eq!(wal.records_from(0), wal.records());
        assert_eq!(wal.records_from(3), wal.records()[3..].to_vec());
        assert!(wal.records_from(99).is_empty());
    }

    #[test]
    fn corrupt_fields_are_rejected() {
        for bad in [
            "c notanumber",
            "cw 3 0x9 1 2",
            "cw 3 0:9 1,7,9 2,7,",
            "si 3 0:1:frobnicate:2:-",
            "sr 3 1 0:1",
            "c 1 extra",
        ] {
            assert!(Wal::deserialize(&checksummed(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn concurrent_appends_do_not_lose_records() {
        let wal = std::sync::Arc::new(Wal::new());
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for s in 0..500 {
                        wal.append(LogRecord::Commit { txn: TxnId::compose(s, NodeId(0), WorkerId(i)) });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.len(), 2000);
    }
}
