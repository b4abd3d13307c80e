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
//! That size is the codec's: a record spends a varint on its length, table
//! ids, keys and counts, a byte count plus the minimal bytes on each value,
//! and its 8-byte transaction id only when it starts a run — a record of the
//! previous record's transaction omits it, except as the first record of a
//! segment (a YCSB-A commit of four 64-bit images is 146 B). Because the
//! id depends on the previous record, the log remembers the active
//! segment's last transaction, and a segment decodes only from its header
//! on.
//!
//! [`LogRecord`] values are transient staging values: built by the executor
//! on the way in, decoded on demand on the way out. LSNs are absolute record
//! indices and every segment header carries the LSN of its first record, so
//! readers address the log by LSN through segment headers —
//! [`Wal::records_from`] skips sealed segments wholly below the requested
//! LSN without decoding them.
//!
//! ## Torn tail vs. interior corruption
//!
//! A failing record is classified by *where* it fails, and the two cases
//! have opposite meanings:
//!
//! * **Torn tail** — the failing record ends at the physical end of the
//!   **final** segment. That is exactly what a crash mid-flush produces: the
//!   prefix reached stable storage, the last record did not.
//!   [`crate::segment::decode_segment_tail`] returns the intact prefix
//!   together with the tear as a note, and recovery proceeds from the prefix.
//! * **Interior corruption** — a record fails while *intact bytes follow
//!   it*, or anywhere in a sealed (non-final) segment. No crash produces
//!   that shape; it means the medium lost data in the middle of the log, and
//!   truncating to the prefix would silently discard the intact records
//!   after the hole. This is a hard [`WalCodecError`].
//!
//! [`crate::segment`] states the rule byte by byte. A live `Wal`'s own bytes
//! were written by its own encoder, so failing to decode them is a bug, not
//! a tear — the in-memory readers assert.

use p4db_common::sync::unpoison;
use p4db_common::{GlobalTxnId, TupleId, TxnId, Value};
use p4db_switch::OpCode;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default number of records per log segment before the active tail is
/// sealed and a new one started (see [`Wal::serialize_segments`]).
pub const DEFAULT_SEGMENT_RECORDS: usize = 512;

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

/// A decode failure while reconstructing a log (or a checkpoint) from its
/// bytes, pointing at the offending record or frame: a 1-based index within
/// its segment or checkpoint, 0 for a header. Torn trailing records — a
/// crash mid-flush — surface here as a regular error the caller can handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalCodecError {
    pub record: usize,
    pub message: String,
}

impl fmt::Display for WalCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WAL decode error at record {}: {}", self.record, self.message)
    }
}

impl std::error::Error for WalCodecError {}

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
    /// The transaction of the active segment's last record: a next record
    /// of the same transaction omits its id. `None` while the segment is
    /// empty, so a segment's first record always carries it.
    active_txn: Option<TxnId>,
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
        crate::segment::encode_record(&mut self.active, self.active_txn, record);
        self.active_txn = Some(record.txn());
        self.active_records += 1;
        self.len += 1;
        if self.active_records == capacity {
            let mut blob = std::mem::take(&mut self.active);
            blob.shrink_to_fit();
            self.sealed.push(Arc::new(blob));
            self.active_records = 0;
            self.active_txn = None;
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
    /// record contents are unaffected.
    pub fn with_segment_capacity(capacity: usize) -> Self {
        Wal { inner: Mutex::new(WalInner::default()), segment_capacity: capacity.max(1) }
    }

    /// Number of records per sealed segment.
    pub fn segment_capacity(&self) -> usize {
        self.segment_capacity
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
            before: Value::scalar(1),
            after: Value::scalar(2),
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
        assert_eq!(grouped.serialize_segments(), singles.serialize_segments());
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
        let (restored, torn) = crate::segment::decode_segments(&views).unwrap();
        assert!(torn.is_none());
        assert_eq!(restored, wal.records());
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
        let (empty, torn) = crate::segment::decode_segments(&Vec::<Vec<u8>>::new()).unwrap();
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
