//! Fuzzy per-shard checkpoints of one node's partition.
//!
//! A checkpoint bounds recovery time: instead of replaying a node's history
//! from genesis, a restart loads the latest **complete** checkpoint and
//! replays only the WAL tail behind its fence. The scan is *fuzzy* in the
//! classical sense — each table shard is snapshotted independently under its
//! own read latch ([`crate::table::Table::for_each_in_shard`]), so the node
//! is never globally paused while the checkpoint is written. What makes the
//! fuzzy image sound is the WAL's group-commit atomicity: a transaction's
//! cold writes are appended in **one group** with their `Commit`/`Abort`
//! record, so whatever in-progress value a shard scan happens to capture,
//! the transaction's verdict and its before/after images land in the tail
//! behind the fence, and tail replay (`recover_cold_records`) rewrites the
//! row to the correct image.
//!
//! ## Fences
//!
//! Every coordinator logs its own cold writes, so a checkpoint of node *N*
//! records one **start fence per coordinator WAL** — the WAL length observed
//! *before* the shard scans begin. Recovery replays each coordinator's
//! records from its start fence; end fences are recorded for reporting (how
//! much traffic overlapped the scan).
//!
//! ## Wire format and torn checkpoints
//!
//! ```text
//! checkpoint := magic frame*
//! magic      := "P4CK" 0x02                    (5 bytes)
//! frame      := len:u32 LE  body  crc:u64 LE   (crc over len+body bytes)
//! body       := tag:u8 fields…                 (all integers LE)
//! ```
//!
//! Frame bodies: `1` header (node:u16, generation, `n:u16` coordinator
//! fences of start/end u64 pairs), `2` shard rows (table:u16, shard:u32,
//! `n:u32` rows of key:u64 + value), `3` footer (shard-frame count:u32,
//! total row count:u64). A value and the checksum are those of the WAL's
//! segment codec ([`crate::segment`]): a byte count and the value's minimal
//! little-endian bytes, and its word-wise 64-bit checksum. The footer must
//! be the final frame and its counts must match — a checkpoint cut short
//! mid-write (a crash during the checkpoint) fails decoding and the whole
//! generation is **skipped**, falling back to the previous complete one.
//! Unlike the WAL there is no torn-*tail* salvage: a checkpoint is
//! all-or-nothing, which is what makes skipping a torn generation safe (the
//! WAL behind the older fence is still intact).

use crate::node::NodeStorage;
use crate::segment::{checksum, put_u64, put_value, BodyReader};
use crate::wal::{Wal, WalCodecError};
use p4db_common::sync::unpoison;
use p4db_common::{NodeId, TableId, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Versioned magic opening every checkpoint blob.
pub const CHECKPOINT_MAGIC: &[u8; 5] = b"P4CK\x02";

/// How many checkpoint generations a [`CheckpointStore`] retains. Two: the
/// newest (possibly torn by a crash mid-write) and the previous complete one
/// to fall back to.
pub const KEPT_GENERATIONS: usize = 2;

/// The rows of one `(table, shard)` cell, captured under that shard's latch.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardRows {
    pub table: TableId,
    pub shard: u32,
    pub rows: Vec<(u64, Value)>,
}

/// A decoded checkpoint of one node's partition.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The node whose partition was snapshotted.
    pub node: NodeId,
    /// Monotonic generation number (assigned by the [`CheckpointStore`]).
    pub generation: u64,
    /// Per-coordinator WAL lengths *before* the shard scans began; recovery
    /// replays each coordinator's records from this fence.
    pub start_fence: Vec<u64>,
    /// Per-coordinator WAL lengths after the last shard scan (reporting).
    pub end_fence: Vec<u64>,
    /// Every shard of every table, in scan order.
    pub shards: Vec<ShardRows>,
}

impl Checkpoint {
    /// Total rows captured across all shards.
    pub fn total_rows(&self) -> usize {
        self.shards.iter().map(|s| s.rows.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    put_u32(out, 0); // length placeholder
    start
}

fn end_frame(out: &mut Vec<u8>, start: usize) {
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    let crc = checksum(&out[start..]);
    put_u64(out, crc);
}

/// Takes a fuzzy checkpoint of `target`'s partition: captures the start
/// fences of every coordinator WAL, scans each table shard independently
/// under its read latch, captures the end fences, and encodes the blob.
/// Never blocks writers outside the one shard currently being scanned.
pub fn take_fuzzy_checkpoint(target: &NodeStorage, coordinator_wals: &[&Wal], generation: u64) -> Vec<u8> {
    // Fences BEFORE any scan: a write racing the scan is then guaranteed to
    // have its commit/abort group behind some fence, whichever value the
    // scan captured.
    let start_fence: Vec<u64> = coordinator_wals.iter().map(|w| w.len() as u64).collect();

    let mut shards: Vec<ShardRows> = Vec::new();
    for id in target.table_ids() {
        let table = target.table(id).expect("declared table");
        for shard in 0..table.shard_count() {
            let mut rows: Vec<(u64, Value)> = Vec::new();
            table.for_each_in_shard(shard, |key, row| rows.push((key, row.read())));
            shards.push(ShardRows { table: id, shard: shard as u32, rows });
        }
    }
    let end_fence: Vec<u64> = coordinator_wals.iter().map(|w| w.len() as u64).collect();

    let mut out = Vec::with_capacity(64 + shards.iter().map(|s| 20 + s.rows.len() * 24).sum::<usize>());
    out.extend_from_slice(CHECKPOINT_MAGIC);
    // Header frame.
    let at = begin_frame(&mut out);
    out.push(1);
    put_u16(&mut out, target.node().0);
    put_u64(&mut out, generation);
    put_u16(&mut out, start_fence.len() as u16);
    for (s, e) in start_fence.iter().zip(&end_fence) {
        put_u64(&mut out, *s);
        put_u64(&mut out, *e);
    }
    end_frame(&mut out, at);
    // Shard frames.
    let mut total_rows = 0u64;
    for cell in &shards {
        let at = begin_frame(&mut out);
        out.push(2);
        put_u16(&mut out, cell.table.0);
        put_u32(&mut out, cell.shard);
        put_u32(&mut out, cell.rows.len() as u32);
        for (key, value) in &cell.rows {
            put_u64(&mut out, *key);
            put_value(&mut out, value);
        }
        end_frame(&mut out, at);
        total_rows += cell.rows.len() as u64;
    }
    // Completeness footer.
    let at = begin_frame(&mut out);
    out.push(3);
    put_u32(&mut out, shards.len() as u32);
    put_u64(&mut out, total_rows);
    end_frame(&mut out, at);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes a checkpoint blob. **Any** defect — truncation anywhere, a
/// checksum mismatch, a missing or mismatched footer — is an error: a torn
/// checkpoint is skipped wholesale, never partially loaded.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, WalCodecError> {
    let magic_len = CHECKPOINT_MAGIC.len();
    if bytes.len() < magic_len || &bytes[..magic_len] != CHECKPOINT_MAGIC {
        return Err(WalCodecError { record: 0, message: "bad checkpoint magic (not a P4CK v2 checkpoint)".into() });
    }
    let mut at = magic_len;
    let mut frame_no = 0usize;
    let mut header: Option<(NodeId, u64, Vec<u64>, Vec<u64>)> = None;
    let mut shards: Vec<ShardRows> = Vec::new();
    let mut footer: Option<(u32, u64)> = None;
    while at < bytes.len() {
        frame_no += 1;
        let err = |message: String| WalCodecError { record: frame_no, message };
        if footer.is_some() {
            return Err(err("frame after the checkpoint footer".into()));
        }
        if bytes.len() - at < 4 {
            return Err(err(format!("torn checkpoint: truncated frame length at byte {at}")));
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let body_end = at + 4 + len;
        let frame_end = body_end + 8;
        if frame_end > bytes.len() {
            return Err(err(format!("torn checkpoint: truncated frame at byte {at}")));
        }
        let stored = u64::from_le_bytes(bytes[body_end..frame_end].try_into().expect("8 bytes"));
        let actual = checksum(&bytes[at..body_end]);
        if stored != actual {
            return Err(err(format!("checkpoint frame checksum mismatch at byte {at}")));
        }
        let mut r = BodyReader { bytes: &bytes[at + 4..body_end], at: 0, record: frame_no };
        let tag = r.u8("frame tag")?;
        match tag {
            1 => {
                if header.is_some() {
                    return Err(err("duplicate checkpoint header frame".into()));
                }
                let node = NodeId(r.u16("node id")?);
                let generation = r.u64("generation")?;
                let n = r.u16("fence count")? as usize;
                let mut start = Vec::with_capacity(n);
                let mut end = Vec::with_capacity(n);
                for _ in 0..n {
                    start.push(r.u64("start fence")?);
                    end.push(r.u64("end fence")?);
                }
                header = Some((node, generation, start, end));
            }
            2 => {
                if header.is_none() {
                    return Err(err("shard frame before the checkpoint header".into()));
                }
                let table = TableId(r.u16("table id")?);
                let shard = u32::from_le_bytes(r.take(4, "shard index")?.try_into().expect("4 bytes"));
                let n = u32::from_le_bytes(r.take(4, "row count")?.try_into().expect("4 bytes")) as usize;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = r.u64("row key")?;
                    let value = r.value("row value")?;
                    rows.push((key, value));
                }
                shards.push(ShardRows { table, shard, rows });
            }
            3 => {
                let frames = u32::from_le_bytes(r.take(4, "shard frame count")?.try_into().expect("4 bytes"));
                let rows = r.u64("total row count")?;
                footer = Some((frames, rows));
            }
            other => return Err(err(format!("unknown checkpoint frame tag {other}"))),
        }
        if r.at != r.bytes.len() {
            return Err(err(format!("{} trailing garbage bytes in checkpoint frame", r.bytes.len() - r.at)));
        }
        at = frame_end;
    }
    let (node, generation, start_fence, end_fence) =
        header.ok_or(WalCodecError { record: 0, message: "checkpoint has no header frame".into() })?;
    let (frames, rows) = footer
        .ok_or(WalCodecError { record: frame_no, message: "torn checkpoint: missing completeness footer".into() })?;
    let total: u64 = shards.iter().map(|s| s.rows.len() as u64).sum();
    if frames as usize != shards.len() || rows != total {
        return Err(WalCodecError {
            record: frame_no,
            message: format!(
                "checkpoint footer disagrees with contents ({} shard frames / {total} rows seen, footer says \
                 {frames} / {rows})",
                shards.len()
            ),
        });
    }
    Ok(Checkpoint { node, generation, start_fence, end_fence, shards })
}

// ---------------------------------------------------------------------------
// The per-node checkpoint store
// ---------------------------------------------------------------------------

/// Retains the last [`KEPT_GENERATIONS`] checkpoint blobs of one node, the
/// way a checkpoint directory on disk would. The newest generation may be
/// torn (a crash can land mid-write); [`CheckpointStore::latest_complete`]
/// decodes newest-first and silently skips torn generations.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    blobs: Mutex<Vec<Arc<Vec<u8>>>>,
    next_generation: AtomicU64,
}

impl CheckpointStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the next generation number (bake it into the blob before
    /// [`CheckpointStore::install`]).
    pub fn begin_generation(&self) -> u64 {
        self.next_generation.fetch_add(1, Ordering::Relaxed)
    }

    /// Installs a freshly written checkpoint blob, evicting all but the last
    /// [`KEPT_GENERATIONS`].
    pub fn install(&self, blob: Vec<u8>) {
        let mut blobs = unpoison(self.blobs.lock());
        blobs.push(Arc::new(blob));
        let len = blobs.len();
        if len > KEPT_GENERATIONS {
            blobs.drain(..len - KEPT_GENERATIONS);
        }
    }

    /// Number of retained generations.
    pub fn generations(&self) -> usize {
        unpoison(self.blobs.lock()).len()
    }

    /// Decodes the newest complete checkpoint, skipping torn generations.
    pub fn latest_complete(&self) -> Option<Checkpoint> {
        let blobs = unpoison(self.blobs.lock()).clone();
        blobs.iter().rev().find_map(|blob| decode_checkpoint(blob).ok())
    }

    /// Simulates a crash *during* a checkpoint write by cutting the newest
    /// blob down to its first `keep` bytes (chaos drills). Returns `false`
    /// when there is no checkpoint to tear.
    pub fn tear_latest(&self, keep: usize) -> bool {
        let mut blobs = unpoison(self.blobs.lock());
        match blobs.last_mut() {
            Some(blob) => {
                let torn = blob[..keep.min(blob.len())].to_vec();
                *blob = Arc::new(torn);
                true
            }
            None => false,
        }
    }

    /// Drops every retained generation (a node whose checkpoint directory
    /// was lost recovers from genesis).
    pub fn clear(&self) {
        unpoison(self.blobs.lock()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::LogRecord;
    use p4db_common::TxnId;

    fn storage_with_rows() -> NodeStorage {
        let storage = NodeStorage::with_shards(NodeId(1), [TableId(0), TableId(3)], 4);
        for key in 0..100u64 {
            storage.table(TableId(0)).unwrap().insert(key, Value::scalar(key * 2));
        }
        storage.table(TableId(3)).unwrap().insert(7, Value::scalar(u64::MAX));
        storage
    }

    #[test]
    fn checkpoint_roundtrip_preserves_rows_and_fences() {
        let storage = storage_with_rows();
        let wal_a = Wal::new();
        let wal_b = Wal::new();
        wal_a.append(LogRecord::Commit { txn: TxnId(1) });
        wal_a.append(LogRecord::Commit { txn: TxnId(2) });
        let blob = take_fuzzy_checkpoint(&storage, &[&wal_a, &wal_b], 9);
        let ckpt = decode_checkpoint(&blob).unwrap();
        assert_eq!(ckpt.node, NodeId(1));
        assert_eq!(ckpt.generation, 9);
        assert_eq!(ckpt.start_fence, vec![2, 0]);
        assert_eq!(ckpt.end_fence, vec![2, 0]);
        assert_eq!(ckpt.total_rows(), 101);
        // 4 shards per table × 2 tables, every shard present even if empty.
        assert_eq!(ckpt.shards.len(), 8);
        let mut recovered: Vec<(TableId, u64, u64)> =
            ckpt.shards.iter().flat_map(|s| s.rows.iter().map(move |(k, v)| (s.table, *k, v.switch_word()))).collect();
        recovered.sort();
        let mut expected: Vec<(TableId, u64, u64)> = (0..100).map(|k| (TableId(0), k, k * 2)).collect();
        expected.push((TableId(3), 7, u64::MAX));
        expected.sort();
        assert_eq!(recovered, expected);
        // Shard routing matches the table's own: every row sits in the shard
        // frame recovery would route its key to.
        for cell in &ckpt.shards {
            let table = storage.table(cell.table).unwrap();
            for (key, _) in &cell.rows {
                assert_eq!(table.shard_of(*key) as u32, cell.shard);
            }
        }
    }

    #[test]
    fn every_truncation_of_a_checkpoint_is_detected() {
        let storage = storage_with_rows();
        let wal = Wal::new();
        let blob = take_fuzzy_checkpoint(&storage, &[&wal], 0);
        assert!(decode_checkpoint(&blob).is_ok());
        for cut in 0..blob.len() {
            assert!(decode_checkpoint(&blob[..cut]).is_err(), "truncation to {cut} bytes decoded as complete");
        }
        // A flipped byte anywhere in a frame is caught by its checksum.
        let mut corrupt = blob.clone();
        corrupt[CHECKPOINT_MAGIC.len() + 10] ^= 0x01;
        assert!(decode_checkpoint(&corrupt).is_err());
        // And garbage is not a checkpoint at all.
        assert!(decode_checkpoint(b"hello").unwrap_err().message.contains("magic"));
    }

    #[test]
    fn store_keeps_two_generations_and_falls_back_past_a_torn_one() {
        let storage = storage_with_rows();
        let wal = Wal::new();
        let store = CheckpointStore::new();
        assert!(store.latest_complete().is_none());
        assert!(!store.tear_latest(10), "nothing to tear yet");

        for _ in 0..3 {
            let generation = store.begin_generation();
            store.install(take_fuzzy_checkpoint(&storage, &[&wal], generation));
        }
        assert_eq!(store.generations(), KEPT_GENERATIONS, "only the last two generations are retained");
        assert_eq!(store.latest_complete().unwrap().generation, 2);

        // Tear the newest mid-write: recovery falls back to generation 1.
        assert!(store.tear_latest(40));
        assert_eq!(store.latest_complete().unwrap().generation, 1);

        // Both torn: recovery reports no usable checkpoint (genesis replay).
        let mut blobs = unpoison(store.blobs.lock());
        for blob in blobs.iter_mut() {
            *blob = Arc::new(blob[..30].to_vec());
        }
        drop(blobs);
        assert!(store.latest_complete().is_none());
        store.clear();
        assert_eq!(store.generations(), 0);
    }
}
