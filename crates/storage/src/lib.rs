//! # p4db-storage
//!
//! Host-side storage of the shared-nothing distributed DBMS that P4DB is
//! integrated into (§6): per-node in-memory tables, row-granularity 2PL
//! locks (each held in its row) with the NO_WAIT and WAIT_DIE
//! deadlock-prevention variants, the per-node write-ahead log with the
//! switch-GID protocol, and the recovery procedures for both switch state
//! and node state.

pub mod checkpoint;
pub mod locks;
pub mod mvcc;
pub mod node;
pub mod recovery;
pub mod segment;
pub mod table;
pub mod wal;

pub use checkpoint::{decode_checkpoint, take_fuzzy_checkpoint, Checkpoint, CheckpointStore, ShardRows};
pub use locks::{LockMode, LockTable, LockWaitStats, RowLock};
pub use mvcc::{CommitClock, MvccState, SnapshotRegistry, SnapshotSlot, IDLE_SNAPSHOT};
pub use node::{Grant, NodeStorage};
pub use recovery::{
    recover_cold_records, recover_cold_state, recover_switch_state, replay_logged_op, replay_logged_txn,
    LoggedOpEffect, SwitchRecoveryOutcome,
};
pub use segment::{
    decode_segment_prefix, decode_segment_tail, decode_segments, encode_segment, peek_base_lsn, SegmentPrefix,
    SEGMENT_MAGIC,
};
pub use table::{Row, RowHandle, Table, DEFAULT_TABLE_SHARDS};
pub use wal::{LogRecord, LoggedSwitchOp, Wal, WalCodecError, DEFAULT_SEGMENT_RECORDS};
