//! Switch resource configuration.

/// How the pipeline locks used for multi-pass transactions are organised
/// (§5.3 "Fine-grained Locking").
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockGranularity {
    /// A single pipeline lock: at most one multi-pass transaction in the
    /// pipeline at a time (the naïve fallback scheme of §5.2).
    Coarse,
    /// The 2-bit lock of Listing 1: the pipeline is split into a *left* and a
    /// *right* half, each protected by its own lock bit, so two multi-pass
    /// transactions touching disjoint halves can be in flight concurrently.
    FineGrained,
}

/// Static resources and feature switches of the simulated Tofino.
///
/// The defaults approximate the switch used in the paper: roughly 820K 8-byte
/// register cells usable for hot tuples per pipeline (§2.3), spread over the
/// MAU stages.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SwitchConfig {
    /// Number of MAU stages in the pipeline.
    pub num_stages: u8,
    /// Register arrays per stage.
    pub arrays_per_stage: u8,
    /// Cells per register array.
    pub slots_per_array: u32,
    /// Pipeline lock organisation.
    pub lock_granularity: LockGranularity,
    /// Whether the dedicated recirculation port for lock owners is enabled
    /// (§5.3 "Fast Recirculating"). When disabled, lock owners share the
    /// waiting queue with blocked transactions.
    pub fast_recirculation: bool,
    /// Per-pass pipeline latency in nanoseconds (models the time a packet
    /// spends traversing the MAU stages once).
    pub pass_latency_ns: u64,
    /// Whether the data plane keeps an audit log of executed transactions
    /// (`(TxnId, GID)` pairs, in serial execution order). The chaos harness
    /// uses it as ground truth for exactly-once checking; it is off in the
    /// performance profiles because the log grows with every transaction.
    pub audit_data_plane: bool,
    /// How many ingress packets the engine dequeues and executes per
    /// scheduling quantum, and the upper bound on how many replies it
    /// coalesces into one egress frame per destination. `1` reproduces the
    /// unbatched one-packet-per-loop behaviour exactly; larger values
    /// amortise the per-message channel/wake-up cost and model the pipelining
    /// of back-to-back single-pass packets (§4.1: packets already in the
    /// pipeline occupy consecutive cycles). The intra-quantum serial order is
    /// preserved — and recorded in the data-plane audit log — so batching is
    /// invisible to the isolation argument of §5.1.
    pub batch_size: u16,
}

impl SwitchConfig {
    /// Paper-like defaults: 10 usable stages × 4 arrays × 20 480 cells
    /// = 819 200 8-byte cells ≈ the ~820K hot tuples per pipeline quoted in
    /// §2.3, with all §5.3 optimizations enabled.
    pub const fn tofino_defaults() -> Self {
        SwitchConfig {
            num_stages: 10,
            arrays_per_stage: 4,
            slots_per_array: 20_480,
            lock_granularity: LockGranularity::FineGrained,
            fast_recirculation: true,
            pass_latency_ns: 60,
            audit_data_plane: false,
            batch_size: 1,
        }
    }

    /// A small configuration for unit tests: tiny memory, still multiple
    /// stages/arrays so layout logic is exercised.
    pub const fn tiny() -> Self {
        SwitchConfig {
            num_stages: 4,
            arrays_per_stage: 2,
            slots_per_array: 64,
            lock_granularity: LockGranularity::FineGrained,
            fast_recirculation: true,
            pass_latency_ns: 0,
            audit_data_plane: true,
            batch_size: 1,
        }
    }

    /// Configuration with all §5.3 optimizations disabled and no declustering
    /// assumed — the "Unoptimized" baseline of Fig 15c.
    pub const fn unoptimized() -> Self {
        SwitchConfig { lock_granularity: LockGranularity::Coarse, fast_recirculation: false, ..Self::tofino_defaults() }
    }

    /// Derives a configuration whose total capacity is (close to, rounding
    /// up) `rows` cells, used by the Fig 17 capacity sweep. Stage and array
    /// counts stay fixed; only the array depth shrinks/grows.
    pub fn with_total_rows(mut self, rows: u64) -> Self {
        let arrays = self.num_stages as u64 * self.arrays_per_stage as u64;
        self.slots_per_array = rows.div_ceil(arrays).max(1) as u32;
        self
    }

    /// Total number of register cells on the switch.
    pub fn total_slots(&self) -> u64 {
        self.num_stages as u64 * self.arrays_per_stage as u64 * self.slots_per_array as u64
    }

    /// Total register SRAM in bytes (8 bytes per cell).
    pub fn total_bytes(&self) -> u64 {
        self.total_slots() * 8
    }

    /// Number of pipeline locks implied by the lock granularity.
    pub fn num_locks(&self) -> u8 {
        match self.lock_granularity {
            LockGranularity::Coarse => 1,
            LockGranularity::FineGrained => 2,
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_stages == 0 {
            return Err("switch must have at least one MAU stage".into());
        }
        if self.arrays_per_stage == 0 {
            return Err("each stage needs at least one register array".into());
        }
        if self.slots_per_array == 0 {
            return Err("register arrays must have at least one cell".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be at least 1 (1 = unbatched)".into());
        }
        Ok(())
    }
}

impl Default for SwitchConfig {
    fn default() -> Self {
        Self::tofino_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_matches_paper_ballpark() {
        let c = SwitchConfig::tofino_defaults();
        assert!(c.total_slots() >= 800_000 && c.total_slots() <= 850_000);
        assert!(c.total_bytes() >= 6 * 1024 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn with_total_rows_hits_requested_capacity() {
        for rows in [1_000u64, 10_000, 65_000, 650_000] {
            let c = SwitchConfig::tofino_defaults().with_total_rows(rows);
            assert!(c.total_slots() >= rows, "requested {rows}, got {}", c.total_slots());
            // Rounding slack is bounded by one cell per array.
            assert!(c.total_slots() < rows + c.num_stages as u64 * c.arrays_per_stage as u64);
        }
    }

    #[test]
    fn lock_count_follows_granularity() {
        assert_eq!(SwitchConfig::unoptimized().num_locks(), 1);
        assert_eq!(SwitchConfig::tofino_defaults().num_locks(), 2);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut c = SwitchConfig::tiny();
        c.num_stages = 0;
        assert!(c.validate().is_err());
        let mut c = SwitchConfig::tiny();
        c.arrays_per_stage = 0;
        assert!(c.validate().is_err());
        let mut c = SwitchConfig::tiny();
        c.slots_per_array = 0;
        assert!(c.validate().is_err());
    }
}
