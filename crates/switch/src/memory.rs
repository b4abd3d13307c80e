//! The switch's stateful memory: register arrays partitioned over MAU stages.
//!
//! Cells are `AtomicU64` so that the control plane (offload, recovery,
//! snapshots) can inspect memory while the engine owns the data path; during
//! normal processing the engine is the only writer — whichever thread runs
//! the pipeline holds it exclusively — so all accesses use relaxed ordering
//! and there is no cross-thread contention on the hot path.

use crate::config::SwitchConfig;
use crate::instruction::{apply_op, InstrResult, Instruction, RegisterSlot};
use std::sync::atomic::{AtomicU64, Ordering};

/// All register arrays of one pipeline.
#[derive(Debug)]
pub struct RegisterMemory {
    config: SwitchConfig,
    /// `stages[stage][array]` is a boxed slice of cells.
    stages: Vec<Vec<Box<[AtomicU64]>>>,
}

impl RegisterMemory {
    /// Allocates (zero-initialised) register memory for `config`.
    pub fn new(config: SwitchConfig) -> Self {
        config.validate().expect("invalid switch configuration");
        let stages = (0..config.num_stages)
            .map(|_| {
                (0..config.arrays_per_stage)
                    .map(|_| {
                        (0..config.slots_per_array).map(|_| AtomicU64::new(0)).collect::<Vec<_>>().into_boxed_slice()
                    })
                    .collect()
            })
            .collect();
        RegisterMemory { config, stages }
    }

    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Whether `slot` addresses an existing cell.
    pub fn slot_in_bounds(&self, slot: RegisterSlot) -> bool {
        slot.stage < self.config.num_stages
            && slot.array < self.config.arrays_per_stage
            && slot.index < self.config.slots_per_array
    }

    #[inline]
    fn cell(&self, slot: RegisterSlot) -> &AtomicU64 {
        &self.stages[slot.stage as usize][slot.array as usize][slot.index as usize]
    }

    /// Reads a cell (control plane / recovery path).
    ///
    /// # Panics
    /// Panics if the slot is out of bounds.
    pub fn read(&self, slot: RegisterSlot) -> u64 {
        assert!(self.slot_in_bounds(slot), "register slot out of bounds: {slot:?}");
        self.cell(slot).load(Ordering::Relaxed)
    }

    /// Writes a cell directly (offload / recovery path, not the data path).
    ///
    /// # Panics
    /// Panics if the slot is out of bounds.
    pub fn write(&self, slot: RegisterSlot, value: u64) {
        assert!(self.slot_in_bounds(slot), "register slot out of bounds: {slot:?}");
        self.cell(slot).store(value, Ordering::Relaxed);
    }

    /// Executes one instruction against its register cell and returns the
    /// result reported to the issuing node. This is the data-path operation;
    /// the engine is its only caller during normal operation.
    ///
    /// Operand forwarding (`operand_from`) is resolved by the caller (the
    /// pipeline engine), which passes the effective operand via
    /// [`Self::execute_resolved`]; this entry point uses the immediate.
    ///
    /// # Panics
    /// Panics if the slot is out of bounds (the control plane never hands out
    /// such slots, so this indicates a corrupted packet).
    #[inline]
    pub fn execute(&self, instr: &Instruction) -> InstrResult {
        self.execute_resolved(instr, instr.operand)
    }

    /// Executes an instruction with an explicitly resolved operand (used for
    /// read-dependent writes, where the operand comes from an earlier
    /// instruction's result carried in the packet metadata).
    #[inline]
    pub fn execute_resolved(&self, instr: &Instruction, operand: u64) -> InstrResult {
        assert!(self.slot_in_bounds(instr.slot), "register slot out of bounds: {:?}", instr.slot);
        let cell = self.cell(instr.slot);
        let current = cell.load(Ordering::Relaxed);
        let (new, result) = apply_op(current, instr.op, operand);
        if new != current {
            cell.store(new, Ordering::Relaxed);
        }
        result
    }

    /// Clears all register contents (used to model a switch crash before
    /// recovery).
    pub fn clear(&self) {
        for stage in &self.stages {
            for array in stage {
                for cell in array.iter() {
                    cell.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::OpCode;

    fn memory() -> RegisterMemory {
        RegisterMemory::new(SwitchConfig::tiny())
    }

    #[test]
    fn fresh_memory_is_zeroed() {
        let mem = memory();
        assert_eq!(mem.read(RegisterSlot::new(0, 0, 0)), 0);
        assert_eq!(mem.read(RegisterSlot::new(3, 1, 63)), 0);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mem = memory();
        let slot = RegisterSlot::new(2, 1, 17);
        mem.write(slot, 4242);
        assert_eq!(mem.read(slot), 4242);
    }

    #[test]
    fn execute_applies_alu_semantics() {
        let mem = memory();
        let slot = RegisterSlot::new(1, 0, 3);
        mem.write(slot, 100);
        let res = mem.execute(&Instruction::new(slot, OpCode::FetchAdd, 5));
        assert_eq!(res.value, 100);
        assert_eq!(mem.read(slot), 105);
        let res = mem.execute(&Instruction::new(slot, OpCode::CondSub, 200));
        assert!(!res.applied);
        assert_eq!(mem.read(slot), 105);
    }

    #[test]
    fn bounds_checking() {
        let mem = memory();
        assert!(mem.slot_in_bounds(RegisterSlot::new(3, 1, 63)));
        assert!(!mem.slot_in_bounds(RegisterSlot::new(4, 0, 0)));
        assert!(!mem.slot_in_bounds(RegisterSlot::new(0, 2, 0)));
        assert!(!mem.slot_in_bounds(RegisterSlot::new(0, 0, 64)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        memory().read(RegisterSlot::new(9, 0, 0));
    }

    #[test]
    fn clear_wipes_everything() {
        let mem = memory();
        mem.write(RegisterSlot::new(0, 0, 0), 1);
        mem.write(RegisterSlot::new(3, 1, 5), 2);
        mem.clear();
        assert_eq!(mem.read(RegisterSlot::new(0, 0, 0)), 0);
        assert_eq!(mem.read(RegisterSlot::new(3, 1, 5)), 0);
    }
}
