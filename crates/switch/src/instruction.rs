//! Switch transaction instructions.
//!
//! A switch transaction is a network packet carrying a header plus a variable
//! number of *instructions* (Fig 6 in the paper). Each instruction addresses
//! exactly one register slot (a stage / register-array / index triple) and
//! performs a single stateful ALU operation on it — the granularity the
//! Tofino's `RegisterAction`s provide: one read-modify-write per register per
//! packet pass.

/// Address of a single register cell on the switch.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegisterSlot {
    /// MAU stage index (0-based, increasing along the pipeline).
    pub stage: u8,
    /// Register array within the stage.
    pub array: u8,
    /// Cell index within the register array.
    pub index: u32,
}

impl RegisterSlot {
    pub const fn new(stage: u8, array: u8, index: u32) -> Self {
        Self { stage, array, index }
    }
}

/// The stateful ALU operation an instruction performs on its register cell.
///
/// These correspond to what a single Tofino `RegisterAction` can express:
/// a read, an unconditional write, fixed-point add variants, and the
/// *constrained write* of §5.1 (a predicate-guarded update), which is how
/// P4DB implements simple integrity constraints such as SmallBank's
/// non-negative balances without aborts.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpCode {
    /// Return the current value; leave the register unchanged.
    Read,
    /// Overwrite the register with the operand; return the new value.
    Write,
    /// Add the operand (two's-complement) to the register; return the new
    /// value.
    Add,
    /// Add the operand to the register but return the *previous* value
    /// (TPC-C's `d_next_o_id++`).
    FetchAdd,
    /// Constrained write: subtract the operand only if the result stays
    /// non-negative (interpreting the register as a signed integer). Returns
    /// the (possibly unchanged) value and a success flag.
    CondSub,
    /// Constrained write: overwrite with the operand only if the operand is
    /// greater than the current value (used for high-watermark style
    /// constraints). Returns the resulting value and whether it was applied.
    WriteIfGreater,
}

impl OpCode {
    /// Whether this opcode may modify the register.
    pub fn is_write(self) -> bool {
        !matches!(self, OpCode::Read)
    }
}

/// One operation of a switch transaction.
///
/// The operand is normally an immediate carried in the packet, but it can
/// also be *forwarded* from the result of an earlier instruction of the same
/// transaction (`operand_from`). This is how P4DB implements read-dependent
/// writes on the switch (Table 1): the earlier stage writes its result into
/// packet metadata and a later stage consumes it — e.g. SmallBank's
/// `Amalgamate` drains account A and credits the drained amount to account B.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Instruction {
    pub slot: RegisterSlot,
    pub op: OpCode,
    /// Immediate operand (ignored when `operand_from` is set).
    pub operand: u64,
    /// Index of an earlier instruction in the same transaction whose result
    /// value replaces the immediate operand.
    pub operand_from: Option<u8>,
}

impl Instruction {
    pub const fn new(slot: RegisterSlot, op: OpCode, operand: u64) -> Self {
        Self { slot, op, operand, operand_from: None }
    }

    pub const fn read(slot: RegisterSlot) -> Self {
        Self::new(slot, OpCode::Read, 0)
    }

    pub const fn write(slot: RegisterSlot, value: u64) -> Self {
        Self::new(slot, OpCode::Write, value)
    }

    pub const fn add(slot: RegisterSlot, delta: i64) -> Self {
        Self::new(slot, OpCode::Add, delta as u64)
    }

    pub const fn fetch_add(slot: RegisterSlot, delta: i64) -> Self {
        Self::new(slot, OpCode::FetchAdd, delta as u64)
    }

    pub const fn cond_sub(slot: RegisterSlot, amount: u64) -> Self {
        Self::new(slot, OpCode::CondSub, amount)
    }

    /// An operation whose operand is the result of instruction `src` of the
    /// same transaction (read-dependent write).
    ///
    /// The dependency imposes an access-order constraint: `src` must execute
    /// in an earlier stage (or an earlier pass), which is exactly what the
    /// declustered layout tries to honour.
    pub const fn with_operand_from(slot: RegisterSlot, op: OpCode, src: u8) -> Self {
        Self { slot, op, operand: 0, operand_from: Some(src) }
    }
}

/// Result of executing one instruction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct InstrResult {
    /// Value reported back to the issuing node (semantics depend on the
    /// opcode, see [`OpCode`]).
    pub value: u64,
    /// Whether a constrained write's predicate held. Always `true` for
    /// unconditional opcodes.
    pub applied: bool,
}

/// Applies `op` with `operand` to `cell`, returning the new cell contents and
/// the reported result. Pure function so that the ALU semantics can be tested
/// exhaustively and reused by the recovery replayer.
pub fn apply_op(cell: u64, op: OpCode, operand: u64) -> (u64, InstrResult) {
    match op {
        OpCode::Read => (cell, InstrResult { value: cell, applied: true }),
        OpCode::Write => (operand, InstrResult { value: operand, applied: true }),
        OpCode::Add => {
            let new = cell.wrapping_add(operand);
            (new, InstrResult { value: new, applied: true })
        }
        OpCode::FetchAdd => {
            let new = cell.wrapping_add(operand);
            (new, InstrResult { value: cell, applied: true })
        }
        OpCode::CondSub => {
            // The amount is an unsigned quantity; amounts beyond i64::MAX can
            // never satisfy the predicate against a signed balance.
            let current = cell as i64;
            if operand <= i64::MAX as u64 && current >= operand as i64 {
                let new = current - operand as i64;
                (new as u64, InstrResult { value: new as u64, applied: true })
            } else {
                (cell, InstrResult { value: cell, applied: false })
            }
        }
        OpCode::WriteIfGreater => {
            if operand > cell {
                (operand, InstrResult { value: operand, applied: true })
            } else {
                (cell, InstrResult { value: cell, applied: false })
            }
        }
    }
}

/// Splits an instruction list into pipeline passes.
///
/// The Tofino memory model imposes two rules per pass (§2.3, §4.1):
///
/// 1. register accesses must follow the stage order of the pipeline, i.e.
///    stages must be non-decreasing within a pass, and
/// 2. a register array can be accessed at most once per pass.
///
/// This function greedily packs the longest legal prefix into each pass, the
/// exact behaviour of the switch data plane program; the client uses it to
/// set the `is_multipass` header flag, the switch uses it to drive
/// recirculation.
pub fn plan_passes(instructions: &[Instruction]) -> Vec<std::ops::Range<usize>> {
    let mut passes = Vec::new();
    let mut start = 0usize;
    while start < instructions.len() {
        let mut end = start;
        let mut last_stage: i32 = -1;
        // (stage, array) pairs touched in this pass; transactions touch a
        // handful of registers, so a linear scan beats a hash set.
        let mut touched: Vec<(u8, u8)> = Vec::new();
        while end < instructions.len() {
            let slot = instructions[end].slot;
            let key = (slot.stage, slot.array);
            if (slot.stage as i32) < last_stage || touched.contains(&key) {
                break;
            }
            touched.push(key);
            last_stage = slot.stage as i32;
            end += 1;
        }
        passes.push(start..end);
        start = end;
    }
    passes
}

/// Convenience: `true` iff the instruction list fits in a single pipeline
/// pass.
pub fn is_single_pass(instructions: &[Instruction]) -> bool {
    plan_passes(instructions).len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(stage: u8, array: u8, index: u32) -> RegisterSlot {
        RegisterSlot::new(stage, array, index)
    }

    #[test]
    fn alu_read_leaves_cell_untouched() {
        let (cell, res) = apply_op(42, OpCode::Read, 999);
        assert_eq!(cell, 42);
        assert_eq!(res.value, 42);
        assert!(res.applied);
    }

    #[test]
    fn alu_write_overwrites() {
        let (cell, res) = apply_op(42, OpCode::Write, 7);
        assert_eq!(cell, 7);
        assert_eq!(res.value, 7);
    }

    #[test]
    fn alu_add_is_twos_complement() {
        let (cell, res) = apply_op(10, OpCode::Add, (-3i64) as u64);
        assert_eq!(cell, 7);
        assert_eq!(res.value, 7);
    }

    #[test]
    fn alu_fetch_add_returns_old_value() {
        let (cell, res) = apply_op(100, OpCode::FetchAdd, 1);
        assert_eq!(cell, 101);
        assert_eq!(res.value, 100);
    }

    #[test]
    fn alu_cond_sub_blocks_overdraft() {
        let (cell, res) = apply_op(50, OpCode::CondSub, 80);
        assert_eq!(cell, 50);
        assert!(!res.applied);
        let (cell, res) = apply_op(50, OpCode::CondSub, 20);
        assert_eq!(cell, 30);
        assert!(res.applied);
        assert_eq!(res.value, 30);
    }

    #[test]
    fn alu_write_if_greater() {
        let (cell, res) = apply_op(10, OpCode::WriteIfGreater, 5);
        assert_eq!(cell, 10);
        assert!(!res.applied);
        let (cell, res) = apply_op(10, OpCode::WriteIfGreater, 15);
        assert_eq!(cell, 15);
        assert!(res.applied);
    }

    #[test]
    fn single_pass_when_stages_increase() {
        let instrs = vec![
            Instruction::read(slot(0, 0, 1)),
            Instruction::add(slot(1, 0, 2), 5),
            Instruction::write(slot(2, 1, 3), 9),
        ];
        assert!(is_single_pass(&instrs));
        assert_eq!(plan_passes(&instrs), vec![0..3]);
    }

    #[test]
    fn same_stage_different_arrays_is_single_pass() {
        let instrs =
            vec![Instruction::read(slot(1, 0, 1)), Instruction::read(slot(1, 1, 2)), Instruction::read(slot(1, 2, 3))];
        assert!(is_single_pass(&instrs));
    }

    #[test]
    fn descending_stage_order_forces_second_pass() {
        // Figure 6: the last operations revisit registers of earlier stages.
        let instrs = vec![
            Instruction::read(slot(0, 0, 1)),
            Instruction::write(slot(1, 0, 2), 4),
            Instruction::add(slot(2, 0, 3), 1),
            Instruction::read(slot(0, 0, 4)),
            Instruction::add(slot(1, 0, 5), 2),
        ];
        let passes = plan_passes(&instrs);
        assert_eq!(passes, vec![0..3, 3..5]);
        assert!(!is_single_pass(&instrs));
    }

    #[test]
    fn repeated_access_to_same_register_array_forces_second_pass() {
        // Two operations on the same (stage, array) cannot share a pass even
        // if the stage order is fine.
        let instrs = vec![Instruction::read(slot(3, 0, 1)), Instruction::write(slot(3, 0, 1), 10)];
        let passes = plan_passes(&instrs);
        assert_eq!(passes.len(), 2);
    }

    #[test]
    fn empty_instruction_list_has_no_passes() {
        assert!(plan_passes(&[]).is_empty());
        assert!(is_single_pass(&[]));
    }

    #[test]
    fn pathological_ordering_needs_one_pass_per_instruction() {
        // Strictly decreasing stages: every instruction violates the order
        // w.r.t. its predecessor.
        let instrs: Vec<_> = (0..5u8).rev().map(|s| Instruction::read(slot(s, 0, 0))).collect();
        assert_eq!(plan_passes(&instrs).len(), 5);
    }
}
