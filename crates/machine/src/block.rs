//! Decode-once basic-block execution engine: the pre-decoded µop IR.
//!
//! The campaign executor spends almost all of its time re-simulating the
//! same small ROM, so the per-instruction costs of the general
//! interpreter — the run-state match, the external-event scan, operand
//! extraction from the [`sofi_isa::Inst`] enum (with its `Reg`-typed
//! operands and unextended immediates), and observer bookkeeping — are
//! pure dispatch overhead. This module removes them by *decoding once*:
//!
//! * every ROM slot is lowered to one [`Uop`] with `u8` register indices,
//!   immediates already sign-/zero-extended to `u32`, shift amounts
//!   pre-masked, and branch/jump targets resolved to absolute
//!   instruction indices (statically out-of-range targets are lowered to
//!   dedicated trap µops, so the hot loop never re-validates);
//! * ALU results destined for the hard-wired `r0` are lowered to
//!   [`Uop::Nop`], eliminating the write-guard from every other write;
//! * the register-access events an instruction must report to a
//!   [`crate::MemObserver`] are precomputed per slot ([`RegEvents`]),
//!   and skipped entirely — statically, via
//!   [`crate::MemObserver::OBSERVES`] — for the `NullObserver` path.
//!
//! The table is built at machine construction and shared by `Arc`: the
//! ROM is immutable (`Machine` executes from read-only memory and the
//! fault models never touch it), so the table needs **no invalidation**
//! and campaign forks inherit it for free. The tight execution loop over
//! this IR lives in `cpu.rs` (`Machine::exec_uops`), where the machine's
//! private state is in scope; cycle-exact boundaries — the injection
//! cycle, checkpoint probes, the cycle budget, and external-event latch
//! cycles — are enforced by the run loop (`Machine::run_observed`),
//! which caps each µop burst so it can never cross one.

use sofi_isa::{BranchKind, Inst, MemWidth, Reg};

/// One pre-decoded micro-operation. Register operands are plain file
/// indices (always `< 16`; the executor masks with `& 15` to make the
/// bound visible to the compiler), immediates are pre-extended, and
/// control-flow targets are absolute and pre-validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Uop {
    /// No architectural effect (also the lowering of any ALU op whose
    /// destination is `r0`).
    Nop,
    /// `rd ← rs1 + rs2` (wrapping).
    Add { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 − rs2` (wrapping).
    Sub { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 & rs2`.
    And { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 | rs2`.
    Or { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 ^ rs2`.
    Xor { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 << (rs2 & 31)`.
    Sll { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 >> (rs2 & 31)` (logical).
    Srl { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 >> (rs2 & 31)` (arithmetic).
    Sra { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← (rs1 <ₛ rs2)`.
    Slt { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← (rs1 <ᵤ rs2)`.
    Sltu { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 × rs2` (wrapping, low 32 bits).
    Mul { rd: u8, rs1: u8, rs2: u8 },
    /// `rd ← rs1 + imm` (imm pre-sign-extended).
    Addi { rd: u8, rs1: u8, imm: u32 },
    /// `rd ← rs1 & imm` (imm pre-zero-extended).
    Andi { rd: u8, rs1: u8, imm: u32 },
    /// `rd ← rs1 | imm` (imm pre-zero-extended).
    Ori { rd: u8, rs1: u8, imm: u32 },
    /// `rd ← rs1 ^ imm` (imm pre-zero-extended).
    Xori { rd: u8, rs1: u8, imm: u32 },
    /// `rd ← (rs1 <ₛ imm)` (imm pre-sign-extended).
    Slti { rd: u8, rs1: u8, imm: u32 },
    /// `rd ← rs1 << sh` (sh pre-masked to 0..31).
    Slli { rd: u8, rs1: u8, sh: u32 },
    /// `rd ← rs1 >> sh` (logical, sh pre-masked).
    Srli { rd: u8, rs1: u8, sh: u32 },
    /// `rd ← rs1 >> sh` (arithmetic, sh pre-masked).
    Srai { rd: u8, rs1: u8, sh: u32 },
    /// `rd ← value` (the `lui` immediate, pre-shifted).
    LoadImm { rd: u8, value: u32 },
    /// Memory/MMIO load; the address is dynamic so the RAM-vs-device
    /// split stays a runtime decision.
    Load {
        rd: u8,
        base: u8,
        off: u32,
        width: MemWidth,
        signed: bool,
    },
    /// Memory/MMIO store.
    Store {
        rs: u8,
        base: u8,
        off: u32,
        width: MemWidth,
    },
    /// Conditional branch with a pre-validated absolute `target`
    /// (`target ≤ rom.len()`; a branch *to* the ROM end is legal and
    /// halts cleanly on the next dispatch).
    Br {
        kind: BranchKind,
        rs1: u8,
        rs2: u8,
        target: u32,
    },
    /// Conditional branch whose target is statically out of range: taken
    /// ⇒ `Trap::BadJump { target: bad }` (pre-clamped exactly as the
    /// step interpreter reports it), not taken ⇒ ordinary fall-through.
    BrBad {
        kind: BranchKind,
        rs1: u8,
        rs2: u8,
        bad: u32,
    },
    /// Unconditional jump-and-link with a pre-validated target.
    Jal { rd: u8, target: u32 },
    /// `jal` whose static target is out of range: always traps, before
    /// the link register is written (mirroring the step interpreter).
    JalBad { target: u32 },
    /// Register-indirect jump; target computed and validated at runtime.
    Jalr { rd: u8, rs1: u8, off: u32 },
    /// Stop with `code` (consumes its cycle).
    Halt { code: u16 },
}

/// The register-file access events one instruction reports to a
/// [`crate::MemObserver`], precomputed from [`Inst::reg_ops`] with the
/// hard-wired `r0` already filtered out. Reads keep the datapath's
/// deduplicated order and are reported before execution; the write (if
/// any) after.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegEvents {
    /// Distinct non-`r0` source registers, in operand order.
    pub(crate) reads: [Option<Reg>; 2],
    /// Non-`r0` destination register, if any.
    pub(crate) write: Option<Reg>,
}

/// The decode-once execution table for one ROM: a µop and its observer
/// events per instruction slot, aligned by PC. Lookup is the identity
/// on the PC — no hashing, no discovery at run time, and (because the
/// ROM is immutable) no invalidation, ever.
#[derive(Debug)]
pub(crate) struct BlockTable {
    /// One µop per ROM slot.
    pub(crate) uops: Vec<Uop>,
    /// Observer reg-access events per ROM slot.
    pub(crate) events: Vec<RegEvents>,
}

impl BlockTable {
    /// Lowers a ROM into its execution table. `O(rom.len())`, run once
    /// per [`crate::Machine`] construction (clones share the result).
    pub(crate) fn decode(rom: &[Inst]) -> BlockTable {
        let n = rom.len();
        let mut uops = Vec::with_capacity(n);
        let mut events = Vec::with_capacity(n);
        for (pc, inst) in rom.iter().enumerate() {
            uops.push(lower(*inst, pc as u32, n as u32));
            events.push(reg_events(*inst));
        }
        BlockTable { uops, events }
    }
}

/// Register index of `r` as the µop operand encoding.
fn idx(r: Reg) -> u8 {
    r.index() as u8
}

/// Lowers one instruction. `rom_len` pre-validates static control-flow
/// targets so the execution loop never range-checks them again.
fn lower(inst: Inst, pc: u32, rom_len: u32) -> Uop {
    use Inst::*;
    // ALU results into the hard-wired zero register have no architectural
    // effect (the observer events still come from `reg_events`, which is
    // derived from the original instruction).
    macro_rules! alu {
        ($rd:expr, $v:expr) => {
            if $rd == Reg::R0 {
                Uop::Nop
            } else {
                $v
            }
        };
    }
    match inst {
        Add { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Add {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Sub { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Sub {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        And { rd, rs1, rs2 } => alu!(
            rd,
            Uop::And {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Or { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Or {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Xor { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Xor {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Sll { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Sll {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Srl { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Srl {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Sra { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Sra {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Slt { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Slt {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Sltu { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Sltu {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Mul { rd, rs1, rs2 } => alu!(
            rd,
            Uop::Mul {
                rd: idx(rd),
                rs1: idx(rs1),
                rs2: idx(rs2),
            }
        ),
        Addi { rd, rs1, imm } => alu!(
            rd,
            Uop::Addi {
                rd: idx(rd),
                rs1: idx(rs1),
                imm: imm as i32 as u32,
            }
        ),
        Andi { rd, rs1, imm } => alu!(
            rd,
            Uop::Andi {
                rd: idx(rd),
                rs1: idx(rs1),
                imm: imm as u16 as u32,
            }
        ),
        Ori { rd, rs1, imm } => alu!(
            rd,
            Uop::Ori {
                rd: idx(rd),
                rs1: idx(rs1),
                imm: imm as u16 as u32,
            }
        ),
        Xori { rd, rs1, imm } => alu!(
            rd,
            Uop::Xori {
                rd: idx(rd),
                rs1: idx(rs1),
                imm: imm as u16 as u32,
            }
        ),
        Slti { rd, rs1, imm } => alu!(
            rd,
            Uop::Slti {
                rd: idx(rd),
                rs1: idx(rs1),
                imm: imm as i32 as u32,
            }
        ),
        Slli { rd, rs1, shamt } => alu!(
            rd,
            Uop::Slli {
                rd: idx(rd),
                rs1: idx(rs1),
                sh: (shamt & 31) as u32,
            }
        ),
        Srli { rd, rs1, shamt } => alu!(
            rd,
            Uop::Srli {
                rd: idx(rd),
                rs1: idx(rs1),
                sh: (shamt & 31) as u32,
            }
        ),
        Srai { rd, rs1, shamt } => alu!(
            rd,
            Uop::Srai {
                rd: idx(rd),
                rs1: idx(rs1),
                sh: (shamt & 31) as u32,
            }
        ),
        Lui { rd, imm } => alu!(
            rd,
            Uop::LoadImm {
                rd: idx(rd),
                value: (imm as u32) << 16,
            }
        ),
        Load {
            rd,
            base,
            offset,
            width,
            signed,
        } => Uop::Load {
            // `rd` may be r0 here: the load still performs the (possibly
            // trapping, observer-visible) memory access; only the
            // register write is suppressed, at run time.
            rd: idx(rd),
            base: idx(base),
            off: offset as i32 as u32,
            width,
            signed,
        },
        Store {
            rs,
            base,
            offset,
            width,
        } => Uop::Store {
            rs: idx(rs),
            base: idx(base),
            off: offset as i32 as u32,
            width,
        },
        Branch {
            kind,
            rs1,
            rs2,
            offset,
        } => {
            let t = (pc as i64) + 1 + (offset as i64);
            if t < 0 || t > rom_len as i64 {
                Uop::BrBad {
                    kind,
                    rs1: idx(rs1),
                    rs2: idx(rs2),
                    bad: t.clamp(0, u32::MAX as i64) as u32,
                }
            } else {
                Uop::Br {
                    kind,
                    rs1: idx(rs1),
                    rs2: idx(rs2),
                    target: t as u32,
                }
            }
        }
        Jal { rd, target } => {
            if target > rom_len {
                Uop::JalBad { target }
            } else {
                Uop::Jal {
                    rd: idx(rd),
                    target,
                }
            }
        }
        Jalr { rd, rs1, offset } => Uop::Jalr {
            rd: idx(rd),
            rs1: idx(rs1),
            off: offset as i32 as u32,
        },
        Halt { code } => Uop::Halt { code },
    }
}

/// Branch-condition evaluation shared by the µop loop's `Br`/`BrBad`
/// arms (semantics identical to the step interpreter's `Inst::Branch`).
#[inline(always)]
pub(crate) fn branch_taken(kind: BranchKind, a: u32, b: u32) -> bool {
    match kind {
        BranchKind::Eq => a == b,
        BranchKind::Ne => a != b,
        BranchKind::Lt => (a as i32) < (b as i32),
        BranchKind::Ge => (a as i32) >= (b as i32),
        BranchKind::Ltu => a < b,
        BranchKind::Geu => a >= b,
    }
}

/// Precomputes the observer events for one instruction (see
/// [`RegEvents`]).
fn reg_events(inst: Inst) -> RegEvents {
    let ops = inst.reg_ops();
    let mut reads = [None, None];
    let mut n = 0;
    for r in ops.reads() {
        if r != Reg::R0 {
            reads[n] = Some(r);
            n += 1;
        }
    }
    RegEvents {
        reads,
        write: ops.write.filter(|&r| r != Reg::R0),
    }
}

/// Per-machine execution-engine counters, cloned along with the machine
/// (campaign workers diff snapshots around each faulted run). Every
/// instruction retired by [`crate::Machine::run`] is attributed to
/// exactly one engine: `block_cycles + step_cycles == cycle()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Instructions retired through the pre-decoded µop loop.
    pub block_cycles: u64,
    /// Instructions retired by cycle-exact single-stepping (external-event
    /// latch cycles, or the engine disabled via
    /// [`crate::MachineConfig::block_engine`]).
    pub step_cycles: u64,
    /// Straight-line µop segments executed (one per dispatcher entry plus
    /// one per control-flow transfer taken inside the fast loop).
    pub blocks: u64,
}

impl BlockStats {
    /// Counter deltas accumulated since `base` was snapshotted
    /// (saturating, so a caller diffing across unrelated machines gets
    /// zeros rather than wrap-around garbage).
    pub fn delta_since(self, base: BlockStats) -> BlockStats {
        BlockStats {
            block_cycles: self.block_cycles.saturating_sub(base.block_cycles),
            step_cycles: self.step_cycles.saturating_sub(base.step_cycles),
            blocks: self.blocks.saturating_sub(base.blocks),
        }
    }

    /// Folds another counter record into this one (associative,
    /// commutative, `default()` as identity — mirrors
    /// `ExecutorStats::absorb`).
    pub fn absorb(&mut self, other: BlockStats) {
        self.block_cycles += other.block_cycles;
        self.step_cycles += other.step_cycles;
        self.blocks += other.blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::{Asm, Reg};

    fn table_of(f: impl FnOnce(&mut Asm)) -> BlockTable {
        let mut a = Asm::new();
        f(&mut a);
        BlockTable::decode(&a.build().unwrap().insts)
    }

    #[test]
    fn immediates_are_pre_extended() {
        let t = table_of(|a| {
            a.addi(Reg::R1, Reg::R2, -5);
            a.andi(Reg::R1, Reg::R2, -1);
            a.lui(Reg::R1, 0xABCD);
        });
        assert_eq!(
            t.uops[0],
            Uop::Addi {
                rd: 1,
                rs1: 2,
                imm: (-5i32) as u32
            }
        );
        assert_eq!(
            t.uops[1],
            Uop::Andi {
                rd: 1,
                rs1: 2,
                imm: 0xFFFF
            }
        );
        assert_eq!(
            t.uops[2],
            Uop::LoadImm {
                rd: 1,
                value: 0xABCD_0000
            }
        );
    }

    #[test]
    fn r0_destinations_lower_to_nop_but_keep_events() {
        let t = table_of(|a| {
            a.add(Reg::R0, Reg::R3, Reg::R4);
        });
        assert_eq!(t.uops[0], Uop::Nop);
        // The datapath still reads r3 and r4; an observer must see that.
        assert_eq!(t.events[0].reads, [Some(Reg::R3), Some(Reg::R4)]);
        assert_eq!(t.events[0].write, None);
    }

    #[test]
    fn duplicate_reads_deduplicated_and_r0_filtered() {
        let t = table_of(|a| {
            a.add(Reg::R1, Reg::R2, Reg::R2);
            a.add(Reg::R1, Reg::R0, Reg::R5);
        });
        assert_eq!(t.events[0].reads, [Some(Reg::R2), None]);
        assert_eq!(t.events[0].write, Some(Reg::R1));
        assert_eq!(t.events[1].reads, [Some(Reg::R5), None]);
    }

    #[test]
    fn static_targets_pre_validated() {
        // Branch to the exact ROM end is legal (clean halt on next
        // dispatch); anything beyond lowers to the trap µop.
        let insts = vec![
            Inst::Branch {
                kind: BranchKind::Eq,
                rs1: Reg::R0,
                rs2: Reg::R0,
                offset: 1, // target 2 == rom len: legal
            },
            Inst::Jal {
                rd: Reg::R0,
                target: 7, // beyond rom len: statically bad
            },
        ];
        let t = BlockTable::decode(&insts);
        assert!(matches!(t.uops[0], Uop::Br { target: 2, .. }));
        assert_eq!(t.uops[1], Uop::JalBad { target: 7 });

        let back = vec![Inst::Branch {
            kind: BranchKind::Ne,
            rs1: Reg::R1,
            rs2: Reg::R0,
            offset: -9, // target -8: statically bad, clamped to 0
        }];
        let t = BlockTable::decode(&back);
        assert!(matches!(t.uops[0], Uop::BrBad { bad: 0, .. }));
    }
}
