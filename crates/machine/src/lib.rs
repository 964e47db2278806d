#![warn(missing_docs)]

//! Deterministic machine simulator implementing the paper's machine model.
//!
//! §II-C of the DSN'15 pitfalls paper defines the machine under test:
//!
//! > "We assume a simple RISC CPU with classic in-order execution, without
//! > any cache levels on the way to a wait-free main memory, and with a
//! > timing of one cycle per CPU instruction. The CPU executes programs from
//! > read-only memory. [...] benchmark runs can be carried out
//! > deterministically [...] Additionally, the machine can be paused at an
//! > arbitrary cycle during the run (e.g., to inject a fault by changing the
//! > machine state) and resumed afterwards."
//!
//! [`Machine`] implements exactly this: one instruction per cycle, a
//! fault-immune instruction ROM, byte-addressable RAM that supports
//! [`Machine::flip_bit`] injection, and a small MMIO page (serial output,
//! detection signal, cycle counter). Runs are bit-for-bit deterministic and
//! machines are cheaply cloneable, which the campaign engine exploits to
//! fork a pristine machine at each injection cycle.
//!
//! # Examples
//!
//! ```
//! use sofi_isa::{Asm, Reg};
//! use sofi_machine::{Machine, RunStatus};
//!
//! let mut a = Asm::new();
//! let msg = a.data_bytes("msg", b"ok");
//! a.lb(Reg::R1, Reg::R0, msg.offset());
//! a.serial_out(Reg::R1);
//! a.lb(Reg::R1, Reg::R0, msg.at(1).offset());
//! a.serial_out(Reg::R1);
//! let program = a.build()?;
//!
//! let mut m = Machine::new(&program);
//! assert_eq!(m.run(1_000), RunStatus::Halted { code: 0 });
//! assert_eq!(m.serial(), b"ok");
//! assert_eq!(m.cycle(), 4); // four instructions, one cycle each
//! # Ok::<(), sofi_isa::AsmError>(())
//! ```

mod block;
mod cpu;
mod observer;
mod ram;
mod status;
mod trap;

pub use block::BlockStats;
pub use cpu::{CfFault, ConvergenceMask, ExternalEvent, Machine, MachineConfig, StateDigest};
pub use observer::{
    AccessKind, BranchRecord, MemAccess, MemObserver, NullObserver, RecordingObserver, RegAccess,
    REG_FILE_BITS,
};
pub use ram::Ram;
pub use status::RunStatus;
pub use trap::Trap;
