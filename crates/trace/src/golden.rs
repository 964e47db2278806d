//! The golden (fault-free reference) run.

use crate::timeline::Timelines;
use sofi_isa::Program;
use sofi_machine::{
    BranchRecord, ExternalEvent, Machine, MachineConfig, MemAccess, RecordingObserver, RegAccess,
    RunStatus,
};
use std::error::Error;
use std::fmt;

/// Error capturing a golden run: the fault-free benchmark must terminate
/// cleanly, otherwise it is unusable as a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenError {
    /// The benchmark did not finish within the cycle limit.
    CycleLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// The benchmark stopped with a trap or nonzero exit code.
    AbnormalExit(RunStatus),
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::CycleLimit { limit } => {
                write!(f, "golden run exceeded cycle limit {limit}")
            }
            GoldenError::AbnormalExit(status) => {
                write!(f, "golden run ended abnormally: {status:?}")
            }
        }
    }
}

impl Error for GoldenError {}

/// The reference run of a benchmark: its observable behaviour plus the
/// memory-access trace that drives fault-space analysis.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Benchmark runtime in cycles (`Δt`, the fault space's time extent).
    pub cycles: u64,
    /// RAM size in bits (`Δm`, the fault space's memory extent).
    pub ram_bits: u64,
    /// Reference serial output.
    pub serial: Vec<u8>,
    /// Reference exit code (always a clean halt; see [`GoldenRun::capture`]).
    pub exit_code: u16,
    /// Detection signals raised during the fault-free run (normally 0; a
    /// hardened benchmark raising detections without faults indicates
    /// false positives in the protection mechanism).
    pub detect_count: u64,
    /// Full RAM access trace in execution order.
    pub trace: Vec<MemAccess>,
    /// Full register-file access trace in execution order (for the
    /// §VI-B register fault model).
    pub reg_trace: Vec<RegAccess>,
    /// ROM index of every retired instruction (`pc_trace[c - 1]` ran in
    /// cycle `c`); drives the control-flow fault analyses.
    pub pc_trace: Vec<u32>,
    /// Every executed conditional branch with its golden outcome.
    pub branches: Vec<BranchRecord>,
}

impl GoldenRun {
    /// Executes `program` fault-free and captures the golden run.
    ///
    /// # Errors
    ///
    /// [`GoldenError::CycleLimit`] if the program runs longer than
    /// `cycle_limit`; [`GoldenError::AbnormalExit`] if it traps or halts
    /// with a nonzero code — a benchmark must be correct before its fault
    /// susceptibility can be measured.
    pub fn capture(program: &Program, cycle_limit: u64) -> Result<GoldenRun, GoldenError> {
        Self::capture_with_events(program, cycle_limit, MachineConfig::default(), Vec::new())
    }

    /// [`GoldenRun::capture`] with explicit machine limits and a
    /// deterministic external-event schedule (§II-C: replayed inputs keep
    /// the run reproducible).
    ///
    /// # Errors
    ///
    /// Same as [`GoldenRun::capture`].
    pub fn capture_with_events(
        program: &Program,
        cycle_limit: u64,
        config: MachineConfig,
        events: Vec<ExternalEvent>,
    ) -> Result<GoldenRun, GoldenError> {
        let mut obs = RecordingObserver::default();
        let mut machine = Machine::with_events(program, config, events);
        match machine.run_observed(cycle_limit, &mut obs) {
            RunStatus::Halted { code: 0 } => {}
            RunStatus::CycleLimit => return Err(GoldenError::CycleLimit { limit: cycle_limit }),
            other => return Err(GoldenError::AbnormalExit(other)),
        }
        Ok(GoldenRun {
            cycles: machine.cycle(),
            ram_bits: machine.ram().size_bits(),
            serial: machine.serial().to_vec(),
            exit_code: 0,
            detect_count: machine.detect_count(),
            trace: obs.accesses,
            reg_trace: obs.reg_accesses,
            pc_trace: obs.pc_trace,
            branches: obs.branches,
        })
    }

    /// Total fault-space size `w = Δt · Δm` in (cycle, bit) coordinates.
    pub fn fault_space_size(&self) -> u64 {
        self.cycles * self.ram_bits
    }

    /// `true` if `observed` is a prefix of the reference serial output.
    ///
    /// Used by the campaign executor's convergence termination: a faulted
    /// run whose machine state has converged back onto a pristine
    /// checkpoint will emit exactly the golden *tail* from there on, so
    /// its complete output equals golden iff the part already written is
    /// a golden prefix — if it is not, the run is already a silent data
    /// corruption and can be classified without simulating further.
    pub fn matches_serial_prefix(&self, observed: &[u8]) -> bool {
        self.serial.starts_with(observed)
    }

    /// Digests the access trace into per-bit timelines.
    pub fn timelines(&self) -> Timelines {
        Timelines::build(&self.trace, self.ram_bits)
    }

    /// Digests the register-file access trace into per-bit timelines
    /// (480 bits: `r1..r15` × 32).
    pub fn reg_timelines(&self) -> Timelines {
        Timelines::build_registers(&self.reg_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::{Asm, Reg};

    #[test]
    fn captures_reference_behaviour() {
        let mut a = Asm::new();
        let x = a.data_bytes("x", &[3]);
        a.lb(Reg::R1, Reg::R0, x.offset());
        a.serial_out(Reg::R1);
        a.sb(Reg::R1, Reg::R0, x.offset());
        let p = a.build().unwrap();
        let g = GoldenRun::capture(&p, 1_000).unwrap();
        assert_eq!(g.cycles, 3);
        assert_eq!(g.ram_bits, 8);
        assert_eq!(g.serial, vec![3]);
        assert_eq!(g.trace.len(), 2);
        assert_eq!(g.fault_space_size(), 24);
    }

    #[test]
    fn serial_prefix_check() {
        let mut a = Asm::new();
        let x = a.data_bytes("x", b"abc");
        for i in 0..3 {
            a.lb(Reg::R1, Reg::R0, x.at(i).offset());
            a.serial_out(Reg::R1);
        }
        let p = a.build().unwrap();
        let g = GoldenRun::capture(&p, 1_000).unwrap();
        assert!(g.matches_serial_prefix(b""));
        assert!(g.matches_serial_prefix(b"ab"));
        assert!(g.matches_serial_prefix(b"abc"));
        assert!(!g.matches_serial_prefix(b"ax"));
        assert!(!g.matches_serial_prefix(b"abcd"));
    }

    #[test]
    fn rejects_nonterminating() {
        let mut a = Asm::new();
        let top = a.label_here();
        a.j(top);
        let p = a.build().unwrap();
        assert!(matches!(
            GoldenRun::capture(&p, 100),
            Err(GoldenError::CycleLimit { limit: 100 })
        ));
    }

    #[test]
    fn rejects_trapping_program() {
        let mut a = Asm::new();
        a.lw(Reg::R1, Reg::R0, 100); // no RAM at all
        let p = a.build().unwrap();
        assert!(matches!(
            GoldenRun::capture(&p, 100),
            Err(GoldenError::AbnormalExit(RunStatus::Trapped(_)))
        ));
    }

    #[test]
    fn rejects_nonzero_exit() {
        let mut a = Asm::new();
        a.halt(2);
        let p = a.build().unwrap();
        assert!(matches!(
            GoldenRun::capture(&p, 100),
            Err(GoldenError::AbnormalExit(RunStatus::Halted { code: 2 }))
        ));
    }
}
