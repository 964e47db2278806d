//! Execution status types.

use crate::trap::Trap;

/// Result of [`crate::Machine::run`]: how the machine stands after
/// running to a cycle bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RunStatus {
    /// The program finished (explicit `halt` or fell off the end of ROM).
    Halted {
        /// Exit code (0 = normal completion).
        code: u16,
    },
    /// A CPU exception stopped the machine.
    Trapped(Trap),
    /// The machine is still running at the cycle bound. In an FI
    /// experiment a run still going at its cycle budget is classified as
    /// a timeout failure.
    CycleLimit,
}

impl RunStatus {
    /// `true` for a clean `Halted { code: 0 }`.
    pub fn is_clean_halt(self) -> bool {
        matches!(self, RunStatus::Halted { code: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_halt() {
        assert!(RunStatus::Halted { code: 0 }.is_clean_halt());
        assert!(!RunStatus::Halted { code: 1 }.is_clean_halt());
        assert!(!RunStatus::CycleLimit.is_clean_halt());
        assert!(!RunStatus::Trapped(Trap::SerialOverflow).is_clean_halt());
    }
}
