//! A tiny cooperative threading kernel, built in assembly.
//!
//! The paper's real-world benchmarks (`bin_sem2`, `sync2`) are eCos kernel
//! test programs: multiple threads synchronizing through binary
//! semaphores. This module provides the substrate to re-create them on the
//! sofi machine: round-robin cooperative threads with full register
//! context switching, binary semaphores, and run-to-completion
//! termination. All kernel state (task control blocks, scheduler index,
//! semaphores) lives in RAM and is therefore part of the fault space —
//! just like a real kernel's.
//!
//! The mechanism evaluated in the paper (its reference \[8]) applied
//! SUM+DMR protection to *eCos kernel objects* via aspects. The kernel
//! therefore supports [`KernelProtection::SumDmr`]: the scheduler index,
//! the exit counter and every saved task-control-block word are stored as
//! checksummed duplicates, verified (and corrected, with a detection
//! signal) on every restore.
//!
//! # Register conventions
//!
//! | registers | role |
//! |---|---|
//! | `r1`–`r3` | kernel scratch: clobbered by `yield`/semaphore ops |
//! | `r4`–`r13` | thread-persistent: saved/restored across yields |
//! | `r14` | volatile temporary (clobbered by yields and kernel ops) |
//! | `r15` | link register |

use sofi_harden::{Shield, SUMDMR_ABORT_CODE};
use sofi_isa::{Asm, DataLabel, Label, Reg};

/// Saved context: `ra` plus `r4`..`r13` (11 words).
const CTX_WORDS: u32 = 11;

/// Whether the kernel's own state is SUM+DMR-protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelProtection {
    /// Plain kernel state (baseline builds).
    None,
    /// Scheduler index, exit counter and TCB context words stored as
    /// checksummed duplicates (hardened builds).
    SumDmr,
}

/// The emitted kernel: handles to its RAM structures and code entry
/// points.
///
/// Usage protocol (see [`crate::bin_sem2`] for a complete benchmark):
///
/// 1. create thread-entry labels,
/// 2. [`Kernel::emit_prologue`] — scheduler state + TCB initialization,
///    jumps to thread 0,
/// 3. emit each thread body (using [`Kernel::emit_yield`],
///    [`Kernel::emit_sem_wait`], [`Kernel::emit_sem_post`],
///    [`Kernel::emit_thread_exit`]),
/// 4. [`Kernel::emit_runtime`] — the context-switch routine and the
///    termination stub.
#[derive(Debug, Clone)]
pub struct Kernel {
    protection: KernelProtection,
    /// Scheduler: index of the running thread.
    cur: Shield,
    /// Count of threads that called `thread_exit`.
    done: Shield,
    /// TCB array base.
    tcbs: DataLabel,
    /// The yield routine's entry label.
    yield_entry: Label,
    /// Where the last exiting thread jumps (the "finale": output dump +
    /// halt).
    finale: Label,
    nthreads: u32,
}

impl Kernel {
    /// Bytes per saved context word (1 or 3 words of backing store).
    fn slot_bytes(&self) -> u32 {
        match self.protection {
            KernelProtection::None => 4,
            KernelProtection::SumDmr => 12,
        }
    }

    /// Bytes per TCB.
    fn tcb_bytes(&self) -> u32 {
        CTX_WORDS * self.slot_bytes()
    }

    /// Allocates kernel data and emits the boot code: TCB `ra` slots are
    /// initialized with each thread's entry point and control jumps to
    /// thread 0. Call before emitting thread bodies.
    ///
    /// `finale` is where the *last* exiting thread jumps — bind it after
    /// the thread bodies and emit final output plus `halt` there.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn emit_prologue(
        a: &mut Asm,
        entries: &[Label],
        finale: Label,
        protection: KernelProtection,
    ) -> Kernel {
        assert!(!entries.is_empty(), "kernel needs at least one thread");
        let nthreads = entries.len() as u32;
        let protected = protection == KernelProtection::SumDmr;
        let cur = Shield::declare(a, "k_cur", 0, protected);
        let done = Shield::declare(a, "k_done", 0, protected);
        let slot_bytes = if protected { 12 } else { 4 };
        let tcbs = a.data_space("k_tcbs", nthreads * CTX_WORDS * slot_bytes);
        let kernel = Kernel {
            protection,
            cur,
            done,
            tcbs,
            yield_entry: a.new_named_label("k_yield"),
            finale,
            nthreads,
        };

        // Boot: plant each thread's entry address into its TCB ra slot.
        for (i, &entry) in entries.iter().enumerate() {
            a.li_code(Reg::R1, entry);
            kernel.emit_ctx_store(a, Reg::R1, i as u32 * kernel.tcb_bytes(), 0);
        }
        // Thread 0 starts running directly.
        a.j(entries[0]);
        kernel
    }

    /// Stores context word `word` of the TCB at byte offset `tcb_off`
    /// (absolute addressing from `r0`; boot-time only). Clobbers `r3`.
    fn emit_ctx_store(&self, a: &mut Asm, src: Reg, tcb_off: u32, word: u32) {
        let base = self.tcbs.at(tcb_off + word * self.slot_bytes());
        match self.protection {
            KernelProtection::None => {
                a.sw(src, Reg::R0, base.offset());
            }
            KernelProtection::SumDmr => {
                a.sw(src, Reg::R0, base.offset());
                a.sw(src, Reg::R0, base.at(4).offset());
                a.sub(Reg::R3, Reg::R0, src);
                a.sw(Reg::R3, Reg::R0, base.at(8).offset());
            }
        }
    }

    /// Number of threads.
    pub fn nthreads(&self) -> u32 {
        self.nthreads
    }

    /// The TCB array base (for diagnostics and vulnerability maps).
    pub fn tcbs(&self) -> DataLabel {
        self.tcbs
    }

    /// Declares a binary semaphore compatible with this kernel's
    /// protection level.
    pub fn declare_sem(&self, a: &mut Asm, name: &str, initially_free: bool) -> Shield {
        Shield::declare(
            a,
            name,
            initially_free as u32,
            self.protection == KernelProtection::SumDmr,
        )
    }

    /// Emits a cooperative yield: saves this thread's context, switches to
    /// the next runnable thread. Clobbers `r1`–`r3` and `r14`.
    pub fn emit_yield(&self, a: &mut Asm) {
        a.jal(Reg::RA, self.yield_entry);
    }

    /// Emits a binary-semaphore wait (P): spins with yields until the
    /// semaphore is nonzero, then claims it. Clobbers `r1`–`r3`, `r14`.
    pub fn emit_sem_wait(&self, a: &mut Asm, sem: Shield) {
        let retry = a.label_here();
        let acquired = a.new_label();
        sem.emit_load(a, Reg::R1, Reg::R2, Reg::R3);
        a.bne(Reg::R1, Reg::R0, acquired);
        self.emit_yield(a);
        a.j(retry);
        a.bind(acquired);
        sem.emit_store(a, Reg::R0, Reg::R1);
    }

    /// Emits a binary-semaphore post (V). Clobbers `r1`, `r2`.
    pub fn emit_sem_post(&self, a: &mut Asm, sem: Shield) {
        a.li(Reg::R1, 1);
        sem.emit_store(a, Reg::R1, Reg::R2);
    }

    /// Emits thread termination: bumps the done counter; the last thread
    /// out jumps to the finale, earlier ones yield forever. Clobbers
    /// `r1`–`r3`, `r14`.
    pub fn emit_thread_exit(&self, a: &mut Asm) {
        self.done.emit_load(a, Reg::R1, Reg::R2, Reg::R3);
        a.addi(Reg::R1, Reg::R1, 1);
        self.done.emit_store(a, Reg::R1, Reg::R2);
        a.li(Reg::R2, self.nthreads as i32);
        a.beq(Reg::R1, Reg::R2, self.finale);
        let spin = a.label_here();
        self.emit_yield(a);
        a.j(spin);
    }

    /// Emits the kernel runtime: the context-switch routine. Call exactly
    /// once, after all thread bodies.
    pub fn emit_runtime(&self, a: &mut Asm) {
        let saved: [Reg; 11] = [
            Reg::RA,
            Reg::R4,
            Reg::R5,
            Reg::R6,
            Reg::R7,
            Reg::R8,
            Reg::R9,
            Reg::R10,
            Reg::R11,
            Reg::R12,
            Reg::R13,
        ];
        let slot = self.slot_bytes() as i16;
        let abort = a.new_named_label("k_ctx_abort");

        a.bind(self.yield_entry);
        // r1 = current index, r2 = &tcb[cur].
        self.cur.emit_load(a, Reg::R1, Reg::R2, Reg::R3);
        a.li(Reg::R2, self.tcb_bytes() as i32);
        a.mul(Reg::R2, Reg::R1, Reg::R2);
        a.addi(Reg::R2, Reg::R2, self.tcbs.offset());
        // Save context: resume pc (ra) + persistent registers.
        for (i, &r) in saved.iter().enumerate() {
            let off = slot * i as i16;
            match self.protection {
                KernelProtection::None => {
                    a.sw(r, Reg::R2, off);
                }
                KernelProtection::SumDmr => {
                    a.sw(r, Reg::R2, off);
                    a.sw(r, Reg::R2, off + 4);
                    a.sub(Reg::R3, Reg::R0, r);
                    a.sw(Reg::R3, Reg::R2, off + 8);
                }
            }
        }
        // Round-robin advance.
        a.addi(Reg::R1, Reg::R1, 1);
        a.li(Reg::R3, self.nthreads as i32);
        let no_wrap = a.new_label();
        a.bne(Reg::R1, Reg::R3, no_wrap);
        a.li(Reg::R1, 0);
        a.bind(no_wrap);
        self.cur.emit_store(a, Reg::R1, Reg::R3);
        // Restore the next thread's context.
        a.li(Reg::R2, self.tcb_bytes() as i32);
        a.mul(Reg::R2, Reg::R1, Reg::R2);
        a.addi(Reg::R2, Reg::R2, self.tcbs.offset());
        for (i, &r) in saved.iter().enumerate() {
            let off = slot * i as i16;
            match self.protection {
                KernelProtection::None => {
                    a.lw(r, Reg::R2, off);
                }
                KernelProtection::SumDmr => {
                    // r ← primary; verify against duplicate, arbitrate by
                    // checksum on divergence (mirrors ProtectedWord::emit_load
                    // with base-register addressing).
                    let next = a.new_label();
                    let use_copy = a.new_label();
                    let signal = a.new_label();
                    a.lw(r, Reg::R2, off);
                    a.lw(Reg::R3, Reg::R2, off + 4);
                    a.beq(r, Reg::R3, next);
                    a.lw(Reg::R14, Reg::R2, off + 8);
                    a.sub(Reg::R14, Reg::R0, Reg::R14);
                    a.beq(Reg::R3, Reg::R14, use_copy);
                    a.bne(r, Reg::R14, abort);
                    a.j(signal);
                    a.bind(use_copy);
                    a.mv(r, Reg::R3);
                    a.bind(signal);
                    a.detect_signal(r);
                    a.bind(next);
                }
            }
        }
        a.jalr(Reg::R0, Reg::RA, 0);
        if self.protection == KernelProtection::SumDmr {
            a.bind(abort);
            a.halt(SUMDMR_ABORT_CODE);
        }
        // (The abort label is never referenced in unprotected builds.)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_machine::{Machine, RunStatus};

    /// Two threads alternately printing their ids, three times each.
    fn ping_pong(protection: KernelProtection) -> sofi_isa::Program {
        let mut a = Asm::with_name("pingpong");
        let t0 = a.new_named_label("t0");
        let t1 = a.new_named_label("t1");
        let finale = a.new_named_label("finale");
        let k = Kernel::emit_prologue(&mut a, &[t0, t1], finale, protection);

        for (entry, ch) in [(t0, b'A'), (t1, b'B')] {
            a.bind(entry);
            a.li(Reg::R4, 3);
            let l = a.label_here();
            a.li(Reg::R14, ch as i32);
            a.serial_out(Reg::R14);
            k.emit_yield(&mut a);
            a.addi(Reg::R4, Reg::R4, -1);
            a.bne(Reg::R4, Reg::R0, l);
            k.emit_thread_exit(&mut a);
        }

        a.bind(finale);
        a.li(Reg::R14, b'!' as i32);
        a.serial_out(Reg::R14);
        a.halt(0);

        k.emit_runtime(&mut a);
        a.build().unwrap()
    }

    #[test]
    fn threads_interleave_round_robin() {
        for prot in [KernelProtection::None, KernelProtection::SumDmr] {
            let mut m = Machine::new(&ping_pong(prot));
            assert_eq!(m.run(100_000), RunStatus::Halted { code: 0 });
            assert_eq!(m.serial(), b"ABABAB!", "{prot:?}");
            assert_eq!(m.detect_count(), 0);
        }
    }

    #[test]
    fn protected_kernel_costs_cycles_and_ram() {
        let mut plain = Machine::new(&ping_pong(KernelProtection::None));
        let mut hard = Machine::new(&ping_pong(KernelProtection::SumDmr));
        plain.run(100_000);
        hard.run(100_000);
        assert!(hard.cycle() > plain.cycle());
        assert!(hard.ram().size() > plain.ram().size());
    }

    #[test]
    fn protected_kernel_corrects_tcb_corruption() {
        let p = ping_pong(KernelProtection::SumDmr);
        // Flip every bit of the TCB area (one run each) right at boot;
        // the kernel must correct or ignore each of them.
        let tcbs_addr = p.symbol("k_tcbs").unwrap();
        let tcb_bytes = 2 * 11 * 12;
        let mut corrected = 0;
        for byte in 0..tcb_bytes {
            let mut m = Machine::new(&p);
            m.run(40); // past boot, into the first thread
            m.flip_bit((tcbs_addr + byte) as u64 * 8 + 3);
            let status = m.run(100_000);
            assert_eq!(status, RunStatus::Halted { code: 0 }, "byte {byte}");
            assert_eq!(m.serial(), b"ABABAB!", "byte {byte}");
            corrected += u64::from(m.detect_count() > 0);
        }
        assert!(corrected > 0, "some flips must hit live context words");
    }

    #[test]
    fn persistent_registers_survive_yields() {
        // Each thread accumulates into r5 across yields; sums differ per
        // thread and must not bleed over.
        let mut a = Asm::with_name("ctx");
        let t0 = a.new_label();
        let t1 = a.new_label();
        let finale = a.new_label();
        let k = Kernel::emit_prologue(&mut a, &[t0, t1], finale, KernelProtection::None);

        for (entry, step) in [(t0, 1i16), (t1, 3i16)] {
            a.bind(entry);
            a.li(Reg::R4, 5);
            a.li(Reg::R5, 0);
            let l = a.label_here();
            a.addi(Reg::R5, Reg::R5, step);
            k.emit_yield(&mut a);
            a.addi(Reg::R4, Reg::R4, -1);
            a.bne(Reg::R4, Reg::R0, l);
            a.serial_out(Reg::R5);
            k.emit_thread_exit(&mut a);
        }

        a.bind(finale);
        a.halt(0);
        k.emit_runtime(&mut a);

        let mut m = Machine::new(&a.build().unwrap());
        assert_eq!(m.run(100_000), RunStatus::Halted { code: 0 });
        assert_eq!(m.serial(), &[5, 15]);
    }

    #[test]
    fn semaphores_enforce_alternation() {
        for prot in [KernelProtection::None, KernelProtection::SumDmr] {
            let mut a = Asm::with_name("sem");
            let t0 = a.new_label();
            let t1 = a.new_label();
            let finale = a.new_label();
            let k = Kernel::emit_prologue(&mut a, &[t0, t1], finale, prot);
            let sem0 = k.declare_sem(&mut a, "sem0", false); // t0 blocked
            let sem1 = k.declare_sem(&mut a, "sem1", true); // t1 first

            for (entry, ch, own, other) in [(t0, b'x', sem0, sem1), (t1, b'y', sem1, sem0)] {
                a.bind(entry);
                a.li(Reg::R4, 2);
                let l = a.label_here();
                k.emit_sem_wait(&mut a, own);
                a.li(Reg::R14, ch as i32);
                a.serial_out(Reg::R14);
                k.emit_sem_post(&mut a, other);
                a.addi(Reg::R4, Reg::R4, -1);
                a.bne(Reg::R4, Reg::R0, l);
                k.emit_thread_exit(&mut a);
            }

            a.bind(finale);
            a.halt(0);
            k.emit_runtime(&mut a);

            let mut m = Machine::new(&a.build().unwrap());
            assert_eq!(m.run(100_000), RunStatus::Halted { code: 0 }, "{prot:?}");
            assert_eq!(m.serial(), b"yxyx", "{prot:?}");
        }
    }
}
