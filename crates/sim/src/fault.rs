//! Hardware-style fault model: typed launch errors, runtime warp traps,
//! deadlock diagnostics, and deterministic fault injection.
//!
//! Real GPUs do not unwind the host process when device code misbehaves —
//! they raise a typed error at launch time (bad configuration) or trap the
//! offending warp at run time (illegal address, exhausted hardware
//! resource). This module gives the simulator the same shape:
//!
//! * [`LaunchError`] — everything [`crate::Gpu::launch`] can reject before
//!   a single cycle is simulated.
//! * [`Fault`] / [`FaultKind`] — a runtime trap raised by one warp, with
//!   the SM, warp, PC, and cycle where it happened.
//! * [`FaultPolicy`] — what the chip does with a trap: abort the
//!   simulation with a typed [`SimError`], or kill the faulting warp and
//!   keep rendering (graceful degradation, counted in
//!   [`crate::stats::SimStats`]).
//! * [`DeadlockDiagnostics`] — the watchdog's snapshot of every SM when no
//!   forward progress is made for [`crate::GpuConfig::watchdog_cycles`]
//!   cycles.
//! * [`Injector`] — a seeded, deterministic fault injector that forces
//!   spawn-FIFO-full, formation-full, state-slot-exhaustion, and trap
//!   events inside chosen cycle windows, for testing the recovery paths.

use simt_mem::MemFault;
use std::fmt;
use std::ops::Range;

simt_isa::record! {
    /// What a warp trapped on.
    ///
    /// Marked `#[non_exhaustive]`: richer hardware models will trap on new
    /// things, so downstream matches need a wildcard arm.
    #[derive(Debug, Clone, PartialEq, Eq)]
    #[non_exhaustive]
    pub enum FaultKind: "fault kind" {
        /// An illegal memory access (misaligned, out-of-bounds store, write to
        /// a read-only space, …).
        Memory(MemFault) = 0,
        /// A `spawn` instruction (or spawn-space access) executed on a machine
        /// whose dynamic μ-kernel hardware is disabled.
        SpawnUnsupported = 1,
        /// A `spawn` needed a new LUT line but every line was in use: the
        /// program uses more concurrent μ-kernel targets than the spawn LUT
        /// supports.
        LutExhausted {
            /// The μ-kernel entry PC that could not be allocated a line.
            target_pc: usize,
            /// Number of LUT lines in the configured hardware.
            capacity: usize,
        } = 2,
        /// The warp's PC left the program: an instruction fetch past the last
        /// instruction (a wild branch, or a control-flow stack corrupted by an
        /// earlier fault under [`FaultPolicy::KillWarp`]).
        FetchOutOfRange {
            /// Number of instructions in the running program.
            len: usize,
        } = 3,
        /// A trap forced by the [`Injector`] (no architectural cause).
        Injected = 4,
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Memory(m) => write!(f, "{m}"),
            FaultKind::SpawnUnsupported => {
                write!(
                    f,
                    "spawn executed but dynamic μ-kernel hardware is disabled"
                )
            }
            FaultKind::LutExhausted {
                target_pc,
                capacity,
            } => write!(
                f,
                "spawn LUT exhausted: no line for μ-kernel at pc {target_pc} ({capacity} lines)"
            ),
            FaultKind::FetchOutOfRange { len } => {
                write!(
                    f,
                    "instruction fetch past the end of the program ({len} instructions)"
                )
            }
            FaultKind::Injected => write!(f, "fault injected by the test harness"),
        }
    }
}

simt_isa::record! {
    /// A runtime trap raised by one warp.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Fault {
        /// What the warp trapped on.
        pub kind: FaultKind,
        /// SM index where the trap was raised.
        pub sm: usize,
        /// Hardware warp id (unique per SM across the run).
        pub warp: usize,
        /// PC of the faulting instruction.
        pub pc: usize,
        /// Cycle at which the trap was raised.
        pub cycle: u64,
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault at cycle {}: sm {} warp {} pc {}: {}",
            self.cycle, self.sm, self.warp, self.pc, self.kind
        )
    }
}

impl std::error::Error for Fault {}

simt_isa::record! {
    /// What the chip does when a warp traps.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
    pub enum FaultPolicy: "fault policy" {
        /// Stop the simulation: [`crate::Gpu::run`] returns the fault as
        /// `Err(SimError::Fault(..))`.
        #[default]
        Abort = 0,
        /// Kill the faulting warp (its live lanes are discarded, not retired),
        /// record the fault in [`crate::stats::SimStats`], and keep running.
        KillWarp = 1,
    }
}

/// Why [`crate::Gpu::launch`] rejected a launch request.
///
/// Marked `#[non_exhaustive]`: launch validation grows with the machine
/// model, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LaunchError {
    /// The previous launch has not fully drained yet.
    LaunchActive,
    /// The named entry point does not exist in the program.
    UnknownEntry {
        /// The entry name that was requested.
        entry: String,
    },
    /// `num_threads` was zero.
    NoThreads,
    /// `threads_per_block` is not a positive multiple of the warp size.
    BadBlockSize {
        /// The requested block size.
        threads_per_block: u32,
        /// The machine's warp size.
        warp_size: u32,
    },
    /// The program contains `spawn` instructions but the machine has no
    /// dynamic μ-kernel hardware.
    SpawnHardwareMissing,
    /// The program spawns more distinct μ-kernel targets than the spawn
    /// LUT has lines, so a runtime LUT trap would be inevitable.
    LutCapacityExceeded {
        /// Distinct μ-kernel targets reachable via `spawn`.
        targets: usize,
        /// LUT lines in the configured hardware.
        capacity: usize,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::LaunchActive => write!(f, "the previous launch is still active"),
            LaunchError::UnknownEntry { entry } => write!(f, "entry point `{entry}` not found"),
            LaunchError::NoThreads => write!(f, "launch has zero threads"),
            LaunchError::BadBlockSize {
                threads_per_block,
                warp_size,
            } => write!(
                f,
                "block size {threads_per_block} is not a positive multiple of the warp size {warp_size}"
            ),
            LaunchError::SpawnHardwareMissing => {
                write!(f, "program uses `spawn` but dynamic μ-kernel hardware is disabled")
            }
            LaunchError::LutCapacityExceeded { targets, capacity } => write!(
                f,
                "program spawns {targets} distinct μ-kernels but the spawn LUT has {capacity} lines"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// A fatal simulation error returned by [`crate::Gpu::run`].
///
/// Marked `#[non_exhaustive]`: future machine models may fail fatally for
/// new reasons, so downstream matches need a wildcard arm. Like
/// [`LaunchError`] it implements `std::error::Error + Display`, so
/// callers can format it with `{e}` instead of matching.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A warp trapped under [`FaultPolicy::Abort`].
    Fault(Fault),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One warp's state at the moment the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpSnapshot {
    /// Hardware warp id.
    pub warp: usize,
    /// Current PC (top of the PDOM stack), `None` if the warp finished.
    pub pc: Option<usize>,
    /// Lanes still live under the current stack entry.
    pub live_lanes: u32,
    /// Cycle at which the warp is next schedulable.
    pub ready_at: u64,
    /// Whether the warp was formed dynamically from spawned threads.
    pub is_dynamic: bool,
}

/// One SM's state at the moment the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmSnapshot {
    /// SM index.
    pub sm: usize,
    /// Resident warps.
    pub warps: Vec<WarpSnapshot>,
    /// Free spawn-memory state records (dmk machines only).
    pub free_state_slots: usize,
    /// Completed warps waiting in the new-warp FIFO.
    pub fifo_depth: usize,
}

/// Snapshot of the whole chip attached to [`crate::RunOutcome::Deadlock`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockDiagnostics {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// The configured no-progress threshold that was exceeded.
    pub watchdog_cycles: u64,
    /// Launch blocks still waiting for an SM.
    pub pending_blocks: usize,
    /// Per-SM warp states.
    pub sms: Vec<SmSnapshot>,
}

impl fmt::Display for DeadlockDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock: no forward progress for {} cycles (at cycle {}), {} blocks pending",
            self.watchdog_cycles, self.cycle, self.pending_blocks
        )?;
        for sm in &self.sms {
            writeln!(
                f,
                "  sm {}: {} warps, {} free state slots, fifo depth {}",
                sm.sm,
                sm.warps.len(),
                sm.free_state_slots,
                sm.fifo_depth
            )?;
            for w in &sm.warps {
                writeln!(
                    f,
                    "    warp {}{}: pc {:?}, {} live lanes, ready at {}",
                    w.warp,
                    if w.is_dynamic { " (dynamic)" } else { "" },
                    w.pc,
                    w.live_lanes,
                    w.ready_at
                )?;
            }
        }
        Ok(())
    }
}

simt_isa::record! {
    /// An event class the [`Injector`] can force.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum InjectedFault: "injected fault" {
        /// The new-warp FIFO reports full on `spawn` (back-pressure: the
        /// spawning warp stalls and retries).
        SpawnFifoFull = 0,
        /// The formation area reports no free blocks on `spawn` (same
        /// back-pressure path).
        FormationFull = 1,
        /// The SM reports no free spawn-memory state records, starving
        /// launch-warp admission for the cycle.
        StateSlotsExhausted = 2,
        /// The next issuing warp traps with [`FaultKind::Injected`].
        Trap = 3,
    }
}

simt_isa::record! {
    /// One event class the [`Injector`] forces inside a cycle window.
    #[derive(Debug, Clone)]
    pub(crate) struct Injection {
        what: InjectedFault,
        from: u64,
        until: u64,
        probability: f64,
    }
}

simt_isa::record! {
    /// Seeded, deterministic fault injector.
    ///
    /// Events are forced inside half-open cycle windows. With the default
    /// probability of 1 the injector is a pure function of the cycle number;
    /// with a fractional probability, firing is decided by a hash of the seed
    /// and the cycle, so a given seed always reproduces the same event stream.
    ///
    /// ```
    /// use simt_sim::{InjectedFault, Injector};
    ///
    /// let inj = Injector::new(42).force(InjectedFault::SpawnFifoFull, 100..200);
    /// assert!(inj.fires(InjectedFault::SpawnFifoFull, 150));
    /// assert!(!inj.fires(InjectedFault::SpawnFifoFull, 250));
    /// ```
    #[derive(Debug, Clone)]
    pub struct Injector {
        seed: u64,
        events: Vec<Injection>,
    }
}

impl Injector {
    /// Creates an injector with no scheduled events.
    pub fn new(seed: u64) -> Self {
        Injector {
            seed,
            events: Vec::new(),
        }
    }

    /// Forces `what` on every cycle in `cycles`.
    #[must_use]
    pub fn force(self, what: InjectedFault, cycles: Range<u64>) -> Self {
        self.force_with_probability(what, cycles, 1.0)
    }

    /// Forces `what` on each cycle in `cycles` independently with
    /// probability `p`, decided deterministically from the seed.
    #[must_use]
    pub fn force_with_probability(
        mut self,
        what: InjectedFault,
        cycles: Range<u64>,
        p: f64,
    ) -> Self {
        self.events.push(Injection {
            what,
            from: cycles.start,
            until: cycles.end,
            probability: p,
        });
        self
    }

    /// Whether `what` fires at `cycle`.
    pub fn fires(&self, what: InjectedFault, cycle: u64) -> bool {
        self.events.iter().any(|e| {
            e.what == what
                && cycle >= e.from
                && cycle < e.until
                && (e.probability >= 1.0 || self.draw(what, cycle) < e.probability)
        })
    }

    /// Deterministic uniform draw in `[0, 1)` keyed by seed, event, cycle.
    fn draw(&self, what: InjectedFault, cycle: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(what as u64 + 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_windows_are_half_open() {
        let inj = Injector::new(1).force(InjectedFault::Trap, 10..20);
        assert!(!inj.fires(InjectedFault::Trap, 9));
        assert!(inj.fires(InjectedFault::Trap, 10));
        assert!(inj.fires(InjectedFault::Trap, 19));
        assert!(!inj.fires(InjectedFault::Trap, 20));
        assert!(!inj.fires(InjectedFault::SpawnFifoFull, 15));
    }

    #[test]
    fn probabilistic_injection_is_deterministic() {
        let a = Injector::new(7).force_with_probability(InjectedFault::Trap, 0..1000, 0.5);
        let b = Injector::new(7).force_with_probability(InjectedFault::Trap, 0..1000, 0.5);
        let fired: Vec<bool> = (0..1000).map(|c| a.fires(InjectedFault::Trap, c)).collect();
        let again: Vec<bool> = (0..1000).map(|c| b.fires(InjectedFault::Trap, c)).collect();
        assert_eq!(fired, again);
        let count = fired.iter().filter(|&&f| f).count();
        assert!(count > 300 && count < 700, "p=0.5 fired {count}/1000");
    }

    #[test]
    fn fault_display_includes_location() {
        let f = Fault {
            kind: FaultKind::Injected,
            sm: 3,
            warp: 7,
            pc: 12,
            cycle: 99,
        };
        let s = f.to_string();
        assert!(s.contains("sm 3") && s.contains("warp 7") && s.contains("pc 12"));
    }
}
