//! The MIMD-theoretical performance model (paper Fig. 10).
//!
//! The paper's upper bound: the same chip, but every thread advances
//! independently (no lockstep, no divergence penalty) with an ideal memory
//! system. With abundant threads the chip then commits its peak
//! `num_sms × warp_size` thread-instructions per cycle; the run time is
//! bounded below by the longest single thread (critical path).

use crate::config::GpuConfig;
use crate::interp::{InterpError, RefMachine};
use simt_isa::Program;
use simt_mem::MemoryFabric;

/// MIMD-theoretical estimate for one kernel over `num_threads` threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MimdReport {
    /// Total dynamic thread-instructions across all threads.
    pub total_instructions: u64,
    /// Dynamic instructions of the longest thread (critical path).
    pub longest_thread: u64,
    /// Estimated cycles: `max(total / peak_ipc, longest_thread)`.
    pub cycles: u64,
    /// Implied chip IPC.
    pub ipc: f64,
    /// Threads (≙ rays for the traditional kernel).
    pub threads: u32,
}

impl MimdReport {
    /// Completed rays per second at `clock_ghz`.
    pub fn rays_per_second(&self, clock_ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        f64::from(self.threads) / (self.cycles as f64 / (clock_ghz * 1e9))
    }
}

/// Runs every thread on the functional [`RefMachine`] and derives the
/// MIMD-theoretical bound.
///
/// The paper generates its MIMD numbers from the original (traditional)
/// kernel, so a program that can spawn is refused before anything runs.
///
/// # Errors
///
/// [`InterpError::SpawnUnsupported`] for a program with a `spawn` in it;
/// otherwise propagates [`InterpError`] from any thread (runaway loop,
/// illegal access).
pub fn mimd_theoretical(
    program: &Program,
    entry_pc: usize,
    num_threads: u32,
    cfg: &GpuConfig,
    mem: &mut MemoryFabric,
) -> Result<MimdReport, InterpError> {
    if let Some(&pc) = program.spawn_sites().first() {
        return Err(InterpError::SpawnUnsupported { pc });
    }
    // No spawn-state records: nothing here can spawn.
    let mut machine = RefMachine::new(program, num_threads, cfg.shared_mem_per_sm, 0);
    machine.run(mem, entry_pc)?;
    let (total, longest) = (machine.instructions, machine.longest_thread);
    let peak = cfg.peak_ipc();
    let cycles = (total.div_ceil(peak)).max(longest).max(1);
    Ok(MimdReport {
        total_instructions: total,
        longest_thread: longest,
        cycles,
        ipc: total as f64 / cycles as f64,
        threads: num_threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::assemble;
    use simt_mem::MemConfig;

    #[test]
    fn uniform_threads_hit_peak_ipc() {
        let p = assemble(
            r#"
            mov.u32 r1, %tid
            add.s32 r1, r1, 1
            add.s32 r1, r1, 1
            add.s32 r1, r1, 1
            exit
            "#,
        )
        .unwrap();
        let cfg = GpuConfig::tiny(); // peak = 2 SMs * 4 = 8
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let r = mimd_theoretical(&p, 0, 800, &cfg, &mut mem).unwrap();
        assert_eq!(r.total_instructions, 800 * 5);
        assert_eq!(r.longest_thread, 5);
        assert_eq!(r.cycles, 500);
        assert!((r.ipc - 8.0).abs() < 1e-9, "ipc {}", r.ipc);
    }

    #[test]
    fn critical_path_bounds_small_launches() {
        let p = assemble(
            r#"
            mov.u32 r1, %tid
            add.s32 r2, r1, 1
            loop:
            sub.s32 r2, r2, 1
            setp.gt.s32 p0, r2, 0
            @p0 bra loop
            exit
            "#,
        )
        .unwrap();
        let cfg = GpuConfig::tiny();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let r = mimd_theoretical(&p, 0, 2, &cfg, &mut mem).unwrap();
        // Thread 1 loops twice: 2 + 3*2 + 1 = 9 instructions.
        assert_eq!(r.longest_thread, 9);
        assert_eq!(r.cycles, 9, "critical path dominates a 2-thread launch");
    }

    #[test]
    fn a_program_that_can_spawn_is_refused_up_front() {
        let p = assemble(
            r#"
            .kernel main
            .kernel child
            main:
                exit
                spawn $child, r1
            child:
                exit
            "#,
        )
        .unwrap();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let err = mimd_theoretical(&p, 0, 1, &GpuConfig::tiny(), &mut mem).unwrap_err();
        // Refused by inspection: this thread would have exited before it.
        assert_eq!(err, InterpError::SpawnUnsupported { pc: 1 });
    }

    #[test]
    fn rays_per_second_scales_with_clock() {
        let p = assemble("nop\nexit").unwrap();
        let cfg = GpuConfig::tiny();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let r = mimd_theoretical(&p, 0, 8, &cfg, &mut mem).unwrap();
        assert!(r.rays_per_second(2.0) > r.rays_per_second(1.0));
    }
}
