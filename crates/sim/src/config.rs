//! Machine configuration (paper Table I).

use crate::fault::FaultPolicy;
use dmk_core::DmkConfig;
use serde::{Deserialize, Serialize};
use simt_mem::MemConfig;
use std::fmt;

simt_isa::record! {
    /// When the `spawn` instruction actually creates threads.
    ///
    /// The paper's evaluated implementation is [`SpawnPolicy::Always`] ("we
    /// implemented a naïve thread spawning method, where the entire store and
    /// restore operations ... are performed for every loop iteration", §VI-A).
    /// [`SpawnPolicy::OnDivergence`] implements the §IX future-work
    /// optimization: when *every* populated lane of the warp executes the same
    /// spawn, the hardware branches the warp to the target μ-kernel in place —
    /// no thread creation, no trip through the warp-formation unit — while
    /// still handing each lane its state pointer through spawn memory.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum SpawnPolicy: "spawn policy" {
        /// Every spawn creates threads (the paper's evaluated design).
        Always = 0,
        /// Convergent warps branch instead of spawning (§IX optimization).
        OnDivergence = 1,
    }
}

simt_isa::record! {
    /// How launch-time threads are assigned to SMs (paper §VI).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum SchedulingModel: "scheduling model" {
        /// FX5800 behaviour: a thread block is dispatched only when the SM has
        /// room for the *entire* block, and block slots are limited
        /// (`max_blocks_per_sm`). Supports intra-block synchronization.
        Block = 0,
        /// Warp-granular scheduling: individual warps are dispatched as long as
        /// thread/register resources allow, ignoring block boundaries. This is
        /// the model dynamic μ-kernels are designed for.
        Warp = 1,
    }
}

impl fmt::Display for SchedulingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulingModel::Block => f.write_str("block"),
            SchedulingModel::Warp => f.write_str("warp"),
        }
    }
}

simt_isa::record! {
    /// Full machine configuration.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct GpuConfig {
        /// Streaming multiprocessors on the chip (Table I: 30).
        pub num_sms: usize,
        /// Threads per warp (Table I: 32).
        pub warp_size: u32,
        /// Stream processors per SM (Table I: 8). Documentation only — the
        /// issue model is one warp-instruction per SM per cycle.
        pub sps_per_sm: u32,
        /// Maximum resident threads per SM (Table I: 1024).
        pub max_threads_per_sm: u32,
        /// Maximum resident thread blocks per SM (Table I: 8).
        pub max_blocks_per_sm: u32,
        /// Register file size per SM, in 32-bit registers (Table I: 16384).
        pub registers_per_sm: u32,
        /// On-chip memory per SM in bytes (Table I: 64 KB).
        pub shared_mem_per_sm: u32,
        /// Launch scheduling model.
        pub scheduling: SchedulingModel,
        /// Extra issue latency for long operations (div/sqrt/rcp), cycles.
        pub long_op_latency: u32,
        /// Shader clock in GHz, used only to convert cycles to wall time when
        /// reporting rays/second (FX5800 shader clock ≈ 1.30 GHz).
        pub clock_ghz: f64,
        /// Memory-system configuration.
        pub mem: MemConfig,
        /// Dynamic μ-kernel hardware; `None` disables the spawn instruction
        /// (baseline PDOM machine).
        pub dmk: Option<DmkConfig>,
        /// When `spawn` creates threads vs branches in place.
        pub spawn_policy: SpawnPolicy,
        /// Divergence-timeline window size in cycles (statistics granularity).
        pub divergence_window: u64,
        /// What the chip does when a warp traps (illegal access, exhausted
        /// spawn LUT, injected fault): abort the run with a typed error, or
        /// kill the warp and keep going.
        pub fault_policy: FaultPolicy,
        /// Watchdog threshold: if no thread retires, spawns, or is killed for
        /// this many consecutive cycles while work remains, the run stops with
        /// [`crate::RunOutcome::Deadlock`] and per-SM diagnostics.
        pub watchdog_cycles: u64,
    }
}

impl GpuConfig {
    /// The paper's simulated machine (Table I), baseline PDOM variant with
    /// block scheduling (the "traditional hardware" configuration).
    pub fn fx5800() -> Self {
        GpuConfig {
            num_sms: 30,
            warp_size: 32,
            sps_per_sm: 8,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            registers_per_sm: 16384,
            shared_mem_per_sm: 64 * 1024,
            scheduling: SchedulingModel::Block,
            long_op_latency: 8,
            clock_ghz: 1.30,
            mem: MemConfig::fx5800(),
            dmk: None,
            spawn_policy: SpawnPolicy::Always,
            divergence_window: 25_000,
            fault_policy: FaultPolicy::Abort,
            watchdog_cycles: 2_000_000,
        }
    }

    /// FX5800 with warp-granular launch scheduling ("PDOM Warp").
    pub fn fx5800_warp_sched() -> Self {
        GpuConfig {
            scheduling: SchedulingModel::Warp,
            ..GpuConfig::fx5800()
        }
    }

    /// FX5800 extended with the dynamic μ-kernel hardware (which requires
    /// warp scheduling, §VI).
    pub fn fx5800_dmk(dmk: DmkConfig) -> Self {
        GpuConfig {
            scheduling: SchedulingModel::Warp,
            dmk: Some(dmk),
            ..GpuConfig::fx5800()
        }
    }

    /// A deliberately small machine for fast unit tests: 2 SMs, 4-thread
    /// warps.
    pub fn tiny() -> Self {
        GpuConfig {
            num_sms: 2,
            warp_size: 4,
            sps_per_sm: 2,
            max_threads_per_sm: 32,
            max_blocks_per_sm: 4,
            registers_per_sm: 2048,
            shared_mem_per_sm: 16 * 1024,
            scheduling: SchedulingModel::Warp,
            long_op_latency: 4,
            clock_ghz: 1.0,
            mem: MemConfig::fx5800(),
            dmk: None,
            spawn_policy: SpawnPolicy::Always,
            divergence_window: 1_000,
            fault_policy: FaultPolicy::Abort,
            watchdog_cycles: 2_000_000,
        }
    }

    /// Peak committed thread-instructions per cycle for the whole chip.
    pub fn peak_ipc(&self) -> u64 {
        self.num_sms as u64 * u64::from(self.warp_size)
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Why the machine cannot be built: the warp size exceeds 64 lanes
    /// (mask width) or is zero, there is no SM, the watchdog threshold or
    /// the divergence window is zero, or the DMK warp size or thread
    /// capacity disagrees with the machine's.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.warp_size == 0 || self.warp_size > 64 {
            return Err("warp size must be 1..=64");
        }
        if self.num_sms == 0 {
            return Err("need at least one SM");
        }
        if self.watchdog_cycles == 0 {
            return Err("watchdog threshold must be positive");
        }
        if self.divergence_window == 0 {
            return Err("divergence window must be positive");
        }
        if let Some(d) = &self.dmk {
            if d.warp_size != self.warp_size {
                return Err("DMK warp size must match machine");
            }
            if d.threads_per_sm != self.max_threads_per_sm {
                return Err("DMK thread capacity must match machine");
            }
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::fx5800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx5800_matches_table_1() {
        let c = GpuConfig::fx5800();
        assert_eq!(c.num_sms, 30);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.sps_per_sm, 8);
        assert_eq!(c.max_threads_per_sm, 1024);
        assert_eq!(c.max_blocks_per_sm, 8);
        assert_eq!(c.registers_per_sm, 16384);
        assert_eq!(c.shared_mem_per_sm, 64 * 1024);
        assert_eq!(c.peak_ipc(), 960);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn dmk_variant_uses_warp_scheduling() {
        let c = GpuConfig::fx5800_dmk(DmkConfig::paper());
        assert_eq!(c.scheduling, SchedulingModel::Warp);
        assert!(c.dmk.is_some());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let c = GpuConfig::fx5800();
        let s = c.cycles_to_seconds(1_300_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_dmk_warp_size_rejected() {
        let mut c = GpuConfig::tiny();
        c.dmk = Some(DmkConfig::paper());
        assert_eq!(c.validate(), Err("DMK warp size must match machine"));
    }
}
