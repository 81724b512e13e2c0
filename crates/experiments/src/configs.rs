//! The machine variants compared in the paper's evaluation.

use dmk_core::DmkConfig;
use simt_mem::MemPreset;
use simt_sim::{Gpu, GpuConfig, TelemetrySpec};
use std::fmt;

/// The telemetry configuration the experiment drivers run with, the
/// process-wide [`crate::Policy::telemetry`]: windowed metrics always
/// (they cost a few counters and feed the figure timelines), per-event
/// rings only under `--trace`.
pub fn telemetry_spec() -> TelemetrySpec {
    crate::supervisor::policy().telemetry
}

/// One evaluated machine configuration (paper §VI/§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Traditional kernel, PDOM branching, block scheduling — the
    /// "traditional SIMT hardware" baseline (FX5800 behaviour).
    PdomBlock,
    /// Traditional kernel, PDOM branching, warp-granular scheduling.
    PdomWarp,
    /// Traditional kernel, PDOM, warp scheduling, ideal memory (Fig. 10).
    PdomWarpIdeal,
    /// Dynamic μ-kernels, no spawn-memory bank conflicts (Figs. 7/8/10).
    Dynamic,
    /// Dynamic μ-kernels with spawn-memory bank conflicts (Fig. 9).
    DynamicConflicts,
    /// Dynamic μ-kernels with ideal memory (Fig. 10 "potential").
    DynamicIdeal,
}

impl Variant {
    /// All variants, in presentation order.
    pub const ALL: [Variant; 6] = [
        Variant::PdomBlock,
        Variant::PdomWarp,
        Variant::PdomWarpIdeal,
        Variant::Dynamic,
        Variant::DynamicConflicts,
        Variant::DynamicIdeal,
    ];

    /// Whether this variant runs the μ-kernel program.
    pub fn is_dynamic(self) -> bool {
        matches!(
            self,
            Variant::Dynamic | Variant::DynamicConflicts | Variant::DynamicIdeal
        )
    }

    /// Stable machine-readable name, used in scenario job names
    /// (`workload@variant`), the serve wire format, and fingerprints.
    /// Never rename these: journals and cached results key on them.
    pub fn wire_name(self) -> &'static str {
        match self {
            Variant::PdomBlock => "pdom-block",
            Variant::PdomWarp => "pdom-warp",
            Variant::PdomWarpIdeal => "pdom-warp-ideal",
            Variant::Dynamic => "dynamic",
            Variant::DynamicConflicts => "dynamic-conflicts",
            Variant::DynamicIdeal => "dynamic-ideal",
        }
    }

    /// Parses a [`Self::wire_name`] back into a variant.
    pub fn from_wire(name: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.wire_name() == name)
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Variant::PdomBlock => "PDOM Block",
            Variant::PdomWarp => "PDOM Warp",
            Variant::PdomWarpIdeal => "PDOM Warp (ideal mem)",
            Variant::Dynamic => "Dynamic",
            Variant::DynamicConflicts => "Dynamic (bank conflicts)",
            Variant::DynamicIdeal => "Dynamic (ideal mem)",
        };
        f.write_str(s)
    }
}

/// The machine configuration for a variant (paper Table I machine).
/// Separated from [`gpu_for`] so job-identity fingerprints can digest
/// the configuration without building a machine.
pub fn config_for(variant: Variant) -> GpuConfig {
    config_on(variant, None)
}

/// `variant`'s machine on the memory machine `mem` in place of its own
/// (ideal for the `*Ideal` variants, the Table I flat fabric otherwise).
pub(crate) fn config_on(variant: Variant, mem: Option<MemPreset>) -> GpuConfig {
    let mut cfg = match variant {
        Variant::PdomBlock => GpuConfig::fx5800(),
        Variant::PdomWarp | Variant::PdomWarpIdeal => GpuConfig::fx5800_warp_sched(),
        Variant::Dynamic | Variant::DynamicConflicts | Variant::DynamicIdeal => {
            GpuConfig::fx5800_dmk(DmkConfig::paper())
        }
    };
    let own = match variant {
        Variant::PdomWarpIdeal | Variant::DynamicIdeal => MemPreset::Ideal,
        _ => MemPreset::Flat,
    };
    let conflicts = variant == Variant::DynamicConflicts;
    cfg.mem = mem
        .unwrap_or(own)
        .config()
        .with_spawn_bank_conflicts(conflicts);
    cfg
}

/// Builds the simulated GPU for a variant (paper Table I machine), with
/// the process-wide telemetry settings applied.
pub fn gpu_for(variant: Variant) -> Gpu {
    machine(config_for(variant))
}

/// [`gpu_for`] with an explicit telemetry configuration (the benchmark
/// harness uses this to compare telemetry-off against telemetry-on).
pub fn gpu_for_with(variant: Variant, telemetry: TelemetrySpec) -> Gpu {
    Gpu::builder(config_for(variant))
        .telemetry(telemetry)
        .build()
}

/// The one machine builder of the experiments: `cfg` with the process-wide
/// telemetry settings applied.
pub(crate) fn machine(cfg: GpuConfig) -> Gpu {
    Gpu::builder(cfg).telemetry(telemetry_spec()).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::SchedulingModel;

    #[test]
    fn variants_configure_expected_machines() {
        let g = gpu_for(Variant::PdomBlock);
        assert_eq!(g.config().scheduling, SchedulingModel::Block);
        assert!(g.config().dmk.is_none());

        let g = gpu_for(Variant::PdomWarp);
        assert_eq!(g.config().scheduling, SchedulingModel::Warp);

        let g = gpu_for(Variant::Dynamic);
        assert!(g.config().dmk.is_some());
        assert!(!g.config().mem.spawn_bank_conflicts);

        let g = gpu_for(Variant::DynamicConflicts);
        assert!(g.config().mem.spawn_bank_conflicts);

        let g = gpu_for(Variant::DynamicIdeal);
        assert!(g.config().mem.ideal);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Variant::PdomBlock.to_string(), "PDOM Block");
        assert_eq!(Variant::Dynamic.to_string(), "Dynamic");
    }
}
