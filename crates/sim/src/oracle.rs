//! Lockstep differential oracle: cycle-level [`Gpu`] vs. [`RefMachine`].
//!
//! Each generated program (see `simt_isa::gen`) is executed on the
//! functional reference machine once and on the cycle-level simulator
//! under a matrix of timing variants — spawn-bank-conflict modelling on
//! and off, both spawn policies, sleeping SMs vs. forced per-cycle
//! ticking, every memory machine (flat, L1-only, L1+L2 behind the
//! interconnect, ideal), and a run cut at a mid-run cycle and carried
//! through the snapshot format. Timing knobs must never change functional results, and neither may a
//! checkpoint, so every variant is compared against the *same*
//! reference run:
//!
//! * the final global-memory image (output region + per-slot scratch);
//! * under [`SpawnPolicy::Always`], the four lifecycle counters
//!   (`threads_launched`, `threads_spawned`, `threads_retired`,
//!   `lineages_completed`), which together pin the retired-thread set for
//!   comparable programs (thread identity flows through lineage ids, not
//!   machine-assigned tids);
//! * under [`SpawnPolicy::OnDivergence`], global memory only — spawn
//!   elision legitimately converts spawned children into continued
//!   parents, changing the counters but never the data.
//!
//! A failing case is shrunk greedily over the generator's config knobs
//! and dumped as a self-contained `.s` repro (source plus a
//! `; gen-config:` header that [`parse_repro`] reads back).

use crate::checkpoint::Snapshot;
use crate::config::{GpuConfig, SpawnPolicy};
use crate::gpu::{Gpu, Launch, RunOutcome};
use crate::interp::RefMachine;
use dmk_core::DmkConfig;
use simt_isa::gen::{generate, GenConfig, GenProgram, CONST_WORDS, STATE_BYTES};
use simt_mem::{MemConfig, MemoryFabric};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Cycle budget per simulated variant. Generated programs are tiny; a
/// healthy run finishes in thousands of cycles.
const MAX_CYCLES: u64 = 5_000_000;

/// Shared-memory capacity visible to the reference machine, matching the
/// per-SM scratchpad the generator's addresses wrap inside.
const REF_SHARED_BYTES: u32 = 16 * 1024;

/// The memory machine a variant times its accesses on. All of them share
/// one timing batch, so they may differ in cycles only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPreset {
    /// Paper Table I: DRAM modules only ([`MemConfig::fx5800`]).
    Flat,
    /// A per-SM L1 with MSHRs in front of the flat fabric.
    L1Only,
    /// L1, banked interconnect and L2 ([`MemConfig::fx5800_cached`]).
    Cached,
    /// Every access completes next cycle.
    Ideal,
}

/// One timing variant of the cycle-level machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Model spawn-memory bank conflicts.
    pub bank_conflicts: bool,
    /// Spawn policy under test.
    pub policy: SpawnPolicy,
    /// Step every SM every cycle instead of letting idle SMs sleep
    /// ([`crate::GpuBuilder::force_tick`]).
    pub force_tick: bool,
    /// Memory machine.
    pub mem: MemPreset,
    /// Stop at a seed-derived cycle inside the run, carry the machine
    /// through `checkpoint → to_bytes → from_bytes → restore`, and finish
    /// on the restored one.
    pub restore: bool,
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "banks={} policy={:?} loop={} mem={:?}{}",
            if self.bank_conflicts { "on" } else { "off" },
            self.policy,
            if self.force_tick { "tick" } else { "sleep" },
            self.mem,
            if self.restore { " restore=mid-run" } else { "" }
        )
    }
}

/// The variant the matrix is spelled against: each arm names only what it
/// changes.
const BASE: Variant = Variant {
    bank_conflicts: false,
    policy: SpawnPolicy::Always,
    force_tick: false,
    mem: MemPreset::Flat,
    restore: false,
};

/// The variant matrix every case runs through.
pub const VARIANTS: [Variant; 9] = [
    BASE,
    // `BASE` again through a snapshot. It runs second because it cuts at
    // a fraction of the cycles `BASE` just took: the same machine, so the
    // cut always falls inside its run.
    Variant {
        restore: true,
        ..BASE
    },
    Variant {
        bank_conflicts: true,
        ..BASE
    },
    Variant {
        policy: SpawnPolicy::OnDivergence,
        ..BASE
    },
    // The ticking machine is the differential reference for sleeping
    // SMs: one arm per spawn policy, on the timing-richest settings.
    Variant {
        bank_conflicts: true,
        force_tick: true,
        ..BASE
    },
    Variant {
        policy: SpawnPolicy::OnDivergence,
        force_tick: true,
        ..BASE
    },
    // The other memory machines: functional results must not move when
    // only the timing behind the cycle's batch does.
    Variant {
        bank_conflicts: true,
        mem: MemPreset::L1Only,
        ..BASE
    },
    Variant {
        bank_conflicts: true,
        mem: MemPreset::Cached,
        ..BASE
    },
    Variant {
        policy: SpawnPolicy::OnDivergence,
        mem: MemPreset::Ideal,
        ..BASE
    },
];

/// How a differential case failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The reference machine itself faulted (generator invariant broken).
    ReferenceError {
        /// Rendered interpreter error.
        detail: String,
    },
    /// A simulator variant failed to launch or run.
    GpuError {
        /// The failing variant.
        variant: Variant,
        /// Rendered launch/run error.
        detail: String,
    },
    /// A variant stopped for a reason other than completion.
    NotCompleted {
        /// The failing variant.
        variant: Variant,
        /// Rendered [`RunOutcome`].
        outcome: String,
    },
    /// Final global memory differs at `word` (byte address `word * 4`).
    Global {
        /// The failing variant.
        variant: Variant,
        /// Word index into the compared global region.
        word: usize,
        /// Simulator value.
        gpu: u32,
        /// Reference value.
        reference: u32,
    },
    /// A lifecycle counter differs.
    Counter {
        /// The failing variant.
        variant: Variant,
        /// Which counter.
        counter: &'static str,
        /// Simulator value.
        gpu: u64,
        /// Reference value.
        reference: u64,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::ReferenceError { detail } => write!(f, "reference machine: {detail}"),
            Mismatch::GpuError { variant, detail } => write!(f, "[{variant}] gpu: {detail}"),
            Mismatch::NotCompleted { variant, outcome } => {
                write!(f, "[{variant}] did not complete: {outcome}")
            }
            Mismatch::Global {
                variant,
                word,
                gpu,
                reference,
            } => write!(
                f,
                "[{variant}] global word {word} (addr {:#x}): gpu {gpu:#010x} != ref {reference:#010x}",
                word * 4
            ),
            Mismatch::Counter {
                variant,
                counter,
                gpu,
                reference,
            } => write!(f, "[{variant}] {counter}: gpu {gpu} != ref {reference}"),
        }
    }
}

/// Outcome of one differential case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The configuration that was run.
    pub cfg: GenConfig,
    /// The first mismatch found, if any.
    pub mismatch: Option<Mismatch>,
    /// Whether the program exercised `spawn`.
    pub spawns: bool,
    /// Whether the program contained loops.
    pub loops: bool,
    /// Children the reference machine spawned (coverage signal).
    pub ref_spawned: u64,
}

impl CaseReport {
    /// True when every variant matched the reference.
    pub fn passed(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Reference-run result: final global image plus lifecycle counters.
struct RefRun {
    global: Vec<u32>,
    launched: u64,
    spawned: u64,
    retired: u64,
    lineages: u64,
}

fn run_reference(gp: &GenProgram) -> Result<RefRun, String> {
    let mut mem = MemoryFabric::new(MemConfig::fx5800());
    mem.alloc_global(gp.cfg.global_bytes(), "oracle");
    setup_const(&mut mem, &gp.cfg);
    mem.configure_local(gp.program.resource_usage().local_bytes);
    let entry = entry_pc(gp, "main")?;
    let mut m = RefMachine::new(&gp.program, gp.cfg.ntid, REF_SHARED_BYTES, STATE_BYTES);
    m.run(&mut mem, entry).map_err(|e| e.to_string())?;
    Ok(RefRun {
        global: mem.host_read_global(0, gp.cfg.global_bytes() as usize / 4),
        launched: m.threads_launched,
        spawned: m.threads_spawned,
        retired: m.threads_retired,
        lineages: m.lineages_completed,
    })
}

fn setup_const(mem: &mut MemoryFabric, cfg: &GenConfig) {
    if cfg.use_const {
        let base = mem.alloc_const(CONST_WORDS * 4, "oracle-const");
        for (i, w) in cfg.const_image().iter().enumerate() {
            mem.host_write_const(base + 4 * i as u32, *w);
        }
    }
}

fn entry_pc(gp: &GenProgram, name: &str) -> Result<usize, String> {
    gp.program
        .entry_points()
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.pc)
        .ok_or_else(|| format!("no `{name}` entry point"))
}

fn gpu_config(cfg: &GenConfig, v: Variant) -> GpuConfig {
    let mem = match v.mem {
        MemPreset::Flat => MemConfig::fx5800(),
        MemPreset::L1Only => MemConfig::fx5800().with_l1(16 * 1024),
        MemPreset::Cached => MemConfig::fx5800_cached(),
        MemPreset::Ideal => MemConfig::fx5800().with_ideal(true),
    };
    GpuConfig {
        mem: mem.with_spawn_bank_conflicts(v.bank_conflicts),
        spawn_policy: v.policy,
        dmk: if cfg.spawn_levels > 0 {
            Some(DmkConfig {
                warp_size: 4,
                threads_per_sm: 32,
                state_bytes: STATE_BYTES,
                num_ukernels: 4,
                fifo_capacity: 64,
            })
        } else {
            None
        },
        ..GpuConfig::tiny()
    }
}

/// The restore arm's detour: runs `gpu` to a cycle in `1..base_cycles`
/// picked by the case's seed, and returns the machine rebuilt from the
/// serialized snapshot. The one the cut came from is dropped, so
/// everything the rest of the run needs must have crossed the format.
fn cut_and_restore(mut gpu: Gpu, seed: u64, base_cycles: u64) -> Result<Gpu, String> {
    let cut = 1 + seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % base_cycles.saturating_sub(1).max(1);
    gpu.run(cut).map_err(|e| e.to_string())?;
    let bytes = gpu.checkpoint().map_err(|e| e.to_string())?.to_bytes();
    drop(gpu);
    let snapshot = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
    Gpu::restore(&snapshot).map_err(|e| e.to_string())
}

/// Runs `gp` under `v` and compares it with `reference`; `Ok` carries the
/// cycles the run took (`base_cycles` is what [`BASE`] returned, for the
/// restore arm's cut).
fn run_variant(
    gp: &GenProgram,
    v: Variant,
    reference: &RefRun,
    base_cycles: u64,
) -> Result<u64, Mismatch> {
    let gpu_error = |detail: String| Mismatch::GpuError { variant: v, detail };
    let mut gpu = Gpu::builder(gpu_config(&gp.cfg, v))
        .force_tick(v.force_tick)
        .build();
    gpu.mem_mut().alloc_global(gp.cfg.global_bytes(), "oracle");
    setup_const(gpu.mem_mut(), &gp.cfg);
    gpu.launch(Launch {
        program: gp.program.clone(),
        entry: "main".to_string(),
        num_threads: gp.cfg.ntid,
        threads_per_block: 8,
    })
    .map_err(|e| gpu_error(e.to_string()))?;
    if v.restore {
        gpu = cut_and_restore(gpu, gp.cfg.seed, base_cycles).map_err(gpu_error)?;
    }
    let summary = gpu.run(MAX_CYCLES).map_err(|e| gpu_error(e.to_string()))?;
    if summary.outcome != RunOutcome::Completed {
        return Err(Mismatch::NotCompleted {
            variant: v,
            outcome: format!("{:?}", summary.outcome),
        });
    }
    let global = gpu
        .mem()
        .host_read_global(0, gp.cfg.global_bytes() as usize / 4);
    for (word, (&g, &r)) in global.iter().zip(reference.global.iter()).enumerate() {
        if g != r {
            return Err(Mismatch::Global {
                variant: v,
                word,
                gpu: g,
                reference: r,
            });
        }
    }
    if v.policy == SpawnPolicy::Always {
        let s = gpu.stats();
        let pairs: [(&'static str, u64, u64); 4] = [
            ("threads_launched", s.threads_launched, reference.launched),
            ("threads_spawned", s.threads_spawned, reference.spawned),
            ("threads_retired", s.threads_retired, reference.retired),
            (
                "lineages_completed",
                s.lineages_completed,
                reference.lineages,
            ),
        ];
        for (counter, g, r) in pairs {
            if g != r {
                return Err(Mismatch::Counter {
                    variant: v,
                    counter,
                    gpu: g,
                    reference: r,
                });
            }
        }
    }
    Ok(gpu.now())
}

/// Runs one differential case: the reference once, then every variant in
/// [`VARIANTS`], stopping at the first mismatch.
pub fn run_case(cfg: &GenConfig) -> CaseReport {
    let gp = generate(cfg);
    let spawns = cfg.spawn_levels > 0;
    let loops = cfg.max_loop_depth > 0;
    let reference = match run_reference(&gp) {
        Ok(r) => r,
        Err(detail) => {
            return CaseReport {
                cfg: cfg.clone(),
                mismatch: Some(Mismatch::ReferenceError { detail }),
                spawns,
                loops,
                ref_spawned: 0,
            }
        }
    };
    let mut base_cycles = 0;
    let mismatch =
        VARIANTS
            .iter()
            .find_map(|&v| match run_variant(&gp, v, &reference, base_cycles) {
                Ok(cycles) => {
                    if v == BASE {
                        base_cycles = cycles;
                    }
                    None
                }
                Err(mismatch) => Some(mismatch),
            });
    CaseReport {
        cfg: cfg.clone(),
        mismatch,
        spawns,
        loops,
        ref_spawned: reference.spawned,
    }
}

/// Greedily shrinks a failing configuration: repeatedly tries to reduce
/// one knob at a time, keeping any reduction that still fails, until no
/// single reduction reproduces the mismatch.
pub fn shrink(cfg: &GenConfig) -> GenConfig {
    let mut best = cfg.clone();
    for _ in 0..64 {
        let mut candidates = Vec::new();
        if best.spawn_levels > 0 {
            let mut c = best.clone();
            c.spawn_levels -= 1;
            candidates.push(c);
        }
        if best.max_loop_depth > 0 {
            let mut c = best.clone();
            c.max_loop_depth -= 1;
            candidates.push(c);
        }
        if best.blocks > 1 {
            let mut c = best.clone();
            c.blocks -= 1;
            candidates.push(c);
        }
        if best.ops_per_block > 1 {
            let mut c = best.clone();
            c.ops_per_block -= 1;
            candidates.push(c);
        }
        if best.ntid > 1 {
            let mut c = best.clone();
            c.ntid /= 2;
            candidates.push(c);
        }
        for flag in 0..6 {
            let mut c = best.clone();
            let on = match flag {
                0 => std::mem::replace(&mut c.spawn_guarded, false),
                1 => std::mem::replace(&mut c.use_shared, false),
                2 => std::mem::replace(&mut c.use_local, false),
                3 => std::mem::replace(&mut c.use_const, false),
                4 => std::mem::replace(&mut c.use_v4, false),
                _ => std::mem::replace(&mut c.use_float, false),
            };
            if on {
                candidates.push(c);
            }
        }
        let Some(smaller) = candidates.into_iter().find(|c| !run_case(c).passed()) else {
            break;
        };
        best = smaller;
    }
    best
}

/// Writes a minimized repro for `report` into `dir` as
/// `repro-seed<seed>.s`: the mismatch, the `; gen-config:` line
/// [`parse_repro`] reads back, and the full assembly source.
///
/// # Errors
///
/// Propagates filesystem errors creating `dir` or writing the file.
pub fn dump_repro(dir: &Path, report: &CaseReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-seed{}.s", report.cfg.seed));
    let gp = generate(&report.cfg);
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "; fuzz_diff minimized repro")?;
    match &report.mismatch {
        Some(m) => writeln!(f, "; mismatch: {m}")?,
        None => writeln!(f, "; mismatch: (none — archived case)")?,
    }
    writeln!(f, "; gen-config: {}", report.cfg.to_kv())?;
    f.write_all(gp.source.as_bytes())?;
    Ok(path)
}

/// Reads the `; gen-config:` header out of a repro file written by
/// [`dump_repro`]; returns `None` when the file has no parseable header.
pub fn parse_repro(path: &Path) -> Option<GenConfig> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("; gen-config: "))
        .and_then(GenConfig::from_kv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_free_case_matches() {
        let cfg = GenConfig {
            spawn_levels: 0,
            ..GenConfig::from_seed(1)
        };
        let report = run_case(&cfg);
        assert!(report.passed(), "{:?}", report.mismatch);
    }

    #[test]
    fn spawning_case_matches() {
        let cfg = GenConfig {
            spawn_levels: 2,
            ..GenConfig::from_seed(2)
        };
        let report = run_case(&cfg);
        assert!(report.passed(), "{:?}", report.mismatch);
        assert!(report.ref_spawned > 0, "expected spawns to occur");
    }

    #[test]
    fn repro_files_round_trip_configs() {
        let dir = std::env::temp_dir().join("oracle-repro-test");
        let report = run_case(&GenConfig::from_seed(3));
        let path = dump_repro(&dir, &report).expect("dump");
        let back = parse_repro(&path).expect("parse");
        assert_eq!(back, report.cfg);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
