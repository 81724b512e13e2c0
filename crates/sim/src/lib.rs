//! # simt-sim — cycle-level SIMT streaming-multiprocessor simulator
//!
//! A GPGPU-Sim-style simulator of a wide SIMT machine configured like the
//! NVIDIA Quadro FX5800 of paper Table I: 30 SMs, 32-thread warps, 1024
//! threads/SM, a banked off-chip memory system (from [`simt_mem`]), PDOM
//! branch reconvergence, and — when enabled — the dynamic μ-kernel
//! hardware of [`dmk_core`].
//!
//! The timing model is first-order and matches the paper's reporting
//! conventions:
//!
//! * each SM issues at most **one warp-instruction per cycle** (the
//!   FX5800's 8 SPs iterate a 32-thread warp over 4 beats — one 32-wide
//!   issue slot per cycle);
//! * **IPC counts committed thread-instructions**, so the chip maximum is
//!   `30 SMs × 32 lanes = 960`;
//! * memory instructions park the warp until the [`simt_mem`] timing model
//!   releases it; other warps hide the latency;
//! * branch divergence is handled by a per-warp PDOM reconvergence stack
//!   using immediate post-dominators precomputed by [`simt_isa`].
//!
//! Two launch-scheduling models are provided (paper §VI): **block
//! scheduling** (whole thread blocks, FX5800 behaviour) and **thread/warp
//! scheduling** (individual warps, required by dynamic μ-kernels).
//!
//! The crate also contains a timing-free functional reference machine
//! ([`RefMachine`]) used as the correctness oracle and to drive the
//! MIMD-theoretical model of paper Fig. 10.
//!
//! ## Example
//!
//! ```
//! use simt_sim::{Gpu, GpuConfig, Launch, RunOutcome};
//!
//! let program = simt_isa::assemble(
//!     r#"
//!     .kernel main
//!     main:
//!         mov.u32 r1, %tid
//!         mul.lo.s32 r2, r1, 4
//!         st.global.u32 [r2+0], r1
//!         exit
//!     "#,
//! )?;
//! let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
//! gpu.mem_mut().alloc_global(64, "out");
//! gpu.launch(Launch {
//!     program,
//!     entry: "main".into(),
//!     num_threads: 16,
//!     threads_per_block: 8,
//! }).expect("a well-formed launch");
//! let summary = gpu.run(1_000_000).expect("fault-free program");
//! assert_eq!(summary.outcome, RunOutcome::Completed);
//! assert_eq!(gpu.mem().read_u32(simt_isa::Space::Global, 12), 3);
//! # Ok::<(), simt_isa::AsmError>(())
//! ```
//!
//! ## Fault model
//!
//! [`Gpu::launch`] rejects malformed launches with a typed
//! [`LaunchError`]; runtime misbehaviour (illegal memory accesses,
//! spawning without μ-kernel hardware, an exhausted spawn LUT) raises a
//! typed [`Fault`] handled per [`FaultPolicy`] — abort with a
//! [`SimError`], or kill the faulting warp and keep rendering. A watchdog
//! turns livelocks into [`RunOutcome::Deadlock`] with per-SM diagnostics,
//! and the deterministic [`Injector`] can force back-pressure and trap
//! events at chosen cycles to test the recovery paths.
//!
//! ## Checkpoint/restore
//!
//! Between [`Gpu::run`] calls the complete architectural state can be
//! captured with [`Gpu::checkpoint`] into a versioned, checksummed
//! [`Snapshot`] (serializable to disk) and rebuilt with [`Gpu::restore`];
//! the restored machine's continuation is bit-identical to never having
//! stopped. Corrupt or truncated snapshots are rejected with a typed
//! [`RestoreError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod awake;
mod checkpoint;
mod config;
mod fault;
mod gpu;
mod interp;
mod mimd;
pub mod oracle;
mod ready;
mod sm;
mod stats;
pub mod telemetry;
mod thread;
mod warp;
mod windowed;

pub use checkpoint::{
    config_digest, open_frame, program_digest, seal_frame, write_atomic, RestoreError, Snapshot,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use config::{GpuConfig, SchedulingModel, SpawnPolicy};
pub use fault::{
    DeadlockDiagnostics, Fault, FaultKind, FaultPolicy, InjectedFault, Injector, LaunchError,
    SimError, SmSnapshot, WarpSnapshot,
};
pub use gpu::{Gpu, GpuBuilder, Launch, RunOutcome, RunSummary};
pub use interp::{InterpError, RefMachine};
pub use mimd::{mimd_theoretical, MimdReport};
pub use oracle::{run_case, shrink, CaseReport, Mismatch};
pub use sm::Sm;
pub use stats::{DivergenceTimeline, SimStats, Stall, StallRows, OCCUPANCY_BUCKETS};
pub use telemetry::{TelemetryReport, TelemetrySpec, TraceEvent, TraceEventKind, WindowCounters};
pub use thread::LaneState;
pub use warp::{StackEntry, Warp, WarpState};
pub use windowed::Windowed;
