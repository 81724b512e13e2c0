//! # dmk-core — the dynamic μ-kernel architecture
//!
//! This crate implements the hardware proposed by Steffen & Zambreno
//! (MICRO 2010, §IV): architectural support for threads that **spawn** new
//! threads at runtime, with hardware that regroups the children into fresh,
//! divergence-free warps.
//!
//! The pieces, one per module:
//!
//! * [`DmkConfig`] — sizing parameters (warp size, threads/SM, state-record
//!   bytes, number of μ-kernels);
//! * [`SpawnMemoryLayout`] — the *spawn memory* address space of §IV-A: a
//!   per-thread state-record section plus a (doubled) warp-formation
//!   metadata section;
//! * [`SpawnLut`] — the PC-indexed look-up table of §IV-C holding, per
//!   μ-kernel, the partial-warp counter and the fill/overflow addresses;
//! * [`WarpFormation`] — the full warp-formation unit: LUT + formation-slot
//!   allocator + new-warp FIFO, including partial-warp force-out (§IV-D).
//!
//! The cycle-level simulator (`simt-sim`) embeds one [`WarpFormation`] per
//! SM and calls [`WarpFormation::spawn`] when executing the `spawn`
//! instruction; the returned slot addresses become a timed store to the
//! spawn address space, exactly as the paper describes.
//!
//! ## Example
//!
//! ```
//! use dmk_core::{DmkConfig, WarpFormation};
//!
//! let cfg = DmkConfig {
//!     warp_size: 4,
//!     threads_per_sm: 64,
//!     state_bytes: 48,
//!     num_ukernels: 3,
//!     fifo_capacity: 32,
//! };
//! let mut wf = WarpFormation::new(&cfg);
//! // 4 threads of a warp all spawn towards the μ-kernel at pc=10:
//! let out = wf.spawn(10, 4)?;
//! assert_eq!(out.thread_slots.len(), 4);
//! assert_eq!(out.warps_completed, 1, "warp of 4 filled in one go");
//! # Ok::<(), dmk_core::SpawnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod compile;
mod config;
mod formation;
mod layout;
mod lut;

pub use compile::{can_extract, extract_loop, ExtractError, ExtractOptions};
pub use config::DmkConfig;
pub use formation::{
    CompletedWarp, DmkStats, SpawnError, SpawnOutcome, ThreadSlots, WarpFormation,
};
pub use layout::SpawnMemoryLayout;
pub use lut::{LutLine, SpawnLut};
