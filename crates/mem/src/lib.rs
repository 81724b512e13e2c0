//! # simt-mem — GPU memory-subsystem model
//!
//! Functional backing stores plus a first-order timing model for the memory
//! hierarchy of the simulated machine (paper Table I):
//!
//! * **off-chip device memory** (`global`, `local`, `const` spaces) served by
//!   8 memory modules at 8 bytes/cycle each, accessed through warp-level
//!   coalescing into 32-byte segments, with per-module queueing delay;
//! * an optional **cache hierarchy** in front of it — a per-SM L1 with
//!   MSHRs, and a partition-sliced L2 behind a banked interconnect — off
//!   on the Table I machine;
//! * **on-chip scratchpads** (`shared` and the paper's new `spawn` space),
//!   banked, with conflict serialization;
//! * an **ideal memory** mode (zero latency) used for the paper's Fig. 10
//!   theoretical-branching study;
//! * byte-accurate **traffic accounting** per address space (paper Table IV).
//!
//! Functional state and timing are deliberately separated, and the model is
//! split along the chip's own boundary: each SM owns an [`SmMemFrontend`]
//! (coalescer, read-only cache, L1, on-chip port, traffic shard) it drives
//! independently of other SMs, while the single shared [`MemoryFabric`]
//! (off-chip backing, DRAM modules, L2 and interconnect) holds the
//! off-chip contents every SM reads and writes at issue, and takes the
//! resulting [`FabricRequest`]s one cycle's batch at a time, in SM-id
//! order, through its one timing entry, [`MemoryFabric::service_batch`].
//! A machine without an L2 is that same path with nothing in it: the batch
//! goes straight to the DRAM modules.
//!
//! ## Example
//!
//! ```
//! use simt_mem::{MemConfig, MemoryFabric};
//! use simt_isa::Space;
//!
//! let mut mem = MemoryFabric::new(MemConfig::fx5800());
//! let buf = mem.alloc_global(64, "scratch");
//! mem.write_u32(Space::Global, buf, 42);
//! assert_eq!(mem.read_u32(Space::Global, buf), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backing;
mod banks;
mod cache;
mod coalesce;
mod config;
mod fabric;
mod frontend;
mod mshr;
mod traffic;

pub use backing::{LocalStore, WordStore};
pub use banks::{conflict_degree, conflict_degree_span, OnChipMemory};
pub use cache::ReadOnlyCache;
pub use coalesce::{coalesce_segments, CoalesceResult};
pub use config::{MemConfig, MemPreset};
pub use fabric::{BatchRequest, FabricRequest, MemFault, MemoryFabric};
pub use frontend::{L1Probe, OffchipRoute, SmMemFrontend};
pub use mshr::{MshrTable, FILL_UNRESOLVED};
pub use traffic::{SegmentsSent, SegmentsServiced, SpaceTraffic, TrafficStats};
