//! The shared memory fabric: functional backing for the off-chip spaces
//! plus the off-chip timing model — the address-interleaved DRAM modules
//! and, when configured, the banked interconnect and the L2 in front of
//! them.
//!
//! The simulator steps its SMs one after another in SM-id order, and each
//! memory instruction completes at issue: its words are validated and
//! transferred through the fabric's checked accessors
//! ([`MemoryFabric::check_load`] and [`MemoryFabric::read_n`] for a load,
//! [`MemoryFabric::try_write_u32`] / [`MemoryFabric::try_write_local`] for
//! a store), while the SM's [`crate::SmMemFrontend`] coalesces the access
//! into [`FabricRequest`]s. The fabric then services the cycle's
//! [`BatchRequest`]s through one timing entry,
//! [`MemoryFabric::service_batch`], once the whole cycle has issued.

use crate::backing::{LocalStore, WordStore};
use crate::cache::ReadOnlyCache;
use crate::config::MemConfig;
use crate::traffic::SegmentsServiced;
use simt_isa::codec::{Codec, CodecError, Decoder, Encoder};
use simt_isa::Space;
use std::fmt;

simt_isa::record! {
    /// A typed functional-memory fault.
    ///
    /// The simulator's SMs use the `try_*` accessors and turn these into warp
    /// traps; the panicking accessors remain for host-side and test code where
    /// an illegal access is a bug in the caller, not in the simulated program.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MemFault: "memory fault" {
        /// Word access whose byte address is not 4-byte aligned.
        Misaligned {
            /// Address space accessed.
            space: Space,
            /// The offending byte address.
            addr: u32,
        } = 0,
        /// Store past the end of the allocated global heap.
        GlobalStoreOob {
            /// The offending byte address.
            addr: u32,
            /// Bytes of global memory allocated at the time of the access.
            allocated: u32,
        } = 1,
        /// Device-side store to read-only constant memory.
        ConstStore {
            /// The offending byte address.
            addr: u32,
        } = 2,
        /// Local access past the per-thread stride.
        LocalOob {
            /// The offending per-thread byte offset.
            addr: u32,
            /// The configured per-thread stride in bytes.
            stride: u32,
        } = 3,
        /// Access to a space this component does not serve (e.g. a spawn-space
        /// access on a machine without dynamic μ-kernel hardware).
        Unmapped {
            /// The address space that has no backing here.
            space: Space,
        } = 4,
    }
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Misaligned { space, addr } => {
                write!(f, "misaligned {space} access at address {addr:#x}")
            }
            MemFault::GlobalStoreOob { addr, allocated } => write!(
                f,
                "global store at {addr:#x} past the allocated heap ({allocated:#x} bytes)"
            ),
            MemFault::ConstStore { addr } => {
                write!(
                    f,
                    "constant memory is read-only from device code (store at {addr:#x})"
                )
            }
            MemFault::LocalOob { addr, stride } => write!(
                f,
                "local access at offset {addr:#x} exceeds the per-thread stride of {stride} bytes"
            ),
            MemFault::Unmapped { space } => {
                write!(f, "no functional backing for {space} memory here")
            }
        }
    }
}

impl std::error::Error for MemFault {}

/// A coalesced off-chip request emitted by an SM at issue, serviced by the
/// fabric's memory modules with the rest of the cycle's batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricRequest {
    /// Address space accessed (global or local).
    pub space: Space,
    /// `true` for stores (fire-and-forget: the warp does not wait).
    pub is_store: bool,
    /// Base addresses of the coalesced segments, sorted ascending.
    pub segments: Vec<u32>,
}

/// One request of a cycle's timing batch: a [`FabricRequest`] tagged with
/// its issuing SM (for round-robin arbitration, and so the GPU can hand
/// the SM its ready time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// Issuing SM id.
    pub sm: usize,
    /// Index of the owning access among the SM's accesses this cycle. An
    /// SM issues at most one instruction a cycle, so the simulator always
    /// writes 0.
    pub access: usize,
    /// The coalesced request.
    pub request: FabricRequest,
}

/// The L2 tag-array space tag of an off-chip request: global (and the
/// global-addressed texture fills) share tag 0, local-physical addresses
/// get their own tag so they cannot alias global lines at the same
/// numeric address.
fn l2_space_tag(space: Space) -> u8 {
    match space {
        Space::Local => 1,
        _ => 0,
    }
}

/// The chip-wide memory fabric: functional backing for the off-chip spaces
/// plus the shared timing state (the 8 address-interleaved DRAM modules of
/// paper Table I).
///
/// On-chip backing data (shared/spawn contents) is owned per-SM by the
/// simulator, and per-SM timing (caches, coalescing, on-chip ports) lives
/// in [`crate::SmMemFrontend`]. The fabric is the only cross-SM memory
/// state, and the SMs reach it one after another, in SM-id order.
#[derive(Debug, Clone)]
pub struct MemoryFabric {
    config: MemConfig,
    global: WordStore,
    constant: WordStore,
    local: LocalStore,
    /// (Fractional) cycle at which each off-chip module becomes free.
    module_free: Vec<f64>,
    /// Cumulative (fractional) DRAM cycles each module spent servicing
    /// segments — the telemetry view of module pressure.
    module_busy: Vec<f64>,
    /// Global-memory regions marked cacheable by per-SM read-only caches
    /// ("texture bindings").
    read_only_regions: Vec<(u32, u32)>,
    /// Shared L2, one slice per memory partition (in front of the DRAM
    /// module with the same index). Empty when no L2 is configured, which
    /// also means no interconnect is modelled (the Table I machine).
    /// Timing-only, like the L1: loads probe, stores write through.
    l2: Vec<ReadOnlyCache>,
    /// Cycle at which each SM↔partition interconnect bank becomes free.
    icnt_free: Vec<u64>,
    /// Cumulative cycles each bank spent moving flits (telemetry).
    icnt_busy: Vec<u64>,
    /// Per-bank round-robin pointer: the SM id granted first next cycle.
    icnt_rr: Vec<u32>,
    /// Grants that queued behind another SM's flit in the same cycle.
    icnt_conflicts: u64,
    /// Segments [`MemoryFabric::service_batch`] serviced.
    segments: SegmentsServiced,
    /// Scratch of [`MemoryFabric::service_batch`], kept across calls so the
    /// per-cycle batch does not allocate: the ready times it returns, and
    /// the per-bank grant queues of `(batch index, segment)`.
    ready: Vec<u64>,
    queues: Vec<Vec<(usize, u32)>>,
}

impl MemoryFabric {
    /// Creates a memory fabric with empty contents.
    pub fn new(config: MemConfig) -> Self {
        let modules = config.num_modules;
        let partitions = config.partitions();
        let l2 = if config.l2_enabled() {
            // Capacity splits evenly across the partitions; each slice is
            // clamped up to one full set so degenerate configurations
            // still build.
            let min_slice = config.l2_line_bytes * config.l2_ways as u32;
            let raw = config.l2_bytes / partitions as u32;
            let slice = (raw / min_slice).max(1) * min_slice;
            (0..partitions)
                .map(|_| ReadOnlyCache::new(slice, config.l2_line_bytes, config.l2_ways))
                .collect()
        } else {
            Vec::new()
        };
        MemoryFabric {
            config,
            global: WordStore::new(),
            constant: WordStore::new(),
            local: LocalStore::new(0),
            module_free: vec![0.0; modules],
            module_busy: vec![0.0; modules],
            read_only_regions: Vec::new(),
            l2,
            icnt_free: vec![0; partitions],
            icnt_busy: vec![0; partitions],
            icnt_rr: vec![0; partitions],
            icnt_conflicts: 0,
            segments: SegmentsServiced::default(),
            ready: Vec::new(),
            queues: vec![Vec::new(); partitions],
        }
    }

    /// Marks `[base, base+bytes)` of global memory as read-only/cacheable
    /// (the host-side equivalent of binding a texture).
    pub fn mark_read_only(&mut self, base: u32, bytes: u32) {
        self.read_only_regions.push((base, bytes));
    }

    /// The bounds `[base, end)` of the first read-only (texture) region
    /// holding global address `addr`, if any does: every address inside
    /// them is read-only too, so a warp's lanes can be range-checked
    /// against one lookup.
    pub(crate) fn read_only_region(&self, addr: u32) -> Option<(u32, u32)> {
        self.read_only_regions
            .iter()
            .map(|&(b, n)| (b, b.saturating_add(n)))
            .find(|&(base, end)| addr >= base && addr < end)
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Allocates a labeled region of global memory; returns the base address.
    pub fn alloc_global(&mut self, bytes: u32, label: &str) -> u32 {
        self.global.alloc(bytes, label)
    }

    /// Allocates a labeled region of constant memory; returns the base address.
    pub fn alloc_const(&mut self, bytes: u32, label: &str) -> u32 {
        self.constant.alloc(bytes, label)
    }

    /// Gives every thread `stride_bytes` of private local memory.
    pub fn configure_local(&mut self, stride_bytes: u32) {
        self.local = LocalStore::new(stride_bytes);
    }

    /// Translates a per-thread local byte offset to a physical address used
    /// for coalescing/timing.
    pub fn local_physical(&self, tid: u32, addr: u32) -> u32 {
        tid.wrapping_mul(self.local.stride_bytes())
            .wrapping_add(addr)
    }

    /// Checked functional word read from an off-chip space.
    ///
    /// Reads past the end of the allocated heap stay lenient and return 0
    /// (uninitialized DRAM); misalignment and unserved spaces are faults.
    pub fn try_read_u32(&self, space: Space, addr: u32) -> Result<u32, MemFault> {
        if !addr.is_multiple_of(4) {
            return Err(MemFault::Misaligned { space, addr });
        }
        match space {
            Space::Global => Ok(self.global.read(addr)),
            Space::Const => Ok(self.constant.read(addr)),
            _ => Err(MemFault::Unmapped { space }),
        }
    }

    /// Checked functional word write to an off-chip space.
    ///
    /// Global stores must land inside the allocated heap; constant memory
    /// is read-only from device code.
    pub fn try_write_u32(&mut self, space: Space, addr: u32, value: u32) -> Result<(), MemFault> {
        if !addr.is_multiple_of(4) {
            return Err(MemFault::Misaligned { space, addr });
        }
        match space {
            Space::Global => {
                // The extent check only applies once the host has carved out
                // a heap via `alloc_global`; with no allocations the store
                // lands in unbounded scratch (bare test programs rely on it).
                let allocated = self.global.allocated_bytes();
                if allocated > 0 && addr >= allocated {
                    return Err(MemFault::GlobalStoreOob { addr, allocated });
                }
                self.global.write(addr, value);
                Ok(())
            }
            Space::Const => Err(MemFault::ConstStore { addr }),
            _ => Err(MemFault::Unmapped { space }),
        }
    }

    /// Functional word read from an off-chip space.
    ///
    /// # Panics
    ///
    /// Panics for on-chip spaces (their contents are owned per-SM), for
    /// `local` (use [`MemoryFabric::read_local`]), and on misalignment.
    pub fn read_u32(&self, space: Space, addr: u32) -> u32 {
        match self.try_read_u32(space, addr) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Functional word write to an off-chip space.
    ///
    /// # Panics
    ///
    /// Panics for on-chip spaces, `local`, and `const` (read-only from
    /// device code; use [`MemoryFabric::alloc_const`] +
    /// [`MemoryFabric::host_write_const`] from the host side).
    pub fn write_u32(&mut self, space: Space, addr: u32, value: u32) {
        if let Err(e) = self.try_write_u32(space, addr, value) {
            panic!("{e}");
        }
    }

    /// Host-side write to constant memory (kernel launch setup).
    pub fn host_write_const(&mut self, addr: u32, value: u32) {
        self.constant.write(addr, value);
    }

    /// Host-side bulk write to global memory.
    pub fn host_write_global(&mut self, addr: u32, values: &[u32]) {
        self.global.write_words(addr, values);
    }

    /// Host-side write of a region of `K`-word records to global memory,
    /// back to back from `addr` (see [`WordStore::write_records`]).
    pub fn host_write_records<const K: usize>(
        &mut self,
        addr: u32,
        records: impl ExactSizeIterator<Item = [u32; K]>,
    ) {
        self.global.write_records(addr, records);
    }

    /// Host-side bulk read from global memory.
    pub fn host_read_global(&self, addr: u32, words: usize) -> Vec<u32> {
        self.global.read_words(addr, words)
    }

    /// Checks a local access against alignment and the per-thread stride.
    fn check_local(&self, addr: u32) -> Result<(), MemFault> {
        if !addr.is_multiple_of(4) {
            return Err(MemFault::Misaligned {
                space: Space::Local,
                addr,
            });
        }
        let stride = self.local.stride_bytes();
        if addr >= stride.max(4) {
            return Err(MemFault::LocalOob { addr, stride });
        }
        Ok(())
    }

    /// Validates one word of an off-chip load exactly as
    /// [`MemoryFabric::try_read_u32`] (global, constant) or
    /// [`MemoryFabric::try_read_local`] (local) would — same checks, same
    /// order — without reading it, so a lane can check all its words
    /// before [`MemoryFabric::read_n`] reads them in one go.
    pub fn check_load(&self, space: Space, addr: u32) -> Result<(), MemFault> {
        if space == Space::Local {
            return self.check_local(addr);
        }
        if !addr.is_multiple_of(4) {
            return Err(MemFault::Misaligned { space, addr });
        }
        match space {
            Space::Global | Space::Const => Ok(()),
            _ => Err(MemFault::Unmapped { space }),
        }
    }

    /// Checked functional read of thread `tid`'s local memory.
    pub fn try_read_local(&self, tid: u32, addr: u32) -> Result<u32, MemFault> {
        self.check_local(addr)?;
        Ok(self.local.read(tid, addr))
    }

    /// Checked functional write of thread `tid`'s local memory.
    pub fn try_write_local(&mut self, tid: u32, addr: u32, value: u32) -> Result<(), MemFault> {
        self.check_local(addr)?;
        self.local.write(tid, addr, value);
        Ok(())
    }

    /// Functional read of thread `tid`'s local memory.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds or unaligned access.
    pub fn read_local(&self, tid: u32, addr: u32) -> u32 {
        self.local.read(tid, addr)
    }

    /// Functional write of thread `tid`'s local memory.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds or unaligned access.
    pub fn write_local(&mut self, tid: u32, addr: u32, value: u32) {
        self.local.write(tid, addr, value)
    }

    /// Reads one lane of an off-chip load: `N` consecutive words of `space`
    /// from byte address `base` (thread `tid`'s private offset for local),
    /// word `i` at `base.wrapping_add(4 * i)` — what
    /// [`MemoryFabric::try_read_u32`] / [`MemoryFabric::try_read_local`]
    /// return for each, one by one. Every word must have passed
    /// [`MemoryFabric::check_load`].
    ///
    /// # Panics
    ///
    /// Panics on a word `check_load` rejects (an on-chip space,
    /// misalignment, a local offset past the stride).
    #[inline]
    pub fn read_n<const N: usize>(&self, space: Space, tid: u32, base: u32) -> [u32; N] {
        match space {
            Space::Global => self.global.read_n(base),
            Space::Const => self.constant.read_n(base),
            // Bounded by the stride word by word, and rare beside global.
            Space::Local => {
                std::array::from_fn(|i| self.local.read(tid, base.wrapping_add(4 * i as u32)))
            }
            _ => panic!("only off-chip spaces are read through the fabric"),
        }
    }

    /// The DRAM stage: services one coalesced request against the
    /// address-interleaved memory modules from cycle `now`. Each segment
    /// queues on its module ([`MemConfig::module_of`]) and occupies it for
    /// [`MemConfig::segment_service_cycles`]. Returns the cycle at which
    /// the last segment's data is available.
    ///
    /// Modules are independent, so only the order of requests that share a
    /// module is visible in the result.
    pub fn service(&mut self, now: u64, req: &FabricRequest) -> u64 {
        let mut ready = now + 1;
        for &seg in &req.segments {
            ready = ready.max(self.queue_module(now, self.config.module_of(seg)));
        }
        ready
    }

    /// Queues one segment on its DRAM module starting no earlier than
    /// `arrival`; returns the cycle its data is available.
    fn queue_module(&mut self, arrival: u64, module: usize) -> u64 {
        let service = self.config.segment_service_cycles();
        let start = (arrival as f64).max(self.module_free[module]);
        self.module_free[module] = start + service;
        self.module_busy[module] += service;
        (start + service).ceil() as u64 + u64::from(self.config.dram_latency)
    }

    /// The one timing entry: services one cycle's worth of requests
    /// and returns one ready cycle per batch request, in batch order (the
    /// slice is scratch owned by the fabric, valid until the next call).
    ///
    /// `batch` must be ordered by SM id (within an SM, by issue order) —
    /// the order the GPU's SMs issue them in, one after another — which is
    /// what makes arbitration deterministic.
    ///
    /// With an L2 configured, every segment traverses the banked
    /// SM↔partition interconnect (one bank per partition, round-robin
    /// arbitration across SMs, per-bank busy accounting), probes its
    /// partition's L2 slice, and on an L2 miss queues on the DRAM module
    /// behind it. Round-robin fairness: each bank remembers the SM after
    /// the last one it granted in the previous cycle and starts this
    /// cycle's grant sweep there, so a low-numbered SM cannot starve the
    /// others the way fixed-priority (SM-id-ordered) servicing would.
    ///
    /// Without one (the paper's Table I machine, with or without an L1)
    /// there is no slice to probe and no interconnect is modelled: the
    /// hierarchy has nothing in it, and each request goes straight to the
    /// DRAM stage at `now`, in batch order — no flit, no latency, no
    /// rotation, no interconnect accounting.
    pub fn service_batch(&mut self, now: u64, batch: &[BatchRequest]) -> &[u64] {
        self.ready.clear();
        for b in batch {
            let n = b.request.segments.len() as u64;
            *(if b.request.is_store {
                &mut self.segments.stores
            } else {
                &mut self.segments.loads
            }) += n;
        }
        if batch.is_empty() {
            return &self.ready;
        }
        if self.l2.is_empty() {
            for b in batch {
                let done = self.service(now, &b.request);
                self.ready.push(done);
            }
            return &self.ready;
        }
        self.ready.resize(batch.len(), now + 1);
        let flit = u64::from(self.config.icnt_flit_cycles.max(1));
        let latency = u64::from(self.config.icnt_latency);
        let l2_hit = u64::from(self.config.l2_hit_latency);
        // Split the batch into per-bank grant queues (batch order = SM-id
        // order is preserved within each queue).
        let mut queues = std::mem::take(&mut self.queues);
        for (i, b) in batch.iter().enumerate() {
            for &seg in &b.request.segments {
                queues[self.config.module_of(seg)].push((i, seg));
            }
        }
        for (bank, queue) in queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            // Rotate the grant sweep to the round-robin start SM.
            let rr = self.icnt_rr[bank];
            let start = queue
                .iter()
                .position(|&(i, _)| batch[i].sm as u32 >= rr)
                .unwrap_or(0);
            let distinct_sms = {
                let mut n = 0u64;
                let mut last = usize::MAX;
                for &(i, _) in queue.iter() {
                    if batch[i].sm != last {
                        n += 1;
                        last = batch[i].sm;
                    }
                }
                n
            };
            if distinct_sms > 1 {
                self.icnt_conflicts += distinct_sms - 1;
            }
            let mut t = now.max(self.icnt_free[bank]);
            for k in 0..queue.len() {
                let (i, seg) = queue[(start + k) % queue.len()];
                t += flit;
                self.icnt_busy[bank] += flit;
                let arrival = t + latency;
                let is_store = batch[i].request.is_store;
                // Stores write through (no L2 allocate); loads probe the
                // partition's slice and only misses reach DRAM. The probe
                // is tagged with the request's address space: local
                // requests arrive under the tid-strided physical mapping,
                // whose numeric addresses overlap the global heap, and one
                // shared tag array must not let the two spaces alias (the
                // L1 side-steps this by excluding local entirely).
                let done = if !is_store
                    && self.l2[bank].access_tagged(l2_space_tag(batch[i].request.space), seg)
                {
                    arrival + l2_hit
                } else {
                    self.queue_module(arrival, bank)
                };
                self.ready[i] = self.ready[i].max(done);
            }
            let last_sm = batch[queue[(start + queue.len() - 1) % queue.len()].0].sm;
            self.icnt_free[bank] = t;
            self.icnt_rr[bank] = last_sm as u32 + 1;
            queue.clear();
        }
        self.queues = queues;
        &self.ready
    }

    /// Aggregate `(hits, misses)` over the L2 slices, if the L2 is
    /// modeled. Stores bypass the L2 and are counted in neither.
    pub fn l2_stats(&self) -> Option<(u64, u64)> {
        if self.l2.is_empty() {
            return None;
        }
        Some(
            self.l2
                .iter()
                .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses)),
        )
    }

    /// Cumulative cycles each interconnect bank spent moving flits,
    /// indexed by partition. All zeros when no interconnect is modelled.
    pub fn icnt_busy(&self) -> &[u64] {
        &self.icnt_busy
    }

    /// Segments the timing batch has serviced, loads and stores.
    pub fn segments_serviced(&self) -> &SegmentsServiced {
        &self.segments
    }

    /// Interconnect grants that queued behind another SM's flit within a
    /// single arbitration cycle.
    pub fn icnt_conflicts(&self) -> u64 {
        self.icnt_conflicts
    }

    /// Cumulative (fractional) DRAM cycles each module has spent servicing
    /// segments, indexed by module id. Telemetry's view of per-module
    /// pressure.
    pub fn module_busy(&self) -> &[f64] {
        &self.module_busy
    }

    /// Serializes the fabric's complete mutable state — backing stores,
    /// per-module timing, L2 and interconnect state, and texture bindings —
    /// for a simulator checkpoint. Requests never persist across cycles
    /// (each [`MemoryFabric::service_batch`] call retires immediately,
    /// leaving only the `module_free`/`icnt_free` timestamps), so this
    /// captures everything.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.global.encode_state(enc);
        self.constant.encode_state(enc);
        self.local.encode_state(enc);
        enc.put_usize(self.module_free.len());
        for &m in &self.module_free {
            enc.put_f64(m);
        }
        for &m in &self.module_busy {
            enc.put_f64(m);
        }
        self.read_only_regions.encode(enc);
        enc.put_usize(self.l2.len());
        for slice in &self.l2 {
            slice.encode_state(enc);
        }
        for &b in &self.icnt_free {
            enc.put_u64(b);
        }
        for &b in &self.icnt_busy {
            enc.put_u64(b);
        }
        for &b in &self.icnt_rr {
            enc.put_u32(b);
        }
        enc.put_u64(self.icnt_conflicts);
        self.segments.encode_state(enc);
    }

    /// Restores state previously written by
    /// [`MemoryFabric::encode_state`] into a fabric built from the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input or when the module count
    /// disagrees with this fabric's configuration.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.global.restore_state(dec)?;
        self.constant.restore_state(dec)?;
        self.local.restore_state(dec)?;
        let modules = dec.take_len(8)?;
        if modules != self.module_free.len() {
            return Err(CodecError::BadLength {
                len: modules as u64,
                remaining: self.module_free.len(),
            });
        }
        for m in &mut self.module_free {
            *m = dec.take_f64()?;
        }
        for m in &mut self.module_busy {
            *m = dec.take_f64()?;
        }
        self.read_only_regions = Vec::decode(dec)?;
        let slices = dec.take_len(1)?;
        if slices != self.l2.len() {
            // Snapshot from a different cache configuration (e.g. flat
            // fabric restoring a cached run's state).
            return Err(CodecError::BadLength {
                len: slices as u64,
                remaining: self.l2.len(),
            });
        }
        for slice in &mut self.l2 {
            slice.restore_state(dec)?;
        }
        for b in &mut self.icnt_free {
            *b = dec.take_u64()?;
        }
        for b in &mut self.icnt_busy {
            *b = dec.take_u64()?;
        }
        for b in &mut self.icnt_rr {
            *b = dec.take_u32()?;
        }
        self.icnt_conflicts = dec.take_u64()?;
        self.segments.restore_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn functional_global_roundtrip() {
        let mut m = MemoryFabric::new(MemConfig::fx5800());
        let a = m.alloc_global(16, "t");
        m.write_u32(Space::Global, a + 4, 9);
        assert_eq!(m.read_u32(Space::Global, a + 4), 9);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn device_const_write_panics() {
        let mut m = MemoryFabric::new(MemConfig::fx5800());
        m.write_u32(Space::Const, 0, 1);
    }

    fn load(segments: Vec<u32>) -> FabricRequest {
        FabricRequest {
            space: Space::Global,
            is_store: false,
            segments,
        }
    }

    #[test]
    fn module_queueing_backs_up() {
        let cfg = MemConfig::fx5800();
        let mut m = MemoryFabric::new(cfg.clone());
        // Same segment repeatedly: same module, so queueing accrues by one
        // (fractional) service time per request.
        let service = cfg.segment_service_cycles();
        let latency = u64::from(cfg.dram_latency);
        assert_eq!(
            m.service(0, &load(vec![0])),
            service.ceil() as u64 + latency
        );
        assert_eq!(
            m.service(0, &load(vec![0])),
            (2.0 * service).ceil() as u64 + latency,
            "second request must queue behind the first"
        );
        // A different module is untouched by that queue.
        assert_eq!(
            m.service(0, &load(vec![cfg.segment_bytes])),
            service.ceil() as u64 + latency
        );
        // A request without segments retires next cycle.
        assert_eq!(m.service(5, &load(Vec::new())), 6);
    }

    #[test]
    fn local_translation_and_storage() {
        let mut m = MemoryFabric::new(MemConfig::fx5800());
        m.configure_local(388);
        m.write_local(3, 8, 77);
        assert_eq!(m.read_local(3, 8), 77);
        assert_eq!(m.read_local(2, 8), 0);
        assert_eq!(
            m.local_physical(1, 4),
            388 + 4 /* thread 1's bank, word offset 4 (stride rounds to 388) */
        );
    }

    #[test]
    fn checked_stores_land_and_lane_reads_see_them() {
        let mut m = MemoryFabric::new(MemConfig::fx5800());
        m.alloc_global(64, "t");
        let c = m.alloc_const(8, "c");
        m.host_write_const(c + 4, 77);
        m.configure_local(16);
        m.try_write_u32(Space::Global, 8, 123)
            .expect("inside the heap");
        assert_eq!(m.read_n::<4>(Space::Global, 0, 4), [0, 123, 0, 0]);
        m.try_write_local(3, 4, 9).expect("inside the stride");
        assert_eq!(m.read_local(3, 4), 9);
        assert_eq!(
            m.read_n::<1>(Space::Local, 3, 4),
            [9],
            "thread 3's word, not thread 0's"
        );
        m.host_write_const(c, 5);
        assert_eq!(m.read_n::<4>(Space::Const, 0, c), [5, 77, 0, 0]);
    }

    /// A fabric with every off-chip space populated: 6 words of global
    /// heap, 3 of constant memory, 16 bytes of local memory a thread.
    fn populated() -> MemoryFabric {
        let mut m = MemoryFabric::new(MemConfig::fx5800());
        let g = m.alloc_global(24, "g");
        m.host_write_global(g, &[11, 12, 13, 14, 15, 16]);
        let c = m.alloc_const(12, "c");
        for i in 0..3 {
            m.host_write_const(c + 4 * i, 21 + i);
        }
        m.configure_local(16);
        for tid in 0..3 {
            for w in 0..4 {
                m.write_local(tid, 4 * w, 100 * tid + w + 1);
            }
        }
        m
    }

    /// A read at width `N` against the checked word reads, for one base
    /// every word of which is legal.
    fn check_read_n<const N: usize>(m: &MemoryFabric, space: Space, tid: u32, base: u32) {
        let want: [u32; N] = std::array::from_fn(|i| {
            let addr = base.wrapping_add(4 * i as u32);
            m.check_load(space, addr).expect("a legal word");
            match space {
                Space::Local => m.try_read_local(tid, addr),
                _ => m.try_read_u32(space, addr),
            }
            .expect("a legal word")
        });
        assert_eq!(m.read_n::<N>(space, tid, base), want, "{space} {base:#x}");
    }

    /// On-chip contents belong to the SMs: the fabric reads none.
    #[test]
    #[should_panic(expected = "only off-chip spaces")]
    fn an_on_chip_read_is_refused() {
        populated().read_n::<1>(Space::Shared, 0, 0);
    }

    proptest! {
        /// A fixed-width lane read of a global, constant or local load is
        /// its words one by one through `try_read_u32` / `try_read_local`,
        /// at both widths the ISA has: inside the image, running off its
        /// end (uninitialised DRAM reads 0), far past it, and across
        /// `u32::MAX` back to word 0.
        #[test]
        fn fixed_width_reads_equal_checked_word_reads(
            word in 0u32..12,
            far in any::<u32>(),
            place in 0u8..3,
            tid in 0u32..4,
        ) {
            let m = populated();
            let base = match place {
                0 => 4 * word,
                1 => far & !3,
                _ => 0xffff_fff0 | (far & 0xc),
            };
            for space in [Space::Global, Space::Const] {
                check_read_n::<1>(&m, space, tid, base);
                check_read_n::<4>(&m, space, tid, base);
            }
            // Local words are bounded by the stride: only runs inside it
            // are legal (thread 3 was never written and reads 0).
            let offset = 4 * (word % 4);
            check_read_n::<1>(&m, Space::Local, tid, offset);
            check_read_n::<4>(&m, Space::Local, tid, 0);
        }
    }

    fn batch(sm: usize, access: usize, is_store: bool, segments: Vec<u32>) -> BatchRequest {
        BatchRequest {
            sm,
            access,
            request: FabricRequest {
                space: Space::Global,
                is_store,
                segments,
            },
        }
    }

    #[test]
    fn l2_hit_is_faster_than_miss_and_counted() {
        let mut m = MemoryFabric::new(MemConfig::fx5800_cached());
        let cold = m.service_batch(0, &[batch(0, 0, false, vec![0])]).to_vec();
        // Far enough ahead that the bank and module are idle again.
        let warm = m
            .service_batch(10_000, &[batch(0, 0, false, vec![0])])
            .to_vec();
        assert!(
            warm[0] - 10_000 < cold[0],
            "L2 hit ({}) not faster than DRAM miss ({})",
            warm[0] - 10_000,
            cold[0]
        );
        assert_eq!(m.l2_stats(), Some((1, 1)));
        let flit = u64::from(m.config().icnt_flit_cycles);
        let hit = flit + u64::from(m.config().icnt_latency) + u64::from(m.config().l2_hit_latency);
        assert_eq!(warm[0], 10_000 + hit);
    }

    #[test]
    fn l2_keeps_local_and_global_spaces_apart() {
        // Local-physical addresses (tid*stride + offset) overlap the
        // global heap numerically; the same segment address in the two
        // spaces must occupy distinct L2 lines — a warm global line is
        // not a hit for a local load, and vice versa.
        let mut m = MemoryFabric::new(MemConfig::fx5800_cached());
        let local = |sm, access, segments| BatchRequest {
            sm,
            access,
            request: FabricRequest {
                space: Space::Local,
                is_store: false,
                segments,
            },
        };
        m.service_batch(0, &[batch(0, 0, false, vec![0])]);
        assert_eq!(m.l2_stats(), Some((0, 1)));
        // Same numeric segment, local space: must miss, not falsely hit.
        m.service_batch(10_000, &[local(0, 0, vec![0])]);
        assert_eq!(m.l2_stats(), Some((0, 2)));
        // Each space then hits its own line.
        m.service_batch(20_000, &[batch(0, 0, false, vec![0])]);
        m.service_batch(30_000, &[local(0, 0, vec![0])]);
        assert_eq!(m.l2_stats(), Some((2, 2)));
    }

    #[test]
    fn stores_bypass_l2() {
        let mut m = MemoryFabric::new(MemConfig::fx5800_cached());
        m.service_batch(0, &[batch(0, 0, true, vec![0])]);
        assert_eq!(m.l2_stats(), Some((0, 0)));
        // The store did not allocate: a later load to the same line misses.
        m.service_batch(10_000, &[batch(0, 0, false, vec![0])]);
        assert_eq!(m.l2_stats(), Some((0, 1)));
    }

    #[test]
    fn round_robin_rotates_grant_order_across_sms() {
        // Segments 0 and 256 both interleave onto module 0 (256/32 % 8 == 0)
        // but live on different L2 lines, so both miss and queue on DRAM —
        // grant order is visible in the ready times.
        let mut m = MemoryFabric::new(MemConfig::fx5800_cached());
        let r = m
            .service_batch(
                0,
                &[batch(0, 0, false, vec![0]), batch(1, 0, false, vec![256])],
            )
            .to_vec();
        assert!(r[0] < r[1], "fresh pointer grants SM 0 first");
        assert_eq!(m.icnt_conflicts(), 1);
        // SM 1 was granted last, so the pointer now favors... SM 2+; with
        // none present it wraps to SM 0 again. Park the pointer after SM 0
        // instead, then re-contend: SM 1 must go first this time.
        let mut m = MemoryFabric::new(MemConfig::fx5800_cached());
        m.service_batch(0, &[batch(0, 0, false, vec![0])]);
        let r = m
            .service_batch(
                10_000,
                &[batch(0, 0, false, vec![512]), batch(1, 0, false, vec![768])],
            )
            .to_vec();
        assert!(r[1] < r[0], "pointer past SM 0 grants SM 1 first");
        assert!(m.icnt_busy().iter().sum::<u64>() > 0);
    }

    /// The machine without an L2 is the batch path with nothing in it:
    /// a multi-SM batch must time exactly like the same requests handed to
    /// the DRAM stage one by one, and touch no interconnect or L2 state —
    /// with or without an L1 in front (the L1 lives in the frontends).
    #[test]
    fn flat_batch_equals_per_request_service() {
        for cfg in [MemConfig::fx5800(), MemConfig::fx5800().with_l1(16 * 1024)] {
            let mut batched = MemoryFabric::new(cfg.clone());
            let mut looped = MemoryFabric::new(cfg.clone());
            // Seeded LCG: a few cycles of batches from 6 SMs, 0-2 accesses
            // each, mixed loads/stores and spaces, 0-5 segments drawn from
            // a small range so modules are shared and queues build up.
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut next = |n: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % n
            };
            for cycle in 0..40u64 {
                let now = cycle * 3;
                let mut reqs = Vec::new();
                for sm in 0..6 {
                    for access in 0..next(3) as usize {
                        let segments = (0..next(6))
                            .map(|_| next(64) as u32 * cfg.segment_bytes)
                            .collect();
                        reqs.push(BatchRequest {
                            sm,
                            access,
                            request: FabricRequest {
                                space: if next(4) == 0 {
                                    Space::Local
                                } else {
                                    Space::Global
                                },
                                is_store: next(3) == 0,
                                segments,
                            },
                        });
                    }
                }
                let want: Vec<u64> = reqs
                    .iter()
                    .map(|b| looped.service(now, &b.request))
                    .collect();
                assert_eq!(batched.service_batch(now, &reqs), want, "cycle {cycle}");
            }
            assert_eq!(batched.module_free, looped.module_free);
            assert_eq!(batched.module_busy(), looped.module_busy());
            assert!(batched.module_busy().iter().sum::<f64>() > 0.0);
            assert!(batched.icnt_busy().iter().all(|&b| b == 0));
            assert_eq!(batched.icnt_conflicts(), 0);
            assert_eq!(batched.l2_stats(), None);
        }
    }

    #[test]
    fn hierarchy_state_round_trips_and_flat_rejects_it() {
        let mut m = MemoryFabric::new(MemConfig::fx5800_cached());
        m.alloc_global(1024, "t");
        m.service_batch(
            0,
            &[batch(0, 0, false, vec![0]), batch(1, 0, false, vec![32])],
        );
        let mut enc = Encoder::new();
        m.encode_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut restored = MemoryFabric::new(MemConfig::fx5800_cached());
        restored
            .restore_state(&mut Decoder::new(&bytes))
            .expect("round trip");
        assert_eq!(restored.l2_stats(), m.l2_stats());
        assert_eq!(restored.icnt_busy(), m.icnt_busy());
        assert_eq!(restored.icnt_conflicts(), m.icnt_conflicts());
        // Restored arbitration state replays identically.
        let a = m.service_batch(10_000, &[batch(0, 0, false, vec![0])]);
        let b = restored.service_batch(10_000, &[batch(0, 0, false, vec![0])]);
        assert_eq!(a, b);

        let mut flat = MemoryFabric::new(MemConfig::fx5800());
        assert!(
            flat.restore_state(&mut Decoder::new(&bytes)).is_err(),
            "flat fabric must reject a cached snapshot"
        );
    }

    /// A snapshot is untrusted input: the same for an L2 slice (see the
    /// frontend's `restore_refuses_a_tex_or_l1_set_the_geometry_cannot_hold`).
    #[test]
    fn restore_refuses_an_l2_set_the_geometry_cannot_hold() {
        use crate::cache::tests::{edited_sets, with_set};
        let cfg = MemConfig::fx5800_cached();
        let slice_bytes = cfg.l2_bytes / cfg.partitions() as u32;
        let sets = (slice_bytes / cfg.l2_line_bytes) as usize / cfg.l2_ways;
        let mut enc = Encoder::new();
        MemoryFabric::new(cfg.clone()).encode_state(&mut enc);
        let honest = enc.into_bytes();
        for (keys, legal) in edited_sets(sets, cfg.l2_ways) {
            let payload = with_set(&honest, sets, 1, &keys);
            let restored =
                MemoryFabric::new(cfg.clone()).restore_state(&mut Decoder::new(&payload));
            assert_eq!(restored.is_ok(), legal, "{keys:?}");
        }
    }

    /// `check_load` refuses exactly what the checked reads refuse, with the
    /// same fault, and a texture binding is found by its bounds.
    #[test]
    fn load_checks_mirror_the_checked_reads() {
        let mut m = MemoryFabric::new(MemConfig::fx5800());
        m.alloc_global(32, "t");
        m.configure_local(16);
        m.mark_read_only(0, 16);
        for (space, addr) in [
            (Space::Global, 3u32),
            (Space::Global, 4096),
            (Space::Const, 6),
            (Space::Const, 4),
        ] {
            assert_eq!(
                m.check_load(space, addr),
                m.try_read_u32(space, addr).map(|_| ()),
                "{space} {addr}"
            );
        }
        for addr in [2u32, 12, 16] {
            assert_eq!(
                m.check_load(Space::Local, addr),
                m.try_read_local(0, addr).map(|_| ()),
                "local {addr}"
            );
        }
        assert_eq!(
            m.check_load(Space::Spawn, 0),
            Err(MemFault::Unmapped {
                space: Space::Spawn
            })
        );
        assert_eq!(m.read_only_region(4), Some((0, 16)));
        assert!(m.read_only_region(12).is_some() && m.read_only_region(16).is_none());
    }
}
