//! The warp-formation unit: LUT + formation-slot allocator + new-warp FIFO
//! (paper §IV-C/D, Figs. 4–5).

use crate::config::DmkConfig;
use crate::layout::SpawnMemoryLayout;
use crate::lut::{SpawnLut, UNALLOCATED};
use serde::{Deserialize, Serialize};
use simt_isa::codec::{Codec, CodecError, Decoder, Encoder};
use std::collections::VecDeque;
use std::fmt;

simt_isa::record! {
    /// A warp emitted by the formation unit, ready to be scheduled.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CompletedWarp {
        /// μ-kernel entry PC all member threads begin at.
        pub pc: usize,
        /// Base spawn-memory address of the warp's formation block; lane `i`'s
        /// metadata pointer lives at `base_addr + 4*i` (§IV-D computes this by
        /// subtracting the thread id from the last stored address — same thing).
        pub base_addr: u32,
        /// Number of member threads (equals the warp size except for partial
        /// warps forced out at the end of the application).
        pub count: u32,
    }
}

/// The most lanes one `spawn` carries: the widest warp a machine has.
const MAX_SPAWN_LANES: usize = 32;

/// The formation-slot addresses of one `spawn`'s lanes, held inline (at
/// most a 32-lane warp's), so a `spawn` allocates nothing. Reads as a
/// slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSlots {
    addrs: [u32; MAX_SPAWN_LANES],
    len: u8,
}

impl ThreadSlots {
    fn push(&mut self, addr: u32) {
        self.addrs[usize::from(self.len)] = addr;
        self.len += 1;
    }
}

impl std::ops::Deref for ThreadSlots {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.addrs[..usize::from(self.len)]
    }
}

/// Result of executing one warp-wide `spawn` instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnOutcome {
    /// Formation-slot address assigned to each spawning lane, in lane
    /// order. The SM issues one store per slot writing the lane's state
    /// pointer — the memory transaction of §IV-C.
    pub thread_slots: ThreadSlots,
    /// Warps completed by this spawn (already enqueued in the FIFO).
    pub warps_completed: u32,
}

/// Why a `spawn` could not proceed this cycle.
///
/// Deliberately **not** `#[non_exhaustive]`: every consumer must decide,
/// per variant, whether the condition is a transient stall (retry next
/// cycle) or a hard fault, so adding a variant here should be a compile
/// error at each match site until that policy decision is made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnError {
    /// No free warp-formation blocks; retry after warps issue and release
    /// their blocks (the issuing warp stalls).
    FormationFull,
    /// The new-warp FIFO is full; retry after the scheduler drains it.
    FifoFull,
    /// The program uses more distinct μ-kernels than the LUT supports — a
    /// configuration error, not a transient stall.
    LutFull,
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpawnError::FormationFull => write!(f, "warp-formation blocks exhausted"),
            SpawnError::FifoFull => write!(f, "new-warp FIFO full"),
            SpawnError::LutFull => write!(f, "spawn LUT capacity exceeded"),
        }
    }
}

impl std::error::Error for SpawnError {}

simt_isa::counters! {
    /// Counters exposed by the formation unit.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct DmkStats {
        /// Warp-level `spawn` instructions processed.
        pub spawn_instructions: u64 = sum,
        /// Threads created.
        pub threads_spawned: u64 = sum,
        /// Full warps formed.
        pub warps_completed: u64 = sum,
        /// Partial warps forced out by the scheduler.
        pub partial_warps_forced: u64 = sum,
        /// Threads inside forced partial warps.
        pub partial_threads_forced: u64 = sum,
        /// High-water mark of the new-warp FIFO.
        pub max_fifo_depth: usize = max,
        /// High-water mark of formation blocks in use.
        pub max_blocks_in_use: u32 = max,
        /// Spawn stalls due to formation/FIFO back-pressure.
        pub spawn_stalls: u64 = sum,
        /// Spawn-memory words the admission stage read back (one state
        /// pointer per admitted lane). Only accounted when the
        /// `spawn_admission_reads` memory knob is enabled; zero otherwise.
        pub admission_reads: u64 = sum,
    }
}

/// One SM's warp-formation unit.
#[derive(Debug, Clone)]
pub struct WarpFormation {
    layout: SpawnMemoryLayout,
    lut: SpawnLut,
    warp_size: u32,
    free_blocks: Vec<u32>,
    total_blocks: u32,
    fifo: VecDeque<CompletedWarp>,
    fifo_capacity: usize,
    stats: DmkStats,
}

impl WarpFormation {
    /// Creates the formation unit for one SM.
    pub fn new(cfg: &DmkConfig) -> Self {
        let layout = SpawnMemoryLayout::new(cfg);
        let total_blocks = layout.formation_blocks();
        WarpFormation {
            layout,
            lut: SpawnLut::new(cfg.num_ukernels as usize),
            warp_size: cfg.warp_size,
            free_blocks: (0..total_blocks).rev().collect(),
            total_blocks,
            fifo: VecDeque::new(),
            fifo_capacity: cfg.fifo_capacity,
            stats: DmkStats::default(),
        }
    }

    /// The spawn-memory layout this unit manages.
    pub fn layout(&self) -> &SpawnMemoryLayout {
        &self.layout
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DmkStats {
        &self.stats
    }

    /// Warps waiting in the new-warp FIFO.
    pub fn fifo_len(&self) -> usize {
        self.fifo.len()
    }

    /// Threads sitting in partial (not yet emitted) warps.
    pub fn partial_threads(&self) -> u32 {
        self.lut.iter().map(|l| l.count).sum()
    }

    /// Threads spawned here that no warp holds yet: queued in the new-warp
    /// FIFO or in partial warps.
    pub fn queued_threads(&self) -> u32 {
        self.fifo.iter().map(|w| w.count).sum::<u32>() + self.partial_threads()
    }

    /// Read-only view of the LUT.
    pub fn lut(&self) -> &SpawnLut {
        &self.lut
    }

    /// Counts `words` spawn-memory state-pointer reads made by warp
    /// admission (the formation unit handing a completed warp to the SM).
    pub fn note_admission_reads(&mut self, words: u32) {
        self.stats.admission_reads += u64::from(words);
    }

    fn alloc_block(free: &mut Vec<u32>, layout: &SpawnMemoryLayout) -> Option<u32> {
        free.pop().map(|b| layout.block_addr(b))
    }

    /// Executes one warp-wide `spawn` toward μ-kernel `pc` with `n_active`
    /// spawning lanes.
    ///
    /// On success, per-lane formation-slot addresses are returned (the SM
    /// stores each lane's state pointer there) and any completed warps are
    /// enqueued. On back-pressure the call has **no effect** and the warp
    /// should retry (stall).
    ///
    /// # Errors
    ///
    /// [`SpawnError::FormationFull`]/[`SpawnError::FifoFull`] are transient
    /// stalls; [`SpawnError::LutFull`] is a configuration error.
    ///
    /// # Panics
    ///
    /// Panics if `n_active` exceeds 32, the widest warp.
    // The commit phase's expects are backed by the transactional capacity
    // pre-check above them: every allocation was counted before mutating.
    #[allow(clippy::expect_used)]
    pub fn spawn(&mut self, pc: usize, n_active: u32) -> Result<SpawnOutcome, SpawnError> {
        assert!(
            n_active as usize <= MAX_SPAWN_LANES,
            "{n_active} spawning lanes: a warp has at most {MAX_SPAWN_LANES}"
        );
        if n_active == 0 {
            return Ok(SpawnOutcome {
                thread_slots: ThreadSlots::default(),
                warps_completed: 0,
            });
        }
        // --- capacity pre-check (transactional: fail before mutating) ---
        let (line_exists, count, overflow_unallocated) = match self.lut.line(pc) {
            Some(l) => (true, l.count, l.overflow_addr == UNALLOCATED),
            None => {
                if self.lut.len() >= self.lut.capacity() {
                    return Err(SpawnError::LutFull);
                }
                (false, 0, false)
            }
        };
        let completions = (count + n_active) / self.warp_size;
        let mut blocks_needed = completions;
        if !line_exists {
            blocks_needed += 2;
        } else if overflow_unallocated {
            blocks_needed += 1;
        }
        if (self.free_blocks.len() as u32) < blocks_needed {
            self.stats.spawn_stalls += 1;
            return Err(SpawnError::FormationFull);
        }
        if self.fifo.len() + completions as usize > self.fifo_capacity {
            self.stats.spawn_stalls += 1;
            return Err(SpawnError::FifoFull);
        }

        // --- commit ---
        let layout = self.layout;
        let free = &mut self.free_blocks;
        let line = self
            .lut
            .line_mut(pc, || {
                let fill = Self::alloc_block(free, &layout).expect("pre-checked");
                let over = Self::alloc_block(free, &layout).expect("pre-checked");
                (fill, over)
            })
            .expect("pre-checked LUT capacity");
        if line.overflow_addr == UNALLOCATED {
            line.overflow_addr = Self::alloc_block(free, &layout).expect("pre-checked");
        }

        let mut thread_slots = ThreadSlots::default();
        let mut completed = 0u32;
        for _ in 0..n_active {
            thread_slots.push(line.fill_addr);
            line.fill_addr += 4;
            line.count += 1;
            if line.count == self.warp_size {
                let base = line.fill_addr - self.warp_size * 4;
                self.fifo.push_back(CompletedWarp {
                    pc,
                    base_addr: base,
                    count: self.warp_size,
                });
                completed += 1;
                line.count = 0;
                line.fill_addr = line.overflow_addr;
                line.overflow_addr =
                    Self::alloc_block(free, &layout).expect("pre-checked completion blocks");
            }
        }

        self.stats.spawn_instructions += 1;
        self.stats.threads_spawned += u64::from(n_active);
        self.stats.warps_completed += u64::from(completed);
        self.stats.max_fifo_depth = self.stats.max_fifo_depth.max(self.fifo.len());
        self.stats.max_blocks_in_use = self
            .stats
            .max_blocks_in_use
            .max(self.total_blocks - self.free_blocks.len() as u32);
        Ok(SpawnOutcome {
            thread_slots,
            warps_completed: completed,
        })
    }

    /// Allocates one warp-sized block from the formation free pool for
    /// uses outside normal warp formation (e.g. the §IX
    /// branch-instead-of-spawn optimization needs a resident scratch block
    /// per warp). Release with [`WarpFormation::release_block`].
    pub fn try_alloc_block(&mut self) -> Option<u32> {
        let layout = self.layout;
        let addr = Self::alloc_block(&mut self.free_blocks, &layout);
        if addr.is_some() {
            self.stats.max_blocks_in_use = self
                .stats
                .max_blocks_in_use
                .max(self.total_blocks - self.free_blocks.len() as u32);
        }
        addr
    }

    /// Pops the oldest ready warp from the new-warp FIFO.
    pub fn pop_ready(&mut self) -> Option<CompletedWarp> {
        self.fifo.pop_front()
    }

    /// Peeks at the oldest ready warp without consuming it.
    pub fn peek_ready(&self) -> Option<&CompletedWarp> {
        self.fifo.front()
    }

    /// Forces the partial warp with the lowest μ-kernel PC out of the pool
    /// (§IV-D: used only when the scheduler has nothing else to run).
    ///
    /// Returns `None` when no partial warp exists.
    pub fn force_out_partial(&mut self) -> Option<CompletedWarp> {
        let layout = self.layout;
        let free = &mut self.free_blocks;
        let line = self.lut.lowest_partial_mut()?;
        let count = line.count;
        let base = line.fill_addr - count * 4;
        line.count = 0;
        line.fill_addr = line.overflow_addr;
        // Lazily refill the overflow pointer; blocks may be scarce at the
        // end of the application, which is exactly when force-out runs.
        line.overflow_addr = Self::alloc_block(free, &layout).unwrap_or(UNALLOCATED);
        self.stats.partial_warps_forced += 1;
        self.stats.partial_threads_forced += u64::from(count);
        Some(CompletedWarp {
            pc: line.pc,
            base_addr: base,
            count,
        })
    }

    /// Threads in the partial warp [`WarpFormation::force_out_partial`]
    /// takes next: the lowest-PC partial line's count.
    pub fn next_partial_count(&self) -> Option<u32> {
        let partial = self.lut.iter().filter(|l| l.count > 0);
        partial.min_by_key(|l| l.pc).map(|l| l.count)
    }

    /// Checks the formation-block ownership law, given the blocks the SM's
    /// `resident` warps hold: every block is owned exactly once — by the
    /// free pool, a LUT line (its fill block, `fill_addr − 4·count`, and its
    /// allocated overflow block), a FIFO entry or a resident warp — and
    /// every owner names a block's base; else a [`CodecError::BadTag`].
    pub fn check_ownership(&self, resident: impl Iterator<Item = u32>) -> Result<(), CodecError> {
        let bad = |what, tag| Err(CodecError::BadTag { what, tag });
        let free = self.free_blocks.iter().map(|&b| self.layout.block_addr(b));
        let lines = self.lut.iter().flat_map(|l| {
            let overflow = (l.overflow_addr != UNALLOCATED).then_some(l.overflow_addr);
            [Some(l.fill_addr.wrapping_sub(4 * l.count)), overflow]
        });
        let fifo = self.fifo.iter().map(|w| w.base_addr);
        let mut owned = vec![false; self.total_blocks as usize];
        for addr in free.chain(lines.flatten()).chain(fifo).chain(resident) {
            if !self.layout.is_block_base(addr) {
                return bad("formation block off a block base", addr.into());
            }
            if std::mem::replace(&mut owned[self.layout.block_of_addr(addr) as usize], true) {
                return bad("formation block owned twice", addr.into());
            }
        }
        let unowned = owned.iter().position(|&o| !o);
        let addr = unowned.map(|b| self.layout.block_addr(b as u32));
        addr.map_or(Ok(()), |a| bad("unowned formation block", a.into()))
    }

    /// Returns a warp's formation block to the free pool. Called by the SM
    /// once the issued warp has consumed its metadata (the paper's doubled
    /// allocation exists to make this reuse safe).
    ///
    /// # Panics
    ///
    /// Panics if the address does not lie in the formation area or the
    /// block is already free (double release — a simulator bug).
    pub fn release_block(&mut self, base_addr: u32) {
        let block = self.layout.block_of_addr(base_addr);
        assert!(
            !self.free_blocks.contains(&block),
            "double release of formation block {block}"
        );
        self.free_blocks.push(block);
    }

    /// Whether any spawned work (queued or partial) remains.
    pub fn is_idle(&self) -> bool {
        self.fifo.is_empty() && self.partial_threads() == 0
    }

    /// Serializes the unit's mutable state — LUT lines, free-block pool,
    /// new-warp FIFO, and statistics — for a simulator checkpoint. The
    /// layout and capacities are configuration, re-derived on restore.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.lut.encode_state(enc);
        self.free_blocks.encode(enc);
        self.fifo.encode(enc);
        self.stats.encode_state(enc);
    }

    /// Restores state previously written by
    /// [`WarpFormation::encode_state`] into a unit built from the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, when a block index /
    /// FIFO depth exceeds this unit's configured capacity, for a LUT line
    /// [`SpawnLut::restore_state`] refuses, or for a queued warp that holds
    /// no threads or more than a warp's worth. Block addresses are left to
    /// [`WarpFormation::check_ownership`], which needs the SM's warps.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.lut.restore_state(dec, &self.layout)?;
        let free_blocks = Vec::<u32>::decode(dec)?;
        if free_blocks.len() as u32 > self.total_blocks
            || free_blocks.iter().any(|&b| b >= self.total_blocks)
        {
            return Err(CodecError::BadLength {
                len: free_blocks.len() as u64,
                remaining: self.total_blocks as usize,
            });
        }
        self.free_blocks = free_blocks;
        let fifo = VecDeque::<CompletedWarp>::decode(dec)?;
        if fifo.len() > self.fifo_capacity {
            return Err(CodecError::BadLength {
                len: fifo.len() as u64,
                remaining: self.fifo_capacity,
            });
        }
        if let Some(w) = fifo
            .iter()
            .find(|w| !(1..=self.warp_size).contains(&w.count))
        {
            return Err(CodecError::BadTag {
                what: "queued warp's thread count",
                tag: w.count.into(),
            });
        }
        self.fifo = fifo;
        self.stats.restore_state(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::LutLine;

    fn small_cfg() -> DmkConfig {
        DmkConfig {
            warp_size: 4,
            threads_per_sm: 32,
            state_bytes: 48,
            num_ukernels: 3,
            fifo_capacity: 16,
        }
    }

    #[test]
    fn exact_warp_completes_immediately() {
        let mut wf = WarpFormation::new(&small_cfg());
        let out = wf.spawn(10, 4).unwrap();
        assert_eq!(out.warps_completed, 1);
        assert_eq!(out.thread_slots.len(), 4);
        // Slots are sequential words.
        for w in out.thread_slots.windows(2) {
            assert_eq!(w[1], w[0] + 4);
        }
        let warp = wf.pop_ready().unwrap();
        assert_eq!(warp.pc, 10);
        assert_eq!(warp.count, 4);
        assert_eq!(warp.base_addr, out.thread_slots[0]);
    }

    #[test]
    fn partial_warp_accumulates_across_spawns() {
        let mut wf = WarpFormation::new(&small_cfg());
        assert_eq!(wf.spawn(10, 2).unwrap().warps_completed, 0);
        assert_eq!(wf.partial_threads(), 2);
        assert!(wf.pop_ready().is_none());
        let out = wf.spawn(10, 3).unwrap();
        assert_eq!(out.warps_completed, 1);
        assert_eq!(
            wf.partial_threads(),
            1,
            "one thread spills into the next warp"
        );
    }

    #[test]
    fn overflow_spawn_spans_blocks() {
        let mut wf = WarpFormation::new(&small_cfg());
        // 10 threads with warp size 4: two complete warps + 2 partial.
        let out = wf.spawn(10, 10).unwrap();
        assert_eq!(out.warps_completed, 2);
        assert_eq!(wf.partial_threads(), 2);
        let w1 = wf.pop_ready().unwrap();
        let w2 = wf.pop_ready().unwrap();
        assert_ne!(w1.base_addr, w2.base_addr);
        // Each warp's slots are exactly its block.
        assert_eq!(out.thread_slots[0], w1.base_addr);
        assert_eq!(out.thread_slots[4], w2.base_addr);
    }

    #[test]
    fn different_ukernels_use_separate_lines() {
        let mut wf = WarpFormation::new(&small_cfg());
        wf.spawn(10, 2).unwrap();
        wf.spawn(20, 3).unwrap();
        assert_eq!(wf.partial_threads(), 5);
        assert_eq!(wf.lut().len(), 2);
    }

    #[test]
    fn lut_capacity_enforced() {
        let mut wf = WarpFormation::new(&small_cfg());
        wf.spawn(1, 1).unwrap();
        wf.spawn(2, 1).unwrap();
        wf.spawn(3, 1).unwrap();
        assert_eq!(wf.spawn(4, 1).unwrap_err(), SpawnError::LutFull);
    }

    #[test]
    fn force_out_lowest_pc_first() {
        let mut wf = WarpFormation::new(&small_cfg());
        wf.spawn(30, 1).unwrap();
        wf.spawn(10, 2).unwrap();
        assert_eq!(wf.next_partial_count(), Some(2));
        let w = wf.force_out_partial().unwrap();
        assert_eq!(w.pc, 10);
        assert_eq!(w.count, 2);
        assert_eq!(wf.next_partial_count(), Some(1));
        let w = wf.force_out_partial().unwrap();
        assert_eq!(w.pc, 30);
        assert_eq!(wf.next_partial_count(), None);
        assert!(wf.force_out_partial().is_none());
        assert!(wf.is_idle());
    }

    #[test]
    fn formation_back_pressure_stalls_without_effect() {
        let cfg = DmkConfig {
            warp_size: 4,
            threads_per_sm: 8,
            state_bytes: 48,
            num_ukernels: 1,
            fifo_capacity: 64,
        };
        // 2*8/4 = 4 blocks total; a line consumes 2 up front.
        let mut wf = WarpFormation::new(&cfg);
        wf.spawn(10, 4).unwrap(); // completes one warp, allocates a refill block
        let before_partial = wf.partial_threads();
        // Keep spawning until blocks run out.
        let mut stalled = false;
        for _ in 0..16 {
            match wf.spawn(10, 4) {
                Ok(_) => {}
                Err(SpawnError::FormationFull) => {
                    stalled = true;
                    break;
                }
                // Exhaustive so a new SpawnError variant forces this test to
                // state its back-pressure policy explicitly.
                Err(e @ (SpawnError::FifoFull | SpawnError::LutFull)) => {
                    panic!("unexpected {e}")
                }
            }
        }
        assert!(stalled, "must eventually exhaust formation blocks");
        let stalled_partial = wf.partial_threads();
        assert_eq!(before_partial, 0);
        assert_eq!(
            stalled_partial % 4,
            0,
            "failed spawn must not partially commit"
        );
        assert!(wf.stats().spawn_stalls >= 1);
        // Releasing a block un-stalls.
        let w = wf.pop_ready().unwrap();
        wf.release_block(w.base_addr);
        wf.spawn(10, 4).unwrap();
    }

    #[test]
    fn fifo_back_pressure() {
        let cfg = DmkConfig {
            warp_size: 4,
            threads_per_sm: 512,
            state_bytes: 48,
            num_ukernels: 1,
            fifo_capacity: 2,
        };
        let mut wf = WarpFormation::new(&cfg);
        wf.spawn(10, 8).unwrap(); // fills FIFO to 2
        assert_eq!(wf.spawn(10, 4).unwrap_err(), SpawnError::FifoFull);
        wf.pop_ready().unwrap();
        wf.spawn(10, 4).unwrap();
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_a_bug() {
        let mut wf = WarpFormation::new(&small_cfg());
        wf.spawn(10, 4).unwrap();
        let w = wf.pop_ready().unwrap();
        wf.release_block(w.base_addr);
        wf.release_block(w.base_addr);
    }

    #[test]
    fn stats_track_activity() {
        let mut wf = WarpFormation::new(&small_cfg());
        wf.spawn(10, 6).unwrap();
        wf.force_out_partial().unwrap();
        let s = wf.stats();
        assert_eq!(s.spawn_instructions, 1);
        assert_eq!(s.threads_spawned, 6);
        assert_eq!(s.warps_completed, 1);
        assert_eq!(s.partial_warps_forced, 1);
        assert_eq!(s.partial_threads_forced, 2);
        assert!(s.max_fifo_depth >= 1);
    }

    #[test]
    fn zero_active_lanes_is_noop() {
        let mut wf = WarpFormation::new(&small_cfg());
        let out = wf.spawn(10, 0).unwrap();
        assert!(out.thread_slots.is_empty());
        assert!(wf.lut().is_empty());
        assert_eq!(wf.stats().spawn_instructions, 0);
    }

    fn stats_from(bytes: &[u8]) -> Result<DmkStats, CodecError> {
        let mut s = DmkStats::default();
        s.restore_state(&mut Decoder::new(bytes)).map(|()| s)
    }

    fn stats_bytes(s: &DmkStats) -> Vec<u8> {
        let mut enc = Encoder::new();
        s.encode_state(&mut enc);
        enc.into_bytes()
    }

    proptest::proptest! {
        /// The declared codec and merge: restore of encode is the identity
        /// (bytes with every high bit clear, so two of them never overflow
        /// a sum), a merge sums every counter and keeps the larger of the
        /// two high-water marks, and a truncated payload is a typed error.
        #[test]
        fn dmk_stats_roundtrip_and_merge_field_by_field(
            a in proptest::collection::vec(0u8..0x80, DmkStats::ENCODED_BYTES..DmkStats::ENCODED_BYTES + 1),
            b in proptest::collection::vec(0u8..0x80, DmkStats::ENCODED_BYTES..DmkStats::ENCODED_BYTES + 1),
        ) {
            let (x, y) = (stats_from(&a).unwrap(), stats_from(&b).unwrap());
            proptest::prop_assert_eq!(stats_bytes(&x), a.clone());
            let mut m = x;
            m.merge(&y);
            for (i, name) in DmkStats::NAMES.iter().enumerate() {
                let (p, q) = (x.values()[i], y.values()[i]);
                let want = if name.starts_with("max_") { p.max(q) } else { p + q };
                proptest::prop_assert_eq!(m.values()[i], want, "{}", name);
            }
            proptest::prop_assert_eq!(stats_from(&stats_bytes(&m)).unwrap(), m);
            proptest::prop_assert!(matches!(
                stats_from(&a[..a.len() - 1]),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
    }

    /// Restores a 4-lane unit that spawned five threads toward PC 10 —
    /// one warp queued at `0x600`, one thread filling the block at
    /// `0x610` — after `edit` rewrote its LUT lines, free blocks and FIFO
    /// entries, and checks its block ownership with no resident warps.
    fn restore_edited(
        edit: impl FnOnce(&mut Vec<LutLine>, &mut Vec<u32>, &mut VecDeque<CompletedWarp>),
    ) -> Result<(), CodecError> {
        let mut wf = WarpFormation::new(&small_cfg());
        wf.spawn(10, 5).unwrap();
        let mut enc = Encoder::new();
        wf.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let mut lines = Vec::<LutLine>::decode(&mut dec).unwrap();
        let mut free = Vec::<u32>::decode(&mut dec).unwrap();
        let mut fifo = VecDeque::<CompletedWarp>::decode(&mut dec).unwrap();
        let stats = &bytes[bytes.len() - dec.remaining()..];
        edit(&mut lines, &mut free, &mut fifo);
        let mut enc = Encoder::new();
        lines.encode(&mut enc);
        free.encode(&mut enc);
        fifo.encode(&mut enc);
        let mut edited = enc.into_bytes();
        edited.extend_from_slice(stats);
        let mut wf = WarpFormation::new(&small_cfg());
        wf.restore_state(&mut Decoder::new(&edited))?;
        wf.check_ownership(std::iter::empty())
    }

    /// A LUT line restores only with fewer threads than a warp, filling a
    /// formation block from its base, and with its overflow pointer on a
    /// block base or unallocated, its block then free: a fill address two
    /// bytes off its slot once restored, then handed out an unaligned
    /// spawn-memory slot.
    #[test]
    fn a_lut_line_off_its_formation_block_is_refused() {
        assert_eq!(restore_edited(|_, _, _| {}), Ok(()));
        let unallocate = |l: &mut Vec<LutLine>, free: &mut Vec<u32>, freed: bool| {
            if freed {
                free.push((l[0].overflow_addr - 0x600) / 16);
            }
            l[0].overflow_addr = UNALLOCATED;
        };
        assert_eq!(restore_edited(|l, f, _| unallocate(l, f, true)), Ok(()));
        assert!(matches!(
            restore_edited(|l, f, _| unallocate(l, f, false)),
            Err(CodecError::BadTag { tag: 0x620, .. })
        ));
        let bad: [fn(&mut LutLine); 5] = [
            |l| l.fill_addr += 2,
            |l| l.count = 4,
            |l| l.fill_addr = 0x5f4,
            |l| l.fill_addr = 0x744,
            |l| l.overflow_addr += 4,
        ];
        for (i, edit) in bad.into_iter().enumerate() {
            assert!(
                matches!(
                    restore_edited(|l, _, _| edit(&mut l[0])),
                    Err(CodecError::BadTag { .. })
                ),
                "edit {i}"
            );
        }
    }

    /// A queued warp restores only on a formation block's base and with
    /// one to a warp's worth of threads.
    #[test]
    fn a_fifo_entry_off_a_formation_block_or_beyond_a_warp_is_refused() {
        let bad: [fn(&mut CompletedWarp); 4] = [
            |w| w.base_addr += 4,
            |w| w.base_addr = 0,
            |w| w.count = 0,
            |w| w.count = 5,
        ];
        for (i, edit) in bad.into_iter().enumerate() {
            assert!(
                matches!(
                    restore_edited(|_, _, f| edit(&mut f[0])),
                    Err(CodecError::BadTag { .. })
                ),
                "edit {i}"
            );
        }
    }

    #[test]
    fn block_reuse_cycles_through_capacity() {
        let mut wf = WarpFormation::new(&small_cfg());
        // Spawn/drain/release many times; must never exhaust.
        for round in 0..100 {
            let out = wf
                .spawn(10, 4)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(out.warps_completed, 1);
            let w = wf.pop_ready().unwrap();
            assert_eq!(wf.check_ownership([w.base_addr].into_iter()), Ok(()));
            assert!(wf.check_ownership(std::iter::empty()).is_err(), "leaked");
            wf.release_block(w.base_addr);
            assert_eq!(wf.check_ownership(std::iter::empty()), Ok(()));
        }
    }
}
