//! Spawn-memory address-space layout (paper §IV-A, Fig. 6).

use crate::config::DmkConfig;
use serde::{Deserialize, Serialize};

/// The layout of one SM's spawn memory.
///
/// ```text
/// +--------------------------------------------+  0
/// | thread state records                       |
/// |   threads_per_sm × state_bytes             |
/// +--------------------------------------------+  formation_base
/// | warp-formation metadata (doubled)          |
/// |   formation_blocks × warp_size × 4 bytes   |
/// +--------------------------------------------+  total_bytes
/// ```
///
/// Launch-time threads get state record `tid_in_sm`; each formation *block*
/// holds the per-lane state pointers of exactly one forming warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpawnMemoryLayout {
    state_bytes: u32,
    threads: u32,
    warp_size: u32,
    formation_base: u32,
    formation_blocks: u32,
}

impl SpawnMemoryLayout {
    /// Computes the layout for a configuration.
    pub fn new(cfg: &DmkConfig) -> Self {
        SpawnMemoryLayout {
            state_bytes: cfg.state_bytes,
            threads: cfg.threads_per_sm,
            warp_size: cfg.warp_size,
            formation_base: cfg.state_bytes * cfg.threads_per_sm,
            formation_blocks: cfg.formation_blocks(),
        }
    }

    /// Total bytes of spawn memory required.
    pub fn total_bytes(&self) -> u32 {
        self.formation_base + self.formation_blocks * self.warp_size * 4
    }

    /// Byte size of one state record.
    pub fn state_bytes(&self) -> u32 {
        self.state_bytes
    }

    /// Base address of the warp-formation section.
    pub fn formation_base(&self) -> u32 {
        self.formation_base
    }

    /// Number of warp-sized formation blocks.
    pub fn formation_blocks(&self) -> u32 {
        self.formation_blocks
    }

    /// Threads per warp.
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// State-record address for launch-time thread `tid_in_sm`
    /// (`SpawnMemoryBaseAddress + threadID × sizeof(state)`, §IV-A1).
    ///
    /// # Panics
    ///
    /// Panics when `tid_in_sm` exceeds the SM thread capacity.
    pub fn launch_state_addr(&self, tid_in_sm: u32) -> u32 {
        assert!(
            tid_in_sm < self.threads,
            "thread {tid_in_sm} exceeds SM capacity {}",
            self.threads
        );
        tid_in_sm * self.state_bytes
    }

    /// Base address of formation block `block`.
    ///
    /// # Panics
    ///
    /// Panics when `block` is out of range.
    pub fn block_addr(&self, block: u32) -> u32 {
        assert!(
            block < self.formation_blocks,
            "formation block {block} out of range"
        );
        self.formation_base + block * self.warp_size * 4
    }

    /// Inverse of [`SpawnMemoryLayout::block_addr`]: the block index
    /// containing formation address `addr`.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is not inside the formation section.
    pub fn block_of_addr(&self, addr: u32) -> u32 {
        assert!(
            addr >= self.formation_base,
            "address {addr:#x} below formation base"
        );
        let b = (addr - self.formation_base) / (self.warp_size * 4);
        assert!(
            b < self.formation_blocks,
            "address {addr:#x} beyond formation area"
        );
        b
    }

    /// Whether `addr` is the base address of a formation block.
    pub fn is_block_base(&self, addr: u32) -> bool {
        let block_bytes = self.warp_size * 4;
        addr.checked_sub(self.formation_base)
            .is_some_and(|off| off % block_bytes == 0 && off / block_bytes < self.formation_blocks)
    }

    /// The formation-slot address of `lane` within the block at `base`.
    pub fn slot_addr(&self, block_base: u32, lane: u32) -> u32 {
        block_base + lane * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn layout() -> SpawnMemoryLayout {
        SpawnMemoryLayout::new(&DmkConfig::paper())
    }

    #[test]
    fn sections_are_disjoint_and_ordered() {
        let l = layout();
        assert_eq!(l.formation_base(), 48 * 1024);
        assert!(l.total_bytes() > l.formation_base());
    }

    #[test]
    fn launch_state_addresses_stride_by_record() {
        let l = layout();
        assert_eq!(l.launch_state_addr(0), 0);
        assert_eq!(l.launch_state_addr(1), 48);
        assert_eq!(l.launch_state_addr(1023), 48 * 1023);
    }

    #[test]
    #[should_panic(expected = "exceeds SM capacity")]
    fn launch_state_bounds_checked() {
        layout().launch_state_addr(1024);
    }

    #[test]
    fn block_addr_roundtrip() {
        let l = layout();
        for b in 0..l.formation_blocks() {
            let a = l.block_addr(b);
            assert_eq!(l.block_of_addr(a), b);
            assert_eq!(l.block_of_addr(a + 4 * (l.warp_size() - 1)), b);
        }
    }

    #[test]
    fn matches_config_total() {
        let cfg = DmkConfig::paper();
        assert_eq!(
            SpawnMemoryLayout::new(&cfg).total_bytes(),
            cfg.spawn_memory_bytes()
        );
    }

    proptest! {
        #[test]
        fn state_records_never_overlap_formation(tid in 0u32..1024) {
            let l = layout();
            let a = l.launch_state_addr(tid);
            prop_assert!(a + l.state_bytes() <= l.formation_base());
        }

        #[test]
        fn slot_addresses_stay_in_block(block in 0u32..70, lane in 0u32..32) {
            let l = layout();
            let base = l.block_addr(block);
            let slot = l.slot_addr(base, lane);
            prop_assert_eq!(l.block_of_addr(slot), block);
        }
    }
}
