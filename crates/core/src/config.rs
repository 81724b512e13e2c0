//! Dynamic μ-kernel hardware configuration.

use serde::{Deserialize, Serialize};

simt_isa::record! {
    /// Sizing parameters of the dynamic μ-kernel hardware on one SM.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct DmkConfig {
        /// Threads per warp (32 in the paper's Table I).
        pub warp_size: u32,
        /// Maximum threads resident on one SM (1024 in Table I).
        pub threads_per_sm: u32,
        /// Bytes of the parent→child state record. The paper's ray-tracing
        /// μ-kernels use 48 bytes moved by three 4-wide vector accesses.
        ///
        /// When μ-kernels need different amounts, the *largest* record sizes
        /// the space (§IV-A1).
        pub state_bytes: u32,
        /// Number of distinct μ-kernels (spawn targets). Sizes the LUT and the
        /// warp-formation area.
        pub num_ukernels: u32,
        /// Maximum depth of the new-warp FIFO before `spawn` stalls.
        pub fifo_capacity: usize,
    }
}

impl DmkConfig {
    /// The paper's configuration: 32-thread warps, 1024 threads/SM, 48-byte
    /// state records, 4 μ-kernels, and a generous FIFO.
    pub fn paper() -> Self {
        DmkConfig {
            warp_size: 32,
            threads_per_sm: 1024,
            state_bytes: 48,
            num_ukernels: 4,
            fifo_capacity: 256,
        }
    }

    /// Number of warp-formation *entries* (one 4-byte pointer per thread)
    /// required, before doubling: `NumThreads + (SpawnLocations − 1) ×
    /// WarpSize` (paper §IV-A2).
    pub fn formation_entries(&self) -> u32 {
        self.threads_per_sm + (self.num_ukernels.saturating_sub(1)) * self.warp_size
    }

    /// Formation-area capacity in warp-sized blocks, after the paper's
    /// doubling, rounded up so each block holds exactly one warp.
    pub fn formation_blocks(&self) -> u32 {
        (2 * self.formation_entries()).div_ceil(self.warp_size)
    }

    /// Total spawn-memory bytes this configuration needs per SM.
    pub fn spawn_memory_bytes(&self) -> u32 {
        self.state_bytes * self.threads_per_sm + self.formation_blocks() * self.warp_size * 4
    }

    /// LUT size in bytes: one line per μ-kernel, each holding two addresses
    /// and a counter plus the tag (paper Table I budgets 1024 bytes).
    pub fn lut_bytes(&self) -> u32 {
        self.num_ukernels * 16
    }
}

impl Default for DmkConfig {
    fn default() -> Self {
        DmkConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_formation_sizing() {
        let c = DmkConfig::paper();
        // 1024 + 3*32 = 1120 entries, doubled = 2240, / 32 = 70 blocks.
        assert_eq!(c.formation_entries(), 1120);
        assert_eq!(c.formation_blocks(), 70);
    }

    #[test]
    fn spawn_memory_total() {
        let c = DmkConfig::paper();
        // 48 * 1024 state bytes + 70 * 32 * 4 formation bytes.
        assert_eq!(c.spawn_memory_bytes(), 48 * 1024 + 70 * 32 * 4);
    }

    #[test]
    fn lut_fits_table_1_budget() {
        let c = DmkConfig::paper();
        assert!(
            c.lut_bytes() <= 1024,
            "LUT must fit the 1 KiB budget of Table I"
        );
    }

    #[test]
    fn single_ukernel_has_no_extra_blocks() {
        let c = DmkConfig {
            num_ukernels: 1,
            ..DmkConfig::paper()
        };
        assert_eq!(c.formation_entries(), c.threads_per_sm);
    }
}
