//! Memory-system configuration.

use serde::{Deserialize, Serialize};

simt_isa::record! {
    /// Configuration of the memory subsystem.
    ///
    /// [`MemConfig::fx5800`] reproduces paper Table I: 8 memory modules at
    /// 8 bytes/cycle, no L1/L2 caching.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct MemConfig {
        /// Number of off-chip memory modules (DRAM channels).
        pub num_modules: usize,
        /// Peak bandwidth per module, bytes per cycle.
        pub bytes_per_cycle: u32,
        /// Fixed DRAM access latency in cycles (row access + interconnect).
        pub dram_latency: u32,
        /// DRAM-to-shader clock ratio: the modules move `bytes_per_cycle`
        /// bytes per *DRAM* cycle (FX5800: ~1.6 GHz effective GDDR3 vs the
        /// 1.3 GHz shader clock → 1.23, giving the card's real 78 B per
        /// shader cycle).
        pub dram_clock_ratio: f64,
        /// Coalescing granularity in bytes (one transaction per touched segment).
        pub segment_bytes: u32,
        /// Number of banks in each on-chip scratchpad (shared/spawn).
        pub shared_banks: usize,
        /// Pipeline latency of an on-chip access in cycles.
        pub shared_latency: u32,
        /// Model bank conflicts on the spawn-memory space.
        ///
        /// The paper first evaluates with conflicts eliminated ("future
        /// programming models or compiler optimization", §VII / Fig. 7) and then
        /// with conflicts enabled (Fig. 9).
        pub spawn_bank_conflicts: bool,
        /// Ideal memory: every access completes next cycle and consumes no
        /// bandwidth (paper Fig. 10 "theoretical" configurations).
        pub ideal: bool,
        /// Charge warp admission one spawn-space read per admitted lane (the
        /// admission stage's state-pointer read-back, occupying the SM's
        /// load-store port). Off by default on *every* preset so that the
        /// paper's Table I machine keeps its legacy free admission and the
        /// cache-ablation machines differ only in cache capacity; enable it
        /// explicitly to study admission-stage pressure on its own.
        #[serde(default)]
        pub spawn_admission_reads: bool,
        /// Per-SM read-only (texture) cache capacity in bytes; 0 disables.
        ///
        /// The benchmark binds scene data to textures; GT200-class texture
        /// caches exist independently of the L1/L2 data caches Table I
        /// disables.
        pub tex_cache_bytes: u32,
        /// Texture-cache line size in bytes.
        pub tex_line_bytes: u32,
        /// Texture-cache associativity.
        pub tex_ways: usize,
        /// Texture-cache hit latency in cycles.
        pub tex_hit_latency: u32,
        /// Per-SM L1 data-cache capacity in bytes; 0 disables the L1 (the
        /// paper's Table I machine has none).
        ///
        /// The L1 is a timing-only model: functional values always flow
        /// through the fabric backing stores at issue, so the cache is
        /// non-coherent exactly like a real GPU L1 (stores write through
        /// without allocating and never invalidate remote SMs' tags).
        #[serde(default)]
        pub l1_bytes: u32,
        /// L1 line size in bytes (power of two).
        #[serde(default = "default_l1_line_bytes")]
        pub l1_line_bytes: u32,
        /// L1 associativity.
        #[serde(default = "default_l1_ways")]
        pub l1_ways: usize,
        /// L1 hit latency in cycles.
        #[serde(default = "default_l1_hit_latency")]
        pub l1_hit_latency: u32,
        /// MSHR entries per SM: same-line misses merge into an outstanding
        /// entry; when the table is full further misses bypass merging
        /// (counted as `mshr_stalls`) but still issue their request.
        #[serde(default = "default_l1_mshr_entries")]
        pub l1_mshr_entries: usize,
        /// Shared L2 capacity in bytes, sliced evenly across the memory
        /// partitions (one slice per DRAM module); 0 disables the L2 and
        /// the banked SM↔partition interconnect.
        #[serde(default)]
        pub l2_bytes: u32,
        /// L2 line size in bytes (power of two).
        #[serde(default = "default_l2_line_bytes")]
        pub l2_line_bytes: u32,
        /// L2 associativity.
        #[serde(default = "default_l2_ways")]
        pub l2_ways: usize,
        /// L2 hit latency in cycles (from interconnect arrival).
        #[serde(default = "default_l2_hit_latency")]
        pub l2_hit_latency: u32,
        /// SM↔partition interconnect traversal latency in cycles.
        #[serde(default = "default_icnt_latency")]
        pub icnt_latency: u32,
        /// Cycles one coalesced segment occupies its interconnect bank.
        #[serde(default = "default_icnt_flit_cycles")]
        pub icnt_flit_cycles: u32,
    }
}

fn default_l1_line_bytes() -> u32 {
    64
}
fn default_l1_ways() -> usize {
    4
}
fn default_l1_hit_latency() -> u32 {
    12
}
fn default_l1_mshr_entries() -> usize {
    8
}
fn default_l2_line_bytes() -> u32 {
    64
}
fn default_l2_ways() -> usize {
    8
}
fn default_l2_hit_latency() -> u32 {
    60
}
fn default_icnt_latency() -> u32 {
    8
}
fn default_icnt_flit_cycles() -> u32 {
    2
}

/// The named memory machines. They share one timing batch, so a program
/// may differ between them in cycles only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPreset {
    /// Paper Table I: DRAM modules only ([`MemConfig::fx5800`]).
    Flat,
    /// [`MemPreset::Cached`]'s per-SM L1 and MSHRs alone.
    L1,
    /// L1, banked interconnect and L2 ([`MemConfig::fx5800_cached`]).
    Cached,
    /// Every access completes next cycle.
    Ideal,
}

impl MemPreset {
    /// The memory configuration this preset names.
    pub fn config(self) -> MemConfig {
        match self {
            MemPreset::Flat => MemConfig::fx5800(),
            MemPreset::L1 => MemConfig::fx5800_cached().with_l2(0),
            MemPreset::Cached => MemConfig::fx5800_cached(),
            MemPreset::Ideal => MemConfig::fx5800().with_ideal(true),
        }
    }
}

impl MemConfig {
    /// The paper's simulated configuration (Table I): 8 modules ×
    /// 8 bytes/cycle, 16-bank on-chip memory, no caches.
    ///
    /// Transactions are 32 bytes — the GT200 generation's small-transaction
    /// granularity for scattered access — so a fully divergent warp pays
    /// 32× the bandwidth of a broadcast, not 64×.
    pub fn fx5800() -> Self {
        MemConfig {
            num_modules: 8,
            bytes_per_cycle: 8,
            dram_latency: 200,
            dram_clock_ratio: 1.23,
            segment_bytes: 32,
            shared_banks: 16,
            shared_latency: 10,
            spawn_bank_conflicts: false,
            ideal: false,
            spawn_admission_reads: false,
            tex_cache_bytes: 32 * 1024,
            tex_line_bytes: 32,
            tex_ways: 4,
            tex_hit_latency: 12,
            l1_bytes: 0,
            l1_line_bytes: default_l1_line_bytes(),
            l1_ways: default_l1_ways(),
            l1_hit_latency: default_l1_hit_latency(),
            l1_mshr_entries: default_l1_mshr_entries(),
            l2_bytes: 0,
            l2_line_bytes: default_l2_line_bytes(),
            l2_ways: default_l2_ways(),
            l2_hit_latency: default_l2_hit_latency(),
            icnt_latency: default_icnt_latency(),
            icnt_flit_cycles: default_icnt_flit_cycles(),
        }
    }

    /// A GT200-class cached variant of [`MemConfig::fx5800`]: 16 KiB
    /// per-SM L1 (64 B lines, 4-way, 8 MSHRs) and a 512 KiB shared L2
    /// sliced across the 8 partitions behind the banked interconnect.
    /// This is the configuration the cache-ablation figure, CI matrix,
    /// and benchmark harness enable; the default stays flat.
    pub fn fx5800_cached() -> Self {
        let mut c = MemConfig::fx5800();
        c.l1_bytes = 16 * 1024;
        c.l2_bytes = 512 * 1024;
        c
    }

    /// Ideal-memory variant of this configuration.
    pub fn with_ideal(mut self, ideal: bool) -> Self {
        self.ideal = ideal;
        self
    }

    /// Enables a per-SM L1 of `bytes` capacity (0 disables), keeping the
    /// configured line size, associativity, and MSHR count.
    pub fn with_l1(mut self, bytes: u32) -> Self {
        self.l1_bytes = bytes;
        self
    }

    /// Enables a shared L2 of `bytes` capacity (0 disables), keeping the
    /// configured line size and associativity.
    pub fn with_l2(mut self, bytes: u32) -> Self {
        self.l2_bytes = bytes;
        self
    }

    /// Whether the per-SM L1 data cache is modeled (ideal memory
    /// short-circuits every cache level).
    pub fn l1_enabled(&self) -> bool {
        self.l1_bytes > 0 && !self.ideal
    }

    /// Whether the shared L2 (and with it the banked SM↔partition
    /// interconnect) is modeled.
    pub fn l2_enabled(&self) -> bool {
        self.l2_bytes > 0 && !self.ideal
    }

    /// Number of memory partitions (one L2 slice + interconnect bank in
    /// front of each DRAM module).
    pub fn partitions(&self) -> usize {
        self.num_modules
    }

    /// Enables/disables spawn-memory bank-conflict modeling.
    pub fn with_spawn_bank_conflicts(mut self, enabled: bool) -> Self {
        self.spawn_bank_conflicts = enabled;
        self
    }

    /// Enables/disables the admission-stage spawn-space read charge.
    pub fn with_spawn_admission_reads(mut self, enabled: bool) -> Self {
        self.spawn_admission_reads = enabled;
        self
    }

    /// Shader cycles a module needs to transfer one coalesced segment
    /// (fractional: the modules run at the DRAM clock).
    pub fn segment_service_cycles(&self) -> f64 {
        f64::from(self.segment_bytes) / (f64::from(self.bytes_per_cycle) * self.dram_clock_ratio)
    }

    /// The memory module serving byte address `addr`: segments interleave
    /// round-robin across modules at `segment_bytes` granularity.
    pub fn module_of(&self, addr: u32) -> usize {
        ((addr / self.segment_bytes) as usize) % self.num_modules
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::fx5800()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx5800_matches_table_1() {
        let c = MemConfig::fx5800();
        assert_eq!(c.num_modules, 8);
        assert_eq!(c.bytes_per_cycle, 8);
        assert!(!c.ideal);
    }

    #[test]
    fn segment_service_cycles() {
        let c = MemConfig::fx5800();
        // 32 B / (8 B per DRAM cycle * 1.23) ≈ 3.25 shader cycles.
        assert!((c.segment_service_cycles() - 3.252).abs() < 0.01);
    }

    #[test]
    fn builder_style_toggles() {
        let c = MemConfig::fx5800()
            .with_ideal(true)
            .with_spawn_bank_conflicts(true);
        assert!(c.ideal);
        assert!(c.spawn_bank_conflicts);
    }

    #[test]
    fn caches_default_off_and_toggle_on() {
        let c = MemConfig::fx5800();
        assert!(!c.l1_enabled() && !c.l2_enabled());
        let c = MemConfig::fx5800().with_l1(16 * 1024);
        assert!(c.l1_enabled() && !c.l2_enabled());
        let c = MemConfig::fx5800_cached();
        assert!(c.l1_enabled() && c.l2_enabled());
        // Ideal memory short-circuits every level.
        assert!(!MemConfig::fx5800_cached().with_ideal(true).l1_enabled());
    }

    #[test]
    fn presets_configure_the_expected_hierarchies() {
        let levels = |p: MemPreset| {
            let c = p.config();
            (c.ideal, c.l1_enabled(), c.l2_enabled())
        };
        assert_eq!(levels(MemPreset::Flat), (false, false, false));
        assert_eq!(levels(MemPreset::L1), (false, true, false));
        assert_eq!(levels(MemPreset::Cached), (false, true, true));
        assert_eq!(levels(MemPreset::Ideal), (true, false, false));
    }

    #[test]
    fn cached_preset_only_adds_capacity() {
        // The cached preset differs from the flat Table I machine only in
        // the two capacity knobs: geometry/latency defaults are shared, so
        // ablations compare capacity, not incidental parameter drift.
        let cached = MemConfig::fx5800_cached();
        let flat = MemConfig::fx5800()
            .with_l1(cached.l1_bytes)
            .with_l2(cached.l2_bytes);
        assert_eq!(cached, flat);
        assert_eq!(cached.partitions(), cached.num_modules);
        // In particular the admission-read charge must not ride along with
        // the cache knobs: it has its own toggle.
        assert!(!cached.spawn_admission_reads);
        // So the L1 preset is the flat machine with the cached L1 alone.
        assert_eq!(
            MemPreset::L1.config(),
            MemConfig::fx5800().with_l1(cached.l1_bytes)
        );
        assert!(
            MemConfig::fx5800()
                .with_spawn_admission_reads(true)
                .spawn_admission_reads
        );
    }
}
