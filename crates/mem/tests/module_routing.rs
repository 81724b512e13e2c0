//! Property tests for the coalescer and address→module interleaving:
//! every byte of a warp access maps to exactly one segment and exactly one
//! module, and the bus bytes the modules move account for every requested
//! byte.

use proptest::prelude::*;
use simt_mem::{coalesce_segments, FabricRequest, MemConfig, MemoryFabric};

/// The segment base covering byte address `b`.
fn segment_of(b: u64, segment_bytes: u32) -> u32 {
    ((b as u32) / segment_bytes) * segment_bytes
}

proptest! {
    /// Every byte a lane touches falls inside exactly one emitted segment,
    /// and that segment routes to exactly one module.
    #[test]
    fn every_byte_maps_to_exactly_one_module(
        addrs in proptest::collection::vec((0u32..1_000_000).prop_map(|a| a * 4), 1..32),
        bytes_per_lane in prop_oneof![Just(4u32), Just(16u32)],
    ) {
        let cfg = MemConfig::fx5800();
        let result = coalesce_segments(&addrs, bytes_per_lane, cfg.segment_bytes);

        // Segments are unique, aligned, and each owned by one module.
        for w in result.segments.windows(2) {
            prop_assert!(w[0] < w[1], "segments must be sorted and deduped");
        }
        for &s in &result.segments {
            prop_assert_eq!(s % cfg.segment_bytes, 0);
            let m = cfg.module_of(s);
            prop_assert!(m < cfg.num_modules);
        }

        for &a in &addrs {
            for byte in u64::from(a)..u64::from(a) + u64::from(bytes_per_lane) {
                let seg = segment_of(byte, cfg.segment_bytes);
                let covering = result.segments.iter().filter(|&&s| s == seg).count();
                prop_assert_eq!(
                    covering, 1,
                    "byte {} (segment {}) covered by {} segments", byte, seg, covering
                );
            }
        }
    }

    /// Total bytes moved over the module buses equals transactions ×
    /// segment size, and covers at least every requested byte.
    #[test]
    fn module_bytes_account_for_request_bytes(
        addrs in proptest::collection::vec((0u32..100_000).prop_map(|a| a * 4), 1..32),
        bytes_per_lane in prop_oneof![Just(4u32), Just(16u32)],
    ) {
        let cfg = MemConfig::fx5800();
        let result = coalesce_segments(&addrs, bytes_per_lane, cfg.segment_bytes);

        prop_assert_eq!(
            result.requested_bytes,
            addrs.len() as u64 * u64::from(bytes_per_lane)
        );
        let bus = result.bus_bytes(cfg.segment_bytes);
        prop_assert_eq!(
            bus,
            result.transactions() as u64 * u64::from(cfg.segment_bytes)
        );

        // Unique touched bytes never exceed what the bus moved, and the bus
        // never moves more than one full segment per touched segment.
        let mut touched: Vec<u64> = addrs
            .iter()
            .flat_map(|&a| u64::from(a)..u64::from(a) + u64::from(bytes_per_lane))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        prop_assert!(touched.len() as u64 <= bus);
        let mut segs: Vec<u32> = touched
            .iter()
            .map(|&b| segment_of(b, cfg.segment_bytes))
            .collect();
        segs.sort_unstable();
        segs.dedup();
        prop_assert_eq!(segs.len(), result.transactions());
    }

    /// Per-module interleaving is a partition: summing segments by module
    /// recovers the full transaction count, and consecutive segments hit
    /// consecutive modules.
    #[test]
    fn interleave_partitions_segments_across_modules(
        base in (0u32..1_000).prop_map(|a| a * 32),
        count in 1usize..64,
    ) {
        let cfg = MemConfig::fx5800();
        let mut per_module = vec![0usize; cfg.num_modules];
        for i in 0..count {
            let seg = base + i as u32 * cfg.segment_bytes;
            per_module[cfg.module_of(seg)] += 1;
        }
        prop_assert_eq!(per_module.iter().sum::<usize>(), count);
        // A run of num_modules consecutive segments touches every module once.
        if count >= cfg.num_modules {
            prop_assert!(per_module.iter().all(|&n| n > 0));
        }
    }

    /// Servicing the same request twice from the same state gives the same
    /// completion time (module arbitration is deterministic).
    #[test]
    fn service_is_deterministic(
        addrs in proptest::collection::vec((0u32..50_000).prop_map(|a| a * 4), 1..32),
        now in 0u64..10_000,
    ) {
        let cfg = MemConfig::fx5800();
        let result = coalesce_segments(&addrs, 4, cfg.segment_bytes);
        let req = FabricRequest {
            space: simt_isa::Space::Global,
            is_store: false,
            segments: result.segments,
        };
        let mut a = MemoryFabric::new(cfg.clone());
        let mut b = MemoryFabric::new(cfg);
        prop_assert_eq!(a.service(now, &req), b.service(now, &req));
        // And queueing state evolves identically.
        prop_assert_eq!(a.service(now + 1, &req), b.service(now + 1, &req));
    }
}
