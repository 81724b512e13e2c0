//! Warp-level memory coalescing.
//!
//! Off-chip accesses by the lanes of a warp are merged into the minimal set
//! of aligned segments (64 bytes in the paper's configuration); each
//! distinct segment becomes one memory transaction. Divergent (scattered)
//! access patterns therefore cost proportionally more bandwidth — one of the
//! effects the μ-kernel transformation improves ("improved memory
//! coalescing", paper §VII).

/// Result of coalescing one warp access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalesceResult {
    /// Base addresses of the distinct segments touched, sorted ascending.
    pub segments: Vec<u32>,
    /// Total bytes actually requested by the lanes (not segment bytes).
    pub requested_bytes: u64,
}

impl CoalesceResult {
    /// Number of memory transactions generated.
    pub fn transactions(&self) -> usize {
        self.segments.len()
    }

    /// Bytes moved on the bus (whole segments).
    pub fn bus_bytes(&self, segment_bytes: u32) -> u64 {
        self.segments.len() as u64 * u64::from(segment_bytes)
    }
}

/// Coalesces per-lane accesses of `bytes_per_lane` at `addresses` into
/// aligned segments of `segment_bytes`.
///
/// Accesses that straddle a segment boundary contribute to both segments
/// (possible for 16-byte `v4` accesses that are not 16-byte aligned).
///
/// # Panics
///
/// Panics if `segment_bytes` is zero or not a power of two.
pub fn coalesce_segments(
    addresses: &[u32],
    bytes_per_lane: u32,
    segment_bytes: u32,
) -> CoalesceResult {
    assert!(
        segment_bytes.is_power_of_two(),
        "segment size must be a power of two"
    );
    let mask = !(segment_bytes - 1);
    let mut segments: Vec<u32> = Vec::with_capacity(addresses.len());
    for &a in addresses {
        let first = a & mask;
        let last = a.wrapping_add(bytes_per_lane - 1) & mask;
        segments.push(first);
        if last != first {
            segments.push(last);
        }
    }
    segments.sort_unstable();
    segments.dedup();
    CoalesceResult {
        segments,
        requested_bytes: addresses.len() as u64 * u64::from(bytes_per_lane),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        // 16 lanes × 4 B covering one 64 B segment.
        let addrs: Vec<u32> = (0..16).map(|i| 256 + i * 4).collect();
        let r = coalesce_segments(&addrs, 4, 64);
        assert_eq!(r.transactions(), 1);
        assert_eq!(r.segments, vec![256]);
        assert_eq!(r.requested_bytes, 64);
    }

    #[test]
    fn warp_spanning_two_segments() {
        let addrs: Vec<u32> = (0..32).map(|i| i * 4).collect(); // 128 B
        let r = coalesce_segments(&addrs, 4, 64);
        assert_eq!(r.transactions(), 2);
        assert_eq!(r.segments, vec![0, 64]);
    }

    #[test]
    fn fully_scattered_warp_is_one_transaction_per_lane() {
        let addrs: Vec<u32> = (0..32).map(|i| i * 1024).collect();
        let r = coalesce_segments(&addrs, 4, 64);
        assert_eq!(r.transactions(), 32);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let r = coalesce_segments(&[128, 128, 132, 160], 4, 64);
        assert_eq!(r.transactions(), 1);
    }

    #[test]
    fn straddling_v4_touches_both_segments() {
        // A 16-byte access at 56 covers [56, 72) -> segments 0 and 64.
        let r = coalesce_segments(&[56], 16, 64);
        assert_eq!(r.segments, vec![0, 64]);
    }

    #[test]
    fn empty_access_produces_nothing() {
        let r = coalesce_segments(&[], 4, 64);
        assert_eq!(r.transactions(), 0);
        assert_eq!(r.requested_bytes, 0);
    }

    proptest! {
        #[test]
        fn transactions_bounded(addrs in proptest::collection::vec(0u32..1_000_000, 0..32)) {
            let aligned: Vec<u32> = addrs.iter().map(|a| a & !3).collect();
            let r = coalesce_segments(&aligned, 4, 64);
            // Never more than one segment per lane for 4 B accesses...
            prop_assert!(r.transactions() <= aligned.len());
            // ...and segments are unique and sorted.
            let mut s = r.segments.clone();
            s.dedup();
            prop_assert_eq!(&s, &r.segments);
            let mut sorted = r.segments.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, r.segments);
        }

        #[test]
        fn every_lane_covered(addrs in proptest::collection::vec(0u32..100_000, 1..32)) {
            let aligned: Vec<u32> = addrs.iter().map(|a| a & !3).collect();
            let r = coalesce_segments(&aligned, 4, 64);
            for a in &aligned {
                prop_assert!(r.segments.contains(&(a & !63)));
            }
        }
    }
}
