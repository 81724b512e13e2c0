//! Traffic accounting per address space (regenerates paper Table IV).

use serde::{Deserialize, Serialize};
use simt_isa::codec::{CodecError, Decoder, Encoder};
use simt_isa::Space;
use std::fmt;

simt_isa::counters! {
    /// Byte and transaction counters for one address space.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct SpaceTraffic {
        /// Bytes requested by loads.
        pub bytes_read: u64 = sum,
        /// Bytes requested by stores.
        pub bytes_written: u64 = sum,
        /// Coalesced transactions issued to memory modules (off-chip spaces).
        pub transactions: u64 = sum,
        /// Warp-level accesses.
        pub accesses: u64 = sum,
        /// Extra serialization passes caused by bank conflicts (on-chip spaces).
        pub bank_conflict_passes: u64 = sum,
    }
}

simt_isa::counters! {
    /// Coalesced segments one SM's frontend sent to the fabric, by kind.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SegmentsSent {
        /// Line fills of global loads that missed the L1.
        pub l1_fills: u64 = sum,
        /// Line fills of the texture cache.
        pub tex_fills: u64 = sum,
        /// Loads no cache serves (global without an L1, local).
        pub loads: u64 = sum,
        /// Stores, which write through.
        pub stores: u64 = sum,
    }
}

simt_isa::counters! {
    /// Coalesced segments the fabric serviced, by what a request shows of
    /// its source: loads (each probes the L2, when one is modelled) and
    /// stores.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SegmentsServiced {
        /// Load segments: L1 and texture fills and uncached loads.
        pub loads: u64 = sum,
        /// Store segments.
        pub stores: u64 = sum,
    }
}

impl SpaceTraffic {
    /// Total bytes moved (read + written).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Traffic statistics for all address spaces, and the bytes the texture
/// path served to lanes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    global: SpaceTraffic,
    shared: SpaceTraffic,
    local: SpaceTraffic,
    constant: SpaceTraffic,
    spawn: SpaceTraffic,
    /// Bytes texture-bound lanes of global loads read through the texture
    /// cache, hits and misses alike. Apart from the per-space counters: a
    /// texture miss's line fill is global traffic, a hit none.
    tex_bytes: u64,
}

impl TrafficStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters for `space`.
    pub fn space(&self, space: Space) -> &SpaceTraffic {
        match space {
            Space::Global => &self.global,
            Space::Shared => &self.shared,
            Space::Local => &self.local,
            Space::Const => &self.constant,
            Space::Spawn => &self.spawn,
        }
    }

    /// Mutable counters for `space`.
    pub fn space_mut(&mut self, space: Space) -> &mut SpaceTraffic {
        match space {
            Space::Global => &mut self.global,
            Space::Shared => &mut self.shared,
            Space::Local => &mut self.local,
            Space::Const => &mut self.constant,
            Space::Spawn => &mut self.spawn,
        }
    }

    /// Records one warp access.
    pub fn record(&mut self, space: Space, is_store: bool, bytes: u64, transactions: u64) {
        let t = self.space_mut(space);
        t.accesses += 1;
        t.transactions += transactions;
        if is_store {
            t.bytes_written += bytes;
        } else {
            t.bytes_read += bytes;
        }
    }

    /// Records `bytes` served to lanes by the texture path.
    pub(crate) fn record_tex(&mut self, bytes: u64) {
        self.tex_bytes += bytes;
    }

    /// Bytes the texture path served to lanes (see [`TrafficStats`]).
    pub fn tex_bytes(&self) -> u64 {
        self.tex_bytes
    }

    /// Records bank-conflict serialization passes.
    pub fn record_conflicts(&mut self, space: Space, extra_passes: u64) {
        self.space_mut(space).bank_conflict_passes += extra_passes;
    }

    /// Total bytes read across all spaces.
    pub fn bytes_read(&self) -> u64 {
        Space::ALL.iter().map(|s| self.space(*s).bytes_read).sum()
    }

    /// Total bytes written across all spaces.
    pub fn bytes_written(&self) -> u64 {
        Space::ALL
            .iter()
            .map(|s| self.space(*s).bytes_written)
            .sum()
    }

    /// Serializes every space's counters for a simulator checkpoint, in
    /// [`Space::ALL`] order, then the texture bytes.
    pub fn encode_state(&self, enc: &mut Encoder) {
        for s in Space::ALL {
            self.space(s).encode_state(enc);
        }
        enc.put_u64(self.tex_bytes);
    }

    /// Restores counters previously written by
    /// [`TrafficStats::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        for s in Space::ALL {
            self.space_mut(s).restore_state(dec)?;
        }
        self.tex_bytes = dec.take_u64()?;
        Ok(())
    }

    /// Merges another statistics object into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for s in Space::ALL {
            self.space_mut(s).merge(other.space(s));
        }
        self.tex_bytes += other.tex_bytes;
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:>14} {:>14} {:>12} {:>10}",
            "space", "read B", "written B", "txns", "conflicts"
        )?;
        for s in Space::ALL {
            let t = self.space(s);
            writeln!(
                f,
                "{:<8} {:>14} {:>14} {:>12} {:>10}",
                s.to_string(),
                t.bytes_read,
                t.bytes_written,
                t.transactions,
                t.bank_conflict_passes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut t = TrafficStats::new();
        t.record(Space::Global, false, 128, 2);
        t.record(Space::Global, true, 64, 1);
        t.record(Space::Spawn, false, 48, 0);
        assert_eq!(t.space(Space::Global).bytes_read, 128);
        assert_eq!(t.space(Space::Global).bytes_written, 64);
        assert_eq!(t.space(Space::Global).transactions, 3);
        assert_eq!(t.space(Space::Global).accesses, 2);
        assert_eq!(t.bytes_read(), 176);
        assert_eq!(t.bytes_written(), 64);
    }

    #[test]
    fn merge_sums_all_spaces() {
        let mut a = TrafficStats::new();
        a.record(Space::Shared, false, 4, 0);
        let mut b = TrafficStats::new();
        b.record(Space::Shared, false, 8, 0);
        b.record_conflicts(Space::Spawn, 3);
        b.record_tex(96);
        a.merge(&b);
        assert_eq!(a.space(Space::Shared).bytes_read, 12);
        assert_eq!(a.space(Space::Spawn).bank_conflict_passes, 3);
        assert_eq!((a.tex_bytes(), a.bytes_read()), (96, 12));
    }

    fn traffic_from(bytes: &[u8]) -> Result<SpaceTraffic, CodecError> {
        let mut t = SpaceTraffic::default();
        t.restore_state(&mut Decoder::new(bytes)).map(|()| t)
    }

    fn traffic_bytes(t: &SpaceTraffic) -> Vec<u8> {
        let mut enc = Encoder::new();
        t.encode_state(&mut enc);
        enc.into_bytes()
    }

    proptest::proptest! {
        /// The declared codec and merge: restore of encode is the identity
        /// (bytes with every high bit clear, so two of them never overflow
        /// a sum), a merge sums field by field, and a truncated payload is
        /// a typed error.
        #[test]
        fn space_traffic_roundtrips_and_merges_field_by_field(
            a in proptest::collection::vec(0u8..0x80, SpaceTraffic::ENCODED_BYTES..SpaceTraffic::ENCODED_BYTES + 1),
            b in proptest::collection::vec(0u8..0x80, SpaceTraffic::ENCODED_BYTES..SpaceTraffic::ENCODED_BYTES + 1),
        ) {
            let (x, y) = (traffic_from(&a).unwrap(), traffic_from(&b).unwrap());
            proptest::prop_assert_eq!(traffic_bytes(&x), a.clone());
            let mut m = x;
            m.merge(&y);
            for ((s, p), q) in m.values().into_iter().zip(x.values()).zip(y.values()) {
                proptest::prop_assert_eq!(s, p + q);
            }
            proptest::prop_assert_eq!(traffic_from(&traffic_bytes(&m)).unwrap(), m);
            proptest::prop_assert!(matches!(
                traffic_from(&a[..a.len() - 1]),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn display_lists_every_space() {
        let s = TrafficStats::new().to_string();
        for name in ["global", "shared", "local", "const", "spawn"] {
            assert!(s.contains(name), "missing {name} in {s}");
        }
    }
}
