//! Per-SM miss-status holding registers.
//!
//! An [`MshrTable`] tracks the L1 lines with an in-flight fill. A second
//! miss to a tracked line *merges*: it issues no new fabric request and
//! instead waits for the outstanding fill. The table bounds the number of
//! simultaneously outstanding fills; when it is full, further misses
//! bypass merging (counted as `stalls`) but still issue their request, so
//! no access is ever lost — the bound only costs merge opportunities and
//! models the back-pressure real MSHR files exert.
//!
//! Fill times are resolved at the end of the cycle: an entry is allocated
//! at issue with [`FILL_UNRESOLVED`], then stamped with the servicing
//! request's ready time once the cycle's batch has been serviced. Entries
//! whose fill has completed are purged lazily at the next probe. Merges
//! always reference an entry allocated by an *earlier* access, and an SM
//! issues at most one access a cycle, so that access was in an earlier
//! cycle and every merge reads a concrete fill time at issue.

use simt_isa::codec::{Codec, CodecError, Decoder, Encoder};

/// Fill time of an entry allocated this cycle, before its owning request
/// has been serviced.
pub const FILL_UNRESOLVED: u64 = u64::MAX;

simt_isa::record! {
    /// One outstanding L1 fill.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct MshrEntry {
        /// Base address of the missing L1 line.
        line: u32,
        /// Cycle the fill completes, or [`FILL_UNRESOLVED`].
        fill_ready: u64,
    }
}

/// A bounded table of outstanding L1 misses (one entry per line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrTable {
    capacity: usize,
    entries: Vec<MshrEntry>,
    /// Same-line misses merged into an outstanding entry.
    pub merges: u64,
    /// Misses that could not allocate (table full) and bypassed merging.
    pub stalls: u64,
}

impl MshrTable {
    /// Creates an empty table with room for `capacity` outstanding fills.
    pub fn new(capacity: usize) -> Self {
        MshrTable {
            capacity: capacity.max(1),
            entries: Vec::new(),
            merges: 0,
            stalls: 0,
        }
    }

    /// Outstanding fills currently tracked.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Drops entries whose fill completed at or before `now`. Unresolved
    /// entries (allocated this cycle) always survive.
    pub fn purge(&mut self, now: u64) {
        self.entries.retain(|e| e.fill_ready > now);
    }

    /// The outstanding entry for `line`, if any: `Some(fill_ready)`.
    pub fn lookup(&self, line: u32) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.fill_ready)
    }

    /// Whether a new miss can allocate an entry.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an unresolved entry for `line`. Callers must have checked
    /// [`MshrTable::lookup`] (no duplicate entries) and
    /// [`MshrTable::has_room`].
    pub fn alloc(&mut self, line: u32) {
        debug_assert!(self.lookup(line).is_none(), "duplicate MSHR entry");
        debug_assert!(self.has_room(), "MSHR overflow");
        self.entries.push(MshrEntry {
            line,
            fill_ready: FILL_UNRESOLVED,
        });
    }

    /// Counts a merge into an outstanding entry.
    pub fn note_merge(&mut self) {
        self.merges += 1;
    }

    /// Counts a full-table bypass.
    pub fn note_stall(&mut self) {
        self.stalls += 1;
    }

    /// Stamps the unresolved entries for `lines` with their fill
    /// completion cycle (once the carrying request is serviced).
    /// Entries that already have a concrete time keep it: a line is filled
    /// by exactly one request.
    pub fn set_fill(&mut self, lines: &[u32], ready: u64) {
        for e in &mut self.entries {
            if e.fill_ready == FILL_UNRESOLVED && lines.contains(&e.line) {
                e.fill_ready = ready;
            }
        }
    }

    /// The latest fill-completion cycle among `lines` — the wake-up floor
    /// of an access that merged into them. Lines with no entry (already
    /// purged: the fill completed in an earlier cycle) contribute nothing.
    ///
    /// Callers resolve fills before reading floors, so an unresolved time
    /// can never leak into a wake-up; the debug assertion pins that.
    pub fn wait_floor(&self, lines: &[u32]) -> u64 {
        let mut floor = 0;
        for &l in lines {
            if let Some(t) = self.lookup(l) {
                debug_assert_ne!(t, FILL_UNRESOLVED, "merge read before fill resolved");
                if t != FILL_UNRESOLVED {
                    floor = floor.max(t);
                }
            }
        }
        floor
    }

    /// Whether every entry carries a concrete fill time — the state every
    /// cycle must leave the table in.
    pub fn all_resolved(&self) -> bool {
        self.entries.iter().all(|e| e.fill_ready != FILL_UNRESOLVED)
    }

    /// Serializes the outstanding entries and counters for a simulator
    /// checkpoint. Capacity is configuration and is re-derived on restore.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.entries.encode(enc);
        enc.put_u64(self.merges);
        enc.put_u64(self.stalls);
    }

    /// Restores state previously written by [`MshrTable::encode_state`]
    /// into a table of the same capacity.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input or when the entry count
    /// exceeds this table's capacity (a snapshot from a different
    /// configuration).
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let entries = Vec::<MshrEntry>::decode(dec)?;
        if entries.len() > self.capacity {
            return Err(CodecError::BadLength {
                len: entries.len() as u64,
                remaining: self.capacity,
            });
        }
        self.entries = entries;
        self.merges = dec.take_u64()?;
        self.stalls = dec.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entry record keeps the codec laws: any twelve bytes are an
    /// entry that re-encodes to them, and no shorter input is one.
    #[test]
    fn mshr_entries_round_trip_and_refuse_their_prefixes() {
        for byte in [0, 1, 0x80, 0xFF] {
            let bytes = [byte; 12];
            let used = simt_isa::codec::check_codec_laws::<MshrEntry>(&bytes);
            assert_eq!(used, Some(12));
        }
    }

    #[test]
    fn alloc_lookup_purge_cycle() {
        let mut m = MshrTable::new(2);
        m.alloc(64);
        assert_eq!(m.lookup(64), Some(FILL_UNRESOLVED));
        m.set_fill(&[64], 100);
        assert_eq!(m.lookup(64), Some(100));
        m.purge(99);
        assert_eq!(m.in_flight(), 1, "fill at 100 still outstanding at 99");
        m.purge(100);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn capacity_bounds_allocation() {
        let mut m = MshrTable::new(1);
        m.alloc(0);
        assert!(!m.has_room());
        m.note_stall();
        assert_eq!(m.stalls, 1);
    }

    #[test]
    fn wait_floor_takes_latest_fill() {
        let mut m = MshrTable::new(4);
        m.alloc(0);
        m.alloc(64);
        m.set_fill(&[0], 50);
        m.set_fill(&[64], 80);
        assert_eq!(m.wait_floor(&[0, 64]), 80);
        // A purged (long-completed) line no longer gates anything.
        m.purge(60);
        assert_eq!(m.wait_floor(&[0, 64]), 80);
    }

    #[test]
    fn set_fill_never_restamps() {
        let mut m = MshrTable::new(2);
        m.alloc(0);
        m.set_fill(&[0], 10);
        m.set_fill(&[0], 99);
        assert_eq!(m.lookup(0), Some(10));
    }

    #[test]
    fn codec_round_trip() {
        let mut m = MshrTable::new(4);
        m.alloc(128);
        m.set_fill(&[128], 7);
        m.alloc(256);
        m.note_merge();
        m.note_stall();
        let mut enc = Encoder::new();
        m.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = MshrTable::new(4);
        restored
            .restore_state(&mut Decoder::new(&bytes))
            .expect("round trip");
        assert_eq!(restored, m);

        // A snapshot holding more entries than the table fits is rejected.
        let mut tiny = MshrTable::new(1);
        assert!(tiny.restore_state(&mut Decoder::new(&bytes)).is_err());
    }
}
