//! Per-SM read-only (texture) cache.
//!
//! The paper's benchmark (Radius-CUDA) binds the kd-tree, triangle
//! references and triangle data to CUDA *textures*; on the simulated
//! GT200-class machine those reads flow through per-SM texture caches,
//! which exist independently of the L1/L2 data caches that Table I
//! disables. Without this cache the scene working set saturates the 64
//! B/cycle DRAM system and the machine becomes bandwidth-bound, which
//! contradicts the paper's (memory-insensitive, branch-bound) baseline —
//! see Fig. 10, where PDOM gains nothing from an ideal memory system.
//!
//! The model is a classic set-associative, LRU, read-only cache. The host
//! marks cacheable regions (the "texture bindings"); everything else
//! (rays, results, traversal stacks) bypasses.

use serde::{Deserialize, Serialize};
use simt_isa::codec::{CodecError, Decoder, Encoder};

/// A set-associative read-only cache model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadOnlyCache {
    line_bytes: u32,
    sets: usize,
    ways: usize,
    /// Per set: resident line addresses, most-recently-used first.
    tags: Vec<Vec<u64>>,
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
}

impl ReadOnlyCache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `line_bytes * ways`, or non-power-of-two line size).
    pub fn new(capacity_bytes: u32, line_bytes: u32, ways: usize) -> Self {
        assert!(line_bytes.is_power_of_two() && line_bytes > 0);
        assert!(ways > 0);
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines as usize >= ways && lines.is_multiple_of(ways as u32),
            "capacity must hold a whole number of sets"
        );
        let sets = (lines as usize) / ways;
        ReadOnlyCache {
            line_bytes,
            sets,
            ways,
            tags: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// The tag-array key of the line containing `addr` under space tag
    /// `tag`. Line numbers occupy the low 32 bits (a u32 byte address
    /// over a >1-byte line always fits), so the tag bits can never
    /// collide with another space's line number — and tag 0 keys are
    /// numerically identical to the historical untagged keys, keeping
    /// snapshot payloads stable.
    fn line_key(&self, tag: u8, addr: u32) -> u64 {
        // `line_bytes` is a power of two (checked in `new`).
        u64::from(addr >> self.line_bytes.trailing_zeros()) | (u64::from(tag) << 32)
    }

    /// Looks up the line containing `addr`, filling it on a miss.
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: u32) -> bool {
        self.access_tagged(0, addr)
    }

    /// Like [`ReadOnlyCache::access`], but disambiguates the line with a
    /// small address-space tag. Callers that serve more than one address
    /// space through one tag array (the shared L2) use this so
    /// numerically equal addresses from different spaces cannot alias.
    pub fn access_tagged(&mut self, tag: u8, addr: u32) -> bool {
        let key = self.line_key(tag, addr);
        if self.lookup(key) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.install(key);
        false
    }

    /// Looks up the line containing `addr` *without* filling on a miss.
    /// A hit refreshes LRU and counts like [`ReadOnlyCache::access`]; a
    /// miss counts but installs nothing. Callers that may not be able to
    /// track the fill (a full MSHR table) use this so a tag never claims
    /// residency for data that has not arrived.
    pub fn probe(&mut self, addr: u32) -> bool {
        let key = self.line_key(0, addr);
        if self.lookup(key) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        false
    }

    /// Installs the line containing `addr` as MRU without touching the
    /// hit/miss counters — the second half of a
    /// [`ReadOnlyCache::probe`]-then-fill pair ([`ReadOnlyCache::access`]
    /// ≡ `probe` + `fill` on a miss).
    pub fn fill(&mut self, addr: u32) {
        let key = self.line_key(0, addr);
        self.install(key);
    }

    /// MRU-refreshing lookup of `key`; `true` on a hit.
    fn lookup(&mut self, key: u64) -> bool {
        let set = (key as u32 as usize) % self.sets;
        let entries = &mut self.tags[set];
        match entries.iter().position(|&t| t == key) {
            // Already most recently used: nothing to reorder.
            Some(0) => true,
            Some(pos) => {
                let t = entries.remove(pos);
                entries.insert(0, t);
                true
            }
            None => false,
        }
    }

    /// Installs `key` as MRU, evicting the set's LRU line if full.
    fn install(&mut self, key: u64) {
        let set = (key as u32 as usize) % self.sets;
        let entries = &mut self.tags[set];
        entries.insert(0, key);
        if entries.len() > self.ways {
            entries.pop();
        }
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Serializes the cache contents (per-set tag stacks, MRU order
    /// preserved) and hit/miss counters for a simulator checkpoint.
    /// Geometry is configuration and is re-derived on restore.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_usize(self.tags.len());
        for set in &self.tags {
            enc.put_u64_slice(set);
        }
        enc.put_u64(self.hits);
        enc.put_u64(self.misses);
    }

    /// Restores state previously written by
    /// [`ReadOnlyCache::encode_state`] into a cache of identical geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input or when the set count
    /// disagrees with this cache's geometry.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let sets = dec.take_len(8)?;
        if sets != self.tags.len() {
            return Err(CodecError::BadLength {
                len: sets as u64,
                remaining: self.tags.len(),
            });
        }
        for set in &mut self.tags {
            *set = dec.take_u64_vec()?;
        }
        self.hits = dec.take_u64()?;
        self.misses = dec.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = ReadOnlyCache::new(1024, 64, 4);
        assert!(!c.access(100));
        assert!(c.access(100));
        assert!(c.access(96), "same 64 B line");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        // 4 lines total, fully associative (1 set × 4 ways).
        let mut c = ReadOnlyCache::new(256, 64, 4);
        for i in 0..4u32 {
            assert!(!c.access(i * 64));
        }
        // Touch line 0 to make it MRU, then insert a 5th line.
        assert!(c.access(0));
        assert!(!c.access(4 * 64));
        // Line 1 (LRU) was evicted; line 0 survives.
        assert!(c.access(0));
        assert!(!c.access(64));
    }

    #[test]
    fn sets_partition_addresses() {
        // 2 sets × 1 way of 64 B: lines alternate sets.
        let mut c = ReadOnlyCache::new(128, 64, 1);
        assert!(!c.access(0)); // set 0
        assert!(!c.access(64)); // set 1
        assert!(c.access(0), "set 1 fill must not evict set 0");
    }

    #[test]
    fn space_tags_do_not_alias() {
        let mut c = ReadOnlyCache::new(1024, 64, 4);
        assert!(!c.access_tagged(0, 128));
        // Same numeric address under another space tag: distinct line.
        assert!(!c.access_tagged(1, 128));
        assert!(c.access_tagged(0, 128));
        assert!(c.access_tagged(1, 128));
        // Tag 0 is the plain untagged key.
        assert!(c.access(128));
        assert_eq!((c.hits, c.misses), (3, 2));
    }

    #[test]
    fn probe_counts_but_never_installs() {
        let mut c = ReadOnlyCache::new(1024, 64, 4);
        assert!(!c.probe(0));
        assert!(!c.probe(0), "a probe miss must not install the tag");
        assert_eq!((c.hits, c.misses), (0, 2));
        c.fill(0);
        assert!(c.probe(0));
        assert_eq!((c.hits, c.misses), (1, 2), "fill leaves counters alone");
        // probe + fill on a miss is exactly one `access`.
        let mut via_access = ReadOnlyCache::new(1024, 64, 4);
        assert!(!via_access.access(0));
        assert!(via_access.access(0));
        assert_eq!(via_access.hits, 1);
        assert_eq!(via_access.misses, 1);
    }

    #[test]
    fn hit_rate_tracks() {
        let mut c = ReadOnlyCache::new(1024, 64, 4);
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }
}
