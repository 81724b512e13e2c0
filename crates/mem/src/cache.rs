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

/// A tag-array slot holding no line. No key equals it: keys are a 32-bit
/// line number under an 8-bit space tag.
const EMPTY: u64 = u64::MAX;

/// A set-associative read-only cache model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadOnlyCache {
    line_bytes: u32,
    sets: usize,
    ways: usize,
    /// The tag array, `sets × ways`: set `s` is `tags[s * ways..][..ways]`,
    /// its resident line keys most-recently-used first and then
    /// [`EMPTY`] slots — the valid entries are always a prefix.
    tags: Vec<u64>,
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
            tags: vec![EMPTY; sets * ways],
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

    /// The ways of the set `key` maps to, MRU first.
    #[inline]
    fn set_of(&mut self, key: u64) -> &mut [u64] {
        // (A mask for power-of-two set counts — every preset's — measured
        // no faster than the division on the ledger.)
        let set = key as u32 as usize % self.sets;
        &mut self.tags[set * self.ways..][..self.ways]
    }

    /// MRU-refreshing lookup of `key`; `true` on a hit.
    fn lookup(&mut self, key: u64) -> bool {
        let set = self.set_of(key);
        match set.iter().position(|&t| t == key) {
            Some(pos) => {
                // Move to the front (already there, more often than not).
                for way in (0..pos).rev() {
                    set[way + 1] = set[way];
                }
                set[0] = key;
                true
            }
            None => false,
        }
    }

    /// Installs `key` as MRU, evicting the set's LRU line if full.
    fn install(&mut self, key: u64) {
        let set = self.set_of(key);
        // Everything moves one way down; what falls off the end is the
        // LRU line of a full set, else an `EMPTY` slot.
        for way in (1..set.len()).rev() {
            set[way] = set[way - 1];
        }
        set[0] = key;
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

    /// Serializes the cache contents (per set, the resident keys as a
    /// length-prefixed list, MRU order preserved) and hit/miss counters
    /// for a simulator checkpoint. Geometry is configuration and is
    /// re-derived on restore.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_usize(self.sets);
        for set in self.tags.chunks_exact(self.ways) {
            let resident = set.iter().position(|&t| t == EMPTY).unwrap_or(self.ways);
            enc.put_u64_slice(&set[..resident]);
        }
        enc.put_u64(self.hits);
        enc.put_u64(self.misses);
    }

    /// Restores state previously written by
    /// [`ReadOnlyCache::encode_state`] into a cache of identical geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, when the set count
    /// disagrees with this cache's geometry, when a set lists more lines
    /// than it has ways ([`CodecError::BadLength`]), or when it lists one
    /// twice, a key no access produces or a line that maps to another set
    /// and so could never hit ([`CodecError::BadTag`]) — a machine that
    /// would model a cache this configuration does not have.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let sets = dec.take_len(8)?;
        if sets != self.sets {
            return Err(CodecError::BadLength {
                len: sets as u64,
                remaining: self.sets,
            });
        }
        for (index, set) in self.tags.chunks_exact_mut(self.ways).enumerate() {
            let resident = dec.take_len(8)?;
            if resident > set.len() {
                return Err(CodecError::BadLength {
                    len: resident as u64,
                    remaining: set.len(),
                });
            }
            set.fill(EMPTY);
            for way in 0..resident {
                let key = dec.take_u64()?;
                let home = key as u32 as usize % sets;
                if key >> 40 != 0 || home != index || set[..way].contains(&key) {
                    return Err(CodecError::BadTag {
                        what: "cache set line key",
                        tag: key,
                    });
                }
                set[way] = key;
            }
        }
        self.hits = dec.take_u64()?;
        self.misses = dec.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tag array as it was before it was flat — one `Vec` of keys per
    /// set, MRU first, a `%` per probe — kept as the literal model the
    /// flat array must match step for step and byte for byte.
    struct Model {
        line_bytes: u32,
        ways: usize,
        sets: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl Model {
        fn new(capacity_bytes: u32, line_bytes: u32, ways: usize) -> Self {
            let sets = (capacity_bytes / line_bytes) as usize / ways;
            Model {
                line_bytes,
                ways,
                sets: vec![Vec::new(); sets],
                hits: 0,
                misses: 0,
            }
        }

        fn key(&self, tag: u8, addr: u32) -> u64 {
            u64::from(addr / self.line_bytes) | (u64::from(tag) << 32)
        }

        fn lookup(&mut self, key: u64) -> bool {
            let n = self.sets.len();
            let set = &mut self.sets[key as u32 as usize % n];
            let found = set.iter().position(|&t| t == key);
            if let Some(pos) = found {
                let t = set.remove(pos);
                set.insert(0, t);
            }
            self.hits += u64::from(found.is_some());
            self.misses += u64::from(found.is_none());
            found.is_some()
        }

        fn install(&mut self, key: u64) {
            let n = self.sets.len();
            let set = &mut self.sets[key as u32 as usize % n];
            set.insert(0, key);
            set.truncate(self.ways);
        }

        fn encode(&self) -> Vec<u8> {
            encode_sets(&self.sets, self.hits, self.misses)
        }
    }

    /// The checkpoint bytes of a cache whose sets hold `sets`.
    pub(crate) fn encode_sets(sets: &[Vec<u64>], hits: u64, misses: u64) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_usize(sets.len());
        for set in sets {
            enc.put_u64_slice(set);
        }
        enc.put_u64(hits);
        enc.put_u64(misses);
        enc.into_bytes()
    }

    /// `payload` — a component's checkpoint bytes holding a cache of
    /// `sets` sets that nothing has touched yet (the first such, if it has
    /// several) — with that cache's set `set` listing `keys` instead: what
    /// a resealed, hand-edited snapshot hands a `restore_state`.
    pub(crate) fn with_set(payload: &[u8], sets: usize, set: usize, keys: &[u64]) -> Vec<u8> {
        let mut lists = vec![Vec::new(); sets];
        let fresh = encode_sets(&lists, 0, 0);
        let at = payload
            .windows(fresh.len())
            .position(|w| w == fresh)
            .expect("an untouched cache of that geometry");
        lists[set] = keys.to_vec();
        let edited = encode_sets(&lists, 0, 0);
        [&payload[..at], &edited, &payload[at + fresh.len()..]].concat()
    }

    /// The three edits every holder of a cache is tested with: set 1 of a
    /// `sets × ways` cache holding fewer lines than ways (legal), one more
    /// than ways, and one line twice.
    pub(crate) fn edited_sets(sets: usize, ways: usize) -> [(Vec<u64>, bool); 3] {
        let lines = |n: usize| (0..n).map(|i| (1 + i * sets) as u64).collect::<Vec<_>>();
        let mut twice = lines(ways);
        twice[ways - 1] = twice[0];
        [
            (lines(ways - 1), true),
            (lines(ways + 1), false),
            (twice, false),
        ]
    }

    fn encoded(c: &ReadOnlyCache) -> Vec<u8> {
        let mut enc = Encoder::new();
        c.encode_state(&mut enc);
        enc.into_bytes()
    }

    proptest! {
        /// Seeded `access` / `access_tagged` / `probe` (+ `fill` on a
        /// miss, the only way the simulator fills) sequences over few
        /// enough lines that sets fill, evict and reorder: every verdict,
        /// both counters and the checkpoint bytes after every step equal
        /// the `Vec<Vec<u64>>` model's, for a power-of-two set count and
        /// another — and the bytes of a cache
        /// with partially filled sets restore to a cache that encodes the
        /// same bytes and answers the same from there on.
        #[test]
        fn the_flat_tag_array_matches_the_vec_of_vecs_model(
            pow2 in any::<bool>(),
            ops in proptest::collection::vec((0u8..4, 0u32..48, 0u8..3), 1..120),
        ) {
            // 8 sets x 2 ways, or 6 sets x 2 ways, of 64 B lines.
            let capacity = if pow2 { 1024 } else { 768 };
            let mut flat = ReadOnlyCache::new(capacity, 64, 2);
            let mut model = Model::new(capacity, 64, 2);
            let mut restored = ReadOnlyCache::new(capacity, 64, 2);
            let restore_at = ops.len() / 2;
            for (step, &(op, line, tag)) in ops.iter().enumerate() {
                if step == restore_at {
                    restored
                        .restore_state(&mut Decoder::new(&encoded(&flat)))
                        .expect("its own bytes restore");
                }
                let addr = line * 64 + 4 * u32::from(tag);
                let apply = |c: &mut ReadOnlyCache| match op {
                    0 => c.access(addr),
                    1 => c.access_tagged(tag, addr),
                    _ => {
                        let hit = c.probe(addr);
                        if !hit && op == 3 {
                            c.fill(addr);
                        }
                        hit
                    }
                };
                let got = apply(&mut flat);
                let key = model.key(if op == 1 { tag } else { 0 }, addr);
                let want = model.lookup(key);
                if !want && op != 2 {
                    model.install(key);
                }
                prop_assert_eq!(got, want, "step {}", step);
                prop_assert_eq!((flat.hits, flat.misses), (model.hits, model.misses));
                prop_assert_eq!(encoded(&flat), model.encode(), "step {}", step);
                if step >= restore_at {
                    prop_assert_eq!(apply(&mut restored), want, "restored, step {}", step);
                    prop_assert_eq!(encoded(&restored), model.encode());
                }
            }
        }
    }

    /// A resealed, mutated snapshot must not restore a cache the
    /// configuration does not describe: a set with more lines than ways
    /// (which would model a bigger cache from then on), a line listed
    /// twice or in a set it does not map to (a smaller one: the way it
    /// holds can never hit), or a key no access can produce.
    #[test]
    fn restore_rejects_sets_no_access_sequence_produces() {
        // 2 sets x 2 ways.
        let mut c = ReadOnlyCache::new(256, 64, 2);
        let restore = |c: &mut ReadOnlyCache, sets: &[Vec<u64>]| {
            c.restore_state(&mut Decoder::new(&encode_sets(sets, 0, 0)))
        };
        assert!(restore(&mut c, &[vec![2, 0], vec![1]]).is_ok());
        assert!(c.access(128) && c.access(0) && c.access(64) && !c.access(192));
        assert!(matches!(
            restore(&mut c, &[vec![0, 2, 4], vec![]]),
            Err(CodecError::BadLength {
                len: 3,
                remaining: 2
            })
        ));
        assert!(matches!(
            restore(&mut c, &[vec![], vec![3, 3]]),
            Err(CodecError::BadTag { tag: 3, .. })
        ));
        assert!(matches!(
            restore(&mut c, &[vec![0, 1], vec![]]),
            Err(CodecError::BadTag { tag: 1, .. })
        ));
        assert!(matches!(
            restore(&mut c, &[vec![], vec![(1 << 32) | 2]]),
            Err(CodecError::BadTag { .. })
        ));
        assert!(restore(&mut c, &[vec![], vec![(1 << 32) | 3]]).is_ok());
        assert!(matches!(
            restore(&mut c, &[vec![EMPTY], vec![]]),
            Err(CodecError::BadTag { tag: EMPTY, .. })
        ));
        assert!(matches!(
            restore(&mut c, &[vec![0], vec![1], vec![]]),
            Err(CodecError::BadLength {
                len: 3,
                remaining: 2
            })
        ));
    }

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
