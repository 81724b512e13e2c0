//! On-chip banked memories (shared memory and spawn memory).
//!
//! An on-chip scratchpad is divided into word-interleaved banks; a warp
//! access completes in one pass unless multiple lanes touch *different
//! words in the same bank*, in which case the conflicting passes serialize
//! (paper §VII: "serialization of all conflicting bank memory operations to
//! the spawn memory space").

use crate::backing::Pages;
use serde::{Deserialize, Serialize};
use simt_isa::codec::{CodecError, Decoder, Encoder, SparseSink};

/// Computes the bank-conflict degree of a warp access: the maximum number
/// of distinct words mapped to any single bank (≥ 1 for a non-empty
/// access). Broadcasts (lanes reading the *same* word) do not conflict.
///
/// `addresses` are byte addresses; words are 4 bytes, banks interleave by
/// word.
///
/// # Panics
///
/// Panics if `banks` is zero.
pub fn conflict_degree(addresses: &[u32], banks: usize) -> u32 {
    conflict_degree_span(addresses, 1, banks)
}

/// [`conflict_degree`] over the word *span* each lane touches:
/// lane `i` accesses words `addresses[i]/4 .. addresses[i]/4 + words_per_lane`.
/// Equivalent to expanding every span into a flat word list first, without
/// materializing it.
///
/// # Panics
///
/// Panics if `banks` is zero.
pub fn conflict_degree_span(addresses: &[u32], words_per_lane: u32, banks: usize) -> u32 {
    assert!(banks > 0, "bank count must be positive");
    let n = addresses.len() * words_per_lane as usize;
    if n == 0 {
        return 0;
    }
    // The hot path (any real machine: ≤ 64 lanes × a few words, ≤ 64
    // banks) runs allocation-free: gather the word ids into a stack
    // buffer, sort to dedup broadcasts, and count distinct words per bank
    // in a stack histogram. Degree = max distinct words on one bank.
    if n <= 256 && banks <= 64 {
        let mut words = [0u32; 256];
        let mut i = 0;
        for &a in addresses {
            // (a + 4*wd) / 4 == a/4 + wd for any byte address `a`.
            let w0 = a / 4;
            for wd in 0..words_per_lane {
                words[i] = w0 + wd;
                i += 1;
            }
        }
        let words = &mut words[..n];
        words.sort_unstable();
        let mut counts = [0u32; 64];
        let mut max = 1u32;
        let mut prev = None;
        for &w in words.iter() {
            if Some(w) == prev {
                continue;
            }
            prev = Some(w);
            let bank = (w as usize) % banks;
            counts[bank] += 1;
            max = max.max(counts[bank]);
        }
        return max;
    }
    // Oversized configurations fall back to the straightforward
    // distinct-words-per-bank accounting.
    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks];
    for &a in addresses {
        for wd in 0..words_per_lane {
            let word = a / 4 + wd;
            let bank = (word as usize) % banks;
            if !per_bank[bank].contains(&word) {
                per_bank[bank].push(word);
            }
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// An on-chip word-addressed scratchpad.
///
/// One instance backs each SM's shared memory; the spawn-memory space
/// (managed by `dmk-core`) wraps another instance. Its words sit in the
/// off-chip images' page array: a scratchpad costs the pages written.
/// Its bank conflicts are the memory frontend's to count
/// ([`conflict_degree_span`] over `MemConfig::shared_banks`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnChipMemory {
    words: Pages,
}

impl OnChipMemory {
    /// Creates a scratchpad of `bytes` capacity.
    pub fn new(bytes: u32) -> Self {
        let mut words = Pages::default();
        words.reset((bytes as usize).div_ceil(4));
        OnChipMemory { words }
    }

    /// Pages made so far: those holding a written word.
    pub fn resident_pages(&self) -> usize {
        self.words.resident()
    }

    /// The word byte address `addr` names, modulo the capacity, like real
    /// scratchpads whose address decoders ignore high bits. Every access
    /// of a well-behaved kernel is inside and needs no reduction (spawn
    /// memory is not a power of two). Panics on unaligned access.
    #[inline]
    fn index(&self, addr: u32) -> usize {
        assert!(
            addr.is_multiple_of(4),
            "unaligned on-chip access at {addr:#x}"
        );
        let (i, n) = (addr as usize / 4, self.words.len());
        if i < n {
            i
        } else {
            i % n
        }
    }

    /// Reads the word at byte address `addr`, modulo the capacity. Panics
    /// on unaligned access.
    #[inline]
    pub fn read(&self, addr: u32) -> u32 {
        self.words.get(self.index(addr))
    }

    /// Writes the word at byte address `addr`, modulo the capacity.
    /// Panics on unaligned access.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32) {
        let i = self.index(addr);
        self.words.set(i, value);
    }

    /// Reads `N` consecutive words starting at byte address `addr`: word
    /// `i` is [`OnChipMemory::read`] of `addr.wrapping_add(4 * i)`, so a
    /// transfer wraps at the capacity and at the top of the address space
    /// exactly as its words would one by one. `N` is the instruction's
    /// width, so a transfer inside the scratchpad and one page is one page
    /// lookup and `N` register moves. Panics on unaligned access.
    #[inline]
    pub fn read_n<const N: usize>(&self, addr: u32) -> [u32; N] {
        let at = addr as usize / 4;
        match self.words.get_n::<N>(at) {
            Some(words) if at + N <= self.words.len() && addr.is_multiple_of(4) => *words,
            // A transfer that wraps or crosses a page, or an unaligned one
            // on its way to the panic: word by word.
            _ => std::array::from_fn(|i| self.read(addr.wrapping_add(4 * i as u32))),
        }
    }

    /// Writes `values` to consecutive words starting at byte address
    /// `addr`, in order: word `i` is [`OnChipMemory::write`] at
    /// `addr.wrapping_add(4 * i)` (when a transfer laps a tiny scratchpad
    /// the last writer of a word wins, as it does word by word). Panics on
    /// unaligned access.
    #[inline]
    pub fn write_n<const N: usize>(&mut self, addr: u32, values: [u32; N]) {
        match self.words.get_n_mut::<N>(addr as usize / 4) {
            // (Word by word: the run arrives in registers, and copying it
            // as a block would round-trip it through the stack first.)
            Some(words) if addr.is_multiple_of(4) => {
                for (word, value) in words.iter_mut().zip(values) {
                    *word = value;
                }
            }
            _ => {
                for (i, value) in values.into_iter().enumerate() {
                    self.write(addr.wrapping_add(4 * i as u32), value);
                }
            }
        }
    }

    /// Serializes the scratchpad contents, zero runs elided, for a
    /// simulator checkpoint.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.words.encode(enc);
    }

    /// Restores contents previously written by
    /// [`OnChipMemory::encode_state`] into a scratchpad of identical
    /// geometry, making only the pages literal words land in.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input or a
    /// [`CodecError::BadLength`] when the word count disagrees with this
    /// scratchpad's capacity (a larger one is refused before anything is
    /// made).
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let words = Pages::decode(dec, self.words.len())?;
        if words.len() != self.words.len() {
            let (len, remaining) = (words.len() as u64, self.words.len());
            return Err(CodecError::BadLength { len, remaining });
        }
        self.words = words;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::PAGE_WORDS;
    use proptest::prelude::*;

    #[test]
    fn conflict_free_stride_one() {
        // 16 lanes, consecutive words, 16 banks: one word per bank.
        let addrs: Vec<u32> = (0..16).map(|i| i * 4).collect();
        assert_eq!(conflict_degree(&addrs, 16), 1);
    }

    #[test]
    fn worst_case_same_bank() {
        // Stride of 16 words on 16 banks: all lanes hit bank 0.
        let addrs: Vec<u32> = (0..8).map(|i| i * 16 * 4).collect();
        assert_eq!(conflict_degree(&addrs, 16), 8);
    }

    #[test]
    fn broadcast_does_not_conflict() {
        let addrs = vec![128; 32];
        assert_eq!(conflict_degree(&addrs, 16), 1);
    }

    #[test]
    fn stride_two_halves_throughput() {
        let addrs: Vec<u32> = (0..16).map(|i| i * 8).collect(); // stride 2 words
        assert_eq!(conflict_degree(&addrs, 16), 2);
    }

    #[test]
    fn empty_access_has_zero_degree() {
        assert_eq!(conflict_degree(&[], 16), 0);
    }

    #[test]
    fn onchip_read_write() {
        let mut m = OnChipMemory::new(64 * 1024);
        assert_eq!(m.words.len(), 16 * 1024);
        m.write(100 * 4, 7);
        assert_eq!(m.read(100 * 4), 7);
    }

    /// Every word of `m`, read one by one.
    fn words(m: &OnChipMemory) -> Vec<u32> {
        (0..m.words.len() as u32).map(|i| m.read(4 * i)).collect()
    }

    #[test]
    fn transfers_wrap_at_capacity_and_at_the_top_of_the_address_space() {
        // 12 words: not a power of two, like spawn memory.
        let mut m = OnChipMemory::new(48);
        m.write_n(40, [1, 2, 3, 4]);
        assert_eq!(words(&m), [3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2]);
        // 0xfffffff8 is word 0x3ffffffe = 10 mod 13, the next 11 mod 13;
        // the transfer's third word is address 0 — word 0, where an index
        // that kept counting (0x40000000 = 12 mod 13) would not land.
        let mut m = OnChipMemory::new(52);
        m.write_n(0xffff_fff8, [5, 6, 7, 8]);
        assert_eq!(words(&m), [7, 8, 0, 0, 0, 0, 0, 0, 0, 0, 5, 6, 0]);
        assert_eq!(m.read_n::<4>(0xffff_fff8), [5, 6, 7, 8]);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn an_unaligned_transfer_panics_like_an_unaligned_word() {
        OnChipMemory::new(64).read_n::<4>(2);
    }

    /// `read_n`/`write_n` at width `N` against `read`/`write` word by
    /// word on a scratchpad of `n` words holding 1, 2, 3, ….
    fn check_width<const N: usize>(n: u32, addr: u32, values: [u32; N]) {
        let mut wide = OnChipMemory::new(n * 4);
        for i in 0..n {
            wide.write(i * 4, i + 1);
        }
        let mut worded = wide.clone();
        let at = |i: usize| addr.wrapping_add(4 * i as u32);
        assert_eq!(
            wide.read_n::<N>(addr),
            std::array::from_fn(|i| worded.read(at(i)))
        );
        wide.write_n(addr, values);
        for (i, &v) in values.iter().enumerate() {
            worded.write(at(i), v);
        }
        assert_eq!(words(&wide), words(&worded));
        assert_eq!(
            wide.read_n::<N>(addr),
            std::array::from_fn(|i| worded.read(at(i)))
        );
    }

    /// A scratchpad that is never touched, or only read, holds no page;
    /// a write makes the one page it lands in.
    #[test]
    fn a_scratchpad_costs_the_pages_written() {
        let mut m = OnChipMemory::new(64 * 1024);
        for addr in (0..64 * 1024).step_by(1024) {
            assert_eq!(m.read(addr) + m.read_n::<4>(addr)[3], 0);
        }
        assert_eq!(m.resident_pages(), 0);
        m.write_n(PAGE_BYTES + 8, [1, 2, 3, 4]);
        m.write(PAGE_BYTES + 64, 5);
        assert_eq!(m.resident_pages(), 1);
    }

    /// Restore takes only the capacity's own length, and refuses a longer
    /// one before anything is made.
    #[test]
    fn a_restore_of_another_capacity_is_refused() {
        let encoded = |bytes: u32| {
            let mut m = OnChipMemory::new(bytes);
            m.write(4, 9);
            let mut e = Encoder::new();
            m.encode_state(&mut e);
            e.into_bytes()
        };
        let mut small = OnChipMemory::new(48);
        let longer = small.restore_state(&mut Decoder::new(&encoded(64 * 1024)));
        assert!(matches!(
            longer,
            Err(CodecError::BadLength { len: 16384, .. })
        ));
        let mut big = OnChipMemory::new(64 * 1024);
        let shorter = big.restore_state(&mut Decoder::new(&encoded(48)));
        assert!(matches!(
            shorter,
            Err(CodecError::BadLength { len: 12, .. })
        ));
        assert_eq!(small.resident_pages() + big.resident_pages(), 0);
    }

    /// A declared capacity that is one zero run but for its last word
    /// restores to the one page that word lands in.
    #[test]
    fn a_long_zero_run_restores_to_one_page() {
        let mut e = Encoder::new();
        e.put_u64(58_112 / 4);
        e.put_u32(58_112 / 4 - 1);
        e.put_u32(1);
        e.put_u32(7);
        let bytes = e.into_bytes();
        let mut m = OnChipMemory::new(58_112);
        m.restore_state(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!((m.resident_pages(), m.read(58_108)), (1, 7));
        let mut again = Encoder::new();
        m.encode_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    /// Bytes in a page of the backing store.
    const PAGE_BYTES: u32 = 4 * PAGE_WORDS as u32;

    /// Where an address for [`OnChipOp`] lands on a scratchpad of
    /// `bytes`: anywhere in it, a few words either side of a page boundary,
    /// of its end or of the top of the address space, or anywhere at all.
    #[derive(Debug, Clone)]
    struct Near {
        kind: u8,
        k: u32,
        page: u32,
        raw: u32,
    }

    impl Near {
        fn addr(&self, bytes: u32) -> u32 {
            match self.kind {
                0 => self.raw % (bytes / 4) * 4,
                1 => self.page * PAGE_BYTES - 16 + 4 * self.k,
                2 => bytes - 16 + 4 * self.k,
                3 => 0u32.wrapping_sub(16).wrapping_add(4 * self.k),
                _ => self.raw & !3,
            }
        }
    }

    /// An access: `read`, `read_n::<1>`, `read_n::<4>`, `write`,
    /// `write_n::<1>` or `write_n::<4>` by `kind`, and the values stored.
    #[derive(Debug, Clone)]
    struct OnChipOp {
        kind: u8,
        at: Near,
        values: (u32, u32, u32, u32),
    }

    fn onchip_op() -> impl Strategy<Value = OnChipOp> {
        let value = || prop_oneof![Just(0u32), any::<u32>()];
        let near = (0u8..5, 0u32..8, 1u32..5, any::<u32>()).prop_map(|(kind, k, page, raw)| Near {
            kind,
            k,
            page,
            raw,
        });
        (0u8..6, near, (value(), value(), value(), value()))
            .prop_map(|(kind, at, values)| OnChipOp { kind, at, values })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The paged scratchpad against the flat one it replaced, at the
        /// geometry's three sizes (smaller than a page, spawn memory's 14 528
        /// words, shared memory's four pages): every read agrees, the pages
        /// made are those written, the snapshot bytes are the flat image's,
        /// and a restore makes no page the original lacks.
        #[test]
        fn paged_scratchpads_equal_dense_ones(
            size in 0usize..3,
            ops in proptest::collection::vec(onchip_op(), 1..48),
        ) {
            let bytes = [48, 58_112, 65_536][size];
            let mut m = OnChipMemory::new(bytes);
            let mut dense = vec![0u32; bytes as usize / 4];
            let mut written = std::collections::BTreeSet::new();
            let n = dense.len();
            let at = |addr: u32, k: usize| (addr.wrapping_add(4 * k as u32) / 4) as usize % n;
            let read = |dense: &[u32], addr: u32, n: usize| (0..n).map(|k| dense[at(addr, k)]).collect::<Vec<_>>();
            for op in ops {
                let a = op.at.addr(bytes);
                let (v0, v1, v2, v3) = op.values;
                let values = match op.kind {
                    0 => {
                        prop_assert_eq!(vec![m.read(a)], read(&dense, a, 1));
                        continue;
                    }
                    1 => {
                        prop_assert_eq!(m.read_n::<1>(a).to_vec(), read(&dense, a, 1));
                        continue;
                    }
                    2 => {
                        prop_assert_eq!(m.read_n::<4>(a).to_vec(), read(&dense, a, 4));
                        continue;
                    }
                    3 => {
                        m.write(a, v0);
                        vec![v0]
                    }
                    4 => {
                        m.write_n(a, [v0]);
                        vec![v0]
                    }
                    _ => {
                        m.write_n(a, [v0, v1, v2, v3]);
                        vec![v0, v1, v2, v3]
                    }
                };
                for (k, v) in values.into_iter().enumerate() {
                    dense[at(a, k)] = v;
                    written.insert(at(a, k) / PAGE_WORDS);
                }
            }
            prop_assert_eq!(words(&m), dense.clone());
            prop_assert_eq!(m.resident_pages(), written.len());
            let mut e = Encoder::new();
            m.encode_state(&mut e);
            let bytes_out = e.into_bytes();
            let mut flat = Encoder::new();
            flat.put_u32_sparse(&dense);
            prop_assert_eq!(&bytes_out, &flat.into_bytes());
            let mut back = OnChipMemory::new(bytes);
            back.restore_state(&mut Decoder::new(&bytes_out)).unwrap();
            prop_assert_eq!(words(&back), dense);
            let nonzero = dense.chunks(PAGE_WORDS).filter(|p| p.iter().any(|&w| w != 0)).count();
            prop_assert!((nonzero..=m.resident_pages()).contains(&back.resident_pages()));
        }
    }

    proptest! {
        /// A fixed-width transfer is its words one by one, at both widths
        /// the ISA has, for power-of-two and other capacities (scratchpads
        /// smaller than the transfer included), wrapping at the capacity
        /// and at `u32::MAX`.
        #[test]
        fn fixed_width_transfers_equal_word_transfers(
            words in 1u32..40,
            pow2 in any::<bool>(),
            base in any::<u32>(),
            near_top in any::<bool>(),
            near_end in any::<bool>(),
            values in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            let words = if pow2 { words.next_power_of_two() } else { words };
            let addr = if near_top {
                0xffff_fff0 | (base & 0xc)
            } else if near_end {
                (words * 4).saturating_sub((base % 20) & !3)
            } else {
                base & !3
            };
            check_width::<1>(words, addr, [values.0]);
            check_width::<4>(words, addr, [values.0, values.1, values.2, values.3]);
        }

        #[test]
        fn degree_bounds(addrs in proptest::collection::vec(0u32..65_536, 1..32), banks in 1usize..33) {
            let aligned: Vec<u32> = addrs.iter().map(|a| a & !3).collect();
            let d = conflict_degree(&aligned, banks);
            prop_assert!(d >= 1);
            prop_assert!(d as usize <= aligned.len());
        }

        #[test]
        fn span_matches_expanded_word_list(
            addrs in proptest::collection::vec(0u32..65_536, 0..40),
            wpl in 1u32..5,
            banks in 1usize..33,
        ) {
            let aligned: Vec<u32> = addrs.iter().map(|a| a & !3).collect();
            let mut words = Vec::new();
            for &a in &aligned {
                for wd in 0..wpl {
                    words.push(a + 4 * wd);
                }
            }
            prop_assert_eq!(
                conflict_degree_span(&aligned, wpl, banks),
                conflict_degree(&words, banks)
            );
        }

        #[test]
        fn single_bank_degree_is_distinct_words(addrs in proptest::collection::vec(0u32..4096, 1..32)) {
            let aligned: Vec<u32> = addrs.iter().map(|a| a & !3).collect();
            let mut words: Vec<u32> = aligned.iter().map(|a| a / 4).collect();
            words.sort_unstable();
            words.dedup();
            prop_assert_eq!(conflict_degree(&aligned, 1), words.len() as u32);
        }
    }
}
