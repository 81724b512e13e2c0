//! Functional backing stores: word-addressed memories with bump allocation.

use serde::{Deserialize, Serialize};
use simt_isa::codec::{
    Codec, CodecError, Decoder, Encoder, SparsePiece, SparseSink, SPARSE_MAX_WORDS,
};

/// Words in a page of [`Pages`]: 16 KiB.
pub(crate) const PAGE_WORDS: usize = 4096;

type Page = [u32; PAGE_WORDS];

/// What every unmade page reads as.
static ZERO_PAGE: Page = [0; PAGE_WORDS];

/// Largest memory image [`WordStore::alloc`] hands out: what the sparse
/// codec carries back ([`SPARSE_MAX_WORDS`] words, 1 GiB), which is also
/// inside the 32-bit address space.
const MAX_IMAGE_BYTES: u64 = 4 * SPARSE_MAX_WORDS as u64;

/// A word array held in pages that are made on first write: a machine
/// costs what it has written, not what it has allocated. Reading an
/// unwritten word returns 0 and makes nothing; growing the array moves
/// its length and nothing else.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pages {
    /// Page `p` holds words `p * PAGE_WORDS ..`, `None` until one of them
    /// is written.
    table: Vec<Option<Box<Page>>>,
    /// Words the array spans: past every written word and every reserved
    /// one. A snapshot carries this length.
    len: usize,
}

impl Pages {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn page(&self, p: usize) -> Option<&Page> {
        self.table.get(p)?.as_deref()
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        self.page(i / PAGE_WORDS)
            .map_or(0, |page| page[i % PAGE_WORDS])
    }

    /// Words `i .. i + N`, if they lie in one page.
    #[inline]
    pub(crate) fn get_n<const N: usize>(&self, i: usize) -> Option<&[u32; N]> {
        let page = self.page(i / PAGE_WORDS).unwrap_or(&ZERO_PAGE);
        page[i % PAGE_WORDS..].first_chunk()
    }

    /// Page `p`, made on first use: the lookup is in line, the making not.
    #[inline]
    fn page_mut(&mut self, p: usize) -> &mut Page {
        if self.page(p).is_none() {
            self.make_page(p);
        }
        self.table[p].as_deref_mut().expect("made above")
    }

    #[cold]
    fn make_page(&mut self, p: usize) {
        self.table.resize(self.table.len().max(p + 1), None);
        let page = vec![0; PAGE_WORDS].into_boxed_slice().try_into();
        self.table[p] = Some(page.expect("a page is PAGE_WORDS words"));
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, value: u32) {
        self.page_mut(i / PAGE_WORDS)[i % PAGE_WORDS] = value;
        self.len = self.len.max(i + 1);
    }

    /// Words `i .. i + N` to write, if inside the array and one page.
    #[inline]
    pub(crate) fn get_n_mut<const N: usize>(&mut self, i: usize) -> Option<&mut [u32; N]> {
        let p = (i + N <= self.len).then_some(i / PAGE_WORDS)?;
        self.page_mut(p)[i % PAGE_WORDS..].first_chunk_mut()
    }

    /// Pages made so far.
    pub(crate) fn resident(&self) -> usize {
        self.table.iter().flatten().count()
    }

    /// The array through [`Encoder::put_u32_sparse`], page by page: an
    /// unmade page is a zero run, counted without being read.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        let pieces = (0..self.len.div_ceil(PAGE_WORDS)).map(|p| {
            let n = PAGE_WORDS.min(self.len - p * PAGE_WORDS);
            match self.page(p) {
                Some(page) => SparsePiece::Words(&page[..n]),
                None => SparsePiece::Zeros(n),
            }
        });
        enc.put_u32_sparse_pieces(self.len, pieces);
    }

    /// Reads an array of at most `max_words` written by [`Pages::encode`]:
    /// only the pages that literal words land in are made.
    pub(crate) fn decode(dec: &mut Decoder<'_>, max_words: usize) -> Result<Self, CodecError> {
        let mut pages = Pages::default();
        dec.take_u32_sparse_into(max_words, &mut pages)?;
        Ok(pages)
    }
}

impl SparseSink for Pages {
    fn reset(&mut self, len: usize) {
        *self = Pages {
            table: Vec::new(),
            len,
        };
    }

    fn put_run(&mut self, mut at: usize, mut words: impl ExactSizeIterator<Item = u32>) {
        while words.len() > 0 {
            let from = at % PAGE_WORDS;
            let n = (PAGE_WORDS - from).min(words.len());
            let page = self.page_mut(at / PAGE_WORDS);
            for (w, v) in page[from..from + n].iter_mut().zip(words.by_ref()) {
                *w = v;
            }
            at += n;
        }
    }
}

/// The first `left` words of `words`, as an [`ExactSizeIterator`]: how
/// a flattened run of records reaches [`SparseSink::put_run`].
struct Counted<I> {
    words: I,
    left: usize,
}

impl<I: Iterator<Item = u32>> Iterator for Counted<I> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        self.left = self.left.checked_sub(1)?;
        self.words.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator<Item = u32>> ExactSizeIterator for Counted<I> {}

/// A word-addressed memory image with a bump allocator.
///
/// Addresses are byte addresses but must be 4-byte aligned (the ISA is
/// word-oriented). Reads of unwritten memory return `0`, and only the
/// pages written hold memory. Used for the global and constant spaces.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WordStore {
    words: Pages,
    next_free: u32,
    allocations: Vec<(String, u32, u32)>,
}

impl WordStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `bytes` (rounded up to a whole word, 16-byte aligned so
    /// `v4` vectors never straddle segments) and returns the base address.
    ///
    /// The `label` is kept for debugging/layout dumps.
    ///
    /// # Panics
    ///
    /// Panics, naming `label`, if the region would end past 1 GiB: the
    /// most a snapshot carries, and inside the 32-bit address space.
    pub fn alloc(&mut self, bytes: u32, label: &str) -> u32 {
        let base = (u64::from(self.next_free) + 15) & !15;
        let end = base + ((u64::from(bytes) + 3) & !3);
        assert!(
            end <= MAX_IMAGE_BYTES,
            "allocation {label:?} of {bytes} bytes at {base:#x} ends past the \
             {MAX_IMAGE_BYTES:#x}-byte memory image"
        );
        // Both now fit in a `u32`.
        self.next_free = end as u32;
        self.allocations
            .push((label.to_string(), base as u32, (end - base) as u32));
        self.words.len = self.words.len.max(end as usize / 4);
        base as u32
    }

    /// Total bytes allocated so far (including alignment padding).
    pub fn allocated_bytes(&self) -> u32 {
        self.next_free
    }

    /// Named allocations `(label, base, size)`, in allocation order.
    pub fn allocations(&self) -> &[(String, u32, u32)] {
        &self.allocations
    }

    /// Reads the word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned (a machine check in the
    /// simulator — kernels must be word aligned).
    #[inline]
    pub fn read(&self, addr: u32) -> u32 {
        assert!(addr.is_multiple_of(4), "unaligned word read at {addr:#x}");
        self.words.get(addr as usize / 4)
    }

    /// Reads `N` consecutive words starting at byte address `addr`: word
    /// `i` is [`WordStore::read`] of `addr.wrapping_add(4 * i)`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    #[inline]
    pub fn read_n<const N: usize>(&self, addr: u32) -> [u32; N] {
        assert!(addr.is_multiple_of(4), "unaligned word read at {addr:#x}");
        match self.words.get_n::<N>(addr as usize / 4) {
            Some(run) => *run,
            // Across a page boundary, or across the top of the address
            // space (also a page boundary): word by word.
            None => std::array::from_fn(|i| self.read(addr.wrapping_add(4 * i as u32))),
        }
    }

    /// Writes the word at byte address `addr`, growing the store if needed.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32) {
        assert!(addr.is_multiple_of(4), "unaligned word write at {addr:#x}");
        self.words.set(addr as usize / 4, value);
    }

    /// Bulk-writes a slice of words starting at `addr`, page by page.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned, or if the words pass the
    /// top of the 32-bit address space.
    pub fn write_words(&mut self, addr: u32, values: &[u32]) {
        self.write_records(addr, values.iter().map(|&v| [v]));
    }

    /// Writes `records` back to back from `addr`, page by page: one call
    /// fills a region of `K`-word records without staging its words.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned, or if the records pass the
    /// top of the 32-bit address space.
    pub fn write_records<const K: usize>(
        &mut self,
        addr: u32,
        records: impl ExactSizeIterator<Item = [u32; K]>,
    ) {
        assert!(addr.is_multiple_of(4), "unaligned word write at {addr:#x}");
        let at = addr as usize / 4;
        let n = records.len() * K;
        if n == 0 {
            return;
        }
        assert!(
            at + n <= 1 << 30,
            "{n} words written at {addr:#x} pass the top of the address space"
        );
        let words = Counted {
            words: records.flatten(),
            left: n,
        };
        self.words.put_run(at, words);
        self.words.len = self.words.len.max(at + n);
    }

    /// Reads `n` consecutive words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn read_words(&self, addr: u32, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read(addr + 4 * i as u32)).collect()
    }

    /// Serializes the complete store (contents with their zero runs
    /// elided, bump pointer, allocation table) for a simulator checkpoint.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.words.encode(enc);
        enc.put_u32(self.next_free);
        self.allocations.encode(enc);
    }

    /// Restores state previously written by [`WordStore::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.words = Pages::decode(dec, SPARSE_MAX_WORDS)?;
        self.next_free = dec.take_u32()?;
        self.allocations = Vec::decode(dec)?;
        Ok(())
    }
}

/// Per-thread local memory (off-chip register spill / scratch).
///
/// Addresses are private per thread: thread `t` accessing byte `a` touches
/// physical word `t * stride + a`. Matches CUDA `.local` semantics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalStore {
    stride_bytes: u32,
    words: Pages,
}

impl LocalStore {
    /// Creates a local store giving each thread `stride_bytes` of private
    /// memory (rounded up to a word).
    pub fn new(stride_bytes: u32) -> Self {
        LocalStore {
            stride_bytes: (stride_bytes + 3) & !3,
            words: Pages::default(),
        }
    }

    /// Bytes of private local memory per thread.
    pub fn stride_bytes(&self) -> u32 {
        self.stride_bytes
    }

    fn index(&self, tid: u32, addr: u32) -> usize {
        assert!(
            addr.is_multiple_of(4),
            "unaligned local access at {addr:#x}"
        );
        assert!(
            addr < self.stride_bytes.max(4),
            "local access {addr:#x} exceeds per-thread stride {}",
            self.stride_bytes
        );
        (tid as usize) * (self.stride_bytes as usize / 4) + (addr / 4) as usize
    }

    /// Reads thread `tid`'s local word at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned access or when `addr` exceeds the per-thread
    /// stride.
    pub fn read(&self, tid: u32, addr: u32) -> u32 {
        self.words.get(self.index(tid, addr))
    }

    /// Writes thread `tid`'s local word at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned access or when `addr` exceeds the per-thread
    /// stride.
    pub fn write(&mut self, tid: u32, addr: u32, value: u32) {
        let i = self.index(tid, addr);
        self.words.set(i, value);
    }

    /// Serializes the store (stride, and contents with their zero runs
    /// elided) for a simulator checkpoint.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u32(self.stride_bytes);
        self.words.encode(enc);
    }

    /// Restores state previously written by [`LocalStore::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.stride_bytes = dec.take_u32()?;
        self.words = Pages::decode(dec, SPARSE_MAX_WORDS)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let s = WordStore::new();
        assert_eq!(s.read(1024), 0);
    }

    #[test]
    fn write_then_read() {
        let mut s = WordStore::new();
        s.write(8, 0xdead_beef);
        assert_eq!(s.read(8), 0xdead_beef);
        assert_eq!(s.read(4), 0);
    }

    #[test]
    fn alloc_is_16_byte_aligned_and_disjoint() {
        let mut s = WordStore::new();
        let a = s.alloc(5, "a");
        let b = s.alloc(32, "b");
        assert_eq!(a % 16, 0);
        assert_eq!(b % 16, 0);
        assert!(b >= a + 5, "allocations must not overlap");
        assert_eq!(s.allocations().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        WordStore::new().read(2);
    }

    #[test]
    fn bulk_words_roundtrip() {
        let mut s = WordStore::new();
        let base = s.alloc(16, "v");
        s.write_words(base, &[1, 2, 3, 4]);
        assert_eq!(s.read_words(base, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn local_store_is_private_per_thread() {
        let mut l = LocalStore::new(16);
        l.write(0, 4, 11);
        l.write(1, 4, 22);
        assert_eq!(l.read(0, 4), 11);
        assert_eq!(l.read(1, 4), 22);
        assert_eq!(l.read(2, 4), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn local_store_bounds_checked() {
        let mut l = LocalStore::new(8);
        l.write(0, 8, 1);
    }

    #[test]
    #[should_panic(expected = "huge")]
    fn alloc_past_the_image_panics_naming_the_region() {
        // Rounding this up to a word used to wrap: the third region got
        // the second's base.
        let mut s = WordStore::new();
        s.alloc(16, "small");
        s.alloc(u32::MAX - 8, "huge");
        s.alloc(16, "after");
    }

    #[test]
    fn an_image_up_to_the_ceiling_costs_nothing_until_written() {
        let mut s = WordStore::new();
        let base = s.alloc(16, "head");
        let rest = s.alloc((MAX_IMAGE_BYTES - 16) as u32, "rest");
        assert_eq!(u64::from(s.allocated_bytes()), MAX_IMAGE_BYTES);
        assert_eq!(s.words.resident(), 0);
        s.write(base, 1);
        s.write(s.allocated_bytes() - 4, 2);
        assert_eq!(s.read_n::<4>(rest - 8), [0; 4]);
        assert_eq!(s.words.resident(), 2);
        let bytes = snapshot(&s);
        let mut back = WordStore::new();
        back.restore_state(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.words.resident(), 2);
        assert_eq!(snapshot(&back), bytes);
        let full = std::panic::catch_unwind(move || s.alloc(4, "one-more"));
        let msg = *full.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("one-more"), "{msg}");
    }

    #[test]
    fn residency_follows_writes() {
        // A paper-scale stack region: 256 x 256 rays x 384 bytes.
        let mut s = WordStore::new();
        let size = 24 << 20;
        let base = s.alloc(size, "stacks");
        s.write(base, 7);
        s.write(base + size - 4, 9);
        for addr in (0..size).step_by(64 << 10) {
            assert_eq!(s.read_n::<4>(base + addr).len(), 4);
            s.read(base + addr);
        }
        assert_eq!(s.read(base + size - 4), 9);
        assert!(s.words.resident() <= 2, "{} pages", s.words.resident());
    }

    #[test]
    fn a_hostile_zero_run_restores_to_one_page() {
        // The longest array the codec takes, all of it one zero run but
        // for one literal word at its end.
        let mut e = Encoder::new();
        e.put_u64(SPARSE_MAX_WORDS as u64);
        e.put_u32(SPARSE_MAX_WORDS as u32 - 1);
        e.put_u32(1);
        e.put_u32(7);
        e.put_u32(0);
        Vec::<(String, u32, u32)>::new().encode(&mut e);
        let bytes = e.into_bytes();
        let mut s = WordStore::new();
        s.restore_state(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(s.words.resident(), 1);
        assert_eq!(s.words.table.len(), SPARSE_MAX_WORDS / PAGE_WORDS);
        assert_eq!(s.read(4 * (SPARSE_MAX_WORDS as u32 - 1)), 7);
        assert_eq!(snapshot(&s), bytes);
    }

    #[test]
    fn a_run_across_the_top_of_the_address_space_wraps() {
        let mut s = WordStore::new();
        s.write_words(0, &[5, 6]);
        s.write(0xffff_fffc, 4);
        assert_eq!(s.read_n::<4>(0xffff_fff8), [0, 4, 5, 6]);
    }

    fn snapshot(s: &WordStore) -> Vec<u8> {
        let mut e = Encoder::new();
        s.encode_state(&mut e);
        e.into_bytes()
    }

    /// A word address for the model tests: anywhere in the first three
    /// pages and a bit, or within a few words of a page boundary.
    fn word_index() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..3 * PAGE_WORDS + 64,
            (1usize..4, 0usize..8).prop_map(|(p, k)| p * PAGE_WORDS - 4 + k),
        ]
    }

    fn word_value() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), 1u32..4, any::<u32>()]
    }

    #[derive(Debug, Clone)]
    enum Op {
        Alloc(u32),
        Write(usize, u32),
        WriteWords(usize, Vec<u32>),
        Read(usize),
        ReadN(usize),
        ReadWords(usize, usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..20_000).prop_map(Op::Alloc),
            (word_index(), word_value()).prop_map(|(i, v)| Op::Write(i, v)),
            (word_index(), proptest::collection::vec(word_value(), 0..12))
                .prop_map(|(i, v)| Op::WriteWords(i, v)),
            word_index().prop_map(Op::Read),
            word_index().prop_map(Op::ReadN),
            (word_index(), 0usize..20).prop_map(|(i, n)| Op::ReadWords(i, n)),
        ]
    }

    /// What the flat image held: the words, zero past their end.
    fn model_read(model: &[u32], i: usize) -> u32 {
        model.get(i).copied().unwrap_or(0)
    }

    fn model_write(model: &mut Vec<u32>, i: usize, v: u32) {
        if model.len() <= i {
            model.resize(i + 1, 0);
        }
        model[i] = v;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The page array against the flat image it replaced: every read
        /// agrees, the snapshot bytes are the flat image's, and restore
        /// gives the same store back.
        #[test]
        fn word_store_matches_a_flat_image(ops in proptest::collection::vec(op(), 1..40)) {
            let mut s = WordStore::new();
            let mut model: Vec<u32> = Vec::new();
            let mut next_free = 0u32;
            for op in ops {
                match op {
                    Op::Alloc(bytes) => {
                        let base = (next_free + 15) & !15;
                        next_free = base + ((bytes + 3) & !3);
                        prop_assert_eq!(s.alloc(bytes, "r"), base);
                        if model.len() < next_free as usize / 4 {
                            model.resize(next_free as usize / 4, 0);
                        }
                    }
                    Op::Write(i, v) => {
                        s.write(4 * i as u32, v);
                        model_write(&mut model, i, v);
                    }
                    Op::WriteWords(i, vs) => {
                        s.write_words(4 * i as u32, &vs);
                        for (k, &v) in vs.iter().enumerate() {
                            model_write(&mut model, i + k, v);
                        }
                    }
                    Op::Read(i) => prop_assert_eq!(s.read(4 * i as u32), model_read(&model, i)),
                    Op::ReadN(i) => {
                        let addr = 4 * i as u32;
                        let want = |n: usize| (0..n).map(|k| model_read(&model, i + k)).collect::<Vec<_>>();
                        prop_assert_eq!(s.read_n::<1>(addr).to_vec(), want(1));
                        prop_assert_eq!(s.read_n::<2>(addr).to_vec(), want(2));
                        prop_assert_eq!(s.read_n::<4>(addr).to_vec(), want(4));
                    }
                    Op::ReadWords(i, n) => {
                        let want: Vec<u32> = (0..n).map(|k| model_read(&model, i + k)).collect();
                        prop_assert_eq!(s.read_words(4 * i as u32, n), want);
                    }
                }
            }
            let bytes = snapshot(&s);
            let mut e = Encoder::new();
            e.put_u32_sparse(&model);
            e.put_u32(next_free);
            s.allocations().to_vec().encode(&mut e);
            prop_assert_eq!(&bytes, &e.into_bytes());
            let mut back = WordStore::new();
            back.restore_state(&mut Decoder::new(&bytes)).unwrap();
            prop_assert_eq!(snapshot(&back), bytes);
            for i in 0..model.len() + 8 {
                prop_assert_eq!(back.read(4 * i as u32), model_read(&model, i));
            }
        }

        /// The same for local memory, whose threads' words interleave
        /// across page boundaries.
        #[test]
        fn local_store_matches_a_flat_image(
            stride_words in 1u32..17,
            ops in proptest::collection::vec((any::<bool>(), 0u32..1200, 0u32..16, word_value()), 1..60),
        ) {
            let mut l = LocalStore::new(4 * stride_words);
            let mut model: Vec<u32> = Vec::new();
            for (write, tid, word, v) in ops {
                let word = word % stride_words;
                let i = (tid * stride_words + word) as usize;
                if write {
                    l.write(tid, 4 * word, v);
                    model_write(&mut model, i, v);
                } else {
                    prop_assert_eq!(l.read(tid, 4 * word), model_read(&model, i));
                }
            }
            let mut bytes = Encoder::new();
            l.encode_state(&mut bytes);
            let bytes = bytes.into_bytes();
            let mut e = Encoder::new();
            e.put_u32(4 * stride_words);
            e.put_u32_sparse(&model);
            prop_assert_eq!(&bytes, &e.into_bytes());
            let mut back = LocalStore::new(0);
            back.restore_state(&mut Decoder::new(&bytes)).unwrap();
            let mut again = Encoder::new();
            back.encode_state(&mut again);
            prop_assert_eq!(again.into_bytes(), bytes);
        }
    }

    proptest! {
        #[test]
        fn wordstore_roundtrip(addr in (0u32..4096).prop_map(|a| a * 4), v: u32) {
            let mut s = WordStore::new();
            s.write(addr, v);
            prop_assert_eq!(s.read(addr), v);
        }

        #[test]
        fn allocations_never_overlap(sizes in proptest::collection::vec(1u32..257, 1..20)) {
            let mut s = WordStore::new();
            let mut spans: Vec<(u32, u32)> = Vec::new();
            for (i, sz) in sizes.iter().enumerate() {
                let base = s.alloc(*sz, &format!("a{i}"));
                for &(b, e) in &spans {
                    prop_assert!(base >= e || base + sz <= b, "overlap");
                }
                spans.push((base, base + sz));
            }
        }
    }
}
