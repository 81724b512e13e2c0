//! Functional backing stores: word-addressed memories with bump allocation.

use serde::{Deserialize, Serialize};
use simt_isa::codec::{Codec, CodecError, Decoder, Encoder, SPARSE_MAX_WORDS};

/// A flat, word-addressed memory image with a bump allocator.
///
/// Addresses are byte addresses but must be 4-byte aligned (the ISA is
/// word-oriented). Reads of unwritten memory return `0`. Used for the
/// global and constant spaces.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WordStore {
    words: Vec<u32>,
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
    pub fn alloc(&mut self, bytes: u32, label: &str) -> u32 {
        let base = (self.next_free + 15) & !15;
        let size = (bytes + 3) & !3;
        self.next_free = base + size;
        self.allocations.push((label.to_string(), base, size));
        let need_words = (self.next_free / 4) as usize;
        if self.words.len() < need_words {
            self.words.resize(need_words, 0);
        }
        base
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
    pub fn read(&self, addr: u32) -> u32 {
        assert!(addr.is_multiple_of(4), "unaligned word read at {addr:#x}");
        self.words.get((addr / 4) as usize).copied().unwrap_or(0)
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
        let inside = self.words.get(addr as usize / 4..);
        match inside.and_then(<[u32]>::first_chunk::<N>) {
            Some(run) => *run,
            // Off the end of the image, or across the top of the address
            // space: word by word.
            None => std::array::from_fn(|i| self.read(addr.wrapping_add(4 * i as u32))),
        }
    }

    /// Writes the word at byte address `addr`, growing the store if needed.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn write(&mut self, addr: u32, value: u32) {
        assert!(addr.is_multiple_of(4), "unaligned word write at {addr:#x}");
        let idx = (addr / 4) as usize;
        if self.words.len() <= idx {
            self.words.resize(idx + 1, 0);
        }
        self.words[idx] = value;
    }

    /// Bulk-writes a slice of words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn write_words(&mut self, addr: u32, values: &[u32]) {
        for (i, v) in values.iter().enumerate() {
            self.write(addr + 4 * i as u32, *v);
        }
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
        enc.put_u32_sparse(&self.words);
        enc.put_u32(self.next_free);
        self.allocations.encode(enc);
    }

    /// Restores state previously written by [`WordStore::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.words = dec.take_u32_sparse(SPARSE_MAX_WORDS)?;
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
    words: Vec<u32>,
}

impl LocalStore {
    /// Creates a local store giving each thread `stride_bytes` of private
    /// memory (rounded up to a word).
    pub fn new(stride_bytes: u32) -> Self {
        LocalStore {
            stride_bytes: (stride_bytes + 3) & !3,
            words: Vec::new(),
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
        let i = self.index(tid, addr);
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Writes thread `tid`'s local word at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned access or when `addr` exceeds the per-thread
    /// stride.
    pub fn write(&mut self, tid: u32, addr: u32, value: u32) {
        let i = self.index(tid, addr);
        if self.words.len() <= i {
            self.words.resize(i + 1, 0);
        }
        self.words[i] = value;
    }

    /// Serializes the store (stride, and contents with their zero runs
    /// elided) for a simulator checkpoint.
    pub fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u32(self.stride_bytes);
        enc.put_u32_sparse(&self.words);
    }

    /// Restores state previously written by [`LocalStore::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.stride_bytes = dec.take_u32()?;
        self.words = dec.take_u32_sparse(SPARSE_MAX_WORDS)?;
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
