//! The spawn look-up table (paper §IV-C, Fig. 5).
//!
//! A small fully-associative on-chip memory with one line per supported
//! μ-kernel. Each line keeps the book-keeping for the warp currently being
//! formed for that μ-kernel: how many threads it already holds (`count`),
//! where the next thread's metadata pointer will be stored (`fill_addr`),
//! and the pre-allocated block for the *next* warp (`overflow_addr`) so a
//! single spawn that overflows the current warp can keep going.

use crate::layout::SpawnMemoryLayout;
use serde::{Deserialize, Serialize};
use simt_isa::codec::{Codec, CodecError, Decoder, Encoder};

/// Sentinel marking a LUT overflow pointer that still needs a block.
pub(crate) const UNALLOCATED: u32 = u32::MAX;

simt_isa::record! {
    /// One LUT line.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct LutLine {
        /// μ-kernel entry PC this line tracks (the tag).
        pub pc: usize,
        /// Threads already collected into the forming warp.
        pub count: u32,
        /// Spawn-memory address where the next thread's metadata is stored.
        pub fill_addr: u32,
        /// Base address of the pre-allocated next block.
        pub overflow_addr: u32,
    }
}

/// The PC-indexed spawn LUT.
///
/// Capacity equals the number of supported μ-kernels; exceeding it is a
/// configuration error surfaced by [`SpawnLut::line_mut`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SpawnLut {
    lines: Vec<LutLine>,
    capacity: usize,
}

impl SpawnLut {
    /// Creates a LUT with room for `capacity` μ-kernels.
    pub fn new(capacity: usize) -> Self {
        SpawnLut {
            lines: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of allocated lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no μ-kernel has spawned yet.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the line for `pc`.
    pub fn line(&self, pc: usize) -> Option<&LutLine> {
        self.lines.iter().find(|l| l.pc == pc)
    }

    /// Looks up (or allocates, via `init`) the mutable line for `pc`.
    ///
    /// Returns `None` when the LUT is full and `pc` is untracked — the
    /// kernel uses more μ-kernels than the hardware supports.
    pub fn line_mut(
        &mut self,
        pc: usize,
        init: impl FnOnce() -> (u32, u32),
    ) -> Option<&mut LutLine> {
        if let Some(i) = self.lines.iter().position(|l| l.pc == pc) {
            return Some(&mut self.lines[i]);
        }
        if self.lines.len() >= self.capacity {
            return None;
        }
        let (fill_addr, overflow_addr) = init();
        self.lines.push(LutLine {
            pc,
            count: 0,
            fill_addr,
            overflow_addr,
        });
        self.lines.last_mut()
    }

    /// Mutable access to the partial line with the lowest PC, if any: the
    /// one forced out first (§IV-D: "starting with the lowest PC address").
    pub fn lowest_partial_mut(&mut self) -> Option<&mut LutLine> {
        self.lines
            .iter_mut()
            .filter(|l| l.count > 0)
            .min_by_key(|l| l.pc)
    }

    /// Iterates over all lines.
    pub fn iter(&self) -> impl Iterator<Item = &LutLine> {
        self.lines.iter()
    }

    /// Serializes the allocated lines for a simulator checkpoint (the
    /// capacity is configuration, re-derived on restore).
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.lines.encode(enc);
    }

    /// Restores lines previously written by [`SpawnLut::encode_state`]
    /// into a LUT of identical capacity over spawn memory laid out as
    /// `layout`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, when the line count
    /// exceeds this LUT's capacity, or for a line holding a warp's worth of
    /// threads or more. Its block addresses are left to
    /// [`crate::WarpFormation::check_ownership`].
    pub fn restore_state(
        &mut self,
        dec: &mut Decoder<'_>,
        layout: &SpawnMemoryLayout,
    ) -> Result<(), CodecError> {
        let lines = Vec::<LutLine>::decode(dec)?;
        if lines.len() > self.capacity {
            return Err(CodecError::BadLength {
                len: lines.len() as u64,
                remaining: self.capacity,
            });
        }
        if let Some(l) = lines.iter().find(|l| l.count >= layout.warp_size()) {
            return Err(CodecError::BadTag {
                what: "spawn LUT line's count",
                tag: l.count.into(),
            });
        }
        self.lines = lines;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_lines_up_to_capacity() {
        let mut lut = SpawnLut::new(2);
        assert!(lut.is_empty());
        assert!(lut.line_mut(10, || (100, 200)).is_some());
        assert!(lut.line_mut(20, || (300, 400)).is_some());
        assert_eq!(lut.len(), 2);
        assert!(lut.line_mut(30, || (500, 600)).is_none(), "LUT full");
        // Existing lines still reachable.
        assert!(lut.line_mut(10, || unreachable!()).is_some());
    }

    #[test]
    fn line_lookup_by_pc() {
        let mut lut = SpawnLut::new(4);
        lut.line_mut(7, || (0, 128)).unwrap().count = 5;
        assert_eq!(lut.line(7).unwrap().count, 5);
        assert!(lut.line(8).is_none());
    }

    #[test]
    fn partial_lines_sorted_by_pc() {
        let mut lut = SpawnLut::new(4);
        lut.line_mut(30, || (0, 0)).unwrap().count = 1;
        lut.line_mut(10, || (0, 0)).unwrap().count = 2;
        lut.line_mut(20, || (0, 0)).unwrap().count = 0; // full/empty: excluded
        assert_eq!(lut.lowest_partial_mut().unwrap().pc, 10);
    }
}
