//! Per-thread (lane) execution context.

use simt_isa::codec::{Codec, CodecError, Decoder, Encoder, SparsePiece};
use simt_isa::{eval_alu, eval_cmp, AluOp, CmpOp, Operand, Pred, Reg, Special};

/// Lanes in a register plane: the width of the Table I machine's warps
/// and the widest warp a machine may have. A narrower warp's plane keeps
/// its lanes first and never writes the rest.
const ROW: usize = 32;

/// Struct-of-arrays per-lane thread state for one warp.
///
/// The hot loops of [`crate::sm::Sm`] — guard-mask evaluation, ALU
/// execution, address generation — walk the lanes of a warp every issued
/// instruction. A vector of per-thread records would make every one of
/// those walks chase an `Option` discriminant and a heap pointer per
/// lane; here the state lives in dense parallel arrays indexed by lane,
/// with populated/exited/spawned lane *sets* kept as bitmasks so the
/// inner loops iterate set bits instead of testing discriminants.
///
/// Registers are a single flat `stride × ROW` array. The stride starts
/// at the program's declared register count; a write beyond it (programs
/// may under-declare) widens the file for the whole warp. Reads beyond
/// the stride return 0.
#[derive(Debug, Clone)]
pub struct LaneState {
    warp_size: u32,
    regs_stride: u32,
    /// Lane `i` holds a thread (populated lanes of a partial warp).
    populated: u64,
    /// Lane `i`'s thread has retired.
    exited: u64,
    /// Lane `i`'s thread has spawned a child (its lineage continues).
    spawned: u64,
    /// Lane `i`'s thread owns a spawn-memory state record.
    has_slot: u64,
    tid: Vec<u32>,
    /// Predicate registers stored as bit-planes: `pred_planes[p]` holds
    /// predicate `p` of every lane, one bit per lane. A guard mask is then
    /// a single AND against the active mask instead of a per-lane bit
    /// test. The checkpoint codec reads/writes one `u8` per lane
    /// (gathered/scattered at the boundary), half the planes' bytes.
    pred_planes: [u64; 8],
    spawn_mem_addr: Vec<u32>,
    state_slot: Vec<u32>,
    /// Flat register file in *register-major* order: register `r` of lane
    /// `i` lives at `regs[r * ROW + i]`, whatever the warp's width. A
    /// warp-wide operation then reads each operand as one fixed-width
    /// row (cache-dense, auto-vectorizable) instead of striding `stride`
    /// words between lanes, and growing the stride appends fresh planes
    /// without re-packing. Lanes `warp_size..ROW` of every plane stay 0.
    /// The checkpoint codec writes each plane's first `warp_size` words
    /// in this order, zero runs elided: a never-written register is one
    /// run.
    regs: Vec<u32>,
}

impl LaneState {
    fn bit(lane: usize) -> u64 {
        1u64 << lane
    }

    /// Lane state for a freshly admitted warp of `count` threads with
    /// consecutive ids from `first_tid`: `regs_per_thread` zeroed
    /// registers each, predicates clear, nothing exited or spawned, no
    /// state record yet (see [`LaneState::set_state_slot`]). Lanes
    /// `count..warp_size` stay unpopulated.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds `warp_size` or `warp_size` exceeds 32.
    pub fn admit(warp_size: u32, regs_per_thread: u32, first_tid: u32, count: u32) -> Self {
        assert!(count <= warp_size, "more threads than lanes");
        assert!(
            warp_size as usize <= ROW,
            "a warp wider than a register plane"
        );
        let n = warp_size as usize;
        let mut tid = vec![0; n];
        for (lane, t) in tid[..count as usize].iter_mut().enumerate() {
            *t = first_tid + lane as u32;
        }
        LaneState {
            warp_size,
            regs_stride: regs_per_thread,
            populated: (1u64 << count) - 1,
            exited: 0,
            spawned: 0,
            has_slot: 0,
            tid,
            pred_planes: [0; 8],
            spawn_mem_addr: vec![0; n],
            state_slot: vec![0; n],
            regs: vec![0; ROW * regs_per_thread as usize],
        }
    }

    /// The machine warp width this state was sized for.
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Lanes that hold a thread (exited or not).
    pub fn populated_mask(&self) -> u64 {
        self.populated
    }

    /// Lanes that hold a not-yet-retired thread.
    pub fn live_mask(&self) -> u64 {
        self.populated & !self.exited
    }

    /// Whether lane `lane` holds a thread.
    pub fn is_populated(&self, lane: usize) -> bool {
        self.populated & Self::bit(lane) != 0
    }

    /// Whether lane `lane`'s thread has retired.
    pub fn is_exited(&self, lane: usize) -> bool {
        self.exited & Self::bit(lane) != 0
    }

    /// Marks the lanes in `mask` retired.
    pub fn exit_lanes(&mut self, mask: u64) {
        self.exited |= mask & self.populated;
    }

    /// Whether lane `lane`'s thread has spawned a child.
    pub fn spawned_child(&self, lane: usize) -> bool {
        self.spawned & Self::bit(lane) != 0
    }

    /// Records that lane `lane`'s thread spawned a child.
    pub fn set_spawned_child(&mut self, lane: usize) {
        self.spawned |= Self::bit(lane);
    }

    /// Lane `lane`'s global thread id.
    pub fn tid(&self, lane: usize) -> u32 {
        self.tid[lane]
    }

    /// Lane `lane`'s `%spawnmem` special register.
    pub fn spawn_mem_addr(&self, lane: usize) -> u32 {
        self.spawn_mem_addr[lane]
    }

    /// Sets lane `lane`'s `%spawnmem` special register.
    pub fn set_spawn_mem_addr(&mut self, lane: usize, addr: u32) {
        self.spawn_mem_addr[lane] = addr;
    }

    /// Lane `lane`'s spawn-memory state record, if it still owns one.
    pub fn state_slot(&self, lane: usize) -> Option<u32> {
        (self.has_slot & Self::bit(lane) != 0).then(|| self.state_slot[lane])
    }

    /// Gives lane `lane` the spawn-memory state record `slot`.
    pub fn set_state_slot(&mut self, lane: usize, slot: u32) {
        self.has_slot |= Self::bit(lane);
        self.state_slot[lane] = slot;
    }

    /// Takes lane `lane`'s state record (freeing it is the caller's job).
    pub fn take_state_slot(&mut self, lane: usize) -> Option<u32> {
        let slot = self.state_slot(lane);
        self.has_slot &= !Self::bit(lane);
        slot
    }

    /// Reads register `r` of lane `lane` (beyond the file reads 0).
    pub fn reg(&self, lane: usize, r: Reg) -> u32 {
        let i = r.0 as u32;
        if i >= self.regs_stride {
            return 0;
        }
        self.regs[i as usize * ROW + lane]
    }

    /// Writes register `r` of lane `lane`, widening the file if the
    /// program under-declared its register usage.
    pub fn set_reg(&mut self, lane: usize, r: Reg, v: u32) {
        let i = r.0 as u32;
        if i >= self.regs_stride {
            self.grow_stride(i + 1);
        }
        self.regs[i as usize * ROW + lane] = v;
    }

    /// Reads `N` consecutive registers of lane `lane` starting at `first`:
    /// element `i` is [`LaneState::reg`] of register `first + i`, the
    /// register number wrapping at 255. `N` is the instruction's width.
    // Forced inline (as `set_reg_n` is): called per lane of every memory
    // instruction, and out of line the run crosses the call through the
    // stack, word by word on one side and as a vector on the other.
    #[inline(always)]
    pub fn reg_n<const N: usize>(&self, lane: usize, first: Reg) -> [u32; N] {
        // (Plain loops, and both arms in line: a result that `from_fn` or
        // a called function builds in memory is read back from there as
        // one vector, which stalls on the word stores that wrote it.)
        let mut run = [0; N];
        if first.0 as usize + N <= self.regs_stride as usize {
            let at = first.0 as usize * ROW + lane;
            for (i, v) in run.iter_mut().enumerate() {
                *v = self.regs[at + i * ROW];
            }
        } else {
            for (i, v) in run.iter_mut().enumerate() {
                *v = self.reg(lane, Reg(first.0.wrapping_add(i as u8)));
            }
        }
        run
    }

    /// Writes `values` to consecutive registers of lane `lane` starting at
    /// `first`, in order: element `i` is [`LaneState::set_reg`] of register
    /// `first + i`, the register number wrapping at 255 and the file
    /// widening as `set_reg` widens it.
    #[inline(always)]
    pub fn set_reg_n<const N: usize>(&mut self, lane: usize, first: Reg, values: [u32; N]) {
        if first.0 as usize + N <= self.regs_stride as usize {
            let at = first.0 as usize * ROW + lane;
            for (i, v) in values.into_iter().enumerate() {
                self.regs[at + i * ROW] = v;
            }
        } else {
            self.set_reg_n_past_the_file(lane, first, values);
        }
    }

    /// [`LaneState::set_reg_n`] for a run that leaves the declared file.
    #[cold]
    fn set_reg_n_past_the_file<const N: usize>(
        &mut self,
        lane: usize,
        first: Reg,
        values: [u32; N],
    ) {
        for (i, v) in values.into_iter().enumerate() {
            self.set_reg(lane, Reg(first.0.wrapping_add(i as u8)), v);
        }
    }

    /// Widens the register file (rare: only when a program writes a
    /// register it never declared). Register-major layout makes this an
    /// append of fresh zeroed planes; existing planes stay in place.
    fn grow_stride(&mut self, stride: u32) {
        self.regs.resize(stride as usize * ROW, 0);
        self.regs_stride = stride;
    }

    /// Reads predicate `p` of lane `lane`.
    pub fn pred(&self, lane: usize, p: Pred) -> bool {
        (self.pred_planes[p.0 as usize] >> lane) & 1 == 1
    }

    /// Writes predicate `p` of lane `lane`.
    pub fn set_pred(&mut self, lane: usize, p: Pred, v: bool) {
        let bit = Self::bit(lane);
        let plane = &mut self.pred_planes[p.0 as usize];
        *plane = (*plane & !bit) | (u64::from(v) << lane);
    }

    /// Lanes whose guard `@p` / `@!p` passes: `pred(lane, p) != negate`
    /// for every lane at once.
    pub fn guard_mask(&self, p: Pred, negate: bool) -> u64 {
        let plane = self.pred_planes[p.0 as usize];
        if negate {
            !plane
        } else {
            plane
        }
    }

    /// Gathers lane `lane`'s predicates into the packed per-thread byte
    /// the checkpoint codec uses.
    fn gather_preds(&self, lane: usize) -> u8 {
        let mut byte = 0u8;
        for (p, plane) in self.pred_planes.iter().enumerate() {
            byte |= (((plane >> lane) & 1) as u8) << p;
        }
        byte
    }

    /// Scatters a packed per-thread predicate byte into the bit-planes.
    fn scatter_preds(&mut self, lane: usize, byte: u8) {
        let bit = Self::bit(lane);
        for (p, plane) in self.pred_planes.iter_mut().enumerate() {
            *plane = (*plane & !bit) | (u64::from((byte >> p) & 1) << lane);
        }
    }

    /// Evaluates an operand against lane `lane`.
    pub fn operand(&self, lane: usize, o: Operand) -> u32 {
        match o {
            Operand::Reg(r) => self.reg(lane, r),
            Operand::Imm(v) => v,
        }
    }

    /// Brings destination register `d` inside the file, growing the
    /// stride up-front so a warp op can write its row unchecked. Growing
    /// before the op (rather than at the first lane's `set_reg`, as the
    /// scalar path does) is equivalent: lanes only read their own
    /// registers, and a read beyond the old stride returned 0 exactly
    /// as the grown block's fresh zeros do. Returns the base of `d`'s
    /// register plane.
    #[inline]
    fn ensure_dst(&mut self, d: Reg) -> usize {
        let i = d.0 as u32;
        if i >= self.regs_stride {
            self.grow_stride(i + 1);
        }
        i as usize * ROW
    }

    /// Operand `o` for every lane of a register plane, its kind matched
    /// and its register bounds-checked once per instruction: the
    /// register's whole row, an immediate splat, or zeros for a register
    /// past the file (see [`LaneState::reg`]). A warp op reads each
    /// operand this way, computes every lane and blends the result into
    /// its destination by the issue's lane bits ([`Self::blend_row`]).
    /// That is exact for any issue mask and any warp width because
    /// `eval_alu` and `eval_cmp` are total and pure: an inactive or
    /// padding lane's result is computed and dropped.
    #[inline(always)]
    fn row(&self, o: Operand) -> [u32; ROW] {
        match o {
            Operand::Reg(r) if u32::from(r.0) < self.regs_stride => {
                match self.regs[usize::from(r.0) * ROW..].first_chunk() {
                    Some(row) => *row,
                    None => unreachable!("an in-file register has a whole plane"),
                }
            }
            Operand::Reg(_) => [0; ROW],
            Operand::Imm(v) => [v; ROW],
        }
    }

    /// Writes `new(lane)` to every lane in `bits` of the register plane at
    /// `base` and leaves the other lanes' words as they were.
    #[inline(always)]
    fn blend_row(&mut self, base: usize, bits: u64, new: impl Fn(usize) -> u32) {
        let out = match self.regs[base..].first_chunk_mut::<ROW>() {
            Some(row) => row,
            None => unreachable!("`ensure_dst` brought the plane inside the file"),
        };
        for (lane, word) in out.iter_mut().enumerate() {
            let keep = ((bits >> lane) & 1).wrapping_sub(1) as u32;
            *word = (new(lane) & !keep) | (*word & keep);
        }
    }

    /// Executes `mov d, a` on every populated lane in `mask`.
    pub fn mov_warp(&mut self, mask: u64, d: Reg, a: Operand) {
        let bits = mask & self.populated;
        if bits == 0 {
            return;
        }
        let db = self.ensure_dst(d);
        let v = self.row(a);
        self.blend_row(db, bits, |lane| v[lane]);
    }

    /// Executes `op d, a, b, c` on every populated lane in `mask`.
    pub fn alu_warp(&mut self, mask: u64, op: AluOp, d: Reg, a: Operand, b: Operand, c: Operand) {
        // One dispatch per warp instruction: each arm's row op is
        // compiled for its own operation, so `eval_alu` with a constant
        // `op` folds to the operation itself instead of re-entering its
        // jump table once per lane.
        macro_rules! lanes_of {
            ({ $($(#[$doc:meta])* $v:ident = $index:literal $line:tt),* $(,)? }) => {
                match op {
                    $(AluOp::$v => self.alu_lanes(mask, d, a, b, c, |x, y, z| {
                        eval_alu(AluOp::$v, x, y, z)
                    }),)*
                }
            };
        }
        simt_isa::alu_ops!(lanes_of);
    }

    /// The row op of [`LaneState::alu_warp`] for one operation `f`.
    #[inline]
    fn alu_lanes(
        &mut self,
        mask: u64,
        d: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
        f: impl Fn(u32, u32, u32) -> u32,
    ) {
        let bits = mask & self.populated;
        if bits == 0 {
            return;
        }
        let db = self.ensure_dst(d);
        // Every source is read before the destination is written, so `d`
        // naming a source changes nothing: a lane reads only its own
        // column.
        let (a, b, c) = (self.row(a), self.row(b), self.row(c));
        self.blend_row(db, bits, |lane| f(a[lane], b[lane], c[lane]));
    }

    /// Executes `setp.cmp p, a, b` on every populated lane in `mask`.
    pub fn setp_warp(&mut self, mask: u64, cmp: CmpOp, p: Pred, a: Operand, b: Operand) {
        // As in `alu_warp`: one row op per comparison.
        macro_rules! lanes_of {
            ({ $($(#[$doc:meta])* $v:ident = $index:literal $line:tt),* $(,)? }) => {
                match cmp {
                    $(CmpOp::$v => {
                        self.setp_lanes(mask, p, a, b, |x, y| eval_cmp(CmpOp::$v, x, y))
                    })*
                }
            };
        }
        simt_isa::cmp_ops!(lanes_of);
    }

    /// The row op of [`LaneState::setp_warp`] for one comparison `f`.
    #[inline]
    fn setp_lanes(
        &mut self,
        mask: u64,
        p: Pred,
        a: Operand,
        b: Operand,
        f: impl Fn(u32, u32) -> bool,
    ) {
        let bits = mask & self.populated;
        if bits == 0 {
            return;
        }
        // Rebuild the whole bit-plane, then keep the old bits of the lanes
        // outside `bits`.
        let (a, b) = (self.row(a), self.row(b));
        let mut new = 0;
        for lane in 0..ROW {
            new |= u64::from(f(a[lane], b[lane])) << lane;
        }
        let plane = &mut self.pred_planes[p.0 as usize];
        *plane = (*plane & !bits) | (new & bits);
    }

    /// Executes `selp d, a, b, p` on every populated lane in `mask`.
    pub fn selp_warp(&mut self, mask: u64, d: Reg, a: Operand, b: Operand, p: Pred) {
        let bits = mask & self.populated;
        if bits == 0 {
            return;
        }
        let db = self.ensure_dst(d);
        let plane = self.pred_planes[p.0 as usize];
        // A branchless select over the operand rows (the dominant
        // instruction in the renderer's min/max-style inner loops).
        let (t, f) = (self.row(a), self.row(b));
        self.blend_row(db, bits, |lane| {
            let m = ((plane >> lane) & 1).wrapping_neg() as u32;
            (t[lane] & m) | (f[lane] & !m)
        });
    }

    /// Executes `mov d, %special` on every populated lane in `mask`.
    pub fn special_warp(
        &mut self,
        mask: u64,
        d: Reg,
        s: Special,
        warp_id: u32,
        sm_id: u32,
        ntid: u32,
    ) {
        let mut bits = mask & self.populated;
        if bits == 0 {
            return;
        }
        let db = self.ensure_dst(d);
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let v = match s {
                Special::Tid => self.tid[lane],
                Special::LaneId => lane as u32,
                Special::WarpId => warp_id,
                Special::SmId => sm_id,
                Special::NTid => ntid,
                Special::SpawnMem => self.spawn_mem_addr[lane],
            };
            self.regs[db + lane] = v;
        }
    }

    /// Serializes the lane arrays for a simulator checkpoint: one SoA
    /// block per warp, the register file register-major as it is held,
    /// each plane cut to its first `warp_size` words.
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        let n = self.warp_size as usize;
        enc.put_u32(self.warp_size);
        enc.put_u32(self.regs_stride);
        enc.put_u64(self.populated);
        enc.put_u64(self.exited);
        enc.put_u64(self.spawned);
        enc.put_u64(self.has_slot);
        self.tid.encode(enc);
        for lane in 0..n {
            enc.put_u8(self.gather_preds(lane));
        }
        self.spawn_mem_addr.encode(enc);
        self.state_slot.encode(enc);
        let planes = self.regs.chunks_exact(ROW);
        enc.put_u32_sparse_pieces(
            n * planes.len(),
            planes.map(|plane| SparsePiece::Words(&plane[..n])),
        );
    }

    /// Rebuilds lane state written by [`LaneState::encode_state`].
    pub(crate) fn restore_state(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let warp_size = dec.take_u32()?;
        if warp_size == 0 || warp_size as usize > ROW {
            return Err(CodecError::BadTag {
                what: "lane-state warp size",
                tag: u64::from(warp_size),
            });
        }
        // Registers are named by a `u8`, so no file is wider than 256.
        let regs_stride = dec.take_u32()?;
        if regs_stride > 256 {
            return Err(CodecError::BadTag {
                what: "lane-state register stride",
                tag: u64::from(regs_stride),
            });
        }
        let populated = dec.take_u64()?;
        let exited = dec.take_u64()?;
        let spawned = dec.take_u64()?;
        let has_slot = dec.take_u64()?;
        // A lane bit at or past the warp size names a lane with no column.
        let lanes = u64::MAX >> (64 - warp_size);
        for mask in [populated, exited, spawned, has_slot] {
            if mask & !lanes != 0 {
                return Err(CodecError::BadTag {
                    what: "lane-state lane mask",
                    tag: mask,
                });
            }
        }
        let n = warp_size as usize;
        let tid = Vec::<u32>::decode(dec)?;
        let mut pred_bytes = Vec::with_capacity(n);
        for _ in 0..n {
            pred_bytes.push(dec.take_u8()?);
        }
        let spawn_mem_addr = Vec::<u32>::decode(dec)?;
        let state_slot = Vec::<u32>::decode(dec)?;
        let packed = dec.take_u32_sparse(n * regs_stride as usize)?;
        for (what, len, want) in [
            ("lane-state tids", tid.len(), n),
            ("lane-state spawn addrs", spawn_mem_addr.len(), n),
            ("lane-state slots", state_slot.len(), n),
            (
                "lane-state register block",
                packed.len(),
                n * regs_stride as usize,
            ),
        ] {
            if len != want {
                return Err(CodecError::BadTag {
                    what,
                    tag: len as u64,
                });
            }
        }
        let mut regs = vec![0; ROW * regs_stride as usize];
        for (plane, words) in regs.chunks_exact_mut(ROW).zip(packed.chunks_exact(n)) {
            plane[..n].copy_from_slice(words);
        }
        let mut s = LaneState {
            warp_size,
            regs_stride,
            populated,
            exited,
            spawned,
            has_slot,
            tid,
            pred_planes: [0; 8],
            spawn_mem_addr,
            state_slot,
            regs,
        };
        for (lane, &byte) in pred_bytes.iter().enumerate() {
            s.scatter_preds(lane, byte);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn partial_warp() -> LaneState {
        // 3 threads in a 4-lane warp; lane 3 unpopulated.
        let mut l = LaneState::admit(4, 2, 0, 3);
        for lane in 0..3 {
            l.set_reg(lane, Reg(1), lane as u32 * 10);
        }
        l
    }

    #[test]
    fn lane_masks_track_population_and_exits() {
        let mut l = partial_warp();
        assert_eq!(l.populated_mask(), 0b0111);
        assert_eq!(l.live_mask(), 0b0111);
        l.exit_lanes(0b1010); // lane 3 unpopulated: must not leak in
        assert_eq!(l.live_mask(), 0b0101);
        assert!(l.is_exited(1));
        assert!(!l.is_exited(0));
        assert!(l.is_populated(1), "exited lanes stay populated");
    }

    #[test]
    fn lane_registers_grow_stride_per_warp() {
        let mut l = partial_warp();
        assert_eq!(l.reg(0, Reg(1)), 0);
        assert_eq!(l.reg(2, Reg(1)), 20);
        assert_eq!(l.reg(2, Reg(7)), 0, "beyond the file reads zero");
        l.set_reg(1, Reg(7), 99); // forces a stride re-pack
        assert_eq!(l.reg(1, Reg(7)), 99);
        assert_eq!(l.reg(2, Reg(1)), 20, "re-pack preserved other lanes");
        assert_eq!(l.reg(0, Reg(7)), 0);
    }

    /// `reg_n`/`set_reg_n` at width `N` against `reg`/`set_reg` one
    /// register at a time, from register `first` of a 3-register file.
    fn check_register_run<const N: usize>(first: u8, values: [u32; N]) {
        let mut wide = LaneState::admit(4, 3, 0, 3);
        for lane in 0..3 {
            for r in 0..3 {
                wide.set_reg(lane, Reg(r), 100 * lane as u32 + u32::from(r) + 1);
            }
        }
        let mut single = wide.clone();
        let at = |i: usize| Reg(first.wrapping_add(i as u8));

        assert_eq!(
            wide.reg_n::<N>(2, Reg(first)),
            std::array::from_fn(|i| single.reg(2, at(i))),
            "{first}+{N}"
        );
        wide.set_reg_n(1, Reg(first), values);
        for (i, &v) in values.iter().enumerate() {
            single.set_reg(1, at(i), v);
        }
        assert_eq!(wide.regs_stride, single.regs_stride, "{first}+{N}");
        assert_eq!(wide.regs, single.regs, "{first}+{N}");
    }

    proptest! {
        /// A register run is its registers one by one, at both widths the
        /// ISA has: inside the declared file, crossing its end (reads
        /// beyond it are 0, a write widens it for the whole warp) and
        /// wrapping at register 255.
        #[test]
        fn register_runs_equal_single_register_accesses(
            first in any::<u8>(),
            near in 0u8..3,
            values in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            // Half the cases start within a run's length of the file's end
            // or of register 255, where the two forms could differ.
            let first = match near {
                0 => first % 6,
                1 => 250 + first % 6,
                _ => first,
            };
            check_register_run::<1>(first, [values.0]);
            check_register_run::<4>(first, [values.0, values.1, values.2, values.3]);
        }
    }

    /// One warp instruction on every lane of a warp.
    #[derive(Debug, Clone, Copy)]
    enum WarpOp {
        Alu(AluOp),
        Setp(CmpOp),
        Selp(Pred),
        Mov,
    }

    /// A warp of `warp_size` lanes with its first `count` populated, over
    /// a 4-register file; every lane's registers and predicates (the
    /// unpopulated lanes' too) filled from `seed`.
    fn seeded_warp(warp_size: u32, count: u32, seed: u64) -> LaneState {
        let mut x = seed | 1;
        let mut next = || {
            // xorshift64: small values and float bit patterns alike.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as u32
        };
        let mut l = LaneState::admit(warp_size, 4, 0, count);
        for lane in 0..warp_size as usize {
            for r in 0..4 {
                let v = next();
                l.set_reg(lane, Reg(r), if v & 3 == 0 { v % 40 } else { v });
            }
            for p in 0..8 {
                l.set_pred(lane, Pred(p), next() & 1 == 1);
            }
        }
        l
    }

    /// `op` issued under `mask` through the warp path against the same
    /// instruction run one active lane at a time through
    /// `operand`/`set_reg`/`set_pred` — every register plane, the file's
    /// width and every predicate plane — and every lane outside the issue
    /// left as it was.
    fn check_warp_op(
        l: &LaneState,
        mask: u64,
        op: WarpOp,
        d: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
    ) {
        let active = mask & l.populated_mask();
        let mut warp = l.clone();
        let mut lane_by_lane = l.clone();
        let p = Pred(3);
        match op {
            WarpOp::Alu(f) => warp.alu_warp(mask, f, d, a, b, c),
            WarpOp::Setp(cmp) => warp.setp_warp(mask, cmp, p, a, b),
            WarpOp::Selp(q) => warp.selp_warp(mask, d, a, b, q),
            WarpOp::Mov => warp.mov_warp(mask, d, a),
        }
        for lane in (0..l.warp_size() as usize).filter(|&i| active >> i & 1 == 1) {
            let (x, y, z) = (l.operand(lane, a), l.operand(lane, b), l.operand(lane, c));
            match op {
                WarpOp::Alu(f) => lane_by_lane.set_reg(lane, d, eval_alu(f, x, y, z)),
                WarpOp::Setp(cmp) => lane_by_lane.set_pred(lane, p, eval_cmp(cmp, x, y)),
                WarpOp::Selp(q) => {
                    lane_by_lane.set_reg(lane, d, if l.pred(lane, q) { x } else { y });
                }
                WarpOp::Mov => lane_by_lane.set_reg(lane, d, x),
            }
        }
        let what = format!(
            "{op:?} {d:?} <- {a:?} {b:?} {c:?} on lanes {active:#x} of {} ({:#x} populated)",
            l.warp_size(),
            l.populated_mask()
        );
        for lane in (0..l.warp_size() as usize).filter(|&i| active >> i & 1 == 0) {
            for r in 0..=255 {
                assert_eq!(
                    warp.reg(lane, Reg(r)),
                    l.reg(lane, Reg(r)),
                    "{what}: r{r} of idle lane {lane}"
                );
            }
            for q in 0..8 {
                assert_eq!(
                    warp.pred(lane, Pred(q)),
                    l.pred(lane, Pred(q)),
                    "{what}: p{q} of idle lane {lane}"
                );
            }
        }
        assert_eq!(warp.regs_stride, lane_by_lane.regs_stride, "{what}");
        assert_eq!(warp.regs, lane_by_lane.regs, "{what}");
        assert_eq!(warp.pred_planes, lane_by_lane.pred_planes, "{what}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// A warp op under any issue mask — none, one lane, a random set,
        /// every lane — on a full or partially populated warp of 1, 4, 17
        /// or 32 lanes (the padding lanes of a narrow warp's rows read and
        /// dropped), equals
        /// the instruction run lane by lane over the active lanes, for
        /// every ALU operation and comparison, `selp` and `mov`: operands
        /// an in-file register, an immediate or a register past the file
        /// (reads 0), and a destination past the file (widens it) or
        /// naming a source.
        #[test]
        fn a_warp_op_under_any_lane_mask_equals_the_same_op_lane_by_lane(
            seed in any::<u64>(),
            kinds in (0u8..6, 0u8..6, 0u8..6),
            dst in 0u8..8,
            imm in any::<u32>(),
            mask_kind in 0u8..4,
            random_mask in any::<u64>(),
            count in 1u32..=32,
        ) {
            let operand = |k: u8| match k {
                0..=3 => Operand::Reg(Reg(k)),
                4 => Operand::Reg(Reg(200)),
                _ => Operand::Imm(imm),
            };
            let (a, b, c) = (operand(kinds.0), operand(kinds.1), operand(kinds.2));
            let d = match (dst, [a, b, c].get(usize::from(dst).wrapping_sub(5))) {
                (0..=3, _) => Reg(dst),
                (4, _) => Reg(6),
                (_, Some(Operand::Reg(r))) => *r,
                _ => Reg(0),
            };
            let ops = AluOp::ALL
                .map(WarpOp::Alu)
                .into_iter()
                .chain(CmpOp::ALL.map(WarpOp::Setp))
                .chain([WarpOp::Selp(Pred(seed as u8 & 7)), WarpOp::Mov]);
            for warp_size in [1, 4, 17, 32] {
                let count = 1 + (count - 1) % warp_size;
                let mask = match mask_kind {
                    0 => 0,
                    1 => 1 << (random_mask % u64::from(warp_size)),
                    2 => random_mask,
                    _ => !0,
                };
                let l = seeded_warp(warp_size, count, seed);
                for op in ops.clone() {
                    check_warp_op(&l, mask, op, d, a, b, c);
                }
            }
        }
    }

    #[test]
    fn lane_state_slots_are_taken_once() {
        let mut l = LaneState::admit(4, 1, 0, 2);
        l.set_state_slot(1, 0x40);
        assert_eq!(l.state_slot(0), None);
        assert_eq!(l.take_state_slot(1), Some(0x40));
        assert_eq!(l.take_state_slot(1), None, "slot taken once");
    }

    #[test]
    fn admit_builds_fresh_lanes_with_consecutive_tids() {
        for (warp_size, count) in [(4u32, 3u32), (4, 4), (32, 32)] {
            let l = LaneState::admit(warp_size, 5, 100, count);
            let populated = (1u64 << count) - 1;
            assert_eq!(l.populated_mask(), populated, "{count} of {warp_size}");
            assert_eq!(l.live_mask(), populated);
            for lane in 0..count as usize {
                assert_eq!(l.tid(lane), 100 + lane as u32);
                assert_eq!(l.state_slot(lane), None);
                assert_eq!(l.spawn_mem_addr(lane), 0);
                assert!(!l.spawned_child(lane));
                assert!((0..5).all(|r| l.reg(lane, Reg(r)) == 0));
                assert!((0..8).all(|p| !l.pred(lane, Pred(p))));
            }
        }
    }

    #[test]
    fn lane_state_codec_round_trips() {
        let mut l = partial_warp();
        l.exit_lanes(0b0010);
        l.set_spawned_child(0);
        l.set_spawn_mem_addr(2, 0x80);
        l.set_pred(0, Pred(2), true);
        let mut enc = Encoder::new();
        l.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let r = LaneState::restore_state(&mut dec).expect("round-trips");
        assert!(dec.is_finished());
        assert_eq!(r.populated_mask(), l.populated_mask());
        assert_eq!(r.live_mask(), l.live_mask());
        assert!(r.spawned_child(0));
        assert_eq!(r.spawn_mem_addr(2), 0x80);
        assert!(r.pred(0, Pred(2)));
        assert_eq!(r.reg(2, Reg(1)), 20);
    }

    #[test]
    fn lane_state_codec_rejects_bad_shapes() {
        let mut enc = Encoder::new();
        partial_warp().encode_state(&mut enc);
        let good = enc.into_bytes();
        // Corrupt the warp size (first u32) to something out of range.
        let mut bad = good.clone();
        bad[0] = 0xFF;
        let mut dec = Decoder::new(&bad);
        assert!(LaneState::restore_state(&mut dec).is_err());
        // A register stride no program can name would size the register
        // block from the input: refused before the block is read.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&257u32.to_le_bytes());
        assert!(matches!(
            LaneState::restore_state(&mut Decoder::new(&bad)),
            Err(CodecError::BadTag {
                what: "lane-state register stride",
                ..
            })
        ));
        // A register block longer than warp size x stride is refused by
        // its declared length (4 lanes x 2 registers here).
        let block = good.len() - (8 + 8 + 3 * 4);
        let mut bad = good.clone();
        bad[block..block + 8].copy_from_slice(&9u64.to_le_bytes());
        assert!(matches!(
            LaneState::restore_state(&mut Decoder::new(&bad)),
            Err(CodecError::BadLength { len: 9, .. })
        ));
        // Truncation is also an error, not a partial decode.
        let mut dec = Decoder::new(&good[..good.len() - 3]);
        assert!(LaneState::restore_state(&mut dec).is_err());
    }

    /// A lane bit at or past the warp size would index past every lane
    /// array on the next warp op: each of the four masks refuses one.
    #[test]
    fn lane_state_codec_rejects_masks_wider_than_the_warp() {
        let mut enc = Encoder::new();
        partial_warp().encode_state(&mut enc);
        let good = enc.into_bytes();
        // The masks follow the warp size and the register stride.
        for mask in 0..4 {
            let at = 8 + 8 * mask;
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&0b1_0000_0111u64.to_le_bytes());
            assert!(
                matches!(
                    LaneState::restore_state(&mut Decoder::new(&bad)),
                    Err(CodecError::BadTag {
                        what: "lane-state lane mask",
                        tag: 0b1_0000_0111,
                    })
                ),
                "mask {mask}"
            );
        }
        // Every lane of a 32-lane warp is in range.
        let mut enc = Encoder::new();
        LaneState::admit(32, 1, 0, 32).encode_state(&mut enc);
        let full = LaneState::restore_state(&mut Decoder::new(&enc.into_bytes()));
        assert_eq!(
            full.expect("restores").populated_mask(),
            u64::from(u32::MAX)
        );
    }
}
