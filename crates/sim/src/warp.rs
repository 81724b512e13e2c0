//! Warps and the PDOM reconvergence stack.

use crate::stats::Stall;
use crate::thread::LaneState;
use simt_isa::codec::{Codec, CodecError, Decoder, Encoder};
use simt_isa::RECONVERGE_AT_EXIT;

simt_isa::record! {
    /// One entry of the PDOM reconvergence stack.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct StackEntry {
        /// Next PC for the lanes of this entry.
        pub pc: usize,
        /// Lane mask (bit `i` = lane `i` participates).
        pub mask: u64,
        /// PC at which this entry pops (merges into the entry below), or
        /// [`RECONVERGE_AT_EXIT`].
        pub rpc: usize,
    }
}

/// Lifecycle state of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Has lanes left to run.
    Active,
    /// All lanes retired; resources can be reclaimed.
    Finished,
}

/// A warp: up to the machine's warp width of threads executing in
/// lockstep under a PDOM reconvergence stack.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp id within its SM.
    pub id: usize,
    /// Per-lane thread state, struct-of-arrays (unpopulated lanes of
    /// partial warps are absent from the populated mask).
    pub lanes: LaneState,
    /// The PDOM stack's top entry, held inline so the every-issue
    /// `current`/`set_pc` pair touches no heap line; `None` once the stack
    /// is empty.
    top: Option<StackEntry>,
    /// The entries under `top`, bottom first (allocated on the first
    /// divergence; empty whenever `top` is `None`).
    below: Vec<StackEntry>,
    /// Earliest cycle at which this warp may issue again.
    pub ready_at: u64,
    /// What the warp waits on until `ready_at` — off-chip memory, a full
    /// MSHR table, its own latency, or a `spawn` back-off — set where
    /// `ready_at` is, and charged with an idle SM's cycles while this warp
    /// is the first to wake.
    pub wait: Stall,
    /// Thread block this warp belongs to (launch warps under block
    /// scheduling).
    pub block_id: Option<usize>,
    /// Formation block to release once the warp consumed its metadata
    /// (dynamically created warps only).
    pub formation_block: Option<u32>,
    /// Scratch block held for branch-instead-of-spawn elisions
    /// (`SpawnPolicy::OnDivergence`); released when the warp retires.
    pub elision_block: Option<u32>,
    /// Whether this warp was created by the warp-formation unit.
    pub is_dynamic: bool,
}

impl Warp {
    /// The causes a warp can wait on, in the order a snapshot tags them.
    const WAITS: [Stall; 4] = [
        Stall::Offchip,
        Stall::MshrFull,
        Stall::Latency,
        Stall::SpawnBackoff,
    ];

    /// Creates a warp over prebuilt lane state, its populated lanes
    /// starting at `entry_pc`.
    ///
    /// # Panics
    ///
    /// Panics if no lane is populated.
    pub fn from_lanes(id: usize, entry_pc: usize, lanes: LaneState) -> Self {
        let mask = lanes.populated_mask();
        assert!(mask != 0, "a warp needs at least one thread");
        Warp {
            id,
            lanes,
            top: Some(StackEntry {
                pc: entry_pc,
                mask,
                rpc: RECONVERGE_AT_EXIT,
            }),
            below: Vec::new(),
            ready_at: 0,
            wait: Stall::Latency,
            block_id: None,
            formation_block: None,
            elision_block: None,
            is_dynamic: false,
        }
    }

    /// Number of populated lanes (exited or not).
    pub fn population(&self) -> u32 {
        self.lanes.populated_mask().count_ones()
    }

    /// Pops exhausted/reconverged stack entries; returns the live top.
    #[inline]
    fn sync_stack(&mut self) -> Option<&mut StackEntry> {
        while let Some(top) = self.top {
            if top.mask == 0 || top.pc == top.rpc {
                self.top = self.below.pop();
            } else {
                break;
            }
        }
        self.top.as_mut()
    }

    /// Pushes `e` over the current top.
    fn push(&mut self, e: StackEntry) {
        self.below.extend(self.top.replace(e));
    }

    /// The entry that will issue next, after stack maintenance.
    pub fn current(&mut self) -> Option<StackEntry> {
        self.sync_stack().map(|e| *e)
    }

    /// Whether all lanes have retired.
    pub fn is_finished(&mut self) -> bool {
        self.sync_stack().is_none()
    }

    /// Lifecycle state (convenience over [`Warp::is_finished`]).
    pub fn state(&mut self) -> WarpState {
        if self.is_finished() {
            WarpState::Finished
        } else {
            WarpState::Active
        }
    }

    /// Number of active lanes at the current top of stack.
    pub fn active_lanes(&mut self) -> u32 {
        self.current().map_or(0, |e| e.mask.count_ones())
    }

    /// Advances the top entry to `pc`.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty (the warp already finished).
    // Documented panic contract: callers operate on unfinished warps.
    #[allow(clippy::expect_used)]
    pub fn set_pc(&mut self, pc: usize) {
        self.sync_stack().expect("set_pc on finished warp").pc = pc;
    }

    /// Applies a divergent branch outcome at the current top entry.
    ///
    /// `taken` and `not_taken` partition the entry's mask; `rpc` is the
    /// branch's immediate post-dominator. Pushes the not-taken side first
    /// so the taken side executes first (order does not affect
    /// correctness).
    ///
    /// # Panics
    ///
    /// Panics if the masks do not partition the current entry's mask.
    // Documented panic contract: callers operate on unfinished warps.
    #[allow(clippy::expect_used)]
    pub fn diverge(
        &mut self,
        taken: u64,
        not_taken: u64,
        target: usize,
        fallthrough: usize,
        rpc: usize,
    ) {
        let top = self.sync_stack().expect("diverge on finished warp");
        assert_eq!(
            taken | not_taken,
            top.mask,
            "divergence masks must partition"
        );
        assert_eq!(taken & not_taken, 0, "divergence masks must be disjoint");
        let rpc = if rpc == RECONVERGE_AT_EXIT {
            // No rejoin point before exit: both sides inherit the parent's
            // reconvergence PC and the parent entry is consumed.
            let parent_rpc = top.rpc;
            self.top = self.below.pop();
            parent_rpc
        } else {
            // Parent becomes the reconvergence entry.
            top.pc = rpc;
            rpc
        };
        self.push(StackEntry {
            pc: fallthrough,
            mask: not_taken,
            rpc,
        });
        self.push(StackEntry {
            pc: target,
            mask: taken,
            rpc,
        });
    }

    /// Retires the lanes in `mask`: marks their threads exited and removes
    /// them from every stack entry.
    pub fn exit_lanes(&mut self, mask: u64) {
        self.lanes.exit_lanes(mask);
        for e in self.top.iter_mut().chain(&mut self.below) {
            e.mask &= !mask;
        }
    }

    /// Current stack depth (diagnostics).
    pub fn stack_depth(&self) -> usize {
        self.below.len() + usize::from(self.top.is_some())
    }

    /// Serializes the warp — lanes, reconvergence stack, timing, and
    /// book-keeping — for a simulator checkpoint.
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        enc.put_usize(self.id);
        // The width again, ahead of the lane block that carries it.
        enc.put_u32(self.lanes.warp_size());
        self.lanes.encode_state(enc);
        // Bottom to top: the entries below, then the inline top.
        enc.put_usize(self.stack_depth());
        for e in self.below.iter().chain(&self.top) {
            e.encode(enc);
        }
        enc.put_u64(self.ready_at);
        let wait = Warp::WAITS.iter().position(|&w| w == self.wait);
        enc.put_u8(wait.unwrap_or(Warp::WAITS.len()) as u8);
        self.block_id.encode(enc);
        self.formation_block.encode(enc);
        self.elision_block.encode(enc);
        enc.put_bool(self.is_dynamic);
    }

    /// Rebuilds a warp from bytes written by [`Warp::encode_state`],
    /// refusing one whose width is not `warp_size`, the machine's.
    pub(crate) fn restore_state(dec: &mut Decoder<'_>, warp_size: u32) -> Result<Self, CodecError> {
        let id = dec.take_usize()?;
        let width = dec.take_u32()?;
        let lanes = LaneState::restore_state(dec)?;
        for tag in [width, lanes.warp_size()] {
            if tag != warp_size {
                return Err(CodecError::BadTag {
                    what: "warp width",
                    tag: u64::from(tag),
                });
            }
        }
        let mut below = Vec::<StackEntry>::decode(dec)?;
        let ready_at = dec.take_u64()?;
        let tag = dec.take_u8()?;
        let Some(&wait) = Warp::WAITS.get(usize::from(tag)) else {
            return Err(CodecError::BadTag {
                what: "warp wait cause",
                tag: u64::from(tag),
            });
        };
        Ok(Warp {
            id,
            lanes,
            top: below.pop(),
            below,
            ready_at,
            wait,
            block_id: Codec::decode(dec)?,
            formation_block: Codec::decode(dec)?,
            elision_block: Codec::decode(dec)?,
            is_dynamic: dec.take_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp4(pc: usize) -> Warp {
        Warp::from_lanes(0, pc, LaneState::admit(4, 8, 0, 4))
    }

    #[test]
    fn fresh_warp_has_full_mask() {
        let mut w = warp4(5);
        let e = w.current().unwrap();
        assert_eq!(e.pc, 5);
        assert_eq!(e.mask, 0b1111);
        assert_eq!(e.rpc, RECONVERGE_AT_EXIT);
        assert_eq!(w.active_lanes(), 4);
    }

    #[test]
    fn partial_warp_mask_covers_population() {
        let mut w = Warp::from_lanes(0, 0, LaneState::admit(4, 8, 0, 2));
        assert_eq!(w.current().unwrap().mask, 0b0011);
        assert_eq!(w.population(), 2);
    }

    #[test]
    fn diverge_executes_taken_side_first_then_reconverges() {
        let mut w = warp4(1);
        // Branch at pc 1 to target 10, fallthrough 2, reconverging at 20.
        w.diverge(0b0011, 0b1100, 10, 2, 20);
        let e = w.current().unwrap();
        assert_eq!((e.pc, e.mask), (10, 0b0011));
        // Taken side reaches the reconvergence point.
        w.set_pc(20);
        let e = w.current().unwrap();
        assert_eq!((e.pc, e.mask), (2, 0b1100), "not-taken side runs next");
        w.set_pc(20);
        let e = w.current().unwrap();
        assert_eq!((e.pc, e.mask), (20, 0b1111), "full mask restored at rpc");
    }

    #[test]
    fn diverge_at_exit_sentinel_splits_without_reconvergence_entry() {
        let mut w = warp4(0);
        let depth0 = w.stack_depth();
        w.diverge(0b0001, 0b1110, 7, 1, RECONVERGE_AT_EXIT);
        assert_eq!(w.stack_depth(), depth0 + 1, "parent consumed, two pushed");
        // Exit the taken side; the not-taken side takes over.
        w.exit_lanes(0b0001);
        let e = w.current().unwrap();
        assert_eq!((e.pc, e.mask), (1, 0b1110));
        w.exit_lanes(0b1110);
        assert!(w.is_finished());
    }

    #[test]
    fn exit_removes_lanes_from_nested_entries() {
        let mut w = warp4(0);
        w.diverge(0b0011, 0b1100, 10, 1, 20);
        // Lane 0 exits while inside the taken side.
        w.exit_lanes(0b0001);
        let e = w.current().unwrap();
        assert_eq!(e.mask, 0b0010);
        w.set_pc(20); // taken side done
        w.set_pc(20); // not-taken side done
        let e = w.current().unwrap();
        assert_eq!(e.mask, 0b1110, "reconverged without the exited lane");
    }

    #[test]
    fn all_lanes_exiting_finishes_warp() {
        let mut w = warp4(0);
        assert_eq!(w.state(), WarpState::Active);
        w.exit_lanes(0b1111);
        assert_eq!(w.state(), WarpState::Finished);
        assert_eq!(w.active_lanes(), 0);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn bad_divergence_masks_panic() {
        let mut w = warp4(0);
        w.diverge(0b0001, 0b0010, 1, 2, 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random PDOM exercise: repeatedly either diverge the top
        /// entry, advance it to its reconvergence point, or exit random
        /// lanes. Invariants: the active mask never contains exited or
        /// unpopulated lanes, and exiting everything finishes the warp.
        #[derive(Debug, Clone)]
        enum Action {
            Diverge { split: u64, rpc_offset: usize },
            Reconverge,
            Exit { lanes: u64 },
        }

        fn arb_action() -> impl Strategy<Value = Action> {
            prop_oneof![
                (any::<u64>(), 1usize..50)
                    .prop_map(|(split, rpc_offset)| Action::Diverge { split, rpc_offset }),
                Just(Action::Reconverge),
                any::<u64>().prop_map(|lanes| Action::Exit { lanes }),
            ]
        }

        proptest! {
            #[test]
            fn pdom_stack_invariants_hold(actions in proptest::collection::vec(arb_action(), 1..40)) {
                let mut w = Warp::from_lanes(0, 100, LaneState::admit(8, 4, 0, 8));
                let populated = 0xFFu64;
                let mut next_rpc = 1000usize;
                for a in actions {
                    let Some(top) = w.current() else { break };
                    // Invariant: active lanes are populated and alive.
                    let alive: u64 = w.lanes.live_mask();
                    prop_assert_eq!(top.mask & !populated, 0);
                    prop_assert_eq!(top.mask & !alive, 0, "active lane already exited");
                    match a {
                        Action::Diverge { split, rpc_offset } => {
                            let taken = top.mask & split;
                            let not_taken = top.mask & !split;
                            if taken == 0 || not_taken == 0 {
                                continue;
                            }
                            next_rpc += rpc_offset;
                            w.diverge(taken, not_taken, top.pc + 1, top.pc + 2, next_rpc);
                        }
                        Action::Reconverge => {
                            if top.rpc != simt_isa::RECONVERGE_AT_EXIT {
                                w.set_pc(top.rpc);
                            }
                        }
                        Action::Exit { lanes } => {
                            w.exit_lanes(lanes & top.mask);
                        }
                    }
                }
                // Drain: exit everything; the warp must finish.
                w.exit_lanes(populated);
                prop_assert!(w.is_finished());
                prop_assert_eq!(w.active_lanes(), 0);
            }

            /// The inline-top stack against the plain `Vec<StackEntry>`
            /// it replaced, lazy pops included: the same current entry
            /// after every action, and the same checkpoint bytes.
            #[test]
            fn inline_top_matches_a_vec_stack(actions in proptest::collection::vec(arb_action(), 1..40)) {
                let lanes = LaneState::admit(8, 4, 0, 8);
                let mut w = Warp::from_lanes(3, 100, lanes.clone());
                let mut model = VecStack::new(100, 0xFF);
                let mut next_rpc = 1000usize;
                for a in actions {
                    prop_assert_eq!(w.current(), model.current());
                    let Some(top) = model.current() else { break };
                    match a {
                        Action::Diverge { split, rpc_offset } => {
                            let (taken, not_taken) = (top.mask & split, top.mask & !split);
                            if taken == 0 || not_taken == 0 {
                                continue;
                            }
                            // Every third divergence has no rejoin point.
                            next_rpc += rpc_offset;
                            let rpc = if rpc_offset % 3 == 0 { RECONVERGE_AT_EXIT } else { next_rpc };
                            w.diverge(taken, not_taken, top.pc + 1, top.pc + 2, rpc);
                            model.diverge(taken, not_taken, top.pc + 1, top.pc + 2, rpc);
                        }
                        Action::Reconverge => {
                            let pc = if top.rpc == RECONVERGE_AT_EXIT { top.pc + 1 } else { top.rpc };
                            w.set_pc(pc);
                            model.set_pc(pc);
                        }
                        Action::Exit { lanes } => {
                            w.exit_lanes(lanes & top.mask);
                            model.exit_lanes(lanes & top.mask);
                        }
                    }
                    // Not synced first: a checkpoint sees lazy entries.
                    prop_assert_eq!(w.stack_depth(), model.0.len());
                    prop_assert_eq!(encoded(&w), model.encoded(&w));
                }
            }

            #[test]
            fn full_reconvergence_restores_union_mask(split in 1u64..255) {
                let mut w = Warp::from_lanes(0, 0, LaneState::admit(8, 4, 0, 8));
                let taken = split & 0xFF;
                let not_taken = 0xFF & !split;
                prop_assume!(taken != 0 && not_taken != 0);
                w.diverge(taken, not_taken, 10, 1, 20);
                // Run both sides to the reconvergence point.
                w.set_pc(20);
                w.set_pc(20);
                let top = w.current().unwrap();
                prop_assert_eq!(top.mask, 0xFF);
                prop_assert_eq!(top.pc, 20);
            }
        }
    }

    /// The stack as it was held before the top moved inline — the
    /// reference the inline-top [`Warp`] is checked against.
    struct VecStack(Vec<StackEntry>);

    impl VecStack {
        fn new(pc: usize, mask: u64) -> Self {
            VecStack(vec![StackEntry {
                pc,
                mask,
                rpc: RECONVERGE_AT_EXIT,
            }])
        }

        fn current(&mut self) -> Option<StackEntry> {
            while let Some(top) = self.0.last() {
                if top.mask == 0 || top.pc == top.rpc {
                    self.0.pop();
                } else {
                    break;
                }
            }
            self.0.last().copied()
        }

        fn set_pc(&mut self, pc: usize) {
            self.current();
            self.0.last_mut().unwrap().pc = pc;
        }

        fn diverge(&mut self, taken: u64, not_taken: u64, target: usize, fall: usize, rpc: usize) {
            let top = self.current().unwrap();
            let rpc = if rpc == RECONVERGE_AT_EXIT {
                self.0.pop();
                top.rpc
            } else {
                self.0.last_mut().unwrap().pc = rpc;
                rpc
            };
            for (pc, mask) in [(fall, not_taken), (target, taken)] {
                self.0.push(StackEntry { pc, mask, rpc });
            }
        }

        fn exit_lanes(&mut self, mask: u64) {
            for e in &mut self.0 {
                e.mask &= !mask;
            }
        }

        /// `w`'s checkpoint bytes with this stack in place of its own.
        fn encoded(&self, w: &Warp) -> Vec<u8> {
            let mut enc = Encoder::new();
            enc.put_usize(w.id);
            enc.put_u32(w.lanes.warp_size());
            w.lanes.encode_state(&mut enc);
            enc.put_usize(self.0.len());
            for e in &self.0 {
                enc.put_usize(e.pc);
                enc.put_u64(e.mask);
                enc.put_usize(e.rpc);
            }
            enc.put_u64(w.ready_at);
            enc.put_u8(2);
            for _ in 0..3 {
                enc.put_bool(false);
            }
            enc.put_bool(w.is_dynamic);
            enc.into_bytes()
        }
    }

    fn encoded(w: &Warp) -> Vec<u8> {
        let mut enc = Encoder::new();
        w.encode_state(&mut enc);
        enc.into_bytes()
    }

    /// Checkpoint bytes at stack depths 0, 1 and 3 are the bytes of the
    /// `Vec` stack, and restoring them rebuilds the same warp.
    #[test]
    fn checkpoint_bytes_equal_the_vec_stacks_at_depth_0_1_and_3() {
        let mut w = warp4(5);
        let mut model = VecStack::new(5, 0b1111);
        let check = |w: &Warp, model: &VecStack, depth: usize| {
            assert_eq!(w.stack_depth(), depth);
            let bytes = encoded(w);
            assert_eq!(bytes, model.encoded(w), "depth {depth}");
            let mut restored = Warp::restore_state(&mut Decoder::new(&bytes), 4).unwrap();
            assert_eq!(encoded(&restored), bytes, "depth {depth} round-trips");
            assert_eq!(restored.current(), w.clone().current());
        };
        check(&w, &model, 1);
        w.diverge(0b0011, 0b1100, 10, 6, 20);
        model.diverge(0b0011, 0b1100, 10, 6, 20);
        check(&w, &model, 3);
        w.exit_lanes(0b1111);
        model.exit_lanes(0b1111);
        check(&w, &model, 3);
        assert!(w.is_finished());
        assert!(model.current().is_none());
        check(&w, &model, 0);
    }

    #[test]
    fn nested_divergence_unwinds_in_order() {
        let mut w = warp4(0);
        w.diverge(0b0011, 0b1100, 10, 1, 20); // outer
        w.diverge(0b0001, 0b0010, 12, 11, 15); // inner, within taken side
        let e = w.current().unwrap();
        assert_eq!((e.pc, e.mask), (12, 0b0001));
        w.set_pc(15);
        let e = w.current().unwrap();
        assert_eq!((e.pc, e.mask), (11, 0b0010));
        w.set_pc(15);
        let e = w.current().unwrap();
        assert_eq!((e.pc, e.mask), (15, 0b0011), "inner reconverged");
        w.set_pc(20);
        let e = w.current().unwrap();
        assert_eq!((e.pc, e.mask), (1, 0b1100), "outer not-taken side");
    }
}
