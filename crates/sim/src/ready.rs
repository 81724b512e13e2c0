//! The per-SM ready set: a dense array of wake cycles, one per warp slot.
//!
//! The issue stage wants the first warp at or cyclically after the
//! round-robin cursor whose `ready_at` has arrived. An SM holds at most a
//! few dozen warp slots (32 on the Table I machine), so the answer is one
//! pass over a `u64` per slot — a cache line or four, no heap, no bitset,
//! nothing to revalidate. Every writer of a warp's `ready_at` (commit, the
//! spawn stall, phase B's wake-ups) writes the slot's entry too, so the
//! array is always exact: entry `i` *is* warp `i`'s wake cycle, except that
//! a warp the scan found finished is parked at `u64::MAX` so it is not
//! looked at again before it is reaped.
//!
//! `Warp::ready_at` stays the serialized truth; the array is derived state,
//! rebuilt whenever warp slots shift (retirement compaction, checkpoint
//! restore) — rare events compared to cycles.

/// Wake cycle of every warp slot of one SM, in slot order.
#[derive(Debug, Default)]
pub(crate) struct ReadySet {
    /// `at[slot]` is the cycle the slot's warp may issue again;
    /// `u64::MAX` once the warp was found finished.
    at: Vec<u64>,
}

impl ReadySet {
    /// Appends the slot of a newly admitted warp, issuable from `at`.
    pub(crate) fn push(&mut self, at: u64) {
        self.at.push(at);
    }

    /// Records that `slot`'s warp may issue again at cycle `at`.
    #[inline]
    pub(crate) fn set(&mut self, slot: usize, at: u64) {
        self.at[slot] = at;
    }

    /// Parks `slot` for good: its warp has finished and only waits to be
    /// reaped.
    pub(crate) fn retire(&mut self, slot: usize) {
        self.at[slot] = u64::MAX;
    }

    /// First slot at or cyclically after `start` whose wake cycle is at
    /// or before `now` — the candidate a linear `(start + k) % n` scan
    /// over the warps would pick.
    #[inline]
    pub(crate) fn first_from(&self, start: usize, now: u64) -> Option<usize> {
        // The SM keeps its cursor below the slot count; a cursor past the
        // end scans from slot 0.
        let start = start.min(self.at.len());
        let (head, tail) = self.at.split_at(start);
        let due = |&at: &u64| at <= now;
        tail.iter()
            .position(due)
            .map(|i| start + i)
            .or_else(|| head.iter().position(due))
    }

    /// Rebuilds the array from the warps' wake cycles, in slot order —
    /// used after slot indices shift (warp retirement) or a checkpoint
    /// restore.
    pub(crate) fn rebuild(&mut self, ready_at: impl Iterator<Item = u64>) {
        self.at.clear();
        self.at.extend(ready_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan the wake array replaces, written out: warps in
    /// `(start + k) % n` order, first one due.
    fn linear_scan(at: &[u64], start: usize, now: u64) -> Option<usize> {
        let n = at.len();
        (0..n)
            .map(|k| (start + k) % n)
            .find(|&slot| at[slot] <= now)
    }

    fn set_of(at: &[u64]) -> ReadySet {
        let mut r = ReadySet::default();
        r.rebuild(at.iter().copied());
        r
    }

    #[test]
    fn rotation_order_matches_linear_scan() {
        // Slots 0, 2 and 5 are due at cycle 0; the others never.
        let mut r = set_of(&[0, 9, 0, 9, 9, 0]);
        assert_eq!(r.first_from(0, 0), Some(0));
        assert_eq!(r.first_from(1, 0), Some(2));
        assert_eq!(r.first_from(3, 0), Some(5));
        assert_eq!(r.first_from(6 % 6, 0), Some(0), "wraps like (rr + k) % n");
        r.retire(5);
        assert_eq!(r.first_from(3, 0), Some(0), "wraparound after removal");
        assert_eq!(r.first_from(3, u64::MAX - 1), Some(3), "everyone but 5");
    }

    #[test]
    fn slots_wake_at_their_cycle_and_phase_b_can_push_it_out() {
        let mut r = set_of(&[0; 4]);
        r.set(1, 10);
        for slot in [0, 2, 3] {
            r.retire(slot);
        }
        assert_eq!(r.first_from(0, 9), None);
        assert_eq!(r.first_from(0, 10), Some(1));
        // Issued at 4 with a floor of 5; phase B then found the data
        // arrives at 8.
        r.set(1, 5);
        r.set(1, 8);
        assert_eq!(r.first_from(2, 5), None, "woke too early");
        assert_eq!(r.first_from(2, 8), Some(1));
    }

    #[test]
    fn scan_covers_more_than_64_slots() {
        let mut at = vec![u64::MAX; 128];
        at[70] = 0;
        at[3] = 0;
        let mut r = set_of(&at);
        assert_eq!(r.first_from(4, 0), Some(70));
        assert_eq!(r.first_from(71, 0), Some(3));
        r.rebuild([9, 9, 0].into_iter());
        assert_eq!(r.first_from(0, 0), Some(2), "rebuilt to three slots");
        r.push(0);
        assert_eq!(r.first_from(3, 0), Some(3), "an admitted warp is due");
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A commit, a spawn stall or a phase-B wake-up.
        Set { slot: usize, at: u64 },
        /// The scan found the slot's warp finished.
        Retire { slot: usize },
        /// Admission.
        Push { at: u64 },
        /// The reap compacted this slot away (rebuild from survivors).
        Remove { slot: usize },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..200, 0u64..40).prop_map(|(slot, at)| Op::Set { slot, at }),
            (0usize..200, 0u64..40).prop_map(|(slot, at)| Op::Set { slot, at }),
            (0usize..200).prop_map(|slot| Op::Retire { slot }),
            (0u64..40).prop_map(|at| Op::Push { at }),
            (0usize..200).prop_map(|slot| Op::Remove { slot }),
        ]
    }

    proptest! {
        /// Whatever sequence of wake-ups, parks, admissions and reaps an
        /// SM performs, every cursor position and cycle picks the slot the
        /// literal `(rr + k) % n` scan picks.
        #[test]
        fn first_from_is_the_linear_scan(
            initial in proptest::collection::vec(0u64..40, 0..100),
            ops in proptest::collection::vec(arb_op(), 0..60),
        ) {
            let mut model = initial;
            let mut r = set_of(&model);
            for op in ops {
                match op {
                    Op::Set { slot, at } if !model.is_empty() => {
                        let slot = slot % model.len();
                        model[slot] = at;
                        r.set(slot, at);
                    }
                    Op::Retire { slot } if !model.is_empty() => {
                        let slot = slot % model.len();
                        model[slot] = u64::MAX;
                        r.retire(slot);
                    }
                    Op::Remove { slot } if !model.is_empty() => {
                        model.remove(slot % model.len());
                        r.rebuild(model.iter().copied());
                    }
                    Op::Push { at } => {
                        model.push(at);
                        r.push(at);
                    }
                    _ => {}
                }
                for now in [0, 7, 20, 39, u64::MAX - 1] {
                    for start in 0..model.len().max(1) {
                        prop_assert_eq!(
                            r.first_from(start, now),
                            linear_scan(&model, start, now)
                        );
                    }
                }
            }
        }
    }
}
