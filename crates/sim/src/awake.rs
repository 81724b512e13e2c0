//! The cycle loop's sets of SMs: which are awake, and which dispatch must
//! visit (DESIGN.md §13).
//!
//! On a mostly sleeping chip the per-cycle passes — dispatch and the walk
//! that steps the SMs — cost more in finding the SMs that have work than
//! in doing it, when each pass loads a field from every [`Sm`]. The loop instead keeps, beside the SMs, a copy of each one's
//! wake cycle and the set of SMs whose wake cycle has arrived, and walks
//! that set in SM-id order. An SM's wake cycle changes at exactly three
//! points, all in the loop: [`Sm::step`] (which ends a sleep and may start
//! one), a dispatch call that admits a warp ([`Sm::wake`]), and the end of
//! a run — so the copy is exact without reading the SMs back.
//!
//! Derived state, rebuilt at the top of every run: not serialized.

use crate::sm::Sm;

/// A set of SM ids over any number of SMs: one bit per SM in a word
/// array, walked in ascending id order.
#[derive(Debug, Default)]
pub(crate) struct SmSet {
    words: Vec<u64>,
}

impl SmSet {
    /// Makes this the set of all `n` SMs.
    pub(crate) fn fill(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n / 64, !0);
        if !n.is_multiple_of(64) {
            self.words.push((1 << (n % 64)) - 1);
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Words in the array: members `64 * w ..` live in word `w`.
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// The members in word `w`, as the word is now: a walk that removes
    /// only members it has passed, or changes nothing, may run over it.
    #[inline]
    pub(crate) fn members(&self, w: usize) -> Members {
        Members {
            bits: self.words[w],
            base: w * 64,
        }
    }

    /// The smallest member at or after `from`. Each call re-reads the
    /// words, so a walk `i = next(i)? + 1` may remove or add members as
    /// it goes and sees what it left behind it.
    #[inline]
    pub(crate) fn next(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

/// The members of one word of an [`SmSet`], lowest first.
pub(crate) struct Members {
    bits: u64,
    base: usize,
}

impl Iterator for Members {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let i = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

/// The SMs that step this cycle, and when each of the others wakes.
#[derive(Debug, Default)]
pub(crate) struct Awake {
    /// `{i : wake[i] <= now}` — exactly the SMs with `!Sm::asleep(now)`.
    set: SmSet,
    /// Each SM's [`Sm::wake_at`]: `0` while awake.
    wake: Vec<u64>,
    /// The earliest `wake[i]` of an SM outside `set` (`u64::MAX` when
    /// every SM is in it).
    next_wake: u64,
}

impl Awake {
    /// Starts a run at cycle `now` from each SM's [`Sm::wake_at`].
    pub(crate) fn reset(&mut self, wake: impl ExactSizeIterator<Item = u64>, now: u64) {
        self.set.fill(wake.len());
        self.wake.clear();
        self.wake.extend(wake);
        self.next_wake = 0;
        self.admit_due(now);
    }

    /// Brings in every SM whose wake cycle has arrived by `now` — called
    /// once at the top of each cycle, before anything reads the set.
    #[inline]
    pub(crate) fn admit_due(&mut self, now: u64) {
        if now >= self.next_wake {
            self.rescan(now);
        }
    }

    /// Puts each SM in or out of the set by its wake cycle, and finds the
    /// earliest wake among those left out.
    #[inline(never)]
    fn rescan(&mut self, now: u64) {
        self.next_wake = u64::MAX;
        for (i, &w) in self.wake.iter().enumerate() {
            if w <= now {
                self.set.insert(i);
            } else {
                self.set.remove(i);
                self.next_wake = self.next_wake.min(w);
            }
        }
    }

    /// Records SM `i`'s wake cycle `wake_at` after the loop stepped or
    /// woke it at cycle `now`: above `now` it sleeps and leaves the set,
    /// otherwise it is (or stays) in it.
    #[inline]
    pub(crate) fn note(&mut self, i: usize, wake_at: u64, now: u64) {
        let was = std::mem::replace(&mut self.wake[i], wake_at);
        if wake_at > now {
            self.set.remove(i);
            self.next_wake = self.next_wake.min(wake_at);
        } else if was > now {
            // Dispatch woke a sleeper early: it may have held the
            // earliest wake.
            self.set.insert(i);
            if was == self.next_wake {
                self.rescan(now);
            }
        }
    }

    /// The awake SMs, for a walk in SM-id order (see [`SmSet::members`]).
    pub(crate) fn set(&self) -> &SmSet {
        &self.set
    }

    /// The earliest cycle any SM must step: `now` or before while one is
    /// awake, else the first sleeper's wake cycle.
    pub(crate) fn earliest(&self) -> u64 {
        if self.set.is_empty() {
            self.next_wake
        } else {
            0
        }
    }

    /// Debug builds: the set, the kept wake cycles and `next_wake` agree
    /// with the SMs at cycle `now`.
    pub(crate) fn check(&self, sms: &[Sm], now: u64) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut next_wake = u64::MAX;
        for (i, sm) in sms.iter().enumerate() {
            debug_assert_eq!(self.wake[i], sm.wake_at(), "kept wake cycle of SM {i}");
            debug_assert_eq!(self.set.contains(i), !sm.asleep(now), "SM {i} at {now}");
            if sm.asleep(now) {
                next_wake = next_wake.min(sm.wake_at());
            }
        }
        debug_assert_eq!(self.next_wake, next_wake, "earliest wake at {now}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_spans_words_and_walks_in_order() {
        let mut s = SmSet::default();
        s.fill(70);
        assert_eq!(s.next(0), Some(0));
        assert_eq!(s.next(69), Some(69));
        assert_eq!(s.next(70), None);
        for i in 0..70 {
            if i != 3 && i != 64 && i != 69 {
                s.remove(i);
            }
        }
        let mut seen = Vec::new();
        let mut at = 0;
        while let Some(i) = s.next(at) {
            seen.push(i);
            at = i + 1;
        }
        assert_eq!(seen, [3, 64, 69]);
        let words: Vec<usize> = (0..s.words()).flat_map(|w| s.members(w)).collect();
        assert_eq!(words, seen);
        assert!(s.contains(64) && !s.contains(65) && !s.contains(700));
        for i in seen {
            s.remove(i);
        }
        assert!(s.is_empty());
        assert_eq!(s.next(0), None);
    }

    fn members(a: &Awake) -> Vec<usize> {
        (0..a.set().words())
            .flat_map(|w| a.set().members(w))
            .collect()
    }

    #[test]
    fn the_earliest_wake_survives_dispatch_waking_the_sleeper_that_held_it() {
        let mut a = Awake::default();
        a.reset([0, 0, 0].into_iter(), 10);
        assert_eq!((members(&a), a.earliest()), (vec![0, 1, 2], 0));
        // All three step at cycle 10 and go to sleep.
        a.note(0, 30, 10);
        a.note(1, 50, 10);
        a.note(2, 80, 10);
        assert_eq!((members(&a), a.earliest()), (vec![], 30));
        // At 11 dispatch wakes SM 0, which then sleeps again, past SM 1.
        a.admit_due(11);
        a.note(0, 0, 11);
        assert_eq!((members(&a), a.earliest()), (vec![0], 0));
        a.note(0, 90, 11);
        assert_eq!((members(&a), a.earliest()), (vec![], 50));
        // SM 1's wake cycle arrives; it stays awake at 50.
        a.admit_due(50);
        assert_eq!(members(&a), [1]);
        a.note(1, 0, 50);
        assert_eq!((members(&a), a.earliest()), (vec![1], 0));
    }
}
