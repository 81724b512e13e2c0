//! The windowed table every simulator timeline keeps its counts in: one
//! row of counters per fixed-width window of cycles, indexed by
//! *absolute* `cycle / width`, so per-SM shards merge row by row into
//! exactly the table one serial recorder would have built.
//! [`crate::DivergenceTimeline`] keeps occupancy buckets in one, the
//! telemetry keeps [`crate::WindowCounters`] in another.

use simt_isa::codec::{CodecError, CounterSet, Decoder, Encoder};
use std::fmt::Write as _;

/// Rows of counters over fixed-width windows of cycles.
#[derive(Debug, Clone)]
pub struct Windowed<R> {
    width: u64,
    rows: Vec<R>,
    /// Index and first cycle of the window last written: the issue path
    /// hits one window millions of times in a row, and this spares it a
    /// 64-bit division each time. Pure cache, outside equality and codec.
    cur_idx: usize,
    cur_start: u64,
}

impl<R: PartialEq> PartialEq for Windowed<R> {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.rows == other.rows
    }
}

impl<R: Eq> Eq for Windowed<R> {}

impl<R: CounterSet + Clone> Windowed<R> {
    /// An empty table of `width`-cycle windows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "window must be positive");
        Windowed {
            width,
            rows: Vec::new(),
            cur_idx: 0,
            cur_start: 0,
        }
    }

    /// The window width in cycles.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The rows, row `i` counting cycles `i × width ..`.
    pub fn rows(&self) -> &[R] {
        &self.rows
    }

    /// The row counting `cycle`, made (with any before it) if missing.
    #[inline]
    pub(crate) fn slot(&mut self, cycle: u64) -> &mut R {
        // Fast path: the window last written (the default cache `(0, 0)`
        // is itself valid for window 0 once it exists).
        if cycle.wrapping_sub(self.cur_start) < self.width && self.cur_idx < self.rows.len() {
            return &mut self.rows[self.cur_idx];
        }
        let idx = (cycle / self.width) as usize;
        if self.rows.len() <= idx {
            self.rows.resize(idx + 1, R::default());
        }
        self.cur_idx = idx;
        self.cur_start = idx as u64 * self.width;
        &mut self.rows[idx]
    }

    /// Credits the `count` cycles from `from` with one `add(row, n)` per
    /// window they touch, `n` of them in that window — identical to
    /// crediting each cycle's row with `add(row, 1)` when `add` adds.
    pub(crate) fn add_span(&mut self, from: u64, count: u64, add: impl Fn(&mut R, u64)) {
        let (mut c, end) = (from, from + count);
        while c < end {
            let n = ((c / self.width + 1) * self.width).min(end) - c;
            add(self.slot(c), n);
            c += n;
        }
    }

    /// Adds `other` in, row by row.
    ///
    /// # Panics
    ///
    /// Panics if the tables have different window widths.
    pub(crate) fn merge(&mut self, other: &Self) {
        assert_eq!(self.width, other.width, "merging mismatched windows");
        if self.rows.len() < other.rows.len() {
            self.rows.resize(other.rows.len(), R::default());
        }
        for (dst, src) in self.rows.iter_mut().zip(&other.rows) {
            dst.merge(src);
        }
    }

    /// Writes the row count, then each row (the width is configuration).
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        enc.put_usize(self.rows.len());
        self.rows.iter().for_each(|r| r.encode_state(enc));
    }

    /// Restores rows [`Windowed::encode_state`] wrote, refusing a row
    /// count the payload cannot hold before allocating for it.
    pub(crate) fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let n = dec.take_len(R::ENCODED_BYTES)?;
        let mut rows = vec![R::default(); n];
        for r in &mut rows {
            r.restore_state(dec)?;
        }
        self.rows = rows;
        Ok(())
    }

    /// Every row added together.
    pub fn total(&self) -> R {
        let mut total = R::default();
        self.rows.iter().for_each(|r| total.merge(r));
        total
    }

    /// Each row with the cycle its window ends at, `(i + 1) × width`.
    pub(crate) fn ends(&self) -> impl Iterator<Item = (u64, &R)> {
        (self.rows.iter().zip(1u64..)).map(|(r, i)| (i * self.width, r))
    }

    /// Appends a `cycle_end,<columns>` header, then per window its end
    /// cycle and its values.
    pub(crate) fn write_csv(&self, out: &mut String, columns: &[impl AsRef<str>]) {
        out.push_str("cycle_end");
        columns.iter().for_each(|c| out.extend([",", c.as_ref()]));
        out.push('\n');
        for (end, r) in self.ends() {
            let _ = write!(out, "{end}");
            r.values().as_ref().iter().for_each(|v| {
                let _ = write!(out, ",{v}");
            });
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OCCUPANCY_BUCKETS;
    use crate::telemetry::WindowCounters;
    use proptest::prelude::*;
    use std::fmt::Debug;

    /// The table's laws for one row type, over spans `(from, count)`
    /// credited with `bump`: a span recorded cycle by cycle equals it
    /// recorded at once; shards recording a share each, merged, equal one
    /// serial recorder; and the codec round-trips, refusing a row count
    /// the payload cannot hold.
    fn laws<R>(width: u64, spans: &[(u64, u64)], shards: usize, bump: impl Fn(&mut R, u64))
    where
        R: CounterSet + Clone + PartialEq + Debug,
    {
        let mut cycles = Windowed::new(width);
        let mut spanned = Windowed::new(width);
        let mut sharded: Vec<Windowed<R>> = vec![Windowed::new(width); shards];
        for (i, &(from, count)) in spans.iter().enumerate() {
            for c in from..from + count {
                bump(cycles.slot(c), 1);
            }
            spanned.add_span(from, count, &bump);
            sharded[i % shards].add_span(from, count, &bump);
        }
        assert_eq!(cycles, spanned);
        let mut merged = Windowed::new(width);
        for s in &sharded {
            merged.merge(s);
        }
        assert_eq!(merged, spanned);

        let mut enc = Encoder::new();
        spanned.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = Windowed::new(width);
        let mut dec = Decoder::new(&bytes);
        back.restore_state(&mut dec).expect("restores");
        assert!(dec.is_finished());
        assert_eq!(back, spanned);
        let mut claim = Encoder::new();
        claim.put_usize(spanned.rows().len() + 1);
        let more = [&claim.into_bytes()[..], &bytes[8..]].concat();
        assert!(matches!(
            Windowed::<R>::new(width).restore_state(&mut Decoder::new(&more)),
            Err(CodecError::BadLength { .. })
        ));
    }

    proptest! {
        /// Both row types keep the table's laws at width 1, at widths
        /// inside the run and at a width longer than the run.
        #[test]
        fn a_table_records_spans_merges_shards_and_round_trips(
            width in prop_oneof![Just(1u64), 2u64..40, Just(1u64 << 40)],
            spans in proptest::collection::vec((0u64..600, 0u64..90), 0..24),
            shards in 1usize..4,
            bucket in 0usize..OCCUPANCY_BUCKETS,
        ) {
            laws::<[u64; OCCUPANCY_BUCKETS]>(width, &spans, shards, |r, n| r[bucket] += n);
            laws::<WindowCounters>(width, &spans, shards, |r, n| {
                r.issues += n;
                r.l1_mshr_merges += 2 * n;
            });
        }
    }

    #[test]
    fn csv_rows_end_at_each_window_edge() {
        let mut t = Windowed::<[u64; OCCUPANCY_BUCKETS]>::new(10);
        t.add_span(8, 4, |r, n| r[0] += n);
        let mut csv = String::new();
        t.write_csv(&mut csv, &["a"; OCCUPANCY_BUCKETS]);
        assert_eq!(
            csv,
            "cycle_end,a,a,a,a,a,a,a,a,a\n10,2,0,0,0,0,0,0,0,0\n20,2,0,0,0,0,0,0,0,0\n"
        );
        assert_eq!(t.total()[0], 4);
    }
}
