//! The per-SM memory frontend.
//!
//! Each SM owns an [`SmMemFrontend`]: the coalescer, the read-only
//! (texture) cache, the L1 and its MSHRs, the on-chip load-store port, and
//! a private traffic shard. When an SM issues an off-chip access the
//! frontend times what it can privately and turns the rest into
//! [`FabricRequest`]s, which the shared fabric services with the rest of
//! the cycle's batch once every SM has stepped.

use crate::banks::conflict_degree_span;
use crate::cache::ReadOnlyCache;
use crate::coalesce::coalesce_segments;
use crate::config::MemConfig;
use crate::fabric::FabricRequest;
use crate::mshr::MshrTable;
use crate::traffic::TrafficStats;
use simt_isa::codec::{CodecError, Decoder, Encoder};
use simt_isa::Space;

/// An order-preserving line-address set: lines come out in first-push
/// order (what timing emission needs, bit-identical to the historical
/// `Vec::contains` dedup) while membership runs off a parallel sorted
/// index instead of an O(n) scan per probe.
#[derive(Debug, Default, Clone)]
struct LineSet {
    /// Lines in first-push order.
    order: Vec<u32>,
    /// The same lines, sorted, for binary-search membership.
    sorted: Vec<u32>,
}

impl LineSet {
    fn clear(&mut self) {
        self.order.clear();
        self.sorted.clear();
    }

    /// Inserts `line` unless present; returns whether it was inserted.
    fn insert(&mut self, line: u32) -> bool {
        match self.sorted.binary_search(&line) {
            Ok(_) => false,
            Err(pos) => {
                self.sorted.insert(pos, line);
                self.order.push(line);
                true
            }
        }
    }

    fn contains(&self, line: u32) -> bool {
        self.sorted.binary_search(&line).is_ok()
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Drains the lines in first-push order into `out`.
    fn drain_into(&mut self, out: &mut Vec<u32>) {
        out.extend_from_slice(&self.order);
        self.clear();
    }
}

/// Per-probe summary of one warp access routed through the L1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1Probe {
    /// L1 lines probed (hits + misses).
    pub lines: u32,
    /// Lines resident with no outstanding fill.
    pub hits: u32,
    /// Lines that missed (merges and stalls included).
    pub misses: u32,
    /// Misses merged into an outstanding MSHR entry (no request issued).
    pub merges: u32,
    /// Misses that bypassed a full MSHR table (request still issued).
    pub mshr_stalls: u32,
}

/// The per-SM memory frontend: coalescer, read-only (texture) cache,
/// on-chip load-store port, and a private traffic shard.
#[derive(Debug, Clone)]
pub struct SmMemFrontend {
    config: MemConfig,
    traffic: TrafficStats,
    /// Cycle at which this SM's on-chip load-store port becomes free.
    lsu_free: u64,
    tex: Option<ReadOnlyCache>,
    /// Per-SM L1 data cache (global loads only; timing-only, see
    /// [`MemConfig::l1_bytes`]). `None` when no L1 is configured.
    l1: Option<ReadOnlyCache>,
    /// Outstanding-fill table of the L1.
    mshr: MshrTable,
    /// L1 line-probes satisfied without a new fetch (tag hits plus lanes
    /// piggybacking on a line this same access already misses on).
    l1_hits: u64,
    /// Unique line-misses per access: each either rides the access's own
    /// fabric request or merges into an outstanding MSHR fill, so
    /// `misses - merges` is exactly the line count handed to the L2.
    l1_misses: u64,
    /// Scratch dedup set reused across probes.
    line_scratch: LineSet,
    /// Scratch dedup set for merge lines.
    merge_scratch: LineSet,
    /// Scratch subset of `line_scratch`: missed lines that found the MSHR
    /// table full. Their tags were *not* installed (no entry tracks the
    /// fill, so a resident tag would let a later access hit before the
    /// data could have arrived), which the intra-access piggyback path
    /// must know so it skips the LRU refresh.
    stall_scratch: LineSet,
    /// See [`SmMemFrontend::requests_emitted`].
    requests_emitted: u64,
}

impl SmMemFrontend {
    /// Creates a frontend for one SM, building the read-only cache and the
    /// L1 from the configuration (capacity 0 disables either).
    pub fn new(config: MemConfig) -> Self {
        let tex = if config.tex_cache_bytes > 0 {
            Some(ReadOnlyCache::new(
                config.tex_cache_bytes,
                config.tex_line_bytes,
                config.tex_ways,
            ))
        } else {
            None
        };
        let l1 = if config.l1_enabled() {
            Some(ReadOnlyCache::new(
                config.l1_bytes,
                config.l1_line_bytes,
                config.l1_ways,
            ))
        } else {
            None
        };
        let mshr = MshrTable::new(config.l1_mshr_entries);
        SmMemFrontend {
            config,
            traffic: TrafficStats::new(),
            lsu_free: 0,
            tex,
            l1,
            mshr,
            l1_hits: 0,
            l1_misses: 0,
            line_scratch: LineSet::default(),
            merge_scratch: LineSet::default(),
            stall_scratch: LineSet::default(),
            requests_emitted: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// This SM's traffic shard.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Whether this SM has a read-only (texture) cache.
    pub fn has_tex(&self) -> bool {
        self.tex.is_some()
    }

    /// `(hits, misses)` of the read-only cache, if present.
    pub fn tex_stats(&self) -> Option<(u64, u64)> {
        self.tex.as_ref().map(|t| (t.hits, t.misses))
    }

    /// Whether this SM models an L1 data cache.
    pub fn has_l1(&self) -> bool {
        self.l1.is_some()
    }

    /// `(hits, misses, mshr_merges, mshr_stalls)` of the L1, if present.
    /// Misses count unique lines per access and include merges and
    /// stalls, so `hits + misses` equals the probed-line count and
    /// `misses - merges` equals the line count fetched from below.
    pub fn l1_stats(&self) -> Option<(u64, u64, u64, u64)> {
        self.l1.as_ref().map(|_| {
            (
                self.l1_hits,
                self.l1_misses,
                self.mshr.merges,
                self.mshr.stalls,
            )
        })
    }

    /// L1 line-probes so far (hits + misses).
    pub fn l1_lines_probed(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }

    /// Outstanding MSHR fills (mid-flight lines a snapshot must carry).
    pub fn mshr_in_flight(&self) -> usize {
        self.mshr.in_flight()
    }

    /// Stamps the fill-completion cycle of the MSHR entries behind
    /// `lines` (once the carrying request has been serviced).
    pub fn mshr_set_fill(&mut self, lines: &[u32], ready: u64) {
        self.mshr.set_fill(lines, ready);
    }

    /// The wake-up floor an access that merged into `lines` must respect.
    pub fn mshr_wait_floor(&self, lines: &[u32]) -> u64 {
        self.mshr.wait_floor(lines)
    }

    /// Whether no MSHR entry is still waiting for its fill time.
    pub fn mshr_all_resolved(&self) -> bool {
        self.mshr.all_resolved()
    }

    /// Fabric requests [`SmMemFrontend::request_offchip`] has returned
    /// since this frontend was built — what the fabric must have serviced
    /// by the end of the cycle. Diagnostic, not serialized.
    pub fn requests_emitted(&self) -> u64 {
        self.requests_emitted
    }

    /// Times one on-chip (shared/spawn) warp access against this SM's
    /// load-store port. `addresses` holds the byte address of every
    /// *active* lane (inactive lanes make no request). Returns
    /// `(ready_cycle, conflict_degree)`.
    ///
    /// Bank-conflict serialization occupies the port for one pass per
    /// conflicting word set, so conflicting accesses also delay *other*
    /// warps on the same SM — the pipeline stalls the paper observes in
    /// Fig. 9. `v4` accesses are expanded to word granularity before
    /// computing the conflict degree (each lane touches four consecutive
    /// banks).
    ///
    /// The functional transfer is the caller's: on-chip backing data is
    /// SM-private and never reaches the fabric.
    ///
    /// # Panics
    ///
    /// Panics if the space is not on-chip.
    pub fn access_onchip(
        &mut self,
        now: u64,
        space: Space,
        is_store: bool,
        bytes_per_lane: u32,
        addresses: &[u32],
    ) -> (u64, u32) {
        assert!(space.is_on_chip(), "access_onchip expects shared/spawn");
        if addresses.is_empty() {
            return (now + 1, 1);
        }
        let requested = addresses.len() as u64 * u64::from(bytes_per_lane);
        let model_conflicts = space != Space::Spawn || self.config.spawn_bank_conflicts;
        let degree = if model_conflicts {
            let words_per_lane = (bytes_per_lane / 4).max(1);
            conflict_degree_span(addresses, words_per_lane, self.config.shared_banks)
        } else {
            1
        };
        self.traffic.record(space, is_store, requested, 0);
        if degree > 1 {
            self.traffic.record_conflicts(space, u64::from(degree - 1));
        }
        if self.config.ideal {
            return (now + 1, 1);
        }
        let start = now.max(self.lsu_free);
        self.lsu_free = start + u64::from(degree);
        (
            start + u64::from(degree) + u64::from(self.config.shared_latency),
            degree,
        )
    }

    /// Coalesces one off-chip warp access and records traffic. Returns the
    /// at-issue completion estimate plus the request (if any) for the
    /// cycle's batch ([`crate::MemoryFabric::service_batch`]):
    ///
    /// * empty access → next cycle, no request, no traffic;
    /// * `const` → served by the constant cache at hit latency, no request;
    /// * ideal memory → next cycle, no request (traffic still recorded);
    /// * otherwise → next cycle as a floor; the batch raises the warp's
    ///   wake-up to the request's ready time.
    pub fn request_offchip(
        &mut self,
        now: u64,
        space: Space,
        is_store: bool,
        bytes_per_lane: u32,
        addresses: &[u32],
    ) -> (u64, Option<FabricRequest>) {
        if addresses.is_empty() {
            return (now + 1, None);
        }
        let requested = addresses.len() as u64 * u64::from(bytes_per_lane);
        if space == Space::Const {
            self.traffic.record(space, is_store, requested, 0);
            if self.config.ideal {
                return (now + 1, None);
            }
            return (now + u64::from(self.config.tex_hit_latency.max(1)), None);
        }
        let result = coalesce_segments(addresses, bytes_per_lane, self.config.segment_bytes);
        self.traffic
            .record(space, is_store, requested, result.transactions() as u64);
        if self.config.ideal {
            return (now + 1, None);
        }
        self.requests_emitted += 1;
        (
            now + 1,
            Some(FabricRequest {
                space,
                is_store,
                segments: result.segments,
            }),
        )
    }

    /// Probes the read-only cache for every line a global load touches.
    /// `addresses` must already be filtered to read-only regions. Returns
    /// the base addresses of the missing lines (deduplicated in probe
    /// order); hits cost nothing beyond the hit latency the caller models.
    ///
    /// The cache fills at probe, so within one probe a line can only miss
    /// again after an intra-probe eviction; the dedup set keeps such a
    /// re-miss from emitting twice. Membership runs off a sorted index
    /// (binary search) instead of the historical `Vec::contains` scan —
    /// O(n log n) over the probe instead of O(n²) — while the emitted
    /// order stays first-miss probe order, bit-identical to before.
    ///
    /// # Panics
    ///
    /// Panics if this SM has no read-only cache.
    pub fn tex_probe(&mut self, addresses: &[u32], width_bytes: u32) -> Vec<u32> {
        let tex = self.tex.as_mut().expect("tex_probe without a cache");
        let line = tex.line_bytes();
        self.line_scratch.clear();
        for &a in addresses {
            let first = a & !(line - 1);
            let last = a.wrapping_add(width_bytes - 1) & !(line - 1);
            let mut l = first;
            loop {
                if !tex.access(l) {
                    self.line_scratch.insert(l);
                }
                if l >= last {
                    break;
                }
                l += line;
            }
        }
        let mut miss_lines = Vec::new();
        self.line_scratch.drain_into(&mut miss_lines);
        miss_lines
    }

    /// Routes one off-chip **global load** through the L1: probes every
    /// touched line, merges misses that hit an outstanding MSHR entry, and
    /// emits a single line-granular fabric request for the rest. Returns
    /// the at-issue completion floor, the request (if any line must be
    /// fetched), the fill lines (MSHR entries this access's request will
    /// complete), the merge lines (outstanding fills to wait for), and the
    /// probe summary for telemetry.
    ///
    /// Stores bypass the L1 entirely (write-through, no-allocate): callers
    /// route them through [`SmMemFrontend::request_offchip`] unchanged.
    ///
    /// # Panics
    ///
    /// Panics if this SM has no L1.
    #[allow(clippy::type_complexity)]
    pub fn l1_request(
        &mut self,
        now: u64,
        width_bytes: u32,
        addresses: &[u32],
    ) -> (u64, Option<FabricRequest>, Vec<u32>, Vec<u32>, L1Probe) {
        let l1 = self.l1.as_mut().expect("l1_request without an L1");
        let line = l1.line_bytes();
        self.mshr.purge(now);
        self.line_scratch.clear();
        self.merge_scratch.clear();
        self.stall_scratch.clear();
        let mut probe = L1Probe::default();
        for &a in addresses {
            let first = a & !(line - 1);
            let last = a.wrapping_add(width_bytes - 1) & !(line - 1);
            let mut l = first;
            loop {
                probe.lines += 1;
                if self.line_scratch.contains(l) || self.merge_scratch.contains(l) {
                    // A lane piggybacking on a line this access already
                    // misses (or merges) on: one fetch serves them all.
                    // Tracked lines were installed at the first probe, so
                    // this refreshes LRU like the tex cache's
                    // install-at-miss; stalled lines have no tag to
                    // refresh (and must not grow one here).
                    if !self.stall_scratch.contains(l) {
                        let _ = l1.access(l);
                    }
                    probe.hits += 1;
                } else if self.mshr.lookup(l).is_some() {
                    // In flight from an *earlier* access: merge into the
                    // outstanding fill instead of fetching again. The MSHR
                    // is consulted before the tag array — the tag is
                    // already installed, but the data has not landed.
                    probe.misses += 1;
                    probe.merges += 1;
                    self.mshr.note_merge();
                    self.merge_scratch.insert(l);
                } else if l1.probe(l) {
                    probe.hits += 1;
                } else if self.mshr.has_room() {
                    // Tracked miss: install the tag and let the MSHR entry
                    // stand in for the data until the fill lands.
                    l1.fill(l);
                    probe.misses += 1;
                    self.line_scratch.insert(l);
                    self.mshr.alloc(l);
                } else {
                    // Table full: the fetch still issues (no protocol
                    // deadlock to model) but nothing tracks its fill, so
                    // the tag is *not* installed — a later access to this
                    // line misses again instead of optimistically hitting
                    // at L1 latency while the data is still in flight.
                    probe.misses += 1;
                    probe.mshr_stalls += 1;
                    self.mshr.note_stall();
                    self.line_scratch.insert(l);
                    self.stall_scratch.insert(l);
                }
                if l >= last {
                    break;
                }
                l += line;
            }
        }
        self.l1_hits += u64::from(probe.hits);
        self.l1_misses += u64::from(probe.misses);
        let mut merge_lines = Vec::new();
        self.merge_scratch.drain_into(&mut merge_lines);
        let ready = now + u64::from(self.config.l1_hit_latency.max(1));
        if self.line_scratch.is_empty() {
            return (ready, None, Vec::new(), merge_lines, probe);
        }
        let mut miss_lines = Vec::new();
        self.line_scratch.drain_into(&mut miss_lines);
        // Stalled lines have no MSHR entry: they still travel with the
        // request, but `mshr_set_fill` will find nothing to stamp.
        let (floor, req) = self.request_offchip(now, Space::Global, false, line, &miss_lines);
        (ready.max(floor), req, miss_lines, merge_lines, probe)
    }

    /// Serializes the frontend's mutable state — traffic shard, load-store
    /// port timestamp, and read-only cache contents — for a simulator
    /// checkpoint. The configuration (and hence cache geometry) is restored
    /// separately.
    pub fn encode_state(&self, enc: &mut Encoder) {
        self.traffic.encode_state(enc);
        enc.put_u64(self.lsu_free);
        enc.put_bool(self.tex.is_some());
        if let Some(t) = &self.tex {
            t.encode_state(enc);
        }
        enc.put_bool(self.l1.is_some());
        if let Some(c) = &self.l1 {
            c.encode_state(enc);
            self.mshr.encode_state(enc);
            enc.put_u64(self.l1_hits);
            enc.put_u64(self.l1_misses);
        }
    }

    /// Restores state previously written by
    /// [`SmMemFrontend::encode_state`] into a frontend built from the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input or when the cache
    /// presence/geometry disagrees with this frontend's configuration.
    pub fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.traffic.restore_state(dec)?;
        self.lsu_free = dec.take_u64()?;
        let has_tex = dec.take_bool()?;
        match (&mut self.tex, has_tex) {
            (Some(t), true) => t.restore_state(dec)?,
            (None, false) => {}
            _ => {
                return Err(CodecError::BadTag {
                    what: "tex cache presence",
                    tag: u64::from(has_tex),
                })
            }
        }
        let has_l1 = dec.take_bool()?;
        match (&mut self.l1, has_l1) {
            (Some(c), true) => {
                c.restore_state(dec)?;
                self.mshr.restore_state(dec)?;
                self.l1_hits = dec.take_u64()?;
                self.l1_misses = dec.take_u64()?;
            }
            (None, false) => {}
            _ => {
                return Err(CodecError::BadTag {
                    what: "l1 cache presence",
                    tag: u64::from(has_l1),
                })
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::MemoryFabric;

    /// One off-chip global load through both halves: the frontend's floor
    /// and the DRAM stage's completion.
    fn offchip_load(fe: &mut SmMemFrontend, fabric: &mut MemoryFabric, addrs: &[u32]) -> u64 {
        let (floor, req) = fe.request_offchip(0, Space::Global, false, 4, addrs);
        floor.max(fabric.service(0, &req.expect("non-ideal global access emits a request")))
    }

    #[test]
    fn coalesced_access_is_fast_scattered_is_slow() {
        let cfg = MemConfig::fx5800();
        let mut fe = SmMemFrontend::new(cfg.clone());
        let coalesced: Vec<u32> = (0..32).map(|i| i * 4).collect();
        let scattered: Vec<u32> = (0..32).map(|i| i * 4096).collect();
        let t_coalesced = offchip_load(&mut fe, &mut MemoryFabric::new(cfg.clone()), &coalesced);
        let t_scattered = offchip_load(&mut fe, &mut MemoryFabric::new(cfg), &scattered);
        assert!(
            t_scattered > t_coalesced,
            "scattered {t_scattered} <= coalesced {t_coalesced}"
        );
    }

    #[test]
    fn traffic_recorded_per_space() {
        let mut fe = SmMemFrontend::new(MemConfig::fx5800());
        let addrs: Vec<u32> = (0..32).map(|i| i * 4).collect();
        let (_, req) = fe.request_offchip(0, Space::Global, false, 4, &addrs);
        assert_eq!(req.expect("emits a request").segments.len(), 4);
        let g = fe.traffic().space(Space::Global);
        assert_eq!(g.bytes_read, 128);
        assert_eq!(g.transactions, 4); // 128 B over 32 B segments
        assert_eq!(g.accesses, 1);
        // An access with no active lane is a no-op: no request, no traffic.
        assert_eq!(
            fe.request_offchip(5, Space::Global, false, 4, &[]),
            (6, None)
        );
        assert_eq!(fe.traffic().space(Space::Global).accesses, 1);
    }

    #[test]
    fn const_and_ideal_emit_no_request() {
        let mut fe = SmMemFrontend::new(MemConfig::fx5800());
        let (t, req) = fe.request_offchip(0, Space::Const, false, 4, &[0, 4, 8]);
        assert!(req.is_none());
        assert_eq!(t, u64::from(MemConfig::fx5800().tex_hit_latency));

        let mut ideal = SmMemFrontend::new(MemConfig::fx5800().with_ideal(true));
        let (t, req) = ideal.request_offchip(5, Space::Global, true, 4, &[0]);
        assert!(req.is_none());
        assert_eq!(t, 6);
        assert_eq!(ideal.traffic().space(Space::Global).bytes_written, 4);
        // Ideal on-chip accesses are single-cycle too, conflicts or not.
        let spawn: Vec<u32> = (0..32).map(|i| i * 64).collect();
        assert_eq!(
            ideal.access_onchip(10, Space::Spawn, true, 16, &spawn),
            (11, 1)
        );
    }

    #[test]
    fn spawn_conflicts_toggle() {
        // Stride of 16 words on 16 banks: degree 8 for 8 lanes.
        let addrs: Vec<u32> = (0..8).map(|i| i * 64).collect();
        let mut without = SmMemFrontend::new(MemConfig::fx5800().with_spawn_bank_conflicts(false));
        let mut with = SmMemFrontend::new(MemConfig::fx5800().with_spawn_bank_conflicts(true));
        let (t_without, d_without) = without.access_onchip(0, Space::Spawn, false, 4, &addrs);
        let (t_with, d_with) = with.access_onchip(0, Space::Spawn, false, 4, &addrs);
        assert_eq!((d_without, d_with), (1, 8));
        assert!(t_with > t_without);
        assert_eq!(with.traffic().space(Space::Spawn).bank_conflict_passes, 7);
        assert_eq!(
            without.traffic().space(Space::Spawn).bank_conflict_passes,
            0
        );
    }

    #[test]
    fn onchip_port_serializes_conflicting_accesses() {
        // Shared-space conflicts are modeled whatever the spawn toggle says.
        let cfg = MemConfig::fx5800().with_spawn_bank_conflicts(false);
        let mut fe = SmMemFrontend::new(cfg.clone());
        let conflicted: Vec<u32> = (0..8).map(|i| i * 64).collect();
        let (t1, d1) = fe.access_onchip(0, Space::Shared, false, 4, &conflicted);
        assert_eq!(d1, 8);
        assert_eq!(t1, u64::from(cfg.shared_latency) + 8);
        // A second warp in the same cycle queues behind the port.
        let (t2, _) = fe.access_onchip(0, Space::Shared, false, 4, &conflicted);
        assert!(t2 > t1);
    }

    #[test]
    fn tex_probe_order_matches_historical_contains_dedup() {
        // Regression for the O(n²) dedup fix: emitted miss lines must stay
        // in first-miss probe order, exactly what the old `Vec::contains`
        // guard produced — including re-misses after intra-probe eviction.
        let mut cfg = MemConfig::fx5800();
        // 2 lines total (1 set × 2 ways of 32 B): big probes evict.
        cfg.tex_cache_bytes = 64;
        cfg.tex_ways = 2;
        let mut fe = SmMemFrontend::new(cfg.clone());
        // Deliberately unsorted, with revisits forcing eviction re-misses
        // and runs of lanes sharing their neighbour's line (hits at way 0,
        // which reorder nothing).
        let probes: [&[u32]; 2] = [
            &[256, 260, 0, 0, 128, 64, 0, 192, 256, 32, 36, 40],
            &[32, 256, 256, 0],
        ];
        // Reference: the historical algorithm, verbatim.
        let mut tex = ReadOnlyCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_ways);
        let line = cfg.tex_line_bytes;
        for addrs in probes {
            let got = fe.tex_probe(addrs, 4);
            let mut want: Vec<u32> = Vec::new();
            for &a in addrs {
                let l = a & !(line - 1);
                if !tex.access(l) && !want.contains(&l) {
                    want.push(l);
                }
            }
            assert_eq!(got, want);
            assert_eq!(fe.tex_stats(), Some((tex.hits, tex.misses)));
        }
    }

    #[test]
    fn l1_hits_after_fill_and_stats_conserve() {
        let mut fe = SmMemFrontend::new(MemConfig::fx5800_cached());
        let addrs: Vec<u32> = (0..32).map(|i| i * 4).collect(); // 2 lines of 64 B
        let (_, req, fills, merges, p) = fe.l1_request(0, 4, &addrs);
        assert_eq!(p.lines, 32);
        assert_eq!(p.hits, 30, "lines fill at first probe");
        assert_eq!(p.misses, 2);
        assert_eq!(fills, vec![0, 64]);
        assert!(merges.is_empty());
        let r = req.expect("cold misses emit a request");
        assert_eq!(r.space, Space::Global);
        // Stamp the fills; once complete, the same lines hit cleanly.
        fe.mshr_set_fill(&fills, 10);
        let (_, req, fills, merges, p) = fe.l1_request(10, 4, &addrs);
        assert!(req.is_none() && fills.is_empty() && merges.is_empty());
        assert_eq!(p.hits, 32);
        // Conservation: hits + misses == probed lines.
        let (h, m, mg, st) = fe.l1_stats().expect("l1 on");
        assert_eq!(h + m, fe.l1_lines_probed());
        assert_eq!(mg, 0);
        assert_eq!(st, 0);
    }

    #[test]
    fn l1_merges_while_fill_in_flight() {
        let mut fe = SmMemFrontend::new(MemConfig::fx5800_cached());
        let (_, req, fills, _, _) = fe.l1_request(0, 4, &[0]);
        assert!(req.is_some());
        assert_eq!(fills, vec![0]);
        // Same line, same cycle, before the fill resolves: pure merge.
        let (_, req, fills2, merges, p) = fe.l1_request(0, 4, &[4]);
        assert!(req.is_none(), "merged access issues no request");
        assert!(fills2.is_empty());
        assert_eq!(merges, vec![0]);
        assert_eq!(p.merges, 1);
        assert_eq!(fe.mshr_in_flight(), 1);
        // Resolve the fill late; the merged access waits for it.
        fe.mshr_set_fill(&fills, 500);
        assert_eq!(fe.mshr_wait_floor(&merges), 500);
        // After the fill lands, the entry purges and the line plain-hits.
        let (_, _, _, merges, p) = fe.l1_request(500, 4, &[0]);
        assert!(merges.is_empty());
        assert_eq!(p.hits, 1);
    }

    #[test]
    fn l1_mshr_full_bypasses_but_still_requests() {
        let mut cfg = MemConfig::fx5800_cached();
        cfg.l1_mshr_entries = 1;
        let mut fe = SmMemFrontend::new(cfg);
        // Two distinct lines: the second miss finds the table full.
        let (_, req, fills, _, p) = fe.l1_request(0, 4, &[0, 64]);
        let r = req.expect("both lines still fetched");
        assert_eq!(r.segments.len(), 4, "two 64 B lines over 32 B segments");
        assert_eq!(fills, vec![0, 64]);
        assert_eq!(p.mshr_stalls, 1);
        let (_, _, mg, st) = fe.l1_stats().expect("l1 on");
        assert_eq!((mg, st), (0, 1));
    }

    #[test]
    fn l1_mshr_stall_does_not_install_the_tag() {
        let mut cfg = MemConfig::fx5800_cached();
        cfg.l1_mshr_entries = 1;
        let mut fe = SmMemFrontend::new(cfg);
        // Line 0 allocates the only entry; line 64 stalls (no entry, and
        // therefore no tag — nothing will ever stamp its fill).
        let (_, _, fills, _, p) = fe.l1_request(0, 4, &[0, 64, 68]);
        assert_eq!(p.mshr_stalls, 1);
        assert_eq!(p.hits, 1, "same-access lane still piggybacks the fetch");
        assert_eq!(fills, vec![0, 64]);
        fe.mshr_set_fill(&fills, 500);
        // Before the data could have arrived, the stalled line must NOT
        // plain-hit at L1 latency: it misses again and re-fetches.
        let (_, req, _, merges, p) = fe.l1_request(1, 4, &[64]);
        assert_eq!(p.hits, 0, "untracked in-flight line fake-hit the L1");
        assert_eq!(p.misses, 1);
        assert!(merges.is_empty(), "no MSHR entry exists to merge into");
        assert!(req.is_some(), "the re-miss fetches again");
        // Once the tracked line's fill lands and frees the table, the
        // stalled line's next miss allocates normally and fills the tag.
        let (_, _, fills, _, _) = fe.l1_request(500, 4, &[64]);
        assert_eq!(fills, vec![64]);
        fe.mshr_set_fill(&fills, 600);
        let (_, req, _, _, p) = fe.l1_request(600, 4, &[64]);
        assert!(req.is_none());
        assert_eq!(p.hits, 1);
    }

    #[test]
    fn l1_state_round_trips_with_mid_flight_mshr() {
        let mut fe = SmMemFrontend::new(MemConfig::fx5800_cached());
        let (_, _, fills, _, _) = fe.l1_request(3, 4, &[0, 256]);
        fe.mshr_set_fill(&fills, 77);
        let (_, _, _, _, _) = fe.l1_request(4, 4, &[512]); // unresolved entry
        let mut enc = Encoder::new();
        fe.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = SmMemFrontend::new(MemConfig::fx5800_cached());
        restored
            .restore_state(&mut Decoder::new(&bytes))
            .expect("round trip");
        assert_eq!(restored.l1_stats(), fe.l1_stats());
        assert_eq!(restored.mshr_in_flight(), fe.mshr_in_flight());
        assert_eq!(restored.l1_lines_probed(), fe.l1_lines_probed());
        // A frontend without an L1 rejects the snapshot.
        let mut flat = SmMemFrontend::new(MemConfig::fx5800());
        assert!(flat.restore_state(&mut Decoder::new(&bytes)).is_err());
    }

    /// ROADMAP 4(e): a resealed, edited snapshot must not hand the texture
    /// cache or the L1 a set their geometry cannot hold.
    #[test]
    fn restore_refuses_a_tex_or_l1_set_the_geometry_cannot_hold() {
        use crate::cache::tests::{edited_sets, with_set};
        let flat = MemConfig::fx5800();
        let cached = MemConfig::fx5800_cached();
        let tex_sets = (flat.tex_cache_bytes / flat.tex_line_bytes) as usize / flat.tex_ways;
        let l1_sets = (cached.l1_bytes / cached.l1_line_bytes) as usize / cached.l1_ways;
        assert_ne!(tex_sets, l1_sets, "the edit finds the L1 by its set count");
        for (cfg, sets, ways) in [
            (flat.clone(), tex_sets, flat.tex_ways),
            (cached.clone(), l1_sets, cached.l1_ways),
        ] {
            let mut enc = Encoder::new();
            SmMemFrontend::new(cfg.clone()).encode_state(&mut enc);
            let honest = enc.into_bytes();
            for (keys, legal) in edited_sets(sets, ways) {
                let payload = with_set(&honest, sets, 1, &keys);
                let restored =
                    SmMemFrontend::new(cfg.clone()).restore_state(&mut Decoder::new(&payload));
                assert_eq!(restored.is_ok(), legal, "{sets} sets: {keys:?}");
            }
        }
    }

    #[test]
    fn tex_probe_dedups_lines_and_tracks_hits() {
        let mut fe = SmMemFrontend::new(MemConfig::fx5800());
        let line = MemConfig::fx5800().tex_line_bytes;
        // Two addresses in the same line: one miss.
        let m = fe.tex_probe(&[0, 4], 4);
        assert_eq!(m, vec![0]);
        // Re-probe: hit, no misses.
        assert!(fe.tex_probe(&[0], 4).is_empty());
        // A v4 straddling a line boundary touches two lines.
        let m = fe.tex_probe(&[line - 4], 16);
        assert_eq!(m.len(), 1, "line 0 already resident: {m:?}");
        assert_eq!(m[0], line);
    }
}
