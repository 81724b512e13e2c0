//! Pipeline-level behaviour of the L1/L2 cache hierarchy: end-to-end
//! stats conservation between the cache levels, and kill/resume with
//! caches enabled.

use simt_isa::assemble_named;
use simt_sim::{Gpu, GpuConfig, Launch, RunOutcome, Snapshot};

/// A mixed kernel: a per-thread strided load (cold misses), a re-read of
/// a warp-shared line inside a loop (hits + MSHR merges while the first
/// fill is still in flight), and a final store.
const MIX_SRC: &str = r#"
    .kernel main
    main:
        mov.u32 r1, %tid
        mul.lo.s32 r2, r1, 4
        and.b32 r5, r1, 7
        mul.lo.s32 r5, r5, 4
        mov.u32 r6, 12
        mov.u32 r7, 0
    loop:
        ld.global.u32 r3, [r2+0]
        ld.global.u32 r4, [r5+0]
        add.s32 r7, r7, r3
        add.s32 r7, r7, r4
        sub.s32 r6, r6, 1
        setp.gt.s32 p0, r6, 0
        @p0 bra loop
        st.global.u32 [r2+0], r7
        exit
"#;

const N_THREADS: u32 = 128;

/// `GpuConfig::tiny` with a 4 KiB L1 and a 16 KiB L2 — small enough that
/// the mixed kernel exercises every path (hit, miss, merge, fill).
fn cached_config() -> GpuConfig {
    let mut cfg = GpuConfig::tiny();
    cfg.mem = cfg.mem.with_l1(4 * 1024).with_l2(16 * 1024);
    cfg
}

fn build(cfg: GpuConfig) -> Gpu {
    let program = assemble_named("mix", MIX_SRC).unwrap();
    let mut gpu = Gpu::builder(cfg).build();
    gpu.mem_mut().alloc_global(N_THREADS * 4, "buf");
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: N_THREADS,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    gpu
}

fn words(gpu: &Gpu) -> Vec<u32> {
    (0..N_THREADS)
        .map(|t| gpu.mem().read_u32(simt_isa::Space::Global, t * 4))
        .collect()
}

/// The kernel was built to exercise every L1 path — make sure it does,
/// and that the per-level counters conserve: every probed line is a hit
/// or a miss, and the L2 sees exactly the fetches the L1 could not merge
/// (the line size is pinned to the DRAM segment size so one missed line
/// is one L2 probe).
#[test]
fn cache_level_stats_conserve() {
    let mut cfg = cached_config();
    cfg.mem.l1_line_bytes = cfg.mem.segment_bytes;
    let mut gpu = build(cfg);
    let summary = gpu.run(50_000_000).expect("fault-free");
    assert_eq!(summary.outcome, RunOutcome::Completed);

    let (hits, misses, merges, _stalls) = gpu.l1_stats().expect("L1 enabled");
    let (l2_hits, l2_misses) = gpu.mem().l2_stats().expect("L2 enabled");
    assert!(hits > 0, "kernel should produce L1 hits");
    assert!(misses > 0, "kernel should produce L1 misses");
    assert!(merges > 0, "kernel should produce MSHR merges");
    assert!(
        merges <= misses,
        "every merge is also a miss: {merges} !<= {misses}"
    );
    // The kernel's only off-chip load traffic is L1 miss fetches (no
    // read-only regions, so no texture fills), and stores bypass the L2.
    assert_eq!(
        l2_hits + l2_misses,
        misses - merges,
        "L2 must see exactly the unmerged L1 misses"
    );
    assert!(l2_hits > 0, "re-read lines should hit in the L2");
}

/// Flat default machines must report no cache-hierarchy telemetry at
/// all — the knobs are off, not zeroed.
#[test]
fn flat_machine_reports_no_hierarchy_stats() {
    let mut gpu = build(GpuConfig::tiny());
    let summary = gpu.run(50_000_000).expect("fault-free");
    assert_eq!(summary.outcome, RunOutcome::Completed);
    assert_eq!(gpu.l1_stats(), None);
    assert_eq!(gpu.mem().l2_stats(), None);
    assert_eq!(gpu.mem().icnt_conflicts(), 0);
}

/// Kill/resume with the hierarchy enabled: a machine restored from a v4
/// snapshot — including L1 tag state and mid-flight MSHR entries taken
/// while fills were outstanding — must continue bit-identically.
#[test]
fn cached_checkpoint_resume_is_bit_identical() {
    let mut reference = build(cached_config());
    let ref_summary = reference.run(50_000_000).expect("fault-free");
    assert_eq!(ref_summary.outcome, RunOutcome::Completed);
    let (ref_hits, ref_misses, ref_merges, ref_stalls) = reference.l1_stats().expect("L1 enabled");

    // Interrupt points straddle the first DRAM round trip so at least one
    // snapshot is taken while MSHR fills are outstanding.
    for interrupt_at in [1u64, 30, 150, 700] {
        let mut gpu = build(cached_config());
        gpu.run(interrupt_at).expect("fault-free prefix");
        let bytes = gpu.checkpoint().expect("encodable").to_bytes();
        let snapshot = Snapshot::from_bytes(&bytes).expect("frame intact");
        let mut resumed = Gpu::restore(&snapshot).expect("restores");
        assert_eq!(resumed.now(), gpu.now());
        let summary = resumed.run(50_000_000).expect("fault-free tail");
        assert_eq!(
            summary.stats, ref_summary.stats,
            "stats diverged after resume at cycle {interrupt_at}"
        );
        assert_eq!(
            summary.traffic, ref_summary.traffic,
            "traffic diverged after resume at cycle {interrupt_at}"
        );
        assert_eq!(
            resumed.l1_stats(),
            Some((ref_hits, ref_misses, ref_merges, ref_stalls)),
            "L1 counters diverged after resume at cycle {interrupt_at}"
        );
        assert_eq!(
            resumed.mem().l2_stats(),
            reference.mem().l2_stats(),
            "L2 counters diverged after resume at cycle {interrupt_at}"
        );
        assert_eq!(
            words(&resumed),
            words(&reference),
            "memory diverged after resume at cycle {interrupt_at}"
        );
    }
}

/// The in-memory form of the same resume: a `Snapshot` handed straight to
/// `Gpu::restore`, without the byte round trip — what a supervisor's
/// rollback does.
#[test]
fn cached_resume_from_an_in_memory_snapshot_is_bit_identical() {
    let mut reference = build(cached_config());
    let ref_summary = reference.run(50_000_000).expect("fault-free");

    let mut gpu = build(cached_config());
    gpu.run(300).expect("fault-free prefix");
    let snapshot = gpu.checkpoint().expect("encodable");
    let mut resumed = Gpu::restore(&snapshot).expect("restores");
    let summary = resumed.run(50_000_000).expect("fault-free tail");
    assert_eq!(summary.stats, ref_summary.stats);
    assert_eq!(resumed.l1_stats(), reference.l1_stats());
    assert_eq!(words(&resumed), words(&reference));
}

/// On a faulting cycle under `FaultPolicy::Abort`, the committed SMs'
/// phase-B work must still flow through the one batch path — DRAM modules
/// on the flat and L1-only machines, the banked interconnect and the L2 in
/// front of them on the cached one — and the discarded SMs' work must not.
/// The witness is conservation: every coalesced global transaction the
/// frontends recorded must have paid its DRAM service (stores bypass both
/// caches) and, where an interconnect is modelled, its flit traversal on
/// some bank, including the transactions issued on the very cycle the
/// fault aborted the run. Debug builds also run the drain's own
/// conservation asserts on that cycle.
#[test]
fn abort_cycle_commits_through_the_banked_interconnect() {
    use simt_isa::Space;
    use simt_sim::SimError;

    let flat = GpuConfig::tiny();
    let mut l1_only = GpuConfig::tiny();
    l1_only.mem = l1_only.mem.with_l1(4 * 1024);
    for (machine, cfg) in [
        ("flat", flat),
        ("l1-only", l1_only),
        ("cached", cached_config()),
    ] {
        // SM 0's warps store every issue slot; SM 1's warps spin `k`
        // iterations, then issue a misaligned store (trapped at validation,
        // so it records no traffic of its own). Sweeping `k` shifts the
        // fault cycle across the store loop's phase, so at least one run
        // aborts with an SM 0 store staged in that same cycle.
        for k in [4u32, 5, 6, 7] {
            let src = format!(
                r#"
                .kernel main
                main:
                    mov.u32 r1, %tid
                    mov.u32 r2, 0
                    setp.gt.s32 p0, r1, 31
                    @p0 bra delay
                store:
                    st.global.u32 [r2+0], r1
                    st.global.u32 [r2+0], r1
                    st.global.u32 [r2+0], r1
                    bra store
                delay:
                    mov.u32 r6, {k}
                wait:
                    sub.s32 r6, r6, 1
                    setp.gt.s32 p0, r6, 0
                    @p0 bra wait
                    mov.u32 r3, 1
                    st.global.u32 [r3+0], r1
                    exit
            "#
            );
            let what = format!("{machine}, k={k}");
            let flit = u64::from(cfg.mem.icnt_flit_cycles.max(1));
            let service = cfg.mem.segment_service_cycles();
            let interconnect = cfg.mem.l2_enabled();
            let mut gpu = Gpu::builder(cfg.clone()).build();
            gpu.mem_mut().alloc_global(64, "buf");
            // `tiny` admits 32 threads per SM, so warp-granular dispatch
            // fills SM 0 with the store-loop warps (tids 0..32) and SM 1
            // with the delay warps (tids 32..64).
            gpu.launch(Launch {
                program: assemble_named("abort-icnt", &src).unwrap(),
                entry: "main".into(),
                num_threads: 64,
                threads_per_block: 32,
            })
            .expect("launch accepted");

            let err = gpu.run(50_000).expect_err("misaligned store must abort");
            let SimError::Fault(fault) = err else {
                panic!("expected a fault, got {err}");
            };
            assert_eq!(fault.sm, 1, "delay warps should land on SM 1 ({what})");

            let transactions: u64 = gpu
                .sms()
                .iter()
                .map(|sm| sm.traffic().space(Space::Global).transactions)
                .sum();
            assert!(transactions > 0, "store loop should have issued ({what})");
            let dram: f64 = gpu.mem().module_busy().iter().sum();
            assert!(
                (dram - service * transactions as f64).abs() < 1e-6,
                "every recorded transaction must occupy a DRAM module ({what})"
            );
            let busy: u64 = gpu.mem().icnt_busy().iter().sum();
            assert_eq!(
                busy,
                if interconnect { flit * transactions } else { 0 },
                "every recorded transaction must traverse an icnt bank ({what})"
            );
        }
    }
}

/// Corrupt and truncated snapshot files must be rejected by the frame
/// parser — never silently restored into a half-initialised machine.
#[test]
fn corrupt_and_truncated_snapshots_are_rejected() {
    let mut gpu = build(cached_config());
    gpu.run(200).expect("fault-free prefix");
    let bytes = gpu.checkpoint().expect("encodable").to_bytes();
    assert!(Snapshot::from_bytes(&bytes).is_ok());

    // Flip one payload byte: the checksum must catch it.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert!(
        Snapshot::from_bytes(&corrupt).is_err(),
        "bit-flipped snapshot accepted"
    );

    // Truncate at several points, including inside the header.
    for keep in [0usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Snapshot::from_bytes(&bytes[..keep]).is_err(),
            "snapshot truncated to {keep} bytes accepted"
        );
    }
}

/// A flat machine must refuse a snapshot taken on a cached machine (and
/// vice versa is covered by the config being part of the payload): the
/// config travels with the snapshot, so the restored machine always has
/// the hierarchy the snapshot was taken with.
#[test]
fn restored_machine_keeps_the_snapshot_config() {
    let mut gpu = build(cached_config());
    gpu.run(100).expect("fault-free prefix");
    let snapshot = gpu.checkpoint().expect("encodable");
    let resumed = Gpu::restore(&snapshot).expect("restores");
    assert!(resumed.config().mem.l1_enabled());
    assert!(resumed.config().mem.l2_enabled());
}
