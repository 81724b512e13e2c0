//! Timing-model behaviour visible at the pipeline level: texture-cache
//! hits, constant-cache broadcasts, stack coalescing, sequential
//! launches, closed-form checks of the one timing batch — wake-up cycles
//! of hand-computable programs, derived from `MemConfig` fields — and the
//! memory order of two SMs' accesses in one cycle.

use simt_isa::{assemble_named, Instr};
use simt_mem::MemConfig;
use simt_sim::{
    Gpu, GpuConfig, Launch, LaunchError, RunOutcome, TelemetrySpec, TraceEvent, TraceEventKind,
};

fn run_src(src: &str, threads: u32, mark_read_only: Option<(u32, u32)>) -> u64 {
    let program = assemble_named("t", src).unwrap();
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
    gpu.mem_mut().alloc_global(1 << 16, "buf");
    if let Some((base, len)) = mark_read_only {
        gpu.mem_mut().mark_read_only(base, len);
    }
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: threads,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let s = gpu.run(10_000_000).expect("fault-free");
    assert_eq!(s.outcome, RunOutcome::Completed);
    s.stats.cycles
}

/// Every thread reads the same global word many times.
const REREAD_SRC: &str = r#"
    .kernel main
    main:
        mov.u32 r1, 16
        mov.u32 r2, 0
    loop:
        ld.global.u32 r3, [r2+0]
        sub.s32 r1, r1, 1
        setp.gt.s32 p0, r1, 0
        @p0 bra loop
        exit
"#;

#[test]
fn texture_cache_accelerates_rereads() {
    let cached = run_src(REREAD_SRC, 32, Some((0, 4096)));
    let uncached = run_src(REREAD_SRC, 32, None);
    assert!(
        cached < uncached,
        "cached {cached} cycles !< uncached {uncached}"
    );
}

#[test]
fn constant_cache_makes_const_loads_cheap() {
    let const_src = r#"
        .kernel main
        main:
            mov.u32 r1, 16
            mov.u32 r2, 0
        loop:
            ld.const.u32 r3, [r2+0]
            sub.s32 r1, r1, 1
            setp.gt.s32 p0, r1, 0
            @p0 bra loop
            exit
    "#;
    let const_cycles = run_src(const_src, 32, None);
    let global_cycles = run_src(REREAD_SRC, 32, None);
    assert!(
        const_cycles < global_cycles,
        "const {const_cycles} !< uncached global {global_cycles}"
    );
}

#[test]
fn sequential_launches_share_memory_state() {
    // Launch 1 writes, launch 2 increments the same buffer.
    let write_src = r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            mul.lo.s32 r2, r1, 4
            add.s32 r3, r1, 100
            st.global.u32 [r2+0], r3
            exit
    "#;
    let incr_src = r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            mul.lo.s32 r2, r1, 4
            ld.global.u32 r3, [r2+0]
            add.s32 r3, r3, 1
            st.global.u32 [r2+0], r3
            exit
    "#;
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
    gpu.mem_mut().alloc_global(64 * 4, "buf");
    gpu.launch(Launch {
        program: assemble_named("w", write_src).unwrap(),
        entry: "main".into(),
        num_threads: 64,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    assert_eq!(
        gpu.run(1_000_000).expect("fault-free").outcome,
        RunOutcome::Completed
    );
    gpu.launch(Launch {
        program: assemble_named("i", incr_src).unwrap(),
        entry: "main".into(),
        num_threads: 64,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    assert_eq!(
        gpu.run(1_000_000).expect("fault-free").outcome,
        RunOutcome::Completed
    );
    for t in 0..64u32 {
        assert_eq!(
            gpu.mem().read_u32(simt_isa::Space::Global, t * 4),
            t + 101,
            "thread {t}"
        );
    }
}

#[test]
fn relaunch_before_completion_is_rejected() {
    let spin = r#"
        .kernel main
        main:
            mov.u32 r1, 1000
        loop:
            sub.s32 r1, r1, 1
            setp.gt.s32 p0, r1, 0
            @p0 bra loop
            exit
    "#;
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
    let p = assemble_named("spin", spin).unwrap();
    gpu.launch(Launch {
        program: p.clone(),
        entry: "main".into(),
        num_threads: 64,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    gpu.run(10).expect("fault-free"); // far from done
    let second = gpu.launch(Launch {
        program: p,
        entry: "main".into(),
        num_threads: 64,
        threads_per_block: 8,
    });
    assert_eq!(second, Err(LaunchError::LaunchActive));
}

/// Runs `src` as 4-thread warps on a `tiny` machine holding
/// `warps_per_sm` of them per SM, with the given memory configuration,
/// tracing every issue. Returns the pc of the kernel's load with it.
fn traced(
    src: &str,
    threads: u32,
    warps_per_sm: u32,
    mem: MemConfig,
) -> (Gpu, Vec<TraceEvent>, usize) {
    let program = assemble_named("t", src).unwrap();
    let ld_pc = program
        .instrs()
        .iter()
        .position(|i| matches!(i.op, Instr::Ld { .. }))
        .expect("the kernel loads");
    let cfg = GpuConfig {
        mem,
        max_threads_per_sm: 4 * warps_per_sm,
        ..GpuConfig::tiny()
    };
    let mut gpu = Gpu::builder(cfg).telemetry(TelemetrySpec::trace()).build();
    gpu.mem_mut().alloc_global(1 << 12, "buf");
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: threads,
        threads_per_block: 4,
    })
    .expect("launch accepted");
    let s = gpu.run(1_000_000).expect("fault-free");
    assert_eq!(s.outcome, RunOutcome::Completed);
    let events = gpu.telemetry_report().events;
    (gpu, events, ld_pc)
}

/// The cycle at which warp `warp` of SM `sm` issued the instruction at
/// `pc` (each is issued once in these kernels).
fn issued_at(events: &[TraceEvent], sm: usize, warp: usize, pc: usize) -> u64 {
    let mut hits = events.iter().filter(|e| {
        e.sm == sm
            && e.warp == warp
            && matches!(e.kind, TraceEventKind::Issue { pc: p, .. } if p == pc)
    });
    let cycle = hits.next().expect("the instruction issued").cycle;
    assert!(hits.next().is_none(), "issued more than once");
    cycle
}

/// Every lane loads word 0: one segment, one module.
const ONE_SEGMENT_SRC: &str = r#"
    .kernel main
    main:
        mov.u32 r2, 0
        ld.global.u32 r3, [r2+0]
        exit
"#;

/// One warp, one segment, an idle flat machine: the segment occupies its
/// module for the (fractional) service time from the issue cycle, and the
/// data is there `dram_latency` after the cycle that completes in.
#[test]
fn single_segment_load_wakes_after_service_plus_dram_latency() {
    let mem = MemConfig::fx5800();
    let (_, events, ld) = traced(ONE_SEGMENT_SRC, 4, 1, mem.clone());
    let expected = mem.segment_service_cycles().ceil() as u64 + u64::from(mem.dram_latency);
    assert_eq!(
        issued_at(&events, 0, 0, ld + 1) - issued_at(&events, 0, 0, ld),
        expected
    );
}

/// Two SMs send the same segment to one module in the same cycle: the
/// batch is serviced in SM-id order, so SM 1's segment starts when SM 0's
/// leaves the module and its data is one service time later.
#[test]
fn same_cycle_requests_to_one_module_queue_in_sm_order() {
    let mem = MemConfig::fx5800();
    // Two warps, one per SM.
    let (_, events, ld) = traced(ONE_SEGMENT_SRC, 8, 1, mem.clone());
    let issue = issued_at(&events, 0, 0, ld);
    assert_eq!(issued_at(&events, 1, 0, ld), issue, "both load together");
    let service = mem.segment_service_cycles();
    let latency = u64::from(mem.dram_latency);
    assert_eq!(
        issued_at(&events, 0, 0, ld + 1) - issue,
        service.ceil() as u64 + latency
    );
    assert_eq!(
        issued_at(&events, 1, 0, ld + 1) - issue,
        (2.0 * service).ceil() as u64 + latency
    );
}

/// The memory order within a cycle is SM-id order: SM 1's load sees SM
/// 0's store from the same cycle, and SM 0's load does not see SM 1's —
/// on the flat machine and through the cache hierarchy alike (the L1 and
/// L2 time accesses; the words come from the backing store). One warp per
/// SM: the storing warp branches to its store while the other falls
/// through to its load, so both reach memory in the same cycle, and the
/// loading warp writes what it read to word 1.
#[test]
fn a_same_cycle_store_is_seen_by_later_sms_only() {
    for mem in [MemConfig::fx5800(), MemConfig::fx5800_cached()] {
        for storer in [0usize, 1] {
            let src = format!(
                r#"
                .kernel main
                main:
                    mov.u32 r1, %tid
                    mov.u32 r2, 0
                    mov.u32 r4, 7
                    setp.{cmp}.s32 p0, r1, 4
                    @p0 bra store
                    ld.global.u32 r5, [r2+0]
                    st.global.u32 [r2+4], r5
                    exit
                store:
                    st.global.u32 [r2+0], r4
                    exit
                "#,
                // Warp 0 (tids 0..4) runs on SM 0, warp 1 on SM 1.
                cmp = if storer == 0 { "lt" } else { "ge" }
            );
            let (gpu, events, ld) = traced(&src, 8, 1, mem.clone());
            let st = ld + 3;
            let loader = 1 - storer;
            let what = format!("SM {storer} stores, L2 {}", mem.l2_enabled());
            assert_eq!(
                issued_at(&events, storer, 0, st),
                issued_at(&events, loader, 0, ld),
                "one cycle ({what})"
            );
            let seen = gpu.mem().host_read_global(4, 1)[0];
            let want = if storer < loader { 7 } else { 0 };
            assert_eq!(seen, want, "{what}");
        }
    }
}

/// L1-only machine, two warps of one SM missing the same line in adjacent
/// cycles (an SM issues one warp-instruction per cycle, so that is as close
/// as two misses get): the first fetches the line — one request, one
/// segment per 32 B of it, each on its own idle module — and the second
/// merges into the outstanding fill instead of queueing a request of its
/// own behind it. Both are ready at the same fill time and leave through
/// the single issue port one cycle apart.
#[test]
fn second_miss_to_an_in_flight_line_merges_and_wakes_at_the_same_fill() {
    let mem = MemConfig::fx5800().with_l1(16 * 1024);
    // Two warps, both on SM 0.
    let (gpu, events, ld) = traced(ONE_SEGMENT_SRC, 8, 2, mem.clone());

    let first = issued_at(&events, 0, 0, ld);
    assert_eq!(issued_at(&events, 0, 1, ld), first + 1);
    let fill = first + mem.segment_service_cycles().ceil() as u64 + u64::from(mem.dram_latency);
    let mut wakes = [
        issued_at(&events, 0, 0, ld + 1),
        issued_at(&events, 0, 1, ld + 1),
    ];
    wakes.sort_unstable();
    assert_eq!(wakes, [fill, fill + 1]);
    let (hits, misses, merges, stalls) = gpu.l1_stats().expect("L1 modelled");
    assert_eq!((misses, merges, stalls), (2, 1, 0));
    assert_eq!(hits, 6, "the other lanes ride their warp's line");
    let segments = u64::from(mem.l1_line_bytes / mem.segment_bytes);
    assert_eq!(
        gpu.sms()[0]
            .traffic()
            .space(simt_isa::Space::Global)
            .transactions,
        segments,
        "one line fetched once"
    );
}

/// L1-only machine, one warp: its first load splits across a texture
/// binding — lanes 0 and 1 read texture line 0, lanes 2 and 3 the plain
/// L1 line at 256 — and its second reads line 0 from every lane. The
/// split load's texture fill (segment 0) and L1 miss (segments 256 and
/// 288) reach the idle flat fabric in one batch, and segments 0 and 256
/// share DRAM module 0, so its data is there two service times after the
/// issue cycle plus `dram_latency`. The telemetry records the L1 probe,
/// then the texture probe, then the three segments. The second load hits
/// the line the first filled and wakes `tex_hit_latency` after it issues.
#[test]
fn a_warp_split_across_a_binding_queues_fill_and_miss_on_one_module() {
    const SRC: &str = r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            mul.lo.s32 r2, r1, 4
            setp.ge.s32 p0, r1, 2
            @p0 add.s32 r2, r2, 248
            mov.u32 r5, 0
            ld.global.u32 r3, [r2+0]
            ld.global.u32 r4, [r5+0]
            exit
    "#;
    let mem = MemConfig::fx5800().with_l1(16 * 1024);
    assert_eq!((mem.module_of(0), mem.module_of(256)), (0, 0));
    let program = assemble_named("t", SRC).unwrap();
    let split = program
        .instrs()
        .iter()
        .position(|i| matches!(i.op, Instr::Ld { .. }))
        .expect("the kernel loads");
    let cfg = GpuConfig {
        mem: mem.clone(),
        ..GpuConfig::tiny()
    };
    let mut gpu = Gpu::builder(cfg).telemetry(TelemetrySpec::trace()).build();
    gpu.mem_mut().alloc_global(1 << 12, "buf");
    gpu.mem_mut().mark_read_only(0, mem.tex_line_bytes);
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: 4,
        threads_per_block: 4,
    })
    .expect("launch accepted");
    let s = gpu.run(1_000_000).expect("fault-free");
    assert_eq!(s.outcome, RunOutcome::Completed);
    let events = gpu.telemetry_report().events;

    let issue = issued_at(&events, 0, 0, split);
    let hit = issued_at(&events, 0, 0, split + 1);
    let service = mem.segment_service_cycles();
    assert_eq!(
        hit - issue,
        (2.0 * service).ceil() as u64 + u64::from(mem.dram_latency)
    );
    assert_eq!(
        issued_at(&events, 0, 0, split + 2) - hit,
        u64::from(mem.tex_hit_latency)
    );
    let memory: Vec<TraceEventKind> = events
        .iter()
        .filter(|e| e.cycle == issue && !matches!(e.kind, TraceEventKind::Issue { .. }))
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        memory,
        [
            TraceEventKind::L1Access {
                lines: 2,
                misses: 1,
                merges: 0
            },
            TraceEventKind::TexAccess {
                lanes: 2,
                miss_lines: 1
            },
            TraceEventKind::CoalescerSplit {
                lanes: 4,
                segments: 3
            },
        ]
    );
    assert_eq!(gpu.sms()[0].tex_stats(), Some((5, 1)));
    assert_eq!(gpu.l1_stats(), Some((1, 1, 0, 0)));
}

/// `fx5800_cached`: SM 0 misses a line all the way to DRAM, which leaves
/// it in the L2; SM 1 loads it once that round trip is long over. Its own
/// L1 misses, each segment crosses an idle interconnect bank (one flit,
/// then the traversal latency) and hits its partition's slice.
#[test]
fn l2_hit_costs_flit_plus_interconnect_plus_hit_latency() {
    // Warp 0 (SM 0) loads at once; warp 1 (SM 1) spins first.
    const SRC: &str = r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            mov.u32 r2, 0
            mov.u32 r6, 200
            setp.lt.s32 p0, r1, 4
            @p0 bra load
        wait:
            sub.s32 r6, r6, 1
            setp.gt.s32 p1, r6, 0
            @p1 bra wait
        load:
            ld.global.u32 r3, [r2+0]
            exit
    "#;
    let mem = MemConfig::fx5800_cached();
    let (gpu, events, ld) = traced(SRC, 8, 1, mem.clone());
    let cold = issued_at(&events, 0, 0, ld);
    let warm = issued_at(&events, 1, 0, ld);
    assert!(
        warm > issued_at(&events, 0, 0, ld + 1),
        "SM 1 loads after SM 0's fill landed ({cold} .. {warm})"
    );
    let expected = u64::from(mem.icnt_flit_cycles.max(1))
        + u64::from(mem.icnt_latency)
        + u64::from(mem.l2_hit_latency);
    assert_eq!(issued_at(&events, 1, 0, ld + 1) - warm, expected);
    let segments = u64::from(mem.l1_line_bytes / mem.segment_bytes);
    assert_eq!(gpu.mem().l2_stats(), Some((segments, segments)));
}

/// Spawn-memory conflict replays on the Fig. 9 machine (bank conflicts
/// modelled, `shared_banks` banks): all 32 lanes of a warp move a `v4` at
/// the 12-word state-record stride. Lane `l` covers words `12l..12l+4`;
/// four consecutive lanes start on banks 0, 12, 8, 4 and so cover each of
/// the 16 banks once, which puts 128 / 16 = 8 distinct words on every
/// bank: degree 8, seven replays. The replays hold the SM's one issue
/// port, so nothing issues for seven cycles — not even the other warp,
/// which is spinning on ALU work — and the access occupies the load-store
/// port for eight. A load's warp waits for the data, `shared_latency`
/// after the last pass; a store's warp does not, and takes the first
/// issue slot the rotation gives it once the port opens.
#[test]
fn spawn_v4_at_the_state_record_stride_replays_seven_times() {
    let mem = MemConfig::fx5800().with_spawn_bank_conflicts(true);
    assert_eq!(mem.shared_banks, 16, "the stride's bank pattern assumes it");
    let (lanes, words, stride_words) = (32u64, 4u64, 12u64);
    assert!((0..4).all(|l| [0, 12, 8, 4][l as usize] == l * stride_words % 16));
    let degree = lanes * words / mem.shared_banks as u64;
    assert_eq!(degree, 8);

    for (access, is_store) in [
        ("ld.spawn.v4 r4, [r7+0]", false),
        ("st.spawn.v4 [r7+0], r4", true),
    ] {
        // Warp 0 makes the access; warp 1 spins without touching memory.
        let src = format!(
            r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mov.u32 r3, %laneid
                mul.lo.s32 r7, r3, {stride_bytes}
                setp.ge.s32 p0, r1, 32
                @p0 bra spin
                {access}
                nop
                exit
            spin:
                mov.u32 r2, 40
            loop:
                sub.s32 r2, r2, 1
                setp.gt.s32 p1, r2, 0
                @p1 bra loop
                exit
            "#,
            stride_bytes = 4 * stride_words
        );
        let program = assemble_named("t", &src).unwrap();
        let pc = program
            .instrs()
            .iter()
            .position(|i| matches!(i.op, Instr::Ld { .. } | Instr::St { .. }))
            .expect("the kernel accesses spawn memory");
        let cfg = GpuConfig {
            num_sms: 1,
            mem: mem.clone(),
            ..GpuConfig::fx5800_dmk(dmk_core::DmkConfig::paper())
        };
        let mut gpu = Gpu::builder(cfg).telemetry(TelemetrySpec::trace()).build();
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 64,
            threads_per_block: 32,
        })
        .expect("launch accepted");
        let s = gpu.run(1_000_000).expect("fault-free");
        assert_eq!(s.outcome, RunOutcome::Completed);
        let events = gpu.telemetry_report().events;

        let spawn = *gpu.sms()[0].traffic().space(simt_isa::Space::Spawn);
        assert_eq!(spawn.accesses, 1, "{access}");
        assert_eq!(spawn.bank_conflict_passes, degree - 1, "{access}");

        let now = issued_at(&events, 0, 0, pc);
        let next_issue = events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Issue { .. }) && e.cycle > now)
            .map(|e| e.cycle)
            .min()
            .expect("the spinning warp issues again");
        assert_eq!(next_issue, now + (degree - 1), "{access}: port time");
        let resumed = issued_at(&events, 0, 0, pc + 1);
        if is_store {
            // The port opens on the spinning warp's turn; the store's
            // warp, awake since `now + 1`, is next.
            assert_eq!(resumed, now + degree, "{access}");
        } else {
            assert_eq!(
                resumed,
                now + degree + u64::from(mem.shared_latency),
                "{access}"
            );
        }
    }
}

/// Streaming loads on the flat machine run at DRAM bandwidth (ROADMAP
/// 4c). Eight full warps of one SM each load 32 consecutive `v4`s — 512
/// contiguous bytes, 16 segments, which the round-robin interleave deals
/// `16 / num_modules` to every module — one warp a cycle. That is more
/// than a module serves in a cycle, so from the first load's issue every
/// module transfers back to back and the modules stay level: warp `j`'s
/// last segment leaves each module after `(j + 1) * 16 / num_modules`
/// service times, and its data is there `dram_latency` after the cycle
/// that completes in. Nothing else competes for the issue port by then,
/// so that is the cycle the warp's next instruction issues.
#[test]
fn streaming_loads_run_at_dram_bandwidth() {
    const WARPS: usize = 8;
    let mem = MemConfig::fx5800();
    let per_module = 32 * 16 / mem.segment_bytes as usize / mem.num_modules;
    assert_eq!(
        per_module * mem.num_modules * mem.segment_bytes as usize,
        512
    );
    assert!(
        per_module as f64 * mem.segment_service_cycles() > 1.0,
        "a warp a cycle must outrun the modules"
    );
    let program = assemble_named(
        "stream",
        r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            mul.lo.s32 r2, r1, 16
            ld.global.v4 r4, [r2+0]
            exit
        "#,
    )
    .unwrap();
    let ld = 2;
    assert!(matches!(program.instrs()[ld].op, Instr::Ld { .. }));
    let cfg = GpuConfig {
        num_sms: 1,
        mem: mem.clone(),
        ..GpuConfig::fx5800_warp_sched()
    };
    let mut gpu = Gpu::builder(cfg).telemetry(TelemetrySpec::trace()).build();
    gpu.mem_mut().alloc_global(512 * WARPS as u32, "stream");
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: 32 * WARPS as u32,
        threads_per_block: 32,
    })
    .expect("launch accepted");
    let s = gpu.run(1_000_000).expect("fault-free");
    assert_eq!(s.outcome, RunOutcome::Completed);
    let events = gpu.telemetry_report().events;

    let first = issued_at(&events, 0, 0, ld);
    // A module's clock: free from the first load's issue, then one
    // (fractional) service time a segment, never idle.
    let mut module_free = first as f64;
    for warp in 0..WARPS {
        assert_eq!(issued_at(&events, 0, warp, ld), first + warp as u64);
        for _ in 0..per_module {
            module_free += mem.segment_service_cycles();
        }
        assert_eq!(
            issued_at(&events, 0, warp, ld + 1),
            module_free.ceil() as u64 + u64::from(mem.dram_latency),
            "warp {warp}"
        );
    }
    // All of it moved, once, at the coalescer's best: a transaction a
    // segment.
    let global = *gpu.sms()[0].traffic().space(simt_isa::Space::Global);
    assert_eq!(global.bytes_read, 512 * WARPS as u64);
    assert_eq!(
        global.transactions,
        (per_module * mem.num_modules * WARPS) as u64
    );
    // The run ends when the last warp's `exit` has issued.
    assert_eq!(s.stats.cycles, issued_at(&events, 0, WARPS - 1, ld + 1) + 1);
}
