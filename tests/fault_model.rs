//! The hardware-style fault model end to end: typed launch rejection,
//! warp traps under both fault policies, the no-forward-progress
//! watchdog, and deterministic fault injection with recovery.
//!
//! Every test asserts on `Err(..)` / `RunOutcome` values — a well-formed
//! `GpuConfig` plus an arbitrary launch must never panic.

use usimt::dmk::DmkConfig;
use usimt::isa::{assemble_named, Space};
use usimt::mem::MemFault;
use usimt::sim::{
    FaultKind, FaultPolicy, Gpu, GpuConfig, InjectedFault, Injector, Launch, LaunchError,
    RunOutcome, SimError,
};

fn dmk_gpu(num_ukernels: u32) -> Gpu {
    let mut cfg = GpuConfig::tiny();
    cfg.dmk = Some(DmkConfig {
        warp_size: cfg.warp_size,
        threads_per_sm: cfg.max_threads_per_sm,
        state_bytes: 16,
        num_ukernels,
        fifo_capacity: 64,
    });
    Gpu::builder(cfg).build()
}

fn trivial_program() -> usimt::isa::Program {
    assemble_named(
        "trivial",
        r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            exit
        "#,
    )
    .unwrap()
}

#[test]
fn malformed_launches_are_rejected_with_typed_errors() {
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();

    let unknown = gpu.launch(Launch {
        program: trivial_program(),
        entry: "nonexistent".into(),
        num_threads: 8,
        threads_per_block: 4,
    });
    assert_eq!(
        unknown,
        Err(LaunchError::UnknownEntry {
            entry: "nonexistent".into()
        })
    );

    let zero = gpu.launch(Launch {
        program: trivial_program(),
        entry: "main".into(),
        num_threads: 0,
        threads_per_block: 4,
    });
    assert_eq!(zero, Err(LaunchError::NoThreads));

    // tiny() has 4-lane warps; 6 is not a multiple.
    let ragged = gpu.launch(Launch {
        program: trivial_program(),
        entry: "main".into(),
        num_threads: 8,
        threads_per_block: 6,
    });
    assert_eq!(
        ragged,
        Err(LaunchError::BadBlockSize {
            threads_per_block: 6,
            warp_size: 4,
        })
    );

    // A rejected launch must leave the machine usable.
    gpu.launch(Launch {
        program: trivial_program(),
        entry: "main".into(),
        num_threads: 8,
        threads_per_block: 4,
    })
    .expect("well-formed launch accepted after rejections");
    let s = gpu.run(1_000_000).expect("fault-free");
    assert_eq!(s.outcome, RunOutcome::Completed);
}

/// Every thread records its tid in global memory; the low warp then
/// stores to read-only constant memory, which traps.
const CONST_STORE_SRC: &str = r#"
    .kernel main
    main:
        mov.u32 r1, %tid
        mul.lo.s32 r2, r1, 4
        st.global.u32 [r2+0], r1
        setp.lt.s32 p0, r1, 4
        @p0 st.const.u32 [r2+0], r1
        exit
"#;

#[test]
fn const_store_trap_aborts_under_default_policy() {
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
    gpu.mem_mut().alloc_global(64 * 4, "out");
    gpu.launch(Launch {
        program: assemble_named("const-store", CONST_STORE_SRC).unwrap(),
        entry: "main".into(),
        num_threads: 16,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let err = gpu.run(1_000_000).expect_err("const store must trap");
    let SimError::Fault(fault) = err else {
        panic!("expected a fault, got {err}");
    };
    match fault.kind {
        FaultKind::Memory(MemFault::ConstStore { .. }) => {}
        other => panic!("expected a const-store memory fault, got {other:?}"),
    }
    // The abort left the machine at the faulting cycle for inspection.
    assert_eq!(fault.cycle, gpu.now());
    assert_eq!(gpu.faults().len(), 1);
}

#[test]
fn a_run_after_an_abort_steps_nothing_and_returns_the_same_fault() {
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
    gpu.launch(Launch {
        program: assemble_named(
            "early-trap",
            r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                st.const.u32 [r1+0], r1
                exit
            "#,
        )
        .unwrap(),
        entry: "main".into(),
        num_threads: 8,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let first = gpu.run(100).expect_err("const store must trap");
    let SimError::Fault(fault) = &first else {
        panic!("expected a fault, got {first}");
    };
    assert_eq!(fault.cycle, 2, "the store issues on the third cycle");
    let (stats, faults) = (gpu.stats().clone(), gpu.faults().to_vec());
    // The clock is still on the faulting cycle; running again must not
    // step it a second time.
    let again = gpu.run(100).expect_err("the abort still stands");
    assert_eq!(again, first);
    assert_eq!(gpu.now(), fault.cycle);
    assert_eq!(gpu.stats(), &stats, "a refused run changes no counter");
    assert_eq!(gpu.faults(), &faults[..]);
    assert_eq!(gpu.audit(), Ok(()));
}

#[test]
fn kill_warp_policy_retires_faulting_warp_and_completes() {
    let mut cfg = GpuConfig::tiny();
    cfg.fault_policy = FaultPolicy::KillWarp;
    let mut gpu = Gpu::builder(cfg).build();
    gpu.mem_mut().alloc_global(64 * 4, "out");
    gpu.launch(Launch {
        program: assemble_named("const-store", CONST_STORE_SRC).unwrap(),
        entry: "main".into(),
        num_threads: 16,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let s = gpu.run(1_000_000).expect("killed warps are not an error");
    assert_eq!(s.outcome, RunOutcome::Completed);
    assert_eq!(s.stats.faults, 1);
    assert_eq!(s.stats.warps_killed, 1);
    assert!(s.stats.threads_killed >= 1);
    assert_eq!(s.faults.len(), 1);
    assert!(matches!(
        s.faults[0].kind,
        FaultKind::Memory(MemFault::ConstStore { .. })
    ));
    // Threads outside the killed warp completed their global stores.
    for tid in 4..16u32 {
        assert_eq!(gpu.mem().read_u32(Space::Global, tid * 4), tid, "tid {tid}");
    }
}

/// A kernel that spins forever: no thread ever retires.
const LIVELOCK_SRC: &str = r#"
    .kernel main
    main:
        mov.u32 r1, 1
    loop:
        setp.gt.s32 p0, r1, 0
        @p0 bra loop
        exit
"#;

#[test]
fn watchdog_turns_livelock_into_deadlock_outcome() {
    let mut cfg = GpuConfig::tiny();
    cfg.watchdog_cycles = 5_000;
    let mut gpu = Gpu::builder(cfg).build();
    gpu.launch(Launch {
        program: assemble_named("livelock", LIVELOCK_SRC).unwrap(),
        entry: "main".into(),
        num_threads: 8,
        threads_per_block: 4,
    })
    .expect("launch accepted");
    let s = gpu
        .run(u64::MAX / 4)
        .expect("deadlock is an outcome, not an error");
    let RunOutcome::Deadlock { diagnostics } = s.outcome else {
        panic!("expected deadlock, got {:?}", s.outcome);
    };
    assert_eq!(s.stats.watchdog_deadlocks, 1);
    assert_eq!(diagnostics.watchdog_cycles, 5_000);
    assert_eq!(diagnostics.sms.len(), 2, "tiny() has 2 SMs");
    let live: u32 = diagnostics
        .sms
        .iter()
        .flat_map(|sm| sm.warps.iter())
        .map(|w| w.live_lanes)
        .sum();
    assert_eq!(live, 8, "all launched threads still spinning");
    // The diagnostics render a human-readable report.
    let report = format!("{diagnostics}");
    assert!(report.contains("no forward progress"), "report: {report}");
}

#[test]
fn injected_trap_respects_fault_policy() {
    let src = r#"
        .kernel main
        main:
            mov.u32 r1, 64
        loop:
            sub.s32 r1, r1, 1
            setp.gt.s32 p0, r1, 0
            @p0 bra loop
            exit
    "#;
    // Abort: the injected trap surfaces as a typed fault.
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
    gpu.set_injector(Injector::new(7).force(InjectedFault::Trap, 10..11));
    gpu.launch(Launch {
        program: assemble_named("spin", src).unwrap(),
        entry: "main".into(),
        num_threads: 16,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let err = gpu.run(1_000_000).expect_err("injected trap must abort");
    let SimError::Fault(fault) = err else {
        panic!("expected a fault, got {err}");
    };
    assert_eq!(fault.kind, FaultKind::Injected);
    assert_eq!(fault.cycle, 10);

    // KillWarp: the trapped warps die, the rest of the grid completes.
    let mut cfg = GpuConfig::tiny();
    cfg.fault_policy = FaultPolicy::KillWarp;
    let mut gpu = Gpu::builder(cfg).build();
    gpu.set_injector(Injector::new(7).force(InjectedFault::Trap, 10..11));
    gpu.launch(Launch {
        program: assemble_named("spin", src).unwrap(),
        entry: "main".into(),
        num_threads: 16,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let s = gpu.run(1_000_000).expect("killed warps are not an error");
    assert_eq!(s.outcome, RunOutcome::Completed);
    assert!(s.stats.warps_killed >= 1);
    assert!(s.stats.injected_events >= 1);
    assert_eq!(
        s.stats.threads_killed + s.stats.threads_retired,
        16,
        "every thread either retired or was killed"
    );
}

/// One spawn per thread; the child writes `tid` to global memory.
const SPAWN_ONCE_SRC: &str = r#"
.kernel main
.kernel child
.spawnstate 16
main:
    mov.u32 r1, %tid
    mov.u32 r7, %spawnmem
    st.spawn.u32 [r7+0], r1
    spawn $child, r7
    exit
child:
    mov.u32 r7, %spawnmem
    ld.spawn.u32 r7, [r7+0]
    ld.spawn.u32 r1, [r7+0]
    mul.lo.s32 r2, r1, 4
    st.global.u32 [r2+0], r1
    exit
"#;

#[test]
fn injector_forced_fifo_full_recovers_and_completes_the_render() {
    let n = 32u32;

    // Baseline: no injection.
    let mut gpu = dmk_gpu(2);
    gpu.mem_mut().alloc_global(n * 4, "out");
    gpu.launch(Launch {
        program: assemble_named("spawn-once", SPAWN_ONCE_SRC).unwrap(),
        entry: "main".into(),
        num_threads: n,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let clean = gpu.run(10_000_000).expect("fault-free");
    assert_eq!(clean.outcome, RunOutcome::Completed);

    // Forced back-pressure: every spawn in the first 300 cycles sees a
    // full FIFO and must stall-and-retry instead of panicking.
    let mut gpu = dmk_gpu(2);
    gpu.set_injector(Injector::new(42).force(InjectedFault::SpawnFifoFull, 0..300));
    gpu.mem_mut().alloc_global(n * 4, "out");
    gpu.launch(Launch {
        program: assemble_named("spawn-once", SPAWN_ONCE_SRC).unwrap(),
        entry: "main".into(),
        num_threads: n,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let s = gpu.run(10_000_000).expect("back-pressure is not a fault");
    assert_eq!(s.outcome, RunOutcome::Completed);
    assert!(s.stats.injected_events > 0, "injection window must be hit");
    assert!(
        s.stats.stalls.total().spawn_stalls > 0,
        "forced FIFO-full must stall spawns"
    );
    assert!(
        s.stats.cycles > clean.stats.cycles,
        "recovery costs cycles: {} !> {}",
        s.stats.cycles,
        clean.stats.cycles
    );
    // The render still produced every result.
    for tid in 0..n {
        assert_eq!(gpu.mem().read_u32(Space::Global, tid * 4), tid, "tid {tid}");
    }
    assert_eq!(
        s.stats.faults, 0,
        "back-pressure is not recorded as a fault"
    );
}

#[test]
fn injected_state_slot_exhaustion_only_delays_the_launch() {
    let mut gpu = dmk_gpu(2);
    gpu.set_injector(Injector::new(3).force(InjectedFault::StateSlotsExhausted, 0..200));
    let n = 16u32;
    gpu.mem_mut().alloc_global(n * 4, "out");
    gpu.launch(Launch {
        program: assemble_named("spawn-once", SPAWN_ONCE_SRC).unwrap(),
        entry: "main".into(),
        num_threads: n,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let s = gpu.run(10_000_000).expect("starvation is transient");
    assert_eq!(s.outcome, RunOutcome::Completed);
    assert!(s.stats.injected_events > 0);
    assert!(
        s.stats.cycles >= 200,
        "admission was starved for the window"
    );
    for tid in 0..n {
        assert_eq!(gpu.mem().read_u32(Space::Global, tid * 4), tid, "tid {tid}");
    }
}

#[test]
fn injector_draws_are_deterministic_across_runs() {
    let run_once = || {
        let mut gpu = dmk_gpu(2);
        gpu.set_injector(Injector::new(99).force_with_probability(
            InjectedFault::SpawnFifoFull,
            0..500,
            0.5,
        ));
        gpu.mem_mut().alloc_global(32 * 4, "out");
        gpu.launch(Launch {
            program: assemble_named("spawn-once", SPAWN_ONCE_SRC).unwrap(),
            entry: "main".into(),
            num_threads: 32,
            threads_per_block: 8,
        })
        .expect("launch accepted");
        let s = gpu.run(10_000_000).expect("fault-free");
        assert_eq!(s.outcome, RunOutcome::Completed);
        (s.stats.cycles, s.stats.injected_events, s.dmk.spawn_stalls)
    };
    assert_eq!(run_once(), run_once(), "same seed, same schedule");
}

/// A vector access whose address span runs off the top of the address
/// space — `0xfffffff8`, `…c`, `0`, `4` — wraps like the 32-bit address
/// adder it models, in every space: the on-chip scratchpads take it
/// modulo their capacity, a global load reads the (zero) top words and
/// the first two of the heap, and the spaces with bounds answer with
/// their typed fault. The host never overflows.
#[test]
fn a_vector_access_wrapping_the_address_space_is_a_result_or_a_typed_fault() {
    let run = |access: &str| {
        let src = format!(
            r#"
            .kernel main
            main:
                mov.u32 r1, 0xfffffff8
                mov.u32 r4, 7
                {access}
                mov.u32 r2, 16
                st.global.v4 [r2+0], r4
                exit
            "#
        );
        let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
        let buf = gpu.mem_mut().alloc_global(32, "buf");
        gpu.mem_mut().host_write_global(buf, &[11, 22]);
        gpu.launch(Launch {
            program: assemble_named("wild", &src).unwrap(),
            entry: "main".into(),
            num_threads: 4,
            threads_per_block: 4,
        })
        .expect("launch accepted");
        let result = gpu.run(1_000_000);
        (gpu, result)
    };
    let completed = |access: &str| {
        let (gpu, result) = run(access);
        let s = result.unwrap_or_else(|e| panic!("`{access}` faulted: {e}"));
        assert_eq!(s.outcome, RunOutcome::Completed, "{access}");
        gpu.mem().host_read_global(16, 4)
    };
    let fault_of = |access: &str| match run(access).1 {
        Err(SimError::Fault(fault)) => fault.kind,
        other => panic!("`{access}` must trap, got {other:?}"),
    };

    assert_eq!(completed("ld.global.v4 r4, [r1+0]"), [0, 0, 11, 22]);
    assert_eq!(completed("ld.shared.v4 r4, [r1+0]"), [0; 4]);
    // The store laps the 16 KiB scratchpad; the load finds it there.
    assert_eq!(
        completed("st.shared.v4 [r1+0], r4\n ld.shared.v4 r4, [r1+0]"),
        [7, 0, 0, 0]
    );
    assert!(matches!(
        fault_of("st.global.v4 [r1+0], r4"),
        FaultKind::Memory(MemFault::GlobalStoreOob {
            addr: 0xffff_fff8,
            ..
        })
    ));
    for access in ["ld.local.v4 r4, [r1+0]", "st.local.v4 [r1+0], r4"] {
        assert!(matches!(
            fault_of(access),
            FaultKind::Memory(MemFault::LocalOob {
                addr: 0xffff_fff8,
                ..
            })
        ));
    }
    // A register span running past r255 never reaches the machine: the
    // assembler refuses it with a typed error.
    assert!(matches!(
        assemble_named(
            "wild-reg",
            ".kernel main\nmain:\n ld.global.v4 r254, [r1+0]\n exit"
        ),
        Err(usimt::isa::AsmError::Invalid(
            usimt::isa::ValidateError::RegisterOutOfRange { .. }
        ))
    ));
}
