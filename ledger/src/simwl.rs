//! The four simulator workloads: one `Gpu` at phase-A parallelism 1,
//! driven in a closed loop by this thread. Modelled caches start empty in
//! every rep, as they do under `repro`, and the kd-tree windows include the
//! pipeline-fill transient.

use crate::metrics::Report;
use crate::spans::Tracer;
use crate::{host, seed, Args};
use experiments::{config_for, Variant};
use raytrace::scenes::{self, SceneScale};
use raytrace::{Bvh, KdTree};
use rt_kernels::pt_render::{exact_mismatches, PtSetup};
use rt_kernels::render::{compare, RenderSetup};
use simt_isa::{ReconvergenceTable, Space};
use simt_sim::{Gpu, GpuBuilder, RunOutcome, RunSummary, Snapshot, TelemetrySpec};
use std::time::Instant;

/// Budget of a run to completion; a budget hit is a failed rep.
const COMPLETION_BUDGET: u64 = 4_000_000_000;
/// The repo's own threshold for a kd-tree render against the host tracer.
const MATCH_THRESHOLD: f64 = 0.99;

/// What distinguishes one simulator workload from another.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    variant: Variant,
    /// 16 KiB L1 + 512 KiB L2 (the `fx5800_cached` knobs) instead of the
    /// Table I flat fabric.
    cached: bool,
    /// BVH path tracer to completion instead of a kd-tree render window.
    path_tracer: bool,
}

/// Looks a simulator workload up by name.
pub fn shape(workload: &str) -> Option<Shape> {
    let (variant, cached, path_tracer) = match workload {
        "fig7-flat" => (Variant::Dynamic, false, false),
        "fig7-cached" => (Variant::Dynamic, true, false),
        "fig3-pdom" => (Variant::PdomWarp, false, false),
        "bvh-gi" => (Variant::Dynamic, false, true),
        _ => return None,
    };
    Some(Shape {
        variant,
        cached,
        path_tracer,
    })
}

/// Input sizes: the paper's method, or the toy scale of `--smoke`.
struct Sizes {
    scene: SceneScale,
    edge: u32,
    /// Cycles of the timed `Gpu::run`; `None` runs to completion.
    window: Option<u64>,
    /// Cycles of the prefix the knob differentials run.
    prefix: u64,
    /// Edge of the untimed frame the kd-tree workloads render to completion
    /// for validation; the path tracer validates every rep instead.
    check_edge: Option<u32>,
    threads_per_block: u32,
}

fn sizes(shape: Shape, smoke: bool) -> Sizes {
    match (smoke, shape.path_tracer) {
        (false, false) => Sizes {
            scene: SceneScale::Full,
            edge: 256,
            window: Some(300_000),
            prefix: 30_000,
            check_edge: Some(32),
            threads_per_block: 64,
        },
        (false, true) => Sizes {
            scene: SceneScale::Full,
            edge: 64,
            window: None,
            prefix: 50_000,
            check_edge: None,
            threads_per_block: 64,
        },
        (true, false) => Sizes {
            scene: SceneScale::Tiny,
            edge: 16,
            window: Some(20_000),
            prefix: 5_000,
            check_edge: Some(8),
            threads_per_block: 32,
        },
        (true, true) => Sizes {
            scene: SceneScale::Tiny,
            edge: 8,
            window: None,
            prefix: 5_000,
            check_edge: None,
            threads_per_block: 32,
        },
    }
}

enum Uploaded {
    Kd(RenderSetup),
    Pt(PtSetup),
}

/// A launched machine, ready for `Gpu::run`.
struct Machine {
    gpu: Gpu,
    uploaded: Uploaded,
    /// Everything before the timed call: scene generation, tree build,
    /// assemble, upload, `Gpu::launch`.
    setup_s: f64,
}

/// Scene → machine → upload → launch, each call into a layer in a span.
fn prepare(
    shape: Shape,
    sz: &Sizes,
    edge: u32,
    seed: u64,
    tweak: &dyn Fn(GpuBuilder) -> GpuBuilder,
    tracer: &mut Tracer,
) -> Machine {
    let start = Instant::now();
    let scene = tracer.span("raytrace.scenes.conference", |_| {
        let mut scene = scenes::conference(sz.scene);
        seed::jitter_camera(&mut scene, seed);
        scene
    });
    let mut cfg = config_for(shape.variant);
    if shape.cached {
        cfg.mem.l1_bytes = 16 * 1024;
        cfg.mem.l2_bytes = 512 * 1024;
    }
    let mut gpu = tracer.span("sim.gpu.build", |_| {
        tweak(Gpu::builder(cfg).telemetry(TelemetrySpec::metrics())).build()
    });
    let uploaded = if shape.path_tracer {
        let s = tracer.span("rt-kernels.pt_render.upload", |_| {
            PtSetup::upload(&mut gpu, &scene, edge, edge)
        });
        tracer.span("sim.gpu.launch", |_| {
            s.launch_ukernel(&mut gpu, sz.threads_per_block)
        });
        Uploaded::Pt(s)
    } else {
        let s = tracer.span("rt-kernels.render.upload", |_| {
            RenderSetup::upload(&mut gpu, &scene, edge, edge)
        });
        tracer.span("sim.gpu.launch", |_| {
            if shape.variant.is_dynamic() {
                s.launch_ukernel(&mut gpu, sz.threads_per_block);
            } else {
                s.launch_traditional(&mut gpu, sz.threads_per_block);
            }
        });
        Uploaded::Kd(s)
    };
    Machine {
        gpu,
        uploaded,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// One timed `Gpu::run`.
struct Run {
    summary: Option<RunSummary>,
    wall_s: f64,
}

fn run(m: &mut Machine, cycles: u64, tracer: &mut Tracer) -> Run {
    let start = Instant::now();
    let result = tracer.span("sim.gpu.run", |_| m.gpu.run(cycles));
    let wall_s = start.elapsed().as_secs_f64();
    if let Err(e) = &result {
        eprintln!("ledger: Gpu::run failed: {e:?}");
    }
    Run {
        summary: result.ok(),
        wall_s,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every exact statistic of a finished run, under its catalogue name:
/// public counters of the simulator, and ratios of them.
fn counts(gpu: &Gpu, s: &RunSummary) -> Vec<(&'static str, f64)> {
    let st = &s.stats;
    let cfg = gpu.config();
    let global = s.traffic.space(Space::Global);
    let spawn = s.traffic.space(Space::Spawn);
    let (tex_hits, tex_misses) = gpu
        .sms()
        .iter()
        .filter_map(|sm| sm.tex_stats())
        .fold((0, 0), |(h, m), (h2, m2)| (h + h2, m + m2));
    let (l1_hits, l1_misses, merges, stalls) = gpu.l1_stats().unwrap_or_default();
    let (l2_hits, l2_misses) = gpu.mem().l2_stats().unwrap_or_default();
    let busy = gpu.mem().module_busy();
    let busy_share = if st.cycles == 0 || busy.is_empty() {
        0.0
    } else {
        busy.iter().sum::<f64>() / busy.len() as f64 / st.cycles as f64
    };
    let f = |v: u64| v as f64;
    vec![
        ("sim.gpu.cycles", f(st.cycles)),
        ("sim.gpu.warp_issues", f(st.warp_issues)),
        ("sim.gpu.thread_instr", f(st.thread_instructions)),
        ("sim.gpu.rays", f(st.lineages_completed)),
        ("sim.gpu.idle_sm_cycles", f(st.idle_sm_cycles)),
        (
            "sim.gpu.sm_occupancy",
            1.0 - ratio(st.idle_sm_cycles, st.cycles * cfg.num_sms as u64),
        ),
        ("sim.gpu.skipped_cycles", f(gpu.skipped_cycles())),
        (
            "sim.gpu.mrays_per_s",
            st.rays_per_second(cfg.clock_ghz) / 1e6,
        ),
        ("sim.gpu.simd_efficiency", st.simt_efficiency(cfg.warp_size)),
        ("core.formation.spawn_instr", f(s.dmk.spawn_instructions)),
        ("core.formation.threads_spawned", f(s.dmk.threads_spawned)),
        ("core.formation.warps_completed", f(s.dmk.warps_completed)),
        (
            "core.formation.partial_warps_forced",
            f(s.dmk.partial_warps_forced),
        ),
        ("core.formation.spawn_stalls", f(s.dmk.spawn_stalls)),
        ("core.formation.max_fifo_depth", s.dmk.max_fifo_depth as f64),
        (
            "core.formation.full_warp_ratio",
            ratio(
                s.dmk.threads_spawned - s.dmk.partial_threads_forced,
                s.dmk.threads_spawned,
            ),
        ),
        ("mem.global.accesses", f(global.accesses)),
        ("mem.global.transactions", f(global.transactions)),
        ("mem.global.bytes", f(global.total_bytes())),
        (
            "mem.coalesce.tx_per_access",
            ratio(global.transactions, global.accesses),
        ),
        ("mem.spawn.accesses", f(spawn.accesses)),
        ("mem.spawn.conflict_passes", f(spawn.bank_conflict_passes)),
        ("mem.tex.hit_ratio", ratio(tex_hits, tex_hits + tex_misses)),
        ("mem.l1.hits", f(l1_hits)),
        ("mem.l1.misses", f(l1_misses)),
        ("mem.mshr.merges", f(merges)),
        ("mem.mshr.stalls", f(stalls)),
        ("mem.l2.hits", f(l2_hits)),
        ("mem.l2.misses", f(l2_misses)),
        ("mem.icnt.conflicts", f(gpu.mem().icnt_conflicts())),
        ("mem.dram.busy_share", busy_share),
    ]
}

/// The value `counts` recorded under `name`.
fn lookup(counts: &[(&'static str, f64)], name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Whether a finished rep passes: no error, the expected stop reason, a
/// clean fault health, and (path tracer) a bit-exact image.
fn rep_is_clean(sz: &Sizes, m: &Machine, r: &Run, tracer: &mut Tracer) -> bool {
    let Some(s) = &r.summary else { return false };
    let st = &s.stats;
    let healthy = s.faults.is_empty()
        && st.faults + st.warps_killed + st.threads_killed == 0
        && st.watchdog_deadlocks + st.injected_events == 0;
    let stopped_as_expected = match sz.window {
        Some(_) => matches!(s.outcome, RunOutcome::CycleLimit | RunOutcome::Completed),
        None => s.outcome == RunOutcome::Completed,
    };
    let exact_image = match &m.uploaded {
        Uploaded::Pt(setup) => {
            let host = tracer.span("rt-kernels.pt_render.host_reference", |_| {
                setup.host_reference()
            });
            exact_mismatches(&host, &setup.device_results(&m.gpu)) == 0
        }
        Uploaded::Kd(_) => true,
    };
    healthy && stopped_as_expected && exact_image
}

/// Renders one untimed small frame to completion on this workload's own
/// machine configuration and compares it with the host tracer.
fn check_frame(shape: Shape, sz: &Sizes, edge: u32, seed: u64, tracer: &mut Tracer) -> f64 {
    let mut m = prepare(shape, sz, edge, seed, &|b| b, &mut Tracer::new(false));
    let completed = matches!(
        m.gpu.run(COMPLETION_BUDGET),
        Ok(RunSummary {
            outcome: RunOutcome::Completed,
            ..
        })
    );
    let Uploaded::Kd(setup) = &m.uploaded else {
        unreachable!("check frames are rendered by the kd-tree workloads only")
    };
    let host = tracer.span("rt-kernels.render.host_reference", |_| {
        setup.host_reference()
    });
    if completed {
        compare(&host, &setup.device_results(&m.gpu)).match_rate()
    } else {
        0.0
    }
}

/// The timed set: reps until `--seconds` have been measured.
pub fn timed(shape: Shape, args: &Args, report: &mut Report) {
    let sz = sizes(shape, args.smoke);
    let mut tracer = Tracer::new(false);
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<(&'static str, f64)>> = None;
    let mut peak_rss = 0.0;
    let began = Instant::now();
    while args.wants_more(wall.len(), 1, began) {
        let mut m = prepare(shape, &sz, sz.edge, args.seed, &|b| b, &mut tracer);
        let r = run(&mut m, sz.window.unwrap_or(COMPLETION_BUDGET), &mut tracer);
        let clean = rep_is_clean(&sz, &m, &r, &mut tracer);
        let these = r.summary.as_ref().map(|s| counts(&m.gpu, s));
        let repeats = match (&first, &these) {
            (Some(a), Some(b)) => a == b,
            (None, Some(_)) => true,
            _ => false,
        };
        report.check(clean && repeats, || {
            format!("rep {}: clean {clean}, counts repeat {repeats}", wall.len())
        });
        first = first.or(these);
        setup.push(m.setup_s);
        wall.push(r.wall_s);
        if wall.len() == 1 {
            // What one simulation in a fresh process peaks at; how the
            // allocator reuses memory over later reps is not the workload's.
            peak_rss = host::self_peak_rss_mib();
        }
    }
    // Set-up is a few tens of milliseconds: repeat it for a steadier median.
    while setup.len() < 7 {
        setup.push(prepare(shape, &sz, sz.edge, args.seed, &|b| b, &mut tracer).setup_s);
    }
    if let Some(edge) = sz.check_edge {
        let rate = check_frame(shape, &sz, edge, args.seed, &mut tracer);
        report.check(rate > MATCH_THRESHOLD, || {
            format!("check frame match rate {rate}")
        });
    }
    if let Some(c) = &first {
        // The simulated figures of merit repeat exactly; printed so drift
        // between two commits is visible without a traced run.
        for name in [
            "sim.gpu.cycles",
            "sim.gpu.mrays_per_s",
            "sim.gpu.simd_efficiency",
        ] {
            let v = lookup(c, name);
            eprintln!("  {name} {v} (simulated; timing unvalidated against hardware)");
        }
    }
    report.set_end_to_end(&setup, &wall, peak_rss);
}

/// One arm of the knob differentials: a builder tweak's best prefix wall
/// and the exact counts of its last run.
struct Arm {
    wall_s: f64,
    counts: Option<Vec<(&'static str, f64)>>,
}

/// Runs a prefix of the workload under each builder tweak in turn, three
/// rounds, keeping each arm's best wall. Interleaved so host drift lands
/// on every arm equally. Also returns the machine the first arm ended on,
/// a mid-run state to snapshot.
fn differentials<const N: usize>(
    shape: Shape,
    sz: &Sizes,
    seed: u64,
    tweaks: [&dyn Fn(GpuBuilder) -> GpuBuilder; N],
) -> ([Arm; N], Option<Machine>) {
    let mut off = Tracer::new(false);
    let mut arms = [(); N].map(|()| Arm {
        wall_s: f64::INFINITY,
        counts: None,
    });
    let mut first_machine = None;
    for _ in 0..3 {
        for (i, (arm, tweak)) in arms.iter_mut().zip(tweaks).enumerate() {
            let mut m = prepare(shape, sz, sz.edge, seed, tweak, &mut off);
            let r = run(&mut m, sz.prefix, &mut off);
            arm.wall_s = arm.wall_s.min(r.wall_s);
            arm.counts = r.summary.as_ref().map(|s| counts(&m.gpu, s));
            if i == 0 {
                first_machine = Some(m);
            }
        }
    }
    (arms, first_machine)
}

/// Mid-run snapshot of `gpu`: encode, write, read + restore. The restored
/// machine must land on the same cycle.
fn checkpoint(gpu: &Gpu, args: &Args, tracer: &mut Tracer, report: &mut Report) {
    let path = args.scratch.join("ledger.ckpt");
    let Ok(snap) = tracer.span("sim.gpu.checkpoint", |_| gpu.checkpoint()) else {
        report.check(false, || "Gpu::checkpoint failed".to_string());
        return;
    };
    let written = tracer.span("sim.snapshot.write_to", |_| snap.write_to(&path));
    let restored = tracer.span("sim.snapshot.read_restore", |t| {
        let back = t.span("sim.snapshot.read_from", |_| Snapshot::read_from(&path));
        back.ok()
            .and_then(|b| t.span("sim.gpu.restore", |_| Gpu::restore(&b)).ok())
    });
    let same_cycle = restored.is_some_and(|r| r.now() == gpu.now());
    report.check(written.is_ok() && same_cycle, || {
        format!("snapshot round trip: written {written:?}, same cycle {same_cycle}")
    });
    report.set(
        "sim.checkpoint.bytes",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
    );
    report.set(
        "sim.checkpoint.encode_s",
        tracer.total("sim.gpu.checkpoint"),
    );
    report.set(
        "sim.checkpoint.write_s",
        tracer.total("sim.snapshot.write_to"),
    );
    report.set(
        "sim.checkpoint.read_restore_s",
        tracer.total("sim.snapshot.read_restore"),
    );
    let _ = std::fs::remove_file(&path);
}

/// The traced set: one untraced and one traced rep, the layer calls the
/// workload makes indirectly timed on their own, and the knob
/// differentials on a prefix of this workload. `report` already holds the
/// micro-probes' unit costs.
pub fn traced(shape: Shape, args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let sz = sizes(shape, args.smoke);
    let cycles = sz.window.unwrap_or(COMPLETION_BUDGET);

    let mut plain = prepare(
        shape,
        &sz,
        sz.edge,
        args.seed,
        &|b| b,
        &mut Tracer::new(false),
    );
    let untraced = run(&mut plain, cycles, &mut Tracer::new(false));
    drop(plain);
    let mut m = prepare(shape, &sz, sz.edge, args.seed, &|b| b, tracer);
    let r = run(&mut m, cycles, tracer);
    let clean = rep_is_clean(&sz, &m, &r, tracer);
    report.check(clean, || "traced rep is not clean".to_string());
    tracer.span("sim.gpu.telemetry_report", |_| {
        std::hint::black_box(m.gpu.telemetry_report());
    });
    report.set(
        "trace_overhead_pct",
        (r.wall_s / untraced.wall_s - 1.0) * 100.0,
    );

    // Calls the workload only makes through `upload` and `launch`, timed
    // directly on the same inputs.
    let mut scene = scenes::conference(sz.scene);
    seed::jitter_camera(&mut scene, args.seed);
    let (source, program) = match (shape.path_tracer, shape.variant.is_dynamic()) {
        (true, _) => (
            rt_kernels::pt_ukernel::source(),
            rt_kernels::pt_ukernel::program(),
        ),
        (false, true) => (
            rt_kernels::ukernel::source(),
            rt_kernels::ukernel::program(),
        ),
        (false, false) => (
            rt_kernels::traditional::source(),
            rt_kernels::traditional::program(),
        ),
    };
    if shape.path_tracer {
        tracer.span("raytrace.bvh.build", |_| {
            std::hint::black_box(Bvh::build(&scene.triangles));
        });
    } else {
        tracer.span("raytrace.kdtree.build", |_| {
            std::hint::black_box(KdTree::build(&scene.triangles));
        });
    }
    tracer.span("isa.asm.assemble", |_| {
        std::hint::black_box(simt_isa::assemble(&source).expect("embedded kernels assemble"));
    });
    tracer.span("isa.cfg.reconvergence_table", |_| {
        std::hint::black_box(ReconvergenceTable::build(&program));
    });
    if let Some(edge) = sz.check_edge {
        let rate = check_frame(shape, &sz, edge, args.seed, tracer);
        report.check(rate > MATCH_THRESHOLD, || {
            format!("check frame match rate {rate}")
        });
        report.set("rt-kernels.render.match_rate", rate);
    } else {
        // The path tracer is validated bit-exactly inside `rep_is_clean`.
        report.set("rt-kernels.render.match_rate", f64::from(u8::from(clean)));
    }

    for (metric, span) in [
        ("raytrace.scenes.gen_s", "raytrace.scenes.conference"),
        ("raytrace.kdtree.build_s", "raytrace.kdtree.build"),
        ("raytrace.bvh.build_s", "raytrace.bvh.build"),
        ("isa.asm.assemble_s", "isa.asm.assemble"),
        ("isa.cfg.reconv_build_s", "isa.cfg.reconvergence_table"),
        ("sim.gpu.launch_s", "sim.gpu.launch"),
        ("sim.gpu.run_s", "sim.gpu.run"),
        ("sim.telemetry.report_s", "sim.gpu.telemetry_report"),
    ] {
        report.set(metric, tracer.total(span));
    }
    report.set(
        "rt-kernels.render.upload_s",
        tracer.total("rt-kernels.render.upload") + tracer.total("rt-kernels.pt_render.upload"),
    );
    report.set(
        "raytrace.host_trace_s",
        tracer.total("rt-kernels.render.host_reference")
            + tracer.total("rt-kernels.pt_render.host_reference"),
    );

    let Some(summary) = &r.summary else { return };
    let exact = counts(&m.gpu, summary);
    for (name, v) in &exact {
        report.set(name, *v);
    }
    let count = |name: &str| lookup(&exact, name);
    let run_ns = r.wall_s * 1e9;
    report.set("sim.gpu.cycles_per_s", count("sim.gpu.cycles") / r.wall_s);
    report.set(
        "sim.gpu.ns_per_warp_issue",
        run_ns / count("sim.gpu.warp_issues").max(1.0),
    );
    report.set(
        "sim.gpu.ns_per_ticked_cycle",
        run_ns / (count("sim.gpu.cycles") - count("sim.gpu.skipped_cycles")).max(1.0),
    );
    // Count × unit cost of every layer a probe covers; what is left is the
    // part of `Gpu::run` only tracing inside `Sm::step` can explain.
    let unit = |name: &str| report.get(name).unwrap_or(0.0);
    let per_access = if shape.cached {
        unit("mem.frontend.l1_ns") + unit("mem.fabric.batch_ns")
    } else {
        unit("mem.frontend.offchip_ns") + unit("mem.fabric.service_ns")
    };
    let attributed = count("sim.gpu.thread_instr")
        * (unit("isa.eval.alu_int_ns") + unit("isa.eval.alu_fp_ns"))
        / 2.0
        + count("core.formation.spawn_instr") * unit("core.formation.spawn_ns")
        + count("core.formation.partial_warps_forced") * unit("core.formation.force_out_ns")
        + count("mem.global.accesses") * per_access;
    report.set("sim.gpu.unattributed_share", 1.0 - attributed / run_ns);
    drop(m);

    let ([on, off, forced, par2], machine) = differentials(
        shape,
        &sz,
        args.seed,
        [
            &|b| b,
            &|b| b.telemetry(TelemetrySpec::off()),
            &|b| b.force_tick(true),
            &|b| b.parallelism(2),
        ],
    );
    report.set("sim.telemetry.on_ratio", on.wall_s / off.wall_s);
    report.set("sim.gpu.force_tick_ratio", forced.wall_s / on.wall_s);
    // Reported without a bound: a threefold run-to-run spread was measured
    // on the 2-core reference host, so `--compare` leaves it out.
    report.set("sim.gpu.par2_ratio", par2.wall_s / on.wall_s);
    report.check(on.counts.is_some() && on.counts == par2.counts, || {
        "counts at parallelism 2 differ from the serial prefix".to_string()
    });
    if let Some(machine) = machine {
        checkpoint(&machine.gpu, args, tracer, report);
    }
}
