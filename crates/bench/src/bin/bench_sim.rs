//! `bench_sim` — wall-clock benchmark of the two-phase simulator.
//!
//! Times a fixed fig-7 run (dynamic μ-kernel render of the conference
//! scene), then writes `BENCH_sim.json` with its simulated cycles, wall
//! seconds, and simulation throughput.
//!
//! Also measures checkpoint overhead (`DESIGN.md` §9): snapshot encode,
//! disk write, and read + restore of a mid-run machine state, so the
//! cost of `--checkpoint-every` shows up in the recorded numbers.
//!
//! Also measures telemetry overhead (`DESIGN.md` §10): the same run with
//! telemetry disabled at runtime against one with windowed metrics on,
//! so the probe cost the experiment drivers pay is a recorded number
//! (the budget is < 5%). The arms are interleaved behind a warm-up pass
//! and reported min-of-3, so host drift cannot make telemetry-on appear
//! faster than off.
//!
//! Also measures the L1/L2 cache hierarchy (`DESIGN.md` §16): the same
//! fig-7 run through a 16 KiB L1 + 512 KiB L2 machine, recording
//! per-level hit rates, MSHR merges/stalls, interconnect bank
//! conflicts, and the telemetry overhead on the cache-enabled path.
//!
//! Also measures a low-occupancy run (`DESIGN.md` §13): the `bvh` path
//! tracer's μ-kernel variant to completion, where most SMs have nothing
//! to issue most cycles, so the cost of the cycle loop itself — what
//! sleeping SMs remove — is a recorded number with its own CI floor.
//!
//! Also measures campaign-mode throughput (`DESIGN.md` §12): the full
//! 12-artifact `repro campaign` matrix at test scale with 1 worker
//! process vs N, plus the warm-cache round trip, so the coordination and
//! cache overheads are recorded numbers. Skipped (recorded as `null`)
//! when the `repro` binary is not next to `bench_sim`.
//!
//! Also records per-workload SIMD efficiency (DESIGN.md §15): every
//! registry workload that reports `simd_efficiency` (the extended `bvh`
//! and `microdiv` scenarios) contributes a scenario → efficiency map at
//! test scale, so efficiency regressions show up in the recorded
//! numbers next to the wall-clock ones.
//!
//! Also measures `repro serve` front-door overhead (`DESIGN.md` §14):
//! cold request throughput through admission + journal + coordinator
//! (and, from the server's own stage clocks, how long a finished worker
//! waited to be reaped), then warm-cache hit latency (p50/p99 of the
//! full submit → status → fetch round trip) at 1 client and at N
//! concurrent clients. Skipped (recorded as `null`) under the same
//! condition as the campaign bench.
//!
//! ```text
//! bench_sim [--scale paper|quick|test] [--out PATH]
//! ```

use experiments::{gpu_for, gpu_for_with, Scale, Variant};
use raytrace::scenes;
use rt_kernels::pt_render::PtSetup;
use rt_kernels::render::RenderSetup;
use simt_sim::{Gpu, Snapshot, TelemetrySpec};
use std::process::ExitCode;
use std::time::Instant;

struct BenchRun {
    cycles: u64,
    wall_seconds: f64,
    /// Idle cycles the event-driven loop jumped over instead of ticking.
    skipped_cycles: u64,
    /// Number of skip jumps taken.
    skip_events: u64,
    /// Idle SM-cycles (an SM with nothing to issue), summed over SMs.
    idle_sm_cycles: u64,
    /// Total SM-cycles simulated (`cycles × num_sms`).
    sm_cycles: u64,
    /// SM-cycles the loop never stepped because the SM was asleep.
    slept_sm_cycles: u64,
}

impl BenchRun {
    /// Times `gpu.run(budget)` on a machine with a launch registered.
    fn measure(gpu: &mut Gpu, budget: u64) -> BenchRun {
        let start = Instant::now();
        let summary = gpu.run(budget).expect("fault-free benchmark run");
        BenchRun {
            cycles: summary.stats.cycles,
            wall_seconds: start.elapsed().as_secs_f64(),
            skipped_cycles: gpu.skipped_cycles(),
            skip_events: gpu.skip_events(),
            idle_sm_cycles: summary.stats.idle_sm_cycles,
            sm_cycles: summary.stats.cycles * gpu.config().num_sms as u64,
            slept_sm_cycles: gpu.slept_sm_cycles(),
        }
    }

    fn cycles_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.cycles as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    fn ratio(part: u64, whole: u64) -> f64 {
        if whole > 0 {
            part as f64 / whole as f64
        } else {
            0.0
        }
    }

    fn skip_fraction(&self) -> f64 {
        Self::ratio(self.skipped_cycles, self.cycles)
    }

    fn sm_occupancy(&self) -> f64 {
        1.0 - Self::ratio(self.idle_sm_cycles, self.sm_cycles)
    }

    /// The `"skipped_cycles": …, … "slept_share": …` fields shared by the
    /// `event_loop` and `low_occupancy` sections.
    fn event_loop_fields(&self) -> String {
        format!(
            "\"cycles\": {}, \"skipped_cycles\": {}, \"skip_events\": {}, \
             \"skip_fraction\": {:.4}, \"idle_sm_cycles\": {}, \"sm_cycles\": {}, \
             \"sm_occupancy\": {:.4}, \"slept_sm_cycles\": {}, \
             \"stepped_sm_cycles\": {}, \"slept_share\": {:.4}",
            self.cycles,
            self.skipped_cycles,
            self.skip_events,
            self.skip_fraction(),
            self.idle_sm_cycles,
            self.sm_cycles,
            self.sm_occupancy(),
            self.slept_sm_cycles,
            self.sm_cycles - self.slept_sm_cycles,
            Self::ratio(self.slept_sm_cycles, self.sm_cycles)
        )
    }
}

/// One timed fig-7 render. Returns simulated cycles and wall seconds for
/// the `Gpu::run` call only (scene build and upload are untimed).
/// `cached` swaps the flat fabric for the L1+L2 hierarchy
/// (`MemConfig::fx5800_cached` knobs: 16 KiB L1, 512 KiB L2).
fn run_once(scale: Scale, telemetry: TelemetrySpec, cached: bool) -> BenchRun {
    let mut gpu = if cached {
        let mut cfg = experiments::config_for(Variant::Dynamic);
        cfg.mem.l1_bytes = 16 * 1024;
        cfg.mem.l2_bytes = 512 * 1024;
        Gpu::builder(cfg).telemetry(telemetry).build()
    } else {
        gpu_for_with(Variant::Dynamic, telemetry)
    };
    let scene = scenes::conference(scale.scene);
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    setup.launch_ukernel(&mut gpu, scale.threads_per_block);
    BenchRun::measure(&mut gpu, scale.cycles)
}

/// The `bvh` workload's μ-kernel render at `scale`, run to
/// completion: a few warps on a 30-SM chip, so most SM-cycles are idle.
/// Fastest of three runs (each is a fraction of a second).
fn bench_low_occupancy(scale: Scale) -> BenchRun {
    let scene = scenes::conference(scale.scene);
    let edge = experiments::workload::bvh::resolution(scale);
    (0..3)
        .map(|_| {
            let mut gpu = gpu_for(Variant::Dynamic);
            let setup = PtSetup::upload(&mut gpu, &scene, edge, edge);
            setup.launch_ukernel(&mut gpu, scale.threads_per_block);
            BenchRun::measure(&mut gpu, u64::MAX)
        })
        .min_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds))
        .expect("three runs")
}

/// Interleaved A/B telemetry-overhead measurement: one untimed warm-up
/// pass (page cache, allocator, branch predictors), then alternating
/// off/on runs so host drift lands on both arms equally, taking the
/// min-of-3 per arm so the noise floor — not the scheduler — decides.
/// The old sequential best-of-3 (all off runs, then all on runs, no
/// warm-up) routinely measured telemetry-on *faster* than off.
fn telemetry_ab(scale: Scale, cached: bool) -> (f64, f64) {
    let _warmup = run_once(scale, TelemetrySpec::metrics(), cached);
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        off = off.min(run_once(scale, TelemetrySpec::off(), cached).wall_seconds);
        on = on.min(run_once(scale, TelemetrySpec::metrics(), cached).wall_seconds);
    }
    (off, on)
}

/// Relative overhead of the `on` arm, floored at 0: telemetry cannot
/// make the simulator faster, so a negative ratio is residual noise by
/// construction, not a result.
fn overhead_pct(off: f64, on: f64) -> f64 {
    if off > 0.0 {
        ((on / off - 1.0) * 100.0).max(0.0)
    } else {
        0.0
    }
}

struct CacheHierarchyBench {
    cycles: u64,
    l1_hits: u64,
    l1_misses: u64,
    mshr_merges: u64,
    mshr_stalls: u64,
    l2_hits: u64,
    l2_misses: u64,
    icnt_conflicts: u64,
    tel_off_seconds: f64,
    tel_on_seconds: f64,
    tel_overhead_pct: f64,
}

impl CacheHierarchyBench {
    /// Simulation throughput on the cache-enabled path, from the
    /// fastest telemetry-off arm (the same machine the counted run
    /// used) — what the CI perf floor pins.
    fn cycles_per_second(&self) -> f64 {
        if self.tel_off_seconds > 0.0 {
            self.cycles as f64 / self.tel_off_seconds
        } else {
            0.0
        }
    }

    fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total > 0 {
            self.l1_hits as f64 / total as f64
        } else {
            0.0
        }
    }

    fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total > 0 {
            self.l2_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// The fig-7 run again, through the full L1/L2 hierarchy: per-level hit
/// rates and interconnect conflicts from one counted run, plus the same
/// interleaved telemetry A/B as the flat machine so the probe cost on
/// the cache-enabled path is a recorded number too.
fn bench_cache_hierarchy(scale: Scale) -> CacheHierarchyBench {
    let mut gpu = {
        let mut cfg = experiments::config_for(Variant::Dynamic);
        cfg.mem.l1_bytes = 16 * 1024;
        cfg.mem.l2_bytes = 512 * 1024;
        Gpu::builder(cfg).build()
    };
    let scene = scenes::conference(scale.scene);
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    setup.launch_ukernel(&mut gpu, scale.threads_per_block);
    let summary = gpu.run(scale.cycles).expect("fault-free benchmark run");
    let (l1_hits, l1_misses, mshr_merges, mshr_stalls) =
        gpu.l1_stats().expect("L1 configured for the cache bench");
    let (l2_hits, l2_misses) = gpu
        .mem()
        .l2_stats()
        .expect("L2 configured for the cache bench");
    let icnt_conflicts = gpu.mem().icnt_conflicts();
    let (tel_off_seconds, tel_on_seconds) = telemetry_ab(scale, true);
    CacheHierarchyBench {
        cycles: summary.stats.cycles,
        l1_hits,
        l1_misses,
        mshr_merges,
        mshr_stalls,
        l2_hits,
        l2_misses,
        icnt_conflicts,
        tel_off_seconds,
        tel_on_seconds,
        tel_overhead_pct: overhead_pct(tel_off_seconds, tel_on_seconds),
    }
}

struct CheckpointBench {
    snapshot_bytes: u64,
    encode_seconds: f64,
    write_seconds: f64,
    restore_seconds: f64,
}

/// Times checkpointing a mid-run fig-7 machine: snapshot encode, disk
/// write, and read + restore. The restored machine must land on the same
/// cycle as the original, otherwise the measurement is meaningless.
fn bench_checkpoint(scale: Scale) -> CheckpointBench {
    let mut gpu = gpu_for(Variant::Dynamic);
    let scene = scenes::conference(scale.scene);
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    setup.launch_ukernel(&mut gpu, scale.threads_per_block);
    gpu.run(scale.cycles / 2).expect("fault-free benchmark run");

    let t = Instant::now();
    let snap = gpu.checkpoint().expect("snapshot encodes");
    let encode_seconds = t.elapsed().as_secs_f64();

    let path = std::env::temp_dir().join(format!("bench-sim-{}.ckpt", std::process::id()));
    let t = Instant::now();
    snap.write_to(&path).expect("snapshot writes");
    let write_seconds = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

    let t = Instant::now();
    let back = Snapshot::read_from(&path).expect("snapshot reads back");
    let restored = Gpu::restore(&back).expect("snapshot restores");
    let restore_seconds = t.elapsed().as_secs_f64();
    assert_eq!(
        restored.now(),
        gpu.now(),
        "restore must land on the same cycle"
    );
    let _ = std::fs::remove_file(&path);

    CheckpointBench {
        snapshot_bytes,
        encode_seconds,
        write_seconds,
        restore_seconds,
    }
}

struct CampaignBench {
    jobs: usize,
    workers: usize,
    one_worker_seconds: f64,
    n_worker_seconds: f64,
    cache_hit_seconds: f64,
}

/// Times the full `repro campaign` artifact matrix (always at test
/// scale — the point is coordination overhead, not simulation time):
/// cold with 1 worker, cold with N workers, then warm from the result
/// cache. Returns `None` when the `repro` binary is not installed next
/// to `bench_sim`.
fn bench_campaign(host_cpus: usize) -> Option<CampaignBench> {
    let repro = std::env::current_exe().ok()?.with_file_name("repro");
    if !repro.exists() {
        eprintln!(
            "bench_sim: skipping campaign bench ({} not found)",
            repro.display()
        );
        return None;
    }
    let root = std::env::temp_dir().join(format!("bench-sim-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let timed = |workers: usize, dir: &str| -> Option<f64> {
        let start = Instant::now();
        let status = std::process::Command::new(&repro)
            .args(["campaign", "--scale", "test", "--workers"])
            .arg(workers.to_string())
            .arg("--campaign-dir")
            .arg(root.join(dir))
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .ok()?;
        status.success().then(|| start.elapsed().as_secs_f64())
    };
    let workers = host_cpus.clamp(1, 4);
    let one_worker_seconds = timed(1, "w1")?;
    let (n_worker_seconds, warm_dir) = if workers > 1 {
        (timed(workers, "wn")?, "wn")
    } else {
        (one_worker_seconds, "w1")
    };
    // Same campaign dir again: every job comes back from the cache.
    let cache_hit_seconds = timed(workers, warm_dir)?;
    let _ = std::fs::remove_dir_all(&root);
    Some(CampaignBench {
        jobs: experiments::campaign::artifacts().len(),
        workers,
        one_worker_seconds,
        n_worker_seconds,
        cache_hit_seconds,
    })
}

struct ServeBench {
    clients: usize,
    cold_jobs: usize,
    cold_seconds: f64,
    /// Mean time a finished worker waited for the pump to reap it, over
    /// the cold jobs (`/healthz`: `exit_seen_lag_us / jobs_spawned`).
    exit_seen_lag_mean_us: f64,
    warm_requests: usize,
    warm_p50_ms: f64,
    warm_p99_ms: f64,
    warm_one_client_seconds: f64,
    warm_n_client_seconds: f64,
}

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Kills the served process if the bench bails out early.
struct ServerGuard(std::process::Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Times the `repro serve` front door (always at test scale — the point
/// is request overhead, not simulation time): the 12-artifact matrix
/// cold through admission + journal + workers, then warm-cache hit
/// round trips at 1 client and at N concurrent clients. Returns `None`
/// when the `repro` binary is not installed next to `bench_sim`.
fn bench_serve(host_cpus: usize) -> Option<ServeBench> {
    use experiments::serve::client::{self, ClientOpts};
    use experiments::serve::json;
    let repro = std::env::current_exe().ok()?.with_file_name("repro");
    if !repro.exists() {
        eprintln!(
            "bench_sim: skipping serve bench ({} not found)",
            repro.display()
        );
        return None;
    }
    let root = std::env::temp_dir().join(format!("bench-sim-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let clients = host_cpus.clamp(1, 4);
    let mut server = ServerGuard(
        std::process::Command::new(&repro)
            .args(["serve", "--scale", "test", "--workers"])
            .arg(clients.to_string())
            .arg("--serve-dir")
            .arg(&root)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .ok()?,
    );
    let endpoint = root.join("endpoint");
    let artifacts = experiments::campaign::artifacts();
    let mut opts = ClientOpts {
        server: client::read_endpoint(&endpoint, std::time::Duration::from_secs(30)).ok()?,
        endpoint_file: Some(endpoint),
        artifacts: artifacts.iter().map(|a| a.to_string()).collect(),
        scale_name: "test".to_string(),
        json: false,
        deadline_ms: None,
        concurrency: clients,
        out_dir: None,
        timeout: std::time::Duration::from_secs(600),
    };

    // Cold: every artifact computed fresh, N concurrent submitters.
    let start = Instant::now();
    client::run_workload(&opts).ok()?;
    let cold_seconds = start.elapsed().as_secs_f64();
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    let health = client::request_retry(&opts, "GET", "/healthz", "", deadline).ok()?;
    let health = json::parse_flat(&String::from_utf8_lossy(&health.body)).ok()?;
    let spawned = json::get_num(&health, "jobs_spawned")?;
    let exit_seen_lag_mean_us =
        json::get_num(&health, "exit_seen_lag_us")? as f64 / spawned.max(1) as f64;

    // Warm, 1 client: per-request submit → status → fetch latency on
    // cache hits; the sample feeds the percentiles.
    let warm_requests = 48;
    let mut latencies_ms = Vec::with_capacity(warm_requests);
    let start = Instant::now();
    for i in 0..warm_requests {
        let artifact = artifacts[i % artifacts.len()];
        let t = Instant::now();
        client::run_job(&opts, artifact).ok()?;
        latencies_ms.push(t.elapsed().as_secs_f64() * 1000.0);
    }
    let warm_one_client_seconds = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);

    // Warm, N clients: same request count spread across submitter
    // threads.
    opts.artifacts = (0..warm_requests)
        .map(|i| artifacts[i % artifacts.len()].to_string())
        .collect();
    let start = Instant::now();
    client::run_workload(&opts).ok()?;
    let warm_n_client_seconds = start.elapsed().as_secs_f64();

    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    client::request_retry(&opts, "POST", "/drain", "", deadline).ok()?;
    let _ = server.0.wait();
    let _ = std::fs::remove_dir_all(&root);
    Some(ServeBench {
        clients,
        cold_jobs: artifacts.len(),
        cold_seconds,
        exit_seen_lag_mean_us,
        warm_requests,
        warm_p50_ms: percentile(&latencies_ms, 0.50),
        warm_p99_ms: percentile(&latencies_ms, 0.99),
        warm_one_client_seconds,
        warm_n_client_seconds,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_name = "paper".to_string();
    let mut out = "BENCH_sim.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i) {
                    Some(s) if Scale::parse(s).is_some() => scale_name.clone_from(s),
                    _ => {
                        eprintln!("usage: bench_sim [--scale paper|quick|test] [--out PATH]");
                        return ExitCode::from(2);
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out.clone_from(p),
                    None => return ExitCode::from(2),
                }
            }
            _ => {
                eprintln!("usage: bench_sim [--scale paper|quick|test] [--out PATH]");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let scale = Scale::parse(&scale_name).expect("validated above");
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    eprintln!("bench_sim: fig7 conference/dynamic, scale {scale_name} ...");
    let run = run_once(scale, TelemetrySpec::metrics(), false);
    eprintln!(
        "  {} simulated cycles in {:.3} s  ({:.0} cycles/s)",
        run.cycles,
        run.wall_seconds,
        run.cycles_per_second()
    );

    eprintln!("bench_sim: telemetry overhead (runtime-off vs windowed metrics) ...");
    let (tel_off, tel_on) = telemetry_ab(scale, false);
    let tel_overhead_pct = overhead_pct(tel_off, tel_on);
    eprintln!(
        "  off {tel_off:.3} s, metrics {tel_on:.3} s  ({tel_overhead_pct:+.1}% when enabled)"
    );

    eprintln!("bench_sim: cache-hierarchy run (16 KiB L1 + 512 KiB L2) ...");
    let cache = bench_cache_hierarchy(scale);
    eprintln!(
        "  {} cycles; L1 {:.1}% hit ({} merges, {} stalls), L2 {:.1}% hit, \
         {} icnt conflicts; telemetry {:+.1}% when enabled",
        cache.cycles,
        cache.l1_hit_rate() * 100.0,
        cache.mshr_merges,
        cache.mshr_stalls,
        cache.l2_hit_rate() * 100.0,
        cache.icnt_conflicts,
        cache.tel_overhead_pct
    );

    eprintln!("bench_sim: checkpoint write/restore overhead ...");
    let ckpt = bench_checkpoint(scale);
    eprintln!(
        "  {} snapshot bytes; encode {:.4} s, write {:.4} s, restore {:.4} s",
        ckpt.snapshot_bytes, ckpt.encode_seconds, ckpt.write_seconds, ckpt.restore_seconds
    );

    eprintln!("bench_sim: campaign throughput (12-job matrix, test scale) ...");
    let campaign = bench_campaign(host_cpus);
    if let Some(c) = &campaign {
        eprintln!(
            "  1 worker {:.3} s ({:.2} jobs/s), {} workers {:.3} s ({:.2} jobs/s), \
             warm cache {:.3} s ({:.2} jobs/s)",
            c.one_worker_seconds,
            c.jobs as f64 / c.one_worker_seconds,
            c.workers,
            c.n_worker_seconds,
            c.jobs as f64 / c.n_worker_seconds,
            c.cache_hit_seconds,
            c.jobs as f64 / c.cache_hit_seconds
        );
    }

    eprintln!("bench_sim: serve front-door overhead (12-job matrix + warm hits, test scale) ...");
    let serve = bench_serve(host_cpus);
    if let Some(s) = &serve {
        eprintln!(
            "  cold {:.3} s ({:.2} jobs/s, {} clients, a finished worker reaped after {:.0} us); warm hit p50 {:.1} ms / p99 {:.1} ms, \
             1 client {:.2} req/s, {} clients {:.2} req/s",
            s.cold_seconds,
            s.cold_jobs as f64 / s.cold_seconds,
            s.clients,
            s.exit_seen_lag_mean_us,
            s.warm_p50_ms,
            s.warm_p99_ms,
            s.warm_requests as f64 / s.warm_one_client_seconds,
            s.clients,
            s.warm_requests as f64 / s.warm_n_client_seconds
        );
    }

    eprintln!("bench_sim: per-workload SIMD efficiency (test scale) ...");
    let mut simd_sections: Vec<(&str, Vec<(String, f64)>)> = Vec::new();
    for w in experiments::workload::all() {
        if let Some(rows) = w.simd_efficiency(Scale::test()) {
            for (scenario, eff) in &rows {
                eprintln!("  {}/{scenario}: {:.1}%", w.id(), eff * 100.0);
            }
            simd_sections.push((w.id(), rows));
        }
    }

    // Where the event-driven speedup comes from: how much of the run was
    // fully idle (skipped in bulk) vs occupied.
    eprintln!(
        "bench_sim: event loop: {} of {} cycles skipped ({:.1}% skip fraction, {} jumps), \
         SM occupancy {:.1}%, {} of {} SM-cycles slept",
        run.skipped_cycles,
        run.cycles,
        run.skip_fraction() * 100.0,
        run.skip_events,
        run.sm_occupancy() * 100.0,
        run.slept_sm_cycles,
        run.sm_cycles
    );

    eprintln!("bench_sim: low-occupancy run (bvh μ-kernels to completion) ...");
    let low = bench_low_occupancy(scale);
    eprintln!(
        "  {} cycles in {:.3} s  ({:.0} cycles/s), SM occupancy {:.1}%, {} of {} SM-cycles slept",
        low.cycles,
        low.wall_seconds,
        low.cycles_per_second(),
        low.sm_occupancy() * 100.0,
        low.slept_sm_cycles,
        low.sm_cycles
    );

    // Hand-rolled JSON: the offline serde shim has no serializer.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"fig7-conference-dynamic\",\n");
    json.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!(
        "  \"runs\": [\n    {{\"cycles\": {}, \"wall_seconds\": {:.6}, \
         \"sim_cycles_per_second\": {:.1}}}\n  ],\n",
        run.cycles,
        run.wall_seconds,
        run.cycles_per_second()
    ));
    json.push_str(&format!(
        "  \"event_loop\": {{{}}},\n",
        run.event_loop_fields()
    ));
    json.push_str(&format!(
        "  \"low_occupancy\": {{\"workload\": \"bvh\", \
         \"wall_seconds\": {:.6}, \"sim_cycles_per_second\": {:.1}, {}}},\n",
        low.wall_seconds,
        low.cycles_per_second(),
        low.event_loop_fields()
    ));
    json.push_str(&format!(
        "  \"telemetry\": {{\"off_seconds\": {tel_off:.6}, \"on_seconds\": {tel_on:.6}, \
         \"enabled_overhead_pct\": {tel_overhead_pct:.2}}},\n",
    ));
    json.push_str(&format!(
        "  \"cache_hierarchy\": {{\"l1_bytes\": {}, \"l2_bytes\": {}, \"cycles\": {}, \
         \"l1_hits\": {}, \"l1_misses\": {}, \"l1_hit_rate\": {:.4}, \
         \"mshr_merges\": {}, \"mshr_stalls\": {}, \
         \"l2_hits\": {}, \"l2_misses\": {}, \"l2_hit_rate\": {:.4}, \
         \"icnt_conflicts\": {}, \"sim_cycles_per_second\": {:.1}, \
         \"telemetry\": {{\"off_seconds\": {:.6}, \"on_seconds\": {:.6}, \
         \"enabled_overhead_pct\": {:.2}}}}},\n",
        16 * 1024,
        512 * 1024,
        cache.cycles,
        cache.l1_hits,
        cache.l1_misses,
        cache.l1_hit_rate(),
        cache.mshr_merges,
        cache.mshr_stalls,
        cache.l2_hits,
        cache.l2_misses,
        cache.l2_hit_rate(),
        cache.icnt_conflicts,
        cache.cycles_per_second(),
        cache.tel_off_seconds,
        cache.tel_on_seconds,
        cache.tel_overhead_pct
    ));
    json.push_str(&format!(
        "  \"checkpoint\": {{\"snapshot_bytes\": {}, \"encode_seconds\": {:.6}, \
         \"write_seconds\": {:.6}, \"restore_seconds\": {:.6}}},\n",
        ckpt.snapshot_bytes, ckpt.encode_seconds, ckpt.write_seconds, ckpt.restore_seconds
    ));
    json.push_str("  \"workload_simd_efficiency\": {\n");
    for (i, (id, rows)) in simd_sections.iter().enumerate() {
        json.push_str(&format!("    \"{id}\": {{"));
        for (j, (scenario, eff)) in rows.iter().enumerate() {
            json.push_str(&format!(
                "\"{scenario}\": {eff:.4}{}",
                if j + 1 < rows.len() { ", " } else { "" }
            ));
        }
        json.push_str(&format!(
            "}}{}\n",
            if i + 1 < simd_sections.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    match &campaign {
        Some(c) => json.push_str(&format!(
            "  \"campaign\": {{\"scale\": \"test\", \"jobs\": {}, \"workers\": {}, \
             \"one_worker_seconds\": {:.6}, \"one_worker_jobs_per_second\": {:.3}, \
             \"n_worker_seconds\": {:.6}, \"n_worker_jobs_per_second\": {:.3}, \
             \"cache_hit_seconds\": {:.6}, \"cache_hit_jobs_per_second\": {:.3}}},\n",
            c.jobs,
            c.workers,
            c.one_worker_seconds,
            c.jobs as f64 / c.one_worker_seconds,
            c.n_worker_seconds,
            c.jobs as f64 / c.n_worker_seconds,
            c.cache_hit_seconds,
            c.jobs as f64 / c.cache_hit_seconds
        )),
        None => json.push_str("  \"campaign\": null,\n"),
    }
    match &serve {
        Some(s) => json.push_str(&format!(
            "  \"serve\": {{\"scale\": \"test\", \"clients\": {}, \
             \"cold_jobs\": {}, \"cold_seconds\": {:.6}, \"cold_jobs_per_second\": {:.3}, \
             \"exit_seen_lag_mean_us\": {:.1}, \
             \"warm_requests\": {}, \"warm_hit_p50_ms\": {:.3}, \"warm_hit_p99_ms\": {:.3}, \
             \"warm_one_client_requests_per_second\": {:.3}, \
             \"warm_n_client_requests_per_second\": {:.3}}}\n",
            s.clients,
            s.cold_jobs,
            s.cold_seconds,
            s.cold_jobs as f64 / s.cold_seconds,
            s.exit_seen_lag_mean_us,
            s.warm_requests,
            s.warm_p50_ms,
            s.warm_p99_ms,
            s.warm_requests as f64 / s.warm_one_client_seconds,
            s.warm_requests as f64 / s.warm_n_client_seconds
        )),
        None => json.push_str("  \"serve\": null\n"),
    }
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_sim: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{json}");
    ExitCode::SUCCESS
}
