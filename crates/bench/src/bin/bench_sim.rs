//! `bench_sim` — the wall-clock numbers CI's perf smoke reads, and
//! `BENCH_history.jsonl` keeps one line of per PR.
//!
//! Each section is what a floor or ceiling in `ci/perf_floor.json` holds
//! (the per-layer costs live in the `ledger/` benchmark, not here):
//!
//! - `runs`: simulation throughput of a fig-7 run (dynamic μ-kernel render
//!   of the conference scene, windowed metrics on) on the flat machine;
//! - `cache_hierarchy`: the same render through a 16 KiB L1 + 512 KiB L2
//!   machine (`DESIGN.md` §16), fastest of three telemetry-off runs, with
//!   its L1 hits and misses to show the hierarchy ran;
//! - `low_occupancy`: the `bvh` path tracer's μ-kernel variant to
//!   completion (`DESIGN.md` §13), where most SMs have nothing to issue
//!   most cycles, so the cycle loop's own cost is what is timed;
//! - `checkpoint`: the bytes of a mid-run fig-7 snapshot (`DESIGN.md` §9);
//! - `serve`: from `repro serve` at test scale (`DESIGN.md` §14), the
//!   median warm-hit round trip and how long a finished worker waited to
//!   be reaped. Recorded as `null` when the `repro` binary is not next to
//!   `bench_sim`.
//!
//! ```text
//! bench_sim [--scale paper|quick|test] [--out PATH]
//! ```

use experiments::{gpu_for, gpu_for_with, Scale, Variant};
use raytrace::scenes;
use rt_kernels::pt_render::PtSetup;
use rt_kernels::render::RenderSetup;
use simt_sim::{Gpu, TelemetrySpec};
use std::process::ExitCode;
use std::time::Instant;

struct BenchRun {
    cycles: u64,
    wall_seconds: f64,
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

    fn sm_occupancy(&self) -> f64 {
        if self.sm_cycles > 0 {
            1.0 - self.idle_sm_cycles as f64 / self.sm_cycles as f64
        } else {
            0.0
        }
    }
}

/// A fig-7 machine with the render launched, ready to run. `cached` swaps
/// the flat fabric for the L1+L2 hierarchy (`MemConfig::fx5800_cached`
/// knobs: 16 KiB L1, 512 KiB L2).
fn fig7_gpu(scale: Scale, telemetry: TelemetrySpec, cached: bool) -> Gpu {
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
    gpu
}

/// Fastest of three runs of `run`, each on a fresh machine.
fn fastest_of_three<T>(run: impl Fn() -> (BenchRun, T)) -> (BenchRun, T) {
    (0..3)
        .map(|_| run())
        .min_by(|a, b| a.0.wall_seconds.total_cmp(&b.0.wall_seconds))
        .expect("three runs")
}

/// The cached fig-7 render, telemetry off: the run and its L1
/// `(hits, misses)`.
fn bench_cache_hierarchy(scale: Scale) -> (BenchRun, (u64, u64)) {
    fastest_of_three(|| {
        let mut gpu = fig7_gpu(scale, TelemetrySpec::off(), true);
        let run = BenchRun::measure(&mut gpu, scale.cycles);
        let (hits, misses, _, _) = gpu.l1_stats().expect("L1 configured for the cache bench");
        (run, (hits, misses))
    })
}

/// The `bvh` workload's μ-kernel render at `scale`, run to
/// completion: a few warps on a 30-SM chip, so most SM-cycles are idle.
fn bench_low_occupancy(scale: Scale) -> BenchRun {
    let scene = scenes::conference(scale.scene);
    let edge = experiments::workload::bvh::resolution(scale);
    fastest_of_three(|| {
        let mut gpu = gpu_for(Variant::Dynamic);
        let setup = PtSetup::upload(&mut gpu, &scene, edge, edge);
        setup.launch_ukernel(&mut gpu, scale.threads_per_block);
        (BenchRun::measure(&mut gpu, u64::MAX), ())
    })
    .0
}

/// Bytes of a snapshot of the fig-7 machine halfway through its cycle
/// budget, as `--checkpoint-every` would write it.
fn snapshot_bytes(scale: Scale) -> usize {
    let mut gpu = fig7_gpu(scale, experiments::telemetry_spec(), false);
    gpu.run(scale.cycles / 2).expect("fault-free benchmark run");
    gpu.checkpoint().expect("snapshot encodes").to_bytes().len()
}

struct ServeBench {
    /// Median submit → status → fetch round trip of a cache hit.
    warm_p50_ms: f64,
    /// Mean time a finished worker waited for the pump to reap it, over
    /// the cold jobs (`/healthz`: `exit_seen_lag_us / jobs_spawned`).
    exit_seen_lag_mean_us: f64,
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

/// Drives `repro serve` at test scale (the point is request overhead, not
/// simulation time): the 12-artifact matrix cold through admission,
/// journal and workers, then 48 warm-cache hit round trips from one
/// client. Returns `None` when the `repro` binary is not installed next
/// to `bench_sim`.
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
    let opts = ClientOpts {
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
    client::run_workload(&opts).ok()?;
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    let health = client::request_retry(&opts, "GET", "/healthz", "", deadline).ok()?;
    let health = json::parse_flat(&String::from_utf8_lossy(&health.body)).ok()?;
    let spawned = json::get_num(&health, "jobs_spawned")?;
    let exit_seen_lag_mean_us =
        json::get_num(&health, "exit_seen_lag_us")? as f64 / spawned.max(1) as f64;

    // Warm, 1 client: per-request submit → status → fetch latency on
    // cache hits.
    let mut latencies_ms: Vec<f64> = (0..48)
        .map(|i| {
            let t = Instant::now();
            client::run_job(&opts, artifacts[i % artifacts.len()]).ok()?;
            Some(t.elapsed().as_secs_f64() * 1000.0)
        })
        .collect::<Option<_>>()?;
    latencies_ms.sort_by(f64::total_cmp);

    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    client::request_retry(&opts, "POST", "/drain", "", deadline).ok()?;
    let _ = server.0.wait();
    let _ = std::fs::remove_dir_all(&root);
    Some(ServeBench {
        warm_p50_ms: percentile(&latencies_ms, 0.50),
        exit_seen_lag_mean_us,
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
    let run = BenchRun::measure(
        &mut fig7_gpu(scale, TelemetrySpec::metrics(), false),
        scale.cycles,
    );
    eprintln!(
        "  {} simulated cycles in {:.3} s  ({:.0} cycles/s)",
        run.cycles,
        run.wall_seconds,
        run.cycles_per_second()
    );

    eprintln!("bench_sim: cache-hierarchy run (16 KiB L1 + 512 KiB L2) ...");
    let (cached, (l1_hits, l1_misses)) = bench_cache_hierarchy(scale);
    eprintln!(
        "  {} cycles in {:.3} s  ({:.0} cycles/s), L1 {l1_hits} hits / {l1_misses} misses",
        cached.cycles,
        cached.wall_seconds,
        cached.cycles_per_second()
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

    let snapshot_bytes = snapshot_bytes(scale);
    eprintln!("bench_sim: mid-run snapshot: {snapshot_bytes} bytes");

    eprintln!("bench_sim: serve (12-job matrix cold, then 48 warm hits, test scale) ...");
    let serve = bench_serve(host_cpus);
    if let Some(s) = &serve {
        eprintln!(
            "  warm hit p50 {:.3} ms; a finished worker reaped after {:.0} us",
            s.warm_p50_ms, s.exit_seen_lag_mean_us
        );
    }

    // Hand-rolled JSON: the offline serde shim has no serializer.
    let serve = serve.map_or("null".to_string(), |s| {
        format!(
            "{{\"warm_hit_p50_ms\": {:.3}, \"exit_seen_lag_mean_us\": {:.1}}}",
            s.warm_p50_ms, s.exit_seen_lag_mean_us
        )
    });
    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"host_cpus\": {host_cpus},\n  \
         \"runs\": [{{\"sim_cycles_per_second\": {:.1}}}],\n  \
         \"cache_hierarchy\": {{\"sim_cycles_per_second\": {:.1}, \"l1_hits\": {l1_hits}, \
         \"l1_misses\": {l1_misses}}},\n  \
         \"low_occupancy\": {{\"sim_cycles_per_second\": {:.1}, \"sm_occupancy\": {:.4}, \
         \"slept_sm_cycles\": {}, \"stepped_sm_cycles\": {}}},\n  \
         \"checkpoint\": {{\"snapshot_bytes\": {snapshot_bytes}}},\n  \
         \"serve\": {serve}\n}}\n",
        run.cycles_per_second(),
        cached.cycles_per_second(),
        low.cycles_per_second(),
        low.sm_occupancy(),
        low.slept_sm_cycles,
        low.sm_cycles - low.slept_sm_cycles,
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_sim: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{json}");
    ExitCode::SUCCESS
}
