//! `serve-matrix` and `serve-hit`: the north star's "served job from POST
//! to bytes". One `repro serve --scale test --workers 1` child (one launch
//! snapshot per simulator run, see [`checkpoint_every`]), one client (this
//! thread), one connection at a time: a closed loop. Every response
//! is checked, and every fetched output must equal the in-process render
//! of the same artifact at test scale.

use crate::metrics::Report;
use crate::spans::Tracer;
use crate::{host, matrix, seed, stats, Args};
use experiments::campaign::{self, cache, CampaignConfig};
use experiments::serve::{client, json};
use experiments::{supervisor, Policy, Scale, Variant};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Server incarnations the hit workload spreads its measuring time over.
const HIT_INCARNATIONS: u32 = 3;

/// Hits an incarnation makes whatever its time budget; all of them at
/// smoke scale.
const SMOKE_HITS: usize = 20;

/// The three artifacts `--smoke` serves in place of the twelve.
const SMOKE_JOBS: [&str; 3] = ["table1", "fig2", "fig7"];

/// `--checkpoint-every` the served and campaign jobs run under: the whole
/// test-scale window, so each simulator run writes its launch snapshot
/// (write, fsync, rename, directory fsync, removal) and none mid-run. At
/// the service's default of 2000 cycles one cold matrix writes 1.1 GB of
/// snapshots and a run 3.4 GB: the reading is then the disk's, not the
/// program's, and on a host with a slow disk the run outlasts the driver's
/// time limit. At this cadence a matrix writes 0.11 GB. What the default
/// cadence costs is kept per layer, on one small job:
/// `experiments.supervisor.ckpt_disk_ratio`.
fn checkpoint_every() -> u64 {
    Scale::test().cycles
}

/// How long one job may take from POST to `done` before the run gives up:
/// a cold test-scale job takes well under a second.
const TRIP_LIMIT: Duration = Duration::from_secs(60);

/// The artifacts and the bytes the server must return for each: the
/// in-process render at test scale, in registry order.
struct Expected {
    jobs: Vec<(&'static str, String)>,
    /// Wall of rendering them in-process, the base of the overhead ratios.
    render_s: f64,
}

fn expected(args: &Args, report: &mut Report) -> Expected {
    let names = if args.smoke {
        SMOKE_JOBS.to_vec()
    } else {
        campaign::artifacts()
    };
    let start = Instant::now();
    let rendered = matrix::render_all(&names, Scale::test(), &mut Tracer::new(false));
    let render_s = start.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for (name, bytes) in rendered {
        match bytes {
            Some(b) => jobs.push((name, b)),
            None => report.check(false, || format!("{name}: in-process render failed")),
        }
    }
    Expected { jobs, render_s }
}

/// A running `repro serve` child; killed on drop unless drained.
struct Server {
    child: Child,
    dir: PathBuf,
    addr: String,
    /// Spawn → endpoint file → first `GET /readyz` 200.
    ready_s: f64,
}

impl Server {
    /// Spawns the server on a fresh `--serve-dir`, first storing `warm`
    /// into its result cache.
    fn start(args: &Args, warm: &[(&'static str, String)]) -> Result<Server, String> {
        let dir = args.scratch.join("serve");
        let _ = std::fs::remove_dir_all(&dir);
        for (name, bytes) in warm {
            let fp = campaign::job_fingerprint(name, Scale::test(), false);
            cache::store(&dir.join("cache"), name, fp, bytes.as_bytes())
                .map_err(|e| format!("cannot seed the result cache: {e}"))?;
        }
        let start = Instant::now();
        let child = Command::new(&args.repro)
            .args(["serve", "--scale", "test", "--workers", "1"])
            .args(["--checkpoint-every", &checkpoint_every().to_string()])
            .arg("--serve-dir")
            .arg(&dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", args.repro.display()))?;
        let mut server = Server {
            child,
            dir,
            addr: String::new(),
            ready_s: 0.0,
        };
        let endpoint = server.dir.join("endpoint");
        let ready = host::wait_until(Duration::from_secs(30), || {
            if server.addr.is_empty() {
                if let Ok(s) = std::fs::read_to_string(&endpoint) {
                    server.addr = s.trim().to_string();
                }
            }
            !server.addr.is_empty()
                && client::request(&server.addr, "GET", "/readyz", "")
                    .is_ok_and(|r| r.status == 200)
        });
        if !ready {
            return Err("server did not become ready within 30 s".to_string());
        }
        server.ready_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    /// `POST /drain`, then waits for the process to exit cleanly.
    fn drain(mut self) -> Result<(), String> {
        let resp = client::request(&self.addr, "POST", "/drain", "")?;
        if resp.status != 200 {
            return Err(format!("drain: HTTP {}", resp.status));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After a drain the child is already reaped and both calls fail
        // harmlessly; on an early return this stops the server.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One job driven from POST to output bytes.
#[derive(Default)]
struct Trip {
    total_s: f64,
    post_s: f64,
    status_s: f64,
    output_s: f64,
    /// Status polls it took to see the job done.
    polls: u32,
    outcome: String,
    output: Vec<u8>,
    /// Responses that shed the request (429/503).
    sheds: u32,
    /// Responses that told the client to resubmit (404).
    resubmits: u32,
    /// Every status was the expected 200/202.
    ok: bool,
}

/// POST → long-poll → fetch for one artifact, each `client::request` in a
/// span. A shed or a resubmit signal fails the trip: the workloads are
/// sized so that neither happens.
fn trip(addr: &str, artifact: &str, tracer: &mut Tracer) -> Result<Trip, String> {
    let mut t = Trip::default();
    let note = |t: &mut Trip, status: u16| match status {
        429 | 503 => t.sheds += 1,
        404 => t.resubmits += 1,
        _ => {}
    };
    let body = format!("{{\"artifact\": \"{artifact}\", \"scale\": \"test\", \"json\": false}}");
    let start = Instant::now();
    let resp = tracer.span("experiments.serve.client.post", |_| {
        client::request(addr, "POST", "/jobs", &body)
    })?;
    t.post_s = start.elapsed().as_secs_f64();
    if resp.status != 202 {
        note(&mut t, resp.status);
        return Ok(t);
    }
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    let job = json::parse_flat(&text)
        .ok()
        .and_then(|m| json::get_str(&m, "job").map(str::to_string))
        .ok_or_else(|| format!("202 body without a job id: {text:?}"))?;
    let polling = Instant::now();
    loop {
        let resp = tracer.span("experiments.serve.client.status", |_| {
            client::request(addr, "GET", &format!("/jobs/{job}?wait_ms=2000"), "")
        })?;
        t.polls += 1;
        if resp.status != 200 {
            note(&mut t, resp.status);
            return Ok(t);
        }
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        let map = json::parse_flat(&text).map_err(|e| format!("bad status body {text:?}: {e}"))?;
        if json::get_str(&map, "state") == Some("done") {
            t.outcome = json::get_str(&map, "outcome").unwrap_or("").to_string();
            break;
        }
        if polling.elapsed() > TRIP_LIMIT {
            return Err(format!("{artifact}: not done within {TRIP_LIMIT:?}"));
        }
    }
    t.status_s = polling.elapsed().as_secs_f64();
    let fetching = Instant::now();
    let resp = tracer.span("experiments.serve.client.output", |_| {
        client::request(addr, "GET", &format!("/jobs/{job}/output"), "")
    })?;
    t.output_s = fetching.elapsed().as_secs_f64();
    t.total_s = start.elapsed().as_secs_f64();
    note(&mut t, resp.status);
    t.ok = resp.status == 200;
    t.output = resp.body;
    Ok(t)
}

/// Counts one trip as an operation: statuses, outcome tag, output bytes.
fn check_trip(report: &mut Report, t: &Trip, artifact: &str, bytes: &str, outcome: &str) {
    let same = t.output == bytes.as_bytes();
    report.check(t.ok && t.outcome == outcome && same, || {
        format!(
            "{artifact}: statuses ok {}, outcome {:?} (want {outcome:?}), bytes equal {same}, \
             {} shed(s), {} resubmit(s)",
            t.ok, t.outcome, t.sheds, t.resubmits
        )
    });
}

/// One cold incarnation's measurements.
struct Cold {
    ready_s: f64,
    wall_s: f64,
    trips: Vec<Trip>,
}

/// Fresh server, the twelve artifacts submitted one after another in
/// registry order (first POST → last output byte), drain.
fn cold_incarnation(
    args: &Args,
    exp: &Expected,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Cold, String> {
    let server = Server::start(args, &[])?;
    let start = Instant::now();
    let mut trips = Vec::new();
    for (name, bytes) in &exp.jobs {
        tracer.rep = trips.len() as u32;
        let t = trip(&server.addr, name, tracer)?;
        check_trip(report, &t, name, bytes, "completed");
        trips.push(t);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let ready_s = server.ready_s;
    let drained = server.drain();
    report.check(drained.is_ok(), || format!("drain: {drained:?}"));
    Ok(Cold {
        ready_s,
        wall_s,
        trips,
    })
}

/// The larger of this process's peak and the peak of the largest child
/// waited for so far (server or worker).
fn peak_rss_mib() -> f64 {
    host::self_peak_rss_mib().max(host::children_peak_rss_mib())
}

/// Spawn → ready of six servers that serve nothing: a boot takes
/// milliseconds and a run makes few incarnations, so these carry the
/// set-up median.
fn spare_boots(args: &Args, warm: &[(&'static str, String)]) -> Result<Vec<f64>, String> {
    let mut ready = Vec::new();
    for _ in 0..6 {
        let server = Server::start(args, warm)?;
        ready.push(server.ready_s);
        server.drain()?;
    }
    Ok(ready)
}

/// The timed set of `serve-matrix`: cold incarnations until `--seconds`
/// have been measured, and at least three.
pub fn matrix_timed(args: &Args, report: &mut Report) -> Result<(), String> {
    let exp = expected(args, report);
    let mut tracer = Tracer::new(false);
    let mut setup = spare_boots(args, &[])?;
    let mut wall = Vec::new();
    let mut peak_rss = 0.0;
    let began = Instant::now();
    // At least three, so that the median is a sample and one slow
    // incarnation does not move it.
    while args.wants_more(wall.len(), 3, began) {
        let cold = cold_incarnation(args, &exp, report, &mut tracer)?;
        setup.push(cold.ready_s);
        wall.push(cold.wall_s);
        if wall.len() == 1 {
            peak_rss = peak_rss_mib();
        }
    }
    report.set_end_to_end(&setup, &wall, peak_rss);
    Ok(())
}

fn p50_ms(samples: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = samples.map(|s| s * 1e3).collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&v)
    }
}

fn set_trip_metrics(report: &mut Report, trips: &[Trip]) {
    report.set(
        "experiments.serve.post_ms",
        p50_ms(trips.iter().map(|t| t.post_s)),
    );
    report.set(
        "experiments.serve.status_ms",
        p50_ms(trips.iter().map(|t| t.status_s)),
    );
    report.set(
        "experiments.serve.output_ms",
        p50_ms(trips.iter().map(|t| t.output_s)),
    );
    report.set(
        "experiments.serve.sheds",
        trips.iter().map(|t| f64::from(t.sheds)).sum(),
    );
    report.set(
        "experiments.serve.resubmits",
        trips.iter().map(|t| f64::from(t.resubmits)).sum(),
    );
}

/// Test-scale fig7 through `supervisor::run_to_target` under a policy;
/// best of three.
fn supervised_s(policy: &Policy) -> f64 {
    const JOB: &str = "ledger-supervised";
    let scale = Scale::test();
    let scene = raytrace::scenes::conference(scale.scene);
    supervisor::set_policy(policy.clone());
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut gpu = experiments::gpu_for(Variant::Dynamic);
        let setup = rt_kernels::render::RenderSetup::upload(
            &mut gpu,
            &scene,
            scale.resolution,
            scale.resolution,
        );
        setup.launch_ukernel(&mut gpu, scale.threads_per_block);
        let start = Instant::now();
        std::hint::black_box(supervisor::run_to_target(&mut gpu, scale.cycles, JOB, &[]));
        best = best.min(start.elapsed().as_secs_f64());
    }
    supervisor::clear(JOB);
    supervisor::set_policy(Policy::default());
    best
}

/// `campaign::run` over the twelve jobs with one worker process, cold and
/// then warm from its result cache.
fn campaign_differential(args: &Args, exp: &Expected, report: &mut Report, tracer: &mut Tracer) {
    let mut cfg = CampaignConfig::new(Scale::test(), "test");
    cfg.workers = 1;
    cfg.work_dir = args.scratch.join("campaign");
    cfg.cache_dir = cfg.work_dir.join("cache");
    cfg.worker_exe.clone_from(&args.repro);
    cfg.checkpoint_every = checkpoint_every();
    cfg.artifacts = exp.jobs.iter().map(|(name, _)| name.to_string()).collect();
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    for (metric, hits) in [
        ("experiments.campaign.cold_s", 0),
        ("experiments.campaign.warm_s", exp.jobs.len()),
    ] {
        let start = Instant::now();
        let outcome = tracer.span("experiments.campaign.run", |_| campaign::run(&cfg));
        report.set(metric, start.elapsed().as_secs_f64());
        let good = outcome.is_ok_and(|o| {
            o.complete()
                && o.manifest.cache_hits() == hits
                && o.outputs
                    .iter()
                    .zip(&exp.jobs)
                    .all(|(out, (_, bytes))| out.as_deref() == Some(bytes.as_bytes()))
        });
        report.check(good, || {
            format!("{metric}: campaign incomplete or bytes differ")
        });
    }
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let cold = report.get("experiments.campaign.cold_s").unwrap_or(0.0);
    report.set("experiments.campaign.overhead_ratio", cold / exp.render_s);
}

/// The traced set of `serve-matrix`: an untraced and a traced cold
/// incarnation, then what the service adds around the simulator measured
/// one layer at a time — campaign coordination and supervisor policies.
pub fn matrix_traced(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let exp = expected(args, report);
    let untraced = cold_incarnation(args, &exp, report, &mut Tracer::new(false))?;
    let cold = cold_incarnation(args, &exp, report, tracer)?;
    report.set(
        "trace_overhead_pct",
        (cold.wall_s / untraced.wall_s - 1.0) * 100.0,
    );
    set_trip_metrics(report, &cold.trips);
    report.set(
        "experiments.serve.cold_overhead_ratio",
        cold.wall_s / exp.render_s,
    );
    campaign_differential(args, &exp, report, tracer);
    let none = supervised_s(&Policy::default());
    let in_memory = Policy {
        checkpoint_every: 2000,
        ..Policy::default()
    };
    let on_disk = Policy {
        checkpoint_dir: Some(args.scratch.join("supervised")),
        ..in_memory.clone()
    };
    report.set(
        "experiments.supervisor.ckpt_mem_ratio",
        supervised_s(&in_memory) / none,
    );
    report.set(
        "experiments.supervisor.ckpt_disk_ratio",
        supervised_s(&on_disk) / none,
    );
    Ok(())
}

/// One warm incarnation's measurements.
struct Warm {
    ready_s: f64,
    hits: Vec<Trip>,
}

/// Server on a pre-stored result cache, twelve untimed priming trips that
/// load each result from the on-disk cache into the server's memory, then
/// hit round trips in the seed's artifact order until `budget` is spent (at
/// least `min_hits`), drain. Every hit must come back `cached`.
fn warm_incarnation(
    args: &Args,
    exp: &Expected,
    incarnation: u32,
    budget: Duration,
    min_hits: usize,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Warm, String> {
    let server = Server::start(args, &exp.jobs)?;
    let priming = Instant::now();
    for (name, bytes) in &exp.jobs {
        let t = trip(&server.addr, name, &mut Tracer::new(false))?;
        check_trip(report, &t, name, bytes, "cached");
    }
    eprintln!(
        "  primed {} results in {:.3} s",
        exp.jobs.len(),
        priming.elapsed().as_secs_f64()
    );
    let ready_s = server.ready_s;
    let mut next = seed::hit_sequence(exp.jobs.len(), args.seed, incarnation);
    let start = Instant::now();
    let mut hits = Vec::new();
    while hits.len() < min_hits || start.elapsed() < budget {
        let (name, bytes) = &exp.jobs[next()];
        tracer.rep = hits.len() as u32;
        let t = trip(&server.addr, name, tracer)?;
        check_trip(report, &t, name, bytes, "cached");
        report.check(t.polls == 1, || {
            format!("{name}: a hit took {} status polls", t.polls)
        });
        hits.push(t);
    }
    let drained = server.drain();
    report.check(drained.is_ok(), || format!("drain: {drained:?}"));
    Ok(Warm { ready_s, hits })
}

/// The timed set of `serve-hit`: `--seconds` of hit round trips spread
/// over three server incarnations, latencies pooled.
pub fn hit_timed(args: &Args, report: &mut Report) -> Result<(), String> {
    let exp = expected(args, report);
    let mut tracer = Tracer::new(false);
    let (incarnations, budget) = if args.smoke {
        (1, Duration::ZERO)
    } else {
        let share = args.seconds / f64::from(HIT_INCARNATIONS);
        (HIT_INCARNATIONS, Duration::from_secs_f64(share))
    };
    let mut setup = spare_boots(args, &exp.jobs)?;
    let mut latency = Vec::new();
    let mut peak_rss = 0.0;
    for i in 0..incarnations {
        let warm = warm_incarnation(args, &exp, i, budget, SMOKE_HITS, report, &mut tracer)?;
        setup.push(warm.ready_s);
        latency.extend(warm.hits.iter().map(|t| t.total_s));
        if i == 0 {
            peak_rss = peak_rss_mib();
        }
    }
    if let Some((p, v)) = stats::tail_percentile(&latency, 0.95) {
        eprintln!(
            "  hit p{:.0} {:.3} ms over {} hits",
            p * 100.0,
            v * 1e3,
            latency.len()
        );
    }
    report.set_end_to_end(&setup, &latency, peak_rss);
    Ok(())
}

/// The traced set of `serve-hit`: an untraced incarnation, then one with a
/// span around each `client::request`.
pub fn hit_traced(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let exp = expected(args, report);
    let (budget, min_hits) = if args.smoke {
        (Duration::ZERO, SMOKE_HITS)
    } else {
        (Duration::from_secs_f64(args.seconds / 3.0), 3 * SMOKE_HITS)
    };
    let plain = warm_incarnation(
        args,
        &exp,
        0,
        budget / 2,
        min_hits,
        report,
        &mut Tracer::new(false),
    )?;
    let warm = warm_incarnation(args, &exp, 1, budget, min_hits, report, tracer)?;
    let latency: Vec<f64> = warm.hits.iter().map(|t| t.total_s).collect();
    let untraced: Vec<f64> = plain.hits.iter().map(|t| t.total_s).collect();
    let p50 = stats::median(&latency);
    report.set(
        "trace_overhead_pct",
        (p50 / stats::median(&untraced) - 1.0) * 100.0,
    );
    report.set("experiments.serve.hit_p50_ms", p50 * 1e3);
    // The highest percentile up to p95 that has ten samples beyond it.
    let tail = stats::tail_percentile(&latency, 0.95).map_or(p50, |(_, v)| v);
    report.set("experiments.serve.hit_p95_ms", tail * 1e3);
    set_trip_metrics(report, &warm.hits);
    Ok(())
}
