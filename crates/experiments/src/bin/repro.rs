//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <artifact> [--scale paper|quick|test] [--json]
//!                  [--trace] [--metrics-every N]
//!                  [--checkpoint-every N] [--checkpoint-dir D] [--resume]
//!                  [--max-retries N] [--kill-after-checkpoints N]
//!
//! repro campaign   [shared flags above] [--workers N] [--campaign-dir D]
//!                  [--cache-dir D] [--retries N] [--only a,b,c]
//!                  [--job-timeout-secs N] [--heartbeat-timeout-secs N]
//!                  [--chaos-kill-every K] [--seed S]
//!
//! repro serve      [shared + campaign flags] [--bind H:P] [--serve-dir D]
//!                  [--queue-capacity N] [--rate N] [--burst N]
//!                  [--chaos-crash-every K]
//!
//! repro client     [--server H:P | --endpoint-file F] [--artifacts a,b|all]
//!                  [--scale S] [--json] [--deadline-ms N]
//!                  [--concurrency N] [--client-out-dir D]
//!                  [--client-timeout-secs N] [--flood N]
//!                  [--healthz] [--drain]
//!
//! repro list       # print the workload catalog
//!
//! artifacts: table1 table2 table3 table4 fig2 fig3 fig7 fig8 fig9 fig10
//!            ablation shadow bvh microdiv all campaign serve client
//! ```
//!
//! Every runnable workload lives in the `experiments::workload`
//! registry; `repro list` prints the catalog. Extended workloads (`bvh`,
//! `microdiv`) also run narrowed to one machine variant via
//! `workload@variant` job names (e.g. `repro bvh@dynamic`); `repro all`
//! remains exactly the twelve paper artifacts, byte-identical to every
//! release before the registry existed.
//!
//! `--trace` turns on the telemetry event rings and writes a Chrome-trace
//! JSON (`<job>.trace.json`, loadable in Perfetto / `chrome://tracing`)
//! and a windowed-metrics CSV (`<job>.metrics.csv`) next to each job's
//! normal output. `--metrics-every N` overrides the metrics window width
//! in cycles (default: the machine's divergence window). Neither flag
//! changes any reported number.
//!
//! The checkpoint flags drive the supervised runner (`DESIGN.md` §9):
//! `--checkpoint-every N` snapshots every N simulated cycles,
//! `--checkpoint-dir D` persists the snapshots that hold progress to
//! `D/<job>.ckpt` (not the one taken at launch, nor a just-resumed
//! state), and `--resume` restores each job from its last on-disk
//! snapshot before running — bit-identical to an uninterrupted run.
//! `--max-retries` bounds fault/deadlock rollback retries per phase.
//! `--kill-after-checkpoints N` is a deterministic test hook that exits
//! the process (code 42) after N snapshot writes, so CI can rehearse a
//! mid-campaign kill without timing races.
//!
//! `repro campaign` runs the artifact matrix across `--workers` worker
//! *processes* with crash supervision, checkpoint resume, a
//! content-addressed result cache, and deterministic chaos testing
//! (`DESIGN.md` §12). Its stdout is byte-identical to `repro all` at the
//! same scale. The internal `__worker` mode is how the coordinator
//! re-invokes this binary for one job; it is not part of the public
//! surface.

use experiments::campaign::{self, worker, CampaignConfig};
use experiments::runner::Scale;
use experiments::serve::{self, client};
use experiments::supervisor::{self, Policy};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <workload[@variant]|all|list|campaign|serve|client> \
         (`repro list` prints the workload catalog) \
         [--scale paper|quick|test] [--json] \
         [--trace] [--metrics-every N] \
         [--checkpoint-every N] [--checkpoint-dir D] [--resume] \
         [--max-retries N] [--kill-after-checkpoints N]\n\
         campaign flags: [--workers N] [--campaign-dir D] [--cache-dir D] \
         [--retries N] [--only a,b,c] [--job-timeout-secs N] \
         [--heartbeat-timeout-secs N] [--chaos-kill-every K] [--seed S]\n\
         serve flags: [--bind H:P] [--serve-dir D] [--queue-capacity N] \
         [--rate N] [--burst N] [--chaos-crash-every K]\n\
         client flags: [--server H:P | --endpoint-file F] [--artifacts a,b|all] \
         [--deadline-ms N] [--concurrency N] [--client-out-dir D] \
         [--client-timeout-secs N] [--flood N] [--healthz] [--drain]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let (mode, flag_start) = if args[0] == "__worker" {
        match args.get(1) {
            Some(_) => (args[0].as_str(), 2),
            None => return usage(),
        }
    } else {
        (args[0].as_str(), 1)
    };
    if mode == "list" {
        for w in experiments::workload::all() {
            let variants = if w.variants().is_empty() {
                String::new()
            } else {
                let names: Vec<&str> = w.variants().iter().map(|v| v.wire_name()).collect();
                format!("  [variants: {}]", names.join(", "))
            };
            println!(
                "{:<10} {:<9} {}{variants}",
                w.id(),
                w.group().to_string(),
                w.description()
            );
        }
        return ExitCode::SUCCESS;
    }
    let mut scale = Scale::quick();
    let mut scale_name = "quick".to_string();
    let mut json = false;
    let mut policy = Policy::default();
    // Shared flags the campaign coordinator forwards verbatim to its
    // workers (only when explicitly given, so worker defaults stay
    // authoritative).
    let mut passthrough: Vec<String> = Vec::new();
    let mut checkpoint_every_flag: Option<u64> = None;
    // Campaign flags.
    let mut workers: usize = 2;
    let mut campaign_dir: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut retries: u32 = 3;
    let mut only: Option<Vec<String>> = None;
    let mut job_timeout_secs: Option<u64> = None;
    let mut heartbeat_timeout_secs: Option<u64> = None;
    let mut chaos_kill_every: u64 = 0;
    let mut chaos_seed: u64 = 0;
    let mut test_fail_job: Option<String> = None;
    let mut test_hang_job: Option<String> = None;
    // Worker flags.
    let mut worker_out: Option<PathBuf> = None;
    let mut worker_heartbeat: Option<PathBuf> = None;
    let mut worker_fingerprint: u64 = 0;
    let mut worker_test_fail = false;
    let mut worker_test_hang = false;
    // Serve flags.
    let mut bind = "127.0.0.1:0".to_string();
    let mut serve_dir = PathBuf::from("serve");
    let mut queue_capacity: usize = 32;
    let mut rate_per_sec: u64 = 0;
    let mut burst: u64 = 8;
    let mut chaos_crash_every: u64 = 0;
    // Client flags.
    let mut server: Option<String> = None;
    let mut endpoint_file: Option<PathBuf> = None;
    let mut client_artifacts: Vec<String> = Vec::new();
    let mut deadline_ms: Option<u64> = None;
    let mut concurrency: usize = 1;
    let mut client_out_dir: Option<PathBuf> = None;
    let mut client_timeout_secs: u64 = 600;
    let mut flood_n: Option<u64> = None;
    let mut do_healthz = false;
    let mut do_drain = false;

    let mut i = flag_start;
    while i < args.len() {
        match args[i].as_str() {
            "--checkpoint-every" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => {
                        policy.checkpoint_every = n;
                        checkpoint_every_flag = Some(n);
                    }
                    _ => return usage(),
                }
            }
            "--checkpoint-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => policy.checkpoint_dir = Some(d.into()),
                    None => return usage(),
                }
            }
            "--resume" => policy.resume = true,
            "--max-retries" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(n) => {
                        policy.max_retries = n;
                        passthrough.extend(["--max-retries".to_string(), n.to_string()]);
                    }
                    None => return usage(),
                }
            }
            "--kill-after-checkpoints" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => policy.kill_after_checkpoints = Some(n),
                    _ => return usage(),
                }
            }
            "--chaos-abort" => policy.chaos_abort = true,
            "--scale" => {
                i += 1;
                let Some(s) = args.get(i).and_then(|s| Scale::parse(s)) else {
                    return usage();
                };
                scale = s;
                scale_name = args[i].clone();
            }
            "--json" => {
                json = true;
                passthrough.push("--json".to_string());
            }
            "--trace" => {
                experiments::set_trace(true);
                passthrough.push("--trace".to_string());
            }
            "--metrics-every" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => {
                        experiments::set_metrics_every(n);
                        passthrough.extend(["--metrics-every".to_string(), n.to_string()]);
                    }
                    _ => return usage(),
                }
            }
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => workers = n,
                    _ => return usage(),
                }
            }
            "--campaign-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => campaign_dir = Some(d.into()),
                    None => return usage(),
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => cache_dir = Some(d.into()),
                    None => return usage(),
                }
            }
            "--retries" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(n) => retries = n,
                    None => return usage(),
                }
            }
            "--only" => {
                i += 1;
                match args.get(i) {
                    Some(list) => {
                        only = Some(list.split(',').map(|s| s.trim().to_string()).collect())
                    }
                    None => return usage(),
                }
            }
            "--job-timeout-secs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => job_timeout_secs = Some(n),
                    _ => return usage(),
                }
            }
            "--heartbeat-timeout-secs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => heartbeat_timeout_secs = Some(n),
                    _ => return usage(),
                }
            }
            "--chaos-kill-every" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => chaos_kill_every = n,
                    _ => return usage(),
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => chaos_seed = n,
                    None => return usage(),
                }
            }
            "--chaos-fail-job" => {
                i += 1;
                match args.get(i) {
                    Some(j) => test_fail_job = Some(j.clone()),
                    None => return usage(),
                }
            }
            "--chaos-hang-job" => {
                i += 1;
                match args.get(i) {
                    Some(j) => test_hang_job = Some(j.clone()),
                    None => return usage(),
                }
            }
            "--worker-out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => worker_out = Some(p.into()),
                    None => return usage(),
                }
            }
            "--worker-heartbeat" => {
                i += 1;
                match args.get(i) {
                    Some(p) => worker_heartbeat = Some(p.into()),
                    None => return usage(),
                }
            }
            "--worker-fingerprint" => {
                i += 1;
                match args.get(i).and_then(|s| u64::from_str_radix(s, 16).ok()) {
                    Some(fp) => worker_fingerprint = fp,
                    None => return usage(),
                }
            }
            "--worker-test-fail" => worker_test_fail = true,
            "--worker-test-hang" => worker_test_hang = true,
            "--bind" => {
                i += 1;
                match args.get(i) {
                    Some(a) => bind = a.clone(),
                    None => return usage(),
                }
            }
            "--serve-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => serve_dir = d.into(),
                    None => return usage(),
                }
            }
            "--queue-capacity" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => queue_capacity = n,
                    _ => return usage(),
                }
            }
            "--rate" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => rate_per_sec = n,
                    None => return usage(),
                }
            }
            "--burst" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => burst = n,
                    _ => return usage(),
                }
            }
            "--chaos-crash-every" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => chaos_crash_every = n,
                    _ => return usage(),
                }
            }
            "--server" => {
                i += 1;
                match args.get(i) {
                    Some(a) => server = Some(a.clone()),
                    None => return usage(),
                }
            }
            "--endpoint-file" => {
                i += 1;
                match args.get(i) {
                    Some(p) => endpoint_file = Some(p.into()),
                    None => return usage(),
                }
            }
            "--artifacts" => {
                i += 1;
                match args.get(i) {
                    Some(list) if list == "all" => {
                        client_artifacts = campaign::artifacts()
                            .iter()
                            .map(|s| s.to_string())
                            .collect();
                    }
                    Some(list) => {
                        client_artifacts = list.split(',').map(|s| s.trim().to_string()).collect();
                    }
                    None => return usage(),
                }
            }
            "--deadline-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => deadline_ms = Some(n),
                    _ => return usage(),
                }
            }
            "--concurrency" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => concurrency = n,
                    _ => return usage(),
                }
            }
            "--client-out-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => client_out_dir = Some(d.into()),
                    None => return usage(),
                }
            }
            "--client-timeout-secs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => client_timeout_secs = n,
                    _ => return usage(),
                }
            }
            "--flood" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => flood_n = Some(n),
                    _ => return usage(),
                }
            }
            "--healthz" => do_healthz = true,
            "--drain" => do_drain = true,
            _ => return usage(),
        }
        i += 1;
    }
    supervisor::set_policy(policy.clone());

    if mode == "__worker" {
        let Some(out) = worker_out else {
            eprintln!("error: __worker requires --worker-out");
            return ExitCode::from(2);
        };
        let wargs = worker::WorkerArgs {
            artifact: args[1].clone(),
            out,
            heartbeat: worker_heartbeat,
            fingerprint: worker_fingerprint,
            json,
            test_fail: worker_test_fail,
            test_hang: worker_test_hang,
        };
        return worker::run_worker(&wargs, scale);
    }

    if mode == "campaign" {
        let mut cfg = CampaignConfig::new(scale, &scale_name);
        cfg.json = json;
        cfg.workers = workers;
        if let Some(d) = campaign_dir {
            cfg.cache_dir = d.join("cache");
            cfg.work_dir = d;
        }
        if let Some(d) = cache_dir {
            cfg.cache_dir = d;
        }
        if let Some(n) = checkpoint_every_flag {
            cfg.checkpoint_every = n;
        }
        cfg.max_retries = retries;
        if let Some(s) = job_timeout_secs {
            cfg.job_timeout = Duration::from_secs(s);
        }
        if let Some(s) = heartbeat_timeout_secs {
            cfg.heartbeat_timeout = Duration::from_secs(s);
        }
        if chaos_kill_every > 0 {
            cfg.chaos = Some(campaign::chaos::Chaos {
                kill_every: chaos_kill_every,
                seed: chaos_seed,
            });
        }
        if let Some(list) = only {
            cfg.artifacts = list;
        }
        cfg.passthrough = passthrough;
        cfg.test_fail_job = test_fail_job;
        cfg.test_hang_job = test_hang_job;
        let outcome = match campaign::run(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: campaign: {e}");
                return ExitCode::from(2);
            }
        };
        // Emit completed artifacts in canonical order; stdout is
        // byte-identical to the serial `repro all` run.
        let mut stdout = std::io::stdout().lock();
        for (record, output) in outcome.manifest.jobs.iter().zip(&outcome.outputs) {
            eprintln!("== {} ==", record.name);
            match output {
                Some(bytes) => {
                    if stdout
                        .write_all(bytes)
                        .and_then(|()| stdout.flush())
                        .is_err()
                    {
                        eprintln!("error: campaign: stdout write failed");
                        return ExitCode::FAILURE;
                    }
                }
                None => eprintln!(
                    "error: {}: {}",
                    record.name,
                    record.error.as_deref().unwrap_or("no result")
                ),
            }
        }
        eprintln!("{}", outcome.manifest);
        return if outcome.complete() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if mode == "serve" {
        // Reuse the campaign's execution defaults; the same flags tune
        // worker supervision under serve.
        let mut base = CampaignConfig::new(scale, &scale_name);
        base.workers = workers;
        base.max_retries = retries;
        base.work_dir = serve_dir.join("work");
        base.cache_dir = cache_dir.unwrap_or_else(|| serve_dir.join("cache"));
        if let Some(n) = checkpoint_every_flag {
            base.checkpoint_every = n;
        }
        if let Some(s) = job_timeout_secs {
            base.job_timeout = Duration::from_secs(s);
        }
        if let Some(s) = heartbeat_timeout_secs {
            base.heartbeat_timeout = Duration::from_secs(s);
        }
        if chaos_kill_every > 0 {
            base.chaos = Some(campaign::chaos::Chaos {
                kill_every: chaos_kill_every,
                seed: chaos_seed,
            });
        }
        base.passthrough = passthrough;
        base.test_fail_job = test_fail_job;
        base.test_hang_job = test_hang_job;
        let cfg = serve::ServeConfig {
            bind,
            serve_dir,
            exec: base.exec(),
            default_scale: scale,
            default_scale_name: scale_name,
            queue_capacity,
            rate_per_sec,
            burst,
            server_chaos: (chaos_crash_every > 0).then_some(campaign::chaos::Chaos {
                kill_every: chaos_crash_every,
                seed: chaos_seed,
            }),
        };
        return match serve::run(cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: serve: {e}");
                ExitCode::from(2)
            }
        };
    }

    if mode == "client" {
        let timeout = Duration::from_secs(client_timeout_secs);
        let addr = match (server, &endpoint_file) {
            (Some(a), _) => a,
            (None, Some(f)) => match client::read_endpoint(f, Duration::from_secs(30)) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: client: {e}");
                    return ExitCode::from(2);
                }
            },
            (None, None) => {
                eprintln!("error: client needs --server or --endpoint-file");
                return usage();
            }
        };
        if do_healthz {
            return match client::request(&addr, "GET", "/healthz", "") {
                Ok(resp) => {
                    print!("{}", String::from_utf8_lossy(&resp.body));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: client: healthz: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        if do_drain {
            return match client::request(&addr, "POST", "/drain", "") {
                Ok(resp) if resp.status == 200 => ExitCode::SUCCESS,
                Ok(resp) => {
                    eprintln!("error: client: drain: HTTP {}", resp.status);
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("error: client: drain: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        let opts = client::ClientOpts {
            server: addr,
            endpoint_file,
            artifacts: if client_artifacts.is_empty() {
                campaign::artifacts()
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            } else {
                client_artifacts
            },
            scale_name,
            json,
            deadline_ms,
            concurrency,
            out_dir: client_out_dir,
            timeout,
        };
        if let Some(n) = flood_n {
            let artifact = opts.artifacts.first().cloned().unwrap_or_default();
            return match client::flood(&opts, &artifact, n) {
                Ok((accepted, shed)) => {
                    println!("{{\"flood\": {n}, \"accepted\": {accepted}, \"shed\": {shed}}}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: client: flood: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        return match client::run_workload(&opts) {
            Ok(results) => {
                let degraded = results.iter().filter(|r| r.output.is_none()).count();
                if degraded > 0 {
                    eprintln!("client: {degraded} job(s) finished degraded");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: client: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Serial path: render through the same definition campaign workers
    // use, so bytes agree by construction.
    // `None` = unknown artifact; `Some(Err)` = the job itself failed (a
    // job-level error is reported and the run continues).
    let run_one = |name: &str| -> Option<Result<(), String>> {
        match campaign::render_artifact(name, scale, json)? {
            Ok(rendered) => {
                print!("{rendered}");
                Some(Ok(()))
            }
            Err(e) => Some(Err(e)),
        }
    };

    if mode == "all" {
        let mut failed = 0u32;
        for name in campaign::artifacts() {
            eprintln!("== {name} ==");
            if let Some(Err(e)) = run_one(name) {
                eprintln!("error: {name}: {e}");
                failed += 1;
            }
        }
        if failed > 0 {
            eprintln!("error: {failed} job(s) failed");
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    } else {
        match run_one(mode) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("error: {mode}: {e}");
                ExitCode::FAILURE
            }
            None => {
                // The typed registry error: echo exactly what was asked
                // for and point at the catalog.
                let spec = experiments::workload::ScenarioSpec::new(mode, scale, &scale_name);
                match spec.resolve() {
                    Err(e) => eprintln!("error: {e}"),
                    Ok(_) => unreachable!("render_artifact returned None for a known workload"),
                }
                ExitCode::from(2)
            }
        }
    }
}
