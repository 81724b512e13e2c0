//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <artifact> [--scale paper|quick|test] [--json]
//!                  [--trace] [--metrics-every N]
//!                  [--checkpoint-every N] [--checkpoint-dir D] [--resume]
//!                  [--kill-after-checkpoints N]
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
//! repro fidelity <file>   # the paper's numbers beside a `repro all` output
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
//! `--checkpoint-every N` slices each run every N simulated cycles,
//! `--checkpoint-dir D` persists the slice boundaries that hold progress
//! to `D/<job>.ckpt` (not the launch, nor a just-resumed state), and
//! `--resume` restores each job from its last on-disk snapshot before
//! running — bit-identical to an uninterrupted run. A run that faults or
//! stalls is a job-level error: reported, and the other jobs go on.
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
//! surface, and its stdout is not the artifact's text but its report to
//! the coordinator: beat and progress lines, then the sealed result frame.

use experiments::campaign::{self, chaos::Chaos, worker, CampaignConfig};
use experiments::runner::{Plan, Scale};
use experiments::serve::{self, client, ServeConfig};
use experiments::supervisor::{self, Policy};
use experiments::workload::{RenderError, ScenarioSpec};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "usage: repro <workload[@variant]|all|list|campaign|serve|client> \
     (`repro list` prints the workload catalog; \
     `repro fidelity <file>` sets a `repro all` output beside the paper) \
     [--scale paper|quick|test] [--json] \
     [--trace] [--metrics-every N] \
     [--checkpoint-every N] [--checkpoint-dir D] [--resume] \
     [--kill-after-checkpoints N]\n\
     campaign flags: [--workers N] [--campaign-dir D] [--cache-dir D] \
     [--retries N] [--only a,b,c] [--job-timeout-secs N] \
     [--heartbeat-timeout-secs N] [--chaos-kill-every K] [--seed S]\n\
     serve flags: [--bind H:P] [--serve-dir D] [--queue-capacity N] \
     [--rate N] [--burst N] [--chaos-crash-every K]\n\
     client flags: [--server H:P | --endpoint-file F] [--artifacts a,b|all] \
     [--deadline-ms N] [--concurrency N] [--client-out-dir D] \
     [--client-timeout-secs N] [--flood N] [--healthz] [--drain]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Everything the flags set, each in the field it sets. `campaign` and
/// `serve` read the one engine configuration, `serve.engine`.
#[derive(Debug)]
struct Cli {
    policy: Policy,
    serve: ServeConfig,
    /// `--cache-dir`: its default, `<dir>/cache`, follows `--campaign-dir`
    /// under `campaign` and `--serve-dir` under `serve`.
    cache_dir: Option<PathBuf>,
    client: client::ClientOpts,
    /// The `__worker` mode's arguments; its artifact is the mode's
    /// operand, not a flag.
    worker: worker::WorkerArgs,
    flood: Option<u64>,
    healthz: bool,
    drain: bool,
}

/// A flag's value as a `T`: `None` when it is missing or does not parse.
fn parsed<T: FromStr>(value: Option<&String>) -> Option<T> {
    value?.parse().ok()
}

/// [`parsed`], for a flag that must be at least 1.
fn at_least_1<T: FromStr + PartialOrd + From<u8>>(value: Option<&String>) -> Option<T> {
    parsed(value).filter(|n| *n >= T::from(1))
}

/// A comma-separated job list.
fn list(value: &str) -> Vec<String> {
    value.split(',').map(|s| s.trim().to_string()).collect()
}

fn all_artifacts() -> Vec<String> {
    campaign::artifacts()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

impl Cli {
    /// Reads `flags`; `None` for an unknown flag or a missing, unparsable
    /// or out-of-bounds value.
    fn parse(flags: &[String]) -> Option<Cli> {
        let mut cli = Cli {
            policy: Policy::default(),
            serve: ServeConfig {
                bind: "127.0.0.1:0".to_string(),
                serve_dir: PathBuf::from("serve"),
                engine: CampaignConfig::new(Scale::quick(), "quick"),
                queue_capacity: 32,
                rate_per_sec: 0,
                burst: 8,
                server_chaos: None,
            },
            cache_dir: None,
            client: client::ClientOpts {
                server: String::new(),
                endpoint_file: None,
                artifacts: all_artifacts(),
                scale_name: "quick".to_string(),
                json: false,
                deadline_ms: None,
                concurrency: 1,
                out_dir: None,
                timeout: Duration::from_secs(600),
            },
            worker: worker::WorkerArgs {
                artifact: String::new(),
                fingerprint: 0,
                json: false,
                test_fail: false,
                test_hang: false,
            },
            flood: None,
            healthz: false,
            drain: false,
        };
        let (policy, serve, client, worker) = (
            &mut cli.policy,
            &mut cli.serve,
            &mut cli.client,
            &mut cli.worker,
        );
        let engine = &mut serve.engine;
        // `--seed` seeds both chaos schedules, in whichever order it comes.
        let mut seed = 0;
        let chaos = |kill_every| {
            Some(Chaos {
                kill_every,
                seed: 0,
            })
        };
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next();
            match flag.as_str() {
                "--checkpoint-every" => {
                    let n = at_least_1(value())?;
                    policy.checkpoint_every = n;
                    engine.checkpoint_every = n;
                }
                "--checkpoint-dir" => policy.checkpoint_dir = Some(value()?.into()),
                "--resume" => policy.resume = true,
                "--kill-after-checkpoints" => {
                    policy.kill_after_checkpoints = Some(at_least_1(value())?);
                }
                "--chaos-abort" => policy.chaos_abort = true,
                "--scale" => {
                    let name = value()?;
                    engine.scale = Scale::parse(name)?;
                    engine.scale_name.clone_from(name);
                    client.scale_name.clone_from(name);
                }
                "--json" => {
                    engine.json = true;
                    client.json = true;
                    worker.json = true;
                }
                "--trace" => policy.telemetry.trace = true,
                "--metrics-every" => policy.telemetry.metrics_window = at_least_1(value())?,
                "--workers" => engine.workers = at_least_1(value())?,
                "--campaign-dir" => engine.work_dir = value()?.into(),
                "--cache-dir" => cli.cache_dir = Some(value()?.into()),
                "--retries" => engine.max_retries = parsed(value())?,
                "--only" => engine.artifacts = list(value()?),
                "--job-timeout-secs" => {
                    engine.job_timeout = Duration::from_secs(at_least_1(value())?);
                }
                "--heartbeat-timeout-secs" => {
                    engine.heartbeat_timeout = Duration::from_secs(at_least_1(value())?);
                }
                "--chaos-kill-every" => engine.chaos = chaos(at_least_1(value())?),
                "--seed" => seed = parsed(value())?,
                "--chaos-fail-job" => engine.test_fail_job = Some(value()?.clone()),
                "--chaos-hang-job" => engine.test_hang_job = Some(value()?.clone()),
                "--worker-fingerprint" => {
                    worker.fingerprint = u64::from_str_radix(value()?, 16).ok()?;
                }
                "--worker-test-fail" => worker.test_fail = true,
                "--worker-test-hang" => worker.test_hang = true,
                "--bind" => serve.bind.clone_from(value()?),
                "--serve-dir" => serve.serve_dir = value()?.into(),
                "--queue-capacity" => serve.queue_capacity = at_least_1(value())?,
                "--rate" => serve.rate_per_sec = parsed(value())?,
                "--burst" => serve.burst = at_least_1(value())?,
                "--chaos-crash-every" => serve.server_chaos = chaos(at_least_1(value())?),
                "--server" => client.server.clone_from(value()?),
                "--endpoint-file" => client.endpoint_file = Some(value()?.into()),
                "--artifacts" => {
                    client.artifacts = match value()?.as_str() {
                        "all" => all_artifacts(),
                        names => list(names),
                    };
                }
                "--deadline-ms" => client.deadline_ms = Some(at_least_1(value())?),
                "--concurrency" => client.concurrency = at_least_1(value())?,
                "--client-out-dir" => client.out_dir = Some(value()?.into()),
                "--client-timeout-secs" => {
                    client.timeout = Duration::from_secs(at_least_1(value())?);
                }
                "--flood" => cli.flood = Some(at_least_1(value())?),
                "--healthz" => cli.healthz = true,
                "--drain" => cli.drain = true,
                _ => return None,
            }
        }
        for chaos in [&mut engine.chaos, &mut serve.server_chaos]
            .into_iter()
            .flatten()
        {
            chaos.seed = seed;
        }
        Some(cli)
    }

    /// The engine configuration `repro campaign` runs: checkpoints and the
    /// manifest under `--campaign-dir`.
    fn campaign(&self) -> CampaignConfig {
        let mut cfg = self.serve.engine.clone();
        cfg.cache_dir = self
            .cache_dir
            .clone()
            .unwrap_or_else(|| cfg.work_dir.join("cache"));
        cfg
    }

    /// The configuration `repro serve` runs: the same engine, working
    /// under `--serve-dir`.
    fn serve(&self) -> ServeConfig {
        let mut cfg = self.serve.clone();
        cfg.engine.work_dir = cfg.serve_dir.join("work");
        cfg.engine.cache_dir = self
            .cache_dir
            .clone()
            .unwrap_or_else(|| cfg.serve_dir.join("cache"));
        cfg
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags) = match args.first().map(String::as_str) {
        None => return usage(),
        Some("__worker") if args.len() < 2 => return usage(),
        Some("__worker") => ("__worker", &args[2..]),
        Some(mode) => (mode, &args[1..]),
    };
    if mode == "list" {
        for w in experiments::workload::all() {
            let variants = if w.variants.is_empty() {
                String::new()
            } else {
                let names: Vec<&str> = w.variants.iter().map(|v| v.wire_name()).collect();
                format!("  [variants: {}]", names.join(", "))
            };
            println!(
                "{:<10} {:<9} {}{variants}",
                w.id,
                w.group.to_string(),
                w.description
            );
        }
        return ExitCode::SUCCESS;
    }
    if mode == "fidelity" {
        let [file] = flags else {
            return usage();
        };
        let table = std::fs::read_to_string(file)
            .map_err(|e| format!("{file}: {e}"))
            .and_then(|text| experiments::fidelity::render(&text));
        return match table {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: fidelity: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(mut cli) = Cli::parse(flags) else {
        return usage();
    };
    supervisor::set_policy(cli.policy.clone());
    let (scale, json) = (cli.serve.engine.scale, cli.serve.engine.json);

    if mode == "__worker" {
        cli.worker.artifact.clone_from(&args[1]);
        return worker::run_worker(&cli.worker, scale);
    }

    if mode == "campaign" {
        let outcome = match campaign::run(&cli.campaign()) {
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
        return match serve::run(cli.serve()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: serve: {e}");
                ExitCode::from(2)
            }
        };
    }

    if mode == "client" {
        let mut opts = cli.client;
        if opts.server.is_empty() {
            let Some(file) = &opts.endpoint_file else {
                eprintln!("error: client needs --server or --endpoint-file");
                return usage();
            };
            match client::read_endpoint(file, Duration::from_secs(30)) {
                Ok(addr) => opts.server = addr,
                Err(e) => {
                    eprintln!("error: client: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        let addr = &opts.server;
        if cli.healthz {
            return match client::request(addr, "GET", "/healthz", "") {
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
        if cli.drain {
            return match client::request(addr, "POST", "/drain", "") {
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
        if let Some(n) = cli.flood {
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
    // use, so bytes agree by construction, in one plan for the whole
    // invocation, so `all` runs each window its artifacts share once. A
    // job-level error is reported and `all` goes on.
    let mut plan = Plan::default();
    let mut run_one = |name: &str| -> Result<(), RenderError> {
        let spec = ScenarioSpec::new(name, scale, &cli.serve.engine.scale_name);
        print!("{}", spec.render(&mut plan, json)?);
        Ok(())
    };

    if mode == "all" {
        let mut failed = 0u32;
        for name in campaign::artifacts() {
            eprintln!("== {name} ==");
            if let Err(e) = run_one(name) {
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
            Ok(()) => ExitCode::SUCCESS,
            Err(RenderError::Job(e)) => {
                eprintln!("error: {mode}: {e}");
                ExitCode::FAILURE
            }
            Err(RenderError::Unknown(e)) => {
                // The typed registry error: echo exactly what was asked
                // for and point at the catalog.
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::TelemetrySpec;
    use std::path::Path;

    fn parse(flags: &[&str]) -> Option<Cli> {
        Cli::parse(&flags.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// Every flag `USAGE` names: a value it takes (`None` for a switch),
    /// whether it must be at least 1, and whether the value landed where it
    /// belongs. Each is read after both chaos schedules are armed, so
    /// `--seed` has somewhere to land.
    #[test]
    fn every_flag_lands_in_its_field_and_keeps_its_bounds() {
        type Lands = fn(&Cli) -> bool;
        let table: [(&str, Option<&str>, bool, Lands); 33] = [
            ("--scale", Some("test"), false, |c| {
                c.serve.engine.scale == Scale::test()
                    && c.serve.engine.scale_name == "test"
                    && c.client.scale_name == "test"
            }),
            ("--json", None, false, |c| {
                c.serve.engine.json && c.client.json && c.worker.json
            }),
            ("--trace", None, false, |c| {
                c.policy.telemetry == TelemetrySpec::trace()
            }),
            ("--metrics-every", Some("7"), true, |c| {
                c.policy.telemetry == TelemetrySpec::metrics().with_window(7)
            }),
            ("--checkpoint-every", Some("7"), true, |c| {
                c.policy.checkpoint_every == 7 && c.serve.engine.checkpoint_every == 7
            }),
            ("--checkpoint-dir", Some("D"), false, |c| {
                c.policy.checkpoint_dir == Some(PathBuf::from("D"))
            }),
            ("--resume", None, false, |c| c.policy.resume),
            ("--kill-after-checkpoints", Some("7"), true, |c| {
                c.policy.kill_after_checkpoints == Some(7)
            }),
            ("--workers", Some("7"), true, |c| {
                c.serve.engine.workers == 7
            }),
            ("--campaign-dir", Some("C"), false, |c| {
                c.campaign().work_dir == Path::new("C")
                    && c.campaign().cache_dir == Path::new("C/cache")
            }),
            ("--cache-dir", Some("X"), false, |c| {
                c.campaign().cache_dir == Path::new("X")
                    && c.serve().engine.cache_dir == Path::new("X")
            }),
            ("--retries", Some("0"), false, |c| {
                c.serve.engine.max_retries == 0
            }),
            ("--only", Some("fig3, fig7"), false, |c| {
                c.serve.engine.artifacts == ["fig3", "fig7"]
            }),
            ("--job-timeout-secs", Some("7"), true, |c| {
                c.serve.engine.job_timeout == Duration::from_secs(7)
            }),
            ("--heartbeat-timeout-secs", Some("7"), true, |c| {
                c.serve.engine.heartbeat_timeout == Duration::from_secs(7)
            }),
            ("--chaos-kill-every", Some("7"), true, |c| {
                c.serve.engine.chaos.map(|k| k.kill_every) == Some(7)
            }),
            ("--seed", Some("7"), false, |c| {
                c.serve.engine.chaos.map(|k| k.seed) == Some(7)
                    && c.serve.server_chaos.map(|k| k.seed) == Some(7)
            }),
            ("--bind", Some("127.0.0.1:7"), false, |c| {
                c.serve().bind == "127.0.0.1:7"
            }),
            ("--serve-dir", Some("S"), false, |c| {
                let serve = c.serve();
                serve.serve_dir == Path::new("S")
                    && serve.engine.work_dir == Path::new("S/work")
                    && serve.engine.cache_dir == Path::new("S/cache")
            }),
            ("--queue-capacity", Some("7"), true, |c| {
                c.serve.queue_capacity == 7
            }),
            ("--rate", Some("7"), false, |c| c.serve.rate_per_sec == 7),
            ("--burst", Some("7"), true, |c| c.serve.burst == 7),
            ("--chaos-crash-every", Some("7"), true, |c| {
                c.serve.server_chaos.map(|k| k.kill_every) == Some(7)
            }),
            ("--server", Some("h:7"), false, |c| c.client.server == "h:7"),
            ("--endpoint-file", Some("F"), false, |c| {
                c.client.endpoint_file == Some(PathBuf::from("F"))
            }),
            ("--artifacts", Some("fig3,fig7"), false, |c| {
                c.client.artifacts == ["fig3", "fig7"]
            }),
            ("--deadline-ms", Some("7"), true, |c| {
                c.client.deadline_ms == Some(7)
            }),
            ("--concurrency", Some("7"), true, |c| {
                c.client.concurrency == 7
            }),
            ("--client-out-dir", Some("O"), false, |c| {
                c.client.out_dir == Some(PathBuf::from("O"))
            }),
            ("--client-timeout-secs", Some("7"), true, |c| {
                c.client.timeout == Duration::from_secs(7)
            }),
            ("--flood", Some("7"), true, |c| c.flood == Some(7)),
            ("--healthz", None, false, |c| c.healthz),
            ("--drain", None, false, |c| c.drain),
        ];
        let mut named: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        named.sort_unstable();
        let mut tabled: Vec<&str> = table.iter().map(|row| row.0).collect();
        tabled.sort_unstable();
        assert_eq!(
            tabled, named,
            "the table covers exactly the flags USAGE names"
        );
        let armed = ["--chaos-kill-every", "3", "--chaos-crash-every", "4"];
        for (flag, value, at_least_1, lands) in table {
            let with = |value: &[&str]| parse(&[&armed[..], &[flag], value].concat());
            match value {
                Some(v) => {
                    assert!(with(&[]).is_none(), "{flag} without its value");
                    let cli = with(&[v]).unwrap_or_else(|| panic!("{flag} {v} parses"));
                    assert!(lands(&cli), "{flag} {v} lands in its field");
                    assert!(!at_least_1 || with(&["0"]).is_none(), "{flag} 0");
                }
                None => assert!(lands(&with(&[]).expect("a switch parses")), "{flag}"),
            }
        }
        assert!(parse(&["--nope"]).is_none(), "an unknown flag");
        // A worker reports on its stdout, to no file.
        for gone in ["--worker-out", "--worker-heartbeat"] {
            assert!(parse(&[gone, "F"]).is_none(), "{gone}");
        }
    }

    #[test]
    fn the_defaults_are_the_documented_ones() {
        let cli = parse(&[]).expect("no flags parse");
        let engine = cli.campaign();
        assert_eq!((engine.scale_name.as_str(), engine.workers), ("quick", 2));
        assert_eq!((engine.max_retries, engine.checkpoint_every), (3, 2000));
        assert_eq!(engine.work_dir, PathBuf::from("campaign"));
        assert_eq!(engine.cache_dir, PathBuf::from("campaign/cache"));
        assert!(engine.chaos.is_none());
        let serve = cli.serve();
        assert_eq!(
            (serve.bind.as_str(), serve.queue_capacity),
            ("127.0.0.1:0", 32)
        );
        assert_eq!((serve.rate_per_sec, serve.burst), (0, 8));
        assert_eq!(serve.engine.work_dir, PathBuf::from("serve/work"));
        assert_eq!(serve.engine.cache_dir, PathBuf::from("serve/cache"));
        assert_eq!(cli.client.artifacts, all_artifacts());
        assert_eq!(cli.client.timeout, Duration::from_secs(600));
        assert_eq!(cli.client.concurrency, 1);
    }

    /// `campaign` and `serve` given the same flags run the same engine,
    /// each under its own directory.
    #[test]
    fn campaign_and_serve_build_one_engine_from_the_same_flags() {
        let cli = parse(&[
            "--scale",
            "test",
            "--json",
            "--trace",
            "--metrics-every",
            "5",
            "--checkpoint-every",
            "9",
            "--workers",
            "3",
            "--retries",
            "4",
            "--only",
            "fig3",
            "--job-timeout-secs",
            "6",
            "--heartbeat-timeout-secs",
            "7",
            "--chaos-kill-every",
            "8",
            "--seed",
            "1",
            "--chaos-fail-job",
            "fig3",
            "--chaos-hang-job",
            "fig7",
            "--campaign-dir",
            "C",
            "--serve-dir",
            "S",
        ])
        .expect("parses");
        let campaign = cli.campaign();
        let mut serve = cli.serve().engine;
        assert_eq!(campaign.work_dir, PathBuf::from("C"));
        assert_eq!(campaign.cache_dir, PathBuf::from("C/cache"));
        assert_eq!(serve.work_dir, PathBuf::from("S/work"));
        assert_eq!(serve.cache_dir, PathBuf::from("S/cache"));
        serve.work_dir.clone_from(&campaign.work_dir);
        serve.cache_dir.clone_from(&campaign.cache_dir);
        assert_eq!(format!("{serve:?}"), format!("{campaign:?}"));
    }

    #[test]
    fn cache_dir_overrides_the_campaign_dir_default_in_either_order() {
        for flags in [
            ["--campaign-dir", "C", "--cache-dir", "X"],
            ["--cache-dir", "X", "--campaign-dir", "C"],
        ] {
            let cli = parse(&flags).expect("parses");
            assert_eq!(cli.campaign().work_dir, PathBuf::from("C"));
            assert_eq!(cli.campaign().cache_dir, PathBuf::from("X"));
            assert_eq!(cli.serve().engine.cache_dir, PathBuf::from("X"));
        }
    }
}
