//! `ledger` — the repo's benchmark. One invocation measures one workload,
//! from outside, by timing calls into the public functions of each layer:
//!
//! ```text
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!        [--repro PATH] [--scratch DIR] [--out PATH]
//! ledger --catalogue
//! ```
//!
//! With `--trace 0` it runs the timed set and reports the end-to-end
//! metrics; with `--trace 1` the separate traced set and the per-layer
//! metrics. The last line of standard output is the result as one JSON
//! object; everything meant for people goes to standard error. `run.py`
//! builds this binary next to `repro`, and runs all workloads, `--smoke`
//! and `--compare` on top of it.

mod host;
mod matrix;
mod metrics;
mod probes;
mod seed;
mod serve;
mod simwl;
mod spans;
mod stats;

use metrics::Report;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `run.py --workload all` runs them.
const WORKLOADS: [&str; 7] = [
    "fig7-flat",
    "fig7-cached",
    "fig3-pdom",
    "bvh-gi",
    "repro-all-quick",
    "serve-matrix",
    "serve-hit",
];

/// Parsed command line.
pub struct Args {
    workload: String,
    /// 0 is the canonical input: the paper viewpoint and registry order.
    seed: u64,
    /// How long the timed set measures.
    seconds: f64,
    traced: bool,
    /// Test scale, one rep, twenty hits: a structural check, not a reading.
    smoke: bool,
    /// The built `repro` binary the service workloads run.
    repro: PathBuf,
    /// Directory for everything the run writes; removed by the caller.
    scratch: PathBuf,
    /// With `--trace 1`, spans are written to `<out>.trace.json`.
    out: Option<PathBuf>,
}

/// Past this a timed set starts no further operation, whatever its minimum:
/// on a host several times slower than the reference one a run must still
/// end well inside the driver's limit of 180 s.
const TIMED_SET_CAP_S: f64 = 60.0;

impl Args {
    /// Whether a timed set that has made `done` timed operations since
    /// `began` makes another: always a first one, then — except at smoke
    /// scale — until there are `at_least` and `--seconds` have been measured.
    fn wants_more(&self, done: usize, at_least: usize, began: Instant) -> bool {
        let spent = began.elapsed().as_secs_f64();
        done == 0
            || (!self.smoke && spent < TIMED_SET_CAP_S && (done < at_least || spent < self.seconds))
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20             [--repro PATH] [--scratch DIR] [--out PATH]\n\
         \x20      ledger --catalogue",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let exe = std::env::current_exe().ok()?;
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        smoke: false,
        repro: exe.with_file_name("repro"),
        scratch: exe.with_file_name(format!("ledger-scratch-{}", std::process::id())),
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--workload" => args.workload.clone_from(it.next()?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                args.traced = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--repro" => args.repro = it.next()?.into(),
            "--scratch" => args.scratch = it.next()?.into(),
            "--out" => args.out = Some(it.next()?.into()),
            _ => return None,
        }
    }
    WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

/// Runs the workload's timed or traced set into `report`.
fn measure(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    if args.traced {
        // Unit costs first: the simulator workloads multiply them by the
        // traced rep's counts.
        for (name, value) in probes::run_all(args.seed, &args.scratch)? {
            report.set(name, value);
        }
    }
    match (args.workload.as_str(), args.traced) {
        ("repro-all-quick", false) => matrix::timed(args, report),
        ("repro-all-quick", true) => {
            matrix::traced(args, report, tracer);
            Ok(())
        }
        ("serve-matrix", false) => serve::matrix_timed(args, report),
        ("serve-matrix", true) => serve::matrix_traced(args, report, tracer),
        ("serve-hit", false) => serve::hit_timed(args, report),
        ("serve-hit", true) => serve::hit_traced(args, report, tracer),
        (name, traced) => {
            let shape = simwl::shape(name).ok_or_else(|| format!("unknown workload {name}"))?;
            if traced {
                simwl::traced(shape, args, report, tracer);
            } else {
                simwl::timed(shape, args, report);
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--catalogue"] {
        println!("{}", metrics::catalogue_json());
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse(&argv) else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("ledger: cannot create {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "ledger: {} seed {} {} ({}; 1 thread, 1 connection, closed loop; host cpus {}; \
         simulated timing unvalidated against hardware; modelled caches start empty)",
        args.workload,
        args.seed,
        if args.traced {
            "traced set"
        } else {
            "timed set"
        },
        if args.smoke {
            "smoke scale".to_string()
        } else {
            format!("{} s", args.seconds)
        },
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let mut report = Report::new(args.traced);
    let mut tracer = Tracer::new(args.traced);
    let measured = measure(&args, &mut report, &mut tracer);
    if let (true, Some(out)) = (args.traced, &args.out) {
        let mut path = out.clone().into_os_string();
        path.push(".trace.json");
        if let Err(e) = std::fs::write(&path, tracer.to_json(&args.workload)) {
            eprintln!(
                "ledger: cannot write {}: {e}",
                PathBuf::from(path).display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&args.scratch);
    if let Err(e) = measured {
        // No result line: the run could not be made at all.
        eprintln!("ledger: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    report.print_table(&args.workload);
    println!("{}", report.result_line());
    if report.failed > 0 {
        eprintln!(
            "ledger: {} of {} checked operations failed",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
