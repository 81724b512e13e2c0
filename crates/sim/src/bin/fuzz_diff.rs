//! Differential fuzzer: random programs through the cycle-level `Gpu`
//! (the nine arms of `oracle::VARIANTS`: spawn-bank conflicts on and off,
//! both spawn policies, sleeping SMs and forced ticking, four memory
//! machines, a mid-run restore) versus the functional `RefMachine`,
//! comparing final global memory and thread-lifecycle counters, and
//! holding every arm's machine to `Gpu::audit`'s laws.
//!
//! ```text
//! fuzz_diff [--iterations N] [--seed S] [--time-budget-secs T]
//!           [--out DIR] [--replay DIR]
//! ```
//!
//! Mismatches are shrunk and dumped as `.s` repro files under `--out`
//! (default `results/oracle/`). `--replay DIR` re-runs every saved repro
//! config in `DIR` instead of fuzzing — the CI regression mode.

use simt_isa::gen::GenConfig;
use simt_sim::oracle;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    iterations: u64,
    seed: u64,
    time_budget: Option<Duration>,
    out: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        iterations: 1000,
        seed: 0,
        time_budget: None,
        out: PathBuf::from("results/oracle"),
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--iterations" => args.iterations = value()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("{e}"))?,
            "--time-budget-secs" => {
                args.time_budget = Some(Duration::from_secs(
                    value()?.parse().map_err(|e| format!("{e}"))?,
                ));
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--replay" => args.replay = Some(PathBuf::from(value()?)),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz_diff [--iterations N] [--seed S] \
                     [--time-budget-secs T] [--out DIR] [--replay DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Runs one config; on mismatch, shrinks it, dumps a repro, and reports
/// `true` (failed).
fn run_and_report(cfg: &GenConfig, out: &std::path::Path) -> (oracle::CaseReport, bool) {
    let report = oracle::run_case(cfg);
    let Some(m) = &report.mismatch else {
        return (report, false);
    };
    eprintln!("MISMATCH seed={}: {m}", cfg.seed);
    let small = oracle::shrink(cfg);
    let small_report = oracle::run_case(&small);
    match oracle::dump_repro(out, &small_report) {
        Ok(path) => eprintln!("  minimized to `{}` -> {}", small.to_kv(), path.display()),
        Err(e) => eprintln!("  failed to write repro: {e}"),
    }
    (report, true)
}

fn replay(dir: &std::path::Path, out: &std::path::Path) -> Result<u64, String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    entries.sort();
    let mut failures = 0;
    let mut replayed = 0;
    for path in entries {
        let Some(cfg) = oracle::parse_repro(&path) else {
            eprintln!("skipping {} (no gen-config header)", path.display());
            continue;
        };
        replayed += 1;
        let (_, failed) = run_and_report(&cfg, out);
        if failed {
            failures += 1;
        } else {
            println!("ok: {} ({})", path.display(), cfg.to_kv());
        }
    }
    println!("replayed {replayed} repro configs, {failures} failures");
    Ok(failures)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz_diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(dir) = &args.replay {
        return match replay(dir, &args.out) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("fuzz_diff: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let start = Instant::now();
    let (mut failures, mut audits): (u64, u64) = (0, 0);
    let mut ran: u64 = 0;
    let mut with_spawns: u64 = 0;
    let mut with_loops: u64 = 0;
    let mut children: u64 = 0;
    for i in 0..args.iterations {
        if let Some(budget) = args.time_budget {
            if start.elapsed() >= budget {
                println!("time budget reached after {ran} iterations");
                break;
            }
        }
        let cfg = GenConfig::from_seed(args.seed.wrapping_add(i));
        let (report, failed) = run_and_report(&cfg, &args.out);
        ran += 1;
        if report.spawns {
            with_spawns += 1;
        }
        if report.loops {
            with_loops += 1;
        }
        children += report.ref_spawned;
        match report.mismatch {
            Some(oracle::Mismatch::Audit { .. }) => audits += 1,
            _ => failures += u64::from(failed),
        }
        if ran.is_multiple_of(100) {
            println!(
                "{ran} programs: {with_spawns} spawning ({children} children), \
                 {with_loops} looping, {failures} mismatches, {audits} audit failures, {:.1}s",
                start.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "done: {ran} programs, {with_spawns} spawning ({children} children spawned), \
         {with_loops} looping, {failures} mismatches, {audits} audit failures in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    if failures + audits == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
