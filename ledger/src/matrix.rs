//! `repro-all-quick`: the north star's "cold `repro all`" — the twelve
//! paper artifacts rendered in-process through the definition `repro`
//! itself uses. Users pay every cost on every invocation, so nothing is
//! warmed and every pass starts from scratch.

use crate::metrics::Report;
use crate::spans::Tracer;
use crate::{host, Args};
use experiments::{campaign, Scale};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The span one artifact's render is recorded under; the four tables share
/// one because together they take a few milliseconds.
fn span_name(artifact: &str) -> &'static str {
    match artifact {
        "fig2" => "experiments.workload.fig2",
        "fig3" => "experiments.workload.fig3",
        "fig7" => "experiments.workload.fig7",
        "fig8" => "experiments.workload.fig8",
        "fig9" => "experiments.workload.fig9",
        "fig10" => "experiments.workload.fig10",
        "ablation" => "experiments.workload.ablation",
        "shadow" => "experiments.workload.shadow",
        _ => "experiments.workload.tables",
    }
}

/// The scale the matrix renders at.
pub fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale::test()
    } else {
        Scale::quick()
    }
}

/// Renders `names` at `scale`, in order; `None` for an artifact that
/// failed to render.
pub fn render_all(
    names: &[&'static str],
    scale: Scale,
    tracer: &mut Tracer,
) -> Vec<(&'static str, Option<String>)> {
    names
        .iter()
        .map(|&name| {
            let bytes = tracer.span(span_name(name), |_| {
                campaign::render_artifact(name, scale, false)
            });
            (name, bytes.and_then(Result::ok))
        })
        .collect()
}

/// One pass over the matrix in registry order, as `repro all` makes it:
/// its wall, with every artifact checked against the first pass's bytes.
fn pass(
    args: &Args,
    first: &mut Option<Vec<(&'static str, Option<String>)>>,
    report: &mut Report,
    tracer: &mut Tracer,
) -> f64 {
    let start = Instant::now();
    let rendered = tracer.span("experiments.campaign.render_matrix", |t| {
        render_all(&campaign::artifacts(), scale(args.smoke), t)
    });
    let wall = start.elapsed().as_secs_f64();
    for (i, (name, bytes)) in rendered.iter().enumerate() {
        let same = first.as_ref().is_none_or(|f| f[i].1 == *bytes);
        report.check(bytes.is_some() && same, || {
            format!("{name}: rendered {}, bytes repeat {same}", bytes.is_some())
        });
    }
    first.get_or_insert(rendered);
    wall
}

/// Exec → registry listed → exit of the built `repro`: what every cold
/// invocation pays before its first render.
fn startup_s(args: &Args) -> Result<f64, String> {
    let start = Instant::now();
    let status = Command::new(&args.repro)
        .arg("list")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", args.repro.display()))?;
    if !status.success() {
        return Err(format!("`repro list` exited with {status}"));
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The timed set: passes until `--seconds` have been measured, and at
/// least two: one pass takes about `--seconds`, and how many a run makes
/// must not depend on how fast the host is that day. A third would make the
/// median a sample and not a mean of two, but a pass is 8–11 s and the
/// driver's 158 runs share 3420 s.
pub fn timed(args: &Args, report: &mut Report) -> Result<(), String> {
    // A start-up is a millisecond: many, for a steady median.
    let setup: Vec<f64> = (0..31).map(|_| startup_s(args)).collect::<Result<_, _>>()?;
    let mut tracer = Tracer::new(false);
    let mut first = None;
    let mut wall = Vec::new();
    let mut peak_rss = 0.0;
    let began = Instant::now();
    while args.wants_more(wall.len(), 2, began) {
        wall.push(pass(args, &mut first, report, &mut tracer));
        if wall.len() == 1 {
            // One cold `repro all` is one pass in a fresh process.
            peak_rss = host::self_peak_rss_mib();
        }
    }
    report.set_end_to_end(&setup, &wall, peak_rss);
    Ok(())
}

/// The traced set: one untraced pass, then one with a span per artifact.
pub fn traced(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let mut first = None;
    let untraced = pass(args, &mut first, report, &mut Tracer::new(false));
    let wall = pass(args, &mut first, report, tracer);
    report.set("trace_overhead_pct", (wall / untraced - 1.0) * 100.0);
    for artifact in [
        "table1", "fig2", "fig3", "fig7", "fig8", "fig9", "fig10", "ablation", "shadow",
    ] {
        let span = span_name(artifact);
        let metric = format!("{span}_s");
        report.set(&metric, tracer.total(span));
    }
}
