//! The metric catalogue — every name the benchmark prints, with its unit
//! and direction — and the result record built against it. `BENCHMARK.json`
//! declares the same names; `tests/ledger_smoke.rs` holds the two equal.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit for bit for one seed: a count, or a ratio of counts,
    /// taken from the simulator's public statistics. `run.py --compare`
    /// reports any exact metric that differs between two sets.
    pub exact: bool,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact,
    }
}

/// A host-side measurement that is better when lower.
const fn lo(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, Better::Lower, false)
}

/// A host-side measurement that is better when higher.
const fn hi(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, Better::Higher, false)
}

/// An exact simulated statistic that is better when lower.
const fn lo_x(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, Better::Lower, true)
}

/// An exact simulated statistic that is better when higher.
const fn hi_x(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, Better::Higher, true)
}

/// End-to-end metrics: host time and memory a user of the workload pays.
/// Every workload reports every one of them, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    lo("setup_s", "s"),
    lo("wall_s", "s"),
    lo("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, prefixed with the crate and module they measure.
/// Reported by the traced run; a metric of a layer the workload does not
/// exercise reads 0 there (zero calls, zero time).
pub const PER_LAYER: &[Metric] = &[
    // raytrace
    lo("raytrace.scenes.gen_s", "s"),
    lo("raytrace.kdtree.build_s", "s"),
    lo("raytrace.bvh.build_s", "s"),
    lo("raytrace.host_trace_s", "s"),
    // isa
    lo("isa.asm.assemble_s", "s"),
    lo("isa.cfg.reconv_build_s", "s"),
    lo("isa.eval.alu_int_ns", "ns"),
    lo("isa.eval.alu_fp_ns", "ns"),
    hi("isa.codec.encode_mb_per_s", "MB/s"),
    hi("isa.codec.decode_mb_per_s", "MB/s"),
    // rt-kernels
    lo("rt-kernels.render.upload_s", "s"),
    hi_x("rt-kernels.render.match_rate", "ratio"),
    // core
    lo("core.formation.spawn_ns", "ns"),
    lo("core.formation.force_out_ns", "ns"),
    lo_x("core.formation.spawn_instr", "count"),
    lo_x("core.formation.threads_spawned", "count"),
    hi_x("core.formation.warps_completed", "count"),
    lo_x("core.formation.partial_warps_forced", "count"),
    lo_x("core.formation.spawn_stalls", "count"),
    lo_x("core.formation.max_fifo_depth", "count"),
    hi_x("core.formation.full_warp_ratio", "ratio"),
    // mem: unit costs
    lo("mem.coalesce.coherent_ns", "ns"),
    lo("mem.coalesce.scattered_ns", "ns"),
    lo("mem.frontend.offchip_ns", "ns"),
    lo("mem.fabric.service_ns", "ns"),
    lo("mem.cache.probe_fill_ns", "ns"),
    lo("mem.mshr.op_ns", "ns"),
    lo("mem.frontend.l1_ns", "ns"),
    lo("mem.fabric.batch_ns", "ns"),
    // mem: modelled-component statistics
    lo_x("mem.global.accesses", "count"),
    lo_x("mem.global.transactions", "count"),
    lo_x("mem.global.bytes", "bytes"),
    lo_x("mem.coalesce.tx_per_access", "ratio"),
    lo_x("mem.spawn.accesses", "count"),
    lo_x("mem.spawn.conflict_passes", "count"),
    hi_x("mem.tex.hit_ratio", "ratio"),
    hi_x("mem.l1.hits", "count"),
    lo_x("mem.l1.misses", "count"),
    hi_x("mem.mshr.merges", "count"),
    lo_x("mem.mshr.stalls", "count"),
    hi_x("mem.l2.hits", "count"),
    lo_x("mem.l2.misses", "count"),
    lo_x("mem.icnt.conflicts", "count"),
    lo_x("mem.dram.busy_share", "ratio"),
    // sim.gpu
    lo("sim.gpu.launch_s", "s"),
    lo("sim.gpu.run_s", "s"),
    hi("sim.gpu.cycles_per_s", "1/s"),
    hi_x("sim.gpu.mrays_per_s", "Mrays/s"),
    hi_x("sim.gpu.simd_efficiency", "ratio"),
    lo_x("sim.gpu.cycles", "count"),
    lo_x("sim.gpu.warp_issues", "count"),
    lo_x("sim.gpu.thread_instr", "count"),
    hi_x("sim.gpu.rays", "count"),
    lo_x("sim.gpu.idle_sm_cycles", "count"),
    hi_x("sim.gpu.sm_occupancy", "ratio"),
    hi_x("sim.gpu.skipped_cycles", "count"),
    lo("sim.gpu.ns_per_warp_issue", "ns"),
    lo("sim.gpu.ns_per_ticked_cycle", "ns"),
    lo("sim.gpu.force_tick_ratio", "ratio"),
    lo("sim.gpu.par2_ratio", "ratio"),
    lo("sim.gpu.unattributed_share", "ratio"),
    // sim.telemetry, sim.checkpoint
    lo("sim.telemetry.on_ratio", "ratio"),
    lo("sim.telemetry.report_s", "s"),
    lo("sim.checkpoint.bytes", "bytes"),
    lo("sim.checkpoint.encode_s", "s"),
    lo("sim.checkpoint.write_s", "s"),
    lo("sim.checkpoint.read_restore_s", "s"),
    // experiments.workload
    lo("experiments.workload.tables_s", "s"),
    lo("experiments.workload.fig2_s", "s"),
    lo("experiments.workload.fig3_s", "s"),
    lo("experiments.workload.fig7_s", "s"),
    lo("experiments.workload.fig8_s", "s"),
    lo("experiments.workload.fig9_s", "s"),
    lo("experiments.workload.fig10_s", "s"),
    lo("experiments.workload.ablation_s", "s"),
    lo("experiments.workload.shadow_s", "s"),
    // experiments.supervisor, experiments.campaign
    lo("experiments.supervisor.ckpt_mem_ratio", "ratio"),
    lo("experiments.supervisor.ckpt_disk_ratio", "ratio"),
    lo("experiments.campaign.cold_s", "s"),
    lo("experiments.campaign.warm_s", "s"),
    lo("experiments.campaign.overhead_ratio", "ratio"),
    lo("experiments.campaign.cache.probe_us", "us"),
    lo("experiments.campaign.cache.store_us", "us"),
    // experiments.serve
    lo("experiments.serve.post_ms", "ms"),
    lo("experiments.serve.status_ms", "ms"),
    lo("experiments.serve.output_ms", "ms"),
    lo("experiments.serve.hit_p50_ms", "ms"),
    lo("experiments.serve.hit_p95_ms", "ms"),
    lo("experiments.serve.journal.append_us", "us"),
    lo("experiments.serve.cold_overhead_ratio", "ratio"),
    lo("experiments.serve.sheds", "count"),
    lo("experiments.serve.resubmits", "count"),
    // the tracing itself
    lo("trace_overhead_pct", "%"),
];

/// The result of one run of one workload: the metric values of one
/// catalogue section plus the operations attempted and failed.
pub struct Report {
    section: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
}

impl Report {
    /// An empty report over the end-to-end or the per-layer section.
    pub fn new(traced: bool) -> Self {
        Report {
            section: if traced { PER_LAYER } else { END_TO_END },
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records `value` under the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name this report's section does not declare — a typo in
    /// this crate.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = self.section.iter().find(|m| m.name == name);
        let key = declared
            .unwrap_or_else(|| panic!("undeclared metric {name}"))
            .name;
        self.values.insert(key, value);
    }

    /// Records the three end-to-end metrics from a timed set's samples,
    /// printing each timing with `n`, quartiles, min and max.
    pub fn set_end_to_end(&mut self, setup_s: &[f64], wall_s: &[f64], peak_rss_mib: f64) {
        eprintln!("  setup_s  {}", stats::describe(setup_s));
        eprintln!("  wall_s   {}", stats::describe(wall_s));
        self.set("setup_s", stats::median(setup_s));
        self.set("wall_s", stats::median(wall_s));
        self.set("peak_rss_mb", peak_rss_mib);
    }

    /// Counts one checked operation; `ok == false` counts it as failed and
    /// says why on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("ledger: FAILED CHECK: {}", what());
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line the driver reads: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`. A per-layer
    /// metric nobody recorded reads 0; a non-finite value is a failure.
    pub fn result_line(&mut self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.section.iter().enumerate() {
            // Adding zero turns the -0 an empty sum yields into 0.
            let mut v = self.values.get(m.name).copied().unwrap_or(0.0) + 0.0;
            if !v.is_finite() {
                eprintln!("ledger: FAILED CHECK: metric {} is {v}", m.name);
                self.failed += 1;
                v = 0.0;
            }
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }

    /// Human-readable table of the section: every metric by name and unit.
    pub fn print_table(&self, workload: &str) {
        for m in self.section {
            let v = self.values.get(m.name).copied().unwrap_or(0.0);
            eprintln!("  {workload:16} {:44} {v:>18.6} {}", m.name, m.unit);
        }
    }
}

/// The catalogue as JSON, in the shape of `BENCHMARK.json`'s two metric
/// lists (without bounds), for the test that holds the two equal.
pub fn catalogue_json() -> String {
    let list = |section: &[Metric]| {
        section
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    match m.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}], \"exact\": [{}]}}",
        list(END_TO_END),
        list(PER_LAYER),
        PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .map(|m| format!("\"{}\"", m.name))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn the_result_line_holds_every_metric_of_its_section() {
        let mut r = Report::new(false);
        r.set("setup_s", 0.25);
        r.check(true, String::new);
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\"", m.name)));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn exact_metrics_are_counts_and_count_ratios_of_the_simulator() {
        let exact = |name: &str| PER_LAYER.iter().any(|m| m.name == name && m.exact);
        assert!(exact("sim.gpu.cycles") && exact("sim.gpu.simd_efficiency"));
        assert!(exact("mem.l1.hits"));
        assert!(!exact("sim.gpu.run_s") && !exact("sim.gpu.par2_ratio"));
        assert!(END_TO_END.iter().all(|m| !m.exact));
    }
}
