//! The twelve source-paper artifacts as registry workloads.
//!
//! Each is a zero-sized wrapper over the figure/table module that has
//! always rendered it; the rendered bytes go through
//! [`super::page`] unchanged, so `repro all` output stays byte-identical
//! to the pre-registry stringly-typed dispatch. The
//! `paper_workload!` macro is the boilerplate these twelve arms used to
//! duplicate in `render_artifact`'s match. A runner that simulates
//! returns a `Result`: a run that faults or stalls is the job-level
//! error of [`crate::supervisor::run_checked`]. A runner that renders
//! scene windows takes them from the [`Plan`] it is given.

use super::{page, Group, Workload};
use crate::configs::Variant;
use crate::runner::{Plan, Scale};
use crate::{
    ablation, fig10, fig2, fig3, fig7, fig8, fig9, shadow, table1, table2, table3, table4,
};

/// Defines one paper-group workload: unit struct, frozen id, one-line
/// description, and a closure from [`Plan`] and [`Scale`] to the
/// `Display` value the figure/table module produces, or its job-level
/// error.
macro_rules! paper_workload {
    ($ty:ident, $id:literal, $desc:literal, |$plan:ident, $scale:ident| $run:expr) => {
        /// Paper artifact (see the module-level docs).
        pub(super) struct $ty;

        impl Workload for $ty {
            fn id(&self) -> &'static str {
                $id
            }

            fn description(&self) -> &'static str {
                $desc
            }

            fn group(&self) -> Group {
                Group::Paper
            }

            fn render(
                &self,
                $plan: &mut Plan,
                $scale: Scale,
                _variant: Option<Variant>,
                json: bool,
            ) -> Result<String, String> {
                let figure: Result<_, String> = $run;
                Ok(page($id, &figure?, json))
            }
        }
    };
}

paper_workload!(
    Table1,
    "table1",
    "Table I — the simulated FX5800-class machine configuration",
    |_plan, _scale| Ok(table1::run())
);
paper_workload!(
    Table2,
    "table2",
    "Table II — registers, shared and global bytes per thread of each kernel",
    |_plan, _scale| Ok(table2::run())
);
paper_workload!(
    Table3,
    "table3",
    "Table III — benchmark scenes and kd-tree parameters",
    |_plan, scale| Ok(table3::run(scale))
);
paper_workload!(
    Table4,
    "table4",
    "Table IV — memory bandwidth required to draw one image",
    |_plan, scale| Ok(table4::run(scale))
);
paper_workload!(
    Fig2,
    "fig2",
    "Fig. 2 — PDOM lane-occupancy decay of one data-dependent loop",
    |_plan, _scale| fig2::run()
);
paper_workload!(
    Fig3,
    "fig3",
    "Fig. 3 — warp-occupancy distribution of the traditional tracer",
    |plan, scale| fig3::run(plan, scale)
);
paper_workload!(
    Fig7,
    "fig7",
    "Fig. 7 — occupancy distribution under dynamic μ-kernels",
    |plan, scale| fig7::run(plan, scale)
);
paper_workload!(
    Fig8,
    "fig8",
    "Fig. 8 — speedup of dynamic μ-kernels over the PDOM baselines",
    |plan, scale| fig8::run(plan, scale)
);
paper_workload!(
    Fig9,
    "fig9",
    "Fig. 9 — occupancy with spawn-memory bank conflicts modelled",
    |plan, scale| fig9::run(plan, scale)
);
paper_workload!(
    Fig10,
    "fig10",
    "Fig. 10 — branching performance against the MIMD theoretical ideal",
    |plan, scale| fig10::run(plan, scale)
);
paper_workload!(
    Ablation,
    "ablation",
    "Ablation — §IX spawn policy: spawn always vs branch when the warp agrees",
    |plan, scale| ablation::run(plan, scale)
);
paper_workload!(
    Shadow,
    "shadow",
    "Shadow — secondary-ray workload on both architectures",
    |_plan, scale| shadow::run(scale)
);
