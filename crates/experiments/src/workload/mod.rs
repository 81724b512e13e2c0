//! # The workload registry — every runnable scenario, in one place
//!
//! Historically `repro`, the campaign engine, and the serve front-end
//! each kept their own stringly-typed idea of what an "artifact" was: a
//! `match` over names here, a `const` list there, a `contains` check in
//! a third place. This module retires that. A [`Workload`] is a typed
//! description of one runnable scenario family — how to render it at a
//! [`Scale`], which machine [`Variant`]s it supports standalone, how to
//! extend its job-identity fingerprint, and (when it has one) its
//! per-variant SIMD-efficiency summary — and [`all`] is the single
//! source of truth every front-end enumerates.
//!
//! Two groups exist:
//!
//! * [`Group::Paper`] — the ten figures/tables of the source paper plus
//!   the ablation and shadow-ray studies. Their ids, presentation
//!   order, rendered bytes, and job fingerprints are **frozen**:
//!   `repro all` output and cached campaign results must stay
//!   byte-identical across this refactor.
//! * [`Group::Extended`] — workloads added beyond the paper's matrix:
//!   the BVH path tracer ([`bvh`]), the divergence microbenchmark
//!   family ([`microdiv`]), and the cache-ablation figure
//!   ([`cacheabl`]). The first two support per-variant standalone runs
//!   via `workload@variant` job names (see [`ScenarioSpec`]).

pub mod bvh;
pub mod cacheabl;
pub mod microdiv;
mod paper;

use crate::configs::Variant;
use crate::runner::Scale;
use simt_isa::codec::Encoder;
use std::fmt;

/// One registered scenario family.
///
/// Implementations are zero-sized unit structs registered in the static
/// tables below; everything a front-end needs — enumeration, dispatch,
/// fingerprinting, reporting — goes through this trait instead of
/// string matching.
pub trait Workload: Sync {
    /// Stable identifier (the job name, the cache key prefix, the
    /// `repro <id>` command). Never rename: journals, cached results,
    /// and CI scripts key on it.
    fn id(&self) -> &'static str;

    /// One-line human description for `repro list`.
    fn description(&self) -> &'static str;

    /// Which group the workload belongs to.
    fn group(&self) -> Group;

    /// Machine variants this workload can run standalone (as
    /// `id@variant`). Empty for the paper artifacts, whose variant
    /// matrix is fixed by the figure they reproduce.
    fn variants(&self) -> &'static [Variant] {
        &[]
    }

    /// Renders the workload to the exact bytes `repro` prints for it.
    /// `variant` narrows extended workloads to one machine variant
    /// (`None` renders the workload's full default matrix); it is
    /// always `None` for paper artifacts ([`ScenarioSpec::resolve`]
    /// rejects the combination first).
    ///
    /// # Errors
    ///
    /// A deterministic job-level failure (assembly error, ground-truth
    /// mismatch, simulator fault) the campaign reports without retry.
    fn render(&self, scale: Scale, variant: Option<Variant>, json: bool) -> Result<String, String>;

    /// Folds workload-specific identity (extra kernel programs, private
    /// configuration) into a job fingerprint. The default is a no-op,
    /// which keeps the paper artifacts' fingerprints — and therefore
    /// every existing cache entry and journal id — byte-identical.
    fn extend_fingerprint(&self, _enc: &mut Encoder, _scale: Scale) {}
}

impl fmt::Debug for dyn Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload").field("id", &self.id()).finish()
    }
}

/// Registry group of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Source-paper artifact: frozen id, order, bytes, fingerprint.
    Paper,
    /// Added beyond the paper's matrix.
    Extended,
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Group::Paper => "paper",
            Group::Extended => "extended",
        })
    }
}

/// The registry, in canonical presentation order: the twelve paper
/// artifacts first (the exact order `repro all` has always used), then
/// the extended workloads.
static REGISTRY: [&dyn Workload; 15] = [
    &paper::Table1,
    &paper::Table2,
    &paper::Table3,
    &paper::Table4,
    &paper::Fig2,
    &paper::Fig3,
    &paper::Fig7,
    &paper::Fig8,
    &paper::Fig9,
    &paper::Fig10,
    &paper::Ablation,
    &paper::Shadow,
    &bvh::BvhPathTracer,
    &microdiv::Microdiv,
    &cacheabl::CacheAblation,
];

/// Every registered workload, in canonical order.
pub fn all() -> &'static [&'static dyn Workload] {
    &REGISTRY
}

/// The paper-group workload ids, in canonical order — the exact job
/// list of `repro all` and of a default full campaign.
pub fn paper_ids() -> Vec<&'static str> {
    REGISTRY
        .iter()
        .filter(|w| w.group() == Group::Paper)
        .map(|w| w.id())
        .collect()
}

/// Looks a workload up by id.
///
/// # Errors
///
/// [`UnknownWorkload`] for an unregistered id — the typed error every
/// front-end reports (`repro` exits with it, serve sheds it as 400).
pub fn find(id: &str) -> Result<&'static dyn Workload, UnknownWorkload> {
    REGISTRY
        .iter()
        .find(|w| w.id() == id)
        .copied()
        .ok_or_else(|| UnknownWorkload::Id(id.to_string()))
}

/// Typed rejection of a scenario no registered workload covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnknownWorkload {
    /// No workload with this id is registered.
    Id(String),
    /// The workload exists but does not run this variant standalone.
    Variant {
        /// The workload id.
        workload: String,
        /// The rejected variant.
        variant: Variant,
    },
}

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownWorkload::Id(id) => {
                write!(f, "unknown workload: {id} (`repro list` shows the catalog)")
            }
            UnknownWorkload::Variant { workload, variant } => write!(
                f,
                "workload {workload} does not run standalone variant {} \
                 (`repro list` shows each workload's variants)",
                variant.wire_name()
            ),
        }
    }
}

impl std::error::Error for UnknownWorkload {}

/// One fully-specified runnable scenario: which workload, narrowed to
/// which machine variant (if any), at which scale. This is the typed
/// replacement for the bare artifact-name string: [`crate::campaign::JobSpec`]
/// embeds one, job fingerprints hash one, and the serve journal and
/// wire format round-trip through its canonical [`Self::name`].
///
/// The canonical name is the bare workload id when no variant is
/// pinned — byte-identical to the pre-registry job names, so old
/// journals, drop-dir requests, and cached results replay unchanged —
/// and `id@variant` (with [`Variant::wire_name`]) otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registered workload id (or the unparsed request string, when the
    /// request names nothing registered — [`Self::resolve`] rejects it).
    pub workload_id: String,
    /// Variant narrowing, for workloads that support standalone
    /// variants.
    pub variant: Option<Variant>,
    /// Experiment scale.
    pub scale: Scale,
    /// Scale name forwarded to workers (`--scale <name>`).
    pub scale_name: String,
    name: String,
}

impl ScenarioSpec {
    /// Parses a job name (`id` or `id@variant`) into a spec. Parsing
    /// never fails: a name that resolves to nothing registered is kept
    /// verbatim and rejected by [`Self::resolve`], so the typed error
    /// can echo exactly what was asked for.
    pub fn new(name: &str, scale: Scale, scale_name: &str) -> Self {
        let (workload_id, variant) = match name.split_once('@') {
            Some((id, wire)) => match Variant::from_wire(wire) {
                Some(v) => (id.to_string(), Some(v)),
                None => (name.to_string(), None),
            },
            None => (name.to_string(), None),
        };
        let name = match variant {
            Some(v) => format!("{workload_id}@{}", v.wire_name()),
            None => workload_id.clone(),
        };
        ScenarioSpec {
            workload_id,
            variant,
            scale,
            scale_name: scale_name.to_string(),
            name,
        }
    }

    /// The canonical job name (wire format, worker argv, cache key
    /// prefix, manifest entry).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resolves the spec against the registry.
    ///
    /// # Errors
    ///
    /// [`UnknownWorkload`] when the id is unregistered or the variant
    /// narrowing is unsupported.
    pub fn resolve(&self) -> Result<&'static dyn Workload, UnknownWorkload> {
        let w = find(&self.workload_id)?;
        if let Some(v) = self.variant {
            if !w.variants().contains(&v) {
                return Err(UnknownWorkload::Variant {
                    workload: self.workload_id.clone(),
                    variant: v,
                });
            }
        }
        Ok(w)
    }

    /// Renders the scenario to the exact bytes `repro` prints for it.
    ///
    /// # Errors
    ///
    /// [`RenderError::Unknown`] for an unresolvable scenario,
    /// [`RenderError::Job`] for a deterministic job-level failure.
    pub fn render(&self, json: bool) -> Result<String, RenderError> {
        let w = self.resolve().map_err(RenderError::Unknown)?;
        w.render(self.scale, self.variant, json)
            .map_err(RenderError::Job)
    }
}

/// Why a scenario did not render.
#[derive(Debug, Clone, PartialEq)]
pub enum RenderError {
    /// The scenario names nothing registered (request-level error).
    Unknown(UnknownWorkload),
    /// The workload itself failed deterministically (job-level error).
    Job(String),
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenderError::Unknown(e) => e.fmt(f),
            RenderError::Job(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RenderError {}

/// Renders a value to the exact bytes `repro` prints for one artifact:
/// `Display` text plus the trailing blank line, or the one-line JSON
/// envelope under `--json`. Shared by every workload so "byte-identical
/// however computed" stays checkable; the byte format predates the
/// registry and must not change.
pub(crate) fn page<T: fmt::Display>(artifact: &str, value: &T, json: bool) -> String {
    if json {
        format!(
            "{{\"artifact\":\"{}\",\"data\":\"{}\"}}\n",
            crate::serve::json::escape(artifact),
            crate::serve::json::escape(&value.to_string())
        )
    } else {
        format!("{value}\n\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_paper_group_matches_the_historical_artifact_list() {
        // The frozen pre-registry list, in the exact order `repro all`
        // has always rendered. Changing either side breaks cached
        // results and journal replay — this test is the tripwire.
        assert_eq!(
            paper_ids(),
            vec![
                "table1", "table2", "table3", "table4", "fig2", "fig3", "fig7", "fig8", "fig9",
                "fig10", "ablation", "shadow",
            ]
        );
    }

    #[test]
    fn registry_ids_are_unique_and_describe_themselves() {
        let mut seen = std::collections::HashSet::new();
        for w in all() {
            assert!(seen.insert(w.id()), "duplicate workload id {}", w.id());
            assert!(
                !w.description().is_empty(),
                "{} lacks a description",
                w.id()
            );
            assert!(
                !w.id().contains('@') && !w.id().contains(char::is_whitespace),
                "{} id collides with scenario syntax",
                w.id()
            );
        }
        assert!(seen.len() >= 12, "registry shrank below the paper matrix");
    }

    #[test]
    fn paper_artifacts_have_no_standalone_variants() {
        for w in all().iter().filter(|w| w.group() == Group::Paper) {
            assert!(w.variants().is_empty(), "{} grew variants", w.id());
        }
    }

    #[test]
    fn scenario_names_round_trip() {
        let plain = ScenarioSpec::new("fig3", Scale::test(), "test");
        assert_eq!(plain.name(), "fig3");
        assert_eq!(plain.workload_id, "fig3");
        assert_eq!(plain.variant, None);
        assert!(plain.resolve().is_ok());

        let narrowed = ScenarioSpec::new("bvh@dynamic", Scale::test(), "test");
        assert_eq!(narrowed.name(), "bvh@dynamic");
        assert_eq!(narrowed.workload_id, "bvh");
        assert_eq!(narrowed.variant, Some(Variant::Dynamic));
        assert!(narrowed.resolve().is_ok());
    }

    #[test]
    fn unresolvable_scenarios_are_typed_errors() {
        let bogus = ScenarioSpec::new("bogus", Scale::test(), "test");
        assert_eq!(
            bogus.resolve().unwrap_err(),
            UnknownWorkload::Id("bogus".to_string())
        );
        // An unparseable variant suffix is kept verbatim (the error
        // echoes the full request string).
        let garbled = ScenarioSpec::new("bvh@warp9", Scale::test(), "test");
        assert_eq!(garbled.workload_id, "bvh@warp9");
        assert!(garbled.resolve().is_err());
        // A paper artifact rejects variant narrowing.
        let narrowed = ScenarioSpec::new("fig3@dynamic", Scale::test(), "test");
        assert_eq!(
            narrowed.resolve().unwrap_err(),
            UnknownWorkload::Variant {
                workload: "fig3".to_string(),
                variant: Variant::Dynamic,
            }
        );
        let msg = narrowed.resolve().unwrap_err().to_string();
        assert!(
            msg.contains("repro list"),
            "error must point at the catalog"
        );
    }
}
