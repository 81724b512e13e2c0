//! # experiments — regenerating every table and figure of the paper
//!
//! One runner per artifact of Steffen & Zambreno's evaluation (§VI–VII).
//! Each runner returns a serializable result and implements `Display`,
//! printing the same rows/series the paper reports. The `repro` binary
//! dispatches them from the command line; `ledger/` times them.
//!
//! | runner | paper artifact |
//! |--------|----------------|
//! | [`table1::run`] | Table I — simulator configuration |
//! | [`table2::run`] | Table II — per-thread resource requirements |
//! | [`table3::run`] | Table III — benchmark scenes + tree parameters |
//! | [`table4::run`] | Table IV — memory bandwidth per frame |
//! | [`fig2::run`]   | Fig. 2 — PDOM efficiency of a single looping warp |
//! | [`fig3::run`]   | Fig. 3 — divergence breakdown, traditional |
//! | [`fig7::run`]   | Fig. 7 — divergence breakdown, μ-kernels |
//! | [`fig8::run`]   | Fig. 8 — rays/s across scenes and schedulers |
//! | [`fig9::run`]   | Fig. 9 — μ-kernels with spawn-memory bank conflicts |
//! | [`fig10::run`]  | Fig. 10 — branching performance vs MIMD theoretical |
//! | [`ablation::run`] | §IX branch-instead-of-spawn ablation (beyond the paper) |
//! | [`shadow::run`] | shadow-ray pass study (beyond the paper) |
//!
//! All runners take a [`Scale`] so tests can run them at toy sizes while
//! the recorded numbers use [`Scale::paper`]; those that render scene
//! windows take them from a [`Plan`], which renders each window once per
//! invocation. [`fidelity`] holds the
//! paper's own numbers and sets them beside a `repro all` output.
//!
//! Every scene render is a [`RenderSpec`]: plain data that names its
//! scene, and whose [`RenderSpec::fingerprint`] is the one render
//! identity that plans, checkpoints and job fingerprints key on.
//!
//! Artifact dispatch goes through the [`workload`] registry: every
//! runnable scenario — the twelve paper artifacts above plus the
//! extended [`workload::bvh`] path tracer, [`workload::microdiv`]
//! divergence microbenchmarks and [`workload::cacheabl`] cache ablation
//! — is one [`workload::Workload`] row of its one table, and `repro`,
//! the campaign engine, and the serve front-end all enumerate it instead
//! of keeping their own name lists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod configs;
pub mod fidelity;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod runner;
pub mod serve;
pub mod shadow;
pub mod supervisor;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod workload;

pub use configs::{config_for, gpu_for, gpu_for_with, telemetry_spec, Variant};
pub use runner::{Plan, RenderRun, RenderSpec, Scale};
pub use supervisor::Policy;
pub use workload::{ScenarioSpec, UnknownWorkload, Workload};
