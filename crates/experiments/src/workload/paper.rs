//! The twelve source-paper artifacts' registry rows.
//!
//! Each row wraps the figure/table module that has always rendered it;
//! its text goes through the one page format unchanged, so `repro all`
//! output stays byte-identical to the pre-registry stringly-typed
//! dispatch. A runner that simulates returns a `Result`: a run that
//! faults or stalls is the job-level error of
//! [`crate::supervisor::run_checked`]. A runner that renders scene
//! windows takes them from the [`Plan`] it is given.

use super::{Group, Workload};
use crate::configs::Variant;
use crate::runner::{Plan, Scale};

/// A paper artifact's row: frozen id, one-line description, and the
/// function from [`Plan`] and [`Scale`] to the figure's text or its
/// job-level error. A paper artifact runs no standalone variant and
/// keeps the historical fingerprint.
pub(super) const fn row(
    id: &'static str,
    description: &'static str,
    render: fn(&mut Plan, Scale, Option<Variant>) -> Result<String, String>,
) -> Workload {
    Workload {
        id,
        description,
        group: Group::Paper,
        variants: &[],
        render,
        extend_fingerprint: None,
    }
}
