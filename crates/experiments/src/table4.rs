//! Table IV — memory bandwidth required to draw a single image.
//!
//! Like the paper, these values are **analytic**: computed from the number
//! of down-traversals and intersection tests needed for one frame (counted
//! by the instrumented host traversal), without caching. The dynamic
//! variant adds the μ-kernel state traffic: every μ-kernel invocation
//! restores 48 bytes of state plus a 4-byte metadata pointer and saves the
//! same amount back.

use crate::fidelity::paper;
use crate::runner::Scale;
use raytrace::{scenes, KdTree};
use rt_kernels::render::build_rays;
use serde::Serialize;
use std::fmt;

/// Bytes per kd-node fetch.
const NODE_BYTES: u64 = 16;
/// Bytes per intersection test (4 B reference + 48 B Wald record).
const TEST_BYTES: u64 = 52;
/// Bytes restored per μ-kernel invocation (48 B state + 4 B pointer).
const STATE_RESTORE_BYTES: u64 = 52;
/// Bytes saved per μ-kernel invocation (48 B state + 4 B metadata).
const STATE_SAVE_BYTES: u64 = 52;
/// Bytes written per finished ray (hit t + triangle id).
const RESULT_BYTES: u64 = 8;

/// One benchmark's traditional/dynamic bandwidth pair, in bytes.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthRow {
    /// Scene name.
    pub scene: &'static str,
    /// Down-traversals for the frame.
    pub node_visits: u64,
    /// Intersection tests for the frame.
    pub tri_tests: u64,
    /// μ-kernel invocations for the frame.
    pub invocations: u64,
    /// Traditional kernel bytes read.
    pub traditional_read: u64,
    /// Traditional kernel bytes written.
    pub traditional_write: u64,
    /// Dynamic μ-kernel bytes read.
    pub dynamic_read: u64,
    /// Dynamic μ-kernel bytes written.
    pub dynamic_write: u64,
}

impl BandwidthRow {
    /// Total traditional bytes.
    pub fn traditional_total(&self) -> u64 {
        self.traditional_read + self.traditional_write
    }

    /// Total dynamic bytes.
    pub fn dynamic_total(&self) -> u64 {
        self.dynamic_read + self.dynamic_write
    }
}

/// The regenerated Table IV.
#[derive(Debug, Clone, Serialize)]
pub struct Table4 {
    /// One row per scene.
    pub rows: Vec<BandwidthRow>,
}

impl Table4 {
    /// Average read-bandwidth increase of dynamic over traditional
    /// (`fidelity` claim `t4.read`).
    pub fn mean_read_increase(&self) -> f64 {
        let s: f64 = self
            .rows
            .iter()
            .map(|r| r.dynamic_read as f64 / r.traditional_read.max(1) as f64)
            .sum();
        s / self.rows.len().max(1) as f64
    }

    /// Average total-bandwidth increase (`fidelity` claim `t4.total`).
    pub fn mean_total_increase(&self) -> f64 {
        let s: f64 = self
            .rows
            .iter()
            .map(|r| r.dynamic_total() as f64 / r.traditional_total().max(1) as f64)
            .sum();
        s / self.rows.len().max(1) as f64
    }
}

/// Computes the table by tracing one full frame per scene on the host.
pub fn run(scale: Scale) -> Table4 {
    let mut rows = Vec::new();
    for scene in scenes::all(scale.scene) {
        let tree = KdTree::build(&scene.triangles);
        let rays = build_rays(&scene, scale.resolution, scale.resolution);
        let mut nodes = 0u64;
        let mut tests = 0u64;
        let mut leaves = 0u64;
        for r in &rays {
            let (_, c) = tree.intersect_counted(r);
            nodes += c.node_visits;
            tests += c.tri_tests;
            leaves += c.leaf_visits;
        }
        let nrays = rays.len() as u64;
        // One μ-kernel invocation per down-traversal step, per test, per
        // pop (one per leaf visited), plus the launch kernel per ray.
        let invocations = nodes + tests + leaves + nrays;
        let traditional_read = nodes * NODE_BYTES + tests * TEST_BYTES;
        let traditional_write = nrays * RESULT_BYTES;
        rows.push(BandwidthRow {
            scene: scene.name,
            node_visits: nodes,
            tri_tests: tests,
            invocations,
            traditional_read,
            traditional_write,
            dynamic_read: traditional_read + invocations * STATE_RESTORE_BYTES,
            dynamic_write: traditional_write + invocations * STATE_SAVE_BYTES,
        });
    }
    Table4 { rows }
}

fn mb(b: u64) -> f64 {
    b as f64 / 1e6
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table IV — memory bandwidth per image (no caching), MB")?;
        writeln!(
            f,
            "  {:<26} {:>10} {:>10} {:>10}",
            "benchmark", "reading", "writing", "total"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<26} {:>10.1} {:>10.2} {:>10.1}",
                format!("{} Traditional", r.scene),
                mb(r.traditional_read),
                mb(r.traditional_write),
                mb(r.traditional_total())
            )?;
            writeln!(
                f,
                "  {:<26} {:>10.1} {:>10.2} {:>10.1}",
                format!("{} Dynamic", r.scene),
                mb(r.dynamic_read),
                mb(r.dynamic_write),
                mb(r.dynamic_total())
            )?;
        }
        writeln!(
            f,
            "  mean read increase:  {:.1}x (paper: {:.1}x)",
            self.mean_read_increase(),
            paper("t4.read")
        )?;
        write!(
            f,
            "  mean total increase: {:.1}x (paper: {:.1}x)",
            self.mean_total_increase(),
            paper("t4.total")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_always_exceeds_traditional() {
        let t = run(Scale::test());
        assert_eq!(t.rows.len(), 3);
        for r in &t.rows {
            assert!(r.dynamic_read > r.traditional_read, "{}", r.scene);
            assert!(r.dynamic_write > r.traditional_write, "{}", r.scene);
            assert!(r.node_visits > 0);
            assert!(r.tri_tests > 0);
        }
    }

    #[test]
    fn increases_have_paper_like_magnitude() {
        let t = run(Scale::test());
        // The shape requirement is a severalfold increase with total >
        // read, as in the paper.
        assert!(
            t.mean_read_increase() > 1.5,
            "read {}",
            t.mean_read_increase()
        );
        assert!(
            t.mean_total_increase() > t.mean_read_increase(),
            "write amplification must push the total ratio higher"
        );
    }

    #[test]
    fn traditional_write_is_results_only() {
        let t = run(Scale::test());
        for r in &t.rows {
            assert_eq!(r.traditional_write, 16 * 16 * 8);
        }
    }
}
