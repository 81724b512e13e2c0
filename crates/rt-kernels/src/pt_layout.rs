//! Device-memory serialization for the BVH path tracer.
//!
//! ## Constant-memory header (word offsets)
//!
//! | offset | contents |
//! |--------|----------|
//! | 0      | BVH-node array base (global address) |
//! | 4      | Wald-triangle array base (leaf order, no indirection) |
//! | 8      | ray array base |
//! | 12     | result array base |
//! | 16     | traversal-stack area base |
//! | 20     | path-state array base (throughput/radiance/segments) |
//! | 24     | number of rays |
//!
//! ## BVH-node record (32 bytes, 8 words)
//!
//! | word | inner node | leaf |
//! |------|------------|------|
//! | 0–2  | bounds min x/y/z (f32) | same |
//! | 3    | left child index | `0x8000_0000 \| first Wald slot` |
//! | 4–6  | bounds max x/y/z (f32) | same |
//! | 7    | right child index | record count |
//!
//! Because the BVH partitions triangles disjointly, the Wald records are
//! laid out in leaf order and a leaf addresses them directly — there is
//! no triangle-reference table, and the Wald *slot* doubles as the
//! device-side triangle id.

use crate::layout::{alloc_records, ray_words};
use crate::{PT_PATH_RECORD_BYTES, PT_STACK_BYTES_PER_RAY, RAY_RECORD_BYTES, RESULT_RECORD_BYTES};
use raytrace::{Bvh, BvhNode, Ray, WaldTriangle};
use simt_mem::MemoryFabric;

/// Bytes of one serialized BVH node.
pub const PT_NODE_RECORD_BYTES: u32 = 32;

/// Tag bit marking a leaf in node word 3.
pub const PT_LEAF_BIT: u32 = 0x8000_0000;

/// One path-traced pixel: accumulated radiance plus the number of
/// traversal segments the path traced before terminating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtResult {
    /// Accumulated radiance.
    pub radiance: f32,
    /// Segments traced (primary + bounces).
    pub segments: u32,
}

/// Serializes one BVH node into its 8-word device record.
pub fn node_words(node: &BvhNode) -> [u32; 8] {
    let b = node.bounds();
    let (meta0, meta1) = match *node {
        BvhNode::Inner { left, right, .. } => (left, right),
        BvhNode::Leaf { first, count, .. } => (PT_LEAF_BIT | first, count),
    };
    [
        b.min.x.to_bits(),
        b.min.y.to_bits(),
        b.min.z.to_bits(),
        meta0,
        b.max.x.to_bits(),
        b.max.y.to_bits(),
        b.max.z.to_bits(),
        meta1,
    ]
}

/// Addresses of a path-tracing scene uploaded to device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtDeviceScene {
    /// BVH-node array base.
    pub nodes_base: u32,
    /// Wald-triangle array base (leaf order).
    pub wald_base: u32,
    /// Ray array base.
    pub rays_base: u32,
    /// Result array base.
    pub results_base: u32,
    /// Per-ray traversal-stack area base.
    pub stacks_base: u32,
    /// Per-ray path-state base.
    pub paths_base: u32,
    /// Number of rays uploaded.
    pub num_rays: u32,
}

impl PtDeviceScene {
    /// Uploads a BVH and ray set into `mem` and writes the constant
    /// header. Returns the region addresses.
    pub fn upload(bvh: &Bvh, rays: &[Ray], mem: &mut MemoryFabric) -> PtDeviceScene {
        let nodes = bvh.nodes();
        let nodes_base = alloc_records(mem, nodes.len(), PT_NODE_RECORD_BYTES, "bvh-nodes");
        mem.host_write_records(nodes_base, nodes.iter().map(node_words));
        let wald = bvh.wald_triangles();
        let wald_base = alloc_records(mem, wald.len().max(1), 48, "bvh-wald-tris");
        mem.host_write_records(wald_base, wald.iter().map(WaldTriangle::to_words));
        let rays_base = alloc_records(mem, rays.len(), RAY_RECORD_BYTES, "pt-rays");
        mem.host_write_records(rays_base, rays.iter().map(ray_words));
        let results_base = alloc_records(mem, rays.len(), RESULT_RECORD_BYTES, "pt-results");
        mem.host_write_records(results_base, std::iter::repeat_n([0, 0], rays.len()));
        let stacks_base = alloc_records(mem, rays.len(), PT_STACK_BYTES_PER_RAY, "pt-stacks");
        let paths_base = alloc_records(mem, rays.len(), PT_PATH_RECORD_BYTES, "pt-paths");

        mem.mark_read_only(nodes_base, nodes.len() as u32 * PT_NODE_RECORD_BYTES);
        mem.mark_read_only(wald_base, wald.len().max(1) as u32 * 48);

        let scene = PtDeviceScene {
            nodes_base,
            wald_base,
            rays_base,
            results_base,
            stacks_base,
            paths_base,
            num_rays: rays.len() as u32,
        };
        scene.write_const_header(mem);
        scene
    }

    /// Writes the constant-memory header (done automatically by
    /// [`PtDeviceScene::upload`]).
    pub fn write_const_header(&self, mem: &mut MemoryFabric) {
        for (i, v) in [
            self.nodes_base,
            self.wald_base,
            self.rays_base,
            self.results_base,
            self.stacks_base,
            self.paths_base,
            self.num_rays,
        ]
        .into_iter()
        .enumerate()
        {
            mem.host_write_const(4 * i as u32, v);
        }
    }

    /// Reads the result buffer back as radiance/segment pairs.
    pub fn read_results(&self, mem: &MemoryFabric) -> Vec<PtResult> {
        (0..self.num_rays)
            .map(|i| {
                let base = self.results_base + i * RESULT_RECORD_BYTES;
                PtResult {
                    radiance: f32::from_bits(mem.read_u32(simt_isa::Space::Global, base)),
                    segments: mem.read_u32(simt_isa::Space::Global, base + 4),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raytrace::{scenes, Vec3};
    use simt_mem::MemConfig;

    #[test]
    fn upload_roundtrips_header_and_nodes() {
        let scene = scenes::conference(scenes::SceneScale::Tiny);
        let bvh = Bvh::build(&scene.triangles);
        let rays = vec![Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)); 4];
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let dev = PtDeviceScene::upload(&bvh, &rays, &mut mem);

        assert_eq!(mem.read_u32(simt_isa::Space::Const, 0), dev.nodes_base);
        assert_eq!(mem.read_u32(simt_isa::Space::Const, 20), dev.paths_base);
        assert_eq!(mem.read_u32(simt_isa::Space::Const, 24), 4);

        let w3 = mem.read_u32(simt_isa::Space::Global, dev.nodes_base + 12);
        match bvh.nodes()[0] {
            BvhNode::Inner { left, .. } => assert_eq!(w3, left),
            BvhNode::Leaf { first, .. } => assert_eq!(w3, PT_LEAF_BIT | first),
        }

        let results = dev.read_results(&mem);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.radiance == 0.0 && r.segments == 0));
    }

    #[test]
    fn leaf_and_inner_records_are_distinguishable() {
        let scene = scenes::fairyforest(scenes::SceneScale::Tiny);
        let bvh = Bvh::build(&scene.triangles);
        for node in bvh.nodes() {
            let w = node_words(node);
            match node {
                BvhNode::Inner { .. } => assert_eq!(w[3] & PT_LEAF_BIT, 0),
                BvhNode::Leaf { .. } => assert_eq!(w[3] & PT_LEAF_BIT, PT_LEAF_BIT),
            }
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let scene = scenes::atrium(scenes::SceneScale::Tiny);
        let bvh = Bvh::build(&scene.triangles);
        let rays = vec![Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)); 8];
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let dev = PtDeviceScene::upload(&bvh, &rays, &mut mem);
        let mut spans = vec![
            (
                dev.nodes_base,
                bvh.nodes().len() as u32 * PT_NODE_RECORD_BYTES,
            ),
            (dev.wald_base, bvh.wald_triangles().len() as u32 * 48),
            (dev.rays_base, 8 * RAY_RECORD_BYTES),
            (dev.results_base, 8 * RESULT_RECORD_BYTES),
            (dev.stacks_base, 8 * PT_STACK_BYTES_PER_RAY),
            (dev.paths_base, 8 * PT_PATH_RECORD_BYTES),
        ];
        spans.sort_by_key(|s| s.0);
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {spans:?}");
        }
    }
}
