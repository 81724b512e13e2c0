//! Device-memory serialization of scenes, rays and results.
//!
//! ## Constant-memory header (set up at launch, word offsets)
//!
//! | offset | contents |
//! |--------|----------|
//! | 0      | kd-node array base (global address) |
//! | 4      | triangle-reference array base |
//! | 8      | Wald-triangle array base |
//! | 12     | ray array base |
//! | 16     | result array base |
//! | 20     | traversal-stack area base |
//! | 24     | number of rays |
//!
//! ## kd-node record (16 bytes)
//!
//! | word | inner node | leaf |
//! |------|------------|------|
//! | 0    | axis (0/1/2) | 3 |
//! | 1    | split (f32) | first reference index |
//! | 2    | left child  | reference count |
//! | 3    | right child | 0 |

use crate::{MISS, NODE_RECORD_BYTES, RAY_RECORD_BYTES, RESULT_RECORD_BYTES, STACK_BYTES_PER_RAY};
use raytrace::{Hit, KdNode, KdTree, Ray, WaldTriangle};
use simt_mem::MemoryFabric;

/// Node-word tag marking a leaf.
pub const LEAF_TAG: u32 = 3;

/// Allocates global memory for `count` records of `record_bytes` each,
/// labelled `label`; returns the base address.
///
/// # Panics
///
/// Panics, naming `label`, if the region is larger than the 32-bit
/// address space (or than the memory image, in
/// [`MemoryFabric::alloc_global`]).
pub(crate) fn alloc_records(
    mem: &mut MemoryFabric,
    count: usize,
    record_bytes: u32,
    label: &str,
) -> u32 {
    let bytes = u32::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(record_bytes))
        .unwrap_or_else(|| {
            panic!("{label}: {count} records of {record_bytes} bytes pass the address space")
        });
    mem.alloc_global(bytes, label)
}

/// A ray's 8-word device record: origin, `tmin`, direction, `tmax`.
pub(crate) fn ray_words(r: &Ray) -> [u32; 8] {
    [
        r.origin.x.to_bits(),
        r.origin.y.to_bits(),
        r.origin.z.to_bits(),
        r.tmin.to_bits(),
        r.dir.x.to_bits(),
        r.dir.y.to_bits(),
        r.dir.z.to_bits(),
        r.tmax.to_bits(),
    ]
}

/// A result record before the kernel writes it: a miss.
const MISS_RECORD: [u32; 2] = [f32::MAX.to_bits(), MISS];

/// Addresses of a scene uploaded to device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceScene {
    /// kd-node array base.
    pub nodes_base: u32,
    /// Triangle-reference array base.
    pub tri_idx_base: u32,
    /// Wald-triangle array base.
    pub wald_base: u32,
    /// Ray array base.
    pub rays_base: u32,
    /// Result array base.
    pub results_base: u32,
    /// Per-ray traversal-stack area base.
    pub stacks_base: u32,
    /// Number of rays uploaded.
    pub num_rays: u32,
}

impl DeviceScene {
    /// Uploads a kd-tree and ray set into `mem` and writes the
    /// constant-memory header. Returns the region addresses.
    pub fn upload(tree: &KdTree, rays: &[Ray], mem: &mut MemoryFabric) -> DeviceScene {
        // --- nodes ---
        let nodes = tree.nodes();
        let nodes_base = alloc_records(mem, nodes.len(), NODE_RECORD_BYTES, "kd-nodes");
        mem.host_write_records(
            nodes_base,
            nodes.iter().map(|n| match *n {
                KdNode::Inner {
                    axis,
                    split,
                    left,
                    right,
                } => [u32::from(axis), split.to_bits(), left, right],
                KdNode::Leaf { first, count } => [LEAF_TAG, first, count, 0],
            }),
        );
        // --- triangle references ---
        let refs = tree.tri_indices();
        let tri_idx_base = alloc_records(mem, refs.len().max(1), 4, "kd-tri-refs");
        mem.host_write_global(tri_idx_base, refs);
        // --- Wald triangles ---
        let wald = tree.wald_triangles();
        let wald_base = alloc_records(mem, wald.len().max(1), 48, "wald-tris");
        mem.host_write_records(wald_base, wald.iter().map(WaldTriangle::to_words));
        // --- rays ---
        let rays_base = alloc_records(mem, rays.len(), RAY_RECORD_BYTES, "rays");
        mem.host_write_records(rays_base, rays.iter().map(ray_words));
        // --- results (pre-filled with misses) ---
        let results_base = alloc_records(mem, rays.len(), RESULT_RECORD_BYTES, "results");
        mem.host_write_records(results_base, std::iter::repeat_n(MISS_RECORD, rays.len()));
        // --- per-ray stacks ---
        let stacks_base = alloc_records(mem, rays.len(), STACK_BYTES_PER_RAY, "stacks");

        // Bind the scene data as textures: read-only, per-SM cacheable.
        mem.mark_read_only(nodes_base, nodes.len() as u32 * NODE_RECORD_BYTES);
        mem.mark_read_only(tri_idx_base, refs.len().max(1) as u32 * 4);
        mem.mark_read_only(wald_base, wald.len().max(1) as u32 * 48);

        let scene = DeviceScene {
            nodes_base,
            tri_idx_base,
            wald_base,
            rays_base,
            results_base,
            stacks_base,
            num_rays: rays.len() as u32,
        };
        scene.write_const_header(mem);
        scene
    }

    /// Uploads a **new ray set** against an already-uploaded scene:
    /// allocates fresh ray/result/stack buffers, reuses the kd-tree and
    /// triangle arrays, and rewrites the constant header. Used for
    /// multi-pass rendering (e.g. a shadow-ray pass after the primary
    /// pass, paper §III-A).
    pub fn upload_rays(&self, rays: &[raytrace::Ray], mem: &mut MemoryFabric) -> DeviceScene {
        let rays_base = alloc_records(mem, rays.len(), RAY_RECORD_BYTES, "rays-pass2");
        mem.host_write_records(rays_base, rays.iter().map(ray_words));
        let results_base = alloc_records(mem, rays.len(), RESULT_RECORD_BYTES, "results-pass2");
        mem.host_write_records(results_base, std::iter::repeat_n(MISS_RECORD, rays.len()));
        let stacks_base = alloc_records(mem, rays.len(), STACK_BYTES_PER_RAY, "stacks-pass2");
        let scene = DeviceScene {
            rays_base,
            results_base,
            stacks_base,
            num_rays: rays.len() as u32,
            ..*self
        };
        scene.write_const_header(mem);
        scene
    }

    /// Writes the constant-memory header (done automatically by
    /// [`DeviceScene::upload`]).
    pub fn write_const_header(&self, mem: &mut MemoryFabric) {
        let base = 0;
        for (i, v) in [
            self.nodes_base,
            self.tri_idx_base,
            self.wald_base,
            self.rays_base,
            self.results_base,
            self.stacks_base,
            self.num_rays,
        ]
        .into_iter()
        .enumerate()
        {
            mem.host_write_const(base + 4 * i as u32, v);
        }
    }

    /// Reads back the result buffer as `(t, hit)` pairs, `None` for misses.
    pub fn read_results(&self, mem: &MemoryFabric) -> Vec<Option<Hit>> {
        (0..self.num_rays)
            .map(|i| {
                let base = self.results_base + i * RESULT_RECORD_BYTES;
                let t = f32::from_bits(mem.read_u32(simt_isa::Space::Global, base));
                let id = mem.read_u32(simt_isa::Space::Global, base + 4);
                (id != MISS).then_some(Hit { t, tri: id })
            })
            .collect()
    }
}

/// Byte size of the constant header.
pub const CONST_HEADER_BYTES: u32 = 28;

#[cfg(test)]
mod tests {
    use super::*;
    use raytrace::{scenes, Camera};
    use simt_mem::MemConfig;

    #[test]
    #[should_panic(expected = "stacks")]
    fn a_stack_region_past_the_address_space_panics_naming_it() {
        // 11.2 M rays × 384 B is past 2^32 bytes.
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        alloc_records(&mut mem, 11_200_000, STACK_BYTES_PER_RAY, "stacks");
    }

    #[test]
    fn upload_roundtrips_header_and_nodes() {
        let scene = scenes::conference(scenes::SceneScale::Tiny);
        let tree = KdTree::build(&scene.triangles);
        let cam = Camera::looking_at(scene.bounds(), 4, 4);
        let rays: Vec<Ray> = (0..16).map(|p| cam.primary_ray_indexed(p)).collect();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let dev = DeviceScene::upload(&tree, &rays, &mut mem);

        // Header.
        assert_eq!(mem.read_u32(simt_isa::Space::Const, 0), dev.nodes_base);
        assert_eq!(mem.read_u32(simt_isa::Space::Const, 24), 16);

        // Root node roundtrip.
        let w0 = mem.read_u32(simt_isa::Space::Global, dev.nodes_base);
        match tree.nodes()[0] {
            KdNode::Inner { axis, .. } => assert_eq!(w0, u32::from(axis)),
            KdNode::Leaf { .. } => assert_eq!(w0, LEAF_TAG),
        }

        // Ray 0 roundtrip.
        let ox = f32::from_bits(mem.read_u32(simt_isa::Space::Global, dev.rays_base));
        assert_eq!(ox, rays[0].origin.x);

        // Results pre-filled with misses.
        let results = dev.read_results(&mem);
        assert_eq!(results.len(), 16);
        assert!(results.iter().all(|r| r.is_none()));
    }

    #[test]
    fn wald_records_roundtrip() {
        let scene = scenes::atrium(scenes::SceneScale::Tiny);
        let tree = KdTree::build(&scene.triangles);
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let dev = DeviceScene::upload(&tree, &[], &mut mem);
        let w = &tree.wald_triangles()[3];
        let words: Vec<u32> = (0..12)
            .map(|i| mem.read_u32(simt_isa::Space::Global, dev.wald_base + 3 * 48 + i * 4))
            .collect();
        assert_eq!(words, w.to_words().to_vec());
    }

    #[test]
    fn regions_do_not_overlap() {
        let scene = scenes::fairyforest(scenes::SceneScale::Tiny);
        let tree = KdTree::build(&scene.triangles);
        let rays = vec![Ray::new(raytrace::Vec3::ZERO, raytrace::Vec3::new(1.0, 0.0, 0.0)); 8];
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let dev = DeviceScene::upload(&tree, &rays, &mut mem);
        let mut spans = vec![
            (dev.nodes_base, tree.nodes().len() as u32 * 16),
            (dev.tri_idx_base, tree.tri_indices().len() as u32 * 4),
            (dev.wald_base, tree.wald_triangles().len() as u32 * 48),
            (dev.rays_base, 8 * RAY_RECORD_BYTES),
            (dev.results_base, 8 * RESULT_RECORD_BYTES),
            (dev.stacks_base, 8 * STACK_BYTES_PER_RAY),
        ];
        spans.sort_by_key(|s| s.0);
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {spans:?}");
        }
    }
}
