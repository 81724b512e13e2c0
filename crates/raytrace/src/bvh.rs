//! A bounding-volume hierarchy over triangles.
//!
//! The BVH is the acceleration structure of the path-traced workload
//! (registry id `bvh`): unlike the kd-tree, every triangle lives in
//! exactly one leaf, so the flattened layout needs no triangle-reference
//! indirection — each leaf names a contiguous run of Wald records.
//!
//! The builder is a deterministic median split on the longest centroid
//! axis (no SAH): identical input always yields an identical tree, which
//! the workload fingerprints rely on. Host traversal
//! ([`Bvh::intersect`]) is the sanity oracle for the tree itself; the
//! bit-exact device mirror lives in `rt-kernels` next to the kernels it
//! mirrors.
//!
//! ## Split order, leaf order and cost
//!
//! - **Split order.** A node's *split order* is on the longest axis of
//!   its centroid bounds: centroid coordinate (compared with
//!   `partial_cmp`, so `-0.0 == 0.0`), ties by input index. The first
//!   `n / 2` records under it go left, the rest right.
//! - **Finite input only.** That order is total only over finite
//!   centroids; a NaN would compare equal to everything. A triangle with
//!   a non-finite vertex is refused like a degenerate one
//!   ([`WaldTriangle::new`] gives it no record), so it is in no leaf.
//! - **Leaf order.** A leaf's records are in its parent's split order; a
//!   root that is a leaf keeps input order. Wald slots, and so the
//!   device's triangle ids, follow it.
//! - **Cost.** The build permutes one `u32` item array in place, with the
//!   centroids and boxes read beside it. A node finds its halves by
//!   selection (`select_nth_unstable_by`, linear) rather than a sort, and
//!   a leaf sorts at most [`BVH_MAX_LEAF`] records. Each of the
//!   O(log n) levels costs O(n), so a build is O(n log n).

use crate::aabb::Aabb;
use crate::tri::{Hit, Triangle, WaldTriangle};
use crate::Ray;
use std::cmp::Ordering;

/// One flattened BVH node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BvhNode {
    /// Interior node with two children.
    Inner {
        /// Bounds of everything below.
        bounds: Aabb,
        /// Index of the left child (visited first).
        left: u32,
        /// Index of the right child (pushed on the stack).
        right: u32,
    },
    /// Leaf owning `count` consecutive Wald records starting at `first`.
    Leaf {
        /// Bounds of the leaf's triangles.
        bounds: Aabb,
        /// First Wald-record slot.
        first: u32,
        /// Number of records.
        count: u32,
    },
}

impl BvhNode {
    /// The node's bounds.
    pub fn bounds(&self) -> Aabb {
        match *self {
            BvhNode::Inner { bounds, .. } | BvhNode::Leaf { bounds, .. } => bounds,
        }
    }
}

/// Shape statistics, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BvhStats {
    /// Total nodes.
    pub nodes: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Deepest leaf (root = depth 0).
    pub max_depth: usize,
    /// Wald records (== referenced triangles).
    pub tris: usize,
}

/// A flattened BVH plus its leaf-ordered Wald records.
#[derive(Debug, Clone)]
pub struct Bvh {
    nodes: Vec<BvhNode>,
    /// Wald records in leaf order; slot `i` came from triangle
    /// `original[i]` of the build input.
    wald: Vec<WaldTriangle>,
    /// Original triangle index of each Wald slot.
    original: Vec<u32>,
    bounds: Aabb,
}

/// Largest leaf the builder emits. Kept under 256 so a leaf's
/// `(count, first)` pair packs into one 32-bit traversal cursor
/// (`count << 24 | slot`), same packing the kd μ-kernels use.
pub const BVH_MAX_LEAF: usize = 4;

impl Bvh {
    /// Builds the hierarchy. Degenerate and non-finite triangles are
    /// dropped (they have no Wald record), matching the kd-tree builder.
    pub fn build(triangles: &[Triangle]) -> Self {
        let mut b = Builder::default();
        for (i, t) in triangles.iter().enumerate() {
            if let Some(w) = WaldTriangle::new(t) {
                b.records.push(w);
                b.inputs.push(i as u32);
                b.centroids.push(t.centroid());
                b.boxes.push(t.bounds());
            }
        }
        if b.records.is_empty() {
            return Bvh {
                nodes: vec![BvhNode::Leaf {
                    bounds: Aabb::EMPTY,
                    first: 0,
                    count: 0,
                }],
                wald: Vec::new(),
                original: Vec::new(),
                bounds: Aabb::EMPTY,
            };
        }
        // Item `i` is the `i`-th surviving triangle, so ordering items by
        // index orders them by input index.
        let mut items: Vec<u32> = (0..b.records.len() as u32).collect();
        b.node(&mut items, None);
        let bounds = b.nodes[0].bounds();
        Bvh {
            nodes: b.nodes,
            wald: b.wald,
            original: b.original,
            bounds,
        }
    }

    /// Bounds of the whole hierarchy.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Flattened nodes; index 0 is the root.
    pub fn nodes(&self) -> &[BvhNode] {
        &self.nodes
    }

    /// Wald records in leaf order.
    pub fn wald_triangles(&self) -> &[WaldTriangle] {
        &self.wald
    }

    /// Original triangle index of Wald slot `slot`.
    pub fn original_index(&self, slot: u32) -> u32 {
        self.original[slot as usize]
    }

    /// Shape statistics.
    pub fn stats(&self) -> BvhStats {
        let mut stats = BvhStats {
            nodes: self.nodes.len(),
            leaves: 0,
            max_depth: 0,
            tris: self.wald.len(),
        };
        // Depth-first with explicit (node, depth) stack.
        let mut stack = vec![(0u32, 0usize)];
        while let Some((idx, depth)) = stack.pop() {
            stats.max_depth = stats.max_depth.max(depth);
            match self.nodes[idx as usize] {
                BvhNode::Leaf { .. } => stats.leaves += 1,
                BvhNode::Inner { left, right, .. } => {
                    stack.push((left, depth + 1));
                    stack.push((right, depth + 1));
                }
            }
        }
        stats
    }

    /// Closest hit along `ray`, or `None`. `Hit::tri` is the *original*
    /// triangle index, like [`crate::KdTree::intersect`].
    pub fn intersect(&self, ray: &Ray) -> Option<Hit> {
        let mut best_t = ray.tmax;
        let mut best_slot = None;
        let mut stack: Vec<u32> = Vec::with_capacity(64);
        stack.push(0);
        while let Some(idx) = stack.pop() {
            let node = self.nodes[idx as usize];
            let mut clipped = *ray;
            clipped.tmax = best_t;
            if node.bounds().intersect(&clipped).is_none() {
                continue;
            }
            match node {
                BvhNode::Leaf { first, count, .. } => {
                    for slot in first..first + count {
                        if let Some(t) = self.wald[slot as usize].intersect(ray) {
                            if t <= best_t {
                                best_t = t;
                                best_slot = Some(slot);
                            }
                        }
                    }
                }
                BvhNode::Inner { left, right, .. } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        best_slot.map(|slot| Hit {
            t: best_t,
            tri: self.original[slot as usize],
        })
    }
}

/// The build's inputs, one entry per surviving triangle, and the
/// flattened output.
#[derive(Default)]
struct Builder {
    records: Vec<WaldTriangle>,
    /// Input index of each record.
    inputs: Vec<u32>,
    centroids: Vec<crate::Vec3>,
    boxes: Vec<Aabb>,
    nodes: Vec<BvhNode>,
    wald: Vec<WaldTriangle>,
    original: Vec<u32>,
}

impl Builder {
    /// The split order on `axis`: centroid coordinate, ties by item
    /// (so by input index). Total because every centroid is finite.
    fn order(&self, axis: usize) -> impl Fn(&u32, &u32) -> Ordering + '_ {
        move |&a, &b| {
            let (ca, cb) = (
                self.centroids[a as usize][axis],
                self.centroids[b as usize][axis],
            );
            ca.partial_cmp(&cb)
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        }
    }

    /// Builds the subtree over `items`, returning its node index.
    /// `parent_axis` is the split axis of the node that made this slice
    /// (`None` at the root).
    fn node(&mut self, items: &mut [u32], parent_axis: Option<usize>) -> u32 {
        let mut bounds = Aabb::EMPTY;
        let mut cbounds = Aabb::EMPTY;
        for &i in items.iter() {
            bounds = bounds.union(self.boxes[i as usize]);
            cbounds.grow(self.centroids[i as usize]);
        }
        let idx = self.nodes.len() as u32;
        // Flat centroid cloud (or tiny leaf): stop splitting.
        if items.len() <= BVH_MAX_LEAF || cbounds.extent()[cbounds.longest_axis()] <= 0.0 {
            if let Some(axis) = parent_axis {
                items.sort_unstable_by(self.order(axis));
            }
            let first = self.wald.len() as u32;
            for &i in items.iter() {
                self.wald.push(self.records[i as usize]);
                self.original.push(self.inputs[i as usize]);
            }
            self.nodes.push(BvhNode::Leaf {
                bounds,
                first,
                count: items.len() as u32,
            });
            return idx;
        }
        // Median split: the lower half under the split order goes left.
        let axis = cbounds.longest_axis();
        let mid = items.len() / 2;
        items.select_nth_unstable_by(mid, self.order(axis));
        // Placeholder; patched below once the children exist.
        self.nodes.push(BvhNode::Leaf {
            bounds,
            first: 0,
            count: 0,
        });
        let (lo, hi) = items.split_at_mut(mid);
        let left = self.node(lo, Some(axis));
        let right = self.node(hi, Some(axis));
        self.nodes[idx as usize] = BvhNode::Inner {
            bounds,
            left,
            right,
        };
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenes::{self, SceneScale};

    #[test]
    fn empty_input_builds_an_empty_leaf() {
        let bvh = Bvh::build(&[]);
        assert_eq!(bvh.nodes().len(), 1);
        assert!(bvh.wald_triangles().is_empty());
        let ray = Ray::new(crate::Vec3::ZERO, crate::Vec3::new(1.0, 0.0, 0.0));
        assert!(bvh.intersect(&ray).is_none());
    }

    #[test]
    fn leaves_partition_the_triangles() {
        let scene = scenes::conference(SceneScale::Tiny);
        let bvh = Bvh::build(&scene.triangles);
        let stats = bvh.stats();
        assert!(stats.tris > 0 && stats.tris <= scene.triangles.len());
        // Every Wald slot is covered by exactly one leaf.
        let mut covered = vec![false; stats.tris];
        for node in bvh.nodes() {
            if let BvhNode::Leaf { first, count, .. } = *node {
                for slot in first..first + count {
                    assert!(!covered[slot as usize], "slot {slot} in two leaves");
                    covered[slot as usize] = true;
                    assert!((count as usize) <= BVH_MAX_LEAF);
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "every slot owned by a leaf");
    }

    #[test]
    fn matches_kdtree_on_scene_rays() {
        let scene = scenes::conference(SceneScale::Tiny);
        let bvh = Bvh::build(&scene.triangles);
        let tree = crate::KdTree::build(&scene.triangles);
        let cam = crate::Camera::looking_at(scene.bounds(), 16, 16);
        let mut hits = 0;
        for p in 0..256 {
            let ray = cam.primary_ray(p % 16, p / 16);
            let a = bvh.intersect(&ray);
            let b = tree.intersect(&ray);
            match (a, b) {
                (Some(x), Some(y)) => {
                    hits += 1;
                    assert!(
                        (x.t - y.t).abs() / x.t.abs().max(1.0) < 1e-3,
                        "t {} vs {}",
                        x.t,
                        y.t
                    );
                }
                (None, None) => {}
                (x, y) => panic!("ray {p}: bvh {x:?} kd {y:?}"),
            }
        }
        assert!(hits > 10, "camera should see geometry, hits={hits}");
    }

    /// Wald slots under the subtree at `idx`.
    fn slots(bvh: &Bvh, idx: u32) -> std::ops::Range<u32> {
        match bvh.nodes[idx as usize] {
            BvhNode::Leaf { first, count, .. } => first..first + count,
            BvhNode::Inner { left, right, .. } => {
                let (l, r) = (slots(bvh, left), slots(bvh, right));
                assert_eq!(l.end, r.start, "a subtree's slots are contiguous");
                l.start..r.end
            }
        }
    }

    /// Triangles on a coarse grid, so centroids tie on every axis, and
    /// half of them copies of earlier ones, so some leaves are clouds of
    /// one centroid larger than [`BVH_MAX_LEAF`].
    fn grid_scene(n: usize, seed: u64) -> Vec<Triangle> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tris: Vec<Triangle> = Vec::with_capacity(n);
        for _ in 0..n {
            if !tris.is_empty() && rng.gen_bool(0.5) {
                let copy = tris[rng.gen_range(0..tris.len())];
                tris.push(copy);
                continue;
            }
            let mut p = |scale: f32| {
                let mut q = || (rng.gen_range(0u32..6) as f32 - 2.0) * scale;
                crate::Vec3::new(q(), q(), q())
            };
            let base = p(1.0);
            tris.push(Triangle::new(base, base + p(0.25), base + p(0.25)));
        }
        tris
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn every_left_record_precedes_every_right_one(n in 0usize..300, seed in 0u64..1000) {
            let tris = grid_scene(n, seed);
            let bvh = Bvh::build(&tris);
            let centroid = |slot: u32| tris[bvh.original[slot as usize] as usize].centroid();
            let before = |axis: usize, a: u32, b: u32| {
                let (ca, cb) = (centroid(a)[axis], centroid(b)[axis]);
                let order = ca.partial_cmp(&cb).expect("finite centroids");
                order.then(bvh.original[a as usize].cmp(&bvh.original[b as usize])).is_lt()
            };
            for node in bvh.nodes() {
                let BvhNode::Inner { left, right, .. } = *node else { continue };
                let (l, r) = (slots(&bvh, left), slots(&bvh, right));
                let mut cbounds = Aabb::EMPTY;
                for slot in l.start..r.end {
                    cbounds.grow(centroid(slot));
                }
                let axis = cbounds.longest_axis();
                for a in l.clone() {
                    for b in r.clone() {
                        proptest::prop_assert!(before(axis, a, b), "slot {a} after slot {b}");
                    }
                }
                // A leaf child keeps its parent's split order.
                for child in [left, right] {
                    if let BvhNode::Leaf { first, count, .. } = bvh.nodes[child as usize] {
                        for s in first + 1..first + count {
                            proptest::prop_assert!(before(axis, s - 1, s), "leaf out of order at {s}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_triangles_are_refused() {
        let ok = Triangle::new(
            crate::Vec3::ZERO,
            crate::Vec3::new(1.0, 0.0, 0.0),
            crate::Vec3::new(0.0, 1.0, 0.0),
        );
        let mut nan = ok;
        nan.b.y = f32::NAN;
        let mut inf = ok;
        inf.c.z = f32::INFINITY;
        let bvh = Bvh::build(&[nan, ok, inf, ok]);
        assert_eq!(bvh.original, [1, 3]);
    }

    #[test]
    fn build_is_deterministic() {
        let scene = scenes::fairyforest(SceneScale::Tiny);
        let a = Bvh::build(&scene.triangles);
        let b = Bvh::build(&scene.triangles);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.original, b.original);
    }
}
