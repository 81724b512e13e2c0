//! A kd-tree spatial index with SAH-style construction and host traversal.
//!
//! The paper's benchmark uses a kd-tree acceleration structure traversed by
//! the three-loop algorithm of its Example 1 (outer restart loop, inner
//! down-traversal loop, leaf object-test loop). This module is the host
//! reference: the same tree is serialized to device memory and traversed by
//! the assembly kernels in `rt-kernels`.
//!
//! ## Build order and cost
//!
//! - **Splits.** A node weighs `CANDIDATES` (8) evenly spaced
//!   planes on its longest axis. One pass over its references counts them
//!   all: one read of a reference's box tells, for every plane, whether
//!   it starts below (goes left) and whether it ends above (goes right).
//!   The planes are then evaluated in order. One that sends every
//!   reference both ways is skipped, and a later plane wins only at a
//!   strictly lower cost.
//! - **Finite input only.** A triangle with a non-finite vertex is
//!   refused like a degenerate one ([`WaldTriangle::new`] gives it no
//!   record), so every box compares.
//! - **Leaf order.** The root's references are the Wald records in input
//!   order, and a split keeps each child's list in its parent's order, so
//!   each leaf's slice of [`KdTree::tri_indices`] is ascending.
//! - **Cost.** A node costs O(r·k) for r references and k candidates. The
//!   children's lists are written into one buffer that holds the lists of
//!   the path from the root to the node being built, so a node allocates
//!   nothing. A build is O(R·k), with R the references summed over all
//!   nodes: each of at most `MAX_DEPTH` (24) levels holds the `n` triangles
//!   once, plus a copy of each one a split above it straddled.

use crate::aabb::Aabb;
use crate::tri::{Hit, Triangle, WaldTriangle};
use crate::Ray;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One kd-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KdNode {
    /// Interior node splitting space at `split` along `axis`.
    Inner {
        /// Split axis (0, 1, 2).
        axis: u8,
        /// Split plane position.
        split: f32,
        /// Index of the child covering `[min, split]`.
        left: u32,
        /// Index of the child covering `[split, max]`.
        right: u32,
    },
    /// Leaf holding `count` triangle references starting at `first` in the
    /// reference array.
    Leaf {
        /// First index into [`KdTree::tri_indices`].
        first: u32,
        /// Number of references.
        count: u32,
    },
}

/// Structural statistics (regenerates paper Table III's tree columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Triangles in the scene.
    pub triangles: u32,
    /// Total nodes.
    pub nodes: u32,
    /// Leaf nodes.
    pub leaves: u32,
    /// Maximum leaf depth.
    pub max_depth: u32,
    /// Mean triangle references per leaf.
    pub avg_tris_per_leaf: f64,
    /// Total triangle references (> `triangles` due to straddling).
    pub tri_refs: u32,
}

/// Per-ray traversal work counters (drives the Table IV bandwidth model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalCounts {
    /// Interior-node visits ("down traversals").
    pub node_visits: u64,
    /// Leaf visits.
    pub leaf_visits: u64,
    /// Ray-triangle intersection tests.
    pub tri_tests: u64,
}

/// The kd-tree.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    tri_indices: Vec<u32>,
    wald: Vec<WaldTriangle>,
    /// Map from wald index back to original triangle index (degenerate
    /// triangles are dropped at build).
    original: Vec<u32>,
    bounds: Aabb,
    max_depth_seen: u32,
}

/// Stop splitting at or below this many triangles.
const MAX_LEAF_SIZE: usize = 16;
/// Hard depth limit.
const MAX_DEPTH: u32 = 24;
/// SAH split candidates per node.
const CANDIDATES: usize = 8;

impl KdTree {
    /// Builds a tree over `triangles`.
    pub fn build(triangles: &[Triangle]) -> Self {
        let mut wald = Vec::with_capacity(triangles.len());
        let mut original = Vec::with_capacity(triangles.len());
        let mut boxes = Vec::with_capacity(triangles.len());
        let mut bounds = Aabb::EMPTY;
        for (i, t) in triangles.iter().enumerate() {
            if let Some(w) = WaldTriangle::new(t) {
                wald.push(w);
                original.push(i as u32);
                let bb = t.bounds();
                bounds = bounds.union(bb);
                boxes.push(bb);
            }
        }
        let mut b = Builder {
            boxes: &boxes,
            refs: (0..wald.len() as u32).collect(),
            splits: Vec::with_capacity(CANDIDATES),
            below: Vec::with_capacity(CANDIDATES),
            above: Vec::with_capacity(CANDIDATES),
            nodes: Vec::new(),
            tri_indices: Vec::new(),
            max_depth_seen: 0,
        };
        if wald.is_empty() {
            b.nodes.push(KdNode::Leaf { first: 0, count: 0 });
        } else {
            b.node(0..wald.len(), bounds, 0);
        }
        KdTree {
            nodes: b.nodes,
            tri_indices: b.tri_indices,
            wald,
            original,
            bounds,
            max_depth_seen: b.max_depth_seen,
        }
    }

    /// Scene bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Flat node array (root is node 0).
    pub fn nodes(&self) -> &[KdNode] {
        &self.nodes
    }

    /// Leaf triangle-reference array.
    pub fn tri_indices(&self) -> &[u32] {
        &self.tri_indices
    }

    /// Precomputed Wald triangle records.
    pub fn wald_triangles(&self) -> &[WaldTriangle] {
        &self.wald
    }

    /// Maps a Wald-record index back to the input triangle index.
    pub fn original_index(&self, wald_index: u32) -> u32 {
        self.original[wald_index as usize]
    }

    /// Structural statistics.
    pub fn stats(&self) -> TreeStats {
        let leaves: Vec<&KdNode> = self
            .nodes
            .iter()
            .filter(|n| matches!(n, KdNode::Leaf { .. }))
            .collect();
        let refs: u32 = leaves
            .iter()
            .map(|n| match n {
                KdNode::Leaf { count, .. } => *count,
                _ => 0,
            })
            .sum();
        TreeStats {
            triangles: self.wald.len() as u32,
            nodes: self.nodes.len() as u32,
            leaves: leaves.len() as u32,
            max_depth: self.max_depth_seen,
            avg_tris_per_leaf: if leaves.is_empty() {
                0.0
            } else {
                f64::from(refs) / leaves.len() as f64
            },
            tri_refs: refs,
        }
    }

    /// Closest-hit traversal.
    pub fn intersect(&self, ray: &Ray) -> Option<Hit> {
        let mut counts = TraversalCounts::default();
        self.intersect_impl(ray, &mut counts)
    }

    /// Closest-hit traversal that also returns work counters.
    pub fn intersect_counted(&self, ray: &Ray) -> (Option<Hit>, TraversalCounts) {
        let mut counts = TraversalCounts::default();
        let hit = self.intersect_impl(ray, &mut counts);
        (hit, counts)
    }

    fn intersect_impl(&self, ray: &Ray, counts: &mut TraversalCounts) -> Option<Hit> {
        let (mut tmin, mut tmax) = self.bounds.intersect(ray)?;
        let mut best: Option<Hit> = None;
        let mut stack: Vec<(u32, f32, f32)> = Vec::with_capacity(32);
        let mut node = 0u32;
        loop {
            match self.nodes[node as usize] {
                KdNode::Inner {
                    axis,
                    split,
                    left,
                    right,
                } => {
                    counts.node_visits += 1;
                    let a = axis as usize;
                    let o = ray.origin[a];
                    let d = ray.dir[a];
                    let (near, far) = if o < split || (o == split && d <= 0.0) {
                        (left, right)
                    } else {
                        (right, left)
                    };
                    if d.abs() < 1e-20 {
                        node = near;
                        continue;
                    }
                    let t = (split - o) / d;
                    if t >= tmax || t < 0.0 {
                        node = near;
                    } else if t <= tmin {
                        node = far;
                    } else {
                        stack.push((far, t, tmax));
                        node = near;
                        tmax = t;
                    }
                }
                KdNode::Leaf { first, count } => {
                    counts.leaf_visits += 1;
                    for i in first..first + count {
                        let w = self.tri_indices[i as usize];
                        counts.tri_tests += 1;
                        let mut r = *ray;
                        r.tmax = best.map_or(ray.tmax, |h| h.t);
                        if let Some(t) = self.wald[w as usize].intersect(&r) {
                            if best.is_none_or(|h| t < h.t) {
                                best = Some(Hit { t, tri: w });
                            }
                        }
                    }
                    // Early exit: the closest hit lies in this leaf's slab.
                    if let Some(h) = best {
                        if h.t <= tmax {
                            return best;
                        }
                    }
                    let Some((n, t0, t1)) = stack.pop() else {
                        return best;
                    };
                    node = n;
                    tmin = t0;
                    tmax = t1;
                }
            }
        }
    }
}

/// The build's shared state and its flattened output.
struct Builder<'a> {
    /// Bounds of each Wald record's triangle.
    boxes: &'a [Aabb],
    /// The reference lists of the nodes on the path from the root to the
    /// node being built, one after another: a node's list is a range of
    /// this buffer, and its children's lists are pushed past its end and
    /// dropped when both children are built.
    refs: Vec<u32>,
    /// The node's SAH candidate planes, in evaluation order.
    splits: Vec<f32>,
    /// Per candidate, the references whose box starts below the plane
    /// (they go left).
    below: Vec<usize>,
    /// Per candidate, the references whose box ends above the plane
    /// (they go right).
    above: Vec<usize>,
    nodes: Vec<KdNode>,
    tri_indices: Vec<u32>,
    max_depth_seen: u32,
}

impl Builder<'_> {
    /// Builds the subtree over the references `refs[range]`, returning its
    /// node index.
    fn node(&mut self, range: Range<usize>, bounds: Aabb, depth: u32) -> u32 {
        self.max_depth_seen = self.max_depth_seen.max(depth);
        let n = range.len();
        if n <= MAX_LEAF_SIZE || depth >= MAX_DEPTH {
            return self.leaf(range);
        }
        let axis = bounds.longest_axis();
        let lo = bounds.min[axis];
        let hi = bounds.max[axis];
        // NaN-aware: a degenerate or non-finite extent also becomes a leaf.
        if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return self.leaf(range);
        }
        // Evenly spaced SAH candidates, all counted in one pass over the
        // references.
        let k = CANDIDATES;
        self.splits.clear();
        self.splits
            .extend((1..=k).map(|c| lo + (hi - lo) * c as f32 / (k + 1) as f32));
        self.below.clear();
        self.below.resize(k, 0);
        self.above.clear();
        self.above.resize(k, 0);
        for &t in &self.refs[range.clone()] {
            let bb = &self.boxes[t as usize];
            let (min, max) = (bb.min[axis], bb.max[axis]);
            let counts = self.below.iter_mut().zip(self.above.iter_mut());
            for (&split, (nl, nr)) in self.splits.iter().zip(counts) {
                *nl += usize::from(min < split);
                *nr += usize::from(max > split);
            }
        }
        let leaf_cost = n as f32 * bounds.surface_area();
        let mut best: Option<(f32, usize)> = None; // (cost, candidate)
        for c in 0..k {
            let (nl, nr) = (self.below[c], self.above[c]);
            // Reject useless splits that put everything on both sides.
            if nl == n && nr == n {
                continue;
            }
            let (lbox, rbox) = halves(bounds, axis, self.splits[c]);
            let cost = 1.0 + nl as f32 * lbox.surface_area() + nr as f32 * rbox.surface_area();
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, c));
            }
        }
        let Some((cost, c)) = best else {
            return self.leaf(range);
        };
        if cost >= leaf_cost && n <= 4 * MAX_LEAF_SIZE {
            return self.leaf(range);
        }
        let (split, nl, nr) = (self.splits[c], self.below[c], self.above[c]);
        // Degenerate partition: fall back to a leaf.
        if nl == 0 || nr == 0 {
            return self.leaf(range);
        }
        // The children's lists, left then right, each in the parent's
        // order, written in one pass: the counts place the right list.
        let base = self.refs.len();
        let (mid, end) = (base + nl, base + nl + nr);
        self.refs.resize(end, 0);
        let (mut l, mut r) = (base, mid);
        for i in range {
            let t = self.refs[i];
            let bb = &self.boxes[t as usize];
            if bb.min[axis] < split {
                self.refs[l] = t;
                l += 1;
            }
            if bb.max[axis] > split {
                self.refs[r] = t;
                r += 1;
            }
        }
        debug_assert_eq!((l, r), (mid, end), "the partition matches the counts");
        let idx = self.nodes.len() as u32;
        self.nodes.push(KdNode::Leaf { first: 0, count: 0 }); // placeholder
        let (lbox, rbox) = halves(bounds, axis, split);
        let left = self.node(base..mid, lbox, depth + 1);
        let right = self.node(mid..end, rbox, depth + 1);
        self.refs.truncate(base);
        self.nodes[idx as usize] = KdNode::Inner {
            axis: axis as u8,
            split,
            left,
            right,
        };
        idx
    }

    /// Emits a leaf over the references `refs[range]`, in their order.
    fn leaf(&mut self, range: Range<usize>) -> u32 {
        let first = self.tri_indices.len() as u32;
        let count = range.len() as u32;
        self.tri_indices.extend_from_slice(&self.refs[range]);
        let idx = self.nodes.len() as u32;
        self.nodes.push(KdNode::Leaf { first, count });
        idx
    }
}

/// `bounds` cut at `split` on `axis`: the boxes below and above the plane.
fn halves(bounds: Aabb, axis: usize, split: f32) -> (Aabb, Aabb) {
    let (mut lbox, mut rbox) = (bounds, bounds);
    match axis {
        0 => {
            lbox.max.x = split;
            rbox.min.x = split;
        }
        1 => {
            lbox.max.y = split;
            rbox.min.y = split;
        }
        _ => {
            lbox.max.z = split;
            rbox.min.z = split;
        }
    }
    (lbox, rbox)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_scene(n: usize, seed: u64) -> Vec<Triangle> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let base = Vec3::new(
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                );
                let e = |rng: &mut StdRng| {
                    Vec3::new(
                        rng.gen_range(-0.5..0.5),
                        rng.gen_range(-0.5..0.5),
                        rng.gen_range(-0.5..0.5),
                    )
                };
                let e1 = e(&mut rng);
                let e2 = e(&mut rng);
                Triangle::new(base, base + e1, base + e2)
            })
            .collect()
    }

    /// Brute-force closest hit over all triangles (oracle).
    fn brute_force(tris: &[Triangle], tree: &KdTree, ray: &Ray) -> Option<f32> {
        let mut best: Option<f32> = None;
        let _ = tris;
        for w in tree.wald_triangles() {
            if let Some(t) = w.intersect(ray) {
                if best.is_none_or(|b| t < b) {
                    best = Some(t);
                }
            }
        }
        best
    }

    #[test]
    fn tree_matches_brute_force_on_random_scene() {
        let tris = random_scene(300, 42);
        let tree = KdTree::build(&tris);
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits = 0;
        for i in 0..500 {
            let o = Vec3::new(
                rng.gen_range(-15.0..15.0),
                rng.gen_range(-15.0..15.0),
                rng.gen_range(-15.0..15.0),
            );
            // Aim half the rays at a random triangle's centroid so a
            // healthy fraction actually hits geometry.
            let d = if i % 2 == 0 {
                let t = &tris[rng.gen_range(0..tris.len())];
                t.centroid() - o
            } else {
                Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                )
            };
            if d.length() < 1e-3 {
                continue;
            }
            let ray = Ray::new(o, d);
            let tree_hit = tree.intersect(&ray).map(|h| h.t);
            let brute = brute_force(&tris, &tree, &ray);
            match (tree_hit, brute) {
                (Some(a), Some(b)) => {
                    hits += 1;
                    assert!((a - b).abs() < 1e-3, "t mismatch {a} vs {b}");
                }
                (None, None) => {}
                (a, b) => panic!("tree {a:?} vs brute {b:?}"),
            }
        }
        assert!(
            hits > 20,
            "expected a reasonable number of hits, got {hits}"
        );
    }

    #[test]
    fn empty_scene_builds_and_misses() {
        let tree = KdTree::build(&[]);
        let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        assert!(tree.intersect(&ray).is_none());
        assert_eq!(tree.stats().triangles, 0);
    }

    #[test]
    fn single_triangle_tree() {
        let tris = vec![Triangle::new(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(1.0, 0.0, 5.0),
            Vec3::new(0.0, 1.0, 5.0),
        )];
        let tree = KdTree::build(&tris);
        let ray = Ray::new(Vec3::new(0.2, 0.2, 0.0), Vec3::new(0.0, 0.0, 1.0));
        let h = tree.intersect(&ray).unwrap();
        assert!((h.t - 5.0).abs() < 1e-4);
        assert_eq!(h.tri, 0);
    }

    #[test]
    fn stats_are_consistent() {
        let tris = random_scene(500, 3);
        let tree = KdTree::build(&tris);
        let s = tree.stats();
        assert_eq!(s.triangles, 500);
        assert!(s.leaves > 1, "scene should split");
        assert!(s.nodes > s.leaves);
        assert!(s.tri_refs >= s.triangles);
        assert!(s.max_depth > 0 && s.max_depth <= 24);
        assert!(s.avg_tris_per_leaf > 0.0);
    }

    #[test]
    fn counted_traversal_reports_work() {
        let tris = random_scene(500, 3);
        let tree = KdTree::build(&tris);
        let center = tree.bounds().center();
        let o = center - Vec3::new(30.0, 0.0, 0.0);
        let ray = Ray::new(o, Vec3::new(1.0, 0.0, 0.0));
        let (_, counts) = tree.intersect_counted(&ray);
        assert!(counts.node_visits > 0);
        assert!(counts.leaf_visits > 0);
    }

    #[test]
    fn degenerate_triangles_are_dropped() {
        let tris = vec![
            Triangle::new(Vec3::ZERO, Vec3::splat(1.0), Vec3::splat(2.0)),
            Triangle::new(
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::new(1.0, 0.0, 1.0),
                Vec3::new(0.0, 1.0, 1.0),
            ),
        ];
        let tree = KdTree::build(&tris);
        assert_eq!(tree.stats().triangles, 1);
        assert_eq!(tree.original_index(0), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn tree_never_reports_closer_than_brute(seed in 0u64..50) {
            let tris = random_scene(100, seed);
            let tree = KdTree::build(&tris);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
            for _ in 0..50 {
                let o = Vec3::new(
                    rng.gen_range(-15.0..15.0),
                    rng.gen_range(-15.0..15.0),
                    rng.gen_range(-15.0..15.0),
                );
                let d = Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                );
                if d.length() < 1e-3 { continue; }
                let ray = Ray::new(o, d);
                let th = tree.intersect(&ray).map(|h| h.t);
                let bf = brute_force(&tris, &tree, &ray);
                match (th, bf) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-3),
                    (None, None) => {}
                    (a, b) => prop_assert!(false, "mismatch {a:?} vs {b:?}"),
                }
            }
        }
    }
}
