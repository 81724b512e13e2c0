//! The acceleration structures are fixed points: every simulated number
//! downstream of a scene reads its kd-tree or BVH, so a builder change
//! must leave each tree bit-identical. Each tree is pinned as an
//! FNV-1a-64 digest of everything the device and the host oracle read:
//!
//! - kd-tree: the nodes (axis, split bits, children or leaf range), the
//!   leaf reference array and the Wald records with their input indices;
//! - BVH: the nodes with their bound bits, and the Wald records in leaf
//!   order with their input indices.
//!
//! The digests were recorded from the builders that sorted every node
//! (the BVH) and counted each SAH candidate in its own pass (the
//! kd-tree), before either was replaced.

use usimt::isa::codec::{fnv1a64_extend, FNV1A64_INIT};
use usimt::raytrace::scenes::{self, SceneScale};
use usimt::raytrace::{Aabb, Bvh, BvhNode, KdNode, KdTree, Scene, WaldTriangle};

/// An FNV-1a-64 state fed one little-endian word at a time.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u32) {
        self.0 = fnv1a64_extend(self.0, &w.to_le_bytes());
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u32>) {
        for w in ws {
            self.word(w);
        }
    }

    fn bounds(&mut self, b: Aabb) {
        self.words([b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f32::to_bits));
    }

    fn wald(&mut self, records: &[WaldTriangle], original: impl Fn(u32) -> u32) {
        self.word(records.len() as u32);
        for (i, w) in records.iter().enumerate() {
            self.words(w.to_words());
            self.word(original(i as u32));
        }
    }
}

fn kd_digest(tree: &KdTree) -> u64 {
    let mut d = Digest(FNV1A64_INIT);
    d.word(tree.nodes().len() as u32);
    for node in tree.nodes() {
        match *node {
            KdNode::Inner {
                axis,
                split,
                left,
                right,
            } => d.words([0, u32::from(axis), split.to_bits(), left, right]),
            KdNode::Leaf { first, count } => d.words([1, first, count]),
        }
    }
    d.word(tree.tri_indices().len() as u32);
    d.words(tree.tri_indices().iter().copied());
    d.wald(tree.wald_triangles(), |i| tree.original_index(i));
    d.0
}

fn bvh_digest(bvh: &Bvh) -> u64 {
    let mut d = Digest(FNV1A64_INIT);
    d.word(bvh.nodes().len() as u32);
    for node in bvh.nodes() {
        d.bounds(node.bounds());
        match *node {
            BvhNode::Inner { left, right, .. } => d.words([0, left, right]),
            BvhNode::Leaf { first, count, .. } => d.words([1, first, count]),
        }
    }
    d.wald(bvh.wald_triangles(), |i| bvh.original_index(i));
    d.0
}

/// `(scene, scale, kd-tree digest, BVH digest)`.
const PINNED: [(&str, SceneScale, u64, u64); 9] = [
    (
        "conference",
        SceneScale::Tiny,
        0xfe036f684e641843,
        0x0cd93010e2ff1738,
    ),
    (
        "conference",
        SceneScale::Small,
        0x3e9a9bb742d48acb,
        0x68a28935e22557cd,
    ),
    (
        "conference",
        SceneScale::Full,
        0xba6de9dd9233d544,
        0x92669fd840728147,
    ),
    (
        "atrium",
        SceneScale::Tiny,
        0xf93781741e66ff1d,
        0x7fccf84ac0b13dcd,
    ),
    (
        "atrium",
        SceneScale::Small,
        0x61e3e42ff972037a,
        0x03cf8cb99f3c201e,
    ),
    (
        "atrium",
        SceneScale::Full,
        0xd086118e63108fc7,
        0x255b622a717bbc4a,
    ),
    (
        "fairyforest",
        SceneScale::Tiny,
        0x0aaa021abbbc2446,
        0x97f59cc0183c5fad,
    ),
    (
        "fairyforest",
        SceneScale::Small,
        0x5c39e9bc715f5c8a,
        0x24ee8b710ec50bae,
    ),
    (
        "fairyforest",
        SceneScale::Full,
        0x5073b19a7102e574,
        0x07e0782ad8ee5e67,
    ),
];

fn scene(name: &str, scale: SceneScale) -> Scene {
    match name {
        "conference" => scenes::conference(scale),
        "atrium" => scenes::atrium(scale),
        "fairyforest" => scenes::fairyforest(scale),
        _ => unreachable!("{name} is not a scene"),
    }
}

#[test]
fn trees_match_their_pinned_digests() {
    let mut wrong = Vec::new();
    for (name, scale, kd, bvh) in PINNED {
        let s = scene(name, scale);
        let got = (
            kd_digest(&KdTree::build(&s.triangles)),
            bvh_digest(&Bvh::build(&s.triangles)),
        );
        if got != (kd, bvh) {
            wrong.push(format!(
                "(\"{name}\", SceneScale::{scale:?}, {:#018x}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(wrong.is_empty(), "trees moved:\n{}", wrong.join("\n"));
}
