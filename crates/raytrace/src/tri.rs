//! Triangles and Wald's precomputed ray-triangle intersection test.
//!
//! The paper's benchmark (Radius-CUDA) uses Wald's projection-based
//! intersection (Wald, *Realtime Ray Tracing and Interactive Global
//! Illumination*, PhD 2004): each triangle is preprocessed into a 48-byte
//! record (12 words) so the inner loop needs no cross products. The device
//! kernels in `rt-kernels` execute exactly this algorithm against the same
//! 12-word layout; this module is the host-side reference.

use crate::aabb::Aabb;
use crate::vec3::Vec3;
use crate::Ray;

/// A plain triangle (three vertices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub a: Vec3,
    /// Second vertex.
    pub b: Vec3,
    /// Third vertex.
    pub c: Vec3,
}

/// An intersection record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Ray parameter of the hit.
    pub t: f32,
    /// Index of the triangle hit.
    pub tri: u32,
}

impl Triangle {
    /// Creates a triangle.
    pub fn new(a: Vec3, b: Vec3, c: Vec3) -> Self {
        Triangle { a, b, c }
    }

    /// Geometric (unnormalized) normal.
    pub fn normal(&self) -> Vec3 {
        (self.b - self.a).cross(self.c - self.a)
    }

    /// Bounding box.
    pub fn bounds(&self) -> Aabb {
        let mut bb = Aabb::EMPTY;
        bb.grow(self.a);
        bb.grow(self.b);
        bb.grow(self.c);
        bb
    }

    /// Centroid.
    pub fn centroid(&self) -> Vec3 {
        (self.a + self.b + self.c) / 3.0
    }

    /// Whether the triangle has (numerically) zero area.
    pub fn is_degenerate(&self) -> bool {
        self.normal().length() < 1e-12
    }

    /// Reference Möller–Trumbore intersection (used to validate the Wald
    /// test in property tests). Returns the hit parameter within
    /// `[ray.tmin, ray.tmax]`.
    pub fn intersect_moller_trumbore(&self, ray: &Ray) -> Option<f32> {
        let e1 = self.b - self.a;
        let e2 = self.c - self.a;
        let p = ray.dir.cross(e2);
        let det = e1.dot(p);
        if det.abs() < 1e-12 {
            return None;
        }
        let inv = 1.0 / det;
        let s = ray.origin - self.a;
        let u = s.dot(p) * inv;
        if !(0.0..=1.0).contains(&u) {
            return None;
        }
        let q = s.cross(e1);
        let v = ray.dir.dot(q) * inv;
        if v < 0.0 || u + v > 1.0 {
            return None;
        }
        let t = e2.dot(q) * inv;
        (t >= ray.tmin && t <= ray.tmax).then_some(t)
    }
}

/// Wald's precomputed triangle record: 12 words / 48 bytes.
///
/// Word layout (matching the device serialization in `rt-kernels`):
///
/// | words | contents |
/// |-------|----------|
/// | 0–2   | `n_u, n_v, n_d` (plane, normalized so `N[k] = 1`) |
/// | 3     | `k` (projection axis, `u32`) |
/// | 4–6   | `b_nu, b_nv, b_d` (β barycentric row) |
/// | 7     | padding (0) |
/// | 8–10  | `c_nu, c_nv, c_d` (γ barycentric row) |
/// | 11    | padding (0) |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaldTriangle {
    /// Projection axis (0, 1 or 2).
    pub k: u32,
    /// Plane normal component along axis `u` (normalized by `N[k]`).
    pub n_u: f32,
    /// Plane normal component along axis `v`.
    pub n_v: f32,
    /// Plane offset.
    pub n_d: f32,
    /// β row.
    pub b_nu: f32,
    /// β row.
    pub b_nv: f32,
    /// β offset.
    pub b_d: f32,
    /// γ row.
    pub c_nu: f32,
    /// γ row.
    pub c_nv: f32,
    /// γ offset.
    pub c_d: f32,
}

/// Size of one serialized [`WaldTriangle`] record in bytes.
pub const WALD_TRI_BYTES: u32 = 48;

impl WaldTriangle {
    /// Precomputes the record. Returns `None` for degenerate triangles
    /// and for triangles with a non-finite vertex coordinate, which have
    /// no meaningful plane and no place in a tree's split order.
    pub fn new(tri: &Triangle) -> Option<Self> {
        let finite = [tri.a, tri.b, tri.c]
            .iter()
            .all(|v| v.x.is_finite() && v.y.is_finite() && v.z.is_finite());
        if !finite {
            return None;
        }
        let n = tri.normal();
        if n.length() < 1e-12 {
            return None;
        }
        let k = n.dominant_axis();
        let u = (k + 1) % 3;
        let v = (k + 2) % 3;
        if n[k].abs() < 1e-12 {
            return None;
        }
        let n_u = n[u] / n[k];
        let n_v = n[v] / n[k];
        let n_d = tri.a[k] + n_u * tri.a[u] + n_v * tri.a[v];

        // 2D edges in the (u, v) projection plane.
        let e1u = tri.b[u] - tri.a[u];
        let e1v = tri.b[v] - tri.a[v];
        let e2u = tri.c[u] - tri.a[u];
        let e2v = tri.c[v] - tri.a[v];
        let det = e1u * e2v - e1v * e2u;
        if det.abs() < 1e-12 {
            return None;
        }
        // β (weight of vertex b): β = hu*b_nu + hv*b_nv + b_d
        let b_nu = e2v / det;
        let b_nv = -e2u / det;
        let b_d = -(tri.a[u] * b_nu + tri.a[v] * b_nv);
        // γ (weight of vertex c).
        let c_nu = -e1v / det;
        let c_nv = e1u / det;
        let c_d = -(tri.a[u] * c_nu + tri.a[v] * c_nv);

        Some(WaldTriangle {
            k: k as u32,
            n_u,
            n_v,
            n_d,
            b_nu,
            b_nv,
            b_d,
            c_nu,
            c_nv,
            c_d,
        })
    }

    /// Wald's intersection test. Returns the hit parameter within
    /// `[ray.tmin, ray.tmax]`.
    pub fn intersect(&self, ray: &Ray) -> Option<f32> {
        let k = self.k as usize;
        let u = (k + 1) % 3;
        let v = (k + 2) % 3;
        let nd = ray.dir[k] + self.n_u * ray.dir[u] + self.n_v * ray.dir[v];
        if nd.abs() < 1e-12 {
            return None;
        }
        let t =
            (self.n_d - ray.origin[k] - self.n_u * ray.origin[u] - self.n_v * ray.origin[v]) / nd;
        if !(t >= ray.tmin && t <= ray.tmax) {
            return None;
        }
        let hu = ray.origin[u] + t * ray.dir[u];
        let hv = ray.origin[v] + t * ray.dir[v];
        let beta = hu * self.b_nu + hv * self.b_nv + self.b_d;
        if beta < 0.0 {
            return None;
        }
        let gamma = hu * self.c_nu + hv * self.c_nv + self.c_d;
        if gamma < 0.0 || beta + gamma > 1.0 {
            return None;
        }
        Some(t)
    }

    /// Serializes to the 12-word device layout.
    pub fn to_words(&self) -> [u32; 12] {
        [
            self.n_u.to_bits(),
            self.n_v.to_bits(),
            self.n_d.to_bits(),
            self.k,
            self.b_nu.to_bits(),
            self.b_nv.to_bits(),
            self.b_d.to_bits(),
            0,
            self.c_nu.to_bits(),
            self.c_nv.to_bits(),
            self.c_d.to_bits(),
            0,
        ]
    }

    /// Deserializes from the 12-word device layout.
    pub fn from_words(w: &[u32; 12]) -> Self {
        WaldTriangle {
            n_u: f32::from_bits(w[0]),
            n_v: f32::from_bits(w[1]),
            n_d: f32::from_bits(w[2]),
            k: w[3],
            b_nu: f32::from_bits(w[4]),
            b_nv: f32::from_bits(w[5]),
            b_d: f32::from_bits(w[6]),
            c_nu: f32::from_bits(w[8]),
            c_nv: f32::from_bits(w[9]),
            c_d: f32::from_bits(w[10]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tri_xy() -> Triangle {
        Triangle::new(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    #[test]
    fn wald_hits_center() {
        let w = WaldTriangle::new(&tri_xy()).unwrap();
        let r = Ray::new(Vec3::new(0.25, 0.25, 1.0), Vec3::new(0.0, 0.0, -1.0));
        let t = w.intersect(&r).unwrap();
        assert!((t - 1.0).abs() < 1e-5);
    }

    #[test]
    fn wald_misses_outside() {
        let w = WaldTriangle::new(&tri_xy()).unwrap();
        let r = Ray::new(Vec3::new(0.9, 0.9, 1.0), Vec3::new(0.0, 0.0, -1.0));
        assert!(w.intersect(&r).is_none(), "outside the hypotenuse");
        let r = Ray::new(Vec3::new(-0.1, 0.5, 1.0), Vec3::new(0.0, 0.0, -1.0));
        assert!(w.intersect(&r).is_none());
    }

    #[test]
    fn behind_origin_is_rejected() {
        let w = WaldTriangle::new(&tri_xy()).unwrap();
        let r = Ray::new(Vec3::new(0.25, 0.25, -1.0), Vec3::new(0.0, 0.0, -1.0));
        assert!(w.intersect(&r).is_none());
    }

    #[test]
    fn degenerate_triangles_rejected_at_precompute() {
        let line = Triangle::new(
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(2.0, 2.0, 2.0),
        );
        assert!(line.is_degenerate());
        assert!(WaldTriangle::new(&line).is_none());
    }

    #[test]
    fn serialization_roundtrip() {
        let w = WaldTriangle::new(&tri_xy()).unwrap();
        let words = w.to_words();
        assert_eq!(WaldTriangle::from_words(&words), w);
        assert_eq!(words.len() * 4, WALD_TRI_BYTES as usize);
    }

    fn arb_point() -> impl Strategy<Value = Vec3> {
        (-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        /// Wald and Möller–Trumbore must agree (within epsilon slack at the
        /// edges) on arbitrary triangles and rays.
        #[test]
        fn wald_matches_moller_trumbore(
            a in arb_point(), b in arb_point(), c in arb_point(),
            o in arb_point(), d in arb_point(),
        ) {
            let tri = Triangle::new(a, b, c);
            prop_assume!(!tri.is_degenerate());
            prop_assume!(d.length() > 1e-3);
            let Some(w) = WaldTriangle::new(&tri) else { return Ok(()); };
            let ray = Ray::new(o, d);
            let mt = tri.intersect_moller_trumbore(&ray);
            let wd = w.intersect(&ray);
            match (mt, wd) {
                (Some(t1), Some(t2)) => {
                    prop_assert!((t1 - t2).abs() / t1.abs().max(1.0) < 1e-2,
                        "t mismatch {t1} vs {t2}");
                }
                (None, None) => {}
                // Near-edge disagreements are acceptable only when the hit
                // is marginal: re-test with a shrunken barycentric margin.
                (Some(t), None) | (None, Some(t)) => {
                    let p = ray.at(t);
                    let n = tri.normal().normalized();
                    let dist = (p - a).dot(n).abs();
                    prop_assert!(dist < 1e-2, "solid disagreement at t={t}, plane dist {dist}");
                }
            }
        }

        /// A ray aimed at a random interior point must hit.
        #[test]
        fn interior_point_always_hit(
            a in arb_point(), b in arb_point(), c in arb_point(),
            wa in 0.05f32..0.9, wb in 0.05f32..0.9,
        ) {
            let tri = Triangle::new(a, b, c);
            prop_assume!(tri.normal().length() > 1e-2);
            let Some(w) = WaldTriangle::new(&tri) else { return Ok(()); };
            let (wa, wb) = if wa + wb > 0.95 { (wa * 0.5, wb * 0.5) } else { (wa, wb) };
            let p = a * (1.0 - wa - wb) + b * wa + c * wb;
            let n = tri.normal().normalized();
            let o = p + n * 2.0;
            let ray = Ray::new(o, -n);
            prop_assert!(w.intersect(&ray).is_some(), "interior hit missed");
        }
    }
}
