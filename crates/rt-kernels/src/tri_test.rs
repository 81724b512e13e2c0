//! Shared assembly snippet: Wald's ray-triangle intersection test.
//!
//! Both benchmark kernels execute exactly this code against the 12-word
//! Wald record (`raytrace::WaldTriangle::to_words`), so the per-test work
//! (instructions and 48 loaded bytes) is identical — only the surrounding
//! control flow (PDOM loops vs spawned μ-kernels) differs, exactly as in
//! the paper's methodology.

/// Register assignment for one instantiation of the test.
///
/// `w` names the first of four consecutive scratch registers used as the
/// `v4` load target; `t`, `hu`, `hv`, `x`, `y` are independent scratch
/// registers. Predicates `p0`/`p1` (projection axis decode) and `p2`
/// (comparisons) are clobbered.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TriTestRegs {
    pub ox: u8,
    pub oy: u8,
    pub oz: u8,
    pub dx: u8,
    pub dy: u8,
    pub dz: u8,
    /// Best hit parameter so far; updated in place on a closer hit.
    pub best_t: u8,
    /// Best triangle id so far; updated in place.
    pub best_id: u8,
    /// Register holding the candidate triangle's reference id.
    pub tri_ref: u8,
    /// Register holding the byte address of the Wald record.
    pub wald_addr: u8,
    /// First of 4 consecutive scratch registers (`v4` target).
    pub w: u8,
    pub t: u8,
    pub hu: u8,
    pub hv: u8,
    pub x: u8,
    pub y: u8,
}

/// Emits the test. Control falls through to `miss_label` (which the caller
/// must define immediately after or elsewhere) when the triangle is not
/// hit closer than `best_t`; on a hit, `best_t`/`best_id` are updated and
/// control also reaches `miss_label`.
pub(crate) fn emit_tri_test(r: &TriTestRegs, miss_label: &str) -> String {
    let TriTestRegs {
        ox,
        oy,
        oz,
        dx,
        dy,
        dz,
        best_t,
        best_id,
        tri_ref,
        wald_addr,
        w,
        t,
        hu,
        hv,
        x,
        y,
    } = *r;
    let (w0, w1, w2, w3) = (w, w + 1, w + 2, w + 3);
    format!(
        r#"
    ; ---- Wald ray-triangle test (48-byte record, 3 x v4 loads) ----
    ld.global.v4 r{w0}, [r{wald_addr}+0]      ; n_u n_v n_d k
    setp.eq.s32 p0, r{w3}, 0
    setp.eq.s32 p1, r{w3}, 1
    ; nd = d_k + n_u*d_u + n_v*d_v
    selp.b32 r{hu}, r{dy}, r{dz}, p1
    selp.b32 r{t}, r{dx}, r{hu}, p0           ; d_k
    selp.b32 r{hu}, r{dz}, r{dx}, p1
    selp.b32 r{hu}, r{dy}, r{hu}, p0          ; d_u
    fma.f32 r{t}, r{w0}, r{hu}, r{t}
    selp.b32 r{hu}, r{dx}, r{dy}, p1
    selp.b32 r{hu}, r{dz}, r{hu}, p0          ; d_v
    fma.f32 r{t}, r{w1}, r{hu}, r{t}
    rcp.f32 r{t}, r{t}                        ; 1/nd
    ; num = n_d - o_k - n_u*o_u - n_v*o_v
    selp.b32 r{hu}, r{oy}, r{oz}, p1
    selp.b32 r{hu}, r{ox}, r{hu}, p0          ; o_k
    sub.f32 r{hv}, r{w2}, r{hu}
    selp.b32 r{hu}, r{oz}, r{ox}, p1
    selp.b32 r{hu}, r{oy}, r{hu}, p0          ; o_u
    mul.f32 r{x}, r{w0}, r{hu}
    sub.f32 r{hv}, r{hv}, r{x}
    selp.b32 r{hu}, r{ox}, r{oy}, p1
    selp.b32 r{hu}, r{oz}, r{hu}, p0          ; o_v
    mul.f32 r{x}, r{w1}, r{hu}
    sub.f32 r{hv}, r{hv}, r{x}
    mul.f32 r{t}, r{hv}, r{t}                 ; t = num/nd
    ; reject out-of-range (NaN also rejects)
    setp.ge.f32 p2, r{t}, 0.0001
    @!p2 bra {miss_label}
    setp.le.f32 p2, r{t}, r{best_t}
    @!p2 bra {miss_label}
    ; hu = o_u + t*d_u ; hv = o_v + t*d_v
    selp.b32 r{hu}, r{oz}, r{ox}, p1
    selp.b32 r{hu}, r{oy}, r{hu}, p0          ; o_u
    selp.b32 r{x}, r{dz}, r{dx}, p1
    selp.b32 r{x}, r{dy}, r{x}, p0            ; d_u
    fma.f32 r{hu}, r{x}, r{t}, r{hu}
    selp.b32 r{hv}, r{ox}, r{oy}, p1
    selp.b32 r{hv}, r{oz}, r{hv}, p0          ; o_v
    selp.b32 r{x}, r{dx}, r{dy}, p1
    selp.b32 r{x}, r{dz}, r{x}, p0            ; d_v
    fma.f32 r{hv}, r{x}, r{t}, r{hv}
    ; beta
    ld.global.v4 r{w0}, [r{wald_addr}+16]     ; b_nu b_nv b_d pad
    mul.f32 r{x}, r{hu}, r{w0}
    fma.f32 r{x}, r{hv}, r{w1}, r{x}
    add.f32 r{x}, r{x}, r{w2}
    setp.ge.f32 p2, r{x}, 0.0
    @!p2 bra {miss_label}
    ; gamma
    ld.global.v4 r{w0}, [r{wald_addr}+32]     ; c_nu c_nv c_d pad
    mul.f32 r{y}, r{hu}, r{w0}
    fma.f32 r{y}, r{hv}, r{w1}, r{y}
    add.f32 r{y}, r{y}, r{w2}
    setp.ge.f32 p2, r{y}, 0.0
    @!p2 bra {miss_label}
    add.f32 r{x}, r{x}, r{y}
    setp.le.f32 p2, r{x}, 1.0
    @!p2 bra {miss_label}
    ; hit: record it
    mov.b32 r{best_t}, r{t}
    mov.u32 r{best_id}, r{tri_ref}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use raytrace::{Ray, Triangle, Vec3, WaldTriangle};
    use simt_isa::{assemble_named, Space};
    use simt_mem::{MemConfig, MemoryFabric};
    use simt_sim::RefMachine;

    /// Drives the snippet standalone: wald record at global 0, ray in
    /// registers, result at global 1024.
    fn run_test_kernel(tri: &Triangle, ray: &Ray) -> Option<f32> {
        let regs = TriTestRegs {
            ox: 3,
            oy: 4,
            oz: 5,
            dx: 7,
            dy: 8,
            dz: 9,
            best_t: 11,
            best_id: 12,
            tri_ref: 30,
            wald_addr: 2,
            w: 21,
            t: 25,
            hu: 26,
            hv: 27,
            x: 28,
            y: 29,
        };
        let src = format!(
            r#"
            .kernel main
            main:
                mov.u32 r2, 0
                mov.f32 r3, {ox}
                mov.f32 r4, {oy}
                mov.f32 r5, {oz}
                mov.f32 r7, {dx}
                mov.f32 r8, {dy}
                mov.f32 r9, {dz}
                mov.f32 r11, {tmax}
                mov.s32 r12, -1
                mov.u32 r30, 7
                {test}
            miss:
                mov.u32 r2, 1024
                st.global.u32 [r2+0], r11
                st.global.u32 [r2+4], r12
                exit
            "#,
            ox = ray.origin.x,
            oy = ray.origin.y,
            oz = ray.origin.z,
            dx = ray.dir.x,
            dy = ray.dir.y,
            dz = ray.dir.z,
            tmax = ray.tmax.min(1e30),
            test = emit_tri_test(&regs, "miss"),
        );
        let program = assemble_named("tritest", &src).expect("assembles");
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        mem.alloc_global(2048, "all");
        let w = WaldTriangle::new(tri).expect("non-degenerate");
        mem.host_write_global(0, &w.to_words());
        RefMachine::new(&program, 1, 0, 0)
            .run(&mut mem, 0)
            .expect("runs");
        let id = mem.read_u32(Space::Global, 1028);
        (id == 7).then(|| f32::from_bits(mem.read_u32(Space::Global, 1024)))
    }

    fn tri_xy() -> Triangle {
        Triangle::new(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    #[test]
    fn device_test_hits_like_host() {
        let tri = tri_xy();
        let ray = Ray::new(Vec3::new(0.2, 0.3, 2.0), Vec3::new(0.0, 0.0, -1.0));
        let t = run_test_kernel(&tri, &ray).expect("hit");
        assert!((t - 2.0).abs() < 1e-4);
    }

    #[test]
    fn device_test_misses_like_host() {
        let tri = tri_xy();
        let ray = Ray::new(Vec3::new(2.0, 2.0, 2.0), Vec3::new(0.0, 0.0, -1.0));
        assert!(run_test_kernel(&tri, &ray).is_none());
    }

    #[test]
    fn device_matches_host_on_many_axes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut hits = 0;
        for i in 0..200 {
            let p = |rng: &mut StdRng| {
                Vec3::new(
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                )
            };
            let tri = Triangle::new(p(&mut rng), p(&mut rng), p(&mut rng));
            if tri.is_degenerate() {
                continue;
            }
            let Some(w) = WaldTriangle::new(&tri) else {
                continue;
            };
            // Aim at the centroid from a random origin for a solid hit mix.
            let o = p(&mut rng) * 3.0;
            let d = if i % 2 == 0 {
                tri.centroid() - o
            } else {
                p(&mut rng)
            };
            if d.length() < 1e-3 {
                continue;
            }
            let ray = Ray::new(o, d);
            let host = w.intersect(&ray);
            let device = run_test_kernel(&tri, &ray);
            match (host, device) {
                (Some(a), Some(b)) => {
                    hits += 1;
                    assert!((a - b).abs() / a.abs().max(1.0) < 1e-3, "t {a} vs {b}");
                }
                (None, None) => {}
                (h, d) => panic!("case {i}: host {h:?} device {d:?}"),
            }
        }
        assert!(hits > 30, "want solid hit coverage, got {hits}");
    }
}
