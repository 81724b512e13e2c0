//! BVH path tracer: scene → device memory → launch → bit-exact verify.
//!
//! The host reference here is not a tolerance oracle like
//! [`crate::render::compare`]: [`host_path_trace`] replays the *device
//! float-op sequence* (same ops, same order, same constants — the
//! simulator's ALU is plain Rust `f32` arithmetic), so device results
//! must match it **bit for bit** and the [`image_hash`] of both sides
//! is equal. Both kernel variants embed the same
//! `crate::pt_common` fragments, so Traditional and Dynamic produce
//! the same image too.

use crate::pt_layout::{PtDeviceScene, PtResult, PT_LEAF_BIT};
use crate::render::build_rays;
use crate::{
    pt_traditional, pt_ukernel, MISS, PT_ALBEDO, PT_DIR_SCALE, PT_EMIT, PT_MAX_BOUNCES, PT_OFFSET,
    PT_SEED_MUL, PT_TFAR, PT_TMIN,
};
use raytrace::{Bvh, Ray, Scene};
use simt_sim::{Gpu, Launch};

/// One xorshift32 step plus the draw→component mapping the kernels use.
fn draw_component(rng: &mut u32) -> f32 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 17;
    *rng ^= *rng << 5;
    ((*rng >> 9) as f32) * PT_DIR_SCALE - 1.0
}

/// Mirror of the device AABB slab test (`pt_common::emit_slab_test`).
fn slab_hit(w: &[u32; 8], o: [f32; 3], d: [f32; 3], tnear0: f32, tfar0: f32) -> bool {
    let mut tnear = tnear0;
    let mut tfar = tfar0;
    for a in 0..3 {
        let inv = 1.0f32 / d[a];
        let t0 = (f32::from_bits(w[a]) - o[a]) * inv;
        let t1 = (f32::from_bits(w[4 + a]) - o[a]) * inv;
        let near = t0.min(t1);
        let far = t0.max(t1);
        tnear = tnear.max(near);
        tfar = tfar.min(far);
    }
    tnear <= tfar
}

/// Mirror of the device Wald test (`tri_test::emit_tri_test`).
/// The negated comparisons are load-bearing: `!(x >= y)` rejects on
/// NaN exactly like the device `setp`/branch pair, where `x < y` would
/// not.
#[allow(clippy::too_many_arguments, clippy::neg_cmp_op_on_partial_ord)]
fn wald_test(
    w: &[u32; 12],
    o: [f32; 3],
    d: [f32; 3],
    best_t: &mut f32,
    best_id: &mut u32,
    slot: u32,
) {
    let n_u = f32::from_bits(w[0]);
    let n_v = f32::from_bits(w[1]);
    let n_d = f32::from_bits(w[2]);
    let (d_k, d_u, d_v) = match w[3] {
        0 => (d[0], d[1], d[2]),
        1 => (d[1], d[2], d[0]),
        _ => (d[2], d[0], d[1]),
    };
    let (o_k, o_u, o_v) = match w[3] {
        0 => (o[0], o[1], o[2]),
        1 => (o[1], o[2], o[0]),
        _ => (o[2], o[0], o[1]),
    };
    let mut t = d_k;
    t = n_u.mul_add(d_u, t);
    t = n_v.mul_add(d_v, t);
    t = 1.0 / t;
    let mut num = n_d - o_k;
    num -= n_u * o_u;
    num -= n_v * o_v;
    let t_hit = num * t;
    if !(t_hit >= 0.0001) {
        return;
    }
    if !(t_hit <= *best_t) {
        return;
    }
    let hu = d_u.mul_add(t_hit, o_u);
    let hv = d_v.mul_add(t_hit, o_v);
    let mut beta = hu * f32::from_bits(w[4]);
    beta = hv.mul_add(f32::from_bits(w[5]), beta);
    beta += f32::from_bits(w[6]);
    if !(beta >= 0.0) {
        return;
    }
    let mut gamma = hu * f32::from_bits(w[8]);
    gamma = hv.mul_add(f32::from_bits(w[9]), gamma);
    gamma += f32::from_bits(w[10]);
    if !(gamma >= 0.0) {
        return;
    }
    if !(beta + gamma <= 1.0) {
        return;
    }
    *best_t = t_hit;
    *best_id = slot;
}

/// Path-traces one ray, replaying the device op sequence exactly.
fn trace_one(nodes: &[[u32; 8]], wald: &[[u32; 12]], tid: u32, ray: &Ray) -> PtResult {
    let mut o = [ray.origin.x, ray.origin.y, ray.origin.z];
    let mut d = [ray.dir.x, ray.dir.y, ray.dir.z];
    let mut tmin = ray.tmin;
    let mut best_t = ray.tmax;
    let mut best_id = MISS;
    let mut rng = tid.wrapping_add(1).wrapping_mul(PT_SEED_MUL);
    let mut thr = 1.0f32;
    let mut rad = 0.0f32;
    let mut segments = 0u32;
    let mut stack: Vec<u32> = Vec::with_capacity(64);
    let mut node = 0u32;
    loop {
        // One traversal segment.
        loop {
            let w = &nodes[node as usize];
            if slab_hit(w, o, d, tmin, best_t) {
                if w[3] & PT_LEAF_BIT != 0 {
                    let count = w[7];
                    if count != 0 {
                        let first = w[3] & 0x7fff_ffff;
                        for slot in first..first + count {
                            wald_test(&wald[slot as usize], o, d, &mut best_t, &mut best_id, slot);
                        }
                    }
                } else {
                    stack.push(w[7]);
                    node = w[3];
                    continue;
                }
            }
            match stack.pop() {
                Some(n) => node = n,
                None => break,
            }
        }
        // Bounce step (device: `p_pop` with an empty stack).
        if best_id == MISS {
            rad += thr;
            segments += 1;
            return PtResult {
                radiance: rad,
                segments,
            };
        }
        rad = thr.mul_add(PT_EMIT, rad);
        thr *= PT_ALBEDO;
        segments += 1;
        if segments >= PT_MAX_BOUNCES {
            return PtResult {
                radiance: rad,
                segments,
            };
        }
        o[0] = d[0].mul_add(best_t, o[0]);
        o[1] = d[1].mul_add(best_t, o[1]);
        o[2] = d[2].mul_add(best_t, o[2]);
        let mut c = [
            draw_component(&mut rng),
            draw_component(&mut rng),
            draw_component(&mut rng),
        ];
        let mut dot = c[0] * d[0];
        dot = c[1].mul_add(d[1], dot);
        dot = c[2].mul_add(d[2], dot);
        if dot > 0.0 {
            c = [-c[0], -c[1], -c[2]];
        }
        let mut len2 = c[0] * c[0];
        len2 = c[1].mul_add(c[1], len2);
        len2 = c[2].mul_add(c[2], len2);
        let inv = 1.0 / len2.sqrt();
        d = [c[0] * inv, c[1] * inv, c[2] * inv];
        o[0] = d[0].mul_add(PT_OFFSET, o[0]);
        o[1] = d[1].mul_add(PT_OFFSET, o[1]);
        o[2] = d[2].mul_add(PT_OFFSET, o[2]);
        best_t = PT_TFAR;
        best_id = MISS;
        node = 0;
        tmin = PT_TMIN;
    }
}

/// Path-traces every ray on the host — the bit-exact reference both
/// kernels are validated against.
pub fn host_path_trace(bvh: &Bvh, rays: &[Ray]) -> Vec<PtResult> {
    let nodes: Vec<[u32; 8]> = bvh
        .nodes()
        .iter()
        .map(crate::pt_layout::node_words)
        .collect();
    let wald: Vec<[u32; 12]> = bvh.wald_triangles().iter().map(|w| w.to_words()).collect();
    rays.iter()
        .enumerate()
        .map(|(tid, r)| trace_one(&nodes, &wald, tid as u32, r))
        .collect()
}

/// FNV-1a-64 over the result words, in ray order — the "image hash"
/// `repro` prints and CI asserts.
pub fn image_hash(results: &[PtResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u32| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        eat(r.radiance.to_bits());
        eat(r.segments);
    }
    h
}

/// Number of result entries that differ from the reference (bit-exact
/// comparison — any nonzero count is a defect).
pub fn exact_mismatches(host: &[PtResult], device: &[PtResult]) -> usize {
    assert_eq!(host.len(), device.len(), "result lengths must agree");
    host.iter()
        .zip(device)
        .filter(|(h, d)| h.radiance.to_bits() != d.radiance.to_bits() || h.segments != d.segments)
        .count()
}

/// A scene prepared for path-traced simulation.
#[derive(Debug)]
pub struct PtSetup {
    /// The BVH (host copy, for the reference tracer).
    pub bvh: Bvh,
    /// The primary rays, row-major.
    pub rays: Vec<Ray>,
    /// Device addresses after upload.
    pub dev: PtDeviceScene,
}

impl PtSetup {
    /// Builds the BVH, generates primary rays (same camera setup as the
    /// kd workloads), and uploads both into `gpu`.
    pub fn upload(gpu: &mut Gpu, scene: &Scene, width: u32, height: u32) -> PtSetup {
        let bvh = Bvh::build(&scene.triangles);
        let rays = build_rays(scene, width, height);
        let dev = PtDeviceScene::upload(&bvh, &rays, gpu.mem_mut());
        PtSetup { bvh, rays, dev }
    }

    /// Path-traces all rays on the host (the bit-exact oracle).
    pub fn host_reference(&self) -> Vec<PtResult> {
        host_path_trace(&self.bvh, &self.rays)
    }

    /// Launches the traditional (looped) kernel.
    pub fn launch_traditional(&self, gpu: &mut Gpu, threads_per_block: u32) {
        gpu.launch(Launch {
            program: pt_traditional::program(),
            entry: "main".into(),
            num_threads: self.dev.num_rays,
            threads_per_block,
        })
        .expect("path-trace kernel launch rejected");
    }

    /// Launches the μ-kernel version (requires DMK hardware).
    pub fn launch_ukernel(&self, gpu: &mut Gpu, threads_per_block: u32) {
        gpu.launch(Launch {
            program: pt_ukernel::program(),
            entry: "main".into(),
            num_threads: self.dev.num_rays,
            threads_per_block,
        })
        .expect("path-trace kernel launch rejected");
    }

    /// Reads device results back.
    pub fn device_results(&self, gpu: &Gpu) -> Vec<PtResult> {
        self.dev.read_results(gpu.mem())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmk_core::DmkConfig;
    use raytrace::scenes::{self, SceneScale};
    use simt_sim::{GpuConfig, RunOutcome};

    fn tiny_gpu(dmk: bool) -> Gpu {
        let mut cfg = GpuConfig::tiny();
        cfg.max_threads_per_sm = 64;
        cfg.registers_per_sm = 64 * 40;
        if dmk {
            cfg.dmk = Some(DmkConfig {
                warp_size: cfg.warp_size,
                threads_per_sm: cfg.max_threads_per_sm,
                state_bytes: 48,
                num_ukernels: 4,
                fifo_capacity: 64,
            });
        }
        Gpu::builder(cfg).build()
    }

    #[test]
    fn host_reference_is_deterministic_and_multibounce() {
        let scene = scenes::conference(SceneScale::Tiny);
        let bvh = Bvh::build(&scene.triangles);
        let rays = build_rays(&scene, 8, 8);
        let a = host_path_trace(&bvh, &rays);
        let b = host_path_trace(&bvh, &rays);
        assert_eq!(image_hash(&a), image_hash(&b));
        // The camera sees geometry, so some paths must bounce.
        assert!(a.iter().any(|r| r.segments > 1), "no path ever bounced");
        assert!(a
            .iter()
            .all(|r| r.segments >= 1 && r.segments <= PT_MAX_BOUNCES));
    }

    #[test]
    fn traditional_kernel_matches_host_bit_for_bit() {
        let scene = scenes::conference(SceneScale::Tiny);
        let mut gpu = tiny_gpu(false);
        let setup = PtSetup::upload(&mut gpu, &scene, 8, 8);
        setup.launch_traditional(&mut gpu, 8);
        let summary = gpu.run(100_000_000).expect("fault-free run");
        assert_eq!(summary.outcome, RunOutcome::Completed);
        let host = setup.host_reference();
        let device = setup.device_results(&gpu);
        assert_eq!(
            exact_mismatches(&host, &device),
            0,
            "device diverged from mirror"
        );
        assert_eq!(image_hash(&host), image_hash(&device));
    }

    #[test]
    fn ukernel_matches_host_bit_for_bit() {
        let scene = scenes::conference(SceneScale::Tiny);
        let mut gpu = tiny_gpu(true);
        let setup = PtSetup::upload(&mut gpu, &scene, 8, 8);
        setup.launch_ukernel(&mut gpu, 8);
        let summary = gpu.run(200_000_000).expect("fault-free run");
        assert_eq!(summary.outcome, RunOutcome::Completed);
        let host = setup.host_reference();
        let device = setup.device_results(&gpu);
        assert_eq!(
            exact_mismatches(&host, &device),
            0,
            "device diverged from mirror"
        );
        assert_eq!(image_hash(&host), image_hash(&device));
        assert!(summary.stats.threads_spawned > 0, "μ-kernels must spawn");
        assert_eq!(
            summary.stats.lineages_completed,
            u64::from(setup.dev.num_rays),
            "every path's lineage must finish"
        );
    }

    #[test]
    fn both_variants_produce_the_same_image() {
        let scene = scenes::fairyforest(SceneScale::Tiny);

        let mut gpu_t = tiny_gpu(false);
        let setup_t = PtSetup::upload(&mut gpu_t, &scene, 8, 8);
        setup_t.launch_traditional(&mut gpu_t, 8);
        assert_eq!(
            gpu_t.run(100_000_000).expect("fault-free run").outcome,
            RunOutcome::Completed
        );
        let img_t = setup_t.device_results(&gpu_t);

        let mut gpu_u = tiny_gpu(true);
        let setup_u = PtSetup::upload(&mut gpu_u, &scene, 8, 8);
        setup_u.launch_ukernel(&mut gpu_u, 8);
        assert_eq!(
            gpu_u.run(200_000_000).expect("fault-free run").outcome,
            RunOutcome::Completed
        );
        let img_u = setup_u.device_results(&gpu_u);

        assert_eq!(image_hash(&img_t), image_hash(&img_u));
    }

    #[test]
    fn spawn_chains_run_deeper_than_the_kd_tracer() {
        // Each bounce re-enters the whole traversal, so path lineages
        // spawn strictly more threads per launch thread than a kd trace
        // of the same rays.
        let scene = scenes::conference(SceneScale::Tiny);
        let mut gpu = tiny_gpu(true);
        let setup = PtSetup::upload(&mut gpu, &scene, 8, 8);
        setup.launch_ukernel(&mut gpu, 8);
        let summary = gpu.run(200_000_000).expect("fault-free run");
        assert_eq!(summary.outcome, RunOutcome::Completed);
        let per_path = summary.stats.threads_spawned as f64 / f64::from(setup.dev.num_rays);
        assert!(
            per_path > 4.0,
            "spawn chain unexpectedly shallow: {per_path}"
        );
    }
}
