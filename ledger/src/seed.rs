//! Seed → inputs. The benchmark owns this stream; the program under test
//! only ever receives the generated inputs. Seed 0 is the canonical input:
//! the paper viewpoint, exactly what `repro` runs. The matrix workloads
//! always run the twelve artifacts in registry order: their inputs are the
//! paper's, and there is nothing for a seed to vary.

use raytrace::scenes::Scene;
use raytrace::Vec3;

/// Largest camera-origin displacement per axis, as a share of the scene's
/// bounding-box diagonal. Small on purpose: the rays finished inside a
/// 300 k-cycle window move by ±10 % for a 0.1 % displacement of the
/// conference camera, and the spread over seeds has to stay well inside
/// the metric bounds. At this size exact counts still differ per seed.
pub const JITTER_SHARE: f32 = 0.0005;

/// SplitMix64 (Steele, Lea & Flood), the stream every derived input uses.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for one purpose: `salt` separates the camera, hit and
    /// probe streams of one seed so adding a draw to one leaves the others.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32 bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

const CAMERA_SALT: u64 = 1;
const HITS_SALT: u64 = 2;
/// Salt of the micro-probes' operand and address streams.
pub const PROBE_SALT: u64 = 3;

/// Displaces the scene's camera origin by at most [`JITTER_SHARE`] of the
/// bounding-box diagonal per axis. Seed 0 leaves the scene untouched.
pub fn jitter_camera(scene: &mut Scene, seed: u64) {
    if seed == 0 {
        return;
    }
    let b = scene.bounds();
    let reach = (b.max - b.min).length() * JITTER_SHARE;
    let mut rng = SplitMix64::new(seed, CAMERA_SALT);
    let d = Vec3::new(rng.signed_unit(), rng.signed_unit(), rng.signed_unit());
    scene.view.origin += d * reach;
}

/// The artifact (an index below `n`) each warm hit of server incarnation
/// `incarnation` asks for: registry order round and round for seed 0, a
/// uniform draw per hit otherwise.
pub fn hit_sequence(n: usize, seed: u64, incarnation: u32) -> impl FnMut() -> usize {
    let mut rng = SplitMix64::new(seed, HITS_SALT + (u64::from(incarnation) << 8));
    let mut next = 0;
    move || {
        if seed == 0 {
            next += 1;
            (next - 1) % n
        } else {
            rng.below(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raytrace::scenes::{self, SceneScale};

    #[test]
    fn seed_zero_reproduces_repro_inputs_exactly() {
        let reference = scenes::conference(SceneScale::Tiny);
        let mut scene = scenes::conference(SceneScale::Tiny);
        jitter_camera(&mut scene, 0);
        assert_eq!(scene.view.origin, reference.view.origin);
        let mut hits = hit_sequence(12, 0, 0);
        let asked: Vec<usize> = (0..24).map(|_| hits()).collect();
        assert_eq!(asked, (0..12).chain(0..12).collect::<Vec<_>>());
    }

    #[test]
    fn other_seeds_move_the_camera_within_the_stated_reach() {
        let reference = scenes::conference(SceneScale::Tiny);
        let b = reference.bounds();
        let reach = (b.max - b.min).length() * JITTER_SHARE;
        for seed in 1..50 {
            let mut scene = scenes::conference(SceneScale::Tiny);
            jitter_camera(&mut scene, seed);
            let d = scene.view.origin - reference.view.origin;
            assert!(d.length() > 0.0, "seed {seed} left the camera in place");
            for axis in [d.x, d.y, d.z] {
                assert!(axis.abs() <= reach, "seed {seed} moved {axis} > {reach}");
            }
        }
    }

    #[test]
    fn derivations_are_functions_of_the_seed() {
        let (mut a, mut b) = (
            scenes::conference(SceneScale::Tiny),
            scenes::conference(SceneScale::Tiny),
        );
        jitter_camera(&mut a, 7);
        jitter_camera(&mut b, 7);
        assert_eq!(a.view.origin, b.view.origin);
        jitter_camera(&mut b, 8);
        assert_ne!(a.view.origin, b.view.origin);
        let draws = |seed| {
            let mut rng = SplitMix64::new(seed, PROBE_SALT);
            [rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let hits = |seed, incarnation| {
            let mut next = hit_sequence(12, seed, incarnation);
            (0..40).map(|_| next()).collect::<Vec<usize>>()
        };
        assert_eq!(hits(7, 0), hits(7, 0));
        assert_ne!(hits(7, 0), hits(8, 0));
        assert_ne!(hits(7, 0), hits(7, 1));
        assert!(hits(7, 0).iter().all(|&i| i < 12));
    }
}
