//! Lockstep differential oracle suite: generated programs must produce
//! identical functional results on the cycle-level `Gpu` (spawn-bank
//! conflicts on and off, both spawn policies, sleeping SMs and forced
//! ticking) and the independent `RefMachine`.
//!
//! The deterministic corpus plus the proptest sweep keep the oracle
//! honest in `cargo test`; the `fuzz_diff` bin runs the same comparison
//! at campaign scale (1000+ programs in CI).

use proptest::prelude::*;
use simt_isa::gen::GenConfig;
use simt_sim::oracle::run_case;

fn assert_case(cfg: &GenConfig) {
    let report = run_case(cfg);
    assert!(
        report.passed(),
        "differential mismatch for `{}`:\n  {}",
        cfg.to_kv(),
        report.mismatch.expect("mismatch present")
    );
}

/// A fixed corpus chosen to span the feature matrix: spawn depth 0-2,
/// guarded spawns, loops, every memory space, vectors, floats.
#[test]
fn deterministic_corpus_matches() {
    for seed in 0..40 {
        assert_case(&GenConfig::from_seed(seed));
    }
}

#[test]
fn deep_spawn_chains_match() {
    for seed in [7, 19, 23] {
        let cfg = GenConfig {
            spawn_levels: 2,
            spawn_guarded: false,
            ..GenConfig::from_seed(seed)
        };
        let report = run_case(&cfg);
        assert!(report.passed(), "{:?}", report.mismatch);
        assert!(
            report.ref_spawned > 0,
            "no children spawned for seed {seed}"
        );
    }
}

#[test]
fn guarded_spawns_match() {
    for seed in [3, 11] {
        assert_case(&GenConfig {
            spawn_levels: 1,
            spawn_guarded: true,
            ..GenConfig::from_seed(seed)
        });
    }
}

#[test]
fn all_memory_spaces_match() {
    for seed in [5, 13] {
        assert_case(&GenConfig {
            use_shared: true,
            use_local: true,
            use_const: true,
            use_v4: true,
            ..GenConfig::from_seed(seed)
        });
    }
}

#[test]
fn partial_warps_match() {
    // ntid=7 leaves a 3-lane warp; spawning from it exercises partial
    // formation groups.
    for seed in [2, 29] {
        assert_case(&GenConfig {
            ntid: 7,
            spawn_levels: 1,
            ..GenConfig::from_seed(seed)
        });
    }
}

#[test]
fn loop_nests_with_floats_match() {
    for seed in [17, 31] {
        assert_case(&GenConfig {
            max_loop_depth: 2,
            use_float: true,
            ..GenConfig::from_seed(seed)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_programs_match(seed in any::<u64>()) {
        assert_case(&GenConfig::from_seed(seed));
    }
}
