//! The lockstep oracle's corpus, in tier-1 (ROADMAP 4f): the first 200
//! generated programs of `fuzz_diff --iterations 1000 --seed 0` — spawn
//! chains, guarded spawns, loops, every memory space, vectors — each run
//! on the independent reference machine and on every variant of the
//! cycle-level `Gpu` (both spawn policies, bank conflicts, forced ticking,
//! the cached, L1-only and ideal memory presets, a mid-run restore),
//! comparing final memory and lifecycle counters. A few seconds in a debug
//! build. CI's `fuzz_diff` step runs all 1000 from seed 0, these 200
//! among them, and `crates/sim/tests/oracle_diff.rs` the first 40: this
//! file is what puts the corpus in front of a plain `cargo test`.

use usimt::isa::gen::GenConfig;
use usimt::sim::oracle::run_case;

#[test]
fn the_first_200_programs_of_the_fuzz_corpus_match_the_reference() {
    let (mut spawning, mut looping, mut children) = (0, 0, 0);
    for seed in 0..200 {
        let cfg = GenConfig::from_seed(seed);
        let report = run_case(&cfg);
        assert!(
            report.passed(),
            "differential mismatch for `{}`:\n  {}",
            cfg.to_kv(),
            report.mismatch.expect("mismatch present")
        );
        spawning += u32::from(report.spawns);
        looping += u32::from(report.loops);
        children += report.ref_spawned;
    }
    // The corpus covers what it is here to cover.
    assert!(spawning >= 50, "{spawning} spawning programs");
    assert!(looping >= 50, "{looping} looping programs");
    assert!(children > 0, "no thread was ever spawned");
}
