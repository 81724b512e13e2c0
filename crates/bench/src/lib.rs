//! Home of the `bench_sim` binary (`src/bin/bench_sim.rs`); no library API.
