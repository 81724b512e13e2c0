//! Micro-probes behind the unit-cost metrics: each isolates one public
//! function of one layer, drives it with a fixed batch of seeded inputs
//! through `black_box`, and reports the best of five batches — the
//! "isolate one cost, vary one knob" template. Multiplied by the counts a
//! run reports, they say how much of `Gpu::run` a layer can explain.

use crate::seed::{SplitMix64, PROBE_SALT};
use dmk_core::{DmkConfig, WarpFormation};
use experiments::campaign::cache;
use experiments::serve::journal::Journal;
use simt_isa::codec::{Decoder, Encoder};
use simt_isa::{eval_alu, AluOp, Space};
use simt_mem::{
    coalesce_segments, BatchRequest, FabricRequest, MemConfig, MemoryFabric, MshrTable,
    ReadOnlyCache, SmMemFrontend,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const BATCHES: usize = 5;
const WARP: usize = 32;

/// Best of [`BATCHES`] runs of `batch`, as nanoseconds per operation.
fn best_ns(ops: usize, mut batch: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e9 / ops as f64
}

/// `eval_alu` over seeded operands, cycling through one class of ops.
fn alu(rng: &mut SplitMix64, ops: &[AluOp], float: bool) -> f64 {
    const N: usize = 1 << 16;
    let operand = |rng: &mut SplitMix64| {
        if float {
            // Normal floats in [0.5, 2): no denormal or NaN slow paths.
            (0.5 + 1.5 * (rng.next_u32() >> 8) as f32 / (1 << 24) as f32).to_bits()
        } else {
            rng.next_u32()
        }
    };
    let inputs: Vec<(AluOp, u32, u32, u32)> = (0..N)
        .map(|i| (ops[i % ops.len()], operand(rng), operand(rng), operand(rng)))
        .collect();
    best_ns(N, || {
        let mut acc = 0u32;
        for &(op, a, b, c) in black_box(&inputs) {
            acc ^= eval_alu(op, a, b, c);
        }
        black_box(acc);
    })
}

/// Per-lane addresses of one warp: `coherent` lanes walk consecutive words
/// from a seeded base, scattered lanes land anywhere in a 16 MiB heap.
fn warp_addresses(rng: &mut SplitMix64, coherent: bool) -> Vec<u32> {
    let base = (rng.next_u32() % (1 << 24)) & !3;
    (0..WARP as u32)
        .map(|lane| {
            if coherent {
                base + lane * 4
            } else {
                (rng.next_u32() % (1 << 24)) & !3
            }
        })
        .collect()
}

fn coalesce(rng: &mut SplitMix64, coherent: bool) -> f64 {
    const N: usize = 4096;
    let pool: Vec<Vec<u32>> = (0..64).map(|_| warp_addresses(rng, coherent)).collect();
    best_ns(N, || {
        for i in 0..N {
            black_box(coalesce_segments(black_box(&pool[i % pool.len()]), 4, 32));
        }
    })
}

/// Half coherent, half scattered warps: the mix both frontends are probed
/// with, so their costs compare.
fn mixed_pool(rng: &mut SplitMix64) -> Vec<Vec<u32>> {
    (0..64).map(|i| warp_addresses(rng, i % 2 == 0)).collect()
}

fn frontend_offchip(rng: &mut SplitMix64) -> f64 {
    const N: usize = 4096;
    let pool = mixed_pool(rng);
    let mut fe = SmMemFrontend::new(MemConfig::fx5800());
    best_ns(N, || {
        for i in 0..N {
            black_box(fe.request_offchip(i as u64, Space::Global, false, 4, &pool[i % pool.len()]));
        }
    })
}

fn requests(rng: &mut SplitMix64, segment_bytes: u32) -> Vec<FabricRequest> {
    mixed_pool(rng)
        .iter()
        .map(|a| FabricRequest {
            space: Space::Global,
            is_store: false,
            segments: coalesce_segments(a, 4, segment_bytes).segments,
        })
        .collect()
}

fn fabric_service(rng: &mut SplitMix64) -> f64 {
    const N: usize = 4096;
    let cfg = MemConfig::fx5800();
    let pool = requests(rng, cfg.segment_bytes);
    let mut fabric = MemoryFabric::new(cfg);
    best_ns(N, || {
        for i in 0..N {
            black_box(fabric.service(i as u64 * 4, &pool[i % pool.len()]));
        }
    })
}

/// Per request of a 30-SM `service_batch`, the shape phase B drains.
fn fabric_batch(rng: &mut SplitMix64) -> f64 {
    const SMS: usize = 30;
    const N: usize = 256;
    let cfg = MemConfig::fx5800_cached();
    let pool = requests(rng, cfg.segment_bytes);
    let batches: Vec<Vec<BatchRequest>> = (0..8)
        .map(|b| {
            (0..SMS)
                .map(|sm| BatchRequest {
                    sm,
                    access: 0,
                    request: pool[(b * SMS + sm) % pool.len()].clone(),
                })
                .collect()
        })
        .collect();
    let mut fabric = MemoryFabric::new(cfg);
    best_ns(N * SMS, || {
        for i in 0..N {
            black_box(fabric.service_batch(i as u64 * 4, &batches[i % batches.len()]));
        }
    })
}

/// Tag probe plus fill-on-miss over a footprint four times the capacity.
fn cache_probe_fill(rng: &mut SplitMix64) -> f64 {
    const N: usize = 1 << 16;
    let cfg = MemConfig::fx5800_cached();
    let lines: Vec<u32> = (0..N)
        .map(|_| (rng.next_u32() % (4 * cfg.l1_bytes)) & !(cfg.l1_line_bytes - 1))
        .collect();
    let mut l1 = ReadOnlyCache::new(cfg.l1_bytes, cfg.l1_line_bytes, cfg.l1_ways);
    best_ns(N, || {
        for &line in black_box(&lines) {
            if !l1.probe(line) {
                l1.fill(line);
            }
        }
    })
}

/// Purge, lookup and allocate-or-merge against a table whose fills land a
/// few operations later, so it runs near its capacity.
fn mshr(rng: &mut SplitMix64) -> f64 {
    const N: usize = 1 << 16;
    let cfg = MemConfig::fx5800_cached();
    let lines: Vec<u32> = (0..N)
        .map(|_| (rng.next_u32() % 64) * cfg.l1_line_bytes)
        .collect();
    let mut table = MshrTable::new(cfg.l1_mshr_entries);
    best_ns(N, || {
        for (now, &line) in black_box(&lines).iter().enumerate() {
            let now = now as u64;
            table.purge(now);
            if table.lookup(line).is_some() {
                table.note_merge();
            } else if table.has_room() {
                table.alloc(line);
                table.set_fill(&[line], now + 6);
            } else {
                table.note_stall();
            }
        }
        black_box(table.merges);
    })
}

fn frontend_l1(rng: &mut SplitMix64) -> f64 {
    const N: usize = 4096;
    let pool = mixed_pool(rng);
    let mut fe = SmMemFrontend::new(MemConfig::fx5800_cached());
    best_ns(N, || {
        for i in 0..N {
            let now = i as u64 * 4;
            let (_, _, fills, _, probe) = fe.l1_request(now, 4, &pool[i % pool.len()]);
            fe.mshr_set_fill(&fills, now + 8);
            black_box(probe);
        }
    })
}

/// `spawn` + `pop_ready` + `release_block` per warp-spawn, over a few
/// μ-kernel entry points with seeded active-lane counts.
fn formation_spawn(rng: &mut SplitMix64) -> f64 {
    const N: usize = 1 << 14;
    let calls: Vec<(usize, u32)> = (0..N)
        .map(|_| (10 + 20 * rng.below(4), 1 + rng.below(WARP) as u32))
        .collect();
    let mut wf = WarpFormation::new(&DmkConfig::paper());
    best_ns(N, || {
        for &(pc, active) in black_box(&calls) {
            black_box(
                wf.spawn(pc, active)
                    .expect("formation unit never fills here"),
            );
            while let Some(w) = wf.pop_ready() {
                wf.release_block(w.base_addr);
            }
        }
    })
}

/// A partial-warp `spawn` followed by `force_out_partial` + release: what
/// the scheduler pays for each warp it forces out at the end of a frame.
fn formation_force_out(rng: &mut SplitMix64) -> f64 {
    const N: usize = 1 << 14;
    let calls: Vec<u32> = (0..N).map(|_| 1 + rng.below(WARP - 1) as u32).collect();
    let mut wf = WarpFormation::new(&DmkConfig::paper());
    best_ns(N, || {
        for &active in black_box(&calls) {
            black_box(wf.spawn(10, active).expect("one partial warp fits"));
            let w = wf
                .force_out_partial()
                .expect("the partial warp just spawned");
            wf.release_block(w.base_addr);
        }
    })
}

/// The snapshot codec over the mix a machine snapshot is made of: large
/// word slices (memory stores) and runs of scalar counters.
fn codec(rng: &mut SplitMix64) -> (f64, f64) {
    let words: Vec<u32> = (0..1 << 18).map(|_| rng.next_u32()).collect();
    let scalars: Vec<u64> = (0..1 << 14).map(|_| rng.next_u64()).collect();
    let encode = || {
        let mut enc = Encoder::new();
        for chunk in words.chunks(1 << 16) {
            enc.put_u32_slice(chunk);
        }
        for &s in &scalars {
            enc.put_u64(s);
        }
        enc.into_bytes()
    };
    let bytes = encode();
    let mb = bytes.len() as f64 / 1e6;
    let enc_ns = best_ns(1, || {
        black_box(encode());
    });
    let dec_ns = best_ns(1, || {
        let mut dec = Decoder::new(black_box(&bytes));
        for _ in 0..words.len() >> 16 {
            black_box(dec.take_u32_vec().expect("encoded above"));
        }
        let mut acc = 0u64;
        for _ in 0..scalars.len() {
            acc ^= dec.take_u64().expect("encoded above");
        }
        assert!(dec.is_finished());
        black_box(acc);
    });
    (mb / (enc_ns / 1e9), mb / (dec_ns / 1e9))
}

/// Result-cache store and probe of a 4 KiB artifact, and a journal append
/// (each is an atomic, durable file write), in microseconds.
fn disk(rng: &mut SplitMix64, scratch: &Path) -> Result<(f64, f64, f64), String> {
    const N: usize = 16;
    let dir = scratch.join("probe-disk");
    let output: Vec<u8> = (0..4096).map(|_| rng.next_u32() as u8).collect();
    let store = best_ns(N, || {
        for i in 0..N {
            cache::store(&dir, "probe", i as u64, &output).expect("scratch is writable");
        }
    });
    let probe = best_ns(N, || {
        for i in 0..N {
            assert!(matches!(
                cache::probe(&dir, "probe", i as u64),
                cache::Probe::Hit(_)
            ));
        }
    });
    let (mut journal, _) = Journal::open(&dir.join("journal"))?;
    let append = best_ns(N, || {
        for i in 0..N {
            let entry = journal
                .append("probe", "test", false, 0, i as u64)
                .expect("scratch is writable");
            journal.retire(&entry);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    Ok((probe / 1e3, store / 1e3, append / 1e3))
}

/// Runs every micro-probe and returns `(metric name, value)` pairs.
///
/// # Errors
///
/// The scratch directory is not usable.
pub fn run_all(seed: u64, scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    use AluOp::*;
    let mut rng = SplitMix64::new(seed, PROBE_SALT);
    let (encode, decode) = codec(&mut rng);
    let (probe_us, store_us, append_us) = disk(&mut rng, scratch)?;
    Ok(vec![
        (
            "isa.eval.alu_int_ns",
            alu(
                &mut rng,
                &[IAdd, ISub, IMul, IMad, IMin, And, Xor, Shl, ShrS],
                false,
            ),
        ),
        (
            "isa.eval.alu_fp_ns",
            alu(
                &mut rng,
                &[FAdd, FSub, FMul, FFma, FMin, FMax, FRcp, FSqrt],
                true,
            ),
        ),
        ("isa.codec.encode_mb_per_s", encode),
        ("isa.codec.decode_mb_per_s", decode),
        ("core.formation.spawn_ns", formation_spawn(&mut rng)),
        ("core.formation.force_out_ns", formation_force_out(&mut rng)),
        ("mem.coalesce.coherent_ns", coalesce(&mut rng, true)),
        ("mem.coalesce.scattered_ns", coalesce(&mut rng, false)),
        ("mem.frontend.offchip_ns", frontend_offchip(&mut rng)),
        ("mem.fabric.service_ns", fabric_service(&mut rng)),
        ("mem.cache.probe_fill_ns", cache_probe_fill(&mut rng)),
        ("mem.mshr.op_ns", mshr(&mut rng)),
        ("mem.frontend.l1_ns", frontend_l1(&mut rng)),
        ("mem.fabric.batch_ns", fabric_batch(&mut rng)),
        ("experiments.campaign.cache.probe_us", probe_us),
        ("experiments.campaign.cache.store_us", store_us),
        ("experiments.serve.journal.append_us", append_us),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_finite_cost() {
        // Next to the test binary, inside the target directory.
        let scratch = std::env::current_exe()
            .unwrap()
            .with_file_name(format!("ledger-probes-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let out = run_all(1, &scratch).unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
        assert_eq!(out.len(), 17);
        for (name, v) in out {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
