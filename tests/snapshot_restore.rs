//! Snapshots of 4-lane machines: their bytes are pinned, a lane block
//! whose width is not the machine's is refused, and a payload mutated past
//! its configuration block restores to a machine that runs and keeps its
//! laws, or is refused with a typed error — never a panic, never an
//! allocation above a cap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use usimt::dmk::DmkConfig;
use usimt::isa::codec::{fnv1a64, Codec, Decoder, Encoder, SPARSE_MAX_WORDS};
use usimt::kernels::render::RenderSetup;
use usimt::raytrace::scenes::{self, SceneScale};
use usimt::sim::{
    seal_frame, Gpu, GpuConfig, InjectedFault, Injector, RestoreError, RunOutcome, Snapshot,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

/// The system allocator, noting the largest single request each thread
/// makes.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Runs `f`, returning its value and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let value = f();
    (value, LARGEST.with(Cell::get))
}

/// Fixed-seed xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The 4-lane `tiny` machine 3000 cycles into an 8×8 `conference` frame,
/// traditional or as μ-kernels on 4-lane DMK hardware.
fn four_lane_mid_run(dynamic: bool) -> Gpu {
    let mut gpu = four_lane_frame(dynamic);
    let summary = gpu.run(3000).expect("fault-free run");
    assert_eq!(summary.outcome, RunOutcome::CycleLimit, "stopped mid-frame");
    gpu
}

/// The 4-lane `tiny` machine with an 8×8 `conference` frame launched.
fn four_lane_frame(dynamic: bool) -> Gpu {
    let cfg = GpuConfig {
        dmk: dynamic.then_some(DmkConfig {
            warp_size: 4,
            threads_per_sm: 32,
            state_bytes: 48,
            num_ukernels: 4,
            fifo_capacity: 64,
        }),
        ..GpuConfig::tiny()
    };
    let mut gpu = Gpu::builder(cfg).build();
    let setup = RenderSetup::upload(&mut gpu, &scenes::conference(SceneScale::Tiny), 8, 8);
    if dynamic {
        setup.launch_ukernel(&mut gpu, 8);
    } else {
        setup.launch_traditional(&mut gpu, 8);
    }
    gpu
}

fn payload(gpu: &Gpu) -> Vec<u8> {
    gpu.checkpoint().expect("encodable").payload().to_vec()
}

/// `payload` sealed as a snapshot file under a correct checksum, and
/// opened again.
fn reseal(payload: &[u8]) -> Snapshot {
    let bytes = seal_frame(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &[], payload);
    Snapshot::from_bytes(&bytes).expect("a sealed frame opens")
}

/// The payload split after its configuration block.
fn split_config(payload: &[u8]) -> (GpuConfig, &[u8]) {
    let mut dec = Decoder::new(payload);
    let cfg = GpuConfig::decode(&mut dec).expect("decodes");
    (cfg, &payload[payload.len() - dec.remaining()..])
}

/// A 4-lane machine's snapshot holds each register plane's four lanes,
/// not the 32 its register file keeps: these are the bytes of a machine
/// that held four.
#[test]
fn four_lane_snapshots_keep_their_bytes() {
    for (dynamic, hash, len) in [
        (false, 0x937f_a400_c5a6_6c40_u64, 49_816),
        (true, 0xff53_dd39_2c31_80a0, 53_008),
    ] {
        let bytes = four_lane_mid_run(dynamic)
            .checkpoint()
            .expect("encodable")
            .to_bytes();
        assert_eq!(
            (fnv1a64(&bytes), bytes.len()),
            (hash, len),
            "dynamic {dynamic}: {:016x}",
            fnv1a64(&bytes)
        );
    }
}

/// A machine re-encoded 8 lanes wide over warps whose lane blocks are 4
/// lanes wide would run them as 8-lane warps: refused.
#[test]
fn a_warp_narrower_than_its_machine_is_refused() {
    let payload = payload(&four_lane_mid_run(false));
    let (cfg, rest) = split_config(&payload);
    let wide = GpuConfig {
        warp_size: 8,
        ..cfg
    };
    let mut enc = Encoder::new();
    wide.encode(&mut enc);
    let mut bytes = enc.into_bytes();
    bytes.extend_from_slice(rest);
    match Gpu::restore(&reseal(&bytes)) {
        Err(RestoreError::Codec(e)) => assert!(e.to_string().contains("warp width"), "{e}"),
        other => panic!("8-lane machine of 4-lane warps: {:?}", other.map(|_| ())),
    }
}

/// A machine whose every warp stalls on a full spawn FIFO issues a stall
/// each cycle and records nothing in its divergence timeline, so its clock
/// runs whole windows past the timeline: that snapshot is still taken and
/// restored, to the same machine.
#[test]
fn a_snapshot_taken_mid_spawn_stall_restores() {
    let mut gpu = four_lane_frame(true);
    gpu.set_injector(Injector::new(7).force(InjectedFault::SpawnFifoFull, 0..5000));
    let summary = gpu.run(2500).expect("stalls are not faults");
    assert_eq!(summary.outcome, RunOutcome::CycleLimit, "stopped mid-stall");
    let stats = gpu.stats();
    let covered = stats.divergence.windows().len() as u64 * stats.divergence.window();
    assert!(stats.cycles > covered, "the clock ran past the timeline");
    let snapshot = gpu.checkpoint().expect("encodable");
    let restored = Gpu::restore(&snapshot).expect("a mid-stall snapshot restores");
    assert_eq!(
        restored.checkpoint().expect("encodable").to_bytes(),
        snapshot.to_bytes()
    );
}

/// Largest single allocation a mutant may make: the sparse codec's
/// ceiling, up to which a word array (a machine's global memory) may
/// decode from a few bytes by design.
const ALLOCATION_CAP: usize = 4 * SPARSE_MAX_WORDS;

/// Mutants per seed.
const MUTANTS: usize = 5000;

/// One to three mutations of the payload past its configuration block
/// (which is fuzzed apart: it sizes the machine): a flipped byte, a
/// repeated byte, a truncated tail, or the payload's front spliced onto
/// a later or earlier stretch of itself.
fn mutant(rng: &mut Rng, config: &[u8], rest: &[u8]) -> Vec<u8> {
    let mut bytes = rest.to_vec();
    for _ in 0..=rng.below(3) {
        match rng.below(4) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
            1 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes.insert(at, bytes[at]);
            }
            2 => bytes.truncate(rng.below(bytes.len())),
            _ => {
                let back = &rest[rng.below(rest.len() + 1)..];
                bytes.truncate(rng.below(bytes.len() + 1));
                bytes.extend_from_slice(back);
            }
        }
    }
    [config, &bytes].concat()
}

/// A resealed snapshot of the traditional or the DMK machine mutated past
/// its configuration block restores, runs 50 cycles and still keeps the
/// laws of `Gpu::audit`, or is refused with a typed error: never a panic,
/// never an allocation above [`ALLOCATION_CAP`].
#[test]
fn a_mutated_snapshot_restores_and_runs_or_is_refused() {
    for dynamic in [false, true] {
        let payload = payload(&four_lane_mid_run(dynamic));
        let (_, rest) = split_config(&payload);
        let config = &payload[..payload.len() - rest.len()];
        for seed in [0x5eed_0101, 0x5eed_0202] {
            let mut rng = Rng(seed);
            for i in 0..MUTANTS {
                let bytes = mutant(&mut rng, config, rest);
                let (audit, largest) = largest_allocation(|| {
                    let mut gpu = Gpu::restore(&reseal(&bytes)).ok()?;
                    let _ = gpu.run(50);
                    Some(gpu.audit())
                });
                if let Some(Err(law)) = audit {
                    panic!(
                        "dynamic {dynamic} seed {seed:#x} mutant {i} restored, ran, broke {law}"
                    );
                }
                assert!(
                    largest <= ALLOCATION_CAP,
                    "dynamic {dynamic} seed {seed:#x} mutant {i}: allocated {largest} bytes"
                );
            }
        }
    }
}
