//! Differential testing: the cycle-level SIMT pipeline and the functional
//! reference machine must compute identical results on randomly
//! generated programs (straight-line prologues, data-dependent loops,
//! predicated code). This cross-validates the PDOM stack, guard handling,
//! and the lane datapath against an independent executor.

use proptest::prelude::*;
use simt_isa::assemble_named;
use simt_mem::{MemConfig, MemoryFabric};
use simt_sim::{Gpu, GpuConfig, Launch, RefMachine};

const N_THREADS: u32 = 16;
const WORDS_PER_THREAD: u32 = 4;

/// One random straight-line operation over registers r2..r6.
#[derive(Debug, Clone)]
struct RandomOp {
    mnemonic: &'static str,
    dst: u8,
    a: u8,
    b: OperandSpec,
}

#[derive(Debug, Clone)]
enum OperandSpec {
    Reg(u8),
    Imm(i32),
}

impl RandomOp {
    fn emit(&self) -> String {
        let b = match self.b {
            OperandSpec::Reg(r) => format!("r{r}"),
            OperandSpec::Imm(v) => format!("{v}"),
        };
        format!("    {} r{}, r{}, {b}\n", self.mnemonic, self.dst, self.a)
    }
}

fn arb_op() -> impl Strategy<Value = RandomOp> {
    let mnemonics = prop_oneof![
        Just("add.s32"),
        Just("sub.s32"),
        Just("mul.lo.s32"),
        Just("and.b32"),
        Just("or.b32"),
        Just("xor.b32"),
        Just("min.s32"),
        Just("max.s32"),
        // Clamp-semantics shifts and trapless division (PTX: x/0 = 0,
        // MIN/-1 wraps) — the operand pool's special immediates hit the
        // edge amounts.
        Just("shl.b32"),
        Just("shr.u32"),
        Just("shr.s32"),
        Just("div.s32"),
        Just("rem.s32"),
        // Float ops run on raw integer bit patterns; both executors share
        // IEEE semantics, so even NaN payloads must agree bitwise.
        Just("add.f32"),
        Just("mul.f32"),
        Just("min.f32"),
        Just("max.f32"),
    ];
    (mnemonics, 2u8..7, 1u8..7, arb_operand()).prop_map(|(mnemonic, dst, a, b)| RandomOp {
        mnemonic,
        dst,
        a,
        b,
    })
}

fn arb_operand() -> impl Strategy<Value = OperandSpec> {
    prop_oneof![
        (1u8..7).prop_map(OperandSpec::Reg),
        (-100i32..100).prop_map(OperandSpec::Imm),
        // Edge immediates: zero divisors, MIN/-1 overflow, out-of-range
        // shift amounts.
        prop_oneof![
            Just(0i32),
            Just(-1),
            Just(i32::MIN),
            Just(i32::MAX),
            Just(31),
            Just(32),
            Just(33),
            Just(255),
        ]
        .prop_map(OperandSpec::Imm),
    ]
}

/// Builds a program: prologue ops, a tid-dependent loop around body ops,
/// a predicated epilogue op, then stores r2..r5.
fn build_program(prologue: &[RandomOp], body: &[RandomOp], guarded: &RandomOp) -> String {
    let mut s = String::from(".kernel main\nmain:\n    mov.u32 r1, %tid\n");
    // Seed registers deterministically from tid.
    for r in 2..7 {
        s.push_str(&format!("    mul.lo.s32 r{r}, r1, {}\n", r * 7 + 1));
        s.push_str(&format!("    add.s32 r{r}, r{r}, {}\n", r * 13 + 5));
    }
    for op in prologue {
        s.push_str(&op.emit());
    }
    // Loop with tid-dependent trip count (1..=4).
    s.push_str("    and.b32 r7, r1, 3\n    add.s32 r7, r7, 1\nloop:\n");
    for op in body {
        s.push_str(&op.emit());
    }
    s.push_str("    sub.s32 r7, r7, 1\n    setp.gt.s32 p0, r7, 0\n    @p0 bra loop\n");
    // A guarded op depending on a data predicate.
    s.push_str("    and.b32 r8, r2, 1\n    setp.eq.s32 p1, r8, 0\n");
    s.push_str(&format!("@p1 {}", guarded.emit().trim_start()));
    // Store results.
    s.push_str(&format!(
        "    mul.lo.s32 r9, r1, {}\n",
        WORDS_PER_THREAD * 4
    ));
    for (i, r) in (2..6).enumerate() {
        s.push_str(&format!("    st.global.u32 [r9+{}], r{r}\n", i * 4));
    }
    s.push_str("    exit\n");
    s
}

fn run_on_pipeline(src: &str) -> Vec<u32> {
    let program = assemble_named("rand-pipeline", src).expect("assembles");
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
    gpu.mem_mut()
        .alloc_global(N_THREADS * WORDS_PER_THREAD * 4, "out");
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: N_THREADS,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    let summary = gpu.run(50_000_000).expect("fault-free");
    assert_eq!(summary.outcome, simt_sim::RunOutcome::Completed);
    gpu.mem()
        .host_read_global(0, (N_THREADS * WORDS_PER_THREAD) as usize)
}

fn run_on_interpreter(src: &str) -> Vec<u32> {
    let program = assemble_named("rand-interp", src).expect("assembles");
    let mut mem = MemoryFabric::new(MemConfig::fx5800());
    mem.alloc_global(N_THREADS * WORDS_PER_THREAD * 4, "out");
    RefMachine::new(&program, N_THREADS, 0, 0)
        .run(&mut mem, 0)
        .expect("interprets");
    mem.host_read_global(0, (N_THREADS * WORDS_PER_THREAD) as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_matches_interpreter(
        prologue in proptest::collection::vec(arb_op(), 0..6),
        body in proptest::collection::vec(arb_op(), 1..6),
        guarded in arb_op(),
    ) {
        let src = build_program(&prologue, &body, &guarded);
        let a = run_on_pipeline(&src);
        let b = run_on_interpreter(&src);
        prop_assert_eq!(a, b, "program:\n{}", src);
    }
}

#[test]
fn division_and_shift_edges_match() {
    // Deterministic exposure of the PTX edge cases the random pool only
    // hits probabilistically: divide-by-zero, i32::MIN / -1, and shift
    // amounts of exactly 32/33/255.
    let src = r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            mov.u32 r2, -2147483648
            mov.u32 r3, -1
            div.s32 r4, r2, r3
            rem.s32 r5, r2, r3
            mov.u32 r6, 0
            div.s32 r6, r1, r6
            mov.u32 r7, 0
            rem.s32 r7, r1, r7
            add.s32 r4, r4, r6
            add.s32 r5, r5, r7
            shl.b32 r6, r1, 32
            shr.u32 r7, r2, 33
            shr.s32 r8, r2, 255
            add.s32 r6, r6, r7
            add.s32 r6, r6, r8
            mul.lo.s32 r9, r1, 16
            st.global.u32 [r9+0], r4
            st.global.u32 [r9+4], r5
            st.global.u32 [r9+8], r6
            st.global.u32 [r9+12], r1
            exit
    "#;
    let a = run_on_pipeline(src);
    let b = run_on_interpreter(src);
    assert_eq!(a, b);
    // Spot-check thread 0: MIN/-1 wraps to MIN, x/0 and x%0 are 0,
    // shifts ≥ 32 clamp (shr.s32 of MIN fills with the sign bit).
    assert_eq!(a[0], 0x8000_0000);
    assert_eq!(a[1], 0);
    assert_eq!(a[2], 0u32.wrapping_add(0).wrapping_add(0xffff_ffff));
}

#[test]
fn divergent_nested_control_flow_matches() {
    // A hand-written nasty case: nested loops + guarded exits.
    let src = r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            and.b32 r2, r1, 7
            mov.u32 r3, 0
            mov.u32 r4, 0
        outer:
            and.b32 r5, r1, 3
        inner:
            add.s32 r3, r3, 1
            sub.s32 r5, r5, 1
            setp.ge.s32 p0, r5, 0
            @p0 bra inner
            add.s32 r4, r4, 1
            sub.s32 r2, r2, 1
            setp.gt.s32 p1, r2, 0
            @p1 bra outer
            mul.lo.s32 r6, r1, 8
            st.global.u32 [r6+0], r3
            st.global.u32 [r6+4], r4
            exit
    "#;
    let program = assemble_named("nested", src).unwrap();
    let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
    gpu.mem_mut().alloc_global(32 * 8, "out");
    gpu.launch(Launch {
        program: program.clone(),
        entry: "main".into(),
        num_threads: 32,
        threads_per_block: 8,
    })
    .expect("launch accepted");
    assert_eq!(
        gpu.run(10_000_000).expect("fault-free").outcome,
        simt_sim::RunOutcome::Completed
    );

    let mut mem = MemoryFabric::new(MemConfig::fx5800());
    mem.alloc_global(32 * 8, "out");
    RefMachine::new(&program, 32, 0, 0)
        .run(&mut mem, 0)
        .unwrap();
    assert_eq!(
        gpu.mem().host_read_global(0, 64),
        mem.host_read_global(0, 64)
    );
}
