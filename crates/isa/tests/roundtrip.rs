//! Assembler/disassembler round-trip: `assemble → to_source → assemble`
//! must reproduce an identical program (instructions, labels, entry
//! points, resources) over the full generated-program corpus.
//!
//! Burned-down bugs pinned here:
//! * `bra`/`spawn` printed numeric targets the assembler could not
//!   re-parse (fixed by the numeric-target fallback in `resolve`).
//! * `Program`'s `Display` dropped `.kernel` and resource directives, so
//!   spawn programs failed entry-point validation on re-assembly (fixed
//!   by `Program::to_source`).

use proptest::prelude::*;
use simt_isa::gen::{generate, GenConfig};
use simt_isa::{
    assemble_named, AluOp, CmpOp, Instr, Instruction, Operand, Pred, Program, Reg, Space, Special,
    Width,
};

fn roundtrip(p: &Program) {
    let src = p.to_source();
    let again = assemble_named("generated", &src).unwrap_or_else(|e| {
        panic!("round-trip source failed to assemble: {e}\n{src}");
    });
    assert_eq!(p.instrs(), again.instrs(), "instructions differ\n{src}");
    assert_eq!(p.labels(), again.labels(), "labels differ\n{src}");
    assert_eq!(
        p.resource_usage(),
        again.resource_usage(),
        "resources differ\n{src}"
    );
    let entries = |q: &Program| -> Vec<(String, usize)> {
        let mut v: Vec<_> = q
            .entry_points()
            .iter()
            .map(|e| (e.name.clone(), e.pc))
            .collect();
        v.sort();
        v
    };
    assert_eq!(entries(p), entries(&again), "entry points differ\n{src}");
}

#[test]
fn generated_corpus_round_trips() {
    for seed in 0..300 {
        let g = generate(&GenConfig::from_seed(seed));
        roundtrip(&g.program);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_round_trip(seed in any::<u64>()) {
        let g = generate(&GenConfig::from_seed(seed));
        roundtrip(&g.program);
    }
}

#[test]
fn numeric_branch_targets_assemble() {
    // Regression: the disassembler prints anonymous targets numerically.
    let p = assemble_named("n", "start:\nnop\nbra start").unwrap();
    roundtrip(&p);
    let direct = assemble_named("n", "nop\nbra 0").unwrap();
    assert_eq!(p.instrs(), direct.instrs());
}

#[test]
fn spawn_programs_round_trip_with_directives() {
    let src = r#"
        .spawnstate 48
        .local 64
        .kernel main
        .kernel child
        main:
            mov.u32 r1, %spawnmem
            spawn $child, r1
            exit
        child:
            mov.u32 r2, %spawnmem
            ld.spawn r3, [r2+0]
            exit
    "#;
    let p = assemble_named("s", src).unwrap();
    roundtrip(&p);
}

#[test]
fn negative_offsets_and_hex_immediates_round_trip() {
    let src = r#"
        mov.u32 r1, -2147483648
        add.s32 r2, r1, 255
        st.global.u32 [r2-4], r1
        ld.global.v4 r4, [r2+16]
        @!p0 xor.b32 r3, r1, 0xdeadbeef
        exit
    "#;
    let p = assemble_named("h", src).unwrap();
    roundtrip(&p);
}

/// The most negative offset is written `[r2-2147483648]` and, equally,
/// `[r2+2147483648]`; the disassembler prints the first.
#[test]
fn the_most_negative_offset_assembles_in_both_spellings() {
    let minus = assemble_named("m", "ld.global.u32 r1, [r2-2147483648]\nexit").unwrap();
    let plus = assemble_named("p", "ld.global.u32 r1, [r2+2147483648]\nexit").unwrap();
    assert_eq!(minus.instrs(), plus.instrs());
    assert!(matches!(
        plus.instrs()[0].op,
        Instr::Ld {
            offset: i32::MIN,
            ..
        }
    ));
    roundtrip(&plus);
}

/// Every variant of the vocabulary, the ones the generated corpus never
/// draws included, prints as text that assembles back to itself: each ALU
/// operation at its arity with its last source a register and then an
/// immediate, each comparison both ways, each special register, and a
/// load and a store of each width in each space.
#[test]
fn every_variant_prints_and_reassembles_to_itself() {
    let lasts = [Operand::Reg(Reg(3)), Operand::Imm(0xdead_beef)];
    let mut cases = Vec::new();
    for op in AluOp::ALL {
        for last in lasts {
            let mut srcs = [Operand::Imm(0); 3];
            srcs[..op.arity()].fill(Operand::Reg(Reg(2)));
            srcs[op.arity() - 1] = last;
            let [a, b, c] = srcs;
            cases.push(Instr::Alu {
                op,
                d: Reg(1),
                a,
                b,
                c,
            });
        }
    }
    for cmp in CmpOp::ALL {
        for b in lasts {
            cases.push(Instr::Setp {
                cmp,
                p: Pred(1),
                a: Operand::Reg(Reg(2)),
                b,
            });
        }
    }
    for s in Special::ALL {
        cases.push(Instr::ReadSpecial { d: Reg(1), s });
    }
    for space in Space::ALL {
        for width in Width::ALL {
            cases.push(Instr::Ld {
                space,
                d: Reg(4),
                addr: Reg(2),
                offset: -8,
                width,
            });
            cases.push(Instr::St {
                space,
                a: Reg(4),
                addr: Reg(2),
                offset: 16,
                width,
            });
        }
    }
    assert_eq!(cases.len(), 2 * 31 + 2 * 16 + 6 + 2 * 5 * 2);
    for op in cases {
        let text = Instruction::new(op).to_string();
        let p = assemble_named("v", &format!("{text}\nexit"))
            .unwrap_or_else(|e| panic!("`{text}` does not assemble: {e}"));
        assert_eq!(p.instrs()[0], Instruction::new(op), "{text}");
    }
}
