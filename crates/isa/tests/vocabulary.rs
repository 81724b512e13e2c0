//! The instruction set's outside behaviour, pinned as two digests: what
//! the assembler makes of every spelling it could be handed, and what the
//! decoder makes of every first word. A change to how the vocabulary is
//! declared must leave both digests as they are.

use simt_isa::codec::{fnv1a64_extend, FNV1A64_INIT};
use simt_isa::{assemble, decode};

/// Every base word the assembler knows, and one it does not.
const BASES: [&str; 31] = [
    "nop", "exit", "bra", "spawn", "mov", "setp", "selp", "ld", "st", "cvt", "add", "sub", "mul",
    "mad", "fma", "min", "max", "div", "rem", "and", "or", "xor", "not", "shl", "shr", "sqrt",
    "rcp", "abs", "neg", "floor", "frob",
];

/// The dotted parts suffixes are made of: types, modifiers, comparisons
/// and address spaces, `spawnmem` among them.
const PARTS: [&str; 18] = [
    "s32", "u32", "b32", "f32", "lo", "rn", "rzi", "v4", "eq", "ne", "lt", "le", "gt", "ge",
    "global", "shared", "spawn", "spawnmem",
];

/// Operand lists: none, a label, a spawn, each arity with registers, a
/// special register, integer and float immediates for `setp` and a binary
/// op, a `selp`, and both address forms.
const OPERANDS: [&str; 13] = [
    "",
    "k",
    "$k, r1",
    "r1, r2",
    "r1, %spawnmem",
    "p1, r2, -3",
    "p1, r2, 2.5",
    "r1, r2, -3",
    "r1, r2, 2.5",
    "r1, 0x7, r3, r4",
    "r1, r2, r3, p2",
    "r1, [r2-8]",
    "[r2+0x10], r3",
];

/// Extends the digest by one outcome and its line end.
fn fold(h: u64, outcome: &str) -> u64 {
    fnv1a64_extend(fnv1a64_extend(h, outcome.as_bytes()), b"\n")
}

/// Every suffix of zero to three parts: `""`, `".s32"`, `".s32.u32"`, …
fn suffixes() -> Vec<String> {
    let mut all = vec![String::new()];
    let mut last = vec![String::new()];
    for _ in 0..3 {
        last = last
            .iter()
            .flat_map(|s| PARTS.iter().map(move |p| format!("{s}.{p}")))
            .collect();
        all.extend(last.iter().cloned());
    }
    all
}

#[test]
fn every_spelling_assembles_as_before() {
    let suffixes = suffixes();
    let (mut digest, mut cases) = (FNV1A64_INIT, 0usize);
    for base in BASES {
        for suffix in &suffixes {
            for ops in OPERANDS {
                let src = format!(".kernel k\nk:\n    {base}{suffix} {ops}\n    exit\n");
                let outcome = match assemble(&src) {
                    Ok(p) => p.instrs()[0].to_string(),
                    Err(e) => format!("error {e}"),
                };
                digest = fold(digest, &outcome);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 31 * 6175 * 13);
    assert_eq!(digest, 0xb2da_7df6_6801_90c1, "{digest:#018x}");
}

#[test]
fn every_first_word_decodes_as_before() {
    let mut digest = FNV1A64_INIT;
    for opcode in 0..=255u32 {
        for aux in 0..=255u32 {
            let w0 = opcode | 5 << 8 | aux << 16 | 0x82 << 24;
            let outcome = format!("{:?}", decode([w0, 0x0381_8103, 0xdead_beef]));
            digest = fold(digest, &outcome);
        }
    }
    assert_eq!(digest, 0x244f_6506_1cd3_dc06, "{digest:#018x}");
}
