//! Pure evaluation of ALU and comparison operations.
//!
//! Keeping evaluation free of simulator state makes the datapath trivially
//! unit- and property-testable, and lets the MIMD-theoretical model in
//! `simt-sim` share exactly the same semantics as the SIMT pipeline.

use crate::instr::{AluOp, CmpOp};

#[inline]
fn f(v: u32) -> f32 {
    f32::from_bits(v)
}

#[inline]
fn b(v: f32) -> u32 {
    v.to_bits()
}

/// A commutative float operation with its NaN propagation spelled out: a
/// NaN operand comes back quieted, the *first* one when both are NaN.
///
/// That is what the hardware instruction does with its operands in source
/// order — but `x + y` leaves the compiler free to swap them, and it
/// decides per inlined copy, so without this the payload of `NaN + NaN`
/// depended on which caller's copy of [`eval_alu`] ran (the pipeline's
/// lane loops and the reference machine disagreed on it).
#[inline]
fn commutative(av: u32, bv: u32, op: impl Fn(f32, f32) -> f32) -> u32 {
    const QUIET: u32 = 0x0040_0000;
    let (x, y) = (f(av), f(bv));
    if x.is_nan() | y.is_nan() {
        (if x.is_nan() { av } else { bv }) | QUIET
    } else {
        b(op(x, y))
    }
}

/// Evaluates an ALU operation over raw 32-bit register values.
///
/// Unary operations ignore `bv`; only `FFma`/`IMad` read `cv`.
///
/// Edge-case semantics (the oracle and the pipeline share this function,
/// so they agree by construction):
///
/// * Integer division/remainder by zero produce `0` (a deterministic
///   simulator convention; real PTX leaves this unspecified), and
///   `i32::MIN / -1` wraps to `i32::MIN` with remainder `0`.
/// * Shifts *clamp* like PTX `shl.b32`/`shr.{u,s}32` rather than masking
///   the amount mod 32: amounts ≥ 32 yield `0` for `shl`/`shr.u32` and
///   the sign fill (`0` or `0xffff_ffff`) for `shr.s32`.
/// * `F2I` (`cvt.s32.f32`) saturates: NaN → `0`, values beyond the `i32`
///   range (incl. ±inf) clamp to `i32::MIN`/`i32::MAX`. `F2U`
///   (`cvt.u32.f32`) maps NaN and anything below zero to `0` and
///   saturates at `u32::MAX` (so `-0.5` → `0`, matching
///   round-toward-zero).
/// * `FRcp`/`FDiv` follow IEEE-754: `1/±0 → ±inf`, `0/0 → NaN`.
/// * `FAdd`/`FMul` return a NaN operand quieted, payload kept — the first
///   operand's when both are NaN. `FMin`/`FMax` return the other operand
///   when one is NaN; which payload comes back when *both* are (and from
///   `FFma` with more than one NaN operand) is a NaN but otherwise
///   unspecified — `f32::min`/`max`/`mul_add` do not say, and no rule is
///   imposed on them here.
#[inline]
pub fn eval_alu(op: AluOp, av: u32, bv: u32, cv: u32) -> u32 {
    match op {
        AluOp::IAdd => av.wrapping_add(bv),
        AluOp::ISub => av.wrapping_sub(bv),
        AluOp::IMul => av.wrapping_mul(bv),
        AluOp::IMad => av.wrapping_mul(bv).wrapping_add(cv),
        AluOp::IMin => (av as i32).min(bv as i32) as u32,
        AluOp::IMax => (av as i32).max(bv as i32) as u32,
        AluOp::IDiv => {
            if bv == 0 {
                0
            } else {
                ((av as i32).wrapping_div(bv as i32)) as u32
            }
        }
        AluOp::IRem => {
            if bv == 0 {
                0
            } else {
                ((av as i32).wrapping_rem(bv as i32)) as u32
            }
        }
        AluOp::And => av & bv,
        AluOp::Or => av | bv,
        AluOp::Xor => av ^ bv,
        AluOp::Not => !av,
        AluOp::Shl => {
            if bv >= 32 {
                0
            } else {
                av << bv
            }
        }
        AluOp::ShrU => {
            if bv >= 32 {
                0
            } else {
                av >> bv
            }
        }
        AluOp::ShrS => ((av as i32) >> bv.min(31)) as u32,
        AluOp::FAdd => commutative(av, bv, |x, y| x + y),
        AluOp::FSub => b(f(av) - f(bv)),
        AluOp::FMul => commutative(av, bv, |x, y| x * y),
        AluOp::FDiv => b(f(av) / f(bv)),
        AluOp::FMin => b(f(av).min(f(bv))),
        AluOp::FMax => b(f(av).max(f(bv))),
        AluOp::FFma => b(f(av).mul_add(f(bv), f(cv))),
        AluOp::FSqrt => b(f(av).sqrt()),
        AluOp::FRcp => b(1.0 / f(av)),
        AluOp::FAbs => b(f(av).abs()),
        AluOp::FNeg => b(-f(av)),
        AluOp::FFloor => b(f(av).floor()),
        AluOp::I2F => b(av as i32 as f32),
        AluOp::F2I => {
            let x = f(av);
            if x.is_nan() {
                0
            } else {
                (x as i32) as u32
            }
        }
        AluOp::U2F => b(av as f32),
        AluOp::F2U => {
            let x = f(av);
            if x.is_nan() || x < 0.0 {
                0
            } else {
                x as u32
            }
        }
    }
}

/// Evaluates a comparison, producing the predicate value.
///
/// Float comparisons are *ordered*: any comparison with NaN (other than
/// `NeF`) is false, matching PTX `setp.lt.f32` etc.
#[inline]
pub fn eval_cmp(cmp: CmpOp, av: u32, bv: u32) -> bool {
    match cmp {
        CmpOp::EqS => (av as i32) == (bv as i32),
        CmpOp::NeS => (av as i32) != (bv as i32),
        CmpOp::LtS => (av as i32) < (bv as i32),
        CmpOp::LeS => (av as i32) <= (bv as i32),
        CmpOp::GtS => (av as i32) > (bv as i32),
        CmpOp::GeS => (av as i32) >= (bv as i32),
        CmpOp::LtU => av < bv,
        CmpOp::LeU => av <= bv,
        CmpOp::GtU => av > bv,
        CmpOp::GeU => av >= bv,
        CmpOp::EqF => f(av) == f(bv),
        CmpOp::NeF => f(av) != f(bv),
        CmpOp::LtF => f(av) < f(bv),
        CmpOp::LeF => f(av) <= f(bv),
        CmpOp::GtF => f(av) > f(bv),
        CmpOp::GeF => f(av) >= f(bv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn integer_ops() {
        assert_eq!(eval_alu(AluOp::IAdd, 2, 3, 0), 5);
        assert_eq!(eval_alu(AluOp::ISub, 2, 3, 0), (-1i32) as u32);
        assert_eq!(eval_alu(AluOp::IMul, 7, 6, 0), 42);
        assert_eq!(eval_alu(AluOp::IMad, 3, 4, 5), 17);
        assert_eq!(eval_alu(AluOp::IMin, (-4i32) as u32, 3, 0), (-4i32) as u32);
        assert_eq!(eval_alu(AluOp::IMax, (-4i32) as u32, 3, 0), 3);
        assert_eq!(eval_alu(AluOp::IDiv, 7, 2, 0), 3);
        assert_eq!(eval_alu(AluOp::IRem, 7, 2, 0), 1);
    }

    #[test]
    fn division_by_zero_is_deterministic() {
        assert_eq!(eval_alu(AluOp::IDiv, 7, 0, 0), 0);
        assert_eq!(eval_alu(AluOp::IRem, 7, 0, 0), 0);
    }

    #[test]
    fn shifts() {
        assert_eq!(eval_alu(AluOp::Shl, 1, 4, 0), 16);
        assert_eq!(eval_alu(AluOp::ShrU, 0x8000_0000, 31, 0), 1);
        assert_eq!(
            eval_alu(AluOp::ShrS, 0x8000_0000, 31, 0),
            0xffff_ffff,
            "arithmetic shift sign-extends"
        );
    }

    #[test]
    fn shifts_clamp_at_32_like_ptx() {
        // PTX `shl.b32`/`shr.u32` produce 0 for amounts >= 32 (no mod-32
        // masking); `shr.s32` saturates to the sign fill.
        for amt in [32u32, 33, 255, u32::MAX] {
            assert_eq!(eval_alu(AluOp::Shl, 0xdead_beef, amt, 0), 0, "shl {amt}");
            assert_eq!(eval_alu(AluOp::ShrU, 0xdead_beef, amt, 0), 0, "shr.u {amt}");
            assert_eq!(
                eval_alu(AluOp::ShrS, 0x8000_0000, amt, 0),
                0xffff_ffff,
                "shr.s of negative fills with sign at {amt}"
            );
            assert_eq!(
                eval_alu(AluOp::ShrS, 0x7fff_ffff, amt, 0),
                0,
                "shr.s of positive drains to 0 at {amt}"
            );
        }
        // Amounts < 32 still behave normally.
        assert_eq!(eval_alu(AluOp::Shl, 1, 31, 0), 0x8000_0000);
        assert_eq!(eval_alu(AluOp::ShrU, 0x8000_0000, 31, 0), 1);
    }

    #[test]
    fn division_overflow_wraps() {
        let min = i32::MIN as u32;
        assert_eq!(eval_alu(AluOp::IDiv, min, (-1i32) as u32, 0), min);
        assert_eq!(eval_alu(AluOp::IRem, min, (-1i32) as u32, 0), 0);
    }

    #[test]
    fn float_ops() {
        let one = 1.0f32.to_bits();
        let two = 2.0f32.to_bits();
        assert_eq!(eval_alu(AluOp::FAdd, one, two, 0), 3.0f32.to_bits());
        assert_eq!(eval_alu(AluOp::FMul, two, two, 0), 4.0f32.to_bits());
        assert_eq!(eval_alu(AluOp::FSqrt, 4.0f32.to_bits(), 0, 0), two);
        assert_eq!(eval_alu(AluOp::FRcp, two, 0, 0), 0.5f32.to_bits());
        assert_eq!(
            eval_alu(AluOp::FFma, two, two, one),
            5.0f32.to_bits(),
            "fma is fused"
        );
        assert_eq!(eval_alu(AluOp::FNeg, one, 0, 0), (-1.0f32).to_bits());
        assert_eq!(eval_alu(AluOp::FFloor, 1.75f32.to_bits(), 0, 0), one);
    }

    /// `FAdd`/`FMul` hand a NaN operand back quieted with its payload, the
    /// first operand's when both are NaN — whichever way round the
    /// compiler chose to feed the hardware in this copy of `eval_alu`.
    #[test]
    fn commutative_float_ops_propagate_the_first_nan() {
        let (n1, n2) = (0xffff_ff91u32, 0xffff_ffe3u32);
        let signalling = 0x7f80_0001u32;
        let two = 2.0f32.to_bits();
        for op in [AluOp::FAdd, AluOp::FMul] {
            assert_eq!(eval_alu(op, n1, n2, 0), n1, "{op:?}");
            assert_eq!(eval_alu(op, n2, n1, 0), n2, "{op:?}");
            assert_eq!(eval_alu(op, two, n2, 0), n2, "{op:?}");
            assert_eq!(eval_alu(op, n1, two, 0), n1, "{op:?}");
            assert_eq!(eval_alu(op, signalling, n1, 0), 0x7fc0_0001, "{op:?}");
        }
        // No NaN in: whatever the hardware makes of it.
        let inf = f32::INFINITY.to_bits();
        assert!(
            f32::from_bits(eval_alu(AluOp::FAdd, inf, f32::NEG_INFINITY.to_bits(), 0)).is_nan()
        );
        assert!(f32::from_bits(eval_alu(AluOp::FMul, inf, 0, 0)).is_nan());
    }

    #[test]
    fn conversions() {
        assert_eq!(
            eval_alu(AluOp::I2F, (-3i32) as u32, 0, 0),
            (-3.0f32).to_bits()
        );
        assert_eq!(
            eval_alu(AluOp::F2I, (-3.7f32).to_bits(), 0, 0),
            (-3i32) as u32
        );
        assert_eq!(eval_alu(AluOp::U2F, 5, 0, 0), 5.0f32.to_bits());
        assert_eq!(eval_alu(AluOp::F2U, 5.9f32.to_bits(), 0, 0), 5);
        assert_eq!(eval_alu(AluOp::F2U, (-1.0f32).to_bits(), 0, 0), 0);
        assert_eq!(eval_alu(AluOp::F2I, f32::NAN.to_bits(), 0, 0), 0);
    }

    #[test]
    fn f2i_saturates_out_of_range() {
        let max = i32::MAX as u32;
        let min = i32::MIN as u32;
        assert_eq!(eval_alu(AluOp::F2I, f32::INFINITY.to_bits(), 0, 0), max);
        assert_eq!(eval_alu(AluOp::F2I, f32::NEG_INFINITY.to_bits(), 0, 0), min);
        assert_eq!(eval_alu(AluOp::F2I, 3.0e9f32.to_bits(), 0, 0), max);
        assert_eq!(eval_alu(AluOp::F2I, (-3.0e9f32).to_bits(), 0, 0), min);
        assert_eq!(eval_alu(AluOp::F2I, f32::MAX.to_bits(), 0, 0), max);
    }

    #[test]
    fn f2u_saturates_and_zeroes_negatives() {
        assert_eq!(eval_alu(AluOp::F2U, f32::NAN.to_bits(), 0, 0), 0);
        assert_eq!(eval_alu(AluOp::F2U, f32::NEG_INFINITY.to_bits(), 0, 0), 0);
        assert_eq!(eval_alu(AluOp::F2U, (-0.5f32).to_bits(), 0, 0), 0);
        assert_eq!(eval_alu(AluOp::F2U, (-0.0f32).to_bits(), 0, 0), 0);
        assert_eq!(
            eval_alu(AluOp::F2U, f32::INFINITY.to_bits(), 0, 0),
            u32::MAX
        );
        assert_eq!(eval_alu(AluOp::F2U, 1.0e12f32.to_bits(), 0, 0), u32::MAX);
    }

    #[test]
    fn rcp_and_div_at_signed_zero() {
        let pz = 0.0f32.to_bits();
        let nz = (-0.0f32).to_bits();
        assert_eq!(eval_alu(AluOp::FRcp, pz, 0, 0), f32::INFINITY.to_bits());
        assert_eq!(eval_alu(AluOp::FRcp, nz, 0, 0), f32::NEG_INFINITY.to_bits());
        assert_eq!(
            eval_alu(AluOp::FDiv, 1.0f32.to_bits(), nz, 0),
            f32::NEG_INFINITY.to_bits()
        );
        // 0/0 is a NaN (any NaN payload compares unequal to itself).
        let q = f32::from_bits(eval_alu(AluOp::FDiv, pz, pz, 0));
        assert!(q.is_nan());
    }

    #[test]
    fn comparisons() {
        assert!(eval_cmp(CmpOp::LtS, (-1i32) as u32, 0));
        assert!(
            !eval_cmp(CmpOp::LtU, (-1i32) as u32, 0),
            "unsigned -1 is large"
        );
        assert!(eval_cmp(CmpOp::GeU, (-1i32) as u32, 0));
        assert!(eval_cmp(CmpOp::LtF, 1.0f32.to_bits(), 2.0f32.to_bits()));
        let nan = f32::NAN.to_bits();
        assert!(!eval_cmp(CmpOp::LtF, nan, nan));
        assert!(!eval_cmp(CmpOp::EqF, nan, nan));
        assert!(eval_cmp(CmpOp::NeF, nan, nan));
    }

    proptest! {
        #[test]
        fn add_sub_inverse(a: u32, b: u32) {
            let s = eval_alu(AluOp::IAdd, a, b, 0);
            prop_assert_eq!(eval_alu(AluOp::ISub, s, b, 0), a);
        }

        #[test]
        fn min_max_partition(a: i32, b: i32) {
            let mn = eval_alu(AluOp::IMin, a as u32, b as u32, 0) as i32;
            let mx = eval_alu(AluOp::IMax, a as u32, b as u32, 0) as i32;
            prop_assert!(mn <= mx);
            prop_assert!((mn == a && mx == b) || (mn == b && mx == a));
        }

        #[test]
        fn not_is_involution(a: u32) {
            prop_assert_eq!(eval_alu(AluOp::Not, eval_alu(AluOp::Not, a, 0, 0), 0, 0), a);
        }

        #[test]
        fn float_neg_involution(a in proptest::num::f32::NORMAL) {
            let once = eval_alu(AluOp::FNeg, a.to_bits(), 0, 0);
            let twice = eval_alu(AluOp::FNeg, once, 0, 0);
            prop_assert_eq!(twice, a.to_bits());
        }

        #[test]
        fn cmp_lt_ge_complement_signed(a: i32, b: i32) {
            prop_assert_ne!(
                eval_cmp(CmpOp::LtS, a as u32, b as u32),
                eval_cmp(CmpOp::GeS, a as u32, b as u32)
            );
        }

        #[test]
        fn mad_matches_mul_add(a: u32, b: u32, c: u32) {
            let mad = eval_alu(AluOp::IMad, a, b, c);
            let mul = eval_alu(AluOp::IMul, a, b, 0);
            prop_assert_eq!(mad, eval_alu(AluOp::IAdd, mul, c, 0));
        }
    }
}
