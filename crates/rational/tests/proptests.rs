//! Property-based tests for bc-rational: the big-integer layer is checked
//! against native 128-bit arithmetic on values where both apply, and the
//! rational layer against field axioms.

use bc_rational::{BigInt, BigUint, Rational};
use proptest::prelude::*;

fn bu(v: u128) -> BigUint {
    BigUint::from_u128(v)
}

proptest! {
    #[test]
    fn biguint_add_matches_u128(a in 0u128..u128::MAX / 2, b in 0u128..u128::MAX / 2) {
        prop_assert_eq!(bu(a).add(&bu(b)), bu(a + b));
    }

    #[test]
    fn biguint_sub_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(bu(hi).sub(&bu(lo)), bu(hi - lo));
    }

    #[test]
    fn biguint_mul_matches_u128(a in 0u128..u64::MAX as u128, b in 0u128..u64::MAX as u128) {
        prop_assert_eq!(bu(a).mul(&bu(b)), bu(a * b));
    }

    #[test]
    fn biguint_divrem_matches_u128(a in 0u128..u128::MAX, b in 1u128..u128::MAX) {
        let (q, r) = bu(a).divrem(&bu(b));
        prop_assert_eq!(q, bu(a / b));
        prop_assert_eq!(r, bu(a % b));
    }

    #[test]
    fn biguint_divrem_reconstructs(a in prop::collection::vec(any::<u64>(), 1..6),
                                   b in prop::collection::vec(any::<u64>(), 1..4)) {
        // Build multi-limb values from random limbs via shifts and adds.
        let build = |limbs: &[u64]| {
            limbs.iter().enumerate().fold(BigUint::zero(), |acc, (i, &l)| {
                acc.add(&BigUint::from_u64(l).shl(64 * i))
            })
        };
        let n = build(&a);
        let d = build(&b);
        prop_assume!(!d.is_zero());
        let (q, r) = n.divrem(&d);
        prop_assert_eq!(q.mul(&d).add(&r), n);
        prop_assert!(r < d);
    }

    #[test]
    fn biguint_gcd_properties(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
        let g = bu(a).gcd(&bu(b));
        if a == 0 && b == 0 {
            prop_assert!(g.is_zero());
        } else {
            prop_assert!(!g.is_zero());
            if a != 0 {
                prop_assert!(bu(a).divrem(&g).1.is_zero());
            }
            if b != 0 {
                prop_assert!(bu(b).divrem(&g).1.is_zero());
            }
        }
    }

    #[test]
    fn biguint_shift_round_trip(a in 0u128..u128::MAX, s in 0usize..200) {
        prop_assert_eq!(bu(a).shl(s).shr(s), bu(a));
    }

    #[test]
    fn bigint_add_matches_i128(a in i64::MIN..i64::MAX, b in i64::MIN..i64::MAX) {
        let (a, b) = (a as i128, b as i128);
        prop_assert_eq!(BigInt::from_i128(a).add(&BigInt::from_i128(b)).to_i128(), Some(a + b));
    }

    #[test]
    fn bigint_mul_matches_i128(a in i64::MIN..i64::MAX, b in i64::MIN..i64::MAX) {
        let (a, b) = (a as i128, b as i128);
        prop_assert_eq!(BigInt::from_i128(a).mul(&BigInt::from_i128(b)).to_i128(), Some(a * b));
    }

    #[test]
    fn bigint_divrem_matches_i128(a in i64::MIN..i64::MAX, b in i64::MIN..i64::MAX) {
        prop_assume!(b != 0);
        let (a, b) = (a as i128, b as i128);
        let (q, r) = BigInt::from_i128(a).divrem(&BigInt::from_i128(b));
        prop_assert_eq!(q.to_i128(), Some(a / b));
        prop_assert_eq!(r.to_i128(), Some(a % b));
    }

    #[test]
    fn bigint_ordering_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(
            BigInt::from_i128(a as i128).cmp(&BigInt::from_i128(b as i128)),
            a.cmp(&b)
        );
    }

    #[test]
    fn rational_add_commutes(an in -1000i128..1000, ad in 1i128..1000,
                             bn in -1000i128..1000, bd in 1i128..1000) {
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        prop_assert_eq!(a.add_ref(&b), b.add_ref(&a));
    }

    #[test]
    fn rational_add_associates(an in -100i128..100, ad in 1i128..100,
                               bn in -100i128..100, bd in 1i128..100,
                               cn in -100i128..100, cd in 1i128..100) {
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        let c = Rational::new(cn, cd);
        prop_assert_eq!(a.add_ref(&b).add_ref(&c), a.add_ref(&b.add_ref(&c)));
    }

    #[test]
    fn rational_mul_distributes(an in -100i128..100, ad in 1i128..100,
                                bn in -100i128..100, bd in 1i128..100,
                                cn in -100i128..100, cd in 1i128..100) {
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        let c = Rational::new(cn, cd);
        prop_assert_eq!(
            a.mul_ref(&b.add_ref(&c)),
            a.mul_ref(&b).add_ref(&a.mul_ref(&c))
        );
    }

    #[test]
    fn rational_additive_inverse(an in -1000i128..1000, ad in 1i128..1000) {
        let a = Rational::new(an, ad);
        prop_assert!(a.add_ref(&a.neg_ref()).is_zero());
    }

    #[test]
    fn rational_multiplicative_inverse(an in 1i128..1000, ad in 1i128..1000) {
        let a = Rational::new(an, ad);
        prop_assert_eq!(a.mul_ref(&a.recip()), Rational::one());
    }

    #[test]
    fn rational_ordering_matches_f64(an in -1000i128..1000, ad in 1i128..1000,
                                     bn in -1000i128..1000, bd in 1i128..1000) {
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        let fa = an as f64 / ad as f64;
        let fb = bn as f64 / bd as f64;
        // Only check when the float comparison is unambiguous.
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn rational_sub_then_add_round_trips(an in -1000i128..1000, ad in 1i128..1000,
                                         bn in -1000i128..1000, bd in 1i128..1000) {
        let a = Rational::new(an, ad);
        let b = Rational::new(bn, bd);
        prop_assert_eq!(a.sub_ref(&b).add_ref(&b), a);
    }

    #[test]
    fn rational_floor_ceil_bracket(an in -1000i128..1000, ad in 1i128..1000) {
        let a = Rational::new(an, ad);
        let fl = Rational::from_parts(a.floor(), BigUint::one());
        let ce = Rational::from_parts(a.ceil(), BigUint::one());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(ce.sub_ref(&fl) <= Rational::one());
    }
}

// ---------------------------------------------------------------------
// Small-path / big-path equivalence.
//
// `Rational` keeps word-sized values on an inline fast path and promotes
// to `BigInt`/`BigUint` at overflow. Every operation below is computed
// twice: once through `Rational` (which picks the path) and once through
// a forced-bignum reference built directly from the public big-integer
// API. `from_parts` canonicalizes, so agreement means the two paths are
// bit-for-bit interchangeable, including promotion at overflow and
// demotion when results shrink back.
// ---------------------------------------------------------------------

fn bi(v: i128) -> BigInt {
    BigInt::from_i128(v)
}

fn ref_add(an: i64, ad: u64, bn: i64, bd: u64) -> Rational {
    let num = bi(an as i128)
        .mul(&bi(bd as i128))
        .add(&bi(bn as i128).mul(&bi(ad as i128)));
    Rational::from_parts(num, BigUint::from_u64(ad).mul(&BigUint::from_u64(bd)))
}

fn ref_mul(an: i64, ad: u64, bn: i64, bd: u64) -> Rational {
    Rational::from_parts(
        bi(an as i128).mul(&bi(bn as i128)),
        BigUint::from_u64(ad).mul(&BigUint::from_u64(bd)),
    )
}

proptest! {
    #[test]
    fn small_add_matches_bignum_reference(an in any::<i64>(), ad in 1u64..=u64::MAX,
                                          bn in any::<i64>(), bd in 1u64..=u64::MAX) {
        let a = Rational::new(an as i128, ad as i128);
        let b = Rational::new(bn as i128, bd as i128);
        let expect = ref_add(an, ad, bn, bd);
        prop_assert_eq!(a.add_ref(&b), expect.clone());
        let mut in_place = a.clone();
        in_place.add_assign_ref(&b);
        prop_assert_eq!(in_place, expect);
    }

    #[test]
    fn small_sub_matches_bignum_reference(an in any::<i64>(), ad in 1u64..=u64::MAX,
                                          bn in any::<i64>(), bd in 1u64..=u64::MAX) {
        let a = Rational::new(an as i128, ad as i128);
        let b = Rational::new(bn as i128, bd as i128);
        let num = bi(an as i128)
            .mul(&bi(bd as i128))
            .sub(&bi(bn as i128).mul(&bi(ad as i128)));
        let expect =
            Rational::from_parts(num, BigUint::from_u64(ad).mul(&BigUint::from_u64(bd)));
        prop_assert_eq!(a.sub_ref(&b), expect.clone());
        let mut in_place = a.clone();
        in_place.sub_assign_ref(&b);
        prop_assert_eq!(in_place, expect);
    }

    #[test]
    fn small_mul_matches_bignum_reference(an in any::<i64>(), ad in 1u64..=u64::MAX,
                                          bn in any::<i64>(), bd in 1u64..=u64::MAX) {
        let a = Rational::new(an as i128, ad as i128);
        let b = Rational::new(bn as i128, bd as i128);
        let expect = ref_mul(an, ad, bn, bd);
        prop_assert_eq!(a.mul_ref(&b), expect.clone());
        let mut in_place = a.clone();
        in_place.mul_assign_ref(&b);
        prop_assert_eq!(in_place, expect);
    }

    #[test]
    fn small_div_matches_bignum_reference(an in any::<i64>(), ad in 1u64..=u64::MAX,
                                          bn in any::<i64>(), bd in 1u64..=u64::MAX) {
        prop_assume!(bn != 0);
        let a = Rational::new(an as i128, ad as i128);
        let b = Rational::new(bn as i128, bd as i128);
        // a/b ÷ c/d = (a·d)/(b·c), built entirely in bignum.
        let num = bi(an as i128).mul(&bi(bd as i128));
        let den = bi(ad as i128).mul(&bi(bn as i128));
        let expect = Rational::from_parts(
            if den.is_negative() { num.neg() } else { num },
            den.magnitude().clone(),
        );
        prop_assert_eq!(a.div_ref(&b), expect.clone());
        let mut in_place = a.clone();
        in_place.div_assign_ref(&b);
        prop_assert_eq!(in_place, expect);
    }

    #[test]
    fn small_recip_matches_bignum_reference(an in any::<i64>(), ad in 1u64..=u64::MAX) {
        prop_assume!(an != 0);
        let a = Rational::new(an as i128, ad as i128);
        let num = bi(ad as i128);
        let expect = Rational::from_parts(
            if an < 0 { num.neg() } else { num },
            BigUint::from_u128(an.unsigned_abs() as u128),
        );
        prop_assert_eq!(a.recip(), expect);
    }

    #[test]
    fn small_floor_ceil_match_i128(an in any::<i64>(), ad in 1u64..=u64::MAX) {
        let a = Rational::new(an as i128, ad as i128);
        prop_assert_eq!(a.floor().to_i128(), Some((an as i128).div_euclid(ad as i128)));
        prop_assert_eq!(
            a.ceil().to_i128(),
            Some(-(-(an as i128)).div_euclid(ad as i128))
        );
    }

    #[test]
    fn small_cmp_matches_cross_products(an in any::<i64>(), ad in 1u64..=u64::MAX,
                                        bn in any::<i64>(), bd in 1u64..=u64::MAX) {
        let a = Rational::new(an as i128, ad as i128);
        let b = Rational::new(bn as i128, bd as i128);
        let truth = ((an as i128) * (bd as i128)).cmp(&((bn as i128) * (ad as i128)));
        prop_assert_eq!(a.cmp(&b), truth);
        // min agrees with the ordering.
        let lo = if truth.is_le() { &a } else { &b };
        prop_assert_eq!(&a.min_ref(&b), lo);
    }

    #[test]
    fn promotion_and_demotion_round_trip(an in any::<i64>(), ad in 1u64..=u64::MAX,
                                         bn in any::<i64>(), bd in 1u64..=u64::MAX) {
        let a = Rational::new(an as i128, ad as i128);
        let b = Rational::new(bn as i128, bd as i128);
        prop_assert!(a.is_small() && b.is_small());
        // Whatever tier the intermediates land on, exact arithmetic must
        // round-trip — and a recovered small value must be stored small
        // again (canonical demotion).
        let sum = a.add_ref(&b);
        let back = sum.sub_ref(&b);
        prop_assert_eq!(back.clone(), a.clone());
        prop_assert!(back.is_small());
        if !b.is_zero() {
            let prod = a.mul_ref(&b);
            let back = prod.div_ref(&b);
            prop_assert_eq!(back.clone(), a.clone());
            prop_assert!(back.is_small());
        }
    }

    #[test]
    fn forced_big_operands_agree_with_small(an in -1000i64..1000, ad in 1u64..1000,
                                            bn in -1000i64..1000, bd in 1u64..1000,
                                            shift in 70usize..120) {
        // Scale both operands by 2^shift / 2^shift (numerator and
        // denominator) so they must take the big representation, then
        // check every operation agrees with the small-path result.
        prop_assume!(an != 0 && bn != 0);
        let a_small = Rational::new(an as i128, ad as i128);
        let b_small = Rational::new(bn as i128, bd as i128);
        let scale = |n: i64, d: u64| {
            // (n·2^shift + n') / (d·2^shift + d') with n' = n, d' = d is
            // not equal to n/d, so instead force bigness via an exactly
            // cancelling odd factor: (n·k)/(d·k) with k = 2^shift + 1.
            let k = BigUint::one().shl(shift).add(&BigUint::one());
            let num = bi(n as i128).mul(&BigInt::from_sign_mag(bc_rational::Sign::Positive, k.clone()));
            Rational::from_parts(num, BigUint::from_u64(d).mul(&k))
        };
        let a_big = scale(an, ad);
        let b_big = scale(bn, bd);
        // from_parts reduces the common factor away, so the values are
        // equal and small again — this asserts the reduction itself.
        prop_assert_eq!(a_big.clone(), a_small.clone());
        prop_assert!(a_big.is_small());
        prop_assert_eq!(a_big.add_ref(&b_big), a_small.add_ref(&b_small));
        prop_assert_eq!(a_big.mul_ref(&b_big), a_small.mul_ref(&b_small));
        prop_assert_eq!(a_big.div_ref(&b_big), a_small.div_ref(&b_small));
        prop_assert_eq!(a_big.cmp(&b_big), a_small.cmp(&b_small));
    }

    #[test]
    fn big_results_demote_exactly_once_reduced(an in any::<i64>(), bn in any::<i64>()) {
        // i64-extreme sums overflow the small tier; the value is still
        // exact and demotes back on subtraction.
        let a = Rational::new(an as i128, 1);
        let b = Rational::new(bn as i128, 1);
        let sum = a.add_ref(&b);
        let expect_small = (an as i128 + bn as i128) >= i64::MIN as i128
            && (an as i128 + bn as i128) <= i64::MAX as i128;
        prop_assert_eq!(sum.is_small(), expect_small);
        prop_assert_eq!(sum.sub_ref(&b), a);
    }
}

// ---------------------------------------------------------------------
// `cmp_ratio`: comparison against a word ratio without building it.
//
// `x.cmp_ratio(num, den)` must agree with `x.cmp(&Rational::new(num,
// den))` on both tiers, on exact ties (reduced and unreduced), and on
// values straddling the Small/Big promotion boundary.
// ---------------------------------------------------------------------

/// A multi-limb magnitude from random limbs.
fn from_limbs(limbs: &[u64]) -> BigUint {
    limbs
        .iter()
        .enumerate()
        .fold(BigUint::zero(), |acc, (i, &l)| {
            acc.add(&BigUint::from_u64(l).shl(64 * i))
        })
}

/// The reducing oracle `cmp_ratio` replaces.
fn cmp_ratio_oracle(x: &Rational, num: u64, den: u64) -> std::cmp::Ordering {
    x.cmp(&Rational::new(num as i128, den as i128))
}

proptest! {
    #[test]
    fn cmp_scaled_matches_materialized_products(
        a in prop::collection::vec(any::<u64>(), 0..5), x in any::<u64>(),
        b in prop::collection::vec(any::<u64>(), 0..5), y in any::<u64>(),
    ) {
        let (a, b) = (from_limbs(&a), from_limbs(&b));
        let expect = a.mul(&BigUint::from_u64(x)).cmp(&b.mul(&BigUint::from_u64(y)));
        prop_assert_eq!(a.cmp_scaled(x, &b, y), expect);
        // Equal products: scaling both sides by the other's factor.
        prop_assert_eq!(a.cmp_scaled(y, &a, y), std::cmp::Ordering::Equal);
    }

    #[test]
    fn cmp_ratio_matches_oracle_small_tier(an in any::<i64>(), ad in 1u64..=u64::MAX,
                                           num in any::<u64>(), den in 1u64..=u64::MAX) {
        let x = Rational::new(an as i128, ad as i128);
        prop_assert!(x.is_small());
        prop_assert_eq!(x.cmp_ratio(num, den), cmp_ratio_oracle(&x, num, den));
    }

    #[test]
    fn cmp_ratio_matches_oracle_big_tier(
        n in prop::collection::vec(any::<u64>(), 1..4),
        d in prop::collection::vec(any::<u64>(), 1..4),
        negative in any::<bool>(),
        num in any::<u64>(), den in 1u64..=u64::MAX,
    ) {
        let (n, d) = (from_limbs(&n), from_limbs(&d));
        prop_assume!(!n.is_zero() && !d.is_zero());
        let sign = if negative { bc_rational::Sign::Negative } else { bc_rational::Sign::Positive };
        let x = Rational::from_parts(BigInt::from_sign_mag(sign, n), d);
        prop_assume!(!x.is_small());
        prop_assert_eq!(x.cmp_ratio(num, den), cmp_ratio_oracle(&x, num, den));
        // Near the value itself: a big positive `x` whose numerator and
        // denominator both fit a word ties exactly.
        if let (Some(p), Some(q)) = (x.numer().to_i128(), x.denom().to_u64()) {
            if let Ok(p) = u64::try_from(p) {
                prop_assert_eq!(x.cmp_ratio(p, q), std::cmp::Ordering::Equal);
            }
        }
    }

    #[test]
    fn cmp_ratio_small_tier_unreduced_ties(n in 0u64..1 << 32, d in 1u64..1 << 32,
                                           k in 1u64..1 << 32) {
        let x = Rational::new(n as i128, d as i128);
        prop_assert_eq!(x.cmp_ratio(n * k, d * k), std::cmp::Ordering::Equal);
        prop_assert_eq!(x.cmp_ratio(n * k + 1, d * k), std::cmp::Ordering::Less);
        if n > 0 {
            prop_assert_eq!(x.cmp_ratio(n * k - 1, d * k), std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn cmp_ratio_big_tier_ties_and_neighbours(p in (1u64 << 63)..=u64::MAX, q in 1u64..=u64::MAX) {
        // A numerator above i64::MAX keeps p/q in the big tier whenever
        // the reduced numerator still exceeds it; then num·q == p·den
        // holds for (num, den) = (p, q) without any reduction.
        let x = Rational::new(p as i128, q as i128);
        prop_assert_eq!(x.cmp_ratio(p, q), std::cmp::Ordering::Equal);
        prop_assert_eq!(x.cmp_ratio(p - 1, q), std::cmp::Ordering::Greater);
        if p < u64::MAX {
            prop_assert_eq!(x.cmp_ratio(p + 1, q), std::cmp::Ordering::Less);
        }
        if q < u64::MAX {
            prop_assert_eq!(x.cmp_ratio(p, q + 1), cmp_ratio_oracle(&x, p, q + 1));
        }
        let below = q.saturating_sub(1).max(1);
        prop_assert_eq!(x.cmp_ratio(p, below), cmp_ratio_oracle(&x, p, below));
        prop_assert_eq!(x.neg_ref().cmp_ratio(p, q), std::cmp::Ordering::Less);
    }

    #[test]
    fn cmp_ratio_across_the_promotion_boundary(delta in -4i128..5, den in 1u64..=u64::MAX,
                                               num in any::<u64>(), d in 1u64..=u64::MAX) {
        // Numerators within a few units of i64::MAX and i64::MIN, and a
        // denominator either side of u64::MAX: the values land on both
        // tiers.
        for n in [i64::MAX as i128 + delta, i64::MIN as i128 + delta] {
            for dd in [den as i128, u64::MAX as i128 + 1 + delta.abs()] {
                let x = Rational::new(n, dd);
                prop_assert_eq!(x.cmp_ratio(num, d), cmp_ratio_oracle(&x, num, d));
                prop_assert_eq!(
                    x.cmp_ratio(i64::MAX as u64, d),
                    cmp_ratio_oracle(&x, i64::MAX as u64, d)
                );
            }
        }
    }
}

#[test]
fn cmp_ratio_matches_oracle_on_extremes() {
    let two64 = 1i128 << 64;
    let numerators = [
        0,
        1,
        -1,
        i64::MAX as i128,
        i64::MAX as i128 + 1,
        i64::MIN as i128,
        i64::MIN as i128 - 1,
        u64::MAX as i128,
        two64 * 3 + 1,
        -(1i128 << 70) - 3,
    ];
    let denominators = [1, 2, 3, u64::MAX as i128, two64, two64 + 1, i128::MAX];
    let words = [0, 1, 2, 3, i64::MAX as u64, 1 << 63, u64::MAX - 1, u64::MAX];
    let mut big = 0;
    for &n in &numerators {
        for &d in &denominators {
            let x = Rational::new(n, d);
            big += usize::from(!x.is_small());
            for &num in &words {
                for &den in words.iter().filter(|&&w| w != 0) {
                    assert_eq!(
                        x.cmp_ratio(num, den),
                        cmp_ratio_oracle(&x, num, den),
                        "{x} vs {num}/{den}"
                    );
                }
            }
        }
    }
    assert!(big > 0, "the table reaches the big tier");
    assert_eq!(
        Rational::zero().cmp_ratio(0, u64::MAX),
        std::cmp::Ordering::Equal
    );
    assert_eq!(
        Rational::new(-1, 1).cmp_ratio(0, 1),
        std::cmp::Ordering::Less
    );
}

#[test]
#[should_panic(expected = "zero denominator")]
fn cmp_ratio_rejects_zero_denominator() {
    Rational::one().cmp_ratio(1, 0);
}

// ---------------------------------------------------------------------
// Multi-limb GCD and reduction-free reciprocals.
//
// The binary GCD is checked against Euclid's algorithm on `divrem` over
// the operand sizes Theorem 1 produces (up to ~1,250 bits, 20 limbs),
// with shared odd factors and shared powers of two so results are not
// just 1. `recip` swaps a reduced pair without a GCD; it must agree with
// a reducing construction and stay canonical on both tiers.
// ---------------------------------------------------------------------

fn gcd_euclid(mut a: BigUint, mut b: BigUint) -> BigUint {
    while !b.is_zero() {
        let r = a.divrem(&b).1;
        a = std::mem::replace(&mut b, r);
    }
    a
}

fn check_recip(x: &Rational) {
    let inv = x.recip();
    assert_eq!(inv, Rational::one().div_ref(x));
    let swapped = Rational::from_parts(
        BigInt::from_sign_mag(x.numer().sign(), x.denom()),
        x.numer().magnitude().clone(),
    );
    assert_eq!(inv.is_small(), swapped.is_small(), "tier of 1/({x})");
    assert_eq!(inv, swapped);
    assert_eq!(&inv.recip(), x);
}

proptest! {
    #[test]
    fn biguint_gcd_matches_euclid_on_multi_limb_operands(
        a in prop::collection::vec(any::<u64>(), 1..=20),
        b in prop::collection::vec(any::<u64>(), 1..=20),
        common in prop::collection::vec(any::<u64>(), 0..=4),
        shift in 0usize..200,
    ) {
        let c = from_limbs(&common);
        let c = if c.is_zero() { BigUint::one() } else { c };
        let x = from_limbs(&a).mul(&c).shl(shift);
        let y = from_limbs(&b).mul(&c).shl(shift / 2);
        let g = x.gcd(&y);
        prop_assert_eq!(&g, &gcd_euclid(x.clone(), y.clone()));
        prop_assert_eq!(&g, &y.gcd(&x));
    }

    #[test]
    fn recip_matches_one_over_x_on_the_small_tier(an in any::<i64>(), ad in 1u64..=u64::MAX) {
        prop_assume!(an != 0);
        check_recip(&Rational::new(an as i128, ad as i128));
    }

    #[test]
    fn recip_matches_one_over_x_on_the_big_tier(
        n in prop::collection::vec(any::<u64>(), 1..4),
        d in prop::collection::vec(any::<u64>(), 1..4),
        negative in any::<bool>(),
    ) {
        let (n, d) = (from_limbs(&n), from_limbs(&d));
        prop_assume!(!n.is_zero() && !d.is_zero());
        let sign = if negative { bc_rational::Sign::Negative } else { bc_rational::Sign::Positive };
        check_recip(&Rational::from_parts(BigInt::from_sign_mag(sign, n), d));
    }
}

// ---------------------------------------------------------------------
// Reduction on the smaller operands.
//
// add/sub reduce on g = gcd(b, d) and then on g2 = gcd(t, g); mul/div
// cancel crosswise before multiplying (Knuth, TAOCP vol. 2, §4.5.1).
// Each operation is checked against a textbook oracle, `from_parts` of
// the raw cross products, on 1-20-limb operands of both tiers, with
// common factors forced into the operands so that `g > 1` and `g2 > 1`
// run, and on results that are zero or demote to the small tier. The
// GCD's one-limb and unequal-length dispatch is checked against Euclid.
// ---------------------------------------------------------------------

/// A generated operand: sign, numerator and denominator limbs, and
/// whether to cut both to one 63-bit limb (a small-tier value unless a
/// factor is multiplied in).
type Operand = (bool, Vec<u64>, Vec<u64>, bool);

fn operand() -> impl Strategy<Value = Operand> {
    (
        any::<bool>(),
        prop::collection::vec(any::<u64>(), 1..=20),
        prop::collection::vec(any::<u64>(), 1..=20),
        any::<bool>(),
    )
}

/// A factor of 0-3 random limbs (1 when empty or zero).
fn factor() -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..=3).prop_map(|limbs| {
        let f = from_limbs(&limbs);
        if f.is_zero() {
            BigUint::one()
        } else {
            f
        }
    })
}

/// `±(n·nf) / (d·df)`, reduced by `from_parts`.
fn build(op: &Operand, nf: &BigUint, df: &BigUint) -> Rational {
    let (negative, n, d, small) = op;
    let (n, d) = if *small {
        (BigUint::from_u64(n[0] >> 1), BigUint::from_u64(d[0] >> 1))
    } else {
        (from_limbs(n), from_limbs(d))
    };
    let d = if d.is_zero() { BigUint::one() } else { d };
    let sign = if *negative {
        bc_rational::Sign::Negative
    } else {
        bc_rational::Sign::Positive
    };
    Rational::from_parts(BigInt::from_sign_mag(sign, n.mul(nf)), d.mul(df))
}

fn positive(u: BigUint) -> BigInt {
    BigInt::from_sign_mag(bc_rational::Sign::Positive, u)
}

/// `(a·d ± c·b) / (b·d)`, reduced only at the end.
fn textbook_add(x: &Rational, y: &Rational, subtract: bool) -> Rational {
    let (a, b, c, d) = (x.numer(), x.denom(), y.numer(), y.denom());
    let ad = a.mul(&positive(d.clone()));
    let cb = c.mul(&positive(b.clone()));
    let num = if subtract { ad.sub(&cb) } else { ad.add(&cb) };
    Rational::from_parts(num, b.mul(&d))
}

/// `(a·c) / (b·d)`, reduced only at the end.
fn textbook_mul(x: &Rational, y: &Rational) -> Rational {
    Rational::from_parts(x.numer().mul(&y.numer()), x.denom().mul(&y.denom()))
}

/// `(a·d) / (b·c)` with the sign moved to the numerator.
fn textbook_div(x: &Rational, y: &Rational) -> Rational {
    let num = x.numer().mul(&positive(y.denom()));
    let c = y.numer();
    let num = if c.is_negative() { num.neg() } else { num };
    Rational::from_parts(num, x.denom().mul(c.magnitude()))
}

/// `a·d` against `c·b`.
fn textbook_cmp(x: &Rational, y: &Rational) -> std::cmp::Ordering {
    x.numer()
        .mul(&positive(y.denom()))
        .cmp(&y.numer().mul(&positive(x.denom())))
}

/// Every binary operation of `x` and `y` against the textbook oracle.
fn check_against_textbook(x: &Rational, y: &Rational) {
    assert_eq!(x.add_ref(y), textbook_add(x, y, false), "{x} + {y}");
    assert_eq!(x.sub_ref(y), textbook_add(x, y, true), "{x} - {y}");
    assert_eq!(x.mul_ref(y), textbook_mul(x, y), "{x} * {y}");
    if !y.is_zero() {
        assert_eq!(x.div_ref(y), textbook_div(x, y), "{x} / {y}");
    }
    assert_eq!(x.cmp(y), textbook_cmp(x, y), "{x} <=> {y}");
}

proptest! {
    #[test]
    fn add_sub_cmp_with_a_common_denominator_factor(x in operand(), y in operand(), k in factor()) {
        // k divides both denominators, so gcd(b, d) > 1 unless a
        // numerator cancels it.
        let one = BigUint::one();
        let (x, y) = (build(&x, &one, &k), build(&y, &one, &k));
        check_against_textbook(&x, &y);
        check_against_textbook(&y, &x);
    }

    #[test]
    fn mul_div_with_cross_factors(x in operand(), y in operand(), f in factor(), h in factor()) {
        // x = (n1·f)/(d1·h) and y = (n2·h)/(d2·f): x·y cancels f and h
        // crosswise; z = (n2·f)/(d2·h) does the same for x ÷ z.
        let xr = build(&x, &f, &h);
        let yr = build(&y, &h, &f);
        let zr = build(&y, &f, &h);
        check_against_textbook(&xr, &yr);
        check_against_textbook(&xr, &zr);
        check_against_textbook(&yr, &zr);
    }

    #[test]
    fn results_that_cancel_to_zero_or_demote(x in operand(), z in operand(), k in factor()) {
        // y = z − x shares x's denominator, so x + y reduces through
        // g2 = gcd(t, g) > 1 back to z; a small z demotes. w = z / x
        // does the same for multiplication.
        let x = build(&x, &BigUint::one(), &k);
        let z = build(&(z.0, z.1, z.2, true), &BigUint::one(), &BigUint::one());
        prop_assert!(z.is_small());
        let y = textbook_add(&z, &x, true);
        check_against_textbook(&x, &y);
        prop_assert_eq!(x.add_ref(&y), z.clone());
        prop_assert_eq!(y.add_ref(&x), z.clone());
        prop_assert_eq!(z.sub_ref(&y), x.clone());
        prop_assert!(x.sub_ref(&x).is_zero() && x.sub_ref(&x).is_small());
        prop_assert!(x.add_ref(&x.neg_ref()).is_zero());
        prop_assert_eq!(x.cmp(&x), std::cmp::Ordering::Equal);
        prop_assert!(x.mul_ref(&Rational::zero()).is_zero());
        if !x.is_zero() {
            let w = textbook_div(&z, &x);
            check_against_textbook(&x, &w);
            prop_assert_eq!(x.mul_ref(&w), z.clone());
            prop_assert_eq!(z.div_ref(&w), x.clone());
            prop_assert_eq!(x.div_ref(&x), Rational::one());
        }
    }

    #[test]
    fn cmp_decides_close_neighbours(x in operand(), m in factor(), k in 1u64..=u64::MAX) {
        // x ± 1/(b·m·k) differ from x by less than one unit of x's own
        // denominator, so the cross products' bit lengths differ by at
        // most one and the bit-length bound alone cannot always decide.
        let x = build(&x, &BigUint::one(), &BigUint::one());
        let delta = Rational::from_parts(
            BigInt::one(),
            x.denom().mul(&m).mul(&BigUint::from_u64(k)),
        );
        for (y, expect) in [
            (x.add_ref(&delta), std::cmp::Ordering::Less),
            (x.sub_ref(&delta), std::cmp::Ordering::Greater),
        ] {
            prop_assert_eq!(x.cmp(&y), expect);
            prop_assert_eq!(y.cmp(&x), expect.reverse());
            prop_assert_eq!(x.cmp(&y), textbook_cmp(&x, &y));
            prop_assert_eq!(x.neg_ref().cmp(&y.neg_ref()), expect.reverse());
        }
    }

    #[test]
    fn biguint_gcd_with_a_one_limb_operand(
        a in prop::collection::vec(any::<u64>(), 1..=20),
        w in 1u64..=u32::MAX as u64,
        c in 1u64..=u32::MAX as u64,
    ) {
        // y = w·c fits one limb; x shares the factor c.
        let x = from_limbs(&a).mul(&BigUint::from_u64(c));
        let y = BigUint::from_u64(w * c);
        let expect = gcd_euclid(x.clone(), y.clone());
        prop_assert_eq!(&x.gcd(&y), &expect);
        prop_assert_eq!(&y.gcd(&x), &expect);
        prop_assert_eq!(&x.mul(&y).gcd(&y), &y);
    }

    #[test]
    fn biguint_gcd_on_unequal_lengths(
        a in prop::collection::vec(any::<u64>(), 1..=20),
        b in prop::collection::vec(any::<u64>(), 1..=20),
        c in factor(),
    ) {
        let (x, y) = (from_limbs(&a).mul(&c), from_limbs(&b).mul(&c));
        let expect = gcd_euclid(x.clone(), y.clone());
        prop_assert_eq!(&x.gcd(&y), &expect);
        prop_assert_eq!(&y.gcd(&x), &expect);
        // The Euclid step's remainder is zero when one divides the other.
        if !y.is_zero() {
            prop_assert_eq!(&x.mul(&y).gcd(&y), &y);
        }
    }
}

#[test]
fn knuth_branches_run_on_both_tiers() {
    // 1/6 + 1/10: g = gcd(6, 10) = 2, t = 1·5 + 1·3 = 8, g2 = gcd(8, 2)
    // = 2, so the sum is (8/2)/(3·(10/2)) = 4/15. The big case scales
    // both denominators by p = 2^64 + 13 (g = 2p, g2 = 2 again), and
    // subtracting 1/(10p) instead gives t = 2, g2 = 2.
    let p = BigUint::one().shl(64).add(&BigUint::from_u64(13));
    let frac = |n: i128, d: u64, scale: &BigUint| {
        Rational::from_parts(BigInt::from_i128(n), BigUint::from_u64(d).mul(scale))
    };
    for scale in [BigUint::one(), p.clone()] {
        let (x, y) = (frac(1, 6, &scale), frac(1, 10, &scale));
        let g = gcd_euclid(x.denom(), y.denom());
        assert!(!g.is_one());
        let t = BigUint::from_u64(5).add(&BigUint::from_u64(3));
        assert_eq!(gcd_euclid(t, g), BigUint::from_u64(2));
        assert_eq!(x.add_ref(&y), frac(4, 15, &scale));
        assert_eq!(x.sub_ref(&y), frac(1, 15, &scale));
        check_against_textbook(&x, &y);
        // Cross GCDs: (6/35)·(35/6) = 1 and (6/35) ÷ (12/35) = 1/2.
        let (u, v) = (frac(6, 35, &scale), frac(35, 6, &BigUint::one()));
        check_against_textbook(&u, &v);
        check_against_textbook(&u, &frac(12, 35, &scale));
        assert_eq!(u.div_ref(&frac(12, 35, &scale)), Rational::new(1, 2));
    }
    // A small sum whose reduced value still overflows the small tier.
    let max = Rational::new(i64::MAX as i128, 1);
    let half = Rational::new(1, 2);
    check_against_textbook(&max, &half);
    assert!(!max.add_ref(&half).is_small());
}
