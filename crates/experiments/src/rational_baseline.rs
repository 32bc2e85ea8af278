//! The forced-bignum `Rational` baseline.
//!
//! `bench_report` (`BENCH_rational.json`) and the `rational_ops`
//! Criterion bench time the two-tier `Rational`'s small-word fast path
//! against these functions. Each computes the same value with every
//! intermediate routed through `BigInt`/`BigUint` heap limbs and reduced
//! by a full bignum GCD in [`Rational::from_parts`]: the arithmetic every
//! operation performed before the small-word tier existed.

use bc_rational::{BigInt, BigUint, Rational, Sign};

/// `n` word-sized rationals from a fixed LCG (no RNG dependency):
/// numerators in `[-5000, 5000)`, denominators in `[1, 10000]`.
pub fn small_operands(n: usize) -> Vec<Rational> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    (0..n)
        .map(|_| {
            let num = next() as i64 % 10_000 - 5_000;
            let den = next() % 10_000 + 1;
            Rational::new(num as i128, den as i128)
        })
        .collect()
}

fn big_of(mag: BigUint) -> BigInt {
    BigInt::from_sign_mag(Sign::Positive, mag)
}

/// `a + b`: bignum cross products, then a full bignum GCD reduction.
pub fn big_add(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = (a.numer(), a.denom());
    let (bn, bd) = (b.numer(), b.denom());
    let num = an
        .mul(&big_of(bd.clone()))
        .add(&bn.mul(&big_of(ad.clone())));
    Rational::from_parts(num, ad.mul(&bd))
}

/// `a * b`: bignum products, then a full bignum GCD reduction.
pub fn big_mul(a: &Rational, b: &Rational) -> Rational {
    Rational::from_parts(a.numer().mul(&b.numer()), a.denom().mul(&b.denom()))
}

/// `cell - factor * pv`, the simplex pivot-row update that
/// `Rational::sub_mul_assign_ref` fuses: [`big_mul`], then a bignum
/// subtraction over cross products and a second reduction.
pub fn big_sub_mul(cell: &Rational, factor: &Rational, pv: &Rational) -> Rational {
    let prod = big_mul(factor, pv);
    let (cn, cd) = (cell.numer(), cell.denom());
    let (pn, pd) = (prod.numer(), prod.denom());
    let num = cn
        .mul(&big_of(pd.clone()))
        .sub(&pn.mul(&big_of(cd.clone())));
    Rational::from_parts(num, cd.mul(&pd))
}
