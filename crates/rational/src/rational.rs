//! Exact rational numbers.
//!
//! Steady-state rates, tree weights, and ε-allocations are all rationals;
//! keeping them exact means the "did this tree reach the optimal rate?"
//! verdict in the experiment harness is a true comparison, never a float
//! tolerance.
//!
//! # Two-tier representation
//!
//! Almost every rational this codebase touches has a numerator and
//! denominator that fit in one machine word: tree weights start as small
//! integers, and the Theorem 1 fold / simplex pivots only grow them
//! slowly. The representation therefore has two tiers:
//!
//! * **Small** — `i64` numerator over `u64` denominator, all arithmetic
//!   in widened `i128`/`u128` intermediates with a word-level binary GCD.
//!   No heap allocation at all.
//! * **Big** — the original [`BigInt`]/[`BigUint`] pair, used only when a
//!   reduced result genuinely does not fit the small tier.
//!
//! Construction and every operation **canonicalize**: a value is stored
//! small if and only if its reduced numerator fits `i64` and denominator
//! fits `u64`. Promotion happens exactly at overflow, and any big result
//! that shrinks back demotes again. Because the mapping value → variant
//! is injective, the derived `Eq`/`Hash` remain consistent, and results
//! are bit-for-bit identical whichever path computed them.
//!
//! # Reduction on the smaller operands
//!
//! Operands are already reduced, so no operation takes the GCD of its
//! full cross products. Following Knuth (TAOCP vol. 2, §4.5.1), as GMP's
//! `mpq` does, each GCD runs on the operands' own parts:
//!
//! * **add/sub** `a/b ± c/d`: `g = gcd(b, d)`. If `g = 1`, `(a·d ± c·b) /
//!   (b·d)` is already reduced. Otherwise `t = a·(d/g) ± c·(b/g)` can
//!   share a factor only with `g`, so with `g2 = gcd(t, g)` the result
//!   is `(t/g2) / ((b/g)·(d/g2))`.
//! * **mul/div** `(a/b)·(c/d)`: the cross GCDs `g1 = gcd(a, d)` and
//!   `g2 = gcd(c, b)` leave `((a/g1)·(c/g2)) / ((b/g2)·(d/g1))` reduced;
//!   division multiplies by the swapped pair `d/c`.
//!
//! On the small tier every one of these GCDs is the word-level `gcd_u64`
//! on 64-bit values (`t` is taken modulo `g` first), never a GCD of
//! 128-bit products. On the big tier the operands are borrowed, not
//! cloned, and a GCD with a one-limb operand (a small-tier denominator,
//! say) finishes in one pass over the other's limbs (see
//! [`BigUint::gcd`]). Big-tier comparison decides by sign, then by the
//! bit lengths of the cross products, and multiplies only when those
//! cannot decide.

use crate::bigint::{BigInt, Sign};
use crate::biguint::{gcd_u128, gcd_u64, BigUint};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Internal storage. `Small` holds a reduced `num/den` with `den ≥ 1`;
/// `Big` is used only for values whose reduced form does not fit, so the
/// derived equality never has to compare across variants.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small { num: i64, den: u64 },
    Big { num: BigInt, den: BigUint },
}

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive and `gcd(|num|, den) = 1`
/// (zero is stored as `0/1`); the small representation is used whenever
/// the reduced value fits it (see the module docs).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    repr: Repr,
}

/// Does a reduced magnitude pair fit the small tier?
fn fits_small(negative: bool, nmag: u128, dmag: u128) -> bool {
    let num_limit = if negative {
        1u128 << 63 // |i64::MIN|
    } else {
        i64::MAX as u128
    };
    nmag <= num_limit && dmag <= u64::MAX as u128
}

/// Signed `i64` from a magnitude known to fit (`nmag ≤ 2^63` when
/// negative, `≤ 2^63 − 1` otherwise).
fn small_num(negative: bool, nmag: u128) -> i64 {
    if negative {
        (nmag as u64).wrapping_neg() as i64
    } else {
        nmag as i64
    }
}

impl Rational {
    /// The value 0.
    pub fn zero() -> Self {
        Rational {
            repr: Repr::Small { num: 0, den: 1 },
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        Rational {
            repr: Repr::Small { num: 1, den: 1 },
        }
    }

    /// Builds a canonical value from an already-reduced sign/magnitude
    /// pair: small if it fits, big otherwise.
    fn from_reduced(negative: bool, nmag: u128, dmag: u128) -> Self {
        if nmag == 0 {
            return Rational::zero();
        }
        if fits_small(negative, nmag, dmag) {
            Rational {
                repr: Repr::Small {
                    num: small_num(negative, nmag),
                    den: dmag as u64,
                },
            }
        } else {
            let sign = if negative {
                Sign::Negative
            } else {
                Sign::Positive
            };
            Rational {
                repr: Repr::Big {
                    num: BigInt::from_sign_mag(sign, BigUint::from_u128(nmag)),
                    den: BigUint::from_u128(dmag),
                },
            }
        }
    }

    /// Reduces a word-sized sign/magnitude pair and canonicalizes.
    fn reduce128(negative: bool, nmag: u128, dmag: u128) -> Self {
        debug_assert!(dmag != 0);
        if nmag == 0 {
            return Rational::zero();
        }
        let g = gcd_u128(nmag, dmag);
        Rational::from_reduced(negative, nmag / g, dmag / g)
    }

    /// Builds `num/den` from machine integers. Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rational with zero denominator");
        Rational::reduce128(
            (num < 0) != (den < 0),
            num.unsigned_abs(),
            den.unsigned_abs(),
        )
    }

    /// Builds from big parts, normalizing (and demoting to the small
    /// tier when the reduced value fits). Panics if `den == 0`.
    pub fn from_parts(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "Rational with zero denominator");
        if num.is_zero() {
            return Rational::zero();
        }
        let g = num.magnitude().gcd(&den);
        if g.is_one() {
            return Rational::from_reduced_parts(num, den);
        }
        let mag = num.magnitude().divrem(&g).0;
        Rational::from_reduced_parts(BigInt::from_sign_mag(num.sign(), mag), den.divrem(&g).0)
    }

    /// Canonicalizes already-reduced big parts (`num ≠ 0`, `den > 0`,
    /// coprime): small if the value fits, big otherwise. No GCD.
    fn from_reduced_parts(num: BigInt, den: BigUint) -> Self {
        if let (Some(n), Some(d)) = (num.magnitude().to_u128(), den.to_u128()) {
            if fits_small(num.is_negative(), n, d) {
                return Rational {
                    repr: Repr::Small {
                        num: small_num(num.is_negative(), n),
                        den: d as u64,
                    },
                };
            }
        }
        Rational {
            repr: Repr::Big { num, den },
        }
    }

    /// Builds the integer `v` (over 1, so there is nothing to reduce).
    pub fn from_integer(v: i128) -> Self {
        Rational::from_reduced(v < 0, v.unsigned_abs(), 1)
    }

    /// Numerator (sign-carrying). Materialized on the small path, so the
    /// return is owned.
    pub fn numer(&self) -> BigInt {
        match &self.repr {
            Repr::Small { num, .. } => BigInt::from_i128(*num as i128),
            Repr::Big { num, .. } => num.clone(),
        }
    }

    /// Denominator (always positive). Materialized on the small path, so
    /// the return is owned.
    pub fn denom(&self) -> BigUint {
        match &self.repr {
            Repr::Small { den, .. } => BigUint::from_u64(*den),
            Repr::Big { den, .. } => den.clone(),
        }
    }

    /// True if this value is held in the inline word-sized
    /// representation (introspection for tests and benchmarks; the
    /// numeric behavior of the two tiers is identical).
    pub fn is_small(&self) -> bool {
        matches!(self.repr, Repr::Small { .. })
    }

    /// Both components as big integers: borrowed on the big tier,
    /// promoted on the small tier (mixed-tier ops).
    fn big_parts(&self) -> (Cow<'_, BigInt>, Cow<'_, BigUint>) {
        match &self.repr {
            Repr::Small { num, den } => (
                Cow::Owned(BigInt::from_i128(*num as i128)),
                Cow::Owned(BigUint::from_u64(*den)),
            ),
            Repr::Big { num, den } => (Cow::Borrowed(num), Cow::Borrowed(den)),
        }
    }

    /// True if the value is 0.
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num == 0,
            Repr::Big { num, .. } => num.is_zero(),
        }
    }

    /// True if strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num > 0,
            Repr::Big { num, .. } => num.is_positive(),
        }
    }

    /// True if strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num < 0,
            Repr::Big { num, .. } => num.is_negative(),
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            Repr::Small { num, den } => {
                // Already reduced; swapping keeps it reduced but the new
                // numerator (old denominator) may exceed the i64 range.
                Rational::from_reduced(*num < 0, *den as u128, num.unsigned_abs() as u128)
            }
            // Swapping a coprime pair keeps it coprime: only the sign
            // rule and the tier need deciding, not another reduction.
            Repr::Big { num, den } => Rational::from_reduced_parts(
                BigInt::from_sign_mag(num.sign(), den.clone()),
                num.magnitude().clone(),
            ),
        }
    }

    /// Exact sum.
    pub fn add_ref(&self, other: &Rational) -> Rational {
        self.add_signed(other, false)
    }

    /// Exact difference.
    pub fn sub_ref(&self, other: &Rational) -> Rational {
        self.add_signed(other, true)
    }

    /// `self + other`, or `self − other` when `subtract`; reduced on the
    /// denominators (see the module docs).
    fn add_signed(&self, other: &Rational, subtract: bool) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &other.repr)
        {
            // |c| ≤ 2^63, so −c fits i128.
            let c = if subtract { -(*c as i128) } else { *c as i128 };
            if let Some(sum) = add_small(*a, *b, c, *d) {
                return sum;
            }
        }
        let (an, ad) = self.big_parts();
        let (cn, cd) = other.big_parts();
        let csign = if subtract {
            cn.sign().flip()
        } else {
            cn.sign()
        };
        // a·y ± c·x as a signed big integer.
        let cross = |x: &BigUint, y: &BigUint| {
            BigInt::from_sign_mag(an.sign(), an.magnitude().mul(y))
                .add(&BigInt::from_sign_mag(csign, cn.magnitude().mul(x)))
        };
        let g = ad.gcd(&cd);
        let (ad1, cd1) = (div_exact(&ad, &g), div_exact(&cd, &g));
        let t = cross(&ad1, &cd1);
        if t.is_zero() {
            return Rational::zero();
        }
        let g2 = if g.is_one() { g } else { t.magnitude().gcd(&g) };
        let den = ad1.mul(&div_exact(&cd, &g2));
        if g2.is_one() {
            return Rational::from_reduced_parts(t, den);
        }
        let num = BigInt::from_sign_mag(t.sign(), t.magnitude().divrem(&g2).0);
        Rational::from_reduced_parts(num, den)
    }

    /// Exact product.
    pub fn mul_ref(&self, other: &Rational) -> Rational {
        let negative = self.is_negative() != other.is_negative();
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &other.repr)
        {
            return mul_small(negative, a.unsigned_abs(), *b, c.unsigned_abs(), *d);
        }
        let (an, ad) = self.big_parts();
        let (cn, cd) = other.big_parts();
        mul_big(negative, an.magnitude(), &ad, cn.magnitude(), &cd)
    }

    /// Exact quotient. Panics if `other` is zero.
    pub fn div_ref(&self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "reciprocal of zero");
        // a/b ÷ c/d = (a/b)·(d/|c|) with the sign of a·c.
        let negative = self.is_negative() != other.is_negative();
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &other.repr)
        {
            return mul_small(negative, a.unsigned_abs(), *b, *d, c.unsigned_abs());
        }
        let (an, ad) = self.big_parts();
        let (cn, cd) = other.big_parts();
        mul_big(negative, an.magnitude(), &ad, &cd, cn.magnitude())
    }

    /// Negation.
    pub fn neg_ref(&self) -> Rational {
        match &self.repr {
            Repr::Small { num, den } => {
                // i64::MIN negates out of range; reroute through the
                // canonicalizing constructor.
                Rational::from_reduced(*num > 0, num.unsigned_abs() as u128, *den as u128)
            }
            // Still reduced, but re-canonicalized: flipping the sign can
            // move a magnitude-2^63 numerator across the small-tier
            // boundary.
            Repr::Big { num, den } => Rational::from_reduced_parts(num.neg(), den.clone()),
        }
    }

    /// In-place sum: `self += other`. On the small path this allocates
    /// nothing; hot loops should prefer it over `add_ref`.
    pub fn add_assign_ref(&mut self, other: &Rational) {
        *self = self.add_ref(other);
    }

    /// In-place difference: `self -= other`.
    pub fn sub_assign_ref(&mut self, other: &Rational) {
        *self = self.sub_ref(other);
    }

    /// In-place product: `self *= other`.
    pub fn mul_assign_ref(&mut self, other: &Rational) {
        *self = self.mul_ref(other);
    }

    /// In-place quotient: `self /= other`. Panics if `other` is zero.
    pub fn div_assign_ref(&mut self, other: &Rational) {
        *self = self.div_ref(other);
    }

    /// Fused update `self -= a · b` — the simplex pivot's row operation.
    pub fn sub_mul_assign_ref(&mut self, a: &Rational, b: &Rational) {
        let prod = a.mul_ref(b);
        self.sub_assign_ref(&prod);
    }

    /// Floor (largest integer ≤ self).
    pub fn floor(&self) -> BigInt {
        match &self.repr {
            Repr::Small { num, den } => BigInt::from_i128((*num as i128).div_euclid(*den as i128)),
            Repr::Big { num, den } => {
                let (q, r) = num.divrem(&BigInt::from_sign_mag(Sign::Positive, den.clone()));
                if num.is_negative() && !r.is_zero() {
                    q.sub(&BigInt::one())
                } else {
                    q
                }
            }
        }
    }

    /// Ceiling (smallest integer ≥ self).
    pub fn ceil(&self) -> BigInt {
        self.neg_ref().floor().neg()
    }

    /// Approximates as the **nearest** `f64` (round-half-even), exact in
    /// the IEEE sense even when components exceed 2^53.
    pub fn to_f64(&self) -> f64 {
        let (negative, value) = match &self.repr {
            Repr::Small { num, den } => {
                if *num == 0 {
                    return 0.0;
                }
                let nmag = num.unsigned_abs();
                if nmag <= (1 << 53) && *den <= (1 << 53) {
                    // Both operands convert exactly; IEEE division then
                    // rounds the quotient correctly in one step.
                    return *num as f64 / *den as f64;
                }
                (
                    *num < 0,
                    ratio_to_f64(&BigUint::from_u64(nmag), &BigUint::from_u64(*den)),
                )
            }
            Repr::Big { num, den } => (num.is_negative(), ratio_to_f64(num.magnitude(), den)),
        };
        if negative {
            -value
        } else {
            value
        }
    }

    /// Compares this value with the non-negative ratio `num/den`
    /// exactly, as `self.cmp(&Rational::new(num, den))` would, but
    /// without building the ratio: one cross-multiplication, no
    /// reduction, no GCD and no heap allocation. Panics if `den == 0`.
    pub fn cmp_ratio(&self, num: u64, den: u64) -> Ordering {
        assert!(den != 0, "cmp_ratio with zero denominator");
        match &self.repr {
            Repr::Small { num: a, den: b } => {
                if *a < 0 {
                    return Ordering::Less;
                }
                // a·den < 2^63·2^64 and num·b < 2^128: neither overflows.
                (*a as u128 * den as u128).cmp(&(num as u128 * *b as u128))
            }
            Repr::Big { num: a, den: b } => {
                if a.is_negative() {
                    return Ordering::Less;
                }
                a.magnitude().cmp_scaled(den, b, num)
            }
        }
    }

    /// `min` by value.
    pub fn min_ref(&self, other: &Rational) -> Rational {
        if self <= other {
            self.clone()
        } else {
            other.clone()
        }
    }
}

/// Correctly-rounded `n/d` for positive big integers (round-half-even).
///
/// Scales the numerator so the integer quotient carries 55–56 bits, keeps
/// the division remainder as a sticky bit, and rounds the excess bits off
/// the quotient — one rounding step total, like hardware division.
fn ratio_to_f64(n: &BigUint, d: &BigUint) -> f64 {
    debug_assert!(!n.is_zero() && !d.is_zero());
    let nb = n.bit_len() as i64;
    let db = d.bit_len() as i64;
    // After scaling by 2^shift the quotient lies in [2^54, 2^56).
    let shift = 55 - (nb - db);
    let (sn, sd) = if shift >= 0 {
        (n.shl(shift as usize), d.clone())
    } else {
        (n.clone(), d.shl((-shift) as usize))
    };
    let (q, r) = sn.divrem(&sd);
    let q64 = q.to_u64().expect("scaled quotient fits one limb");
    let mut sticky = !r.is_zero();
    // Round the quotient down to 53 bits.
    let extra = (64 - q64.leading_zeros()) as i64 - 53;
    debug_assert!((2..=3).contains(&extra));
    let round = (q64 >> (extra - 1)) & 1 == 1;
    sticky |= q64 & ((1 << (extra - 1)) - 1) != 0;
    let mut m = q64 >> extra;
    if round && (sticky || m & 1 == 1) {
        m += 1;
    }
    let mut e2 = extra - shift;
    if m == 1 << 53 {
        m >>= 1;
        e2 += 1;
    }
    // m · 2^e2, stepping the exponent to avoid spurious overflow. Each
    // step multiplies by an exactly-representable power of two, so no
    // extra rounding occurs for normal results.
    let mut v = m as f64;
    while e2 > 1000 {
        v *= 2f64.powi(1000);
        e2 -= 1000;
    }
    while e2 < -1000 {
        v *= 2f64.powi(-1000);
        e2 += 1000;
    }
    v * 2f64.powi(e2 as i32)
}

/// `a/b + c/d` on the small tier (`c` widened so that a subtraction can
/// pass `−c`). `None` if `a·(d/g) + c·(b/g)` overflows `i128`, which
/// only operands near the top of both words reach.
fn add_small(a: i64, b: u64, c: i128, d: u64) -> Option<Rational> {
    let g = gcd_u64(b, d);
    // Each term is at most 2^63·(2^64 − 1) < 2^127 in magnitude; only
    // their sum can overflow.
    let t = (a as i128 * (d / g) as i128).checked_add(c * (b / g) as i128)?;
    let tmag = t.unsigned_abs();
    // gcd(t, g) on words: t mod g < g ≤ 2^64 − 1.
    let g2 = if g == 1 {
        1
    } else {
        gcd_u64((tmag % g as u128) as u64, g)
    };
    Some(Rational::from_reduced(
        t < 0,
        tmag / g2 as u128,
        (b / g) as u128 * (d / g2) as u128,
    ))
}

/// `±(n1/d1)·(n2/d2)` for reduced word pairs, cancelled crosswise first so
/// the product is already reduced.
fn mul_small(negative: bool, n1: u64, d1: u64, n2: u64, d2: u64) -> Rational {
    if n1 == 0 || n2 == 0 {
        return Rational::zero();
    }
    let (g1, g2) = (gcd_u64(n1, d2), gcd_u64(n2, d1));
    Rational::from_reduced(
        negative,
        (n1 / g1) as u128 * (n2 / g2) as u128,
        (d1 / g2) as u128 * (d2 / g1) as u128,
    )
}

/// [`mul_small`] on big magnitudes.
fn mul_big(negative: bool, n1: &BigUint, d1: &BigUint, n2: &BigUint, d2: &BigUint) -> Rational {
    if n1.is_zero() || n2.is_zero() {
        return Rational::zero();
    }
    let (g1, g2) = (n1.gcd(d2), n2.gcd(d1));
    let sign = if negative {
        Sign::Negative
    } else {
        Sign::Positive
    };
    let num = div_exact(n1, &g1).mul(&div_exact(n2, &g2));
    Rational::from_reduced_parts(
        BigInt::from_sign_mag(sign, num),
        div_exact(d1, &g2).mul(&div_exact(d2, &g1)),
    )
}

/// `x / g` for a divisor `g` of `x`, borrowing `x` when `g = 1`.
fn div_exact<'a>(x: &'a BigUint, g: &BigUint) -> Cow<'a, BigUint> {
    if g.is_one() {
        Cow::Borrowed(x)
    } else {
        Cow::Owned(x.divrem(g).0)
    }
}

/// Compares the products `x·y` and `u·v` of nonzero magnitudes. A product
/// of `lx`- and `ly`-bit factors has `lx + ly − 1` or `lx + ly` bits, so
/// bit lengths decide unless the two ranges overlap; only then are the
/// products formed.
fn cmp_products(x: &BigUint, y: &BigUint, u: &BigUint, v: &BigUint) -> Ordering {
    let (lp, lq) = (x.bit_len() + y.bit_len(), u.bit_len() + v.bit_len());
    if lp + 1 < lq {
        Ordering::Less
    } else if lq + 1 < lp {
        Ordering::Greater
    } else {
        x.mul(y).cmp_mag(&u.mul(v))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  ⇔  a*d vs c*b   (b, d > 0)
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &other.repr)
        {
            // Cross products are bounded by 2^63·(2^64−1) < 2^127.
            return ((*a as i128) * (*d as i128)).cmp(&((*c as i128) * (*b as i128)));
        }
        let (an, ad) = self.big_parts();
        let (cn, cd) = other.big_parts();
        // Sign first (Negative < Zero < Positive); then a·d vs c·b on
        // magnitudes, reversed for two negatives.
        match (an.sign(), cn.sign()) {
            (Sign::Zero, Sign::Zero) => Ordering::Equal,
            (sa, sc) if sa != sc => (sa as i8).cmp(&(sc as i8)),
            (sa, _) => {
                let ord = cmp_products(an.magnitude(), &cd, cn.magnitude(), &ad);
                if sa == Sign::Negative {
                    ord.reverse()
                } else {
                    ord
                }
            }
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        self.add_ref(rhs)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        self.sub_ref(rhs)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        self.mul_ref(rhs)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        self.div_ref(rhs)
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.neg_ref()
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.add_ref(&rhs)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.sub_ref(&rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.mul_ref(&rhs)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        self.div_ref(&rhs)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.neg_ref()
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        self.add_assign_ref(rhs);
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        self.sub_assign_ref(rhs);
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        self.mul_assign_ref(rhs);
    }
}

impl DivAssign<&Rational> for Rational {
    fn div_assign(&mut self, rhs: &Rational) {
        self.div_assign_ref(rhs);
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        self.add_assign_ref(&rhs);
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        self.sub_assign_ref(&rhs);
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        self.mul_assign_ref(&rhs);
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        self.div_assign_ref(&rhs);
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational::from_integer(v)
    }
}

impl From<u64> for Rational {
    fn from(v: u64) -> Self {
        Rational::from_integer(v as i128)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small { num, den } => {
                if *den == 1 {
                    write!(f, "{num}")
                } else {
                    write!(f, "{num}/{den}")
                }
            }
            Repr::Big { num, den } => {
                if den.is_one() {
                    write!(f, "{num}")
                } else {
                    write!(f, "{num}/{den}")
                }
            }
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

/// Sums an iterator of rationals exactly.
pub fn sum<'a, I: IntoIterator<Item = &'a Rational>>(iter: I) -> Rational {
    let mut acc = Rational::zero();
    for r in iter {
        acc.add_assign_ref(r);
    }
    acc
}

/// Error from parsing a [`Rational`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRationalError {
    reason: &'static str,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational: {}", self.reason)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"n"`, `"-n"`, or `"n/d"` forms (the [`fmt::Display`]
    /// output round-trips). Components must fit in `i128`; larger values
    /// arise only as computation results, never as user input.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (num_str, den_str) = match s.split_once('/') {
            Some((n, d)) => (n.trim(), Some(d.trim())),
            None => (s, None),
        };
        let num: i128 = num_str.parse().map_err(|_| ParseRationalError {
            reason: "numerator is not an integer",
        })?;
        let den: i128 = match den_str {
            Some(d) => d.parse().map_err(|_| ParseRationalError {
                reason: "denominator is not an integer",
            })?,
            None => 1,
        };
        if den == 0 {
            return Err(ParseRationalError {
                reason: "denominator is zero",
            });
        }
        Ok(Rational::new(num, den))
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        let mut acc = Rational::zero();
        for r in iter {
            acc.add_assign_ref(&r);
        }
        acc
    }
}

impl<'a> std::iter::Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        let mut acc = Rational::zero();
        for r in iter {
            acc.add_assign_ref(r);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(u: &BigUint) -> BigInt {
        BigInt::from_sign_mag(Sign::Positive, u.clone())
    }

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(6, 3), Rational::from_integer(2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let mut x = r(1, 2);
        x += &r(1, 3);
        assert_eq!(x, r(5, 6));
        x -= r(1, 6);
        assert_eq!(x, r(2, 3));
        x *= &r(3, 4);
        assert_eq!(x, r(1, 2));
        x /= r(1, 4);
        assert_eq!(x, r(2, 1));
        x.sub_mul_assign_ref(&r(1, 2), &r(3, 1));
        assert_eq!(x, r(1, 2));
    }

    #[test]
    fn recip() {
        assert_eq!(r(3, 7).recip(), r(7, 3));
        assert_eq!(r(-3, 7).recip(), r(-7, 3));
    }

    #[test]
    fn big_recip_is_canonical() {
        let big = |negative: bool, n: BigUint, d: u64| {
            let sign = if negative {
                Sign::Negative
            } else {
                Sign::Positive
            };
            Rational::from_parts(BigInt::from_sign_mag(sign, n), BigUint::from_u64(d))
        };
        let p63 = BigUint::one().shl(63).add(&BigUint::one());
        // (2^63 + 1)/1 is big; its reciprocal 1/(2^63 + 1) must demote.
        for negative in [false, true] {
            let x = big(negative, p63.clone(), 1);
            assert!(!x.is_small());
            let inv = x.recip();
            assert!(inv.is_small(), "{inv}");
            assert_eq!(inv, r(if negative { -1 } else { 1 }, (1i128 << 63) + 1));
            assert_eq!(inv.recip(), x);
        }
        // A negative value that stays big both ways: -(2^64 + 3)/5.
        let wide = BigUint::one().shl(64).add(&BigUint::from_u64(3));
        let x = big(true, wide.clone(), 5);
        let inv = x.recip();
        assert!(!inv.is_small() && inv.is_negative());
        assert_eq!(
            inv,
            big(true, BigUint::from_u64(5), 1).div_ref(&big(false, wide, 1))
        );
        assert_eq!(inv.recip(), x);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::zero().recip();
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn div_by_zero_panics() {
        let _ = r(1, 2).div_ref(&Rational::zero());
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(-1, 2) < r(1, 1000));
        assert_eq!(r(2, 6).cmp(&r(1, 3)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor().to_i128(), Some(3));
        assert_eq!(r(7, 2).ceil().to_i128(), Some(4));
        assert_eq!(r(-7, 2).floor().to_i128(), Some(-4));
        assert_eq!(r(-7, 2).ceil().to_i128(), Some(-3));
        assert_eq!(r(4, 2).floor().to_i128(), Some(2));
        assert_eq!(r(4, 2).ceil().to_i128(), Some(2));
    }

    #[test]
    fn to_f64() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(r(-3, 4).to_f64(), -0.75);
        assert_eq!(Rational::zero().to_f64(), 0.0);
    }

    #[test]
    fn to_f64_rounds_to_nearest_beyond_53_bits() {
        // 2^53 + 1 is exactly halfway between representable neighbors
        // 2^53 and 2^53 + 2: round-half-even takes the even one.
        assert_eq!(r((1 << 53) + 1, 1).to_f64(), (1u64 << 53) as f64);
        // 2^53 + 3 is halfway between 2^53 + 2 and 2^53 + 4: even is +4.
        assert_eq!(r((1 << 53) + 3, 1).to_f64(), ((1u64 << 53) + 4) as f64);
        // Bits below the 53-bit mantissa must round, not truncate:
        // 2^60 + 384 sits past the midpoint 2^60 + 256, so it rounds up
        // to 2^60 + 512 (a truncating conversion yields 2^60 + 256's
        // floor, 2^60).
        assert_eq!(r((1 << 60) + 384, 1).to_f64(), ((1u64 << 60) + 512) as f64);
        // (2^64 − 1)/2^64 = 1 − 2^−64 is within half an ulp of 1.0.
        assert_eq!(r((1 << 64) - 1, 1 << 64).to_f64(), 1.0);
        // Denominator beyond 2^53: 1/(2^64 − 1) rounds to 2^−64.
        assert_eq!(r(1, (1 << 64) - 1).to_f64(), 2f64.powi(-64));
        // Sign carries through the big-component path.
        assert_eq!(
            r(-((1 << 60) + 384), 1).to_f64(),
            -(((1u64 << 60) + 512) as f64)
        );
    }

    #[test]
    fn to_f64_exact_and_halfway_cases_over_random_mantissas() {
        // Deterministic LCG over (mantissa, exponent, denominator) cases.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..200 {
            let m = (1u64 << 52) | (next() >> 12); // 53-bit mantissa
            let e = (next() % 40) as i32; // value = m · 2^e
            let d = (next() >> 1) | 1; // odd denominator
                                       // Exactly representable: (m·2^e·d)/d must convert to m·2^e.
            let scaled = BigUint::from_u64(m).shl(e as usize);
            let n = scaled.mul(&BigUint::from_u64(d));
            let q = Rational::from_parts(big(&n), BigUint::from_u64(d));
            let expect = m as f64 * 2f64.powi(e);
            assert_eq!(q.to_f64(), expect, "m={m} e={e} d={d}");
            // Exactly halfway: (2m+1)·2^(e−1) must round to even mantissa.
            let half = Rational::from_parts(
                big(&BigUint::from_u128(2 * m as u128 + 1).shl(e as usize)),
                BigUint::from_u64(2),
            );
            let rounded = if m.is_multiple_of(2) { m } else { m + 1 };
            let expect_half = rounded as f64 * 2f64.powi(e);
            assert_eq!(half.to_f64(), expect_half, "halfway m={m} e={e}");
        }
    }

    #[test]
    fn to_f64_huge_components() {
        // Both numerator and denominator far beyond f64 range, ratio ~ 2.
        let big = Rational::from_parts(
            BigInt::from_sign_mag(Sign::Positive, BigUint::one().shl(3000)),
            BigUint::one().shl(2999),
        );
        assert!((big.to_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sum_helper() {
        let xs = [r(1, 2), r(1, 3), r(1, 6)];
        assert_eq!(sum(xs.iter()), Rational::one());
        assert_eq!(sum([].iter()), Rational::zero());
    }

    #[test]
    fn min_max() {
        assert_eq!(r(1, 2).min_ref(&r(1, 3)), r(1, 3));
    }

    #[test]
    fn display() {
        assert_eq!(r(3, 4).to_string(), "3/4");
        assert_eq!(r(-3, 4).to_string(), "-3/4");
        assert_eq!(r(8, 4).to_string(), "2");
    }

    #[test]
    fn parses_display_forms() {
        for s in ["3/4", "-3/4", "2", "-2", "0", " 5 / 10 "] {
            let r: Rational = s.parse().unwrap();
            let back: Rational = r.to_string().parse().unwrap();
            assert_eq!(r, back, "{s}");
        }
        assert_eq!("5/10".parse::<Rational>().unwrap(), r(1, 2));
        assert_eq!("7".parse::<Rational>().unwrap(), r(7, 1));
        assert_eq!("1/-2".parse::<Rational>().unwrap(), r(-1, 2));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Rational>().is_err());
        assert!("abc".parse::<Rational>().is_err());
        assert!("1/0".parse::<Rational>().is_err());
        assert!("1/2/3".parse::<Rational>().is_err());
        assert!("1.5".parse::<Rational>().is_err());
    }

    #[test]
    fn iterator_sum() {
        let xs = vec![r(1, 2), r(1, 3), r(1, 6)];
        let owned: Rational = xs.clone().into_iter().sum();
        let borrowed: Rational = xs.iter().sum();
        assert_eq!(owned, Rational::one());
        assert_eq!(borrowed, Rational::one());
    }

    #[test]
    fn small_values_stay_small() {
        assert!(r(1, 2).is_small());
        assert!(Rational::zero().is_small());
        assert!(r(i64::MAX as i128, 1).is_small());
        assert!(r(i64::MIN as i128, 1).is_small());
        assert!(r(1, u64::MAX as i128).is_small());
        let x = r(1, 3) + r(1, 7) * r(100, 13);
        assert!(x.is_small());
    }

    #[test]
    fn promotion_at_overflow_and_demotion_back() {
        // i64::MAX/1 + i64::MAX/1 overflows the small numerator.
        let max = r(i64::MAX as i128, 1);
        let doubled = max.add_ref(&max);
        assert!(!doubled.is_small());
        assert_eq!(doubled, r(2 * (i64::MAX as i128), 1));
        // Subtracting back demotes to the small tier again, and the
        // result is bit-for-bit the original.
        let back = doubled.sub_ref(&max);
        assert!(back.is_small());
        assert_eq!(back, max);
        // Denominator overflow: 1/u64::MAX squared.
        let tiny = r(1, u64::MAX as i128);
        let sq = tiny.mul_ref(&tiny);
        assert!(!sq.is_small());
        assert_eq!(
            sq.recip(),
            r(u64::MAX as i128, 1).mul_ref(&r(u64::MAX as i128, 1))
        );
        // Dividing the square by one factor demotes again.
        let back = sq.div_ref(&tiny);
        assert!(back.is_small());
        assert_eq!(back, tiny);
    }

    #[test]
    fn from_parts_demotes_small_values() {
        let v = Rational::from_parts(BigInt::from_i128(6), BigUint::from_u64(4));
        assert!(v.is_small());
        assert_eq!(v, r(3, 2));
    }

    #[test]
    fn extreme_small_bounds() {
        // i64::MIN is representable and negates across the boundary.
        let min = r(i64::MIN as i128, 1);
        assert!(min.is_small());
        let negated = min.neg_ref();
        assert!(!negated.is_small(), "|i64::MIN| exceeds i64::MAX");
        assert_eq!(negated, r(-(i64::MIN as i128), 1));
        assert_eq!(negated.neg_ref(), min);
        // recip of a value whose denominator exceeds i64::MAX promotes.
        let v = r(1, u64::MAX as i128);
        let flipped = v.recip();
        assert!(!flipped.is_small());
        assert_eq!(flipped, r(u64::MAX as i128, 1));
        let neg = r(-1, u64::MAX as i128).recip();
        assert!(!neg.is_small(), "2^64 − 1 exceeds |i64::MIN|");
        assert_eq!(neg, r(-(u64::MAX as i128), 1));
        // The negative side fits exactly one more magnitude (2^63): the
        // reciprocal of -1/2^63 stays small as i64::MIN.
        let boundary = r(-1, 1i128 << 63).recip();
        assert!(boundary.is_small());
        assert_eq!(boundary, r(i64::MIN as i128, 1));
    }

    #[test]
    fn mixed_tier_arithmetic() {
        let small = r(3, 7);
        let big = r(i64::MAX as i128, 1) + r(i64::MAX as i128, 1);
        assert!(!big.is_small());
        let sum = small.add_ref(&big);
        assert_eq!(sum.sub_ref(&big), small);
        assert_eq!(big.mul_ref(&small).div_ref(&small), big);
        assert!(small < big);
        assert!(big > small);
    }

    #[test]
    fn deep_nesting_does_not_overflow() {
        // Emulates a deep bottom-up tree-weight computation:
        // w <- 1 / (1/w + 1/(w+1)) with fresh primes mixed in so the
        // denominators genuinely grow. i128 arithmetic would overflow
        // long before 90 levels.
        let mut w = r(10007, 3);
        for k in 0..90 {
            let other = r(9973 + k, 7);
            w = (w.recip() + other.recip()).recip() + r(1, 10007);
            assert!(w.is_positive());
        }
        // The value stays in a sane range even though its representation
        // is enormous.
        let f = w.to_f64();
        assert!(f > 0.0 && f < 10000.0, "f = {f}");
    }

    #[test]
    fn word_gcd() {
        assert_eq!(gcd_u128(0, 5), 5);
        assert_eq!(gcd_u128(5, 0), 5);
        assert_eq!(gcd_u128(12, 18), 6);
        assert_eq!(gcd_u128(1 << 70, 1 << 65), 1 << 65);
        assert_eq!(gcd_u128(u128::MAX, u128::MAX), u128::MAX);
        assert_eq!(gcd_u128(7, 13), 1);
    }
}
