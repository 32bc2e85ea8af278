//! Signed arbitrary-precision integers layered over [`BigUint`].

use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// Sign of a [`BigInt`]. Zero always carries [`Sign::Zero`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Sign {
    Negative,
    Zero,
    Positive,
}

impl Sign {
    pub(crate) fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// Arbitrary-precision signed integer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl BigInt {
    /// The value 0.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            mag: BigUint::zero(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            mag: BigUint::one(),
        }
    }

    /// Builds from sign and magnitude (normalizes zero).
    pub fn from_sign_mag(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            assert!(sign != Sign::Zero, "nonzero magnitude with Sign::Zero");
            BigInt { sign, mag }
        }
    }

    /// Builds from an `i128`.
    pub fn from_i128(v: i128) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                sign: Sign::Positive,
                mag: BigUint::from_u128(v as u128),
            },
            Ordering::Less => BigInt {
                sign: Sign::Negative,
                mag: BigUint::from_u128(v.unsigned_abs()),
            },
        }
    }

    /// Converts to `i128` if it fits.
    pub fn to_i128(&self) -> Option<i128> {
        let m = self.mag.to_u128()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => (m <= i128::MAX as u128).then_some(m as i128),
            Sign::Negative => (m <= i128::MAX as u128 + 1).then(|| (m as i128).wrapping_neg()),
        }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// True if zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True if strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// True if strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Negation.
    pub fn neg(&self) -> BigInt {
        BigInt {
            sign: self.sign.flip(),
            mag: self.mag.clone(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match self.sign {
            Sign::Negative => self.neg(),
            _ => self.clone(),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt {
                sign: a,
                mag: self.mag.add(&other.mag),
            },
            _ => match self.mag.cmp_mag(&other.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt {
                    sign: self.sign,
                    mag: self.mag.sub(&other.mag),
                },
                Ordering::Less => BigInt {
                    sign: other.sign,
                    mag: other.mag.sub(&self.mag),
                },
            },
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &BigInt) -> BigInt {
        self.add(&other.neg())
    }

    /// `self * other`.
    pub fn mul(&self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == other.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt {
            sign,
            mag: self.mag.mul(&other.mag),
        }
    }

    /// Truncated division with remainder (`self = q*other + r`,
    /// `|r| < |other|`, `r` has the sign of `self`).
    pub fn divrem(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (qm, rm) = self.mag.divrem(&other.mag);
        let qsign = if self.sign == other.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        (
            BigInt::from_sign_mag(if qm.is_zero() { Sign::Zero } else { qsign }, qm),
            BigInt::from_sign_mag(if rm.is_zero() { Sign::Zero } else { self.sign }, rm),
        )
    }

    /// Comparison.
    pub fn cmp_val(&self, other: &BigInt) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Negative, Sign::Negative) => other.mag.cmp_mag(&self.mag),
            (Sign::Positive, Sign::Positive) => self.mag.cmp_mag(&other.mag),
            (a, b) => (a as i8 - 1).cmp(&(b as i8 - 1)),
        }
    }

    /// Approximates as `f64`.
    pub fn to_f64(&self) -> f64 {
        let m = self.mag.to_f64();
        match self.sign {
            Sign::Negative => -m,
            _ => m,
        }
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_val(other)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        BigInt::from_i128(v)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::from_i128(v as i128)
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from_i128(v as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i128) -> BigInt {
        BigInt::from_i128(v)
    }

    #[test]
    fn sign_classification() {
        assert!(i(0).is_zero());
        assert!(i(5).is_positive());
        assert!(i(-5).is_negative());
        assert_eq!(i(0).sign(), Sign::Zero);
    }

    #[test]
    fn add_mixed_signs() {
        assert_eq!(i(5).add(&i(-3)), i(2));
        assert_eq!(i(-5).add(&i(3)), i(-2));
        assert_eq!(i(-5).add(&i(-3)), i(-8));
        assert_eq!(i(5).add(&i(-5)), i(0));
        assert_eq!(i(0).add(&i(7)), i(7));
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(i(5).sub(&i(9)), i(-4));
        assert_eq!(i(-4).neg(), i(4));
        assert_eq!(i(0).neg(), i(0));
        assert_eq!(i(-7).abs(), i(7));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(i(3).mul(&i(-4)), i(-12));
        assert_eq!(i(-3).mul(&i(-4)), i(12));
        assert_eq!(i(0).mul(&i(-4)), i(0));
    }

    #[test]
    fn divrem_truncates_toward_zero() {
        let (q, r) = i(7).divrem(&i(2));
        assert_eq!((q, r), (i(3), i(1)));
        let (q, r) = i(-7).divrem(&i(2));
        assert_eq!((q, r), (i(-3), i(-1)));
        let (q, r) = i(7).divrem(&i(-2));
        assert_eq!((q, r), (i(-3), i(1)));
        let (q, r) = i(-7).divrem(&i(-2));
        assert_eq!((q, r), (i(3), i(-1)));
    }

    #[test]
    fn ordering_across_signs() {
        assert!(i(-10) < i(-2));
        assert!(i(-2) < i(0));
        assert!(i(0) < i(3));
        assert!(i(3) < i(10));
        assert_eq!(i(4).cmp(&i(4)), Ordering::Equal);
    }

    #[test]
    fn i128_round_trip() {
        for v in [0i128, 1, -1, i128::MAX, i128::MIN, 42, -42] {
            assert_eq!(BigInt::from_i128(v).to_i128(), Some(v));
        }
    }

    #[test]
    fn display() {
        assert_eq!(i(-12345).to_string(), "-12345");
        assert_eq!(i(0).to_string(), "0");
    }

    #[test]
    fn to_f64_signs() {
        assert_eq!(i(-1000).to_f64(), -1000.0);
        assert_eq!(i(1000).to_f64(), 1000.0);
    }
}
