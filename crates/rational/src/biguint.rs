//! Arbitrary-precision unsigned integers.
//!
//! Steady-state tree weights are nested continued-fraction-like expressions
//! whose reduced denominators can exceed 128 bits on deep trees (the random
//! campaign produces depths past 80), so the rational layer is built on an
//! arbitrary-precision magnitude type rather than `i128`.
//!
//! Representation: little-endian `u64` limbs with no trailing zero limb
//! (the canonical form of zero is an empty limb vector). The operations
//! implemented are exactly those the scheduling stack needs: comparison,
//! add/sub/mul, Knuth division, binary GCD, and shifts.
//!
//! The GCD is on the hot path of every big-tier `Rational` reduction.
//! `Rational` asks it for the GCD of two denominators, or of a numerator
//! and a denominator, so its operands often differ in size, and it
//! dispatches on their limb counts:
//!
//! * one operand a single limb `w`: the other is reduced to `big mod w`
//!   without allocating, and the word-level `gcd_u64` finishes;
//! * limb counts that differ: one Euclid `divrem` step replaces the longer
//!   operand by its remainder, and the dispatch repeats on the pair;
//! * equal limb counts: a binary GCD (shifts and subtractions) that
//!   clones each operand's limbs once, subtracts and shifts in place, and
//!   hands over to `gcd_u128` once both operands fit two limbs.

use std::cmp::Ordering;
use std::fmt;

/// Arbitrary-precision unsigned integer (little-endian `u64` limbs).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// True if the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut limbs = Vec::new();
        if hi != 0 {
            limbs.push(lo);
            limbs.push(hi);
        } else if lo != 0 {
            limbs.push(lo);
        }
        BigUint { limbs }
    }

    /// Converts to `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Converts to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Number of trailing zero bits; 0 for the value 0 by convention.
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.trim();
        r
    }

    /// `self - other`; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        let mut r = self.clone();
        r.sub_assign(other);
        r
    }

    /// `self -= other` in place; panics if `other > self`.
    fn sub_assign(&mut self, other: &BigUint) {
        assert!(
            self.cmp_mag(other) != Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut borrow = false;
        for (i, l) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied();
            if b.is_none() && !borrow {
                break;
            }
            let (d1, b1) = l.overflowing_sub(b.unwrap_or(0));
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            *l = d2;
            borrow = b1 | b2;
        }
        debug_assert!(!borrow);
        self.trim();
    }

    /// `self * other` (schoolbook; operand sizes in this workload are small).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.trim();
        r
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.trim();
        r
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let mut r = self.clone();
        r.shr_assign(bits);
        r
    }

    /// `self >>= bits` in place.
    fn shr_assign(&mut self, bits: usize) {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            self.limbs.clear();
            return;
        }
        self.limbs.drain(..limb_shift);
        let bit_shift = bits % 64;
        if bit_shift != 0 {
            for i in 0..self.limbs.len() {
                let hi = self.limbs.get(i + 1).copied().unwrap_or(0);
                self.limbs[i] = (self.limbs[i] >> bit_shift) | (hi << (64 - bit_shift));
            }
        }
        self.trim();
    }

    /// Magnitude comparison.
    pub fn cmp_mag(&self, other: &BigUint) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Compares `self · x` with `other · y` without materializing either
    /// product: both are generated limb by limb from the least
    /// significant end, and the highest limb at which they differ
    /// decides. No heap allocation.
    pub fn cmp_scaled(&self, x: u64, other: &BigUint, y: u64) -> Ordering {
        let (mut carry_a, mut carry_b) = (0u128, 0u128);
        let mut ord = Ordering::Equal;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            // limb · factor + carry ≤ (2^64 − 1)^2 + 2^64 − 1 < 2^128.
            let a = self.limbs.get(i).map_or(0, |&l| l as u128 * x as u128) + carry_a;
            let b = other.limbs.get(i).map_or(0, |&l| l as u128 * y as u128) + carry_b;
            (carry_a, carry_b) = (a >> 64, b >> 64);
            if a as u64 != b as u64 {
                ord = (a as u64).cmp(&(b as u64));
            }
        }
        carry_a.cmp(&carry_b).then(ord)
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Knuth Algorithm D with a single-limb fast path. Panics on division
    /// by zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp_mag(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut out = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                out[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            let mut q = BigUint { limbs: out };
            q.trim();
            return (q, BigUint::from_u64(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m + n + 1 limbs during the loop
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q̂ from the top two limbs of the current remainder.
            let top = (un[j + n] as u128) << 64 | un[j + n - 1] as u128;
            let mut qhat = top / vn[n - 1] as u128;
            let mut rhat = top % vn[n - 1] as u128;
            while qhat >> 64 != 0 || qhat * vn[n - 2] as u128 > (rhat << 64 | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-subtract q̂ * v from the remainder window.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 - borrow;
                un[j + i] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;

            if t < 0 {
                // q̂ was one too large: add back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = (un[j + n] as u128).wrapping_add(carry) as u64;
            }
            q[j] = qhat as u64;
        }

        let mut quot = BigUint { limbs: q };
        quot.trim();
        un.truncate(n);
        let mut rem = BigUint { limbs: un };
        rem.shr_assign(shift);
        (quot, rem)
    }

    /// `self mod w` for a one-limb divisor, without allocating.
    fn rem_u64(&self, w: u64) -> u64 {
        self.limbs
            .iter()
            .rev()
            .fold(0u128, |rem, &l| ((rem << 64) | l as u128) % w as u128) as u64
    }

    /// Greatest common divisor.
    ///
    /// A one-limb operand `w` finishes at once in `gcd_u64(big mod w, w)`.
    /// Operands of different limb counts take one Euclid step (the longer
    /// is replaced by its remainder) before dispatching again. Operands of
    /// equal limb count run a binary GCD: each operand's limbs are cloned
    /// once, every step subtracts and shifts in place, and once both fit
    /// two limbs the word-level `gcd_u128` finishes.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        match short.limbs.len() {
            0 => long.clone(),
            1 => {
                let w = short.limbs[0];
                BigUint::from_u64(gcd_u64(long.rem_u64(w), w))
            }
            n if n < long.limbs.len() => short.gcd(&long.divrem(short).1),
            _ => binary_gcd(long.clone(), short.clone()),
        }
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        self.divrem(&g).0.mul(other)
    }

    /// Approximates as `f64` (round-toward-zero on the top 53 bits;
    /// saturates to `f64::INFINITY` past the exponent range).
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_len();
        if bits == 0 {
            return 0.0;
        }
        if bits <= 64 {
            return self.limbs[0] as f64;
        }
        if bits > 1024 {
            return f64::INFINITY;
        }
        let mantissa = self.shr(bits - 53).to_u64().unwrap() as f64;
        mantissa * 2f64.powi((bits - 53) as i32)
    }

    /// Decimal string (used by `Display`).
    fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        let chunk = BigUint::from_u64(10_000_000_000_000_000_000); // 10^19
        while !cur.is_zero() {
            let (q, r) = cur.divrem(&chunk);
            digits.push(r.to_u64().unwrap_or(0));
            cur = q;
        }
        let mut s = format!("{}", digits.pop().unwrap());
        for d in digits.into_iter().rev() {
            s.push_str(&format!("{d:019}"));
        }
        s
    }
}

/// Binary GCD of two nonzero operands of equal limb count (at least
/// two), in place: subtract the smaller from the larger and shift out
/// the trailing zeros until both fit two limbs.
fn binary_gcd(mut a: BigUint, mut b: BigUint) -> BigUint {
    let (za, zb) = (a.trailing_zeros(), b.trailing_zeros());
    let common = za.min(zb);
    a.shr_assign(za);
    b.shr_assign(zb);
    // Invariant: a and b are odd.
    loop {
        if let (Some(x), Some(y)) = (a.to_u128(), b.to_u128()) {
            a = BigUint::from_u128(gcd_u128(x, y));
            break;
        }
        match a.cmp_mag(&b) {
            Ordering::Equal => break,
            Ordering::Less => std::mem::swap(&mut a, &mut b),
            Ordering::Greater => {}
        }
        a.sub_assign(&b);
        a.shr_assign(a.trailing_zeros());
    }
    if common == 0 {
        a
    } else {
        a.shl(common)
    }
}

/// Word-level binary GCD. `gcd(x, 0) = x`.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Word-level binary GCD on two words. `gcd(x, 0) = x`.
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_mag(other)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn add_small() {
        assert_eq!(b(2).add(&b(3)), b(5));
        assert_eq!(b(0).add(&b(7)), b(7));
        assert_eq!(b(u64::MAX as u128).add(&b(1)), b(1u128 << 64));
    }

    #[test]
    fn sub_small() {
        assert_eq!(b(5).sub(&b(3)), b(2));
        assert_eq!(b(1u128 << 64).sub(&b(1)), b(u64::MAX as u128));
        assert_eq!(b(9).sub(&b(9)), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = b(3).sub(&b(5));
    }

    #[test]
    fn mul_small() {
        assert_eq!(b(6).mul(&b(7)), b(42));
        assert_eq!(b(0).mul(&b(7)), BigUint::zero());
        assert_eq!(
            b(u64::MAX as u128).mul(&b(u64::MAX as u128)),
            b((u64::MAX as u128) * (u64::MAX as u128))
        );
    }

    #[test]
    fn mul_carries_across_limbs() {
        // (2^64 - 1)^2 has a 128-bit result; go one step bigger too.
        let big = b(u128::MAX);
        let sq = big.mul(&big);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expect = BigUint::one()
            .shl(256)
            .sub(&BigUint::one().shl(129))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn divrem_single_limb() {
        let (q, r) = b(100).divrem(&b(7));
        assert_eq!((q, r), (b(14), b(2)));
        let (q, r) = b(5).divrem(&b(7));
        assert_eq!((q, r), (BigUint::zero(), b(5)));
        let (q, r) = b(u128::MAX).divrem(&b(10));
        assert_eq!(q, b(u128::MAX / 10));
        assert_eq!(r, b(u128::MAX % 10));
    }

    #[test]
    fn divrem_multi_limb() {
        let n = BigUint::one().shl(200).add(&b(12345));
        let d = BigUint::one().shl(100).add(&b(67));
        let (q, r) = n.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), n);
        assert!(r.cmp_mag(&d) == Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = b(1).divrem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        assert_eq!(b(1).shl(64), b(1u128 << 64));
        assert_eq!(b(1u128 << 64).shr(64), b(1));
        assert_eq!(b(0b1010).shl(3), b(0b1010000));
        assert_eq!(b(0b1010000).shr(3), b(0b1010));
        assert_eq!(BigUint::zero().shl(100), BigUint::zero());
        assert_eq!(b(5).shr(200), BigUint::zero());
    }

    #[test]
    fn gcd_matches_euclid() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(17).gcd(&b(5)), b(1));
        assert_eq!(b(0).gcd(&b(9)), b(9));
        assert_eq!(b(9).gcd(&b(0)), b(9));
        let a = b(2 * 3 * 5 * 7 * 11 * 13);
        let c = b(3 * 7 * 13 * 19);
        assert_eq!(a.gcd(&c), b(3 * 7 * 13));
    }

    /// Euclid's algorithm on `divrem`: an oracle independent of the
    /// binary GCD.
    fn gcd_euclid(mut a: BigUint, mut b: BigUint) -> BigUint {
        while !b.is_zero() {
            let r = a.divrem(&b).1;
            a = std::mem::replace(&mut b, r);
        }
        a
    }

    /// `2^bits + low`.
    fn pow2_plus(bits: usize, low: u128) -> BigUint {
        BigUint::one().shl(bits).add(&b(low))
    }

    #[test]
    fn gcd_keeps_a_common_power_of_two_of_64_bits_or_more() {
        for (za, zb) in [(64, 64), (70, 65), (64, 200), (129, 128)] {
            let x = pow2_plus(150, 3 * 5 * 7).shl(za);
            let y = pow2_plus(90, 3 * 7).shl(zb);
            let g = x.gcd(&y);
            assert_eq!(g, gcd_euclid(x.clone(), y.clone()), "shifts {za}, {zb}");
            assert_eq!(g.trailing_zeros(), za.min(zb));
        }
    }

    #[test]
    fn gcd_of_equal_operands_and_of_one() {
        let x = pow2_plus(300, 12345);
        assert_eq!(x.gcd(&x), x);
        assert_eq!(x.gcd(&BigUint::one()), BigUint::one());
        assert_eq!(BigUint::one().gcd(&x), BigUint::one());
        assert_eq!(BigUint::one().gcd(&BigUint::one()), BigUint::one());
        let even = x.shl(67);
        assert_eq!(even.gcd(&even), even);
    }

    #[test]
    fn gcd_with_a_multi_limb_result() {
        let g = pow2_plus(200, 277);
        let x = g.mul(&pow2_plus(70, 1));
        let y = g.mul(&pow2_plus(130, 3).shl(5));
        assert_eq!(x.gcd(&y), gcd_euclid(x.clone(), y.clone()));
        assert_eq!(x.gcd(&y).divrem(&g).1, BigUint::zero());
        assert!(x.gcd(&y).bit_len() > 128);
    }

    #[test]
    fn gcd_shrinks_from_many_limbs_into_the_word_tail() {
        // Both operands start above two limbs and share only a word-sized
        // factor, so the subtraction loop hands over to `gcd_u128`
        // midway.
        let f = b(3 * 7 * 1_000_003);
        let x = pow2_plus(130, 1).mul(&f);
        let y = pow2_plus(129, 3).mul(&f);
        assert_eq!(x.gcd(&y), gcd_euclid(x.clone(), y.clone()));
        let z = pow2_plus(400, 1);
        assert_eq!(z.gcd(&b(3)), gcd_euclid(z.clone(), b(3)));
        assert_eq!(b(3).gcd(&z), gcd_euclid(z.clone(), b(3)));
    }

    #[test]
    fn lcm_small() {
        assert_eq!(b(4).lcm(&b(6)), b(12));
        assert_eq!(b(0).lcm(&b(6)), BigUint::zero());
    }

    #[test]
    fn ordering() {
        assert!(b(3) < b(5));
        assert!(b(1u128 << 100) > b(u64::MAX as u128));
        assert_eq!(b(42).cmp(&b(42)), Ordering::Equal);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(
            b(1234567890123456789012345678901234567u128).to_string(),
            "1234567890123456789012345678901234567"
        );
        let big = BigUint::one().shl(128);
        assert_eq!(big.to_string(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn to_f64_small_and_large() {
        assert_eq!(b(0).to_f64(), 0.0);
        assert_eq!(b(1234).to_f64(), 1234.0);
        let big = BigUint::one().shl(100);
        assert_eq!(big.to_f64(), 2f64.powi(100));
        let huge = BigUint::one().shl(2000);
        assert_eq!(huge.to_f64(), f64::INFINITY);
    }

    #[test]
    fn round_trip_u128() {
        for v in [0u128, 1, u64::MAX as u128, u128::MAX, 12345678901234567890] {
            assert_eq!(BigUint::from_u128(v).to_u128(), Some(v));
        }
        assert_eq!(BigUint::one().shl(128).to_u128(), None);
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(b(8).trailing_zeros(), 3);
        assert_eq!(b(1).trailing_zeros(), 0);
        assert_eq!(BigUint::one().shl(130).trailing_zeros(), 130);
    }
}
