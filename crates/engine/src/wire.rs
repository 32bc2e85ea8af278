//! The encodings of the `BCSS` snapshot format and the two macros that
//! derive a record's or an enum's codec from a single listing.
//!
//! [`Wire`] is implemented once per encoding the format uses: raw `u8`
//! and `bool`, LEB128 varints for `u64`/`usize`/`u32` (range-checked on
//! read), fixed 16-byte little-endian packed event keys, `Option<T>` as a
//! 0/1 tag, and length-prefixed `Vec<T>`. Per-node and per-edge arrays
//! carry no prefix; their length comes from an array decoded earlier
//! ([`get_n`]).
//!
//! [`wire_struct!`] and [`wire_enum!`] turn one field list or tag table
//! into both directions, so a record's layout is written exactly once.
//! The listings themselves live in `snapshot.rs`; their order *is* the
//! byte layout.

use crate::snapshot::SnapshotError;
use bc_simcore::{EventHandle, PackedEvent};
use std::collections::VecDeque;

/// A read cursor over the bytes being decoded.
pub(crate) struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next byte, without consuming it.
    pub(crate) fn peek(&self) -> Result<u8, SnapshotError> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or(SnapshotError::Truncated)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads a length prefix for records of at least `min_record` bytes
    /// each: a hostile length can never exceed the bytes remaining.
    pub(crate) fn len_capped(&mut self, min_record: usize) -> Result<usize, SnapshotError> {
        let len = usize::get(self)?;
        if len > (self.buf.len() - self.pos) / min_record.max(1) {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }
}

/// One `BCSS` encoding: how a value is written and read back.
pub(crate) trait Wire: Sized {
    /// The fewest bytes one encoded value occupies; bounds the length
    /// prefixes of `Vec<Self>`.
    const MIN: usize;
    fn put(&self, b: &mut Vec<u8>);
    fn get(r: &mut Rd) -> Result<Self, SnapshotError>;
}

impl Wire for u8 {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        b.push(*self);
    }
    #[inline]
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        let v = r.peek()?;
        r.pos += 1;
        Ok(v)
    }
}

impl Wire for bool {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        b.push(*self as u8);
    }
    #[inline]
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool out of range")),
        }
    }
}

/// LEB128, unsigned.
impl Wire for u64 {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            b.push(v as u8 | 0x80);
            v >>= 7;
        }
        b.push(v as u8);
    }
    #[inline]
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = u8::get(r)?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(SnapshotError::Corrupt("varint overflow"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// Narrower integers travel as `u64` varints and are range-checked on
/// read.
macro_rules! narrow_varint {
    ($($t:ty => $msg:literal),*) => {$(
        impl Wire for $t {
            const MIN: usize = 1;
            #[inline]
            fn put(&self, b: &mut Vec<u8>) {
                (*self as u64).put(b);
            }
            #[inline]
            fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
                <$t>::try_from(u64::get(r)?).map_err(|_| SnapshotError::Corrupt($msg))
            }
        }
    )*};
}

narrow_varint!(u32 => "u32 out of range", usize => "usize out of range");

/// A packed agenda key: its `u128`, fixed-width little-endian.
impl Wire for PackedEvent {
    const MIN: usize = 16;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.raw().to_le_bytes());
    }
    #[inline]
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        let bytes = r.take(16)?.try_into().expect("16 bytes");
        Ok(PackedEvent::from_raw(u128::from_le_bytes(bytes)))
    }
}

impl Wire for EventHandle {
    const MIN: usize = 2;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        let (slot, generation) = self.raw_parts();
        slot.put(b);
        generation.put(b);
    }
    #[inline]
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        Ok(EventHandle::from_raw_parts(u32::get(r)?, u32::get(r)?))
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, b: &mut Vec<u8>) {
        self.len().put(b);
        b.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        let n = r.len_capped(1)?;
        let s = std::str::from_utf8(r.take(n)?)
            .map_err(|_| SnapshotError::Corrupt("string not UTF-8"))?;
        Ok(s.to_owned())
    }
}

/// A 0/1 presence tag, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, b: &mut Vec<u8>) {
        match self {
            None => b.push(0),
            Some(v) => {
                b.push(1);
                v.put(b);
            }
        }
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            _ => Err(SnapshotError::Corrupt("option tag out of range")),
        }
    }
}

/// A length prefix, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 1;
    fn put(&self, b: &mut Vec<u8>) {
        self.len().put(b);
        self.iter().for_each(|v| v.put(b));
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        let n = r.len_capped(T::MIN)?;
        get_n(r, n)
    }
}

/// Encoded exactly like a `Vec<T>`.
impl<T: Wire> Wire for VecDeque<T> {
    const MIN: usize = 1;
    fn put(&self, b: &mut Vec<u8>) {
        self.len().put(b);
        self.iter().for_each(|v| v.put(b));
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        Vec::get(r).map(VecDeque::from)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, b: &mut Vec<u8>) {
        self.0.put(b);
        self.1.put(b);
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN: usize = A::MIN + B::MIN + C::MIN;
    fn put(&self, b: &mut Vec<u8>) {
        self.0.put(b);
        self.1.put(b);
        self.2.put(b);
    }
    fn get(r: &mut Rd) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Reads `n` values with no length prefix (per-node and per-edge
/// arrays, whose length an earlier array fixed).
pub(crate) fn get_n<T: Wire>(r: &mut Rd, n: usize) -> Result<Vec<T>, SnapshotError> {
    let mut out = Vec::with_capacity(n.min(r.buf.len() - r.pos));
    for _ in 0..n {
        out.push(T::get(r)?);
    }
    Ok(out)
}

/// `T::MIN` of the field `field` selects (lets [`wire_struct!`] sum its
/// fields' sizes without naming their types).
pub(crate) const fn min_of<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN
}

/// `T::MIN` of a reserved slot's value.
pub(crate) const fn min_like<T: Wire>(_value: &T) -> usize {
    T::MIN
}

/// Decodes a value of the type of the field `field` selects.
pub(crate) fn get_field<S, T: Wire>(r: &mut Rd, _field: fn(&S) -> &T) -> Result<T, SnapshotError> {
    T::get(r)
}

/// Reads and discards one value of a reserved slot's type.
pub(crate) fn skip_like<T: Wire>(_value: &T, r: &mut Rd) -> Result<(), SnapshotError> {
    T::get(r).map(drop)
}

/// Derives [`Wire`] for a struct from one listing of its fields, in
/// wire order. Each entry is one of
///
/// * `field` — the field's own encoding;
/// * `field[n]` — a `Vec` of exactly `n` elements with no length
///   prefix; `n` may use fields listed before it;
/// * `field as Via`, `field[n] as Via` — the field, or each element,
///   encoded through the tuple newtype `Via` (a `Copy` value);
/// * `reserved value` — not a field: writes `value` and, on read,
///   decodes and discards one value of its type (a slot kept only so
///   older snapshots still decode).
///
/// A trailing `check path` runs `path(&decoded)` on every decoded value.
macro_rules! wire_struct {
    (@min) => { 0 };
    (@min reserved $v:expr $(, $($rest:tt)*)?) => {
        $crate::wire::min_like(&$v) + $crate::wire::wire_struct!(@min $($($rest)*)?)
    };
    (@min $f:ident [$n:expr] $(as $via:ident)? $(, $($rest:tt)*)?) => {
        $crate::wire::wire_struct!(@min $($($rest)*)?)
    };
    (@min $f:ident as $via:ident $(, $($rest:tt)*)?) => {
        <$via as $crate::wire::Wire>::MIN + $crate::wire::wire_struct!(@min $($($rest)*)?)
    };
    (@min $f:ident $(, $($rest:tt)*)?) => {
        $crate::wire::min_of(|s: &Self| &s.$f) + $crate::wire::wire_struct!(@min $($($rest)*)?)
    };

    (@put $s:ident $b:ident;) => {};
    (@put $s:ident $b:ident; reserved $v:expr $(, $($rest:tt)*)?) => {
        $crate::wire::Wire::put(&$v, $b);
        $crate::wire::wire_struct!(@put $s $b; $($($rest)*)?);
    };
    (@put $s:ident $b:ident; $f:ident [$n:expr] as $via:ident $(, $($rest:tt)*)?) => {
        for x in &$s.$f {
            $crate::wire::Wire::put(&$via(*x), $b);
        }
        $crate::wire::wire_struct!(@put $s $b; $($($rest)*)?);
    };
    (@put $s:ident $b:ident; $f:ident [$n:expr] $(, $($rest:tt)*)?) => {
        for x in &$s.$f {
            $crate::wire::Wire::put(x, $b);
        }
        $crate::wire::wire_struct!(@put $s $b; $($($rest)*)?);
    };
    (@put $s:ident $b:ident; $f:ident as $via:ident $(, $($rest:tt)*)?) => {
        $crate::wire::Wire::put(&$via($s.$f), $b);
        $crate::wire::wire_struct!(@put $s $b; $($($rest)*)?);
    };
    (@put $s:ident $b:ident; $f:ident $(, $($rest:tt)*)?) => {
        $crate::wire::Wire::put(&$s.$f, $b);
        $crate::wire::wire_struct!(@put $s $b; $($($rest)*)?);
    };

    (@get $r:ident [$($done:ident)*];) => { Self { $($done),* } };
    (@get $r:ident [$($done:ident)*]; reserved $v:expr $(, $($rest:tt)*)?) => {{
        $crate::wire::skip_like(&$v, $r)?;
        $crate::wire::wire_struct!(@get $r [$($done)*]; $($($rest)*)?)
    }};
    (@get $r:ident [$($done:ident)*]; $f:ident [$n:expr] as $via:ident $(, $($rest:tt)*)?) => {{
        let $f: Vec<_> = $crate::wire::get_n::<$via>($r, $n)?
            .into_iter()
            .map(|v| v.0)
            .collect();
        $crate::wire::wire_struct!(@get $r [$($done)* $f]; $($($rest)*)?)
    }};
    (@get $r:ident [$($done:ident)*]; $f:ident [$n:expr] $(, $($rest:tt)*)?) => {{
        let $f: Vec<_> = $crate::wire::get_n($r, $n)?;
        $crate::wire::wire_struct!(@get $r [$($done)* $f]; $($($rest)*)?)
    }};
    (@get $r:ident [$($done:ident)*]; $f:ident as $via:ident $(, $($rest:tt)*)?) => {{
        let $f = <$via as $crate::wire::Wire>::get($r)?.0;
        $crate::wire::wire_struct!(@get $r [$($done)* $f]; $($($rest)*)?)
    }};
    (@get $r:ident [$($done:ident)*]; $f:ident $(, $($rest:tt)*)?) => {{
        let $f = $crate::wire::get_field($r, |s: &Self| &s.$f)?;
        $crate::wire::wire_struct!(@get $r [$($done)* $f]; $($($rest)*)?)
    }};

    ($ty:ty { $($body:tt)* } $(check $check:path)?) => {
        impl $crate::wire::Wire for $ty {
            const MIN: usize = $crate::wire::wire_struct!(@min $($body)*);
            fn put(&self, b: &mut Vec<u8>) {
                $crate::wire::wire_struct!(@put self b; $($body)*);
            }
            fn get(r: &mut $crate::wire::Rd) -> Result<Self, $crate::snapshot::SnapshotError> {
                let v: Self = $crate::wire::wire_struct!(@get r []; $($body)*);
                $($check(&v)?;)?
                Ok(v)
            }
        }
    };
}

/// Derives [`Wire`] for an enum from its tag table: one `u8` tag, then
/// the variant's fields in the order listed. Variants are written
/// `Unit`, `Tuple(a, b)` or `Struct { a, b }`. An unknown tag is
/// `Corrupt(msg)`; an optional `reserved tag => "why"` names a retired
/// tag with its own error. A trailing `check path` runs
/// `path(&decoded)` on every decoded value.
macro_rules! wire_enum {
    (@get $r:ident $_field:ident) => { $crate::wire::Wire::get($r)? };
    (
        $ty:ty, $msg:literal $(, reserved $rtag:literal => $rmsg:literal)? {
            $($tag:literal => $v:ident $({ $($sf:ident),* })? $(( $($tf:ident),* ))?),* $(,)?
        }
        $(check $check:path)?
    ) => {
        impl $crate::wire::Wire for $ty {
            const MIN: usize = 1;
            fn put(&self, b: &mut Vec<u8>) {
                match self {
                    $(Self::$v $({ $($sf),* })? $(( $($tf),* ))? => {
                        b.push($tag);
                        $($($crate::wire::Wire::put($sf, b);)*)?
                        $($($crate::wire::Wire::put($tf, b);)*)?
                    })*
                }
            }
            fn get(r: &mut $crate::wire::Rd) -> Result<Self, $crate::snapshot::SnapshotError> {
                let v = match <u8 as $crate::wire::Wire>::get(r)? {
                    $($tag => Self::$v
                        $({ $($sf: $crate::wire::Wire::get(r)?),* })?
                        $(( $($crate::wire::wire_enum!(@get r $tf)),* ))?,)*
                    $($rtag => return Err($crate::snapshot::SnapshotError::Corrupt($rmsg)),)?
                    _ => return Err($crate::snapshot::SnapshotError::Corrupt($msg)),
                };
                $($check(&v)?;)?
                Ok(v)
            }
        }
    };
}

pub(crate) use {wire_enum, wire_struct};

#[cfg(test)]
mod tests {
    use super::*;

    fn enc<T: Wire>(v: &T) -> Vec<u8> {
        let mut b = Vec::new();
        v.put(&mut b);
        b
    }

    fn dec<T: Wire>(bytes: &[u8]) -> Result<T, SnapshotError> {
        let mut r = Rd::new(bytes);
        let v = T::get(&mut r)?;
        assert!(r.at_end(), "trailing bytes after {bytes:02x?}");
        Ok(v)
    }

    #[test]
    fn primitives_round_trip_and_reject_at_their_edges() {
        // Varints at the 7-bit boundaries and at the 10-byte maximum.
        for (v, len) in [(0u64, 1), (127, 1), (128, 2), (u64::MAX, 10)] {
            let bytes = enc(&v);
            assert_eq!(bytes.len(), len, "varint {v}");
            assert_eq!(dec::<u64>(&bytes), Ok(v), "varint {v}");
        }
        let overflow = SnapshotError::Corrupt("varint overflow");
        let mut eleven = vec![0x80u8; 10];
        eleven.push(0);
        let mut tenth_too_big = vec![0xffu8; 9];
        tenth_too_big.push(2);
        let cases: [(&str, Result<(), SnapshotError>); 7] = [
            ("11-byte varint", dec::<u64>(&eleven).map(drop)),
            ("10th byte > 1", dec::<u64>(&tenth_too_big).map(drop)),
            ("u32 past range", dec::<u32>(&enc(&(1u64 << 32))).map(drop)),
            ("bool 2", dec::<bool>(&[2]).map(drop)),
            ("option tag 2", dec::<Option<u64>>(&[2, 0]).map(drop)),
            ("hostile length", dec::<Vec<u64>>(&[5, 1, 2]).map(drop)),
            ("empty input", dec::<u8>(&[]).map(drop)),
        ];
        let expected = [
            Err(overflow),
            Err(overflow),
            Err(SnapshotError::Corrupt("u32 out of range")),
            Err(SnapshotError::Corrupt("bool out of range")),
            Err(SnapshotError::Corrupt("option tag out of range")),
            Err(SnapshotError::Truncated),
            Err(SnapshotError::Truncated),
        ];
        for ((what, got), want) in cases.into_iter().zip(expected) {
            assert_eq!(got, want, "{what}");
        }
        assert_eq!(dec::<u32>(&enc(&u32::MAX)), Ok(u32::MAX));
        assert_eq!(dec::<Option<u64>>(&enc(&Some(300u64))), Ok(Some(300)));
        assert_eq!(dec::<Vec<u64>>(&enc(&vec![1u64, 200])), Ok(vec![1, 200]));
        // A length prefix is bounded by the bytes left over the element
        // size: two 16-byte keys cannot fit in 31 bytes.
        let mut keys = vec![2u8];
        keys.extend([0u8; 31]);
        assert_eq!(
            dec::<Vec<PackedEvent>>(&keys).map(drop),
            Err(SnapshotError::Truncated)
        );
    }
}
