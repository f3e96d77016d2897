//! Versioned binary snapshots: save/restore of simulator state.
//!
//! Resumable runs and the farm's pause/restart path need to
//! capture simulator state and put it back *bit-exactly*: a restored run
//! must produce the same observable results as one that never stopped.
//! This module provides the shared plumbing — a little-endian byte-stream
//! writer/reader pair with a header (magic + format version) and an
//! FNV-1a 64 integrity hash over the payload — plus the [`Snap`] trait
//! that every snapshottable type implements.
//!
//! Design rules:
//!
//! - **One codec rule.** A struct is its fields in listed order; an enum
//!   is an explicit `u8` tag followed by its variant's fields. Every type
//!   whose `save`/`load` only walks fields states that list once, through
//!   [`snap_struct!`] or [`snap_enum!`]; each field is written at its own
//!   type's width. A `load` that checks its input stays hand-written.
//! - **Bit-exact floats.** `f64` fields round-trip through `to_bits`, so
//!   Welford summaries restore to the exact bit pattern (the
//!   golden-metrics tests compare them with `==`).
//! - **Deterministic rebuild of derived state.** Hash-table probe arrays,
//!   binary-heap layouts, and free lists are either serialized verbatim
//!   (when their order is observable, e.g. LIFO slot reuse) or rebuilt
//!   deterministically from serialized primary state (when it is not,
//!   e.g. probe tables).
//! - **Fail closed.** Every read is bounds-checked; a truncated, corrupt,
//!   or version-skewed stream yields a [`SnapError`], never a panic or a
//!   silently wrong value.

/// Stream magic: `"WDSM"` in ASCII, little-endian.
pub const SNAP_MAGIC: u32 = 0x4D53_4457;

/// Current snapshot format version. Bump on any layout change; readers
/// reject other versions rather than guessing. Version 2 appended the
/// network's optional link-load meter to `Network::save_state`; versions 3
/// and 4 dropped the removed engines' counters from the `NetStats` layout;
/// version 5 stores the network's worklists as node bitsets and each
/// router FIFO as its live flits only; version 6 stores each cache's
/// occupied lines only and drops four fields no run read (a worm's id and
/// injection cycle, the kind carried by receive/handle events, and the
/// NICs' injection-backlog high-water marks).
pub const SNAP_VERSION: u32 = 6;

/// FNV-1a 64-bit incremental hasher.
///
/// Used for snapshot payload integrity and config hashing. Not
/// cryptographic — it guards against truncation and bit rot, not
/// adversaries.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

/// FNV-1a 64 offset basis (the hash of the empty input).
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// Start a new hash at the offset basis.
    pub fn new() -> Self {
        Self(FNV64_OFFSET)
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV64_PRIME);
        }
        self.0 = h;
    }

    /// Absorb a `u64` (little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Why a snapshot could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the expected data.
    Truncated,
    /// The stream does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The stream's format version is not [`SNAP_VERSION`].
    BadVersion(u32),
    /// The payload integrity hash does not match.
    BadHash,
    /// A field decoded to a value the target type cannot hold.
    Corrupt(String),
    /// The snapshot is valid but belongs to a different configuration
    /// (mesh shape, scheme, etc.) than the system it is being restored
    /// into.
    Mismatch(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot stream (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(f, "snapshot format version {v} (expected {SNAP_VERSION})")
            }
            SnapError::BadHash => write!(f, "snapshot integrity hash mismatch"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
            SnapError::Mismatch(what) => write!(f, "snapshot/config mismatch: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Little-endian snapshot stream writer.
///
/// Layout: `MAGIC (u32) | VERSION (u32) | payload bytes | FNV-1a 64 of
/// payload (u64)`. The trailer hash is appended by [`SnapWriter::finish`].
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Start a stream (header written immediately).
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        Self { buf }
    }

    /// Raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to `u64` (sizes are host-independent on disk).
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// `bool` as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// `f64` by bit pattern (exact round-trip, NaN/∞ included).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }

    /// Seal the stream: append the payload hash and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let hash = fnv64(&self.buf[8..]);
        self.buf.extend_from_slice(&hash.to_le_bytes());
        self.buf
    }
}

impl Default for SnapWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Bounds-checked reader over a sealed snapshot stream.
#[derive(Debug)]
pub struct SnapReader<'a> {
    /// Payload region (header and trailer hash stripped).
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Open a stream: validates magic, version, and the integrity hash.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapError> {
        if bytes.len() < 16 {
            return Err(SnapError::Truncated);
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("length checked"));
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("length checked"));
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let payload = &bytes[8..bytes.len() - 8];
        let stored =
            u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("length checked"));
        if fnv64(payload) != stored {
            return Err(SnapError::BadHash);
        }
        Ok(Self { buf: payload, pos: 0 })
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the payload is fully consumed (load completeness check).
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// `u16`, little-endian.
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.get_bytes(2)?.try_into().expect("length checked")))
    }

    /// `u32`, little-endian.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.get_bytes(4)?.try_into().expect("length checked")))
    }

    /// `u64`, little-endian.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.get_bytes(8)?.try_into().expect("length checked")))
    }

    /// `usize` from a `u64` (rejects values the host cannot index).
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// `bool` from one byte (rejects values other than 0/1).
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let n = self.get_usize()?;
        let bytes = self.get_bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Corrupt("non-UTF-8 string".to_string()))
    }

    /// A container length prefix, sanity-bounded by the bytes remaining
    /// (every element costs at least one byte, so a larger claim is
    /// corrupt, not just big).
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let n = self.get_usize()?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt(format!(
                "container length {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// A type that can be captured into and restored from a snapshot stream.
///
/// `load` must accept exactly the bytes `save` wrote (same order, same
/// widths) and reconstruct a value observably identical to the original:
/// every future simulator-visible behavior — including iteration order of
/// internal containers — must match.
pub trait Snap: Sized {
    /// Append this value to the stream.
    fn save(&self, w: &mut SnapWriter);
    /// Reconstruct a value from the stream.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Implement [`Snap`] for a struct as its fields in the listed order.
///
/// The listed order is the byte order, and each field is written at its
/// own type's width (`u16` through `put_u16`, `[T; N]` with no length
/// prefix). Named structs list field names, tuple structs list indices:
///
/// ```
/// use wormdsm_sim::snap::{Snap, SnapReader, SnapWriter};
/// use wormdsm_sim::snap_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct Id(u32);
/// #[derive(Debug, PartialEq)]
/// struct Hop { id: Id, at: u64, seq: u16 }
/// snap_struct!(Id(0));
/// snap_struct!(Hop { at, id, seq }); // bytes: at, id, seq
///
/// let hop = Hop { id: Id(7), at: 9, seq: 2 };
/// let mut w = SnapWriter::new();
/// hop.save(&mut w);
/// let bytes = w.finish();
/// assert_eq!(bytes.len(), 8 + 8 + 4 + 2 + 8);
/// assert_eq!(Hop::load(&mut SnapReader::new(&bytes).unwrap()).unwrap(), hop);
/// ```
///
/// Both halves name every field (`save` destructures without `..`,
/// `load` builds the struct in full), so a field left out of the list is
/// a compile error rather than a snapshot that silently drops it:
///
/// ```compile_fail
/// use wormdsm_sim::snap_struct;
///
/// struct Hop { at: u64, seq: u16 }
/// snap_struct!(Hop { at }); // error: `seq` is missing
/// ```
///
/// A `load` that checks its input (lengths, ranges, free lists) is not a
/// field walk and stays a hand-written impl.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($field),+ } = self;
                $($crate::snap::Snap::save($field, w);)+
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                Ok(Self { $($field: $crate::snap::Snap::load(r)?),+ })
            }
        }
    };
    ($ty:ident ( $($idx:tt),+ $(,)? )) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($idx: _),+ } = self;
                $($crate::snap::Snap::save(&self.$idx, w);)+
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                Ok(Self { $($idx: $crate::snap::Snap::load(r)?),+ })
            }
        }
    };
}

/// Implement [`Snap`] for an enum as an explicit `u8` tag followed by the
/// variant's fields in the listed order.
///
/// Tags are written out, so reordering variants in the source cannot
/// shift the format; `save` matches exhaustively, and an unknown tag
/// loads as [`SnapError::Corrupt`]. Tuple variants list bindings in
/// parentheses, struct variants list field names in braces:
///
/// ```
/// use wormdsm_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
/// use wormdsm_sim::snap_enum;
///
/// #[derive(Debug, PartialEq)]
/// enum Slot { Free, Held(u32), Parked { at: u64, seq: u16 } }
/// snap_enum!(Slot { 0 => Free, 1 => Held(owner), 2 => Parked { at, seq } });
///
/// let mut w = SnapWriter::new();
/// Slot::Parked { at: 3, seq: 4 }.save(&mut w);
/// let bytes = w.finish();
/// let back = Slot::load(&mut SnapReader::new(&bytes).unwrap()).unwrap();
/// assert_eq!(back, Slot::Parked { at: 3, seq: 4 });
///
/// let mut w = SnapWriter::new();
/// w.put_u8(9);
/// let bytes = w.finish();
/// let err = Slot::load(&mut SnapReader::new(&bytes).unwrap()).unwrap_err();
/// assert_eq!(err, SnapError::Corrupt("Slot tag 9".to_string()));
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident {
        $($tag:literal => $var:ident $(( $($tf:ident),+ $(,)? ))? $({ $($sf:ident),+ $(,)? })?),+
        $(,)?
    }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(Self::$var $(( $($tf),+ ))? $({ $($sf),+ })? => {
                        w.put_u8($tag);
                        $($($crate::snap::Snap::save($tf, w);)+)?
                        $($($crate::snap::Snap::save($sf, w);)+)?
                    })+
                }
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                match r.get_u8()? {
                    $($tag => {
                        $($(let $tf = $crate::snap::Snap::load(r)?;)+)?
                        $($(let $sf = $crate::snap::Snap::load(r)?;)+)?
                        Ok(Self::$var $(( $($tf),+ ))? $({ $($sf),+ })?)
                    })+
                    t => Err($crate::snap::SnapError::Corrupt(format!(
                        concat!(stringify!($ty), " tag {}"),
                        t
                    ))),
                }
            }
        }
    };
}

pub use crate::{snap_enum, snap_struct};

macro_rules! snap_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snap for $ty {
            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            #[inline]
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    };
}

snap_prim!(u8, put_u8, get_u8);
snap_prim!(u16, put_u16, get_u16);
snap_prim!(u32, put_u32, get_u32);
snap_prim!(u64, put_u64, get_u64);
snap_prim!(usize, put_usize, get_usize);
snap_prim!(bool, put_bool, get_bool);
snap_prim!(f64, put_f64, get_f64);

impl Snap for i64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_u64()? as i64)
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(SnapError::Corrupt(format!("Option tag {b}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for std::collections::VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut out = std::collections::VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into().map_err(|_| SnapError::Corrupt("array length".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        let mut inc = Fnv64::new();
        inc.write(b"foo");
        inc.write(b"bar");
        assert_eq!(inc.finish(), fnv64(b"foobar"), "incremental == one-shot");
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapWriter::new();
        0xABu8.save(&mut w);
        0xBEEFu16.save(&mut w);
        0xDEAD_BEEFu32.save(&mut w);
        u64::MAX.save(&mut w);
        12345usize.save(&mut w);
        true.save(&mut w);
        (-5i64).save(&mut w);
        f64::NEG_INFINITY.save(&mut w);
        1.5f64.save(&mut w);
        "héllo".to_string().save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(u8::load(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::load(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::load(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::load(&mut r).unwrap(), u64::MAX);
        assert_eq!(usize::load(&mut r).unwrap(), 12345);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(i64::load(&mut r).unwrap(), -5);
        assert_eq!(f64::load(&mut r).unwrap(), f64::NEG_INFINITY);
        assert_eq!(f64::load(&mut r).unwrap(), 1.5);
        assert_eq!(String::load(&mut r).unwrap(), "héllo");
        assert!(r.is_done());
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<u32> = vec![1, 2, 3];
        let d: VecDeque<u16> = VecDeque::from(vec![9, 8]);
        let o: Option<u64> = Some(7);
        let n: Option<u64> = None;
        let t = (1u8, 2u64, 3u16);
        let a: [u32; 4] = [10, 20, 30, 40];
        let mut w = SnapWriter::new();
        v.save(&mut w);
        d.save(&mut w);
        o.save(&mut w);
        n.save(&mut w);
        t.save(&mut w);
        a.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(Vec::<u32>::load(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<u16>::load(&mut r).unwrap(), d);
        assert_eq!(Option::<u64>::load(&mut r).unwrap(), o);
        assert_eq!(Option::<u64>::load(&mut r).unwrap(), n);
        assert_eq!(<(u8, u64, u16)>::load(&mut r).unwrap(), t);
        assert_eq!(<[u32; 4]>::load(&mut r).unwrap(), a);
        assert!(r.is_done());
    }

    #[test]
    fn rejects_bad_magic_version_hash_truncation() {
        let mut w = SnapWriter::new();
        42u64.save(&mut w);
        let good = w.finish();
        assert!(SnapReader::new(&good).is_ok());

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(SnapReader::new(&bad).unwrap_err(), SnapError::BadMagic);

        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(SnapReader::new(&bad).unwrap_err(), SnapError::BadVersion(99));

        let mut bad = good.clone();
        bad[10] ^= 0x01; // flip a payload bit
        assert_eq!(SnapReader::new(&bad).unwrap_err(), SnapError::BadHash);

        assert_eq!(SnapReader::new(&good[..7]).unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn oversized_container_length_is_corrupt_not_alloc() {
        let mut w = SnapWriter::new();
        w.put_usize(usize::MAX); // claimed length with no data behind it
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(Vec::<u8>::load(&mut r), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn reader_reports_leftover_payload() {
        let mut w = SnapWriter::new();
        1u8.save(&mut w);
        2u8.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let _ = u8::load(&mut r).unwrap();
        assert!(!r.is_done());
        assert_eq!(r.remaining(), 1);
    }
}
