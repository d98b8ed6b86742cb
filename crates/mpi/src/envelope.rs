//! Message envelopes: self-describing typed payloads.
//!
//! The MPI-2 language-interoperability requirement means a Fortran
//! producer and a C consumer (or here: any two Rust components) must agree
//! on the wire format. Payloads therefore carry a [`Datatype`] tag and are
//! stored in a defined little-endian byte layout, with checked encode /
//! decode helpers for the common scientific types.

use bytes::Bytes;

/// Message tag (like `MPI_TAG`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tag(pub u32);

/// Wildcard source for receives.
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag for receives.
pub const ANY_TAG: Tag = Tag(u32::MAX);

/// Element type of a message payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Datatype {
    /// Raw bytes.
    U8,
    /// Little-endian `u64`.
    U64,
    /// Little-endian `i64`.
    I64,
    /// Little-endian IEEE-754 `f32`.
    F32,
    /// Little-endian IEEE-754 `f64`.
    F64,
}

impl Datatype {
    /// Size of one element in bytes.
    pub fn elem_bytes(self) -> usize {
        match self {
            Datatype::U8 => 1,
            Datatype::F32 => 4,
            Datatype::U64 | Datatype::I64 | Datatype::F64 => 8,
        }
    }
}

/// A message in flight.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending rank (world index).
    pub src: usize,
    /// Destination rank (world index).
    pub dst: usize,
    /// Tag.
    pub tag: Tag,
    /// Element type of `data`.
    pub datatype: Datatype,
    /// Payload bytes (little-endian element layout).
    pub data: Bytes,
}

impl Envelope {
    /// Number of elements of the declared datatype.
    pub fn count(&self) -> usize {
        self.data.len() / self.datatype.elem_bytes()
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }
}

/// Encode `v` as consecutive `N`-byte little-endian elements, filling
/// one pre-sized buffer in place.
fn encode_le<T: Copy, const N: usize>(v: &[T], to_le_bytes: fn(T) -> [u8; N]) -> Bytes {
    let mut out = vec![0u8; v.len() * N];
    for (chunk, &x) in out.chunks_exact_mut(N).zip(v) {
        chunk.copy_from_slice(&to_le_bytes(x));
    }
    Bytes::from(out)
}

/// Encode a `f64` slice to little-endian bytes.
pub fn encode_f64s(v: &[f64]) -> Bytes {
    encode_le(v, f64::to_le_bytes)
}

/// Decode little-endian bytes to `f64`s. Panics on length mismatch (a
/// datatype error is a bug, matching MPI's `MPI_ERR_TYPE` fatality).
pub fn decode_f64s(b: &Bytes) -> Vec<f64> {
    assert_eq!(b.len() % 8, 0, "f64 payload not a multiple of 8 bytes");
    b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

/// Encode a `f32` slice.
pub fn encode_f32s(v: &[f32]) -> Bytes {
    encode_le(v, f32::to_le_bytes)
}

/// Decode little-endian bytes to `f32`s.
pub fn decode_f32s(b: &Bytes) -> Vec<f32> {
    assert_eq!(b.len() % 4, 0, "f32 payload not a multiple of 4 bytes");
    b.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
}

/// Encode a `u64` slice.
pub fn encode_u64s(v: &[u64]) -> Bytes {
    encode_le(v, u64::to_le_bytes)
}

/// Decode little-endian bytes to `u64`s.
pub fn decode_u64s(b: &Bytes) -> Vec<u64> {
    assert_eq!(b.len() % 8, 0, "u64 payload not a multiple of 8 bytes");
    b.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
}

/// Encode an `i64` slice.
pub fn encode_i64s(v: &[i64]) -> Bytes {
    encode_le(v, i64::to_le_bytes)
}

/// Decode little-endian bytes to `i64`s.
pub fn decode_i64s(b: &Bytes) -> Vec<i64> {
    assert_eq!(b.len() % 8, 0, "i64 payload not a multiple of 8 bytes");
    b.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let v = vec![0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(decode_f64s(&encode_f64s(&v)), v);
    }

    #[test]
    fn f32_roundtrip() {
        let v = vec![0.0f32, -2.25, 1e30, f32::EPSILON];
        assert_eq!(decode_f32s(&encode_f32s(&v)), v);
    }

    #[test]
    fn u64_i64_roundtrip() {
        let u = vec![0u64, 1, u64::MAX];
        assert_eq!(decode_u64s(&encode_u64s(&u)), u);
        let i = vec![0i64, -1, i64::MIN, i64::MAX];
        assert_eq!(decode_i64s(&encode_i64s(&i)), i);
    }

    /// The per-element append loop `encode_le` replaced.
    fn append_loop<T: Copy, const N: usize>(v: &[T], to_le_bytes: fn(T) -> [u8; N]) -> Vec<u8> {
        let mut out = Vec::with_capacity(v.len() * N);
        for &x in v {
            out.extend_from_slice(&to_le_bytes(x));
        }
        out
    }

    #[test]
    fn encode_bytes_match_the_append_loop() {
        let specials = [-0.0, f64::NAN, f64::from_bits(0x7ff4_0000_0000_0001), f64::INFINITY];
        let f64s: Vec<f64> =
            (0..1000).map(|k| (k as f64 - 500.0) * 1.37e-3).chain(specials).collect();
        let f32s: Vec<f32> = f64s.iter().map(|&x| x as f32).collect();
        let u64s: Vec<u64> = f64s.iter().map(|x| x.to_bits()).collect();
        let i64s: Vec<i64> = u64s.iter().map(|&x| x as i64).collect();
        for len in [0, 1, 7, f64s.len()] {
            assert_eq!(
                &encode_f64s(&f64s[..len])[..],
                &append_loop(&f64s[..len], f64::to_le_bytes)[..]
            );
            assert_eq!(
                &encode_f32s(&f32s[..len])[..],
                &append_loop(&f32s[..len], f32::to_le_bytes)[..]
            );
            assert_eq!(
                &encode_u64s(&u64s[..len])[..],
                &append_loop(&u64s[..len], u64::to_le_bytes)[..]
            );
            assert_eq!(
                &encode_i64s(&i64s[..len])[..],
                &append_loop(&i64s[..len], i64::to_le_bytes)[..]
            );
        }
    }

    #[test]
    fn envelope_counts() {
        let e = Envelope {
            src: 0,
            dst: 1,
            tag: Tag(3),
            datatype: Datatype::F64,
            data: encode_f64s(&[1.0, 2.0, 3.0]),
        };
        assert_eq!(e.count(), 3);
        assert_eq!(e.byte_len(), 24);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn misaligned_decode_panics() {
        let b = Bytes::from(vec![0u8; 7]);
        let _ = decode_f64s(&b);
    }

    #[test]
    fn datatype_sizes() {
        assert_eq!(Datatype::U8.elem_bytes(), 1);
        assert_eq!(Datatype::F32.elem_bytes(), 4);
        assert_eq!(Datatype::F64.elem_bytes(), 8);
        assert_eq!(Datatype::U64.elem_bytes(), 8);
        assert_eq!(Datatype::I64.elem_bytes(), 8);
    }
}
