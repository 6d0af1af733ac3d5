//! In-tree byte buffers for the wire codec.
//!
//! Replaces the `bytes` crate with the two shapes [`crate::schema`]
//! actually needs: [`ByteBuf`], a growable big-endian writer, and
//! [`Reader`], a borrowed cursor over untrusted bytes whose every read
//! is bounds-checked and returns `Result` — an unchecked read cannot be
//! written. Keeping these in-tree keeps the build hermetic (DESIGN.md's
//! from-scratch rule) and pins the on-wire byte order in one audited
//! place.
//!
//! The field primitives are `#[inline]`: the workspace builds with
//! `lto = "off"`, so without it every byte written or read by a codec
//! in another codegen unit is an out-of-line call.

use crate::codec::{DecodeError, MAX_VECTOR_LEN};

/// Growable write buffer; all multi-byte integers are big-endian
/// (network order), matching the codec's on-wire layout.
#[derive(Clone, Debug, Default)]
pub struct ByteBuf {
    data: Vec<u8>,
}

impl ByteBuf {
    /// An empty buffer.
    pub fn new() -> ByteBuf {
        ByteBuf::default()
    }

    /// An empty buffer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> ByteBuf {
        ByteBuf { data: Vec::with_capacity(capacity) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Append a `u32`, big-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a `u64`, big-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a byte slice verbatim.
    #[inline]
    pub fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Append `count` copies of `val`.
    #[inline]
    pub fn put_bytes(&mut self, val: u8, count: usize) {
        self.data.resize(self.data.len() + count, val);
    }

    /// Finish writing: the bytes written, without a copy.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

/// A read cursor over borrowed, untrusted bytes. Reads consume from the
/// front; one that would pass the end is [`DecodeError::Truncated`] and
/// consumes nothing.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// Consume `n` bytes, borrowed from the input.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// Consume `N` bytes, borrowed from the input as a fixed-size array.
    /// Borrowed, not copied: a decoder then copies an id once, from the
    /// input to where it lands, not piecewise through a `Result` on the
    /// stack.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], DecodeError> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// Consume one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Consume a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(|b| u32::from_be_bytes(*b))
    }

    /// Consume a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(|b| u64::from_be_bytes(*b))
    }

    /// Consume a vector length prefix and validate it against both the
    /// hard [`MAX_VECTOR_LEN`] cap and the bytes actually remaining (each
    /// element occupies at least `elem_bytes`), so an allocation sized
    /// from the result is sized from *verified* input. The order
    /// matters: an absurd claim is `TooLong` even when the buffer is
    /// also short.
    #[inline]
    pub fn len(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()?;
        if n as usize > MAX_VECTOR_LEN {
            return Err(DecodeError::TooLong(n));
        }
        // MAX_VECTOR_LEN · max element size stays far below usize::MAX,
        // so this product cannot overflow.
        if (n as usize) * elem_bytes > self.rest.len() {
            return Err(DecodeError::Truncated);
        }
        Ok(n as usize)
    }

    /// Consume a byte string: a `u32` count and that many bytes, borrowed.
    /// The count is bounded by the input that follows it, not by
    /// [`MAX_VECTOR_LEN`], so a byte string never allocates more than
    /// its input.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()?;
        self.take(n as usize)
    }

    /// Consume a length-prefixed vector of elements read by `elem`, each
    /// at least `elem_bytes` long; allocates only after [`len`](Reader::len)
    /// has verified the prefix.
    pub fn vec<T>(
        &mut self,
        elem_bytes: usize,
        mut elem: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.len(elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// End of input: bytes left unread are an error, so no decoder
    /// accepts a valid encoding followed by anything else.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_roundtrips_through_reader() {
        let mut w = ByteBuf::with_capacity(32);
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_slice(&[1, 2, 3]);
        w.put_bytes(0, 4);
        assert_eq!(w.len(), 1 + 4 + 8 + 3 + 4);
        let raw = w.into_vec();
        let mut r = Reader::new(&raw);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(r.array::<3>(), Ok(&[1, 2, 3]));
        assert_eq!(r.take(4), Ok(&[0u8; 4][..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn integers_are_big_endian_on_the_wire() {
        let mut w = ByteBuf::new();
        w.put_u32(1);
        assert_eq!(w.into_vec(), [0, 0, 0, 1]);
    }

    #[test]
    fn over_read_is_an_error_and_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
        assert_eq!(r.take(4), Err(DecodeError::Truncated));
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(DecodeError::Trailing(2)));
    }

    #[test]
    fn length_prefix_is_bounded_before_anything_is_allocated() {
        let claim = |n: u32, body: usize| {
            let mut raw = n.to_be_bytes().to_vec();
            raw.resize(4 + body, 0);
            raw
        };
        assert_eq!(Reader::new(&claim(u32::MAX, 0)).len(1), Err(DecodeError::TooLong(u32::MAX)));
        assert_eq!(Reader::new(&claim(3, 5)).len(2), Err(DecodeError::Truncated));
        let three = Reader::new(&claim(3, 6)).vec(2, |r| r.array::<2>().copied());
        assert_eq!(three, Ok(vec![[0, 0]; 3]));
    }
}
