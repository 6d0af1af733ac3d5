//! In-tree byte buffers for the wire codec.
//!
//! Replaces the `bytes` crate with the two shapes [`crate::codec`]
//! actually needs: [`ByteBuf`], a growable big-endian writer, and
//! [`Bytes`], an immutable byte string with a read cursor. Keeping
//! these in-tree keeps the build hermetic (DESIGN.md's from-scratch
//! rule) and pins the on-wire byte order in one audited place.

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
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Append a `u32`, big-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a `u64`, big-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a byte slice verbatim.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Append `count` copies of `val`.
    pub fn put_bytes(&mut self, val: u8, count: usize) {
        self.data.resize(self.data.len() + count, val);
    }

    /// Finish writing; the result reads from the start.
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data, pos: 0 }
    }
}

/// An immutable byte string with a read cursor.
///
/// `get_*`/[`advance`](Bytes::advance) consume from the front;
/// [`len`](Bytes::len), equality and `Debug` all view the *remaining*
/// (unread) bytes, so a freshly frozen buffer behaves like a plain
/// byte string.
#[derive(Clone)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Wrap a static byte string.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes { data: data.to_vec(), pos: 0 }
    }

    /// Remaining (unread) byte count.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// `true` if fully consumed (or empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining bytes, as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    /// The remaining bytes as an owned vector (the whole buffer,
    /// unchanged, when nothing was read).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.data.drain(..self.pos);
        self.data
    }

    /// Synonym of [`len`](Bytes::len), matching the reader idiom.
    pub fn remaining(&self) -> usize {
        self.len()
    }

    /// A copy of the first `range.end` remaining bytes, as a fresh
    /// unread `Bytes` (used by truncation tests).
    pub fn slice(&self, range: std::ops::RangeTo<usize>) -> Bytes {
        Bytes { data: self.as_slice()[range].to_vec(), pos: 0 }
    }

    /// Consume one byte. Panics if empty (callers bounds-check via
    /// [`remaining`](Bytes::remaining) first).
    pub fn get_u8(&mut self) -> u8 {
        let v = self.data[self.pos];
        self.pos += 1;
        v
    }

    /// Consume a big-endian `u32`.
    pub fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Consume a big-endian `u64`.
    pub fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Skip `n` bytes.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.pos += n;
    }

    /// Consume `dest.len()` bytes into `dest`.
    pub fn copy_to_slice(&mut self, dest: &mut [u8]) {
        assert!(dest.len() <= self.len(), "copy past end of buffer");
        dest.copy_from_slice(&self.data[self.pos..self.pos + dest.len()]);
        self.pos += dest.len();
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes { data, pos: 0 }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:02x?})", self.as_slice())
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
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), 0x0123_4567_89AB_CDEF);
        let mut three = [0u8; 3];
        r.copy_to_slice(&mut three);
        assert_eq!(three, [1, 2, 3]);
        r.advance(4);
        assert!(r.is_empty());
    }

    #[test]
    fn integers_are_big_endian_on_the_wire() {
        let mut w = ByteBuf::new();
        w.put_u32(1);
        assert_eq!(w.freeze().as_slice(), &[0, 0, 0, 1]);
    }

    #[test]
    fn len_and_eq_track_remaining_bytes() {
        let mut a = Bytes::from(vec![9, 8, 7]);
        let b = Bytes::from(vec![8, 7]);
        assert_ne!(a, b);
        a.get_u8();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn slice_copies_remaining_prefix() {
        let full = Bytes::from(vec![1, 2, 3, 4, 5]);
        let cut = full.slice(..3);
        assert_eq!(cut.as_slice(), &[1, 2, 3]);
        // Original is untouched.
        assert_eq!(full.len(), 5);
    }

    #[test]
    #[should_panic(expected = "copy past end")]
    fn over_read_panics() {
        let mut r = Bytes::from(vec![1]);
        let mut two = [0u8; 2];
        r.copy_to_slice(&mut two);
    }
}
