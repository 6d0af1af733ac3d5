//! A from-scratch SHA-1 implementation (FIPS 180-1).
//!
//! The paper (§III footnote 1, §IV-A) derives both object and group ids
//! with SHA-1. Cryptographic strength is irrelevant here — what matters is
//! that ids are spread uniformly over the 160-bit ring so that Eq. 4's
//! uniformity assumption holds — but using the exact function the paper
//! names keeps the reproduction faithful.
//!
//! The implementation is the streaming variant: bytes may be fed
//! incrementally with [`Sha1::update`] and the digest extracted with
//! [`Sha1::finalize`]. A one-shot helper [`Sha1::digest`] covers the common
//! case.

/// Streaming SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes fed so far.
    len: u64,
    /// Partially filled block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Create a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Feed `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Top up a partially filled block first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }

        // Whole blocks straight from the input.
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }

        // Stash the remainder.
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consume the hasher and return the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length. A tail of 56
        // bytes or more leaves no room for the length, which then goes
        // into a block of its own.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let mut v = self.state;
        rounds(&mut v, &w[..20], 0x5A82_7999, |b, c, d| (b & c) | (!b & d));
        rounds(&mut v, &w[20..40], 0x6ED9_EBA1, |b, c, d| b ^ c ^ d);
        rounds(&mut v, &w[40..60], 0x8F1B_BCDC, |b, c, d| (b & c) | (b & d) | (c & d));
        rounds(&mut v, &w[60..], 0xCA62_C1D6, |b, c, d| b ^ c ^ d);

        for (s, x) in self.state.iter_mut().zip(v) {
            *s = s.wrapping_add(x);
        }
    }
}

/// Twenty rounds sharing one round function `f` and constant `k` over
/// the working variables `[a, b, c, d, e]`.
#[inline(always)]
fn rounds(v: &mut [u32; 5], w: &[u32], k: u32, f: impl Fn(u32, u32, u32) -> u32) {
    for &wi in w {
        let [a, b, c, d, e] = *v;
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f(b, c, d))
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        *v = [tmp, a, b.rotate_left(30), c, d];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            hex(&Sha1::digest(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 7, 63, 64, 65, 1000, 9999, 10_000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn every_length_to_130_is_pinned() {
        // One digest folds the digests of every length 0..=130, so the
        // padding edges at 55, 56, 63, 64, 119 and 120 bytes (one or two
        // padding blocks) are each pinned.
        let data: Vec<u8> = (0..130u32).map(|i| (i * 31 + 7) as u8).collect();
        let mut fold = Sha1::new();
        for n in 0..=data.len() {
            fold.update(&Sha1::digest(&data[..n]));
        }
        assert_eq!(hex(&fold.finalize()), "80c79c532454285515463feae29cc7b430cc09b1");
    }

    #[test]
    fn boundary_lengths_are_consistent() {
        // Lengths around the 55/56/64-byte padding boundaries are the
        // classic SHA-1 implementation bug sites; check self-consistency.
        for n in 50..70 {
            let data = vec![0xAB; n];
            let one = Sha1::digest(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one, "length {n}");
        }
    }
}
