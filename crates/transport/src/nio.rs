//! Nonblocking I/O building blocks for the daemon's event loop.
//!
//! One reader thread per accepted connection caps pipelining (one
//! frame in flight per thread wake) and makes fairness an accident of
//! the scheduler. This module is the readiness-driven accept side,
//! std-only per the hermetic policy (no mio/epoll binding —
//! `set_nonblocking` plus a poll loop):
//!
//! * [`FrameAccum`] — an incremental decoder for the length-prefixed
//!   framing of [`crate::frame`]: bytes go in at *any* split boundary,
//!   whole frames come out. The [`crate::frame::MAX_FRAME_BYTES`] cap
//!   is enforced on the prefix before any buffer is sized from it,
//!   exactly like the blocking reader.
//! * [`NbListener`] — a nonblocking acceptor: `accept_ready` drains
//!   every pending connection and returns instead of blocking.
//! * [`NbConn`] — one nonblocking connection with explicit read and
//!   write buffering: `read_ready` pulls whatever bytes the kernel has
//!   (feeding the accumulator), `queue` stages outgoing bytes, and
//!   `try_flush` writes as much as the socket accepts. A peer that
//!   stops reading therefore backs frames up in `queued_bytes`, which
//!   the event loop bounds explicitly (backpressure parking) instead
//!   of blocking a writer thread.

use crate::frame::MAX_FRAME_BYTES;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Read chunk size: one `read(2)` per readiness check pulls at most
/// this many bytes, so a single firehose connection cannot starve the
/// rest of the loop within one wakeup.
const READ_CHUNK: usize = 64 * 1024;

/// Incremental frame decoder: push raw stream bytes at arbitrary
/// split boundaries, pop whole frames.
#[derive(Default)]
pub struct FrameAccum {
    buf: Vec<u8>,
    /// Bytes before `start` are already consumed (compacted lazily so
    /// one-byte-per-wakeup peers do not trigger O(n²) copying).
    start: usize,
}

impl FrameAccum {
    /// An empty accumulator.
    pub fn new() -> FrameAccum {
        FrameAccum::default()
    }

    /// Feed stream bytes in (any amount, any boundary).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next whole frame, if one has fully arrived.
    ///
    /// Returns `Err(InvalidData)` when the buffered prefix claims more
    /// than [`MAX_FRAME_BYTES`] — the connection is protocol-violating
    /// or hostile and must be dropped; the check runs on the prefix
    /// arithmetic alone, before any allocation is sized from it.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let p = self.start;
        let len = u32::from_be_bytes(self.buf[p..p + 4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame prefix claims {len} bytes (limit {MAX_FRAME_BYTES})"),
            ));
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let frame = self.buf[p + 4..p + 4 + len].to_vec();
        self.start += 4 + len;
        self.compact();
        Ok(Some(frame))
    }

    /// Drop consumed bytes once they dominate the buffer (amortized
    /// O(1) per byte).
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// A nonblocking listener: `accept_ready` never blocks.
pub struct NbListener {
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl NbListener {
    /// Bind `addr` (port 0 for ephemeral) in nonblocking mode.
    pub fn bind(addr: &str) -> io::Result<NbListener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(NbListener { listener, local_addr })
    }

    /// The bound address (ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Accept every connection the kernel has pending, without
    /// blocking. Transient per-connection errors are skipped.
    pub fn accept_ready(&self) -> Vec<(TcpStream, SocketAddr)> {
        let mut out = Vec::new();
        loop {
            match self.listener.accept() {
                Ok(pair) => out.push(pair),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        out
    }
}

/// One nonblocking connection with explicit read/write buffering.
pub struct NbConn {
    stream: TcpStream,
    peer: SocketAddr,
    rbuf: FrameAccum,
    /// Outgoing bytes the kernel has not yet accepted, in write order.
    wbuf: VecDeque<u8>,
    dead: bool,
}

impl NbConn {
    /// Adopt an accepted stream: nonblocking + NODELAY.
    pub fn new(stream: TcpStream, peer: SocketAddr) -> io::Result<NbConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(NbConn { stream, peer, rbuf: FrameAccum::new(), wbuf: VecDeque::new(), dead: false })
    }

    /// The remote address (the peer's ephemeral client port).
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// True once the peer closed, errored, or violated framing. A dead
    /// connection accepts no further reads or writes; buffered frames
    /// already decoded remain poppable.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Read whatever the kernel has (up to one [`READ_CHUNK`]) into
    /// the frame accumulator. Returns `true` if any bytes arrived.
    pub fn read_ready(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut chunk = [0u8; 4096];
        let mut total = 0;
        while total < READ_CHUNK {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true; // EOF: peer closed
                    break;
                }
                Ok(n) => {
                    self.rbuf.push(&chunk[..n]);
                    total += n;
                    if n < chunk.len() {
                        break; // drained the kernel buffer
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        total > 0
    }

    /// Pop the next fully-received frame. A framing violation (hostile
    /// length prefix) kills the connection.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        match self.rbuf.next_frame() {
            Ok(f) => f,
            Err(_) => {
                self.dead = true;
                None
            }
        }
    }

    /// Stage one framed payload for writing (prefix + payload).
    pub fn queue_frame(&mut self, payload: &[u8]) {
        if self.dead {
            return;
        }
        debug_assert!(payload.len() <= MAX_FRAME_BYTES);
        self.wbuf.extend(&(payload.len() as u32).to_be_bytes());
        self.wbuf.extend(payload);
    }

    /// Bytes staged but not yet accepted by the kernel — the quantity
    /// the event loop's backpressure bound watches.
    pub fn queued_bytes(&self) -> usize {
        self.wbuf.len()
    }

    /// Write as much of the staged bytes as the socket accepts right
    /// now. Returns `true` when the buffer fully drained.
    pub fn try_flush(&mut self) -> bool {
        if self.dead {
            self.wbuf.clear();
            return true;
        }
        while !self.wbuf.is_empty() {
            let (head, _) = self.wbuf.as_slices();
            match self.stream.write(head) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        self.wbuf.is_empty()
    }

    /// Half-close our side (used at orderly engine shutdown).
    pub fn close(&mut self) {
        self.stream.shutdown(std::net::Shutdown::Both).ok();
        self.dead = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;

    /// Every split offset of a frame (and of a pair of frames) must
    /// decode identically to the unsplit stream — the frame-boundary
    /// regression the slow-loris tests rely on.
    #[test]
    fn frame_accum_handles_every_split_offset() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first frame payload").unwrap();
        write_frame(&mut wire, &[0xC3; 97]).unwrap();
        for cut in 0..=wire.len() {
            let mut acc = FrameAccum::new();
            acc.push(&wire[..cut]);
            let mut got = Vec::new();
            while let Some(f) = acc.next_frame().unwrap() {
                got.push(f);
            }
            acc.push(&wire[cut..]);
            while let Some(f) = acc.next_frame().unwrap() {
                got.push(f);
            }
            assert_eq!(got.len(), 2, "cut at {cut}");
            assert_eq!(got[0], b"first frame payload", "cut at {cut}");
            assert_eq!(got[1], vec![0xC3; 97], "cut at {cut}");
        }
    }

    /// One byte per push — the slow-loris delivery pattern.
    #[test]
    fn frame_accum_one_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slow").unwrap();
        let mut acc = FrameAccum::new();
        for (i, b) in wire.iter().enumerate() {
            assert!(acc.next_frame().unwrap().is_none() || i == wire.len());
            acc.push(&[*b]);
        }
        assert_eq!(acc.next_frame().unwrap().unwrap(), b"slow");
        assert!(acc.next_frame().unwrap().is_none());
    }

    #[test]
    fn frame_accum_many_frames_in_one_push() {
        let mut wire = Vec::new();
        for i in 0..50u8 {
            write_frame(&mut wire, &[i; 3]).unwrap();
        }
        let mut acc = FrameAccum::new();
        acc.push(&wire);
        for i in 0..50u8 {
            assert_eq!(acc.next_frame().unwrap().unwrap(), [i; 3]);
        }
        assert!(acc.next_frame().unwrap().is_none());
    }

    #[test]
    fn frame_accum_rejects_hostile_prefix_before_allocation() {
        let mut acc = FrameAccum::new();
        acc.push(&u32::MAX.to_be_bytes());
        let err = acc.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_accum_empty_frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"x").unwrap();
        let mut acc = FrameAccum::new();
        acc.push(&wire);
        assert_eq!(acc.next_frame().unwrap().unwrap(), b"");
        assert_eq!(acc.next_frame().unwrap().unwrap(), b"x");
    }

    /// Compaction must never lose or reorder bytes under a workload of
    /// many small frames trickled in.
    #[test]
    fn frame_accum_compaction_preserves_stream() {
        let mut wire = Vec::new();
        for i in 0..2000u32 {
            write_frame(&mut wire, &i.to_be_bytes()).unwrap();
        }
        let mut acc = FrameAccum::new();
        let mut next = 0u32;
        for chunk in wire.chunks(7) {
            acc.push(chunk);
            while let Some(f) = acc.next_frame().unwrap() {
                assert_eq!(f, next.to_be_bytes());
                next += 1;
            }
        }
        assert_eq!(next, 2000);
    }
}
