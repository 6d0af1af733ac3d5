//! Nonblocking I/O building blocks for the daemon's event loop.
//!
//! One reader thread per accepted connection caps pipelining (one
//! frame in flight per thread wake) and makes fairness an accident of
//! the scheduler. This module is the readiness-driven accept side,
//! std-only per the hermetic policy (no mio/epoll binding —
//! `set_nonblocking` plus a pump loop):
//!
//! * [`FrameAccum`] — an incremental decoder for the length-prefixed
//!   framing of [`crate::frame`]: bytes go in at *any* split boundary,
//!   whole frames come out. The [`crate::frame::MAX_FRAME_BYTES`] cap
//!   is enforced on the prefix before any buffer is sized from it,
//!   exactly like the blocking reader.
//! * [`NbListener`] — a listener whose connections a thread of its own
//!   accepts and queues: `accept_ready` takes them without blocking.
//! * [`NbConn`] — one nonblocking connection with explicit read and
//!   write buffering: `read_ready` pulls whatever bytes the kernel has
//!   (feeding the accumulator), `queue` stages outgoing bytes, and
//!   `try_flush` writes as much as the socket accepts. A peer that
//!   stops reading therefore backs frames up in `queued_bytes`, which
//!   the event loop bounds explicitly (backpressure parking) instead
//!   of blocking a writer thread.
//!
//! **Waiting without poll(2).** An idle loop `watch`es its connections:
//! each is switched to blocking mode and its watcher — one small-stack
//! thread per connection — blocks in a one-byte `peek` and rings the
//! loop's [`Doorbell`] (a one-slot `sync_channel`) when it returns; the
//! listener's acceptor rings it per connection. The loop blocks on the
//! doorbell, then `unwatch`es. The acceptor and the doorbell's spawner
//! thread spawn the watchers; the loop never does. None of these threads
//! reads a byte, so the argument above holds: the loop reads and decodes
//! everything. Dropping an [`NbConn`] shuts it down, which wakes its
//! watcher, and joins it; dropping an [`NbListener`] dials it to wake the
//! acceptor, and joins; dropping the [`Doorbell`] joins its spawner.

use crate::frame::MAX_FRAME_BYTES;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

/// A watcher's, acceptor's or spawner's stack: one blocking call, a
/// thread spawn at most, and a send.
const WATCHER_STACK: usize = 32 * 1024;

/// Connections the acceptor may queue before the loop takes them.
const ACCEPT_QUEUE: usize = 64;

/// Pause after a failed `accept` (out of descriptors, say).
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Watcher states. Only the loop arms (`IDLE → ARMED`) and stops; only
/// the watcher disarms (`ARMED → IDLE`).
const IDLE: u8 = 0;
const ARMED: u8 = 1;
const STOP: u8 = 2;

/// Spawn a watcher, acceptor or spawner: a small stack and no name (a
/// watcher would otherwise allocate once, copying its name on first
/// access).
fn spawn_small(f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().stack_size(WATCHER_STACK).spawn(f)
}

/// One connection's watcher thread (see the module docs).
struct Watcher {
    state: Arc<AtomicU8>,
    thread: JoinHandle<()>,
}

impl Watcher {
    /// Spawn a watcher over `stream` (a clone), parked until armed.
    fn spawn(stream: TcpStream, bell: SyncSender<()>) -> io::Result<Watcher> {
        let state = Arc::new(AtomicU8::new(IDLE));
        let mine = Arc::clone(&state);
        let thread = spawn_small(move || loop {
            match mine.load(Ordering::Acquire) {
                STOP => return,
                IDLE => std::thread::park(),
                _ => {
                    let open = match stream.peek(&mut [0u8; 1]) {
                        Ok(n) => n > 0,
                        Err(e) => {
                            matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted)
                        }
                    };
                    // Disarm before ringing, so the loop this ring wakes
                    // sees it rang.
                    let (ok, seen) = (Ordering::AcqRel, Ordering::Acquire);
                    let _ = mine.compare_exchange(ARMED, IDLE, ok, seen);
                    let _ = bell.try_send(());
                    if !open {
                        return; // EOF or an error: the loop's read sees it too
                    }
                }
            }
        })?;
        Ok(Watcher { state, thread })
    }

    /// True unless a `peek` is armed and has not returned.
    fn rang(&self) -> bool {
        self.state.load(Ordering::Acquire) == IDLE
    }
}

/// What an idle loop blocks on: the bell its watchers and acceptor ring
/// (one slot: rings coalesce and never allocate), and a thread that
/// spawns the loop's watchers, so that the loop spawns none: glibc keeps
/// a finished thread's cached stack with a TLS vector allocated in the
/// spawning thread's malloc arena, where it would pin the loop's heap.
pub struct Doorbell {
    ring: SyncSender<()>,
    rung: Receiver<()>,
    spawner: Option<(SyncSender<TcpStream>, JoinHandle<()>)>,
    made: Receiver<io::Result<Watcher>>,
}

impl Doorbell {
    /// A silent doorbell and its spawner thread.
    pub fn new() -> io::Result<Doorbell> {
        let (ring, rung) = sync_channel(1);
        let ((asks, asked), (done, made)) = (sync_channel::<TcpStream>(0), sync_channel(1));
        let bell = ring.clone();
        let spawner = spawn_small(move || {
            for stream in asked {
                let _ = done.send(Watcher::spawn(stream, bell.clone()));
            }
        })?;
        Ok(Doorbell { ring, rung, spawner: Some((asks, spawner)), made })
    }

    /// Block until a ring, or until `bound` has passed.
    pub fn wait(&self, bound: Option<Duration>) {
        match bound {
            Some(bound) => drop(self.rung.recv_timeout(bound)),
            None => drop(self.rung.recv()),
        }
    }

    /// A watcher over `stream`, spawned on the spawner thread.
    fn watcher(&self, stream: TcpStream) -> io::Result<Watcher> {
        let (asks, _) = self.spawner.as_ref().expect("taken only on drop");
        let gone = || io::Error::from(io::ErrorKind::BrokenPipe);
        asks.send(stream).map_err(|_| gone())?;
        self.made.recv().map_err(|_| gone())?
    }
}

impl Drop for Doorbell {
    fn drop(&mut self) {
        if let Some((asks, spawner)) = self.spawner.take() {
            drop(asks); // ends the spawner's loop
            let _ = spawner.join();
        }
    }
}

/// A listener whose connections a thread of its own accepts:
/// `accept_ready` never blocks.
pub struct NbListener {
    local_addr: SocketAddr,
    accepted: Receiver<NbConn>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl NbListener {
    /// Bind `addr` (port 0 for ephemeral) and start the acceptor: a
    /// thread blocked in `accept` that queues each connection, its
    /// watcher already spawned (off the loop's thread, see [`Doorbell`]),
    /// and rings `bell`.
    pub fn bind(addr: &str, bell: &Doorbell) -> io::Result<NbListener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (queue, accepted) = sync_channel(ACCEPT_QUEUE);
        let stop = Arc::new(AtomicBool::new(false));
        let (stopped, bell) = (Arc::clone(&stop), bell.ring.clone());
        let acceptor = spawn_small(move || {
            while !stopped.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        let Ok(mut conn) = NbConn::new(stream, peer) else { continue };
                        let watched = conn.stream.try_clone();
                        conn.watcher = watched.and_then(|s| Watcher::spawn(s, bell.clone())).ok();
                        if queue.send(conn).is_err() {
                            return;
                        }
                        let _ = bell.try_send(());
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(ACCEPT_RETRY),
                }
            }
        })?;
        Ok(NbListener { local_addr, accepted, stop, acceptor: Some(acceptor) })
    }

    /// The bound address (ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Every connection accepted so far, without blocking.
    pub fn accept_ready(&self) -> Vec<NbConn> {
        self.accepted.try_iter().collect()
    }
}

impl Drop for NbListener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Make room for the acceptor's last send, then give its blocked
        // `accept` a connection to return with.
        self.accepted.try_iter().for_each(drop);
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(500));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
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
    watcher: Option<Watcher>,
    blocking: bool,
}

impl NbConn {
    /// Adopt an accepted stream: nonblocking + NODELAY.
    pub fn new(stream: TcpStream, peer: SocketAddr) -> io::Result<NbConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        let (rbuf, wbuf) = (FrameAccum::new(), VecDeque::new());
        Ok(NbConn { stream, peer, rbuf, wbuf, dead: false, watcher: None, blocking: false })
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
        self.stream.shutdown(Shutdown::Both).ok();
        self.dead = true;
    }

    /// Arm the watcher (spawned on first use): blocking mode until
    /// [`NbConn::unwatch`], and a ring on `bell` when bytes, EOF or an
    /// error arrive. Arm only a connection the loop reads when it rings,
    /// or the next wait returns at once. A watcher still armed from an
    /// earlier wait needs nothing.
    pub fn watch(&mut self, bell: &Doorbell) -> io::Result<()> {
        if self.watcher.as_ref().is_some_and(|w| !w.rang()) {
            return Ok(());
        }
        if self.watcher.is_none() {
            self.watcher = Some(bell.watcher(self.stream.try_clone()?)?);
        }
        self.stream.set_nonblocking(false)?;
        self.blocking = true;
        let w = self.watcher.as_ref().expect("spawned above");
        w.state.store(ARMED, Ordering::Release);
        w.thread.thread().unpark();
        Ok(())
    }

    /// Back to nonblocking mode after a wait. A socket that cannot be
    /// switched back is dead: the loop must never block on it.
    pub fn unwatch(&mut self) {
        if std::mem::take(&mut self.blocking) && self.stream.set_nonblocking(true).is_err() {
            self.dead = true;
        }
    }

    /// True if the connection has a watcher that is not armed — after a
    /// wait, one that rang: the socket has bytes, EOF or an error.
    pub fn rang(&self) -> bool {
        self.watcher.as_ref().is_some_and(Watcher::rang)
    }
}

impl Drop for NbConn {
    fn drop(&mut self) {
        // The shutdown wakes a blocked `peek`.
        self.stream.shutdown(Shutdown::Both).ok();
        if let Some(w) = self.watcher.take() {
            w.state.store(STOP, Ordering::Release);
            w.thread.thread().unpark();
            let _ = w.thread.join();
        }
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
