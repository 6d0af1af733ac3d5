//! Satellite: transport framing over *real* sockets — round-trips,
//! split reads/writes at every byte boundary, mid-frame connection
//! drops, and the connection cache's request/reply and redial paths.
//!
//! These tests bind ephemeral loopback listeners; in sandboxes that
//! forbid binding they are skipped (same probe the verify.sh smoke
//! gate uses).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use transport::{read_frame, write_frame, Backoff, ConnCache};

/// `true` when the sandbox lets us bind a loopback socket.
fn can_bind() -> bool {
    TcpListener::bind("127.0.0.1:0").is_ok()
}

macro_rules! require_sockets {
    () => {
        if !can_bind() {
            eprintln!("SKIP: sandbox forbids binding loopback sockets");
            return;
        }
    };
}

/// A connected loopback socket pair.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    (client, server)
}

#[test]
fn roundtrip_across_real_socket_pair() {
    require_sockets!();
    let (mut a, mut b) = socket_pair();
    let payloads: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"x".to_vec(),
        (0..=255u8).collect(),
        vec![0xCD; 70_000], // larger than one TCP segment
    ];
    let expected = payloads.clone();
    let writer = std::thread::spawn(move || {
        for p in &payloads {
            write_frame(&mut a, p).expect("write");
        }
        // a drops here: clean close on a frame boundary.
    });
    for want in &expected {
        let got = read_frame(&mut b).expect("read").expect("frame");
        assert_eq!(&got, want);
    }
    assert!(read_frame(&mut b).expect("clean eof").is_none());
    writer.join().unwrap();
}

#[test]
fn split_reads_at_every_byte_boundary() {
    require_sockets!();
    // Write the frame one byte at a time, flushing each byte, so the
    // reader observes every possible partial-read split of both the
    // prefix and the payload.
    let (mut a, mut b) = socket_pair();
    let payload = b"partial reads must reassemble".to_vec();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let writer = std::thread::spawn(move || {
        for byte in wire {
            a.write_all(&[byte]).expect("write byte");
            a.flush().expect("flush");
        }
    });
    let got = read_frame(&mut b).expect("read").expect("frame");
    assert_eq!(got, payload);
    writer.join().unwrap();
}

#[test]
fn connection_drop_mid_frame_is_a_clean_error() {
    require_sockets!();
    let mut wire = Vec::new();
    write_frame(&mut wire, b"this frame will be cut short").unwrap();
    // Cut at every interior byte boundary: inside the prefix (1..4)
    // and inside the payload (4..len) — the reader must surface
    // UnexpectedEof, never panic, never return a truncated frame.
    for cut in 1..wire.len() {
        let (mut a, mut b) = socket_pair();
        a.write_all(&wire[..cut]).expect("partial write");
        a.flush().expect("flush");
        drop(a); // connection dies mid-frame
        let err = read_frame(&mut b).expect_err("mid-frame drop must error");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}

#[test]
fn replies_flow_back_fifo_per_connection() {
    require_sockets!();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        assert_eq!(read_frame(&mut s).expect("read").as_deref(), Some(&b"ping-1"[..]));
        write_frame(&mut s, b"pong-1").expect("reply");
        assert_eq!(read_frame(&mut s).expect("read").as_deref(), Some(&b"ping-2"[..]));
    });

    let mut cache = ConnCache::new(Backoff::fast());
    cache.send(addr, b"ping-1").expect("send");
    // request() reuses the cached stream, so what it reads back after
    // its own send is the reply to ping-1: FIFO per connection.
    assert_eq!(cache.request(addr, b"ping-2").expect("request"), b"pong-1");
    peer.join().unwrap();
}

#[test]
fn conncache_reconnects_after_peer_restart() {
    require_sockets!();
    let first = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = first.local_addr().expect("addr");
    let first_life = std::thread::spawn(move || {
        let (mut s, _) = first.accept().expect("accept");
        read_frame(&mut s).expect("read")
        // Listener and connection both close here: the peer is gone.
    });

    let mut cache = ConnCache::new(Backoff::fast());
    cache.send(addr, b"before restart").expect("send");
    assert_eq!(first_life.join().unwrap().as_deref(), Some(&b"before restart"[..]));

    // Rebind the same port (free now) and send again: the cache must
    // notice the stale stream and redial under backoff.
    let second = TcpListener::bind(addr).expect("rebind same port");
    let second_life = std::thread::spawn(move || {
        let (mut s, _) = second.accept().expect("accept redial");
        read_frame(&mut s).expect("read")
    });
    cache.send(addr, b"after restart").expect("send after restart");
    assert_eq!(second_life.join().unwrap().as_deref(), Some(&b"after restart"[..]));
}
