//! Reactor integration tests against real loopback sockets, run on both
//! readiness backends: echo semantics, fragmented-frame reassembly,
//! mixed-protocol negotiation, hostile framing, and graceful shutdown.

use rfidraw_net::{
    encode_binary_frame, spawn, ConnId, FrameError, Handler, Outbox, PollerKind, RawFrame,
    ReactorConfig, ReactorHandle, WireMode,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Echoes every frame back in the connection's own mode; on shutdown,
/// sends a farewell frame to every open connection.
struct Echo {
    open: Vec<ConnId>,
    closes: Arc<AtomicU64>,
    midframe_closes: Arc<AtomicU64>,
}

impl Handler for Echo {
    fn on_open(&mut self, conn: ConnId, _out: &mut Outbox) {
        self.open.push(conn);
    }

    fn on_frame(&mut self, conn: ConnId, frame: RawFrame, mode: WireMode, out: &mut Outbox) {
        match (frame, mode) {
            (RawFrame::Json(line), WireMode::Json) => {
                out.send(conn, format!("{line}\n").into_bytes());
            }
            (RawFrame::Binary(b), WireMode::Binary) => {
                out.send(conn, encode_binary_frame(b.tag, &b.payload));
            }
            (f, m) => panic!("frame {f:?} disagrees with negotiated mode {m:?}"),
        }
    }

    fn on_frame_error(&mut self, conn: ConnId, _err: FrameError, out: &mut Outbox) {
        // One error reply; the reactor closes the connection after it.
        out.send(conn, b"{\"error\":\"bad frame\"}\n".to_vec());
    }

    fn on_close(&mut self, conn: ConnId, midframe: bool, _out: &mut Outbox) {
        self.open.retain(|c| *c != conn);
        self.closes.fetch_add(1, Ordering::SeqCst);
        if midframe {
            self.midframe_closes.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn on_shutdown(&mut self, out: &mut Outbox) {
        for &conn in &self.open {
            out.send(conn, b"{\"bye\":true}\n".to_vec());
        }
    }
}

struct Fixture {
    handle: ReactorHandle,
    closes: Arc<AtomicU64>,
    midframe_closes: Arc<AtomicU64>,
}

fn start(kind: PollerKind) -> Fixture {
    let closes = Arc::new(AtomicU64::new(0));
    let midframe_closes = Arc::new(AtomicU64::new(0));
    let echo = Echo {
        open: Vec::new(),
        closes: Arc::clone(&closes),
        midframe_closes: Arc::clone(&midframe_closes),
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let config = ReactorConfig { poller: kind, ..ReactorConfig::default() };
    let handle = spawn(listener, config, echo).expect("spawn reactor");
    Fixture { handle, closes, midframe_closes }
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte).expect("read echo byte");
        assert!(n > 0, "connection closed before a full line arrived");
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
    }
    String::from_utf8(line).expect("utf8 line")
}

fn read_exact(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf).expect("read binary echo");
    buf
}

fn wait_until(mut done: impl FnMut() -> bool, what: &str) {
    for _ in 0..2000 {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

fn both_backends(test: impl Fn(PollerKind)) {
    test(PollerKind::Poll);
    #[cfg(target_os = "linux")]
    test(PollerKind::Epoll);
}

#[test]
fn echoes_json_and_binary_on_separate_connections() {
    both_backends(|kind| {
        let fx = start(kind);
        let addr = fx.handle.local_addr();

        let mut json = TcpStream::connect(addr).expect("connect json");
        json.write_all(b"{\"n\":1}\n{\"n\":2}\n").expect("send json");
        assert_eq!(read_line(&mut json), "{\"n\":1}");
        assert_eq!(read_line(&mut json), "{\"n\":2}");

        let mut bin = TcpStream::connect(addr).expect("connect binary");
        let frame = encode_binary_frame(5, b"hello");
        bin.write_all(&frame).expect("send binary");
        assert_eq!(read_exact(&mut bin, frame.len()), frame);

        let stats = fx.handle.stats();
        wait_until(
            || {
                stats.frames_in_json.load(Ordering::SeqCst) == 2
                    && stats.frames_in_binary.load(Ordering::SeqCst) == 1
            },
            "frame counters",
        );
        assert_eq!(stats.accepted.load(Ordering::SeqCst), 2);
    });
}

#[test]
fn reassembles_byte_by_byte_binary_frame() {
    both_backends(|kind| {
        let fx = start(kind);
        let mut stream = TcpStream::connect(fx.handle.local_addr()).expect("connect");
        let frame = encode_binary_frame(9, &vec![0xAB; 257]);
        for chunk in frame.chunks(7) {
            stream.write_all(chunk).expect("send fragment");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(read_exact(&mut stream, frame.len()), frame);
        let stats = fx.handle.stats();
        assert!(
            stats.partial_resumes.load(Ordering::SeqCst) > 0,
            "fragmented sends must be counted as partial-frame reassembly"
        );
    });
}

#[test]
fn bad_magic_gets_one_error_reply_then_close() {
    both_backends(|kind| {
        let fx = start(kind);
        let mut stream = TcpStream::connect(fx.handle.local_addr()).expect("connect");
        stream.write_all(&[0xF3, 0x00, 0x00, 0x00]).expect("send hostile bytes");
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("read until server closes");
        assert_eq!(reply, b"{\"error\":\"bad frame\"}\n");
        wait_until(|| fx.closes.load(Ordering::SeqCst) == 1, "close callback");
        assert_eq!(fx.handle.stats().frame_errors.load(Ordering::SeqCst), 1);
    });
}

#[test]
fn midframe_disconnect_is_flagged_and_never_panics() {
    both_backends(|kind| {
        let fx = start(kind);
        let stream = TcpStream::connect(fx.handle.local_addr()).expect("connect");
        let frame = encode_binary_frame(1, &[1, 2, 3, 4, 5, 6, 7, 8]);
        (&stream).write_all(&frame[..frame.len() - 3]).expect("send partial frame");
        std::thread::sleep(Duration::from_millis(20));
        drop(stream);
        wait_until(|| fx.closes.load(Ordering::SeqCst) == 1, "close callback");
        assert_eq!(fx.midframe_closes.load(Ordering::SeqCst), 1);
        assert_eq!(fx.handle.stats().midframe_disconnects.load(Ordering::SeqCst), 1);
    });
}

#[test]
fn shutdown_drains_inflight_and_flushes_farewell() {
    both_backends(|kind| {
        let mut fx = start(kind);
        let mut stream = TcpStream::connect(fx.handle.local_addr()).expect("connect");
        // Ensure the connection is registered before shutdown begins.
        stream.write_all(b"{\"warm\":1}\n").expect("warmup");
        assert_eq!(read_line(&mut stream), "{\"warm\":1}");
        // This frame may still be in the kernel buffer when shutdown
        // starts; the drain sweep must still echo it.
        stream.write_all(b"{\"inflight\":1}\n").expect("send in-flight frame");
        fx.handle.shutdown().expect("graceful shutdown");
        assert_eq!(read_line(&mut stream), "{\"inflight\":1}");
        assert_eq!(read_line(&mut stream), "{\"bye\":true}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("server closed cleanly");
        assert!(rest.is_empty());
        let stats = fx.handle.stats();
        assert_eq!(
            stats.accepted.load(Ordering::SeqCst),
            stats.closed.load(Ordering::SeqCst),
            "every accepted connection must be closed after shutdown"
        );
        assert_eq!(stats.open.load(Ordering::SeqCst), 0);
    });
}

#[test]
fn max_connections_rejects_overflow() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let closes = Arc::new(AtomicU64::new(0));
    let echo = Echo {
        open: Vec::new(),
        closes: Arc::clone(&closes),
        midframe_closes: Arc::new(AtomicU64::new(0)),
    };
    let config = ReactorConfig { max_connections: 1, ..ReactorConfig::default() };
    let handle = spawn(listener, config, echo).expect("spawn");
    let mut keep = TcpStream::connect(handle.local_addr()).expect("first connect");
    keep.write_all(b"{\"a\":1}\n").expect("send");
    assert_eq!(read_line(&mut keep), "{\"a\":1}");
    let mut extra = TcpStream::connect(handle.local_addr()).expect("second connect");
    let mut buf = Vec::new();
    extra.read_to_end(&mut buf).expect("overflow connection is dropped");
    assert!(buf.is_empty());
    wait_until(
        || handle.stats().rejected.load(Ordering::SeqCst) == 1,
        "rejected counter",
    );
    assert_eq!(handle.stats().accepted.load(Ordering::SeqCst), 1);
}
