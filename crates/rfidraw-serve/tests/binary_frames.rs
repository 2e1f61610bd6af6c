//! Hostile binary framing against the reactor front end: every entry in
//! the wire-v3 malformed corpus yields exactly one `Error` frame followed
//! by either a clean close (framing-level corruption — the stream cannot
//! resynchronize) or a fully usable connection (payload-level garbage in
//! a well-formed frame). No entry may panic the server or fabricate a
//! session; a mid-frame disconnect is counted and equally harmless.

use rfidraw_net::{FrameDecoder, RawFrame, DEFAULT_MAX_PAYLOAD};
use rfidraw_serve::wire::Message;
use rfidraw_serve::{wire3, ReactorServer, ServeConfig, TrackingService};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

mod common;

use common::template;

fn start_reactor() -> (TrackingService, ReactorServer) {
    let mut cfg = ServeConfig::new(template());
    cfg.workers = None;
    let service = TrackingService::start(cfg);
    let server = ReactorServer::bind(
        "127.0.0.1:0",
        service.client(),
        rfidraw_net::ReactorConfig::default(),
    )
    .expect("bind reactor");
    (service, server)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// One Error frame, then the server closes the connection.
    Close,
    /// One Error frame, then the connection keeps working.
    Survive,
}

struct Entry {
    line_no: usize,
    expect: Expect,
    bytes: Vec<u8>,
    comment: String,
}

fn parse_corpus() -> Vec<Entry> {
    let corpus = include_str!("corpus/malformed_binary_frames.txt");
    let mut entries = Vec::new();
    for (i, raw) in corpus.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (spec, comment) = match line.split_once('#') {
            Some((s, c)) => (s.trim(), c.trim().to_string()),
            None => (line, String::new()),
        };
        let mut parts = spec.split_whitespace();
        let expect = match parts.next() {
            Some("close") => Expect::Close,
            Some("survive") => Expect::Survive,
            other => panic!("corpus line {}: bad expectation {other:?}", i + 1),
        };
        let hex: String =
            parts.next().expect("hex field").chars().filter(|c| *c != '_').collect();
        assert!(hex.len() % 2 == 0, "corpus line {}: odd hex length", i + 1);
        let bytes = (0..hex.len())
            .step_by(2)
            .map(|j| u8::from_str_radix(&hex[j..j + 2], 16).expect("hex byte"))
            .collect();
        entries.push(Entry { line_no: i + 1, expect, bytes, comment });
    }
    entries
}

/// Reads complete frames off `stream` until `want` frames arrived or EOF;
/// returns the decoded messages and whether EOF was reached.
fn read_frames(stream: &mut TcpStream, want: usize) -> (Vec<Message>, bool) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Mode sniffs from the first reply byte, so this works for both
    // binary replies (0xF3) and JSON replies ('{').
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    let mut msgs = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        while let Some(frame) = decoder.next().expect("server replies must be well-framed") {
            let msg = match frame {
                RawFrame::Binary(bin) => wire3::decode_frame(&bin).expect("decodable reply"),
                RawFrame::Json(line) => {
                    rfidraw_serve::wire::decode(&line).expect("decodable reply")
                }
            };
            msgs.push(msg);
            if msgs.len() >= want {
                return (msgs, false);
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return (msgs, true),
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) => panic!("read from server: {e}"),
        }
    }
}

fn telemetry_roundtrip(stream: &mut TcpStream) -> rfidraw_serve::TelemetryReport {
    stream
        .write_all(&wire3::encode_frame(&Message::TelemetryRequest))
        .expect("send telemetry request");
    let (mut msgs, _) = read_frames(stream, 1);
    match msgs.pop() {
        Some(Message::Telemetry(report)) => report,
        other => panic!("expected Telemetry, got {other:?}"),
    }
}

#[test]
fn malformed_binary_corpus_yields_one_error_then_close_or_survival() {
    let entries = parse_corpus();
    assert!(entries.len() >= 10, "the binary corpus should stay substantial");
    assert!(entries.iter().any(|e| e.expect == Expect::Close));
    assert!(entries.iter().any(|e| e.expect == Expect::Survive));

    let (service, server) = start_reactor();
    let addr = server.local_addr();
    let mut expected_frame_errors = 0u64;

    for entry in &entries {
        let label = format!("corpus line {} ({})", entry.line_no, entry.comment);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream.write_all(&entry.bytes).unwrap_or_else(|e| panic!("{label}: write: {e}"));
        match entry.expect {
            Expect::Close => {
                expected_frame_errors += 1;
                let (msgs, eof) = read_frames(&mut stream, usize::MAX);
                assert!(eof, "{label}: the server must close after a framing error");
                assert_eq!(msgs.len(), 1, "{label}: exactly one reply frame, got {msgs:?}");
                match &msgs[0] {
                    Message::Error(e) => {
                        assert_eq!(e.code, "frame", "{label}: framing errors carry the frame code")
                    }
                    other => panic!("{label}: expected an Error frame, got {other:?}"),
                }
            }
            Expect::Survive => {
                let (msgs, eof) = read_frames(&mut stream, 1);
                assert!(!eof, "{label}: the connection must survive payload-level garbage");
                match &msgs[0] {
                    Message::Error(_) => {}
                    other => panic!("{label}: expected an Error frame, got {other:?}"),
                }
                // The same connection still completes a real request.
                let report = telemetry_roundtrip(&mut stream);
                assert_eq!(report.active_sessions, 0, "{label}: no session may be fabricated");
            }
        }
    }

    // Nothing in the corpus reached a tracker or created a session, and
    // every framing-level entry was counted exactly once.
    let report = service.telemetry();
    assert_eq!(report.active_sessions, 0);
    assert_eq!(report.reads_ingested, 0);
    assert_eq!(report.net.frame_errors, expected_frame_errors);
    assert_eq!(report.net.midframe_disconnects, 0);
}

/// A client that disconnects with a frame half-sent (here: a truncated
/// length prefix) is counted and changes nothing else — the server stays
/// up, creates no session, and serves the next connection normally.
#[test]
fn midframe_disconnect_is_counted_and_harmless() {
    let (service, server) = start_reactor();
    let addr: SocketAddr = server.local_addr();

    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        // Magic + version + tag, then only one byte of the four-byte
        // length prefix.
        stream.write_all(&[0xF3, 0x52, 0x03, 0x01, 0xAA]).unwrap();
        // Drop: mid-frame disconnect.
    }

    // The disconnect is processed asynchronously on the reactor thread.
    let stats = server.stats();
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.midframe_disconnects.load(std::sync::atomic::Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "mid-frame disconnect must be counted");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut stream = TcpStream::connect(addr).expect("server must still accept");
    let report = telemetry_roundtrip(&mut stream);
    assert_eq!(report.active_sessions, 0, "a half-frame must never create a session");
    assert_eq!(report.net.midframe_disconnects, 1);
    assert_eq!(report.net.frame_errors, 0, "a disconnect is not a framing error");
    drop(service);
}

/// The existing JSON corpus, replayed over the reactor front end: every
/// line is payload-level for the JSON decoder (newline framing always
/// resynchronizes), so one connection must survive the whole corpus.
#[test]
fn json_malformed_corpus_survives_the_reactor_frontend() {
    let corpus = include_str!("corpus/malformed_frames.jsonl");
    let lines: Vec<&str> = corpus.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(lines.len() >= 20, "corpus should stay substantial, got {}", lines.len());

    let (service, server) = start_reactor();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();

    for (i, line) in lines.iter().enumerate() {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let (msgs, eof) = read_frames(&mut stream, 1);
        assert!(!eof, "corpus line {}: connection must survive", i + 1);
        match &msgs[0] {
            Message::Error(_) => {}
            other => panic!("corpus line {} ({line:?}) should be refused, got {other:?}", i + 1),
        }
    }

    let report = service.telemetry();
    assert_eq!(report.active_sessions, 0);
    assert_eq!(report.reads_ingested, 0);
    assert_eq!(report.net.frames_in_json, lines.len() as u64);
    assert_eq!(report.net.frame_errors, 0, "JSON garbage is payload-level, not framing");
}
