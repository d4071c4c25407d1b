//! Edge-case coverage for the framing layer: `read_frame` against
//! interrupted syscalls, read timeouts before and inside a frame (on a
//! scripted reader and on a real socket), torn streams, payloads at the
//! frame cap boundary, the read count per frame, and a fuzz of the frame
//! decoder and JSON parser (random bytes, mutated frames, deep nesting):
//! every input ends in `Ok` or a typed error, never a panic.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use hypart_server::protocol::{
    read_frame, EvalRequest, FrameError, InstanceRef, PartitionRequest, Request,
};
use hypart_trace::json::{JsonValue, MAX_NESTING};
use proptest::prelude::*;

/// One scripted reader step: deliver bytes, or fail with an error kind.
enum Step {
    Data(Vec<u8>),
    Fail(ErrorKind),
}

/// A `Read` impl that replays a fixed script, after which it reports
/// clean EOF. Each `Data` step is delivered as one `read` return (the
/// chunking is part of the script).
struct Scripted {
    steps: VecDeque<Step>,
}

impl Scripted {
    fn new(steps: Vec<Step>) -> Self {
        Scripted {
            steps: steps.into(),
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.steps.pop_front() {
            None => Ok(0),
            Some(Step::Fail(kind)) => Err(std::io::Error::new(kind, "scripted")),
            Some(Step::Data(mut bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    bytes.drain(..n);
                    self.steps.push_front(Step::Data(bytes));
                }
                Ok(n)
            }
        }
    }
}

/// A length-prefixed frame around the given JSON text.
fn frame(text: &str) -> Vec<u8> {
    let mut bytes = (u32::try_from(text.len()).unwrap()).to_be_bytes().to_vec();
    bytes.extend_from_slice(text.as_bytes());
    bytes
}

const CAP: usize = 1 << 16;

#[test]
fn interrupted_mid_frame_is_ridden_out() {
    // Interruptions scattered through the prefix and the payload must
    // all be transparent.
    let bytes = frame("{\"op\":\"stats\"}");
    let mut steps = vec![Step::Data(bytes[..1].to_vec())];
    for b in &bytes[1..] {
        steps.push(Step::Fail(ErrorKind::Interrupted));
        steps.push(Step::Data(vec![*b]));
    }
    let value = read_frame(&mut Scripted::new(steps), CAP).unwrap().unwrap();
    assert_eq!(
        value.get("op").and_then(|v| v.as_str()),
        Some("stats"),
        "interrupted reads must not lose or reorder bytes"
    );
}

#[test]
fn timeout_before_first_byte_surfaces_as_timeout() {
    let steps = vec![Step::Fail(ErrorKind::WouldBlock)];
    match read_frame(&mut Scripted::new(steps), CAP) {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
        other => panic!("expected an Io timeout, got {other:?}"),
    }
}

#[test]
fn timeout_mid_frame_surfaces_as_io_of_its_kind() {
    // A timeout inside the length prefix or inside the payload is an
    // error like any other: the reader's deadline holds mid-frame too.
    let bytes = frame("{\"op\":\"ping\"}");
    for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
        for stop in [3, 7] {
            let steps = vec![
                Step::Data(bytes[..stop].to_vec()),
                Step::Fail(kind),
                Step::Data(bytes[stop..].to_vec()),
            ];
            match read_frame(&mut Scripted::new(steps), CAP) {
                Err(FrameError::Io(e)) => assert_eq!(e.kind(), kind, "stop at {stop}"),
                other => panic!("{kind:?} at {stop}: expected an Io error, got {other:?}"),
            }
        }
    }
}

#[test]
fn socket_read_timeout_fires_mid_frame() {
    // A peer that goes quiet 5 bytes into a frame: the socket's 200 ms
    // read timeout ends the read. The read runs on its own thread so a
    // reader that rides the timeout out fails the test instead of
    // hanging it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut socket, _) = listener.accept().unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    peer.write_all(&frame("{\"op\":\"ping\"}")[..5]).unwrap();
    let (done, result) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let _ = done.send(read_frame(&mut socket, CAP).map(|_| ()));
    });
    match result.recv_timeout(Duration::from_secs(2)) {
        Ok(Err(FrameError::Io(e))) => assert!(
            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{e:?}"
        ),
        Ok(other) => panic!("expected a timeout, got {other:?}"),
        Err(_) => panic!("read_frame was still blocked 2 s into a 200 ms timeout"),
    }
    reader.join().unwrap();
    drop(peer);
}

#[test]
fn eof_at_boundary_is_clean_but_mid_frame_is_an_error() {
    // Clean EOF before any byte: Ok(None).
    assert!(read_frame(&mut Scripted::new(Vec::new()), CAP)
        .unwrap()
        .is_none());
    // EOF after a partial frame: UnexpectedEof, never Ok(None) — the
    // client maps this distinction to `Disconnected { mid_frame }`.
    let bytes = frame("{\"op\":\"stats\"}");
    for cut in [1, 3, 4, 9] {
        let steps = vec![Step::Data(bytes[..cut].to_vec())];
        match read_frame(&mut Scripted::new(steps), CAP) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
            }
            other => panic!("cut at {cut}: expected UnexpectedEof, got {other:?}"),
        }
    }
}

#[test]
fn payload_exactly_at_cap_is_accepted() {
    // A JSON string payload padded to exactly CAP bytes.
    let text = format!("\"{}\"", "a".repeat(CAP - 2));
    assert_eq!(text.len(), CAP);
    let steps = vec![Step::Data(frame(&text))];
    let value = read_frame(&mut Scripted::new(steps), CAP).unwrap().unwrap();
    assert_eq!(value.as_str().map(str::len), Some(CAP - 2));
}

#[test]
fn payload_one_past_cap_is_rejected_without_reading_it() {
    let text = format!("\"{}\"", "a".repeat(CAP - 1));
    assert_eq!(text.len(), CAP + 1);
    let steps = vec![Step::Data(frame(&text))];
    let mut reader = Scripted::new(steps);
    match read_frame(&mut reader, CAP) {
        Err(FrameError::TooLarge { declared, max }) => {
            assert_eq!(declared, CAP + 1);
            assert_eq!(max, CAP);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

/// A `Read` over a complete byte stream that records the buffer size of
/// every `read` call.
struct Recording {
    bytes: std::io::Cursor<Vec<u8>>,
    requests: Vec<usize>,
}

impl Read for Recording {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.requests.push(buf.len());
        self.bytes.read(buf)
    }
}

#[test]
fn a_whole_frame_costs_two_reads() {
    // The first read asks for the entire length prefix, the second for
    // the entire payload; at a frame boundary, EOF costs one read.
    let text = "{\"op\":\"ping\"}";
    let mut reader = Recording {
        bytes: std::io::Cursor::new(frame(text)),
        requests: Vec::new(),
    };
    assert!(read_frame(&mut reader, CAP).unwrap().is_some());
    assert_eq!(reader.requests, vec![4, text.len()]);
    assert!(read_frame(&mut reader, CAP).unwrap().is_none());
    assert_eq!(reader.requests, vec![4, text.len(), 4]);
}

#[test]
fn short_first_read_finishes_the_prefix() {
    // A prefix split across reads, the first of them short, is completed
    // without losing bytes; EOF inside it is an error, not a clean end.
    let bytes = frame("{\"op\":\"stats\"}");
    for split in 1..4 {
        let steps = vec![
            Step::Data(bytes[..split].to_vec()),
            Step::Fail(ErrorKind::Interrupted),
            Step::Data(bytes[split..].to_vec()),
        ];
        let value = read_frame(&mut Scripted::new(steps), CAP).unwrap().unwrap();
        assert_eq!(value.get("op").and_then(|v| v.as_str()), Some("stats"));
    }
}

#[test]
fn nesting_past_the_cap_is_a_typed_error() {
    let deep = "[".repeat(100_000);
    match read_frame(&mut Scripted::new(vec![Step::Data(frame(&deep))]), 1 << 20) {
        Err(FrameError::BadJson(detail)) => assert!(detail.contains("nesting"), "{detail}"),
        other => panic!("expected BadJson, got {other:?}"),
    }
}

/// Request frames the fuzzer mutates: every op, both instance forms,
/// nested arrays, and strings with escapes and non-ASCII text.
fn seed_frames() -> Vec<Vec<u8>> {
    let upload = PartitionRequest {
        budget_ms: Some(20),
        trace: true,
        request_token: Some(77),
        ..PartitionRequest::new(1, InstanceRef::Inline("3 4\n1 2\n2 3 4\n1 4\n".into()), 9)
    };
    let requests = [
        Request::Partition(upload),
        Request::Partition(PartitionRequest::new(2, InstanceRef::Digest(0xfeed), 3)),
        Request::Eval(EvalRequest {
            id: 3,
            instance: InstanceRef::Inline("2 2\n1 2\n".into()),
            assignment: vec![0, 1],
            k: 2,
            fraction: 0.25,
            request_token: None,
        }),
        Request::Cancel { id: 4 },
        Request::Stats,
        Request::Ping,
    ];
    let mut frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| frame(&r.to_json().to_string()))
        .collect();
    frames.push(frame(r#"{"s":"tab\té😀 λ","n":[-1.5e3,[true,null,{}]]}"#));
    frames
}

/// Feeds `bytes` to `read_frame` and, when a frame decodes, to
/// `Request::from_json`; only `Ok` or a typed error may come back.
fn decode_all(bytes: Vec<u8>) {
    let mut cursor = std::io::Cursor::new(bytes);
    while let Ok(Some(value)) = read_frame(&mut cursor, CAP) {
        let _ = Request::from_json(&value);
    }
}

/// Characters that steer the parser down every branch: structure,
/// literals, number syntax, escapes, and multi-byte UTF-8.
fn json_char() -> impl Strategy<Value = char> {
    const ALPHABET: &[char] = &[
        '{', '}', '[', ']', '"', ',', ':', '\\', ' ', '\n', 't', 'r', 'u', 'e', 'f', 'a', 'l', 's',
        'n', 'b', '/', '0', '1', '9', 'D', 'c', '-', '+', '.', 'E', 'é', 'λ', '😀',
    ];
    (0..ALPHABET.len()).prop_map(|i| ALPHABET[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn fuzz_random_bytes_decode_or_fail_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        decode_all(bytes.clone());
        // The same bytes behind a valid length prefix reach the parser.
        let mut framed = u32::try_from(bytes.len()).unwrap().to_be_bytes().to_vec();
        framed.extend_from_slice(&bytes);
        decode_all(framed);
        let _ = JsonValue::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn fuzz_mutated_frames_decode_or_fail_typed(
        (which, edits) in (
            any::<usize>(),
            proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..6),
        ),
    ) {
        let frames = seed_frames();
        let mut bytes = frames[which % frames.len()].clone();
        for (at, byte, kind) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.push(byte),
            }
        }
        if bytes.len() >= 4 {
            let _ = JsonValue::parse(&String::from_utf8_lossy(&bytes[4..]));
        }
        decode_all(bytes);
    }

    #[test]
    fn fuzz_json_text_parses_or_fails_typed(
        chars in proptest::collection::vec(json_char(), 0..64),
    ) {
        let text: String = chars.into_iter().collect();
        if let Ok(value) = JsonValue::parse(&text) {
            // Whatever parses re-encodes to text that parses to itself.
            prop_assert_eq!(JsonValue::parse(&value.to_string()), Ok(value));
        }
        decode_all(frame(&text));
    }

    #[test]
    fn fuzz_deep_nesting_is_refused_past_the_cap(
        (depth, objects, tail) in (0usize..600, any::<u64>(), 0u8..3),
    ) {
        // Mixed array/object nesting `depth` levels deep, then closed
        // completely, half-way, or not at all.
        let open: String = (0..depth)
            .map(|i| if objects >> (i % 64) & 1 == 1 { "{\"k\":" } else { "[" })
            .collect();
        let close: String = (0..depth)
            .rev()
            .map(|i| if objects >> (i % 64) & 1 == 1 { '}' } else { ']' })
            .collect();
        let closed = match tail {
            0 => close.len(),
            1 => close.len() / 2,
            _ => 0,
        };
        let text = format!("{open}0{}", &close[..closed]);
        let complete = closed == close.len();
        let parsed = JsonValue::parse(&text);
        prop_assert_eq!(parsed.is_ok(), complete && depth <= MAX_NESTING, "depth {}", depth);
        let framed = read_frame(&mut std::io::Cursor::new(frame(&text)), CAP);
        prop_assert!(match framed {
            Ok(Some(_)) => complete && depth <= MAX_NESTING,
            Err(FrameError::BadJson(_)) => !complete || depth > MAX_NESTING,
            _ => false,
        });
    }
}
