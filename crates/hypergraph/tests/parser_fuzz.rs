//! Fuzzing of the three file parsers: `hgr::read`, `netd::read` and
//! `partfile::read`.
//!
//! Each parser gets 10,000 inputs of three kinds: random bytes, text
//! built from digits, whitespace and the formats' keywords, and files
//! with one to three bytes edited — valid files of the parser's format
//! or files of the `tests/corrupt/` corpus.
//! Every call must end in `Ok` or a typed [`ParseError`], never a panic.
//! Whatever `hgr::read` or `netd::read` accepts must also `write` back to
//! text that reads to the same [`Hypergraph::content_digest`].
//!
//! Numbers in the generated text have at most three digits, so no header
//! declares more than 999 items and no case spends its time filling a
//! large pre-allocation. The declared-count guard itself is pinned by the
//! corpus file `oversized_counts.hgr`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::sync::OnceLock;

use hypart_hypergraph::io::{hgr, netd, partfile};
use hypart_hypergraph::{Hypergraph, HypergraphBuilder, ParseError, PartId, VertexId};
use proptest::prelude::*;

const CASES: u32 = 10_000;

/// Tokens of the generated text: the formats' keywords, then prefixes
/// that make a cell name or a negative number out of the digits after
/// them.
const WORDS: &[&str] = &["netD", "s", "%", "areas", "pads", "-1"];
const PREFIXES: &[&str] = &["", "", "", "a", "p", "-"];
const SEPARATORS: &[&str] = &[" ", " ", "\t", "\n", "\n", "\r\n"];
/// Bytes an edit writes half of the time, so edits stay close to the
/// formats.
const EDIT_BYTES: &[u8] = b"0123456789 \n\t-%aps";

/// One fuzz input before it is turned into bytes: the kind (raw bytes,
/// token text, or an edited file), raw bytes or token choices, which
/// file to edit, and the edits.
type Recipe = (u8, Vec<u8>, usize, Vec<(usize, u8, u8)>);

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        0u8..3,
        proptest::collection::vec(any::<u8>(), 0..192),
        any::<usize>(),
        proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..4),
    )
}

/// Text of whitespace-separated tokens, each drawn from three bytes of
/// `raw`: the token kind, a number, and the separator after it.
fn token_text(raw: &[u8]) -> Vec<u8> {
    let mut text = String::new();
    for chunk in raw.chunks_exact(3) {
        let kind = usize::from(chunk[0]) % (WORDS.len() + PREFIXES.len());
        match kind.checked_sub(WORDS.len()) {
            None => text.push_str(WORDS[kind]),
            Some(prefix) => {
                // Mostly small numbers, sometimes up to three digits.
                let n = if chunk[1] & 1 == 0 {
                    u32::from(chunk[1] >> 1) % 24
                } else {
                    u32::from(chunk[1]) * 999 / 255
                };
                text.push_str(PREFIXES[prefix]);
                text.push_str(&n.to_string());
            }
        }
        text.push_str(SEPARATORS[usize::from(chunk[2]) % SEPARATORS.len()]);
    }
    text.into_bytes()
}

/// Turns a recipe into the bytes fed to a parser. An edited file is a
/// valid file of the parser's format half of the time and a corpus file
/// otherwise; each edit overwrites, inserts or deletes one byte.
fn materialize((kind, raw, which, edits): Recipe, valid: &[Vec<u8>]) -> Vec<u8> {
    let files = if which % 2 == 0 {
        valid
    } else {
        corrupt_corpus()
    };
    match kind {
        0 => raw,
        1 => token_text(&raw),
        _ => {
            let mut bytes = files[which / 2 % files.len()].clone();
            for (at, byte, op) in edits {
                let byte = if byte & 1 == 0 {
                    EDIT_BYTES[usize::from(byte >> 1) % EDIT_BYTES.len()]
                } else {
                    byte
                };
                let at = at % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.push(byte),
                }
            }
            bytes
        }
    }
}

/// Small valid instances: empty, unit weights, and net and vertex
/// weights with fixed vertices (pads in netD).
fn instances() -> Vec<Hypergraph> {
    let empty = HypergraphBuilder::new();

    let mut plain = HypergraphBuilder::new();
    let vs: Vec<VertexId> = (0..5).map(|_| plain.add_vertex(1)).collect();
    plain.add_net([vs[0], vs[1]], 1).unwrap();
    plain.add_net([vs[1], vs[2], vs[3]], 1).unwrap();
    plain.add_net([vs[3], vs[4], vs[0]], 1).unwrap();

    let mut weighted = HypergraphBuilder::new();
    let vs: Vec<VertexId> = [3, 1, 4, 1, 5, 9]
        .iter()
        .map(|&w| weighted.add_vertex(w))
        .collect();
    weighted.fix_vertex(vs[0], PartId::P0);
    weighted.fix_vertex(vs[5], PartId::P1);
    weighted.add_net([vs[0], vs[1], vs[2]], 2).unwrap();
    weighted.add_net([vs[2], vs[3]], 7).unwrap();
    weighted.add_net([vs[3], vs[4], vs[5]], 1).unwrap();

    [empty, plain, weighted]
        .into_iter()
        .map(|b| b.build().unwrap())
        .collect()
}

/// Every file of the `tests/corrupt/` corpus at the repository root,
/// read once.
fn corrupt_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corrupt");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        files.sort();
        assert!(!files.is_empty(), "empty corpus at {}", dir.display());
        files.iter().map(|p| std::fs::read(p).unwrap()).collect()
    })
}

/// `write` output of each instance in one format, built once per format.
fn valid_files(
    cell: &'static OnceLock<Vec<Vec<u8>>>,
    write: fn(&Hypergraph, &mut Vec<u8>),
) -> &'static [Vec<u8>] {
    cell.get_or_init(|| {
        instances()
            .iter()
            .map(|h| {
                let mut bytes = Vec::new();
                write(h, &mut bytes);
                bytes
            })
            .collect()
    })
}

/// Asserts that a hypergraph parser's accepted input survives a
/// write/read round trip with its content digest intact.
fn round_trips(
    parsed: Result<Hypergraph, ParseError>,
    write: impl Fn(&Hypergraph, &mut Vec<u8>),
    read: impl Fn(&[u8]) -> Result<Hypergraph, ParseError>,
) -> Result<(), TestCaseError> {
    if let Ok(h) = parsed {
        let mut text = Vec::new();
        write(&h, &mut text);
        match read(&text) {
            Ok(again) => prop_assert_eq!(again.content_digest(), h.content_digest()),
            Err(e) => prop_assert!(false, "written text fails to read back: {}", e),
        }
    }
    Ok(())
}

fn write_hgr(h: &Hypergraph, out: &mut Vec<u8>) {
    hgr::write(h, out).unwrap();
}

fn write_netd(h: &Hypergraph, out: &mut Vec<u8>) {
    netd::write(h, out).unwrap();
}

/// A partition file placing each vertex on its fixed side, else on 0.
fn write_partfile(h: &Hypergraph, out: &mut Vec<u8>) {
    let sides: Vec<PartId> = h
        .vertices()
        .map(|v| h.fixed_part(v).unwrap_or(PartId::P0))
        .collect();
    partfile::write(&sides, out).unwrap();
}

static HGR: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
static NETD: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
static PARTFILE: OnceLock<Vec<Vec<u8>>> = OnceLock::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn hgr_reads_or_fails_typed_and_round_trips(input in recipe()) {
        let bytes = materialize(input, valid_files(&HGR, write_hgr));
        round_trips(hgr::read(bytes.as_slice()), write_hgr, |b| hgr::read(b))?;
    }

    #[test]
    fn netd_reads_or_fails_typed_and_round_trips(input in recipe()) {
        let bytes = materialize(input, valid_files(&NETD, write_netd));
        round_trips(netd::read(bytes.as_slice()), write_netd, |b| netd::read(b))?;
    }

    #[test]
    fn partfile_reads_or_fails_typed(input in recipe()) {
        let bytes = materialize(input, valid_files(&PARTFILE, write_partfile));
        let _ = partfile::read(bytes.as_slice());
    }
}
