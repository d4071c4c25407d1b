//! Hostile-input corpus: every file under `tests/corrupt/` must be
//! rejected with a typed [`ParseError`] that names the offending line —
//! never a panic, never an abort, never an unbounded allocation.
//!
//! The corpus covers the failure modes the robustness issue calls out:
//! truncated `.hgr`, 0-based pin indices, pins past `num_vertices`,
//! weight overflow, empty nets, a UTF-8 BOM with CRLF line endings,
//! oversized declared counts, malformed netD pin lists, and bad tokens
//! in partition files.

use std::fs::File;
use std::path::{Path, PathBuf};

use hypart::hypergraph::io::{hgr, netd, partfile};
use hypart::hypergraph::ParseError;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corrupt")
}

fn corpus_files(extension: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corrupt exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(extension))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no corpus files with extension {extension}"
    );
    files
}

/// The rejection contract: a typed syntax error carrying a 1-based line.
fn assert_typed_rejection(path: &Path, err: ParseError) {
    match err {
        ParseError::Syntax { line, ref message } => {
            assert!(
                line >= 1,
                "{}: syntax error must name a 1-based line, got {line}: {message}",
                path.display()
            );
            assert!(
                err.to_string().contains(&format!("line {line}")),
                "{}: display must name the line: {err}",
                path.display()
            );
        }
        other => panic!(
            "{}: expected a Syntax error with line info, got: {other}",
            path.display()
        ),
    }
}

#[test]
fn every_corrupt_hgr_is_rejected_with_a_line() {
    for path in corpus_files("hgr") {
        let err = hgr::read(File::open(&path).unwrap())
            .map(|_| ())
            .expect_err(&format!("{} must be rejected", path.display()));
        assert_typed_rejection(&path, err);
    }
}

#[test]
fn every_corrupt_netd_is_rejected_with_a_line() {
    for path in corpus_files("netD") {
        let err = netd::read(File::open(&path).unwrap())
            .map(|_| ())
            .expect_err(&format!("{} must be rejected", path.display()));
        assert_typed_rejection(&path, err);
    }
}

#[test]
fn every_corrupt_partfile_is_rejected_with_a_line() {
    for path in corpus_files("part") {
        let err = partfile::read(File::open(&path).unwrap())
            .map(|_| ())
            .expect_err(&format!("{} must be rejected", path.display()));
        assert_typed_rejection(&path, err);
    }
}

#[test]
fn corpus_diagnostics_are_specific() {
    let read = |name: &str| {
        hgr::read(File::open(corpus_dir().join(name)).unwrap())
            .map(|_| ())
            .unwrap_err()
            .to_string()
    };
    assert!(read("truncated.hgr").contains("promised 3 nets"));
    assert!(read("zero_based_pin.hgr").contains("out of range 1..="));
    assert!(read("pin_out_of_range.hgr").contains("pin 5 out of range"));
    assert!(read("weight_overflow.hgr").contains("overflows u64"));
    assert!(read("empty_net.hgr").contains("no pins"));
    assert!(read("bom_crlf.hgr").contains("byte-order mark"));
    assert!(read("oversized_counts.hgr").contains("exceeds the supported maximum"));
}
