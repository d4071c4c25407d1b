//! Shared pieces of the readers' twin tests: each one-pass reader must
//! give the same instance, or the same error variant, line and message,
//! as the line-by-line reader it replaced, on random bytes, on token
//! text and on valid or corrupt files with one to three bytes edited.

use crate::error::ParseError;
use crate::{Hypergraph, VertexId};

/// What a read came to: the instance (weights, fixed sides and every
/// net's weight and pins, in order, plus the content digest), or the
/// error's variant and text (line and message).
pub(super) fn outcome(result: Result<Hypergraph, ParseError>) -> Result<String, String> {
    match result {
        Ok(h) => {
            let weights: Vec<u64> = h.vertices().map(|v| h.vertex_weight(v)).collect();
            let fixed: Vec<_> = h.vertices().map(|v| h.fixed_part(v)).collect();
            let nets: Vec<(u32, &[VertexId])> =
                h.nets().map(|e| (h.net_weight(e), h.net_pins(e))).collect();
            Ok(format!(
                "{:x} {weights:?} {fixed:?} {nets:?}",
                h.content_digest()
            ))
        }
        Err(e @ ParseError::Io(_)) => Err(format!("io: {e}")),
        Err(e @ ParseError::Syntax { .. }) => Err(format!("syntax: {e}")),
        Err(e @ ParseError::Build(_)) => Err(format!("build: {e}")),
    }
}

/// Every file of the `tests/corrupt/` corpus at the repository root.
pub(super) fn corrupt_corpus() -> Vec<Vec<u8>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corrupt");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus at {}", dir.display());
    files.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

/// One twin input: its kind (0: random bytes, 1: token text, 2: an
/// edited seed file), the raw bytes kinds 0 and 1 use, which seed file
/// kind 2 edits, and its edits `(position, byte, operation)`.
pub(super) type TwinRecipe = (u8, Vec<u8>, usize, Vec<(usize, u8, u8)>);

/// The strategy of [`TwinRecipe`]s.
pub(super) fn recipes() -> impl proptest::Strategy<Value = TwinRecipe> {
    use proptest::prelude::any;
    (
        0u8..3,
        proptest::collection::vec(any::<u8>(), 0..160),
        any::<usize>(),
        proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..4),
    )
}

/// Builds a twin input: random bytes; token text, one of `pieces` per
/// raw byte; or a seed file from `files` with one to three bytes
/// overwritten, inserted or deleted. Half of the written bytes come from
/// `edit_bytes`, bytes close to the format.
pub(super) fn twin_input(
    files: &[Vec<u8>],
    pieces: &[&str],
    edit_bytes: &[u8],
    (kind, raw, which, edits): TwinRecipe,
) -> Vec<u8> {
    match kind {
        0 => raw,
        1 => raw
            .iter()
            .flat_map(|&b| pieces[usize::from(b) % pieces.len()].bytes())
            .collect(),
        _ => {
            let mut bytes = files[which % files.len()].clone();
            for (at, byte, op) in edits {
                let byte = if byte & 1 == 0 {
                    edit_bytes[usize::from(byte >> 1) % edit_bytes.len()]
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
