//! hMETIS `.hgr` format.
//!
//! Layout (all indices 1-based, `%` starts a comment line):
//!
//! ```text
//! <num_nets> <num_vertices> [fmt]
//! [net-weight] v1 v2 ...        (one line per net)
//! [vertex-weight]               (one line per vertex, if fmt has 10-bit)
//! ```
//!
//! `fmt` is omitted or one of `1` (net weights), `10` (vertex weights),
//! `11` (both) — exactly as in the hMETIS user manual.
//!
//! [`read`] reads its input whole, then makes one pass over the bytes:
//! each token is split off and its digits read in the same scan, and
//! each net goes straight into one [`HypergraphBuilder`] (vertex
//! weights, which follow the nets, overwrite unit placeholders). Its
//! tokenizer splits, trims and parses as `str::split_whitespace` and
//! `str::parse` would on the lines of `BufRead::lines`, so it accepts and
//! rejects the same inputs with the same errors, lines and messages:
//! Unicode whitespace separates tokens, `+7` reads as 7, and a line of
//! invalid UTF-8 is an I/O error. One difference is by design: a reader
//! that fails part-way fails the read before any line is parsed, where a
//! line-by-line reader would first report a syntax error in an earlier
//! line. The line-by-line reader it replaced is kept in the tests as its
//! twin oracle.

use std::io::Write;
#[cfg(test)]
use std::io::{BufRead, BufReader};
use std::path::Path;

use super::text::{self, parse_field, Line, Token};
use crate::error::{BuildError, ParseError};
use crate::{Hypergraph, HypergraphBuilder, VertexId};

/// Upper bound accepted for the header's declared net/vertex counts.
///
/// The declared counts size pre-allocations before any pin data is read,
/// so an adversarial header like `99999999999999 99999999999999` must be
/// rejected up front rather than aborting the process on an impossible
/// allocation. The largest published VLSI benchmarks are orders of
/// magnitude below this bound.
pub const MAX_DECLARED_COUNT: usize = 1 << 28;

/// Which weights an `.hgr` file carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HgrFormat {
    /// No weights: all nets and vertices weight 1.
    #[default]
    Plain,
    /// Net weights only (`fmt = 1`).
    NetWeights,
    /// Vertex weights only (`fmt = 10`).
    VertexWeights,
    /// Both net and vertex weights (`fmt = 11`).
    BothWeights,
}

impl HgrFormat {
    fn has_net_weights(self) -> bool {
        matches!(self, HgrFormat::NetWeights | HgrFormat::BothWeights)
    }
    fn has_vertex_weights(self) -> bool {
        matches!(self, HgrFormat::VertexWeights | HgrFormat::BothWeights)
    }
    fn code(self) -> Option<u32> {
        match self {
            HgrFormat::Plain => None,
            HgrFormat::NetWeights => Some(1),
            HgrFormat::VertexWeights => Some(10),
            HgrFormat::BothWeights => Some(11),
        }
    }
    fn from_code(code: u32, line: usize) -> Result<Self, ParseError> {
        match code {
            1 => Ok(HgrFormat::NetWeights),
            10 => Ok(HgrFormat::VertexWeights),
            11 => Ok(HgrFormat::BothWeights),
            other => Err(ParseError::syntax(
                line,
                format!("unknown hgr fmt code {other} (expected 1, 10, or 11)"),
            )),
        }
    }
}

/// Parses a hypergraph from `.hgr` text.
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure, malformed syntax, out-of-range
/// vertex references, or a net/vertex count mismatch.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "3 4\n1 2\n2 3 4\n1 4\n";
/// let h = hypart_hypergraph::io::hgr::read(text.as_bytes())?;
/// assert_eq!(h.num_nets(), 3);
/// assert_eq!(h.num_vertices(), 4);
/// # Ok(())
/// # }
/// ```
pub fn read<R: std::io::Read>(mut reader: R) -> Result<Hypergraph, ParseError> {
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    let mut lines = text::lines(&input);
    let (header_line_no, num_nets, num_vertices, fmt) = loop {
        let Some((bytes, line_no)) = lines.next() else {
            return Err(ParseError::syntax(1, "empty file: missing header"));
        };
        let line = Line::new(bytes)?;
        if line_no == 1 && bytes.starts_with("\u{feff}".as_bytes()) {
            return Err(ParseError::syntax(
                1,
                "file begins with a UTF-8 byte-order mark; re-save without a BOM",
            ));
        }
        if let Some(toks) = line.content() {
            let (num_nets, num_vertices, fmt) = parse_header(toks, line_no)?;
            break (line_no, num_nets, num_vertices, fmt);
        }
    };

    let mut builder = HypergraphBuilder::with_capacity(num_vertices, num_nets);
    // Vertex weights are read after the nets: unit placeholders until then.
    builder.add_vertices(num_vertices, 1);
    let mut nets_read = 0usize;
    let mut weights_read = 0usize;
    let mut total_weight = 0u64;
    let mut last_line = header_line_no;
    // A net the builder refuses (too many pins in total) fails the read
    // only after every line has passed the syntax checks.
    let mut build_error: Option<BuildError> = None;

    for (bytes, line_no) in lines {
        last_line = line_no;
        let line = Line::new(bytes)?;
        let Some(mut toks) = line.content() else {
            continue;
        };
        if nets_read < num_nets {
            let weight: u32 = if fmt.has_net_weights() {
                parse_field(toks.next(), line_no, "net weight")?
            } else {
                1
            };
            // Each checked pin goes straight into the builder's pin list.
            builder.begin_net();
            let mut any_pin = false;
            for tok in toks {
                let one_based: usize = tok.parse().ok_or_else(|| {
                    ParseError::syntax(
                        line_no,
                        format!(
                            "pin `{}` is not an integer",
                            String::from_utf8_lossy(tok.text)
                        ),
                    )
                })?;
                if one_based == 0 || one_based > num_vertices {
                    return Err(ParseError::syntax(
                        line_no,
                        format!("pin {one_based} out of range 1..={num_vertices}"),
                    ));
                }
                builder.push_pin(VertexId::from_index(one_based - 1));
                any_pin = true;
            }
            if !any_pin {
                return Err(ParseError::syntax(line_no, "net line has no pins"));
            }
            let added = builder.end_net(weight);
            if build_error.is_none() {
                build_error = added.err();
            }
            nets_read += 1;
        } else if fmt.has_vertex_weights() && weights_read < num_vertices {
            // The weight is the whole trimmed line: one token, or text
            // with whitespace inside, which is no integer.
            let w: Option<u64> = match (toks.next(), toks.next()) {
                (Some(tok), None) => tok.parse(),
                _ => None,
            };
            let w = w.ok_or_else(|| {
                ParseError::syntax(
                    line_no,
                    format!(
                        "vertex weight `{}` is not an integer",
                        String::from_utf8_lossy(line.trimmed())
                    ),
                )
            })?;
            total_weight = total_weight
                .checked_add(w)
                .ok_or_else(|| ParseError::syntax(line_no, "total vertex weight overflows u64"))?;
            builder.set_vertex_weight(VertexId::from_index(weights_read), w);
            weights_read += 1;
        } else {
            return Err(ParseError::syntax(line_no, "unexpected trailing content"));
        }
    }

    if nets_read != num_nets {
        return Err(ParseError::syntax(
            last_line,
            format!("header promised {num_nets} nets but file contains {nets_read}"),
        ));
    }
    if fmt.has_vertex_weights() && weights_read != num_vertices {
        return Err(ParseError::syntax(
            last_line,
            format!(
                "header promised {num_vertices} vertex weights but file contains {weights_read}"
            ),
        ));
    }
    if let Some(e) = build_error {
        return Err(e.into());
    }
    Ok(builder.build()?)
}

/// Parses the header line's tokens: net count, vertex count and format.
fn parse_header<'a>(
    mut it: impl Iterator<Item = Token<'a>>,
    line_no: usize,
) -> Result<(usize, usize, HgrFormat), ParseError> {
    let num_nets: usize = parse_field(it.next(), line_no, "net count")?;
    let num_vertices: usize = parse_field(it.next(), line_no, "vertex count")?;
    let fmt = match it.next() {
        None => HgrFormat::Plain,
        Some(tok) => {
            let code: u32 = tok
                .parse()
                .ok_or_else(|| ParseError::syntax(line_no, "fmt field is not an integer"))?;
            HgrFormat::from_code(code, line_no)?
        }
    };
    if it.next().is_some() {
        return Err(ParseError::syntax(line_no, "trailing tokens after header"));
    }
    for (count, what) in [(num_nets, "net count"), (num_vertices, "vertex count")] {
        if count > MAX_DECLARED_COUNT {
            return Err(ParseError::syntax(
                line_no,
                format!(
                    "declared {what} {count} exceeds the supported maximum {MAX_DECLARED_COUNT}"
                ),
            ));
        }
    }
    Ok((num_nets, num_vertices, fmt))
}

/// The line-by-line reader [`read`] replaced: one `String` per line and
/// one `Vec` per net, with every net held until the end. Kept as the
/// oracle of [`read`]'s twin test.
#[cfg(test)]
fn read_reference<R: std::io::Read>(reader: R) -> Result<Hypergraph, ParseError> {
    fn parse_field<T: std::str::FromStr>(
        tok: Option<&str>,
        line: usize,
        what: &str,
    ) -> Result<T, ParseError> {
        tok.ok_or_else(|| ParseError::syntax(line, format!("missing {what}")))?
            .parse()
            .map_err(|_| ParseError::syntax(line, format!("{what} is not a valid integer")))
    }

    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    let (header_line_no, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if i == 0 && line.starts_with('\u{feff}') {
                    return Err(ParseError::syntax(
                        1,
                        "file begins with a UTF-8 byte-order mark; re-save without a BOM",
                    ));
                }
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (i + 1, line);
            }
            None => return Err(ParseError::syntax(1, "empty file: missing header")),
        }
    };

    let mut it = header.split_whitespace();
    let num_nets: usize = parse_field(it.next(), header_line_no, "net count")?;
    let num_vertices: usize = parse_field(it.next(), header_line_no, "vertex count")?;
    let fmt = match it.next() {
        None => HgrFormat::Plain,
        Some(tok) => {
            let code: u32 = tok
                .parse()
                .map_err(|_| ParseError::syntax(header_line_no, "fmt field is not an integer"))?;
            HgrFormat::from_code(code, header_line_no)?
        }
    };
    if it.next().is_some() {
        return Err(ParseError::syntax(
            header_line_no,
            "trailing tokens after header",
        ));
    }
    for (count, what) in [(num_nets, "net count"), (num_vertices, "vertex count")] {
        if count > MAX_DECLARED_COUNT {
            return Err(ParseError::syntax(
                header_line_no,
                format!(
                    "declared {what} {count} exceeds the supported maximum {MAX_DECLARED_COUNT}"
                ),
            ));
        }
    }

    let mut builder = HypergraphBuilder::with_capacity(num_vertices, num_nets);
    builder.add_vertices(num_vertices, 1);

    let mut nets: Vec<(Vec<VertexId>, u32)> = Vec::with_capacity(num_nets);
    let mut nets_read = 0usize;
    let mut vertex_weights: Vec<u64> = Vec::new();
    let mut total_weight = 0u64;
    let mut last_line = header_line_no;

    for (i, line) in lines {
        let line_no = i + 1;
        last_line = line_no;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        if nets_read < num_nets {
            let mut toks = t.split_whitespace();
            let weight: u32 = if fmt.has_net_weights() {
                parse_field(toks.next(), line_no, "net weight")?
            } else {
                1
            };
            let mut pins = Vec::new();
            for tok in toks {
                let one_based: usize = tok.parse().map_err(|_| {
                    ParseError::syntax(line_no, format!("pin `{tok}` is not an integer"))
                })?;
                if one_based == 0 || one_based > num_vertices {
                    return Err(ParseError::syntax(
                        line_no,
                        format!("pin {one_based} out of range 1..={num_vertices}"),
                    ));
                }
                pins.push(VertexId::from_index(one_based - 1));
            }
            if pins.is_empty() {
                return Err(ParseError::syntax(line_no, "net line has no pins"));
            }
            nets.push((pins, weight));
            nets_read += 1;
        } else if fmt.has_vertex_weights() && vertex_weights.len() < num_vertices {
            let w: u64 = t.parse().map_err(|_| {
                ParseError::syntax(line_no, format!("vertex weight `{t}` is not an integer"))
            })?;
            total_weight = total_weight
                .checked_add(w)
                .ok_or_else(|| ParseError::syntax(line_no, "total vertex weight overflows u64"))?;
            vertex_weights.push(w);
        } else {
            return Err(ParseError::syntax(line_no, "unexpected trailing content"));
        }
    }

    if nets_read != num_nets {
        return Err(ParseError::syntax(
            last_line,
            format!("header promised {num_nets} nets but file contains {nets_read}"),
        ));
    }
    if fmt.has_vertex_weights() && vertex_weights.len() != num_vertices {
        return Err(ParseError::syntax(
            last_line,
            format!(
                "header promised {} vertex weights but file contains {}",
                num_vertices,
                vertex_weights.len()
            ),
        ));
    }

    let mut builder = if fmt.has_vertex_weights() {
        let mut b = HypergraphBuilder::with_capacity(num_vertices, num_nets);
        for &w in &vertex_weights {
            b.add_vertex(w);
        }
        b
    } else {
        builder
    };
    for (pins, w) in nets {
        builder.add_net(pins, w)?;
    }
    Ok(builder.build()?)
}

/// Reads an `.hgr` file from `path`.
///
/// # Errors
///
/// See [`read`].
pub fn read_path(path: impl AsRef<Path>) -> Result<Hypergraph, ParseError> {
    let file = std::fs::File::open(path)?;
    read(file)
}

/// Writes `h` in `.hgr` format. Weights are emitted only when any differ
/// from 1, choosing the minimal `fmt` code.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write<W: Write>(h: &Hypergraph, mut writer: W) -> std::io::Result<()> {
    let net_weighted = h.nets().any(|e| h.net_weight(e) != 1);
    let vertex_weighted = !h.is_unit_area();
    let fmt = match (net_weighted, vertex_weighted) {
        (false, false) => HgrFormat::Plain,
        (true, false) => HgrFormat::NetWeights,
        (false, true) => HgrFormat::VertexWeights,
        (true, true) => HgrFormat::BothWeights,
    };
    match fmt.code() {
        None => writeln!(writer, "{} {}", h.num_nets(), h.num_vertices())?,
        Some(code) => writeln!(writer, "{} {} {}", h.num_nets(), h.num_vertices(), code)?,
    }
    let mut line = String::new();
    for e in h.nets() {
        line.clear();
        if fmt.has_net_weights() {
            line.push_str(&h.net_weight(e).to_string());
        }
        for &v in h.net_pins(e) {
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(&(v.index() + 1).to_string());
        }
        writeln!(writer, "{line}")?;
    }
    if fmt.has_vertex_weights() {
        for v in h.vertices() {
            writeln!(writer, "{}", h.vertex_weight(v))?;
        }
    }
    Ok(())
}

/// Writes `h` to an `.hgr` file at `path`.
///
/// # Errors
///
/// See [`write()`].
pub fn write_path(h: &Hypergraph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut buf = std::io::BufWriter::new(file);
    write(h, &mut buf)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::io::twin::{corrupt_corpus, outcome, recipes, twin_input};
    use crate::HypergraphBuilder;

    fn weighted_sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = [3u64, 1, 1, 7].iter().map(|&w| b.add_vertex(w)).collect();
        b.add_net([v[0], v[1]], 2).unwrap();
        b.add_net([v[1], v[2], v[3]], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn plain_round_trip() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1]], 1).unwrap();
        b.add_net([v[1], v[2], v[3]], 1).unwrap();
        let h = b.build().unwrap();

        let mut buf = Vec::new();
        write(&h, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("2 4\n"));
        let h2 = read(&buf[..]).unwrap();
        assert_eq!(h2.num_nets(), 2);
        assert_eq!(h2.num_vertices(), 4);
        assert_eq!(h2.net_pins(crate::NetId::new(1)).len(), 3);
    }

    #[test]
    fn both_weights_round_trip() {
        let h = weighted_sample();
        let mut buf = Vec::new();
        write(&h, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("2 4 11\n"), "got: {text}");
        let h2 = read(&buf[..]).unwrap();
        assert_eq!(h2.net_weight(crate::NetId::new(0)), 2);
        assert_eq!(h2.vertex_weight(crate::VertexId::new(3)), 7);
        assert_eq!(h2.total_vertex_weight(), h.total_vertex_weight());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "% a comment\n\n2 3\n% nets follow\n1 2\n\n2 3\n";
        let h = read(text.as_bytes()).unwrap();
        assert_eq!(h.num_nets(), 2);
        assert_eq!(h.num_vertices(), 3);
    }

    #[test]
    fn pin_out_of_range_is_reported_with_line() {
        let text = "1 2\n1 5\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn missing_nets_is_an_error() {
        let text = "3 4\n1 2\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("promised 3 nets"), "{err}");
    }

    #[test]
    fn zero_pin_index_rejected() {
        let text = "1 2\n0 1\n";
        assert!(read(text.as_bytes()).is_err());
    }

    #[test]
    fn bad_fmt_code_rejected() {
        let text = "1 2 7\n1 2\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown hgr fmt"), "{err}");
    }

    #[test]
    fn net_weight_only_round_trip() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1]], 9).unwrap();
        let h = b.build().unwrap();
        let mut buf = Vec::new();
        write(&h, &mut buf).unwrap();
        assert!(String::from_utf8_lossy(&buf).starts_with("1 2 1\n"));
        let h2 = read(&buf[..]).unwrap();
        assert_eq!(h2.net_weight(crate::NetId::new(0)), 9);
    }

    #[test]
    fn path_round_trip() {
        let h = weighted_sample();
        let dir = std::env::temp_dir().join("hypart_hgr_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.hgr");
        write_path(&h, &path).unwrap();
        let h2 = read_path(&path).unwrap();
        assert_eq!(h2.num_pins(), h.num_pins());
        std::fs::remove_file(&path).ok();
    }

    fn assert_twins_agree(bytes: &[u8]) {
        assert_eq!(
            outcome(read(bytes)),
            outcome(read_reference(bytes)),
            "input {:?}",
            String::from_utf8_lossy(bytes)
        );
    }

    /// Valid files of every format, then the corpus: the files the third
    /// input kind edits.
    fn seed_files() -> Vec<Vec<u8>> {
        let mut plain = HypergraphBuilder::new();
        let vs: Vec<VertexId> = (0..5).map(|_| plain.add_vertex(1)).collect();
        plain.add_net([vs[0], vs[1]], 1).unwrap();
        plain.add_net([vs[1], vs[2], vs[3]], 1).unwrap();
        plain.add_net([vs[3], vs[4], vs[0]], 1).unwrap();
        let mut net_weighted = plain.clone();
        net_weighted.add_net([vs[2], vs[4]], 12).unwrap();
        let mut vertex_weighted = HypergraphBuilder::new();
        for w in [3, 1, 4, 1, 5] {
            vertex_weighted.add_vertex(w);
        }
        vertex_weighted.add_net([vs[4], vs[0], vs[2]], 1).unwrap();
        let mut both = vertex_weighted.clone();
        both.add_net([vs[1], vs[3]], 7).unwrap();
        let mut files: Vec<Vec<u8>> = [plain, net_weighted, vertex_weighted, both]
            .into_iter()
            .map(|b| {
                let mut bytes = Vec::new();
                write(&b.build().unwrap(), &mut bytes).unwrap();
                bytes
            })
            .collect();
        files.extend(corrupt_corpus());
        files
    }

    /// Bytes an edit writes half of the time: close to the format, plus
    /// the lead bytes of multi-byte UTF-8 and a byte never in UTF-8.
    const EDIT_BYTES: &[u8] = b"0123456789 +-%\n\r\t\x0b\xc2\xa0\xef\xff";

    /// Pieces of the token text: numbers (with `+`, `-`, leading zeros
    /// and past `u32` and `u64`), the format codes, comments, ASCII
    /// whitespace and line endings, and non-ASCII text — Unicode
    /// whitespace, a byte-order mark, a letter.
    const PIECES: &[&str] = &[
        "0",
        "1",
        "2",
        "3",
        "4",
        "5",
        "7",
        "10",
        "11",
        "007",
        "+3",
        "-1",
        "+",
        "++2",
        "4294967296",
        "18446744073709551616",
        "%",
        "% c",
        " ",
        " ",
        "\t",
        "\n",
        "\n",
        "\r\n",
        "\r",
        "\u{b}",
        "\u{c}",
        "\u{a0}",
        "\u{85}",
        "\u{3000}",
        "\u{feff}",
        "é",
    ];

    #[test]
    fn twins_agree_on_the_corrupt_corpus_and_special_lines() {
        for file in corrupt_corpus() {
            assert_twins_agree(&file);
        }
        for text in [
            "",
            "\n\n",
            "\u{feff}1 2\n1 2\n",
            "% c\n\u{feff}1 2\n1 2\n",
            "1 2\r\n+1 +2\r\n",
            "1\u{a0}2\n1\u{3000}2\u{85}\n",
            "1 2 10\n1 2\n\u{b}7\u{c}\n\u{a0}8\n",
            "1 2 10\n1 2\n7 8\n",
            "1 2 10\n1 2\n7\u{a0}8\n",
            "1 2 1\n\n",
            "1 2 1\n5\n",
            "1 2 10\n1 2\n18446744073709551615\n1\n",
            "2 3\n1 2 2 1\n3\n",
        ] {
            assert_twins_agree(text.as_bytes());
        }
        // Invalid UTF-8 on a pin line, after a bad pin, and past the end.
        for bytes in [
            &b"1 2\n1 \xff\n"[..],
            b"1 2\n1 x\n\xff\n",
            b"1 2\n1 2\n\xff\n",
        ] {
            assert_twins_agree(bytes);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4_000))]

        /// The one-pass reader and the line-by-line reader give the same
        /// instance, or the same error at the same line with the same
        /// message, on the three input kinds of the parser fuzz suite.
        #[test]
        fn one_pass_reader_matches_the_line_reader(recipe in recipes()) {
            thread_local! {
                static FILES: Vec<Vec<u8>> = seed_files();
            }
            let bytes = FILES.with(|files| twin_input(files, PIECES, EDIT_BYTES, recipe));
            proptest::prop_assert_eq!(outcome(read(&bytes[..])), outcome(read_reference(&bytes[..])));
        }
    }
}
