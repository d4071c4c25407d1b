//! Simplified ISPD98 `netD`/`are`-style netlist format.
//!
//! The real IBM-internal format is a pair of files: a `.netD` pin list and a
//! `.are` area file. This module implements a faithful single-file rendition
//! that keeps the load-bearing features — a flat pin list where each net
//! starts at an `s` record, per-cell areas, and pad (`p`) cells that are
//! fixed terminals — while dropping legacy header fields nobody consumes.
//!
//! ```text
//! netD <num_vertices> <num_nets> <num_pins>
//! a0 s          # pin list: cell id (aN = movable, pN = pad), s = net start
//! a1
//! p0 s
//! a1
//! ...
//! % areas
//! a0 16
//! a1 1
//! p0 0
//! % pads        # optional: fixed partition per pad
//! p0 0
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use super::text::{self, parse_field, Line};
use crate::error::ParseError;
use crate::{Hypergraph, HypergraphBuilder, PartId, VertexId};

/// The section a `% areas` or `% pads` line switches to.
#[derive(Clone, Copy, PartialEq)]
enum Section {
    Pins,
    Areas,
    Pads,
}

/// One cell.
struct Cell {
    /// The `% areas` record's area, else 1 for a movable cell and 0 for
    /// a name starting with `p`.
    weight: u64,
    /// The `% pads` record's side.
    pad: Option<PartId>,
}

/// The cells in order of first mention, and their names.
#[derive(Default)]
struct Cells<'a> {
    index: HashMap<&'a [u8], usize>,
    list: Vec<Cell>,
}

impl<'a> Cells<'a> {
    /// The index of cell `name`, added on its first mention.
    fn intern(&mut self, name: &'a [u8]) -> usize {
        let list = &mut self.list;
        *self.index.entry(name).or_insert_with(|| {
            list.push(Cell {
                weight: u64::from(!name.starts_with(b"p")),
                pad: None,
            });
            list.len() - 1
        })
    }
}

/// Parses a hypergraph from simplified `netD` text.
///
/// Cells named `aN` are movable; cells named `pN` are pads. Pads without an
/// explicit `% pads` record stay free; with one, they are fixed in the given
/// partition. Areas default to 1 when the `% areas` section is absent.
///
/// The input is read whole, then split in one pass over the bytes with
/// the tokenizer of [`super::hgr::read`]: cell names are slices of the
/// input, each interned once, and a pin is a cell index. It accepts and
/// rejects what a line-by-line reader does, with the same errors, lines
/// and messages (the line reader it replaced is kept in the tests as its
/// twin oracle); a reader that fails part-way fails the read before any
/// line is parsed.
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure or malformed syntax.
pub fn read<R: std::io::Read>(mut reader: R) -> Result<Hypergraph, ParseError> {
    let mut input = Vec::new();
    reader.read_to_end(&mut input)?;
    let mut section = Section::Pins;
    let mut header: Option<(usize, usize, usize)> = None;
    let mut cells = Cells::default();
    // Pins, back to back; net `i` starts at `net_start[i]`.
    let mut pins: Vec<VertexId> = Vec::new();
    let mut net_start: Vec<usize> = Vec::new();

    let mut last_line = 0usize;
    for (bytes, line_no) in text::lines(&input) {
        last_line = line_no;
        let line = Line::new(bytes)?;
        let Some(mut toks) = line.content() else {
            match line.comment() {
                Some(b"areas") => section = Section::Areas,
                Some(b"pads") => section = Section::Pads,
                _ => {} // a blank line or an arbitrary comment
            }
            continue;
        };
        let Some(first) = toks.next() else {
            continue;
        };
        if header.is_none() {
            if first.text != b"netD" {
                return Err(ParseError::syntax(line_no, "expected `netD` header"));
            }
            let nv = parse_field(toks.next(), line_no, "vertex count")?;
            let ne = parse_field(toks.next(), line_no, "net count")?;
            let np = parse_field(toks.next(), line_no, "pin count")?;
            header = Some((nv, ne, np));
            continue;
        }
        let name = first.text;
        match section {
            Section::Pins => {
                if !name.starts_with(b"a") && !name.starts_with(b"p") {
                    return Err(ParseError::syntax(
                        line_no,
                        format!(
                            "cell name `{}` must start with `a` or `p`",
                            String::from_utf8_lossy(name)
                        ),
                    ));
                }
                let is_start = match toks.next() {
                    None => false,
                    Some(tok) if tok.text == b"s" => true,
                    Some(other) => {
                        return Err(ParseError::syntax(
                            line_no,
                            format!(
                                "unexpected token `{}` after cell name",
                                String::from_utf8_lossy(other.text)
                            ),
                        ))
                    }
                };
                let cell = VertexId::from_index(cells.intern(name));
                if is_start {
                    net_start.push(pins.len());
                } else if net_start.is_empty() {
                    return Err(ParseError::syntax(
                        line_no,
                        "pin before any net start record",
                    ));
                }
                pins.push(cell);
            }
            Section::Areas => {
                let area = parse_field(toks.next(), line_no, "area")?;
                let cell = cells.intern(name);
                cells.list[cell].weight = area;
            }
            Section::Pads => {
                let part: usize = parse_field(toks.next(), line_no, "partition")?;
                let part = PartId::from_index(part).ok_or_else(|| {
                    ParseError::syntax(line_no, format!("partition {part} is not 0 or 1"))
                })?;
                let cell = cells.intern(name);
                cells.list[cell].pad = Some(part);
            }
        }
    }

    let (nv, ne, np) = header.ok_or_else(|| ParseError::syntax(1, "missing `netD` header"))?;
    if cells.list.len() != nv {
        return Err(ParseError::syntax(
            last_line,
            format!(
                "header promised {nv} cells, file names {}",
                cells.list.len()
            ),
        ));
    }
    if net_start.len() != ne {
        return Err(ParseError::syntax(
            last_line,
            format!(
                "header promised {ne} nets, file contains {}",
                net_start.len()
            ),
        ));
    }
    if pins.len() != np {
        return Err(ParseError::syntax(
            last_line,
            format!("header promised {np} pins, file contains {}", pins.len()),
        ));
    }

    let mut b = HypergraphBuilder::with_capacity(nv, ne);
    b.reserve(0, 0, np);
    for (v, cell) in cells.list.iter().enumerate() {
        b.add_vertex(cell.weight);
        if let Some(part) = cell.pad {
            b.fix_vertex(VertexId::from_index(v), part);
        }
    }
    net_start.push(pins.len());
    for net in net_start.windows(2) {
        b.add_net(pins[net[0]..net[1]].iter().copied(), 1)?;
    }
    Ok(b.build()?)
}

/// Reads a simplified `netD` file from `path`.
///
/// # Errors
///
/// See [`read`].
pub fn read_path(path: impl AsRef<Path>) -> Result<Hypergraph, ParseError> {
    read(std::fs::File::open(path)?)
}

/// Writes `h` in simplified `netD` format. Fixed vertices become pads
/// (`pN`), free vertices movable cells (`aN`).
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write<W: Write>(h: &Hypergraph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "netD {} {} {}",
        h.num_vertices(),
        h.num_nets(),
        h.num_pins()
    )?;
    let cell_name = |v: VertexId| {
        if h.is_fixed(v) {
            format!("p{}", v.raw())
        } else {
            format!("a{}", v.raw())
        }
    };
    for e in h.nets() {
        for (k, &v) in h.net_pins(e).iter().enumerate() {
            if k == 0 {
                writeln!(writer, "{} s", cell_name(v))?;
            } else {
                writeln!(writer, "{}", cell_name(v))?;
            }
        }
    }
    writeln!(writer, "% areas")?;
    for v in h.vertices() {
        writeln!(writer, "{} {}", cell_name(v), h.vertex_weight(v))?;
    }
    if h.num_fixed() > 0 {
        writeln!(writer, "% pads")?;
        for v in h.vertices() {
            if let Some(p) = h.fixed_part(v) {
                writeln!(writer, "{} {}", cell_name(v), p.index())?;
            }
        }
    }
    Ok(())
}

/// Writes `h` to a simplified `netD` file at `path`.
///
/// # Errors
///
/// See [`write()`].
pub fn write_path(h: &Hypergraph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write(h, std::io::BufWriter::new(file))
}

/// The line-by-line reader [`read`] replaced: one `String` per line and
/// per pin, and a `HashMap<String, _>` lookup per pin. Kept as the oracle
/// of [`read`]'s twin test.
#[cfg(test)]
fn read_reference<R: std::io::Read>(reader: R) -> Result<Hypergraph, ParseError> {
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader};

    fn parse_usize(tok: Option<&str>, line: usize, what: &str) -> Result<usize, ParseError> {
        tok.ok_or_else(|| ParseError::syntax(line, format!("missing {what}")))?
            .parse()
            .map_err(|_| ParseError::syntax(line, format!("{what} is not a valid integer")))
    }

    let reader = BufReader::new(reader);
    #[derive(PartialEq)]
    enum Section {
        Pins,
        Areas,
        Pads,
    }
    let mut section = Section::Pins;
    let mut header: Option<(usize, usize, usize)> = None;
    let mut nets: Vec<Vec<String>> = Vec::new();
    let mut areas: HashMap<String, u64> = HashMap::new();
    let mut pads: HashMap<String, PartId> = HashMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut name_index: HashMap<String, usize> = HashMap::new();

    let intern =
        |name: &str, names: &mut Vec<String>, name_index: &mut HashMap<String, usize>| -> usize {
            if let Some(&i) = name_index.get(name) {
                i
            } else {
                let i = names.len();
                names.push(name.to_string());
                name_index.insert(name.to_string(), i);
                i
            }
        };

    let mut last_line = 0usize;
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        last_line = line_no;
        let line = line?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix('%') {
            match rest.trim() {
                "areas" => section = Section::Areas,
                "pads" => section = Section::Pads,
                _ => {} // arbitrary comment
            }
            continue;
        }
        if header.is_none() {
            let mut it = t.split_whitespace();
            if it.next() != Some("netD") {
                return Err(ParseError::syntax(line_no, "expected `netD` header"));
            }
            let nv = parse_usize(it.next(), line_no, "vertex count")?;
            let ne = parse_usize(it.next(), line_no, "net count")?;
            let np = parse_usize(it.next(), line_no, "pin count")?;
            header = Some((nv, ne, np));
            continue;
        }
        match section {
            Section::Pins => {
                let mut it = t.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| ParseError::syntax(line_no, "missing cell name"))?;
                if !name.starts_with('a') && !name.starts_with('p') {
                    return Err(ParseError::syntax(
                        line_no,
                        format!("cell name `{name}` must start with `a` or `p`"),
                    ));
                }
                let is_start = match it.next() {
                    None => false,
                    Some("s") => true,
                    Some(other) => {
                        return Err(ParseError::syntax(
                            line_no,
                            format!("unexpected token `{other}` after cell name"),
                        ))
                    }
                };
                intern(name, &mut names, &mut name_index);
                if is_start {
                    nets.push(vec![name.to_string()]);
                } else {
                    match nets.last_mut() {
                        Some(net) => net.push(name.to_string()),
                        None => {
                            return Err(ParseError::syntax(
                                line_no,
                                "pin before any net start record",
                            ))
                        }
                    }
                }
            }
            Section::Areas => {
                let mut it = t.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| ParseError::syntax(line_no, "missing cell name"))?;
                let area: u64 = parse_usize(it.next(), line_no, "area")? as u64;
                intern(name, &mut names, &mut name_index);
                areas.insert(name.to_string(), area);
            }
            Section::Pads => {
                let mut it = t.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| ParseError::syntax(line_no, "missing pad name"))?;
                let part = parse_usize(it.next(), line_no, "partition")?;
                let part = PartId::from_index(part).ok_or_else(|| {
                    ParseError::syntax(line_no, format!("partition {part} is not 0 or 1"))
                })?;
                intern(name, &mut names, &mut name_index);
                pads.insert(name.to_string(), part);
            }
        }
    }

    let (nv, ne, np) = header.ok_or_else(|| ParseError::syntax(1, "missing `netD` header"))?;
    if names.len() != nv {
        return Err(ParseError::syntax(
            last_line,
            format!("header promised {nv} cells, file names {}", names.len()),
        ));
    }
    if nets.len() != ne {
        return Err(ParseError::syntax(
            last_line,
            format!("header promised {ne} nets, file contains {}", nets.len()),
        ));
    }
    let pin_count: usize = nets.iter().map(Vec::len).sum();
    if pin_count != np {
        return Err(ParseError::syntax(
            last_line,
            format!("header promised {np} pins, file contains {pin_count}"),
        ));
    }

    let mut b = HypergraphBuilder::with_capacity(nv, ne);
    for name in &names {
        let default = if name.starts_with('p') { 0 } else { 1 };
        b.add_vertex(*areas.get(name).unwrap_or(&default));
    }
    for net in &nets {
        let pins = net
            .iter()
            .map(|n| VertexId::from_index(name_index[n]))
            .collect::<Vec<_>>();
        b.add_net(pins, 1)?;
    }
    for (name, part) in &pads {
        if let Some(&i) = name_index.get(name) {
            b.fix_vertex(VertexId::from_index(i), *part);
        }
    }
    Ok(b.build()?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::io::twin::{corrupt_corpus, outcome, recipes, twin_input};

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = [4u64, 1, 1, 0].iter().map(|&w| b.add_vertex(w)).collect();
        b.add_net([v[0], v[1], v[3]], 1).unwrap();
        b.add_net([v[1], v[2]], 1).unwrap();
        b.fix_vertex(v[3], PartId::P1);
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let h = sample();
        let mut buf = Vec::new();
        write(&h, &mut buf).unwrap();
        let h2 = read(&buf[..]).unwrap();
        assert_eq!(h2.num_vertices(), 4);
        assert_eq!(h2.num_nets(), 2);
        assert_eq!(h2.num_pins(), 5);
        assert_eq!(h2.num_fixed(), 1);
        assert_eq!(h2.total_vertex_weight(), h.total_vertex_weight());
        h2.validate().unwrap();
    }

    #[test]
    fn read_hand_written() {
        let text = "\
netD 3 2 4
a0 s
a1
p0 s
a1
% areas
a0 5
a1 2
p0 0
% pads
p0 1
";
        let h = read(text.as_bytes()).unwrap();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_nets(), 2);
        assert_eq!(h.num_fixed(), 1);
        assert_eq!(h.total_vertex_weight(), 7);
    }

    #[test]
    fn missing_header_is_error() {
        let err = read("a0 s\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("netD"), "{err}");
    }

    #[test]
    fn pin_before_net_start_is_error() {
        let text = "netD 1 1 1\na0\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("before any net start"), "{err}");
    }

    #[test]
    fn count_mismatch_is_error() {
        let text = "netD 2 2 2\na0 s\na1\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("promised 2 nets"), "{err}");
    }

    #[test]
    fn default_areas_when_section_absent() {
        let text = "netD 2 1 2\na0 s\na1\n";
        let h = read(text.as_bytes()).unwrap();
        assert_eq!(h.total_vertex_weight(), 2);
    }

    #[test]
    fn bad_pad_partition_is_error() {
        let text = "netD 1 1 1\np0 s\n% pads\np0 3\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("not 0 or 1"), "{err}");
    }

    #[test]
    fn path_round_trip() {
        let h = sample();
        let dir = std::env::temp_dir().join("hypart_netd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.netD");
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

    /// Valid files (areas, pads, a cell on several nets), then the
    /// corpus: the files the third input kind edits.
    fn seed_files() -> Vec<Vec<u8>> {
        let mut padded = HypergraphBuilder::new();
        let v: Vec<_> = [3u64, 1, 4, 0, 0]
            .iter()
            .map(|&w| padded.add_vertex(w))
            .collect();
        padded.add_net([v[0], v[1], v[3]], 1).unwrap();
        padded.add_net([v[1], v[2]], 1).unwrap();
        padded.add_net([v[4], v[2], v[0]], 1).unwrap();
        padded.fix_vertex(v[3], PartId::P1);
        padded.fix_vertex(v[4], PartId::P0);
        let mut files: Vec<Vec<u8>> = [sample(), padded.build().unwrap()]
            .iter()
            .map(|h| {
                let mut bytes = Vec::new();
                write(h, &mut bytes).unwrap();
                bytes
            })
            .collect();
        files.push(b"netD 3 2 4\na0 s\na1\np0 s\na1\n% areas\na0 5\na1 2\n% pads\np0 1\n".to_vec());
        files.extend(corrupt_corpus());
        files
    }

    /// Pieces of the token text: the header keyword, cell names, the
    /// net-start mark, numbers (with `+`, `-`, leading zeros and past
    /// `u64`), section and plain comments, ASCII whitespace and line
    /// endings, and non-ASCII text — Unicode whitespace, a byte-order
    /// mark, a letter.
    const PIECES: &[&str] = &[
        "netD",
        "netD 2 1 2\n",
        "a0",
        "a1",
        "p0",
        "p1",
        "a",
        "x1",
        "s",
        "0",
        "1",
        "2",
        "3",
        "007",
        "+1",
        "-1",
        "18446744073709551616",
        "%",
        "% areas",
        "% pads",
        "%areas",
        "areas",
        "pads",
        "% c",
        " ",
        " ",
        "\t",
        "\n",
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

    /// Bytes an edit writes half of the time: close to the format, plus
    /// the lead bytes of multi-byte UTF-8 and a byte never in UTF-8.
    const EDIT_BYTES: &[u8] = b"0123456789 aps+%\n\r\t\x0b\xc2\xa0\xef\xff";

    #[test]
    fn twins_agree_on_the_corrupt_corpus_and_special_lines() {
        for file in corrupt_corpus() {
            assert_twins_agree(&file);
        }
        for text in [
            "",
            "\n\n",
            "netD 0 0 0\n",
            "netD 1 1 1 extra\na0 s extra\n",
            "% areas\nnetD 1 1 1\na0 s\n",
            "netD 2 1 2\na0 s\na1\n%  areas  \na0 5\na0 6\n",
            "netD 2 1 2\na0 s\np1\n% pads\np1 1\nx9 0\n",
            "netD 2 1 2\na0 s\np1\n% pads extra\np1 1\n",
            "netD 2 1 2\na0 s\np1\n%pads\np1 1\np1 0\n",
            "netD 1 1 2\na0 s\na0\n",
            "netD 1 1 1\r\na0 s\r\n% areas\r\na0 +7\r\n",
            "netD\u{a0}1 1 1\na0\u{3000}s\n%\u{a0}areas\u{85}\na0 3\n",
            "\u{feff}netD 1 1 1\na0 s\n",
            "netD 1 1 1\nb0 s\n",
            "netD 1 1 1\na0 t\n",
            "netD 1 1 1\na0 s\n% areas\na0\n",
            "netD 1 1 1\na0 s\n% areas\na0 x\n",
            "netD 1 1\n",
            "netD 1 1 1\np0 s\n% pads\np0 2\n",
        ] {
            assert_twins_agree(text.as_bytes());
        }
        // Invalid UTF-8 on a pin line, after a bad line, and past the end.
        for bytes in [
            &b"netD 1 1 1\na\xff s\n"[..],
            b"netD 1 1 1\nb0 s\n\xff\n",
            b"netD 1 1 1\na0 s\n\xff\n",
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
