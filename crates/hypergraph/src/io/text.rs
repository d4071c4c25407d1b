//! The tokenizer the one-pass readers share. It splits and trims as
//! `str::split_whitespace` and `str::trim` would on the lines of
//! `BufRead::lines`, and reads integers as `str::parse` would, so a
//! reader built on it accepts and rejects what a line-by-line reader
//! does, with the same errors. Lines that are pure ASCII, as real
//! netlists are, skip UTF-8 decoding. Its per-line and per-token
//! functions are `#[inline]`: the readers call them from another module,
//! which release builds may compile apart, and an out-of-line call per
//! token made `.hgr` parsing ~15% slower.

use std::iter::Peekable;
use std::str::SplitWhitespace;

use crate::error::ParseError;

/// The lines of `input` as `BufRead::lines` splits them (line endings
/// included, which are whitespace), numbered from 1.
#[inline]
pub(super) fn lines(input: &[u8]) -> impl Iterator<Item = (&[u8], usize)> {
    input.split_inclusive(|&b| b == b'\n').zip(1usize..)
}

/// One line, line ending included (it is whitespace). A line with a
/// non-ASCII byte is checked to be UTF-8, as `BufRead::lines` checks
/// every line, and is split and trimmed as a `str`.
pub(super) struct Line<'a> {
    bytes: &'a [u8],
    /// The line as text, if it is not pure ASCII.
    unicode: Option<&'a str>,
}

impl<'a> Line<'a> {
    #[inline]
    pub(super) fn new(bytes: &'a [u8]) -> Result<Self, ParseError> {
        let unicode = if bytes.is_ascii() {
            None
        } else {
            let text = std::str::from_utf8(bytes).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            Some(text)
        };
        Ok(Line { bytes, unicode })
    }

    /// The line without leading and trailing whitespace (`str::trim`).
    pub(super) fn trimmed(&self) -> &'a [u8] {
        self.trim(self.bytes)
    }

    /// What follows the `%` of a `%` line, trimmed, or `None` for any
    /// other line.
    pub(super) fn comment(&self) -> Option<&'a [u8]> {
        let rest = self.trimmed().strip_prefix(b"%")?;
        Some(self.trim(rest))
    }

    /// `part` of this line without leading and trailing whitespace
    /// (`str::trim`).
    fn trim(&self, part: &'a [u8]) -> &'a [u8] {
        if self.unicode.is_some() {
            if let Ok(text) = std::str::from_utf8(part) {
                return text.trim().as_bytes();
            }
        }
        let start = part.iter().position(|&b| !is_space(b));
        let end = part.iter().rposition(|&b| !is_space(b));
        match (start, end) {
            (Some(start), Some(end)) => &part[start..=end],
            _ => &[],
        }
    }

    /// The whitespace-separated tokens (`str::split_whitespace`), or
    /// `None` for a blank line or a `%` comment.
    #[inline]
    pub(super) fn content(&self) -> Option<Peekable<Tokens<'a>>> {
        let mut toks = match self.unicode {
            Some(text) => Tokens::Unicode(text.split_whitespace()),
            None => Tokens::Ascii(self.bytes),
        }
        .peekable();
        match toks.peek() {
            Some(first) if !first.text.starts_with(b"%") => Some(toks),
            _ => None,
        }
    }
}

/// A token, and its value when it is 1 to 19 ASCII digits (below 10^19,
/// so the value cannot overflow a `u64`).
#[derive(Clone, Copy)]
pub(super) struct Token<'a> {
    pub(super) text: &'a [u8],
    digits: Option<u64>,
}

impl Token<'_> {
    /// The token as `str::parse` reads an unsigned integer.
    pub(super) fn parse<T: TryFrom<u64>>(self) -> Option<T> {
        match self.digits {
            Some(value) => T::try_from(value).ok(),
            None => parse_uint(self.text),
        }
    }
}

/// The tokens of a [`Line`]: of a pure-ASCII line, split at its
/// whitespace bytes with each token's digits read in the same scan; of
/// any other, split as a `str`.
pub(super) enum Tokens<'a> {
    /// The rest of an ASCII line.
    Ascii(&'a [u8]),
    Unicode(SplitWhitespace<'a>),
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    #[inline]
    fn next(&mut self) -> Option<Token<'a>> {
        match self {
            Tokens::Ascii(rest) => {
                let start = rest.iter().position(|&b| !is_space(b))?;
                let tail = &rest[start..];
                let mut len = 0;
                let mut value = 0u64;
                let mut all_digits = true;
                for &b in tail {
                    if is_space(b) {
                        break;
                    }
                    let digit = b.wrapping_sub(b'0');
                    all_digits &= digit <= 9;
                    value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
                    len += 1;
                }
                *rest = &tail[len..];
                Some(Token {
                    text: &tail[..len],
                    digits: (all_digits && len <= 19).then_some(value),
                })
            }
            Tokens::Unicode(words) => words.next().map(|word| Token {
                text: word.as_bytes(),
                digits: None,
            }),
        }
    }
}

/// The ASCII bytes `char::is_whitespace` accepts: `\t`, `\n`, vertical
/// tab, form feed, `\r` and space.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// A decimal integer as `str::parse` reads it for an unsigned type: an
/// optional `+`, then one or more ASCII digits, in range.
fn parse_uint<T: TryFrom<u64>>(tok: &[u8]) -> Option<T> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    let mut n = 0u64;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    T::try_from(n).ok()
}

/// The unsigned integer `tok` holds, or the syntax error naming `what`.
pub(super) fn parse_field<T: TryFrom<u64>>(
    tok: Option<Token<'_>>,
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    let tok = tok.ok_or_else(|| ParseError::syntax(line, format!("missing {what}")))?;
    tok.parse()
        .ok_or_else(|| ParseError::syntax(line, format!("{what} is not a valid integer")))
}
