//! MatrixMarket (`.mtx`) coordinate-format I/O.
//!
//! Supports the subset the SuiteSparse collection uses for SpMV studies:
//! `matrix coordinate {real|integer|pattern} {general|symmetric|skew-symmetric}`.
//! Pattern matrices get unit values; symmetric matrices are expanded to full
//! storage (mirroring off-diagonal entries), matching what SpMV codes do
//! before timing.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::path::Path;

use crate::builder::TripletBuilder;
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{MatrixError, Result};
use crate::scalar::Scalar;

/// Value field of the MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmField {
    Real,
    Integer,
    Pattern,
}

/// Symmetry field of the MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MmSymmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

fn parse_err(line: usize, msg: impl Into<String>) -> MatrixError {
    MatrixError::Parse {
        line,
        msg: msg.into(),
    }
}

fn parse_header(line: &str) -> Result<(MmField, MmSymmetry)> {
    let err = |msg: &str| parse_err(1, msg);
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() < 5 || !toks[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(err("expected '%%MatrixMarket matrix coordinate ...'"));
    }
    if !toks[1].eq_ignore_ascii_case("matrix") || !toks[2].eq_ignore_ascii_case("coordinate") {
        return Err(err("only 'matrix coordinate' objects are supported"));
    }
    let field = match toks[3].to_ascii_lowercase().as_str() {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => return Err(err(&format!("unsupported field '{other}'"))),
    };
    let sym = match toks[4].to_ascii_lowercase().as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => return Err(err(&format!("unsupported symmetry '{other}'"))),
    };
    Ok((field, sym))
}

/// Whitespace inside a line: the ASCII members of `char::is_whitespace`
/// other than the line feed, which ends the line.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0B | 0x0C)
}

/// `usize::from_str` by hand: ASCII digits after an optional `+`, with
/// `None` for anything else and on overflow.
fn parse_usize(tok: &str) -> Option<usize> {
    let digits = tok.as_bytes();
    let digits = digits.strip_prefix(b"+").unwrap_or(digits);
    if digits.is_empty() {
        return None;
    }
    let mut n = 0usize;
    for &d in digits {
        let d = d.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(usize::from(d))?;
    }
    Some(n)
}

/// The document as text whose only whitespace is ASCII, so that the byte
/// scan splits tokens exactly where `char::is_whitespace` does: any other
/// whitespace character becomes a space. The text ends before the first
/// line that is not valid UTF-8; the flag records that such a line exists.
fn ascii_spaced(bytes: &[u8]) -> (Cow<'_, str>, bool) {
    let (text, truncated) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, false),
        Err(e) => {
            let cut = bytes[..e.valid_up_to()]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            // Valid by construction: the prefix ends at a line start
            // before the first invalid byte.
            (std::str::from_utf8(&bytes[..cut]).unwrap_or_default(), true)
        }
    };
    if text.is_ascii() {
        return (Cow::Borrowed(text), truncated);
    }
    let spaced = text.replace(|c: char| !c.is_ascii() && c.is_whitespace(), " ");
    (Cow::Owned(spaced), truncated)
}

/// An index-driven cursor over a document, read one line at a time.
struct Scan<'a> {
    text: &'a str,
    /// Whether the document goes on past `text` with a line that is not
    /// valid UTF-8.
    truncated: bool,
    pos: usize,
    /// 1-based number of the current line; 0 before the first.
    line: usize,
}

impl<'a> Scan<'a> {
    /// Enter the next line and skip its leading whitespace. Returns the
    /// line's first byte (`b'\n'` for a blank line), or `None` at the end
    /// of the document. Reaching a line that is not valid UTF-8 is an
    /// I/O error, as it is for a line-by-line reader.
    fn next_line(&mut self) -> Result<Option<u8>> {
        if self.pos >= self.text.len() {
            if self.truncated {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
                .into());
            }
            return Ok(None);
        }
        self.line += 1;
        self.skip_blanks();
        Ok(Some(
            self.text.as_bytes().get(self.pos).copied().unwrap_or(b'\n'),
        ))
    }

    fn skip_blanks(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && is_blank(bytes[self.pos]) {
            self.pos += 1;
        }
    }

    /// Whether the cursor is at the end of a token.
    fn at_token_end(&self) -> bool {
        self.text
            .as_bytes()
            .get(self.pos)
            .is_none_or(|&b| b <= b' ' && (is_blank(b) || b == b'\n'))
    }

    /// The next whitespace-separated token of the current line.
    fn token(&mut self) -> Option<&'a str> {
        self.skip_blanks();
        let start = self.pos;
        while !self.at_token_end() {
            self.pos += 1;
        }
        // Both ends sit at ASCII bytes or the end of the text, so they are
        // character boundaries.
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    /// The next token and its value under [`parse_usize`]: `None` when the
    /// line has no more tokens, `Err(token)` when the token is not a
    /// `usize`. Plain digits, the common case, are parsed as they are
    /// scanned.
    fn usize_token(&mut self) -> Option<std::result::Result<usize, &'a str>> {
        self.skip_blanks();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d) = bytes.get(self.pos).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(u64::from(d));
            self.pos += 1;
        }
        // Up to 19 digits cannot overflow a u64.
        if (1..=19).contains(&(self.pos - start)) && self.at_token_end() {
            if let Ok(n) = usize::try_from(n) {
                return Some(Ok(n));
            }
        }
        self.pos = start;
        let tok = self.token()?;
        Some(parse_usize(tok).ok_or(tok))
    }

    /// The rest of the current line, moving past its end.
    fn rest_of_line(&mut self) -> &'a str {
        let start = self.pos;
        self.pos = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.text.len(), |i| start + i + 1);
        &self.text[start..self.pos]
    }

    fn bytes_left(&self) -> usize {
        self.text.len() - self.pos
    }
}

/// Read a MatrixMarket coordinate matrix from any reader.
pub fn read_matrix_market<T: Scalar, R: Read>(mut reader: R) -> Result<CooMatrix<T>> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    read_matrix_market_csr(&bytes).map(CsrMatrix::into_coo)
}

/// Read a MatrixMarket coordinate matrix straight into CSR, in one scan
/// over the document's bytes.
pub fn read_matrix_market_csr<T: Scalar>(bytes: &[u8]) -> Result<CsrMatrix<T>> {
    let (text, truncated) = ascii_spaced(bytes);
    let mut scan = Scan {
        text: &text,
        truncated,
        pos: 0,
        line: 0,
    };

    let header = loop {
        match scan.next_line()? {
            None => return Err(parse_err(scan.line + 1, "empty file")),
            Some(b'\n') => {
                scan.rest_of_line();
            }
            Some(_) => break scan.rest_of_line(),
        }
    };
    let (field, sym) = parse_header(header)?;

    // Skip comments to the size line.
    loop {
        match scan.next_line()? {
            None => return Err(parse_err(scan.line + 1, "missing size line")),
            Some(b'\n' | b'%') => {
                scan.rest_of_line();
            }
            Some(_) => break,
        }
    }
    let size_line = scan.line;
    let mut dims = [0usize; 3];
    let mut n_dims = 0;
    while let Some(tok) = scan.usize_token() {
        let v = tok.map_err(|tok| parse_err(size_line, format!("bad size token '{tok}'")))?;
        if let Some(d) = dims.get_mut(n_dims) {
            *d = v;
        }
        n_dims += 1;
    }
    scan.rest_of_line();
    if n_dims != 3 {
        return Err(parse_err(size_line, "size line must be 'rows cols nnz'"));
    }
    let [n_rows, n_cols, nnz] = dims;
    // An SpMV study has no use for a matrix with nothing to multiply; a
    // 0×0 or 0-nnz file is far more likely a truncation or generator bug
    // than intent, so reject it here instead of panicking downstream
    // (feature extraction and format conversion assume nnz > 0).
    if n_rows == 0 || n_cols == 0 {
        return Err(parse_err(
            size_line,
            format!("degenerate matrix: {n_rows}x{n_cols} has no cells"),
        ));
    }
    if nnz == 0 {
        return Err(parse_err(
            size_line,
            "degenerate matrix: zero non-zeros declared",
        ));
    }
    if n_rows > u32::MAX as usize || n_cols > u32::MAX as usize {
        return Err(parse_err(
            size_line,
            format!("{n_rows}x{n_cols} exceeds the u32 index range"),
        ));
    }

    // Trust the declared count only as far as the rest of the input could
    // hold it: every entry line but the last takes at least 4 bytes.
    let declared = nnz.min((scan.bytes_left() + 1) / 4);
    let cap = match sym {
        MmSymmetry::General => declared,
        _ => 2 * declared,
    };
    let mut b = TripletBuilder::with_capacity(n_rows, n_cols, cap);
    // Declared coordinates of a symmetric file, for duplicate detection:
    // its mirror pushes may legitimately land on a declared coordinate,
    // so the builder's buckets cannot tell a repeat from a mirror. (The
    // MatrixMarket spec stores each entry once; duplicates silently
    // summing would corrupt the structural features downstream.)
    let mut coords: Vec<(usize, usize)> = match sym {
        MmSymmetry::General => Vec::new(),
        _ => Vec::with_capacity(declared),
    };
    let mut seen = 0usize;
    while let Some(first) = scan.next_line()? {
        if first == b'\n' || first == b'%' {
            scan.rest_of_line();
            continue;
        }
        let line = scan.line;
        let mut index = || -> Result<usize> {
            scan.usize_token()
                .ok_or_else(|| parse_err(line, "truncated entry line"))?
                .map_err(|tok| parse_err(line, format!("bad index '{tok}'")))?
                .checked_sub(1)
                .ok_or_else(|| parse_err(line, "MatrixMarket indices are 1-based"))
        };
        let r = index()?;
        let c = index()?;
        let v = match field {
            MmField::Pattern => T::ONE,
            _ => {
                let tok = scan
                    .token()
                    .ok_or_else(|| parse_err(line, "missing value"))?;
                let f: f64 = tok
                    .parse()
                    .map_err(|_| parse_err(line, format!("bad value '{tok}'")))?;
                if !f.is_finite() {
                    return Err(parse_err(line, format!("non-finite value '{tok}'")));
                }
                T::from_f64(f)
            }
        };
        b.push(r, c, v)?;
        match sym {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric if r != c => b.push(c, r, v)?,
            MmSymmetry::SkewSymmetric if r != c => b.push(c, r, -v)?,
            _ => {}
        }
        if sym != MmSymmetry::General {
            coords.push((r, c));
        }
        seen += 1;
        scan.rest_of_line();
    }
    if seen != nnz {
        return Err(parse_err(
            scan.line,
            format!("header promised {nnz} entries, found {seen}"),
        ));
    }
    let duplicate = |(r, c): (usize, usize)| {
        parse_err(
            scan.line,
            format!("duplicate entry at ({}, {}) (1-based)", r + 1, c + 1),
        )
    };
    let m = match sym {
        MmSymmetry::General => b.build_csr_unique().map_err(duplicate)?,
        _ => {
            coords.sort_unstable();
            if let Some(w) = coords.windows(2).find(|w| w[0] == w[1]) {
                return Err(duplicate(w[0]));
            }
            b.build_csr()
        }
    };
    spmv_observe::counter("matrix.mm.parsed", 1);
    spmv_observe::counter("matrix.mm.entries", seen as u64);
    Ok(m)
}

/// Read a MatrixMarket file from disk.
pub fn read_matrix_market_file<T: Scalar, P: AsRef<Path>>(path: P) -> Result<CooMatrix<T>> {
    read_matrix_market_csr(&std::fs::read(path)?).map(CsrMatrix::into_coo)
}

/// Write a matrix in `general real` coordinate format.
pub fn write_matrix_market<T: Scalar, W: Write>(m: &CooMatrix<T>, writer: W) -> Result<()> {
    let mut w = std::io::BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.n_rows(), m.n_cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v.to_f64())?;
    }
    w.flush()?;
    spmv_observe::counter("matrix.mm.written", 1);
    Ok(())
}

/// Write a MatrixMarket file to disk.
pub fn write_matrix_market_file<T: Scalar, P: AsRef<Path>>(
    m: &CooMatrix<T>,
    path: P,
) -> Result<()> {
    write_matrix_market(m, std::fs::File::create(path)?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 4 3\n\
                   1 1 1.5\n\
                   2 3 -2.0\n\
                   3 4 4e2\n";
        let m: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense()[1][2], -2.0);
        assert_eq!(m.to_dense()[2][3], 400.0);
    }

    #[test]
    fn parse_symmetric_expands() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
                   3 3 3\n\
                   1 1 1.0\n\
                   2 1 2.0\n\
                   3 2 3.0\n";
        let m: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 5); // diagonal stays single
        let d = m.to_dense();
        assert_eq!(d[0][1], 2.0);
        assert_eq!(d[1][0], 2.0);
        assert_eq!(d[1][2], 3.0);
    }

    #[test]
    fn parse_skew_symmetric_negates() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 1\n\
                   2 1 5.0\n";
        let m: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        let d = m.to_dense();
        assert_eq!(d[1][0], 5.0);
        assert_eq!(d[0][1], -5.0);
    }

    #[test]
    fn parse_pattern_gets_unit_values() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 2\n\
                   1 2\n\
                   2 1\n";
        let m: CooMatrix<f32> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.values(), &[1.0, 1.0]);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(read_matrix_market::<f64, _>("".as_bytes()).is_err());
        assert!(read_matrix_market::<f64, _>(
            "%%MatrixMarket matrix array real general\n1 1 1\n".as_bytes()
        )
        .is_err());
        // 0-based index
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(src.as_bytes()).is_err());
        // entry count mismatch
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(src.as_bytes()).is_err());
        // out-of-range coordinate
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(src.as_bytes()).is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let m = CooMatrix::<f64>::from_triplets(3, 3, &[0, 1, 2], &[2, 0, 1], &[1.25, -3.5, 7.0])
            .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back: CooMatrix<f64> = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn integer_field_parses_as_real() {
        let src = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 42\n";
        let m: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.values(), &[42.0]);
    }
}
