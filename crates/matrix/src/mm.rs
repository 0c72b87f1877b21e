//! MatrixMarket (`.mtx`) coordinate-format I/O.
//!
//! Supports the subset the SuiteSparse collection uses for SpMV studies:
//! `matrix coordinate {real|integer|pattern} {general|symmetric|skew-symmetric}`.
//! Pattern matrices get unit values; symmetric matrices are expanded to full
//! storage (mirroring off-diagonal entries), matching what SpMV codes do
//! before timing.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::path::Path;

use crate::builder::{PatternBuilder, TripletBuilder};
use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{MatrixError, Result};
use crate::scalar::Scalar;
use crate::structure::PatternCsr;

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

/// A value token as `str::parse::<f64>` reads it, with the reader's
/// error for a token that is not a number or not finite.
fn parse_value(tok: &str, line: usize) -> Result<f64> {
    let f: f64 = tok
        .parse()
        .map_err(|_| parse_err(line, format!("bad value '{tok}'")))?;
    if !f.is_finite() {
        return Err(parse_err(line, format!("non-finite value '{tok}'")));
    }
    Ok(f)
}

/// What the entry scan makes of a value token: the one place the value
/// route and the structure route differ. Index parsing, whitespace,
/// comment and blank lines, error text and line numbers are one scan.
trait ValueMode {
    /// What an entry carries into its builder.
    type Value: Copy;
    /// The value of a `pattern` entry, which has no value token.
    const UNIT: Self::Value;
    /// Read the value token of the entry on `line`.
    fn read(scan: &mut Scan<'_>, line: usize) -> Result<Self::Value>;
}

/// The value route: convert each value to `T`.
struct Convert<T>(PhantomData<T>);

impl<T: Scalar> ValueMode for Convert<T> {
    type Value = T;
    const UNIT: T = T::ONE;
    fn read(scan: &mut Scan<'_>, line: usize) -> Result<T> {
        scan.value(line).map(T::from_f64)
    }
}

/// The structure route: only tell whether each value is exactly zero
/// (`true`), never converting it.
struct Classify;

impl ValueMode for Classify {
    type Value = bool;
    const UNIT: bool = false;
    fn read(scan: &mut Scan<'_>, line: usize) -> Result<bool> {
        scan.zero_value(line)
    }
}

impl Scan<'_> {
    /// The next token as a 1-based entry index, made 0-based.
    fn index(&mut self, line: usize) -> Result<usize> {
        self.usize_token()
            .ok_or_else(|| parse_err(line, "truncated entry line"))?
            .map_err(|tok| parse_err(line, format!("bad index '{tok}'")))?
            .checked_sub(1)
            .ok_or_else(|| parse_err(line, "MatrixMarket indices are 1-based"))
    }

    /// The next token as a value, under [`parse_value`].
    fn value(&mut self, line: usize) -> Result<f64> {
        let tok = self
            .token()
            .ok_or_else(|| parse_err(line, "missing value"))?;
        parse_value(tok, line)
    }

    /// Whether the next token is a value of exactly zero, with the errors
    /// of [`Scan::value`]. The token is classified while the cursor walks
    /// it; a token [`Scan::classify`] cannot settle is parsed instead.
    fn zero_value(&mut self, line: usize) -> Result<bool> {
        self.skip_blanks();
        let start = self.pos;
        if let Some(zero) = self.classify() {
            return Ok(zero);
        }
        self.pos = start;
        Ok(self.value(line)? == 0.0)
    }

    /// Walk a token of the form `[+-]?d+(.d+)?([eE][+-]?d{1,4})?` that
    /// ends at a token boundary. With no non-zero mantissa digit its value
    /// is zero: `Some(true)`. Otherwise its magnitude lies in
    /// `[10^(m-1), 10^m)`, `m` read off the digit positions; for `m` in
    /// `-298..=300` that is inside `(1e-300, 1e300)`, so `str::parse`
    /// gives a finite non-zero `f64`: `Some(false)`. Any other token is
    /// `None`, with the cursor left anywhere.
    fn classify(&mut self) -> Option<bool> {
        let bytes = self.text.as_bytes();
        let digit = |i: usize| {
            bytes
                .get(i)
                .map(|b| b.wrapping_sub(b'0'))
                .filter(|&d| d <= 9)
        };
        let mut i = self.pos;
        if matches!(bytes.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        // `m` before the exponent: the integer digits from the first
        // non-zero one, or minus the fraction's zeros before it.
        let mut m = 0i64;
        let mut nonzero = false;
        let int_start = i;
        while let Some(d) = digit(i) {
            nonzero |= d != 0;
            m += i64::from(nonzero);
            i += 1;
        }
        if i == int_start {
            return None;
        }
        if bytes.get(i) == Some(&b'.') {
            i += 1;
            // Fractions are the long part of a value; the short parts are
            // faster walked a byte at a time.
            let frac = digit_run(&bytes[i..]);
            if frac.is_empty() {
                return None;
            }
            if !nonzero {
                let zeros = frac.iter().take_while(|&&d| d == b'0').count();
                nonzero = zeros < frac.len();
                m = -(zeros as i64);
            }
            i += frac.len();
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            i += 1;
            let negative = bytes.get(i) == Some(&b'-');
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let exp_start = i;
            let mut exp = 0i64;
            while let Some(d) = digit(i) {
                if i - exp_start == 4 {
                    return None;
                }
                exp = exp * 10 + i64::from(d);
                i += 1;
            }
            if i == exp_start {
                return None;
            }
            m += if negative { -exp } else { exp };
        }
        self.pos = i;
        if !self.at_token_end() {
            return None;
        }
        if !nonzero {
            return Some(true);
        }
        (-298..=300).contains(&m).then_some(false)
    }
}

/// The ASCII digits `bytes` starts with, found eight bytes at a time.
fn digit_run(bytes: &[u8]) -> &[u8] {
    let mut n = 0;
    while let Some(word) = bytes
        .get(n..n + 8)
        .and_then(|w| <[u8; 8]>::try_from(w).ok())
    {
        let x = u64::from_le_bytes(word);
        // A byte's high bit is set if it lies above b'9' (the add) or
        // below b'0' (the subtract). Carries and borrows move only toward
        // later bytes, so the first flagged byte is the first non-digit.
        let non_digit = (x.wrapping_add(0x4646_4646_4646_4646)
            | x.wrapping_sub(0x3030_3030_3030_3030))
            & 0x8080_8080_8080_8080;
        if non_digit != 0 {
            return &bytes[..n + non_digit.trailing_zeros() as usize / 8];
        }
        n += 8;
    }
    let tail = bytes[n..].iter().take_while(|b| b.is_ascii_digit()).count();
    &bytes[..n + tail]
}

/// A document whose header and size line have been read, with the cursor
/// at the first line after the size line.
struct Document<'a> {
    scan: Scan<'a>,
    field: MmField,
    sym: MmSymmetry,
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
}

impl<'a> Document<'a> {
    fn open(text: &'a str, truncated: bool) -> Result<Document<'a>> {
        let mut scan = Scan {
            text,
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
        Ok(Document {
            scan,
            field,
            sym,
            n_rows,
            n_cols,
            nnz,
        })
    }

    /// The declared entry count, trusted only as far as the rest of the
    /// input could hold it: every entry line but the last takes at least
    /// 4 bytes.
    fn declared(&self) -> usize {
        self.nnz.min((self.scan.bytes_left() + 1) / 4)
    }

    /// Read every entry line, handing each `(row, col, value)` to `push`,
    /// then check the count the header promised.
    fn entries<M: ValueMode>(
        &mut self,
        mut push: impl FnMut(usize, usize, M::Value) -> Result<()>,
    ) -> Result<()> {
        let scan = &mut self.scan;
        let mut seen = 0usize;
        while let Some(first) = scan.next_line()? {
            if first == b'\n' || first == b'%' {
                scan.rest_of_line();
                continue;
            }
            let line = scan.line;
            let r = scan.index(line)?;
            let c = scan.index(line)?;
            let v = match self.field {
                MmField::Pattern => M::UNIT,
                _ => M::read(scan, line)?,
            };
            push(r, c, v)?;
            seen += 1;
            scan.rest_of_line();
        }
        if seen != self.nnz {
            return Err(parse_err(
                scan.line,
                format!("header promised {} entries, found {seen}", self.nnz),
            ));
        }
        Ok(())
    }

    /// The error for a coordinate the file gives more than once.
    fn duplicate(&self, (r, c): (usize, usize)) -> MatrixError {
        parse_err(
            self.scan.line,
            format!("duplicate entry at ({}, {}) (1-based)", r + 1, c + 1),
        )
    }
}

/// Open the document in `bytes` and `read` its entries, counting the
/// parse when it succeeds.
fn read_document<O>(bytes: &[u8], read: impl FnOnce(Document<'_>) -> Result<O>) -> Result<O> {
    let (text, truncated) = ascii_spaced(bytes);
    let doc = Document::open(&text, truncated)?;
    let entries = doc.nnz;
    let out = read(doc)?;
    spmv_observe::counter("matrix.mm.parsed", 1);
    spmv_observe::counter("matrix.mm.entries", entries as u64);
    Ok(out)
}

/// The value route: every entry's value converted to `T`, repeated
/// coordinates rejected, symmetric files expanded.
fn read_values<T: Scalar>(mut doc: Document<'_>) -> Result<CsrMatrix<T>> {
    let declared = doc.declared();
    let sym = doc.sym;
    let general = sym == MmSymmetry::General;
    let cap = if general { declared } else { 2 * declared };
    let mut b = TripletBuilder::with_capacity(doc.n_rows, doc.n_cols, cap);
    // Declared coordinates of a symmetric file, for duplicate detection:
    // its mirror pushes may legitimately land on a declared coordinate,
    // so the builder's buckets cannot tell a repeat from a mirror. (The
    // MatrixMarket spec stores each entry once; duplicates silently
    // summing would corrupt the structural features downstream.)
    let mut coords: Vec<(usize, usize)> = if general {
        Vec::new()
    } else {
        Vec::with_capacity(declared)
    };
    doc.entries::<Convert<T>>(|r, c, v| {
        b.push(r, c, v)?;
        match sym {
            MmSymmetry::General => return Ok(()),
            MmSymmetry::Symmetric if r != c => b.push(c, r, v)?,
            MmSymmetry::SkewSymmetric if r != c => b.push(c, r, -v)?,
            _ => {}
        }
        coords.push((r, c));
        Ok(())
    })?;
    if general {
        return b.build_csr_unique().map_err(|rc| doc.duplicate(rc));
    }
    coords.sort_unstable();
    if let Some(w) = coords.windows(2).find(|w| w[0] == w[1]) {
        return Err(doc.duplicate(w[0]));
    }
    Ok(b.build_csr())
}

/// The structure route of a `general` file: each entry pushed with its
/// zero bit, so that a repeat is found before zeros are dropped.
fn read_pattern(mut doc: Document<'_>) -> Result<PatternCsr> {
    let mut b = PatternBuilder::with_capacity(doc.n_rows, doc.n_cols, doc.declared());
    doc.entries::<Classify>(|r, c, zero| b.push(r, c, zero))?;
    b.build_unique().map_err(|rc| doc.duplicate(rc))
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
    read_document(bytes, read_values::<T>)
}

/// Read only the structure of a MatrixMarket coordinate matrix: the row
/// pointers and column indices [`read_matrix_market_csr`]`::<f64>` gives,
/// or its error, in the same scan but without converting a value.
///
/// A value decides the structure in one way only: an entry that is
/// exactly zero is dropped. So a `general` file's value tokens are only
/// classified as zero or non-zero. In a symmetric or skew-symmetric file
/// a declared entry and a mirror can sum to exactly zero, so those files
/// take the value route and keep its structure.
pub fn read_matrix_market_structure(bytes: &[u8]) -> Result<PatternCsr> {
    read_document(bytes, |doc| match doc.sym {
        MmSymmetry::General => read_pattern(doc),
        MmSymmetry::Symmetric | MmSymmetry::SkewSymmetric => {
            read_values::<f64>(doc).map(CsrMatrix::into_pattern)
        }
    })
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
    use crate::structure::CsrStructure;

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

    /// What `str::parse::<f64>` says of a value token: whether it is
    /// zero, or the reader's error for it.
    fn reference_class(tok: &str) -> std::result::Result<bool, String> {
        match tok.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(f == 0.0),
            Ok(_) => Err(format!("parse error at line 1: non-finite value '{tok}'")),
            Err(_) => Err(format!("parse error at line 1: bad value '{tok}'")),
        }
    }

    /// The classifier's answer for `tok` followed by `end`, checked
    /// against [`reference_class`] for both the fast walk and the reader.
    fn check_class(tok: &str, end: &str) {
        let text = format!("{tok}{end}");
        let scan = || Scan {
            text: &text,
            truncated: false,
            pos: 0,
            line: 1,
        };
        let expected = reference_class(tok);
        if let Some(zero) = scan().classify() {
            assert_eq!(Ok(zero), expected, "fast walk of {tok:?}");
        }
        let got = scan().zero_value(1).map_err(|e| e.to_string());
        assert_eq!(got, expected, "{tok:?} then {end:?}");
    }

    /// A value token from `seed`: mostly the fast grammar with magnitudes
    /// near its limits and beyond, sometimes a spelling only `str::parse`
    /// knows, or a stray byte.
    fn value_token(seed: u64) -> String {
        let mut state = seed;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        const SPECIAL: [&str; 24] = [
            "inf",
            "-inf",
            "+Inf",
            "infinity",
            "-Infinity",
            "NaN",
            "nan",
            "-nan",
            ".5",
            "5.",
            "-.5",
            "+.e1",
            "1e",
            "1e+",
            "0x1",
            "1_0",
            "--1",
            "4.9e-324",
            "2e-324",
            "1e-400",
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
            "1.8e308",
            "0e99999",
        ];
        if next(8) == 0 {
            return SPECIAL[next(SPECIAL.len() as u64) as usize].to_string();
        }
        let digits = |next: &mut dyn FnMut(u64) -> u64, n: u64, zeros: bool| -> String {
            (0..n)
                .map(|_| {
                    let d = if zeros && next(2) == 0 { 0 } else { next(10) };
                    char::from(b'0' + d as u8)
                })
                .collect()
        };
        let mut tok = String::from(["", "+", "-"][next(3) as usize]);
        let int_len = [0, 1, 1, 2, 3, 20, 299, 301][next(8) as usize];
        tok += &digits(&mut next, int_len, true);
        if next(2) == 0 {
            tok.push('.');
            let frac_len = [0, 1, 3, 12, 297, 310][next(6) as usize];
            tok += &digits(&mut next, frac_len, true);
        }
        if next(2) == 0 {
            tok.push(if next(2) == 0 { 'e' } else { 'E' });
            tok += ["", "+", "-"][next(3) as usize];
            let exp = [
                0, 1, 9, 297, 298, 299, 300, 301, 307, 308, 309, 323, 324, 325, 9999, 10000,
            ][next(16) as usize];
            match next(6) {
                0 => {}
                1 => tok += &format!("0{exp}"),
                _ => tok += &exp.to_string(),
            }
        }
        if tok.is_empty() {
            // The reader never sees an empty value token.
            tok.push('.');
        }
        if next(16) == 0 {
            let stray = ["x", "_", "\u{e9}", "e", ".", "+", "0"][next(7) as usize];
            if next(2) == 0 {
                tok.insert_str(0, stray);
            } else {
                tok.push_str(stray);
            }
        }
        tok
    }

    #[test]
    fn classifier_agrees_with_str_parse_on_named_tokens() {
        for tok in [
            "0",
            "-0",
            "+0.000",
            "00.00e-7",
            "0e9999",
            "0.0e+99999",
            "1",
            "-2.5",
            "+007",
            "0.5",
            "1e299",
            "1e300",
            "9.99e299",
            "1e-299",
            "1e-300",
            "0.001e-296",
            "123.456e-301",
            "1e308",
            "1e309",
            "4.9e-324",
            "1e-324",
            "1.5e",
            "1.5e+",
            "1.5x",
            "--1",
            "1..2",
            "1.2.3",
            "e5",
            "+",
            "-",
            ".",
            "inf",
            "NaN",
            "1\u{e9}",
        ] {
            for end in ["", " ", "\n", "\t 9", "\r\n"] {
                check_class(tok, end);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        #[test]
        fn classifier_agrees_with_str_parse(seed in 0u64..u64::MAX, end in 0usize..3) {
            check_class(&value_token(seed), ["", " 1", "\n"][end]);
        }
    }

    /// The structure route against the f64 value route: the same row
    /// pointers and column indices, or the same error.
    fn assert_same_structure(src: &str) {
        let values = read_matrix_market_csr::<f64>(src.as_bytes());
        let pattern = read_matrix_market_structure(src.as_bytes());
        match (values, pattern) {
            (Ok(csr), Ok(p)) => assert_eq!(CsrStructure::from(&csr), p.structure(), "{src:?}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{src:?}"),
            (a, b) => panic!("routes disagree on {src:?}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn structure_route_drops_zeros_and_finds_repeats_like_the_value_route() {
        let general = "%%MatrixMarket matrix coordinate real general\n3 3 4\n";
        for src in [
            // An explicit zero, in and out of row-major order.
            format!("{general}1 1 1.5\n2 2 0.0\n2 3 -0e5\n3 1 4\n"),
            format!("{general}3 1 4\n2 3 -0e5\n1 1 1.5\n2 2 0.0\n"),
            // A zero and a non-zero at one coordinate are a repeat.
            format!("{general}1 1 0.0\n1 1 5.0\n2 2 1\n3 3 1\n"),
            format!("{general}2 2 1\n3 3 0\n1 2 3\n3 3 0\n"),
            // A symmetric pair that cancels, and a skew-symmetric one.
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 2\n1 2 -2\n3 3 1\n".into(),
            "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 1.5\n1 2 1.5\n"
                .into(),
            "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n3 3\n1 2\n2 1\n".into(),
            "%%MatrixMarket matrix coordinate integer general\n3 3 3\n1 1 0\n2 2 -7\n3 1 00\n"
                .into(),
            format!("{general}1 1 1\n2 2 nan\n"),
            format!("{general}1 1 1\n4 2 1\n"),
        ] {
            assert_same_structure(&src);
        }
    }

    #[test]
    fn integer_field_parses_as_real() {
        let src = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 42\n";
        let m: CooMatrix<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.values(), &[42.0]);
    }
}
