//! Differential test of the MatrixMarket reader against the line-based
//! reader it replaced, kept here verbatim as the oracle.
//!
//! Valid bodies are mutated in the ways real files differ — line endings,
//! separators (including U+000B, which `char::is_whitespace` counts and
//! `u8::is_ascii_whitespace` does not, and non-ASCII whitespace), blank
//! and comment lines, trailing tokens, index and value forms, duplicates,
//! non-ASCII and invalid UTF-8 lines — and both readers must return a
//! bit-identical matrix or the same error text, line number included.

use std::io::{BufRead, BufReader, Read};

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spmv_matrix::{mm, CooMatrix, CsrStructure, MatrixError, Result, Scalar, TripletBuilder};

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

fn parse_header(line: &str) -> Result<(MmField, MmSymmetry)> {
    let err = |msg: &str| MatrixError::Parse {
        line: 1,
        msg: msg.to_string(),
    };
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

/// Read a MatrixMarket coordinate matrix from any reader.
pub fn read_reference<T: Scalar, R: Read>(reader: R) -> Result<CooMatrix<T>> {
    let mut lines = BufReader::new(reader).lines();
    let mut line_no = 0usize;

    let header = loop {
        line_no += 1;
        match lines.next() {
            Some(l) => {
                let l = l?;
                if !l.trim().is_empty() {
                    break l;
                }
            }
            None => {
                return Err(MatrixError::Parse {
                    line: line_no,
                    msg: "empty file".into(),
                })
            }
        }
    };
    let (field, sym) = parse_header(&header)?;

    // Skip comments to the size line.
    let size_line = loop {
        line_no += 1;
        match lines.next() {
            Some(l) => {
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break l;
            }
            None => {
                return Err(MatrixError::Parse {
                    line: line_no,
                    msg: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>().map_err(|_| MatrixError::Parse {
                line: line_no,
                msg: format!("bad size token '{t}'"),
            })
        })
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(MatrixError::Parse {
            line: line_no,
            msg: "size line must be 'rows cols nnz'".into(),
        });
    }
    let (n_rows, n_cols, nnz) = (dims[0], dims[1], dims[2]);
    // An SpMV study has no use for a matrix with nothing to multiply; a
    // 0×0 or 0-nnz file is far more likely a truncation or generator bug
    // than intent, so reject it here instead of panicking downstream
    // (feature extraction and format conversion assume nnz > 0).
    if n_rows == 0 || n_cols == 0 {
        return Err(MatrixError::Parse {
            line: line_no,
            msg: format!("degenerate matrix: {n_rows}x{n_cols} has no cells"),
        });
    }
    if nnz == 0 {
        return Err(MatrixError::Parse {
            line: line_no,
            msg: "degenerate matrix: zero non-zeros declared".into(),
        });
    }

    let cap = match sym {
        MmSymmetry::General => nnz,
        _ => 2 * nnz,
    };
    let mut b = TripletBuilder::with_capacity(n_rows, n_cols, cap);
    let mut seen = 0usize;
    // Declared coordinates, for duplicate detection (the MatrixMarket spec
    // stores each entry once; duplicates silently summing would corrupt
    // the structural features downstream).
    let mut coords: Vec<(usize, usize)> = Vec::with_capacity(nnz);
    for l in lines {
        line_no += 1;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut toks = t.split_whitespace();
        let parse_idx = |tok: Option<&str>, line: usize| -> Result<usize> {
            let tok = tok.ok_or(MatrixError::Parse {
                line,
                msg: "truncated entry line".into(),
            })?;
            let v: usize = tok.parse().map_err(|_| MatrixError::Parse {
                line,
                msg: format!("bad index '{tok}'"),
            })?;
            if v == 0 {
                return Err(MatrixError::Parse {
                    line,
                    msg: "MatrixMarket indices are 1-based".into(),
                });
            }
            Ok(v - 1)
        };
        let r = parse_idx(toks.next(), line_no)?;
        let c = parse_idx(toks.next(), line_no)?;
        let v = match field {
            MmField::Pattern => T::ONE,
            _ => {
                let tok = toks.next().ok_or(MatrixError::Parse {
                    line: line_no,
                    msg: "missing value".into(),
                })?;
                let f: f64 = tok.parse().map_err(|_| MatrixError::Parse {
                    line: line_no,
                    msg: format!("bad value '{tok}'"),
                })?;
                if !f.is_finite() {
                    return Err(MatrixError::Parse {
                        line: line_no,
                        msg: format!("non-finite value '{tok}'"),
                    });
                }
                T::from_f64(f)
            }
        };
        coords.push((r, c));
        b.push(r, c, v)?;
        match sym {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric if r != c => b.push(c, r, v)?,
            MmSymmetry::SkewSymmetric if r != c => b.push(c, r, -v)?,
            _ => {}
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(MatrixError::Parse {
            line: line_no,
            msg: format!("header promised {nnz} entries, found {seen}"),
        });
    }
    coords.sort_unstable();
    if let Some(w) = coords.windows(2).find(|w| w[0] == w[1]) {
        return Err(MatrixError::Parse {
            line: line_no,
            msg: format!(
                "duplicate entry at ({}, {}) (1-based)",
                w[0].0 + 1,
                w[0].1 + 1
            ),
        });
    }
    spmv_observe::counter("matrix.mm.parsed", 1);
    spmv_observe::counter("matrix.mm.entries", seen as u64);
    Ok(b.build())
}

/// Both readers' results must agree: the same matrix to the bit, or the
/// same error text. The CSR entry point must match the COO one.
fn assert_agree(body: &[u8]) {
    agree::<f64>(body);
    agree::<f32>(body);
    structure_agrees(body);
}

/// The structure reader must give the f64 reader's row pointers and
/// column indices, or the same error text, line number included.
fn structure_agrees(body: &[u8]) {
    let shown = String::from_utf8_lossy(body);
    match (
        mm::read_matrix_market_csr::<f64>(body),
        mm::read_matrix_market_structure(body),
    ) {
        (Ok(csr), Ok(pattern)) => {
            assert_eq!(CsrStructure::from(&csr), pattern.structure(), "{shown:?}")
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{shown:?}"),
        (a, b) => panic!("value and structure readers disagree for {shown:?}: {a:?} vs {b:?}"),
    }
}

fn agree<T: Scalar>(body: &[u8]) {
    let shown = String::from_utf8_lossy(body);
    let old = read_reference::<T, _>(body);
    let new = mm::read_matrix_market::<T, _>(body);
    match (&old, &new) {
        (Ok(a), Ok(b)) => assert_eq!(coo_bits(a), coo_bits(b), "matrices differ for {shown:?}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors differ for {shown:?}"),
        _ => panic!(
            "outcomes differ for {shown:?}: reference {:?}, reader {:?}",
            old.as_ref().map(coo_bits).map_err(ToString::to_string),
            new.as_ref().map(coo_bits).map_err(ToString::to_string),
        ),
    }
    match (new, mm::read_matrix_market_csr::<T>(body)) {
        (Ok(coo), Ok(csr)) => {
            let via_coo = coo.to_csr();
            assert_eq!(via_coo.row_ptr(), csr.row_ptr(), "{shown:?}");
            assert_eq!(via_coo.col_idx(), csr.col_idx(), "{shown:?}");
            assert_eq!(
                value_bits(via_coo.values()),
                value_bits(csr.values()),
                "{shown:?}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{shown:?}"),
        (a, b) => panic!("COO and CSR entry points disagree for {shown:?}: {a:?} vs {b:?}"),
    }
}

type CooBits = (usize, usize, Vec<u32>, Vec<u32>, Vec<u64>);

fn coo_bits<T: Scalar>(m: &CooMatrix<T>) -> CooBits {
    (
        m.n_rows(),
        m.n_cols(),
        m.row_indices().to_vec(),
        m.col_indices().to_vec(),
        value_bits(m.values()),
    )
}

fn value_bits<T: Scalar>(values: &[T]) -> Vec<u64> {
    values.iter().map(|v| v.to_f64().to_bits()).collect()
}

fn pick<'a>(rng: &mut ChaCha8Rng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

const SEPARATORS: [&str; 7] = [" ", " ", " ", "  ", "\t", "\u{0B}", "\u{A0}"];
const VALUES: [&str; 12] = [
    "1.5", "-2", "3", "0.25", "1e-3", "+4.25", ".5", "7.", "-0.0", "0", "0.0", "12",
];
const BAD_VALUES: [&str; 8] = [
    "NaN",
    "inf",
    "-Infinity",
    "1e999",
    "abc",
    "0x1",
    "1_0",
    "--1",
];
const EXTRA_LINES: [&str; 8] = [
    "",
    "   ",
    "\t",
    "% comment",
    "%",
    "  % indented comment",
    "% caf\u{e9} \u{A0}",
    "\u{A0}",
];

/// A 1-based index token, usually plain, sometimes in a form the reader
/// must accept (`+3`, `03`) or reject (`0`, overflow, sign, junk).
fn index_token(rng: &mut ChaCha8Rng, i: usize) -> String {
    match rng.gen_range(0..300) {
        0..=3 => format!("+{i}"),
        4..=5 => format!("0{i}"),
        6 => "0".into(),
        7 => "99999999999999999999999".into(),
        8 => format!("-{i}"),
        9 => format!("{i}x"),
        10 => "+".into(),
        11 => format!("{i}\u{e9}"),
        _ => i.to_string(),
    }
}

/// A valid MatrixMarket body, then mutated.
fn mutated_body(seed: u64) -> Vec<u8> {
    let rng = &mut ChaCha8Rng::seed_from_u64(seed);
    let field = pick(rng, &["real", "real", "integer", "pattern", "Real"]);
    let sym = pick(rng, &["general", "general", "symmetric", "skew-symmetric"]);
    let n_rows = rng.gen_range(1..=6usize);
    let n_cols = if sym != "general" && rng.gen_bool(0.8) {
        n_rows
    } else {
        rng.gen_range(1..=6usize)
    };

    // Distinct coordinates by default; symmetric files mostly declare the
    // lower triangle, but an upper-triangle entry may meet its mirror.
    let mut cells: Vec<(usize, usize)> = (1..=n_rows)
        .flat_map(|r| (1..=n_cols).map(move |c| (r, c)))
        .filter(|&(r, c)| sym == "general" || r >= c || rng.gen_bool(0.15))
        .collect();
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..=i));
    }
    cells.truncate(rng.gen_range(1..=cells.len().min(10)));
    if rng.gen_bool(0.2) {
        let again = cells[rng.gen_range(0..cells.len())];
        cells.push(again);
    }
    if rng.gen_bool(0.05) {
        cells.push((n_rows + 1, 1));
    }
    if rng.gen_bool(0.05) {
        cells.push((1, n_cols + 1));
    }

    let mut lines: Vec<Vec<u8>> = Vec::new();
    let header = if rng.gen_bool(0.03) {
        format!("%%MatrixMarket matrix array {field} {sym}")
    } else if rng.gen_bool(0.03) {
        format!("%%MatrixMarket matrix coordinate {field}")
    } else {
        format!("%%MatrixMarket matrix coordinate {field} {sym}")
    };
    lines.push(header.into_bytes());
    let declared = match rng.gen_range(0..20) {
        0 => cells.len() + 1,
        1 => cells.len() - 1,
        _ => cells.len(),
    };
    let mut size = vec![n_rows.to_string(), n_cols.to_string(), declared.to_string()];
    match rng.gen_range(0..40) {
        0 => size.push("4".into()),
        1 => {
            size.pop();
        }
        2 => size[0] = format!("+{n_rows}"),
        3 => size[1] = "x".into(),
        _ => {}
    }
    lines.push(join(rng, &size).into_bytes());

    for &(r, c) in &cells {
        let mut toks = vec![index_token(rng, r), index_token(rng, c)];
        if field != "pattern" || rng.gen_bool(0.1) {
            toks.push(if rng.gen_bool(0.96) {
                pick(rng, &VALUES).to_string()
            } else {
                pick(rng, &BAD_VALUES).to_string()
            });
        }
        match rng.gen_range(0..80) {
            0 => toks.truncate(1),
            1 => toks.truncate(2),
            2 => toks.push("9".into()),
            3 => toks.push("junk % tail".into()),
            _ => {}
        }
        let mut line = join(rng, &toks);
        if rng.gen_bool(0.1) {
            line.insert_str(0, pick(rng, &SEPARATORS));
        }
        if rng.gen_bool(0.1) {
            line.push_str(pick(rng, &SEPARATORS));
        }
        lines.push(line.into_bytes());
    }

    // Blank and comment lines anywhere after the header (rarely before).
    for _ in 0..rng.gen_range(0..4) {
        let at = if rng.gen_bool(0.02) {
            0
        } else {
            rng.gen_range(1..=lines.len())
        };
        lines.insert(at, pick(rng, &EXTRA_LINES).as_bytes().to_vec());
    }
    if rng.gen_bool(0.1) {
        let at = rng.gen_range(0..=lines.len());
        lines.insert(at, b"% \xff\xfe not UTF-8".to_vec());
    }

    let crlf = rng.gen_bool(0.3);
    let mut body = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        body.extend_from_slice(line);
        if i + 1 < lines.len() || rng.gen_bool(0.7) {
            body.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
        }
    }
    body
}

fn join(rng: &mut ChaCha8Rng, toks: &[String]) -> String {
    let mut line = String::new();
    for (i, tok) in toks.iter().enumerate() {
        if i > 0 {
            line.push_str(pick(rng, &SEPARATORS));
        }
        line.push_str(tok);
    }
    line
}

#[test]
fn named_edge_cases_agree() {
    let h = "%%MatrixMarket matrix coordinate real general";
    for body in [
        String::new(),
        "\n\n".into(),
        h.to_string(),
        format!("{h}\n% only comments\n"),
        format!("{h}\r\n2 2 1\r\n1 1 1.5\r\n"),
        format!("{h}\n2 2 1\n1 1 1.5"),
        format!("{h}\n2\u{0B}2\u{0B}1\n1\u{0B}1\u{0B}1.5\n"),
        format!("{h}\n2\u{A0}2 1\n1\u{2003}1\u{3000}1.5\u{85}\n"),
        format!("{h}\n2 2 1\n+1 +2 1.5 trailing tokens\n"),
        format!("{h}\n2 2 1\n0 1 1.5\n"),
        format!("{h}\n2 2 1\n1 1 0\n"),
        format!("{h}\n2 2 2\n1 1 NaN\n1 2 inf\n"),
        format!("{h}\n3 3 3\n2 2 1\n1 3 2\n2 2 3\n"),
        format!("{h}\n3 3 1\n1 1 1\n1 1 2\n"),
        // Two repeated coordinates: the row-major-first one is reported.
        format!("{h}\n3 3 4\n3 3 1\n3 3 2\n1 2 1\n1 2 5\n"),
        format!("{h}\n2 2 1\n18446744073709551616 1 1\n"),
        format!("{h}\n18446744073709551616 2 1\n1 1 1\n"),
        format!("{h}\n2 2 1\n1\u{e9} 1 1\n"),
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n2 1 1\n1 2 1\n2 1 4\n".into(),
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1\n1 2 1\n".into(),
        "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1\n".into(),
        "%%MatrixMarket matrix coordinate pattern skew-symmetric\n3 3 2\n2 1\n3 3\n".into(),
    ] {
        assert_agree(body.as_bytes());
    }
    let mut bad = format!("{h}\n2 2 1\n1 1 x\n").into_bytes();
    bad.extend_from_slice(b"\xff\n");
    assert_agree(&bad);
    let mut bad = format!("{h}\n2 2 1\n").into_bytes();
    bad.extend_from_slice(b"1 1 1.0 \xff\n");
    assert_agree(&bad);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_bodies_agree_with_the_reference(seed in 0u64..u64::MAX) {
        assert_agree(&mutated_body(seed));
    }
}
