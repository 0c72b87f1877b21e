//! Adversarial MatrixMarket inputs: every malformed or degenerate file the
//! advisor CLI can be fed must come back as a typed [`MatrixError`] — never
//! a panic. This is the parser row of the fault matrix (ISSUE 2).

use spmv_matrix::{mm, CooMatrix, MatrixError};

fn read(src: &str) -> Result<CooMatrix<f64>, MatrixError> {
    mm::read_matrix_market(src.as_bytes())
}

/// Assert `src` is rejected with a Parse error whose message contains
/// `needle`.
fn rejected(src: &str, needle: &str) {
    match read(src) {
        Err(MatrixError::Parse { msg, .. }) => assert!(
            msg.contains(needle),
            "expected message containing {needle:?}, got {msg:?}"
        ),
        Err(other) => panic!("expected Parse error for {needle:?}, got {other}"),
        Ok(m) => panic!(
            "expected rejection ({needle:?}), got a {}x{} matrix",
            m.n_rows(),
            m.n_cols()
        ),
    }
}

#[test]
fn truncated_header_rejected() {
    rejected("", "empty file");
    rejected("%%MatrixMarket\n", "expected");
    rejected("%%MatrixMarket matrix\n", "expected");
    rejected("%%MatrixMarket matrix coordinate real\n", "expected");
    // Header fine, size line missing entirely.
    rejected(
        "%%MatrixMarket matrix coordinate real general\n% only comments\n",
        "missing size line",
    );
    rejected(
        "%%MatrixMarket matrix coordinate real general\n1 2\n",
        "rows cols nnz",
    );
}

#[test]
fn truncated_entry_list_rejected() {
    // Declared 3 entries, delivered 1.
    rejected(
        "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n",
        "promised 3 entries, found 1",
    );
    // Entry line cut mid-way: indices present, value missing.
    rejected(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
        "missing value",
    );
    // Entry line cut mid-way: one index only.
    rejected(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
        "truncated entry line",
    );
}

#[test]
fn non_finite_values_rejected() {
    for bad in ["NaN", "nan", "inf", "-inf", "Infinity", "1e999"] {
        rejected(
            &format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {bad}\n"),
            "non-finite value",
        );
    }
}

#[test]
fn index_overflow_past_declared_dims_rejected() {
    // 1-based index just past the declared shape.
    let src = "%%MatrixMarket matrix coordinate real general\n4 4 1\n5 1 1.0\n";
    assert!(matches!(
        read(src),
        Err(MatrixError::IndexOutOfBounds { row: 4, .. })
    ));
    let src = "%%MatrixMarket matrix coordinate real general\n4 4 1\n1 5 1.0\n";
    assert!(matches!(
        read(src),
        Err(MatrixError::IndexOutOfBounds { col: 4, .. })
    ));
    // An index too large for usize never panics the parser either.
    rejected(
        "%%MatrixMarket matrix coordinate real general\n4 4 1\n99999999999999999999999999 1 1.0\n",
        "bad index",
    );
}

#[test]
fn declarations_the_input_cannot_back_are_rejected() {
    // 69 bytes declaring 5e9 rows: indices are stored as u32.
    let rows = "%%MatrixMarket matrix coordinate real general\n5000000000 1 1\n1 1 1.0\n";
    assert_eq!(rows.len(), 69);
    rejected(rows, "exceeds the u32 index range");
    rejected(
        "%%MatrixMarket matrix coordinate real general\n1 4294967296 1\n1 1 1.0\n",
        "exceeds the u32 index range",
    );
    // 76 bytes declaring 1e17 entries: nothing is reserved beyond what
    // the remaining bytes could hold, so the count check answers.
    let nnz = "%%MatrixMarket matrix coordinate real general\n1 1 99999999999999999\n1 1 1.0\n";
    assert_eq!(nnz.len(), 76);
    rejected(nnz, "promised 99999999999999999 entries, found 1");
    rejected(
        "%%MatrixMarket matrix coordinate real symmetric\n1 1 18446744073709551615\n1 1 1.0\n",
        "promised 18446744073709551615 entries, found 1",
    );
}

#[test]
fn duplicate_entries_rejected() {
    rejected(
        "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2 2.0\n1 1 5.0\n",
        "duplicate entry at (1, 1)",
    );
    // Duplicates in a pattern file too.
    rejected(
        "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n2 1\n2 1\n",
        "duplicate entry at (2, 1)",
    );
}

#[test]
fn empty_and_zero_shape_matrices_rejected() {
    rejected(
        "%%MatrixMarket matrix coordinate real general\n3 3 0\n",
        "zero non-zeros",
    );
    rejected(
        "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
        "no cells",
    );
    rejected(
        "%%MatrixMarket matrix coordinate real general\n0 5 2\n",
        "no cells",
    );
    rejected(
        "%%MatrixMarket matrix coordinate real general\n5 0 2\n",
        "no cells",
    );
}

#[test]
fn zero_based_and_garbage_tokens_rejected() {
    rejected(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
        "1-based",
    );
    rejected(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\nx y 1.0\n",
        "bad index",
    );
    rejected(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
        "bad value",
    );
    rejected(
        "%%MatrixMarket matrix coordinate real general\na b c\n",
        "bad size token",
    );
}

#[test]
fn valid_inputs_still_parse_after_hardening() {
    let src = "%%MatrixMarket matrix coordinate real general\n\
               % comment survives\n\
               2 3 2\n\
               1 1 1.5\n\
               2 3 -2.5\n";
    let m = read(src).expect("valid file parses");
    assert_eq!(m.shape(), (2, 3));
    assert_eq!(m.nnz(), 2);
    // Symmetric storage is not flagged as duplicate (mirror entries are
    // generated, not declared).
    let sym = "%%MatrixMarket matrix coordinate real symmetric\n\
               3 3 2\n\
               2 1 4.0\n\
               3 3 1.0\n";
    let m = read(sym).expect("symmetric parses");
    assert_eq!(m.nnz(), 3);
}
