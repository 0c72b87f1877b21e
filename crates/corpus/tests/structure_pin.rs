//! Pins the sparsity structure of the Tiny corpus: any change to a
//! generator, the RNG keystream or the triplet builder that moves a single
//! non-zero of any Tiny@20180801 matrix changes this hash.

use spmv_corpus::{CorpusScale, SyntheticSuite};
use spmv_matrix::CsrMatrix;

/// FNV-1a (64-bit) over the shape, `row_ptr` and `col_idx` of every matrix
/// of Tiny@20180801, in suite order, as little-endian bytes. Recorded
/// before the counting-sort builder and the SSE2 ChaCha8 refill landed.
const TINY_20180801_STRUCTURE_FNV: u64 = 0xefbb_7485_4f8f_7dc4;

struct Fnv1a(u64);

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32s(&mut self, words: &[u32]) {
        for w in words {
            self.write(&w.to_le_bytes());
        }
    }
}

#[test]
fn tiny_suite_structure_is_pinned() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 20180801);
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for spec in &suite.specs {
        let m: CsrMatrix<f64> = spec.generate();
        h.write(&(m.n_rows() as u64).to_le_bytes());
        h.write(&(m.n_cols() as u64).to_le_bytes());
        h.write_u32s(m.row_ptr());
        h.write_u32s(m.col_idx());
    }
    assert_eq!(
        h.0, TINY_20180801_STRUCTURE_FNV,
        "structure of Tiny@20180801 moved: got {:#018x}",
        h.0
    );
}
