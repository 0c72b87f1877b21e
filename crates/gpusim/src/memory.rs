//! Warp-level memory-access analysis: coalescing of the `x`-vector gather
//! and a simple capacity/reuse cache model.
//!
//! The dominant irregular traffic in SpMV is the gather `x[col[i]]`. For a
//! warp-wide access, the hardware issues one transaction per distinct
//! cache line touched by the 32 lanes; fully coalesced access costs 1-8
//! transactions, fully scattered costs 32. We count this exactly by walking
//! the column streams in warp-shaped chunks — this is what makes the model
//! sensitive to the *spatial* structure the paper's feature set 3 captures.

use spmv_matrix::EllStructure;

/// Transactions are counted at two granularities simultaneously because one
/// 32-byte sector holds 8 `f32` or 4 `f64` elements.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatherCount {
    /// Warp-access count (number of 32-wide access groups analyzed).
    pub accesses: f64,
    /// Total distinct-line transactions at `f32` granularity.
    pub tx_single: f64,
    /// Total distinct-line transactions at `f64` granularity.
    pub tx_double: f64,
}

impl GatherCount {
    /// Transactions for one precision (`false` = single, `true` = double).
    pub fn tx(&self, double: bool) -> f64 {
        if double {
            self.tx_double
        } else {
            self.tx_single
        }
    }
}

/// Count distinct cache lines touched by each consecutive `warp`-sized chunk
/// of `cols`. `line_bytes` is the transaction granularity, a power of two of
/// at least 8 bytes; elements per line are `line_bytes/4` (f32) and
/// `line_bytes/8` (f64).
///
/// Distinct-line counts are exact integers, so this is equal to
/// [`count_gather_reference`] by construction — the byte-identical artifact
/// invariant rests on that equality, which the property tests pin.
pub fn count_gather(cols: &[u32], warp: usize, line_bytes: usize) -> GatherCount {
    let mut counter = GatherCounter::new(line_bytes);
    counter.stream(cols, warp);
    counter.finish()
}

/// Warp-32 distinct-line count over the padded column-major plane `view`
/// describes, without materialising it: equal to [`count_gather`] over
/// [`spmv_matrix::EllMatrix::col_plane`] (or the HYB head's plane) with
/// warp 32.
///
/// Chunk `j` of the plane covers positions `32j..32j + 32` in column-major
/// order, so a chunk holds 32 consecutive rows at one slot `k`, or, where
/// it crosses the end of a slot, the last rows at `k` and the first rows at
/// `k + 1` (and, with fewer than 32 rows, several slots). A chunk whose
/// rows are all no longer than its slots is pure padding: 32 reads of
/// column 0, one line at each granularity, counted in O(1). Every other
/// chunk gathers its real entries into a stack buffer and goes through the
/// same chunk counter as [`count_gather`], with column 0 standing in for
/// its padding lanes: a distinct-line count does not change when a column
/// repeats.
///
/// Rows are visited in aligned groups of 32. The whole chunks that start
/// in a group read its rows and, when `n_rows` is not a multiple of 32,
/// some of the next group's; running maxima of those 64 row lengths give
/// each chunk's longest row in O(1), and the slots past the longest of
/// all are counted in one step.
pub fn count_gather_ell(view: &EllStructure<'_>, line_bytes: usize) -> GatherCount {
    let mut counter = GatherCounter::new(line_bytes);
    count_plane(view, &mut counter);
    counter.finish()
}

/// Incremental distinct-line counter: feed it warp chunks one at a time
/// and read both granularities' totals at the end.
///
/// One pass per chunk, both granularities fused:
/// * every chunk is scanned without branching: each adjacent pair adds a
///   descent flag and a line transition at each granularity (shifting is
///   monotone, so on a sorted chunk equal lines are adjacent at both
///   granularities at once), and the scan keeps the chunk's smallest
///   column. Full 32-lane chunks take a fixed-width path the compiler
///   unrolls and vectorises.
/// * a chunk with no descent is sorted, and its transitions are its
///   counts. CSR row streams arrive sorted, so this is the per-row hot
///   case.
/// * an unsorted chunk goes through one epoch-stamped open-addressing
///   table on the stack, keyed by the `f32` line (`c >> shift`). The
///   `f64` line is `c >> (shift - 1)`, which splits each `f32` line in
///   two, so each slot holds a 2-bit mask of which halves were touched:
///   the `f32` count is the number of keys and the `f64` count the sum of
///   the masks' popcounts. The table is built lazily, so streams that
///   never need it never pay its setup.
pub(crate) struct GatherCounter {
    /// `log2` of the `f32` elements per line; the `f64` shift is one less.
    shift: u32,
    accesses: u64,
    tx_single: u64,
    tx_double: u64,
    table: Option<LineTable>,
}

impl GatherCounter {
    /// An empty counter for `line_bytes`-byte transactions (a power of two
    /// holding at least one `f64`).
    pub(crate) fn new(line_bytes: usize) -> GatherCounter {
        assert!(
            line_bytes >= 8 && line_bytes.is_power_of_two(),
            "line size must be a power of two of at least 8 bytes, got {line_bytes}"
        );
        GatherCounter {
            shift: (line_bytes / 4).trailing_zeros(),
            accesses: 0,
            tx_single: 0,
            tx_double: 0,
            table: None,
        }
    }

    /// Count each consecutive `warp`-sized chunk of `cols`.
    pub(crate) fn stream(&mut self, cols: &[u32], warp: usize) {
        assert!(
            warp > 0 && warp <= MAX_WARP,
            "warp width {warp} out of range"
        );
        for chunk in cols.chunks(warp) {
            self.chunk(chunk);
        }
    }

    /// Count one warp access: the distinct lines among `chunk`'s lanes
    /// (non-empty, at most 64 lanes).
    #[inline]
    pub(crate) fn chunk(&mut self, chunk: &[u32]) {
        let (single, double, _) = self.distinct(chunk);
        self.add(single, double);
    }

    /// Count one warp access whose lanes read `cols` and, when `padded`,
    /// column 0 in the rest (ELL padding slots). Equal to [`Self::chunk`]
    /// over all the lanes, because a distinct-line count does not depend
    /// on how often or where a column appears.
    pub(crate) fn padded_chunk(&mut self, cols: &[u32], padded: bool) {
        if cols.is_empty() {
            debug_assert!(padded, "a warp access has at least one lane");
            return self.single_line_chunks(1);
        }
        let (mut single, mut double, lo) = self.distinct(cols);
        if padded {
            // Column 0 opens a line of its own unless the smallest
            // column already shares it.
            single += u32::from(lo >> self.shift != 0);
            double += u32::from(lo >> (self.shift - 1) != 0);
        }
        self.add(single, double);
    }

    /// Count `n` warp accesses that each touch exactly one line at both
    /// granularities (an all-padding ELL chunk reads column 0 32 times).
    pub(crate) fn single_line_chunks(&mut self, n: u64) {
        self.accesses += n;
        self.tx_single += n;
        self.tx_double += n;
    }

    /// The totals so far.
    pub(crate) fn finish(&self) -> GatherCount {
        GatherCount {
            accesses: self.accesses as f64,
            tx_single: self.tx_single as f64,
            tx_double: self.tx_double as f64,
        }
    }

    fn add(&mut self, single: u32, double: u32) {
        self.accesses += 1;
        self.tx_single += u64::from(single);
        self.tx_double += u64::from(double);
    }

    /// Distinct `f32` and `f64` lines among `chunk`'s lanes (non-empty,
    /// at most 64), and its smallest column.
    #[inline]
    fn distinct(&mut self, chunk: &[u32]) -> (u32, u32, u32) {
        debug_assert!(!chunk.is_empty() && chunk.len() <= MAX_WARP);
        let shift = self.shift;
        let s = match <&[u32; 32]>::try_from(chunk) {
            Ok(full) => scan(full, shift),
            Err(_) => scan(chunk, shift),
        };
        if s.descents == 0 {
            // The first lane opens one line at each granularity.
            return (1 + s.single, 1 + s.double, s.lo);
        }
        let (single, double) = self
            .table
            .get_or_insert_with(LineTable::new)
            .count(chunk, shift);
        (single, double, s.lo)
    }
}

/// Widest warp chunk a counter accepts (CSR5 tiles go up to 64 lanes).
const MAX_WARP: usize = 64;

/// What one branch-free pass over a chunk learns.
struct Scan {
    /// Adjacent lane pairs whose column decreases.
    descents: u32,
    /// Adjacent pairs on different `f32` lines.
    single: u32,
    /// Adjacent pairs on different `f64` lines.
    double: u32,
    /// Smallest column.
    lo: u32,
}

/// Branch-free scan of one chunk: descents between adjacent lanes, line
/// transitions at the `f32` (`shift`) and `f64` (`shift - 1`)
/// granularities, and the smallest column. Generic so a `[u32; 32]` gets a
/// fixed-width loop.
#[inline(always)]
fn scan<C: AsRef<[u32]> + ?Sized>(chunk: &C, shift: u32) -> Scan {
    let c = chunk.as_ref();
    let mut s = Scan {
        descents: 0,
        single: 0,
        double: 0,
        lo: c[0],
    };
    for (&a, &b) in c.iter().zip(&c[1..]) {
        s.descents += u32::from(b < a);
        let diff = a ^ b;
        s.single += u32::from(diff >> shift != 0);
        s.double += u32::from(diff >> (shift - 1) != 0);
        s.lo = s.lo.min(b);
    }
    s
}

/// Table capacity: twice the 64-lane chunk maximum, so the load factor
/// stays ≤ 0.5 and linear probing terminates in O(1) expected probes.
const TABLE_SLOTS: usize = 128;

/// Stack-allocated epoch-stamped hash table for exact distinct-line
/// counting on unsorted chunks. A slot is live only when its stamp matches
/// the current epoch, so "clearing" between chunks is a single counter
/// bump, not a memset.
struct LineTable {
    /// `f32` line of each live slot.
    keys: [u32; TABLE_SLOTS],
    stamps: [u32; TABLE_SLOTS],
    /// Which of the key's two `f64` lines were touched (bit 0: even, bit
    /// 1: odd).
    halves: [u8; TABLE_SLOTS],
    epoch: u32,
}

impl LineTable {
    fn new() -> LineTable {
        LineTable {
            keys: [0; TABLE_SLOTS],
            stamps: [0; TABLE_SLOTS],
            halves: [0; TABLE_SLOTS],
            epoch: 0,
        }
    }

    /// Exact distinct line counts at the `f32` and `f64` granularities
    /// over one ≤64-lane chunk. The `f64` count is the sum of the live
    /// slots' mask popcounts, tallied as bits are first set.
    fn count(&mut self, chunk: &[u32], shift: u32) -> (u32, u32) {
        if self.epoch == u32::MAX {
            // Epoch wrap would resurrect stale stamps; reset (unreachable
            // in practice — one epoch per chunk).
            *self = LineTable::new();
        }
        self.epoch += 1;
        let e = self.epoch;
        let (mut single, mut double) = (0u32, 0u32);
        for &c in chunk {
            let key = c >> shift;
            let half = 1u8 << ((c >> (shift - 1)) & 1);
            // Fibonacci multiplicative hash down to the 7-bit slot index.
            // At most 64 live keys in 128 slots, so an unstamped slot
            // always exists and the probe loop terminates.
            let mut i = (key.wrapping_mul(0x9E37_79B1) >> 25) as usize;
            loop {
                if self.stamps[i] != e {
                    self.stamps[i] = e;
                    self.keys[i] = key;
                    self.halves[i] = half;
                    single += 1;
                    double += 1;
                    break;
                }
                if self.keys[i] == key {
                    // Store only a new half: a run of one column would
                    // otherwise chain every lane through this slot.
                    if self.halves[i] & half == 0 {
                        self.halves[i] |= half;
                        double += 1;
                    }
                    break;
                }
                i = (i + 1) % TABLE_SLOTS;
            }
        }
        (single, double)
    }
}

/// Lanes per warp access of the ELL kernel.
const ELL_WARP: usize = 32;

/// Stored entries of row `r` of the plane's CSR rows.
#[inline]
fn row_len(view: &EllStructure<'_>, r: usize) -> usize {
    (view.row_ptr[r + 1] - view.row_ptr[r]) as usize
}

/// `out[j]` = the longest row among `rows.start + j..rows.end` when
/// `from_end`, else among `rows.start..rows.start + j`, for `j` up to 32;
/// rows past `n_rows` count as empty.
fn running_max(
    view: &EllStructure<'_>,
    rows: std::ops::Range<usize>,
    from_end: bool,
) -> [usize; ELL_WARP + 1] {
    let len = |r: usize| if r < view.n_rows { row_len(view, r) } else { 0 };
    let mut out = [0; ELL_WARP + 1];
    for j in 1..=ELL_WARP {
        out[j] = if from_end {
            out[j - 1].max(len(rows.end - j))
        } else {
            out[j - 1].max(len(rows.start + j - 1))
        };
    }
    if from_end {
        out.reverse();
    }
    out
}

/// Count one chunk of `lanes` entries starting at flat position `p`
/// (slot-major: position `k * n_rows + r`), which may cross slots: its
/// real entries, plus column 0 if any lane is padding.
fn gather(view: &EllStructure<'_>, p: usize, lanes: usize, counter: &mut GatherCounter) {
    let mut buf = [0u32; ELL_WARP];
    let (mut k, mut r) = (p / view.n_rows, p % view.n_rows);
    let mut real = 0;
    for _ in 0..lanes {
        if k < row_len(view, r) {
            buf[real] = view.col_idx[view.row_ptr[r] as usize + k];
            real += 1;
        }
        r += 1;
        if r == view.n_rows {
            r = 0;
            k += 1;
        }
    }
    counter.padded_chunk(&buf[..real], real < lanes);
}

/// Feed every warp chunk of the plane `view` describes to `counter`.
fn count_plane(view: &EllStructure<'_>, counter: &mut GatherCounter) {
    let (n, width) = (view.n_rows, view.width);
    let total = n * width;
    if n < ELL_WARP {
        // A chunk spans several slots: gather every one.
        for p in (0..total).step_by(ELL_WARP) {
            gather(view, p, ELL_WARP.min(total - p), counter);
        }
        return;
    }
    // Row offset of slot `k`'s first whole chunk: slot `k` starts at flat
    // position `k * n`, and chunks start at multiples of 32.
    let phase = |k: usize| (k * n).wrapping_neg() % ELL_WARP;
    for g in 0..n / ELL_WARP {
        let first = g * ELL_WARP;
        let mid = first + ELL_WARP;
        // The whole chunk at phase `ph` reads rows `first + ph..mid` and
        // `mid..mid + ph`: the longest of them is `max(own[ph], next[ph])`,
        // and it has a real entry at slot `k` exactly when that maximum
        // exceeds `k`.
        let own = running_max(view, first..mid, true);
        let next = running_max(view, mid..mid + ELL_WARP, false);
        let longest = |ph: usize| own[ph].max(next[ph]);
        let bound = if n % ELL_WARP == 0 {
            own[0]
        } else {
            own[0].max(next[ELL_WARP])
        }
        .min(width);
        let every_slot_whole = n % ELL_WARP == 0 || mid + ELL_WARP <= n;
        if every_slot_whole {
            // Slots at or past `bound` are padding in every window.
            counter.single_line_chunks((width - bound) as u64);
        }
        let slots = if every_slot_whole { bound } else { width };
        for k in 0..slots {
            let ph = phase(k);
            if first + ph + ELL_WARP > n {
                // Runs past the slot's last row: a boundary chunk.
                continue;
            }
            if k < longest(ph) {
                gather(view, k * n + first + ph, ELL_WARP, counter);
            } else {
                counter.single_line_chunks(1);
            }
        }
    }
    if n % ELL_WARP != 0 {
        // Boundary chunks: the chunk holding the start of slot `k` reads
        // the last `32 - ph` rows at slot `k - 1` and the first `ph` rows
        // at slot `k`; at `k == width` it is the plane's short last chunk.
        let tail = running_max(view, n - ELL_WARP..n, true);
        let head = running_max(view, 0..ELL_WARP, false);
        for k in 1..=width {
            let ph = phase(k);
            if ph == 0 {
                continue;
            }
            let lanes = if k < width { ELL_WARP } else { ELL_WARP - ph };
            if tail[ph] < k && (k == width || head[ph] <= k) {
                counter.single_line_chunks(1);
            } else {
                gather(view, k * n - (ELL_WARP - ph), lanes, counter);
            }
        }
    }
}

/// The original two-scan implementation, kept verbatim as the oracle for
/// the one-pass counter's property tests: one O(w²) distinct-count pass
/// per granularity.
#[doc(hidden)]
pub fn count_gather_reference(cols: &[u32], warp: usize, line_bytes: usize) -> GatherCount {
    debug_assert!(warp > 0 && warp <= 64);
    let shift_single = (line_bytes / 4).trailing_zeros();
    let shift_double = (line_bytes / 8).trailing_zeros();
    let mut out = GatherCount::default();
    let mut seen = [0u32; 64];
    for chunk in cols.chunks(warp) {
        out.accesses += 1.0;
        out.tx_single += distinct_after_shift(chunk, shift_single, &mut seen);
        out.tx_double += distinct_after_shift(chunk, shift_double, &mut seen);
    }
    out
}

/// Count distinct values of `c >> shift` in a warp-sized chunk. O(w^2) with
/// w <= 64 and early-exit.
fn distinct_after_shift(chunk: &[u32], shift: u32, seen: &mut [u32; 64]) -> f64 {
    let mut n = 0usize;
    'outer: for &c in chunk {
        let line = c >> shift;
        for &s in seen.iter().take(n) {
            if s == line {
                continue 'outer;
            }
        }
        seen[n] = line;
        n += 1;
    }
    n as f64
}

/// Estimated DRAM traffic (bytes) for the x-vector gather, given the
/// transaction count, the x footprint, and the reuse ratio.
///
/// Model: if the touched footprint fits comfortably in L2, each line is
/// fetched from DRAM once (compulsory misses) and all further transactions
/// hit L2. Otherwise the hit probability decays with the footprint/L2 ratio
/// — a smooth stand-in for reuse-distance analysis that is monotone in the
/// quantities that matter (footprint, reuse, capacity).
pub fn gather_dram_bytes(
    transactions: f64,
    line_bytes: f64,
    x_footprint_bytes: f64,
    l2_bytes: f64,
) -> f64 {
    let total = transactions * line_bytes;
    if total <= 0.0 {
        return 0.0;
    }
    // Compulsory traffic: every distinct x line must arrive once.
    let compulsory = x_footprint_bytes.min(total);
    if x_footprint_bytes <= 0.75 * l2_bytes {
        // Fits: beyond compulsory misses, a small conflict-miss leak.
        compulsory + 0.03 * (total - compulsory).max(0.0)
    } else {
        // Capacity-limited: hit rate shrinks as footprint outgrows L2.
        let hit = (0.75 * l2_bytes / x_footprint_bytes).clamp(0.0, 1.0) * 0.85;
        compulsory.max(total * (1.0 - hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_columns_cost_few_transactions() {
        // 32 consecutive columns at 32B lines: a line holds 8 f32 (32/8 =
        // 4 transactions) or 4 f64 (32/4 = 8 transactions).
        let cols: Vec<u32> = (0..32).collect();
        let g = count_gather(&cols, 32, 32);
        assert_eq!(g.accesses, 1.0);
        assert_eq!(g.tx_single, 4.0); // 32 / 8
        assert_eq!(g.tx_double, 8.0); // 32 / 4
    }

    #[test]
    fn scattered_columns_cost_one_transaction_each() {
        let cols: Vec<u32> = (0..32).map(|i| i * 1000).collect();
        let g = count_gather(&cols, 32, 32);
        assert_eq!(g.tx_single, 32.0);
        assert_eq!(g.tx_double, 32.0);
    }

    #[test]
    fn identical_columns_cost_one_transaction() {
        let cols = vec![77u32; 32];
        let g = count_gather(&cols, 32, 32);
        assert_eq!(g.tx_single, 1.0);
        assert_eq!(g.tx_double, 1.0);
    }

    #[test]
    fn partial_chunks_counted() {
        let cols: Vec<u32> = (0..40).collect();
        let g = count_gather(&cols, 32, 32);
        assert_eq!(g.accesses, 2.0);
        // chunk 1: cols 0..32 -> 4 lines; chunk 2: cols 32..40 -> 1 line.
        assert_eq!(g.tx_single, 5.0);
    }

    #[test]
    fn double_needs_at_least_as_many_transactions() {
        let cols: Vec<u32> = (0..256).map(|i| (i * 37) % 500).collect();
        let g = count_gather(&cols, 32, 32);
        assert!(g.tx_double >= g.tx_single);
    }

    #[test]
    fn one_pass_counter_matches_reference_on_mixed_streams() {
        // Sorted, reverse-sorted, duplicated, and scattered streams across
        // warp widths and both line granularities (the proptest suite
        // fuzzes this further).
        let streams: Vec<Vec<u32>> = vec![
            (0..200).collect(),
            (0..200).rev().collect(),
            vec![7; 130],
            (0..300u64)
                .map(|i| ((i * 2654435761) % 10_000) as u32)
                .collect(),
            vec![],
            vec![42],
        ];
        for cols in &streams {
            for warp in [1usize, 2, 3, 17, 32, 64] {
                for line_bytes in [32usize, 128] {
                    let fast = count_gather(cols, warp, line_bytes);
                    let slow = count_gather_reference(cols, warp, line_bytes);
                    assert_eq!(fast, slow, "warp={warp} line={line_bytes}");
                }
            }
        }
    }

    #[test]
    fn unsorted_chunk_counts_distinct_lines_not_runs() {
        // Lanes alternating between two far-apart lines: a naive
        // adjacent-difference count without sorting would report 32.
        let cols: Vec<u32> = (0..32).map(|i| if i % 2 == 0 { 0 } else { 1000 }).collect();
        let g = count_gather(&cols, 32, 32);
        assert_eq!(g.tx_single, 2.0);
        assert_eq!(g.tx_double, 2.0);
    }

    #[test]
    fn cache_model_fits_in_l2() {
        // Small footprint, heavy reuse: DRAM traffic ~= footprint.
        let bytes = gather_dram_bytes(10_000.0, 32.0, 4_096.0, 1.5e6);
        assert!(bytes < 4096.0 + 0.04 * 10_000.0 * 32.0);
        assert!(bytes >= 4096.0);
    }

    #[test]
    fn cache_model_thrashes_when_oversized() {
        // Footprint 10x L2: most transactions go to DRAM.
        let total = 1e6 * 32.0;
        let bytes = gather_dram_bytes(1e6, 32.0, 15e6, 1.5e6);
        assert!(bytes > 0.8 * total, "bytes = {bytes}, total = {total}");
    }

    #[test]
    fn cache_model_monotone_in_footprint() {
        let t = 1e5;
        let small = gather_dram_bytes(t, 32.0, 1e5, 1.5e6);
        let medium = gather_dram_bytes(t, 32.0, 2e6, 1.5e6);
        let large = gather_dram_bytes(t, 32.0, 2e7, 1.5e6);
        assert!(small <= medium && medium <= large);
    }

    #[test]
    fn zero_transactions_zero_bytes() {
        assert_eq!(gather_dram_bytes(0.0, 32.0, 100.0, 1e6), 0.0);
    }
}
