//! Two-dimensional on-die power grid (IR-drop map).
//!
//! The paper's headline architectural claim is that sensor arrays "can be
//! multiplied, so that measures in many points of the CUT are possible" —
//! a PSN *scan chain*. Exercising that requires supply voltages that
//! differ from point to point. [`PowerGrid`] models the on-die grid as a
//! `rows × cols` resistive mesh fed from pad nodes, with a load current
//! per tile; solving the nodal equations gives each tile's local supply.
//!
//! One direct solver serves every caller: a banded sparse Cholesky
//! factorization of the (fixed) conductance matrix ([`GridFactor`],
//! factored **once per grid** and cached).
//!
//! * [`PowerGrid::solve_sparse`] solves one load pattern, and
//!   [`PowerGrid::quasi_static_transient`] and [`PowerGrid::hotspot`]
//!   are built on it;
//! * [`PowerGrid::solve_delta`] / [`PowerGrid::update_delta`] re-solve
//!   from a prior [`GridSolution`] given only the load entries that
//!   changed: the right-hand side is assembled in O(changed loads) and
//!   the forward substitution starts at the first changed node, but the
//!   backward substitution always sweeps the whole band, so a delta
//!   solve costs O(n · band) like a full solve, with a smaller constant;
//! * a [`DeltaBatch`] holds up to [`DELTA_LANES`] delta updates of one
//!   solution planned ahead against a running copy of its loads
//!   ([`PowerGrid::plan_delta`]) and solves them in one pass over the
//!   factor ([`PowerGrid::settle_deltas`], which needs neither the
//!   solution nor the caller's thread); each update then applies in
//!   turn, bit-identical to an [`PowerGrid::update_delta`] chain.
//!
//! One substitution is bound by latency, not by flops: each row needs
//! the row solved just before it. The one-lane kernel therefore
//! schedules the rows so that independent work overlaps (see
//! [`GridFactor`]'s float contract): at best each pass costs ~8 ns per
//! row on a 2-vCPU x86-64 host, whatever the band, against ~17 ns row at
//! a time, and a campaign-shaped delta solve on a 40×40 (1,600-node)
//! grid takes ~45 µs. Eight right-hand sides side by side are
//! independent work by construction: the lane kernel streams `L` once
//! for all of them and runs at the host's vector throughput instead,
//! ~12–15 µs per right-hand side on the same grid.
//!
//! Gauss–Seidel relaxation survives only as the test-side oracle the
//! direct solver is checked against.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::units::{Resistance, Voltage};
//! use psnt_pdn::grid::PowerGrid;
//!
//! // A 4×4 grid fed from the four corners.
//! let grid = PowerGrid::new(4, 4, Voltage::from_v(1.0),
//!     Resistance::from_milliohms(40.0), Resistance::from_milliohms(10.0),
//!     vec![(0, 0), (0, 3), (3, 0), (3, 3)])?;
//! // 100 mA drawn at the centre tiles.
//! let mut loads = vec![0.0; 16];
//! loads[5] = 0.1; loads[6] = 0.1; loads[9] = 0.1; loads[10] = 0.1;
//! let v = grid.solve_sparse(&loads)?;
//! // Centre tiles sag more than the corners next to the pads.
//! assert!(v.voltages()[5] < v.voltages()[0]);
//! # Ok::<(), psnt_pdn::error::PdnError>(())
//! ```

use std::sync::OnceLock;

use psnt_cells::units::{Resistance, Time, Voltage};
use serde::{Deserialize, Serialize};

use crate::error::PdnError;
use crate::waveform::Waveform;

/// Per-grid derived data shared by every solve: the tile adjacency
/// flattened to CSR (offsets + neighbour indices, ordered
/// up/down/left/right to match [`PowerGrid::neighbours`]) plus the pad
/// mask. Built lazily **once per grid** — not once per solve chain — so
/// repeated solves against the same grid perform no per-call setup.
#[derive(Debug, Clone)]
struct GridCache {
    off: Vec<u32>,
    adj: Vec<u32>,
    is_pad: Vec<bool>,
}

/// A banded Cholesky factorization `K = L·Lᵀ` of a grid's conductance
/// matrix.
///
/// Under row-major tile numbering the conductance matrix of a
/// rectangular mesh is banded with semi-bandwidth `cols` (the vertical
/// mesh segment couples tile `i` to tile `i − cols`); Cholesky fill-in
/// stays inside that band, so the factor is stored as a dense band of
/// `n × (band + 1)` entries. Factoring costs `O(n · band²)` once per
/// grid; each subsequent [`PowerGrid::solve_sparse`] is a direct
/// `O(n · band)` substitution pair — ~130 k flops per solve on the
/// 40×40 campaign grid.
///
/// # Float contract
///
/// The substitution kernel is written so LLVM vectorises it: the
/// forward pass sums each row in four fixed partial sums, the
/// backward pass scatters each solved node down its row as an axpy,
/// and both multiply by cached reciprocal diagonals. That reassociates
/// the sums of a textbook row-by-row substitution, so voltages differ
/// from it by float rounding (~1e-15 V on the campaign grid). The
/// program itself is fixed — no runtime dispatch, no thread-dependent
/// order — so equal inputs give bit-equal outputs on every call.
///
/// The kernel's schedule is not part of that program. Each node gets
/// the same float operations, in the same order, as in the
/// row-at-a-time form (every forward row, then every backward row, top
/// down), and Rust neither contracts nor reassociates float operations,
/// so rescheduling changes no bit. The schedule works around two
/// latency bottlenecks:
///
/// * a forward row reads the four `y` values the previous rows have
///   just stored one scalar at a time; loading them back as one vector
///   waits for those stores to retire. The steady forward rows keep
///   the four newest values in registers instead;
/// * a backward row reads and writes the window the previous row's
///   vector stores left shifted by one element. The backward pass
///   takes four rows per sweep: it solves their 4×4 diagonal block,
///   updates the next block's diagonal entries and pivots in registers
///   first, then applies the four rows' updates to each remaining
///   entry in descending-row order, four entries per step, top down.
///
/// The `#[cfg(test)]` row-at-a-time kernel is kept, and the scheduled
/// one is tested against it bit for bit.
///
/// The lane kernel (up to [`DELTA_LANES`] right-hand sides, interleaved
/// node-major, lane-minor) keeps the same program for every lane, so
/// each lane equals the one-lane kernel bit for bit. Only the chunking of
/// a forward row's dot product depends on where the lane's window
/// starts, so:
///
/// * a forward row whose window no lane's `first` clips runs for all
///   lanes at once, one vector of lanes per column; a lane whose window
///   is clipped runs that row alone, and a lane that has not started
///   keeps its entry;
/// * every lane covers every backward row, so the backward pass runs for
///   all lanes at once from the top. It is computed entry by entry: the
///   row-at-a-time pass hands entry `j` the terms of rows
///   `min(j + band, n − 1)` down to `j + 1`, one per row as the rows
///   come down; the lane kernel runs that same chain of subtractions,
///   in that order, from the solved entries above `j`, four entries
///   side by side. Only the solved entry is stored, and the chain form
///   keeps LLVM vectorising across the lanes rather than across the
///   window.
///
/// It is tested against the one-lane kernel and against
/// [`PowerGrid::update_delta`] chains bit for bit.
#[derive(Debug, Clone)]
pub struct GridFactor {
    n: usize,
    /// Semi-bandwidth of `K`: `cols` for a multi-row grid, 1 for a
    /// single-row grid, 0 for the degenerate 1×1 grid.
    band: usize,
    /// Lower band of `L`, row-major: entry `(i, j)` with
    /// `i − band ≤ j ≤ i` lives at `l[i·(band+1) + (j + band − i)]`.
    l: Vec<f64>,
    /// `1 / L[i][i]`, so neither pass divides.
    inv_diag: Vec<f64>,
}

/// Width of the forward pass's partial-sum accumulator: four
/// independent chains per row dot product, which LLVM maps onto one
/// 256-bit vector. Also the number of rows one backward sweep takes.
const LANES: usize = 4;

/// Right-hand sides the lane kernel solves in one pass over the factor:
/// the most delta updates one [`DeltaBatch`] holds.
pub const DELTA_LANES: usize = 8;

/// The node-wise backward error, in units of the f64 unit roundoff
/// `ε`, that [`PowerGrid::kcl_holds`] accepts from a solve or a delta
/// chain.
///
/// Rounding leaves at node `i` a residual made of
///
/// * each delta solve's backward error, at most about
///   `(w + 2)·ε·(|K|·|Δv|)_i` for a factor of semi-bandwidth `w` (a
///   banded Cholesky solve touches `w + 1` terms per row); a cycle's
///   `Δv` is a step of millivolts to tens of millivolts on a volt
///   rail, `|Δv| ≲ 0.05·|v|`, so at the widest band the tests run
///   (`w = 40`, the 40×40 campaign grid) that is at most
///   `2.1·ε·(|K|·|v|)_i`;
/// * one rounding of `v + Δv` per update, at most `ε·(|K|·|v|)_i`.
///
/// So each update adds at most about `3·ε`. The roundings carry no
/// sign bias and add as a random walk, `~3·√n·ε` after `n` updates: 98
/// at the longest chain the tests run (`n = 1,000` cycles on the 40×40
/// grid), where `cargo test --workspace` reads at most 37. A bound of
/// 1,024 leaves 10× margin there and covers random-walk chains of some
/// 10⁵ cycles, while a lane solved 1e-6 off in relative terms leaves
/// `1e-6·|Δb_i|` at every node its loads moved, which reads 10⁵ and
/// more on the 2×2 and 8×8 test chips.
const KCL_ROUNDING: f64 = 1024.0;

/// `Σ a[k]·b[k]` over equal-length slices, accumulated in [`LANES`]
/// fixed partial sums (then the scalar tail) so the loop vectorises.
#[inline(always)]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let (ac, bc) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .fold(0.0, |s, (x, y)| s + x * y);
    let mut acc = [0.0; LANES];
    for (x, y) in ac.zip(bc) {
        for k in 0..LANES {
            acc[k] += x[k] * y[k];
        }
    }
    acc.iter().sum::<f64>() + tail
}

// PDN HOT LOOP START
/// [`dot`] of `a` with lane `r` of `R` interleaved vectors (`b[j·R + r]`
/// is entry `j`), chunk for chunk.
#[inline(always)]
fn dot_lane<const R: usize>(a: &[f64], b: &[f64], r: usize) -> f64 {
    let ac = a.chunks_exact(LANES);
    let body = a.len() - ac.remainder().len();
    let tail = ac
        .remainder()
        .iter()
        .enumerate()
        .fold(0.0, |s, (j, x)| s + x * b[(body + j) * R + r]);
    let mut acc = [0.0; LANES];
    for (c, x) in ac.enumerate() {
        for k in 0..LANES {
            acc[k] += x[k] * b[(c * LANES + k) * R + r];
        }
    }
    acc.iter().sum::<f64>() + tail
}

/// `v[q] − a[0][q]·x[0] − a[1][q]·x[1] − a[2][q]·x[2] − a[3][q]·x[3]`
/// for the first [`LANES`] entries, subtracted left to right: four rows'
/// backward updates of [`LANES`] entries at once.
#[inline(always)]
fn sub4(v: &mut [f64], a: [&[f64]; LANES], x: &[f64; LANES]) {
    let (v, a0, a1, a2, a3) = (
        &mut v[..LANES],
        &a[0][..LANES],
        &a[1][..LANES],
        &a[2][..LANES],
        &a[3][..LANES],
    );
    for q in 0..LANES {
        v[q] = v[q] - a0[q] * x[0] - a1[q] * x[1] - a2[q] * x[2] - a3[q] * x[3];
    }
}
// PDN HOT LOOP END

impl GridFactor {
    /// Number of grid nodes the factorization covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Semi-bandwidth of the factored conductance matrix.
    pub fn bandwidth(&self) -> usize {
        self.band
    }

    /// Solves `K·x = b` in place. `first` is the index of the first
    /// non-zero entry of `b`: the forward substitution `L·y = b` skips
    /// every row and column before it (their `y` is exactly zero). The
    /// backward substitution `Lᵀ·x = y` always covers every node.
    ///
    /// Every node gets exactly the float operations of the
    /// row-at-a-time kernel ([`GridFactor::forward_row`] on every row,
    /// then [`GridFactor::backward_row`] on every row, top down), in the
    /// same order; only the schedule differs, so the result is
    /// bit-identical to it (see the "Float contract" on [`GridFactor`]).
    /// Rows outside the two scheduled patterns run row by row: forward
    /// rows whose window is clipped at `first`, every forward row of a
    /// band that is not a positive multiple of [`LANES`], the backward
    /// rows whose window reaches node 0, and every backward row of a
    /// band below `3·LANES − 1`.
    fn solve_in_place(&self, b: &mut [f64], first: usize) {
        let (n, w) = (self.n, self.band);
        // PDN HOT LOOP START
        let steady = if w >= LANES && w % LANES == 0 {
            (first + w).min(n)
        } else {
            n
        };
        for i in first..steady {
            self.forward_row(b, i, first);
        }
        if steady < n {
            self.forward_steady(b, steady);
        }
        let top = if w >= 3 * LANES - 1 && n >= w + LANES {
            self.backward_blocks(b)
        } else {
            n
        };
        for i in (0..top).rev() {
            self.backward_row(b, i);
        }
        // PDN HOT LOOP END
    }

    // PDN HOT LOOP START
    /// Row `i` of `L` over its sub-diagonal columns `lo..i`.
    #[inline(always)]
    fn row(&self, i: usize, lo: usize) -> &[f64] {
        let (w, stride) = (self.band, self.band + 1);
        &self.l[i * stride + (lo + w - i)..i * stride + w]
    }

    /// Forward row `i`: `y[i]` is one dot product of row `i` of `L`
    /// (contiguous) with the already-solved `y[lo..i]`.
    #[inline(always)]
    fn forward_row(&self, b: &mut [f64], i: usize, first: usize) {
        let lo = i.saturating_sub(self.band).max(first);
        b[i] = (b[i] - dot(self.row(i, lo), &b[lo..i])) * self.inv_diag[i];
    }

    /// Forward rows `from..n`, whose windows `i − band..i` are whole,
    /// for a band that is a positive multiple of [`LANES`]: the
    /// [`dot`] of [`GridFactor::forward_row`] chunk for chunk, except
    /// that its last chunk, the [`LANES`] newest `y` values, comes from
    /// locals that shift once per row. Reloading those values as one
    /// vector from the slice they were just stored to, one scalar at a
    /// time, would stall each row until the stores retire. The dot's
    /// scalar tail is empty, so its fold is the `0.0` added last.
    #[inline(always)]
    fn forward_steady(&self, b: &mut [f64], from: usize) {
        let w = self.band;
        let (mut y0, mut y1, mut y2, mut y3) = (b[from - 4], b[from - 3], b[from - 2], b[from - 1]);
        for i in from..self.n {
            let (head, last) = self.row(i, i - w).split_at(w - LANES);
            let mut acc = [0.0; LANES];
            for (x, y) in head
                .chunks_exact(LANES)
                .zip(b[i - w..i - LANES].chunks_exact(LANES))
            {
                for k in 0..LANES {
                    acc[k] += x[k] * y[k];
                }
            }
            acc[0] += last[0] * y0;
            acc[1] += last[1] * y1;
            acc[2] += last[2] * y2;
            acc[3] += last[3] * y3;
            let tail = 0.0;
            let yi = (b[i] - (acc.iter().sum::<f64>() + tail)) * self.inv_diag[i];
            b[i] = yi;
            (y0, y1, y2, y3) = (y1, y2, y3, yi);
        }
    }

    /// Backward row `i`: once `x[i]` is final, subtract its column of
    /// `Lᵀ` (row `i` of `L`, again contiguous) from the nodes above it.
    #[inline(always)]
    fn backward_row(&self, b: &mut [f64], i: usize) {
        let xi = b[i] * self.inv_diag[i];
        b[i] = xi;
        let lo = i.saturating_sub(self.band);
        for (bj, &lij) in b[lo..i].iter_mut().zip(self.row(i, lo)) {
            *bj -= lij * xi;
        }
    }

    /// The backward rows from the top down, [`LANES`] per
    /// [`GridFactor::backward_block`], while a block's window stays
    /// clear of node 0 (`band ≥ 3·LANES − 1`, `n ≥ band + LANES`).
    /// Returns how many bottom rows are left for the row-by-row sweep.
    /// The two blocks of entries just below a block never leave
    /// registers between blocks; they are stored back at the end.
    #[inline(always)]
    fn backward_blocks(&self, b: &mut [f64]) -> usize {
        let mut top = self.n;
        let mut diag = [b[top - 4], b[top - 3], b[top - 2], b[top - 1]];
        let mut pivots = [b[top - 8], b[top - 7], b[top - 6], b[top - 5]];
        while top >= self.band + LANES {
            (diag, pivots) = self.backward_block(b, top - 1, diag, pivots);
            top -= LANES;
        }
        b[top - LANES..top].copy_from_slice(&diag);
        b[top - 2 * LANES..top - LANES].copy_from_slice(&pivots);
        top
    }

    /// Backward rows `t, t−1, t−2, t−3` in one sweep. Every entry
    /// receives [`GridFactor::backward_row`]'s updates in
    /// descending-row order, as the row-at-a-time sweep applies them:
    ///
    /// 1. the 4×4 diagonal block is solved serially from `diag`, the
    ///    current `b[t−3..=t]`, and stored;
    /// 2. the next block's diagonal entries `t−7..=t−4`, passed in as
    ///    `pivots`, and then its pivots `t−11..=t−8` are updated and
    ///    returned, so the next block's serial solve can start at once;
    /// 3. the rest of the window is updated four entries per step, top
    ///    down, so each step stores exactly the entries the next block
    ///    loads as one; the entries below `t − band` are reached only by
    ///    the lower rows.
    ///
    /// Each window entry is loaded and stored once per block instead of
    /// once per row, and the next block's serial solve starts from
    /// registers, never from a store still in flight.
    #[inline(always)]
    fn backward_block(
        &self,
        b: &mut [f64],
        t: usize,
        diag: [f64; LANES],
        pivots: [f64; LANES],
    ) -> ([f64; LANES], [f64; LANES]) {
        let w = self.band;
        // rows[m] is row t−m of L over columns t−m−w..t−m.
        let rows = [
            self.row(t, t - w),
            self.row(t - 1, t - 1 - w),
            self.row(t - 2, t - 2 - w),
            self.row(t - 3, t - 3 - w),
        ];
        let inv = &self.inv_diag[t + 1 - LANES..=t];
        let mut x = [0.0; LANES];
        for k in 0..LANES {
            let mut s = diag[LANES - 1 - k];
            for m in 0..k {
                s -= rows[m][w + m - k] * x[m];
            }
            x[k] = s * inv[LANES - 1 - k];
        }
        // window[p] is column t + 1 − w − LANES + p.
        let (window, solved) = b[t + 1 - w - LANES..=t].split_at_mut(w);
        solved.copy_from_slice(&[x[3], x[2], x[1], x[0]]);
        // The four rows' coefficients of window[p..p + 4], every row
        // reaching them (p ≥ 3): column p of window sits at index
        // p + m − 3 of rows[m].
        let cols = |p: usize| {
            [
                &rows[0][p - 3..p + 1],
                &rows[1][p - 2..p + 2],
                &rows[2][p - 1..p + 3],
                &rows[3][p..p + 4],
            ]
        };
        let mut next_diag = pivots;
        sub4(&mut next_diag, cols(w - LANES), &x);
        let q = w - 2 * LANES;
        let mut next_pivots = [window[q], window[q + 1], window[q + 2], window[q + 3]];
        sub4(&mut next_pivots, cols(q), &x);
        let mut p = q;
        while p >= 3 + LANES {
            p -= LANES;
            sub4(&mut window[p..p + LANES], cols(p), &x);
        }
        for p in 3..p {
            window[p] = window[p]
                - rows[0][p - 3] * x[0]
                - rows[1][p - 2] * x[1]
                - rows[2][p - 1] * x[2]
                - rows[3][p] * x[3];
        }
        window[2] = window[2] - rows[1][0] * x[1] - rows[2][1] * x[2] - rows[3][2] * x[3];
        window[1] = window[1] - rows[2][0] * x[2] - rows[3][1] * x[3];
        window[0] -= rows[3][0] * x[3];
        (next_diag, next_pivots)
    }

    /// Solves `width` right-hand sides (at most [`DELTA_LANES`]) in one
    /// pass over the factor. They are interleaved node-major,
    /// lane-minor: entry `i` of lane `r` lives at `b[i·width + r]`.
    /// Lane `r < first.len()` is zero before node `first[r]`, as in
    /// [`GridFactor::solve_in_place`], which one lane runs unchanged;
    /// the lanes past `first.len()` must be all zero and stay so. Every
    /// lane gets exactly that kernel's float operations (see the "Float
    /// contract" on [`GridFactor`]).
    fn solve_lanes(&self, b: &mut [f64], width: usize, first: &[usize]) {
        match width {
            1 => self.solve_in_place(b, first[0]),
            2 => self.lanes::<2>(b, first),
            3 => self.lanes::<3>(b, first),
            4 => self.lanes::<4>(b, first),
            5 => self.lanes::<5>(b, first),
            6 => self.lanes::<6>(b, first),
            7 => self.lanes::<7>(b, first),
            8 => self.lanes::<8>(b, first),
            w => panic!("{w} lanes, the kernel takes 1 to {DELTA_LANES}"),
        }
    }

    /// [`GridFactor::solve_lanes`] for `R ≥ 2` lanes.
    ///
    /// Forward: a row runs for all lanes at once where no lane's
    /// `first` clips its window; a lane whose window is clipped gets its
    /// own row, and a lane that has not started keeps its entry, before
    /// the row's lanes are stored together. The all-zero lanes count as
    /// starting at node 0: every row leaves them `0.0`.
    ///
    /// Backward: every lane covers every row, so the pass runs for all
    /// lanes at once from the top, in [`GridFactor::backward_lanes`].
    #[inline(never)]
    fn lanes<const R: usize>(&self, b: &mut [f64], first: &[usize]) {
        let (n, w) = (self.n, self.band);
        let first: [usize; R] = std::array::from_fn(|r| first.get(r).copied().unwrap_or(0));
        let start = first.iter().copied().min().unwrap_or(0);
        // From here on no lane's window is clipped.
        let clipped_end = first.iter().map(|&f| f + w).max().unwrap_or(0).min(n);
        for i in start..clipped_end {
            let lo = i.saturating_sub(w);
            let mut y = if first.iter().any(|&f| f <= lo) {
                self.forward_lanes::<R>(b, i, lo)
            } else {
                [0.0; R]
            };
            for (r, (yr, &f)) in y.iter_mut().zip(&first).enumerate() {
                if f > i {
                    *yr = b[i * R + r];
                } else if f > lo {
                    let row = self.row(i, f);
                    *yr = (b[i * R + r] - dot_lane::<R>(row, &b[f * R..], r)) * self.inv_diag[i];
                }
            }
            b[i * R..(i + 1) * R].copy_from_slice(&y);
        }
        for i in clipped_end.max(start)..n {
            let y = self.forward_lanes::<R>(b, i, i - w);
            b[i * R..(i + 1) * R].copy_from_slice(&y);
        }
        self.backward_lanes::<R>(b);
    }

    /// Forward row `i` of every lane over the window `lo..i`: `R`
    /// [`dot`]s side by side, each lane's partial sums and tail in
    /// [`dot`]'s order.
    #[inline(always)]
    fn forward_lanes<const R: usize>(&self, b: &[f64], i: usize, lo: usize) -> [f64; R] {
        let (xc, (ys, _)) = (
            self.row(i, lo).chunks_exact(LANES),
            b[lo * R..i * R].as_chunks::<R>(),
        );
        let yc = ys.chunks_exact(LANES);
        let mut tail = [0.0; R];
        for (x, y) in xc.remainder().iter().zip(yc.remainder()) {
            for r in 0..R {
                tail[r] += x * y[r];
            }
        }
        let mut acc = [[0.0; R]; LANES];
        for (x, y) in xc.zip(yc) {
            for k in 0..LANES {
                for r in 0..R {
                    acc[k][r] += x[k] * y[k][r];
                }
            }
        }
        let inv = self.inv_diag[i];
        std::array::from_fn(|r| {
            let sum = [acc[0][r], acc[1][r], acc[2][r], acc[3][r]];
            (b[i * R + r] - (sum.iter().sum::<f64>() + tail[r])) * inv
        })
    }

    /// The backward pass of `R` interleaved lanes, entry by entry from
    /// the top. [`GridFactor::backward_row`] subtracts row `i`'s terms
    /// from every entry below it as the rows come down, so entry `j`
    /// receives `L[i][j]·x[i]` for `i = min(j + band, n − 1)` down to
    /// `j + 1`, in that order, before it is scaled. Here entry `j` runs
    /// that chain itself, from the solved `x` above it, in the same
    /// order: the same float operations per lane, with nothing stored
    /// but the solved entry. Entries go four at a time (`band ≥ 4`):
    ///
    /// 1. each of the four chains first takes its rows above the
    ///    others' reach,
    /// 2. then the rows all four reach, side by side, each row's four
    ///    coefficients read as one,
    /// 3. then the rows inside the block, solved in turn from the top.
    ///
    /// The remaining bottom entries (and small bands) run one by one.
    #[inline(always)]
    fn backward_lanes<const R: usize>(&self, b: &mut [f64]) {
        let (n, w) = (self.n, self.band);
        let stride = w + 1;
        let entry = |b: &[f64], i: usize| -> [f64; R] {
            b[i * R..(i + 1) * R].try_into().expect("R entries")
        };
        let mut t = n;
        if w >= LANES {
            while t >= LANES {
                let top = t - 1;
                // s[m] is the chain of entry top − m.
                let mut s: [[f64; R]; LANES] = std::array::from_fn(|m| entry(b, top - m));
                let shared = (top + 1 - LANES + w).min(n - 1);
                for (m, sm) in s.iter_mut().enumerate() {
                    for i in (shared + 1..=(top - m + w).min(n - 1)).rev() {
                        let (xi, lij) = (entry(b, i), self.l[i * stride + (top - m + w - i)]);
                        for r in 0..R {
                            sm[r] -= lij * xi[r];
                        }
                    }
                }
                for i in (top + 1..=shared).rev() {
                    let xi = entry(b, i);
                    // Columns top − 3 ..= top of row i.
                    let at = i * stride + (top + 1 - LANES + w - i);
                    let li = &self.l[at..at + LANES];
                    for (m, sm) in s.iter_mut().enumerate() {
                        for r in 0..R {
                            sm[r] -= li[LANES - 1 - m] * xi[r];
                        }
                    }
                }
                let mut x = [[0.0; R]; LANES];
                for m in 0..LANES {
                    let j = top - m;
                    for (q, xq) in x.iter().enumerate().take(m) {
                        let lij = self.l[(top - q) * stride + (j + w + q - top)];
                        for r in 0..R {
                            s[m][r] -= lij * xq[r];
                        }
                    }
                    let inv = self.inv_diag[j];
                    for r in 0..R {
                        x[m][r] = s[m][r] * inv;
                    }
                    b[j * R..(j + 1) * R].copy_from_slice(&x[m]);
                }
                t -= LANES;
            }
        }
        for j in (0..t).rev() {
            let mut s = entry(b, j);
            for i in (j + 1..=(j + w).min(n - 1)).rev() {
                let (xi, lij) = (entry(b, i), self.l[i * stride + (j + w - i)]);
                for r in 0..R {
                    s[r] -= lij * xi[r];
                }
            }
            let inv = self.inv_diag[j];
            for sr in &mut s {
                *sr *= inv;
            }
            b[j * R..(j + 1) * R].copy_from_slice(&s);
        }
    }
    // PDN HOT LOOP END

    /// The row-at-a-time kernel [`GridFactor::solve_in_place`]
    /// reschedules, verbatim: all forward rows, then all backward rows.
    /// Kept as the bit-exact reference the scheduled kernel is tested
    /// against.
    #[cfg(test)]
    fn solve_in_place_unscheduled(&self, b: &mut [f64], first: usize) {
        let w = self.band;
        let stride = w + 1;
        for i in first..self.n {
            let lo = i.saturating_sub(w).max(first);
            let row = &self.l[i * stride + (lo + w - i)..i * stride + w];
            b[i] = (b[i] - dot(row, &b[lo..i])) * self.inv_diag[i];
        }
        for i in (0..self.n).rev() {
            let xi = b[i] * self.inv_diag[i];
            b[i] = xi;
            let lo = i.saturating_sub(w);
            let row = &self.l[i * stride + (lo + w - i)..i * stride + w];
            for (bj, &lij) in b[lo..i].iter_mut().zip(row) {
                *bj -= lij * xi;
            }
        }
    }

    /// The textbook row-by-row substitution the vectorised kernel
    /// replaced: serial subtract chains in index order. Kept as the
    /// reference the kernel is tested against.
    #[cfg(test)]
    fn solve_in_place_rows(&self, b: &mut [f64], first: usize) {
        let w = self.band;
        let stride = w + 1;
        for i in first..self.n {
            let lo = i.saturating_sub(w);
            let mut s = b[i];
            for (j, &bj) in b.iter().enumerate().take(i).skip(lo) {
                s -= self.l[i * stride + (j + w - i)] * bj;
            }
            b[i] = s / self.l[i * stride + w];
        }
        for i in (0..self.n).rev() {
            let hi = (i + w + 1).min(self.n);
            let mut s = b[i];
            for (j, &bj) in b.iter().enumerate().take(hi).skip(i + 1) {
                s -= self.l[j * stride + (i + w - j)] * bj;
            }
            b[i] = s / self.l[i * stride + w];
        }
    }
}

/// A direct-solver solution: per-tile voltages together with the load
/// vector that produced them, so [`PowerGrid::solve_delta`] can compute
/// the right-hand-side delta from the changed entries alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSolution {
    voltages: Vec<f64>,
    loads: Vec<f64>,
}

impl GridSolution {
    /// Per-tile voltages (volts, row-major).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// The per-tile load currents (amperes) this solution corresponds to.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Consumes the solution, returning the voltage vector.
    pub fn into_voltages(self) -> Vec<f64> {
        self.voltages
    }

    /// The worst (lowest) tile voltage with its tile index — the spatial
    /// IR-drop hotspot of this solution.
    pub fn hotspot(&self) -> (usize, f64) {
        let (idx, &worst) = self
            .voltages
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("grid has at least one tile");
        (idx, worst)
    }
}

/// Delta updates of one [`GridSolution`], planned ahead and solved
/// together: the right-hand sides of up to `width` updates (at most
/// [`DELTA_LANES`]) take one pass over the factor instead of one pass
/// each.
///
/// [`PowerGrid::plan_delta`] writes each update's `Δb` into the next
/// lane, assembled by [`PowerGrid::update_delta`]'s rules against a
/// running copy of the loads the caller keeps, and keeps the loads it
/// leaves in turn; [`PowerGrid::settle_deltas`] solves every planned
/// lane at once, without the solution; and [`DeltaBatch::apply`]
/// brings the solution through the updates one at a time, in plan
/// order. Planning and solving read no voltage, so the next batch can
/// be planned and solved while this one is still being applied. Each applied update leaves the solution
/// bit-identical to an [`PowerGrid::update_delta`] chain over the same
/// changed sets. Once all are applied the batch is empty again and its
/// buffers are reused, so a steady stream of batches allocates nothing.
/// A one-lane batch solves with the single-lane kernel
/// [`PowerGrid::update_delta`] uses.
#[derive(Debug)]
pub struct DeltaBatch {
    /// Lanes per pass: the stride of `rhs`.
    width: usize,
    /// Per lane, the loads its update leaves; applying the update
    /// swaps them into the solution.
    loads: Vec<Vec<f64>>,
    /// Per planned update, its lane if it moved any load.
    updates: Vec<Option<usize>>,
    /// The first changed node of each lane.
    first: Vec<usize>,
    /// `Δb` of every lane, node-major, lane-minor: entry `i` of lane
    /// `r` at `rhs[i·width + r]`; the solved lanes once settled.
    rhs: Vec<f64>,
    /// Updates applied so far.
    applied: usize,
    /// Whether the planned lanes are solved.
    settled: bool,
}

impl DeltaBatch {
    /// An empty batch of `width` lanes.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ width ≤ DELTA_LANES`.
    pub fn new(width: usize) -> DeltaBatch {
        assert!(
            (1..=DELTA_LANES).contains(&width),
            "a batch takes 1 to {DELTA_LANES} lanes, not {width}"
        );
        DeltaBatch {
            width,
            loads: vec![Vec::new(); width],
            updates: Vec::new(),
            first: Vec::new(),
            rhs: Vec::new(),
            applied: 0,
            settled: false,
        }
    }

    /// Lanes per pass.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Updates planned and not yet applied.
    pub(crate) fn pending(&self) -> usize {
        self.updates.len() - self.applied
    }

    /// Applies the oldest pending update to `sol`, the solution the
    /// batch was planned against: if the update moved any load, the
    /// solution takes the loads it leaves and adds its solved lane to
    /// the voltages. Returns whether a load moved, as
    /// [`PowerGrid::update_delta`] does, or `None` when nothing is
    /// pending.
    ///
    /// # Panics
    ///
    /// Panics when the update moved a load and the batch is not
    /// settled.
    pub fn apply(&mut self, sol: &mut GridSolution) -> Option<bool> {
        // PDN HOT LOOP START
        let lane = *self.updates.get(self.applied)?;
        if let Some(r) = lane {
            assert!(self.settled, "settle the batch before applying it");
            std::mem::swap(&mut sol.loads, &mut self.loads[r]);
            if self.width == 1 {
                // One lane is contiguous; this loop vectorises.
                for (v, dv) in sol.voltages.iter_mut().zip(&self.rhs) {
                    *v += dv;
                }
            } else {
                for (v, dv) in sol
                    .voltages
                    .iter_mut()
                    .zip(self.rhs.chunks_exact(self.width))
                {
                    *v += dv[r];
                }
            }
        }
        self.applied += 1;
        if self.applied == self.updates.len() {
            self.updates.clear();
            self.first.clear();
            self.applied = 0;
            self.settled = false;
        }
        // PDN HOT LOOP END
        Some(lane.is_some())
    }
}

/// The `Δb` assembly every delta path shares. Walks `changed` in order
/// against `loads`: a change whose load difference is not zero hands
/// `(node, difference)` to `put` and updates `loads`, so a later
/// duplicate of a node wins; a zero difference (±0 alike) is skipped.
/// Returns the first changed node, or `loads.len()` when no load
/// moved.
#[inline(always)]
fn assemble_delta(
    loads: &mut [f64],
    changed: &[(usize, f64)],
    mut put: impl FnMut(usize, f64),
) -> usize {
    // PDN HOT LOOP START
    let mut first = loads.len();
    for &(node, new_load) in changed {
        let delta = new_load - loads[node];
        if delta != 0.0 {
            put(node, delta);
            loads[node] = new_load;
            first = first.min(node);
        }
    }
    // PDN HOT LOOP END
    first
}

/// A rectangular resistive power grid with pad connections.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerGrid {
    rows: usize,
    cols: usize,
    v_pad: Voltage,
    /// Conductance of each mesh segment between adjacent tiles.
    g_mesh: f64,
    /// Conductance from a pad tile up to the package plane.
    g_pad: f64,
    /// Pad tile indices (row-major).
    pads: Vec<usize>,
    /// Adjacency CSR + pad mask, derived from the config fields above.
    #[serde(skip)]
    cache: OnceLock<GridCache>,
    /// Banded Cholesky factor of the conductance matrix, built on first
    /// [`PowerGrid::factor`] / [`PowerGrid::solve_sparse`] use.
    #[serde(skip)]
    factor: OnceLock<GridFactor>,
}

// The lazy caches are derived state: two grids are equal iff their
// configuration is, regardless of which solves have run on each.
impl PartialEq for PowerGrid {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.v_pad == other.v_pad
            && self.g_mesh == other.g_mesh
            && self.g_pad == other.g_pad
            && self.pads == other.pads
    }
}

impl PowerGrid {
    /// Creates a grid.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for an empty grid,
    /// non-positive resistances or no pads, and [`PdnError::OutOfBounds`]
    /// for pad coordinates outside the grid.
    pub fn new(
        rows: usize,
        cols: usize,
        v_pad: Voltage,
        r_mesh: Resistance,
        r_pad: Resistance,
        pads: Vec<(usize, usize)>,
    ) -> Result<PowerGrid, PdnError> {
        if rows == 0 || cols == 0 {
            return Err(PdnError::InvalidParameter {
                name: "rows/cols",
                reason: "grid must be non-empty".into(),
            });
        }
        if r_mesh.ohms() <= 0.0 || r_pad.ohms() <= 0.0 {
            return Err(PdnError::InvalidParameter {
                name: "r_mesh/r_pad",
                reason: "resistances must be positive".into(),
            });
        }
        if pads.is_empty() {
            return Err(PdnError::InvalidParameter {
                name: "pads",
                reason: "at least one pad connection required".into(),
            });
        }
        let mut pad_idx = Vec::with_capacity(pads.len());
        for (r, c) in pads {
            if r >= rows || c >= cols {
                return Err(PdnError::OutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
            pad_idx.push(r * cols + c);
        }
        pad_idx.sort_unstable();
        pad_idx.dedup();
        Ok(PowerGrid {
            rows,
            cols,
            v_pad,
            g_mesh: 1.0 / r_mesh.ohms(),
            g_pad: 1.0 / r_pad.ohms(),
            pads: pad_idx,
            cache: OnceLock::new(),
            factor: OnceLock::new(),
        })
    }

    /// A square grid with pads on all four corners — the configuration the
    /// scan-chain experiments use.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn corner_fed(
        side: usize,
        v_pad: Voltage,
        r_mesh: Resistance,
        r_pad: Resistance,
    ) -> Result<PowerGrid, PdnError> {
        let last = side.saturating_sub(1);
        PowerGrid::new(
            side,
            side,
            v_pad,
            r_mesh,
            r_pad,
            vec![(0, 0), (0, last), (last, 0), (last, last)],
        )
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// The pad (package-side) voltage.
    pub fn v_pad(&self) -> Voltage {
        self.v_pad
    }

    fn neighbours(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let (r, c) = (idx / self.cols, idx % self.cols);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(idx - self.cols);
        }
        if r + 1 < self.rows {
            out.push(idx + self.cols);
        }
        if c > 0 {
            out.push(idx - 1);
        }
        if c + 1 < self.cols {
            out.push(idx + 1);
        }
        out.into_iter()
    }

    /// The lazily-built adjacency CSR + pad mask. Neighbour order
    /// matches [`PowerGrid::neighbours`] (up, down, left, right) so the
    /// accumulated relaxation sums are bit-identical to the iterator
    /// form.
    fn grid_cache(&self) -> &GridCache {
        self.cache.get_or_init(|| {
            let n = self.tiles();
            let mut off = Vec::with_capacity(n + 1);
            let mut adj = Vec::with_capacity(4 * n);
            off.push(0u32);
            for i in 0..n {
                adj.extend(self.neighbours(i).map(|nb| nb as u32));
                off.push(adj.len() as u32);
            }
            let mut is_pad = vec![false; n];
            for &p in &self.pads {
                is_pad[p] = true;
            }
            GridCache { off, adj, is_pad }
        })
    }

    /// The banded Cholesky factorization of this grid's conductance
    /// matrix, built on first use and cached for the grid's lifetime.
    ///
    /// Construction cannot fail: [`PowerGrid::new`] guarantees positive
    /// mesh/pad conductances and at least one pad, which makes the
    /// conductance matrix symmetric positive definite.
    pub fn factor(&self) -> &GridFactor {
        self.factor.get_or_init(|| {
            let cache = self.grid_cache();
            let n = self.tiles();
            let band = if n == 1 {
                0
            } else if self.rows == 1 {
                1
            } else {
                self.cols
            };
            let stride = band + 1;
            let mut l = vec![0.0; n * stride];
            for i in 0..n {
                let lo = i.saturating_sub(band);
                for j in lo..=i {
                    let mut s = self.k_entry(cache, i, j);
                    for t in lo..j {
                        s -= l[i * stride + (t + band - i)] * l[j * stride + (t + band - j)];
                    }
                    if i == j {
                        assert!(s > 0.0, "conductance matrix not SPD at node {i}");
                        l[i * stride + band] = s.sqrt();
                    } else {
                        l[i * stride + (j + band - i)] = s / l[j * stride + band];
                    }
                }
            }
            let inv_diag = (0..n).map(|i| 1.0 / l[i * stride + band]).collect();
            GridFactor {
                n,
                band,
                l,
                inv_diag,
            }
        })
    }

    /// Entry `(i, j)`, `j ≤ i`, of the conductance matrix `K`: the
    /// diagonal holds each node's total conductance (mesh degree plus
    /// pad tie where present); the sub-diagonals hold `−g_mesh` for the
    /// left and upper mesh neighbours.
    fn k_entry(&self, cache: &GridCache, i: usize, j: usize) -> f64 {
        if i == j {
            let degree = (cache.off[i + 1] - cache.off[i]) as f64;
            let pad = if cache.is_pad[i] { self.g_pad } else { 0.0 };
            return degree * self.g_mesh + pad;
        }
        let left = j + 1 == i && !i.is_multiple_of(self.cols);
        let up = self.rows > 1 && j + self.cols == i;
        if left || up {
            -self.g_mesh
        } else {
            0.0
        }
    }

    /// The Gauss–Seidel/SOR relaxation the direct solver is tested
    /// against: sweeps from the pad voltage everywhere until no node
    /// moves by `1e-12` V.
    #[cfg(test)]
    fn relax(&self, loads: &[f64]) -> Vec<f64> {
        assert_eq!(loads.len(), self.tiles(), "one load per tile");
        let n = self.tiles();
        let vp = self.v_pad.volts();
        let mut v = vec![vp; n];
        let GridCache { off, adj, is_pad } = self.grid_cache();

        const MAX_ITER: usize = 20_000;
        const TOL: f64 = 1e-12;
        const OMEGA: f64 = 1.6; // SOR factor for a 2-D Laplacian

        for _ in 0..MAX_ITER {
            let mut max_delta: f64 = 0.0;
            for i in 0..n {
                let mut g_sum = 0.0;
                let mut rhs = -loads[i];
                for &nb in &adj[off[i] as usize..off[i + 1] as usize] {
                    g_sum += self.g_mesh;
                    rhs += self.g_mesh * v[nb as usize];
                }
                if is_pad[i] {
                    g_sum += self.g_pad;
                    rhs += self.g_pad * vp;
                }
                let v_new = rhs / g_sum;
                let relaxed = v[i] + OMEGA * (v_new - v[i]);
                max_delta = max_delta.max((relaxed - v[i]).abs());
                v[i] = relaxed;
            }
            if max_delta < TOL {
                return v;
            }
        }
        panic!("relaxation did not converge in {MAX_ITER} sweeps");
    }

    /// Solves the DC nodal equations directly through the cached banded
    /// Cholesky factor ([`PowerGrid::factor`]) — no iteration, no
    /// convergence tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when `loads.len()` does
    /// not match the tile count.
    pub fn solve_sparse(&self, loads: &[f64]) -> Result<GridSolution, PdnError> {
        let n = self.tiles();
        if loads.len() != n {
            return Err(PdnError::InvalidParameter {
                name: "loads",
                reason: format!("expected {} tile currents, got {}", n, loads.len()),
            });
        }
        let cache = self.grid_cache();
        let vp = self.v_pad.volts();
        let mut b: Vec<f64> = (0..n)
            .map(|i| {
                let pad = if cache.is_pad[i] {
                    self.g_pad * vp
                } else {
                    0.0
                };
                pad - loads[i]
            })
            .collect();
        self.factor().solve_in_place(&mut b, 0);
        Ok(GridSolution {
            voltages: b,
            loads: loads.to_vec(),
        })
    }

    /// Re-solves from a prior [`GridSolution`] given only the loads that
    /// changed (`(node_index, new_load_amperes)` pairs; later duplicates
    /// win), returning the new solution: a clone of `prior` brought up
    /// to date by [`PowerGrid::update_delta`], which documents the
    /// arithmetic and its cost. An empty or all-unchanged `changed` set
    /// returns a plain clone of `prior`.
    ///
    /// # Errors
    ///
    /// As [`PowerGrid::update_delta`].
    pub fn solve_delta(
        &self,
        prior: &GridSolution,
        changed: &[(usize, f64)],
    ) -> Result<GridSolution, PdnError> {
        let mut next = prior.clone();
        self.update_delta(&mut next, changed)?;
        Ok(next)
    }

    /// Brings `sol` up to date in place with the loads that changed
    /// (`(node_index, new_load_amperes)` pairs; later duplicates win).
    /// The linear system makes this exact up to rounding: the voltage
    /// update is `K⁻¹·Δb` where `Δb` is non-zero only at the changed
    /// nodes. Assembling `Δb` costs O(changed loads) and the forward
    /// substitution starts at the first changed node, but the backward
    /// substitution always sweeps all `n` nodes, so the update costs
    /// O(n · band) — tens of microseconds on the 1,600-node campaign
    /// grid, whichever tiles switched.
    ///
    /// The right-hand side is solved in a buffer local to the call; the
    /// allocation-free per-cycle path is [`DeltaBatch`]. The result is
    /// bit-identical to
    /// [`PowerGrid::solve_delta`] on the same inputs; see
    /// [`GridFactor`] for how both relate to a textbook substitution.
    ///
    /// Returns `false`, leaving `sol` untouched, when no load actually
    /// changed.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when the solution's shape
    /// does not match the grid and [`PdnError::OutOfBounds`] for a
    /// changed node index outside the grid; `sol` is untouched on
    /// error.
    pub fn update_delta(
        &self,
        sol: &mut GridSolution,
        changed: &[(usize, f64)],
    ) -> Result<bool, PdnError> {
        self.check_delta(sol, changed)?;
        let n = self.tiles();
        let mut rhs = vec![0.0; n];
        let first = assemble_delta(&mut sol.loads, changed, |node, delta| rhs[node] -= delta);
        if first == n {
            return Ok(false);
        }
        self.factor().solve_in_place(&mut rhs, first);
        for (v, dv) in sol.voltages.iter_mut().zip(&rhs) {
            *v += dv;
        }
        Ok(true)
    }

    /// The shape and bounds checks of [`PowerGrid::update_delta`].
    fn check_delta(&self, sol: &GridSolution, changed: &[(usize, f64)]) -> Result<(), PdnError> {
        let n = self.tiles();
        if sol.voltages.len() != n || sol.loads.len() != n {
            return Err(PdnError::InvalidParameter {
                name: "prior",
                reason: format!(
                    "expected a {}-tile solution, got {} voltages / {} loads",
                    n,
                    sol.voltages.len(),
                    sol.loads.len()
                ),
            });
        }
        self.check_changed(changed)
    }

    /// Refuses a changed node outside the grid.
    fn check_changed(&self, changed: &[(usize, f64)]) -> Result<(), PdnError> {
        let n = self.tiles();
        if let Some(&(node, _)) = changed.iter().find(|&&(node, _)| node >= n) {
            return Err(PdnError::OutOfBounds {
                row: node / self.cols,
                col: node % self.cols,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(())
    }

    /// Plans the next delta update into `batch`: the loads that
    /// changed, as for [`PowerGrid::update_delta`], taken against
    /// `loads`, with `Δb` written into the next lane. `loads` are the
    /// loads the solution will have once every update planned before
    /// this one is applied (the solution's own, for the first update
    /// after it was last brought up to date), and this brings them
    /// through the update in turn, so a caller plans a run of updates
    /// by passing the same buffer each time. The planner never reads a
    /// voltage, so updates can be planned, and a batch solved, before
    /// the batches planned earlier are applied. An update that moves a
    /// load takes a lane and keeps a copy of the loads it leaves; one
    /// that moves none takes no lane and returns `false`, and applying
    /// it changes nothing.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidParameter`] when `loads` is not one load per
    /// node, the batch is settled with updates still pending or every
    /// lane is taken, and [`PdnError::OutOfBounds`] for a changed node
    /// outside the grid; the batch and `loads` are untouched on error.
    pub fn plan_delta(
        &self,
        batch: &mut DeltaBatch,
        loads: &mut [f64],
        changed: &[(usize, f64)],
    ) -> Result<bool, PdnError> {
        if loads.len() != self.tiles() {
            return Err(PdnError::InvalidParameter {
                name: "loads",
                reason: format!("expected {} node loads, got {}", self.tiles(), loads.len()),
            });
        }
        self.check_changed(changed)?;
        if batch.settled {
            return Err(PdnError::InvalidParameter {
                name: "batch",
                reason: "the batch is settled; apply its pending updates first".into(),
            });
        }
        if batch.first.len() == batch.width {
            return Err(PdnError::InvalidParameter {
                name: "batch",
                reason: format!(
                    "all {} lanes are taken; settle and apply first",
                    batch.width
                ),
            });
        }
        // PDN HOT LOOP START
        let n = self.tiles();
        let DeltaBatch {
            width,
            loads: kept,
            updates,
            first,
            rhs,
            ..
        } = batch;
        if updates.is_empty() {
            rhs.clear();
            rhs.resize(n * *width, 0.0);
        }
        let (width, lane) = (*width, first.len());
        let at = assemble_delta(loads, changed, |node, delta| {
            rhs[node * width + lane] -= delta
        });
        let moved = at < n;
        if moved {
            kept[lane].clear();
            kept[lane].extend_from_slice(loads);
            first.push(at);
        }
        updates.push(moved.then_some(lane));
        // PDN HOT LOOP END
        Ok(moved)
    }

    /// Solves every lane planned into `batch` in one pass over the
    /// factor. The solve reads only the batch and the factor, so it may
    /// run on another thread than the one that owns the solution the
    /// batch applies to. Settling a settled or an empty batch does
    /// nothing.
    pub fn settle_deltas(&self, batch: &mut DeltaBatch) {
        if batch.settled || batch.pending() == 0 {
            return;
        }
        // PDN HOT LOOP START
        if !batch.first.is_empty() {
            self.factor()
                .solve_lanes(&mut batch.rhs, batch.width, &batch.first);
        }
        batch.settled = true;
        // PDN HOT LOOP END
    }

    /// Quasi-static transient: solves the grid at every sample instant of
    /// the per-tile load waveforms (amperes) through the cached factor
    /// ([`PowerGrid::solve_sparse`]) and returns one supply [`Waveform`]
    /// per tile. Valid when the grid's own RC time constants are far
    /// below the waveform time scale — true for on-die resistive meshes
    /// against tens-of-ns PSN.
    ///
    /// When the context carries an observer, the number of grid solves
    /// accumulates in its `pdn.grid_solves` counter; the waveforms are
    /// identical with and without an observer.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for a load/tile mismatch or
    /// a degenerate time range, [`PdnError::Interrupted`] when the
    /// context's supervisor trips, and propagates waveform validation.
    pub fn quasi_static_transient(
        &self,
        ctx: &mut psnt_ctx::RunCtx<'_>,
        loads: &[Waveform],
        start: Time,
        end: Time,
        dt: Time,
    ) -> Result<Vec<Waveform>, PdnError> {
        if loads.len() != self.tiles() {
            return Err(PdnError::InvalidParameter {
                name: "loads",
                reason: format!(
                    "expected {} tile waveforms, got {}",
                    self.tiles(),
                    loads.len()
                ),
            });
        }
        if dt <= Time::ZERO || end <= start {
            return Err(PdnError::InvalidParameter {
                name: "dt/end",
                reason: "need positive dt and end > start".into(),
            });
        }
        let steps = ((end - start) / dt).ceil() as usize;
        let mut per_tile: Vec<Vec<(Time, f64)>> = vec![Vec::with_capacity(steps + 1); self.tiles()];
        // Supervision boundary: one check per solve step, so a trip
        // loses at most one step of work.
        let sup = ctx.supervisor().clone();
        for k in 0..=steps {
            let t = start + dt * k as f64;
            sup.charge_events(1);
            if let Err(reason) = sup.check_at(t.picoseconds()) {
                return Err(PdnError::Interrupted(reason));
            }
            let instantaneous: Vec<f64> = loads.iter().map(|w| w.sample(t)).collect();
            let sol = self.solve_sparse(&instantaneous)?;
            debug_assert!(self.kcl_holds(&sol), "KCL residual at t = {t}");
            for (tile, &vi) in sol.voltages().iter().enumerate() {
                per_tile[tile].push((t, vi));
            }
        }
        if let Some(obs) = ctx.observer() {
            obs.metrics.counter_add("pdn.grid_solves", steps as u64 + 1);
        }
        per_tile.into_iter().map(Waveform::from_points).collect()
    }

    /// Whether `sol` is a state of this grid: one finite voltage and
    /// one finite load per node that satisfy KCL node by node to a
    /// backward error of at most 1,024 unit roundoffs (see
    /// `KCL_ROUNDING`), the bound every solve and delta chain holds to.
    pub fn kcl_holds(&self, sol: &GridSolution) -> bool {
        let (v, loads) = (sol.voltages(), sol.loads());
        v.len() == self.tiles()
            && loads.len() == self.tiles()
            && v.iter().chain(loads).all(|x| x.is_finite())
            && self.kcl_backward_error(v, loads) <= KCL_ROUNDING
    }

    /// The node-wise (Oettli–Prager) backward error of tile voltages
    /// `v` under tile `loads`, in units of the f64 unit roundoff `ε`:
    /// the largest `|K·v − b|_i / (ε · ((|K|·|v|)_i + |b_i|))` over the
    /// nodes. `K·v − b` at a node is the current leaving through the
    /// mesh and the pad tie minus the current the pad injects and the
    /// load draws; the denominator is the size of the terms that sum
    /// to it, so the ratio is what rounding alone can explain. A node
    /// whose terms are all zero counts only if its residual is not.
    fn kcl_backward_error(&self, v: &[f64], loads: &[f64]) -> f64 {
        let GridCache { off, adj, is_pad } = self.grid_cache();
        let vp = self.v_pad.volts();
        let eps = f64::EPSILON / 2.0;
        (0..self.tiles())
            .map(|i| {
                let nbs = &adj[off[i] as usize..off[i + 1] as usize];
                let mut kv: f64 = nbs
                    .iter()
                    .map(|&nb| self.g_mesh * (v[i] - v[nb as usize]))
                    .sum();
                let mut kv_abs: f64 = nbs
                    .iter()
                    .map(|&nb| self.g_mesh * (v[i].abs() + v[nb as usize].abs()))
                    .sum();
                let mut b = -loads[i];
                if is_pad[i] {
                    kv += self.g_pad * v[i];
                    kv_abs += self.g_pad * v[i].abs();
                    b += self.g_pad * vp;
                }
                let residual = (kv - b).abs();
                if residual == 0.0 {
                    0.0
                } else {
                    residual / (eps * (kv_abs + b.abs()))
                }
            })
            .fold(0.0, f64::max)
    }

    /// The infinity-norm KCL residual `‖K·v − b‖∞` (amperes) of tile
    /// voltages `v` under tile `loads`.
    #[cfg(test)]
    fn kcl_residual(&self, v: &[f64], loads: &[f64]) -> f64 {
        let GridCache { off, adj, is_pad } = self.grid_cache();
        let vp = self.v_pad.volts();
        (0..self.tiles())
            .map(|i| {
                let mut kv: f64 = adj[off[i] as usize..off[i + 1] as usize]
                    .iter()
                    .map(|&nb| self.g_mesh * (v[i] - v[nb as usize]))
                    .sum();
                let mut b = -loads[i];
                if is_pad[i] {
                    kv += self.g_pad * v[i];
                    b += self.g_pad * vp;
                }
                (kv - b).abs()
            })
            .fold(0.0, f64::max)
    }

    /// The worst (lowest) tile voltage for a load pattern, with its tile
    /// index — the spatial IR-drop hotspot.
    ///
    /// # Errors
    ///
    /// Propagates [`PowerGrid::solve_sparse`] failures.
    pub fn hotspot(&self, loads: &[f64]) -> Result<(usize, f64), PdnError> {
        Ok(self.solve_sparse(loads)?.hotspot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(side: usize) -> PowerGrid {
        PowerGrid::corner_fed(
            side,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates() {
        let v = Voltage::from_v(1.0);
        let r = Resistance::from_milliohms(40.0);
        assert!(PowerGrid::new(0, 4, v, r, r, vec![(0, 0)]).is_err());
        assert!(PowerGrid::new(4, 4, v, Resistance::from_ohms(0.0), r, vec![(0, 0)]).is_err());
        assert!(PowerGrid::new(4, 4, v, r, r, vec![]).is_err());
        assert!(matches!(
            PowerGrid::new(4, 4, v, r, r, vec![(4, 0)]),
            Err(PdnError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn zero_load_gives_pad_voltage_everywhere() {
        let grid = mk(5);
        let v = grid.solve_sparse(&[0.0; 25]).unwrap().into_voltages();
        for &vi in &v {
            assert!((vi - 1.0).abs() < 1e-9, "{vi}");
        }
    }

    #[test]
    fn wrong_load_length_rejected() {
        let grid = mk(3);
        assert!(grid.solve_sparse(&[0.0; 4]).is_err());
    }

    #[test]
    fn single_tile_grid_is_ohms_law() {
        let grid = PowerGrid::new(
            1,
            1,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
            vec![(0, 0)],
        )
        .unwrap();
        let v = grid.solve_sparse(&[2.0]).unwrap().into_voltages();
        // Only the pad resistance carries the 2 A: drop = 20 mV.
        assert!((v[0] - 0.98).abs() < 1e-9, "{}", v[0]);
    }

    #[test]
    fn centre_load_sags_centre_most() {
        let grid = mk(5);
        let mut loads = vec![0.0; 25];
        loads[12] = 0.5; // centre tile
        let v = grid.solve_sparse(&loads).unwrap().into_voltages();
        let (hot, v_hot) = grid.hotspot(&loads).unwrap();
        assert_eq!(hot, 12);
        assert!(v_hot < v[0]);
        assert!(v_hot < 1.0);
        // Symmetry: the four corners see identical voltages.
        assert!((v[0] - v[4]).abs() < 1e-6);
        assert!((v[0] - v[20]).abs() < 1e-6);
        assert!((v[0] - v[24]).abs() < 1e-6);
    }

    #[test]
    fn current_conservation() {
        // Sum of pad currents equals total load current.
        let grid = mk(4);
        let mut loads = vec![0.01; 16];
        loads[5] = 0.3;
        let v = grid.solve_sparse(&loads).unwrap().into_voltages();
        let g_pad = 1.0 / 0.010;
        let pad_tiles = [0usize, 3, 12, 15];
        let injected: f64 = pad_tiles.iter().map(|&p| g_pad * (1.0 - v[p])).sum();
        let drawn: f64 = loads.iter().sum();
        assert!(
            (injected - drawn).abs() < 1e-6,
            "injected {injected} vs drawn {drawn}"
        );
    }

    #[test]
    fn heavier_load_monotonically_lowers_voltages() {
        let grid = mk(4);
        let light = grid.solve_sparse(&[0.05; 16]).unwrap().into_voltages();
        let heavy = grid.solve_sparse(&[0.10; 16]).unwrap().into_voltages();
        for (l, h) in light.iter().zip(&heavy) {
            assert!(h < l);
        }
    }

    #[test]
    fn quasi_static_transient_tracks_load() {
        let grid = mk(3);
        let ns = Time::from_ns;
        // Tile 4 (centre) ramps its draw; others idle.
        let mut loads = vec![Waveform::constant(0.0); 9];
        loads[4] = Waveform::from_points(vec![(ns(0.0), 0.0), (ns(100.0), 0.4)]).unwrap();
        let waves = grid
            .quasi_static_transient(
                &mut psnt_ctx::RunCtx::serial(),
                &loads,
                Time::ZERO,
                ns(100.0),
                ns(10.0),
            )
            .unwrap();
        assert_eq!(waves.len(), 9);
        // Centre tile droops over time.
        assert!(waves[4].sample(ns(100.0)) < waves[4].sample(ns(0.0)));
        // And droops more than a corner tile at the end.
        assert!(waves[4].sample(ns(100.0)) < waves[0].sample(ns(100.0)));
    }

    #[test]
    fn transient_solve_interrupts_on_cancel_and_sim_budget() {
        use psnt_sup::{CancelToken, Interrupt, RunBudget, Supervisor};
        let grid = mk(2);
        let ns = Time::from_ns;
        let loads = vec![Waveform::constant(0.1); 4];
        // A pre-cancelled token stops before the first step.
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = psnt_ctx::RunCtx::serial()
            .with_supervisor(Supervisor::new(token, RunBudget::unlimited()));
        let err = grid
            .quasi_static_transient(&mut ctx, &loads, Time::ZERO, ns(100.0), ns(10.0))
            .unwrap_err();
        assert_eq!(err, PdnError::Interrupted(Interrupt::Cancelled));
        // A sim-time budget stops the sweep at its horizon.
        let budget = RunBudget::unlimited().sim_time_ps(ns(50.0).picoseconds());
        let mut ctx =
            psnt_ctx::RunCtx::serial().with_supervisor(Supervisor::new(CancelToken::new(), budget));
        let err = grid
            .quasi_static_transient(&mut ctx, &loads, Time::ZERO, ns(100.0), ns(10.0))
            .unwrap_err();
        assert!(
            matches!(err, PdnError::Interrupted(Interrupt::SimTimeBudget { .. })),
            "{err}"
        );
    }

    #[test]
    fn transient_argument_validation() {
        let grid = mk(2);
        let loads = vec![Waveform::constant(0.0); 4];
        assert!(grid
            .quasi_static_transient(
                &mut psnt_ctx::RunCtx::serial(),
                &loads,
                Time::ZERO,
                Time::ZERO,
                Time::from_ns(1.0)
            )
            .is_err());
        assert!(grid
            .quasi_static_transient(
                &mut psnt_ctx::RunCtx::serial(),
                &loads[..2],
                Time::ZERO,
                Time::from_ns(10.0),
                Time::from_ns(1.0)
            )
            .is_err());
    }

    #[test]
    fn grid_reports_its_shape() {
        let grid = mk(3);
        assert_eq!(grid.tiles(), 9);
        assert_eq!(grid.rows(), 3);
        assert_eq!(grid.cols(), 3);
    }

    #[test]
    fn sparse_matches_dense_solver() {
        let grid = mk(8);
        let mut loads = vec![0.01; 64];
        loads[27] = 0.25;
        loads[0] = 0.1;
        loads[63] = 0.05;
        let dense = grid.relax(&loads);
        let sparse = grid.solve_sparse(&loads).unwrap();
        assert_eq!(sparse.loads(), &loads[..]);
        for (i, (d, s)) in dense.iter().zip(sparse.voltages()).enumerate() {
            assert!((d - s).abs() < 1e-9, "tile {i}: dense {d} vs sparse {s}");
        }
    }

    #[test]
    fn sparse_handles_degenerate_grids() {
        // 1×1: Ohm's law through the pad tie only.
        let one = PowerGrid::new(
            1,
            1,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
            vec![(0, 0)],
        )
        .unwrap();
        let sol = one.solve_sparse(&[2.0]).unwrap();
        assert!((sol.voltages()[0] - 0.98).abs() < 1e-12);
        assert_eq!(one.factor().bandwidth(), 0);

        // 1×N row: band collapses to the horizontal neighbour.
        let row = PowerGrid::new(
            1,
            6,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
            vec![(0, 0), (0, 5)],
        )
        .unwrap();
        assert_eq!(row.factor().bandwidth(), 1);
        let loads = [0.0, 0.1, 0.0, 0.2, 0.0, 0.0];
        let dense = row.relax(&loads);
        let sparse = row.solve_sparse(&loads).unwrap();
        for (d, s) in dense.iter().zip(sparse.voltages()) {
            assert!((d - s).abs() < 1e-9);
        }

        // N×1 column: the vertical neighbour is the ±1 offset.
        let col = PowerGrid::new(
            6,
            1,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
            vec![(0, 0)],
        )
        .unwrap();
        assert_eq!(col.factor().bandwidth(), 1);
        let dense = col.relax(&loads);
        let sparse = col.solve_sparse(&loads).unwrap();
        for (d, s) in dense.iter().zip(sparse.voltages()) {
            assert!((d - s).abs() < 1e-9);
        }
    }

    #[test]
    fn delta_solve_matches_fresh_solve() {
        let grid = mk(6);
        let base_loads = vec![0.02; 36];
        let base = grid.solve_sparse(&base_loads).unwrap();
        // Change three scattered tiles (one of them twice: later wins).
        let changed = [(7, 0.3), (20, 0.0), (35, 0.1), (7, 0.25)];
        let next = grid.solve_delta(&base, &changed).unwrap();
        let mut fresh_loads = base_loads.clone();
        fresh_loads[7] = 0.25;
        fresh_loads[20] = 0.0;
        fresh_loads[35] = 0.1;
        assert_eq!(next.loads(), &fresh_loads[..]);
        let fresh = grid.solve_sparse(&fresh_loads).unwrap();
        for (i, (d, f)) in next.voltages().iter().zip(fresh.voltages()).enumerate() {
            assert!((d - f).abs() < 1e-9, "tile {i}: delta {d} vs fresh {f}");
        }
    }

    #[test]
    fn delta_solve_chain_stays_accurate() {
        // A 100-step chain of single-tile changes accumulates no
        // meaningful drift versus solving each pattern from scratch.
        let grid = mk(5);
        let mut sol = grid.solve_sparse(&[0.0; 25]).unwrap();
        for step in 0..100usize {
            let node = (step * 7) % 25;
            let load = 0.05 + 0.001 * step as f64;
            sol = grid.solve_delta(&sol, &[(node, load)]).unwrap();
        }
        let fresh = grid.solve_sparse(sol.loads()).unwrap();
        for (c, f) in sol.voltages().iter().zip(fresh.voltages()) {
            assert!((c - f).abs() < 1e-9);
        }
    }

    #[test]
    fn delta_solve_noop_returns_prior() {
        let grid = mk(4);
        let base = grid.solve_sparse(&[0.05; 16]).unwrap();
        let same = grid.solve_delta(&base, &[]).unwrap();
        assert_eq!(base, same);
        let unchanged = grid.solve_delta(&base, &[(3, 0.05)]).unwrap();
        assert_eq!(base, unchanged);
        // In place, a no-op reports `false` and leaves the solution be.
        let mut sol = base.clone();
        assert!(!grid.update_delta(&mut sol, &[]).unwrap());
        assert!(!grid.update_delta(&mut sol, &[(3, 0.05)]).unwrap());
        assert_eq!(sol, base);
        assert!(grid.update_delta(&mut sol, &[(2, 0.2)]).unwrap());
        assert_eq!(sol.loads()[2], 0.2);
    }

    #[test]
    fn delta_solve_validates() {
        let grid = mk(4);
        let base = grid.solve_sparse(&[0.0; 16]).unwrap();
        assert!(matches!(
            grid.solve_delta(&base, &[(16, 0.1)]),
            Err(PdnError::OutOfBounds { .. })
        ));
        let other = mk(3).solve_sparse(&[0.0; 9]).unwrap();
        assert!(grid.solve_delta(&other, &[(0, 0.1)]).is_err());
        assert!(grid.solve_sparse(&[0.0; 9]).is_err());
        // A rejected in-place update changes nothing, even when valid
        // entries precede the bad one.
        let mut sol = base.clone();
        assert!(grid.update_delta(&mut sol, &[(2, 0.2), (16, 0.1)]).is_err());
        assert_eq!(sol, base);
    }

    #[test]
    fn kcl_residual_holds_for_sparse_solves_and_a_long_delta_chain() {
        // The campaign grid's shape and per-node load scale.
        let grid = PowerGrid::new(
            40,
            40,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (0, 39), (39, 0), (39, 39)],
        )
        .unwrap();
        let loads: Vec<f64> = (0..1600).map(|i| 1.0e-4 * (1 + i % 7) as f64).collect();
        let mut sol = grid.solve_sparse(&loads).unwrap();
        // Node currents are ~1e-4 A; rounding on ~1 V rails through
        // ~100 S conductances leaves ~1e-13 A.
        let fresh = grid.kcl_residual(sol.voltages(), sol.loads());
        assert!(fresh < 1e-11, "solve_sparse KCL residual {fresh:e} A");
        // 1,000 cycles of a dozen 5×5 blocks switching, like the NoC
        // campaign: drift stays at rounding level.
        let mut changed = Vec::new();
        for step in 0..1000usize {
            changed.clear();
            for k in 0..12 {
                let (br, bc) = ((step + 3 * k) % 8, (step * 5 + k) % 8);
                let l = 1.0e-4 * (1 + (step + k) % 9) as f64;
                changed.extend((0..25).map(|q| ((br * 5 + q / 5) * 40 + bc * 5 + q % 5, l)));
            }
            grid.update_delta(&mut sol, &changed).unwrap();
        }
        let chained = grid.kcl_residual(sol.voltages(), sol.loads());
        assert!(
            chained < 1e-11,
            "1,000-step chain KCL residual {chained:e} A"
        );
    }

    /// The node-wise bound holds down a long delta chain on the droop
    /// grid, and refuses the same chain with one update's `Δv` a part in
    /// a million off, the error a wrong lane leaves.
    #[test]
    fn kcl_holds_refuses_a_delta_a_part_in_a_million_off() {
        let grid = PowerGrid::corner_fed(
            24,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        let loads: Vec<f64> = (0..576).map(|i| 3.0e-3 * (1 + i % 7) as f64).collect();
        let mut sol = grid.solve_sparse(&loads).unwrap();
        assert!(grid.kcl_holds(&sol));
        for step in 0..1000usize {
            let changed: Vec<(usize, f64)> = (0..16)
                .map(|k| {
                    (
                        (step * 37 + k * 41) % 576,
                        3.0e-3 * (1 + (step + k) % 9) as f64,
                    )
                })
                .collect();
            let prior = sol.clone();
            grid.update_delta(&mut sol, &changed).unwrap();
            assert!(grid.kcl_holds(&sol), "step {step}");
            if step % 100 == 99 {
                let mut off = sol.clone();
                for (v, (&after, &before)) in off
                    .voltages
                    .iter_mut()
                    .zip(sol.voltages.iter().zip(&prior.voltages))
                {
                    *v = before + (after - before) * (1.0 + 1e-6);
                }
                assert!(!grid.kcl_holds(&off), "step {step}: 1e-6 off held");
            }
        }
    }

    #[test]
    fn kcl_residual_holds_at_every_transient_instant() {
        // The XP-SCAN shape: a 4×4 corner-fed supply grid and its ground
        // mirror under ramping centre loads. Each sampled instant's rail
        // voltages must satisfy KCL against that instant's loads.
        let supply = PowerGrid::corner_fed(
            4,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        let ground = PowerGrid::corner_fed(
            4,
            Voltage::ZERO,
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(40.0),
        )
        .unwrap();
        let ns = Time::from_ns;
        let mut loads = vec![Waveform::constant(0.03); 16];
        for hot in [5usize, 6, 9, 10] {
            loads[hot] =
                Waveform::from_points(vec![(ns(0.0), 0.1), (ns(100.0), 0.5), (ns(200.0), 0.25)])
                    .unwrap();
        }
        for grid in [&supply, &ground] {
            let waves = grid
                .quasi_static_transient(
                    &mut psnt_ctx::RunCtx::serial(),
                    &loads,
                    ns(10.0),
                    ns(211.0),
                    ns(12.5),
                )
                .unwrap();
            let instants: Vec<Time> = waves[0].points().iter().map(|&(t, _)| t).collect();
            assert_eq!(instants.len(), 18);
            for (k, &t) in instants.iter().enumerate() {
                let v: Vec<f64> = waves.iter().map(|w| w.points()[k].1).collect();
                let at: Vec<f64> = loads.iter().map(|w| w.sample(t)).collect();
                let residual = grid.kcl_residual(&v, &at);
                assert!(
                    residual < 1e-11,
                    "v_pad {} V, t = {t}: KCL residual {residual:e} A",
                    grid.v_pad().volts()
                );
            }
        }
    }

    /// Solves a seeded right-hand side (zero before `first`) with the
    /// vectorised kernel and with the row-by-row oracle; they agree to
    /// 1e-12 V.
    fn assert_kernel_matches_oracle(rows: usize, cols: usize, seed: u64) {
        let grid = PowerGrid::new(
            rows,
            cols,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (rows - 1, cols - 1)],
        )
        .unwrap();
        let n = grid.tiles();
        let mut rng = Lcg(seed);
        let first = (rng.unit() * n as f64) as usize;
        let rhs: Vec<f64> = (0..n)
            .map(|i| if i < first { 0.0 } else { rng.unit() * 0.01 })
            .collect();
        let (mut fast, mut slow) = (rhs.clone(), rhs);
        grid.factor().solve_in_place(&mut fast, first);
        grid.factor().solve_in_place_rows(&mut slow, first);
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                (f - s).abs() <= 1e-12,
                "{rows}×{cols} first {first} node {i}: kernel {f} vs oracle {s}"
            );
        }
    }

    /// Runs a seeded chain of block-shaped delta updates whose first
    /// changed node is past 0, three ways: in place, through
    /// `solve_delta`, and through the row-by-row oracle. The first two
    /// are bit-identical; the oracle agrees to 1e-12 V.
    fn assert_delta_chain_matches_oracle(rows: usize, cols: usize, seed: u64) {
        let grid = PowerGrid::new(
            rows,
            cols,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (rows - 1, cols - 1)],
        )
        .unwrap();
        let n = grid.tiles();
        let mut rng = Lcg(seed);
        let loads: Vec<f64> = (0..n).map(|_| rng.unit() * 0.01).collect();
        let mut sol = grid.solve_sparse(&loads).unwrap();
        let mut replay = sol.clone();
        let mut oracle = sol.clone();
        for _ in 0..20 {
            let start = 1 + (rng.unit() * n as f64) as usize % n.max(2).saturating_sub(1);
            let len = 1 + (rng.unit() * 30.0) as usize;
            let changed: Vec<(usize, f64)> = (start..(start + len).min(n))
                .map(|nd| (nd, rng.unit() * 0.01))
                .collect();
            let moved = grid.update_delta(&mut sol, &changed).unwrap();
            replay = grid.solve_delta(&replay, &changed).unwrap();
            assert_eq!(moved, !changed.is_empty());
            assert!(
                sol.voltages()
                    .iter()
                    .zip(replay.voltages())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "update_delta and solve_delta are bit-identical"
            );
            // The pre-vectorisation delta solve, verbatim.
            let mut db = vec![0.0; n];
            let mut first = n;
            for &(node, new_load) in &changed {
                let delta = new_load - oracle.loads[node];
                if delta != 0.0 {
                    db[node] -= delta;
                    oracle.loads[node] = new_load;
                    first = first.min(node);
                }
            }
            if first < n {
                grid.factor().solve_in_place_rows(&mut db, first);
                for (v, dv) in oracle.voltages.iter_mut().zip(&db) {
                    *v += dv;
                }
            }
        }
        assert_eq!(sol.loads(), oracle.loads());
        for (i, (f, s)) in sol.voltages().iter().zip(oracle.voltages()).enumerate() {
            assert!(
                (f - s).abs() <= 1e-12,
                "{rows}×{cols} node {i}: chain {f} vs oracle chain {s}"
            );
        }
    }

    /// A 64-bit LCG for seeded test inputs.
    struct Lcg(u64);

    impl Lcg {
        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn kernel_matches_oracle_on_degenerate_and_campaign_shapes() {
        for (rows, cols) in [(1, 1), (1, 40), (40, 1), (2, 2), (7, 13), (40, 40)] {
            for seed in 0..3 {
                assert_kernel_matches_oracle(rows, cols, seed);
                assert_delta_chain_matches_oracle(rows, cols, seed);
            }
        }
    }

    /// A right-hand side mixing signed zeros, subnormals and values
    /// from 1e-30 to 1e3, zero before `first`.
    fn mixed_rhs(n: usize, first: usize, seed: u64) -> Vec<f64> {
        let mut rng = Lcg(seed);
        (0..n)
            .map(|i| {
                let u = rng.unit();
                let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
                if i < first {
                    return if u < 0.5 { 0.0 } else { -0.0 };
                }
                match (u * 8.0) as u32 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => sign * f64::from_bits(1 + (rng.unit() * 1e15) as u64),
                    3 => sign * f64::MIN_POSITIVE * rng.unit(),
                    _ => sign * rng.unit() * 10f64.powi((rng.unit() * 33.0) as i32 - 30),
                }
            })
            .collect()
    }

    /// Solves `rhs` with the scheduled kernel and with the unscheduled
    /// one it replaced; every node must match bit for bit.
    fn assert_schedule_is_exact(grid: &PowerGrid, first: usize, rhs: &[f64]) {
        let (mut fast, mut plain) = (rhs.to_vec(), rhs.to_vec());
        grid.factor().solve_in_place(&mut fast, first);
        grid.factor().solve_in_place_unscheduled(&mut plain, first);
        for (i, (f, p)) in fast.iter().zip(&plain).enumerate() {
            assert_eq!(
                f.to_bits(),
                p.to_bits(),
                "{}×{} first {first} node {i}: scheduled {f:e} vs unscheduled {p:e}",
                grid.rows(),
                grid.cols()
            );
        }
    }

    #[test]
    fn scheduled_kernel_is_bit_identical_at_every_band() {
        // Bands 1 to 40, with 2 to 12 rows: both scheduled patterns
        // (forward at multiples of 4, backward from band 11), their
        // warm-up and tail rows, and the row-by-row path.
        for band in 1..=40usize {
            let rows = 2 + band % 11;
            let grid = PowerGrid::new(
                rows,
                band,
                Voltage::from_v(1.05),
                Resistance::from_milliohms(60.0),
                Resistance::from_milliohms(20.0),
                vec![(0, 0), (rows - 1, band - 1)],
            )
            .unwrap();
            let n = grid.tiles();
            for first in [0, 1, n / 2, n - 1] {
                assert_schedule_is_exact(&grid, first, &mixed_rhs(n, first, band as u64));
            }
        }
    }

    #[test]
    fn scheduled_delta_chain_is_bit_identical_on_the_campaign_grid() {
        // The reference chip's grid: 200 cycles of 48 of its 64 5×5
        // blocks switching, as `update_delta` against the unscheduled
        // kernel on the same right-hand sides.
        let grid = PowerGrid::new(
            40,
            40,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (0, 39), (39, 0), (39, 39)],
        )
        .unwrap();
        let loads: Vec<f64> = (0..1600)
            .map(|i| 8.0e-3 + 2.0e-3 * (i % 3) as f64)
            .collect();
        let mut sol = grid.solve_sparse(&loads).unwrap();
        let mut reference = sol.clone();
        let mut changed = Vec::new();
        for step in 0..200usize {
            changed.clear();
            for blk in (0..64).filter(|blk| (blk + step) % 4 != 3) {
                let (br, bc) = (blk / 8, blk % 8);
                let l = 8.0e-3 + 2.0e-3 * ((blk * 7 + step) % 5) as f64;
                changed.extend((0..25).map(|q| ((br * 5 + q / 5) * 40 + bc * 5 + q % 5, l)));
            }
            let moved = grid.update_delta(&mut sol, &changed).unwrap();
            let mut db = vec![0.0; 1600];
            let mut first = 1600;
            for &(node, new_load) in &changed {
                let delta = new_load - reference.loads[node];
                if delta != 0.0 {
                    db[node] -= delta;
                    reference.loads[node] = new_load;
                    first = first.min(node);
                }
            }
            assert_eq!(moved, first < 1600, "step {step}");
            if first < 1600 {
                grid.factor().solve_in_place_unscheduled(&mut db, first);
                for (v, dv) in reference.voltages.iter_mut().zip(&db) {
                    *v += dv;
                }
            }
            assert!(
                sol.voltages()
                    .iter()
                    .zip(reference.voltages())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "step {step}: scheduled chain left the unscheduled one"
            );
        }
    }

    /// A grid of `rows × cols` fed at two opposite corners.
    fn shape(rows: usize, cols: usize) -> PowerGrid {
        PowerGrid::new(
            rows,
            cols,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (rows - 1, cols - 1)],
        )
        .unwrap()
    }

    /// Interleaves `live` seeded right-hand sides into a `width`-lane
    /// buffer, each zero before its own first node (0, 1, the middle,
    /// the last or a random one; the lanes past `live` all zero), solves
    /// them in one lane-kernel pass, and checks every lane against
    /// `solve_in_place` alone, bit for bit.
    fn assert_lanes_are_exact(grid: &PowerGrid, width: usize, live: usize, seed: u64) {
        let n = grid.tiles();
        let mut rng = Lcg(seed);
        let first: Vec<usize> = (0..live)
            .map(|_| match (rng.unit() * 5.0) as usize {
                0 => 0,
                1 => 1.min(n - 1),
                2 => n / 2,
                3 => n - 1,
                _ => (rng.unit() * n as f64) as usize,
            })
            .collect();
        let lanes: Vec<Vec<f64>> = first
            .iter()
            .enumerate()
            .map(|(r, &f)| mixed_rhs(n, f, seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9)))
            .collect();
        let mut b = vec![0.0; n * width];
        for (r, lane) in lanes.iter().enumerate() {
            for (i, &v) in lane.iter().enumerate() {
                b[i * width + r] = v;
            }
        }
        grid.factor().solve_lanes(&mut b, width, &first);
        for (r, lane) in lanes.iter().enumerate() {
            let mut one = lane.clone();
            grid.factor().solve_in_place(&mut one, first[r]);
            for (i, x) in one.iter().enumerate() {
                assert_eq!(
                    b[i * width + r].to_bits(),
                    x.to_bits(),
                    "{}×{} lane {r} of {live} (first {}) node {i}",
                    grid.rows(),
                    grid.cols(),
                    first[r]
                );
            }
        }
        for r in live..width {
            assert!(
                (0..n).all(|i| b[i * width + r].to_bits() == 0),
                "an all-zero lane stays +0"
            );
        }
    }

    /// A seeded chain of changed sets, `moving` of which move a load,
    /// each starting at its own node (0, the middle, the last or a
    /// random one) with duplicates, ±0 loads and subnormal or mixed
    /// loads; between them sit empty sets and sets that move nothing
    /// (every load already in place, or a zero load's sign flipped).
    fn change_chain(
        grid: &PowerGrid,
        start: &GridSolution,
        moving: usize,
        seed: u64,
    ) -> Vec<Vec<(usize, f64)>> {
        let n = grid.tiles();
        let mut rng = Lcg(seed);
        let mut at = start.clone();
        let mut sets = Vec::new();
        let still = |at: &GridSolution, rng: &mut Lcg| -> Vec<(usize, f64)> {
            if rng.unit() < 0.4 {
                return Vec::new();
            }
            (0..1 + (rng.unit() * 6.0) as usize)
                .map(|_| {
                    let node = (rng.unit() * n as f64) as usize;
                    let load = at.loads()[node];
                    (node, if load == 0.0 { -load } else { load })
                })
                .collect()
        };
        for _ in 0..moving {
            for _ in 0..(rng.unit() * 3.0) as usize {
                sets.push(still(&at, &mut rng));
            }
            let f = match (rng.unit() * 4.0) as usize {
                0 => 0,
                1 => n / 2,
                2 => n - 1,
                _ => (rng.unit() * n as f64) as usize,
            };
            let mut set = vec![(f, at.loads()[f] + 1e-3 * (1.0 + rng.unit()))];
            for _ in 0..(rng.unit() * 12.0) as usize {
                let node = f + (rng.unit() * (n - f) as f64) as usize;
                let load = match (rng.unit() * 6.0) as usize {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from_bits(1 + (rng.unit() * 1e12) as u64),
                    3 => at.loads()[node],
                    _ => rng.unit() * 0.1,
                };
                set.push((node, load));
                if rng.unit() < 0.2 {
                    // A later duplicate wins.
                    set.push((node, rng.unit() * 0.05));
                }
            }
            assert!(grid.update_delta(&mut at, &set).unwrap());
            sets.push(set);
        }
        sets
    }

    /// Plans `sets` into one `width`-lane batch, settles it and applies
    /// it update by update; after each, the solution must equal an
    /// `update_delta` chain over the same sets bit for bit, voltages and
    /// loads, and report the same `moved`.
    fn assert_batch_matches_chain(
        grid: &PowerGrid,
        start: &GridSolution,
        width: usize,
        sets: &[Vec<(usize, f64)>],
    ) {
        let mut batch = DeltaBatch::new(width);
        let mut batched = start.clone();
        let mut chain = start.clone();
        let mut loads = start.loads().to_vec();
        let planned: Vec<bool> = sets
            .iter()
            .map(|set| grid.plan_delta(&mut batch, &mut loads, set).unwrap())
            .collect();
        assert_eq!(batch.pending(), sets.len());
        grid.settle_deltas(&mut batch);
        for (k, set) in sets.iter().enumerate() {
            let moved = grid.update_delta(&mut chain, set).unwrap();
            assert_eq!(planned[k], moved, "update {k} plans as it moves");
            assert_eq!(batch.apply(&mut batched), Some(moved), "update {k}");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(batched.voltages()),
                bits(chain.voltages()),
                "{}×{} update {k}: voltages",
                grid.rows(),
                grid.cols()
            );
            assert_eq!(
                bits(batched.loads()),
                bits(chain.loads()),
                "update {k}: loads"
            );
        }
        assert_eq!(batch.apply(&mut batched), None);
        assert_eq!(batch.pending(), 0);
        // Planning ran the loads ahead to where the applied batch is.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&loads), bits(chain.loads()));
    }

    /// Seeded start loads with exact zeros among them.
    fn start_solution(grid: &PowerGrid, seed: u64) -> GridSolution {
        let mut rng = Lcg(seed);
        let loads: Vec<f64> = (0..grid.tiles())
            .map(|_| {
                if rng.unit() < 0.3 {
                    0.0
                } else {
                    rng.unit() * 0.01
                }
            })
            .collect();
        grid.solve_sparse(&loads).unwrap()
    }

    #[test]
    fn lane_kernel_is_bit_identical_at_every_band() {
        // Bands 1 to 40 with 2 to 12 rows, every lane count: the forward
        // rows clipped per lane, the shared ones, the four-entry backward
        // blocks and the entries left below them.
        for band in 1..=40usize {
            let grid = shape(2 + band % 11, band);
            for live in 1..=DELTA_LANES {
                assert_lanes_are_exact(&grid, DELTA_LANES, live, (band * 8 + live) as u64);
                assert_lanes_are_exact(&grid, live, live, (band * 8 + live) as u64 ^ 7);
            }
        }
    }

    #[test]
    fn delta_batch_matches_update_delta_chains_on_the_campaign_grid() {
        // 48 of the 64 5×5 blocks of the reference chip's grid switching,
        // eight updates per batch, for 25 batches.
        let grid = PowerGrid::new(
            40,
            40,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (0, 39), (39, 0), (39, 39)],
        )
        .unwrap();
        let mut sol = start_solution(&grid, 2009);
        for round in 0..25usize {
            let sets: Vec<Vec<(usize, f64)>> = (0..DELTA_LANES)
                .map(|k| {
                    let step = round * DELTA_LANES + k;
                    (0..64)
                        .filter(|blk| (blk + step) % 4 != 3)
                        .flat_map(|blk: usize| {
                            let (br, bc) = (blk / 8, blk % 8);
                            let l = 8.0e-3 + 2.0e-3 * ((blk * 7 + step) % 5) as f64;
                            (0..25).map(move |q| ((br * 5 + q / 5) * 40 + bc * 5 + q % 5, l))
                        })
                        .collect()
                })
                .collect();
            assert_batch_matches_chain(&grid, &sol, DELTA_LANES, &sets);
            for set in &sets {
                grid.update_delta(&mut sol, set).unwrap();
            }
        }
    }

    #[test]
    fn delta_batch_refuses_misuse() {
        let grid = mk(4);
        let sol = grid.solve_sparse(&[0.01; 16]).unwrap();
        let mut batch = DeltaBatch::new(2);
        let mut loads = sol.loads().to_vec();
        assert!(matches!(
            grid.plan_delta(&mut batch, &mut loads, &[(16, 0.1)]),
            Err(PdnError::OutOfBounds { .. })
        ));
        assert!(grid
            .plan_delta(&mut batch, &mut [0.0; 9], &[(0, 0.1)])
            .is_err());
        assert_eq!(batch.pending(), 0, "refused plans leave the batch empty");
        assert_eq!(loads, sol.loads(), "and the loads as they were");
        assert!(grid
            .plan_delta(&mut batch, &mut loads, &[(3, 0.2)])
            .unwrap());
        assert!(grid
            .plan_delta(&mut batch, &mut loads, &[(5, 0.2)])
            .unwrap());
        // Both lanes are taken; even an update that moves nothing waits.
        assert!(grid.plan_delta(&mut batch, &mut loads, &[]).is_err());
        grid.settle_deltas(&mut batch);
        assert!(grid
            .plan_delta(&mut batch, &mut loads, &[(7, 0.2)])
            .is_err());
        assert_eq!(batch.pending(), 2);
        let mut applied = sol.clone();
        assert_eq!(batch.apply(&mut applied), Some(true));
        assert_eq!(batch.apply(&mut applied), Some(true));
        assert_eq!(batch.apply(&mut applied), None);
        assert_eq!(applied.loads(), &loads[..]);
        // Drained, the batch plans again.
        assert!(!grid
            .plan_delta(&mut batch, &mut loads, &[(3, 0.2)])
            .unwrap());
    }

    #[test]
    #[should_panic(expected = "settle the batch before applying it")]
    fn delta_batch_applies_only_settled_lanes() {
        let grid = mk(4);
        let mut sol = grid.solve_sparse(&[0.01; 16]).unwrap();
        let mut batch = DeltaBatch::new(DELTA_LANES);
        let mut loads = sol.loads().to_vec();
        grid.plan_delta(&mut batch, &mut loads, &[(3, 0.2)])
            .unwrap();
        batch.apply(&mut sol);
    }

    #[test]
    fn grid_solution_hotspot_matches_grid_hotspot() {
        let grid = mk(5);
        let mut loads = vec![0.0; 25];
        loads[12] = 0.5;
        let sol = grid.solve_sparse(&loads).unwrap();
        let (idx, v) = sol.hotspot();
        let (gi, gv) = grid.hotspot(&loads).unwrap();
        assert_eq!(idx, gi);
        assert!((v - gv).abs() < 1e-9);
    }

    #[test]
    fn equality_ignores_lazy_caches() {
        let a = mk(4);
        let b = mk(4);
        // Warm one grid's caches; the grids still compare equal, and a
        // clone of the warmed grid round-trips.
        let _ = a.solve_sparse(&[0.1; 16]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        assert_ne!(mk(4), mk(5));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Sparse direct solves agree with the Gauss–Seidel path to
            /// 1e-9 over random load sets on random grid shapes.
            #[test]
            fn sparse_vs_dense_agreement(
                rows in 1usize..7,
                cols in 1usize..7,
                seed in any::<u64>(),
            ) {
                let grid = PowerGrid::new(
                    rows,
                    cols,
                    Voltage::from_v(1.05),
                    Resistance::from_milliohms(60.0),
                    Resistance::from_milliohms(20.0),
                    vec![(0, 0), (rows - 1, cols - 1)],
                )
                .unwrap();
                // A cheap deterministic load pattern from the seed.
                let mut state = seed;
                let loads: Vec<f64> = (0..rows * cols)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 11) as f64 / (1u64 << 53) as f64 * 0.2
                    })
                    .collect();
                let dense = grid.relax(&loads);
                let sparse = grid.solve_sparse(&loads).unwrap();
                for (d, s) in dense.iter().zip(sparse.voltages()) {
                    prop_assert!((d - s).abs() < 1e-9, "dense {} vs sparse {}", d, s);
                }
            }

            /// A chain of delta solves equals a fresh factor-backed solve
            /// of the final load pattern.
            #[test]
            fn delta_chain_vs_fresh(
                changes in proptest::collection::vec(
                    (0usize..36, 0.0..0.3f64), 1..40),
            ) {
                let grid = PowerGrid::corner_fed(
                    6,
                    Voltage::from_v(1.0),
                    Resistance::from_milliohms(40.0),
                    Resistance::from_milliohms(10.0),
                )
                .unwrap();
                let mut sol = grid.solve_sparse(&vec![0.0; 36]).unwrap();
                for &(node, load) in &changes {
                    sol = grid.solve_delta(&sol, &[(node, load)]).unwrap();
                }
                let fresh = grid.solve_sparse(sol.loads()).unwrap();
                for (c, f) in sol.voltages().iter().zip(fresh.voltages()) {
                    prop_assert!((c - f).abs() < 1e-9);
                }
            }

            /// The vectorised substitution agrees with the row-by-row
            /// oracle to 1e-12 V on random grid shapes up to 40×40,
            /// for full solves and for delta chains starting past node
            /// 0, and the in-place update is bit-identical to
            /// `solve_delta` all along the chain.
            /// The scheduled kernel is bit-identical to the unscheduled
            /// one on degenerate, odd, small and campaign shapes, from
            /// the first node, the second, the middle and the last, on
            /// right-hand sides with signed zeros, subnormals and mixed
            /// magnitudes.
            #[test]
            fn scheduled_kernel_is_bit_identical(
                len in 1usize..=40,
                seed in any::<u64>(),
            ) {
                // The last shape has band `len`, so the cases reach
                // bands from 1 to 40 on both schedules and on the
                // row-by-row path.
                let shapes = [
                    (1, 1),
                    (1, len),
                    (len, 1),
                    (2, 3),
                    (3, 5),
                    (5, 7),
                    (8, 8),
                    (24, 24),
                    (40, 40),
                    (2 + len % 11, len),
                ];
                for (rows, cols) in shapes {
                    let grid = PowerGrid::new(
                        rows,
                        cols,
                        Voltage::from_v(1.05),
                        Resistance::from_milliohms(60.0),
                        Resistance::from_milliohms(20.0),
                        vec![(0, 0), (rows - 1, cols - 1)],
                    )
                    .unwrap();
                    let n = grid.tiles();
                    for first in [0, 1.min(n - 1), n / 2, n - 1] {
                        let rhs = mixed_rhs(n, first, seed ^ first as u64);
                        assert_schedule_is_exact(&grid, first, &rhs);
                    }
                }
            }

            /// The lane kernel, through a `DeltaBatch`, matches a chain of
            /// one-lane `update_delta` calls bit for bit on degenerate,
            /// odd, small and campaign shapes: one to eight lanes with
            /// their own first nodes, with empty and load-keeping
            /// updates, duplicates, ±0 and subnormal loads between them.
            #[test]
            fn lane_kernel_matches_update_delta_chains(
                live in 1usize..=DELTA_LANES,
                seed in any::<u64>(),
            ) {
                let shapes =
                    [(1, 1), (1, 9), (9, 1), (2, 3), (5, 7), (8, 8), (24, 24), (40, 40)];
                for (rows, cols) in shapes {
                    let grid = shape(rows, cols);
                    let start = start_solution(&grid, seed);
                    let sets = change_chain(&grid, &start, live, seed ^ 0x5eed);
                    assert_batch_matches_chain(&grid, &start, DELTA_LANES, &sets);
                    assert_batch_matches_chain(&grid, &start, live, &sets);
                    assert_lanes_are_exact(&grid, DELTA_LANES, live, seed);
                }
            }

            #[test]
            fn kernel_vs_row_oracle(
                rows in 1usize..=40,
                cols in 1usize..=40,
                seed in any::<u64>(),
            ) {
                assert_kernel_matches_oracle(rows, cols, seed);
                assert_delta_chain_matches_oracle(rows, cols, seed);
            }
        }
    }
}
