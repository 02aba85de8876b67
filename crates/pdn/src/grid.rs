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
//!   solve costs O(n · band) like a full solve, with a smaller constant.
//!   On a 40×40 (1,600-node) grid that is tens of microseconds.
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
/// 256-bit vector.
const LANES: usize = 4;

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
    fn solve_in_place(&self, b: &mut [f64], first: usize) {
        let w = self.band;
        let stride = w + 1;
        // PDN HOT LOOP START
        // Forward: row i of `L` is contiguous, so `y[i]` is one dot
        // product of it with the already-solved `y[lo..i]`.
        for i in first..self.n {
            let lo = i.saturating_sub(w).max(first);
            let row = &self.l[i * stride + (lo + w - i)..i * stride + w];
            b[i] = (b[i] - dot(row, &b[lo..i])) * self.inv_diag[i];
        }
        // Backward: once `x[i]` is final, subtract its column of `Lᵀ`
        // (row i of `L`, again contiguous) from the nodes above it.
        for i in (0..self.n).rev() {
            let xi = b[i] * self.inv_diag[i];
            b[i] = xi;
            let lo = i.saturating_sub(w);
            let row = &self.l[i * stride + (lo + w - i)..i * stride + w];
            for (bj, &lij) in b[lo..i].iter_mut().zip(row) {
                *bj -= lij * xi;
            }
        }
        // PDN HOT LOOP END
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
///
/// A solution also owns the scratch right-hand side its delta updates
/// solve in, so a chain of [`PowerGrid::update_delta`] calls allocates
/// nothing after the first. The scratch is not part of the value: it
/// is not serialized, cloned or compared.
#[derive(Debug, Serialize, Deserialize)]
pub struct GridSolution {
    voltages: Vec<f64>,
    loads: Vec<f64>,
    #[serde(skip)]
    rhs: Vec<f64>,
}

impl Clone for GridSolution {
    fn clone(&self) -> GridSolution {
        GridSolution {
            voltages: self.voltages.clone(),
            loads: self.loads.clone(),
            rhs: Vec::new(),
        }
    }
}

impl PartialEq for GridSolution {
    fn eq(&self, other: &Self) -> bool {
        self.voltages == other.voltages && self.loads == other.loads
    }
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
            rhs: Vec::new(),
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
    /// The right-hand side is solved in the solution's own scratch
    /// buffer, so repeated updates of one solution allocate nothing
    /// after the first. The result is bit-identical to
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
        if let Some(&(node, _)) = changed.iter().find(|&&(node, _)| node >= n) {
            return Err(PdnError::OutOfBounds {
                row: node / self.cols,
                col: node % self.cols,
                rows: self.rows,
                cols: self.cols,
            });
        }
        // PDN HOT LOOP START
        let GridSolution {
            voltages,
            loads,
            rhs,
        } = sol;
        rhs.clear();
        rhs.resize(n, 0.0);
        let mut first = n;
        for &(node, new_load) in changed {
            let delta = new_load - loads[node];
            if delta != 0.0 {
                rhs[node] -= delta;
                loads[node] = new_load;
                first = first.min(node);
            }
        }
        if first == n {
            return Ok(false);
        }
        self.factor().solve_in_place(rhs, first);
        for (v, dv) in voltages.iter_mut().zip(rhs.iter()) {
            *v += dv;
        }
        // PDN HOT LOOP END
        Ok(true)
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
            debug_assert!(
                self.kcl_residual(sol.voltages(), sol.loads())
                    <= 1e-10 * self.kcl_scale(sol.voltages(), sol.loads()),
                "KCL residual at t = {t}"
            );
            for (tile, &vi) in sol.voltages().iter().enumerate() {
                per_tile[tile].push((t, vi));
            }
        }
        if let Some(obs) = ctx.observer() {
            obs.metrics.counter_add("pdn.grid_solves", steps as u64 + 1);
        }
        per_tile.into_iter().map(Waveform::from_points).collect()
    }

    /// The infinity-norm KCL residual `‖K·v − b‖∞` (amperes) of tile
    /// voltages `v` under tile `loads`: at every node, the current
    /// leaving through the mesh and the pad tie minus the current the
    /// pad injects and the load draws.
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

    /// The magnitude of the largest current term in `K·v = b` (amperes):
    /// the scale the rounding in [`PowerGrid::kcl_residual`] is relative
    /// to.
    fn kcl_scale(&self, v: &[f64], loads: &[f64]) -> f64 {
        let v_max = v
            .iter()
            .fold(self.v_pad.volts().abs(), |m, x| m.max(x.abs()));
        let load_max = loads.iter().fold(0.0, |m: f64, x| m.max(x.abs()));
        (4.0 * self.g_mesh + self.g_pad) * v_max + load_max
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
    fn solution_scratch_is_not_part_of_the_value() {
        let grid = mk(4);
        let mut sol = grid.solve_sparse(&[0.05; 16]).unwrap();
        grid.update_delta(&mut sol, &[(5, 0.1)]).unwrap();
        assert_eq!(sol.rhs.len(), 16, "the update kept its scratch");
        let copy = sol.clone();
        assert!(copy.rhs.is_empty(), "clones start without scratch");
        assert_eq!(copy, sol);
        let json = serde::json::to_string(&sol);
        let back: GridSolution = serde::json::from_str(&json).unwrap();
        assert_eq!(back, sol);
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
