//! The cache-aware vote-map engine.
//!
//! [`crate::grid::VoteMap::evaluate`] recomputes every pair's
//! distance-difference for every lattice point on every call. That is fine
//! for a one-shot map, but the multi-resolution positioner evaluates the
//! *same grids* on every `locate()` call, and the distance differences
//! depend only on (deployment, plane, grid) — not on the measurements.
//! [`VoteEngine`] therefore precomputes, once per grid, a cell-major table
//! of per-pair distance differences expressed in turns
//! (`path_factor · Δd / λ`, the quantity whose grating-lobe structure Eq. 7
//! scores), and evaluates measurement sets against that table. Repeated
//! evaluations then cost one `frac_dist_to_integer` per (cell, measurement)
//! instead of two 3-D distances plus the fraction.
//!
//! The table is stored **pair-major** (column-contiguous): each pair owns a
//! contiguous slab of `grid.len()` entries, `table[k · n_cells + c]`.
//! Evaluation inverts the loop nest to measurement-outer / cell-inner, so
//! each measurement streams its pair's contiguous `f64` column with no
//! per-element indirection — a layout the compiler autovectorizes. Each
//! cell's accumulator still receives its `-f²` terms in measurement order
//! (one in-order subtraction per sweep), which is exactly the per-cell
//! floating-point sequence of the reference
//! [`crate::grid::VoteMap::evaluate`] path, so the result is
//! **bit-identical** to the reference.
//!
//! Stage 2 of the positioner scores only the stage-1 filter's kept cells,
//! a list of flat indices ([`VoteEngine::evaluate_cells`]), and returns
//! one vote per listed cell: no dense map, no `−∞` fill. It has two
//! internally-identical paths: if the table is already built (serving
//! prebuilds it), each measurement gathers the listed cells from its pair
//! column; otherwise the listed cells' entries are computed on the fly
//! (the filter typically keeps < 10% of the fine grid, so building the
//! full fine table for one evaluation would cost more than it saves).
//! Both paths compute each cell with the same operations as the full-grid
//! sweep, so which one runs never changes the result.
//!
//! ## Table precision
//!
//! The engine keeps two table slots, one per [`TablePrecision`]. The `f64`
//! table is the reference: bit-identical to [`VoteMap::evaluate`], used by
//! every accuracy-critical path, serving included. The `i16` table stores
//! each entry's *fractional* turns as two's-complement fixed point at the
//! full type width (2¹⁶ quanta per turn): integer turns wrap away at
//! quantization, and the kernel's wrapping subtraction `q_t − q_m` *is*
//! the modulo-1-turn fold — no rounding, no libm, no lobe search. The
//! difference widens exactly to f32 (|d| ≤ 2¹⁵ < 2²⁴) and squares into an
//! f32 accumulator through one fused `a − d·d` per term, the sweep's only
//! rounding. The sweep is *tiled* over the cell dimension (`CELL_TILE`
//! cells per tile) so the accumulator tile stays in L1 while the pair
//! columns stream through. Neither tiling nor vector width changes any
//! per-cell operation sequence, so i16 maps are bit-identical across
//! every tile boundary and instruction set. The finished accumulator
//! widens to f64 and scales by the exact power of two `2⁻³²` at
//! write-out. What quantization costs is a
//! *derived*, per-measurement-set vote-error bound
//! ([`VoteEngine::vote_error_bound`]), with an argmax-identity theorem:
//! the i16 argmax cell provably matches the f64 reference whenever the f64
//! best/runner-up gap exceeds twice the bound.
//!
//! Every loop over a built table, at either precision, is a kernel in
//! [`rfidraw_simd`]: one safe loop compiled for the baseline target and
//! for AVX2+FMA, with the copy picked at runtime from CPUID. The copies
//! are bit-identical by construction (see that crate's docs), so the
//! instruction set changes only wall-clock. This module keeps what
//! surrounds the kernels: the i16 tiling and write-out, the spans, and
//! the lazy cell-list paths, which compute each listed cell's
//! entries on the fly with the kernels' per-cell arithmetic.
//!
//! The table slots are `Arc`s, so a cloned engine shares its original's
//! tables: both score the same grid, and whichever builds a table first
//! builds it for both.

use crate::array::{AntennaPair, Deployment};
use crate::geom::{Plane, Point3};
use crate::grid::{Grid2, VoteMap};
use crate::obs::{self, SharedSink, Stage};
use crate::phase::{frac_dist_to_integer, quantize_turns_i16};
use crate::vote::PairMeasurement;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Cells per accumulator tile in the i16 sweep: 4096 × 4 B = 16 KiB of
/// f32 accumulators, comfortably inside L1 alongside the streamed column
/// slices. Tiling never reorders a cell's terms, so the value is pure
/// tuning.
const CELL_TILE: usize = 4096;

/// The i16 sweep's exact write-out factor, `2⁻³²`: it maps a sum of
/// squared quanta (2¹⁶ per turn) back to squared turns. A power of two,
/// so the f64 multiply at write-out is exact.
const I16_WRITEOUT: f64 = 1.0 / 4_294_967_296.0;

/// Which numeric representation backs an engine's distance-difference
/// table.
///
/// `F64` is the bit-exact reference; `I16` quantizes the fractional turns
/// to fixed point for a quarter of the f64 bytes, with a derived
/// vote-error bound ([`VoteEngine::vote_error_bound`]; see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TablePrecision {
    /// Double-precision tables — bit-identical to [`VoteMap::evaluate`].
    F64,
    /// 16-bit fixed-point tables (2¹⁶ quanta per turn) — a quarter of the
    /// f64 bytes, f32 accumulation, bound of one `2⁻¹⁶`-turn quantum per
    /// measurement plus the accumulation series.
    I16,
}

impl Default for TablePrecision {
    fn default() -> Self {
        TablePrecision::F64
    }
}

impl TablePrecision {
    /// Bytes per table entry at this precision.
    pub fn entry_bytes(self) -> u64 {
        match self {
            TablePrecision::F64 => std::mem::size_of::<f64>() as u64,
            TablePrecision::I16 => std::mem::size_of::<i16>() as u64,
        }
    }

    /// The lower-case label reports use for this precision.
    pub fn label(self) -> &'static str {
        match self {
            TablePrecision::F64 => "f64",
            TablePrecision::I16 => "i16",
        }
    }
}

/// A reusable vote-map evaluator for one (deployment, plane, grid) triple.
#[derive(Debug, Clone)]
pub struct VoteEngine {
    grid: Grid2,
    plane: Plane,
    pairs: Vec<AntennaPair>,
    /// Pair → table-column index (the inverse of `pairs`), built once at
    /// construction so measurement lookup is O(1) per measurement instead
    /// of a linear scan over the pair set.
    col_of: HashMap<AntennaPair, usize>,
    /// Antenna positions per pair, aligned with `pairs`.
    geom: Vec<(Point3, Point3)>,
    /// `path_factor / λ`: distance difference (m) → turns.
    turns_factor: f64,
    /// Pair-major distance-difference table in turns:
    /// `table[k * grid.len() + c] = turns_factor · (|P_c − pos_i_k| − |P_c − pos_j_k|)`.
    /// Built on first use (see module docs for when that pays off). Behind
    /// an `Arc` so clones of the engine share one physical table; a fresh
    /// engine always starts with a private slot.
    table: Arc<OnceLock<Vec<f64>>>,
    /// The 16-bit fixed-point sibling: same pair-major layout, each entry
    /// the exact turns quantized by [`quantize_turns_i16`] (fractional
    /// turns at 2¹⁶ quanta per turn, integer turns wrapped away). Built
    /// independently: an I16 engine never materializes the f64 table.
    table_i16: Arc<OnceLock<Vec<i16>>>,
    /// Which table `evaluate*` uses. `F64` unless configured otherwise.
    precision: TablePrecision,
    /// Where evaluation spans go, tagged with `session`; `None` (the
    /// default) makes every emit site one branch (see [`crate::obs`]).
    sink: Option<SharedSink>,
    session: u64,
}

impl VoteEngine {
    /// Creates an engine scoring the given pairs on `grid`.
    ///
    /// # Panics
    /// Panics if a pair references an antenna the deployment does not have.
    pub fn new(dep: &Deployment, plane: Plane, grid: Grid2, pairs: Vec<AntennaPair>) -> Self {
        let geom = pairs
            .iter()
            .map(|&pair| {
                let pi = dep
                    .antenna(pair.i)
                    .unwrap_or_else(|| panic!("unknown antenna {:?}", pair.i))
                    .pos;
                let pj = dep
                    .antenna(pair.j)
                    .unwrap_or_else(|| panic!("unknown antenna {:?}", pair.j))
                    .pos;
                (pi, pj)
            })
            .collect();
        let turns_factor = dep.path_factor() / dep.wavelength().meters();
        let col_of = pairs.iter().enumerate().map(|(k, &p)| (p, k)).collect();
        Self {
            grid,
            plane,
            pairs,
            col_of,
            geom,
            turns_factor,
            table: Arc::new(OnceLock::new()),
            table_i16: Arc::new(OnceLock::new()),
            precision: TablePrecision::default(),
            sink: None,
            session: 0,
        }
    }

    /// An engine over every pair of the deployment — what the positioner
    /// uses, since any measurement subset can then be scored.
    pub fn for_deployment(dep: &Deployment, plane: Plane, grid: Grid2) -> Self {
        let pairs: Vec<AntennaPair> = dep.all_pairs().copied().collect();
        Self::new(dep, plane, grid, pairs)
    }

    /// The grid this engine evaluates on.
    pub fn grid(&self) -> &Grid2 {
        &self.grid
    }

    /// The pairs this engine can score, in table-column order.
    pub fn pairs(&self) -> &[AntennaPair] {
        &self.pairs
    }

    /// The table precision `evaluate*` uses.
    pub fn precision(&self) -> TablePrecision {
        self.precision
    }

    /// Changes the table precision. Switching detaches the engine onto
    /// fresh *private* slots (dropping any shared or already-built table),
    /// so a clone that switches never builds into the slots its siblings
    /// share.
    pub fn set_precision(&mut self, precision: TablePrecision) {
        if precision != self.precision {
            self.precision = precision;
            self.table = Arc::new(OnceLock::new());
            self.table_i16 = Arc::new(OnceLock::new());
        }
    }

    /// The bytes the active-precision table occupies once built (exactly
    /// `grid cells × pairs × entry size`; the table is a dense rectangle).
    pub fn table_bytes(&self) -> u64 {
        self.grid.len() as u64 * self.pairs.len() as u64 * self.precision.entry_bytes()
    }

    /// Installs (or removes) a trace sink; table-build and evaluation
    /// spans are emitted to it tagged with `session`. Observability only:
    /// never changes any computed value (see [`crate::obs`]).
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>, session: u64) {
        self.sink = sink;
        self.session = session;
    }

    /// Whether the active-precision distance-difference table has been
    /// built yet.
    pub fn is_table_built(&self) -> bool {
        match self.precision {
            TablePrecision::F64 => self.table.get().is_some(),
            TablePrecision::I16 => self.table_i16.get().is_some(),
        }
    }

    /// Builds (once) the active-precision table without evaluating
    /// anything — what pre-warm paths and benches call so steady-state
    /// evaluation can be measured (or served) separately from the one-time
    /// precomputation.
    pub fn prebuild(&self) {
        match self.precision {
            TablePrecision::F64 => {
                self.build_table();
            }
            TablePrecision::I16 => {
                self.build_table_i16();
            }
        }
    }

    /// Builds (once) and returns the pair-major distance-difference table.
    /// Called implicitly by [`VoteEngine::evaluate`]; benches call it
    /// explicitly to measure steady-state evaluation separately from the
    /// one-time precomputation.
    pub fn build_table(&self) -> &[f64] {
        self.table.get_or_init(|| self.build_columns(|turns| turns))
    }

    /// Builds (once) and returns the 16-bit fixed-point table: each entry
    /// quantizes the exact turns with [`quantize_turns_i16`]. The f64
    /// table is never materialized, so an I16 engine pays only the
    /// quarter-size table.
    pub(crate) fn build_table_i16(&self) -> &[i16] {
        self.table_i16
            .get_or_init(|| self.build_columns(quantize_turns_i16))
    }

    /// Builds a pair-major table whose entry for pair `k` and cell `c` is
    /// `entry` of that pair's exact turns at that cell
    /// ([`VoteEngine::pair_turns`]): the identity for the f64 table,
    /// [`quantize_turns_i16`] for the i16 one.
    fn build_columns<T>(&self, entry: impl Fn(f64) -> T) -> Vec<T>
    where
        T: Copy + Default,
    {
        let _span =
            obs::SpanTimer::start(self.sink.as_ref(), self.session, Stage::EngineTable, 0.0);
        let n_cells = self.grid.len();
        let mut table = vec![T::default(); n_cells * self.pairs.len()];
        for (column, &ends) in table.chunks_mut(n_cells).zip(&self.geom) {
            for (c, slot) in column.iter_mut().enumerate() {
                *slot = entry(self.pair_turns(self.cell_point(c), ends));
            }
        }
        table
    }

    /// The point of grid cell `c`, lifted onto the writing plane.
    fn cell_point(&self, c: usize) -> Point3 {
        let (ix, iz) = self.grid.unflat(c);
        self.plane.lift(self.grid.point(ix, iz))
    }

    /// The exact distance difference in turns of the pair whose antennas
    /// sit at `(pi, pj)`, seen from `p3` — a table entry before its
    /// per-precision map. The table builder and both lazy cell-list paths
    /// compute entries here, so a cell scored without a table sees exactly
    /// the bits the table would hold.
    fn pair_turns(&self, p3: Point3, (pi, pj): (Point3, Point3)) -> f64 {
        self.turns_factor * (p3.dist(pi) - p3.dist(pj))
    }

    /// Maps each measurement to its table column and its measured turns,
    /// through the pair→column index built at construction.
    ///
    /// # Panics
    /// Panics if a measurement's pair is not in this engine's pair set.
    fn columns(&self, measurements: &[PairMeasurement]) -> Vec<(usize, f64)> {
        measurements
            .iter()
            .map(|m| {
                let col = *self.col_of.get(&m.pair).unwrap_or_else(|| {
                    panic!("measurement pair {:?} is not in this engine's pair set", m.pair)
                });
                (col, m.turns())
            })
            .collect()
    }

    /// [`VoteEngine::columns`] with the measured turns quantized to the
    /// i16 table's fixed point, so the sweep is a pure wrapping subtract.
    /// Also asserts the measurement count stays inside the derivation's
    /// envelope: the error bound's accumulation series is quadratic in
    /// `n`, so 2²² is a generous sanity ceiling, not a tight limit.
    fn columns_i16(&self, measurements: &[PairMeasurement]) -> Vec<(usize, i16)> {
        assert!(
            measurements.len() < 1 << 22,
            "i16 accumulation envelope: at most 2^22 measurements per evaluation"
        );
        self.columns(measurements)
            .into_iter()
            .map(|(col, measured)| (col, quantize_turns_i16(measured)))
            .collect()
    }

    /// Evaluates the total nearest-lobe vote of `measurements` on every
    /// lattice point. At [`TablePrecision::F64`] (the default) the result
    /// is bit-identical to [`VoteMap::evaluate`] on the same inputs; at
    /// [`TablePrecision::I16`] every vote is within
    /// [`VoteEngine::vote_error_bound`] of the f64 reference.
    pub fn evaluate(&self, measurements: &[PairMeasurement]) -> VoteMap {
        match self.precision {
            TablePrecision::F64 => self.evaluate_f64(measurements),
            TablePrecision::I16 => self.evaluate_i16(measurements),
        }
    }

    fn evaluate_f64(&self, measurements: &[PairMeasurement]) -> VoteMap {
        let cols = self.columns(measurements);
        let table = self.build_table();
        let n_cells = self.grid.len();
        let mut values = vec![0.0; n_cells];
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        // Measurement-outer: each sweep streams one contiguous pair column.
        // Per cell the sweeps subtract `-f²` terms in measurement order,
        // matching the reference path's per-cell accumulation exactly.
        for &(col, measured) in &cols {
            let column = &table[col * n_cells..(col + 1) * n_cells];
            rfidraw_simd::sweep_f64(&mut values, column, measured);
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// The 16-bit fixed-point sweep: the measurement-outer / cell-inner
    /// loop nest of the f64 sweep, tiled over the cell dimension so the
    /// f32 accumulator tile ([`CELL_TILE`] cells) stays L1-resident while
    /// the pair columns stream. The per-cell difference is a wrapping
    /// subtract (the free mod-1-turn fold) on quarter-width table bytes;
    /// it then widens *exactly* to f32 (|d| ≤ 2¹⁵ < 2²⁴) and the fused
    /// `a − d·d` rounds once per term — the sweep's only rounding.
    /// Measurements go through [`rfidraw_simd::sweep_i16_dual`] in pairs
    /// (one accumulator pass per two columns), which is bit-identical to
    /// single sweeps by construction. Write-out converts the f32 sum to
    /// f64 (exact) and scales by `2⁻³²` (exact: power of two). Every
    /// cell's terms arrive in measurement order through the identical
    /// per-lane instruction sequence, so the map is bit-identical for
    /// every tile boundary and instruction set.
    fn evaluate_i16(&self, measurements: &[PairMeasurement]) -> VoteMap {
        let cols = self.columns_i16(measurements);
        let table = self.build_table_i16();
        let n_cells = self.grid.len();
        let mut values = vec![0.0f64; n_cells];
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let mut acc = vec![0.0f32; CELL_TILE.min(n_cells)];
        for (t, out) in values.chunks_mut(CELL_TILE).enumerate() {
            let base = t * CELL_TILE;
            let len = out.len();
            let tile = &mut acc[..len];
            tile.fill(0.0);
            let mut pairs = cols.chunks_exact(2);
            for pair in &mut pairs {
                let (col_a, q_a) = pair[0];
                let (col_b, q_b) = pair[1];
                let a = &table[col_a * n_cells + base..col_a * n_cells + base + len];
                let b = &table[col_b * n_cells + base..col_b * n_cells + base + len];
                rfidraw_simd::sweep_i16_dual(tile, a, q_a, b, q_b);
            }
            for &(col, q_m) in pairs.remainder() {
                let column = &table[col * n_cells + base..col * n_cells + base + len];
                rfidraw_simd::sweep_i16(tile, column, q_m);
            }
            for (v, &a) in out.iter_mut().zip(tile.iter()) {
                *v = f64::from(a) * I16_WRITEOUT;
            }
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// The total nearest-lobe vote of `measurements` at each of `cells`
    /// (flat grid indices), in list order: stage 2 scores the stage-1
    /// filter's kept cells through here, with no dense map around them.
    /// Each vote has the bits [`VoteEngine::evaluate`] gives its cell at
    /// this precision (at [`TablePrecision::F64`] also those of
    /// [`VoteMap::evaluate`] and [`VoteMap::evaluate_masked`]), whether or
    /// not the table is built yet.
    ///
    /// # Panics
    /// Panics if a cell index is outside the grid.
    pub fn evaluate_cells(&self, measurements: &[PairMeasurement], cells: &[usize]) -> Vec<f64> {
        assert!(
            cells.iter().all(|&c| c < self.grid.len()),
            "cell index outside the grid"
        );
        match self.precision {
            TablePrecision::F64 => self.evaluate_cells_f64(measurements, cells),
            TablePrecision::I16 => self.evaluate_cells_i16(measurements, cells),
        }
    }

    /// Cell-list evaluation at f64. A built table is gathered from, each
    /// measurement's pair column in turn; without one, each cell's entries
    /// are computed on the fly rather than building the table (the stage-1
    /// filter keeps a few percent of the fine grid, so a one-shot table
    /// would cost more than it saves). Per cell, both paths subtract the
    /// `-f²` terms in measurement order with the reference path's
    /// operations, so which one runs never changes a bit.
    fn evaluate_cells_f64(&self, measurements: &[PairMeasurement], cells: &[usize]) -> Vec<f64> {
        let cols = self.columns(measurements);
        let n_cells = self.grid.len();
        let table = self.table.get();
        let mut votes = vec![0.0; cells.len()];
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        if let Some(table) = table {
            for &(col, measured) in &cols {
                let column = &table[col * n_cells..(col + 1) * n_cells];
                rfidraw_simd::gather_f64(&mut votes, column, cells, measured);
            }
        } else {
            for (v, &c) in votes.iter_mut().zip(cells) {
                let p3 = self.cell_point(c);
                for &(col, measured) in &cols {
                    let turns = self.pair_turns(p3, self.geom[col]);
                    let f = frac_dist_to_integer(turns - measured);
                    *v -= f * f;
                }
            }
        }
        votes
    }

    /// Cell-list evaluation at i16, with the f64 path's two strategies: a
    /// built table is gathered from in tiles of [`CELL_TILE`] cells;
    /// without one, each cell's turns are quantized on the fly by the
    /// exact quantizer that fills the table. Both run the i16 kernels'
    /// per-cell sequence (wrapping subtract, exact f32 widen, fused
    /// square-and-subtract) in measurement order and the full map's
    /// write-out, so both match the full i16 map bit for bit.
    fn evaluate_cells_i16(&self, measurements: &[PairMeasurement], cells: &[usize]) -> Vec<f64> {
        let cols = self.columns_i16(measurements);
        let n_cells = self.grid.len();
        let table = self.table_i16.get();
        let mut acc = vec![0.0f32; cells.len()];
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        if let Some(table) = table {
            for (tile, tile_cells) in acc.chunks_mut(CELL_TILE).zip(cells.chunks(CELL_TILE)) {
                for &(col, q_m) in &cols {
                    let column = &table[col * n_cells..(col + 1) * n_cells];
                    rfidraw_simd::gather_i16(tile, column, tile_cells, q_m);
                }
            }
        } else {
            for (a, &c) in acc.iter_mut().zip(cells) {
                let p3 = self.cell_point(c);
                for &(col, q_m) in &cols {
                    let q = quantize_turns_i16(self.pair_turns(p3, self.geom[col]));
                    let d = i32::from(q.wrapping_sub(q_m)) as f32;
                    *a = (-d).mul_add(d, *a);
                }
            }
        }
        acc.into_iter().map(|a| f64::from(a) * I16_WRITEOUT).collect()
    }

    /// A **derived** worst-case bound on `|vote_p(c) − vote_f64(c)|` over
    /// every cell `c`, for this engine, measurement set and precision `p`
    /// — the quantity the accuracy gates assert against, computed from
    /// the actual table magnitudes rather than assumed.
    ///
    /// For F64 the engine is bit-identical to the reference, so the bound
    /// is zero. For I16 (2¹⁶ quanta per turn, quantization step
    /// `h = 2⁻¹⁶` turns; ε₃₂ = 2⁻²⁴, ε₆₄ = 2⁻⁵³; full walk-through in
    /// DESIGN.md §15), with `x = t − m` the exact difference of a cell's
    /// f64 table entry `t` and the measured turns `m`, `g(x) = |x −
    /// nearest_int(x)|` the triangle wave both kernels evaluate, and
    /// `Sₖ = max_c |t| + |m|` for measurement `k`:
    ///
    /// 1. **Quantization.** Table entry and measured turns each round to
    ///    the nearest quantum (error ≤ `h/2`), so the dequantized
    ///    difference is within `h` of `x` — modulo 1, because integer
    ///    turns wrap away at the type boundary.
    /// 2. **Exact fold.** The kernel's wrapping subtraction computes the
    ///    mod-1 remainder of the *quantized* difference exactly:
    ///    `|d|·h = g(x + δ)` with `|δ| ≤ h`. `g` is 1-Lipschitz — the
    ///    triangle wave is continuous through half-integer lobe switches —
    ///    so `|g(x+δ) − g(x)| ≤ h`, and `g ≤ ½` bounds the per-term damage
    ///    of squaring: `|ĝ² − g²| ≤ (ĝ + g)·h ≤ h`.
    /// 3. **Square and sum.** `d` widens to f32 exactly (|d| ≤ 2¹⁵ < 2²⁴)
    ///    and the *fused* `a − d·d` admits the exact product, so only the
    ///    accumulation rounds: partial sums after `j` of `n` terms are at
    ///    most `0.2501·j` turns² in magnitude, so the `j`-th fused term
    ///    errs by ≤ `ε₃₂·0.2501·j`; summed, `0.2501·ε₃₂·n(n+1)/2`.
    /// 4. **Exact write-out.** The f32 accumulator converts to f64
    ///    exactly, and `2⁻³²` is a power of two, so the scaling multiply
    ///    is exact.
    /// 5. **The f64 path is not exact either**: its subtraction `t − m`
    ///    rounds (≤ `ε₆₄·Sₖ`, propagated through the 1-Lipschitz fold and
    ///    the square as `1.01·ε₆₄·Sₖ`), its multiply adds `≤ 0.26·ε₆₄`,
    ///    and its accumulation the `0.2501·ε₆₄·n(n+1)/2` series — all
    ///    added, covering the distance between either computed sum and
    ///    the exact one.
    ///
    /// The i16 argmax cell is therefore **provably identical** to the f64
    /// argmax whenever the f64 map's gap between its best and runner-up
    /// cells exceeds twice this bound — the deployment-envelope criterion
    /// the kernel-equivalence suite asserts.
    ///
    /// Builds the f64 table if needed (step 5 needs the true column
    /// magnitudes).
    ///
    /// # Panics
    /// Panics if a measurement's pair is unknown to the engine, or if a
    /// column magnitude exceeds the `2²²`-turn envelope of
    /// [`quantize_turns_i16`].
    pub fn vote_error_bound(
        &self,
        measurements: &[PairMeasurement],
        precision: TablePrecision,
    ) -> f64 {
        if precision == TablePrecision::F64 {
            return 0.0;
        }
        const EPS32: f64 = 5.960_464_477_539_063e-8; // 2⁻²⁴
        const EPS64: f64 = 1.110_223_024_625_156_5e-16; // 2⁻⁵³
        const H: f64 = 1.0 / 65_536.0; // 2⁻¹⁶ turns
        let table = self.build_table();
        let n_cells = self.grid.len();
        let mut per_term = 0.0f64;
        for (col, measured) in self.columns(measurements) {
            let col_max = table[col * n_cells..(col + 1) * n_cells]
                .iter()
                .fold(0.0f64, |m, &t| m.max(t.abs()));
            let s = col_max + measured.abs();
            assert!(
                s < (1u64 << 22) as f64,
                "measurement magnitude {s} turns exceeds the quantization envelope"
            );
            per_term += H + 1.01 * EPS64 * s + 0.26 * EPS64;
        }
        let n = measurements.len() as f64;
        per_term + 0.2501 * (EPS32 + EPS64) * n * (n + 1.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point2, Rect};
    use crate::vote::ideal_measurements;

    fn setup() -> (Deployment, Plane, Grid2, Vec<PairMeasurement>) {
        let dep = Deployment::paper_default();
        let plane = Plane::at_depth(2.0);
        let grid = Grid2::new(
            Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0)),
            0.05,
        );
        let truth = plane.lift(Point2::new(1.2, 0.9));
        let ms = ideal_measurements(&dep, dep.all_pairs(), truth);
        (dep, plane, grid, ms)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn engine_matches_reference_evaluate_bitwise() {
        let (dep, plane, grid, ms) = setup();
        let reference = VoteMap::evaluate(&dep, &ms, plane, grid.clone());
        let engine = VoteEngine::for_deployment(&dep, plane, grid);
        let map = engine.evaluate(&ms);
        assert_eq!(bits(reference.values()), bits(map.values()));
    }

    /// The kept cells of `mask`, ascending: the shape of a lifted filter.
    fn kept(mask: &[bool]) -> Vec<usize> {
        (0..mask.len()).filter(|&c| mask[c]).collect()
    }

    #[test]
    fn masked_lazy_and_table_paths_agree_with_reference() {
        let (dep, plane, grid, ms) = setup();
        let mask: Vec<bool> = (0..grid.len()).map(|i| i % 3 != 0).collect();
        let cells = kept(&mask);
        let reference = VoteMap::evaluate_masked(&dep, &ms, plane, grid.clone(), &mask);
        let want: Vec<f64> = cells.iter().map(|&c| reference.values()[c]).collect();
        let engine = VoteEngine::for_deployment(&dep, plane, grid);
        // Lazy path first (no table yet), then the table-backed path.
        assert!(!engine.is_table_built());
        let lazy = engine.evaluate_cells(&ms, &cells);
        assert!(!engine.is_table_built(), "the lazy path must not build the table");
        engine.build_table();
        let tabled = engine.evaluate_cells(&ms, &cells);
        assert_eq!(bits(&want), bits(&lazy));
        assert_eq!(bits(&want), bits(&tabled));
    }

    #[test]
    #[should_panic(expected = "cell index outside the grid")]
    fn cell_list_rejects_cells_outside_the_grid() {
        let (dep, plane, grid, ms) = setup();
        let outside = grid.len();
        let engine = VoteEngine::for_deployment(&dep, plane, grid);
        let _ = engine.evaluate_cells(&ms, &[0, outside]);
    }

    #[test]
    fn subset_measurements_score_like_reference() {
        // Stage 1 scores only the coarse pairs through the all-pairs engine.
        let (dep, plane, grid, ms) = setup();
        let coarse: Vec<PairMeasurement> = ms
            .iter()
            .filter(|m| dep.coarse_pairs().any(|p| *p == m.pair))
            .copied()
            .collect();
        assert!(!coarse.is_empty());
        let reference = VoteMap::evaluate(&dep, &coarse, plane, grid.clone());
        let engine = VoteEngine::for_deployment(&dep, plane, grid);
        assert_eq!(bits(reference.values()), bits(engine.evaluate(&coarse).values()));
    }

    #[test]
    fn table_is_built_once_and_reused() {
        let (dep, plane, grid, ms) = setup();
        let engine = VoteEngine::for_deployment(&dep, plane, grid);
        let first = engine.build_table().as_ptr();
        engine.evaluate(&ms);
        assert_eq!(first, engine.build_table().as_ptr());
        assert!(engine.is_table_built());
    }

    #[test]
    fn cloned_engines_share_one_table() {
        let (dep, plane, grid, _) = setup();
        let a = VoteEngine::for_deployment(&dep, plane, grid);
        let b = a.clone();
        assert!(!a.is_table_built() && !b.is_table_built(), "cloning must not build eagerly");
        // Whichever engine builds first builds the one physical table both use.
        a.build_table();
        assert!(b.is_table_built());
        assert_eq!(a.build_table().as_ptr(), b.build_table().as_ptr());
        assert_eq!(
            b.table_bytes(),
            (a.build_table().len() * std::mem::size_of::<f64>()) as u64
        );
    }

    #[test]
    fn shared_table_scores_like_a_private_one() {
        let (dep, plane, grid, ms) = setup();
        let private = VoteEngine::for_deployment(&dep, plane, grid);
        let reference = private.evaluate(&ms);
        let a = private.clone();
        let b = a.clone();
        a.build_table();
        assert_eq!(bits(reference.values()), bits(b.evaluate(&ms).values()));
    }

    #[test]
    #[should_panic(expected = "not in this engine's pair set")]
    fn unknown_measurement_pair_panics() {
        let (dep, plane, grid, _) = setup();
        let wide_only: Vec<AntennaPair> = dep.wide_pairs().to_vec();
        let engine = VoteEngine::new(&dep, plane, grid, wide_only);
        let coarse_pair = dep.coarse_primary_pairs()[0];
        let _ = engine.evaluate(&[PairMeasurement::new(coarse_pair, 0.1)]);
    }

    #[test]
    fn empty_pair_set_scores_zero_everywhere() {
        let (dep, plane, grid, _) = setup();
        let engine = VoteEngine::new(&dep, plane, grid, Vec::new());
        let map = engine.evaluate(&[]);
        assert!(map.values().iter().all(|&v| v == 0.0));
    }

    fn engine_at(
        dep: &Deployment,
        plane: Plane,
        grid: Grid2,
        precision: TablePrecision,
    ) -> VoteEngine {
        let mut e = VoteEngine::for_deployment(dep, plane, grid);
        e.set_precision(precision);
        e
    }

    /// Best-vs-runner-up gap of a map, over finite cells.
    fn gap(map: &VoteMap) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &v in map.values() {
            if v > best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        best - second
    }

    #[test]
    fn quantized_tables_shrink_bytes_by_type_width() {
        let (dep, plane, grid, _) = setup();
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid);
        let f64_bytes = engine.table_bytes();
        engine.set_precision(TablePrecision::I16);
        assert_eq!(engine.table_bytes() * 4, f64_bytes);
        assert_eq!(
            engine.build_table_i16().len() * std::mem::size_of::<i16>(),
            engine.table_bytes() as usize
        );
    }

    #[test]
    fn quantized_votes_stay_within_derived_bound_and_argmax_matches() {
        let (dep, plane, grid, ms) = setup();
        let reference = VoteEngine::for_deployment(&dep, plane, grid.clone());
        let f64_map = reference.evaluate(&ms);
        let map = engine_at(&dep, plane, grid, TablePrecision::I16).evaluate(&ms);
        let bound = reference.vote_error_bound(&ms, TablePrecision::I16);
        // One quantum per measurement dominates; the bound must be
        // meaningful (small) as well as honored.
        assert!(bound <= ms.len() as f64 / 65_536.0 * 1.01, "loose {bound}");
        let worst = f64_map
            .values()
            .iter()
            .zip(map.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= bound, "worst |Δvote| {worst:e} > bound {bound:e}");
        // The argmax-identity theorem, under its gap premise.
        if gap(&f64_map) > 2.0 * bound {
            assert_eq!(f64_map.argmax().0, map.argmax().0);
        }
        // On this clean scene the i16 gap premise must actually hold (the
        // theorem should not be vacuous at the precision we gate CI on).
        assert!(gap(&f64_map) > 2.0 * bound);
        assert_eq!(reference.vote_error_bound(&ms, TablePrecision::F64), 0.0);
    }

    #[test]
    fn quantized_masked_matches_full_map() {
        let (dep, plane, grid, ms) = setup();
        let cells = kept(&(0..grid.len()).map(|i| i % 3 != 0).collect::<Vec<_>>());
        let engine = engine_at(&dep, plane, grid, TablePrecision::I16);
        // Lazy cell-list path first (no table yet), then table-backed.
        assert!(!engine.is_table_built());
        let lazy = engine.evaluate_cells(&ms, &cells);
        engine.prebuild();
        assert!(engine.is_table_built());
        let tabled = engine.evaluate_cells(&ms, &cells);
        assert_eq!(bits(&lazy), bits(&tabled));
        let full = engine.evaluate(&ms);
        let want: Vec<f64> = cells.iter().map(|&c| full.values()[c]).collect();
        assert_eq!(bits(&want), bits(&tabled));
    }

    #[test]
    fn set_precision_detaches_onto_fresh_private_slots() {
        let (dep, plane, grid, _) = setup();
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid);
        engine.build_table();
        assert!(engine.is_table_built());
        engine.set_precision(TablePrecision::I16);
        // The built f64 table was dropped with the old slot; the i16 slot
        // is fresh. Setting the same precision again is a no-op.
        assert!(!engine.is_table_built());
        engine.build_table_i16();
        let ptr = engine.build_table_i16().as_ptr();
        engine.set_precision(TablePrecision::I16);
        assert_eq!(ptr, engine.build_table_i16().as_ptr());
    }
}
