//! The parallel, cache-aware vote-map engine.
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
//! **bit-identical** to the reference — and bit-identical for every thread
//! count, since shards write disjoint cell ranges and never combine sums.
//!
//! Masked evaluation has two internally-identical paths: if the table is
//! already built, the kept cells are gathered from the pair columns;
//! otherwise distances are computed on the fly for unmasked cells only
//! (the stage-1 filter typically keeps < 10% of the fine grid, so eagerly
//! building the full fine table would cost more than a one-shot masked
//! evaluation saves). Both paths compute each kept cell with the same
//! operations, so which one runs never changes the result.
//!
//! ## Table precision
//!
//! The engine keeps two table slots, one per [`TablePrecision`]. The `f64`
//! table is the reference: bit-identical to [`VoteMap::evaluate`], used by
//! every accuracy-critical path. The `f32` table halves the bytes streamed
//! per sweep (the kernel is memory-bound on the 1 cm grid) and doubles the
//! SIMD lane count; its per-cell accumulation runs entirely in `f32`
//! (table entry, measured turns, `-f²` terms, partial sums) and widens to
//! `f64` only when the finished accumulator is written out — an exact
//! conversion. The sweep is additionally *tiled* over the cell dimension
//! (`CELL_TILE` cells per tile) so the accumulator tile stays in L1
//! while the pair columns stream through. Neither tiling nor sharding
//! changes any per-cell operation sequence, so f32 results are
//! bit-identical across every [`Parallelism`] setting and tile boundary.
//! The f32 path's worst-case vote error versus the f64 reference is not
//! assumed: [`VoteEngine::f32_vote_error_bound`] *derives* it from the
//! actual table magnitudes (see DESIGN.md §11), and the test suites assert
//! both the bound and argmax-cell agreement.
//!
//! ## Quantized tables
//!
//! Below f32 sit two fixed-point precisions. `I16` and `I8` store each
//! entry's *fractional* turns as two's-complement fixed point at the full
//! type width (2¹⁶ or 2⁸ quanta per turn, the per-table scale recorded
//! with the table): integer turns wrap away at quantization,
//! and the kernel's wrapping subtraction `q_t − q_m` *is* the
//! modulo-1-turn fold — no rounding, no libm, no lobe search. The
//! difference squares and accumulates per-lane in a fixed order: `I8`
//! in plain i32 (exact and associative), `I16` in f32 — the widened
//! difference fits 16 bits, so `d as f32` is exact, and squaring an
//! i16-range value into an f32 accumulator costs one bounded rounding
//! per term instead of the i64 widening chain whose extra ops and
//! 8-byte accumulator traffic erased the bandwidth win over f32. Both
//! run identical per-cell instruction sequences in scalar and SIMD
//! form, so quantized maps are bit-identical across every
//! [`Parallelism`] setting, tile boundary, and SIMD width. The finished
//! accumulator widens to f64 and scales by the exact power of two
//! `2⁻²ᴮ` at write-out. What quantization costs is a *derived*,
//! per-measurement-set vote-error bound
//! ([`VoteEngine::vote_error_bound`]): one quantum (`2⁻ᴮ` turns) per
//! measurement, plus (for I16) the f32 accumulation series, plus the
//! f64 reference path's own rounding, with the same argmax-identity
//! theorem as f32 — the argmax cell provably matches the f64 reference
//! whenever the f64 best/runner-up gap exceeds twice the bound.
//!
//! The inner sweeps of the f32 and quantized kernels run through
//! [`rfidraw_simd`]: explicit AVX2/SSE4.1 kernels selected at runtime,
//! each bit-identical to its scalar form (see that crate's docs for the
//! argument), so the wide path no longer depends on the autovectorizer's
//! mood on the baseline target. [`VoteEngine::set_simd_mode`] can pin the
//! scalar kernel; results never change, only wall-clock.
//!
//! The table slots are `Arc`s, so a cloned engine shares its original's
//! tables: both score the same grid, and whichever builds a table first
//! builds it for both.

use crate::array::{AntennaPair, Deployment};
use crate::exec::Parallelism;
use crate::geom::{Plane, Point3};
use crate::grid::{Grid2, GridWindow, VoteMap};
#[cfg(feature = "trace")]
use crate::obs::{self, SharedSink, Stage};
use crate::phase::{
    frac_dist_to_integer, frac_dist_to_integer_f32, quantize_turns_i16, quantize_turns_i8,
};
use crate::vote::PairMeasurement;
use rfidraw_simd::SimdMode;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Cells per accumulator tile in the f32 sweep: 4096 × 4 B = 16 KiB of
/// accumulators, comfortably inside L1 alongside the streamed column
/// slices. Tiling never changes a result — each cell's terms still arrive
/// in measurement order — so the value is pure tuning.
const CELL_TILE: usize = 4096;

/// Cells per accumulator tile in the i16 sweep: f32 accumulators, same
/// 16 KiB L1 footprint as the f32 tile. Tiling never reorders a cell's
/// terms, so the value is pure tuning.
const CELL_TILE_I16: usize = 4096;

/// Cells per accumulator tile in the i8 sweep: i32 accumulators, so the
/// f32 tile count keeps the 16 KiB footprint.
const CELL_TILE_I8: usize = 4096;

/// Which numeric representation backs an engine's distance-difference
/// table.
///
/// `F64` is the bit-exact reference; `F32` halves table bytes and memory
/// bandwidth with a rigorously bounded vote error (see
/// [`VoteEngine::f32_vote_error_bound`]); `I16` and `I8` quantize the
/// fractional turns to fixed point for 4× / 8× compression over f64, with
/// their own derived bound ([`VoteEngine::vote_error_bound`]) and exact
/// integer accumulation (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TablePrecision {
    /// Double-precision tables — bit-identical to [`VoteMap::evaluate`].
    F64,
    /// Single-precision tables — half the bytes, bounded vote error.
    F32,
    /// 16-bit fixed-point tables (2¹⁶ quanta per turn) — a quarter of the
    /// f64 bytes, exact integer accumulation, bound of one `2⁻¹⁶`-turn
    /// quantum per measurement.
    I16,
    /// 8-bit fixed-point tables (2⁸ quanta per turn) — an eighth of the
    /// f64 bytes; the coarse end of the precision ladder, still with a
    /// derived bound (`2⁻⁸` turns per measurement).
    I8,
}

impl Default for TablePrecision {
    fn default() -> Self {
        TablePrecision::F64
    }
}

impl TablePrecision {
    /// Every precision, in byte-cost order.
    pub const ALL: [TablePrecision; 4] =
        [TablePrecision::F64, TablePrecision::F32, TablePrecision::I16, TablePrecision::I8];

    /// Bytes per table entry at this precision.
    pub fn entry_bytes(self) -> u64 {
        match self {
            TablePrecision::F64 => std::mem::size_of::<f64>() as u64,
            TablePrecision::F32 => std::mem::size_of::<f32>() as u64,
            TablePrecision::I16 => std::mem::size_of::<i16>() as u64,
            TablePrecision::I8 => std::mem::size_of::<i8>() as u64,
        }
    }

    /// The lower-case label reports use for this precision.
    pub fn label(self) -> &'static str {
        match self {
            TablePrecision::F64 => "f64",
            TablePrecision::F32 => "f32",
            TablePrecision::I16 => "i16",
            TablePrecision::I8 => "i8",
        }
    }
}

/// A built fixed-point table: the pair-major quantized entries plus the
/// scale the builder chose for them.
///
/// The scale is *per table*, recorded at build time: the kernels read it
/// back for the exact `2⁻²ᴮ` write-out factor rather than hard-coding a
/// width. The builder always picks the full type width (16 or 8 bits per
/// turn) because that is the unique scale at which two's-complement
/// wrap-around performs the modulo-1-turn fold for free — any narrower
/// scale would alias lobes — so the field documents and enforces the
/// choice rather than searching over it.
#[derive(Debug)]
pub(crate) struct QuantTable<T> {
    /// Quanta per turn, as a power of two: `2^scale_bits`.
    pub(crate) scale_bits: u32,
    /// Pair-major quantized entries, `data[k · n_cells + c]`.
    pub(crate) data: Vec<T>,
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
    parallelism: Parallelism,
    /// Pair-major distance-difference table in turns:
    /// `table[k * grid.len() + c] = turns_factor · (|P_c − pos_i_k| − |P_c − pos_j_k|)`.
    /// Built on first use (see module docs for when that pays off). Behind
    /// an `Arc` so clones of the engine share one physical table; a fresh
    /// engine always starts with a private slot.
    table: Arc<OnceLock<Vec<f64>>>,
    /// The single-precision sibling of `table`: same pair-major layout,
    /// each entry the correctly-rounded `f32` of the f64 entry. Built
    /// independently (an F32-only engine never materializes the f64
    /// table).
    table_f32: Arc<OnceLock<Vec<f32>>>,
    /// The 16-bit fixed-point sibling: fractional turns at 2¹⁶ quanta per
    /// turn, integer turns wrapped away (see [`QuantTable`]).
    table_i16: Arc<OnceLock<QuantTable<i16>>>,
    /// The 8-bit fixed-point sibling (2⁸ quanta per turn).
    table_i8: Arc<OnceLock<QuantTable<i8>>>,
    /// Which table `evaluate*` uses. `F64` unless configured otherwise.
    precision: TablePrecision,
    /// Which accumulation kernels the f32/quantized sweeps may use.
    /// Results are bit-identical either way; `Auto` unless pinned.
    simd: SimdMode,
    #[cfg(feature = "trace")]
    sink: Option<SharedSink>,
    #[cfg(feature = "trace")]
    session: u64,
}

impl VoteEngine {
    /// Creates an engine scoring the given pairs on `grid`.
    ///
    /// # Panics
    /// Panics if a pair references an antenna the deployment does not have.
    pub fn new(
        dep: &Deployment,
        plane: Plane,
        grid: Grid2,
        pairs: Vec<AntennaPair>,
        parallelism: Parallelism,
    ) -> Self {
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
            parallelism,
            table: Arc::new(OnceLock::new()),
            table_f32: Arc::new(OnceLock::new()),
            table_i16: Arc::new(OnceLock::new()),
            table_i8: Arc::new(OnceLock::new()),
            precision: TablePrecision::default(),
            simd: SimdMode::Auto,
            #[cfg(feature = "trace")]
            sink: None,
            #[cfg(feature = "trace")]
            session: 0,
        }
    }

    /// An engine over every pair of the deployment — what the positioner
    /// uses, since any measurement subset can then be scored.
    pub fn for_deployment(
        dep: &Deployment,
        plane: Plane,
        grid: Grid2,
        parallelism: Parallelism,
    ) -> Self {
        let pairs: Vec<AntennaPair> = dep.all_pairs().copied().collect();
        Self::new(dep, plane, grid, pairs, parallelism)
    }

    /// The grid this engine evaluates on.
    pub fn grid(&self) -> &Grid2 {
        &self.grid
    }

    /// The pairs this engine can score, in table-column order.
    pub fn pairs(&self) -> &[AntennaPair] {
        &self.pairs
    }

    /// The execution policy in use.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Changes the execution policy. Never changes any result (see the
    /// module docs), only how the work is sharded.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
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
            self.table_f32 = Arc::new(OnceLock::new());
            self.table_i16 = Arc::new(OnceLock::new());
            self.table_i8 = Arc::new(OnceLock::new());
        }
    }

    /// Which accumulation kernels the f32/quantized sweeps may use.
    pub fn simd_mode(&self) -> SimdMode {
        self.simd
    }

    /// Pins or unpins the explicit-SIMD kernels. Never changes any result
    /// — every wide kernel is bit-identical to its scalar form (see
    /// [`rfidraw_simd`]) — only wall-clock; benches use it to measure the
    /// explicit-SIMD margin and tests to assert the bit-identity.
    pub fn set_simd_mode(&mut self, simd: SimdMode) {
        self.simd = simd;
    }

    /// The bytes the active-precision table occupies once built (exactly
    /// `grid cells × pairs × entry size`; the table is a dense rectangle).
    pub fn table_bytes(&self) -> u64 {
        self.grid.len() as u64 * self.pairs.len() as u64 * self.precision.entry_bytes()
    }

    /// Installs (or removes) a trace sink; evaluation spans and per-shard
    /// timings are emitted to it tagged with `session`. Observability only:
    /// never changes any computed value (see [`crate::obs`]).
    #[cfg(feature = "trace")]
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>, session: u64) {
        self.sink = sink;
        self.session = session;
    }

    /// Whether the active-precision distance-difference table has been
    /// built yet.
    pub fn is_table_built(&self) -> bool {
        match self.precision {
            TablePrecision::F64 => self.table.get().is_some(),
            TablePrecision::F32 => self.table_f32.get().is_some(),
            TablePrecision::I16 => self.table_i16.get().is_some(),
            TablePrecision::I8 => self.table_i8.get().is_some(),
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
            TablePrecision::F32 => {
                self.build_table_f32();
            }
            TablePrecision::I16 => {
                self.build_table_i16();
            }
            TablePrecision::I8 => {
                self.build_table_i8();
            }
        }
    }

    /// Builds (once) and returns the pair-major distance-difference table.
    /// Called implicitly by [`VoteEngine::evaluate`]; benches call it
    /// explicitly to measure steady-state evaluation separately from the
    /// one-time precomputation.
    pub fn build_table(&self) -> &[f64] {
        self.table.get_or_init(|| {
            #[cfg(feature = "trace")]
            let _span =
                obs::SpanTimer::start(self.sink.as_ref(), self.session, Stage::EngineTable, 0.0);
            let n_cells = self.grid.len();
            let mut table = vec![0.0; n_cells * self.pairs.len()];
            for (column, &(pi, pj)) in table.chunks_mut(n_cells).zip(&self.geom) {
                self.parallelism.run_row_sharded(column, 1, |first, shard| {
                    for (i, slot) in shard.iter_mut().enumerate() {
                        let (ix, iz) = self.grid.unflat(first + i);
                        let p3 = self.plane.lift(self.grid.point(ix, iz));
                        *slot = self.turns_factor * (p3.dist(pi) - p3.dist(pj));
                    }
                });
            }
            table
        })
    }

    /// Builds (once) and returns the single-precision table. Each entry is
    /// the correctly-rounded `f32` of the f64 entry the reference table
    /// would hold at the same index (the `as f32` cast rounds to nearest,
    /// ties to even); the f64 table itself is never materialized here, so
    /// an F32-only fleet pays only the half-size table.
    pub fn build_table_f32(&self) -> &[f32] {
        self.table_f32.get_or_init(|| {
            #[cfg(feature = "trace")]
            let _span =
                obs::SpanTimer::start(self.sink.as_ref(), self.session, Stage::EngineTable, 0.0);
            let n_cells = self.grid.len();
            let mut table = vec![0.0f32; n_cells * self.pairs.len()];
            for (column, &(pi, pj)) in table.chunks_mut(n_cells).zip(&self.geom) {
                self.parallelism.run_row_sharded(column, 1, |first, shard| {
                    for (i, slot) in shard.iter_mut().enumerate() {
                        let (ix, iz) = self.grid.unflat(first + i);
                        let p3 = self.plane.lift(self.grid.point(ix, iz));
                        *slot = (self.turns_factor * (p3.dist(pi) - p3.dist(pj))) as f32;
                    }
                });
            }
            table
        })
    }

    /// Builds (once) and returns the 16-bit fixed-point table. Each entry
    /// quantizes the exact turns to 2¹⁶ quanta per turn with integer turns
    /// wrapped away ([`quantize_turns_i16`]); neither float table is
    /// materialized, so an I16-only fleet pays only the quarter-size
    /// table. The scale is recorded in the returned [`QuantTable`].
    pub(crate) fn build_table_i16(&self) -> &QuantTable<i16> {
        self.table_i16.get_or_init(|| {
            #[cfg(feature = "trace")]
            let _span =
                obs::SpanTimer::start(self.sink.as_ref(), self.session, Stage::EngineTable, 0.0);
            let n_cells = self.grid.len();
            let mut data = vec![0i16; n_cells * self.pairs.len()];
            for (column, &(pi, pj)) in data.chunks_mut(n_cells).zip(&self.geom) {
                self.parallelism.run_row_sharded(column, 1, |first, shard| {
                    for (i, slot) in shard.iter_mut().enumerate() {
                        let (ix, iz) = self.grid.unflat(first + i);
                        let p3 = self.plane.lift(self.grid.point(ix, iz));
                        *slot = quantize_turns_i16(self.turns_factor * (p3.dist(pi) - p3.dist(pj)));
                    }
                });
            }
            QuantTable { scale_bits: i16::BITS, data }
        })
    }

    /// Builds (once) and returns the 8-bit fixed-point table (2⁸ quanta
    /// per turn; see [`VoteEngine::build_table_i16`]).
    pub(crate) fn build_table_i8(&self) -> &QuantTable<i8> {
        self.table_i8.get_or_init(|| {
            #[cfg(feature = "trace")]
            let _span =
                obs::SpanTimer::start(self.sink.as_ref(), self.session, Stage::EngineTable, 0.0);
            let n_cells = self.grid.len();
            let mut data = vec![0i8; n_cells * self.pairs.len()];
            for (column, &(pi, pj)) in data.chunks_mut(n_cells).zip(&self.geom) {
                self.parallelism.run_row_sharded(column, 1, |first, shard| {
                    for (i, slot) in shard.iter_mut().enumerate() {
                        let (ix, iz) = self.grid.unflat(first + i);
                        let p3 = self.plane.lift(self.grid.point(ix, iz));
                        *slot = quantize_turns_i8(self.turns_factor * (p3.dist(pi) - p3.dist(pj)));
                    }
                });
            }
            QuantTable { scale_bits: i8::BITS, data }
        })
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

    /// [`VoteEngine::columns`] with the measured turns pre-rounded to
    /// `f32`, so the hot sweep never converts inside the loop.
    fn columns_f32(&self, measurements: &[PairMeasurement]) -> Vec<(usize, f32)> {
        self.columns(measurements)
            .into_iter()
            .map(|(col, measured)| (col, measured as f32))
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

    /// The i8 sibling of [`VoteEngine::columns_i16`]. The i32 accumulators
    /// carry terms ≤ 2¹⁴, so ≤ 2¹⁶ measurements keep every sum below 2³⁰.
    fn columns_i8(&self, measurements: &[PairMeasurement]) -> Vec<(usize, i8)> {
        assert!(
            measurements.len() <= 1 << 16,
            "i8 accumulation envelope: at most 2^16 measurements per evaluation"
        );
        self.columns(measurements)
            .into_iter()
            .map(|(col, measured)| (col, quantize_turns_i8(measured)))
            .collect()
    }

    /// The exact write-out factor of a quantized sweep: `2⁻²ᴮ`, mapping an
    /// integer sum of squared quanta back to squared turns. A power of
    /// two, so the f64 multiply at write-out is exact.
    fn quant_writeout_scale(scale_bits: u32) -> f64 {
        let per_turn = (1u64 << scale_bits) as f64;
        (per_turn * per_turn).recip()
    }

    /// Evaluates the total nearest-lobe vote of `measurements` on every
    /// lattice point. At [`TablePrecision::F64`] (the default) the result
    /// is bit-identical to [`VoteMap::evaluate`] on the same inputs; at
    /// [`TablePrecision::F32`] every vote is within
    /// [`VoteEngine::f32_vote_error_bound`] of the f64 reference. Either
    /// way the result is bit-identical across every [`Parallelism`]
    /// setting.
    pub fn evaluate(&self, measurements: &[PairMeasurement]) -> VoteMap {
        match self.precision {
            TablePrecision::F64 => self.evaluate_f64(measurements),
            TablePrecision::F32 => self.evaluate_f32(measurements),
            TablePrecision::I16 => self.evaluate_i16(measurements),
            TablePrecision::I8 => self.evaluate_i8(measurements),
        }
    }

    fn evaluate_f64(&self, measurements: &[PairMeasurement]) -> VoteMap {
        let cols = self.columns(measurements);
        let table = self.build_table();
        let n_cells = self.grid.len();
        let mut values = vec![0.0; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        self.parallelism.run_row_sharded(&mut values, 1, |first, shard| {
            #[cfg(feature = "trace")]
            let _shard_span = obs::SpanTimer::start(
                self.sink.as_ref(),
                self.session,
                Stage::EngineShard,
                first as f64,
            );
            // Measurement-outer: each sweep streams one contiguous slice of
            // one pair column. Per cell the sweeps subtract `-f²` terms in
            // measurement order, matching the reference path's per-cell
            // accumulation exactly.
            for &(col, measured) in &cols {
                let column = &table[col * n_cells + first..col * n_cells + first + shard.len()];
                for (v, &turns) in shard.iter_mut().zip(column) {
                    let f = frac_dist_to_integer(turns - measured);
                    *v -= f * f;
                }
            }
        });
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// The single-precision sweep: same measurement-outer / cell-inner
    /// loop nest over the f32 table, tiled over the cell dimension so the
    /// f32 accumulator tile ([`CELL_TILE`] cells) stays L1-resident while
    /// the pair columns stream. Accumulation is pure f32; each finished
    /// accumulator widens exactly to f64 on write-out. Per cell the `-f²`
    /// terms arrive in measurement order regardless of tile or shard
    /// boundaries, so the map is bit-identical for every [`Parallelism`]
    /// setting.
    fn evaluate_f32(&self, measurements: &[PairMeasurement]) -> VoteMap {
        let cols = self.columns_f32(measurements);
        let table = self.build_table_f32();
        let n_cells = self.grid.len();
        let mut values = vec![0.0f64; n_cells];
        let simd = self.simd;
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        self.parallelism.run_row_sharded(&mut values, 1, |first, shard| {
            #[cfg(feature = "trace")]
            let _shard_span = obs::SpanTimer::start(
                self.sink.as_ref(),
                self.session,
                Stage::EngineShard,
                first as f64,
            );
            let mut acc = vec![0.0f32; CELL_TILE.min(shard.len().max(1))];
            let mut offset = 0;
            while offset < shard.len() {
                let len = CELL_TILE.min(shard.len() - offset);
                let tile = &mut acc[..len];
                tile.fill(0.0);
                let base = first + offset;
                for &(col, measured) in &cols {
                    let column = &table[col * n_cells + base..col * n_cells + base + len];
                    rfidraw_simd::sweep_f32(tile, column, measured, simd);
                }
                for (v, &a) in shard[offset..offset + len].iter_mut().zip(tile.iter()) {
                    *v = f64::from(a);
                }
                offset += len;
            }
        });
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// The 16-bit fixed-point sweep: same tiled, measurement-outer /
    /// cell-inner loop nest as f32, but the per-cell difference is a
    /// wrapping subtract (the free mod-1-turn fold) on half-width table
    /// bytes; it then widens *exactly* to f32 (|d| ≤ 2¹⁵ < 2²⁴) and the
    /// fused `a − d·d` rounds once per term — the sweep's only rounding.
    /// Measurements go through [`rfidraw_simd::sweep_i16_dual`] in pairs
    /// (one accumulator pass per two columns), which is bit-identical to
    /// single sweeps by construction. Write-out converts the f32 sum to
    /// f64 (exact) and scales by the table's `2⁻²ᴮ` (exact: power of
    /// two). Every cell's terms arrive in measurement order through the
    /// identical per-lane instruction sequence, so the map is
    /// bit-identical for every [`Parallelism`], tile boundary, and
    /// [`SimdMode`].
    fn evaluate_i16(&self, measurements: &[PairMeasurement]) -> VoteMap {
        let cols = self.columns_i16(measurements);
        let table = self.build_table_i16();
        let scale = Self::quant_writeout_scale(table.scale_bits);
        let n_cells = self.grid.len();
        let mut values = vec![0.0f64; n_cells];
        let simd = self.simd;
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        self.parallelism.run_row_sharded(&mut values, 1, |first, shard| {
            #[cfg(feature = "trace")]
            let _shard_span = obs::SpanTimer::start(
                self.sink.as_ref(),
                self.session,
                Stage::EngineShard,
                first as f64,
            );
            let mut acc = vec![0.0f32; CELL_TILE_I16.min(shard.len().max(1))];
            let mut offset = 0;
            while offset < shard.len() {
                let len = CELL_TILE_I16.min(shard.len() - offset);
                let tile = &mut acc[..len];
                tile.fill(0.0);
                let base = first + offset;
                let mut pairs = cols.chunks_exact(2);
                for pair in &mut pairs {
                    let (col_a, q_a) = pair[0];
                    let (col_b, q_b) = pair[1];
                    let a = &table.data[col_a * n_cells + base..col_a * n_cells + base + len];
                    let b = &table.data[col_b * n_cells + base..col_b * n_cells + base + len];
                    rfidraw_simd::sweep_i16_dual(tile, a, q_a, b, q_b, simd);
                }
                for &(col, q_m) in pairs.remainder() {
                    let column = &table.data[col * n_cells + base..col * n_cells + base + len];
                    rfidraw_simd::sweep_i16(tile, column, q_m, simd);
                }
                for (v, &a) in shard[offset..offset + len].iter_mut().zip(tile.iter()) {
                    *v = f64::from(a) * scale;
                }
                offset += len;
            }
        });
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// The 8-bit sibling of [`VoteEngine::evaluate_i16`]: i32 tiles
    /// (terms ≤ 2¹⁴), otherwise the identical exact-integer structure.
    fn evaluate_i8(&self, measurements: &[PairMeasurement]) -> VoteMap {
        let cols = self.columns_i8(measurements);
        let table = self.build_table_i8();
        let scale = Self::quant_writeout_scale(table.scale_bits);
        let n_cells = self.grid.len();
        let mut values = vec![0.0f64; n_cells];
        let simd = self.simd;
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        self.parallelism.run_row_sharded(&mut values, 1, |first, shard| {
            #[cfg(feature = "trace")]
            let _shard_span = obs::SpanTimer::start(
                self.sink.as_ref(),
                self.session,
                Stage::EngineShard,
                first as f64,
            );
            let mut acc = vec![0i32; CELL_TILE_I8.min(shard.len().max(1))];
            let mut offset = 0;
            while offset < shard.len() {
                let len = CELL_TILE_I8.min(shard.len() - offset);
                let tile = &mut acc[..len];
                tile.fill(0);
                let base = first + offset;
                for &(col, q_m) in &cols {
                    let column = &table.data[col * n_cells + base..col * n_cells + base + len];
                    rfidraw_simd::sweep_i8(tile, column, q_m, simd);
                }
                for (v, &a) in shard[offset..offset + len].iter_mut().zip(tile.iter()) {
                    *v = -f64::from(a) * scale;
                }
                offset += len;
            }
        });
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// Evaluates only the cells inside `window`; everything outside gets
    /// `f64::NEG_INFINITY`. Each in-window cell is computed with exactly
    /// the per-cell operations of [`VoteEngine::evaluate`], so in-window
    /// values are bit-identical to the full-grid map (and a full-grid
    /// window reproduces [`VoteEngine::evaluate`] bit-for-bit) — at both
    /// precisions.
    ///
    /// Windows are expected to be small (a tracker's neighbourhood), so
    /// this path runs on the calling thread; the saving is doing O(window)
    /// work instead of O(grid), not sharding.
    ///
    /// # Panics
    /// Panics if the window's bounds fall outside the grid, or if a
    /// measurement's pair is not in this engine's pair set.
    pub fn evaluate_windowed(
        &self,
        measurements: &[PairMeasurement],
        window: &GridWindow,
    ) -> VoteMap {
        match self.precision {
            TablePrecision::F64 => self.evaluate_windowed_f64(measurements, window),
            TablePrecision::F32 => self.evaluate_windowed_f32(measurements, window),
            TablePrecision::I16 => self.evaluate_windowed_i16(measurements, window),
            TablePrecision::I8 => self.evaluate_windowed_i8(measurements, window),
        }
    }

    fn evaluate_windowed_f64(
        &self,
        measurements: &[PairMeasurement],
        window: &GridWindow,
    ) -> VoteMap {
        window.validate(&self.grid);
        let cols = self.columns(measurements);
        let table = self.build_table();
        let n_cells = self.grid.len();
        let mut values = vec![f64::NEG_INFINITY; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        for iz in window.iz0..=window.iz1 {
            let start = self.grid.flat(window.ix0, iz);
            let end = self.grid.flat(window.ix1, iz) + 1;
            let run = &mut values[start..end];
            run.fill(0.0);
            for &(col, measured) in &cols {
                let column = &table[col * n_cells + start..col * n_cells + end];
                for (v, &turns) in run.iter_mut().zip(column) {
                    let f = frac_dist_to_integer(turns - measured);
                    *v -= f * f;
                }
            }
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// Windowed sweep over the f32 table: each window row is its own
    /// accumulator tile (window rows are short by construction), with the
    /// same per-cell f32 operation sequence as [`VoteEngine::evaluate`] at
    /// F32, so in-window values are bit-identical to the full f32 map.
    fn evaluate_windowed_f32(
        &self,
        measurements: &[PairMeasurement],
        window: &GridWindow,
    ) -> VoteMap {
        window.validate(&self.grid);
        let cols = self.columns_f32(measurements);
        let table = self.build_table_f32();
        let n_cells = self.grid.len();
        let mut values = vec![f64::NEG_INFINITY; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let width = window.ix1 - window.ix0 + 1;
        let mut acc = vec![0.0f32; width];
        for iz in window.iz0..=window.iz1 {
            let start = self.grid.flat(window.ix0, iz);
            let end = self.grid.flat(window.ix1, iz) + 1;
            acc.fill(0.0);
            for &(col, measured) in &cols {
                let column = &table[col * n_cells + start..col * n_cells + end];
                rfidraw_simd::sweep_f32(&mut acc, column, measured, self.simd);
            }
            for (v, &a) in values[start..end].iter_mut().zip(acc.iter()) {
                *v = f64::from(a);
            }
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// Windowed sweep over the i16 table: each window row is its own f32
    /// accumulator run through the identical kernel, so in-window values
    /// are bit-identical to the full i16 map.
    fn evaluate_windowed_i16(
        &self,
        measurements: &[PairMeasurement],
        window: &GridWindow,
    ) -> VoteMap {
        window.validate(&self.grid);
        let cols = self.columns_i16(measurements);
        let table = self.build_table_i16();
        let scale = Self::quant_writeout_scale(table.scale_bits);
        let n_cells = self.grid.len();
        let mut values = vec![f64::NEG_INFINITY; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let width = window.ix1 - window.ix0 + 1;
        let mut acc = vec![0.0f32; width];
        for iz in window.iz0..=window.iz1 {
            let start = self.grid.flat(window.ix0, iz);
            let end = self.grid.flat(window.ix1, iz) + 1;
            acc.fill(0.0);
            for &(col, q_m) in &cols {
                let column = &table.data[col * n_cells + start..col * n_cells + end];
                rfidraw_simd::sweep_i16(&mut acc, column, q_m, self.simd);
            }
            for (v, &a) in values[start..end].iter_mut().zip(acc.iter()) {
                *v = f64::from(a) * scale;
            }
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// The i8 sibling of [`VoteEngine::evaluate_windowed_i16`].
    fn evaluate_windowed_i8(
        &self,
        measurements: &[PairMeasurement],
        window: &GridWindow,
    ) -> VoteMap {
        window.validate(&self.grid);
        let cols = self.columns_i8(measurements);
        let table = self.build_table_i8();
        let scale = Self::quant_writeout_scale(table.scale_bits);
        let n_cells = self.grid.len();
        let mut values = vec![f64::NEG_INFINITY; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let width = window.ix1 - window.ix0 + 1;
        let mut acc = vec![0i32; width];
        for iz in window.iz0..=window.iz1 {
            let start = self.grid.flat(window.ix0, iz);
            let end = self.grid.flat(window.ix1, iz) + 1;
            acc.fill(0);
            for &(col, q_m) in &cols {
                let column = &table.data[col * n_cells + start..col * n_cells + end];
                rfidraw_simd::sweep_i8(&mut acc, column, q_m, self.simd);
            }
            for (v, &a) in values[start..end].iter_mut().zip(acc.iter()) {
                *v = -f64::from(a) * scale;
            }
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// Like [`VoteEngine::evaluate`] but only on cells where `mask` is
    /// true; masked-out cells get `f64::NEG_INFINITY`. At
    /// [`TablePrecision::F64`], bit-identical to
    /// [`VoteMap::evaluate_masked`] on the same inputs; at
    /// [`TablePrecision::F32`], bit-identical to the f32 full-grid map on
    /// the kept cells, whether or not the f32 table is built yet.
    ///
    /// # Panics
    /// Panics if the mask length does not match the grid.
    pub fn evaluate_masked(&self, measurements: &[PairMeasurement], mask: &[bool]) -> VoteMap {
        match self.precision {
            TablePrecision::F64 => self.evaluate_masked_f64(measurements, mask),
            TablePrecision::F32 => self.evaluate_masked_f32(measurements, mask),
            TablePrecision::I16 => self.evaluate_masked_i16(measurements, mask),
            TablePrecision::I8 => self.evaluate_masked_i8(measurements, mask),
        }
    }

    fn evaluate_masked_f64(&self, measurements: &[PairMeasurement], mask: &[bool]) -> VoteMap {
        assert_eq!(mask.len(), self.grid.len(), "mask length must match the grid");
        let cols = self.columns(measurements);
        let n_cells = self.grid.len();
        let mut values = vec![0.0; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        if let Some(table) = self.table.get() {
            // Compact the kept cells once, accumulate measurement-outer
            // over the compact list (gathering from each pair column), and
            // scatter the sums back. Per kept cell the `-f²` terms arrive
            // in measurement order — the reference path's exact per-cell
            // sequence — and masked-out cells are set to `-inf` directly,
            // also exactly as the reference does.
            let kept: Vec<usize> = (0..n_cells).filter(|&c| mask[c]).collect();
            let mut acc = vec![0.0; kept.len()];
            self.parallelism.run_row_sharded(&mut acc, 1, |first, shard| {
                #[cfg(feature = "trace")]
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                let cells = &kept[first..first + shard.len()];
                for &(col, measured) in &cols {
                    let column = &table[col * n_cells..(col + 1) * n_cells];
                    for (a, &c) in shard.iter_mut().zip(cells) {
                        let f = frac_dist_to_integer(column[c] - measured);
                        *a -= f * f;
                    }
                }
            });
            values.fill(f64::NEG_INFINITY);
            for (&c, &a) in kept.iter().zip(&acc) {
                values[c] = a;
            }
        } else {
            // No table yet: compute distances on the fly for kept cells only.
            // Exactly the same per-cell operations as the table path (the
            // table entry *is* `turns`), so the result is bit-identical.
            self.parallelism.run_row_sharded(&mut values, 1, |first, shard| {
                #[cfg(feature = "trace")]
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                for (i, v) in shard.iter_mut().enumerate() {
                    let c = first + i;
                    if !mask[c] {
                        *v = f64::NEG_INFINITY;
                        continue;
                    }
                    let (ix, iz) = self.grid.unflat(c);
                    let p3 = self.plane.lift(self.grid.point(ix, iz));
                    let mut acc = 0.0;
                    for &(col, measured) in &cols {
                        let (pi, pj) = self.geom[col];
                        let turns = self.turns_factor * (p3.dist(pi) - p3.dist(pj));
                        let f = frac_dist_to_integer(turns - measured);
                        acc -= f * f;
                    }
                    *v = acc;
                }
            });
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// Masked sweep at f32. Mirrors the f64 path's two internally
    /// identical strategies: gather from the built f32 table, or compute
    /// turns on the fly (quantizing each on-the-fly entry with the exact
    /// `as f32` cast the table builder uses), so which path runs never
    /// changes a bit. Kept cells accumulate in f32 tiles and widen on
    /// write-out, exactly as [`VoteEngine::evaluate`] at F32 does.
    fn evaluate_masked_f32(&self, measurements: &[PairMeasurement], mask: &[bool]) -> VoteMap {
        assert_eq!(mask.len(), self.grid.len(), "mask length must match the grid");
        let cols = self.columns_f32(measurements);
        let n_cells = self.grid.len();
        let mut values = vec![f64::NEG_INFINITY; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let kept: Vec<usize> = (0..n_cells).filter(|&c| mask[c]).collect();
        let mut acc = vec![0.0f32; kept.len()];
        if let Some(table) = self.table_f32.get() {
            self.parallelism.run_row_sharded(&mut acc, 1, |first, shard| {
                #[cfg(feature = "trace")]
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                let cells = &kept[first..first + shard.len()];
                let mut offset = 0;
                while offset < shard.len() {
                    let len = CELL_TILE.min(shard.len() - offset);
                    let tile = &mut shard[offset..offset + len];
                    let tile_cells = &cells[offset..offset + len];
                    for &(col, measured) in &cols {
                        let column = &table[col * n_cells..(col + 1) * n_cells];
                        for (a, &c) in tile.iter_mut().zip(tile_cells) {
                            let f = frac_dist_to_integer_f32(column[c] - measured);
                            *a -= f * f;
                        }
                    }
                    offset += len;
                }
            });
        } else {
            // No f32 table yet: quantize on-the-fly turns exactly as the
            // table builder would, then run the identical f32 term
            // sequence per kept cell.
            self.parallelism.run_row_sharded(&mut acc, 1, |first, shard| {
                #[cfg(feature = "trace")]
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                for (i, a) in shard.iter_mut().enumerate() {
                    let c = kept[first + i];
                    let (ix, iz) = self.grid.unflat(c);
                    let p3 = self.plane.lift(self.grid.point(ix, iz));
                    for &(col, measured) in &cols {
                        let (pi, pj) = self.geom[col];
                        let turns = (self.turns_factor * (p3.dist(pi) - p3.dist(pj))) as f32;
                        let f = frac_dist_to_integer_f32(turns - measured);
                        *a -= f * f;
                    }
                }
            });
        }
        for (&c, &a) in kept.iter().zip(&acc) {
            values[c] = f64::from(a);
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// Masked sweep at i16. Mirrors the float paths' two strategies —
    /// gather from the built table, or quantize turns on the fly with the
    /// exact quantizer the table builder uses — and both run the scalar
    /// kernel's exact per-cell sequence (wrapping subtract, exact f32
    /// widen, fused square-and-subtract) in measurement order, so both
    /// paths and the full map agree bit-for-bit on kept cells.
    fn evaluate_masked_i16(&self, measurements: &[PairMeasurement], mask: &[bool]) -> VoteMap {
        assert_eq!(mask.len(), self.grid.len(), "mask length must match the grid");
        let cols = self.columns_i16(measurements);
        let n_cells = self.grid.len();
        let mut values = vec![f64::NEG_INFINITY; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let kept: Vec<usize> = (0..n_cells).filter(|&c| mask[c]).collect();
        let mut acc = vec![0.0f32; kept.len()];
        let scale;
        if let Some(table) = self.table_i16.get() {
            scale = Self::quant_writeout_scale(table.scale_bits);
            self.parallelism.run_row_sharded(&mut acc, 1, |first, shard| {
                #[cfg(feature = "trace")]
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                let cells = &kept[first..first + shard.len()];
                let mut offset = 0;
                while offset < shard.len() {
                    let len = CELL_TILE_I16.min(shard.len() - offset);
                    let tile = &mut shard[offset..offset + len];
                    let tile_cells = &cells[offset..offset + len];
                    for &(col, q_m) in &cols {
                        let column = &table.data[col * n_cells..(col + 1) * n_cells];
                        for (a, &c) in tile.iter_mut().zip(tile_cells) {
                            let d = i32::from(column[c].wrapping_sub(q_m)) as f32;
                            *a = (-d).mul_add(d, *a);
                        }
                    }
                    offset += len;
                }
            });
        } else {
            // No i16 table yet: quantize on-the-fly turns exactly as the
            // table builder would; the arithmetic that follows is the
            // scalar kernel's own sequence, so the result matches the
            // table path bit-for-bit.
            scale = Self::quant_writeout_scale(i16::BITS);
            self.parallelism.run_row_sharded(&mut acc, 1, |first, shard| {
                #[cfg(feature = "trace")]
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                for (i, a) in shard.iter_mut().enumerate() {
                    let c = kept[first + i];
                    let (ix, iz) = self.grid.unflat(c);
                    let p3 = self.plane.lift(self.grid.point(ix, iz));
                    for &(col, q_m) in &cols {
                        let (pi, pj) = self.geom[col];
                        let q = quantize_turns_i16(self.turns_factor * (p3.dist(pi) - p3.dist(pj)));
                        let d = i32::from(q.wrapping_sub(q_m)) as f32;
                        *a = (-d).mul_add(d, *a);
                    }
                }
            });
        }
        for (&c, &a) in kept.iter().zip(&acc) {
            values[c] = f64::from(a) * scale;
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// The i8 sibling of [`VoteEngine::evaluate_masked_i16`].
    fn evaluate_masked_i8(&self, measurements: &[PairMeasurement], mask: &[bool]) -> VoteMap {
        assert_eq!(mask.len(), self.grid.len(), "mask length must match the grid");
        let cols = self.columns_i8(measurements);
        let n_cells = self.grid.len();
        let mut values = vec![f64::NEG_INFINITY; n_cells];
        #[cfg(feature = "trace")]
        let _span = obs::SpanTimer::start(
            self.sink.as_ref(),
            self.session,
            Stage::EngineEvaluate,
            measurements.len() as f64,
        );
        let kept: Vec<usize> = (0..n_cells).filter(|&c| mask[c]).collect();
        let mut acc = vec![0i32; kept.len()];
        let scale;
        if let Some(table) = self.table_i8.get() {
            scale = Self::quant_writeout_scale(table.scale_bits);
            self.parallelism.run_row_sharded(&mut acc, 1, |first, shard| {
                #[cfg(feature = "trace")]
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                let cells = &kept[first..first + shard.len()];
                let mut offset = 0;
                while offset < shard.len() {
                    let len = CELL_TILE_I8.min(shard.len() - offset);
                    let tile = &mut shard[offset..offset + len];
                    let tile_cells = &cells[offset..offset + len];
                    for &(col, q_m) in &cols {
                        let column = &table.data[col * n_cells..(col + 1) * n_cells];
                        for (a, &c) in tile.iter_mut().zip(tile_cells) {
                            let d = i32::from(column[c].wrapping_sub(q_m));
                            *a += d * d;
                        }
                    }
                    offset += len;
                }
            });
        } else {
            scale = Self::quant_writeout_scale(i8::BITS);
            self.parallelism.run_row_sharded(&mut acc, 1, |first, shard| {
                #[cfg(feature = "trace")]
                let _shard_span = obs::SpanTimer::start(
                    self.sink.as_ref(),
                    self.session,
                    Stage::EngineShard,
                    first as f64,
                );
                for (i, a) in shard.iter_mut().enumerate() {
                    let c = kept[first + i];
                    let (ix, iz) = self.grid.unflat(c);
                    let p3 = self.plane.lift(self.grid.point(ix, iz));
                    for &(col, q_m) in &cols {
                        let (pi, pj) = self.geom[col];
                        let q = quantize_turns_i8(self.turns_factor * (p3.dist(pi) - p3.dist(pj)));
                        let d = i32::from(q.wrapping_sub(q_m));
                        *a += d * d;
                    }
                }
            });
        }
        for (&c, &a) in kept.iter().zip(&acc) {
            values[c] = -f64::from(a) * scale;
        }
        VoteMap::from_values(self.grid.clone(), values)
    }

    /// A **derived** worst-case bound on `|vote_f32(c) − vote_f64(c)|`
    /// over every cell `c`, for this engine and measurement set — the
    /// quantity the accuracy gates assert against, computed from the
    /// actual table magnitudes rather than assumed.
    ///
    /// Derivation (ε₃₂ = 2⁻²⁴, ε₆₄ = 2⁻⁵³; full walk-through in
    /// DESIGN.md §11). Let `t` be a cell's f64 table entry, `m` the
    /// measured turns, `x = t − m` in exact arithmetic, `g(x) = |x −
    /// nearest_int(x)|` the triangle wave both kernels evaluate, and
    /// `Sₖ = max_c |t| + |m|` for measurement `k`:
    ///
    /// 1. **Input rounding.** `fl32(t)` and `fl32(m)` each carry relative
    ///    error ε₃₂; their f32 subtraction adds one more. The computed
    ///    `d` satisfies `|d − x| ≤ 2.01·ε₃₂·Sₖ` (the 0.01 absorbs the
    ///    second-order cross terms).
    /// 2. **Exact frac.** The magic-number rounding in
    ///    [`frac_dist_to_integer_f32`] computes `g(d)` *exactly* (see its
    ///    docs), and `g` is 1-Lipschitz — the triangle wave is continuous
    ///    through half-integer lobe switches — so
    ///    `|g(d) − g(x)| ≤ 2.01·ε₃₂·Sₖ`.
    /// 3. **Square.** `g ≤ ½` gives `|g(d)² − g(x)²| ≤ (g(d)+g(x))·|g(d)
    ///    − g(x)| ≤ 1.01 · 2.01·ε₃₂·Sₖ`, and the f32 multiply adds
    ///    `≤ ε₃₂·¼·1.01 ≤ 0.26·ε₃₂`.
    /// 4. **Accumulation.** Partial sums after `j` of `n` terms are at
    ///    most `0.2501·j` in magnitude, so the `j`-th f32 subtraction errs
    ///    by `≤ ε₃₂·0.2501·j`; summing gives `≤ ε₃₂·0.2501·n(n+1)/2`.
    /// 5. **The f64 path is not exact either**: it carries the same-form
    ///    error with ε₆₄ in place of ε₃₂ (steps 1 and 3 shrink because
    ///    only the subtraction rounds), which the bound adds with the
    ///    coefficients `1.01·ε₆₄·Sₖ + 0.26·ε₆₄` per term plus the ε₆₄
    ///    accumulation series, covering the distance between either
    ///    computed sum and the exact one.
    ///
    /// The f32 argmax cell is therefore **provably identical** to the f64
    /// argmax whenever the f64 map's gap between its best and runner-up
    /// cells exceeds twice this bound — the deployment-envelope criterion
    /// the kernel-equivalence suite asserts.
    ///
    /// Builds the f64 table if needed (the bound needs the true column
    /// magnitudes).
    ///
    /// # Panics
    /// Panics if a measurement's pair is unknown to the engine, or if a
    /// column's `Sₖ` exceeds the `2²²` envelope of the exact-frac argument
    /// (physically impossible for any real deployment).
    pub fn f32_vote_error_bound(&self, measurements: &[PairMeasurement]) -> f64 {
        const EPS32: f64 = 5.960_464_477_539_063e-8; // 2⁻²⁴
        const EPS64: f64 = 1.110_223_024_625_156_5e-16; // 2⁻⁵³
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
                "measurement magnitude {s} turns exceeds the f32 envelope"
            );
            per_term += (2.01 * 1.01 * EPS32 + 1.01 * EPS64) * s + 0.26 * (EPS32 + EPS64);
        }
        let n = measurements.len() as f64;
        per_term + 0.2501 * (EPS32 + EPS64) * n * (n + 1.0) / 2.0
    }

    /// A **derived** worst-case bound on `|vote_p(c) − vote_f64(c)|` over
    /// every cell, for any precision `p` — the generalization of
    /// [`VoteEngine::f32_vote_error_bound`] to the quantized tables.
    ///
    /// For F64 the engine is bit-identical to the reference, so the bound
    /// is zero; F32 delegates to the f32 derivation. For I16/I8 (scale
    /// `2ᴮ` quanta per turn, quantization step `h = 2⁻ᴮ` turns; full
    /// walk-through in DESIGN.md §15):
    ///
    /// 1. **Quantization.** Table entry and measured turns each round to
    ///    the nearest quantum (error ≤ `h/2`), so the dequantized
    ///    difference is within `h` of the exact `x = t − m` — modulo 1,
    ///    because integer turns wrap away at the type boundary.
    /// 2. **Exact fold.** The kernel's wrapping subtraction computes the
    ///    mod-1 remainder of the *quantized* difference exactly:
    ///    `|d|·h = g(x + δ)` with `|δ| ≤ h`, `g` the triangle wave. `g`
    ///    is 1-Lipschitz, so `|g(x+δ) − g(x)| ≤ h`, and `g ≤ ½` bounds
    ///    the per-term damage of squaring: `|ĝ² − g²| ≤ (ĝ + g)·h ≤ h`.
    /// 3. **Square and sum.** I8 squares and accumulates in plain
    ///    integers — no rounding at all. I16 widens `d` to f32 exactly
    ///    (|d| ≤ 2¹⁵ < 2²⁴) and its *fused* `a − d·d` admits the exact
    ///    product, so only the accumulation itself rounds: the `j`-th
    ///    fused term lands on a partial sum ≤ `0.2501·j` turns² and errs
    ///    by ≤ `ε₃₂·0.2501·j` — summed, the `0.2501·ε₃₂·n(n+1)/2`
    ///    series, exactly the f32 derivation's step 4 shape with no
    ///    per-term square error.
    /// 4. **Exact write-out.** The accumulator (integer sum below 2³⁰, or
    ///    f32) converts to f64 exactly, and `2⁻²ᴮ` is a power of two, so
    ///    the scaling multiply is exact.
    /// 5. **The f64 path is not exact**: as in the f32 derivation, add
    ///    its own rounding — `1.01·ε₆₄·Sₖ + 0.26·ε₆₄` per term plus the
    ///    `0.2501·ε₆₄·n(n+1)/2` accumulation series.
    ///
    /// The argmax-identity theorem carries over unchanged: the quantized
    /// argmax cell provably equals the f64 argmax whenever the f64 map's
    /// best/runner-up gap exceeds twice this bound.
    ///
    /// Builds the f64 table if needed (step 5 needs the true column
    /// magnitudes).
    ///
    /// # Panics
    /// Panics if a measurement's pair is unknown to the engine, or if a
    /// column magnitude exceeds the `2²²`-turn envelope.
    pub fn vote_error_bound(
        &self,
        measurements: &[PairMeasurement],
        precision: TablePrecision,
    ) -> f64 {
        let scale_bits = match precision {
            TablePrecision::F64 => return 0.0,
            TablePrecision::F32 => return self.f32_vote_error_bound(measurements),
            TablePrecision::I16 => i16::BITS,
            TablePrecision::I8 => i8::BITS,
        };
        const EPS32: f64 = 5.960_464_477_539_063e-8; // 2⁻²⁴
        const EPS64: f64 = 1.110_223_024_625_156_5e-16; // 2⁻⁵³
        // I16 accumulates in f32 with fused terms (step 3); I8 is pure
        // integer, so its accumulation contributes nothing.
        let eps_acc = match precision {
            TablePrecision::I16 => EPS32,
            _ => 0.0,
        };
        let h = (f64::from(scale_bits).exp2()).recip();
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
            per_term += h + 1.01 * EPS64 * s + 0.26 * EPS64;
        }
        let n = measurements.len() as f64;
        per_term + 0.2501 * (eps_acc + EPS64) * n * (n + 1.0) / 2.0
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
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let map = engine.evaluate(&ms);
        assert_eq!(bits(reference.values()), bits(map.values()));
    }

    #[test]
    fn engine_is_thread_count_invariant() {
        let (dep, plane, grid, ms) = setup();
        let serial = VoteEngine::for_deployment(&dep, plane, grid.clone(), Parallelism::Serial)
            .evaluate(&ms);
        for par in [Parallelism::Threads(2), Parallelism::Threads(7), Parallelism::Auto] {
            let map = VoteEngine::for_deployment(&dep, plane, grid.clone(), par).evaluate(&ms);
            assert_eq!(bits(serial.values()), bits(map.values()), "{par:?}");
        }
    }

    #[test]
    fn masked_lazy_and_table_paths_agree_with_reference() {
        let (dep, plane, grid, ms) = setup();
        let mask: Vec<bool> = (0..grid.len()).map(|i| i % 3 != 0).collect();
        let reference = VoteMap::evaluate_masked(&dep, &ms, plane, grid.clone(), &mask);
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Threads(3));
        // Lazy path first (no table yet), then the table-backed path.
        assert!(!engine.is_table_built());
        let lazy = engine.evaluate_masked(&ms, &mask);
        engine.build_table();
        let tabled = engine.evaluate_masked(&ms, &mask);
        assert_eq!(bits(reference.values()), bits(lazy.values()));
        assert_eq!(bits(reference.values()), bits(tabled.values()));
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
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Threads(2));
        assert_eq!(bits(reference.values()), bits(engine.evaluate(&coarse).values()));
    }

    #[test]
    fn table_is_built_once_and_reused() {
        let (dep, plane, grid, ms) = setup();
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let first = engine.build_table().as_ptr();
        engine.evaluate(&ms);
        assert_eq!(first, engine.build_table().as_ptr());
        assert!(engine.is_table_built());
    }

    #[test]
    fn cloned_engines_share_one_table() {
        let (dep, plane, grid, _) = setup();
        let a = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
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
        let private = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
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
        let engine = VoteEngine::new(&dep, plane, grid, wide_only, Parallelism::Serial);
        let coarse_pair = dep.coarse_primary_pairs()[0];
        let _ = engine.evaluate(&[PairMeasurement::new(coarse_pair, 0.1)]);
    }

    #[test]
    fn full_window_reproduces_evaluate_bitwise() {
        let (dep, plane, grid, ms) = setup();
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Threads(2));
        let full = engine.evaluate(&ms);
        let windowed = engine.evaluate_windowed(&ms, &GridWindow::full(engine.grid()));
        assert_eq!(bits(full.values()), bits(windowed.values()));
    }

    #[test]
    fn window_cells_match_full_map_and_outside_is_neg_inf() {
        let (dep, plane, grid, ms) = setup();
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let full = engine.evaluate(&ms);
        let window = GridWindow::around(engine.grid(), Point2::new(1.2, 0.9), 0.20);
        assert!(!window.is_full(engine.grid()));
        let map = engine.evaluate_windowed(&ms, &window);
        for (c, (&w, &f)) in map.values().iter().zip(full.values()).enumerate() {
            let (ix, iz) = engine.grid().unflat(c);
            if window.contains(ix, iz) {
                assert_eq!(w.to_bits(), f.to_bits(), "cell {c}");
            } else {
                assert_eq!(w, f64::NEG_INFINITY, "cell {c}");
            }
        }
        // The windowed argmax is the full argmax when the peak is inside.
        assert_eq!(map.argmax().0, full.argmax().0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_outside_grid_panics() {
        let (dep, plane, grid, ms) = setup();
        let nx = grid.nx();
        let engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let bad = GridWindow { ix0: 0, ix1: nx, iz0: 0, iz1: 0 };
        let _ = engine.evaluate_windowed(&ms, &bad);
    }

    #[test]
    fn empty_pair_set_scores_zero_everywhere() {
        let (dep, plane, grid, _) = setup();
        let engine = VoteEngine::new(&dep, plane, grid, Vec::new(), Parallelism::Threads(2));
        let map = engine.evaluate(&[]);
        assert!(map.values().iter().all(|&v| v == 0.0));
    }

    fn f32_engine(dep: &Deployment, plane: Plane, grid: Grid2, par: Parallelism) -> VoteEngine {
        let mut e = VoteEngine::for_deployment(dep, plane, grid, par);
        e.set_precision(TablePrecision::F32);
        e
    }

    #[test]
    fn f32_table_halves_bytes() {
        let (dep, plane, grid, _) = setup();
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let f64_bytes = engine.table_bytes();
        engine.set_precision(TablePrecision::F32);
        assert_eq!(engine.precision(), TablePrecision::F32);
        assert_eq!(engine.table_bytes() * 2, f64_bytes);
        assert_eq!(
            engine.build_table_f32().len() * std::mem::size_of::<f32>(),
            engine.table_bytes() as usize
        );
    }

    #[test]
    fn f32_votes_stay_within_derived_bound_and_argmax_matches() {
        let (dep, plane, grid, ms) = setup();
        let reference = VoteEngine::for_deployment(&dep, plane, grid.clone(), Parallelism::Serial);
        let f64_map = reference.evaluate(&ms);
        let f32_map = f32_engine(&dep, plane, grid, Parallelism::Serial).evaluate(&ms);
        let bound = reference.f32_vote_error_bound(&ms);
        // The bound must be meaningful (small) as well as honored.
        assert!(bound < 1e-4, "derived bound {bound} is uselessly loose");
        let worst = f64_map
            .values()
            .iter()
            .zip(f32_map.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= bound, "worst |Δvote| {worst:e} exceeds derived bound {bound:e}");
        assert_eq!(f64_map.argmax().0, f32_map.argmax().0);
    }

    #[test]
    fn f32_engine_is_thread_count_invariant() {
        let (dep, plane, grid, ms) = setup();
        let serial = f32_engine(&dep, plane, grid.clone(), Parallelism::Serial).evaluate(&ms);
        for par in [Parallelism::Threads(2), Parallelism::Threads(7), Parallelism::Auto] {
            let map = f32_engine(&dep, plane, grid.clone(), par).evaluate(&ms);
            assert_eq!(bits(serial.values()), bits(map.values()), "{par:?}");
        }
    }

    #[test]
    fn f32_windowed_matches_full_f32_map() {
        let (dep, plane, grid, ms) = setup();
        let engine = f32_engine(&dep, plane, grid, Parallelism::Serial);
        let full = engine.evaluate(&ms);
        let window = GridWindow::around(engine.grid(), Point2::new(1.2, 0.9), 0.20);
        let map = engine.evaluate_windowed(&ms, &window);
        for (c, (&w, &f)) in map.values().iter().zip(full.values()).enumerate() {
            let (ix, iz) = engine.grid().unflat(c);
            if window.contains(ix, iz) {
                assert_eq!(w.to_bits(), f.to_bits(), "cell {c}");
            } else {
                assert_eq!(w, f64::NEG_INFINITY, "cell {c}");
            }
        }
        let full_window = engine.evaluate_windowed(&ms, &GridWindow::full(engine.grid()));
        assert_eq!(bits(full.values()), bits(full_window.values()));
    }

    #[test]
    fn f32_masked_lazy_and_table_paths_agree() {
        let (dep, plane, grid, ms) = setup();
        let mask: Vec<bool> = (0..grid.len()).map(|i| i % 3 != 0).collect();
        let engine = f32_engine(&dep, plane, grid, Parallelism::Threads(3));
        assert!(!engine.is_table_built());
        let lazy = engine.evaluate_masked(&ms, &mask);
        engine.build_table_f32();
        assert!(engine.is_table_built());
        let tabled = engine.evaluate_masked(&ms, &mask);
        assert_eq!(bits(lazy.values()), bits(tabled.values()));
        // Kept cells match the full f32 map bitwise; masked-out are -inf.
        let full = engine.evaluate(&ms);
        for (c, (&m, &f)) in tabled.values().iter().zip(full.values()).enumerate() {
            if mask[c] {
                assert_eq!(m.to_bits(), f.to_bits(), "cell {c}");
            } else {
                assert_eq!(m, f64::NEG_INFINITY, "cell {c}");
            }
        }
    }

    fn engine_at(
        dep: &Deployment,
        plane: Plane,
        grid: Grid2,
        par: Parallelism,
        precision: TablePrecision,
    ) -> VoteEngine {
        let mut e = VoteEngine::for_deployment(dep, plane, grid, par);
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
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        let f64_bytes = engine.table_bytes();
        engine.set_precision(TablePrecision::I16);
        assert_eq!(engine.table_bytes() * 4, f64_bytes);
        assert_eq!(
            engine.build_table_i16().data.len() * std::mem::size_of::<i16>(),
            engine.table_bytes() as usize
        );
        assert_eq!(engine.build_table_i16().scale_bits, 16);
        engine.set_precision(TablePrecision::I8);
        assert_eq!(engine.table_bytes() * 8, f64_bytes);
        assert_eq!(engine.build_table_i8().data.len(), engine.table_bytes() as usize);
        assert_eq!(engine.build_table_i8().scale_bits, 8);
    }

    #[test]
    fn quantized_votes_stay_within_derived_bound_and_argmax_matches() {
        let (dep, plane, grid, ms) = setup();
        let reference = VoteEngine::for_deployment(&dep, plane, grid.clone(), Parallelism::Serial);
        let f64_map = reference.evaluate(&ms);
        for precision in [TablePrecision::I16, TablePrecision::I8] {
            let map = engine_at(&dep, plane, grid.clone(), Parallelism::Serial, precision)
                .evaluate(&ms);
            let bound = reference.vote_error_bound(&ms, precision);
            // One quantum per measurement dominates; the bound must be
            // meaningful (small) as well as honored.
            let quantum = match precision {
                TablePrecision::I16 => 1.0 / 65_536.0,
                _ => 1.0 / 256.0,
            };
            assert!(bound <= ms.len() as f64 * quantum * 1.01, "{precision:?}: loose {bound}");
            let worst = f64_map
                .values()
                .iter()
                .zip(map.values())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(worst <= bound, "{precision:?}: worst |Δvote| {worst:e} > bound {bound:e}");
            // The argmax-identity theorem, under its gap premise.
            if gap(&f64_map) > 2.0 * bound {
                assert_eq!(f64_map.argmax().0, map.argmax().0, "{precision:?}");
            }
        }
        // On this clean scene the i16 gap premise must actually hold (the
        // theorem should not be vacuous at the precision we gate CI on).
        assert!(gap(&f64_map) > 2.0 * reference.vote_error_bound(&ms, TablePrecision::I16));
        assert_eq!(reference.vote_error_bound(&ms, TablePrecision::F64), 0.0);
    }

    #[test]
    fn quantized_engines_are_thread_count_invariant() {
        let (dep, plane, grid, ms) = setup();
        for precision in [TablePrecision::I16, TablePrecision::I8] {
            let serial = engine_at(&dep, plane, grid.clone(), Parallelism::Serial, precision)
                .evaluate(&ms);
            for par in [Parallelism::Threads(2), Parallelism::Threads(7), Parallelism::Auto] {
                let map = engine_at(&dep, plane, grid.clone(), par, precision).evaluate(&ms);
                assert_eq!(bits(serial.values()), bits(map.values()), "{precision:?} {par:?}");
            }
        }
    }

    #[test]
    fn scalar_kernels_match_auto_simd_bitwise_on_every_precision() {
        let (dep, plane, grid, ms) = setup();
        for precision in TablePrecision::ALL {
            let auto = engine_at(&dep, plane, grid.clone(), Parallelism::Serial, precision);
            assert_eq!(auto.simd_mode(), SimdMode::Auto);
            let mut scalar = engine_at(&dep, plane, grid.clone(), Parallelism::Serial, precision);
            scalar.set_simd_mode(SimdMode::Scalar);
            assert_eq!(
                bits(auto.evaluate(&ms).values()),
                bits(scalar.evaluate(&ms).values()),
                "{precision:?}"
            );
            let window = GridWindow::around(auto.grid(), Point2::new(1.2, 0.9), 0.20);
            assert_eq!(
                bits(auto.evaluate_windowed(&ms, &window).values()),
                bits(scalar.evaluate_windowed(&ms, &window).values()),
                "{precision:?} windowed"
            );
        }
    }

    #[test]
    fn quantized_windowed_and_masked_match_full_map() {
        let (dep, plane, grid, ms) = setup();
        let mask: Vec<bool> = (0..grid.len()).map(|i| i % 3 != 0).collect();
        for precision in [TablePrecision::I16, TablePrecision::I8] {
            let engine = engine_at(&dep, plane, grid.clone(), Parallelism::Threads(3), precision);
            // Lazy masked path first (no table yet), then table-backed.
            assert!(!engine.is_table_built());
            let lazy = engine.evaluate_masked(&ms, &mask);
            engine.prebuild();
            assert!(engine.is_table_built());
            let tabled = engine.evaluate_masked(&ms, &mask);
            assert_eq!(bits(lazy.values()), bits(tabled.values()), "{precision:?}");
            let full = engine.evaluate(&ms);
            for (c, (&m, &f)) in tabled.values().iter().zip(full.values()).enumerate() {
                if mask[c] {
                    assert_eq!(m.to_bits(), f.to_bits(), "{precision:?} cell {c}");
                } else {
                    assert_eq!(m, f64::NEG_INFINITY, "{precision:?} cell {c}");
                }
            }
            let window = GridWindow::around(engine.grid(), Point2::new(1.2, 0.9), 0.20);
            let windowed = engine.evaluate_windowed(&ms, &window);
            for (c, (&w, &f)) in windowed.values().iter().zip(full.values()).enumerate() {
                let (ix, iz) = engine.grid().unflat(c);
                if window.contains(ix, iz) {
                    assert_eq!(w.to_bits(), f.to_bits(), "{precision:?} cell {c}");
                } else {
                    assert_eq!(w, f64::NEG_INFINITY, "{precision:?} cell {c}");
                }
            }
            let full_window = engine.evaluate_windowed(&ms, &GridWindow::full(engine.grid()));
            assert_eq!(bits(full.values()), bits(full_window.values()), "{precision:?}");
        }
    }

    #[test]
    fn set_precision_detaches_onto_fresh_private_slots() {
        let (dep, plane, grid, _) = setup();
        let mut engine = VoteEngine::for_deployment(&dep, plane, grid, Parallelism::Serial);
        engine.build_table();
        assert!(engine.is_table_built());
        engine.set_precision(TablePrecision::F32);
        // The built f64 table was dropped with the old slot; the f32 slot
        // is fresh. Setting the same precision again is a no-op.
        assert!(!engine.is_table_built());
        engine.build_table_f32();
        let ptr = engine.build_table_f32().as_ptr();
        engine.set_precision(TablePrecision::F32);
        assert_eq!(ptr, engine.build_table_f32().as_ptr());
    }
}
