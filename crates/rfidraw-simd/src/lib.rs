//! The vote engine's sweeps over built tables, each compiled twice behind
//! one CPUID check.
//!
//! The vote kernels in `rfidraw-core` are measurement-outer / cell-inner:
//! each measurement streams one contiguous table column, or gathers the
//! kept cells from it, and updates a per-cell accumulator. This crate
//! holds every such loop: [`sweep_f64`] and [`gather_f64`] over the exact
//! f64 table, [`sweep_i16`], [`sweep_i16_dual`] and [`gather_i16`] over
//! the 16-bit fixed-point one.
//!
//! Each kernel is one safe loop, written once. A macro compiles it into
//! two copies: one for the baseline x86-64 target (SSE2, no FMA), and one
//! with `#[target_feature(enable = "avx2,fma")]`, in which LLVM sweeps
//! four f64 or eight f32 lanes at a time (the gathers four cells at a
//! time: four scalar loads, then the arithmetic on one vector) and
//! [`f32::mul_add`] is one `vfnmadd` instead of a libm `fmaf` call. Each
//! public kernel runs the AVX2 copy when the CPU reports AVX2 and FMA
//! (every AVX2 part ships FMA), the baseline copy otherwise;
//! [`active_kernel`] names the pick.
//!
//! ## Bit-identity
//!
//! The two copies of a kernel compute the same bits, by construction.
//! The source fixes each cell's operation sequence, no kernel reduces
//! across cells, and neither the lane count nor the target features may
//! change an operation:
//!
//! * The f64 kernels subtract `f·f` with a separate multiply and
//!   subtract. Rust never contracts a multiply and an add into an FMA,
//!   even where the target has one, so the AVX2 copy rounds twice per
//!   term, as the baseline copy and the table-free reference path do.
//!   The fold [`frac_dist_to_integer`] is exact add, subtract and select
//!   arithmetic, with no libm call.
//! * The i16 kernels' wrapping subtract and `i16 → f32` widening are
//!   exact (|d| ≤ 2¹⁵ < 2²⁴), and the square-and-subtract is always
//!   fused: one `a − d·d` with a single rounding per term, through
//!   [`f32::mul_add`] in both copies. Fusing is not just speed: the
//!   exact product `d²` (≤ 2³⁰, wider than an f32 mantissa) enters the
//!   accumulator unrounded, which narrows the engine's derived
//!   vote-error bound to the accumulation series alone. (An earlier
//!   revision widened to i64 instead; exact, but the extra widening ops
//!   and the 8-byte accumulator traffic erased the bandwidth win of the
//!   narrow table.)
//!
//! The dispatch is therefore invisible except in wall-clock. The tests
//! pin each kernel's AVX2 copy to its baseline copy bit for bit.
//!
//! ## Unsafe surface
//!
//! The kernels are safe, bounds-checked loops, and the crate denies
//! `unsafe_code`. The one exception is the dispatch the macro stamps for
//! each kernel: calling a `#[target_feature]` function is unsafe, and it
//! runs only after a CPUID check confirmed that the CPU executes those
//! instructions. `rfidraw-core` forbids `unsafe` outright.

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Cells a gather loads per step. Bounds-checked loads from a list of
/// cell indices break a one-cell loop into a compare and branch per cell,
/// which keeps it scalar; four loads into a four-lane array first leave
/// the arithmetic a straight-line block over the lanes, which the AVX2
/// copy runs in one vector register.
const LANES: usize = 4;

/// Whether the CPU runs the AVX2 copies: they need AVX2 and FMA (the
/// fused subtract). `std` caches the CPUID probe, so each call is a load.
#[cfg(target_arch = "x86_64")]
fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// The copy every kernel runs on this machine: `"avx2"`, or `"scalar"`
/// for the baseline copy. Observability only; never changes a result.
pub fn active_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        return "avx2";
    }
    "scalar"
}

/// Stamps each kernel into a public entry point and a private module of
/// the same name holding its two copies: `baseline`, built for the
/// crate's target, and `avx2`, which runs the loop built with AVX2 and
/// FMA enabled and returns whether the CPU let it. The loop itself is an
/// `#[inline(always)]` function, so each copy is a concrete function with
/// the whole loop inlined and compiled for its own target features.
macro_rules! multiversion {
    ($(
        $(#[$doc:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block
    )*) => {$(
        $(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            if !$name::avx2($($arg),*) {
                $name::baseline($($arg),*);
            }
        }

        mod $name {
            use super::*;

            #[inline(always)]
            fn body($($arg: $ty),*) $body

            pub(crate) fn baseline($($arg: $ty),*) {
                body($($arg),*)
            }

            #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
            pub(crate) fn avx2($($arg: $ty),*) -> bool {
                #[cfg(target_arch = "x86_64")]
                if has_avx2_fma() {
                    #[target_feature(enable = "avx2,fma")]
                    fn copy($($arg: $ty),*) {
                        body($($arg),*)
                    }
                    // SAFETY: `copy` is safe code whose only requirement
                    // is a CPU that executes AVX2 and FMA instructions,
                    // which `has_avx2_fma` just confirmed.
                    #[allow(unsafe_code)]
                    unsafe { copy($($arg),*) };
                    return true;
                }
                false
            }
        }
    )*};
}

/// Distance from `x` to the nearest integer (in turns).
///
/// This is the `min_k ‖x − k‖` of Eq. 7: how far a measured
/// distance-difference (in wavelengths) is from the *nearest* grating lobe.
///
/// Returns `|x − x.round()|` **bit for bit for every `f64`** without
/// calling `round`, which on the baseline x86-64 target is a libm call
/// that keeps every vote sweep scalar. Here the nearest integer is
/// `r = copysign((|x| + 2⁵²) − 2⁵², x)` for `|x| < 2⁵²`, else `r = x`: a
/// compare, a select, and add/sub/bit operations, all of which vectorize.
///
/// * `|x| < 2⁵²`: `|x| + 2⁵²` lies in `[2⁵², 2⁵³]`, where the f64 spacing
///   is 1, so the add rounds to `2⁵² + n` with `n` the integer nearest
///   `|x|` (ties to even), and subtracting `2⁵²` is exact. `n` equals
///   `|x|.round()` except at exact half-integers, where both are exactly
///   ½ away. `x − r` is exact (`|x − r| ≤ ½` and `r` is a multiple of
///   `ulp(x)`, or `r = ±0`), so `|x − r| = |x − x.round()|`. An integral
///   `x` (±0 included) gives `r = x` and `x − r = +0`, as `round` does.
/// * `|x| ≥ 2⁵²`: `x` is already an integer, `x.round() = x = r`, both
///   give `+0`.
/// * ±∞ and NaN: `r = x`, and `x − x` is the same NaN `x − x.round()`
///   produces; `abs` then clears its sign in both.
#[inline]
pub fn frac_dist_to_integer(x: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let a = x.abs();
    let r = if a < TWO_52 {
        ((a + TWO_52) - TWO_52).copysign(x)
    } else {
        x
    };
    (x - r).abs()
}

multiversion! {
    /// Subtracts `frac_dist_to_integer(column[c] − measured)²` from
    /// `acc[c]` for every cell: one measurement's contribution to an f64
    /// vote map, in squared turns. Per cell that is one subtract, the
    /// exact fold, one multiply and one subtract, each rounded on its own:
    /// the table-free reference path's sequence.
    ///
    /// # Panics
    /// Panics if `acc` and `column` lengths differ.
    pub fn sweep_f64(acc: &mut [f64], column: &[f64], measured: f64) {
        assert_eq!(acc.len(), column.len(), "tile and column must be the same length");
        for (a, &turns) in acc.iter_mut().zip(column) {
            let f = frac_dist_to_integer(turns - measured);
            *a -= f * f;
        }
    }

    /// [`sweep_f64`] over a list of cells: subtracts
    /// `frac_dist_to_integer(column[cells[i]] − measured)²` from `acc[i]`.
    /// The engine's cell-list evaluation gathers the stage-1 filter's kept
    /// cells from each full pair column through here. It loads four cells
    /// per step and runs the per-cell sequence on the four lanes, so any
    /// cell list, sorted or not, gets the same bits as a one-cell loop.
    ///
    /// # Panics
    /// Panics if `acc` and `cells` lengths differ, or if a cell index is
    /// out of the column's bounds.
    pub fn gather_f64(acc: &mut [f64], column: &[f64], cells: &[usize], measured: f64) {
        assert_eq!(acc.len(), cells.len(), "tile and cell list must be the same length");
        let score = |a: &mut f64, turns: f64| {
            let f = frac_dist_to_integer(turns - measured);
            *a -= f * f;
        };
        let (acc4, acc_tail) = acc.as_chunks_mut::<LANES>();
        let (cells4, cells_tail) = cells.as_chunks::<LANES>();
        for (a, c) in acc4.iter_mut().zip(cells4) {
            let turns = c.map(|c| column[c]);
            for (a, turns) in a.iter_mut().zip(turns) {
                score(a, turns);
            }
        }
        for (a, &c) in acc_tail.iter_mut().zip(cells_tail) {
            score(a, column[c]);
        }
    }

    /// Subtracts `(column[c].wrapping_sub(measured) as f32)²` from `acc[c]`
    /// for every cell: one measurement's contribution to an i16-quantized
    /// accumulator tile, in **quanta²** (the engine scales by `2⁻³²` at
    /// write-out). The wrapping subtract *is* the mod-1 turn reduction (the
    /// table stores fractional turns as two's-complement fixed point), the
    /// `i16 → f32` conversion is exact (`|d| ≤ 2¹⁵ < 2²⁴`), and the
    /// square-and-subtract is one *fused* `a − d·d`: a single rounding per
    /// term, the only rounding in the whole sweep, which the engine's
    /// derived vote-error bound accounts for. Accumulating in f32 instead
    /// of a widened integer keeps the inner loop under a dozen instructions
    /// per 16 cells and the accumulator at 4 bytes per cell: the whole
    /// point of the narrow table.
    ///
    /// # Panics
    /// Panics if `acc` and `column` lengths differ.
    pub fn sweep_i16(acc: &mut [f32], column: &[i16], measured: i16) {
        assert_eq!(acc.len(), column.len(), "tile and column must be the same length");
        for (a, &q) in acc.iter_mut().zip(column) {
            // Exact: |d| ≤ 2¹⁵ < 2²⁴, so the conversion never rounds.
            let d = i32::from(q.wrapping_sub(measured)) as f32;
            *a = (-d).mul_add(d, *a);
        }
    }

    /// Two measurements' contributions in one pass over the tile:
    /// bit-identical to calling [`sweep_i16`] with `(col_a, ma)` and then
    /// `(col_b, mb)` (per cell the accumulator still receives the fused
    /// `a − d²` terms in that order), but the accumulator tile is loaded
    /// and stored once instead of twice, which matters in a kernel this
    /// short. The engine's full-grid sweep feeds measurement pairs through
    /// here; the odd measurement out keeps the single-column form and still
    /// matches bit for bit.
    ///
    /// # Panics
    /// Panics if the three slice lengths differ.
    pub fn sweep_i16_dual(acc: &mut [f32], col_a: &[i16], ma: i16, col_b: &[i16], mb: i16) {
        assert_eq!(acc.len(), col_a.len(), "tile and column must be the same length");
        assert_eq!(acc.len(), col_b.len(), "tile and column must be the same length");
        for ((a, &qa), &qb) in acc.iter_mut().zip(col_a).zip(col_b) {
            let d1 = i32::from(qa.wrapping_sub(ma)) as f32;
            let a1 = (-d1).mul_add(d1, *a);
            let d2 = i32::from(qb.wrapping_sub(mb)) as f32;
            *a = (-d2).mul_add(d2, a1);
        }
    }

    /// [`sweep_i16`] over a list of cells: subtracts
    /// `(column[cells[i]].wrapping_sub(measured) as f32)²`, fused, from
    /// `acc[i]`. The engine's cell-list evaluation gathers its cells
    /// through here, four per step like [`gather_f64`].
    ///
    /// # Panics
    /// Panics if `acc` and `cells` lengths differ, or if a cell index is
    /// out of the column's bounds.
    pub fn gather_i16(acc: &mut [f32], column: &[i16], cells: &[usize], measured: i16) {
        assert_eq!(acc.len(), cells.len(), "tile and cell list must be the same length");
        let score = |a: &mut f32, q: i16| {
            let d = i32::from(q.wrapping_sub(measured)) as f32;
            *a = (-d).mul_add(d, *a);
        };
        let (acc4, acc_tail) = acc.as_chunks_mut::<LANES>();
        let (cells4, cells_tail) = cells.as_chunks::<LANES>();
        for (a, c) in acc4.iter_mut().zip(cells4) {
            let q = c.map(|c| column[c]);
            for (a, q) in a.iter_mut().zip(q) {
                score(a, q);
            }
        }
        for (a, &c) in acc_tail.iter_mut().zip(cells_tail) {
            score(a, column[c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random u64 stream (xorshift).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// A value in (−64, 64) turns, as a table entry or measurement.
        fn turns(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 128.0 - 64.0
        }

        /// A table entry: random turns, or one of the fold's edge inputs.
        fn entry(&mut self) -> f64 {
            match self.next() % 3 {
                0 => EDGES[self.next() as usize % EDGES.len()],
                _ => self.turns(),
            }
        }

        /// `len` cell indices into a column of `len / 2 + 1` entries:
        /// unsorted, and repeated from three cells on.
        fn cells(&mut self, len: usize) -> Vec<usize> {
            (0..len)
                .map(|_| self.next() as usize % (len / 2 + 1))
                .collect()
        }

        /// `len` ascending cell indices in runs of 1–9 consecutive cells
        /// with gaps of 0–3 between them: the shape of the stage-1
        /// filter's kept cells, as the engine gathers them.
        fn runs(&mut self, len: usize) -> Vec<usize> {
            let mut cells = Vec::with_capacity(len);
            let mut c = self.next() as usize % 3;
            while cells.len() < len {
                let run = (1 + self.next() as usize % 9).min(len - cells.len());
                cells.extend(c..c + run);
                c += run + self.next() as usize % 4;
            }
            cells
        }
    }

    /// The column length a cell list gathers from: one past its largest
    /// index.
    fn span(cells: &[usize]) -> usize {
        cells.iter().max().map_or(0, |&c| c + 1)
    }

    /// Every tile length from empty through several vectors plus a tail,
    /// so each copy's vector body and scalar tail are both exercised.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..40).chain([63, 64, 100, 1000])
    }

    /// The fold's edge inputs: signed zeros, exact half-integers, values
    /// at and past 2⁵² (already integers), infinities and NaN.
    const EDGES: [f64; 11] = [
        0.0,
        -0.0,
        0.5,
        -1.5,
        4_503_599_627_370_495.5,
        4_503_599_627_370_496.0,
        -9_007_199_254_740_994.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    /// Runs a kernel's baseline and AVX2 copies on two clones of an
    /// accumulator and asserts the results agree bit for bit; on a CPU
    /// without AVX2+FMA, prints a note and compares nothing.
    macro_rules! assert_copies_agree {
        ($kernel:ident($acc:expr $(, $arg:expr)*), $($what:tt)+) => {{
            let (mut base, mut wide) = ($acc.clone(), $acc.clone());
            $kernel::baseline(&mut base $(, $arg)*);
            if $kernel::avx2(&mut wide $(, $arg)*) {
                let base: Vec<_> = base.iter().map(|v| v.to_bits()).collect();
                let wide: Vec<_> = wide.iter().map(|v| v.to_bits()).collect();
                assert_eq!(base, wide, $($what)+);
            } else {
                let kernel = stringify!($kernel);
                println!("note: no AVX2+FMA on this CPU; {kernel}'s AVX2 copy not run");
            }
        }};
    }

    #[test]
    fn f64_kernels_avx2_copies_match_baseline_bitwise() {
        let mut rng = Rng(0xf64f);
        for len in lengths() {
            let column: Vec<f64> = (0..len).map(|_| rng.entry()).collect();
            let (cells, runs) = (rng.cells(len), rng.runs(len));
            let table: Vec<f64> = (0..span(&runs).max(len / 2 + 1))
                .map(|_| rng.entry())
                .collect();
            let acc: Vec<f64> = (0..len).map(|_| -rng.turns().abs()).collect();
            // Both signed zeros and a half-integer, so `turns − measured`
            // reaches every edge input.
            for measured in [0.0, -0.0, 0.5, rng.turns()] {
                assert_copies_agree!(sweep_f64(acc, &column, measured), "len {len} m {measured}");
                for cells in [&cells, &runs] {
                    assert_copies_agree!(
                        gather_f64(acc, &table, cells, measured),
                        "len {len} m {measured} cells {cells:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn i16_kernels_avx2_copies_match_baseline_bitwise() {
        let mut rng = Rng(0xbeef);
        for len in lengths() {
            let col_a: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let col_b: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let (ma, mb) = (rng.next() as i16, rng.next() as i16);
            let (cells, runs) = (rng.cells(len), rng.runs(len));
            let table: Vec<i16> = (0..span(&runs).max(len / 2 + 1))
                .map(|_| rng.next() as i16)
                .collect();
            let acc: Vec<f32> = (0..len).map(|i| -(i as f32) * 1000.5).collect();
            assert_copies_agree!(sweep_i16(acc, &col_a, ma), "len {len}");
            assert_copies_agree!(sweep_i16_dual(acc, &col_a, ma, &col_b, mb), "len {len}");
            for cells in [&cells, &runs] {
                assert_copies_agree!(
                    gather_i16(acc, &table, cells, mb),
                    "len {len} cells {cells:?}"
                );
            }
        }
    }

    /// A gather equals the sweep over the column it gathers, bit for bit:
    /// four cells per step changes no cell's operations.
    #[test]
    fn gathers_match_sweeps_over_the_gathered_column() {
        let mut rng = Rng(0x6a7e);
        for len in lengths() {
            for cells in [rng.cells(len), rng.runs(len)] {
                let n = span(&cells).max(1);
                let table: Vec<f64> = (0..n).map(|_| rng.entry()).collect();
                let table_q: Vec<i16> = (0..n).map(|_| rng.next() as i16).collect();
                let (measured, measured_q) = (rng.turns(), rng.next() as i16);
                let mut gathered: Vec<f64> = (0..len).map(|_| -rng.turns().abs()).collect();
                let mut swept = gathered.clone();
                gather_f64(&mut gathered, &table, &cells, measured);
                let column: Vec<f64> = cells.iter().map(|&c| table[c]).collect();
                sweep_f64(&mut swept, &column, measured);
                let g: Vec<u64> = gathered.iter().map(|v| v.to_bits()).collect();
                let s: Vec<u64> = swept.iter().map(|v| v.to_bits()).collect();
                assert_eq!(g, s, "f64 len {len}");

                let mut gathered: Vec<f32> = (0..len).map(|i| -(i as f32) * 3.75).collect();
                let mut swept = gathered.clone();
                gather_i16(&mut gathered, &table_q, &cells, measured_q);
                let column: Vec<i16> = cells.iter().map(|&c| table_q[c]).collect();
                sweep_i16(&mut swept, &column, measured_q);
                let g: Vec<u32> = gathered.iter().map(|v| v.to_bits()).collect();
                let s: Vec<u32> = swept.iter().map(|v| v.to_bits()).collect();
                assert_eq!(g, s, "i16 len {len}");
            }
        }
    }

    #[test]
    fn i16_dual_matches_two_single_sweeps_bitwise() {
        let mut rng = Rng(0xd0a1);
        for len in lengths() {
            let col_a: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let col_b: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let (ma, mb) = (rng.next() as i16, rng.next() as i16);
            let mut dual: Vec<f32> = (0..len).map(|i| -(i as f32) * 17.25).collect();
            let mut singles = dual.clone();
            sweep_i16_dual(&mut dual, &col_a, ma, &col_b, mb);
            sweep_i16(&mut singles, &col_a, ma);
            sweep_i16(&mut singles, &col_b, mb);
            let d: Vec<u32> = dual.iter().map(|v| v.to_bits()).collect();
            let s: Vec<u32> = singles.iter().map(|v| v.to_bits()).collect();
            assert_eq!(d, s, "len {len} (kernel {})", active_kernel());
        }
    }

    #[test]
    fn extreme_quanta_square_without_overflow() {
        // d = −32768 (exactly −0.5 turns) squares to 2³⁰, exact in f32,
        // a power of two, through both copies.
        let column = vec![i16::MIN; 33];
        let mut acc = vec![0f32; 33];
        assert_copies_agree!(sweep_i16(acc, &column, 0), "i16::MIN");
        sweep_i16(&mut acc, &column, 0);
        assert!(acc.iter().all(|&a| a == -((1u32 << 30) as f32)));
    }

    #[test]
    fn wrapping_subtract_is_the_mod_one_fold() {
        // +0.4375 turns measured against −0.5 turns stored: the true
        // fractional difference is −0.9375, which folds mod 1 to +0.0625
        // turns = 4096 quanta at 2¹⁶/turn. The wrapping subtract lands
        // there directly, and 4096² is exact in f32.
        let stored = i16::MIN; // −0.5 turns
        let measured = 28_672i16; // +0.4375 turns
        let mut acc = vec![0f32; 1];
        sweep_i16::baseline(&mut acc, &[stored], measured);
        assert_eq!(acc[0], -(4096.0f32 * 4096.0));
    }

    #[test]
    fn active_kernel_is_stable_and_named() {
        let first = active_kernel();
        assert!(["avx2", "scalar"].contains(&first));
        assert_eq!(first, active_kernel());
    }
}
