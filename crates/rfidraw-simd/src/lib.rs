//! Explicit-SIMD accumulation sweeps for the RF-IDraw vote engine.
//!
//! The vote kernels in `rfidraw-core` are measurement-outer / cell-inner:
//! each measurement streams one contiguous table column and updates a
//! per-cell accumulator tile. On the baseline x86-64 target that inner
//! loop vectorizes only if LLVM's autovectorizer cooperates — a property
//! that has silently regressed across compiler versions before. This
//! crate makes the wide path of the i16 table explicit: an AVX2+FMA
//! kernel and a scalar kernel, selected **at runtime** from CPUID.
//!
//! ## Bit-identity
//!
//! Every kernel is bit-identical to the scalar sweep, by construction:
//! the wrapping subtract and the `i16 → f32` widening are exact
//! (|d| ≤ 2¹⁵ < 2²⁴), and the square-and-subtract is *always fused*: one
//! `a − d·d` with a single rounding per term, in measurement order, with
//! no cross-lane reduction. The scalar form is [`f32::mul_add`], whose
//! contract is the same single rounding, so vector width never changes a
//! bit. Fusing is not just speed — it makes the exact product `d²`
//! (≤ 2³⁰, wider than an f32 mantissa) enter the accumulator unrounded,
//! which tightens the engine's derived vote-error bound to the
//! accumulation series alone. (An earlier revision widened to i64
//! instead; exact, but the extra widening ops and the 8-byte accumulator
//! traffic erased the bandwidth win of the narrow table.)
//!
//! The dispatch is therefore *invisible* except in wall-clock; the
//! kernel-equivalence suites in `rfidraw-core` pin [`SimdMode::Auto`] to
//! [`SimdMode::Scalar`] bit-for-bit.
//!
//! ## Unsafe surface
//!
//! `rfidraw-core` forbids `unsafe`; this crate is the quarantine for the
//! `std::arch` intrinsics (the same pattern `rfidraw-net` uses for its
//! syscall shims). The only unsafe operations are unaligned vector
//! loads/stores within caller-provided slices (bounds checked by the loop
//! structure) and calls to `#[target_feature]` functions after the
//! matching CPUID check.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

/// Which accumulation kernel a sweep call may use.
///
/// `Auto` runs the AVX2 kernel when the CPU reports AVX2 and FMA, the
/// scalar kernel otherwise; `Scalar` forces the scalar kernel. Results
/// are bit-identical either way — the knob exists so benches can measure
/// the explicit-SIMD margin and tests can assert the bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Runtime-dispatch to the widest available kernel (the default).
    #[default]
    Auto,
    /// Always run the scalar kernel.
    Scalar,
}

/// Whether the CPU runs the AVX2 kernels: they need AVX2 and FMA (the
/// fused subtract); every AVX2 part ships FMA. `std` caches the CPUID
/// probe, so each call is a load.
#[cfg(target_arch = "x86_64")]
fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// The instruction set [`SimdMode::Auto`] resolves to on this machine:
/// `"avx2"` or `"scalar"`. Observability only; never changes a result.
pub fn active_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        return "avx2";
    }
    "scalar"
}

/// Subtracts `(column[c].wrapping_sub(measured) as f32)²` from `acc[c]`
/// for every cell — one measurement's contribution to an i16-quantized
/// accumulator tile, in **quanta²** (the engine scales by `2⁻³²` at
/// write-out). The wrapping subtract *is* the mod-1 turn reduction (the
/// table stores fractional turns as two's-complement fixed point), the
/// `i16 → f32` conversion is exact (`|d| ≤ 2¹⁵ < 2²⁴`), and the
/// square-and-subtract is one *fused* `a − d·d` — a single rounding per
/// term, the only rounding in the whole sweep, which the engine's
/// derived vote-error bound accounts for. Accumulating in f32 instead
/// of a widened integer keeps the inner loop under a dozen instructions
/// per 16 cells and the accumulator at 4 bytes per cell — the whole
/// point of the narrow table.
///
/// Without AVX2+FMA this sweep runs the scalar kernel, whose
/// [`f32::mul_add`] honors the same single-rounding contract through
/// libm.
///
/// # Panics
/// Panics if `acc` and `column` lengths differ.
pub fn sweep_i16(acc: &mut [f32], column: &[i16], measured: i16, mode: SimdMode) {
    assert_eq!(acc.len(), column.len(), "tile and column must be the same length");
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Auto && has_avx2_fma() {
        // SAFETY: avx2 + fma were detected at runtime.
        return unsafe { x86::sweep_i16_avx2(acc, column, measured) };
    }
    let _ = mode;
    sweep_i16_scalar(acc, column, measured);
}

fn sweep_i16_scalar(acc: &mut [f32], column: &[i16], measured: i16) {
    for (a, &q) in acc.iter_mut().zip(column) {
        // Exact: |d| ≤ 2¹⁵ < 2²⁴, so the conversion never rounds.
        let d = i32::from(q.wrapping_sub(measured)) as f32;
        // Fused a − d·d: bit-identical to the AVX2 kernel's vfnmadd.
        *a = (-d).mul_add(d, *a);
    }
}

/// Two measurements' contributions in one pass over the tile:
/// bit-identical to calling [`sweep_i16`] with `(col_a, ma)` and then
/// `(col_b, mb)` — per cell the accumulator still receives the fused
/// `a − d²` terms in that order — but the accumulator tile is loaded
/// and stored once instead of twice, which matters in a kernel this
/// short. The engine's full-grid sweep feeds measurement pairs through
/// here; the odd measurement out keeps the single-column form and still
/// matches bit-for-bit.
///
/// # Panics
/// Panics if the three slice lengths differ.
pub fn sweep_i16_dual(
    acc: &mut [f32],
    col_a: &[i16],
    ma: i16,
    col_b: &[i16],
    mb: i16,
    mode: SimdMode,
) {
    assert_eq!(acc.len(), col_a.len(), "tile and column must be the same length");
    assert_eq!(acc.len(), col_b.len(), "tile and column must be the same length");
    #[cfg(target_arch = "x86_64")]
    if mode == SimdMode::Auto && has_avx2_fma() {
        // SAFETY: avx2 + fma were detected at runtime.
        return unsafe { x86::sweep_i16_dual_avx2(acc, col_a, ma, col_b, mb) };
    }
    let _ = mode;
    sweep_i16_dual_scalar(acc, col_a, ma, col_b, mb);
}

fn sweep_i16_dual_scalar(acc: &mut [f32], col_a: &[i16], ma: i16, col_b: &[i16], mb: i16) {
    for ((a, &qa), &qb) in acc.iter_mut().zip(col_a).zip(col_b) {
        let d1 = i32::from(qa.wrapping_sub(ma)) as f32;
        let a1 = (-d1).mul_add(d1, *a);
        let d2 = i32::from(qb.wrapping_sub(mb)) as f32;
        *a = (-d2).mul_add(d2, a1);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernels. Every function is gated on a
    //! `#[target_feature]` the dispatcher verified via CPUID, and every
    //! pointer it dereferences lies within a caller-provided slice
    //! (`head` full vectors, then the scalar tail).

    use super::{sweep_i16_dual_scalar, sweep_i16_scalar};
    use std::arch::x86_64::*;

    /// Largest multiple of `lanes` that fits `len`.
    #[inline]
    fn head(len: usize, lanes: usize) -> usize {
        len - len % lanes
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sweep_i16_avx2(acc: &mut [f32], column: &[i16], measured: i16) {
        let n = head(acc.len(), 16);
        let m = _mm256_set1_epi16(measured);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 16 <= n <= len for both slices; the accumulator
            // loads/stores cover acc[i..i+16] as two 8×f32 vectors.
            unsafe {
                let q = _mm256_loadu_si256(column.as_ptr().add(i).cast());
                let d = _mm256_sub_epi16(q, m); // wrapping: the mod-1 fold
                // i16 → i32 → f32 is exact for every lane (|d| ≤ 2¹⁵).
                let lo = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_castsi256_si128(d)));
                let hi = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_extracti128_si256(d, 1)));
                let base = acc.as_mut_ptr().add(i);
                let a0 = _mm256_loadu_ps(base);
                let a1 = _mm256_loadu_ps(base.add(8));
                // Fused −(d·d) + a: the scalar kernel's mul_add rounding.
                _mm256_storeu_ps(base, _mm256_fnmadd_ps(lo, lo, a0));
                _mm256_storeu_ps(base.add(8), _mm256_fnmadd_ps(hi, hi, a1));
            }
            i += 16;
        }
        sweep_i16_scalar(&mut acc[n..], &column[n..], measured);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sweep_i16_dual_avx2(
        acc: &mut [f32],
        col_a: &[i16],
        ma: i16,
        col_b: &[i16],
        mb: i16,
    ) {
        let n = head(acc.len(), 16);
        let va = _mm256_set1_epi16(ma);
        let vb = _mm256_set1_epi16(mb);
        let mut i = 0;
        while i < n {
            // SAFETY: i + 16 <= n <= len for all three slices.
            unsafe {
                let da = _mm256_sub_epi16(_mm256_loadu_si256(col_a.as_ptr().add(i).cast()), va);
                let db = _mm256_sub_epi16(_mm256_loadu_si256(col_b.as_ptr().add(i).cast()), vb);
                let lo_a = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_castsi256_si128(da)));
                let hi_a =
                    _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_extracti128_si256(da, 1)));
                let lo_b = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_castsi256_si128(db)));
                let hi_b =
                    _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_extracti128_si256(db, 1)));
                let base = acc.as_mut_ptr().add(i);
                // Measurement a's fused term lands before measurement
                // b's in each lane — the single-sweep order.
                let a0 = _mm256_fnmadd_ps(lo_a, lo_a, _mm256_loadu_ps(base));
                _mm256_storeu_ps(base, _mm256_fnmadd_ps(lo_b, lo_b, a0));
                let a1 = _mm256_fnmadd_ps(hi_a, hi_a, _mm256_loadu_ps(base.add(8)));
                _mm256_storeu_ps(base.add(8), _mm256_fnmadd_ps(hi_b, hi_b, a1));
            }
            i += 16;
        }
        sweep_i16_dual_scalar(&mut acc[n..], &col_a[n..], ma, &col_b[n..], mb);
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
    }

    /// Every tile length from empty through several vectors plus a tail,
    /// so each kernel's head loop and scalar tail are both exercised.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..40).chain([63, 64, 100, 1000])
    }

    #[test]
    fn i16_auto_matches_scalar_bitwise() {
        let mut rng = Rng(0xbeef);
        for len in lengths() {
            let column: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let measured = rng.next() as i16;
            let mut auto: Vec<f32> = (0..len).map(|i| -(i as f32) * 1000.5).collect();
            let mut scalar = auto.clone();
            sweep_i16(&mut auto, &column, measured, SimdMode::Auto);
            sweep_i16(&mut scalar, &column, measured, SimdMode::Scalar);
            let a: Vec<u32> = auto.iter().map(|v| v.to_bits()).collect();
            let s: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, s, "len {len} (kernel {})", active_kernel());
        }
    }

    #[test]
    fn i16_dual_matches_two_single_sweeps_bitwise() {
        let mut rng = Rng(0xd0a1);
        for len in lengths() {
            let col_a: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let col_b: Vec<i16> = (0..len).map(|_| rng.next() as i16).collect();
            let (ma, mb) = (rng.next() as i16, rng.next() as i16);
            let init: Vec<f32> = (0..len).map(|i| -(i as f32) * 17.25).collect();
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let mut dual = init.clone();
                sweep_i16_dual(&mut dual, &col_a, ma, &col_b, mb, mode);
                let mut singles = init.clone();
                sweep_i16(&mut singles, &col_a, ma, mode);
                sweep_i16(&mut singles, &col_b, mb, mode);
                let d: Vec<u32> = dual.iter().map(|v| v.to_bits()).collect();
                let s: Vec<u32> = singles.iter().map(|v| v.to_bits()).collect();
                assert_eq!(d, s, "len {len} {mode:?} (kernel {})", active_kernel());
            }
        }
    }

    #[test]
    fn extreme_quanta_square_without_overflow() {
        // d = −32768 (exactly −0.5 turns) squares to 2³⁰ — exact in f32,
        // a power of two — through both kernels.
        let column16 = vec![i16::MIN; 33];
        let mut auto16 = vec![0f32; 33];
        let mut scalar16 = vec![0f32; 33];
        sweep_i16(&mut auto16, &column16, 0, SimdMode::Auto);
        sweep_i16(&mut scalar16, &column16, 0, SimdMode::Scalar);
        assert_eq!(
            auto16.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar16.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(auto16.iter().all(|&a| a == -((1u32 << 30) as f32)));
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
        sweep_i16(&mut acc, &[stored], measured, SimdMode::Scalar);
        assert_eq!(acc[0], -(4096.0f32 * 4096.0));
    }

    #[test]
    fn active_kernel_is_stable_and_named() {
        let first = active_kernel();
        assert!(["avx2", "scalar"].contains(&first));
        assert_eq!(first, active_kernel());
    }
}
