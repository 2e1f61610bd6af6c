//! Phase arithmetic and the distance–phase relation (paper §3.1, Eq. 1–2).
//!
//! The phase of an RF signal rotates by `2π` for every wavelength λ it
//! travels. For a source at distance `d` from an antenna the received phase
//! is `φ = −mod(2π·d/λ, 2π)` (Eq. 1); a backscatter RFID doubles the path.
//! Positioning works with *phase differences* between two antennas, which
//! relate to the *distance difference* up to an integer number of turns
//! (Eq. 2) — the integer `k` that indexes grating lobes.
//!
//! This module provides the wrap/unwrap primitives that the rest of the
//! system builds on. Angles are `f64` radians throughout; several helpers
//! also work in *turns* (fractions of `2π`) because Eq. 2 is most natural in
//! that unit: `Δd/λ = Δφ/2π + k`.

use std::f64::consts::{PI, TAU};

/// Speed of light in vacuum (m/s).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// A carrier wavelength (metres), constructed from a frequency or directly.
///
/// The RF-IDraw prototype queries EPC Gen-2 tags at 922 MHz (§6), giving
/// λ ≈ 32.5 cm.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Wavelength(f64);

impl Wavelength {
    /// Wavelength of a carrier at `hz` (e.g. `922e6` for the paper setup).
    ///
    /// # Panics
    /// Panics if the frequency is not finite and positive.
    pub fn from_frequency_hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "carrier frequency must be positive, got {hz}");
        Self(SPEED_OF_LIGHT / hz)
    }

    /// Wavelength directly in metres.
    ///
    /// # Panics
    /// Panics if the value is not finite and positive.
    pub fn from_meters(m: f64) -> Self {
        assert!(m.is_finite() && m > 0.0, "wavelength must be positive, got {m}");
        Self(m)
    }

    /// The paper's carrier: 922 MHz (λ ≈ 0.3252 m).
    pub fn paper_default() -> Self {
        Self::from_frequency_hz(922e6)
    }

    /// The wavelength in metres.
    pub fn meters(&self) -> f64 {
        self.0
    }

    /// Phase accumulated over a one-way distance `d` (radians, unwrapped).
    ///
    /// Multiply `d` by the deployment's path factor first for backscatter.
    pub fn phase_over(&self, d: f64) -> f64 {
        TAU * d / self.0
    }

    /// Distance expressed in wavelengths: `d / λ`.
    pub fn turns_over(&self, d: f64) -> f64 {
        d / self.0
    }
}

/// Wraps an angle into `[0, 2π)`.
pub fn wrap_tau(theta: f64) -> f64 {
    let r = theta.rem_euclid(TAU);
    // rem_euclid can return exactly TAU when theta is a tiny negative number
    // due to rounding; normalize that edge back to 0.
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// Wraps an angle into `[−π, π)`.
pub fn wrap_pi(theta: f64) -> f64 {
    let r = wrap_tau(theta + PI) - PI;
    if r >= PI {
        -PI
    } else {
        r
    }
}

/// Signed smallest rotation from `a` to `b`, in `[−π, π)`.
pub fn diff(a: f64, b: f64) -> f64 {
    wrap_pi(b - a)
}

/// Incremental unwrap: returns the angle closest to `prev_unwrapped` that is
/// congruent to `wrapped` modulo `2π`.
///
/// Feed successive wrapped measurements through this to obtain a continuous
/// phase series, assuming the true phase never moves more than `π` between
/// consecutive samples — the sampling-rate condition of [`crate::stream`].
pub fn unwrap_step(prev_unwrapped: f64, wrapped: f64) -> f64 {
    prev_unwrapped + diff(wrap_tau(prev_unwrapped), wrap_tau(wrapped))
}

/// Unwraps a whole series of wrapped phases starting from its first sample.
///
/// Returns an empty vector for empty input. The first output equals the
/// first input (wrapped into `[0, 2π)`).
pub fn unwrap_series(wrapped: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(wrapped.len());
    let mut prev = match wrapped.first() {
        Some(&w) => wrap_tau(w),
        None => return out,
    };
    out.push(prev);
    for &w in &wrapped[1..] {
        prev = unwrap_step(prev, w);
        out.push(prev);
    }
    out
}

pub use rfidraw_simd::frac_dist_to_integer;

/// Quantizes a value in turns to two's-complement fixed point with 2¹⁶
/// quanta per turn — the i16 vote-table representation.
///
/// The scale is deliberately the full type width: the fractional part of a
/// turn then occupies exactly the value range of the integer, so the
/// modulo-1-turn fold (the `min_k ‖x − k‖` of Eq. 7) is performed *for
/// free* by two's-complement wrap-around. `round` picks the nearest
/// representable quantum, so the dequantized value `q/2¹⁶ (mod 1)` is
/// within half a quantum (`2⁻¹⁷` turns) of `x mod 1`, and a wrapping
/// subtraction of two quantized values lands within one quantum (`2⁻¹⁶`
/// turns) of the true fractional difference — the quantization step the
/// derived vote-error bound charges per measurement.
///
/// The wrap means the stored value is `x·2¹⁶ mod 2¹⁶` reinterpreted
/// signed — integer turns vanish, exactly as the triangle wave requires.
/// Callers must keep `|x| ≤ 2²²` turns (≈ 4.2 M turns — over a
/// megametre of path difference; every physical deployment is orders of
/// magnitude below it) so the intermediate product stays well inside
/// `i64`.
pub fn quantize_turns_i16(x: f64) -> i16 {
    ((x * 65_536.0).round() as i64) as i16
}

/// The nearest integer `k` to `x` — the index of the closest grating lobe.
pub fn nearest_lobe_index(x: f64) -> i64 {
    // Positions reachable in practice keep |x| far below i64::MAX turns;
    // saturate defensively for pathological inputs.
    let r = x.round();
    if r >= i64::MAX as f64 {
        i64::MAX
    } else if r <= i64::MIN as f64 {
        i64::MIN
    } else {
        r as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn wavelength_from_paper_frequency() {
        let wl = Wavelength::paper_default();
        assert!((wl.meters() - 0.32516).abs() < 1e-4);
    }

    #[test]
    fn wavelength_phase_over_one_wavelength_is_tau() {
        let wl = Wavelength::from_meters(0.3);
        assert!((wl.phase_over(0.3) - TAU).abs() < EPS);
        assert!((wl.turns_over(0.6) - 2.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "carrier frequency")]
    fn wavelength_rejects_negative_frequency() {
        let _ = Wavelength::from_frequency_hz(-1.0);
    }

    #[test]
    fn wrap_tau_stays_in_range() {
        for theta in [-10.0, -TAU, -PI, -0.1, 0.0, 0.1, PI, TAU, 10.0, 1e6] {
            let w = wrap_tau(theta);
            assert!((0.0..TAU).contains(&w), "wrap_tau({theta}) = {w}");
            // Congruence modulo 2π.
            assert!(((w - theta) / TAU - ((w - theta) / TAU).round()).abs() < 1e-9);
        }
    }

    #[test]
    fn wrap_pi_stays_in_range() {
        for theta in [-10.0, -TAU, -PI, -0.1, 0.0, 0.1, PI, TAU, 10.0] {
            let w = wrap_pi(theta);
            assert!((-PI..PI).contains(&w), "wrap_pi({theta}) = {w}");
        }
    }

    #[test]
    fn wrap_pi_maps_pi_to_minus_pi() {
        assert!((wrap_pi(PI) + PI).abs() < EPS);
    }

    #[test]
    fn diff_picks_short_way_around() {
        // From 0.1 rad to 2π−0.1 rad the short way is −0.2 rad.
        let d = diff(0.1, TAU - 0.1);
        assert!((d + 0.2).abs() < EPS, "diff = {d}");
    }

    #[test]
    fn unwrap_step_tracks_through_wrap() {
        // Simulated phase climbing continuously through the 2π boundary.
        let truth: Vec<f64> = (0..100).map(|i| 0.1 * i as f64).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap_tau(t)).collect();
        let un = unwrap_series(&wrapped);
        for (u, t) in un.iter().zip(&truth) {
            assert!((u - t).abs() < 1e-9, "unwrap {u} vs truth {t}");
        }
    }

    #[test]
    fn unwrap_step_tracks_decreasing_phase() {
        let truth: Vec<f64> = (0..100).map(|i| 5.0 - 0.17 * i as f64).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap_tau(t)).collect();
        let un = unwrap_series(&wrapped);
        // Unwrapped series differs from truth by a constant multiple of 2π
        // (the initial sample is wrapped); differences must match exactly.
        for w in un.windows(2).zip(truth.windows(2)) {
            let (uw, tw) = w;
            assert!(((uw[1] - uw[0]) - (tw[1] - tw[0])).abs() < 1e-9);
        }
    }

    #[test]
    fn unwrap_series_empty_and_single() {
        assert!(unwrap_series(&[]).is_empty());
        let one = unwrap_series(&[7.0]);
        assert_eq!(one.len(), 1);
        assert!((one[0] - wrap_tau(7.0)).abs() < EPS);
    }

    #[test]
    fn frac_dist_to_integer_basics() {
        assert!((frac_dist_to_integer(2.0) - 0.0).abs() < EPS);
        assert!((frac_dist_to_integer(2.25) - 0.25).abs() < EPS);
        assert!((frac_dist_to_integer(-1.6) - 0.4).abs() < EPS);
        assert!((frac_dist_to_integer(0.5) - 0.5).abs() < EPS);
    }

    #[test]
    fn quantize_turns_wraps_integer_turns_away() {
        assert_eq!(quantize_turns_i16(0.25), 16_384);
        assert_eq!(quantize_turns_i16(-0.25), -16_384);
        // Whole turns vanish in the two's-complement wrap.
        assert_eq!(quantize_turns_i16(3.25), 16_384);
        assert_eq!(quantize_turns_i16(-7.75), 16_384);
        // Exactly half a turn lands on the type minimum (distance 0.5
        // either way, like the tie in the float triangle wave).
        assert_eq!(quantize_turns_i16(0.5), i16::MIN);
    }

    #[test]
    fn wrapped_quantized_difference_tracks_triangle_wave() {
        // |wrap(q_t − q_m)| / 2ᴮ must stay within one quantum of the exact
        // g(t − m) — the quantization-step term of the derived bound.
        for i in 0..4000 {
            let t = (i as f64) * 0.0137 - 27.4;
            let m = (i as f64) * -0.0071 + 3.3;
            let g = frac_dist_to_integer(t - m);
            let d16 = quantize_turns_i16(t).wrapping_sub(quantize_turns_i16(m));
            let g16 = f64::from(i32::from(d16).abs()) / 65_536.0;
            assert!((g16 - g).abs() <= 1.0 / 65_536.0, "i16: t={t} m={m} {g16} vs {g}");
        }
    }

    #[test]
    fn nearest_lobe_index_rounds() {
        assert_eq!(nearest_lobe_index(2.4), 2);
        assert_eq!(nearest_lobe_index(2.6), 3);
        assert_eq!(nearest_lobe_index(-2.6), -3);
        assert_eq!(nearest_lobe_index(0.0), 0);
    }
}
