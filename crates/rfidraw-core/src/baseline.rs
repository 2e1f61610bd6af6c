//! The compared scheme: conventional antenna-array AoA positioning
//! (paper §6 "Compared Schemes", §8; the approach of Azzouzi et al. \[12\]).
//!
//! The baseline uses the *same number of antennas* as RF-IDraw — eight, as
//! two 4-element uniform linear arrays with λ/4 physical spacing (λ/2
//! effective for backscatter), one along the left edge and one along the
//! bottom edge of RF-IDraw's square. Each array is a conventional
//! beamformer; the tag position estimate at every tick is, independently of
//! all other ticks, the point whose steering maximizes the summed
//! beamforming power of the two arrays (beam intersection).
//!
//! Because each 4-element λ/2 array has a beam tens of degrees wide and the
//! estimate is refreshed independently per tick, its per-point errors are
//! large and mutually independent — which is exactly why its reconstructed
//! trajectories are unrecognizable (§8.1, §9).
//!
//! Faithful to \[12\], the default steering model is **far-field**: each
//! array scans plane-wave angles and the position is where the two bearing
//! beams intersect. At the paper's 2–5 m ranges the plane-wave assumption
//! mismatches the true spherical wavefront across the 0.75 m aperture,
//! which is part of why the published baseline performs as it does; a
//! near-field (exact-distance) variant is available via
//! [`BaselineArrays::far_field`]` = false` for ablations and is strictly
//! stronger. Either way the power is expressed over pair phase
//! *differences* (`|Σ e^{jφ_n}|² = N + 2·Σ_{n<m} cos(Δφ_{nm} −
//! Δφ̂_{nm}(P))`), so per-reader phase offsets cancel exactly as they do on
//! real hardware.

use crate::array::{
    uniform_linear_array, AntennaId, AntennaPair, Deployment, DeploymentBuilder, PairRole,
    ReaderId,
};
use crate::geom::{Plane, Point2, Rect};
use crate::phase::Wavelength;
use crate::stream::PairSnapshot;
use crate::vote::PairMeasurement;
use std::f64::consts::TAU;

/// The two-array baseline positioning scheme.
#[derive(Debug, Clone)]
pub struct BaselineArrays {
    dep: Deployment,
    arrays: Vec<Vec<AntennaId>>,
    /// Steer with the far-field (plane-wave) model, as the compared scheme
    /// \[12\] does (default). `false` upgrades the baseline to near-field
    /// focusing — strictly better than the published scheme, useful for
    /// ablations.
    pub far_field: bool,
}

impl BaselineArrays {
    /// The paper's baseline: two 4-element ULAs with λ/4 physical spacing at
    /// 922 MHz, centred on the left and bottom edges of the 8λ × 8λ square.
    pub fn paper_default() -> Self {
        Self::paper_with_wavelength(Wavelength::paper_default())
    }

    /// The paper baseline scaled to an arbitrary carrier.
    pub fn paper_with_wavelength(wavelength: Wavelength) -> Self {
        let lambda = wavelength.meters();
        let side = 8.0 * lambda;
        let spacing = lambda / 4.0;
        let mid = side / 2.0;
        // Vertical array on the left edge (ids 1–4, reader 1).
        let a1 = uniform_linear_array(
            1,
            ReaderId(1),
            crate::geom::Point3::on_wall(0.0, mid - 1.5 * spacing),
            crate::geom::Point3::on_wall(0.0, spacing),
            4,
        );
        // Horizontal array on the bottom edge (ids 5–8, reader 2).
        let a2 = uniform_linear_array(
            5,
            ReaderId(2),
            crate::geom::Point3::on_wall(mid - 1.5 * spacing, 0.0),
            crate::geom::Point3::on_wall(spacing, 0.0),
            4,
        );
        Self::from_arrays(wavelength, &[a1, a2])
    }

    /// Builds a baseline from explicit arrays (each array is one reader's
    /// antennas, listed in geometric order).
    ///
    /// # Panics
    /// Panics if any array has fewer than two elements.
    pub fn from_arrays(wavelength: Wavelength, arrays: &[Vec<crate::array::Antenna>]) -> Self {
        let mut b = DeploymentBuilder::new(wavelength).backscatter(true);
        let mut ids = Vec::new();
        for arr in arrays {
            assert!(arr.len() >= 2, "a beamforming array needs at least two antennas");
            let mut arr_ids = Vec::new();
            for &ant in arr {
                b = b.antenna(ant);
                arr_ids.push(ant.id);
            }
            // All intra-array pairs participate in the beamforming power.
            for i in 0..arr.len() {
                for j in (i + 1)..arr.len() {
                    b = b.pair(AntennaPair::new(arr[i].id, arr[j].id), PairRole::Wide);
                }
            }
            ids.push(arr_ids);
        }
        Self {
            dep: b.build(),
            arrays: ids,
            far_field: true,
        }
    }

    /// The underlying deployment (for feeding [`crate::stream::SnapshotBuilder`]).
    pub fn deployment(&self) -> &Deployment {
        &self.dep
    }

    /// All pairs whose phase differences the baseline consumes.
    pub fn pairs(&self) -> Vec<AntennaPair> {
        self.dep.all_pairs().copied().collect()
    }

    /// Normalized beamforming power of one array steered at `p`, from the
    /// measured pair phase differences: in `[0, 1]`, 1 when every measured
    /// difference matches the steering exactly. Uses the mode selected by
    /// [`BaselineArrays::far_field`].
    pub fn array_power(
        &self,
        array_index: usize,
        ms: &[PairMeasurement],
        p: crate::geom::Point3,
    ) -> f64 {
        let resolved = self.resolve(ms);
        let phase_factor = TAU * self.dep.path_factor() / self.dep.wavelength().meters();
        let ids = &self.arrays[array_index];
        let n = ids.len() as f64;
        let mut acc = n;
        if self.far_field {
            let c = self.array_center(array_index);
            let dx = p.x - c.x;
            let dy = p.y - c.y;
            let dz = p.z - c.z;
            let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-9);
            let (ux, uy, uz) = (dx / r, dy / r, dz / r);
            for &(pi, pj, dphi) in &resolved[array_index] {
                let bd = (pi.x - pj.x) * ux + (pi.y - pj.y) * uy + (pi.z - pj.z) * uz;
                acc += 2.0 * (dphi - phase_factor * bd).cos();
            }
        } else {
            for &(pi, pj, dphi) in &resolved[array_index] {
                let expected = phase_factor * (p.dist(pi) - p.dist(pj));
                acc += 2.0 * (dphi - expected).cos();
            }
        }
        (acc / (n * n)).max(0.0)
    }

    /// Total power (sum over arrays) at `p` — the baseline's objective.
    pub fn total_power(&self, ms: &[PairMeasurement], p: crate::geom::Point3) -> f64 {
        let resolved = self.resolve(ms);
        self.power_resolved(&resolved, p)
    }

    /// Pre-resolves the measurements for fast repeated power evaluation:
    /// per array, `(pos_i, pos_j, measured Δφ)` triples.
    fn resolve(&self, ms: &[PairMeasurement]) -> Vec<Vec<(crate::geom::Point3, crate::geom::Point3, f64)>> {
        self.arrays
            .iter()
            .map(|ids| {
                ms.iter()
                    .filter(|m| ids.contains(&m.pair.i) && ids.contains(&m.pair.j))
                    .map(|m| {
                        let pi = self.dep.antenna(m.pair.i).expect("validated pair").pos;
                        let pj = self.dep.antenna(m.pair.j).expect("validated pair").pos;
                        (pi, pj, m.delta_phi)
                    })
                    .collect()
            })
            .collect()
    }

    /// Geometric centre of one array.
    fn array_center(&self, ai: usize) -> crate::geom::Point3 {
        let ids = &self.arrays[ai];
        let mut x = 0.0;
        let mut y = 0.0;
        let mut z = 0.0;
        for id in ids {
            let p = self.dep.antenna(*id).expect("validated").pos;
            x += p.x;
            y += p.y;
            z += p.z;
        }
        let n = ids.len() as f64;
        crate::geom::Point3::new(x / n, y / n, z / n)
    }

    /// Total power at `p` from pre-resolved measurements.
    ///
    /// In far-field mode (the published scheme), the expected phase of a
    /// pair comes from projecting its baseline onto the plane-wave
    /// direction from the array centre to `p`; in near-field mode it uses
    /// exact distances.
    fn power_resolved(
        &self,
        resolved: &[Vec<(crate::geom::Point3, crate::geom::Point3, f64)>],
        p: crate::geom::Point3,
    ) -> f64 {
        let phase_factor = TAU * self.dep.path_factor() / self.dep.wavelength().meters();
        resolved
            .iter()
            .enumerate()
            .map(|(ai, arr)| {
                let n = self.arrays[ai].len() as f64;
                let mut acc = n;
                if self.far_field {
                    let c = self.array_center(ai);
                    let dx = p.x - c.x;
                    let dy = p.y - c.y;
                    let dz = p.z - c.z;
                    let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-9);
                    let (ux, uy, uz) = (dx / r, dy / r, dz / r);
                    for &(pi, pj, dphi) in arr {
                        // Plane wave: Δd ≈ (p_i − p_j)·û.
                        let bd =
                            (pi.x - pj.x) * ux + (pi.y - pj.y) * uy + (pi.z - pj.z) * uz;
                        let expected = phase_factor * bd;
                        acc += 2.0 * (dphi - expected).cos();
                    }
                } else {
                    for &(pi, pj, dphi) in arr {
                        let expected = phase_factor * (p.dist(pi) - p.dist(pj));
                        acc += 2.0 * (dphi - expected).cos();
                    }
                }
                (acc / (n * n)).max(0.0)
            })
            .sum()
    }

    /// One independent position estimate: argmax of the total power over
    /// `region`, found on a coarse grid and refined locally.
    pub fn locate(&self, ms: &[PairMeasurement], plane: Plane, region: Rect) -> Point2 {
        let resolved = self.resolve(ms);
        // Coarse scan.
        let coarse = 0.05;
        let mut best = region.center();
        let mut best_p = f64::NEG_INFINITY;
        let nx = (region.width() / coarse).ceil() as usize + 1;
        let nz = (region.height() / coarse).ceil() as usize + 1;
        for iz in 0..nz {
            for ix in 0..nx {
                let p2 = Point2::new(
                    region.min.x + ix as f64 * coarse,
                    region.min.z + iz as f64 * coarse,
                );
                let pw = self.power_resolved(&resolved, plane.lift(p2));
                if pw > best_p {
                    best_p = pw;
                    best = p2;
                }
            }
        }
        // Local refinement at 1 cm within one coarse cell.
        let fine = 0.01;
        let mut refined = best;
        let mut refined_p = best_p;
        let steps = (coarse / fine).ceil() as i64;
        for iz in -steps..=steps {
            for ix in -steps..=steps {
                let p2 = best + Point2::new(ix as f64 * fine, iz as f64 * fine);
                if !region.contains(p2) {
                    continue;
                }
                let pw = self.power_resolved(&resolved, plane.lift(p2));
                if pw > refined_p {
                    refined_p = pw;
                    refined = p2;
                }
            }
        }
        refined
    }

    /// Reconstructs a trajectory by locating **independently at every
    /// snapshot** — the defining property of the baseline (§8.2: "the
    /// antenna array based system estimates each position along the
    /// trajectory independently").
    pub fn trace(&self, snapshots: &[PairSnapshot], plane: Plane, region: Rect) -> Vec<Point2> {
        snapshots
            .iter()
            .map(|s| self.locate(&s.wrapped, plane, region))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point2;
    use crate::vote::ideal_measurements;

    fn region() -> Rect {
        Rect::new(Point2::new(0.0, 0.0), Point2::new(3.0, 2.0))
    }

    #[test]
    fn paper_baseline_uses_eight_antennas_two_arrays() {
        let b = BaselineArrays::paper_default();
        assert_eq!(b.deployment().antennas().len(), 8);
        assert_eq!(b.arrays.len(), 2);
        assert_eq!(b.pairs().len(), 12); // 6 intra-array pairs per array
    }

    #[test]
    fn array_power_peaks_at_truth() {
        let mut b = BaselineArrays::paper_default();
        b.far_field = false; // exact model: the peak is exactly unity
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.4, 1.0);
        let ms = ideal_measurements(b.deployment(), &b.pairs(), plane.lift(truth));
        let p_true = b.total_power(&ms, plane.lift(truth));
        assert!((p_true - 2.0).abs() < 1e-9, "both arrays at unity: {p_true}");
        for (x, z) in [(0.4, 1.0), (1.4, 0.2), (2.5, 1.8)] {
            let p = b.total_power(&ms, plane.lift(Point2::new(x, z)));
            assert!(p < p_true, "power at ({x},{z}) = {p} ≥ {p_true}");
        }
    }

    #[test]
    fn locate_recovers_noise_free_position_roughly() {
        // Even noise-free, the wide beams give the baseline limited
        // curvature near the peak; the near-field variant must land within
        // a few cm here.
        let mut b = BaselineArrays::paper_default();
        b.far_field = false;
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.2, 0.8);
        let ms = ideal_measurements(b.deployment(), &b.pairs(), plane.lift(truth));
        let est = b.locate(&ms, plane, region());
        assert!(
            est.dist(truth) < 0.05,
            "noise-free baseline estimate {est:?} vs {truth:?}"
        );
    }

    #[test]
    fn far_field_steering_is_biased_at_close_range() {
        // The published scheme's plane-wave assumption mismatches the true
        // spherical wavefront at 2 m: even noise-free, the estimate is
        // biased by at least a few centimetres — one of the reasons the
        // paper's baseline performs as it does — yet not wildly lost.
        let b = BaselineArrays::paper_default();
        assert!(b.far_field, "the faithful baseline defaults to far-field");
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.2, 0.8);
        let ms = ideal_measurements(b.deployment(), &b.pairs(), plane.lift(truth));
        let est = b.locate(&ms, plane, region());
        let err = est.dist(truth);
        assert!(
            err > 0.01 && err < 2.0,
            "far-field bias should be visible but not divergent, got {err:.3} m"
        );
    }

    #[test]
    fn baseline_is_far_more_noise_sensitive_than_its_clean_peak() {
        // Apply a modest phase perturbation to every pair and observe the
        // estimate move by tens of centimetres — the §3.3 sensitivity at
        // λ/2-effective separations.
        let b = BaselineArrays::paper_default();
        let plane = Plane::at_depth(2.0);
        let truth = Point2::new(1.2, 0.8);
        let mut ms = ideal_measurements(b.deployment(), &b.pairs(), plane.lift(truth));
        // Deterministic pseudo-noise, alternating sign, π/5 magnitude.
        for (n, m) in ms.iter_mut().enumerate() {
            let s = if n % 2 == 0 { 1.0 } else { -1.0 };
            m.delta_phi = crate::phase::wrap_pi(m.delta_phi + s * std::f64::consts::PI / 5.0);
        }
        let est = b.locate(&ms, plane, region());
        assert!(
            est.dist(truth) > 0.05,
            "expected a visibly degraded estimate, got {:.3} m",
            est.dist(truth)
        );
    }

    #[test]
    fn trace_is_per_tick_independent() {
        let mut b = BaselineArrays::paper_default();
        b.far_field = false;
        let plane = Plane::at_depth(2.0);
        let path = vec![
            Point2::new(1.0, 1.0),
            Point2::new(1.05, 1.0),
            Point2::new(1.1, 1.0),
        ];
        let snaps = crate::trace::ideal_snapshots(b.deployment(), plane, &path, 0.05);
        let traced = b.trace(&snaps, plane, region());
        assert_eq!(traced.len(), path.len());
        for (est, truth) in traced.iter().zip(&path) {
            assert!(est.dist(*truth) < 0.06, "{est:?} vs {truth:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two antennas")]
    fn from_arrays_rejects_singleton() {
        let wl = Wavelength::paper_default();
        let arr = vec![crate::array::Antenna {
            id: AntennaId(1),
            reader: ReaderId(1),
            pos: crate::geom::Point3::on_wall(0.0, 0.0),
        }];
        let _ = BaselineArrays::from_arrays(wl, &[arr]);
    }
}
