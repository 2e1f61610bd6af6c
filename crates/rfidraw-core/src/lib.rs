//! # rfidraw-core
//!
//! Core algorithms of **RF-IDraw** (Wang, Vasisht, Katabi — SIGCOMM 2014):
//! multi-resolution RFID angle-of-arrival positioning and trajectory tracing.
//!
//! RF-IDraw localizes and traces a UHF RFID using the signal phases measured
//! at a small number of reader antennas. Its key idea is to embrace the
//! *grating lobes* of widely-separated antenna pairs: a pair separated by
//! `D >> λ/2` produces many narrow beams (high resolution, ambiguous), while
//! a pair at `λ/2` produces one wide beam (unambiguous, coarse). Intersecting
//! the narrow lobes and filtering the ambiguity with the coarse beams yields
//! positioning resolution far beyond a conventional array with the same
//! antenna count, and locking onto one lobe per pair while it rotates traces
//! the *shape* of a motion with centimetre fidelity.
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`geom`] | — | points, planes, distances |
//! | [`phase`] | §3.1 | phase wrap/unwrap, wavelength helpers (Eq. 1–2) |
//! | [`array`](mod@array) | §3.4–3.5, §6 | antennas, pairs, deployments (Fig. 6d) |
//! | [`lobes`] | §3.2–3.3 | grating-lobe structure, AoA candidates (Eq. 3–5) |
//! | [`vote`] | §5.1 | per-pair votes on points (Eq. 6–7) |
//! | [`grid`] | §5.1 | search surfaces and vote-map evaluation |
//! | [`exec`] | — | worker-pool sizing for the serving layer |
//! | [`obs`] | — | trace-event vocabulary for pipeline observability |
//! | [`engine`] | §5.1 | cache-aware vote-map engine |
//! | [`position`] | §5.1 | two-stage multi-resolution positioning |
//! | [`stream`] | §6 | per-antenna phase streams → per-pair snapshots |
//! | [`trace`] | §4, §5.2 | lobe-locked trajectory tracing |
//! | [`online`] | §6 | incremental real-time tracking with pruning |
//! | [`volume`] | extension | 3-D depth scan (auto-calibrating the plane) |
//! | [`baseline`] | §6, §8 | the compared antenna-array AoA scheme |
//!
//! ## Coordinate conventions
//!
//! All reader antennas are deployed on a wall, the plane `y = 0`, and are
//! addressed by `(x, z)` coordinates within that wall (`x` horizontal, `z`
//! vertical, metres). The user writes on a *virtual screen*: a plane parallel
//! to the wall at depth `y > 0`. Positioning and tracing search over 2-D
//! points of that plane ([`geom::Plane`]), but always use exact 3-D
//! distances — the paper's Eq. 2 (hyperbola) form rather than the far-field
//! approximation of Eq. 3, as §3.1 recommends for nearby sources.
//!
//! ## Backscatter round trip
//!
//! An RFID backscatters the reader's own carrier, so a measured phase
//! encodes the **round-trip** distance `2d` (§6 footnote 3). Every
//! [`array::Deployment`] therefore carries a `path_factor` (2.0 for
//! backscatter RFID, 1.0 for an active transmitter) that scales all
//! distance-to-phase conversions, and the paper's λ/2-behaviour tight pairs
//! are physically separated by λ/4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod baseline;
pub mod engine;
pub mod exec;
pub mod filter;
pub mod geom;
pub mod grid;
pub mod lobes;
pub mod obs;
pub mod online;
pub mod phase;
pub mod position;
pub mod stream;
pub mod trace;
pub mod volume;
pub mod vote;

pub use array::{Antenna, AntennaId, AntennaPair, Deployment, ReaderId};
pub use engine::{TablePrecision, VoteEngine};
pub use exec::Parallelism;
pub use geom::{Plane, Point2, Point3};
pub use grid::{Grid2, VoteMap};
pub use phase::{Wavelength, SPEED_OF_LIGHT};
pub use position::{Candidate, MultiResConfig, MultiResPositioner};
pub use stream::{PairSnapshot, PhaseRead, SnapshotBuilder};
pub use trace::{TraceConfig, TraceResult, TrajectoryTracer};
