//! End-to-end serving benchmark for the RF-IDraw tracking service.
//!
//! Simulated writers (corpus words or single-glyph taps, through the pen
//! model, the channel and the Gen-2 ALOHA inventory) produce reads; the
//! load generator sends them as wire v3 frames over loopback into one
//! reactor front end and receives the `PositionUpdate`s on a subscriber
//! connection. Every update is checked bit for bit against standalone
//! trackers built from the same template. See `README.md` for the
//! workloads, the metrics and what each per-layer metric should move.

pub mod gen;
pub mod oracle;
pub mod proc;
pub mod replay;
pub mod run;
pub mod span;
pub mod stats;
pub mod tcp;
