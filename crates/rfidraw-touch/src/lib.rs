//! # rfidraw-touch
//!
//! The virtual-touch-screen *application layer* of the RF-IDraw
//! reproduction.
//!
//! The paper's prototype feeds reconstructed trajectories to an Android
//! phone through the MonkeyRunner API, "convert\[ing\] the reconstructed
//! trajectory of the RFID to touch screen input sequences" (§6), and
//! discusses a mouse-like cursor mode with visual feedback for selecting
//! and manipulating on-screen items (§9.3). This crate reproduces that
//! layer:
//!
//! * [`event`] — screen-space touch events (down/move/up) and the
//!   plane-to-pixels mapping;
//! * [`writer`] — converting traced writing into touch-event strokes, one
//!   per letter segment (the MonkeyRunner substitute);
//! * [`cursor`] — the cursor mode: smoothed pointer motion, dwell-to-click
//!   detection and drag tracking.
//!
//! Everything here is pure state-machine logic over the tracker's output —
//! the part of the paper's system that interfaces with a consumer device.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cursor;
pub mod event;
pub mod writer;

pub use cursor::{CursorConfig, CursorEvent, CursorTracker};
pub use event::{ScreenMap, ScreenPos, TouchEvent, TouchPhase};
pub use writer::{stroke_events, word_strokes};
