//! `rfidraw-net`: the dependency-free networking core under the RF-IDraw
//! serving layer.
//!
//! Three layers, each usable alone:
//!
//! 1. [`poller`] — one safe readiness API over `epoll(7)` (Linux) and
//!    `poll(2)` (portable), built on thin FFI shims over symbols libstd
//!    already links (the workspace is fully offline; there is no `libc`
//!    crate here).
//! 2. [`frame`] — wire framing: newline-JSON (wire v2) and the
//!    length-prefixed binary encoding (wire v3), with per-connection
//!    incremental reassembly and first-byte protocol negotiation.
//! 3. [`reactor`] — a single-threaded nonblocking reactor owning the
//!    accept/read/write state machines, delivering complete frames to a
//!    [`reactor::Handler`] and applying its [`reactor::Outbox`] ops.
//!
//! The EPC→shard placement function ([`frame::shard_index`]) lives here
//! too, next to the bytes it hashes, so the serving layer and any future
//! router agree on placement by construction.
//!
//! All `unsafe` is confined to the private `sys` module; the public API
//! is safe.

mod sys;

pub mod frame;
pub mod poller;
pub mod reactor;
pub mod wakeup;

pub use frame::{
    encode_binary_frame, shard_index, BinFrame, ByteReader, ByteWriter, FrameDecoder, FrameError,
    FrameTruncated, RawFrame, WireMode, BINARY_VERSION, DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC,
};
pub use poller::{Event, Interest, Poller, PollerKind};
pub use reactor::{
    spawn, ConnId, Handler, Outbox, ReactorConfig, ReactorHandle, ReactorStats,
};
pub use wakeup::{Wakeup, WakeupHandle};
