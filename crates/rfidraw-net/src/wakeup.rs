//! The reactor's cross-thread wakeup: a nonblocking self-pipe.
//!
//! The reactor thread sleeps in `poll`/`epoll_wait`; anything outside it
//! (a session worker with updates to deliver or queue room to report, a
//! shutdown request) needs a way to end that sleep *through the poller*,
//! not around it. [`Wakeup`] owns the read
//! end of a pipe registered with the poller under a reserved token;
//! [`WakeupHandle`] is the cheap, cloneable write end. `notify` writes
//! one byte — a full pipe means a wakeup is already pending, so the write
//! simply being attempted is enough — and the reactor drains the pipe
//! when the token reports readable, then asks its handler what the
//! wakeup was for.
//!
//! Both ends are nonblocking, so neither side can ever stall on the
//! other: the whole point of the primitive is that the reactor thread
//! never sleeps anywhere except the poller.

use crate::sys;
use std::io;
use std::os::fd::RawFd;
use std::sync::Arc;

/// Owns the write end so late notifiers (for example a drain waiter that
/// fires after reactor shutdown) hit a closed pipe — an ignorable error —
/// rather than a reused descriptor.
struct WriteEnd(RawFd);

impl Drop for WriteEnd {
    fn drop(&mut self) {
        sys::sys_close(self.0);
    }
}

/// The notifying half. Clone freely and hand to other threads; dropping
/// the last clone closes the write end.
#[derive(Clone)]
pub struct WakeupHandle {
    write_end: Arc<WriteEnd>,
}

impl WakeupHandle {
    /// Wakes the owning reactor. Never blocks: a full pipe (wakeup
    /// already pending) and a closed read end (reactor gone) are both
    /// fine to ignore.
    pub fn notify(&self) {
        let _ = sys::sys_write(self.write_end.0, &[1u8]);
    }
}

impl std::fmt::Debug for WakeupHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeupHandle").field("fd", &self.write_end.0).finish()
    }
}

/// The receiving half, owned by the reactor: the pipe's read end plus a
/// template handle to clone for notifiers.
pub struct Wakeup {
    read_fd: RawFd,
    handle: WakeupHandle,
}

impl Wakeup {
    /// Opens a fresh nonblocking self-pipe.
    pub fn new() -> io::Result<Self> {
        let (read_fd, write_fd) = sys::sys_pipe_nonblocking()?;
        Ok(Self { read_fd, handle: WakeupHandle { write_end: Arc::new(WriteEnd(write_fd)) } })
    }

    /// A handle other threads use to wake this reactor.
    pub fn handle(&self) -> WakeupHandle {
        self.handle.clone()
    }

    /// The fd to register with the poller (read interest).
    pub fn as_raw_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Swallows every pending notification byte (a short read emptied
    /// the pipe). Level-triggered pollers would otherwise report the pipe
    /// readable forever.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!(sys::sys_read(self.read_fd, &mut buf), Ok(n) if n == buf.len()) {}
    }
}

impl Drop for Wakeup {
    fn drop(&mut self) {
        sys::sys_close(self.read_fd);
    }
}
