//! Minimal epoll readiness facility, hand-declared against the C library
//! the Rust runtime already links.
//!
//! The serve crate is std-only by policy, and std exposes no readiness
//! API — but every Linux Rust binary is already linked against a libc
//! that exports `epoll_create1`/`epoll_ctl`/`epoll_wait`. Declaring
//! those three symbols ourselves costs zero new dependencies and zero
//! vendored code; this module is the entire FFI surface of the crate.
//!
//! Scope is deliberately tiny: level-triggered readiness on sockets the
//! caller owns, a `u64` token per registration, millisecond waits. No
//! edge-triggered mode (the event loop re-polls naturally), no oneshot,
//! no timerfd/signalfd — deadlines ride on the wait timeout instead.
//!
//! Everything here returns `io::Error` from `errno` on failure; nothing
//! panics. The only `unsafe` is the syscall boundary itself, and each
//! call site documents why it is sound.

#![deny(clippy::undocumented_unsafe_blocks)]
// The full readiness vocabulary is declared even where the event loop
// only arms a subset; an FFI surface is documented whole or not at all.
#![allow(dead_code)]

use std::io;
use std::os::fd::{AsRawFd, RawFd};

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never needs arming.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never needs arming.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake only one waiter per event (`EPOLLEXCLUSIVE`, Linux 4.5+). Used
/// on the shared listener so a connect does not wake every shard.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// The kernel's `struct epoll_event`. Packed on x86_64 (a 32-bit ABI
/// fossil the 64-bit ABI kept for compatibility); naturally aligned
/// everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct Event {
    /// Ready-state bit set (`EPOLLIN | …`).
    pub events: u32,
    /// The caller's token from [`Epoll::add`].
    pub data: u64,
}

impl Event {
    /// The registration token carried back by the kernel. By-value
    /// reads are the only safe access on the x86_64 packed layout.
    pub fn token(&self) -> u64 {
        self.data
    }

    /// The readiness bits for this event.
    pub fn ready(&self) -> u32 {
        self.events
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// An owned epoll instance. Closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // the only failure mode and is checked below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = Event {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning. `fd` validity is the caller's contract (we only
        // pass fds of sockets the event loop owns).
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with `interest`, tagging events with `token`.
    pub fn add<F: AsRawFd>(&self, fd: &F, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), interest, token)
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify<F: AsRawFd>(&self, fd: &F, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), interest, token)
    }

    /// Deregister `fd`. Errors are swallowed: the fd may already be
    /// closed, and deregistration is best-effort on teardown paths.
    pub fn remove<F: AsRawFd>(&self, fd: &F) {
        let _ignored = self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0);
    }

    /// Wait up to `timeout_ms` (-1 blocks indefinitely) and fill
    /// `events`; returns the ready prefix. EINTR retries internally —
    /// callers treat a premature empty return as a timeout tick.
    pub fn wait<'e>(&self, events: &'e mut [Event], timeout_ms: i32) -> io::Result<&'e [Event]> {
        loop {
            let cap = events.len().min(i32::MAX as usize) as i32;
            // SAFETY: the pointer/len pair describes `events`, which is
            // live and writable for the duration of the call; the kernel
            // writes at most `cap` entries and returns how many.
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), cap, timeout_ms) };
            if rc >= 0 {
                return Ok(&events[..rc as usize]);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` came from epoll_create1 and is closed
        // exactly once (Drop runs once).
        let _ignored = unsafe { close(self.fd) };
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn event_layout_matches_the_kernel_abi() {
        // `epoll_ctl`/`epoll_wait` read and write `struct epoll_event`
        // through raw pointers, so the Rust layout must be the C one.
        let (size, data_offset) = if cfg!(target_arch = "x86_64") {
            (12, 4)
        } else {
            (16, 8)
        };
        assert_eq!(std::mem::size_of::<Event>(), size);
        assert_eq!(std::mem::offset_of!(Event, data), data_offset);
    }

    #[test]
    fn listener_readiness_fires_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(&listener, EPOLLIN, 7).unwrap();

        let mut events = [Event { events: 0, data: 0 }; 8];
        // Nothing pending yet: a zero-timeout wait returns empty.
        assert!(ep.wait(&mut events, 0).unwrap().is_empty());

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let ready = ep.wait(&mut events, 2_000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token(), 7);
        assert!(ready[0].ready() & EPOLLIN != 0);
    }

    #[test]
    fn stream_data_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _peer) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        // A fresh socket armed for EPOLLOUT is immediately writable.
        ep.add(&server_side, EPOLLOUT, 1).unwrap();
        let mut events = [Event { events: 0, data: 0 }; 8];
        let ready = ep.wait(&mut events, 2_000).unwrap();
        assert!(ready
            .iter()
            .any(|e| e.token() == 1 && e.ready() & EPOLLOUT != 0));

        // Switch to read interest; quiet until the client writes.
        ep.modify(&server_side, EPOLLIN | EPOLLRDHUP, 2).unwrap();
        assert!(ep.wait(&mut events, 0).unwrap().is_empty());
        client.write_all(b"ping").unwrap();
        let ready = ep.wait(&mut events, 2_000).unwrap();
        assert!(ready
            .iter()
            .any(|e| e.token() == 2 && e.ready() & EPOLLIN != 0));

        // Peer half-close surfaces as RDHUP.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let ready = ep.wait(&mut events, 2_000).unwrap();
        assert!(ready
            .iter()
            .any(|e| e.ready() & (EPOLLRDHUP | EPOLLHUP | EPOLLIN) != 0));

        ep.remove(&server_side);
        assert!(ep.wait(&mut events, 0).unwrap().is_empty());
    }
}
