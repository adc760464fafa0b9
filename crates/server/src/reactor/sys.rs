//! Readiness-source abstraction: epoll on Linux, `poll(2)` on other
//! POSIX, both via direct `extern "C"` declarations against the libc
//! std already links — no new dependencies.
//!
//! Both backends are **level-triggered**: an fd with unread input (or
//! writable space, when write interest is registered) is reported on
//! every wait until the condition clears. The event loop leans on that
//! — it never has to remember "there might still be data" at the
//! kernel level, only for bytes it has already pulled into user-space
//! buffers (see the ready-backlog in `mod.rs`).
//!
//! The trait is object-safe and tiny so tests can substitute a
//! deterministic scripted source and drive the loop event by event.

use std::io;
use std::os::fd::RawFd;

/// Bitmask interest: the loop wants to know when the fd is readable.
pub(crate) const READABLE: u32 = 0b01;
/// Bitmask interest: the loop wants to know when the fd is writable.
pub(crate) const WRITABLE: u32 = 0b10;

/// One readiness report for a registered fd, keyed by the caller's
/// token (never the raw fd — tokens survive fd reuse races).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup (peer closed). The dispatcher treats this as
    /// readable — the next read observes the EOF/error directly.
    pub hangup: bool,
}

/// What the event loop needs from the OS (or from a test fake): an
/// interest registry plus a blocking wait.
pub(crate) trait ReadinessSource: Send {
    fn register(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()>;
    fn modify(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()>;
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;
    /// Fill `events` (cleared first) with ready fds, waiting at most
    /// `timeout_ms` (0 = poll and return). A signal-interrupted wait
    /// returns `Ok` with no events.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()>;
}

/// The default backend for the current platform.
pub(crate) fn default_source() -> io::Result<Box<dyn ReadinessSource>> {
    #[cfg(target_os = "linux")]
    {
        Ok(Box::new(Epoll::new()?))
    }
    #[cfg(not(target_os = "linux"))]
    {
        Ok(Box::new(Poll::new()))
    }
}

const EINTR: i32 = 4;

// ---------------------------------------------------------------- poll

// On Linux this backend is exercised only by tests (epoll is the
// default), so dead-code analysis of the non-test build is silenced.
#[cfg_attr(target_os = "linux", allow(dead_code))]
mod poll_backend {
    use super::*;

    #[cfg(target_os = "linux")]
    type Nfds = u64;
    #[cfg(not(target_os = "linux"))]
    type Nfds = u32;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;
    const POLLNVAL: i16 = 0x20;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// `poll(2)` backend: a linear interest list rebuilt into a `pollfd`
    /// array per wait. O(n) per call, but portable to every POSIX — and
    /// compiled (and tested) on Linux too, so the fallback never rots.
    #[derive(Default)]
    pub(crate) struct Poll {
        interest: Vec<(RawFd, usize, u32)>,
        scratch: Vec<PollFd>,
    }

    impl Poll {
        pub(crate) fn new() -> Self {
            Self::default()
        }

        fn position(&self, fd: RawFd) -> Option<usize> {
            self.interest.iter().position(|&(f, _, _)| f == fd)
        }
    }

    impl ReadinessSource for Poll {
        fn register(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()> {
            if self.position(fd).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.interest.push((fd, token, interest));
            Ok(())
        }

        fn modify(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()> {
            let slot = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.interest[slot] = (fd, token, interest);
            Ok(())
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let slot = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.interest.swap_remove(slot);
            Ok(())
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            self.scratch.clear();
            for &(fd, _, interest) in &self.interest {
                let mut mask = 0i16;
                if interest & READABLE != 0 {
                    mask |= POLLIN;
                }
                if interest & WRITABLE != 0 {
                    mask |= POLLOUT;
                }
                self.scratch.push(PollFd {
                    fd,
                    events: mask,
                    revents: 0,
                });
            }
            let rc = unsafe {
                poll(
                    self.scratch.as_mut_ptr(),
                    self.scratch.len() as Nfds,
                    timeout_ms,
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.raw_os_error() == Some(EINTR) {
                    return Ok(());
                }
                return Err(err);
            }
            for (slot, pfd) in self.scratch.iter().enumerate() {
                if pfd.revents == 0 {
                    continue;
                }
                let hangup = pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
                events.push(Event {
                    token: self.interest[slot].1,
                    readable: pfd.revents & POLLIN != 0 || hangup,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup,
                });
            }
            Ok(())
        }
    }
}

#[cfg_attr(target_os = "linux", allow(unused_imports))]
pub(crate) use poll_backend::Poll;

// --------------------------------------------------------------- epoll

#[cfg(target_os = "linux")]
mod epoll_backend {
    use super::*;

    // x86-64 packs epoll_event to 12 bytes (a quirk the kernel ABI
    // inherited from 32-bit compatibility); other architectures use
    // natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const MAX_EVENTS: usize = 256;

    /// Linux epoll backend: O(ready) waits regardless of how many
    /// connections are registered — the backend the 512-agent scaling bench
    /// runs on.
    pub(crate) struct Epoll {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub(crate) fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: u32) -> io::Result<()> {
            let mut mask = EPOLLRDHUP;
            if interest & READABLE != 0 {
                mask |= EPOLLIN;
            }
            if interest & WRITABLE != 0 {
                mask |= EPOLLOUT;
            }
            let mut event = EpollEvent {
                events: mask,
                data: token as u64,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    impl ReadinessSource for Epoll {
        fn register(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        fn modify(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // The event argument must be non-null for portability with
            // pre-2.6.9 kernels; contents are ignored.
            let mut event = EpollEvent { events: 0, data: 0 };
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let rc = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.raw_os_error() == Some(EINTR) {
                    return Ok(());
                }
                return Err(err);
            }
            for raw in &self.buf[..rc as usize] {
                let (mask, data) = (raw.events, raw.data);
                let hangup = mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                events.push(Event {
                    token: data as usize,
                    readable: mask & EPOLLIN != 0 || hangup,
                    writable: mask & EPOLLOUT != 0,
                    hangup,
                });
            }
            Ok(())
        }
    }
}

#[cfg(target_os = "linux")]
pub(crate) use epoll_backend::Epoll;

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    /// Both backends must agree on the readiness contract: readable
    /// only once data arrives, level-triggered until drained, writable
    /// on request, hangup on peer close.
    fn exercise(source: &mut dyn ReadinessSource) {
        let (mut a, b) = pair();
        let mut events = Vec::new();

        source.register(a.as_raw_fd(), 7, READABLE).unwrap();
        source.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no data, no readiness");

        (&b).write_all(b"x").unwrap();
        source.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable && !events[0].writable);

        // Level-triggered: still readable until the byte is consumed.
        source.wait(&mut events, 0).unwrap();
        assert_eq!(events.len(), 1, "level-triggered re-report");
        let mut byte = [0u8; 8];
        let n = a.read(&mut byte).unwrap();
        assert_eq!(n, 1);
        source.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained fd goes quiet");

        // Write interest on an idle socket fires immediately.
        source
            .modify(a.as_raw_fd(), 7, READABLE | WRITABLE)
            .unwrap();
        source.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);
        source.modify(a.as_raw_fd(), 7, READABLE).unwrap();

        // Peer close surfaces as hangup/readable; a read then sees EOF.
        drop(b);
        source.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable);
        assert!(events[0].hangup);
        assert_eq!(a.read(&mut byte).unwrap(), 0);

        source.deregister(a.as_raw_fd()).unwrap();
        source.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "deregistered fd reports nothing");
    }

    #[test]
    fn poll_backend_contract() {
        exercise(&mut Poll::new());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_contract() {
        exercise(&mut Epoll::new().unwrap());
    }

    #[test]
    fn poll_rejects_double_register_and_unknown_fds() {
        let mut source = Poll::new();
        let (a, _b) = pair();
        source.register(a.as_raw_fd(), 1, READABLE).unwrap();
        assert!(source.register(a.as_raw_fd(), 2, READABLE).is_err());
        assert!(source.modify(999, 1, READABLE).is_err());
        assert!(source.deregister(999).is_err());
    }
}
