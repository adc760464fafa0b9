//! Transport plumbing: one listener/stream abstraction over TCP and
//! Unix-domain sockets, so every other module is transport-agnostic.
//!
//! `std::net` + `std::os::unix::net` only — the server works fully
//! offline on loopback, which is exactly how the benches and CI
//! drive it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Where to bind a server.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A TCP address string, e.g. `"127.0.0.1:0"` (port 0 picks a free
    /// port; the actual one is in the returned [`Endpoint`]).
    Tcp(String),
    /// A Unix-domain socket path. An existing socket file at the path is
    /// removed before binding (the conventional daemon behaviour).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// A connectable address — what a bound listener actually listens on,
/// and what [`crate::AgentSender`]/[`crate::QueryClient`] dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A resolved TCP socket address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

impl Endpoint {
    /// Dial the endpoint, returning a connected stream.
    pub(crate) fn connect(&self) -> io::Result<Conn> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }
}

/// A bound listening socket of either transport.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// Accept-backlog requested at bind time. `std` hardcodes 128, which a
/// fleet of agents reconnecting at once (or a connection-scaling bench)
/// overflows — and on Linux a listen-queue overflow activates SYN
/// cookies, under which a connection's tail segments can be silently
/// dropped. The kernel clamps this to `net.core.somaxconn`.
const LISTEN_BACKLOG: i32 = 4096;

#[cfg(unix)]
extern "C" {
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// Grow the accept backlog of an already-listening socket: POSIX allows
/// a second `listen(2)` on a listening fd to re-specify the queue
/// length. Best-effort — the socket already works with the default.
#[cfg(unix)]
fn widen_backlog(fd: std::os::fd::RawFd) {
    // SAFETY: `fd` is a valid listening socket owned by the caller;
    // `listen` does not retain it.
    let _ = unsafe { listen(fd, LISTEN_BACKLOG) };
}

#[cfg(not(unix))]
fn widen_backlog(_fd: i32) {}

impl Listener {
    /// Bind `bind`, returning the listener and the concrete endpoint
    /// (with the OS-assigned port resolved for `Tcp(":0")` binds).
    pub(crate) fn bind(bind: &Bind) -> io::Result<(Self, Endpoint)> {
        match bind {
            Bind::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                #[cfg(unix)]
                widen_backlog(std::os::fd::AsRawFd::as_raw_fd(&listener));
                let endpoint = Endpoint::Tcp(listener.local_addr()?);
                Ok((Listener::Tcp(listener), endpoint))
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // Stale socket files from a previous run would make bind
                // fail with AddrInUse even though nothing is listening.
                match std::fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
                let listener = UnixListener::bind(path)?;
                widen_backlog(std::os::fd::AsRawFd::as_raw_fd(&listener));
                Ok((Listener::Unix(listener), Endpoint::Unix(path.clone())))
            }
        }
    }

    /// Accept one connection. The reactor runs the listener in
    /// nonblocking mode, where `WouldBlock` means "no pending
    /// connection right now".
    pub(crate) fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Unix(stream))
            }
        }
    }

    /// Switch the listener between blocking and nonblocking accepts —
    /// the reactor registers the listener for readiness and accepts
    /// only when it is ready.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }
}

#[cfg(unix)]
impl std::os::fd::AsRawFd for Listener {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// A connected stream of either transport. `Read`/`Write` delegate to
/// the inner socket, so [`ddsketch::codec::FrameReader`] and the line
/// protocol run over both transports unchanged.
#[derive(Debug)]
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Half-close the write side, signalling clean end-of-stream to the
    /// peer while keeping the read side open.
    pub(crate) fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    /// Switch between blocking and nonblocking I/O. In nonblocking mode
    /// stalled reads/writes raise `WouldBlock` immediately — the mode
    /// every reactor-owned socket runs in.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

#[cfg(unix)]
impl std::os::fd::AsRawFd for Conn {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}
