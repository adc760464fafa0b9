//! The server's I/O plane: one event-loop thread owns the listener and
//! every agent and query socket, dispatching on readiness from a
//! [`sys::ReadinessSource`] (epoll on Linux, `poll(2)` elsewhere).
//!
//! ## Anatomy of the loop
//!
//! * **Token 0** — the self-waker: the read end of a nonblocking
//!   `UnixStream` pair. Other threads (shard workers via
//!   [`crate::state::ShardWaker`], [`crate::ServerHandle::shutdown`]) write
//!   one byte to interrupt the wait.
//! * **Token 1** — the listener: accepted connections are admitted
//!   against `max_connections`, then adopted into the slab.
//! * **Tokens ≥ 2** — connection slots in a slab, each holding a
//!   [`machine::ConnMachine`] plus its registered interest.
//!
//! ## The ready-backlog
//!
//! Level-triggered sources only report *kernel* readiness, but each
//! machine reads through a 16 KiB `BufReader` — after a budget-bounded
//! dispatch, complete frames may still sit in user space where epoll
//! cannot see them. Any machine that yields (budget) or resumes
//! (shard space freed) goes on the backlog, and while the backlog is
//! non-empty the loop polls with a zero timeout — so buffered work is
//! drained promptly without busy-spinning when truly idle.
//!
//! ## Backpressure without blocking
//!
//! A full staging queue suspends the connection: its fd is fully
//! deregistered (a level-triggered source would otherwise hot-loop on
//! the readable socket) and the shard holds the connection's waker.
//! The next worker pop wakes the loop, which re-registers the fd and
//! backlogs the machine to retry its bounced job. Registering the
//! waker *before* one retry closes the lost-wakeup race.

mod machine;
mod sys;

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use machine::{ConnMachine, Step};
use sys::{Event, ReadinessSource, READABLE, WRITABLE};

use crate::net::{Conn, Listener};
use crate::server::{is_retryable, ServerInner};
use crate::state::{lock, ShardWaker, Stats};

const TOKEN_WAKER: usize = 0;
const TOKEN_LISTENER: usize = 1;
const TOKEN_BASE: usize = 2;

/// Idle wait tick: the cadence at which a loop with no events rechecks
/// the shutdown flag (wakes normally arrive via the waker long before
/// this fires).
const TICK_MS: i32 = 100;

/// Cross-thread face of the event loop: the waker plus the mailbox of
/// resumable tokens.
#[derive(Debug)]
pub(crate) struct ReactorShared {
    wake_tx: UnixStream,
    resumed: Mutex<Vec<usize>>,
}

impl ReactorShared {
    /// Interrupt the loop's wait. Nonblocking and lossy by design: if
    /// the pipe is full the loop is already overdue to wake.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }
}

/// Per-connection shard waker: records *which* machine to resume, then
/// pokes the loop.
#[derive(Debug)]
struct ConnWaker {
    shared: Arc<ReactorShared>,
    token: usize,
}

impl ShardWaker for ConnWaker {
    fn wake(&self) {
        lock(&self.shared.resumed).push(self.token);
        self.shared.wake();
    }
}

struct ConnEntry {
    machine: ConnMachine<Conn>,
    fd: RawFd,
    /// Currently registered interest bits; 0 = not registered (the
    /// suspended state, or a fresh connection before first dispatch).
    interest: u32,
    suspended: bool,
}

pub(crate) struct EventLoop {
    inner: Arc<ServerInner>,
    poller: Box<dyn ReadinessSource>,
    shared: Arc<ReactorShared>,
    wake_rx: UnixStream,
    listener: Option<Listener>,
    entries: Vec<Option<ConnEntry>>,
    free: Vec<usize>,
    backlog: VecDeque<usize>,
    /// Last time `sweep_suspended` ran — kept on a timer rather than
    /// tied to idle turns, so steady query traffic can't postpone the
    /// sweep indefinitely.
    last_sweep: Instant,
}

impl EventLoop {
    pub(crate) fn new(
        inner: Arc<ServerInner>,
        mut poller: Box<dyn ReadinessSource>,
        shared: Arc<ReactorShared>,
        wake_rx: UnixStream,
        listener: Option<Listener>,
    ) -> io::Result<Self> {
        wake_rx.set_nonblocking(true)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKER, READABLE)?;
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), TOKEN_LISTENER, READABLE)?;
        }
        Ok(Self {
            inner,
            poller,
            shared,
            wake_rx,
            listener,
            entries: Vec::new(),
            free: Vec::new(),
            backlog: VecDeque::new(),
            last_sweep: Instant::now(),
        })
    }

    pub(crate) fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while let Ok(true) = self.turn(&mut events) {}
        self.teardown();
    }

    /// One wait + dispatch round. Returns `Ok(false)` once shutdown is
    /// observed.
    pub(crate) fn turn(&mut self, events: &mut Vec<Event>) -> io::Result<bool> {
        if self.inner.shutting_down() {
            return Ok(false);
        }
        let timeout = if self.backlog.is_empty() { TICK_MS } else { 0 };
        self.poller.wait(events, timeout)?;
        Stats::add(&self.inner.stats.reactor_wakeups, 1);
        Stats::add(&self.inner.stats.reactor_events, events.len() as u64);
        if self.last_sweep.elapsed() >= Duration::from_millis(TICK_MS as u64) {
            // Periodically sweep suspended connections back through
            // the staging queues. Pops wake one waiter per freed
            // slot, so a wake consumed by a connection that had
            // already staged its job (stale registration) could
            // otherwise leave a peer parked forever with space free;
            // the sweep bounds that to one tick.
            self.last_sweep = Instant::now();
            self.sweep_suspended();
        }
        for slot in 0..events.len() {
            let event = events[slot];
            match event.token {
                TOKEN_WAKER => self.drain_waker(),
                TOKEN_LISTENER => self.accept_ready(),
                token => self.dispatch(token),
            }
        }
        // The resumed mailbox is drained every turn, not only on waker
        // events: wake bytes coalesce, and a missed resume would
        // otherwise wait out a full tick.
        self.drain_resumed();
        let scheduled: Vec<usize> = self.backlog.drain(..).collect();
        for token in scheduled {
            self.dispatch(token);
        }
        Ok(!self.inner.shutting_down())
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_resumed(&mut self) {
        let resumed = { std::mem::take(&mut *lock(&self.shared.resumed)) };
        for token in resumed {
            self.resume(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok(conn) => {
                    if self.inner.shutting_down() {
                        return;
                    }
                    let open = self.inner.stats.open_connections.load(Ordering::Relaxed);
                    if open >= self.inner.config.max_connections as u64 {
                        reject(conn);
                        Stats::add(&self.inner.stats.connections_rejected, 1);
                        continue;
                    }
                    Stats::add(&self.inner.stats.connections_total, 1);
                    Stats::add(&self.inner.stats.open_connections, 1);
                    if self.insert_conn(conn).is_err() {
                        self.inner
                            .stats
                            .open_connections
                            .fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(e) if is_retryable(&e) => return,
                // Transient accept errors (ECONNABORTED etc.): move on.
                Err(_) => return,
            }
        }
    }

    /// Adopt a connection into the slab. The caller has already
    /// counted it in `open_connections`; the first dispatch (via the
    /// backlog) registers its read interest.
    pub(crate) fn insert_conn(&mut self, conn: Conn) -> io::Result<()> {
        conn.set_nonblocking(true)?;
        let fd = conn.as_raw_fd();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.entries.len() - 1
        });
        let token = slot + TOKEN_BASE;
        let waker: Arc<dyn ShardWaker> = Arc::new(ConnWaker {
            shared: self.shared.clone(),
            token,
        });
        self.entries[slot] = Some(ConnEntry {
            machine: ConnMachine::new(conn, waker),
            fd,
            interest: 0,
            suspended: false,
        });
        // Dispatch immediately: the peer may have written its
        // handshake before we registered anything.
        self.backlog.push_back(token);
        Ok(())
    }

    fn entry_mut(&mut self, token: usize) -> Option<&mut ConnEntry> {
        self.entries
            .get_mut(token.checked_sub(TOKEN_BASE)?)?
            .as_mut()
    }

    fn dispatch(&mut self, token: usize) {
        let inner = self.inner.clone();
        let Some(entry) = self.entry_mut(token) else {
            return;
        };
        if entry.suspended {
            return;
        }
        match entry.machine.on_ready(&inner) {
            Step::Closed => self.remove(token),
            Step::Yield => {
                self.backlog.push_back(token);
                self.update_interest(token);
            }
            Step::Idle => self.update_interest(token),
            Step::Suspended => {
                let Some(entry) = self.entry_mut(token) else {
                    return;
                };
                entry.suspended = true;
                let (fd, registered) = (entry.fd, entry.interest != 0);
                if registered {
                    let _ = self.poller.deregister(fd);
                }
                if let Some(entry) = self.entry_mut(token) {
                    entry.interest = 0;
                }
            }
        }
    }

    /// Reconcile the machine's desired readiness with what's
    /// registered at the source.
    fn update_interest(&mut self, token: usize) {
        let Some(entry) = self.entry_mut(token) else {
            return;
        };
        let mut want = 0u32;
        if entry.machine.wants_read() {
            want |= READABLE;
        }
        if entry.machine.wants_write() {
            want |= WRITABLE;
        }
        let (fd, have) = (entry.fd, entry.interest);
        if want == have {
            return;
        }
        let result = if have == 0 {
            self.poller.register(fd, token, want)
        } else if want == 0 {
            self.poller.deregister(fd)
        } else {
            self.poller.modify(fd, token, want)
        };
        match result {
            Ok(()) => {
                if let Some(entry) = self.entry_mut(token) {
                    entry.interest = want;
                }
            }
            // Registration failure means we can never hear from this
            // fd again — drop the connection rather than leak it.
            Err(_) => self.remove(token),
        }
    }

    /// Re-schedule every suspended connection. Harmless if the queues
    /// are still full (each retries once and re-suspends); essential if
    /// a one-shot wake was lost to a stale waiter registration.
    fn sweep_suspended(&mut self) {
        for slot in 0..self.entries.len() {
            if let Some(entry) = &self.entries[slot] {
                if entry.suspended {
                    self.resume(slot + TOKEN_BASE);
                }
            }
        }
    }

    fn resume(&mut self, token: usize) {
        let Some(entry) = self.entry_mut(token) else {
            return;
        };
        if !entry.suspended {
            return;
        }
        entry.suspended = false;
        self.backlog.push_back(token);
    }

    fn remove(&mut self, token: usize) {
        let Some(slot) = token.checked_sub(TOKEN_BASE) else {
            return;
        };
        if let Some(entry) = self.entries.get_mut(slot).and_then(Option::take) {
            if entry.interest != 0 {
                let _ = self.poller.deregister(entry.fd);
            }
            self.inner
                .stats
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
            self.free.push(slot);
        }
    }

    /// Shutdown teardown: flush what we can, account force-closed
    /// ingest streams as unclean disconnects, and release every slot.
    fn teardown(&mut self) {
        for slot in 0..self.entries.len() {
            let Some(entry) = self.entries[slot].as_mut() else {
                continue;
            };
            entry.machine.shutdown_flush();
            if entry.machine.is_ingest() {
                Stats::add(&self.inner.stats.ingest_disconnects, 1);
            }
            self.remove(slot + TOKEN_BASE);
        }
    }
}

/// Best-effort capacity reject: tell the peer why before dropping.
fn reject(mut conn: Conn) {
    let _ = conn.set_nonblocking(true);
    let _ = conn.write_all(b"-ERR server at connection capacity\n");
    let _ = conn.shutdown_write();
}

/// The running reactor: the loop's join handle plus its waker.
pub(crate) struct ReactorHandle {
    thread: JoinHandle<()>,
    shared: Arc<ReactorShared>,
}

impl ReactorHandle {
    /// Wake the loop (it observes the shutdown flag on wake) and wait
    /// for it to tear down every connection.
    pub(crate) fn join(self) {
        self.shared.wake();
        let _ = self.thread.join();
    }
}

/// Spawn the event loop that owns `listener` and every connection it
/// accepts.
pub(crate) fn spawn(inner: &Arc<ServerInner>, listener: Listener) -> io::Result<ReactorHandle> {
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    let shared = Arc::new(ReactorShared {
        wake_tx,
        resumed: Mutex::new(Vec::new()),
    });
    let mut event_loop = EventLoop::new(
        inner.clone(),
        sys::default_source()?,
        shared.clone(),
        wake_rx,
        Some(listener),
    )?;
    let thread = std::thread::Builder::new()
        .name("sketchd-reactor".into())
        .spawn(move || event_loop.run())?;
    Ok(ReactorHandle { thread, shared })
}

#[cfg(test)]
mod tests;
