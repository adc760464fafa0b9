//! Deterministic reactor tests: a scripted in-memory socket drives
//! [`ConnMachine`] through byte-at-a-time reads, mid-frame stalls,
//! queue-full suspension, and half-open disconnects — and a scripted
//! [`ReadinessSource`] drives a full [`EventLoop`] turn by turn without
//! depending on kernel readiness timing.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::AtomicU64;

use ddsketch::codec::varint::put_varint;
use ddsketch::codec::FRAME_STREAM_VERSION;
use ddsketch::SketchConfig;

use super::machine::{ConnMachine, Step, FRAME_BUDGET};
use super::*;
use crate::protocol::encode_envelope;
use crate::server::{test_inner, ServerConfig};
use crate::state::Tenant;

// ------------------------------------------------------- scripted socket

/// One scripted read outcome.
enum Op {
    Data(Vec<u8>),
    WouldBlock,
}

#[derive(Default)]
struct FakeSockInner {
    input: VecDeque<Op>,
    /// After the script drains: `true` = EOF (`Ok(0)`), `false` = more
    /// bytes may come later (`WouldBlock`).
    eof: bool,
    written: Vec<u8>,
    write_blocked: bool,
}

/// A scripted `Read + Write` socket; the test keeps a clone to feed
/// input and inspect output while the machine owns the other handle.
#[derive(Clone, Default)]
struct FakeSock(Rc<RefCell<FakeSockInner>>);

impl FakeSock {
    fn push(&self, bytes: &[u8]) {
        self.0
            .borrow_mut()
            .input
            .push_back(Op::Data(bytes.to_vec()));
    }

    fn push_stall(&self) {
        self.0.borrow_mut().input.push_back(Op::WouldBlock);
    }

    fn set_eof(&self) {
        self.0.borrow_mut().eof = true;
    }

    fn set_write_blocked(&self, blocked: bool) {
        self.0.borrow_mut().write_blocked = blocked;
    }

    fn script_len(&self) -> usize {
        self.0.borrow().input.len()
    }

    fn written(&self) -> Vec<u8> {
        self.0.borrow().written.clone()
    }
}

impl Read for FakeSock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut inner = self.0.borrow_mut();
        match inner.input.pop_front() {
            Some(Op::Data(mut bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    bytes.drain(..n);
                    inner.input.push_front(Op::Data(bytes));
                }
                Ok(n)
            }
            Some(Op::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
            None if inner.eof => Ok(0),
            None => Err(io::ErrorKind::WouldBlock.into()),
        }
    }
}

impl Write for FakeSock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut inner = self.0.borrow_mut();
        if inner.write_blocked {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        inner.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A waker that only counts — machine tests assert on wake delivery
/// without a real event loop behind it.
#[derive(Debug, Default)]
struct CountingWaker(AtomicU64);

impl ShardWaker for CountingWaker {
    fn wake(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

// ------------------------------------------------------------- fixtures

fn sketch_config() -> SketchConfig {
    SketchConfig::dense_collapsing(0.01, 256)
}

fn config(staging_bound: usize) -> ServerConfig {
    ServerConfig {
        sketch: sketch_config(),
        staging_bound,
        ..ServerConfig::default()
    }
}

/// Create the tenant through the registry directly so `created` is
/// already false when the machine's handshake looks it up — no shard
/// worker threads spawn, and staged jobs stay observable in the queues.
fn pre_tenant(inner: &Arc<ServerInner>, name: &str) -> Arc<Tenant> {
    let cfg = &inner.config;
    inner
        .registry
        .get_or_create(name, || {
            Tenant::new(
                name,
                cfg.sketch,
                cfg.shards_per_tenant,
                cfg.staging_bound,
                cfg.fold_threshold,
                cfg.window_secs,
            )
        })
        .unwrap()
        .expect("under the tenant cap")
        .0
}

fn handshake(tenant: &str) -> Vec<u8> {
    let mut bytes = format!("INGEST {tenant}\n").into_bytes();
    bytes.extend_from_slice(b"DDSF");
    bytes.push(FRAME_STREAM_VERSION);
    bytes
}

fn payload_bytes(value: f64) -> Vec<u8> {
    let mut sketch = sketch_config().build().unwrap();
    sketch.add(value).unwrap();
    sketch.encode()
}

fn frame(metric: &str, ts_secs: u64, payload: &[u8]) -> Vec<u8> {
    let mut envelope = Vec::new();
    encode_envelope(&mut envelope, metric, ts_secs, payload);
    let mut framed = Vec::new();
    put_varint(&mut framed, envelope.len() as u64);
    framed.extend_from_slice(&envelope);
    framed
}

fn staging_total(tenant: &Tenant) -> usize {
    tenant.shards.iter().map(|s| s.depth().0).sum()
}

fn machine(sock: &FakeSock) -> (ConnMachine<FakeSock>, Arc<CountingWaker>) {
    let waker = Arc::new(CountingWaker::default());
    let as_waker: Arc<dyn ShardWaker> = waker.clone();
    (ConnMachine::new(sock.clone(), as_waker), waker)
}

// -------------------------------------------------------- machine tests

#[test]
fn query_roundtrip_then_half_close() {
    let inner = test_inner(config(4));
    let sock = FakeSock::default();
    sock.push(b"PING\nPING\n");
    sock.set_eof();
    let (mut m, _) = machine(&sock);
    assert_eq!(m.on_ready(&inner), Step::Closed);
    assert_eq!(sock.written(), b"+PONG\n+PONG\n");
    assert_eq!(inner.stats_snapshot().queries_served, 2);
}

#[test]
fn ingest_byte_at_a_time_with_stalls_then_clean_eof() {
    let inner = test_inner(config(4));
    let tenant = pre_tenant(&inner, "acme");
    let sock = FakeSock::default();
    let mut stream = handshake("acme");
    stream.extend_from_slice(&frame("api.latency", 100, &payload_bytes(42.0)));
    // Worst-case fragmentation: every byte arrives alone, with a
    // spurious wakeup (WouldBlock) between each.
    for &b in &stream {
        sock.push(&[b]);
        sock.push_stall();
    }
    let (mut m, _) = machine(&sock);
    let mut spins = 0;
    while sock.script_len() > 0 {
        assert_eq!(m.on_ready(&inner), Step::Idle);
        spins += 1;
        assert!(spins < 10_000, "no progress draining the byte script");
    }
    assert_eq!(m.on_ready(&inner), Step::Idle);
    assert!(m.is_ingest());
    assert_eq!(staging_total(&tenant), 1, "frame staged despite stalls");
    let stats = inner.stats_snapshot();
    assert_eq!(stats.frames_rejected, 0);
    assert!(stats.bytes_ingested > 0);
    // EOF lands exactly on a frame boundary: a clean end-of-stream.
    sock.set_eof();
    assert_eq!(m.on_ready(&inner), Step::Closed);
    assert_eq!(inner.stats_snapshot().ingest_disconnects, 0);
}

#[test]
fn mid_frame_eof_is_an_unclean_disconnect() {
    let inner = test_inner(config(4));
    pre_tenant(&inner, "acme");
    let sock = FakeSock::default();
    let mut stream = handshake("acme");
    let full = frame("api.latency", 100, &payload_bytes(1.0));
    stream.extend_from_slice(&full[..full.len() / 2]);
    sock.push(&stream);
    sock.set_eof();
    let (mut m, _) = machine(&sock);
    assert_eq!(m.on_ready(&inner), Step::Closed);
    assert_eq!(inner.stats_snapshot().ingest_disconnects, 1);
}

#[test]
fn corrupt_envelope_is_rejected_and_the_stream_continues() {
    let inner = test_inner(config(4));
    let tenant = pre_tenant(&inner, "acme");
    let sock = FakeSock::default();
    let mut stream = handshake("acme");
    // Framing is intact (honest varint length) but the envelope bytes
    // are garbage — rejected per frame, stream keeps going.
    let mut bad = Vec::new();
    put_varint(&mut bad, 3);
    bad.extend_from_slice(&[0xff, 0xff, 0xff]);
    stream.extend_from_slice(&bad);
    stream.extend_from_slice(&frame("api.latency", 100, &payload_bytes(7.0)));
    sock.push(&stream);
    let (mut m, _) = machine(&sock);
    assert_eq!(m.on_ready(&inner), Step::Idle);
    assert!(m.is_ingest());
    assert_eq!(inner.stats_snapshot().frames_rejected, 1);
    assert_eq!(staging_total(&tenant), 1, "good frame staged after bad");
}

#[test]
fn invalid_ingest_tenant_closes_unclean() {
    let inner = test_inner(config(4));
    let sock = FakeSock::default();
    sock.push(b"INGEST not a valid name!\n");
    let (mut m, _) = machine(&sock);
    assert_eq!(m.on_ready(&inner), Step::Closed);
    assert_eq!(inner.stats_snapshot().ingest_disconnects, 1);
}

#[test]
fn queue_full_suspends_and_waker_driven_resume_stages_the_job() {
    let inner = test_inner(config(1));
    let tenant = pre_tenant(&inner, "acme");
    let sock = FakeSock::default();
    let mut stream = handshake("acme");
    stream.extend_from_slice(&frame("api.latency", 100, &payload_bytes(1.0)));
    stream.extend_from_slice(&frame("api.latency", 101, &payload_bytes(2.0)));
    sock.push(&stream);
    let (mut m, waker) = machine(&sock);
    // Frame 1 fills the bound-1 queue; frame 2 bounces and suspends.
    assert_eq!(m.on_ready(&inner), Step::Suspended);
    let shard = tenant.shard_for("api.latency").clone();
    assert_eq!(shard.depth().0, 1);
    let stats = inner.stats_snapshot();
    assert_eq!(stats.ingest_suspensions, 1);
    assert_eq!(stats.backpressure_waits, 1);
    assert_eq!(waker.0.load(Ordering::SeqCst), 0, "no space yet, no wake");
    // A shard worker pops → the registered waker fires.
    let job = shard.pop().unwrap();
    assert_eq!(waker.0.load(Ordering::SeqCst), 1);
    shard.complete(job.payload, job.metric);
    // The resumed machine retries its bounced job before reading on.
    assert_eq!(m.on_ready(&inner), Step::Idle);
    assert_eq!(shard.depth().0, 1);
    assert_eq!(inner.stats_snapshot().ingest_suspensions, 1);
}

#[test]
fn suspended_machine_never_reorders_frames() {
    let inner = test_inner(config(1));
    let tenant = pre_tenant(&inner, "acme");
    let sock = FakeSock::default();
    let mut stream = handshake("acme");
    for ts in 0..3u64 {
        stream.extend_from_slice(&frame("api.latency", ts, &payload_bytes(ts as f64 + 1.0)));
    }
    sock.push(&stream);
    let (mut m, _) = machine(&sock);
    let shard = tenant.shard_for("api.latency").clone();
    let mut seen = Vec::new();
    // Pop-one / resume-one: each round frees exactly one slot, so the
    // machine stages exactly one bounced-or-new frame per resume.
    for _ in 0..3 {
        let step = m.on_ready(&inner);
        assert!(matches!(step, Step::Suspended | Step::Idle));
        let job = shard.pop().unwrap();
        seen.push(job.ts_secs);
        shard.complete(job.payload, job.metric);
    }
    assert_eq!(seen, vec![0, 1, 2], "frames absorbed in wire order");
}

#[test]
fn shard_close_during_suspension_drops_the_connection() {
    let inner = test_inner(config(1));
    let tenant = pre_tenant(&inner, "acme");
    let sock = FakeSock::default();
    let mut stream = handshake("acme");
    stream.extend_from_slice(&frame("api.latency", 100, &payload_bytes(1.0)));
    stream.extend_from_slice(&frame("api.latency", 101, &payload_bytes(2.0)));
    sock.push(&stream);
    let (mut m, _) = machine(&sock);
    assert_eq!(m.on_ready(&inner), Step::Suspended);
    tenant.shard_for("api.latency").close();
    assert_eq!(m.on_ready(&inner), Step::Closed);
    assert_eq!(inner.stats_snapshot().ingest_disconnects, 1);
}

#[test]
fn blocked_writes_buffer_and_drain_on_writable() {
    let inner = test_inner(config(4));
    let sock = FakeSock::default();
    sock.set_write_blocked(true);
    sock.push(b"PING\n");
    let (mut m, _) = machine(&sock);
    assert_eq!(m.on_ready(&inner), Step::Idle);
    assert!(m.wants_write(), "response parked in the out buffer");
    assert!(sock.written().is_empty());
    sock.set_write_blocked(false);
    assert_eq!(m.on_ready(&inner), Step::Idle);
    assert!(!m.wants_write());
    assert_eq!(sock.written(), b"+PONG\n");
}

#[test]
fn frame_budget_yields_with_input_still_buffered() {
    let mut cfg = config(2 * FRAME_BUDGET);
    cfg.fold_threshold = 4 * FRAME_BUDGET;
    let inner = test_inner(cfg);
    let tenant = pre_tenant(&inner, "acme");
    let sock = FakeSock::default();
    let mut stream = handshake("acme");
    let payload = payload_bytes(1.0);
    for ts in 0..(FRAME_BUDGET as u64 + 1) {
        stream.extend_from_slice(&frame("api.latency", ts, &payload));
    }
    sock.push(&stream);
    let (mut m, _) = machine(&sock);
    assert_eq!(m.on_ready(&inner), Step::Yield, "budget hit, must yield");
    assert_eq!(staging_total(&tenant), FRAME_BUDGET);
    assert_eq!(m.on_ready(&inner), Step::Idle);
    assert_eq!(staging_total(&tenant), FRAME_BUDGET + 1);
}

// ----------------------------------------------------- scripted source

#[derive(Debug, Default)]
struct FakeSourceInner {
    registered: Vec<(RawFd, usize, u32)>,
    script: VecDeque<Vec<Event>>,
}

/// A scripted [`ReadinessSource`]: `wait` replays pre-programmed event
/// batches; the interest registry is real and inspectable, so tests
/// assert exactly when the loop registers, modifies, and deregisters.
#[derive(Clone, Debug, Default)]
struct FakeSource(Arc<Mutex<FakeSourceInner>>);

impl FakeSource {
    fn interest_for(&self, fd: RawFd) -> Option<u32> {
        lock(&self.0)
            .registered
            .iter()
            .find(|&&(f, _, _)| f == fd)
            .map(|&(_, _, i)| i)
    }

    fn token_for(&self, fd: RawFd) -> Option<usize> {
        lock(&self.0)
            .registered
            .iter()
            .find(|&&(f, _, _)| f == fd)
            .map(|&(_, t, _)| t)
    }

    fn enqueue(&self, events: Vec<Event>) {
        lock(&self.0).script.push_back(events);
    }
}

impl ReadinessSource for FakeSource {
    fn register(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()> {
        let mut inner = lock(&self.0);
        if inner.registered.iter().any(|&(f, _, _)| f == fd) {
            return Err(io::ErrorKind::AlreadyExists.into());
        }
        inner.registered.push((fd, token, interest));
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: usize, interest: u32) -> io::Result<()> {
        let mut inner = lock(&self.0);
        let slot = inner
            .registered
            .iter()
            .position(|&(f, _, _)| f == fd)
            .ok_or(io::ErrorKind::NotFound)?;
        inner.registered[slot] = (fd, token, interest);
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let mut inner = lock(&self.0);
        let slot = inner
            .registered
            .iter()
            .position(|&(f, _, _)| f == fd)
            .ok_or(io::ErrorKind::NotFound)?;
        inner.registered.swap_remove(slot);
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<()> {
        events.clear();
        if let Some(batch) = lock(&self.0).script.pop_front() {
            events.extend(batch);
        }
        Ok(())
    }
}

/// An [`EventLoop`] over a [`FakeSource`] plus the peer side of one
/// adopted Unix-socket connection.
struct LoopFixture {
    event_loop: EventLoop,
    source: FakeSource,
    inner: Arc<ServerInner>,
    peer: UnixStream,
    conn_fd: RawFd,
}

fn loop_fixture(cfg: ServerConfig) -> LoopFixture {
    let inner = test_inner(cfg);
    let source = FakeSource::default();
    let (wake_tx, wake_rx) = UnixStream::pair().unwrap();
    wake_tx.set_nonblocking(true).unwrap();
    let shared = Arc::new(ReactorShared {
        wake_tx,
        resumed: Mutex::new(Vec::new()),
    });
    let mut event_loop = EventLoop::new(
        inner.clone(),
        Box::new(source.clone()),
        shared,
        wake_rx,
        None,
    )
    .unwrap();
    let (local, peer) = UnixStream::pair().unwrap();
    let conn = Conn::Unix(local);
    let conn_fd = conn.as_raw_fd();
    // Mirror the accept path's accounting before adoption.
    Stats::add(&inner.stats.open_connections, 1);
    event_loop.insert_conn(conn).unwrap();
    LoopFixture {
        event_loop,
        source,
        inner,
        peer,
        conn_fd,
    }
}

fn read_available(peer: &mut UnixStream) -> Vec<u8> {
    peer.set_nonblocking(true).unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match peer.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => panic!("peer read failed: {e}"),
        }
    }
    out
}

// ----------------------------------------------------- event-loop tests

#[test]
fn loop_answers_queries_and_tracks_interest() {
    let mut fx = loop_fixture(config(4));
    fx.peer.write_all(b"PING\n").unwrap();
    let mut events = Vec::new();
    // Turn 1: the freshly adopted connection is on the backlog — it
    // reads the command, answers, and registers read interest.
    assert!(fx.event_loop.turn(&mut events).unwrap());
    assert_eq!(fx.source.interest_for(fx.conn_fd), Some(READABLE));
    assert_eq!(read_available(&mut fx.peer), b"+PONG\n");
    // Turn 2: readiness fires for a second command.
    fx.peer.write_all(b"PING\n").unwrap();
    let token = fx.source.token_for(fx.conn_fd).unwrap();
    fx.source.enqueue(vec![Event {
        token,
        readable: true,
        writable: false,
        hangup: false,
    }]);
    assert!(fx.event_loop.turn(&mut events).unwrap());
    assert_eq!(read_available(&mut fx.peer), b"+PONG\n");
    // Half-close: the loop flushes and retires the slot.
    fx.peer.shutdown(std::net::Shutdown::Write).unwrap();
    fx.source.enqueue(vec![Event {
        token,
        readable: true,
        writable: false,
        hangup: true,
    }]);
    assert!(fx.event_loop.turn(&mut events).unwrap());
    assert_eq!(fx.source.interest_for(fx.conn_fd), None);
    assert_eq!(fx.inner.stats_snapshot().open_connections, 0);
}

#[test]
fn loop_suspension_deregisters_fd_until_worker_pop_resumes_it() {
    let mut fx = loop_fixture(config(1));
    let tenant = pre_tenant(&fx.inner, "acme");
    let mut stream = handshake("acme");
    stream.extend_from_slice(&frame("api.latency", 100, &payload_bytes(1.0)));
    fx.peer.write_all(&stream).unwrap();
    let mut events = Vec::new();
    // Turn 1: handshake + frame 1 staged; read interest registered.
    assert!(fx.event_loop.turn(&mut events).unwrap());
    assert_eq!(fx.source.interest_for(fx.conn_fd), Some(READABLE));
    let token = fx.source.token_for(fx.conn_fd).unwrap();
    // Frame 2 bounces off the bound-1 queue: the fd is deregistered
    // outright, so a level-triggered source cannot busy-loop on it.
    fx.peer
        .write_all(&frame("api.latency", 101, &payload_bytes(2.0)))
        .unwrap();
    fx.source.enqueue(vec![Event {
        token,
        readable: true,
        writable: false,
        hangup: false,
    }]);
    assert!(fx.event_loop.turn(&mut events).unwrap());
    assert_eq!(fx.source.interest_for(fx.conn_fd), None, "fd deregistered");
    assert_eq!(fx.inner.stats_snapshot().ingest_suspensions, 1);
    // A worker pop wakes the loop through the ConnWaker; the machine
    // resumes from the mailbox, stages its bounced job, re-registers.
    let shard = tenant.shard_for("api.latency").clone();
    let job = shard.pop().unwrap();
    shard.complete(job.payload, job.metric);
    assert!(fx.event_loop.turn(&mut events).unwrap());
    assert_eq!(fx.source.interest_for(fx.conn_fd), Some(READABLE));
    assert_eq!(shard.depth().0, 1, "bounced frame staged after resume");
    // A stale wake for a machine that already resumed is a no-op.
    lock(&fx.event_loop.shared.resumed).push(token);
    assert!(fx.event_loop.turn(&mut events).unwrap());
    assert_eq!(fx.source.interest_for(fx.conn_fd), Some(READABLE));
}

#[test]
fn loop_ignores_stale_tokens_and_spurious_readiness() {
    let mut fx = loop_fixture(config(4));
    let mut events = Vec::new();
    assert!(fx.event_loop.turn(&mut events).unwrap());
    // A token no entry owns (e.g. an fd retired mid-batch) is skipped.
    fx.source.enqueue(vec![Event {
        token: 99,
        readable: true,
        writable: false,
        hangup: false,
    }]);
    assert!(fx.event_loop.turn(&mut events).unwrap());
    // Spurious readiness on a live idle connection is also harmless.
    let token = fx.source.token_for(fx.conn_fd).unwrap();
    fx.source.enqueue(vec![Event {
        token,
        readable: true,
        writable: false,
        hangup: false,
    }]);
    assert!(fx.event_loop.turn(&mut events).unwrap());
    assert_eq!(fx.inner.stats_snapshot().open_connections, 1);
}

#[test]
fn loop_teardown_flushes_and_counts_open_ingest_streams() {
    let mut fx = loop_fixture(config(4));
    pre_tenant(&fx.inner, "acme");
    fx.peer.write_all(&handshake("acme")).unwrap();
    let mut events = Vec::new();
    assert!(fx.event_loop.turn(&mut events).unwrap());
    // Shutdown: the next turn observes the flag; run() tears down —
    // mid-stream ingest counts as unclean.
    fx.inner.shutdown.store(true, Ordering::SeqCst);
    fx.event_loop.run();
    let stats = fx.inner.stats_snapshot();
    assert_eq!(stats.open_connections, 0);
    assert_eq!(stats.ingest_disconnects, 1);
    assert_eq!(fx.source.interest_for(fx.conn_fd), None);
}
