//! Per-connection state machines for the reactor: the handshake, then
//! either an ingest frame stream or a query line session.
//!
//! An ingest machine does the serial part of ingest only: it reads each
//! frame, decodes its envelope (metric and timestamp, for routing),
//! rejects a bad envelope, and stages the payload's wire bytes on the
//! owning shard's queue. Payload decode and admission run on the shard
//! workers, in parallel across shards.
//!
//! A machine owns its socket (read side wrapped in a [`BufReader`] so
//! varint-by-varint decoding costs one syscall per ~16 KiB, not one
//! per byte) and makes as much progress as the socket allows on each
//! [`ConnMachine::on_ready`] call, then reports how it stopped:
//!
//! * [`Step::Idle`] — out of bytes (or write-blocked with nothing else
//!   to do); wait for the next readiness event.
//! * [`Step::Yield`] — hit its fairness budget with input possibly
//!   still buffered in user space; the loop must reschedule it without
//!   waiting, because a level-triggered source only reports *kernel*
//!   buffers.
//! * [`Step::Suspended`] — an ingest frame bounced off a full shard
//!   queue; the loop deregisters the fd entirely (reading stops → TCP
//!   backpressure reaches the agent) until the shard's waker fires.
//! * [`Step::Closed`] — the connection is finished, cleanly or not.
//!
//! The suspension handshake avoids the lost-wakeup race: on `Full`,
//! the machine registers its waker with the shard and retries once —
//! so either the retry lands (a pop raced in between) or the waker is
//! guaranteed to be registered before anyone sleeps.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::sync::Arc;

use ddsketch::codec::FrameDecoder;
use ddsketch::SketchError;

use crate::protocol::{decode_envelope, valid_name, LineReader, MAX_LINE};
use crate::server::{execute_line, is_retryable, tenant, ServerInner};
use crate::state::{Job, Shard, ShardWaker, Stats, Tenant, TryPush};

/// Frames an ingest machine may read and stage per `on_ready` before
/// yielding.
pub(crate) const FRAME_BUDGET: usize = 256;
/// Lines a query machine may answer per `on_ready` before yielding.
pub(crate) const LINE_BUDGET: usize = 64;
/// Pending-output ceiling past which a query machine stops reading new
/// commands until the peer drains responses (anti-livelock: a client
/// that sends `DUMP` forever but never reads can't balloon the buffer).
pub(crate) const OUT_HIGH_WATER: usize = 1 << 20;
/// Read-side buffer: amortizes the byte-at-a-time varint/line reads.
const READ_BUF: usize = 16 * 1024;

/// How a machine stopped making progress (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Idle,
    Yield,
    Suspended,
    Closed,
}

struct IngestPhase {
    tenant: Arc<Tenant>,
    decoder: FrameDecoder,
    frame: Vec<u8>,
    spare_payload: Vec<u8>,
    spare_metric: String,
    /// A job bounced by a full staging queue, with its envelope length,
    /// retried before any new frame is read — frames are never
    /// reordered or dropped.
    pending: Option<(Arc<Shard>, Job, usize)>,
}

impl IngestPhase {
    /// A job landed on its staging queue: count its envelope bytes and
    /// keep the recycled buffers for the next frame.
    fn staged(&mut self, inner: &ServerInner, spare: (Vec<u8>, String), envelope_len: usize) {
        Stats::add(&inner.stats.bytes_ingested, envelope_len as u64);
        (self.spare_payload, self.spare_metric) = spare;
    }
}

enum Phase {
    Handshake { lines: LineReader },
    Ingest(Box<IngestPhase>),
    Query { lines: LineReader },
    Closed,
}

enum Control {
    /// Made progress; loop again (budget permitting).
    Continue,
    /// Bubble a step result up to the event loop.
    Step(Step),
}

enum Flush {
    Drained,
    Blocked,
    Broken,
}

enum Stage {
    Stored((Vec<u8>, String)),
    Suspend(Job),
    Closed,
}

/// One connection owned by the reactor. Generic over the socket so
/// tests can drive it with a scripted in-memory stream.
pub(crate) struct ConnMachine<S: Read + Write> {
    sock: BufReader<S>,
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    close_after_flush: bool,
    waker: Arc<dyn ShardWaker>,
}

impl<S: Read + Write> ConnMachine<S> {
    pub(crate) fn new(sock: S, waker: Arc<dyn ShardWaker>) -> Self {
        Self {
            sock: BufReader::with_capacity(READ_BUF, sock),
            out: Vec::new(),
            out_pos: 0,
            phase: Phase::Handshake {
                lines: LineReader::new(MAX_LINE),
            },
            close_after_flush: false,
            waker,
        }
    }

    /// Whether the machine is mid-ingest — used at loop teardown to
    /// count force-closed agent streams as unclean disconnects.
    pub(crate) fn is_ingest(&self) -> bool {
        matches!(self.phase, Phase::Ingest(_))
    }

    /// Unflushed response bytes are pending.
    pub(crate) fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The machine would consume more input if it arrived.
    pub(crate) fn wants_read(&self) -> bool {
        !self.close_after_flush
            && !matches!(self.phase, Phase::Closed)
            && self.buffered_out() < OUT_HIGH_WATER
    }

    /// Best-effort final flush at loop teardown.
    pub(crate) fn shutdown_flush(&mut self) {
        let _ = self.flush_out();
    }

    fn buffered_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn flush_out(&mut self) -> Flush {
        while self.out_pos < self.out.len() {
            match self.sock.get_mut().write(&self.out[self.out_pos..]) {
                Ok(0) => return Flush::Broken,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if is_retryable(&e) => return Flush::Blocked,
                Err(_) => return Flush::Broken,
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Flush::Drained
    }

    fn close(&mut self, inner: &ServerInner, unclean_ingest: bool) -> Step {
        if unclean_ingest {
            Stats::add(&inner.stats.ingest_disconnects, 1);
        }
        self.phase = Phase::Closed;
        Step::Closed
    }

    /// Drive the machine as far as the socket, the budgets, and the
    /// staging queues allow. Safe to call on spurious wakeups: a
    /// machine with nothing to do reports [`Step::Idle`] untouched.
    pub(crate) fn on_ready(&mut self, inner: &Arc<ServerInner>) -> Step {
        let mut frames = 0usize;
        let mut lines_done = 0usize;
        loop {
            if let Flush::Broken = self.flush_out() {
                let unclean = self.is_ingest();
                return self.close(inner, unclean);
            }
            if self.close_after_flush {
                if self.buffered_out() == 0 {
                    self.phase = Phase::Closed;
                    return Step::Closed;
                }
                // Wait for writable readiness to finish the flush.
                return Step::Idle;
            }
            if self.buffered_out() >= OUT_HIGH_WATER {
                return Step::Idle;
            }
            match self.step(inner, &mut frames, &mut lines_done) {
                Control::Step(step) => return step,
                Control::Continue => {
                    if frames >= FRAME_BUDGET || lines_done >= LINE_BUDGET {
                        return Step::Yield;
                    }
                }
            }
        }
    }

    fn step(&mut self, inner: &Arc<ServerInner>, frames: &mut usize, lines: &mut usize) -> Control {
        match std::mem::replace(&mut self.phase, Phase::Closed) {
            Phase::Handshake { lines: mut reader } => match reader.poll_line(&mut self.sock) {
                Ok(Some(line)) => {
                    if let Some(name) = line.strip_prefix("INGEST ") {
                        self.begin_ingest(inner, name.trim())
                    } else {
                        // The handshake line *is* the first query
                        // command; the same LineReader carries any
                        // partial next line into the query phase.
                        let control = self.run_query_line(inner, &line, lines);
                        self.phase = Phase::Query { lines: reader };
                        control
                    }
                }
                Ok(None) => Control::Step(self.close(inner, false)),
                Err(e) if is_retryable(&e) => {
                    self.phase = Phase::Handshake { lines: reader };
                    Control::Step(Step::Idle)
                }
                Err(_) => Control::Step(self.close(inner, false)),
            },
            Phase::Query { lines: mut reader } => match reader.poll_line(&mut self.sock) {
                Ok(Some(line)) => {
                    let control = self.run_query_line(inner, &line, lines);
                    self.phase = Phase::Query { lines: reader };
                    control
                }
                Ok(None) => {
                    // Peer half-closed: flush what we owe, then close.
                    self.close_after_flush = true;
                    self.phase = Phase::Query { lines: reader };
                    Control::Continue
                }
                Err(e) if is_retryable(&e) => {
                    self.phase = Phase::Query { lines: reader };
                    Control::Step(Step::Idle)
                }
                Err(_) => Control::Step(self.close(inner, false)),
            },
            Phase::Ingest(mut ing) => {
                if let Some((shard, job, envelope_len)) = ing.pending.take() {
                    match stage_once(inner, &shard, job, &self.waker) {
                        Stage::Stored(spare) => {
                            // This machine just came back from
                            // suspension. If the idle sweep (rather
                            // than a pop) resumed it, its waiter is
                            // still registered and would silently eat
                            // a one-shot wake some other suspended
                            // connection needs — drop it.
                            shard.remove_waiter(&self.waker);
                            ing.staged(inner, spare, envelope_len);
                        }
                        Stage::Suspend(job) => {
                            ing.pending = Some((shard, job, envelope_len));
                            self.phase = Phase::Ingest(ing);
                            return Control::Step(Step::Suspended);
                        }
                        Stage::Closed => return Control::Step(self.close(inner, true)),
                    }
                }
                match ing.decoder.read_frame(&mut self.sock, &mut ing.frame) {
                    Ok(Some(_)) => {
                        *frames += 1;
                        match self.ingest_frame(inner, &mut ing) {
                            IngestOutcome::Ok => {
                                self.phase = Phase::Ingest(ing);
                                Control::Continue
                            }
                            IngestOutcome::Suspend => {
                                self.phase = Phase::Ingest(ing);
                                Control::Step(Step::Suspended)
                            }
                            IngestOutcome::ShardClosed => Control::Step(self.close(inner, true)),
                        }
                    }
                    // Clean `DDSF` end-of-stream terminator.
                    Ok(None) => Control::Step(self.close(inner, false)),
                    Err(SketchError::WouldBlock) => {
                        self.phase = Phase::Ingest(ing);
                        Control::Step(Step::Idle)
                    }
                    // Corrupt framing or a torn stream: unrecoverable.
                    Err(_) => {
                        Stats::add(&inner.stats.frames_rejected, 1);
                        Control::Step(self.close(inner, true))
                    }
                }
            }
            Phase::Closed => Control::Step(Step::Closed),
        }
    }

    fn begin_ingest(&mut self, inner: &Arc<ServerInner>, name: &str) -> Control {
        if !valid_name(name) {
            return Control::Step(self.close(inner, true));
        }
        let Ok(tenant) = tenant(inner, name) else {
            return Control::Step(self.close(inner, true));
        };
        self.phase = Phase::Ingest(Box::new(IngestPhase {
            tenant,
            decoder: FrameDecoder::with_max_frame_len(inner.config.max_frame_len),
            frame: Vec::new(),
            spare_payload: Vec::new(),
            spare_metric: String::new(),
            pending: None,
        }));
        Control::Continue
    }

    fn run_query_line(
        &mut self,
        inner: &Arc<ServerInner>,
        line: &str,
        lines: &mut usize,
    ) -> Control {
        *lines += 1;
        // `execute_line` routes through the answer cache and the read
        // snapshots; `self.out` may hold earlier batched responses,
        // which it appends after.
        if !execute_line(inner, line, &mut self.out) {
            self.close_after_flush = true;
        }
        Control::Continue
    }

    /// Route and stage one newly read frame. Only the envelope is
    /// decoded here: a bad one is rejected and the stream goes on, a good
    /// one stages its payload's wire bytes for the owning shard's worker
    /// to decode and admit.
    fn ingest_frame(&self, inner: &ServerInner, ing: &mut IngestPhase) -> IngestOutcome {
        let Ok((metric, ts_secs, payload_bytes)) = decode_envelope(&ing.frame) else {
            Stats::add(&inner.stats.frames_rejected, 1);
            return IngestOutcome::Ok;
        };
        ing.spare_metric.clear();
        ing.spare_metric.push_str(metric);
        ing.spare_payload.clear();
        ing.spare_payload.extend_from_slice(payload_bytes);
        let envelope_len = ing.frame.len();
        let shard = ing.tenant.shard_for(&ing.spare_metric).clone();
        let job = Job {
            metric: std::mem::take(&mut ing.spare_metric),
            ts_secs,
            payload: std::mem::take(&mut ing.spare_payload),
        };
        match stage_once(inner, &shard, job, &self.waker) {
            Stage::Stored(spare) => {
                ing.staged(inner, spare, envelope_len);
                IngestOutcome::Ok
            }
            Stage::Suspend(job) => {
                ing.pending = Some((shard, job, envelope_len));
                IngestOutcome::Suspend
            }
            Stage::Closed => IngestOutcome::ShardClosed,
        }
    }
}

enum IngestOutcome {
    Ok,
    Suspend,
    ShardClosed,
}

/// Stage with the lost-wakeup-free suspension protocol.
fn stage_once(
    inner: &ServerInner,
    shard: &Arc<Shard>,
    job: Job,
    waker: &Arc<dyn ShardWaker>,
) -> Stage {
    match shard.try_push(job) {
        TryPush::Stored(spare) => Stage::Stored(spare),
        TryPush::Closed => Stage::Closed,
        TryPush::Full(job) => {
            // Register the waker *before* the retry: either the retry
            // lands (a pop raced in between) or a future pop is
            // guaranteed to see the waker. A stale wake is harmless.
            shard.add_waiter(waker);
            match shard.try_push(job) {
                TryPush::Stored(spare) => {
                    // The retry landed, so this connection no longer
                    // needs its registration — leaving it would let a
                    // later one-shot wake land here instead of on a
                    // connection that is actually suspended.
                    shard.remove_waiter(waker);
                    Stage::Stored(spare)
                }
                TryPush::Closed => Stage::Closed,
                TryPush::Full(job) => {
                    Stats::add(&inner.stats.backpressure_waits, 1);
                    Stats::add(&inner.stats.ingest_suspensions, 1);
                    Stage::Suspend(job)
                }
            }
        }
    }
}
