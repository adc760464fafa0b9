//! The three workloads that run `sketchd` in-process over loopback TCP
//! (`ingest`, `query`, `mixed`), and the client loops they share with
//! the traced run's fleet trip.

use std::time::Duration;

use sketchd::{AgentSender, Bind, QueryClient, ServerConfig, ServerHandle, StatsSnapshot};

use crate::gen::{self, Payload};
use crate::rng::fnv1a;
use crate::stats::{self, Schedule, Tail, Tally, SLICE_NS};
use crate::trace::{self, now_ns};
use crate::verify::{self, Union};
use crate::{alloc, Layers, Outcome, ProbeInputs};

/// `mixed` ingest connection: payloads per second.
pub const MIXED_INGEST_RATE: f64 = 25_000.0;
/// `mixed` query connection: queries per second (a quarter are `COUNT`).
pub const MIXED_QUERY_RATE: f64 = 1_000.0;
/// Longest the drain may take before missing frames count as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// A generator this late at its p99 voids the run.
const LATE_LIMIT_MS: f64 = 100.0;

/// The server under test: the default configuration, bound to loopback.
pub fn spawn_server() -> ServerHandle {
    ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), ServerConfig::default())
        .expect("bind a loopback port for the server")
}

/// Wait until the server has absorbed or rejected `frames` frames, then
/// run `SYNC`. Returns how many frames were never accounted for.
pub fn drain(server: &ServerHandle, client: &mut QueryClient, frames: u64) -> u64 {
    let deadline = std::time::Instant::now() + DRAIN_TIMEOUT;
    loop {
        let s = server.stats();
        let seen = s.frames_ingested + s.frames_rejected;
        if seen >= frames || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    if client.sync().is_err() {
        return frames;
    }
    let s = server.stats();
    frames.saturating_sub(s.frames_ingested)
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Request id shared by the spans of one payload or query.
fn req(conn: u64, index: u64) -> u64 {
    conn << 40 | index
}

/// What one ingest connection did.
#[derive(Default)]
pub struct Sent {
    /// Sends per pool entry.
    pub counts: Vec<u64>,
    pub frames: u64,
    pub bytes: u64,
    pub values: u64,
    /// `(done_ns, µs)` per burst: closed loop, the time to send one
    /// agent flush of `burst` payloads; open loop, one payload from its
    /// due time.
    pub latency_us: Vec<(u64, f64)>,
    pub late_ns: Vec<f64>,
    /// `(start_ns, cumulative integer-plane values)` per open-loop send:
    /// when the frame was handed to the sender, and the count including
    /// it.
    pub timeline: Vec<(u64, u64)>,
    pub tally: Tally,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Sent {
    /// Add this connection's attempts, failures and first error to `out`.
    pub fn report(&self, out: &mut Outcome) {
        out.tally.merge(self.tally);
        if let Some(e) = &self.first_error {
            out.problem(e.clone());
        }
    }
}

/// Ship pool entries `offset, offset+1, …` (cycling) as tenant
/// `tenant`. Closed loop when `schedule` is `None`, timing each flush of
/// `burst` payloads; otherwise open loop, each send waiting for its due
/// time and timed from it. Stops at `deadline_ns` or after `limit` sends.
#[allow(clippy::too_many_arguments)]
pub fn send_loop(
    server: &ServerHandle,
    pool: &[&Payload],
    tenant: &str,
    conn: u64,
    offset: usize,
    schedule: Option<Schedule>,
    burst: u64,
    deadline_ns: u64,
    limit: u64,
) -> Sent {
    let mut out = Sent {
        counts: vec![0; pool.len()],
        ..Sent::default()
    };
    let mut sender = match AgentSender::connect(server.endpoint().clone(), tenant) {
        Ok(s) => s,
        Err(e) => {
            out.tally.fail(1);
            out.first_error = Some(format!("agent connect: {e}"));
            return out;
        }
    };
    let mut cum = 0u64;
    let mut k = 0u64;
    let mut burst_start = 0;
    while k < limit {
        let due = schedule.map(|s| s.due_ns(k));
        let Some(start) = begin(due, deadline_ns) else {
            break;
        };
        if k.is_multiple_of(burst) {
            burst_start = due.unwrap_or(start);
        }
        let i = (offset + k as usize) % pool.len();
        let p = pool[i];
        let ts = if p.ts != 0 { p.ts } else { gen::stream_ts(k) };
        let result = {
            let _span = trace::span("agent.send_encoded", req(conn, k));
            sender.send_encoded(&p.metric, ts, &p.bytes)
        };
        let done = now_ns();
        k += 1;
        if let Err(e) = result {
            out.tally.fail(1);
            out.first_error.get_or_insert(format!("send: {e}"));
            continue;
        }
        out.tally.ok(1);
        out.counts[i] += 1;
        out.frames += 1;
        out.bytes += p.bytes.len() as u64;
        out.values += p.values.len() as u64;
        cum += p.integer_values();
        if schedule.is_some() {
            out.timeline.push((start, cum));
        }
        if k.is_multiple_of(burst) {
            let us = stats::latency_from_due(burst_start, done) as f64 / 1e3;
            out.latency_us.push((done, us));
        }
        if let Some(due) = due {
            out.late_ns.push(stats::lateness(due, start) as f64);
        }
    }
    if let Err(e) = sender.close() {
        out.tally.fail(1);
        out.first_error.get_or_insert(format!("agent close: {e}"));
    }
    trace::flush();
    out
}

/// When to issue the next request: open loop, sleep until it is due
/// (never spinning: the host's cores belong to the server); closed loop,
/// now. Returns the time the request starts, or `None` once the run's
/// deadline has come.
fn begin(due_ns: Option<u64>, deadline_ns: u64) -> Option<u64> {
    let now = now_ns();
    match due_ns {
        None if now >= deadline_ns => None,
        None => Some(now),
        Some(due) if due >= deadline_ns => None,
        Some(due) if now < due => {
            std::thread::sleep(Duration::from_nanos(due - now));
            Some(now_ns())
        }
        Some(_) => Some(now),
    }
}

/// What one query connection did.
#[derive(Default)]
pub struct Asked {
    /// `(done_ns, µs)` per answered query.
    pub latency_us: Vec<(u64, f64)>,
    pub late_ns: Vec<f64>,
    /// `(line index, FNV-1a of the response body)` per answered query.
    pub answers: Vec<(u32, u64)>,
    /// `(sent_ns, done_ns, answer)` per answered `COUNT`.
    pub counts: Vec<(u64, u64, u64)>,
    pub tally: Tally,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Asked {
    /// Add this connection's attempts, failures and first error to `out`.
    pub fn report(&self, out: &mut Outcome) {
        out.tally.merge(self.tally);
        if let Some(e) = &self.first_error {
            out.problem(e.clone());
        }
    }
}

/// Ask `lines[sequence[j]]` for `j = 0, 1, …` (cycling). Closed loop when
/// `schedule` is `None`; otherwise open loop and timed from due time.
/// With `count_line = Some((line, n))`, every n-th query is `line`
/// instead.
#[allow(clippy::too_many_arguments)]
pub fn query_loop(
    endpoint: &sketchd::Endpoint,
    lines: &[String],
    sequence: &[u32],
    conn: u64,
    schedule: Option<Schedule>,
    count_line: Option<(&str, u64)>,
    deadline_ns: u64,
    limit: u64,
) -> Asked {
    let mut out = Asked::default();
    let mut client = match QueryClient::connect(endpoint) {
        Ok(c) => c,
        Err(e) => {
            out.tally.fail(1);
            out.first_error = Some(format!("query connect: {e}"));
            return out;
        }
    };
    let mut j = 0u64;
    while j < limit {
        let due = schedule.map(|s| s.due_ns(j));
        let Some(sent) = begin(due, deadline_ns) else {
            break;
        };
        let is_count = matches!(count_line, Some((_, every)) if j.is_multiple_of(every));
        let index = sequence[j as usize % sequence.len()];
        let line = match count_line {
            Some((line, _)) if is_count => line,
            _ => lines[index as usize].as_str(),
        };
        let result = {
            let _span = trace::span("client.query", req(conn, j));
            client.command(line)
        };
        let done = now_ns();
        j += 1;
        let body = match result {
            Ok(body) => body,
            Err(e) => {
                out.tally.fail(1);
                out.first_error.get_or_insert(format!("{line}: {e}"));
                continue;
            }
        };
        out.tally.ok(1);
        let us = stats::latency_from_due(due.unwrap_or(sent), done) as f64 / 1e3;
        out.latency_us.push((done, us));
        if let Some(due) = due {
            out.late_ns.push(stats::lateness(due, sent) as f64);
        }
        if is_count {
            match body.trim().parse() {
                Ok(c) => out.counts.push((sent, done, c)),
                Err(_) => {
                    out.tally.mark_failed(1);
                    out.first_error
                        .get_or_insert(format!("{line}: bad count {body:?}"));
                }
            }
        } else {
            out.answers.push((index, fnv1a(body.as_bytes())));
        }
    }
    let _ = client.quit();
    trace::flush();
    out
}

/// Set up `repeats` times, keeping the last state; returns the median
/// set-up time.
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let start = std::time::Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&times), state.expect("at least one set-up"))
}

pub const SETUP_REPEATS: usize = 5;
/// Payloads per agent flush in the closed-loop `ingest` senders.
const FLUSH: u64 = 64;
/// Closed-loop `query` connections.
const QUERY_CONNECTIONS: u64 = 2;

/// Ask the drain-time `QUANTILE`/`WQUANTILE`/`COUNT` of `tenant` and
/// compare with the from-scratch union, recording the relative error of
/// the served quantiles against the exact data.
pub fn check_drain(client: &mut QueryClient, tenant: &str, union: &Union, outcome: &mut Outcome) {
    let grid = verify::quantile_grid();
    let mut wrong = 0;
    match client.quantiles(tenant, &grid) {
        Ok(served) => {
            let expected = union.integer.quantiles(&grid).expect("non-empty union");
            if served
                .iter()
                .map(|v| v.to_bits())
                .ne(expected.iter().map(|v| v.to_bits()))
            {
                wrong += 1;
                outcome.problem(format!(
                    "{tenant}: QUANTILE differs from the from-scratch union"
                ));
            }
            outcome
                .rel_errors
                .push(union.max_relative_error(&grid, &served));
        }
        Err(e) => {
            wrong += 1;
            outcome.problem(format!("{tenant}: QUANTILE failed: {e}"));
        }
    }
    match client.weighted_quantiles(tenant, &grid) {
        Ok(served) => {
            let expected = union.weighted.quantiles(&grid).expect("non-empty union");
            if served
                .iter()
                .map(|v| v.to_bits())
                .ne(expected.iter().map(|v| v.to_bits()))
            {
                wrong += 1;
                outcome.problem(format!(
                    "{tenant}: WQUANTILE differs from the from-scratch union"
                ));
            }
        }
        Err(e) => {
            wrong += 1;
            outcome.problem(format!("{tenant}: WQUANTILE failed: {e}"));
        }
    }
    match client.count(tenant) {
        Ok(c) if c == union.count => {}
        Ok(c) => {
            wrong += 1;
            outcome.problem(format!("{tenant}: COUNT {c}, sent {}", union.count));
        }
        Err(e) => {
            wrong += 1;
            outcome.problem(format!("{tenant}: COUNT failed: {e}"));
        }
    }
    outcome.tally.ok(3);
    outcome.tally.mark_failed(wrong);
}

/// Per-payload and per-query ratios of the server's counters between two
/// `STATS` snapshots.
pub fn counter_layers(layers: &mut Layers, before: &StatsSnapshot, after: &StatsSnapshot) {
    let payloads = (after.frames_ingested - before.frames_ingested) as f64;
    let queries = (after.queries_served - before.queries_served) as f64;
    let hits = (after.query_cache_hits - before.query_cache_hits) as f64;
    let misses = (after.query_cache_misses - before.query_cache_misses) as f64;
    let rebuilds = (after.snapshot_rebuilds - before.snapshot_rebuilds) as f64;
    if payloads > 0.0 {
        let per = |a: u64, b: u64| (a - b) as f64 / payloads;
        layers.put("base.payloads", payloads, "count");
        layers.put(
            "server.backpressure_waits_per_payload",
            per(after.backpressure_waits, before.backpressure_waits),
            "1/payload",
        );
        layers.put(
            "server.ingest_suspensions_per_payload",
            per(after.ingest_suspensions, before.ingest_suspensions),
            "1/payload",
        );
        layers.put(
            "reactor.wakeups_per_payload",
            per(after.reactor_wakeups, before.reactor_wakeups),
            "1/payload",
        );
        layers.put(
            "reactor.events_per_payload",
            per(after.reactor_events, before.reactor_events),
            "1/payload",
        );
        layers.put(
            "readplane.rebuilds_per_payload",
            rebuilds / payloads,
            "1/payload",
        );
    }
    // Ratios over a handful of queries (a drain's SYNC) say nothing.
    if queries >= 100.0 {
        layers.put("base.queries", queries, "count");
        layers.put(
            "readplane.rebuilds_per_query",
            rebuilds / queries,
            "1/query",
        );
    }
    if hits + misses >= 100.0 {
        layers.put("base.cache_lookups", hits + misses, "count");
        layers.put("readplane.cache_hit_ratio", hits / (hits + misses), "ratio");
    }
    layers.put(
        "readplane.staleness_max",
        after.snapshot_staleness_max as f64,
        "epochs",
    );
}

fn tenant_absorbed(stats: &StatsSnapshot, tenant: &str) -> u64 {
    stats
        .tenants
        .iter()
        .find(|t| t.name == tenant)
        .map_or(0, |t| t.frames_absorbed)
}

fn merge_counts(sent: &[Sent], pool_len: usize) -> Vec<u64> {
    let mut counts = vec![0u64; pool_len];
    for s in sent {
        for (c, n) in counts.iter_mut().zip(&s.counts) {
            *c += n;
        }
    }
    counts
}

/// `ingest`: two closed-loop connections send the pool flat out.
pub fn ingest(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, (server, pool)) = timed_setup(SETUP_REPEATS, || {
        let pool = gen::ingest_pool(seed);
        (spawn_server(), pool)
    });
    let mut out = Outcome::new(setup_s);
    let refs: Vec<&Payload> = pool.iter().collect();
    let tenant = gen::tenant_name(0);
    let mut client = QueryClient::connect(server.endpoint()).expect("query connection");
    let before = server.stats();
    alloc::set_counting(traced);
    let allocs = alloc::allocations();
    let start = now_ns();
    let deadline = start + (seconds * 1e9) as u64;
    // The main thread samples the server's absorbed-frame counter once
    // per slice while the senders run.
    let mut absorbed_at: Vec<(u64, u64)> = vec![(start, before.frames_ingested)];
    let sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|conn| {
                let (server, refs, tenant) = (&server, &refs, &tenant);
                s.spawn(move || {
                    let offset = conn as usize * refs.len() / 2;
                    send_loop(
                        server,
                        refs,
                        tenant,
                        conn,
                        offset,
                        None,
                        FLUSH,
                        deadline,
                        u64::MAX,
                    )
                })
            })
            .collect();
        let mut next = start + SLICE_NS;
        while next <= deadline {
            std::thread::sleep(Duration::from_nanos(next.saturating_sub(now_ns())));
            absorbed_at.push((now_ns(), server.stats().frames_ingested));
            next += SLICE_NS;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect()
    });
    let frames: u64 = sent.iter().map(|s| s.frames).sum();
    let missing = drain(&server, &mut client, frames);
    let end = now_ns();
    alloc::set_counting(false);
    let after = server.stats();
    let elapsed = (end - start) as f64 / 1e9;
    let absorbed = tenant_absorbed(&after, &tenant);
    for s in &sent {
        s.report(&mut out);
    }
    if missing > 0 || absorbed != frames {
        out.tally
            .mark_failed(missing.max(frames.abs_diff(absorbed)));
        out.problem(format!("{frames} frames sent, {absorbed} absorbed"));
    }
    let counts = merge_counts(&sent, pool.len());
    let union = Union::of(pool.iter().zip(counts.iter().copied()));
    check_drain(&mut client, &tenant, &union, &mut out);
    let latency: Vec<(u64, f64)> = sent
        .iter()
        .flat_map(|s| s.latency_us.iter().copied())
        .collect();
    out.put_tail(stats::sliced_tail(&latency, start, SLICE_NS));
    let rates: Vec<f64> = absorbed_at
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) as f64 * 1e9 / (w[1].0 - w[0].0) as f64)
        .collect();
    out.put_rate(&rates);
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    let values: u64 = sent.iter().map(|s| s.values).sum();
    let bytes: u64 = sent.iter().map(|s| s.bytes).sum();
    out.put("wire_bytes_per_value", bytes as f64 / values as f64, "B");
    out.note(format!(
        "ingest: {frames} payloads ({values} values, {:.1} values and {:.1} bins per payload on average over the pool) in {elapsed:.3} s including the drain: {:.0} payloads/s",
        pool.iter().map(|p| p.values.len()).sum::<usize>() as f64 / pool.len() as f64,
        pool.iter().map(|p| p.bins).sum::<usize>() as f64 / pool.len() as f64,
        absorbed as f64 / elapsed,
    ));
    if traced {
        let payloads = (after.frames_ingested - before.frames_ingested).max(1) as f64;
        out.layers.put(
            "alloc.per_payload",
            (alloc::allocations() - allocs) as f64 / payloads,
            "1/payload",
        );
        counter_layers(&mut out.layers, &before, &after);
    }
    let _ = client.quit();
    let lines = gen::query_lines(seed, 1, gen::INGEST_METRICS);
    out.probe = Some(ProbeInputs {
        batches: Vec::new(),
        payloads: pool,
        lines,
        e2e_ns_per_payload: None,
    });
    shutdown(server, &mut out);
    out
}

pub fn shutdown(server: ServerHandle, out: &mut Outcome) {
    if let Err(e) = server.shutdown() {
        out.problem(format!("server shutdown failed: {e}"));
        out.tally.mark_failed(1);
    }
}

/// Send `payloads` tenant by tenant (one connection open at a time) and
/// wait until all are absorbed.
pub fn preload(server: &ServerHandle, payloads: &[Payload]) -> u64 {
    let tenants = payloads.iter().map(|p| p.tenant).max().map_or(0, |t| t + 1);
    let mut frames = 0;
    for t in 0..tenants {
        let mine: Vec<&Payload> = payloads.iter().filter(|p| p.tenant == t).collect();
        let sent = send_loop(
            server,
            &mine,
            &gen::tenant_name(t),
            t as u64,
            0,
            None,
            FLUSH,
            u64::MAX,
            mine.len() as u64,
        );
        frames += sent.frames;
    }
    let mut client = QueryClient::connect(server.endpoint()).expect("query connection");
    let missing = drain(server, &mut client, frames);
    let _ = client.quit();
    missing
}

/// `query`: two closed-loop connections over a preloaded, quiesced
/// server, lines drawn Zipf-skewed from about 1,000 distinct ones.
pub fn query(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, (server, preload_set, lines, seqs, missing)) = timed_setup(SETUP_REPEATS, || {
        let payloads = gen::query_preload(seed);
        let lines = gen::query_lines(seed, gen::QUERY_TENANTS, gen::QUERY_METRICS);
        let seqs: Vec<Vec<u32>> = (0..QUERY_CONNECTIONS)
            .map(|c| gen::zipf_sequence(seed, c, lines.len(), 1 << 20))
            .collect();
        let server = spawn_server();
        let missing = preload(&server, &payloads);
        (server, payloads, lines, seqs, missing)
    });
    let mut out = Outcome::new(setup_s);
    out.tally.ok(preload_set.len() as u64);
    if missing > 0 {
        out.tally.mark_failed(missing);
        out.problem(format!("{missing} preload frames not absorbed"));
    }
    let before = server.stats();
    alloc::set_counting(traced);
    let allocs = alloc::allocations();
    let start = now_ns();
    let deadline = start + (seconds * 1e9) as u64;
    let asked: Vec<Asked> = std::thread::scope(|s| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(conn, seq)| {
                let (endpoint, lines) = (server.endpoint(), &lines);
                s.spawn(move || {
                    query_loop(
                        endpoint,
                        lines,
                        seq,
                        conn as u64,
                        None,
                        None,
                        deadline,
                        u64::MAX,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread"))
            .collect()
    });
    let end = now_ns();
    alloc::set_counting(false);
    let after = server.stats();
    let answered: u64 = asked.iter().map(|a| a.answers.len() as u64).sum();
    if traced {
        out.layers.put(
            "alloc.per_query",
            (alloc::allocations() - allocs) as f64 / answered.max(1) as f64,
            "1/query",
        );
        counter_layers(&mut out.layers, &before, &after);
    }
    // Every answer must equal the in-process replay of the preload.
    let expected: Vec<u64> = verify::expected_answers(&preload_set, &lines)
        .iter()
        .map(|body| fnv1a(body.as_bytes()))
        .collect();
    for a in &asked {
        a.report(&mut out);
        let wrong = a
            .answers
            .iter()
            .filter(|(i, h)| expected[*i as usize] != *h)
            .count() as u64;
        if wrong > 0 {
            out.tally.mark_failed(wrong);
            out.problem(format!("{wrong} answers differ from the in-process replay"));
        }
    }
    let mut client = QueryClient::connect(server.endpoint()).expect("query connection");
    for t in 0..gen::QUERY_TENANTS {
        let mine = preload_set.iter().filter(|p| p.tenant == t).map(|p| (p, 1));
        let union = Union::of(mine);
        check_drain(&mut client, &gen::tenant_name(t), &union, &mut out);
    }
    let _ = client.quit();
    let elapsed = (end - start) as f64 / 1e9;
    let latency: Vec<(u64, f64)> = asked
        .iter()
        .flat_map(|a| a.latency_us.iter().copied())
        .collect();
    out.put_tail(stats::sliced_tail(&latency, start, SLICE_NS));
    out.put_rate(&stats::sliced_rates(
        latency.iter().map(|l| l.0),
        start,
        end,
        SLICE_NS,
    ));
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    out.put_wire(&preload_set);
    let distinct = {
        let mut seen = vec![false; lines.len()];
        for a in &asked {
            for (i, _) in &a.answers {
                seen[*i as usize] = true;
            }
        }
        seen.iter().filter(|&&s| s).count()
    };
    out.note(format!(
        "query: {answered} answers over {distinct} distinct lines of {} in {elapsed:.3} s",
        lines.len()
    ));
    out.probe = Some(ProbeInputs {
        batches: Vec::new(),
        payloads: preload_set,
        lines,
        e2e_ns_per_payload: None,
    });
    shutdown(server, &mut out);
    out
}

/// The open-loop core shared by `mixed` and the traced run's fleet trip:
/// one ingest connection at `ingest_rate` payloads/s and one query
/// connection at `query_rate` queries/s, a quarter of them `COUNT`.
pub struct Mixed {
    pub sent: Sent,
    pub asked: Asked,
    pub start: u64,
    pub end: u64,
    pub missing: u64,
    pub staleness_ms: Vec<f64>,
    pub impossible_counts: u64,
}

/// `base` is the tenant's integer-plane value count before the run.
pub fn run_mixed(
    server: &ServerHandle,
    pool: &[&Payload],
    lines: &[String],
    sequence: &[u32],
    tenant: &str,
    base: u64,
    seconds: f64,
) -> Mixed {
    let start = now_ns() + 1_000_000;
    let deadline = start + (seconds * 1e9) as u64;
    let count_line = format!("COUNT {tenant}");
    let (sent, asked) = std::thread::scope(|s| {
        let ingest = s.spawn(|| {
            let schedule = Schedule::per_second(start, MIXED_INGEST_RATE);
            send_loop(
                server,
                pool,
                tenant,
                0,
                0,
                Some(schedule),
                1,
                deadline,
                u64::MAX,
            )
        });
        let queries = s.spawn(|| {
            let schedule = Schedule::per_second(start, MIXED_QUERY_RATE);
            query_loop(
                server.endpoint(),
                lines,
                sequence,
                1,
                Some(schedule),
                Some((&count_line, 4)),
                deadline,
                u64::MAX,
            )
        });
        (
            ingest.join().expect("ingest thread"),
            queries.join().expect("query thread"),
        )
    });
    let mut client = QueryClient::connect(server.endpoint()).expect("query connection");
    let missing = drain(server, &mut client, sent.frames);
    let end = now_ns();
    let _ = client.quit();
    let answers: Vec<(u64, u64)> = asked
        .counts
        .iter()
        .map(|&(sent, _, c)| (sent, c.saturating_sub(base)))
        .collect();
    let (staleness_ms, mut impossible_counts) = stats::staleness_ms(&sent.timeline, &answers);
    // A count can never exceed what had been sent when it came back.
    for &(_, done, c) in &asked.counts {
        let at = sent.timeline.partition_point(|&(t, _)| t <= done);
        let cum = if at == 0 { 0 } else { sent.timeline[at - 1].1 };
        if c > base + cum {
            impossible_counts += 1;
        }
    }
    Mixed {
        sent,
        asked,
        start,
        end,
        missing,
        staleness_ms,
        impossible_counts,
    }
}

/// `mixed`: open-loop ingest beside open-loop queries at fixed rates.
pub fn mixed(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, (server, pool, lines, seq, missing)) = timed_setup(SETUP_REPEATS, || {
        let pool = gen::ingest_pool(seed);
        let lines = gen::query_lines(seed, 1, gen::INGEST_METRICS);
        let seq = gen::zipf_sequence(seed, 0, lines.len(), 1 << 18);
        let server = spawn_server();
        // Queries need a tenant with data: the pool goes in once first.
        let missing = preload(&server, &pool);
        (server, pool, lines, seq, missing)
    });
    let mut out = Outcome::new(setup_s);
    out.tally.ok(pool.len() as u64);
    if missing > 0 {
        out.tally.mark_failed(missing);
        out.problem(format!("{missing} warm-up frames not absorbed"));
    }
    let tenant = gen::tenant_name(0);
    let refs: Vec<&Payload> = pool.iter().collect();
    let base: u64 = pool.iter().map(Payload::integer_values).sum();
    let before = server.stats();
    let run = run_mixed(&server, &refs, &lines, &seq, &tenant, base, seconds);
    let after = server.stats();
    run.sent.report(&mut out);
    run.asked.report(&mut out);
    let absorbed = tenant_absorbed(&after, &tenant) - pool.len() as u64;
    if run.missing > 0 || absorbed != run.sent.frames {
        out.tally
            .mark_failed(run.missing.max(run.sent.frames.abs_diff(absorbed)));
        out.problem(format!(
            "{} frames sent, {absorbed} absorbed",
            run.sent.frames
        ));
    }
    if run.impossible_counts > 0 {
        out.tally.mark_failed(run.impossible_counts);
        out.problem(format!(
            "{} COUNT answers exceed what had been sent",
            run.impossible_counts
        ));
    }
    let union = Union::of(pool.iter().zip(run.sent.counts.iter().map(|n| n + 1)));
    let mut client = QueryClient::connect(server.endpoint()).expect("query connection");
    check_drain(&mut client, &tenant, &union, &mut out);
    let _ = client.quit();
    let elapsed = (run.end - run.start) as f64 / 1e9;
    let ops = absorbed + run.asked.latency_us.len() as u64;
    out.put_tail(stats::sliced_tail(
        &run.asked.latency_us,
        run.start,
        SLICE_NS,
    ));
    out.put("ops_per_s", ops as f64 / elapsed, "1/s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    out.put(
        "wire_bytes_per_value",
        run.sent.bytes as f64 / run.sent.values as f64,
        "B",
    );
    let late = late_p99_ms(&run, &mut out);
    if late > LATE_LIMIT_MS {
        out.tally.mark_failed(1);
        out.problem(format!("generator ran {late:.1} ms late at p99: run void"));
    }
    if traced {
        counter_layers(&mut out.layers, &before, &after);
        put_staleness(&mut out, &run);
    }
    out.note(format!(
        "mixed: {} payloads at {MIXED_INGEST_RATE}/s and {} queries at {MIXED_QUERY_RATE}/s over {elapsed:.3} s",
        run.sent.frames,
        run.asked.latency_us.len()
    ));
    out.probe = Some(ProbeInputs {
        batches: Vec::new(),
        payloads: pool,
        lines,
        e2e_ns_per_payload: None,
    });
    shutdown(server, &mut out);
    out
}

/// p99 lateness of both generators, in ms.
pub fn late_p99_ms(run: &Mixed, out: &mut Outcome) -> f64 {
    let mut late: Vec<f64> = run
        .sent
        .late_ns
        .iter()
        .chain(&run.asked.late_ns)
        .map(|ns| ns / 1e6)
        .collect();
    if late.is_empty() {
        return 0.0;
    }
    let tail = Tail::of(&mut late);
    out.samples.insert("generator_lateness", tail.n);
    out.layers.put("generator.late_p99_ms", tail.p99, "ms");
    tail.p99
}

pub fn put_staleness(out: &mut Outcome, run: &Mixed) {
    let mut staleness = run.staleness_ms.clone();
    if !staleness.is_empty() {
        let tail = Tail::of(&mut staleness);
        out.samples.insert("count_staleness", tail.n);
        out.layers
            .put("readplane.count_staleness_p99_ms", tail.p99, "ms");
    }
}
