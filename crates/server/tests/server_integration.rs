//! End-to-end integration tests for `sketchd` over real loopback
//! sockets: concurrent agent fleets with corrupt-frame injection and
//! mid-stream disconnects, backpressure, checkpoint/restore through the
//! wire, the server-kill reconnect regression, and protocol errors.
//!
//! The server's reactor needs a POSIX platform, so this suite is
//! Unix-only.
#![cfg(unix)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ddsketch::{AnyDDSketch, SketchConfig};
use sketchd::{AgentSender, Bind, QueryClient, ReadPlane, RetryPolicy, ServerConfig, ServerHandle};

/// 2048 bins is comfortably above what the value ranges below populate,
/// so no collapsing happens and bit-identity claims stay about the
/// merge plumbing, not collapse order.
fn cfg() -> SketchConfig {
    SketchConfig::dense_collapsing(0.01, 2048)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        sketch: cfg(),
        window_secs: 10,
        fold_threshold: 8,
        shards_per_tenant: 4,
        staging_bound: 64,
        ..ServerConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sketchd-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build one agent-side per-window sketch and return its encoded bytes.
fn payload(values: impl IntoIterator<Item = f64>) -> Vec<u8> {
    let mut sketch = cfg().build().unwrap();
    for v in values {
        sketch.add(v).unwrap();
    }
    sketch.encode()
}

/// `AgentSender::close` returns once the frames are flushed to the
/// kernel, not once the server has *read* them — so tests wait until the
/// server accounts for every frame (absorbed + rejected) before
/// asserting on state.
fn await_frames(client: &mut QueryClient, expect: u64) -> sketchd::StatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().unwrap();
        let seen = stats.frames_ingested + stats.frames_rejected;
        if seen >= expect {
            assert_eq!(seen, expect, "more frames accounted for than sent");
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out at {seen}/{expect} frames"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The tentpole soak-shaped test: 50 concurrent agents over TCP
/// loopback, ~2% corrupt payloads and periodic mid-stream disconnects
/// injected, queries running concurrently with ingest — and the final
/// tenant-wide quantiles must be **bit-identical** to a from-scratch
/// union sketch over every valid payload.
#[test]
fn fifty_agents_with_corruption_equal_the_union() {
    const AGENTS: usize = 50;
    const FRAMES_PER_AGENT: usize = 120;
    const VALUES_PER_FRAME: usize = 20;

    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), server_config()).unwrap();
    let endpoint = server.endpoint().clone();

    // A concurrent query thread hammers the server throughout ingest.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let query_thread = {
        let endpoint = endpoint.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = QueryClient::connect(&endpoint).unwrap();
            let mut queries = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                client.ping().unwrap();
                // Quantiles may legitimately answer -ERR before the first
                // frame lands; protocol errors are fine, transport errors
                // are not.
                match client.quantiles("acme", &[0.5, 0.99]) {
                    Ok(_) | Err(sketchd::ServerError::Protocol(_)) => {}
                    Err(e) => panic!("query failed: {e}"),
                }
                queries += 1;
            }
            queries
        })
    };

    let handles: Vec<_> = (0..AGENTS)
        .map(|a| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut agent = AgentSender::connect(endpoint, "acme").expect("agent connects");
                let mut union = cfg().build().unwrap();
                let mut corrupt = 0u64;
                for i in 0..FRAMES_PER_AGENT {
                    let metric = format!("m{}", (a + i) % 7);
                    let ts = ((a * 31 + i) % 50) as u64 * 10;
                    if (a + i) % 47 == 0 {
                        // ~2% corrupt payloads: intact framing, garbage
                        // sketch bytes. The server must reject exactly
                        // these and keep the stream alive.
                        agent
                            .send_encoded(&metric, ts, b"DDS2 this is not a sketch")
                            .expect("corrupt frame still ships");
                        corrupt += 1;
                        continue;
                    }
                    if i > 0 && i % 40 == 0 {
                        // Mid-stream disconnect: the next send reconnects.
                        agent.drop_connection();
                    }
                    let values: Vec<f64> = (0..VALUES_PER_FRAME)
                        .map(|k| 0.5 + ((a * 1009 + i * 97 + k * 13) % 997) as f64)
                        .collect();
                    let bytes = payload(values.iter().copied());
                    union
                        .merge_from(&AnyDDSketch::decode(&bytes).unwrap())
                        .unwrap();
                    agent.send_encoded(&metric, ts, &bytes).expect("send");
                }
                let reconnects = agent.reconnects();
                agent.close().expect("clean close");
                (union, corrupt, reconnects)
            })
        })
        .collect();

    let mut reference = cfg().build().unwrap();
    let mut total_corrupt = 0u64;
    let mut total_reconnects = 0u64;
    for handle in handles {
        let (union, corrupt, reconnects) = handle.join().unwrap();
        reference.merge_from(&union).unwrap();
        total_corrupt += corrupt;
        total_reconnects += reconnects;
    }
    assert!(total_corrupt >= AGENTS as u64, "corruption injection ran");
    assert!(
        total_reconnects >= AGENTS as u64,
        "disconnect injection ran"
    );

    let mut client = QueryClient::connect(&endpoint).unwrap();
    let stats = await_frames(&mut client, (AGENTS * FRAMES_PER_AGENT) as u64);
    client.sync().unwrap();

    // Quantiles bit-identical to the from-scratch union.
    let qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
    let served = client.quantiles("acme", &qs).unwrap();
    let expected = reference.quantiles(&qs).unwrap();
    for (q, (got, want)) in qs.iter().zip(served.iter().zip(expected.iter())) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "q={q}: served {got} != union {want}"
        );
    }

    // Zero lost or duplicated bins: the counts agree exactly.
    assert_eq!(client.count("acme").unwrap(), reference.count());

    // The corrupt frames were rejected, not absorbed — and nothing else.
    assert_eq!(stats.frames_rejected, total_corrupt);
    assert_eq!(
        stats.frames_ingested,
        (AGENTS * FRAMES_PER_AGENT) as u64 - total_corrupt
    );

    // Metric listing and per-metric series work alongside.
    let metrics = client.metrics("acme").unwrap();
    assert_eq!(metrics, (0..7).map(|i| format!("m{i}")).collect::<Vec<_>>());
    let series = client.series("acme", "m3", 0.5).unwrap();
    assert!(!series.is_empty());
    for (window, value) in &series {
        assert_eq!(window % 10, 0);
        assert!(value.is_finite());
    }

    // The per-shard depth vector is always shaped right, and the
    // reactor's wakeup counter moves.
    assert_eq!(stats.staging_depth.len(), 4);
    assert!(stats.reactor_wakeups > 0, "reactor wakeups counted");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let queries = query_thread.join().unwrap();
    assert!(queries > 0, "queries ran concurrently with ingest");
    server.shutdown().unwrap();
}

/// The same plumbing end-to-end over a Unix domain socket.
#[test]
fn unix_socket_end_to_end() {
    let dir = temp_dir("unix-e2e");
    let server =
        ServerHandle::spawn(&Bind::Unix(dir.join("sketchd.sock")), server_config()).unwrap();
    let mut agent = AgentSender::connect(server.endpoint().clone(), "tenant-a").unwrap();
    let mut reference = cfg().build().unwrap();
    for i in 0..40 {
        let bytes = payload((1..=25).map(|k| f64::from(k) * (i + 1) as f64 * 0.3));
        reference
            .merge_from(&AnyDDSketch::decode(&bytes).unwrap())
            .unwrap();
        agent.send_encoded("api.latency", i * 10, &bytes).unwrap();
    }
    agent.close().unwrap();

    let mut client = QueryClient::connect(server.endpoint()).unwrap();
    await_frames(&mut client, 40);
    client.sync().unwrap();
    assert_eq!(client.count("tenant-a").unwrap(), reference.count());
    let qs = [0.5, 0.95, 0.99];
    assert_eq!(
        client.quantiles("tenant-a", &qs).unwrap(),
        reference.quantiles(&qs).unwrap()
    );
    assert_eq!(client.tenants().unwrap(), vec!["tenant-a".to_string()]);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 2's regression: kill the server mid-stream, restart it on
/// the same endpoint, and verify the sender reconnects and that **no
/// frame was half-written** — every absorbed frame carries exactly its
/// full complement of values, and the framing of the resumed stream is
/// intact.
#[test]
fn server_kill_midstream_reconnects_without_torn_frames() {
    const VALUES_PER_FRAME: u64 = 16;
    let dir = temp_dir("kill");
    let sock = dir.join("sketchd.sock");
    let checkpoints = dir.join("ckpt");
    let config = ServerConfig {
        checkpoint_dir: Some(checkpoints.clone()),
        ..server_config()
    };

    let server1 = ServerHandle::spawn(&Bind::Unix(sock.clone()), config.clone()).unwrap();
    let mut agent = AgentSender::with_policy(
        server1.endpoint().clone(),
        "acme",
        RetryPolicy {
            max_attempts: 20,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
        },
    )
    .unwrap();

    let frame_values =
        |i: u64| (0..VALUES_PER_FRAME).map(move |k| 1.0 + ((i * 131 + k * 17) % 499) as f64);
    for i in 0..100u64 {
        agent
            .send_encoded("m", (i % 20) * 10, &payload(frame_values(i)))
            .unwrap();
    }
    // Barrier: everything sent so far is absorbed, then checkpointed by
    // the graceful kill below.
    let mut client = QueryClient::connect(server1.endpoint()).unwrap();
    await_frames(&mut client, 100);
    client.sync().unwrap();
    assert_eq!(client.count("acme").unwrap(), 100 * VALUES_PER_FRAME);
    drop(client);
    server1.shutdown().unwrap();

    // Restart on the same socket path, restoring the checkpoints.
    let server2 = ServerHandle::spawn(&Bind::Unix(sock), config).unwrap();

    // The agent's connection is dead; the next sends must ride the
    // bounded-retry reconnect path and resend whole frames.
    for i in 100..150u64 {
        agent
            .send_encoded("m", (i % 20) * 10, &payload(frame_values(i)))
            .unwrap();
    }
    assert!(agent.reconnects() >= 1, "a reconnect must have happened");
    assert_eq!(agent.frames_sent(), 150);
    agent.close().unwrap();

    let mut client = QueryClient::connect(server2.endpoint()).unwrap();
    await_frames(&mut client, 50);
    client.sync().unwrap();
    let count = client.count("acme").unwrap();
    // No torn frames: the total is an exact multiple of the frame size,
    // and nothing was lost across the kill (pre-kill frames were synced
    // and checkpointed, post-kill frames all reached server2).
    assert_eq!(count % VALUES_PER_FRAME, 0, "half-written frame absorbed");
    assert_eq!(count, 150 * VALUES_PER_FRAME);

    // The restored + resumed state answers exactly like a from-scratch
    // union over all 150 frames.
    let mut reference = cfg().build().unwrap();
    for i in 0..150u64 {
        for v in frame_values(i) {
            reference.add(v).unwrap();
        }
    }
    let qs = [0.1, 0.5, 0.9, 0.99];
    assert_eq!(
        client.quantiles("acme", &qs).unwrap(),
        reference.quantiles(&qs).unwrap()
    );
    server2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tiny staging bound must throttle a fast agent (backpressure
/// observed in the stats) while losing nothing: the reactor suspends
/// the connection and resumes it when the worker frees space.
#[test]
fn backpressure_throttles_without_loss() {
    const FRAMES: u64 = 3000;
    let config = ServerConfig {
        shards_per_tenant: 1,
        staging_bound: 1,
        ..server_config()
    };
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap();
    let endpoint = server.endpoint().clone();

    // A concurrent quantile loop contends for the shard state lock,
    // slowing the worker enough that the bound-1 queue fills.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let contender = {
        let endpoint = endpoint.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = QueryClient::connect(&endpoint).unwrap();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = client.quantiles("t", &[0.99]);
            }
        })
    };

    let mut agent = AgentSender::connect(endpoint.clone(), "t").unwrap();
    let bytes = payload((1..=10).map(f64::from));
    let per_frame = AnyDDSketch::decode(&bytes).unwrap().count();
    for i in 0..FRAMES {
        agent
            .send_encoded("hot.metric", (i % 10) * 10, &bytes)
            .unwrap();
    }
    agent.close().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    contender.join().unwrap();

    let mut client = QueryClient::connect(&endpoint).unwrap();
    let stats = await_frames(&mut client, FRAMES);
    client.sync().unwrap();
    assert_eq!(client.count("t").unwrap(), FRAMES * per_frame);
    assert!(
        stats.backpressure_waits > 0,
        "a bound-1 queue must have stalled ingest"
    );
    assert!(
        stats.ingest_suspensions > 0,
        "the reactor must suspend, not block"
    );
    // The staging depth can never exceed the bound.
    for (depth, high) in client.shards("t").unwrap() {
        assert!(depth <= 1, "depth {depth} beyond bound");
        assert!(high <= 1, "high watermark {high} beyond bound");
    }
    server.shutdown().unwrap();
}

/// Arrivals past [`ServerConfig::max_connections`] get a clean
/// protocol-level reject and the slot frees once a held connection
/// closes.
#[test]
fn connection_cap_rejects_cleanly() {
    use std::io::Read;
    let config = ServerConfig {
        max_connections: 2,
        ..server_config()
    };
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap();
    let endpoint = server.endpoint().clone();
    let sketchd::Endpoint::Tcp(addr) = endpoint.clone() else {
        unreachable!()
    };

    // Fill the cap with two live query sessions.
    let mut held_a = QueryClient::connect(&endpoint).unwrap();
    held_a.ping().unwrap();
    let mut held_b = QueryClient::connect(&endpoint).unwrap();
    held_b.ping().unwrap();

    // The third arrival is told why and dropped.
    let mut response = String::new();
    std::net::TcpStream::connect(addr)
        .unwrap()
        .read_to_string(&mut response)
        .unwrap();
    assert_eq!(response, "-ERR server at connection capacity\n");

    let stats = held_a.stats().unwrap();
    assert_eq!(stats.open_connections, 2);
    assert_eq!(stats.connections_rejected, 1);
    assert_eq!(stats.connections_total, 2, "rejects aren't connections");

    // Releasing a held session frees the slot (the server needs a
    // moment to observe the close).
    held_b.quit().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut client) = QueryClient::connect(&endpoint) {
            if client.ping().is_ok() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "capacity slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown().unwrap();
}

/// Checkpoint DUMP over the socket restores to a store equal to the
/// server's, and CHECKPOINT writes restorable `{tenant}@{shard}.ddts`
/// files.
#[test]
fn dump_and_checkpoint_roundtrip_over_the_wire() {
    let dir = temp_dir("dump");
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..server_config()
    };
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap();
    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
    let mut reference = cfg().build().unwrap();
    for i in 0..60u64 {
        let metric = format!("m{}", i % 5);
        let bytes = payload((1..=30).map(|k| f64::from(k) * 0.7 + i as f64));
        reference
            .merge_from(&AnyDDSketch::decode(&bytes).unwrap())
            .unwrap();
        agent.send_encoded(&metric, (i % 12) * 10, &bytes).unwrap();
    }
    agent.close().unwrap();

    let mut client = QueryClient::connect(server.endpoint()).unwrap();
    await_frames(&mut client, 60);
    client.sync().unwrap();

    // DUMP every shard and union them client-side: the restored stores
    // must hold exactly the server's data.
    let mut dumped_count = 0u64;
    let mut union = cfg().build().unwrap();
    for shard in 0..4 {
        let store = client.fetch_store("acme", shard).unwrap();
        for (_, _, cell) in store.cells() {
            dumped_count += cell.count();
            union.merge_from(cell).unwrap();
        }
        // The query session stays line-oriented after the binary escape.
        client.ping().unwrap();
    }
    assert_eq!(dumped_count, reference.count());
    let qs = [0.5, 0.99];
    assert_eq!(
        union.quantiles(&qs).unwrap(),
        reference.quantiles(&qs).unwrap()
    );

    // CHECKPOINT writes one file per (tenant, shard), each restorable.
    assert_eq!(client.checkpoint().unwrap(), 4);
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        (0..4).map(|i| format!("acme@{i}.ddts")).collect::<Vec<_>>()
    );
    for file in &files {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        pipeline::TimeSeriesStore::restore(bytes.as_slice()).unwrap();
    }
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quiesced server holding `windows` ten-second windows of one
/// metric, `values` distinct-bin observations per window, with the
/// client used to wait for it.
fn long_history_server(windows: u64, values: u32) -> (ServerHandle, QueryClient) {
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), server_config()).unwrap();
    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
    for w in 0..windows {
        let spread = (1..=values).map(|k| f64::from(k).powf(1.5) + w as f64 * 0.37);
        agent
            .send_encoded("api.latency", w * 10, &payload(spread))
            .unwrap();
    }
    agent.close().unwrap();
    let mut client = QueryClient::connect(server.endpoint()).unwrap();
    await_frames(&mut client, windows);
    client.sync().unwrap();
    (server, client)
}

/// Responses are not bounded by the request-line ceiling: a 400-window
/// `SERIES` line is longer than [`sketchd::MAX_LINE`], yet it crosses
/// the socket exactly as the in-process `execute` renders it, and the
/// same session then answers the next command.
#[test]
fn series_longer_than_the_request_ceiling_answers_whole() {
    let (server, mut client) = long_history_server(400, 4);
    let line = "SERIES acme api.latency 0.99";
    let mut local = Vec::new();
    server.execute(line, &mut local);
    let local = String::from_utf8(local).unwrap();
    assert!(local.len() > sketchd::MAX_LINE, "{} bytes", local.len());
    let body = local
        .strip_prefix("+OK ")
        .and_then(|rest| rest.strip_suffix('\n'))
        .unwrap();

    assert_eq!(client.command(line).unwrap(), body);
    let series = client.series("acme", "api.latency", 0.99).unwrap();
    assert_eq!(series.len(), 400);
    for (pair, (window, value)) in body.split(' ').zip(&series) {
        let (w, v) = pair.split_once('=').unwrap();
        assert_eq!(w.parse::<u64>().unwrap(), *window);
        assert_eq!(v.parse::<f64>().unwrap().to_bits(), value.to_bits());
    }
    client.ping().unwrap();
    server.shutdown().unwrap();
}

/// `DUMP` through the client's read buffer: the `+DUMP n` header and a
/// body many times the buffer's size arrive back to back, and `dump`
/// returns exactly the in-process bytes. The same session then answers
/// `COUNT`, so no byte was lost or left behind in the buffer.
#[test]
fn dump_larger_than_the_read_buffer_keeps_the_session_in_step() {
    let (server, mut client) = long_history_server(400, 300);
    let mut largest = 0;
    for shard in 0..4 {
        let mut local = Vec::new();
        server.execute(&format!("DUMP acme {shard}"), &mut local);
        let header_end = local.iter().position(|&b| b == b'\n').unwrap() + 1;
        let body = &local[header_end..];
        assert_eq!(
            std::str::from_utf8(&local[..header_end]).unwrap(),
            format!("+DUMP {}\n", body.len())
        );
        assert_eq!(client.dump("acme", shard).unwrap(), body);
        assert_eq!(client.count("acme").unwrap(), 400 * 300);
        largest = largest.max(body.len());
    }
    assert!(largest >= 64 << 10, "largest dump is {largest} bytes");
    server.shutdown().unwrap();
}

/// The weighted count plane through the wire: one agent stream mixing
/// integer `DDS2` and weighted `DDS3` frames, per-tenant totals in
/// `STATS`, `WCOUNT`/`WQUANTILE` answering over both planes, and the
/// `.ddsw` checkpoint surviving a restart.
#[test]
fn weighted_frames_flow_through_stats_queries_and_checkpoints() {
    use ddsketch::AnyWeightedDDSketch;

    const INTEGER_FRAMES: u64 = 24;
    const WEIGHTED_FRAMES: u64 = 24;

    let dir = temp_dir("weighted");
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_interval: Some(Duration::from_secs(3600)),
        ..server_config()
    };
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config.clone()).unwrap();
    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();

    // Dyadic weights (multiples of 0.25) keep every f64 partial sum
    // exact, so the assertions below can demand bit equality no matter
    // what order the server folds frames in.
    let mut reference = AnyWeightedDDSketch::new(cfg()).unwrap();
    let mut integer_count = 0u64;
    let mut weighted_total = 0.0f64;

    for i in 0..INTEGER_FRAMES {
        let values: Vec<f64> = (1..=10).map(|k| f64::from(k) * 1.5 + i as f64).collect();
        for v in &values {
            reference.add_with_count(*v, 1.0).unwrap();
        }
        integer_count += values.len() as u64;
        weighted_total += values.len() as f64;
        agent
            .send_encoded(
                &format!("m{}", i % 3),
                (i % 6) * 10,
                &payload(values.iter().copied()),
            )
            .unwrap();
    }
    for i in 0..WEIGHTED_FRAMES {
        let mut frame = AnyWeightedDDSketch::new(cfg()).unwrap();
        for k in 1..=8u32 {
            let v = f64::from(k) * 2.5 + i as f64 * 0.5;
            let w = f64::from(k % 4) * 0.25 + 0.5;
            frame.add_with_count(v, w).unwrap();
            reference.add_with_count(v, w).unwrap();
            weighted_total += w;
        }
        agent
            .send_encoded(&format!("m{}", i % 3), (i % 6) * 10, &frame.encode())
            .unwrap();
    }
    agent.close().unwrap();

    let mut client = QueryClient::connect(server.endpoint()).unwrap();
    let stats = await_frames(&mut client, INTEGER_FRAMES + WEIGHTED_FRAMES);
    client.sync().unwrap();

    // Per-tenant totals ride STATS: absorbed payload count plus the f64
    // weighted value total, round-tripping exactly through the text
    // protocol's shortest-round-trip float rendering.
    assert_eq!(stats.tenants.len(), 1);
    let tenant = &stats.tenants[0];
    assert_eq!(tenant.name, "acme");
    assert_eq!(tenant.frames_absorbed, INTEGER_FRAMES + WEIGHTED_FRAMES);
    assert_eq!(tenant.weighted_total.to_bits(), weighted_total.to_bits());

    // `DDS3` frames never touch the exact integer plane: COUNT (and the
    // windowed store behind SERIES) see only the integer frames.
    assert_eq!(client.count("acme").unwrap(), integer_count);

    // WCOUNT and WQUANTILE answer over both planes, bit-identical to a
    // from-scratch weighted union of every valid frame.
    assert_eq!(
        client.weighted_count("acme").unwrap().to_bits(),
        reference.weighted_count().to_bits()
    );
    let qs = [0.01, 0.25, 0.5, 0.9, 0.99];
    let served = client.weighted_quantiles("acme", &qs).unwrap();
    let expected = reference.quantiles(&qs).unwrap();
    for (q, (got, want)) in qs.iter().zip(served.iter().zip(expected.iter())) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "q={q}: served {got} != union {want}"
        );
    }
    drop(client);

    // Graceful shutdown takes a final checkpoint: `.ddsw` snapshots sit
    // alongside the `.ddts` stores for shards holding weighted state.
    server.shutdown().unwrap();
    let ddsw_files = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".ddsw"))
        })
        .count();
    assert!(ddsw_files >= 1, "no weighted checkpoint written");

    // A fresh server boots from both planes' checkpoints and answers
    // identically; the per-tenant totals are process-lifetime counters
    // and start over.
    let server2 = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap();
    let mut client = QueryClient::connect(server2.endpoint()).unwrap();
    assert_eq!(client.count("acme").unwrap(), integer_count);
    assert_eq!(
        client.weighted_count("acme").unwrap().to_bits(),
        reference.weighted_count().to_bits()
    );
    let restored = client.weighted_quantiles("acme", &qs).unwrap();
    for (got, want) in restored.iter().zip(expected.iter()) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
    let stats2 = client.stats().unwrap();
    assert_eq!(stats2.tenants.len(), 1);
    assert_eq!(stats2.tenants[0].frames_absorbed, 0);
    assert_eq!(stats2.tenants[0].weighted_total, 0.0);
    server2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// TTL retention: a periodic sweep evicts windowed-store cells that
/// fell out of the trailing retention width, counts them in STATS, and
/// invalidates cached SERIES answers over the evicted data. The
/// resident aggregator (COUNT/QUANTILE) is a lifetime union and is
/// untouched.
#[test]
fn ttl_retention_evicts_stale_windows() {
    let config = ServerConfig {
        retention: Some(Duration::from_secs(30)),
        ..server_config()
    };
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap();
    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
    // One frame per 10 s window at 0, 10, …, 90: ten cells on one
    // metric (= one shard).
    let mut total = 0u64;
    for w in 0..10u64 {
        let values: Vec<f64> = (1..=12).map(|k| f64::from(k) * 0.5 + w as f64).collect();
        total += values.len() as u64;
        agent
            .send_encoded("api.latency", w * 10, &payload(values))
            .unwrap();
    }
    agent.close().unwrap();

    let mut client = QueryClient::connect(server.endpoint()).unwrap();
    await_frames(&mut client, 10);
    client.sync().unwrap();

    // The sweep interval is clamped to ≤ 500 ms; wait for it to land.
    // With the newest window at [90, 100), the trailing 30 s keeps
    // windows 70/80/90 and evicts the seven older cells — sweeps that
    // ran mid-ingest only evicted cells the final state drops anyway,
    // so the counter converges to exactly 7.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().unwrap();
        if stats.evicted_cells >= 7 {
            assert_eq!(stats.evicted_cells, 7, "over-evicted");
            break;
        }
        assert!(Instant::now() < deadline, "retention sweep never evicted");
        std::thread::sleep(Duration::from_millis(10));
    }

    let series = client.series("acme", "api.latency", 0.5).unwrap();
    let windows: Vec<u64> = series.iter().map(|&(w, _)| w).collect();
    assert_eq!(windows, vec![70, 80, 90], "series kept the trailing width");
    assert_eq!(client.count("acme").unwrap(), total);
    server.shutdown().unwrap();
}

/// Retention evicts windowed-store cells only; COUNT and QUANTILE stay
/// all-time. A graceful restart must serve the same answers byte for
/// byte, so the shard's integer resident is checkpointed beside the
/// store: rebuilt from the cells that survived eviction, it would serve
/// COUNT 36 instead of 120.
#[test]
fn retention_answers_survive_a_restart() {
    let dir = temp_dir("retention-restart");
    let config = ServerConfig {
        retention: Some(Duration::from_secs(30)),
        checkpoint_dir: Some(dir.clone()),
        ..server_config()
    };
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config.clone()).unwrap();
    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
    // 120 values over ten 10 s windows of one metric (= one shard).
    for w in 0..10u64 {
        let values: Vec<f64> = (1..=12).map(|k| f64::from(k) * 0.5 + w as f64).collect();
        agent
            .send_encoded("api.latency", w * 10, &payload(values))
            .unwrap();
    }
    agent.close().unwrap();
    let mut client = QueryClient::connect(server.endpoint()).unwrap();
    await_frames(&mut client, 10);
    client.sync().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.stats().unwrap().evicted_cells < 7 {
        assert!(Instant::now() < deadline, "retention sweep never evicted");
        std::thread::sleep(Duration::from_millis(10));
    }

    let answers = |server: &ServerHandle| {
        let mut out = Vec::new();
        for line in ["COUNT acme", "QUANTILE acme 0.1 0.5 0.99"] {
            server.execute(line, &mut out);
        }
        out
    };
    let before = answers(&server);
    assert!(before.starts_with(b"+OK 120\n"), "{before:?}");
    server.shutdown().unwrap();

    let restarted = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap();
    assert_eq!(
        String::from_utf8(answers(&restarted)).unwrap(),
        String::from_utf8(before).unwrap()
    );
    restarted.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wire-level read-plane coherence: a server on the epoch-cached read
/// plane answers the whole cacheable query family
/// byte-identically to a locked-fold server fed the same frames, repeat
/// queries serve from the answer cache (byte-identical again, and
/// counted), and the snapshot counters ride STATS.
#[test]
fn epoch_cached_answers_match_locked_fold_over_the_wire() {
    use ddsketch::AnyWeightedDDSketch;

    let spawn = |read_plane| {
        let config = ServerConfig {
            read_plane,
            ..server_config()
        };
        ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap()
    };
    let cached = spawn(ReadPlane::EpochCached);
    let locked = spawn(ReadPlane::LockedFold);

    // Identical mixed-plane streams into both servers (dyadic
    // weights keep every f64 partial sum exact).
    for server in [&cached, &locked] {
        let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
        for i in 0..32u64 {
            let bytes = payload((1..=12).map(|k| f64::from(k) * 0.75 + i as f64 * 0.3));
            agent
                .send_encoded(&format!("m{}", i % 4), (i % 5) * 10, &bytes)
                .unwrap();
            let mut frame = AnyWeightedDDSketch::new(cfg()).unwrap();
            for k in 1..=6u32 {
                let v = f64::from(k) * 1.25 + i as f64 * 0.5;
                let w = f64::from(k % 3) * 0.25 + 0.25;
                frame.add_with_count(v, w).unwrap();
            }
            agent
                .send_encoded(&format!("m{}", i % 4), (i % 5) * 10, &frame.encode())
                .unwrap();
        }
        agent.close().unwrap();
        let mut client = QueryClient::connect(server.endpoint()).unwrap();
        await_frames(&mut client, 64);
        client.sync().unwrap();
    }

    let mut on_cached = QueryClient::connect(cached.endpoint()).unwrap();
    let mut on_locked = QueryClient::connect(locked.endpoint()).unwrap();
    let lines = [
        "COUNT acme",
        "WCOUNT acme",
        "QUANTILE acme 0.01 0.5 0.9 0.99",
        "WQUANTILE acme 0.25 0.5 0.99",
        "SERIES acme m1 0.9",
    ];
    for line in lines {
        let first = on_cached.command(line).unwrap();
        let reference = on_locked.command(line).unwrap();
        assert_eq!(first, reference, "{line}");
        // The repeat is an answer-cache hit: byte-identical.
        let again = on_cached.command(line).unwrap();
        assert_eq!(again, first, "cached repeat of {line}");
    }
    let stats = on_cached.stats().unwrap();
    assert!(
        stats.query_cache_hits >= lines.len() as u64,
        "repeats should hit the cache ({} hits)",
        stats.query_cache_hits
    );
    assert!(stats.snapshot_rebuilds >= 1, "snapshots were never built");
    cached.shutdown().unwrap();
    locked.shutdown().unwrap();
}

/// Protocol violations answer `-ERR` and leave the session usable;
/// corrupt framing drops only the offending ingest connection.
#[test]
fn protocol_errors_are_contained() {
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), server_config()).unwrap();
    let endpoint = server.endpoint().clone();

    let mut client = QueryClient::connect(&endpoint).unwrap();
    for bad in [
        "BOGUS",
        "QUANTILE",
        "QUANTILE nosuch 0.5",
        "COUNT bad/name",
        "SERIES acme",
        "DUMP acme notanumber",
        "PING extra args",
        "WCOUNT",
        "WQUANTILE acme",
    ] {
        let err = client.command(bad).unwrap_err();
        assert!(
            matches!(err, sketchd::ServerError::Protocol(_)),
            "{bad}: {err}"
        );
        // The session survives every -ERR.
        client.ping().unwrap();
    }

    // An ingest stream with corrupt *framing* (a hostile declared
    // length) is dropped without poisoning anything.
    {
        use std::io::Write;
        let sketchd::Endpoint::Tcp(addr) = endpoint else {
            unreachable!()
        };
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"INGEST acme\nDDSF\x01").unwrap();
        raw.write_all(&[0xff; 10]).unwrap(); // varint length ~2^70
        drop(raw);
    }
    // The server keeps serving.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.ping().unwrap();
        if client.stats().unwrap().ingest_disconnects >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "disconnect never counted");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
    agent.send_encoded("m", 0, &payload([1.0, 2.0])).unwrap();
    agent.close().unwrap();
    await_frames(&mut client, 2); // the hostile frame counted one reject
    client.sync().unwrap();
    assert_eq!(client.count("acme").unwrap(), 2);
    server.shutdown().unwrap();
}

/// A `DDS3` payload with one bin whose weight is `weight`, written
/// through the raw-`f64` escape. Used to forge weights no encoder emits.
fn weighted_with_escape(weight: f64) -> Vec<u8> {
    use ddsketch::AnyWeightedDDSketch;
    let mut sketch = AnyWeightedDDSketch::new(cfg()).unwrap();
    sketch.add_with_count(10.0, 0.25).unwrap();
    let mut bytes = sketch.encode();
    // The escape tag `1` followed by the weight's little-endian bits.
    let mut escape = vec![1u8];
    escape.extend_from_slice(&0.25f64.to_le_bytes());
    let at = bytes
        .windows(escape.len())
        .rposition(|w| w == escape.as_slice())
        .expect("non-integral weight is escaped");
    bytes[at + 1..at + 9].copy_from_slice(&weight.to_le_bytes());
    bytes
}

/// Payload admission runs on the shard workers. Frames with a valid
/// envelope but a corrupt, hostile, or differently configured payload
/// are interleaved with good frames on one connection: each is rejected
/// and counted, the connection stays open, and the served answers are
/// byte-identical to a server that only ever saw the good frames.
#[test]
fn worker_rejects_bad_payloads_and_the_stream_goes_on() {
    use ddsketch::{AnyWeightedDDSketch, SketchPayload, WeightedSketchPayload};

    let good_integer = payload((1..=40).map(|k| f64::from(k) * 0.75));
    // A bit flip inside the bin sections that the decoder must catch:
    // the first, scanning from the middle of the payload, that fails.
    let bit_flipped = (good_integer.len() / 2..good_integer.len())
        .flat_map(|pos| (0..8).map(move |bit| (pos, bit)))
        .map(|(pos, bit)| {
            let mut bytes = good_integer.clone();
            bytes[pos] ^= 1 << bit;
            bytes
        })
        .find(|bytes| SketchPayload::decode(bytes).is_err())
        .expect("some bit flip is detectable");
    let truncated = good_integer[..good_integer.len() - 3].to_vec();
    let nan_weight = weighted_with_escape(f64::NAN);
    let negative_weight = weighted_with_escape(-0.25);
    let mut other_alpha = SketchConfig::dense_collapsing(0.02, 2048).build().unwrap();
    other_alpha.add(3.0).unwrap();
    let other_alpha = other_alpha.encode();
    // Each bad payload fails exactly the check it is meant to exercise.
    assert!(SketchPayload::decode(&truncated).is_err());
    assert!(WeightedSketchPayload::decode(&nan_weight).is_err());
    assert!(WeightedSketchPayload::decode(&negative_weight).is_err());
    assert!(!SketchPayload::decode(&other_alpha)
        .unwrap()
        .matches_config(&cfg()));
    let bad = [
        bit_flipped,
        truncated,
        nan_weight,
        negative_weight,
        other_alpha,
    ];

    // The schedule: per round one good integer frame, one bad frame and
    // (every other round) one good `DDS3` frame. Dyadic weights keep the
    // f64 totals exact in any fold order.
    const ROUNDS: usize = 20;
    let mut frames: Vec<(String, u64, Vec<u8>, bool)> = Vec::new();
    for i in 0..ROUNDS {
        let metric = format!("m{}", i % 5);
        let ts = (i as u64 % 4) * 10;
        let values = (1..=24).map(|k| f64::from(k) * 1.25 + i as f64);
        frames.push((metric.clone(), ts, payload(values), true));
        frames.push((metric.clone(), ts, bad[i % bad.len()].clone(), false));
        if i % 2 == 0 {
            let mut weighted = AnyWeightedDDSketch::new(cfg()).unwrap();
            for k in 1..=6u32 {
                let w = f64::from(k % 4) * 0.25 + 0.5;
                weighted
                    .add_with_count(f64::from(k) * 2.5 + i as f64, w)
                    .unwrap();
            }
            frames.push((metric, ts, weighted.encode(), true));
        }
    }
    let good = frames.iter().filter(|f| f.3).count() as u64;
    let rejected = frames.len() as u64 - good;

    let spawn = || ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), server_config()).unwrap();
    let (mixed, clean) = (spawn(), spawn());
    let mut mixed_agent = AgentSender::connect(mixed.endpoint().clone(), "acme").unwrap();
    let mut clean_agent = AgentSender::connect(clean.endpoint().clone(), "acme").unwrap();
    for (metric, ts, bytes, is_good) in &frames {
        mixed_agent.send_encoded(metric, *ts, bytes).unwrap();
        if *is_good {
            clean_agent.send_encoded(metric, *ts, bytes).unwrap();
        }
    }

    let mut mixed_client = QueryClient::connect(mixed.endpoint()).unwrap();
    await_frames(&mut mixed_client, frames.len() as u64);
    mixed_client.sync().unwrap();
    let stats = mixed_client.stats().unwrap();
    assert_eq!(stats.frames_rejected, rejected);
    assert_eq!(stats.frames_ingested, good);
    assert_eq!(stats.ingest_disconnects, 0);
    assert_eq!(stats.open_connections, 2, "the ingest stream is still open");

    // The same connection keeps ingesting after the rejects.
    let last = payload([0.5, 99.0]);
    mixed_agent.send_encoded("m0", 0, &last).unwrap();
    clean_agent.send_encoded("m0", 0, &last).unwrap();
    assert_eq!(mixed_agent.reconnects(), 0);
    mixed_agent.close().unwrap();
    clean_agent.close().unwrap();
    let stats = await_frames(&mut mixed_client, frames.len() as u64 + 1);
    assert_eq!(stats.frames_rejected, rejected);
    assert_eq!(stats.ingest_disconnects, 0);
    mixed_client.sync().unwrap();
    let mut clean_client = QueryClient::connect(clean.endpoint()).unwrap();
    await_frames(&mut clean_client, good + 1);
    clean_client.sync().unwrap();

    for line in [
        "COUNT acme",
        "WCOUNT acme",
        "QUANTILE acme 0 0.01 0.25 0.5 0.75 0.9 0.99 1",
        "WQUANTILE acme 0 0.01 0.25 0.5 0.75 0.9 0.99 1",
        "SERIES acme m0 0.5",
    ] {
        assert_eq!(
            mixed_client.command(line).unwrap(),
            clean_client.command(line).unwrap(),
            "{line}"
        );
    }
    mixed.shutdown().unwrap();
    clean.shutdown().unwrap();
}

/// Graceful shutdown drains every staged frame, takes a final
/// checkpoint, and a new server boots from it with identical state.
#[test]
fn graceful_shutdown_checkpoints_and_restores() {
    let dir = temp_dir("graceful");
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_interval: Some(Duration::from_secs(3600)),
        ..server_config()
    };
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config.clone()).unwrap();
    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
    let mut reference = cfg().build().unwrap();
    for i in 0..80u64 {
        let bytes = payload((1..=15).map(|k| f64::from(k) + i as f64 * 0.1));
        reference
            .merge_from(&AnyDDSketch::decode(&bytes).unwrap())
            .unwrap();
        agent
            .send_encoded(&format!("m{}", i % 3), (i % 9) * 10, &bytes)
            .unwrap();
    }
    agent.close().unwrap();
    // Wait for the frames to be read off the socket (no SYNC: shutdown
    // itself must wait for whatever is still staged).
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().frames_ingested < 80 {
        assert!(Instant::now() < deadline, "frames never absorbed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let final_stats = server.shutdown().unwrap();
    assert_eq!(final_stats.frames_ingested, 80);
    assert!(
        final_stats.checkpoints_completed >= 1,
        "final checkpoint ran"
    );

    // Boot a fresh server from the checkpoints: identical answers.
    let server2 = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap();
    let mut client = QueryClient::connect(server2.endpoint()).unwrap();
    assert_eq!(client.count("acme").unwrap(), reference.count());
    let qs = [0.25, 0.5, 0.75, 0.99];
    assert_eq!(
        client.quantiles("acme", &qs).unwrap(),
        reference.quantiles(&qs).unwrap()
    );
    assert_eq!(
        client.metrics("acme").unwrap(),
        vec!["m0".to_string(), "m1".into(), "m2".into()]
    );
    server2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
