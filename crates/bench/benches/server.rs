//! Soak harness for `sketchd`: a fleet of agents drives ≥ 1M sketch
//! payloads over TCP loopback while a concurrent query client samples
//! fleet quantiles, with ~1% corrupt frames and periodic mid-stream
//! disconnects injected throughout.
//!
//! The run records ingest throughput (payloads/s, values/s) and query
//! latency (p50 / p99) and — the acceptance bar — verifies at the end
//! that **zero payloads were lost or duplicated**: the served quantiles
//! must be bit-identical to a from-scratch union sketch over every
//! valid payload sent, and the total count must match exactly.
//!
//! Like the codec bench, this hand-rolls its harness so it can emit
//! machine-readable results to `results/BENCH_server.json`. Modes:
//!
//! * default        — full soak, 1,048,576 payloads
//! * `--frames N`   — override the payload budget (CI short-soak)
//! * `--test`       — smoke: 20k payloads, full verification, no JSON
//! * `--evloop`     — connection scaling: 8 → 512 concurrent agents
//!   into the reactor, each cell verified for zero loss and
//!   bit-identical quantiles, emitted to
//!   `results/BENCH_server_evloop.json`. With `--test`: a small CI
//!   scale (8 and 512 agents, short budget) that still writes the
//!   JSON artifact.
//! * `--query`      — query under sustained ingest, one cell per read
//!   plane (`LockedFold`, `EpochCached`). Each cell
//!   drives 4 ingest agents flat-out over TCP while an in-process
//!   sampler measures fleet-p99 query *service time* at ~1 kHz (the
//!   PR 7 soak cadence); after the drain, every query family's answer
//!   is verified against the from-scratch union and against the
//!   locked-fold cell's byte-for-byte — a cached read at the final
//!   epoch must be bit-identical to a fresh under-lock fold of the same
//!   data. Emits `results/BENCH_server_query.json`.
//! * `--query-smoke` — the same two cells at a CI-sized budget; still
//!   writes the JSON artifact, skips the ≥5× p99 assertion (timing on
//!   shared CI runners is too noisy to gate on).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ddsketch::{AnyDDSketch, SketchConfig};
use sketchd::{AgentSender, Bind, QueryClient, ReadPlane, ServerConfig, ServerHandle};

const AGENTS: usize = 8;
const POOL: usize = 64;
const VALUES_PER_FRAME: usize = 16;
const TENANT: &str = "soak";

fn plane_config() -> SketchConfig {
    SketchConfig::dense_collapsing(0.01, 2048)
}

/// The rotation of distinct payloads every agent ships: pool entry `j`
/// always encodes the same 16 values, so the expected union is the pool
/// union weighted by how often each entry was sent.
fn payload_pool() -> Vec<Vec<u8>> {
    (0..POOL)
        .map(|j| {
            let mut sketch = plane_config().build().unwrap();
            for k in 0..VALUES_PER_FRAME {
                let v = 0.5 + ((j * VALUES_PER_FRAME + k) * 37 % 911) as f64 * 0.5;
                sketch.add(v).unwrap();
            }
            sketch.encode()
        })
        .collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn human_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2} M/s", per_sec / 1e6)
    } else {
        format!("{:.1} k/s", per_sec / 1e3)
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    frames: u64,
    corrupt: u64,
    elapsed: Duration,
    payloads_per_sec: f64,
    values_per_sec: f64,
    queries: u64,
    p50_query_ns: u64,
    p99_query_ns: u64,
) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_server.json"
    );
    let out = format!(
        "{{\n  \"bench\": \"server\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n    \
         {{\"id\": \"soak/ingest-payload\", \"ns_per_iter\": {:.1}, \
         \"frames\": {frames}, \"corrupt_frames\": {corrupt}, \
         \"payloads_per_sec\": {payloads_per_sec:.0}, \
         \"values_per_sec\": {values_per_sec:.0}}},\n    \
         {{\"id\": \"soak/query-quantile-p50\", \"ns_per_iter\": {p50_query_ns}, \
         \"queries\": {queries}}},\n    \
         {{\"id\": \"soak/query-quantile-p99\", \"ns_per_iter\": {p99_query_ns}, \
         \"queries\": {queries}}}\n  ]\n}}\n",
        elapsed.as_nanos() as f64 / frames.max(1) as f64,
    );
    match std::fs::write(path, out) {
        Ok(()) => println!("\nmachine-readable results -> results/BENCH_server.json"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// One connection-scaling cell: `agents` concurrent senders, verified
/// for zero loss and bit-identical quantiles.
struct CellResult {
    agents: usize,
    frames: u64,
    ns_per_payload: f64,
    payloads_per_sec: f64,
}

fn run_cell(agents: usize, frame_budget: u64, pool: &Arc<Vec<Vec<u8>>>) -> CellResult {
    let per_agent = (frame_budget / agents as u64).max(1);
    let total_frames = per_agent * agents as u64;
    let server = ServerHandle::spawn(
        &Bind::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            sketch: plane_config(),
            shards_per_tenant: 4,
            staging_bound: 256,
            fold_threshold: 32,
            window_secs: 10,
            max_connections: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let endpoint = server.endpoint().clone();

    let start = Instant::now();
    let handles: Vec<_> = (0..agents)
        .map(|a| {
            let endpoint = endpoint.clone();
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut agent = AgentSender::connect(endpoint, TENANT).expect("agent connects");
                let mut sent = vec![0u64; POOL];
                for i in 0..per_agent {
                    let entry = ((a as u64 + i) % POOL as u64) as usize;
                    let metric = format!("m{}", i % 16);
                    agent
                        .send_encoded(&metric, (i % 360) * 10, &pool[entry])
                        .expect("send");
                    sent[entry] += 1;
                }
                agent.close().expect("clean close");
                sent
            })
        })
        .collect();
    let mut multiplicity = vec![0u64; POOL];
    for handle in handles {
        for (slot, n) in multiplicity.iter_mut().zip(handle.join().unwrap()) {
            *slot += n;
        }
    }

    // Stop the clock only once the server accounts for every frame.
    let mut client = QueryClient::connect(&endpoint).unwrap();
    let deadline = Instant::now() + Duration::from_secs(600);
    let mut last_report = Instant::now();
    loop {
        let stats = client.stats().unwrap();
        if stats.frames_ingested + stats.frames_rejected >= total_frames {
            break;
        }
        if last_report.elapsed() > Duration::from_secs(5) {
            last_report = Instant::now();
            eprintln!(
                "  [{agents} agents] {}/{total_frames} frames, open={} total={} susp={} \
                 depth={:?} rej={} disc={}",
                stats.frames_ingested + stats.frames_rejected,
                stats.open_connections,
                stats.connections_total,
                stats.ingest_suspensions,
                stats.staging_depth,
                stats.frames_rejected,
                stats.ingest_disconnects,
            );
        }
        assert!(
            Instant::now() < deadline,
            "cell of {agents} agents stalled at {}/{total_frames} frames",
            stats.frames_ingested + stats.frames_rejected,
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    if std::env::var_os("EVLOOP_DEBUG").is_some() {
        let stats = client.stats().unwrap();
        eprintln!(
            "  [{agents} agents] susp={} wakeups={} events={} bp_waits={}",
            stats.ingest_suspensions,
            stats.reactor_wakeups,
            stats.reactor_events,
            stats.backpressure_waits,
        );
    }
    client.sync().unwrap();
    let elapsed = start.elapsed();

    // Zero loss, zero duplication, bit-identical quantiles.
    assert_eq!(
        client.count(TENANT).unwrap(),
        total_frames * VALUES_PER_FRAME as u64,
        "{agents} agents: lost or duplicated values"
    );
    let decoded: Vec<AnyDDSketch> = pool
        .iter()
        .map(|b| AnyDDSketch::decode(b).unwrap())
        .collect();
    let mut reference = plane_config().build().unwrap();
    for (entry, &times) in multiplicity.iter().enumerate() {
        for _ in 0..times {
            reference.merge_from(&decoded[entry]).unwrap();
        }
    }
    let qs = [0.01, 0.5, 0.99, 0.999];
    let served = client.quantiles(TENANT, &qs).unwrap();
    let expected = reference.quantiles(&qs).unwrap();
    for (q, (got, want)) in qs.iter().zip(served.iter().zip(expected.iter())) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{agents} agents q={q}: served {got} != union {want}"
        );
    }
    server.shutdown().unwrap();

    let payloads_per_sec = total_frames as f64 / elapsed.as_secs_f64();
    println!(
        "  {agents:>3} agents: {total_frames} payloads in {:>6.2}s -> {:>10} (verified bit-identical)",
        elapsed.as_secs_f64(),
        human_rate(payloads_per_sec),
    );
    CellResult {
        agents,
        frames: total_frames,
        ns_per_payload: elapsed.as_nanos() as f64 / total_frames as f64,
        payloads_per_sec,
    }
}

fn run_evloop(test_mode: bool, frames_override: Option<u64>) {
    let agents_axis: &[usize] = if test_mode {
        &[8, 512]
    } else {
        &[8, 64, 256, 512]
    };
    let frame_budget = frames_override.unwrap_or(if test_mode { 1 << 14 } else { 1 << 17 });
    let pool = Arc::new(payload_pool());
    println!(
        "sketchd connection scaling: {agents_axis:?} agents, {frame_budget} payloads per cell\n"
    );
    let cells: Vec<CellResult> = agents_axis
        .iter()
        .map(|&agents| run_cell(agents, frame_budget, &pool))
        .collect();

    let mut rows = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { ",\n    " } else { "" };
        rows.push_str(&format!(
            "{{\"id\": \"evloop/agents-{}\", \"ns_per_iter\": {:.1}, \
             \"agents\": {}, \"frames\": {}, \
             \"payloads_per_sec\": {:.0}}}{sep}",
            cell.agents, cell.ns_per_payload, cell.agents, cell.frames, cell.payloads_per_sec,
        ));
    }
    let out = format!(
        "{{\n  \"bench\": \"server_evloop\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n    {rows}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_server_evloop.json"
    );
    match std::fs::write(path, out) {
        Ok(()) => println!("\nmachine-readable results -> results/BENCH_server_evloop.json"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Values per frame in the query-matrix pool: denser payloads than the
/// soak's 16 so each pending payload carries a realistic bucket count —
/// the locked baseline pays that merge cost on the query path, the
/// cached plane in the workers' snapshot refreshes.
const QUERY_VALUES_PER_FRAME: usize = 128;

/// Like `payload_pool`, but `QUERY_VALUES_PER_FRAME` values per entry.
fn query_payload_pool() -> Vec<Vec<u8>> {
    (0..POOL)
        .map(|j| {
            let mut sketch = plane_config().build().unwrap();
            for k in 0..QUERY_VALUES_PER_FRAME {
                let v = 0.5 + ((j * QUERY_VALUES_PER_FRAME + k) * 37 % 911) as f64 * 0.5;
                sketch.add(v).unwrap();
            }
            sketch.encode()
        })
        .collect()
}

/// The raw query lines replayed against each cell after the drain —
/// one per cacheable family, answers compared byte-for-byte across
/// read planes.
const VERIFY_LINES: [&str; 5] = [
    "QUANTILE soak 0.25 0.5 0.9 0.99 0.999",
    "WQUANTILE soak 0.5 0.99",
    "COUNT soak",
    "WCOUNT soak",
    "SERIES soak m0 0.5",
];

/// One query-matrix cell: sustained ingest with a concurrent query
/// sampler under one read plane.
struct QueryCell {
    read_plane: &'static str,
    frames: u64,
    payloads_per_sec: f64,
    queries: u64,
    p50_ns: u64,
    p99_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    snapshot_rebuilds: u64,
    /// Post-drain responses to `VERIFY_LINES`, each issued twice (the
    /// repeat exercises the answer cache on the cached plane).
    transcript: Vec<String>,
}

fn run_query_cell(
    read_plane: ReadPlane,
    rp_label: &'static str,
    frame_budget: u64,
    pool: &Arc<Vec<Vec<u8>>>,
) -> QueryCell {
    const QUERY_AGENTS: usize = 4;
    let per_agent = (frame_budget / QUERY_AGENTS as u64).max(1);
    let total_frames = per_agent * QUERY_AGENTS as u64;
    let server = Arc::new(
        ServerHandle::spawn(
            &Bind::Tcp("127.0.0.1:0".into()),
            ServerConfig {
                sketch: plane_config(),
                shards_per_tenant: 4,
                staging_bound: 256,
                // Throughput-oriented fold batching: workers amortize
                // folds over large pending runs. This is the regime the
                // read plane exists for — under the locked baseline
                // every QUANTILE drains each shard's pending backlog
                // under its lock, while the cached plane leaves folding
                // to the workers' snapshot refreshes.
                fold_threshold: 4096,
                window_secs: 10,
                read_plane,
                ..ServerConfig::default()
            },
        )
        .unwrap(),
    );
    let endpoint = server.endpoint().clone();

    // Query sampler: fleet-p99 service time at ~1 kHz throughout the
    // ingest phase. Sampled in-process (`ServerHandle::execute`) so the
    // clock covers exactly what the read plane controls — parse, lock
    // waits, folds, rank walk — and not loopback round-trips, which on
    // a loaded box are scheduler noise an order of magnitude above the
    // locked fold itself.
    let stop = Arc::new(AtomicBool::new(false));
    let query_thread = {
        let server = server.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut latencies_ns: Vec<u64> = Vec::new();
            let mut out = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                out.clear();
                let start = Instant::now();
                assert!(server.execute("QUANTILE soak 0.99", &mut out));
                latencies_ns.push(start.elapsed().as_nanos() as u64);
                std::thread::sleep(Duration::from_millis(1));
            }
            latencies_ns
        })
    };

    // Deterministic ingest (no corruption, no disconnects): both read
    // planes see the exact same multiset of frames, so their post-drain
    // answers must agree bit-for-bit.
    let start = Instant::now();
    let handles: Vec<_> = (0..QUERY_AGENTS)
        .map(|a| {
            let endpoint = endpoint.clone();
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut agent = AgentSender::connect(endpoint, TENANT).expect("agent connects");
                let mut sent = vec![0u64; POOL];
                for i in 0..per_agent {
                    let entry = ((a as u64 + i) % POOL as u64) as usize;
                    let metric = format!("m{}", i % 16);
                    agent
                        .send_encoded(&metric, (i % 360) * 10, &pool[entry])
                        .expect("send");
                    sent[entry] += 1;
                }
                agent.close().expect("clean close");
                sent
            })
        })
        .collect();
    let mut multiplicity = vec![0u64; POOL];
    for handle in handles {
        for (slot, n) in multiplicity.iter_mut().zip(handle.join().unwrap()) {
            *slot += n;
        }
    }

    let mut client = QueryClient::connect(&endpoint).unwrap();
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let stats = client.stats().unwrap();
        if stats.frames_ingested >= total_frames {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "query cell {rp_label} stalled at {}/{total_frames} frames",
            stats.frames_ingested,
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    client.sync().unwrap();
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    let mut latencies_ns = query_thread.join().unwrap();
    latencies_ns.sort_unstable();

    // In-cell verification: count exact, quantiles bit-identical to the
    // from-scratch union over everything sent.
    assert_eq!(
        client.count(TENANT).unwrap(),
        total_frames * QUERY_VALUES_PER_FRAME as u64,
        "{rp_label}: lost or duplicated values"
    );
    let decoded: Vec<AnyDDSketch> = pool
        .iter()
        .map(|b| AnyDDSketch::decode(b).unwrap())
        .collect();
    let mut reference = plane_config().build().unwrap();
    for (entry, &times) in multiplicity.iter().enumerate() {
        for _ in 0..times {
            reference.merge_from(&decoded[entry]).unwrap();
        }
    }
    let qs = [0.01, 0.5, 0.99, 0.999];
    let served = client.quantiles(TENANT, &qs).unwrap();
    let expected = reference.quantiles(&qs).unwrap();
    for (q, (got, want)) in qs.iter().zip(served.iter().zip(expected.iter())) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{rp_label} q={q}: served {got} != union {want}"
        );
    }

    // Cross-plane transcript: every query family, twice (the repeat
    // must come from the answer cache on the cached plane and still be
    // byte-identical).
    let mut transcript = Vec::new();
    for _ in 0..2 {
        for line in VERIFY_LINES {
            transcript.push(client.command(line).expect("verify query"));
        }
    }
    let stats = client.stats().unwrap();
    server.shutdown().unwrap();

    let payloads_per_sec = total_frames as f64 / elapsed.as_secs_f64();
    let p50_ns = percentile(&latencies_ns, 0.50);
    let p99_ns = percentile(&latencies_ns, 0.99);
    println!(
        "  {rp_label:<12} ingest {:>10}, {:>5} queries: p50 {:>8.1} µs, p99 {:>9.1} µs",
        human_rate(payloads_per_sec),
        latencies_ns.len(),
        p50_ns as f64 / 1e3,
        p99_ns as f64 / 1e3,
    );
    QueryCell {
        read_plane: rp_label,
        frames: total_frames,
        payloads_per_sec,
        queries: latencies_ns.len() as u64,
        p50_ns,
        p99_ns,
        cache_hits: stats.query_cache_hits,
        cache_misses: stats.query_cache_misses,
        snapshot_rebuilds: stats.snapshot_rebuilds,
        transcript,
    }
}

fn run_query_matrix(test_mode: bool, frames_override: Option<u64>) {
    let frame_budget = frames_override.unwrap_or(if test_mode { 1 << 14 } else { 1 << 18 });
    let pool = Arc::new(query_payload_pool());
    println!(
        "sketchd query-under-ingest: {{LockedFold, EpochCached}}, \
         {frame_budget} payloads per cell, fleet-p99 sampler at ~1 kHz\n"
    );
    let locked = run_query_cell(ReadPlane::LockedFold, "locked-fold", frame_budget, &pool);
    let cached = run_query_cell(ReadPlane::EpochCached, "epoch-cached", frame_budget, &pool);
    // Both cells absorbed the same multiset of frames, so a cached
    // read at the final epoch and a fresh under-lock fold of the same
    // data must render byte-identical answers, family by family —
    // including the answer-cache repeat.
    assert_eq!(
        locked.transcript, cached.transcript,
        "epoch-cached answers diverged from the locked fold"
    );
    let speedup = locked.p99_ns as f64 / cached.p99_ns.max(1) as f64;
    println!(
        "  p99 speedup: {:.1} µs -> {:.1} µs = {speedup:.1}x (answers verified byte-identical)\n",
        locked.p99_ns as f64 / 1e3,
        cached.p99_ns as f64 / 1e3,
    );
    if !test_mode {
        assert!(
            speedup >= 5.0,
            "epoch-cached p99 speedup {speedup:.1}x below the 5x bar"
        );
    }

    let mut rows = String::new();
    for cell in [&locked, &cached] {
        rows.push_str(&format!(
            "{{\"id\": \"query/{}\", \"ns_per_iter\": {}, \
             \"read_plane\": \"{}\", \"frames\": {}, \
             \"payloads_per_sec\": {:.0}, \"queries\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \
             \"query_cache_hits\": {}, \"query_cache_misses\": {}, \
             \"snapshot_rebuilds\": {}}},\n    ",
            cell.read_plane,
            cell.p99_ns,
            cell.read_plane,
            cell.frames,
            cell.payloads_per_sec,
            cell.queries,
            cell.p50_ns,
            cell.p99_ns,
            cell.cache_hits,
            cell.cache_misses,
            cell.snapshot_rebuilds,
        ));
    }
    rows.push_str(&format!(
        "{{\"id\": \"query/p99-speedup\", \"ns_per_iter\": {speedup:.2}, \
         \"verified\": \"bit-identical\"}}"
    ));
    let out = format!(
        "{{\n  \"bench\": \"server_query\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n    {rows}\n  ]\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_server_query.json"
    );
    match std::fs::write(path, out) {
        Ok(()) => println!("machine-readable results -> results/BENCH_server_query.json"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut test_mode = false;
    let mut evloop = false;
    let mut query = false;
    let mut frames_override: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--test" => test_mode = true,
            "--evloop" => evloop = true,
            "--query" => query = true,
            "--query-smoke" => {
                query = true;
                test_mode = true;
            }
            "--frames" => {
                frames_override = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--frames takes a payload count"),
                );
            }
            _ => {}
        }
    }
    if query {
        run_query_matrix(test_mode, frames_override);
        return;
    }
    if evloop {
        run_evloop(test_mode, frames_override);
        return;
    }
    let total_frames: u64 = frames_override.unwrap_or(if test_mode { 20_000 } else { 1 << 20 });
    let per_agent = total_frames / AGENTS as u64;
    let total_frames = per_agent * AGENTS as u64;

    let server = ServerHandle::spawn(
        &Bind::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            sketch: plane_config(),
            shards_per_tenant: 4,
            staging_bound: 256,
            fold_threshold: 32,
            window_secs: 10,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let endpoint = server.endpoint().clone();
    println!(
        "sketchd soak: {total_frames} payloads x {VALUES_PER_FRAME} values, \
         {AGENTS} agents -> {endpoint}, ~1% corrupt frames, periodic disconnects\n"
    );

    // Concurrent query client: samples the fleet p99 throughout the
    // soak and records per-query latency.
    let stop = Arc::new(AtomicBool::new(false));
    let query_thread = {
        let endpoint = endpoint.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = QueryClient::connect(&endpoint).unwrap();
            let mut latencies_ns: Vec<u64> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let start = Instant::now();
                match client.quantile(TENANT, 0.99) {
                    Ok(_) | Err(sketchd::ServerError::Protocol(_)) => {
                        latencies_ns.push(start.elapsed().as_nanos() as u64);
                    }
                    Err(e) => panic!("query plane failed mid-soak: {e}"),
                }
                // ~1k queries/s so the soak measures steady-state mixed
                // load, not a query-side DoS.
                std::thread::sleep(Duration::from_millis(1));
            }
            latencies_ns
        })
    };

    let pool = Arc::new(payload_pool());
    // Scale the disconnect cadence to the budget so even a short smoke
    // run exercises a few reconnects per agent.
    let disconnect_every = (per_agent / 4).clamp(1, 10_000);
    let soak_start = Instant::now();
    let agents: Vec<_> = (0..AGENTS)
        .map(|a| {
            let endpoint = endpoint.clone();
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut agent = AgentSender::connect(endpoint, TENANT).expect("agent connects");
                let mut sent = vec![0u64; POOL];
                let mut corrupt = 0u64;
                for i in 0..per_agent {
                    // ~1% corrupt payloads ride valid framing.
                    if (a as u64 + i).is_multiple_of(101) {
                        agent
                            .send_encoded("m0", 0, b"DDS2 corrupt payload bytes")
                            .expect("corrupt frame ships");
                        corrupt += 1;
                        continue;
                    }
                    // Mid-stream disconnects: reconnect + whole-frame
                    // resend must never tear or duplicate a frame.
                    if i > 0 && i % disconnect_every == 0 {
                        agent.drop_connection();
                    }
                    let entry = ((a as u64 + i) % POOL as u64) as usize;
                    let metric = format!("m{}", i % 16);
                    let ts = (i % 360) * 10;
                    agent.send_encoded(&metric, ts, &pool[entry]).expect("send");
                    sent[entry] += 1;
                }
                let reconnects = agent.reconnects();
                agent.close().expect("clean close");
                (sent, corrupt, reconnects)
            })
        })
        .collect();

    let mut multiplicity = vec![0u64; POOL];
    let mut total_corrupt = 0u64;
    let mut total_reconnects = 0u64;
    for handle in agents {
        let (sent, corrupt, reconnects) = handle.join().unwrap();
        for (slot, n) in multiplicity.iter_mut().zip(sent) {
            *slot += n;
        }
        total_corrupt += corrupt;
        total_reconnects += reconnects;
    }

    // The agents have flushed everything to the kernel; wait until the
    // server accounts for every frame, then stop the clock.
    let mut client = QueryClient::connect(&endpoint).unwrap();
    let deadline = Instant::now() + Duration::from_secs(600);
    let stats = loop {
        let stats = client.stats().unwrap();
        if stats.frames_ingested + stats.frames_rejected >= total_frames {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "soak stalled at {}/{} frames",
            stats.frames_ingested + stats.frames_rejected,
            total_frames
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    client.sync().unwrap();
    let elapsed = soak_start.elapsed();
    stop.store(true, Ordering::Relaxed);
    let mut latencies_ns = query_thread.join().unwrap();
    latencies_ns.sort_unstable();

    // ---- Verification: zero loss, zero duplication, bit-identical ----
    let valid_frames: u64 = multiplicity.iter().sum();
    assert_eq!(valid_frames + total_corrupt, total_frames);
    assert_eq!(stats.frames_rejected, total_corrupt, "rejects != injected");
    assert_eq!(stats.frames_ingested, valid_frames, "absorbed != sent");
    assert!(total_reconnects >= AGENTS as u64, "disconnects never fired");
    assert_eq!(
        client.count(TENANT).unwrap(),
        valid_frames * VALUES_PER_FRAME as u64,
        "lost or duplicated values"
    );

    // From-scratch union: each pool entry merged as often as it was
    // sent. Merging is bucket-count addition, so this is the exact
    // expected fleet state.
    let mut reference = plane_config().build().unwrap();
    let decoded: Vec<AnyDDSketch> = pool
        .iter()
        .map(|b| AnyDDSketch::decode(b).unwrap())
        .collect();
    for (entry, &times) in multiplicity.iter().enumerate() {
        for _ in 0..times {
            reference.merge_from(&decoded[entry]).unwrap();
        }
    }
    let qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
    let served = client.quantiles(TENANT, &qs).unwrap();
    let expected = reference.quantiles(&qs).unwrap();
    for (q, (got, want)) in qs.iter().zip(served.iter().zip(expected.iter())) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "q={q}: served {got} != union {want} — state diverged"
        );
    }
    server.shutdown().unwrap();

    // ---- Report ----
    let payloads_per_sec = total_frames as f64 / elapsed.as_secs_f64();
    let values_per_sec = (valid_frames * VALUES_PER_FRAME as u64) as f64 / elapsed.as_secs_f64();
    let p50 = percentile(&latencies_ns, 0.50);
    let p99 = percentile(&latencies_ns, 0.99);
    println!(
        "ingest: {total_frames} payloads ({total_corrupt} corrupt, {total_reconnects} reconnects) \
         in {:.2}s -> {} payloads, {} values",
        elapsed.as_secs_f64(),
        human_rate(payloads_per_sec),
        human_rate(values_per_sec),
    );
    println!(
        "query : {} samples, p50 {:.1} µs, p99 {:.1} µs",
        latencies_ns.len(),
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
    );
    println!("verify: quantiles bit-identical to the union, count exact — zero loss");

    if test_mode {
        println!("\nsmoke mode: skipping results/BENCH_server.json");
    } else {
        write_json(
            total_frames,
            total_corrupt,
            elapsed,
            payloads_per_sec,
            values_per_sec,
            latencies_ns.len() as u64,
            p50,
            p99,
        );
    }
}
