//! Connection-scaling bench for `sketchd`: 8 → 512 concurrent agents
//! drive sketch payloads over TCP loopback into the reactor, and each
//! cell verifies at the end that **zero payloads were lost or
//! duplicated**: the served quantiles must be bit-identical to a
//! from-scratch union sketch over every payload sent, and the total
//! count must match exactly.
//!
//! The fleet benchmark (`fleetbench/`) is the benchmark of record for
//! ingest and query throughput; it opens at most two connections, so
//! this bench is the one that scales the connection count. Like the
//! codec bench, it hand-rolls its harness so it can emit
//! machine-readable results to `results/BENCH_server_evloop.json`.
//! Modes:
//!
//! * default        — 8, 64, 256 and 512 agents, 131,072 payloads per
//!   cell
//! * `--frames N`   — override the payload budget per cell
//! * `--test`       — smoke: 8 and 512 agents on a short budget; still
//!   writes the JSON artifact

use std::sync::Arc;
use std::time::{Duration, Instant};

use ddsketch::{AnyDDSketch, SketchConfig};
use sketchd::{AgentSender, Bind, QueryClient, ServerConfig, ServerHandle};

const POOL: usize = 64;
const VALUES_PER_FRAME: usize = 16;
const TENANT: &str = "fleet";

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

/// One connection-scaling cell: `agents` concurrent senders, verified
/// for zero loss and bit-identical quantiles. Returns the cell's JSON
/// results row.
fn run_cell(agents: usize, frame_budget: u64, pool: &Arc<Vec<Vec<u8>>>) -> String {
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
    loop {
        let stats = client.stats().unwrap();
        if stats.frames_ingested + stats.frames_rejected >= total_frames {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cell of {agents} agents stalled at {}/{total_frames} frames: open={} total={} \
             susp={} depth={:?} rej={} disc={}",
            stats.frames_ingested + stats.frames_rejected,
            stats.open_connections,
            stats.connections_total,
            stats.ingest_suspensions,
            stats.staging_depth,
            stats.frames_rejected,
            stats.ingest_disconnects,
        );
        std::thread::sleep(Duration::from_millis(2));
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
        "  {agents:>3} agents: {total_frames} payloads in {:>6.2}s -> {:>7.1} k/s (verified bit-identical)",
        elapsed.as_secs_f64(),
        payloads_per_sec / 1e3,
    );
    format!(
        "{{\"id\": \"evloop/agents-{agents}\", \"ns_per_iter\": {:.1}, \
         \"agents\": {agents}, \"frames\": {total_frames}, \
         \"payloads_per_sec\": {payloads_per_sec:.0}}}",
        1e9 / payloads_per_sec,
    )
}

fn main() {
    let mut test_mode = false;
    let mut frames_override: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--test" => test_mode = true,
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
    let rows: Vec<String> = agents_axis
        .iter()
        .map(|&agents| run_cell(agents, frame_budget, &pool))
        .collect();
    let rows = rows.join(",\n    ");
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
