//! The tenant cap: every new tenant name spawns `shards_per_tenant`
//! worker threads, so past 64 tenants the server refuses new names at
//! the ingest handshake instead of spawning more. Its own test binary,
//! so the thread count it reads belongs to this test alone.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sketchd::{AgentSender, Bind, Endpoint, QueryClient, ServerConfig, ServerHandle};

const MAX_TENANTS: usize = 64;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Open an ingest handshake for `tenant` and read everything the server
/// says before it closes the connection, giving up after 10 s.
fn handshake_reply(endpoint: &Endpoint, tenant: &str) -> String {
    let Endpoint::Tcp(addr) = endpoint else {
        unreachable!("bound over TCP")
    };
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(format!("INGEST {tenant}\nDDSF\x01").as_bytes())
        .unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply)
        .expect("the server neither answered nor closed the handshake");
    reply
}

/// Ship one value to `tenant`, then wait until the server has absorbed
/// `frames` frames in all.
fn ship(client: &mut QueryClient, endpoint: &Endpoint, tenant: &str, frames: u64) {
    let mut sketch = ServerConfig::default().sketch.build().unwrap();
    sketch.add(1.0).unwrap();
    let mut agent = AgentSender::connect(endpoint.clone(), tenant).unwrap();
    agent.send("m", 0, &sketch).unwrap();
    agent.close().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.stats().unwrap().frames_ingested < frames {
        assert!(Instant::now() < deadline, "frame never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn new_tenants_past_the_cap_are_refused_without_new_threads() {
    let config = ServerConfig {
        shards_per_tenant: 1,
        ..ServerConfig::default()
    };
    let server = ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), config).unwrap();
    let endpoint = server.endpoint().clone();
    let mut client = QueryClient::connect(&endpoint).unwrap();
    for t in 0..MAX_TENANTS {
        ship(&mut client, &endpoint, &format!("t{t}"), t as u64 + 1);
    }
    assert_eq!(client.tenants().unwrap().len(), MAX_TENANTS);
    let full = threads();

    // The next new name is refused, and spawns nothing.
    assert_eq!(
        handshake_reply(&endpoint, "one-too-many"),
        "-ERR tenant limit reached\n"
    );
    assert_eq!(threads(), full, "a refused tenant spawned threads");
    let stats = client.stats().unwrap();
    assert_eq!(stats.tenants_refused, 1);
    assert_eq!(stats.ingest_disconnects, 0);
    assert!(!client.tenants().unwrap().contains(&"one-too-many".into()));

    // Names already held still ingest.
    ship(&mut client, &endpoint, "t0", MAX_TENANTS as u64 + 1);
    client.sync().unwrap();
    assert_eq!(client.count("t0").unwrap(), 2);
    assert_eq!(threads(), full);
    server.shutdown().unwrap();
}
