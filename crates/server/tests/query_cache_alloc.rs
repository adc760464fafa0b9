//! Allocation accounting for the epoch-cached read plane.
//!
//! A steady-state cached query — same line, no ingest since the answer
//! was computed — must be **zero** allocations: the answer cache is
//! probed before the parser (which would allocate for the uppercased
//! verb and argument vectors), freshness is a handful of relaxed atomic
//! loads, and the rendered response is one `memcpy` into the caller's
//! reused output buffer.
//!
//! The allocation counter is per thread and the counted window runs
//! [`ServerHandle::execute`] on the test thread, so the reactor and
//! shard-worker threads cannot bleed into it.

use std::time::{Duration, Instant};

use alloc_counter::{allocations_during, CountingAllocator};
use sketchd::{AgentSender, Bind, ServerConfig, ServerHandle};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_cached_queries_do_not_allocate() {
    let server =
        ServerHandle::spawn(&Bind::Tcp("127.0.0.1:0".into()), ServerConfig::default()).unwrap();

    // Ingest a few frames over a real socket, then drain.
    let mut sketch = ddsketch::SketchConfig::dense_collapsing(0.01, 2048)
        .build()
        .unwrap();
    for k in 1..=64u32 {
        sketch.add(f64::from(k) * 0.5).unwrap();
    }
    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
    for i in 0..8u64 {
        agent.send("api.latency", i * 10, &sketch).unwrap();
    }
    agent.close().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().frames_ingested < 8 {
        assert!(Instant::now() < deadline, "frames never absorbed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut out = Vec::new();
    assert!(server.execute("SYNC", &mut out));
    // Let the shard workers finish their post-drain snapshot refresh,
    // so the first cached answers below are computed at the final epoch.
    std::thread::sleep(Duration::from_millis(100));

    for line in [
        "QUANTILE acme 0.5 0.9 0.99",
        "WQUANTILE acme 0.5 0.99",
        "COUNT acme",
        "WCOUNT acme",
        "SERIES acme api.latency 0.5",
    ] {
        // First call computes and caches; second re-serves and sizes
        // the output buffer.
        out.clear();
        assert!(server.execute(line, &mut out));
        assert!(
            out.starts_with(b"+OK"),
            "{line}: {:?}",
            String::from_utf8_lossy(&out)
        );
        out.clear();
        assert!(server.execute(line, &mut out));

        let allocs = allocations_during(|| {
            for _ in 0..256 {
                out.clear();
                assert!(server.execute(line, &mut out));
            }
        });
        assert_eq!(allocs, 0, "steady-state cached query allocated: {line}");
    }

    let stats = server.stats();
    assert!(
        stats.query_cache_hits >= 5 * 257,
        "repeats should all hit the cache ({} hits)",
        stats.query_cache_hits
    );
    server.shutdown().unwrap();
}
