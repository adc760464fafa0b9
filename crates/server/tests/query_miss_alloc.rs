//! Allocation pins for each query verb's answer-cache **miss** path.
//!
//! Wall-clock latency is too noisy to gate in CI, so the read plane's
//! cost is pinned by a deterministic counter instead: the allocations one
//! cache-missing `COUNT`, `WCOUNT`, `QUANTILE`, `WQUANTILE` and `SERIES`
//! perform inside [`ServerHandle::execute`]. Every line below is distinct
//! and the cycle is longer than the 64-entry answer cache, so every
//! execute misses, parses, answers from the read snapshots, renders and
//! stores its answer.
//!
//! The pins are ceilings. A change may lower a pin, never raise it: a
//! rise means some query path started allocating more per answer.
//! `WQUANTILE` walks the same borrowed snapshots as `QUANTILE`, so its
//! pin may exceed `QUANTILE`'s only by a small constant.
//!
//! The allocation counter is per thread and the counted windows run
//! `execute` on the test thread, so the reactor and shard-worker threads
//! cannot bleed into them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use alloc_counter::{allocations_during, CountingAllocator};
use ddsketch::{AnyDDSketch, AnyWeightedDDSketch, SketchConfig};
use sketchd::{AgentSender, Bind, ServerConfig, ServerHandle};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation ceilings per cache-missing query, by verb, set to the
/// measured counts.
const PINS: [(&str, f64); 5] = [
    ("COUNT", 7.0),
    ("WCOUNT", 10.0),
    ("QUANTILE", 22.0),
    ("WQUANTILE", 23.0),
    ("SERIES", 19.0),
];

/// How far `WQUANTILE`'s pin may sit above `QUANTILE`'s.
const WQUANTILE_OVER_QUANTILE: f64 = 4.0;

/// Lines per verb: five verbs × 16 lines = 80 distinct lines, more than
/// the 64-entry answer cache holds, so cycling them never hits.
const LINES_PER_VERB: usize = 16;

/// `verb` in the casing given by the bits of `mask` (the parser and the
/// cache's verb check are case-insensitive; the cache key is not).
fn cased(verb: &str, mask: usize) -> String {
    verb.chars()
        .enumerate()
        .map(|(k, c)| {
            if mask >> k & 1 == 1 {
                c.to_ascii_lowercase()
            } else {
                c
            }
        })
        .collect()
}

fn query_lines() -> Vec<(&'static str, String)> {
    let mut lines = Vec::new();
    for k in 0..LINES_PER_VERB {
        let qs = format!("0.5 0.9 0.{:02}", 10 + k);
        lines.push(("COUNT", format!("{} acme", cased("COUNT", k))));
        lines.push(("WCOUNT", format!("{} acme", cased("WCOUNT", k))));
        lines.push(("QUANTILE", format!("QUANTILE acme {qs}")));
        lines.push(("WQUANTILE", format!("WQUANTILE acme {qs}")));
        lines.push(("SERIES", format!("SERIES acme m{} 0.{:02}", k % 4, 10 + k)));
    }
    lines
}

#[test]
fn cache_miss_allocations_stay_within_their_pins() {
    let config = SketchConfig::dense_collapsing(0.01, 2048);
    let server = ServerHandle::spawn(
        &Bind::Tcp("127.0.0.1:0".into()),
        ServerConfig {
            sketch: config,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Integer and weighted frames over four metrics, so every shard
    // holds both planes and SERIES has windows to walk.
    let mut agent = AgentSender::connect(server.endpoint().clone(), "acme").unwrap();
    let mut frames = 0;
    for i in 0..32u32 {
        let mut integer = AnyDDSketch::new(config).unwrap();
        let mut weighted = AnyWeightedDDSketch::new(config).unwrap();
        for k in 1..=64u32 {
            let v = f64::from(k * (i + 1)) * 0.37;
            integer.add(v).unwrap();
            weighted
                .add_with_count(v * 1.5, f64::from(k % 5) / 3.0 + 0.1)
                .unwrap();
        }
        let metric = format!("m{}", i % 4);
        let ts = u64::from(i % 8) * 10;
        agent.send(&metric, ts, &integer).unwrap();
        agent.send_encoded(&metric, ts, &weighted.encode()).unwrap();
        frames += 2;
    }
    agent.close().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().frames_ingested < frames {
        assert!(Instant::now() < deadline, "frames never absorbed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut out = Vec::new();
    assert!(server.execute("SYNC", &mut out));
    // Let the shard workers finish their post-drain snapshot refresh.
    std::thread::sleep(Duration::from_millis(100));

    let lines = query_lines();
    // Warm-up pass: snapshots, the output buffer and the cache ring reach
    // their steady sizes, and every line is checked to answer.
    for (_, line) in &lines {
        out.clear();
        assert!(server.execute(line, &mut out));
        assert!(
            out.starts_with(b"+OK"),
            "{line}: {:?}",
            String::from_utf8_lossy(&out)
        );
    }

    const PASSES: usize = 4;
    let misses_before = server.stats().query_cache_misses;
    let mut per_verb: BTreeMap<&str, usize> = BTreeMap::new();
    for _ in 0..PASSES {
        for (verb, line) in &lines {
            let allocs = allocations_during(|| {
                out.clear();
                assert!(server.execute(line, &mut out));
            });
            *per_verb.entry(verb).or_default() += allocs;
        }
    }
    let queries = (PASSES * lines.len()) as u64;
    assert_eq!(
        server.stats().query_cache_misses - misses_before,
        queries,
        "every counted query must miss the answer cache"
    );

    let per_query = |verb: &str| per_verb[verb] as f64 / (PASSES * LINES_PER_VERB) as f64;
    for (verb, pin) in PINS {
        let measured = per_query(verb);
        println!("{verb}: {measured:.2} allocations per miss (pin {pin})");
        assert!(
            measured <= pin,
            "{verb} cache miss allocates {measured:.2} per query, above its pin of {pin}"
        );
    }
    let pin = |verb: &str| PINS.iter().find(|(v, _)| *v == verb).unwrap().1;
    assert!(pin("WQUANTILE") <= pin("QUANTILE") + WQUANTILE_OVER_QUANTILE);
    server.shutdown().unwrap();
}
