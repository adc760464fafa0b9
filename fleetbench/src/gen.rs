//! Every input of a run, derived from the seed alone: the agent's batch
//! schedule, the fleet's pre-encoded payload pools and the query lines.
//! The programs under test only ever see the resulting values, bytes and
//! lines.

use datasets::Dataset;
use ddsketch::{AnyDDSketch, AnyWeightedDDSketch, SketchConfig};
use sketchd::ServerConfig;

use crate::rng::{SplitMix, Zipf};

/// First timestamp of every generated series (aligned to any window width
/// that divides it).
pub const T0: u64 = 1_700_000_000 - 1_700_000_000 % 3600;

const DATASETS: [Dataset; 3] = [Dataset::Pareto, Dataset::Span, Dataset::Power];

/// The sketch configuration agents run: the server's default, so a
/// change of default is measured on both sides of the wire.
pub fn sketch_config() -> SketchConfig {
    ServerConfig::default().sketch
}

/// Draws values per data set from one seeded stream each.
struct Values {
    streams: Vec<datasets::DataStream>,
}

impl Values {
    fn new(seed: u64) -> Self {
        Self {
            streams: DATASETS
                .iter()
                .enumerate()
                .map(|(i, d)| d.stream(seed.wrapping_mul(31).wrapping_add(i as u64)))
                .collect(),
        }
    }

    fn take(&mut self, dataset: usize, n: usize) -> Vec<f64> {
        self.streams[dataset % 3].by_ref().take(n).collect()
    }
}

/// One agent flush: raw values of one metric in one window.
#[derive(Debug, Clone)]
pub struct Batch {
    pub metric: usize,
    pub window: u64,
    pub values: Vec<f64>,
}

pub const AGENT_METRICS: usize = 16;
const AGENT_BATCHES: usize = 1024;
const AGENT_BATCHES_PER_WINDOW: usize = 64;

/// `n` sizes spread evenly in log space over `lo..=hi`: every seed gets
/// the same multiset, so the seed changes the values and the order, not
/// the amount of work.
fn log_sizes(n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (a, b) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    (0..n)
        .map(|i| ((a + (b - a) * (i as f64 + 0.5) / n as f64).exp() as usize).clamp(lo, hi))
        .collect()
}

/// `n` sizes spread evenly over `lo..=hi`.
fn linear_sizes(n: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..n)
        .map(|i| lo + ((hi - lo + 1) as f64 * (i as f64 + 0.5) / n as f64) as usize)
        .collect()
}

/// The agent's schedule: 1024 batches of 64–4096 values (spread evenly
/// in log space) over 16 metrics, each metric drawing from one of the
/// paper's three data sets and getting an even share of the sizes; the
/// order is seeded and the window advances every 64 batches.
pub fn agent_schedule(seed: u64) -> Vec<Batch> {
    let mut rng = SplitMix::new(seed, 1);
    let mut values = Values::new(seed ^ 0xA6E7);
    let mut plan: Vec<(usize, usize)> = log_sizes(AGENT_BATCHES, 64, 4096)
        .into_iter()
        .enumerate()
        .map(|(i, n)| (i % AGENT_METRICS, n))
        .collect();
    rng.shuffle(&mut plan);
    plan.into_iter()
        .enumerate()
        .map(|(i, (metric, n))| Batch {
            metric,
            window: T0 + 10 * (i / AGENT_BATCHES_PER_WINDOW) as u64,
            values: values.take(metric, n),
        })
        .collect()
}

/// One pre-encoded payload and the raw values behind it.
#[derive(Debug, Clone)]
pub struct Payload {
    pub tenant: usize,
    pub metric: String,
    /// Timestamp for payloads whose window is fixed by the generator
    /// (the query preload); streaming workloads derive it per send.
    pub ts: u64,
    pub values: Vec<f64>,
    /// `Some(w)`: a `DDS3` payload where every value carries weight `w`.
    pub weight: Option<u32>,
    pub bytes: Vec<u8>,
    pub bins: usize,
}

impl Payload {
    fn build(
        config: &SketchConfig,
        tenant: usize,
        metric: String,
        ts: u64,
        values: Vec<f64>,
        weight: Option<u32>,
    ) -> Self {
        let (bytes, bins) = match weight {
            None => {
                let mut sketch = config.build().expect("valid sketch config");
                sketch
                    .add_slice(&values)
                    .expect("dataset values are finite");
                (sketch.encode(), sketch.num_bins())
            }
            Some(w) => {
                let mut sketch = AnyWeightedDDSketch::new(*config).expect("valid sketch config");
                for &v in &values {
                    sketch
                        .add_with_count(v, f64::from(w))
                        .expect("dataset values are finite");
                }
                (sketch.encode(), sketch.num_bins())
            }
        };
        Self {
            tenant,
            metric,
            ts,
            values,
            weight,
            bytes,
            bins,
        }
    }

    /// Values on the integer count plane (what `COUNT` counts).
    pub fn integer_values(&self) -> u64 {
        if self.weight.is_none() {
            self.values.len() as u64
        } else {
            0
        }
    }
}

pub fn metric_name(tenant: usize, metric: usize) -> String {
    format!("svc{tenant}.m{metric:03}.latency")
}

pub fn tenant_name(tenant: usize) -> String {
    format!("t{tenant}")
}

/// Sampling weights for `n` payloads: exactly one in eight is a
/// trace-sampled `DDS3` submission (weights 2, 4, 8, 16 in turn), in a
/// seeded order.
fn sampling_weights(n: usize, rng: &mut SplitMix) -> Vec<Option<u32>> {
    let mut weights: Vec<Option<u32>> = (0..n)
        .map(|i| (i % 8 == 0).then(|| [2, 4, 8, 16][(i / 8) % 4]))
        .collect();
    rng.shuffle(&mut weights);
    weights
}

/// Sends per window of a streaming sender, and windows before it wraps
/// back to the first: the store's cell count plateaus after a few
/// seconds, so memory does not grow with throughput.
const WINDOW_SENDS: u64 = 32_768;
const STREAM_WINDOWS: u64 = 8;

/// Timestamp of a streaming sender's `k`-th send.
pub fn stream_ts(k: u64) -> u64 {
    T0 + 10 * ((k / WINDOW_SENDS) % STREAM_WINDOWS)
}

pub const INGEST_METRICS: usize = 256;
const INGEST_POOL: usize = 2048;

/// The `ingest`/`mixed` pool: 2048 payloads of 64–512 values (spread
/// evenly) over 256 metrics of tenant 0, eight payloads per metric, one
/// payload in eight weighted; sizes, metrics and weights are paired in a
/// seeded order.
pub fn ingest_pool(seed: u64) -> Vec<Payload> {
    let config = sketch_config();
    let mut rng = SplitMix::new(seed, 2);
    let mut values = Values::new(seed ^ 0x1A9E);
    let mut sizes = linear_sizes(INGEST_POOL, 64, 512);
    rng.shuffle(&mut sizes);
    let mut metrics: Vec<usize> = (0..INGEST_POOL).map(|i| i % INGEST_METRICS).collect();
    rng.shuffle(&mut metrics);
    let weights = sampling_weights(INGEST_POOL, &mut rng);
    (0..INGEST_POOL)
        .map(|i| {
            let metric = metrics[i];
            Payload::build(
                &config,
                0,
                metric_name(0, metric),
                0,
                values.take(metric, sizes[i]),
                weights[i],
            )
        })
        .collect()
}

pub const QUERY_TENANTS: usize = 4;
pub const QUERY_METRICS: usize = 64;
const QUERY_WINDOWS: u64 = 8;
const PAYLOADS_PER_CELL: usize = 2;

/// The `query` preload: 4 tenants × 64 metrics × 8 windows × 2 payloads
/// of 64–512 values (spread evenly, seeded order), one in eight
/// weighted; ordered for sending.
pub fn query_preload(seed: u64) -> Vec<Payload> {
    let config = sketch_config();
    let mut rng = SplitMix::new(seed, 3);
    let mut values = Values::new(seed ^ 0x9E71);
    let cells = QUERY_TENANTS * QUERY_WINDOWS as usize * QUERY_METRICS * PAYLOADS_PER_CELL;
    let mut sizes = linear_sizes(cells, 64, 512);
    rng.shuffle(&mut sizes);
    let weights = sampling_weights(cells, &mut rng);
    let mut out = Vec::with_capacity(cells);
    for tenant in 0..QUERY_TENANTS {
        for window in 0..QUERY_WINDOWS {
            for metric in 0..QUERY_METRICS {
                for _ in 0..PAYLOADS_PER_CELL {
                    let i = out.len();
                    out.push(Payload::build(
                        &config,
                        tenant,
                        metric_name(tenant, metric),
                        T0 + 10 * window,
                        values.take(metric + tenant, sizes[i]),
                        weights[i],
                    ));
                }
            }
        }
    }
    out
}

fn render_qs(qs: &[f64]) -> String {
    qs.iter().map(|q| format!(" {q:?}")).collect()
}

/// Verb of the line at Zipf rank `r`: a fixed pattern, so every seed
/// puts the same mix of verbs at the same popularity.
const VERB_PATTERN: [&str; 10] = [
    "QUANTILE",
    "SERIES",
    "QUANTILE",
    "WQUANTILE",
    "SERIES",
    "QUANTILE",
    "SERIES",
    "QUANTILE",
    "WQUANTILE",
    "SERIES",
];

/// 1,000 query lines over `tenants` × `metrics`, listed by Zipf rank:
/// one `COUNT` per tenant at fixed ranks, and otherwise `QUANTILE` /
/// `WQUANTILE` (2–4 qs) and `SERIES` lines in a fixed verb pattern whose
/// tenants, metrics and qs (from 0.01, 0.02, …, 0.99, 0.999) are seeded.
/// Lines are distinct unless the tenants and metrics run out of
/// combinations.
pub fn query_lines(seed: u64, tenants: usize, metrics: usize) -> Vec<String> {
    const LINES: usize = 1000;
    let count_ranks = [3, 37, 211, 607];
    let q_choices = crate::verify::quantile_grid();
    let q = |rng: &mut SplitMix| q_choices[rng.range(0, q_choices.len())];
    let mut rng = SplitMix::new(seed, 4);
    let mut seen = std::collections::BTreeSet::new();
    let mut lines = Vec::with_capacity(LINES);
    for rank in 0..LINES {
        let count_slot = count_ranks.iter().position(|&r| r == rank);
        let mut attempts = 0;
        let line = loop {
            attempts += 1;
            let t = rng.range(0, tenants);
            let tenant = tenant_name(t);
            let line = match (count_slot, VERB_PATTERN[rank % VERB_PATTERN.len()]) {
                (Some(slot), _) => format!("COUNT {}", tenant_name(slot % tenants)),
                (None, "SERIES") => {
                    let metric = metric_name(t, rng.range(0, metrics));
                    format!("SERIES {tenant} {metric} {:?}", q(&mut rng))
                }
                (None, verb) => {
                    let k = 2 + (rank / VERB_PATTERN.len()) % 3;
                    let mut qs: Vec<f64> = (0..k).map(|_| q(&mut rng)).collect();
                    qs.sort_by(f64::total_cmp);
                    format!("{verb} {tenant}{}", render_qs(&qs))
                }
            };
            // A repeated COUNT (fewer tenants than slots) is allowed.
            if count_slot.is_some() || seen.insert(line.clone()) || attempts > 100 {
                break line;
            }
        };
        lines.push(line);
    }
    lines
}

/// Zipf exponent of the query mix: skewed enough that the hot lines
/// repeat, flat enough that the working set dwarfs a 64-entry cache.
pub const ZIPF_S: f64 = 0.9;

/// A seeded sequence of line indices drawn Zipf-skewed over `n` lines.
pub fn zipf_sequence(seed: u64, stream: u64, n: usize, len: usize) -> Vec<u32> {
    let zipf = Zipf::new(n, ZIPF_S);
    let mut rng = SplitMix::new(seed, 100 + stream);
    (0..len).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// Build a fresh sketch of the agents' configuration.
pub fn new_sketch() -> AnyDDSketch {
    sketch_config().build().expect("valid sketch config")
}
