//! The traced run's layer probe. It replays the workload's own inputs
//! through each layer's public functions in-process, one thread, with a
//! span around every call, and takes the same inputs on a short fleet
//! trip through a fresh server. Metrics the workload's live traced run
//! already measured are kept; the probe fills in the rest.

use std::collections::BTreeMap;

use ddsketch::{
    AnyDDSketch, CollapsingLowestDenseStore, CollapsingSparseStore, CubicInterpolatedMapping,
    DenseStore, IndexMapping, LinearInterpolatedMapping, LogarithmicMapping, MappingKind,
    QuadraticInterpolatedMapping, SketchConfig, SparseStore, Store, StoreKind,
};
use pipeline::{Aggregator, TimeSeriesStore, WeightedAggregator};
use sketchd::{QueryClient, ServerConfig};

use crate::fleet::{self, counter_layers, drain, run_mixed, send_loop, spawn_server};
use crate::gen::{self, sketch_config, tenant_name, Payload};
use crate::rng::fnv1a;
use crate::stats::Tail;
use crate::trace::{self, now_ns, summarize, NameTotals, Span};
use crate::verify::Union;
use crate::{alloc, Outcome, ProbeInputs};

/// Each replay repeats its inputs until it has run this long.
const REPLAY_NS: u64 = 300_000_000;
/// ... and replayed at least this many payloads.
const REPLAY_MIN_PAYLOADS: usize = 20_000;
/// Closed-loop sends of the fleet trip (at least one of every payload).
const TRIP_MIN_SENDS: usize = 16_384;
const TRIP_MIXED_SECONDS: f64 = 1.0;
const TRIP_QUERIES: usize = 4_000;

/// Collect the spans recorded so far into `archive` and total them.
fn harvest(archive: &mut Vec<Vec<Span>>) -> BTreeMap<&'static str, NameTotals> {
    let spans = trace::take_all();
    let totals = summarize(&spans);
    archive.extend(spans);
    totals
}

fn total(t: &BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    t.get(name).map_or(0.0, |t| t.total_ns as f64)
}

pub fn probe(inputs: ProbeInputs, seed: u64, out: &mut Outcome) {
    let config = sketch_config();
    let mut archive = Vec::new();
    harvest(&mut archive);
    replay_values(&inputs, config, out, &mut archive);
    let replay_ns = replay_payloads(&inputs, config, out, &mut archive);
    replay_reads(&inputs, config, out, &mut archive);
    let trip_ns = fleet_trip(&inputs, seed, out, &mut archive);
    let e2e = inputs.e2e_ns_per_payload.unwrap_or(trip_ns);
    out.layers.fill(
        "server.residual_ns_per_payload",
        e2e - replay_ns,
        "ns/payload",
    );
    out.spans.extend(archive);
}

/// Mapping, store, fused `add_slice` and encode over the raw batches.
fn replay_values(
    inputs: &ProbeInputs,
    config: SketchConfig,
    out: &mut Outcome,
    archive: &mut Vec<Vec<Span>>,
) {
    let batches: Vec<&[f64]> = if inputs.batches.is_empty() {
        inputs
            .payloads
            .iter()
            .map(|p| p.values.as_slice())
            .collect()
    } else {
        inputs.batches.iter().map(Vec::as_slice).collect()
    };
    let mut sketch = gen::new_sketch();
    let mut mapping_store = MappingStore::new(config);
    let (start, mut values, mut payloads) = (now_ns(), 0usize, 0usize);
    while now_ns() - start < REPLAY_NS || payloads < batches.len() {
        for batch in &batches {
            let req = payloads as u64;
            mapping_store.run(batch, req);
            sketch.clear();
            {
                let _s = trace::span("sketch.add_slice", req);
                if sketch.add_slice(batch).is_err() {
                    out.tally.fail(1);
                }
            }
            let bytes = {
                let _s = trace::span("codec.encode", req);
                sketch.encode()
            };
            std::hint::black_box(bytes);
            values += batch.len();
            payloads += 1;
        }
    }
    let t = harvest(archive);
    let per_value = |name| total(&t, name) / values as f64;
    let (mapping, store, fused) = (
        per_value("mapping.index_batch"),
        per_value("store.add_indices"),
        per_value("sketch.add_slice"),
    );
    let l = &mut out.layers;
    l.fill("mapping.index_ns_per_value", mapping, "ns/value");
    l.fill("store.add_ns_per_value", store, "ns/value");
    l.fill("sketch.add_slice_ns_per_value", fused, "ns/value");
    l.fill(
        "sketch.fused_residual_ns_per_value",
        fused - mapping - store,
        "ns/value",
    );
    l.fill(
        "codec.encode_ns_per_payload",
        total(&t, "codec.encode") / payloads as f64,
        "ns/payload",
    );
}

/// `index_batch` then `add_indices` with the configured mapping and
/// store family, each behind one dynamic call per batch.
struct MappingStore {
    index: IndexFn,
    add: AddFn,
    indices: Vec<i32>,
}

type IndexFn = Box<dyn Fn(&[f64], &mut [i32])>;
type AddFn = Box<dyn FnMut(&[i32])>;

fn indexer<M: IndexMapping + 'static>(alpha: f64) -> IndexFn {
    let mapping = M::with_accuracy(alpha).expect("valid accuracy");
    Box::new(move |values, out| mapping.index_batch(values, out))
}

fn adder<S: Store + 'static>(mut store: S) -> AddFn {
    Box::new(move |indices| {
        store.clear();
        let _s = trace::span("store.add_indices", 0);
        store.add_indices(indices);
    })
}

impl MappingStore {
    fn new(config: SketchConfig) -> Self {
        let alpha = config.alpha;
        let index = match config.mapping {
            MappingKind::Logarithmic => indexer::<LogarithmicMapping>(alpha),
            MappingKind::CubicInterpolated => indexer::<CubicInterpolatedMapping>(alpha),
            MappingKind::LinearInterpolated => indexer::<LinearInterpolatedMapping>(alpha),
            MappingKind::QuadraticInterpolated => indexer::<QuadraticInterpolatedMapping>(alpha),
        };
        let bins = config.max_bins;
        let add = match config.store {
            StoreKind::Unbounded => adder(DenseStore::<u64>::new()),
            StoreKind::CollapsingDense => adder(CollapsingLowestDenseStore::<u64>::new(bins)),
            StoreKind::Sparse => adder(SparseStore::<u64>::new()),
            StoreKind::CollapsingSparse => adder(CollapsingSparseStore::<u64>::new(bins)),
        };
        Self {
            index,
            add,
            indices: Vec::new(),
        }
    }

    fn run(&mut self, values: &[f64], req: u64) {
        self.indices.resize(values.len(), 0);
        {
            let _s = trace::span("mapping.index_batch", req);
            (self.index)(values, &mut self.indices);
        }
        (self.add)(&self.indices);
    }
}

fn replay_ts(p: &Payload, index: usize) -> u64 {
    if p.ts != 0 {
        p.ts
    } else {
        gen::stream_ts(index as u64)
    }
}

/// Decode, window absorb, aggregator feed and fold, and the weighted
/// plane, replayed on one thread the way a shard worker would see the
/// payloads. Returns the replayed ns per payload (all layers summed).
fn replay_payloads(
    inputs: &ProbeInputs,
    config: SketchConfig,
    out: &mut Outcome,
    archive: &mut Vec<Vec<Span>>,
) -> f64 {
    let defaults = ServerConfig::default();
    let threshold = defaults.fold_threshold;
    let mut store =
        TimeSeriesStore::with_config(config, defaults.window_secs).expect("valid config");
    let mut agg = Aggregator::with_config(config, usize::MAX).expect("valid config");
    let mut wagg = WeightedAggregator::with_config(config, threshold).expect("valid config");
    let (start, mut n, mut integer, mut weighted, mut folds) =
        (now_ns(), 0usize, 0usize, 0usize, 0usize);
    while now_ns() - start < REPLAY_NS || n < REPLAY_MIN_PAYLOADS {
        for p in &inputs.payloads {
            let req = n as u64;
            let _r = trace::span("replay.payload", req);
            if p.weight.is_none() {
                let mut staged = agg.take_spare();
                let decoded = {
                    let _s = trace::span("codec.decode_into", req);
                    staged.decode_into(&p.bytes)
                };
                let ok = decoded.is_ok()
                    && {
                        let _s = trace::span("window.absorb_payload", req);
                        store
                            .absorb_payload(&p.metric, replay_ts(p, n), &staged)
                            .is_ok()
                    }
                    && {
                        let _s = trace::span("aggregator.feed_payload", req);
                        agg.feed_payload(staged).is_ok()
                    };
                if !ok {
                    out.tally.fail(1);
                }
                integer += 1;
                if integer % threshold == 0 {
                    let _s = trace::span("aggregator.fold", req);
                    agg.fold();
                    folds += 1;
                }
            } else {
                let mut staged = wagg.take_spare();
                let decoded = {
                    let _s = trace::span("codec.decode_weighted_into", req);
                    staged.decode_into(&p.bytes)
                };
                let ok = decoded.is_ok() && {
                    let _s = trace::span("weighted_aggregator.feed_payload", req);
                    wagg.feed_payload(staged).is_ok()
                };
                if !ok {
                    out.tally.fail(1);
                }
                weighted += 1;
            }
            n += 1;
        }
    }
    let t = harvest(archive);
    let replayed = [
        "codec.decode_into",
        "window.absorb_payload",
        "aggregator.feed_payload",
        "aggregator.fold",
        "codec.decode_weighted_into",
        "weighted_aggregator.feed_payload",
    ]
    .iter()
    .map(|name| total(&t, name))
    .sum::<f64>()
        / n as f64;
    let (ints, l) = (integer.max(1) as f64, &mut out.layers);
    l.fill(
        "codec.decode_ns_per_payload",
        total(&t, "codec.decode_into") / ints,
        "ns/payload",
    );
    l.fill(
        "window.absorb_ns_per_payload",
        total(&t, "window.absorb_payload") / ints,
        "ns/payload",
    );
    l.fill(
        "aggregator.feed_ns_per_payload",
        total(&t, "aggregator.feed_payload") / ints,
        "ns/payload",
    );
    l.fill(
        "aggregator.fold_ns_per_payload",
        total(&t, "aggregator.fold") / ints,
        "ns/payload",
    );
    l.fill(
        "aggregator.folds_per_payload",
        folds as f64 / ints,
        "1/payload",
    );
    let payloads = inputs.payloads.len() as f64;
    l.fill(
        "sketch.bins_per_payload",
        inputs.payloads.iter().map(|p| p.bins).sum::<usize>() as f64 / payloads,
        "bins",
    );
    l.fill(
        "codec.bytes_per_payload",
        inputs.payloads.iter().map(|p| p.bytes.len()).sum::<usize>() as f64 / payloads,
        "B",
    );
    let extra;
    let tw = if weighted > 0 {
        &t
    } else {
        // No `DDS3` payloads in this workload: time the weighted plane on
        // the integer payloads it also accepts (integer counts widen).
        out.note(
            "weighted layers replayed on integer payloads (the workload sends no DDS3)".into(),
        );
        let mut wagg = WeightedAggregator::with_config(config, threshold).expect("valid config");
        for (i, p) in inputs.payloads.iter().enumerate() {
            let mut staged = wagg.take_spare();
            let decoded = {
                let _s = trace::span("codec.decode_weighted_into", i as u64);
                staged.decode_into(&p.bytes)
            };
            let ok = decoded.is_ok() && {
                let _s = trace::span("weighted_aggregator.feed_payload", i as u64);
                wagg.feed_payload(staged).is_ok()
            };
            if !ok {
                out.tally.fail(1);
            }
            weighted += 1;
        }
        extra = harvest(archive);
        &extra
    };
    let w = weighted.max(1) as f64;
    out.layers.fill(
        "codec.decode_weighted_ns_per_payload",
        total(tw, "codec.decode_weighted_into") / w,
        "ns/payload",
    );
    out.layers.fill(
        "weighted_aggregator.feed_ns_per_payload",
        total(tw, "weighted_aggregator.feed_payload") / w,
        "ns/payload",
    );
    replayed
}

/// The query-side layers on state rebuilt in-process from the payloads:
/// the k-way merged walk over per-shard residents and the windowed
/// store's series.
fn replay_reads(
    inputs: &ProbeInputs,
    config: SketchConfig,
    out: &mut Outcome,
    archive: &mut Vec<Vec<Span>>,
) {
    let defaults = ServerConfig::default();
    let shards = defaults.shards_per_tenant;
    let mut residents: Vec<Aggregator> = (0..shards)
        .map(|_| Aggregator::with_config(config, defaults.fold_threshold).expect("valid config"))
        .collect();
    let mut store =
        TimeSeriesStore::with_config(config, defaults.window_secs).expect("valid config");
    let mut metrics = Vec::new();
    for (i, p) in inputs
        .payloads
        .iter()
        .filter(|p| p.weight.is_none())
        .enumerate()
    {
        let shard = (fnv1a(p.metric.as_bytes()) % shards as u64) as usize;
        let staged = ddsketch::SketchPayload::decode(&p.bytes).expect("generated payload");
        store
            .absorb_payload(&p.metric, replay_ts(p, i), &staged)
            .expect("compatible payload");
        residents[shard].feed(&p.bytes).expect("compatible payload");
        metrics.push(p.metric.as_str());
    }
    metrics.sort_unstable();
    metrics.dedup();
    for r in &mut residents {
        r.fold();
    }
    let refs: Vec<&AnyDDSketch> = residents.iter().map(Aggregator::resident).collect();
    let qs = [0.5, 0.9, 0.99, 0.999];
    let calls = 2_000;
    for i in 0..calls {
        let _s = trace::span("sketch.merged_quantiles", i);
        std::hint::black_box(AnyDDSketch::merged_quantiles(&refs, &qs).expect("non-empty"));
    }
    for i in 0..calls {
        let metric = metrics[i as usize % metrics.len()];
        let _s = trace::span("window.quantile_series", i);
        std::hint::black_box(store.quantile_series(metric, 0.99));
    }
    let t = harvest(archive);
    out.layers.fill(
        "sketch.merged_quantiles_us",
        total(&t, "sketch.merged_quantiles") / calls as f64 / 1e3,
        "us",
    );
    out.layers.fill(
        "window.quantile_series_us",
        total(&t, "window.quantile_series") / calls as f64 / 1e3,
        "us",
    );
}

/// A fresh server receives the payloads closed loop (the per-payload
/// cost and counters), then runs a short open-loop mix (staleness and
/// lateness) and a closed-loop query pass timed against
/// `ServerHandle::execute` on the same lines. Returns the closed-loop
/// end-to-end ns per payload.
fn fleet_trip(
    inputs: &ProbeInputs,
    seed: u64,
    out: &mut Outcome,
    archive: &mut Vec<Vec<Span>>,
) -> f64 {
    let server = spawn_server();
    let tenants = inputs
        .payloads
        .iter()
        .map(|p| p.tenant)
        .max()
        .map_or(1, |t| t + 1);
    let reps = TRIP_MIN_SENDS.div_ceil(inputs.payloads.len());
    let mut counts = vec![0u64; inputs.payloads.len()];
    let before = server.stats();
    alloc::set_counting(true);
    let allocs = alloc::allocations();
    let start = now_ns();
    let mut frames = 0;
    for t in 0..tenants {
        let (index, mine): (Vec<usize>, Vec<&Payload>) = inputs
            .payloads
            .iter()
            .enumerate()
            .filter(|(_, p)| p.tenant == t)
            .unzip();
        let limit = (mine.len() * reps) as u64;
        let sent = send_loop(
            &server,
            &mine,
            &tenant_name(t),
            t as u64,
            0,
            None,
            1,
            u64::MAX,
            limit,
        );
        sent.report(out);
        frames += sent.frames;
        for (i, n) in index.iter().zip(&sent.counts) {
            counts[*i] += n;
        }
    }
    let mut client = QueryClient::connect(server.endpoint()).expect("query connection");
    let missing = drain(&server, &mut client, frames);
    let e2e_ns = (now_ns() - start) as f64 / frames.max(1) as f64;
    let after = server.stats();
    out.layers.fill(
        "alloc.per_payload",
        (alloc::allocations() - allocs) as f64 / frames.max(1) as f64,
        "1/payload",
    );
    alloc::set_counting(false);
    let mut trip = crate::Layers::default();
    counter_layers(&mut trip, &before, &after);
    let t = harvest(archive);
    if let Some(s) = t.get("agent.send_encoded") {
        trip.put(
            "agent.send_ns_per_payload",
            s.total_ns as f64 / s.count as f64,
            "ns/payload",
        );
    }
    if missing > 0 {
        out.tally.mark_failed(missing);
        out.problem(format!("fleet trip: {missing} frames not absorbed"));
    }

    // Open-loop mix on tenant 0.
    let (index0, pool0): (Vec<usize>, Vec<&Payload>) = inputs
        .payloads
        .iter()
        .enumerate()
        .filter(|(_, p)| p.tenant == 0)
        .unzip();
    let sequence = gen::zipf_sequence(seed, 8, inputs.lines.len(), 1 << 16);
    let base: u64 = index0
        .iter()
        .map(|&i| counts[i] * inputs.payloads[i].integer_values())
        .sum();
    let before = server.stats();
    let run = run_mixed(
        &server,
        &pool0,
        &inputs.lines,
        &sequence,
        &tenant_name(0),
        base,
        TRIP_MIXED_SECONDS,
    );
    let after = server.stats();
    counter_layers(&mut trip, &before, &after);
    for (i, n) in index0.iter().zip(&run.sent.counts) {
        counts[*i] += n;
    }
    run.sent.report(out);
    run.asked.report(out);
    if run.missing > 0 || run.impossible_counts > 0 {
        out.tally.mark_failed(run.missing + run.impossible_counts);
        out.problem(format!(
            "fleet trip: {} frames missing, {} impossible COUNT answers",
            run.missing, run.impossible_counts
        ));
    }
    fleet::late_p99_ms(&run, out);
    fleet::put_staleness(out, &run);
    harvest(archive);

    // Closed-loop query pass, then the same lines in-process.
    let sequence = gen::zipf_sequence(seed, 9, inputs.lines.len(), TRIP_QUERIES);
    alloc::set_counting(true);
    let allocs = alloc::allocations();
    let asked = fleet::query_loop(
        server.endpoint(),
        &inputs.lines,
        &sequence,
        9,
        None,
        None,
        u64::MAX,
        TRIP_QUERIES as u64,
    );
    out.layers.fill(
        "alloc.per_query",
        (alloc::allocations() - allocs) as f64 / asked.answers.len().max(1) as f64,
        "1/query",
    );
    alloc::set_counting(false);
    asked.report(out);
    let mut rtt: Vec<f64> = asked.latency_us.iter().map(|l| l.1).collect();
    let rtt = Tail::of(&mut rtt);
    let mut execute_us = Vec::with_capacity(sequence.len());
    let mut buf = Vec::new();
    for (i, &line) in sequence.iter().enumerate() {
        buf.clear();
        let t0 = now_ns();
        {
            let _s = trace::span("server.execute", i as u64);
            server.execute(&inputs.lines[line as usize], &mut buf);
        }
        execute_us.push((now_ns() - t0) as f64 / 1e3);
        if buf.starts_with(b"-ERR") {
            out.tally.fail(1);
        } else {
            out.tally.ok(1);
        }
    }
    let execute = Tail::of(&mut execute_us);
    out.samples.insert("execute", execute.n);
    out.samples.insert("probe_rtt", rtt.n);
    out.layers.fill("server.execute_p50_us", execute.p50, "us");
    out.layers.fill("server.execute_p99_us", execute.p99, "us");
    out.layers
        .fill("client.overhead_us", rtt.p50 - execute.p50, "us");
    harvest(archive);

    // Everything the trip sent must be served exactly.
    for t in 0..tenants {
        let union = Union::of(
            inputs
                .payloads
                .iter()
                .zip(counts.iter().copied())
                .filter(|(p, _)| p.tenant == t),
        );
        fleet::check_drain(&mut client, &tenant_name(t), &union, out);
    }
    let _ = client.quit();
    fleet::shutdown(server, out);
    for (name, (value, unit)) in trip.0 {
        out.layers.fill(name, value, unit);
    }
    e2e_ns
}
