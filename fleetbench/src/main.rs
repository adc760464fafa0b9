//! `fleetbench`: the benchmark of the DDSketch workspace. One command runs
//! one workload at one seed, checks every answer, and prints every
//! metric by name with its unit; the last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path fleetbench/Cargo.toml -- \
//!     --workload <agent|ingest|query|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! workload untraced, then traced with spans around every call into a
//! layer, then the layer probe, and reports the per-layer metrics and the
//! tracing overhead. See `fleetbench/README.md`.

mod agent;
mod alloc;
mod fleet;
mod gen;
mod layers;
mod rng;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use stats::Tally;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("wire_bytes_per_value", "B"),
    ("quantile_rel_err_max", "ratio"),
];

/// Per-layer metrics of the traced run.
const PER_LAYER: [&str; 41] = [
    "mapping.index_ns_per_value",
    "store.add_ns_per_value",
    "sketch.add_slice_ns_per_value",
    "sketch.fused_residual_ns_per_value",
    "sketch.bins_per_payload",
    "codec.bytes_per_payload",
    "codec.encode_ns_per_payload",
    "agent.send_ns_per_payload",
    "codec.decode_ns_per_payload",
    "codec.decode_weighted_ns_per_payload",
    "window.absorb_ns_per_payload",
    "aggregator.feed_ns_per_payload",
    "aggregator.fold_ns_per_payload",
    "aggregator.folds_per_payload",
    "weighted_aggregator.feed_ns_per_payload",
    "server.residual_ns_per_payload",
    "server.backpressure_waits_per_payload",
    "server.ingest_suspensions_per_payload",
    "reactor.wakeups_per_payload",
    "reactor.events_per_payload",
    "readplane.rebuilds_per_payload",
    "readplane.rebuilds_per_query",
    "readplane.staleness_max",
    "readplane.cache_hit_ratio",
    "readplane.count_staleness_p99_ms",
    "server.execute_p50_us",
    "server.execute_p99_us",
    "client.overhead_us",
    "sketch.merged_quantiles_us",
    "window.quantile_series_us",
    "alloc.per_payload",
    "alloc.per_query",
    "generator.late_p99_ms",
    "base.payloads",
    "base.queries",
    "base.cache_lookups",
    "trace.overhead_ops_per_s",
    "trace.overhead_op_p50_us",
    "trace.spans",
    "tail.op_p90_us",
    "tail.op_p99_us",
];

/// The workload's relative error must stay within the sketch's α.
const ALPHA_BOUND: f64 = 0.01;

/// Named metric values with units.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Layers {
    /// Set `name`, replacing an earlier value.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    /// Set `name` unless it is already set.
    pub fn fill(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.entry(name).or_insert((value, unit));
    }
}

/// The inputs a workload hands to the traced run's layer probe.
pub struct ProbeInputs {
    /// Raw value batches (the agent's schedule); empty means "the
    /// payloads' values".
    pub batches: Vec<Vec<f64>>,
    pub payloads: Vec<gen::Payload>,
    pub lines: Vec<String>,
    /// End-to-end ns per payload to split into layers (the untraced
    /// `ingest` rate); `None` uses the probe's own closed-loop trip.
    pub e2e_ns_per_payload: Option<f64>,
}

/// Everything one run of one workload measured and checked.
pub struct Outcome {
    pub metrics: Layers,
    pub layers: Layers,
    pub tally: Tally,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// Sample counts behind each percentile.
    pub samples: BTreeMap<&'static str, usize>,
    /// Worst relative error of each checked merge or served answer.
    pub rel_errors: Vec<f64>,
    pub probe: Option<ProbeInputs>,
    pub spans: Vec<Vec<trace::Span>>,
}

impl Outcome {
    pub fn new(setup_s: f64) -> Self {
        let mut metrics = Layers::default();
        metrics.put("setup_s", setup_s, "s");
        Self {
            metrics,
            layers: Layers::default(),
            tally: Tally::default(),
            problems: Vec::new(),
            notes: Vec::new(),
            samples: BTreeMap::new(),
            rel_errors: Vec::new(),
            probe: None,
            spans: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.put(name, value, unit);
    }

    /// Report the sliced latency figures; a run without one slice whose
    /// p99 has ten samples beyond it fails (the workloads are sized to
    /// make thousands per slice). The p90 and p99 are per-layer figures:
    /// on a shared host they move with the host's stalls by whole-run
    /// factors, far more than with the program.
    pub fn put_tail(&mut self, tail: Option<stats::Sliced>) {
        match tail {
            Some(t) => {
                self.metrics.fill("op_p50_us", t.p50, "us");
                self.layers.put("tail.op_p90_us", t.p90, "us");
                self.layers.put("tail.op_p99_us", t.p99, "us");
                self.samples.insert("op_latency", t.n);
                self.samples.insert("op_latency_slices", t.slices);
                self.note(format!(
                    "op latency: median per-slice p99 {:.3} us (slices range {:.3} to {:.3} us)",
                    t.p99, t.p99_range.0, t.p99_range.1
                ));
            }
            None => self.problem("too few latency samples for a p99".into()),
        }
    }

    /// Report the median of per-slice rates.
    pub fn put_rate(&mut self, rates: &[f64]) {
        if rates.is_empty() {
            self.problem("run too short for one full throughput slice".into());
            return;
        }
        self.put("ops_per_s", stats::median(rates), "1/s");
        self.samples.insert("throughput_slices", rates.len());
        let (lo, hi) = rates.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
        self.note(format!("per-slice ops/s: min {lo:.6e}, max {hi:.6e}"));
    }

    pub fn put_wire(&mut self, payloads: &[gen::Payload]) {
        let bytes: usize = payloads.iter().map(|p| p.bytes.len()).sum();
        let values: usize = payloads.iter().map(|p| p.values.len()).sum();
        self.put("wire_bytes_per_value", bytes as f64 / values as f64, "B");
    }

    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }

    /// Fold the relative errors into `quantile_rel_err_max` and check it.
    fn finish(&mut self) {
        match self.rel_errors.iter().copied().reduce(f64::max) {
            Some(worst) => {
                self.put("quantile_rel_err_max", worst, "ratio");
                if worst > ALPHA_BOUND {
                    self.tally.mark_failed(1);
                    self.problem(format!("relative error {worst} exceeds α = {ALPHA_BOUND}"));
                }
            }
            None => self.problem("no answer was scored against the exact data".into()),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

type Workload = fn(u64, f64, bool) -> Outcome;

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "agent" => agent::agent,
        "ingest" => fleet::ingest,
        "query" => fleet::query,
        "mixed" => fleet::mixed,
        _ => return None,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            eprintln!("usage: fleetbench --workload <agent|ingest|query|mixed> --seed <n> --seconds <s> --trace <0|1>");
            return 2;
        }
    };
    let Some(run_workload) = workload(&args.workload) else {
        eprintln!("fleetbench: unknown workload {:?}", args.workload);
        return 2;
    };
    trace::now_ns();

    let mut base = run_workload(args.seed, args.seconds, false);
    base.finish();
    let mut report: Vec<(&str, f64, &str)> = Vec::new();
    let mut all_problems: Vec<String> = base
        .problems
        .iter()
        .map(|p| format!("untraced: {p}"))
        .collect();
    let mut tally = base.tally;
    let mut notes = base.notes.clone();
    let mut samples = base.samples.clone();

    if !args.trace {
        for (name, unit) in END_TO_END {
            match base.metrics.0.get(name) {
                Some(&(value, _)) => report.push((name, value, unit)),
                None => all_problems.push(format!("metric {name} was not measured")),
            }
        }
    } else {
        trace::enable(true);
        let mut traced = run_workload(args.seed, args.seconds, true);
        let live = trace::take_all();
        let live_totals = trace::summarize(&live);
        if let Some(t) = live_totals.get("agent.send_encoded") {
            traced.layers.put(
                "agent.send_ns_per_payload",
                t.total_ns as f64 / t.count as f64,
                "ns/payload",
            );
        }
        traced.spans.extend(live);
        if let Some(mut inputs) = traced.probe.take() {
            if args.workload == "ingest" {
                inputs.e2e_ns_per_payload = base.metrics.0.get("ops_per_s").map(|&(r, _)| 1e9 / r);
            }
            layers::probe(inputs, args.seed, &mut traced);
        }
        trace::enable(false);
        traced.finish();
        println!(
            "tracing overhead ({}), traced minus untraced:",
            args.workload
        );
        for (name, unit) in END_TO_END {
            let (Some(&(b, _)), Some(&(t, _))) =
                (base.metrics.0.get(name), traced.metrics.0.get(name))
            else {
                continue;
            };
            println!(
                "  {name:<22} untraced {b:>14.4} {unit:<6} traced {t:>14.4} {unit:<6} diff {:>+12.4} ({:+.2}%)",
                t - b,
                100.0 * (t - b) / b
            );
            let key = match name {
                "ops_per_s" => "trace.overhead_ops_per_s",
                "op_p50_us" => "trace.overhead_op_p50_us",
                _ => continue,
            };
            traced.layers.put(key, (t - b) / b, "ratio");
        }
        for name in ["tail.op_p90_us", "tail.op_p99_us"] {
            if let Some(&(value, unit)) = base.layers.0.get(name) {
                traced.layers.put(name, value, unit);
            }
        }
        let span_count: usize = traced.spans.iter().map(Vec::len).sum();
        traced.layers.put("trace.spans", span_count as f64, "count");
        println!("span self time by name (traced run):");
        for (name, t) in trace::summarize(&traced.spans) {
            println!(
                "  {name:<34} count {:>9} total {:>12.3} ms self {:>12.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let dir = std::path::Path::new(".bench_out");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("spans-{}-{}.csv", args.workload, args.seed));
            match trace::write_csv(&path, &traced.spans, 200_000) {
                Ok(n) => notes.push(format!(
                    "{n} of {span_count} spans written to {}",
                    path.display()
                )),
                Err(e) => notes.push(format!("spans not written: {e}")),
            }
        }
        for name in PER_LAYER {
            match traced.layers.0.get(name) {
                Some(&(value, unit)) => report.push((name, value, unit)),
                None => all_problems.push(format!("per-layer metric {name} was not measured")),
            }
        }
        all_problems.extend(traced.problems.iter().map(|p| format!("traced: {p}")));
        tally.merge(traced.tally);
        notes.extend(traced.notes.iter().cloned());
        for (k, v) in &traced.samples {
            samples.insert(k, *v);
        }
    }

    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {}, \"rustc\": {}, \"git_rev\": {}, \"samples\": {{{}}}, \"error_rate\": {}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        samples
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", "),
        json_num(tally.error_rate()),
    );
    for note in &notes {
        println!("note: {note}");
    }
    for problem in &all_problems {
        println!("FAILED CHECK: {problem}");
    }
    println!("run: {meta}");
    let correct = all_problems.is_empty() && tally.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&report)
    );
    let dir = std::path::Path::new(".bench_out");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!(
            "result-{}-{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        let _ = std::fs::write(path, format!("{{\"run\": {meta}, \"result\": {result}}}\n"));
    }
    println!("{result}");
    if correct {
        0
    } else {
        1
    }
}
