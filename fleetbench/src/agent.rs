//! `agent`: one thread, no server. Seeded batches of raw values go
//! through `add_slice` and `encode`, the way an agent flushes a window.

use std::collections::BTreeMap;

use ddsketch::AnyDDSketch;
use evalkit::ExactOracle;

use crate::fleet::timed_setup;
use crate::gen::{self, Batch, Payload};
use crate::stats::{median, sliced_tail, SLICE_NS};
use crate::trace::{self, now_ns};
use crate::verify::quantile_grid;
use crate::{alloc, Outcome, ProbeInputs};

pub fn agent(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (setup_s, schedule) =
        timed_setup(crate::fleet::SETUP_REPEATS, || gen::agent_schedule(seed));
    let mut out = Outcome::new(setup_s);
    let mut sketch = gen::new_sketch();
    let mut first_pass: Vec<Vec<u8>> = Vec::with_capacity(schedule.len());
    let mut latency_us = Vec::new();
    // Every repeat's time of every batch of the schedule, in ns.
    let mut repeats: Vec<Vec<u64>> = vec![Vec::new(); schedule.len()];
    let (mut batches, mut values) = (0u64, 0u64);
    let mut wrong_len = 0u64;
    alloc::set_counting(traced);
    let allocs = alloc::allocations();
    let start = now_ns();
    let deadline = start + (seconds * 1e9) as u64;
    'run: loop {
        for (i, batch) in schedule.iter().enumerate() {
            let t0 = now_ns();
            let bytes = {
                let _batch = trace::span("agent.batch", batches);
                sketch.clear();
                let added = {
                    let _s = trace::span("sketch.add_slice", batches);
                    sketch.add_slice(&batch.values)
                };
                if added.is_err() {
                    out.tally.fail(1);
                    continue;
                }
                let _s = trace::span("codec.encode", batches);
                sketch.encode()
            };
            let t1 = now_ns();
            latency_us.push((t1, (t1 - t0) as f64 / 1e3));
            repeats[i].push(t1 - t0);
            batches += 1;
            values += batch.values.len() as u64;
            if first_pass.len() < schedule.len() {
                first_pass.push(bytes);
            } else if first_pass[i].len() != bytes.len() {
                // Same values, same configuration: the encoding repeats.
                wrong_len += 1;
            }
        }
        if now_ns() >= deadline {
            break 'run;
        }
    }
    alloc::set_counting(false);
    trace::flush();
    out.tally.ok(batches);
    if wrong_len > 0 {
        out.tally.mark_failed(wrong_len);
        out.problem(format!("{wrong_len} re-encoded batches changed length"));
    }
    if traced {
        out.layers.put(
            "alloc.per_payload",
            (alloc::allocations() - allocs) as f64 / batches.max(1) as f64,
            "1/payload",
        );
    }
    check(&schedule, &first_pass, &mut out);
    // A single thread on a shared host runs up to twice as slow while a
    // neighbour is busy. Each batch repeats many times over the run, and
    // its fastest repeat is the cost of the code itself.
    let best: Vec<f64> = repeats
        .iter()
        .map(|r| r.iter().copied().min().expect("every batch ran") as f64)
        .collect();
    let middle: Vec<f64> = repeats
        .iter()
        .map(|r| median(&r.iter().map(|&t| t as f64).collect::<Vec<_>>()))
        .collect();
    let pass_values: usize = schedule.iter().map(|b| b.values.len()).sum();
    out.note(format!(
        "agent: median-repeat rate {:.6e} values/s, p50 {:.3} us",
        pass_values as f64 * 1e9 / middle.iter().sum::<f64>(),
        median(&middle) / 1e3
    ));
    out.put(
        "ops_per_s",
        pass_values as f64 * 1e9 / best.iter().sum::<f64>(),
        "1/s",
    );
    out.put("op_p50_us", median(&best) / 1e3, "us");
    out.samples.insert(
        "agent_repeats",
        repeats.iter().map(Vec::len).min().unwrap_or(0),
    );
    out.put_tail(sliced_tail(&latency_us, start, SLICE_NS));
    out.put("peak_rss_mb", crate::fleet::peak_rss_mb(), "MiB");
    let pass_bytes: usize = first_pass.iter().map(Vec::len).sum();
    out.put(
        "wire_bytes_per_value",
        pass_bytes as f64 / pass_values as f64,
        "B",
    );
    out.note(format!(
        "agent: {batches} batches, {values} values; schedule of {} batches, {pass_values} values",
        schedule.len()
    ));
    let payloads = schedule
        .iter()
        .zip(&first_pass)
        .map(|(b, bytes)| Payload {
            tenant: 0,
            metric: gen::metric_name(0, b.metric),
            ts: b.window,
            values: b.values.clone(),
            weight: None,
            bytes: bytes.clone(),
            bins: AnyDDSketch::decode(bytes).map_or(0, |s| s.num_bins()),
        })
        .collect();
    out.probe = Some(ProbeInputs {
        batches: schedule.into_iter().map(|b| b.values).collect(),
        payloads,
        lines: gen::query_lines(seed, 1, gen::AGENT_METRICS),
        e2e_ns_per_payload: None,
    });
    out
}

/// Merge each metric's payloads (and all of them) and score the merged
/// quantiles against the exact data.
fn check(schedule: &[Batch], payloads: &[Vec<u8>], out: &mut Outcome) {
    let grid = quantile_grid();
    let mut per_metric: BTreeMap<usize, (AnyDDSketch, Vec<f64>)> = BTreeMap::new();
    let mut all = (gen::new_sketch(), Vec::new());
    for (batch, bytes) in schedule.iter().zip(payloads) {
        let decoded = match AnyDDSketch::decode(bytes) {
            Ok(s) => s,
            Err(e) => {
                out.tally.mark_failed(1);
                out.problem(format!("payload does not decode: {e}"));
                continue;
            }
        };
        let entry = per_metric
            .entry(batch.metric)
            .or_insert_with(|| (gen::new_sketch(), Vec::new()));
        for (sketch, values) in [&mut *entry, &mut all] {
            sketch.merge_from(&decoded).expect("one configuration");
            values.extend_from_slice(&batch.values);
        }
    }
    for (sketch, values) in per_metric.into_values().chain(std::iter::once(all)) {
        let oracle = ExactOracle::new(values);
        let served = sketch.quantiles(&grid).expect("non-empty merge");
        let worst = grid
            .iter()
            .zip(&served)
            .map(|(&q, &v)| oracle.relative_error(q, v))
            .fold(0.0, f64::max);
        out.rel_errors.push(worst);
    }
}
