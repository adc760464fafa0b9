//! Expected answers, computed from scratch in-process from the raw values
//! behind every payload sent: the union sketches a served answer must
//! equal bit for bit, the exact counts, and the exact quantiles that
//! bound the relative error.

use std::collections::BTreeMap;

use ddsketch::{AnyDDSketch, AnyWeightedDDSketch};

use crate::gen::{new_sketch, sketch_config, Payload};

/// The quantiles checked against the from-scratch union at every drain
/// and scored against the exact data: 0.01, 0.02, …, 0.99 and 0.999. A
/// dense grid makes the worst relative error a steady figure (the
/// maximum of many near-uniform draws on `[0, α]`) instead of the
/// luck of four ranks.
pub fn quantile_grid() -> Vec<f64> {
    let mut qs: Vec<f64> = (1..100).map(|i| f64::from(i) / 100.0).collect();
    qs.push(0.999);
    qs
}

/// Render floats the way the query protocol does (shortest round trip).
pub fn render(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Everything a set of payloads, each paired with how often it was sent, adds up
/// to on the server.
pub struct Union {
    pub integer: AnyDDSketch,
    pub weighted: AnyWeightedDDSketch,
    pub count: u64,
    /// `(value, multiplicity)` of every integer-plane value, for exact
    /// quantiles.
    exact: Vec<(f64, u64)>,
}

impl Union {
    pub fn of<'a>(sent: impl Iterator<Item = (&'a Payload, u64)>) -> Union {
        let mut union = Union {
            integer: new_sketch(),
            weighted: AnyWeightedDDSketch::new(sketch_config()).expect("valid sketch config"),
            count: 0,
            exact: Vec::new(),
        };
        for (payload, times) in sent {
            if times == 0 {
                continue;
            }
            let weight = f64::from(payload.weight.unwrap_or(1)) * times as f64;
            for &v in &payload.values {
                union
                    .weighted
                    .add_with_count(v, weight)
                    .expect("dataset values are finite");
            }
            if payload.weight.is_none() {
                union.count += payload.values.len() as u64 * times;
                if times == 1 {
                    union.integer.add_slice(&payload.values)
                } else {
                    payload
                        .values
                        .iter()
                        .try_for_each(|&v| union.integer.add_with_count(v, times))
                }
                .expect("dataset values are finite");
                union
                    .exact
                    .extend(payload.values.iter().map(|&v| (v, times)));
            }
        }
        union.exact.sort_by(|a, b| a.0.total_cmp(&b.0));
        union
    }

    /// The exact lower q-quantile of the integer plane: the value whose
    /// cumulative multiplicity first exceeds rank `q · (n − 1)`.
    pub fn exact_quantile(&self, q: f64) -> f64 {
        let target = q * (self.count.saturating_sub(1)) as f64;
        let mut cum = 0u64;
        for &(v, k) in &self.exact {
            cum += k;
            if cum as f64 > target {
                return v;
            }
        }
        self.exact.last().expect("non-empty union").0
    }

    /// Largest relative error of `served` (answers at `qs`) against the
    /// exact quantiles.
    pub fn max_relative_error(&self, qs: &[f64], served: &[f64]) -> f64 {
        qs.iter()
            .zip(served)
            .map(|(&q, &est)| {
                let exact = self.exact_quantile(q);
                (est - exact).abs() / exact.abs()
            })
            .fold(0.0, f64::max)
    }
}

/// The response body (after `+OK `) each distinct query line must get
/// from a quiesced server holding exactly `preload`.
pub fn expected_answers(preload: &[Payload], lines: &[String]) -> Vec<String> {
    let mut tenants: BTreeMap<String, Vec<&Payload>> = BTreeMap::new();
    for p in preload {
        tenants
            .entry(crate::gen::tenant_name(p.tenant))
            .or_default()
            .push(p);
    }
    let unions: BTreeMap<&str, Union> = tenants
        .iter()
        .map(|(t, ps)| (t.as_str(), Union::of(ps.iter().map(|&p| (p, 1)))))
        .collect();
    // (tenant, metric) → window → integer cell sketch.
    let mut cells: BTreeMap<(String, &str), BTreeMap<u64, AnyDDSketch>> = BTreeMap::new();
    for p in preload.iter().filter(|p| p.weight.is_none()) {
        let window = p.ts - p.ts % sketchd::ServerConfig::default().window_secs;
        cells
            .entry((crate::gen::tenant_name(p.tenant), p.metric.as_str()))
            .or_default()
            .entry(window)
            .or_insert_with(new_sketch)
            .add_slice(&p.values)
            .expect("dataset values are finite");
    }
    lines
        .iter()
        .map(|line| {
            let words: Vec<&str> = line.split_ascii_whitespace().collect();
            let qs = |from: usize| -> Vec<f64> {
                words[from..]
                    .iter()
                    .map(|w| w.parse().expect("generated q"))
                    .collect()
            };
            let union = &unions[words[1]];
            match words[0] {
                "COUNT" => union.count.to_string(),
                "QUANTILE" => render(&union.integer.quantiles(&qs(2)).expect("non-empty union")),
                "WQUANTILE" => render(&union.weighted.quantiles(&qs(2)).expect("non-empty union")),
                "SERIES" => {
                    let q: f64 = words[3].parse().expect("generated q");
                    cells
                        .get(&(words[1].to_string(), words[2]))
                        .map(|windows| {
                            windows
                                .iter()
                                .map(|(w, s)| {
                                    format!("{w}={:?}", s.quantile(q).expect("non-empty cell"))
                                })
                                .collect::<Vec<_>>()
                                .join(" ")
                        })
                        .unwrap_or_default()
                }
                other => panic!("generator produced an unknown verb {other}"),
            }
        })
        .collect()
}
