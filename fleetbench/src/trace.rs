//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent, on the same thread) and a request id shared by the
//! spans of one payload or one query. Spans are buffered per thread,
//! collected when the run ends, and written out after timing stops.
//! Recording is off unless [`enable`] was called, so the untraced run
//! pays one relaxed load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// Nanoseconds since the process's first call; the clock of every span
/// and every open-loop schedule.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same thread's buffer.
    pub parent: Option<u32>,
    pub req: u64,
}

#[derive(Default)]
struct ThreadSpans {
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard drops"]
pub struct Guard {
    index: Option<u32>,
}

/// Open a span named `name` for request `req`.
pub fn span(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard { index: None };
    }
    let start = now_ns();
    let index = SPANS.with(|cell| {
        let mut t = cell.borrow_mut();
        let index = t.spans.len() as u32;
        let parent = t.open.last().copied();
        t.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        t.open.push(index);
        index
    });
    Guard { index: Some(index) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = now_ns();
            SPANS.with(|cell| {
                let mut t = cell.borrow_mut();
                t.spans[index as usize].end = end;
                t.open.pop();
            });
        }
    }
}

/// Hand this thread's spans to the collector (call before a recording
/// thread exits).
pub fn flush() {
    let spans = SPANS.with(|cell| std::mem::take(&mut cell.borrow_mut().spans));
    if !spans.is_empty() {
        COLLECTED
            .lock()
            .expect("span collector poisoned by a panicking thread")
            .push(spans);
    }
}

/// Every flushed buffer, emptying the collector.
pub fn take_all() -> Vec<Vec<Span>> {
    flush();
    std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("span collector poisoned by a panicking thread"),
    )
}

/// Self time of each span of one thread's buffer: its duration minus the
/// part of its interval covered by at least one child. Children may
/// overlap each other; covered time counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end - span.start;
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered
        })
        .collect()
}

/// Per-name totals over all buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(buffers: &[Vec<Span>]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for spans in buffers {
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end - span.start;
            t.self_ns += self_ns;
        }
    }
    out
}

/// Write up to `limit` spans as CSV (`thread,index,name,start_ns,end_ns,
/// parent,req`); returns how many were written.
pub fn write_csv(
    path: &std::path::Path,
    buffers: &[Vec<Span>],
    limit: usize,
) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,index,name,start_ns,end_ns,parent,req")?;
    let mut written = 0;
    'outer: for (thread, spans) in buffers.iter().enumerate() {
        for (index, s) in spans.iter().enumerate() {
            if written == limit {
                break 'outer;
            }
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{thread},{index},{},{},{},{parent},{}",
                s.name, s.start, s.end, s.req
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_overlapping_children() {
        let spans = [
            s("root", 0, 100, None),
            s("a", 10, 40, Some(0)),  // covers 10..40
            s("b", 30, 60, Some(0)),  // overlaps a: adds 40..60
            s("c", 90, 120, Some(0)), // clipped to 90..100
            s("a.child", 15, 20, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - (50 + 10));
        assert_eq!(st[1], 30 - 5);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 30);
        assert_eq!(st[4], 5);
    }

    #[test]
    fn nested_and_disjoint_children() {
        let spans = [
            s("root", 0, 100, None),
            s("x", 20, 30, Some(0)),
            s("y", 22, 28, Some(0)), // inside x: adds nothing
            s("z", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30);
        let totals = summarize(&[spans.to_vec()]);
        assert_eq!(totals["root"].self_ns, 70);
        assert_eq!(totals["x"].count, 1);
        assert_eq!(totals["z"].total_ns, 20);
    }

    #[test]
    fn guards_record_parents_per_thread() {
        enable(true);
        std::thread::spawn(|| {
            {
                let _outer = span("outer", 7);
                let _inner = span("inner", 7);
            }
            drop(span("outer", 8));
            flush();
        })
        .join()
        .expect("span thread");
        enable(false);
        let buffers: Vec<Vec<Span>> = take_all()
            .into_iter()
            .filter(|b| b.iter().any(|s| s.name == "inner"))
            .collect();
        let spans = &buffers[0];
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[2].req, 8);
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
