//! Timing and tracing of the calls the benchmark makes into the program.
//!
//! Every call into a program crate goes through [`Probe::call`], which
//! times it with [`Instant`] (ns resolution).  In a traced round the probe
//! also records a [`Span`] per call — name, start, end and parent span —
//! in memory; the run writes the spans of its first traced round out at
//! the end and folds every traced round into per-layer totals.
//!
//! Span names are `layer.call`, the layer being the crate the call enters
//! (`concurrent`, `store`, `netsim`, ...); spans the benchmark opens around
//! its own bookkeeping use the layer `bench`.
//!
//! Timestamps come from [`now_ns`], an [`Instant`] read.  Each call costs
//! two clock reads, and the time between two spans is mostly those reads,
//! so the clock's cost bounds how much of the timed phase the spans can
//! cover.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

static BASE: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns since the first [`now_ns`].
    pub start_ns: u64,
    /// End, ns since the first [`now_ns`].
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// The layer (crate) the span's call entered.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Op latencies, failure count and (when tracing) spans of one round.
pub struct Probe {
    /// Latencies of the workload's primary operation, ns.
    pub lat_ns: Vec<u64>,
    /// Operations that failed.
    pub failed: u64,
    /// Operations attempted besides the primary ones; they have no
    /// latency sample (durable-ingest's recoveries).
    pub other_attempted: u64,
    /// Time inside the round excluded from the timed phase (inline checks).
    pub paused_ns: u64,
    spans: Option<Vec<Span>>,
    open: Vec<u32>,
}

impl Probe {
    /// A probe; `trace` turns span recording on.
    pub fn new(trace: bool) -> Self {
        Self::with_capacity(trace, 0, 0)
    }

    /// A probe with room for `ops` op samples and `spans` spans, so that
    /// growing its buffers does not land in the timed phase.
    pub fn with_capacity(trace: bool, ops: usize, spans: usize) -> Self {
        Probe {
            lat_ns: Vec::with_capacity(ops),
            failed: 0,
            other_attempted: 0,
            paused_ns: 0,
            spans: trace.then(|| Vec::with_capacity(spans)),
            open: Vec::new(),
        }
    }

    /// `true` iff spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    /// Runs `f` — one public call into the program — and returns its
    /// result with its duration in ns.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = now_ns();
        let result = f();
        let end_ns = now_ns();
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
            });
        }
        (result, end_ns.saturating_sub(start_ns))
    }

    /// Two back-to-back calls, the second taking the first's result, timed
    /// with three clock reads instead of four: the read between them ends
    /// the first span and starts the second.  Returns the second's result
    /// and both durations in ns.
    #[inline]
    pub fn call_pair<A, B>(
        &mut self,
        first: &'static str,
        fa: impl FnOnce() -> A,
        second: &'static str,
        fb: impl FnOnce(A) -> B,
    ) -> (B, u64, u64) {
        let t0 = now_ns();
        let a = fa();
        let t1 = now_ns();
        let b = fb(a);
        let t2 = now_ns();
        if let Some(spans) = &mut self.spans {
            let parent = self.open.last().copied();
            for (name, start_ns, end_ns) in [(first, t0, t1), (second, t1, t2)] {
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns,
                    parent,
                });
            }
        }
        (b, t1.saturating_sub(t0), t2.saturating_sub(t1))
    }

    /// [`call`](Self::call) for a primary operation: its latency is
    /// recorded as an op sample.
    #[inline]
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (result, ns) = self.call(name, f);
        self.lat_ns.push(ns);
        result
    }

    /// Opens an enclosing span (the benchmark's own grouping, e.g. one
    /// scenario cell); close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = now_ns();
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push((spans.len() - 1) as u32);
        }
    }

    /// Closes the innermost span opened by [`enter`](Self::enter).
    pub fn exit(&mut self) {
        let end_ns = now_ns();
        if let (Some(spans), Some(idx)) = (&mut self.spans, self.open.pop()) {
            spans[idx as usize].end_ns = end_ns;
        }
    }

    /// Renames the most recent span (a call whose kind is known only
    /// after it returned, such as an ingest that pruned).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.as_mut().and_then(|s| s.last_mut()) {
            span.name = name;
        }
    }

    /// Runs `f` outside the timed phase (inline checks between ops).
    pub fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let result = f();
        self.paused_ns += now_ns().saturating_sub(start_ns);
        result
    }

    /// The recorded spans (empty when not tracing).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Per-layer totals folded from the spans of traced rounds.
#[derive(Default)]
pub struct SpanTotals {
    /// Total duration (s) and count per span name.
    pub by_name: BTreeMap<&'static str, (f64, u64)>,
    /// Self time (s) and call count per program layer.
    pub by_layer: BTreeMap<&'static str, (f64, u64)>,
    /// Time (s) inside outermost program calls — the covered share of the
    /// timed phase.
    pub covered_s: f64,
}

impl SpanTotals {
    /// Folds one round's spans in.
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.duration_ns();
            }
        }
        for (i, span) in spans.iter().enumerate() {
            let secs = span.duration_ns() as f64 * 1e-9;
            let entry = self.by_name.entry(span.name).or_default();
            entry.0 += secs;
            entry.1 += 1;
            if span.layer() == "bench" {
                continue;
            }
            let self_s = span.duration_ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
            let layer = self.by_layer.entry(span.layer()).or_default();
            layer.0 += self_s;
            layer.1 += 1;
            let outermost = span
                .parent
                .is_none_or(|p| spans[p as usize].layer() == "bench");
            if outermost {
                self.covered_s += secs;
            }
        }
    }
}

/// Renders spans as JSON lines: `{"name", "start_ns", "end_ns", "parent"}`.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 64);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
            span.name, span.start_ns, span.end_ns, parent
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_outermost_calls() {
        let spans = vec![
            Span {
                name: "bench.cell",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "netsim.run",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "core.sc_check",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
            },
        ];
        let mut totals = SpanTotals::default();
        totals.add(&spans);
        assert!((totals.covered_s - 80e-9).abs() < 1e-15);
        assert_eq!(totals.by_layer["netsim"].1, 1);
        assert!((totals.by_name["bench.cell"].0 - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn untraced_probe_records_latencies_but_no_spans() {
        let mut probe = Probe::new(false);
        let v = probe.op("concurrent.read", || 7);
        assert_eq!(v, 7);
        assert_eq!(probe.lat_ns.len(), 1);
        assert!(probe.spans().is_empty());
    }
}
