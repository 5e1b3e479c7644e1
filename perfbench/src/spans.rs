//! In-memory spans recorded around calls into the layers, exported once as
//! Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: a name, a start and an end (microseconds since the
/// recorder was created), the span that enclosed it, and the workload
/// operation it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `compiler.align`.
    pub name: &'static str,
    /// Workload operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in microseconds since the recorder's origin.
    pub start_us: f64,
    /// End, in microseconds since the recorder's origin.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A single-threaded span recorder. Spans nest by call structure: a span
/// opened inside another's closure becomes its child.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now, at operation 0.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Attribute spans opened from now on to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`.
    pub fn record<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name`, per operation
    /// (spans of one name within one operation are summed), in operation
    /// order. Operations listed in `ops` only.
    pub fn per_op_ms(&self, name: &str, ops: &[u64]) -> Vec<f64> {
        ops.iter()
            .map(|&op| {
                self.spans
                    .iter()
                    .filter(|s| s.op == op && s.name == name)
                    .map(Span::ms)
                    .sum()
            })
            .collect()
    }

    /// Self time per span name in milliseconds, summed over all spans: each
    /// span's duration minus the part its children cover. Children of one
    /// span never overlap, because recording is single-threaded.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ms) {
            *out.entry(s.name).or_insert(0.0) += s.ms() - c;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// with the operation id and parent index in `args`, and `metadata`
    /// copied verbatim as a top-level object (it must be valid JSON).
    pub fn chrome_json(&self, metadata: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"op\":{},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.op,
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{metadata}}}\n"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_op_and_derive_self_time() {
        let mut s = Spans::new();
        s.set_op(7);
        s.record("outer", |s| {
            s.record("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|x| x.op == 7));
        let selfs = s.self_times_ms();
        assert!(selfs["inner"] >= 2.0);
        assert!(selfs["outer"] < spans[0].ms());
        assert_eq!(s.per_op_ms("inner", &[7, 8])[1], 0.0);
        bp_sim::validate_json(&s.chrome_json("{}")).expect("valid chrome json");
    }
}
