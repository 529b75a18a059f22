//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, pass). Spans stay in memory
//! and are written as plain JSONL when the run ends; nothing is
//! recorded inside the library. A disabled tracer records nothing, so
//! untraced passes pay one branch per call site.

use fractanet_graph::json::JsonObject;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The pass the span belongs to (its request id); `None` for the
    /// layer probes that run outside the passes.
    pub pass: Option<usize>,
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: None,
        }
    }

    /// Tags the spans that follow with a pass number (`None`: probes).
    pub fn set_pass(&mut self, pass: Option<usize>) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The spans as JSON lines, one object per span in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = JsonObject::new()
                .field_num("id", id)
                .field_str("name", s.name)
                .field_num("start_ns", s.start_ns)
                .field_num("end_ns", s.end_ns);
            o = match s.parent {
                Some(p) => o.field_num("parent", p),
                None => o.field_raw("parent", "null"),
            };
            o = match s.pass {
                Some(p) => o.field_num("pass", p),
                None => o.field_raw("pass", "null"),
            };
            out.push_str(&o.build());
            out.push('\n');
        }
        out
    }

    /// Per span name: (calls, total ns, self ns), where self time is a
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(kids);
        }
        by_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut off = Tracer::new(false);
        off.leaf("x", || ());
        assert!(off.to_jsonl().is_empty());

        let mut t = Tracer::new(true);
        t.set_pass(Some(0));
        t.enter("outer");
        t.leaf("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let st = t.self_times();
        let (calls, total, own) = st["outer"];
        assert_eq!(calls, 1);
        assert!(own < total, "child time must be subtracted");
        assert_eq!(st["inner"].1, st["inner"].2, "a leaf is all self time");
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains(r#""name":"inner""#) && jsonl.contains(r#""parent":0"#));
    }
}
