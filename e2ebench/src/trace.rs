//! In-memory span recorder for the traced run. Spans are recorded by
//! bench code around calls into each layer's public entry points, on one
//! thread, so a span's children never overlap and its self time is its
//! duration minus theirs.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

use drd_serve::json;

pub struct Span {
    pub name: &'static str,
    /// The job (flow run, serve request or simulation) the span belongs
    /// to; every span of one job shares it.
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `hit` / `miss` on `serve.execute`, empty elsewhere.
    pub tag: &'static str,
    /// Counts recorded at the span's boundary (cells added, repairs, …).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    job: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            job: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one. Opening a `job` span
    /// starts a new job id.
    pub fn enter(&self, name: &'static str) -> usize {
        if name == "job" {
            self.job.set(self.job.get() + 1);
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            job: self.job.get(),
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
            tag: "",
            counts: Vec::new(),
        });
        let id = spans.len() - 1;
        self.open.borrow_mut().push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&self, id: usize) {
        let end = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans.borrow_mut()[id].end_ns = end;
    }

    pub fn tag(&self, id: usize, tag: &'static str) {
        self.spans.borrow_mut()[id].tag = tag;
    }

    pub fn count(&self, id: usize, key: &'static str, value: f64) {
        self.spans.borrow_mut()[id].counts.push((key, value));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Self time (ns) of every span from index `from` on: duration
    /// minus the children's. A span's children come after it, so spans
    /// before `from` do not change the result.
    pub fn self_ns(&self, from: usize) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans[from..].iter().map(Span::ns).collect();
        for s in &spans[from..] {
            if let Some(p) = s.parent.and_then(|p| p.checked_sub(from)) {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"workload\":");
        json::escape_into(&mut out, workload);
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n{{\"id\":{i},\"name\":"));
            json::escape_into(&mut out, s.name);
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                ",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"tag\":",
                s.job, s.start_ns, s.end_ns
            );
            json::escape_into(&mut out, s.tag);
            out.push_str(",\"counts\":{");
            for (j, (k, v)) in s.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::escape_into(&mut out, k);
                let _ = write!(out, ":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn maybe<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_jobs_and_self_time() {
        let t = Tracer::new();
        let job = t.enter("job");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", || ());
        t.exit(job);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].job, 1);
        let own = t.self_ns(0);
        assert_eq!(own[0], spans[0].ns() - spans[1].ns() - spans[2].ns());
        drop(spans);
        json::parse(&t.to_json("w")).expect("trace JSON parses");
    }
}
