//! In-memory spans around the harness's own calls into the layers.
//!
//! The recorder wraps calls made from this crate only (tracing inside the
//! program is a later change). A disabled recorder takes the same code
//! path and records nothing, so traced and untraced reps differ by the
//! recording alone.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one workload rep share this identifier.
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Start a new rep: later spans carry the next identifier.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
    /// per span, one track per rep, parent and self time in `args`.
    pub fn chrome_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                selfs[i] as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus what its direct children
/// cover. The harness is single-threaded, so siblings never overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 with children 10..40 and 50..70; the first child has
        // a grandchild 20..30 that must not be subtracted from the root.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn scopes_nest_and_disabled_recorder_records_nothing() {
        let mut s = Spans::new(true);
        let v = s.scope("outer", |s| s.scope("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(s.all().len(), 2);
        assert_eq!(s.all()[0].parent, None);
        assert_eq!(s.all()[1].parent, Some(0));
        assert!(s.all()[1].start_ns >= s.all()[0].start_ns);
        assert!(s.all()[1].end_ns <= s.all()[0].end_ns);
        let json = s.chrome_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));

        let mut off = Spans::new(false);
        assert_eq!(off.scope("outer", |_| 3), 3);
        assert!(off.all().is_empty());
    }
}
