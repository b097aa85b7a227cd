//! Spans recorded by the benchmark around the public calls it makes.
//! They are kept in memory and written out when the run ends.

use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `html.parse_page`.
    pub name: &'static str,
    /// Seconds since the run's epoch.
    pub start: f64,
    /// Seconds since the run's epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request, page or pass id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when tracing is on; otherwise only runs the closures.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span (meaningless when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The span index, to pass as a parent.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is tracing on?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicked thread")
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.now();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
        Open(Some(spans.len() - 1))
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, span: Open) {
        if let Some(i) = span.0 {
            let end = self.now();
            self.spans()[i].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, parent, id);
        let out = f();
        self.close(s);
        out
    }

    /// Record a span whose times were measured elsewhere.
    pub fn record(&self, name: &'static str, start: f64, end: f64, parent: Option<usize>, id: u64) {
        if self.on {
            self.spans().push(Span {
                name,
                start,
                end,
                parent,
                id,
            });
        }
    }

    /// Total seconds and count of spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
    }

    /// Seconds of `[from, to]` not covered by any top-level span.
    pub fn unaccounted(&self, from: f64, to: f64) -> f64 {
        let mut top: Vec<(f64, f64)> = self
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start.max(from), s.end.min(to)))
            .filter(|(a, b)| b > a)
            .collect();
        top.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = from;
        for (a, b) in top {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        (to - from) - covered
    }

    /// All spans as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent},\"id\":{}}}\n",
                s.name, s.start, s.end, s.id
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_runs_the_work() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", None, 0, || 7), 7);
        assert_eq!(t.total("x"), (0.0, 0));
    }

    #[test]
    fn unaccounted_subtracts_the_union_of_top_level_spans() {
        let t = Tracer::new(true);
        t.record("a", 1.0, 3.0, None, 0);
        t.record("b", 2.0, 4.0, None, 0);
        t.record("child", 1.0, 9.0, Some(0), 0);
        t.record("c", 6.0, 7.0, None, 0);
        // [0, 10] minus [1, 4] and [6, 7].
        assert!((t.unaccounted(0.0, 10.0) - 6.0).abs() < 1e-12);
        assert_eq!(t.total("child"), (8.0, 1));
    }
}
