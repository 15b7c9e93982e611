//! In-memory span recorder for the traced run. Spans are recorded around
//! the benchmark's calls into each layer's public functions: name, start,
//! end and the enclosing span. Nothing is written until [`Tracer::to_json`]
//! at exit.

use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. `f` gets the tracer back to open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it covered
    /// by its direct children (children never overlap: the loop is
    /// single-threaded).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Self times (seconds) of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 * 1e-9)
            .collect()
    }

    /// All spans as a JSON array, with self times.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                    s.name, s.start_ns, s.end_ns, own[i]
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_times() {
        let mut t = Tracer::new();
        let spin = |us: u64| {
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < us as u128 {}
        };
        t.span("outer", |t| {
            spin(200);
            t.span("inner", |_| spin(300));
            t.span("inner", |_| spin(300));
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        let own = t.self_ns();
        assert_eq!(
            own[0] + s[1].end_ns - s[1].start_ns + s[2].end_ns - s[2].start_ns,
            s[0].end_ns - s[0].start_ns
        );
        assert!(own[0] >= 200_000);
        assert_eq!(t.durations("inner").len(), 2);
        let json = t.to_json();
        assert_eq!(json.matches("\"name\"").count(), 3);
        assert!(json.contains("\"parent\": null"));
    }
}
