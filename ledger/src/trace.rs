//! Harness-side spans: one per call into a layer, recorded around the
//! call from outside the system under test, kept in memory, written as
//! JSON when the run ends. Spans *inside* the program are a later change
//! (ROADMAP item 1); until then a layer's self time is its entry point's
//! span minus the next-inner entry point's on the same request.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when enabled; when disabled every call is a branch and
/// nothing else, so the same loop runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id as usize].end_us = self.now_us();
        }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Writes the spans as one JSON array of
    /// `{"name","request","parent","start_us","end_us"}` objects, in
    /// recording order; `parent` is an index into the array or `null`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}{}",
                s.name, s.request, parent, s.start_us, s.end_us, comma
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.start("request", NO_PARENT, 7);
        let child = t.within("stage", root, 7, t_sleep);
        t.end(root);
        assert_eq!(child, 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_us <= spans[1].start_us);
        assert!(spans[1].end_us <= spans[0].end_us);
        assert!(spans[1].duration_us() > 0.0);
        assert_eq!(t.durations_us("stage").len(), 1);
    }

    fn t_sleep() -> u32 {
        std::thread::sleep(std::time::Duration::from_micros(200));
        1
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.start("request", NO_PARENT, 1);
        t.end(id);
        assert_eq!(t.within("stage", id, 1, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
