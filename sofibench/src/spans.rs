//! The benchmark's own spans: recorded around its calls into each
//! layer, kept in memory, written out when the run ends. A disabled
//! tracer records nothing (the untraced end-to-end runs).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    /// Request (pass) the span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    /// Layer of the span: the name up to its last `.`.
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(l, _)| l)
    }

    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    request: u64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new request: spans opened from here on share its id.
    pub fn begin_request(&self) -> u64 {
        let mut st = self.state.borrow_mut();
        st.request += 1;
        st.request
    }

    /// The current request id.
    pub fn request(&self) -> u64 {
        self.state.borrow().request
    }

    /// Runs `f` inside a span named `name` (`layer.operation`).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let request = st.request;
            st.spans.push(SpanRecord {
                id,
                parent,
                request,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            st.open.push(id);
            id
        };
        let start = self.now();
        let out = f();
        let end = self.now();
        let mut st = self.state.borrow_mut();
        st.open.pop();
        let rec = &mut st.spans[id];
        rec.start_ns = start;
        rec.end_ns = end;
        out
    }

    /// Records an already-measured child span of the innermost open span
    /// (time a layer reports about itself, e.g. a telemetry span of the
    /// program, placed at the end of its parent).
    pub fn record(&self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut st = self.state.borrow_mut();
        let id = st.spans.len();
        let parent = st.open.last().copied();
        let request = st.request;
        st.spans.push(SpanRecord {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Nanoseconds since the tracer's epoch (for [`Tracer::record`]).
    pub fn clock_ns(&self) -> u64 {
        self.now()
    }

    /// Closed spans so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state.borrow().spans.clone()
    }

    /// Tab-separated dump: `request id parent name start_ns end_ns`.
    pub fn dump(&self) -> String {
        let mut out = String::from("request\tid\tparent\tname\tstart_ns\tend_ns\n");
        for s in self.state.borrow().spans.iter() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children of one parent never overlap: they are sequential
/// calls on one thread).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Self seconds per layer over the spans of `request`, with the span
/// named `root` (the pass itself) excluded.
pub fn layer_self_s(spans: &[SpanRecord], request: u64, root: &str) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(selfs) {
        if s.request == request && s.name != root {
            *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e9;
        }
    }
    out
}

/// Wall seconds of the span named `name` in `request`.
pub fn wall_s(spans: &[SpanRecord], request: u64, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.request == request && s.name == name)
        .map(|s| s.duration() as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_layers_sum() {
        let t = Tracer::new(true);
        let req = t.begin_request();
        t.span("bench.pass", || {
            t.span("campaign.scan", || {
                t.record("trace.golden", t.clock_ns(), 1_000);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let spans = t.spans();
        let selfs = self_times(&spans);
        assert_eq!(spans[2].name, "trace.golden");
        assert_eq!(selfs[2], 1_000);
        assert_eq!(selfs[1] + 1_000, spans[1].end_ns - spans[1].start_ns);
        let layers = layer_self_s(&spans, req, "bench.pass");
        assert!(layers["campaign"] > 0.0 && layers["trace"] > 0.0);
        assert!(!layers.contains_key("bench"));
        let closure = layers.values().sum::<f64>() / wall_s(&spans, req, "bench.pass");
        assert!(closure > 0.0 && closure <= 1.0);
        assert!(t.dump().lines().count() == 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a.b", || 7), 7);
        t.record("a.c", 0, 5);
        assert!(t.spans().is_empty());
    }
}
