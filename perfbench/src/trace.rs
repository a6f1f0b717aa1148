//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, their self times, and a chrome://tracing export.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover. Every span of a traced repetition descends from
//! one `pipeline` root, so the self times of a repetition sum to its wall
//! time, and the root's own self time is the unattributed remainder.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub rep: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

/// Records nested spans. A disabled tracer records nothing, so the
/// untraced repetitions run the same code at no cost.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<State>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock is never held across a panic")
    }

    /// Tag the spans that follow with repetition number `rep`.
    pub fn set_rep(&self, rep: usize) {
        if self.enabled {
            self.state().rep = rep;
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let mut st = self.state();
        let id = st.spans.len();
        let span = Span {
            name,
            parent: st.open.last().copied(),
            rep: st.rep,
            start_ns,
            end_ns: start_ns,
        };
        st.spans.push(span);
        st.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span (and any span left open inside it).
    pub fn end(&self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let mut st = self.state();
        while let Some(top) = st.open.pop() {
            st.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per repetition, the summed self time (seconds) of each span name.
pub fn self_seconds_by_rep(spans: &[Span]) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.rep).or_default().entry(s.name).or_default() += own as f64 / 1e9;
    }
    out
}

/// Per repetition, the summed duration (seconds) of each span name.
pub fn seconds_by_rep(spans: &[Span]) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.rep).or_default().entry(s.name).or_default() += s.duration_ns() as f64 / 1e9;
    }
    out
}

/// The spans as a chrome://tracing event array, with `host` (a JSON
/// object) attached as the metadata of one leading instant event.
pub fn chrome_trace_json(spans: &[Span], host: &str) -> String {
    let mut out = String::from("[\n");
    out.push_str(&format!(
        "{{\"name\":\"host\",\"ph\":\"i\",\"s\":\"g\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":{host}}}"
    ));
    for (i, (s, own)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.rep,
            own as f64 / 1e3,
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_synthetic_tree() {
        let _g = crate::tests::serial();
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90) ⊃ b1
        // [55,70), b2 [70,80).
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
            span("b1", Some(3), 55, 70),
            span("b2", Some(3), 70, 80),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![30, 20, 10, 15, 15, 10]);
        // Self times of a tree of sequential spans sum to the root's
        // duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let _g = crate::tests::serial();
        // Two concurrent children [20,60) and [40,80) cover 60 ns of [0,100).
        let spans = vec![
            span("root", None, 0, 100),
            span("c1", Some(0), 20, 60),
            span("c2", Some(0), 40, 80),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 40]);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let _g = crate::tests::serial();
        let spans = vec![span("root", None, 0, 10), span("late", Some(0), 5, 20)];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_nests_spans_and_groups_by_rep() {
        let _g = crate::tests::serial();
        let t = Tracer::new(true);
        t.set_rep(3);
        let root = t.begin("pipeline");
        let child = t.begin("child");
        t.end(child);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3));
        let by_rep = self_seconds_by_rep(&spans);
        let total: f64 = by_rep[&3].values().sum();
        let wall = seconds_by_rep(&spans)[&3]["pipeline"];
        assert!((total - wall).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = crate::tests::serial();
        let t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
