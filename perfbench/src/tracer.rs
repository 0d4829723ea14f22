//! The benchmark's own spans. Every call into a layer is timed from
//! outside by [`Tracer::call`]; with tracing on, the call is also kept as
//! a span (layer, name, start, end, parent) in memory and written out
//! when the run ends. Untraced runs take the same clock readings and
//! keep nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer name of the benchmark's own glue (input copies, scrapers,
/// checks). Every other layer is a crate of the workspace.
pub const BENCH: &str = "bench";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f`, returning its value and its wall time in seconds. With
    /// tracing on, the call becomes a span of `layer`, nested under the
    /// innermost open call.
    pub fn call<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on {
            let t = Instant::now();
            let r = f();
            return (r, t.elapsed().as_secs_f64());
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        (r, (end - start) as f64 * 1e-9)
    }

    /// Index the next span will get; pair with [`Tracer::coverage`].
    pub fn next_index(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time per layer, seconds: each span's duration minus the part
    /// of it its direct children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Share of span `root`'s wall time that spans of the workspace's
    /// layers (anything but [`BENCH`]) below it cover.
    pub fn coverage(&self, root: usize) -> f64 {
        let spans = self.spans.borrow();
        let r = &spans[root];
        let below = |mut i: usize| loop {
            match spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        // Layer spans never overlap one another except by nesting, so the
        // outermost layer span on each path is what counts.
        let mut covered = 0u64;
        for (i, s) in spans.iter().enumerate().skip(root + 1) {
            let outer_layer = s.layer != BENCH
                && below(i)
                && !ancestors(&spans, i).any(|a| a != root && spans[a].layer != BENCH);
            if outer_layer {
                covered += s.dur_ns();
            }
        }
        covered as f64 / r.dur_ns().max(1) as f64
    }

    /// The spans as a Chrome `trace_event` document (complete events,
    /// microsecond timestamps), loadable in Perfetto.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut s = String::from("{\"traceEvents\": [\n");
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                sp.name.replace('"', "'"),
                sp.layer,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3
            );
            s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        s.push_str("]}\n");
        s
    }
}

fn ancestors(spans: &[Span], i: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(spans[i].parent, move |&p| spans[p].parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn untraced_calls_are_timed_but_not_kept() {
        let tr = Tracer::new(false);
        let (v, secs) = tr.call("kernels", "x", || {
            spin(2);
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.002);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nesting_self_time_and_coverage() {
        let tr = Tracer::new(true);
        let root = tr.next_index();
        tr.call(BENCH, "workload", || {
            tr.call("kernels", "lu", || {
                spin(20);
                tr.call("kernels", "inner", || spin(10));
            });
            tr.call(BENCH, "glue", || {
                spin(5);
                tr.call("mesh", "run", || spin(10));
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[4].parent, Some(3));
        let cov = tr.coverage(root);
        // 30 ms of kernels and 10 ms of mesh out of ~45 ms.
        assert!(cov > 0.75 && cov < 1.0, "coverage {cov}");
        let st = tr.self_time_by_layer();
        assert!(st["kernels"] >= 0.030 && st["kernels"] < 0.040, "{st:?}");
        assert!(st["mesh"] >= 0.010 && st["mesh"] < 0.015, "{st:?}");
        let doc = tr.chrome_json();
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), 5);
        assert!(hpcc_trace::json::parse(&doc).is_ok());
    }
}
