//! The harness-side span recorder of the traced pass.
//!
//! A span is recorded around every call the harness makes into a layer:
//! name, start, end, the span that caused it, and a sample id shared by
//! the spans of one pass or one request. Spans stay in memory and are
//! written as one Chrome trace when the workload ends. In the untraced
//! pass the recorder still hands out durations (the harness needs them)
//! but keeps nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use pp_telemetry::trace::ArgValue;
use pp_telemetry::ChromeTrace;

/// Track of the harness's own (strictly nested) calls.
pub const TRACK_MAIN: u32 = 0;
/// Track of per-request spans (they overlap, so they are written as
/// nestable async events keyed by the request's sample id).
pub const TRACK_REQUESTS: u32 = 1;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub sample: u32,
    pub track: u32,
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    idx: Option<usize>,
    start_ns: u64,
}

impl Open {
    /// The recorded span's index (`None` in the untraced pass): the
    /// `parent` of spans added from elsewhere.
    pub fn index(&self) -> Option<usize> {
        self.idx
    }
}

pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder (= the workload process) started.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The clock every thread of the harness stamps with.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str, sample: u32) -> Open {
        let start_ns = self.now_ns();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.current(),
                sample,
                track: TRACK_MAIN,
            });
            self.spans.len() - 1
        });
        if let Some(i) = idx {
            self.open.push(i);
        }
        Open { idx, start_ns }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        if let Some(i) = open.idx {
            assert_eq!(self.open.pop(), Some(i), "spans close innermost first");
            self.spans[i].end_ns = end_ns;
        }
        end_ns - open.start_ns
    }

    /// Times `f` as one span; returns its result and duration in seconds.
    pub fn time<R>(&mut self, name: &str, sample: u32, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, sample);
        let r = f();
        let ns = self.end(open);
        (r, ns as f64 / 1e9)
    }

    /// Records a span measured elsewhere (a request's life, stamped by the
    /// load generator's threads on [`Tracer::epoch`]).
    pub fn add(
        &mut self,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        sample: u32,
    ) -> Option<usize> {
        self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent,
                sample,
                track: TRACK_REQUESTS,
            });
            self.spans.len() - 1
        })
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every child span must lie inside its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = &self.spans[p];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {} [{}, {}] leaves its parent {} [{}, {}]",
                        s.name, s.start_ns, s.end_ns, p.name, p.start_ns, p.end_ns
                    ));
                }
            }
        }
        Ok(())
    }

    /// Self time (span minus the part its children cover) summed by span
    /// name, in milliseconds. Children of one parent on the main track do
    /// not overlap, so their durations add.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), TRACK_MAIN) = (s.parent, s.track) {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            if s.track == TRACK_MAIN {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered);
                *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.name_track(TRACK_MAIN, "harness");
        t.name_track(TRACK_REQUESTS, "requests (due → received)");
        for s in &self.spans {
            let parent = s.parent.map_or("-", |p| self.spans[p].name.as_str());
            let args = vec![
                ("parent".to_string(), ArgValue::from(parent)),
                ("sample".to_string(), ArgValue::from(s.sample as u64)),
            ];
            if s.track == TRACK_MAIN {
                t.duration(
                    s.name.as_str(),
                    "ppbench",
                    s.track,
                    s.start_ns,
                    s.end_ns - s.start_ns,
                    args,
                );
            } else {
                let id = s.sample as u64;
                t.async_begin(s.name.as_str(), "request", s.track, s.start_ns, id, args);
                t.async_end(s.name.as_str(), "request", s.track, s.end_ns, id);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        let inner = t.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        t.check_nesting().unwrap();
        let own = t.self_ms_by_name();
        assert!(own["inner"] >= 2.0);
        assert!(own["outer"] < own["inner"]);
        assert!(t.to_chrome().len() >= 4);
    }

    #[test]
    fn an_escaping_child_is_reported() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        t.end(outer);
        let end = t.spans()[0].end_ns;
        t.add("late", (end, end + 10), Some(0), 1);
        assert!(t.check_nesting().is_err());
    }

    #[test]
    fn the_untraced_recorder_keeps_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let ((), s) = t.time("x", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(s >= 0.001);
        assert!(t.spans().is_empty());
        assert_eq!(t.add("r", (0, 1), None, 0), None);
    }
}
