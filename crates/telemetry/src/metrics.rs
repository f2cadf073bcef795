//! Service-level metrics: a registry of named, label-tagged series with
//! Prometheus text exposition.
//!
//! [`crate::timing`] instruments *one run*; a resident service needs the
//! complementary shape: counters and latency distributions that accumulate
//! across queries, keyed by labels (`{algo="bfs", outcome="ok"}`), and
//! answer both "since boot" and "over the last minute". Three series
//! kinds live in a [`MetricsRegistry`]:
//!
//! * **Counters** — monotonic `u64` totals (`pp_serve_queries_total`).
//! * **Gauges** — last-written `f64` levels (`pp_serve_queue_depth`).
//! * **Windowed histograms** — a cumulative [`LogHistogram`] *plus* a ring
//!   of `N` time-bucketed histograms ([`WindowedHistogram`]), so the same
//!   series yields a since-boot p99 and a last-`N×width` p99. Buckets
//!   rotate lazily on record/read; an idle series costs nothing.
//!
//! [`MetricsRegistry::render_prometheus`] emits the Prometheus text
//! exposition format (`# HELP`/`# TYPE` lines, escaped label values,
//! histograms as `summary` series with `quantile` labels plus `_sum` and
//! `_count`) without any dependency — any Prometheus-compatible scraper
//! ingests it as-is.
//!
//! Timestamps are caller-provided nanoseconds (from a
//! [`crate::timing::Clock`]), never read internally, so every rotation
//! boundary is unit-testable with a synthetic clock.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::timing::LogHistogram;

/// A label set: sorted `(key, value)` pairs. Construction sorts, so two
/// label sets with the same pairs in different orders are the same series.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// Builds a label set from `(key, value)` pairs (order-insensitive).
    pub fn new<K: Into<String>, V: Into<String>>(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut v: Vec<(String, String)> = pairs
            .into_iter()
            .map(|(k, val)| (k.into(), val.into()))
            .collect();
        v.sort();
        Self(v)
    }

    /// The empty label set (an unlabeled series).
    pub fn none() -> Self {
        Self(Vec::new())
    }

    /// The sorted pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// Renders as `{k="v", ...}` (empty string for no labels), with label
    /// values escaped per the Prometheus text format (`\\`, `\"`, `\n`).
    fn render(&self, extra: Option<(&str, &str)>) -> String {
        if self.0.is_empty() && extra.is_none() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in self
            .0
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra)
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// Escapes a label value for the Prometheus text format: backslash, double
/// quote, and newline.
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A [`LogHistogram`] ring over `buckets × bucket_ns` of recent time plus
/// a cumulative total, so one series answers "since boot" and "last
/// window" without resampling.
///
/// Bucket `i` covers `[i·bucket_ns, (i+1)·bucket_ns)`: a sample landing
/// exactly on a bucket edge opens the *next* bucket (half-open intervals,
/// no sample counted twice). Rotation is lazy — recording or reading at
/// time `t` first clears every ring slot whose previous occupant aged out.
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    total: LogHistogram,
    ring: Vec<LogHistogram>,
    /// Absolute bucket index each ring slot currently holds.
    slot_epoch: Vec<u64>,
    bucket_ns: u64,
}

impl WindowedHistogram {
    /// A window of `buckets` ring slots, each `bucket_ns` wide. The
    /// reachable window is `buckets × bucket_ns` nanoseconds.
    pub fn new(buckets: usize, bucket_ns: u64) -> Self {
        let buckets = buckets.max(1);
        Self {
            total: LogHistogram::new(),
            ring: vec![LogHistogram::new(); buckets],
            slot_epoch: vec![u64::MAX; buckets],
            bucket_ns: bucket_ns.max(1),
        }
    }

    /// Width of the full window in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.ring.len() as u64 * self.bucket_ns
    }

    /// The slot for absolute bucket `epoch`, cleared if a stale occupant
    /// is still in it.
    fn slot(&mut self, epoch: u64) -> &mut LogHistogram {
        let i = (epoch % self.ring.len() as u64) as usize;
        if self.slot_epoch[i] != epoch {
            self.ring[i] = LogHistogram::new();
            self.slot_epoch[i] = epoch;
        }
        &mut self.ring[i]
    }

    /// Records `value` at time `now_ns` into the total and the live bucket.
    pub fn record(&mut self, now_ns: u64, value: u64) {
        self.total.record(value);
        let epoch = now_ns / self.bucket_ns;
        self.slot(epoch).record(value);
    }

    /// The since-boot histogram.
    pub fn total(&self) -> &LogHistogram {
        &self.total
    }

    /// The merged histogram of every bucket still inside the window ending
    /// at `now_ns` (the current bucket and the `buckets - 1` before it).
    pub fn windowed(&self, now_ns: u64) -> LogHistogram {
        let epoch = now_ns / self.bucket_ns;
        let oldest = epoch.saturating_sub(self.ring.len() as u64 - 1);
        let mut merged = LogHistogram::new();
        for (i, h) in self.ring.iter().enumerate() {
            let e = self.slot_epoch[i];
            if e != u64::MAX && e >= oldest && e <= epoch {
                merged.merge(h);
            }
        }
        merged
    }
}

/// One series' payload.
#[derive(Clone, Debug)]
enum Series {
    Counter(u64),
    Gauge(f64),
    // Boxed: a windowed histogram is ~100x the size of the scalar variants.
    Histogram(Box<WindowedHistogram>),
}

/// A metric family: every series sharing one name, plus its metadata.
#[derive(Clone, Debug)]
struct Family {
    help: String,
    series: BTreeMap<Labels, Series>,
}

/// The registry: named families of labeled series, all behind one lock.
///
/// The lock is uncontended in practice — services record a handful of
/// samples per query, each a sub-microsecond critical section — and keeps
/// the whole structure coherent for rendering. Mixing kinds under one name
/// panics: that is a programming error, not load-time data.
#[derive(Debug)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
    window_buckets: usize,
    bucket_ns: u64,
}

/// A point-in-time digest of one windowed-histogram series: the since-boot
/// and in-window histograms side by side.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Everything recorded since the registry was created.
    pub total: LogHistogram,
    /// Only the samples inside the window ending at the query time.
    pub windowed: LogHistogram,
}

impl MetricsRegistry {
    /// A registry whose histogram series keep `window_buckets` ring slots
    /// of `bucket_ns` each (the "last 60s" default is `60 × 1s`).
    pub fn new(window_buckets: usize, bucket_ns: u64) -> Self {
        Self {
            families: Mutex::new(BTreeMap::new()),
            window_buckets: window_buckets.max(1),
            bucket_ns: bucket_ns.max(1),
        }
    }

    /// The default service shape: 60 buckets × 1 s.
    pub fn with_default_window() -> Self {
        Self::new(60, 1_000_000_000)
    }

    /// Width of the histogram window in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_buckets as u64 * self.bucket_ns
    }

    fn with_series<R>(
        &self,
        name: &str,
        help: &str,
        labels: &Labels,
        make: impl FnOnce(&Self) -> Series,
        f: impl FnOnce(&mut Series) -> R,
    ) -> R {
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        let series = fam
            .series
            .entry(labels.clone())
            .or_insert_with(|| make(self));
        f(series)
    }

    /// Adds `delta` to the counter `name{labels}` (created at 0 on first
    /// touch).
    pub fn inc_counter(&self, name: &str, help: &str, labels: &Labels, delta: u64) {
        self.with_series(
            name,
            help,
            labels,
            |_| Series::Counter(0),
            |s| match s {
                Series::Counter(c) => *c += delta,
                _ => panic!("{name} is not a counter"),
            },
        );
    }

    /// Sets the gauge `name{labels}` to `value`.
    pub fn set_gauge(&self, name: &str, help: &str, labels: &Labels, value: f64) {
        self.with_series(
            name,
            help,
            labels,
            |_| Series::Gauge(0.0),
            |s| match s {
                Series::Gauge(g) => *g = value,
                _ => panic!("{name} is not a gauge"),
            },
        );
    }

    /// Records `value` at `now_ns` into the windowed histogram
    /// `name{labels}`.
    pub fn observe(&self, name: &str, help: &str, labels: &Labels, now_ns: u64, value: u64) {
        self.with_series(
            name,
            help,
            labels,
            |reg| {
                Series::Histogram(Box::new(WindowedHistogram::new(
                    reg.window_buckets,
                    reg.bucket_ns,
                )))
            },
            |s| match s {
                Series::Histogram(h) => h.record(now_ns, value),
                _ => panic!("{name} is not a histogram"),
            },
        );
    }

    /// Current value of the counter `name{labels}` (`None` if the series
    /// does not exist).
    pub fn counter_value(&self, name: &str, labels: &Labels) -> Option<u64> {
        match self.families.lock().unwrap().get(name)?.series.get(labels) {
            Some(Series::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Sum of every series in the counter family `name` (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.families
            .lock()
            .unwrap()
            .get(name)
            .map(|f| {
                f.series
                    .values()
                    .map(|s| match s {
                        Series::Counter(c) => *c,
                        _ => 0,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Current value of the gauge `name{labels}`.
    pub fn gauge_value(&self, name: &str, labels: &Labels) -> Option<f64> {
        match self.families.lock().unwrap().get(name)?.series.get(labels) {
            Some(Series::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Snapshot of one histogram series (total + window ending `now_ns`).
    pub fn histogram(&self, name: &str, labels: &Labels, now_ns: u64) -> Option<HistogramSnapshot> {
        match self.families.lock().unwrap().get(name)?.series.get(labels) {
            Some(Series::Histogram(h)) => Some(HistogramSnapshot {
                total: h.total().clone(),
                windowed: h.windowed(now_ns),
            }),
            _ => None,
        }
    }

    /// Merged snapshot across every series of a histogram family whose
    /// labels satisfy `keep` (both totals and windows merge bucket-wise).
    pub fn histogram_merged(
        &self,
        name: &str,
        now_ns: u64,
        keep: impl Fn(&Labels) -> bool,
    ) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            total: LogHistogram::new(),
            windowed: LogHistogram::new(),
        };
        if let Some(fam) = self.families.lock().unwrap().get(name) {
            for (labels, s) in &fam.series {
                if let Series::Histogram(h) = s {
                    if keep(labels) {
                        snap.total.merge(h.total());
                        snap.windowed.merge(&h.windowed(now_ns));
                    }
                }
            }
        }
        snap
    }

    /// Every `(labels, value)` pair of a counter family, label-sorted.
    pub fn counter_series(&self, name: &str) -> Vec<(Labels, u64)> {
        self.families
            .lock()
            .unwrap()
            .get(name)
            .map(|f| {
                f.series
                    .iter()
                    .filter_map(|(l, s)| match s {
                        Series::Counter(c) => Some((l.clone(), *c)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Renders every family in the Prometheus text exposition format.
    ///
    /// Counters render as `counter`, gauges as `gauge`, and windowed
    /// histograms as two `summary` families: `<name>` (since boot) and
    /// `<name>_window` (last window), each with
    /// `quantile="0.5|0.95|0.99"` series plus `_sum` and `_count`.
    /// `now_ns` anchors the windows.
    pub fn render_prometheus(&self, now_ns: u64) -> String {
        let mut out = String::new();
        for (name, fam) in self.families.lock().unwrap().iter() {
            match fam.series.values().next() {
                Some(Series::Counter(_)) => {
                    header(&mut out, name, &fam.help, "counter");
                    for (labels, s) in &fam.series {
                        if let Series::Counter(c) = s {
                            line(&mut out, name, labels, None, &c.to_string());
                        }
                    }
                }
                Some(Series::Gauge(_)) => {
                    header(&mut out, name, &fam.help, "gauge");
                    for (labels, s) in &fam.series {
                        if let Series::Gauge(g) = s {
                            line(&mut out, name, labels, None, &render_f64(*g));
                        }
                    }
                }
                Some(Series::Histogram(_)) => {
                    header(&mut out, name, &fam.help, "summary");
                    for (labels, s) in &fam.series {
                        if let Series::Histogram(h) = s {
                            summary(&mut out, name, labels, h.total());
                        }
                    }
                    let wname = format!("{name}_window");
                    let whelp = format!(
                        "{} (last {} s window)",
                        fam.help,
                        self.window_ns() / 1_000_000_000
                    );
                    header(&mut out, &wname, &whelp, "summary");
                    for (labels, s) in &fam.series {
                        if let Series::Histogram(h) = s {
                            summary(&mut out, &wname, labels, &h.windowed(now_ns));
                        }
                    }
                }
                None => {}
            }
        }
        out
    }
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// Escapes a HELP line: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn line(out: &mut String, name: &str, labels: &Labels, extra: Option<(&str, &str)>, value: &str) {
    out.push_str(name);
    out.push_str(&labels.render(extra));
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn summary(out: &mut String, name: &str, labels: &Labels, h: &LogHistogram) {
    for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
        line(
            out,
            name,
            labels,
            Some(("quantile", &format!("{q}"))),
            &v.to_string(),
        );
    }
    line(
        out,
        &format!("{name}_sum"),
        labels,
        None,
        &h.sum().to_string(),
    );
    line(
        out,
        &format!("{name}_count"),
        labels,
        None,
        &h.count().to_string(),
    );
}

/// Renders an `f64` sample value (Prometheus accepts `NaN`/`+Inf`/`-Inf`
/// spelled exactly so).
fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(pairs: &[(&str, &str)]) -> Labels {
        Labels::new(pairs.iter().copied())
    }

    #[test]
    fn labels_are_order_insensitive_and_escaped() {
        let a = l(&[("algo", "bfs"), ("outcome", "ok")]);
        let b = l(&[("outcome", "ok"), ("algo", "bfs")]);
        assert_eq!(a, b);
        assert_eq!(a.render(None), "{algo=\"bfs\",outcome=\"ok\"}");
        assert_eq!(Labels::none().render(None), "");
        let odd = l(&[("k", "a\"b\\c\nd")]);
        assert_eq!(odd.render(None), "{k=\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn counters_accumulate_per_label_set_and_total() {
        let r = MetricsRegistry::with_default_window();
        let ok = l(&[("algo", "bfs"), ("outcome", "ok")]);
        let err = l(&[("algo", "bfs"), ("outcome", "error")]);
        r.inc_counter("q_total", "queries", &ok, 2);
        r.inc_counter("q_total", "queries", &ok, 1);
        r.inc_counter("q_total", "queries", &err, 4);
        assert_eq!(r.counter_value("q_total", &ok), Some(3));
        assert_eq!(r.counter_value("q_total", &err), Some(4));
        assert_eq!(r.counter_total("q_total"), 7);
        assert_eq!(r.counter_value("q_total", &Labels::none()), None);
        assert_eq!(r.counter_total("absent"), 0);
        assert_eq!(r.counter_series("q_total").len(), 2);
    }

    #[test]
    fn gauges_hold_the_last_write() {
        let r = MetricsRegistry::with_default_window();
        r.set_gauge("depth", "queue depth", &Labels::none(), 3.0);
        r.set_gauge("depth", "queue depth", &Labels::none(), 1.0);
        assert_eq!(r.gauge_value("depth", &Labels::none()), Some(1.0));
    }

    #[test]
    fn windowed_histogram_ages_out_old_buckets() {
        // 4 buckets × 100 ns = 400 ns window.
        let mut h = WindowedHistogram::new(4, 100);
        assert_eq!(h.window_ns(), 400);
        h.record(0, 10);
        h.record(150, 20);
        // Both inside the window at t=200.
        let w = h.windowed(200);
        assert_eq!(w.count(), 2);
        assert_eq!(h.total().count(), 2);
        // At t=450 the bucket holding t=0 (epoch 0) has aged out
        // (window covers epochs 1..=4); t=150's epoch 1 survives.
        let w = h.windowed(450);
        assert_eq!(w.count(), 1);
        assert_eq!(w.min(), 20);
        // Far future: everything aged out, total unchanged.
        assert_eq!(h.windowed(10_000).count(), 0);
        assert_eq!(h.total().count(), 2);
    }

    #[test]
    fn window_edge_sample_opens_the_next_bucket() {
        // Satellite case: a record landing exactly on a bucket edge.
        let mut h = WindowedHistogram::new(2, 100);
        h.record(99, 1); // epoch 0
        h.record(100, 2); // exactly on the edge -> epoch 1, not epoch 0
                          // Window at t=199 covers epochs 0..=1: both samples.
        assert_eq!(h.windowed(199).count(), 2);
        // Window at t=200 covers epochs 1..=2: the edge sample survived
        // exactly because it opened the newer bucket.
        let w = h.windowed(200);
        assert_eq!(w.count(), 1);
        assert_eq!(w.min(), 2);
    }

    #[test]
    fn ring_reuse_clears_stale_epochs() {
        let mut h = WindowedHistogram::new(2, 100);
        h.record(0, 1); // epoch 0, slot 0
        h.record(250, 9); // epoch 2, slot 0 again: must evict epoch 0
        assert_eq!(h.windowed(250).count(), 1);
        assert_eq!(h.windowed(250).min(), 9);
        assert_eq!(h.total().count(), 2);
    }

    #[test]
    fn windowed_p95_diverges_from_boot_p95_after_a_slow_phase() {
        let mut h = WindowedHistogram::new(4, 1_000);
        // Fast phase: 1000 samples around 100 ns at t=0.
        for _ in 0..1000 {
            h.record(0, 100);
        }
        // 5 µs later (past the 4 µs window): a slow phase.
        for _ in 0..50 {
            h.record(5_000, 1 << 20);
        }
        let boot = h.total();
        let win = h.windowed(5_500);
        // Since boot, 95% of samples are fast; the window holds only slow.
        assert!(boot.p95() < 1 << 10, "boot p95 {}", boot.p95());
        assert!(win.p95() >= 1 << 19, "window p95 {}", win.p95());
        assert_eq!(win.count(), 50);
        assert_eq!(boot.count(), 1050);
    }

    #[test]
    fn prometheus_rendering_has_type_lines_and_escapes() {
        let r = MetricsRegistry::new(4, 1_000);
        let bfs = l(&[("algo", "bfs"), ("outcome", "ok")]);
        let cc = l(&[("algo", "cc"), ("outcome", "ok")]);
        r.inc_counter("pp_q_total", "total \"queries\"", &bfs, 5);
        r.inc_counter("pp_q_total", "total \"queries\"", &cc, 2);
        r.set_gauge("pp_depth", "queue depth", &Labels::none(), 3.5);
        r.observe("pp_run_ns", "run latency", &bfs, 10, 1024);
        r.observe("pp_run_ns", "run latency", &bfs, 10, 2048);
        let body = r.render_prometheus(20);

        // Every series name has a # TYPE line.
        for (name, kind) in [
            ("pp_q_total", "counter"),
            ("pp_depth", "gauge"),
            ("pp_run_ns", "summary"),
            ("pp_run_ns_window", "summary"),
        ] {
            assert!(
                body.contains(&format!("# TYPE {name} {kind}\n")),
                "missing TYPE for {name}:\n{body}"
            );
            assert!(body.contains(&format!("# HELP {name} ")));
        }
        assert!(body.contains("pp_q_total{algo=\"bfs\",outcome=\"ok\"} 5"));
        assert!(body.contains("pp_q_total{algo=\"cc\",outcome=\"ok\"} 2"));
        assert!(body.contains("pp_depth 3.5"));
        assert!(body.contains("pp_run_ns{algo=\"bfs\",outcome=\"ok\",quantile=\"0.5\"}"));
        assert!(body.contains("pp_run_ns_sum{algo=\"bfs\",outcome=\"ok\"} 3072"));
        assert!(body.contains("pp_run_ns_count{algo=\"bfs\",outcome=\"ok\"} 2"));
        assert!(body.contains("pp_run_ns_window_count{algo=\"bfs\",outcome=\"ok\"} 2"));

        // Line-by-line: every non-comment line is `name[{labels}] value`.
        for lineref in body.lines() {
            if lineref.starts_with('#') {
                continue;
            }
            let (series, value) = lineref.rsplit_once(' ').expect("metric line has a value");
            assert!(!series.is_empty());
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {lineref:?}"
            );
        }
    }

    #[test]
    fn histogram_snapshots_merge_across_label_sets() {
        let r = MetricsRegistry::new(8, 1_000);
        let a = l(&[("algo", "bfs")]);
        let b = l(&[("algo", "cc")]);
        r.observe("lat", "latency", &a, 0, 10);
        r.observe("lat", "latency", &b, 0, 1000);
        let one = r.histogram("lat", &a, 500).unwrap();
        assert_eq!(one.total.count(), 1);
        assert_eq!(one.windowed.count(), 1);
        let all = r.histogram_merged("lat", 500, |_| true);
        assert_eq!(all.total.count(), 2);
        assert_eq!(all.total.min(), 10);
        assert_eq!(all.total.max(), 1000);
        let only_cc = r.histogram_merged("lat", 500, |labels| {
            labels.pairs().iter().any(|(_, v)| v == "cc")
        });
        assert_eq!(only_cc.total.count(), 1);
        assert_eq!(only_cc.total.min(), 1000);
        assert!(r.histogram("lat", &Labels::none(), 0).is_none());
    }
}
