//! The metric catalogue and the run report: end-to-end metrics from the
//! untraced ops, per-layer metrics from the traced ones, and the context
//! lines that say what was measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hostspeed;
use crate::stats::{self, Latencies};
use crate::trace::{self, Span};
use lopsided::xquery::EvalStats;

/// End-to-end metrics, reported by every workload. The three latency
/// slots are the workload's op classes, in the order of
/// [`Report::classes`]; the context lines name each one.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("main_p50_ms", "ms"),
    ("main_tail_ms", "ms"),
    ("second_p50_ms", "ms"),
    ("third_p50_ms", "ms"),
];

/// Where a per-layer metric's value comes from.
pub enum Source {
    /// Mean inclusive duration of the spans of this name, in the unit.
    Span(&'static str),
    /// A value the workload computed from the program's counters.
    Value,
}

/// Per-layer metrics, reported by every workload; a layer the workload
/// does not reach reads 0.
pub const PER_LAYER: [(&str, &str, Source); 42] = [
    ("awb.export_ms", "ms", Source::Span("awb.export")),
    ("awb.model_build_s", "s", Source::Value),
    ("xmlstore.parse_ms", "ms", Source::Value),
    ("xmlstore.edit_us", "us", Source::Span("xmlstore.edit")),
    ("xmlstore.freeze_ms", "ms", Source::Span("xmlstore.freeze")),
    ("xmlstore.refreeze_incremental_frac", "ratio", Source::Value),
    ("xmlstore.index_repatch_frac", "ratio", Source::Value),
    (
        "xmlstore.serialize_ms",
        "ms",
        Source::Span("xmlstore.serialize"),
    ),
    ("xquery.compile_ms", "ms", Source::Span("xquery.compile")),
    (
        "xquery.compile.parse_ms",
        "ms",
        Source::Span("xquery.compile.parse"),
    ),
    (
        "xquery.compile.optimize_ms",
        "ms",
        Source::Span("xquery.compile.optimize"),
    ),
    (
        "xquery.compile.lower_ms",
        "ms",
        Source::Span("xquery.compile.lower"),
    ),
    (
        "xquery.compile.lopt_ms",
        "ms",
        Source::Span("xquery.compile.lopt"),
    ),
    ("xquery.eval_ms", "ms", Source::Value),
    (
        "xquery.eval.on_worker_ms",
        "ms",
        Source::Span("xquery.eval.on_worker"),
    ),
    (
        "xquery.eval.queue_wait_ms",
        "ms",
        Source::Span("xquery.eval.queue_wait"),
    ),
    ("xquery.eval.items_allocated", "count", Source::Value),
    ("xquery.eval.index_hit_frac", "ratio", Source::Value),
    ("xquery.eval.join_fallback_frac", "ratio", Source::Value),
    ("xquery.eval.items_streamed", "count", Source::Value),
    ("xquery.eval.cursor_early_exits", "count", Source::Value),
    (
        "docgen.xq.prepare_ms",
        "ms",
        Source::Span("docgen.xq.prepare"),
    ),
    (
        "docgen.xq.generate_ms",
        "ms",
        Source::Span("docgen.xq.generate"),
    ),
    (
        "docgen.xq.omissions_ms",
        "ms",
        Source::Span("docgen.xq.omissions"),
    ),
    ("docgen.xq.toc_ms", "ms", Source::Span("docgen.xq.toc")),
    (
        "docgen.xq.markers_ms",
        "ms",
        Source::Span("docgen.xq.markers"),
    ),
    ("docgen.xq.strip_ms", "ms", Source::Span("docgen.xq.strip")),
    ("docgen.xq.copied_bytes", "bytes", Source::Value),
    (
        "docgen.native.generate_ms",
        "ms",
        Source::Span("docgen.native.generate"),
    ),
    (
        "docgen.incremental.generate_ms",
        "ms",
        Source::Span("docgen.incremental.generate"),
    ),
    (
        "docgen.incremental.apply_edit_ms",
        "ms",
        Source::Span("docgen.incremental.apply_edit"),
    ),
    ("docgen.incremental.rerun_frac", "ratio", Source::Value),
    ("qsvc.rtt_ms.hot", "ms", Source::Span("qsvc.rtt.hot")),
    ("qsvc.rtt_ms.cold", "ms", Source::Span("qsvc.rtt.cold")),
    ("qsvc.rtt_ms.load", "ms", Source::Span("qsvc.rtt.load")),
    ("qsvc.server_eval_ms", "ms", Source::Value),
    ("qsvc.server_queue_wait_ms", "ms", Source::Value),
    ("qsvc.leftover_ms", "ms", Source::Value),
    ("qsvc.plan_hit_frac", "ratio", Source::Value),
    ("qsvc.plan_evictions", "count", Source::Value),
    ("qsvc.doc_hit_frac", "ratio", Source::Value),
    (
        "qsvc.frame_codec_us",
        "us",
        Source::Span("qsvc.frame_codec"),
    ),
];

/// Metrics of the whole process and of the tracing itself, appended to
/// the per-layer list. The peak resident set is not an end-to-end metric:
/// from one start of the same run to the next it differs by up to half,
/// with the allocator's placement of the threads' memory.
pub const RUN_METRICS: [(&str, &str); 3] = [
    ("process.peak_rss_mb", "MB"),
    ("trace.overhead_frac", "ratio"),
    ("trace.leftover_frac", "ratio"),
];

/// One op class's latencies, split by whether the op was traced.
#[derive(Debug, Default)]
pub struct Class {
    /// The class name the context lines and the span roots use.
    pub name: &'static str,
    /// Untraced ops: completion time into the timed phase (s), latency (ms).
    pub untraced: Vec<(f64, f64)>,
    pub traced_ms: Vec<f64>,
}

impl Class {
    pub fn new(name: &'static str) -> Class {
        Class {
            name,
            ..Class::default()
        }
    }

    pub fn record(&mut self, at_s: f64, ms: f64, traced: bool) {
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.untraced.push((at_s, ms));
        }
    }

    fn untraced_ms(&self) -> Vec<f64> {
        self.untraced.iter().map(|&(_, ms)| ms).collect()
    }
}

/// Seconds on either side of an op whose reference samples give the
/// slowdown its latency is divided by: wide enough for a few samples,
/// narrow enough to follow the host's changes of pace.
pub const LOCAL_S: f64 = 0.1;

/// The timed phase cut into windows that each hold the same work (a pass
/// over a model pool, a round against a fresh service, a cycle between
/// document reopenings), each with how many times slower than nominal the
/// host ran the reference work in it (see [`hostspeed`]). A window's
/// duration is divided by its slowdown; an op's latency by the slowdown of
/// the samples taken during it and within [`LOCAL_S`] of it. Ops after the
/// last window's end belong to no window.
#[derive(Debug, Clone, PartialEq)]
pub struct Windows {
    /// Where each window ends, in seconds into the timed phase, ascending.
    pub ends: Vec<f64>,
    pub slowdown: Vec<f64>,
    /// The reference samples (s into the timed phase, ms), by time.
    samples: Vec<(f64, f64)>,
}

impl Windows {
    /// Windows ending at `ends`, clamped to the `wall_s` the timed phase
    /// lasted, with slowdowns from the reference samples `speed` (s into
    /// the timed phase, ms); a window without a sample takes the run's.
    pub fn new(ends: &[f64], speed: &[(f64, f64)], wall_s: f64) -> Windows {
        let ends: Vec<f64> = ends.iter().map(|&end| end.min(wall_s)).collect();
        let mut samples = speed.to_vec();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); ends.len()];
        for &(at_s, ms) in &samples {
            if let Some(w) = window_of(&ends, at_s) {
                per[w].push(ms);
            }
        }
        let all: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
        let run = hostspeed::slowdown(&all);
        let slowdown = per
            .iter()
            .map(|ms| {
                if ms.is_empty() {
                    run
                } else {
                    hostspeed::slowdown(ms)
                }
            })
            .collect();
        Windows {
            ends,
            slowdown,
            samples,
        }
    }

    /// The same windows with every slowdown 1: the times as measured.
    pub fn as_measured(&self) -> Windows {
        Windows {
            ends: self.ends.clone(),
            slowdown: vec![1.0; self.ends.len()],
            samples: Vec::new(),
        }
    }

    /// The slowdown for an op that took `ms` and completed `at_s` into the
    /// timed phase, in window `w`.
    fn slowdown_of_op(&self, w: usize, at_s: f64, ms: f64) -> f64 {
        let from = at_s - ms / 1e3 - LOCAL_S;
        let lo = self.samples.partition_point(|s| s.0 < from);
        let hi = self.samples.partition_point(|s| s.0 <= at_s + LOCAL_S);
        if lo < hi {
            let near: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, ms)| ms).collect();
            hostspeed::slowdown(&near)
        } else {
            self.slowdown[w]
        }
    }

    /// Seconds the windows would have lasted at nominal host speed.
    pub fn nominal_s(&self) -> f64 {
        let mut start = 0.0;
        let mut total = 0.0;
        for (&end, &slow) in self.ends.iter().zip(&self.slowdown) {
            total += (end - start) / slow;
            start = end;
        }
        total
    }

    /// A class's untraced latencies that completed in a window, each
    /// divided by the slowdown around it.
    pub fn latencies(&self, class: &Class) -> Latencies {
        Latencies::from_ms(
            class
                .untraced
                .iter()
                .filter_map(|&(at_s, ms)| {
                    window_of(&self.ends, at_s).map(|w| ms / self.slowdown_of_op(w, at_s, ms))
                })
                .collect(),
        )
    }

    /// How many untraced ops of the classes completed in a window.
    pub fn ops(&self, classes: &[Class]) -> usize {
        classes
            .iter()
            .flat_map(|c| &c.untraced)
            .filter(|&&(at_s, _)| window_of(&self.ends, at_s).is_some())
            .count()
    }
}

/// The window an op completing `at_s` into the timed phase falls in.
fn window_of(ends: &[f64], at_s: f64) -> Option<usize> {
    let w = ends.partition_point(|&end| end <= at_s);
    (w < ends.len()).then_some(w)
}

/// Engine counters summed over evaluations.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvalTally {
    pub stats: EvalStats,
    pub evals: u64,
}

impl EvalTally {
    pub fn add(&mut self, stats: &EvalStats) {
        self.stats.merge(stats);
        self.evals += 1;
    }

    /// The `xquery.eval*` per-layer values that are not span means.
    pub fn values(&self, out: &mut BTreeMap<&'static str, f64>) {
        let s = &self.stats;
        let n = self.evals as f64;
        let per_eval = |v: u64| stats::ratio(v as f64, n);
        out.insert(
            "xquery.eval_ms",
            per_eval(s.on_worker_ns + s.queue_wait_ns) / 1e6,
        );
        out.insert("xquery.eval.items_allocated", per_eval(s.items_allocated));
        out.insert("xquery.eval.items_streamed", per_eval(s.items_streamed));
        out.insert(
            "xquery.eval.cursor_early_exits",
            per_eval(s.cursor_early_exits),
        );
        out.insert(
            "xquery.eval.index_hit_frac",
            stats::ratio(s.index_hits as f64, (s.index_hits + s.index_misses) as f64),
        );
        out.insert(
            "xquery.eval.join_fallback_frac",
            stats::ratio(
                s.join_fallbacks as f64,
                (s.join_probes + s.join_fallbacks) as f64,
            ),
        );
    }
}

/// Everything one workload run measured.
pub struct Report {
    /// Ops attempted and how many failed (error or wrong output).
    pub attempted: u64,
    pub failed: u64,
    /// The three op classes: main, second, third.
    pub classes: [Class; 3],
    /// The percentile the main class's tail is reported at.
    pub tail_p: f64,
    /// Each set-up's duration; the median is `setup_s`.
    pub setups_s: Vec<f64>,
    /// Reference-unit times taken between the set-ups (ms).
    pub setup_unit_ms: Vec<f64>,
    /// Reference-unit samples of the timed phase: (s into it, ms).
    pub speed: Vec<(f64, f64)>,
    /// Wall-clock seconds of the timed phase and the ops it completed.
    pub wall_s: f64,
    pub completed: u64,
    /// Where each window of the timed phase ends (s), and what a window
    /// is; with none, the whole phase is one window.
    pub window_ends: Vec<f64>,
    pub window_unit: &'static str,
    /// Per-layer values computed from counters.
    pub values: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
    /// Input sizes and other facts about the run, as `key: value`.
    pub context: Vec<(String, String)>,
}

impl Report {
    pub fn new(classes: [&'static str; 3], tail_p: f64) -> Report {
        Report {
            attempted: 0,
            failed: 0,
            classes: classes.map(Class::new),
            tail_p,
            setups_s: Vec::new(),
            setup_unit_ms: Vec::new(),
            speed: Vec::new(),
            wall_s: 0.0,
            completed: 0,
            window_ends: Vec::new(),
            window_unit: "run",
            values: BTreeMap::new(),
            spans: Vec::new(),
            context: Vec::new(),
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Records one attempted op: its class's latency when it succeeded, a
    /// failure otherwise.
    pub fn op(&mut self, class: usize, at_s: f64, ms: f64, traced: bool, ok: bool) {
        self.attempted += 1;
        if ok {
            self.completed += 1;
            self.classes[class].record(at_s, ms, traced);
        } else {
            self.failed += 1;
        }
    }

    /// Marks a failure found after the op was counted (a deferred check).
    pub fn fail_checked(&mut self, failures: u64) {
        self.failed += failures;
    }

    pub fn windows(&self) -> Windows {
        let ends: &[f64] = if self.window_ends.is_empty() {
            &[f64::INFINITY]
        } else {
            &self.window_ends
        };
        Windows::new(ends, &self.speed, self.wall_s)
    }

    /// How many times slower than nominal the host ran the reference work
    /// between the set-ups.
    pub fn setup_slowdown(&self) -> f64 {
        hostspeed::slowdown(&self.setup_unit_ms)
    }

    /// `ops_per_s`, the main class's p50 and tail and the other two
    /// classes' p50s, from the untraced ops in `windows`, at its
    /// slowdowns.
    pub fn figures(&self, windows: &Windows) -> [f64; 5] {
        let lat = self.classes.each_ref().map(|c| windows.latencies(c));
        [
            windows.ops(&self.classes) as f64 / windows.nominal_s(),
            lat[0].p50(),
            lat[0].tail(self.tail_p).unwrap_or_else(|| lat[0].p50()),
            lat[1].p50(),
            lat[2].p50(),
        ]
    }

    /// The end-to-end metrics, from the untraced ops, normalized to
    /// nominal host speed.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let setup_s = stats::median(&self.setups_s) / self.setup_slowdown();
        let values = std::iter::once(setup_s).chain(self.figures(&self.windows()));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    }

    /// The per-layer metrics, from the traced ops' spans and the counters.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let totals = trace::totals_by_name(&self.spans);
        let mut out: Vec<(&'static str, &'static str, f64)> = PER_LAYER
            .iter()
            .map(|(name, unit, source)| {
                let value = match source {
                    Source::Span(span) => totals.get(span).map_or(0.0, |t| {
                        let mean_ns = t.total_ns as f64 / t.calls as f64;
                        mean_ns / unit_ns(unit)
                    }),
                    Source::Value => self.values.get(name).copied().unwrap_or(0.0),
                };
                (*name, *unit, value)
            })
            .collect();
        let overhead = self.tracing_overhead();
        // Side measurements (an export or a compile repeated outside the
        // op) are roots of their own; only op roots count here.
        let is_op = |s: &Span| s.parent.is_none() && self.classes.iter().any(|c| c.name == s.name);
        let (mut roots, mut leftover) = (0.0, 0.0);
        for (s, self_ns) in self.spans.iter().zip(trace::self_times(&self.spans)) {
            if is_op(s) {
                roots += s.dur_ns() as f64;
                leftover += self_ns as f64;
            }
        }
        let values = [peak_rss_mb(), overhead, stats::ratio(leftover, roots)];
        out.extend(RUN_METRICS.iter().zip(values).map(|(&(n, u), v)| (n, u, v)));
        out
    }

    /// Traced ops' mean latency over untraced ops' mean latency, minus
    /// one, with each class weighted by its traced op count.
    pub fn tracing_overhead(&self) -> f64 {
        let (mut traced, mut untraced) = (0.0, 0.0);
        for c in &self.classes {
            if c.traced_ms.is_empty() || c.untraced.is_empty() {
                continue;
            }
            let n = c.traced_ms.len() as f64;
            traced += n * stats::mean(&c.traced_ms);
            untraced += n * stats::mean(&c.untraced_ms());
        }
        stats::ratio(traced, untraced) - if untraced > 0.0 { 1.0 } else { 0.0 }
    }

    /// Human-readable lines: the run's context, each class under its own
    /// name, and (traced) where each class's time went.
    pub fn context_lines(&self, trace: bool) -> Vec<String> {
        let mut out: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{k}: {v}"))
            .collect();
        out.push(format!(
            "failed_frac: {} ({} of {} ops)",
            stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        ));
        let windows = self.windows();
        let mut slow = windows.slowdown.clone();
        slow.sort_by(f64::total_cmp);
        out.push(format!(
            "windows: {} (one per {}); the reference work ran {:.3}x to {:.3}x nominal (median {:.3}x) over {} samples, {:.3}x between the set-ups",
            windows.ends.len(),
            self.window_unit,
            slow.first().unwrap_or(&1.0),
            slow.last().unwrap_or(&1.0),
            stats::median(&slow),
            self.speed.len(),
            self.setup_slowdown()
        ));
        out.push(format!(
            "normalized: an op's latency is divided by the slowdown of the samples within {LOCAL_S} s of it, a window's seconds (for ops_per_s) by its samples' slowdown, setup_s by the set-ups' slowdown"
        ));
        let raw = self.figures(&windows.as_measured());
        out.push(format!(
            "as measured: setup_s {} s, ops_per_s {} 1/s, main_p50_ms {}, main_tail_ms {}, second_p50_ms {}, third_p50_ms {}",
            stats::median(&self.setups_s),
            raw[0],
            raw[1],
            raw[2],
            raw[3],
            raw[4]
        ));
        let slots = ["main", "second", "third"];
        for (slot, class) in slots.iter().zip(&self.classes) {
            out.push(format!(
                "{}_p50_ms = {slot}_p50_ms over {} untraced samples in the windows ({} in all)",
                class.name,
                windows.latencies(class).len(),
                class.untraced.len()
            ));
        }
        let main = windows.latencies(&self.classes[0]);
        let pct = self.tail_p;
        match main.tail(pct) {
            Some(_) => out.push(format!(
                "{}_p{pct}_ms = main_tail_ms (nearest-rank p{pct}, {} samples beyond it)",
                self.classes[0].name,
                stats::beyond(main.len(), pct)
            )),
            None => out.push(format!(
                "main_tail_ms: too few samples ({}) for a p{pct} with {} beyond it; the median is printed in its place",
                main.len(),
                stats::MIN_BEYOND_TAIL
            )),
        }
        if trace {
            out.push(format!("tracing overhead: {}", self.tracing_overhead()));
            for (class, account) in trace::accounting(&self.spans) {
                let mut line = format!(
                    "accounting {class}: {} root spans, mean {:.4} ms =",
                    account.roots, account.mean_ms
                );
                let mut parts = account.self_ms.iter().collect::<Vec<_>>();
                parts.sort_by(|a, b| b.1.total_cmp(a.1));
                for (name, ms) in parts {
                    let _ = write!(line, " {name} {ms:.4}");
                }
                out.push(line);
            }
        }
        out
    }
}

/// Nanoseconds per unit of a time unit.
fn unit_ns(unit: &str) -> f64 {
    match unit {
        "s" => 1e9,
        "ms" => 1e6,
        "us" => 1e3,
        other => panic!("{other} is not a time unit"),
    }
}

/// The process's peak resident set, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the one in BENCHMARK.json must name the same
    /// metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&needle),
                "{needle} missing from BENCHMARK.json"
            );
        }
        let layers = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).chain(RUN_METRICS);
        for (name, unit) in layers {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&needle),
                "{needle} missing from BENCHMARK.json"
            );
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + RUN_METRICS.len()
        );
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[("a_ms", "ms", 1.5), ("b", "count", 2.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn overhead_compares_traced_with_untraced() {
        let mut r = Report::new(["a", "b", "c"], 90.0);
        r.classes[0].untraced = vec![(0.1, 1.0), (0.2, 1.0)];
        r.classes[0].traced_ms = vec![1.1, 1.1];
        r.classes[1].untraced = vec![(0.3, 10.0)];
        assert!((r.tracing_overhead() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn times_are_divided_by_the_slowdown_around_them() {
        let nominal = hostspeed::NOMINAL_UNIT_MS;
        let mut r = Report::new(["a", "b", "c"], 50.0);
        r.wall_s = 6.5;
        r.window_ends = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        r.setups_s = vec![0.5];
        r.setup_unit_ms = vec![2.0 * nominal];
        // Six one-second windows and half a second outside any window.
        // The host runs twice as slow in window 1; the sample after the
        // last window counts only toward the run's slowdown.
        r.speed = vec![
            (0.5, nominal),
            (1.2, 2.0 * nominal),
            (1.7, 2.0 * nominal),
            (3.5, nominal),
            (4.2, 3.0 * nominal),
            (4.5, nominal),
            (5.5, nominal),
            (6.2, 9.0 * nominal),
        ];
        // Class a takes 1 ms at nominal speed, class b 10 ms.
        let a_ms = [1.0, 2.0, 1.0, 1.0, 1.0, 1.0];
        for (w, &ms) in a_ms.iter().enumerate() {
            for k in 0..4 {
                r.op(0, w as f64 + 0.1 * k as f64, ms, false, true);
            }
        }
        // Class b's op has no sample within LOCAL_S: its window's slowdown.
        r.op(1, 1.5, 20.0, false, true);
        r.op(1, 6.2, 0.1, false, true);
        // Class c's op ran in a brief slow spell within window 4, whose
        // median stays nominal.
        r.op(2, 4.25, 6.0, false, true);
        let windows = r.windows();
        // Window 2 has no sample: it takes the run's median, nominal.
        assert_eq!(windows.slowdown, vec![1.0, 2.0, 1.0, 1.0, 1.0, 1.0]);
        // 26 ops in windows that would have lasted 5.5 nominal seconds.
        assert_eq!(windows.nominal_s(), 5.5);
        let metrics = r.end_to_end();
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert_eq!(get("ops_per_s"), 26.0 / 5.5);
        assert_eq!(get("main_p50_ms"), 1.0);
        assert_eq!(get("second_p50_ms"), 10.0);
        assert!((get("third_p50_ms") - 2.0).abs() < 1e-9);
        assert_eq!(get("setup_s"), 0.25);
        // As measured, window 1 counts at its own pace.
        let raw = r.figures(&windows.as_measured());
        assert_eq!(raw[0], 26.0 / 6.0);
        assert_eq!(raw[3], 20.0);
        assert_eq!(raw[4], 6.0);
    }
}
