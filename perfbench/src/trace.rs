//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer's public functions. Build phases, which `build()` reports as
//! durations only, become child spans laid end to end from the start of
//! the build call. Each thread owns one [`Tracer`]; they are merged at exit
//! into Chrome trace-event JSON and into per-layer self times.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers spans are attributed to. `bench` is the harness itself.
pub const LAYERS: [&str; 8] =
    ["knit_lang", "core", "cmini", "cobj", "flatten", "machine", "server", "bench"];

/// One recorded span. Times are offsets from the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// A per-thread span buffer. When disabled it records nothing, so untraced
/// runs pay one branch per boundary.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Timed operation windows recorded while enabled (for coverage).
    windows: Vec<(Duration, Duration)>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer { epoch, enabled, spans: Vec::new(), windows: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Run `f` inside a span named `name` of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.epoch.elapsed();
        let r = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span { name: name.to_string(), layer, start, end, parent: None });
        r
    }

    /// Like [`Tracer::span`], returning the span's index so children can
    /// be attached to it.
    pub fn span_id<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        let r = self.span(layer, name, f);
        (r, self.enabled.then(|| self.spans.len() - 1))
    }

    /// Attach build phases (name, duration) to `parent` as children laid
    /// end to end from the parent's start.
    pub fn phases<'a>(
        &mut self,
        parent: Option<usize>,
        phases: impl IntoIterator<Item = (&'a str, Duration)>,
    ) {
        let Some(p) = parent else { return };
        let mut at = self.spans[p].start;
        for (name, d) in phases {
            let end = at + d;
            let layer = phase_layer(name);
            self.spans.push(Span {
                name: name.to_string(),
                layer,
                start: at,
                end,
                parent: Some(p),
            });
            at = end;
        }
    }

    /// Record a timed operation window (only while enabled).
    pub fn window(&mut self, start: Instant, end: Instant) {
        if self.enabled {
            self.windows.push((start - self.epoch, end - self.epoch));
        }
    }
}

/// The layer that runs build phase `name`.
pub fn phase_layer(name: &str) -> &'static str {
    match name {
        "compile" => "cmini",
        "objcopy" | "link" => "cobj",
        "flatten" => "flatten",
        _ => "core",
    }
}

/// The metric-name prefix (`<layer>.<phase>`) of build phase `name`.
pub fn phase_metric(name: &str) -> String {
    format!("{}.{name}", phase_layer(name))
}

/// Total length of the union of `intervals` (sorted by start) clipped to
/// `[lo, hi]`.
fn covered(intervals: &[(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for &(s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Merged results of every thread's tracer.
pub struct TraceSummary {
    /// Self time per layer, as a share of the traced operation windows.
    pub self_share: BTreeMap<&'static str, f64>,
    /// Share of the traced operation windows that layer spans cover.
    pub coverage: f64,
    /// Spans recorded.
    pub spans: usize,
}

/// Self time of every span (its duration minus the union of its
/// children) inside the operation windows, summed per layer, plus coverage
/// of the windows by top-level spans outside the harness.
pub fn summarize(tracers: &[Tracer]) -> TraceSummary {
    let mut self_time: BTreeMap<&'static str, Duration> =
        LAYERS.iter().map(|l| (*l, Duration::ZERO)).collect();
    let mut window_total = Duration::ZERO;
    let mut window_covered = Duration::ZERO;
    for t in tracers {
        let mut windows = t.windows.clone();
        windows.sort();
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        for (s, mut kids) in t.spans.iter().zip(children) {
            kids.sort();
            let first = windows.partition_point(|w| w.1 <= s.start);
            for w in windows[first..].iter().take_while(|w| w.0 < s.end) {
                let (lo, hi) = (s.start.max(w.0), s.end.min(w.1));
                if lo < hi {
                    *self_time.entry(s.layer).or_default() +=
                        (hi - lo).saturating_sub(covered(&kids, lo, hi));
                }
            }
        }
        let mut top: Vec<(Duration, Duration)> = t
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.layer != "bench")
            .map(|s| (s.start, s.end))
            .collect();
        top.sort();
        for &(lo, hi) in &windows {
            window_total += hi - lo;
            window_covered += covered(&top, lo, hi);
        }
    }
    let wall = window_total.as_secs_f64().max(1e-9);
    TraceSummary {
        self_share: self_time.into_iter().map(|(l, d)| (l, d.as_secs_f64() / wall)).collect(),
        coverage: window_covered.as_secs_f64() / wall,
        spans: tracers.iter().map(|t| t.spans.len()).sum(),
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Chrome trace-event JSON (`"ph": "X"` complete events, one `tid` per
/// tracer) for Perfetto or `chrome://tracing`.
pub fn chrome_json(tracers: &[Tracer], workload: &str, seed: u64) -> String {
    let mut events = Vec::new();
    for (tid, t) in tracers.iter().enumerate() {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\",\"seed\":{seed}}}}}",
                escape(&s.name),
                s.layer,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                escape(workload),
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n", events.join(",\n"))
}
