//! Result bookkeeping and the output schema: output checks, metric values
//! with their units and sample counts, the run conditions, and the final
//! JSON line.

use crate::Args;
use std::sync::OnceLock;

/// The benchmark's definition: the metric names and units come from it.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in the definition's `end_to_end` (every
/// untraced run prints each one) and `per_layer` (every traced run prints
/// each one; a layer the workload does not run reads 0 from 0 samples)
/// lists.
fn schema() -> &'static [Vec<(&'static str, &'static str)>; 2] {
    static SCHEMA: OnceLock<[Vec<(&'static str, &'static str)>; 2]> = OnceLock::new();
    SCHEMA.get_or_init(|| [metrics_of("end_to_end"), metrics_of("per_layer")])
}

/// The entries of the definition's metric list `key`, whose objects hold
/// no `]`.
fn metrics_of(key: &str) -> Vec<(&'static str, &'static str)> {
    let list = &DEFINITION[DEFINITION
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists no {key}"))..];
    let list = &list[..list.find(']').expect("metric list is closed")];
    list.split('{')
        .skip(1)
        .map(|entry| (string_field(entry, "name"), string_field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in `entry`.
fn string_field(entry: &'static str, key: &str) -> &'static str {
    let at = entry
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("metric without {key}: {entry}"));
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("closed string");
    &rest[open..close]
}

/// One run's checks and measured metrics.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, samples)`; units come from the definition.
    metrics: Vec<(&'static str, f64, usize)>,
    /// Set when a traced replication disagrees with the library call it
    /// rebuilds: the run then reports the failure instead of numbers.
    withhold_metrics: bool,
}

impl Report {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn tally(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        if failed > 0 {
            eprintln!("perfbench: check failed {failed} of {attempted} times: {what}");
        }
    }

    /// A traced replication that must match the library bit for bit.
    pub fn check_replica(&mut self, ok: bool, what: &str) {
        self.check(ok, what);
        self.withhold_metrics |= !ok;
    }

    /// Records metric `name` (which `BENCHMARK.json` must list)
    /// measured from `samples` samples.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the schema"
        );
        self.metrics.push((name, value, samples));
    }

    /// Records the setup metrics from repeated set-ups; a phase the
    /// workload does not have stays unrecorded.
    pub fn setup(&mut self, times: &SetupTimes) {
        let window_medians: Vec<f64> = times
            .total
            .chunks(times.total.len().div_ceil(WINDOWS).max(1))
            .map(median)
            .collect();
        self.metric("setup_s", mean(&window_medians), times.total.len());
        for (name, phase) in [
            ("setup.data_ms", &times.data),
            ("setup.model_build_ms", &times.build),
            ("setup.prewarm_ms", &times.prewarm),
            ("setup.server_start_ms", &times.server),
        ] {
            if phase.iter().any(|&t| t > 0.0) {
                self.metric(name, median(phase) * 1e3, phase.len());
            }
        }
    }

    /// Records the throughput and the p50 and p99 latency, each the mean
    /// over `windows`, of `n` operations. The p99 is a per-layer metric,
    /// printed by traced runs only: on a shared host the tail follows the
    /// neighbours' load, which changes over minutes (one 90-second `serve`
    /// run went from a 9 ms to an 18 ms p99 halfway through at the same
    /// p50), so no run length holds it within an end-to-end bound.
    pub fn end_to_end(&mut self, windows: &[WindowStats], n: usize) {
        let each = |f: fn(&WindowStats) -> f64| windows.iter().map(f).collect::<Vec<_>>();
        self.metric("throughput_per_s", mean(&each(|w| w.throughput)), n);
        self.metric("latency_p50_us", mean(&each(|w| w.p50)) * 1e6, n);
        self.metric("latency_p99_us", mean(&each(|w| w.p99)) * 1e6, n);
    }

    /// Prints the run conditions, then the result as the last line of
    /// standard output, keeping the metrics of the run's table: end-to-end
    /// when untraced, per-layer when traced.
    pub fn print(mut self, args: &Args) {
        let table = if args.trace {
            &schema()[1]
        } else {
            self.metric("peak_rss_mb", peak_rss_mb(), 1);
            &schema()[0]
        };
        let mut samples = Vec::with_capacity(table.len());
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let (value, n) = self
                .metrics
                .iter()
                .rev()
                .find(|m| m.0 == name)
                .map_or((0.0, 0), |m| (m.1, m.2));
            let ok = value.is_finite() && (args.trace || (n > 0 && value > 0.0));
            if !ok {
                self.check(false, &format!("{name} = {value} from {n} samples"));
            }
            samples.push(format!("\"{name}\": {n}"));
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if value.is_finite() { value } else { 0.0 }
            ));
        }
        if self.withhold_metrics {
            metrics.clear();
        }
        println!(
            "{{\"conditions\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}, \"threads\": {}, \"simd\": \"{}\", \"simd_lanes\": {}, \
             \"nproc\": {}, \"profile\": \"{}\", \"samples\": {{{}}}}}}}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            lr_tensor::parallel::threads(),
            lr_tensor::simd::dispatch().isa_name(),
            lr_tensor::simd::dispatch().lanes(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            samples.join(", "),
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", "),
        );
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    let [end_to_end, per_layer] = schema();
    end_to_end
        .iter()
        .chain(per_layer)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// Per-phase durations (seconds) of repeated set-ups; a workload leaves a
/// phase it does not have at 0.
#[derive(Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub data: Vec<f64>,
    pub build: Vec<f64>,
    pub prewarm: Vec<f64>,
    pub server: Vec<f64>,
}

/// Windows a measured phase is split into. Its end-to-end figures are
/// means over the windows of each window's figures. The speed of each
/// vCPU of a shared host flips between states about 1.5× apart every few
/// seconds, so a median over the windows, or a quantile over the whole
/// run, jumps between the states with the share of time spent in each; the
/// mean moves in proportion to that share, and its run-to-run spread was
/// about half as wide on `serve`.
pub const WINDOWS: usize = 5;

/// One window's end-to-end figures (for `serve`, one segment's):
/// operations per second and the p50 and p99 latency in seconds.
pub struct WindowStats {
    pub throughput: f64,
    pub p50: f64,
    pub p99: f64,
}

impl WindowStats {
    /// Figures of operations of `items` each that lasted `durations`
    /// seconds.
    pub fn of_ops(items: usize, durations: &[f64]) -> WindowStats {
        WindowStats {
            throughput: rate(items, durations),
            p50: median(durations),
            p99: quantile(durations, 0.99),
        }
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Items per second of operation time, for operations of `items` each
/// lasting `durations` seconds.
pub fn rate(items: usize, durations: &[f64]) -> f64 {
    (items * durations.len()) as f64 / durations.iter().sum::<f64>()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    ranked(&sorted, q)
}

/// Nearest-rank quantile `q` of the ascending, non-empty `sorted`.
pub fn ranked(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`), NaN if unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
