//! What a run prints: the metric registry, the per-run outcome, and the
//! final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run), printed on every workload. Serve
/// workloads measure them in wall-clock time over loopback TCP; sim-churn
/// reads the same protocol latencies off the engine's virtual clock.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("upload_p50_ms", "ms"),
];

/// Per-layer metrics in the traced run's result line: the ones every
/// workload measures. On sim-churn the codec and WAL framing are timed on
/// the engine's own messages, which the simulation never encodes.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.encode_request_ms", "ms"),
    ("net.decode_request_ms", "ms"),
    ("net.encode_upload_ms", "ms"),
    ("net.decode_upload_ms", "ms"),
    ("net.encode_alloc_ms", "ms"),
    ("net.decode_alloc_ms", "ms"),
    ("net.request_bytes", "B"),
    ("net.upload_bytes", "B"),
    ("net.alloc_bytes", "B"),
    ("net.request_sent_over_priced", "ratio"),
    ("net.upload_sent_over_priced", "ratio"),
    ("net.alloc_sent_over_priced", "ratio"),
    ("net.wire_kb_per_round", "kB"),
    ("server.request_ms", "ms"),
    ("server.upload_ms", "ms"),
    ("persist.wal_frame_ms", "ms"),
    ("persist.wal_bytes_per_record", "B"),
    ("setup.world_ms", "ms"),
    ("setup.server_new_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("process.peak_rss_mb", "MB"),
];

/// Per-layer metrics of layers only some workloads exercise. The traced
/// run prints them by name; a workload that does not exercise the layer
/// prints `not measured` and the reason. They stay out of the result
/// line, which carries only figures every workload measures.
pub const WORKLOAD_LAYER: &[(&str, &str)] = &[
    ("server.flush_ms", "ms"),
    ("server.flush_batch", "count"),
    ("daemon.req_residual_ms", "ms"),
    ("daemon.upload_residual_ms", "ms"),
    ("daemon.req_p90_ms", "ms"),
    ("daemon.upload_p90_ms", "ms"),
    ("persist.wal_append_ms", "ms"),
    ("persist.snapshot_encode_ms", "ms"),
    ("persist.snapshot_decode_ms", "ms"),
    ("persist.snapshot_bytes", "B"),
    ("persist.rotations", "count"),
    ("persist.replayed_records", "count"),
    ("persist.recover_ms", "ms"),
    ("client.frame_us", "us"),
    ("client.end_round_us", "us"),
    ("client.install_us", "us"),
    ("client.hits", "count"),
    ("sim.frames", "count"),
    ("sim.latency_ms", "ms"),
    ("sim.hit_ratio", "ratio"),
    ("sim.accuracy_pct", "%"),
    ("driver.residual_us_per_frame", "us"),
    ("data.stream_us_per_frame", "us"),
    ("setup.attach_ms", "ms"),
    ("gen.lag_p95_ms", "ms"),
];

/// Ops of one phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (`closed`, `open`, `verify`, …).
    pub name: String,
    /// Ops the phase issued.
    pub attempted: u64,
    /// Ops that timed out, failed or got a wrong reply.
    pub failed: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops per phase.
    pub phases: Vec<Phase>,
    /// Output checks that failed, with the reason.
    pub failures: Vec<String>,
    /// Measured metrics by name (registry names plus human-only ones).
    pub values: BTreeMap<String, f64>,
    /// Per-layer metrics this workload does not measure, with the reason.
    pub not_measured: BTreeMap<String, String>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Marks the [`WORKLOAD_LAYER`] metrics named (or prefixed) by
    /// `names` as not measured on this workload.
    pub fn skip(&mut self, names: &[&str], reason: &str) {
        for (name, _) in WORKLOAD_LAYER {
            if names.iter().any(|n| name == n || name.starts_with(n)) {
                self.not_measured
                    .insert(name.to_string(), reason.to_string());
            }
        }
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Records a phase's op counts.
    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name: name.to_string(),
            attempted,
            failed,
        });
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Total ops attempted over every phase.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Total ops failed over every phase.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Whether every check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed() == 0 && self.attempted() > 0
    }

    /// The human-readable report: phases, the requested metric sets,
    /// unmeasured metrics with reasons, other measured values, and failed
    /// checks.
    pub fn render(&self, workload: &str, registries: &[&[(&str, &str)]]) -> String {
        let mut s = String::new();
        for l in &self.lines {
            let _ = writeln!(s, "{workload}: {l}");
        }
        for p in &self.phases {
            let _ = writeln!(
                s,
                "{workload}: phase {:<8} attempted {:>7} succeeded {:>7} failed {:>5}",
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed
            );
        }
        for (name, unit) in registries.iter().flat_map(|r| r.iter()) {
            match self.not_measured.get(*name) {
                Some(why) => {
                    let _ = writeln!(s, "{workload}: {name:<32} not measured: {why}");
                }
                None => {
                    let v = self.values.get(*name).copied().unwrap_or(f64::NAN);
                    let _ = writeln!(s, "{workload}: {name:<32} {v:>14.4} {unit}");
                }
            }
        }
        for (name, v) in &self.values {
            if !registries.iter().any(|r| r.iter().any(|(n, _)| n == name)) {
                let _ = writeln!(s, "{workload}: {name:<32} {v:>14.4} (also measured)");
            }
        }
        for f in &self.failures {
            let _ = writeln!(s, "{workload}: CHECK FAILED: {f}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// registry metric. A missing or non-finite value fails the run.
    pub fn json(&mut self, registry: &[(&str, &str)]) -> String {
        let mut metrics = Vec::new();
        for (name, unit) in registry {
            let value = match self.values.get(*name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.failures
                        .push(format!("metric {name} is {other:?}, not a finite number"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_registry_metric_with_its_unit() {
        let mut o = Outcome::default();
        o.phase("closed", 10, 0);
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn a_missing_metric_or_a_failed_op_fails_the_run() {
        let mut o = Outcome::default();
        o.phase("open", 5, 0);
        assert!(o.json(END_TO_END).starts_with("{\"correct\": false"));
        let mut o = Outcome::default();
        o.phase("open", 5, 1);
        for (name, _) in END_TO_END {
            o.set(name, 2.0);
        }
        assert!(o
            .json(END_TO_END)
            .starts_with("{\"correct\": false, \"attempted\": 5, \"failed\": 1"));
    }

    #[test]
    fn unmeasured_workload_layers_print_their_reason() {
        let mut o = Outcome::default();
        o.phase("run", 1, 0);
        o.skip(&["persist.", "gen."], "no storage");
        let text = o.render("w", &[WORKLOAD_LAYER]);
        assert!(text.contains("persist.rotations"));
        assert!(text.contains("not measured: no storage"));
        assert!(!o.json(END_TO_END).contains("persist."));
    }

    #[test]
    fn registries_match_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = manifest.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, _) in WORKLOAD_LAYER {
            assert!(
                !PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} listed twice"
            );
        }
    }
}
