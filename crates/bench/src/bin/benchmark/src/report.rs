//! What a run prints: an environment block, one `metric` line per
//! metric (name, value, unit, direction, bound), and — last — the JSON
//! object the driver reads.

use std::fmt::Write as _;

use crate::metrics::{per_layer, END_TO_END};
use crate::run::Report;
use crate::workloads::{Workload, FLEET_WORKERS};
use crate::Opts;

/// First line of a command's output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

pub fn print(w: &Workload, o: &Opts, r: &Report) {
    let (n, k, t) = r.params;
    println!(
        "# workload {}: n={n} k={k} t={t}, wide_layered(width {}, depth {}, 2 clients), {} mul gates, NIZKs {}, {}",
        w.name,
        k * w.width_in_k,
        w.depth,
        r.mul_gates,
        if w.proofs { "on" } else { "off" },
        if w.fleet { "2 worker threads over a loopback TCP board" } else { "solo on an in-process board" },
    );
    println!(
        "env nproc={} cpu=\"{}\" rustc=\"{}\" commit={} seed={} seconds={} trace={} smoke={} warmup_executions={} timed_executions={}",
        cores(),
        cpu_model(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.smoke,
        crate::run::WARMUP_EXECUTIONS,
        r.timed,
    );
    if !r.exec_series.is_empty() {
        let series: Vec<String> = r.exec_series.iter().map(|s| format!("{s:.3}")).collect();
        println!(
            "# exec_s of each timed execution, in order: {}",
            series.join(" ")
        );
    }
    let sections: Vec<String> = r
        .sections
        .iter()
        .map(|(name, secs)| format!("{name}={secs:.2}"))
        .collect();
    println!(
        "# this run spent (s): {} (measure includes probes)",
        sections.join(" ")
    );
    // The fleet needs a core per worker; with fewer its timings say
    // nothing about the protocol and are marked, never dropped.
    let unresolved = w.fleet && cores() < FLEET_WORKERS;
    if unresolved {
        println!(
            "# fewer than {FLEET_WORKERS} cores: the timings of {} are unresolved",
            w.name
        );
    }
    let defs: Vec<(String, &str, &str, Option<f64>)> = if o.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit, better)| (name, unit, better, None))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.better, m.bound))
            .collect()
    };
    let mut json = String::new();
    for (name, unit, better, bound) in &defs {
        let Some(m) = r.metrics.iter().find(|m| m.name == *name) else {
            continue;
        };
        let mut line = format!("metric {name} {} {unit} better={better}", m.value);
        if let Some(b) = bound {
            let _ = write!(line, " bound={b}");
        }
        if let Some(s) = &m.timing {
            let _ = write!(line, " median_of={} min={} max={}", s.samples, s.min, s.max);
        }
        let timed = matches!(*unit, "s" | "ms" | "us" | "ns" | "1/s" | "MB/s" | "%");
        if unresolved && timed {
            line.push_str(" unresolved");
        }
        println!("{line}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        );
    }
    for why in &r.failures {
        println!("failed: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        r.correct(),
        r.attempted,
        r.failed
    );
}

/// `(name, value)` of every `metric` line in a child's output.
pub fn parse_metric_lines(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|l| {
            let mut parts = l.strip_prefix("metric ")?.split_whitespace();
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip() {
        let text = "# header\nmetric exec_s 1.25 s better=lower bound=0.15 median_of=3 min=1.2 max=1.3\nenv x\nmetric rounds 38 count better=lower bound=0.001\n";
        assert_eq!(
            parse_metric_lines(text),
            vec![("exec_s".to_string(), 1.25), ("rounds".to_string(), 38.0)]
        );
    }
}
