//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repo root is generated from these
//! tables (`benchmark --print-manifest`), and a test pins the checked-in
//! file to them, so the lists cannot drift apart.

use std::fmt::Write as _;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The phase labels the protocol posts under, in pipeline order. A
/// traced run attributes every second of an execution to one of these
/// (compute preceding the phase's posts), to the board, or to the tail.
pub const PHASES: [&str; 13] = [
    "setup",
    "offline/1-beaver",
    "offline/2-wire-rand",
    "offline/3-dependent",
    "offline/4-pack",
    "offline/5-reenc-inputs",
    "offline/6-reenc-shares",
    "offline/handover",
    "online/1-keydist",
    "online/2-input",
    "online/3-mult",
    "online/4-output",
    "online/handover",
];

/// A phase label as it appears inside a metric name (`/` is not in the
/// metric-name alphabet).
pub fn phase_key(label: &str) -> String {
    label.replace('/', ".")
}

/// One metric of the benchmark contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Bound of the counts that repeat exactly from run to run. Any change
/// of a count is far above this share, so the bound is "exact" in
/// effect while staying a positive number.
const EXACT: f64 = 0.001;

/// What a user of the system sees, per workload. One bound per metric
/// for all workloads, so each is the loosest any workload needs on the
/// sizing host: its solo timings move in regimes of ±8 % that outlast a
/// run (quartile distance of ten runs' medians up to 0.22), and the
/// fleet's peak RSS depends on whether the two workers' whole-log copies
/// coexist (up to 0.13; the solo workloads repeat within 0.001).
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", 0.25),
    e2e("exec_s", "s", 0.25),
    e2e("offline_s", "s", 0.25),
    e2e("online_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
    e2e("offline_elems_per_gate", "elements", EXACT),
    e2e("online_elems_per_gate", "elements", EXACT),
    e2e("board_bytes_per_gate", "bytes", EXACT),
    e2e("rounds", "count", EXACT),
];

/// The stage rows of `core`, printed before the phase rows generated
/// from [`PHASES`].
const LAYER_STAGES: [MetricDef; 4] = [
    layer("core.setup_s", "s", "lower"),
    layer("core.offline_s", "s", "lower"),
    layer("core.online_s", "s", "lower"),
    layer("core.tail_s", "s", "lower"),
];

/// Every other per-layer metric, printed after the phase rows.
const LAYER_REST: [MetricDef; 54] = [
    layer("core.workitem.barrier_wait_s", "s", "lower"),
    layer("core.workitem.worker_skew_s", "s", "lower"),
    layer("yoso.board.post_s", "s", "lower"),
    layer("yoso.board.post_calls", "count", "lower"),
    layer("yoso.board.posts", "count", "lower"),
    layer("yoso.board.bytes", "bytes", "lower"),
    layer("yoso.board.read_s", "s", "lower"),
    layer("yoso.board.read_calls", "count", "lower"),
    layer("yoso.board.poll_s", "s", "lower"),
    layer("yoso.board.poll_calls", "count", "lower"),
    layer("yoso.tcp.post_frames", "count", "lower"),
    layer("yoso.tcp.sync_round_trips", "count", "lower"),
    layer("yoso.tcp.payload_bytes", "bytes", "lower"),
    layer("yoso.tcp.server_reads", "count", "lower"),
    layer("yoso.tcp.max_window", "count", "higher"),
    layer("yoso.board.inproc_posts_per_s", "1/s", "higher"),
    layer("yoso.tcp.posts_per_s", "1/s", "higher"),
    layer("yoso.tcp.read_posts_per_s", "1/s", "higher"),
    layer("the.encrypt_ns", "ns", "lower"),
    layer("the.eval_us", "us", "lower"),
    layer("the.partial_decrypt_ns", "ns", "lower"),
    layer("the.combine_us", "us", "lower"),
    layer("the.reshare_us", "us", "lower"),
    layer("the.reshare_verify_us", "us", "lower"),
    layer("the.recombine_key_us", "us", "lower"),
    layer("the.nizk.enc_prove_us", "us", "lower"),
    layer("the.nizk.enc_verify_us", "us", "lower"),
    layer("the.nizk.pdec_prove_us", "us", "lower"),
    layer("the.nizk.pdec_verify_us", "us", "lower"),
    layer("the.nizk.share_prove_us", "us", "lower"),
    layer("the.nizk.share_verify_us", "us", "lower"),
    layer("the.nizk.reshare_prove_us", "us", "lower"),
    layer("the.nizk.reshare_verify_us", "us", "lower"),
    layer("pss.share_us", "us", "lower"),
    layer("pss.reconstruct_us", "us", "lower"),
    layer("pss.share_public_us", "us", "lower"),
    layer("pss.recombination_vector_us", "us", "lower"),
    layer("pss.dealing_basis_rows_ms", "ms", "lower"),
    layer("pss.hot_allocs_per_gate", "count", "lower"),
    layer("field.mul_ns", "ns", "lower"),
    layer("field.inv_ns", "ns", "lower"),
    layer("field.batch_invert_ns_per_elem", "ns", "lower"),
    layer("field.basis_at_us", "us", "lower"),
    layer("field.interpolate_us", "us", "lower"),
    layer("field.ntt_forward_us", "us", "lower"),
    layer("field.butterfly_muls", "count", "lower"),
    layer("field.slice_muls", "count", "lower"),
    layer("crypto.sha256_mb_per_s", "MB/s", "higher"),
    layer("crypto.prg_mb_per_s", "MB/s", "higher"),
    layer("crypto.challenge_us", "us", "lower"),
    layer("circuit.build_ms", "ms", "lower"),
    layer("circuit.batched_ms", "ms", "lower"),
    layer("circuit.evaluate_ms", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Name, unit and direction of every per-layer metric, in print order:
/// the stage and phase rows of `core` first, then the rest.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let fixed = |out: &mut Vec<_>, defs: &[MetricDef]| {
        out.extend(defs.iter().map(|d| (d.name.to_string(), d.unit, d.better)));
    };
    fixed(&mut out, &LAYER_STAGES);
    for p in PHASES {
        out.push((format!("core.phase.{}_s", phase_key(p)), "s", "lower"));
        out.push((
            format!("core.phase.{}.elems", phase_key(p)),
            "elements",
            "lower",
        ));
    }
    fixed(&mut out, &LAYER_REST);
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/bench/src/bin/benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let workloads = &crate::workloads::WORKLOADS;
    for (i, w) in workloads.iter().enumerate() {
        let comma = if i + 1 == workloads.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Median of a sample (mean of the middle two for even counts);
/// `NaN` for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_in_the_contract_alphabet() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _, _)| n));
        names.extend(
            crate::workloads::WORKLOADS
                .iter()
                .map(|w| w.name.to_string()),
        );
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        for w in &crate::workloads::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
    }

    #[test]
    fn checked_in_manifest_equals_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `benchmark --print-manifest`"
        );
    }

    #[test]
    fn median_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
