//! One run of one workload: set-up, a discarded warm-up execution,
//! timed executions in a closed loop (one at a time, the next starts
//! when the previous returns), the correctness gate, and — in a traced
//! run — the per-layer table.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use yoso_field::{allocstats, transformstats};

use crate::metrics::{median, phase_key, PHASES};
use crate::trace::{attribute_fleet, Table, OTHER_PHASE};
use crate::workloads::{Execution, Prepared, Workload};
use crate::Opts;

/// Set-ups per batch: at least `SETUP_REPEATS.0`, then more while they
/// fit in `SETUP_BUDGET_S`, at most `SETUP_REPEATS.1`. A set-up is
/// micro- to milliseconds, so a steady median needs many; an untraced
/// run takes one batch before the executions and one after them, so the
/// samples do not all sit in one patch of the host's speed.
const SETUP_REPEATS: (usize, usize) = (5, 1000);
const SETUP_BUDGET_S: f64 = 0.2;
/// Discarded executions before the timed ones: first executions run
/// 1.5–2× slower (page faults, cold caches).
pub const WARMUP_EXECUTIONS: usize = 1;
/// Fewest timed executions of an untraced run, however long they take.
const MIN_TIMED: usize = 3;
/// Timed executions of a `--smoke` run.
const SMOKE_TIMED: usize = 2;
/// Fewest untraced / traced execution pairs of a traced run; more are
/// run while they fit in `--seconds`.
const MIN_TRACED_PAIRS: usize = 2;
/// Seconds one sample of one layer probe may take (5 samples each).
const PROBE_SAMPLE_S: f64 = 0.04;
const SMOKE_PROBE_SAMPLE_S: f64 = 0.002;

/// The samples behind a value reported as their median.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Timing {
    fn of(values: &[f64]) -> Timing {
        Timing {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: values.len(),
        }
    }
}

/// One reported metric: name, value, and the samples behind a timing.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub timing: Option<Timing>,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Executions attempted (the warm-up included) and failed. Failed =
    /// error, panic, outputs ≠ `Circuit::evaluate`, or a transcript
    /// hash / trace check that did not hold.
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure was one.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub mul_gates: usize,
    pub params: (usize, usize, usize),
    pub timed: usize,
    /// Where this run's own wall clock went (set-up, warm-up, measuring,
    /// probes), in seconds.
    pub sections: Vec<(&'static str, f64)>,
    /// The timed executions' wall clocks in run order — printed so that
    /// a drift or a bimodal run is visible, not folded into a median.
    pub exec_series: Vec<f64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            timing: None,
        });
    }

    fn push_timing(&mut self, name: &str, values: &[f64]) {
        self.metrics.push(Metric {
            name: name.into(),
            value: median(values),
            timing: Some(Timing::of(values)),
        });
    }
}

/// The protocol RNG seed of timed execution `i`; the warm-up shares
/// execution 0's, so their transcripts must be identical.
fn run_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs one execution and checks its outputs; a panic or an error is a
/// failed execution, not a crashed benchmark.
fn checked(
    w: &Workload,
    p: &Prepared,
    seed: u64,
    traced: bool,
    r: &mut Report,
) -> Option<Execution> {
    r.attempted += 1;
    let outcome = catch_unwind(AssertUnwindSafe(|| w.execute(p, seed, traced)))
        .unwrap_or_else(|_| Err("panicked".into()));
    match outcome {
        Ok(e) if e.run.outputs == p.expected => Some(e),
        Ok(_) => {
            r.fail(format!(
                "seed {seed}: outputs differ from Circuit::evaluate"
            ));
            None
        }
        Err(why) => {
            r.fail(format!("seed {seed}: {why}"));
            None
        }
    }
}

fn stage(e: &Execution, name: &str) -> f64 {
    e.run
        .stage_wall_secs
        .iter()
        .find(|(s, _)| *s == name)
        .map_or(f64::NAN, |(_, secs)| *secs)
}

/// One batch of set-ups — harness set-up (circuit, inputs, cleartext
/// reference) plus Π_Setup alone on a fresh board — each timed into
/// `samples`. Returns the last one's product.
fn set_up_repeatedly(
    w: &Workload,
    seed: u64,
    params: yoso_core::ProtocolParams,
    samples: &mut Vec<f64>,
) -> Result<Prepared, String> {
    let budget = Instant::now();
    let mut done = 0;
    loop {
        let start = Instant::now();
        let p = w.prepare(seed, params);
        w.protocol_setup(&p, seed)?;
        samples.push(start.elapsed().as_secs_f64());
        done += 1;
        let more = done < SETUP_REPEATS.0
            || (done < SETUP_REPEATS.1 && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S);
        if !more {
            return Ok(p);
        }
    }
}

/// # Errors
///
/// When no execution succeeded, so there is nothing to report, when
/// `--n` names a committee size without feasible parameters, or when
/// Π_Setup alone fails.
pub fn run_workload(w: &Workload, o: &Opts) -> Result<Report, String> {
    let mut r = Report::default();
    let params = w.params(o.n.unwrap_or(if o.smoke { w.smoke_n } else { w.n }))?;

    let section = Instant::now();
    let mut setups = Vec::new();
    let p = set_up_repeatedly(w, o.seed, params, &mut setups)?;
    r.sections.push(("setup", section.elapsed().as_secs_f64()));
    r.mul_gates = p.circuit.mul_count();
    r.params = (p.params.n, p.params.k, p.params.t);

    // The warm-up is discarded from the timings but held to the same checks.
    let section = Instant::now();
    let seed0 = run_seed(o.seed, 0);
    let warm_hash = checked(w, &p, seed0, false, &mut r).map(|e| e.transcript_hash());
    r.sections.push(("warmup", section.elapsed().as_secs_f64()));

    let section = Instant::now();
    if o.trace {
        traced_run(w, &p, o, &mut r);
    } else {
        untraced_run(w, &p, o, setups, warm_hash, &mut r)?;
    }
    r.sections
        .push(("measure", section.elapsed().as_secs_f64()));
    if r.metrics.is_empty() {
        return Err(format!("no execution succeeded: {}", r.failures.join("; ")));
    }
    Ok(r)
}

fn untraced_run(
    w: &Workload,
    p: &Prepared,
    o: &Opts,
    mut setups: Vec<f64>,
    warm_hash: Option<Result<u64, String>>,
    r: &mut Report,
) -> Result<(), String> {
    let (mut wall, mut offline, mut online, mut connect) = (vec![], vec![], vec![], vec![]);
    let mut counts = None;
    let mut spent = 0.0;
    for i in 0.. {
        let enough = if o.smoke {
            i >= SMOKE_TIMED
        } else {
            i >= MIN_TIMED && spent + median(&wall) > o.seconds
        };
        if enough {
            break;
        }
        // A failed execution fails the run; nothing after it is worth timing.
        let Some(e) = checked(w, p, run_seed(o.seed, i), false, r) else {
            break;
        };
        spent += e.wall_s;
        wall.push(e.wall_s);
        offline.push(stage(&e, "offline"));
        online.push(stage(&e, "online"));
        connect.push(e.connect_s);
        let gates = p.circuit.mul_count() as f64;
        let these = (
            e.run.offline_elements_per_gate(),
            e.run.online_elements_per_gate(),
            e.board_bytes() as f64 / gates,
            e.run.rounds as f64,
        );
        if *counts.get_or_insert(these) != these {
            r.fail(format!(
                "execution {i}: communication counts differ from execution 0's"
            ));
        }
        if i == 0 {
            check_hashes(w, p, run_seed(o.seed, 0), &e, warm_hash.clone(), r);
        }
    }
    r.timed = wall.len();
    let Some((offline_epg, online_epg, bytes_pg, rounds)) = counts else {
        return Ok(());
    };

    // Set-up = harness + Π_Setup, plus what the fleet spends per
    // execution on its server and connections.
    set_up_repeatedly(w, o.seed, p.params, &mut setups)?;
    let connect_s = median(&connect);
    for s in &mut setups {
        *s += connect_s;
    }
    r.push_timing("setup_s", &setups);
    r.push_timing("exec_s", &wall);
    r.exec_series = wall;
    r.push_timing("offline_s", &offline);
    r.push_timing("online_s", &online);
    r.push("peak_rss_mb", peak_rss_mb());
    r.push("offline_elems_per_gate", offline_epg);
    r.push("online_elems_per_gate", online_epg);
    r.push("board_bytes_per_gate", bytes_pg);
    r.push("rounds", rounds);
    Ok(())
}

/// The transcript gate: the warm-up and timed execution 0 share a seed,
/// so their hashes must match; the fleet's must also equal a solo
/// in-process run's on that seed.
fn check_hashes(
    w: &Workload,
    p: &Prepared,
    seed0: u64,
    first: &Execution,
    warm_hash: Option<Result<u64, String>>,
    r: &mut Report,
) {
    let hash = match first.transcript_hash() {
        Ok(h) => h,
        Err(why) => return r.fail(format!("transcript of execution 0 unreadable: {why}")),
    };
    match warm_hash {
        Some(Ok(wh)) if wh == hash => {}
        Some(Ok(wh)) => r.fail(format!(
            "transcript hash {hash:016x} of execution 0 != warm-up's {wh:016x}"
        )),
        Some(Err(why)) => r.fail(format!("transcript of the warm-up unreadable: {why}")),
        None => {} // the warm-up itself failed and is already counted
    }
    if w.fleet {
        match w.solo_reference_hash(p, seed0) {
            Ok(solo) if solo == hash => {}
            Ok(solo) => r.fail(format!(
                "fleet transcript hash {hash:016x} != solo in-process {solo:016x}"
            )),
            Err(why) => r.fail(format!("solo reference run failed: {why}")),
        }
    }
}

fn traced_run(w: &Workload, p: &Prepared, o: &Opts, r: &mut Report) {
    let gates = p.circuit.mul_count() as f64;
    let (mut plain_wall, mut traced_wall) = (vec![], vec![]);
    let mut tables: Vec<Table> = vec![];
    let (mut stages, mut skew) = (vec![], vec![]);
    let mut exact = None; // (hot allocs, butterfly muls, slice muls) of a traced execution
    let mut wire = None;
    let mut spent = 0.0;
    for i in 0.. {
        let pair_s = median(&plain_wall) + median(&traced_wall);
        if i >= MIN_TRACED_PAIRS && (o.smoke || r.failed > 0 || spent + pair_s > o.seconds) {
            break;
        }
        let seed = run_seed(o.seed, i);
        let Some(plain) = checked(w, p, seed, false, r) else {
            continue;
        };
        let plain_hash = (i == 0).then(|| plain.transcript_hash());
        let (plain_wall_s, plain_phases, plain_rounds) =
            (plain.wall_s, plain.run.phases.clone(), plain.run.rounds);
        // Free the untraced board first: with both logs alive the traced
        // execution would page-fault fresh memory the untraced one reused.
        drop(plain);
        // The counters are process-global; only one execution runs at a time.
        let before = (
            allocstats::hot_allocs(),
            transformstats::butterfly_muls(),
            transformstats::slice_muls(),
        );
        let Some(e) = checked(w, p, seed, true, r) else {
            continue;
        };
        let counters = (
            allocstats::hot_allocs() - before.0,
            transformstats::butterfly_muls() - before.1,
            transformstats::slice_muls() - before.2,
        );
        exact.get_or_insert(counters);
        let Some(t) = &e.traced else { continue };
        let table = attribute_fleet(&t.spans, e.wall_s);
        if (table.rows_total_s() - e.wall_s).abs() > 0.01 * e.wall_s {
            r.fail(format!(
                "trace rows sum to {} s, wall is {} s",
                table.rows_total_s(),
                e.wall_s
            ));
        }
        if table.phase_s[OTHER_PHASE] > 0.0 || table.phase_elems[OTHER_PHASE] > 0 {
            r.fail("a post carried a phase label the benchmark has no metric for".into());
        }
        // Tracing must not change what is posted.
        if plain_phases != e.run.phases || plain_rounds != e.run.rounds {
            r.fail("traced execution posted differently from the untraced one".into());
        }
        if plain_hash.is_some_and(|h| h != e.transcript_hash()) {
            r.fail("transcript hash with tracing != hash without".into());
        }
        spent += plain_wall_s + e.wall_s;
        plain_wall.push(plain_wall_s);
        traced_wall.push(e.wall_s);
        stages.push((
            stage(&e, "setup"),
            stage(&e, "offline"),
            stage(&e, "online"),
        ));
        let finish = &e.worker_finish_s;
        skew.push(
            finish.iter().copied().fold(0.0, f64::max)
                - finish.iter().copied().fold(f64::INFINITY, f64::min),
        );
        wire = t.wire.or(wire);
        tables.push(table);
    }
    r.timed = traced_wall.len();
    let (Some((hot_allocs, butterflies, slices)), false) = (exact, tables.is_empty()) else {
        return;
    };

    let med = |f: &dyn Fn(&Table) -> f64| median(&tables.iter().map(f).collect::<Vec<_>>());
    let med_stage =
        |f: &dyn Fn(&(f64, f64, f64)) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    // Solo workloads have no wire; their TCP counters are 0.
    let (client, server) = wire.unwrap_or_default();
    let mut values: Vec<(String, f64)> = vec![
        ("core.setup_s".into(), med_stage(&|s| s.0)),
        ("core.offline_s".into(), med_stage(&|s| s.1)),
        ("core.online_s".into(), med_stage(&|s| s.2)),
        ("core.tail_s".into(), med(&|t| t.tail_s)),
        (
            "core.workitem.barrier_wait_s".into(),
            med(&|t| t.barrier_wait_s),
        ),
        ("core.workitem.worker_skew_s".into(), median(&skew)),
        ("yoso.board.post_s".into(), med(&|t| t.post_s)),
        (
            "yoso.board.post_calls".into(),
            med(&|t| t.post_calls as f64),
        ),
        ("yoso.board.posts".into(), med(&|t| t.posts as f64)),
        ("yoso.board.bytes".into(), med(&|t| t.bytes as f64)),
        ("yoso.board.read_s".into(), med(&|t| t.read_s)),
        (
            "yoso.board.read_calls".into(),
            med(&|t| t.read_calls as f64),
        ),
        ("yoso.board.poll_s".into(), med(&|t| t.poll_s)),
        (
            "yoso.board.poll_calls".into(),
            med(&|t| t.poll_calls as f64),
        ),
        ("yoso.tcp.post_frames".into(), client.post_frames as f64),
        (
            "yoso.tcp.sync_round_trips".into(),
            client.sync_round_trips as f64,
        ),
        ("yoso.tcp.payload_bytes".into(), server.payload_bytes as f64),
        ("yoso.tcp.server_reads".into(), server.reads as f64),
        ("yoso.tcp.max_window".into(), server.max_window as f64),
        ("pss.hot_allocs_per_gate".into(), hot_allocs as f64 / gates),
        ("field.butterfly_muls".into(), butterflies as f64),
        ("field.slice_muls".into(), slices as f64),
        (
            "trace.overhead_pct".into(),
            100.0 * (median(&traced_wall) / median(&plain_wall) - 1.0),
        ),
    ];
    for (i, label) in PHASES.iter().enumerate() {
        let key = phase_key(label);
        values.push((format!("core.phase.{key}_s"), med(&|t| t.phase_s[i])));
        values.push((
            format!("core.phase.{key}.elems"),
            med(&|t| t.phase_elems[i] as f64),
        ));
    }
    let sample_s = if o.smoke {
        SMOKE_PROBE_SAMPLE_S
    } else {
        PROBE_SAMPLE_S
    };
    let section = Instant::now();
    let probed = crate::probes::run(w, p, sample_s);
    r.sections.push(("probes", section.elapsed().as_secs_f64()));
    values.extend(probed.into_iter().map(|(name, v)| (name.to_string(), v)));

    // Emit in the manifest's order; a metric without a value fails the run.
    for (name, _, _) in crate::metrics::per_layer() {
        match values.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => r.push(name, *v),
            None => r.fail(format!("no value for per-layer metric {name}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer, END_TO_END};
    use crate::workloads::WORKLOADS;

    fn smoke(trace: bool) -> Opts {
        Opts {
            seed: 9,
            trace,
            smoke: true,
            ..crate::parse_args(&[]).unwrap()
        }
    }

    #[test]
    fn a_run_emits_exactly_the_manifests_metrics() {
        for w in &WORKLOADS {
            let r = run_workload(w, &smoke(false)).unwrap();
            assert!(r.correct(), "{}: {:?}", w.name, r.failures);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{}",
                w.name
            );
            assert!(
                r.metrics.iter().all(|m| m.value > 0.0),
                "{}: end-to-end metrics are never 0",
                w.name
            );
            assert_eq!(r.timed, SMOKE_TIMED);

            let r = run_workload(w, &smoke(true)).unwrap();
            assert!(r.correct(), "{}: {:?}", w.name, r.failures);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                per_layer()
                    .iter()
                    .map(|(n, _, _)| n.as_str())
                    .collect::<Vec<_>>(),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn wrong_outputs_fail_the_execution() {
        let w = &WORKLOADS[1];
        let mut p = w.prepare(1, w.params(w.smoke_n).unwrap());
        p.expected[0][0] += yoso_field::F61::from(1u64);
        let mut r = Report::default();
        assert!(checked(w, &p, 1, false, &mut r).is_none());
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(!r.correct());
    }
}
