//! `yoso` — command-line driver for the packed YOSO MPC stack.
//!
//! ```text
//! yoso run   --circuit inner-product --size 8 --n 16 --eps 0.2
//! yoso run   --circuit stats --size 4 --clients 3 --attack wrong-value
//! yoso run   --spawn-workers 4 --n 16 --eps 0.2
//! yoso worker --roles 0..4 --board tcp://127.0.0.1:7310 --n 16 --eps 0.2
//! yoso plan  --pool 1000000 --f 0.10
//! yoso table1
//! yoso paillier --bits 192
//! yoso help
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print_help();
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(command, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => commands::run(&opts),
        "worker" => commands::worker(&opts),
        "board-stats" => commands::board_stats(&opts),
        "plan" => commands::plan(&opts),
        "table1" => commands::table1(),
        "bench-scale" => commands::bench_scale(&opts),
        "paillier" => commands::paillier(&opts),
        "experiments" => commands::experiments(),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `yoso help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The options that define a protocol run: `run` takes them, and so
/// does every `worker` of the fleet executing it.
const RUN_OPTS: [&str; 12] = [
    "circuit", "size", "clients", "n", "eps", "attack", "t-mal", "crashes", "seed", "threads",
    "no-proofs", "board",
];

/// Whether `command` accepts `--key` (`None`: no such command). A typo
/// or a retired flag must stop the run, not silently change what it
/// does.
fn accepts(command: &str, key: &str) -> Option<bool> {
    let own: &[&str] = match command {
        "run" => &["spawn-workers"],
        "worker" => &["roles"],
        "board-stats" => &["board", "dump", "shutdown"],
        "plan" => &["pool", "f", "c"],
        "bench-scale" => &["smoke"],
        "paillier" => &["bits", "parties", "threshold", "seed"],
        "table1" | "experiments" | "help" | "--help" | "-h" => &[],
        _ => return None,
    };
    let runs_protocol = matches!(command, "run" | "worker");
    Some(own.contains(&key) || (runs_protocol && RUN_OPTS.contains(&key)))
}

/// Parses `--key value` pairs (and bare `--flag` as `"true"`),
/// rejecting the first option `command` does not accept. An unknown
/// command accepts anything here; `main` reports it by name.
fn parse_opts(command: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {arg:?}"))?;
        if accepts(command, key) == Some(false) {
            return Err(format!("unknown option --{key} for `yoso {command}`; try `yoso help`"));
        }
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        opts.insert(key.to_string(), value);
    }
    Ok(opts)
}

fn print_help() {
    println!(
        "yoso — packed YOSO MPC simulator and experiment driver

USAGE:
  yoso run [OPTIONS]         run the full three-phase protocol
  yoso worker [OPTIONS]      one role-sharded worker of a multi-host run
  yoso board-stats [OPTIONS] audit a remote board-server's posting log
  yoso plan [OPTIONS]        committee-size planning (paper §6)
  yoso table1                regenerate the paper's Table 1
  yoso bench-scale [--smoke] one run per Table-1 committee size: stage
                             wall-clock, peak RSS, transcript hash
                             (writes BENCH_scale.json; --smoke shrinks
                             the sizes)
  yoso paillier [OPTIONS]    threshold-Paillier smoke run
  yoso experiments           quick versions of the headline experiments
  yoso help                  this message

A board server for multi-process runs is started with the companion
`board-server` binary. A single driver posts to it with `yoso run
--board tcp://HOST:PORT`; a role-sharded fleet splits the committee
work across `yoso worker --roles a..b` processes (one per host if you
like) that share the board — or use `yoso run --spawn-workers N`,
which starts an in-tree server and forks the workers locally. Either
way the transcript is byte-identical to a single-process run, and
`yoso board-stats --board tcp://HOST:PORT` aggregates the per-worker
metering from the shared posting log.

RUN OPTIONS:
  --circuit NAME    inner-product | poly-eval | stats | wide | average |
                    matmul | set-membership                              [inner-product]
  --size N          circuit size parameter                               [8]
  --clients N       clients (stats/average circuits)                     [2]
  --n N             committee size                                       [16]
  --eps F           corruption gap ε in (0, 0.5)                         [0.2]
  --attack NAME     none | wrong-value | bad-proof | silent | additive   [none]
  --t-mal N         malicious roles per committee (≤ t)                  [t]
  --crashes N       fail-stop roles per committee (online mult phase)    [0]
  --seed N          RNG seed                                             [7]
  --threads N       worker threads for triple/gate fan-out
                    (any value yields a byte-identical transcript)       [1]
  --no-proofs       skip NIZK computation (metering unchanged)
  --board ADDR      post to a shared board-server (tcp://HOST:PORT)
                    instead of the in-process board
  --spawn-workers N run role-sharded: in-tree board server + N local
                    worker processes (this process leads as worker 0)

WORKER OPTIONS (plus all RUN options but --spawn-workers, identical
across the fleet):
  --roles A..B      the half-open committee-member range this worker
                    owns (proof work + posting); required
  --board ADDR      the shared board-server (tcp://HOST:PORT); required

BOARD-STATS OPTIONS:
  --board ADDR      the board-server to audit (tcp://HOST:PORT), required
  --dump FILE       write the raw posting log (round|author|phase|message
                    per line) for transcript diffing
  --shutdown        ask the server to shut down after reading

PLAN OPTIONS:
  --pool N          global party count                                   [1000000]
  --f F             global corruption ratio                              [0.1]
  --c N             sortition parameter (omit to sweep)

PAILLIER OPTIONS:
  --bits N          prime size in bits (modulus is 2N bits)              [160]
  --parties N       committee size                                       [3]
  --threshold N     corruption threshold                                 [1]
  --seed N          RNG seed                                             [7]"
    );
}
