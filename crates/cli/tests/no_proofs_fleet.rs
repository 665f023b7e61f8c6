//! `--no-proofs` switches off proofs only: on a shared board the
//! posting log must survive, because the fleet synchronizes on it and
//! `board-stats` audits it.

use std::net::SocketAddr;
use std::process::{Command, Stdio};

use yoso_runtime::{BoardServer, ServerHandle};

const RUN_OPTS: [&str; 9] =
    ["--circuit", "inner-product", "--size", "8", "--n", "16", "--seed", "7", "--no-proofs"];

fn yoso() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_yoso"));
    cmd.stdout(Stdio::null());
    cmd
}

fn board_server() -> ServerHandle {
    BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap().spawn().unwrap()
}

/// The server's posting log as `board-stats --dump` writes it.
fn dump(server: &ServerHandle, name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let status = yoso()
        .args(["board-stats", "--board", &format!("tcp://{}", server.addr()), "--dump"])
        .arg(&path)
        .status()
        .unwrap();
    assert!(status.success(), "board-stats --dump failed");
    std::fs::read_to_string(&path).unwrap()
}

#[test]
fn no_proofs_fleet_dumps_the_single_process_transcript() {
    let mut server = board_server();
    let board = format!("tcp://{}", server.addr());
    let status = yoso().arg("run").args(RUN_OPTS).args(["--board", &board]).status().unwrap();
    assert!(status.success(), "single-process --no-proofs --board run failed");
    let single = dump(&server, "no-proofs-single.txt");
    server.shutdown();
    assert!(!single.is_empty(), "--no-proofs must not drop the shared board's posting log");

    let mut server = board_server();
    let board = format!("tcp://{}", server.addr());
    let workers: Vec<_> = ["0..4", "4..8", "8..12", "12..16"]
        .iter()
        .map(|roles| {
            yoso()
                .arg("worker")
                .args(["--roles", roles, "--board", &board])
                .args(RUN_OPTS)
                .spawn()
                .unwrap()
        })
        .collect();
    for mut worker in workers {
        assert!(worker.wait().unwrap().success(), "a --no-proofs worker failed");
    }
    let fleet = dump(&server, "no-proofs-fleet.txt");
    server.shutdown();
    assert_eq!(single, fleet, "4-worker --no-proofs transcript differs from single-process");
}

#[test]
fn no_proofs_spawn_workers_run_completes() {
    let status = yoso().arg("run").args(RUN_OPTS).args(["--spawn-workers", "4"]).status().unwrap();
    assert!(status.success(), "run --no-proofs --spawn-workers 4 failed");
}
