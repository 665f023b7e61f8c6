//! The four workloads and how one operation — one full protocol
//! execution, Π_Setup → Π_Offline → Π_Online — is run and checked.
//!
//! Every workload uses ε = 0.25, an honest committee and
//! `ExecutionConfig::default()` plus only `produce_proofs` and
//! `with_partition`: the benchmark measures the default path and keeps
//! compiling when other knobs are deleted.

use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use yoso_circuit::{generators, Circuit};
use yoso_core::messages::Post;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams, RunResult};
use yoso_field::{PrimeField, F61};
use yoso_runtime::{
    Adversary, BoardServer, BoardTransport, BulletinBoard, InProcessTransport, PhaseAccumulator,
    ServerWireStats, TcpOptions, TcpTransport, WireStats,
};

use crate::trace::{Span, TracingTransport};

/// The gap every workload derives `(t, k)` from.
const EPSILON: f64 = 0.25;
/// Worker threads (and TCP connections) of the fleet workload: one per
/// core of the 2-core host the workloads were sized on.
pub const FLEET_WORKERS: usize = 2;

/// One workload: a fixed circuit shape at a fixed committee size.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Committee size (`--smoke` uses `smoke_n`).
    pub n: usize,
    pub smoke_n: usize,
    /// Circuit width in units of the packing factor `k`.
    pub width_in_k: usize,
    pub depth: usize,
    pub proofs: bool,
    /// Two worker threads over a loopback TCP board instead of one
    /// driver on an in-process board.
    pub fleet: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wide-proved",
        why: "n=48, width 2k, depth 2, NIZKs on: the protocol as the paper specifies it; the::nizk and crypto do nearly all the work, field/pss/board almost none",
        n: 48,
        smoke_n: 16,
        width_in_k: 2,
        depth: 2,
        proofs: true,
        fleet: false,
    },
    Workload {
        name: "wide-scale",
        why: "n=512, width k, depth 2, NIZKs off: committee-size scaling; mock-TE eval/reshare, pss, field and the tsk handover do the work, the::nizk none",
        n: 512,
        smoke_n: 32,
        width_in_k: 1,
        depth: 2,
        proofs: false,
        fleet: false,
    },
    Workload {
        name: "deep-rounds",
        why: "n=192, width k, depth 16, NIZKs off: many rounds and handovers and a multi-million-posting audit log; board posting and the online phase weigh most here",
        n: 192,
        smoke_n: 16,
        width_in_k: 1,
        depth: 16,
        proofs: false,
        fleet: false,
    },
    Workload {
        name: "fleet-tcp",
        why: "n=128, width 2k, depth 2, NIZKs off, 2 worker threads on a loopback TCP board: posts interleaved with position polls, round barriers and the whole-log read",
        n: 128,
        smoke_n: 16,
        width_in_k: 2,
        depth: 2,
        proofs: false,
        fleet: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// What the harness builds once per run: everything an execution needs
/// except the board.
pub struct Prepared {
    pub params: ProtocolParams,
    pub circuit: Circuit<F61>,
    pub inputs: Vec<Vec<F61>>,
    /// `Circuit::evaluate` on the inputs — the reference every
    /// execution's outputs must equal.
    pub expected: Vec<Vec<F61>>,
}

impl Workload {
    /// # Errors
    ///
    /// Only for a `--n` override the gap ε = 0.25 has no parameters for.
    pub fn params(&self, n: usize) -> Result<ProtocolParams, String> {
        ProtocolParams::from_gap(n, EPSILON).map_err(|e| format!("n = {n}: {e}"))
    }

    pub fn build_circuit(&self, k: usize) -> Circuit<F61> {
        generators::wide_layered::<F61>(k * self.width_in_k, self.depth, 2)
            .expect("wide_layered builds for valid shapes")
    }

    /// Harness set-up: the circuit (its shape is fixed by the
    /// workload), the inputs (drawn from `seed`) and the cleartext
    /// reference.
    pub fn prepare(&self, seed: u64, params: ProtocolParams) -> Prepared {
        let circuit = self.build_circuit(params.k);
        let mut r = rng(seed);
        let inputs: Vec<Vec<F61>> = circuit
            .inputs_per_client()
            .iter()
            .map(|wires| wires.iter().map(|_| F61::random(&mut r)).collect())
            .collect();
        let expected = circuit
            .evaluate(&inputs)
            .expect("inputs match the circuit's layout");
        Prepared {
            params,
            circuit,
            inputs,
            expected,
        }
    }

    /// Π_Setup alone, on a fresh in-process board: the stage every
    /// execution starts with, callable often enough for a steady median.
    ///
    /// # Errors
    ///
    /// A protocol error from the stage.
    pub fn protocol_setup(&self, p: &Prepared, seed: u64) -> Result<(), String> {
        let board = BulletinBoard::<Post>::new();
        yoso_core::setup::run_setup::<F61, _>(
            &mut rng(seed),
            &p.params,
            &board,
            p.circuit.mul_depth(),
            p.circuit.clients(),
        )
        .map(drop)
        .map_err(|e| format!("Π_Setup: {e}"))
    }

    fn config(&self) -> ExecutionConfig {
        ExecutionConfig {
            produce_proofs: self.proofs,
            ..ExecutionConfig::default()
        }
    }
}

/// What a traced execution recorded.
pub struct Traced {
    /// One span list per worker, the leader's first.
    pub spans: Vec<Vec<Span>>,
    /// Wire counters, fleet only: client side summed over the workers'
    /// connections, server side as of the end of the execution.
    pub wire: Option<(WireStats, ServerWireStats)>,
}

/// One finished execution, with the board still alive so the caller
/// can hash the transcript outside the timed region.
pub struct Execution {
    /// Wall clock, call to return (for the fleet: thread spawn to the
    /// last join).
    pub wall_s: f64,
    /// Per-execution set-up that is not part of the operation: server
    /// spawn and connects (fleet only).
    pub connect_s: f64,
    /// The leader's result.
    pub run: RunResult<F61>,
    /// Seconds from the start of the execution to each worker's return.
    pub worker_finish_s: Vec<f64>,
    pub traced: Option<Traced>,
    board: BulletinBoard<Post>,
    // Keeps the loopback server alive until the board has been read.
    _server: Option<yoso_runtime::ServerHandle>,
}

impl Execution {
    /// FNV-1a 64 of every transcript line, in posting order.
    pub fn transcript_hash(&self) -> Result<u64, String> {
        let mut acc = PhaseAccumulator::new();
        acc.finish(&self.board).map_err(|e| e.to_string())?;
        Ok(acc.transcript_hash())
    }

    /// Σ metered bytes over all phases.
    pub fn board_bytes(&self) -> u64 {
        self.run.phases.iter().map(|(_, s)| s.bytes).sum()
    }
}

fn board_over<T: BoardTransport<Post> + 'static>(transport: &Arc<T>) -> BulletinBoard<Post> {
    BulletinBoard::with_transport(Arc::clone(transport) as Arc<dyn BoardTransport<Post>>)
}

impl Workload {
    /// Runs one execution with protocol RNG seed `run_seed`. With
    /// `traced`, every board is wrapped in a [`TracingTransport`].
    ///
    /// # Errors
    ///
    /// A protocol or transport error, a worker panic, or workers that
    /// disagree on the outputs — each makes the execution a failed one.
    pub fn execute(&self, p: &Prepared, run_seed: u64, traced: bool) -> Result<Execution, String> {
        if self.fleet {
            self.execute_fleet(p, run_seed, traced)
        } else {
            self.execute_solo(p, run_seed, traced)
        }
    }

    fn execute_solo(&self, p: &Prepared, run_seed: u64, traced: bool) -> Result<Execution, String> {
        let engine = Engine::new(p.params, self.config());
        let mut r = rng(run_seed);
        let start = Instant::now();
        let tracer =
            traced.then(|| Arc::new(TracingTransport::new(InProcessTransport::new(), start)));
        let board = tracer.as_ref().map_or_else(BulletinBoard::new, board_over);
        let run = engine
            .run_with_board(&mut r, &p.circuit, &p.inputs, &Adversary::none(), &board)
            .map_err(|e| e.to_string())?;
        let wall_s = start.elapsed().as_secs_f64();
        Ok(Execution {
            wall_s,
            connect_s: 0.0,
            run,
            worker_finish_s: vec![wall_s],
            traced: tracer.map(|t| Traced {
                spans: vec![t.take_spans()],
                wire: None,
            }),
            board,
            _server: None,
        })
    }

    fn execute_fleet(
        &self,
        p: &Prepared,
        run_seed: u64,
        traced: bool,
    ) -> Result<Execution, String> {
        type Tcp = TcpTransport<Post>;
        let err = |e: yoso_runtime::BoardError| e.to_string();

        // A sharded run must start from a fresh board, so every
        // execution gets its own server and connections.
        let connect = Instant::now();
        let server = BoardServer::bind(std::net::SocketAddr::from(([127, 0, 0, 1], 0)))
            .and_then(BoardServer::spawn)
            .map_err(err)?;
        let connections: Vec<Tcp> = (0..FLEET_WORKERS)
            .map(|_| Tcp::connect(server.addr(), TcpOptions::default()).map_err(err))
            .collect::<Result<_, _>>()?;
        let connect_s = connect.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut tracers: Vec<Arc<TracingTransport<Tcp>>> = Vec::new();
        let boards: Vec<BulletinBoard<Post>> = connections
            .into_iter()
            .map(|c| {
                if traced {
                    tracers.push(Arc::new(TracingTransport::new(c, start)));
                    board_over(&tracers[tracers.len() - 1])
                } else {
                    board_over(&Arc::new(c))
                }
            })
            .collect();

        let joined: Vec<Result<(RunResult<F61>, f64), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = boards
                .iter()
                .enumerate()
                .map(|(w, board)| {
                    let cfg = self
                        .config()
                        .with_partition(p.params.worker_role_range(w, FLEET_WORKERS));
                    s.spawn(move || {
                        let mut r = rng(run_seed);
                        let run = Engine::new(p.params, cfg)
                            .run_with_board(
                                &mut r,
                                &p.circuit,
                                &p.inputs,
                                &Adversary::none(),
                                board,
                            )
                            .map_err(|e| format!("worker {w}: {e}"))?;
                        Ok((run, start.elapsed().as_secs_f64()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(w, h)| {
                    h.join()
                        .unwrap_or_else(|_| Err(format!("worker {w} panicked")))
                })
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut runs = Vec::with_capacity(FLEET_WORKERS);
        let mut worker_finish_s = Vec::with_capacity(FLEET_WORKERS);
        for j in joined {
            let (run, finished) = j?;
            runs.push(run);
            worker_finish_s.push(finished);
        }
        if runs.iter().any(|r| r.outputs != runs[0].outputs) {
            return Err("workers disagree on the outputs".into());
        }
        let traced = match tracers.first() {
            Some(leader) => {
                let mut client = WireStats::default();
                for t in &tracers {
                    let w = t.inner().wire_stats();
                    client.post_frames += w.post_frames;
                    client.sync_round_trips += w.sync_round_trips;
                }
                let server_side = leader.inner().server_stats().map_err(err)?;
                let spans = tracers.iter().map(|t| t.take_spans()).collect();
                Some(Traced {
                    spans,
                    wire: Some((client, server_side)),
                })
            }
            None => None,
        };
        let mut boards = boards;
        Ok(Execution {
            wall_s,
            connect_s,
            run: runs.swap_remove(0),
            worker_finish_s,
            traced,
            board: boards.swap_remove(0),
            _server: Some(server),
        })
    }

    /// The transcript hash of a solo, in-process, untraced run of the
    /// same seed — what the fleet's transcript must equal.
    pub fn solo_reference_hash(&self, p: &Prepared, run_seed: u64) -> Result<u64, String> {
        self.execute_solo(p, run_seed, false)?.transcript_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_is_transcript_neutral_on_every_workload() {
        for w in &WORKLOADS {
            let p = w.prepare(3, w.params(w.smoke_n).unwrap());
            let plain = w.execute(&p, 11, false).unwrap();
            let traced = w.execute(&p, 11, true).unwrap();
            assert_eq!(plain.run.outputs, p.expected, "{}", w.name);
            assert_eq!(traced.run.outputs, p.expected, "{}", w.name);
            assert_eq!(
                plain.transcript_hash().unwrap(),
                traced.transcript_hash().unwrap(),
                "{}: hash with tracing != hash without",
                w.name
            );
            assert_eq!(plain.run.phases, traced.run.phases, "{}", w.name);
        }
    }

    #[test]
    fn trace_rows_sum_to_wall_within_one_percent() {
        for w in &WORKLOADS {
            let p = w.prepare(5, w.params(w.smoke_n).unwrap());
            let e = w.execute(&p, 13, true).unwrap();
            let table = crate::trace::attribute_fleet(&e.traced.as_ref().unwrap().spans, e.wall_s);
            let total = table.rows_total_s();
            assert!(
                (total - e.wall_s).abs() <= 0.01 * e.wall_s,
                "{}: rows {total} vs wall {}",
                w.name,
                e.wall_s
            );
            assert_eq!(
                table.phase_s[crate::trace::OTHER_PHASE],
                0.0,
                "{}: unknown label",
                w.name
            );
            // The metered elements the trace saw are the run's own.
            let traced_elems: u64 = table.phase_elems.iter().sum();
            let run_elems: u64 = e.run.phases.iter().map(|(_, s)| s.elements).sum();
            assert_eq!(traced_elems, run_elems, "{}", w.name);
        }
    }

    #[test]
    fn fleet_transcript_equals_the_solo_one() {
        let w = by_name("fleet-tcp").unwrap();
        let p = w.prepare(7, w.params(w.smoke_n).unwrap());
        let fleet = w.execute(&p, 17, false).unwrap();
        assert_eq!(
            fleet.transcript_hash().unwrap(),
            w.solo_reference_hash(&p, 17).unwrap()
        );
    }
}
