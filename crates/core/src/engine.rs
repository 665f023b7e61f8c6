//! The protocol engine: orchestrates setup → offline → online and
//! reports results with full communication metrics.

use rand::Rng;

use yoso_circuit::Circuit;
use yoso_field::PrimeField;
use yoso_runtime::{Adversary, BulletinBoard, LeakLog, PhaseStats};

use crate::messages::Post;
use crate::offline::run_offline_in;
use crate::online::run_online_in;
use crate::setup::{rekey_setup_in, run_setup_in};
use crate::workitem::{RolePartition, ShardedBoard};
use crate::{ProtocolError, ProtocolParams};

/// Which bulletin-board transport a run posts to.
///
/// `Copy` so [`ExecutionConfig`] stays `Copy` (a `SocketAddr` is
/// `Copy`); the board itself is constructed lazily per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoardBackend {
    /// The default in-process board (round-indexed `RwLock` log).
    InProcess,
    /// A remote `board-server` reached over TCP; all postings are
    /// sequenced by the server, so multiple OS processes share one
    /// board.
    Tcp(std::net::SocketAddr),
}

impl BoardBackend {
    /// Builds a board for this backend.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Transport`] if the TCP backend cannot connect.
    pub fn make_board(&self) -> Result<BulletinBoard<Post>, ProtocolError> {
        match self {
            BoardBackend::InProcess => Ok(BulletinBoard::new()),
            BoardBackend::Tcp(addr) => Ok(BulletinBoard::connect_tcp(*addr)?),
        }
    }
}

/// Execution knobs for the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Produce and verify NIZK proofs (default). Disabling skips the
    /// proof computation for large-scale sweeps; communication is
    /// metered identically (the nominal proof sizes are charged either
    /// way) and validity is decided by the behavior tags.
    pub produce_proofs: bool,
    /// Generate the threshold key with the dealer-free DKG
    /// ([`crate::dkg`]) instead of the paper's trusted setup.
    pub dealerless_setup: bool,
    /// Worker threads for the data-parallel protocol steps (Beaver
    /// triple generation, per-item re-encryption in the offline
    /// packing, KFF key-distribution and output phases, per-member
    /// online share computation). `1`
    /// (the default) runs everything inline. Any value produces
    /// byte-identical transcripts: per-item randomness is derived from
    /// sequentially drawn child seeds and board posts are replayed in
    /// item order — see [`crate::parallel`].
    pub num_threads: usize,
    /// Which board transport the run posts to. The protocol logic is
    /// transport-agnostic: any backend yields the same transcript.
    pub board: BoardBackend,
    /// The contiguous role range this process owns. The default
    /// ([`RolePartition::solo`]) owns every role — single-process
    /// execution. A worker in a role-sharded run owns `[lo, hi)`:
    /// it replicates all value computation (child-seeded per member,
    /// so streams agree across workers) but produces and verifies
    /// NIZK proofs only for owned members, and appends only owned
    /// members' posts to the shared board. The interleaved transcript
    /// across workers is byte-identical to a solo run.
    pub partition: RolePartition,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            produce_proofs: true,
            dealerless_setup: false,
            num_threads: 1,
            board: BoardBackend::InProcess,
            partition: RolePartition::solo(),
        }
    }
}

impl ExecutionConfig {
    /// A configuration tuned for large parameter sweeps: no proofs.
    pub fn sweep() -> Self {
        ExecutionConfig {
            produce_proofs: false,
            ..ExecutionConfig::default()
        }
    }

    /// Replaces the trusted dealer with the distributed key generation.
    pub fn dealerless(mut self) -> Self {
        self.dealerless_setup = true;
        self
    }

    /// Sets the worker-thread count for the data-parallel steps
    /// (`0` is treated as `1`).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads.max(1);
        self
    }

    /// Selects the board transport backend.
    pub fn with_board(mut self, board: BoardBackend) -> Self {
        self.board = board;
        self
    }

    /// Restricts this process to the given role partition (worker
    /// mode): the round clock and transcript positions are the only
    /// synchronization between workers.
    pub fn with_partition(mut self, partition: RolePartition) -> Self {
        self.partition = partition;
        self
    }
}

/// Maps a phase label to the coarse phase index used by fail-stop
/// crash scheduling (`Behavior::FailStop { crash_phase }`). The online
/// handover is the second half of the key-distribution committee's one
/// message, so it shares that step's index: a member alive for
/// `online/1-keydist` deals its share too.
pub(crate) fn phase_index(phase: &str) -> u64 {
    if phase.starts_with("setup") {
        0
    } else if phase.starts_with("offline") {
        1
    } else if phase.starts_with("online/1") || phase == "online/handover" {
        2
    } else if phase.starts_with("online/2") {
        3
    } else if phase.starts_with("online/3") {
        4
    } else if phase.starts_with("online/4") {
        5
    } else {
        6
    }
}

/// Crash-phase constants for configuring fail-stop adversaries.
pub mod crash_phases {
    /// Crash before the offline phase.
    pub const OFFLINE: u64 = 1;
    /// Crash before online key distribution.
    pub const ONLINE_KEYDIST: u64 = 2;
    /// Crash before the online multiplication steps.
    pub const ONLINE_MULT: u64 = 4;
    /// Crash before the output step.
    pub const ONLINE_OUTPUT: u64 = 5;
}

/// The outcome of a full protocol run.
#[derive(Debug, Clone)]
pub struct RunResult<F: PrimeField> {
    /// Per-client outputs in output-gate order.
    pub outputs: Vec<Vec<F>>,
    /// Per-phase communication statistics.
    pub phases: Vec<(String, PhaseStats)>,
    /// Total multiplication gates in the circuit.
    pub mul_gates: usize,
    /// Total wires.
    pub wires: usize,
    /// The public `μ = v − λ` value of every wire (diagnostics).
    pub mu: Vec<F>,
    /// Number of synchronous rounds the run consumed.
    pub rounds: u64,
    /// The adversarial-view log: which shares of which secret objects
    /// the corrupted roles exposed (privacy accounting).
    pub leaks: LeakLog,
    /// Wall-clock seconds per protocol stage (`setup`, `dkg`,
    /// `offline`, `online`), in execution order. Diagnostics only —
    /// never feeds the transcript; workers use it to report where a
    /// run's time went (compute vs board round trips).
    pub stage_wall_secs: Vec<(&'static str, f64)>,
}

impl<F: PrimeField> RunResult<F> {
    /// Total elements posted under phases starting with `prefix`.
    pub fn elements(&self, prefix: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.elements)
            .sum()
    }

    /// Online elements per multiplication gate (the paper's headline
    /// metric).
    pub fn online_elements_per_gate(&self) -> f64 {
        self.elements("online/3-mult") as f64 / self.mul_gates.max(1) as f64
    }

    /// Offline elements per multiplication gate.
    pub fn offline_elements_per_gate(&self) -> f64 {
        self.elements("offline") as f64 / self.mul_gates.max(1) as f64
    }
}

/// The packed-YOSO protocol engine.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    params: ProtocolParams,
    config: ExecutionConfig,
}

impl Engine {
    /// Creates an engine with the given parameters.
    pub fn new(params: ProtocolParams, config: ExecutionConfig) -> Self {
        Engine { params, config }
    }

    /// The protocol parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// Runs the full three-phase protocol on `circuit` with the given
    /// client inputs under `adversary`.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors; under the declared corruption model
    /// the run always succeeds (GOD).
    pub fn run<F: PrimeField, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        circuit: &Circuit<F>,
        inputs: &[Vec<F>],
        adversary: &Adversary,
    ) -> Result<RunResult<F>, ProtocolError> {
        let board: BulletinBoard<Post> = self.config.board.make_board()?;
        self.run_with_board(rng, circuit, inputs, adversary, &board)
    }

    /// Like [`Engine::run`] but on a caller-supplied board. This is the
    /// entry point for role-sharded workers: every worker runs this
    /// with the same seed and circuit against one shared board (TCP in
    /// production; a cloned in-process board in tests), each with its
    /// own `config.partition`, and the interleaved transcript is
    /// byte-identical to a solo run.
    ///
    /// The result's `phases` is [`BulletinBoard::phases`] after the
    /// last posting has landed: it covers the **whole board** it was
    /// given, every worker's postings and anything posted before the
    /// call, so a caller metering one run passes a fresh board.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadParameters`] if a non-solo partition does
    /// not fit inside `[0, n)`.
    pub fn run_with_board<F: PrimeField, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        circuit: &Circuit<F>,
        inputs: &[Vec<F>],
        adversary: &Adversary,
        board: &BulletinBoard<Post>,
    ) -> Result<RunResult<F>, ProtocolError> {
        let partition = self.config.partition;
        if !partition.is_solo() && partition.hi() > self.params.n {
            return Err(ProtocolError::BadParameters(format!(
                "role partition [{}, {}) exceeds the committee size n = {}",
                partition.lo(),
                partition.hi(),
                self.params.n
            )));
        }
        let sb = ShardedBoard::new(board, partition)?;
        let bc = circuit.batched(self.params.k);
        let leak = LeakLog::new();
        // Stage timing is diagnostics only (worker wall-clock reports);
        // nothing derived from these clocks reaches the board.
        let mut stage_wall_secs: Vec<(&'static str, f64)> = Vec::new();
        let mut stage_start = std::time::Instant::now();
        let mut note_stage = |name: &'static str, start: &mut std::time::Instant| {
            stage_wall_secs.push((name, start.elapsed().as_secs_f64()));
            *start = std::time::Instant::now();
        };
        let mut setup = run_setup_in::<F, _>(
            rng,
            &self.params,
            &sb,
            circuit.mul_depth(),
            circuit.clients(),
        )?;
        note_stage("setup", &mut stage_start);
        if self.config.dealerless_setup {
            // Replace the dealer's key with a DKG among the first
            // committee, then re-encrypt the KFF secrets under it.
            let committee = adversary.sample_committee(rng, "dkg", self.params.n);
            let role_keys: Vec<yoso_the::mock::PkeKeyPair<F>> = (0..self.params.n)
                .map(|_| yoso_the::mock::LinearPke::keygen(rng))
                .collect();
            let chain = crate::dkg::run_dkg_in(
                rng,
                &sb,
                &committee,
                &role_keys,
                self.params.t,
                &self.config,
            )?;
            setup = rekey_setup_in(rng, &self.params, &sb, setup, chain)?;
            note_stage("dkg", &mut stage_start);
        }
        setup.tsk.set_leak_log(leak.clone());
        let offline =
            run_offline_in(rng, &self.params, &sb, adversary, &self.config, &bc, &setup)?;
        note_stage("offline", &mut stage_start);
        let online = run_online_in(
            rng,
            &self.params,
            &sb,
            adversary,
            &self.config,
            &bc,
            &setup,
            offline,
            inputs,
            &leak,
        )?;
        note_stage("online", &mut stage_start);
        sb.finish()?;
        Ok(RunResult {
            outputs: online.outputs,
            phases: board.phases()?,
            mul_gates: circuit.mul_count(),
            wires: circuit.wire_count(),
            mu: online.mu,
            rounds: board.round()?,
            leaks: leak,
            stage_wall_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_circuit::{generators, CircuitBuilder};
    use yoso_field::F61;
    use yoso_runtime::ActiveAttack;

    fn f(v: u64) -> F61 {
        F61::from(v)
    }

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn single_multiplication_honest() {
        let mut r = rng(1);
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        let y = b.input(1);
        let p = b.mul(x, y);
        b.output(p, 0);
        let circuit = b.build().unwrap();
        let engine = Engine::new(ProtocolParams::new(8, 2, 2).unwrap(), ExecutionConfig::default());
        let run = engine
            .run(&mut r, &circuit, &[vec![f(6)], vec![f(7)]], &Adversary::none())
            .unwrap();
        assert_eq!(run.outputs[0], vec![f(42)]);
    }

    #[test]
    fn inner_product_matches_cleartext() {
        let mut r = rng(2);
        let circuit = generators::inner_product::<F61>(6).unwrap();
        let x: Vec<F61> = (1..=6u64).map(f).collect();
        let y: Vec<F61> = (10..16u64).map(f).collect();
        let expect = circuit.evaluate(&[x.clone(), y.clone()]).unwrap();
        let engine =
            Engine::new(ProtocolParams::new(10, 2, 3).unwrap(), ExecutionConfig::default());
        let run = engine.run(&mut r, &circuit, &[x, y], &Adversary::none()).unwrap();
        assert_eq!(run.outputs, expect);
    }

    #[test]
    fn deep_circuit_with_linear_gates() {
        let mut r = rng(3);
        let mut b = CircuitBuilder::<F61>::new();
        let x = b.input(0);
        let y = b.input(0);
        let c = b.constant(f(3));
        let s = b.add(x, y);
        let d = b.sub(s, c);
        let e = b.mul_const(d, f(5));
        let m1 = b.mul(e, x);
        let m2 = b.mul(m1, y);
        let fin = b.add(m2, c);
        b.output(fin, 0);
        let circuit = b.build().unwrap();
        let inputs = vec![vec![f(4), f(9)]];
        let expect = circuit.evaluate(&inputs).unwrap();
        let engine =
            Engine::new(ProtocolParams::new(9, 2, 2).unwrap(), ExecutionConfig::default());
        let run = engine.run(&mut r, &circuit, &inputs, &Adversary::none()).unwrap();
        assert_eq!(run.outputs, expect);
    }

    #[test]
    fn god_under_active_attack() {
        let mut r = rng(4);
        let circuit = generators::inner_product::<F61>(4).unwrap();
        let x: Vec<F61> = (1..=4u64).map(f).collect();
        let y: Vec<F61> = (5..=8u64).map(f).collect();
        let expect = circuit.evaluate(&[x.clone(), y.clone()]).unwrap();
        for attack in [
            ActiveAttack::WrongValue,
            ActiveAttack::BadProof,
            ActiveAttack::Silent,
            ActiveAttack::AdditiveOffset,
        ] {
            let engine =
                Engine::new(ProtocolParams::new(10, 2, 2).unwrap(), ExecutionConfig::default());
            let adv = Adversary::active(2, attack);
            let run = engine.run(&mut r, &circuit, &[x.clone(), y.clone()], &adv).unwrap();
            assert_eq!(run.outputs, expect, "GOD must hold under {attack:?}");
        }
    }

    #[test]
    fn failstop_tolerance_with_halved_packing() {
        let mut r = rng(5);
        let circuit = generators::inner_product::<F61>(4).unwrap();
        let x: Vec<F61> = (1..=4u64).map(f).collect();
        let y: Vec<F61> = (5..=8u64).map(f).collect();
        let expect = circuit.evaluate(&[x.clone(), y.clone()]).unwrap();
        // n = 12, t = 2, k = 2, failstops = 4: 12 − 2 − 4 = 6 ≥ 2+2+1.
        let params = ProtocolParams::with_failstops(12, 2, 2, 4).unwrap();
        let adv = Adversary::active(2, ActiveAttack::WrongValue)
            .with_failstops(4, crate::engine::crash_phases::ONLINE_MULT);
        let engine = Engine::new(params, ExecutionConfig::default());
        let run = engine.run(&mut r, &circuit, &[x, y], &adv).unwrap();
        assert_eq!(run.outputs, expect);
    }

    #[test]
    fn metering_reports_all_phases() {
        let mut r = rng(6);
        let circuit = generators::inner_product::<F61>(4).unwrap();
        let x: Vec<F61> = (1..=4u64).map(f).collect();
        let y: Vec<F61> = (5..=8u64).map(f).collect();
        let engine =
            Engine::new(ProtocolParams::new(8, 1, 2).unwrap(), ExecutionConfig::default());
        let run = engine.run(&mut r, &circuit, &[x, y], &Adversary::none()).unwrap();
        for prefix in
            ["setup", "offline/1-beaver", "offline/2-wire-rand", "offline/3-dependent",
             "offline/4-pack", "offline/5-reenc-inputs", "offline/6-reenc-shares",
             "online/1-keydist", "online/2-input", "online/3-mult", "online/4-output"]
        {
            assert!(run.elements(prefix) > 0, "phase {prefix} should have traffic");
        }
        assert!(run.online_elements_per_gate() > 0.0);
        assert!(run.offline_elements_per_gate() > run.online_elements_per_gate());
    }

    #[test]
    fn sweep_config_matches_full_config_metering() {
        // Proof-less sweeps must meter identical communication.
        let circuit = generators::inner_product::<F61>(4).unwrap();
        let x: Vec<F61> = (1..=4u64).map(f).collect();
        let y: Vec<F61> = (5..=8u64).map(f).collect();
        let params = ProtocolParams::new(8, 1, 2).unwrap();
        let mut r1 = rng(7);
        let full = Engine::new(params, ExecutionConfig::default())
            .run(&mut r1, &circuit, &[x.clone(), y.clone()], &Adversary::none())
            .unwrap();
        let mut r2 = rng(7);
        let sweep = Engine::new(params, ExecutionConfig::sweep())
            .run(&mut r2, &circuit, &[x, y], &Adversary::none())
            .unwrap();
        assert_eq!(full.outputs, sweep.outputs);
        assert_eq!(full.elements("online"), sweep.elements("online"));
        assert_eq!(full.elements("offline"), sweep.elements("offline"));
    }
}
