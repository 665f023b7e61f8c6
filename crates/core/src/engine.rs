//! The protocol engine: orchestrates setup → offline → online and
//! reports results with full communication metrics.

use rand::Rng;

use yoso_circuit::Circuit;
use yoso_field::PrimeField;
use yoso_runtime::{Adversary, BulletinBoard, LeakLog, PhaseStats};

use crate::messages::Post;
use crate::offline::run_offline;
use crate::online::run_online;
use crate::setup::{rekey_setup, run_setup_in};
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
    /// Threads a committee step's members fan out over, the caller's
    /// included: the heavy steps (the handover, the DKG, proved
    /// `Decrypt`, `Re-encrypt` and `3-mult`), and the Beaver triples. The default is the host's cores;
    /// [`Self::with_threads`]`(1)` runs everything inline. Helpers come
    /// from one process-wide budget, so the compute threads of all runs
    /// in a process, callers included, never exceed the host's cores,
    /// and a step takes a helper only with enough work to pay for it.
    /// Any value produces byte-identical transcripts: every member's
    /// child seed is drawn and its posting recorded in member order on
    /// the calling thread, and outputs are folded in member order — see
    /// [`crate::parallel`].
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
    /// across workers is byte-identical to a solo run. Read once, where
    /// [`Engine::run_with_board`] builds the run's [`ShardedBoard`]; the
    /// steps take ownership from that view.
    pub partition: RolePartition,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            produce_proofs: true,
            dealerless_setup: false,
            num_threads: crate::parallel::host_threads(),
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

    /// Sets the thread count of the data-parallel steps (`0` is treated
    /// as `1`; `1` runs them inline).
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

    /// This process's view of `board` for committees of `n`: its
    /// [`Self::partition`], computing on [`Self::num_threads`]. Every
    /// engine builds its view here, so none drops a setting.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadParameters`] if a non-solo partition does
    /// not fit inside `[0, n)`.
    pub(crate) fn board_view<'a>(
        &self,
        board: &'a BulletinBoard<Post>,
        n: usize,
    ) -> Result<ShardedBoard<'a>, ProtocolError> {
        let partition = self.partition;
        if !partition.is_solo() && partition.hi() > n {
            return Err(ProtocolError::BadParameters(format!(
                "role partition [{}, {}) exceeds the committee size n = {n}",
                partition.lo(),
                partition.hi(),
            )));
        }
        Ok(ShardedBoard::new(board, partition).with_threads(self.num_threads))
    }
}

/// Ring elements posted under the phases whose label starts with
/// `prefix`: the one fold every run result meters with.
pub(crate) fn elements_under(phases: &[(String, PhaseStats)], prefix: &str) -> u64 {
    phases.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, s)| s.elements).sum()
}

/// `elements` per gate of `gates` (a gate-free run counts as one).
pub(crate) fn per_gate(elements: u64, gates: usize) -> f64 {
    elements as f64 / gates.max(1) as f64
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
        elements_under(&self.phases, prefix)
    }

    /// Online elements per multiplication gate (the paper's headline
    /// metric): the `3-mult` step only.
    pub fn online_elements_per_gate(&self) -> f64 {
        per_gate(self.elements("online/3-mult"), self.mul_gates)
    }

    /// Offline elements per multiplication gate.
    pub fn offline_elements_per_gate(&self) -> f64 {
        per_gate(self.elements("offline"), self.mul_gates)
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
        let sb = self.config.board_view(board, self.params.n)?;
        // The run counts as one compute thread of the process-wide
        // budget for as long as it lasts.
        let _caller = crate::parallel::Caller::enter();
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
            let chain =
                crate::dkg::run_dkg(rng, &sb, &committee, &role_keys, self.params.t, &self.config)?;
            setup = rekey_setup(rng, &sb, setup, chain)?;
            note_stage("dkg", &mut stage_start);
        }
        setup.tsk.set_leak_log(leak.clone());
        let offline = run_offline(rng, &self.params, &sb, adversary, &self.config, &bc, &setup)?;
        note_stage("offline", &mut stage_start);
        let online = run_online(
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
        let tally = sb.finish()?;
        Ok(RunResult {
            outputs: online.outputs,
            phases: tally.phases,
            mul_gates: circuit.mul_count(),
            wires: circuit.wire_count(),
            mu: online.mu,
            rounds: tally.rounds,
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
            ActiveAttack::OneLie,
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

    /// Runs `circuit` on its own board with every step fanned out over
    /// `workers` forced workers, however little work it holds: the
    /// result and the posting log as `(phase, round|from|phase|message)`.
    fn forced_run(
        workers: usize,
        params: ProtocolParams,
        cfg: ExecutionConfig,
        adv: &Adversary,
        seed: u64,
        circuit: &Circuit<F61>,
        inputs: &[Vec<F61>],
    ) -> (RunResult<F61>, Vec<(String, String)>) {
        let board = BulletinBoard::new();
        let mut r = rng(seed);
        let engine = Engine::new(params, cfg);
        let result = crate::parallel::with_forced_workers(workers, || {
            engine.run_with_board(&mut r, circuit, inputs, adv, &board)
        })
        .unwrap();
        let postings = board
            .postings()
            .unwrap()
            .iter()
            .map(|p| {
                let line = format!("{}|{}|{}|{:?}", p.round, p.from, p.phase, p.message);
                (p.phase.to_string(), line)
            })
            .collect();
        (result, postings)
    }

    /// The (10, 2, 3) inner product of width `2k` the transcript tests
    /// share, at `workers` forced workers.
    fn wide_run(
        workers: usize,
        cfg: ExecutionConfig,
        adv: &Adversary,
    ) -> (RunResult<F61>, Vec<(String, String)>) {
        let params = ProtocolParams::new(10, 2, 3).unwrap();
        let circuit = generators::inner_product::<F61>(2 * params.k).unwrap();
        let inputs = [(1..=6u64).map(f).collect(), (10..16u64).map(f).collect::<Vec<_>>()];
        forced_run(workers, params, cfg, adv, 4242, &circuit, &inputs)
    }

    /// The posting log grouped by phase label, lines in posting order.
    fn by_phase(postings: &[(String, String)]) -> std::collections::BTreeMap<&str, Vec<&str>> {
        let mut map = std::collections::BTreeMap::<&str, Vec<&str>>::new();
        for (phase, line) in postings {
            map.entry(phase.as_str()).or_default().push(line.as_str());
        }
        map
    }

    /// Every posting, output and `μ` of the honest run is the same at
    /// 1, 2 and 8 workers, proofs on and off.
    #[test]
    fn transcript_identical_across_thread_counts_honest() {
        for cfg in [ExecutionConfig::default(), ExecutionConfig::sweep()] {
            let (r1, t1) = wide_run(1, cfg, &Adversary::none());
            assert!(!t1.is_empty());
            for workers in [2, 8] {
                let (rn, tn) = wide_run(workers, cfg, &Adversary::none());
                assert_eq!(t1, tn, "posting log at {workers} workers, {cfg:?}");
                assert_eq!(r1.outputs, rn.outputs);
                assert_eq!(r1.mu, rn.mu);
            }
        }
    }

    /// Malicious members exercise the leak-record and garbage-proof
    /// paths; the run is still the same at 1, 2 and 8 workers, proofs on
    /// and off, and still outputs the cleartext result.
    #[test]
    fn transcript_identical_across_thread_counts_adversarial() {
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let expect = generators::inner_product::<F61>(6)
            .unwrap()
            .evaluate(&[(1..=6u64).map(f).collect(), (10..16u64).map(f).collect()])
            .unwrap();
        for cfg in [ExecutionConfig::default(), ExecutionConfig::sweep()] {
            let (r1, t1) = wide_run(1, cfg, &adv);
            assert_eq!(r1.outputs, expect);
            for workers in [2, 8] {
                let (rn, tn) = wide_run(workers, cfg, &adv);
                assert_eq!(t1, tn, "posting log at {workers} workers, {cfg:?}");
                assert_eq!(r1.outputs, rn.outputs);
                assert_eq!(r1.mu, rn.mu);
            }
        }
    }

    /// Members that post an honest message under its honest proof and
    /// then change one value — in `Decrypt`, `Re-encrypt`, `3-mult` and
    /// the contribution steps alike, whose messages carry one proof each
    /// — are dropped: the run still outputs the cleartext result, the
    /// same at 1, 2 and 8 workers.
    #[test]
    fn one_lie_in_a_message_is_dropped_at_any_worker_count() {
        let adv = Adversary::active(2, ActiveAttack::OneLie);
        let expect = generators::inner_product::<F61>(6)
            .unwrap()
            .evaluate(&[(1..=6u64).map(f).collect(), (10..16u64).map(f).collect()])
            .unwrap();
        let (r1, t1) = wide_run(1, ExecutionConfig::default(), &adv);
        assert_eq!(r1.outputs, expect);
        for workers in [2, 8] {
            let (rn, tn) = wide_run(workers, ExecutionConfig::default(), &adv);
            assert_eq!(t1, tn, "posting log at {workers} workers");
            assert_eq!((&r1.outputs, &r1.mu), (&rn.outputs, &rn.mu), "{workers} workers");
        }
    }

    /// `offline/6-reenc-shares` is the widest re-encryption fan-out (one
    /// item per mul-gate share vector), the phase most likely to expose
    /// scheduling-dependent posting order: its slice of the log is the
    /// same at 1, 2 and 8 workers.
    #[test]
    fn reenc_shares_phase_transcript_identical_across_thread_counts() {
        const PHASE: &str = "offline/6-reenc-shares";
        let cfg = ExecutionConfig::default();
        let (_, t1) = wide_run(1, cfg, &Adversary::none());
        let slice1 = by_phase(&t1).remove(PHASE).expect("phase must appear in the posting log");
        assert!(slice1.len() > 1, "{PHASE} must carry real fan-out traffic");
        for workers in [2, 8] {
            let (_, tn) = wide_run(workers, cfg, &Adversary::none());
            let slicen = by_phase(&tn).remove(PHASE).expect("phase must appear in the posting log");
            assert_eq!(slice1, slicen, "{PHASE} posting log at {workers} workers");
        }
    }

    /// Sliced per phase label, the log is the same at 1, 2 and 8
    /// workers: the phase set and every slice, the four re-encryption
    /// phases carrying real traffic.
    #[test]
    fn every_phase_transcript_identical_across_thread_counts() {
        const REENC_PHASES: [&str; 4] = [
            "offline/5-reenc-inputs",
            "offline/6-reenc-shares",
            "online/1-keydist",
            "online/4-output",
        ];
        let cfg = ExecutionConfig::default();
        let (_, t1) = wide_run(1, cfg, &Adversary::none());
        let phases1 = by_phase(&t1);
        for phase in REENC_PHASES {
            let slice = phases1.get(phase).expect("re-encryption phase must appear in the log");
            assert!(slice.len() > 1, "{phase} must carry real re-encryption traffic");
        }
        for workers in [2, 8] {
            let (_, tn) = wide_run(workers, cfg, &Adversary::none());
            let phasesn = by_phase(&tn);
            assert_eq!(
                phases1.keys().collect::<Vec<_>>(),
                phasesn.keys().collect::<Vec<_>>(),
                "phase set at {workers} workers"
            );
            for (phase, slice1) in &phases1 {
                assert_eq!(slice1, &phasesn[phase], "{phase} posting log at {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_engine_matches_cleartext_evaluation() {
        let circuit = generators::inner_product::<F61>(5).unwrap();
        let inputs = [(1..=5u64).map(f).collect(), (7..12u64).map(f).collect::<Vec<_>>()];
        let expect = circuit.evaluate(&inputs).unwrap();
        let params = ProtocolParams::new(10, 2, 3).unwrap();
        for workers in [2, 8] {
            let (run, _) = forced_run(
                workers, params, ExecutionConfig::default(), &Adversary::none(), 7, &circuit,
                &inputs,
            );
            assert_eq!(run.outputs, expect, "{workers} workers");
        }
    }

    /// Outputs, `μ`, rounds and the per-phase metering are the same at
    /// 1, 3 and 8 workers.
    #[test]
    fn engine_results_identical_across_thread_counts() {
        let circuit = generators::inner_product::<F61>(4).unwrap();
        let inputs = [(1..=4u64).map(f).collect(), (5..=8u64).map(f).collect::<Vec<_>>()];
        let params = ProtocolParams::new(8, 1, 2).unwrap();
        let run = |workers| {
            let (run, _) = forced_run(
                workers, params, ExecutionConfig::default(), &Adversary::none(), 99, &circuit,
                &inputs,
            );
            (run.outputs, run.mu, run.rounds, run.phases)
        };
        let inline = run(1);
        for workers in [3, 8] {
            assert_eq!(run(workers), inline, "{workers} workers");
        }
    }

    /// The contribution committees' postings on `board`: per committee,
    /// the log positions and member indices of its postings.
    fn contribution_postings(board: &BulletinBoard<Post>) -> Vec<(Vec<usize>, Vec<usize>)> {
        let postings = board.postings().unwrap();
        ["off-beaver-a", "off-beaver-b", "off-randomness", "off-pack"]
            .into_iter()
            .map(|committee| {
                let (mut at, mut members) = (Vec::new(), Vec::new());
                for (pos, p) in postings.iter().enumerate() {
                    if &*p.from.committee == committee {
                        at.push(pos);
                        members.push(p.from.index);
                        assert!(matches!(p.message, Post::Contribution { .. }), "{committee}");
                    }
                }
                (at, members)
            })
            .collect()
    }

    /// Each of the four contribution committees speaks once: one
    /// members' run per execution — consecutive log positions — with one
    /// posting per speaking member, solo and on a fleet of three
    /// role-sharded workers sharing one board.
    #[test]
    fn every_contribution_committee_posts_one_run_of_one_message_per_speaker() {
        let params = ProtocolParams::new(10, 2, 3).unwrap();
        let circuit = generators::inner_product::<F61>(2 * params.k).unwrap();
        let inputs = [(1..=6u64).map(f).collect(), (10..16u64).map(f).collect::<Vec<_>>()];
        let run = |partition, adv: &Adversary, board: &BulletinBoard<Post>| {
            let engine = Engine::new(params, ExecutionConfig::default().with_partition(partition));
            engine.run_with_board(&mut rng(4242), &circuit, &inputs, adv, board).unwrap()
        };
        for (adv, silent) in [(Adversary::none(), 0), (Adversary::active(2, ActiveAttack::Silent), 2)] {
            let solo = BulletinBoard::new();
            run(RolePartition::solo(), &adv, &solo);
            let fleet = BulletinBoard::new();
            std::thread::scope(|s| {
                for w in 0..3 {
                    let (partition, board, adv) = (params.worker_role_range(w, 3), fleet.clone(), &adv);
                    s.spawn(move || run(partition, adv, &board));
                }
            });
            for board in [&solo, &fleet] {
                for (at, members) in contribution_postings(board) {
                    assert_eq!(members.len(), params.n - silent, "one posting per speaker");
                    assert!(members.windows(2).all(|m| m[0] < m[1]), "each member once, in order");
                    assert!(at.windows(2).all(|p| p[1] == p[0] + 1), "one run");
                }
            }
            assert_eq!(contribution_postings(&solo), contribution_postings(&fleet));
        }
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
