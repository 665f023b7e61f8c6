//! The committee step: the one place a member acts.
//!
//! In the paper every role speaks once — it draws its randomness, posts
//! one message with a NIZK, and whoever reads the board keeps the
//! postings whose proofs verify. A [`Step`] is that rule for one
//! committee posting one kind of message. Its five decisions are
//! written here and nowhere else (DESIGN.md §8 "The committee step"):
//!
//! 1. who speaks: the candidates that participate at the step's phase,
//!    in index order — the others are skipped before anything is drawn;
//! 2. one child seed per speaker from the caller's RNG, drawn in member
//!    order on the thread that runs the step; the member draws from the
//!    child only, values before proofs, in work that sees nothing but
//!    its [`Turn`] — so the members run on any number of threads;
//! 3. who proves: this worker, for the members it owns, if anyone does
//!    ([`Turn::prove`]);
//! 4. who verifies: the reader, when it folds the members' outputs in
//!    member order ([`Proved::verify`]) — a step that keeps its first
//!    valid postings reads, and so verifies, only until it has them.
//!    Where this worker does not prove, validity is predicted from the
//!    behavior;
//! 5. every speaker's posting is recorded, owned or not, under the
//!    step's `(Post, phase, elements)`, in one members' run, by the
//!    thread that runs the step, as it draws the speaker's seed: the
//!    board view decides which of them this worker appends.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use yoso_runtime::{ActiveAttack, Behavior, Committee, Speakers};

use crate::messages::Post;
use crate::parallel::{par_windows, Author, PostBuffer, MEMBERS_PER_THREAD};
use crate::workitem::{RolePartition, ShardedBoard};
use crate::ProtocolError;

/// One committee posting one kind of message in one phase.
pub(crate) struct Step<'a> {
    committee: &'a Committee,
    /// The members this worker owns: its board view's partition.
    partition: RolePartition,
    /// The threads the members' work may fan out over: its board view's.
    threads: usize,
    phase: &'static str,
    /// `phase_index(phase)`, evaluated once per step.
    phase_index: u64,
    post: Post,
    elements: u64,
    /// Whether a seed is drawn for every candidate, speaking or not.
    every: bool,
}

/// A speaker with its child seed and what it holds.
struct Speaker<T> {
    index: usize,
    seed: u64,
    held: T,
}

impl<'a> Step<'a> {
    /// A step in which every speaker posts one `post` of `elements`
    /// ring elements — its whole message — onto the board view `sb`
    /// (which says who this worker owns and how many threads it
    /// computes with).
    pub(crate) fn new(
        committee: &'a Committee,
        sb: &ShardedBoard<'_>,
        phase: &'static str,
        post: Post,
        elements: u64,
    ) -> Self {
        let phase_index = crate::engine::phase_index(phase);
        let (partition, threads) = (sb.partition(), sb.threads());
        Step { committee, partition, threads, phase, phase_index, post, elements, every: false }
    }

    /// The same step with its members run on the calling thread: a light
    /// step — an unproved contribution, `Decrypt`, `Re-encrypt` or
    /// `3-mult` message — whose members cost less than handing them to
    /// another thread.
    pub(crate) fn inline(mut self) -> Self {
        self.threads = 1;
        self
    }

    /// Every member of the committee as a candidate with nothing held.
    pub(crate) fn everyone(&self) -> impl Iterator<Item = (usize, ())> {
        (0..self.committee.n()).map(|i| (i, ()))
    }

    /// Rule 1: how `member` behaves, if it posts in this step at all.
    fn speaker(&self, member: usize) -> Option<Behavior> {
        let behavior = *self.committee.behavior(member);
        behavior.participates_at(self.phase_index).then_some(behavior)
    }

    /// Rule 4 where nobody proves, ahead of the step: the first `need`
    /// speakers of `members` whose postings the behavior predicts valid
    /// — the roles a threshold step keeps, known before any of them
    /// computes.
    pub(crate) fn predicted_valid(
        &self,
        members: impl IntoIterator<Item = usize>,
        need: usize,
    ) -> Vec<usize> {
        let follows = |member: &usize| self.speaker(*member).is_some_and(|b| attack(b).is_none());
        members.into_iter().filter(follows).take(need).collect()
    }

    /// The same step drawing a seed for every candidate, speaking or
    /// not (`3-mult`, whose draws are pinned).
    pub(crate) fn drawing_for_everyone(mut self) -> Self {
        self.every = true;
        self
    }

    /// The step's one run, opened on `posts`.
    fn open_run<'p>(&self, posts: &'p mut PostBuffer) -> &'p mut Speakers {
        posts.open_run(Author::Members, &self.committee.name, self.post, self.phase, self.elements)
    }

    /// Rules 2 and 3: `index`'s turn from its child seed; it keeps the
    /// `prover` only if this worker owns the member.
    fn turn<M>(&self, index: usize, seed: u64, prover: Option<M>) -> Turn<M> {
        let behavior = *self.committee.behavior(index);
        let prover = prover.filter(|_| self.partition.owns(index));
        Turn { index, behavior, rng: StdRng::seed_from_u64(seed), prover }
    }

    /// The whole step on the caller's RNG, its postings recorded onto
    /// `posts`: each speaking candidate of `members` (`(index, what it
    /// holds)`, in index order) gets its child seed from `rng` and its
    /// posting recorded onto the step's one run (rules 1, 2 and 5), its
    /// `work` runs on its [`Turn`] and what it holds, and `fold` takes the
    /// outputs in member order. The members go through [`par_windows`] on
    /// the step's threads: with helpers, in windows of
    /// `threads × MEMBERS_PER_THREAD` whose seeds are all drawn before any
    /// of them works, so no more outputs than that are held at once;
    /// without, one after another. `prover` holds the map the members'
    /// postings are proved over (`None` when proofs are off); a turn
    /// keeps it only if this worker owns the member.
    ///
    /// # Errors
    ///
    /// The first error `fold` returns; no later speaker is drawn.
    pub(crate) fn run<'m, R: Rng + ?Sized, M, T, O>(
        &self,
        rng: &mut R,
        posts: &mut PostBuffer,
        prover: Option<&'m M>,
        members: impl IntoIterator<Item = (usize, T)>,
        work: impl Fn(Turn<&'m M>, T) -> O + Sync,
        mut fold: impl FnMut(usize, O) -> Result<(), ProtocolError>,
    ) -> Result<(), ProtocolError>
    where
        M: Sync,
        T: Copy + Send + Sync,
        O: Send,
    {
        let run = self.open_run(posts);
        let mut members = members.into_iter();
        let next = || {
            for (index, held) in members.by_ref() {
                let drawn = self.every.then(|| rng.next_u64());
                if self.speaker(index).is_none() {
                    continue;
                }
                let seed = drawn.unwrap_or_else(|| rng.next_u64());
                run.push(index);
                return Some(Speaker { index, seed, held });
            }
            None
        };
        // A member's work grows with what it posts: a dealing's `O(n)`
        // elements, a message's values.
        let turns = self.committee.n() * self.elements as usize;
        par_windows(
            self.threads,
            turns,
            self.threads * MEMBERS_PER_THREAD,
            next,
            |speaker| work(self.turn(speaker.index, speaker.seed, prover), speaker.held),
            |speaker, output| fold(speaker.index, output),
        )
    }
}

/// One member's turn in a [`Step`]. `M` holds what its message is
/// proved over — a reference to the step's shared map — and is cloned
/// into the proof.
pub(crate) struct Turn<M> {
    /// The member's index in its committee.
    pub(crate) index: usize,
    /// How the adversary has the member behave.
    pub(crate) behavior: Behavior,
    /// The member's own randomness: values first, proofs after.
    pub(crate) rng: StdRng,
    /// Present where this worker proves the posting.
    prover: Option<M>,
}

/// The attack a member that behaves so mounts; `None` if it follows the
/// protocol (honest, leaky, or fail-stop and not yet crashed).
fn attack(behavior: Behavior) -> Option<ActiveAttack> {
    match behavior {
        Behavior::Malicious(attack) => Some(attack),
        Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => None,
    }
}

impl<M> Turn<M> {
    /// The attack the member mounts; `None` if it follows the protocol.
    pub(crate) fn attack(&self) -> Option<ActiveAttack> {
        attack(self.behavior)
    }

    /// Rule 3: the member's proof, the last thing its turn draws. Where
    /// this worker proves, `prove` makes it over the map — from the
    /// witness if the member follows the protocol, a forgery otherwise —
    /// for the reader to check; elsewhere nothing is drawn and the
    /// posting is predicted valid exactly when the member follows the
    /// protocol. A turn proves its whole message once.
    pub(crate) fn prove<P>(&mut self, prove: impl FnOnce(&M, &mut StdRng) -> P) -> Proved<M, P>
    where
        M: Clone,
    {
        match &self.prover {
            Some(map) => Proved::Made(map.clone(), prove(map, &mut self.rng)),
            None => Proved::Predicted(self.attack().is_none()),
        }
    }
}

/// A posting's proof as its reader holds it, with the map it is over.
pub(crate) enum Proved<M, P> {
    /// Made by this worker over the map: the reader checks it.
    Made(M, P),
    /// Made by another worker, or proofs are off: the validity the
    /// member's behavior predicts.
    Predicted(bool),
}

impl<M, P> Proved<M, P> {
    /// Rule 4: whether the posting is valid — `check` run on the map and
    /// the proof where this worker made it, the prediction elsewhere.
    /// Draws nothing, so a reader that stops verifying once it has what
    /// it keeps changes no value.
    pub(crate) fn verify(&self, check: impl FnOnce(&M, &P) -> bool) -> bool {
        match self {
            Proved::Made(map, proof) => check(map, proof),
            Proved::Predicted(valid) => *valid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_forced_workers;
    use rand::RngCore;
    use yoso_runtime::BulletinBoard;

    const PHASE: &str = "offline/x";

    /// Honest, silent, crashed before the offline phase, malicious.
    fn committee() -> Committee {
        let behaviors = vec![
            Behavior::Honest,
            Behavior::Malicious(ActiveAttack::Silent),
            Behavior::FailStop { crash_phase: crate::crash_phases::OFFLINE },
            Behavior::Malicious(ActiveAttack::WrongValue),
        ];
        Committee::with_behaviors("c", behaviors)
    }

    /// The step as a worker owning `partition` takes it.
    fn step(committee: &Committee, partition: RolePartition) -> Step<'_> {
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, partition);
        Step::new(committee, &sb, PHASE, Post::MulShare, 7)
    }

    /// The runs recorded on `posts`, with their members.
    fn runs(posts: &PostBuffer) -> Vec<(Author, Vec<usize>)> {
        posts.runs().map(|(author, run)| (author, run.members.iter().collect())).collect()
    }

    /// Runs the step with `()` as the prover: each speaker's value is
    /// its first draw, and the second says whether it ran a proof.
    fn values(partition: RolePartition) -> (Vec<(usize, u64, bool)>, PostBuffer) {
        let (committee, mut rng) = (committee(), StdRng::seed_from_u64(5));
        let (mut out, mut posts) = (Vec::new(), PostBuffer::new());
        let step = step(&committee, partition);
        let work = |mut turn: Turn<&()>, ()| {
            let value = turn.rng.next_u64();
            let mut proved = false;
            turn.prove(|(), rng| {
                proved = true;
                rng.next_u64()
            });
            (turn.index, value, proved)
        };
        let fold = |_, output| {
            out.push(output);
            Ok(())
        };
        step.run(&mut rng, &mut posts, Some(&()), step.everyone(), work, fold).unwrap();
        (out, posts)
    }

    #[test]
    fn a_member_that_does_not_speak_draws_no_seed() {
        let committee = committee();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seeds = rng.clone();
        let mut spoke = Vec::new();
        let step = step(&committee, RolePartition::solo());
        assert_eq!((0..4).filter(|&i| step.speaker(i).is_some()).collect::<Vec<_>>(), [0, 3]);
        // Member 2 is a candidate that does not speak; member 1 is not
        // even a candidate.
        let candidates = [(0, 'a'), (2, 'b'), (3, 'c')];
        let work = |mut turn: Turn<&()>, held| (turn.index, held, turn.rng.next_u64());
        let fold = |_, output| {
            spoke.push(output);
            Ok(())
        };
        step.run(&mut rng, &mut PostBuffer::new(), None, candidates, work, fold).unwrap();
        let expect: Vec<_> = [(0, 'a'), (3, 'c')]
            .into_iter()
            .map(|(i, held)| (i, held, StdRng::seed_from_u64(seeds.next_u64()).next_u64()))
            .collect();
        assert_eq!(spoke, expect);
        assert_eq!(rng.next_u64(), seeds.next_u64(), "one draw per speaker, no more");
    }

    #[test]
    fn drawing_for_everyone_draws_for_silent_candidates_too() {
        let committee = committee();
        let step = step(&committee, RolePartition::solo()).drawing_for_everyone();
        let (mut rng, mut seeds) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        let mut spoke = Vec::new();
        let work = |mut turn: Turn<&()>, ()| (turn.index, turn.rng.next_u64());
        let fold = |_, output| {
            spoke.push(output);
            Ok(())
        };
        step.run(&mut rng, &mut PostBuffer::new(), None, step.everyone(), work, fold).unwrap();
        let all: Vec<u64> =
            (0..4).map(|_| StdRng::seed_from_u64(seeds.next_u64()).next_u64()).collect();
        assert_eq!(spoke, [(0, all[0]), (3, all[3])]);
        assert_eq!(rng.next_u64(), seeds.next_u64());
    }

    #[test]
    fn a_member_this_worker_does_not_own_has_the_same_value_and_no_proof() {
        let (all, _) = values(RolePartition::solo());
        let (sharded, posts) = values(RolePartition::range(0, 1));
        let strip =
            |v: &[(usize, u64, bool)]| v.iter().map(|&(i, x, _)| (i, x)).collect::<Vec<_>>();
        assert_eq!(strip(&all), strip(&sharded));
        let proved =
            |v: &[(usize, u64, bool)]| v.iter().filter(|o| o.2).map(|o| o.0).collect::<Vec<_>>();
        assert_eq!((proved(&all), proved(&sharded)), (vec![0, 3], vec![0]));
        // Both speakers are recorded, in the step's one run; the board
        // view appends only the owned one.
        assert_eq!(runs(&posts), [(Author::Members, vec![0, 3])]);
    }

    #[test]
    fn validity_is_checked_where_proved_and_predicted_elsewhere() {
        let committee = committee();
        let (solo, elsewhere) = (RolePartition::solo(), RolePartition::range(1, 4));
        // The turn carries the prover where there is one and the
        // partition owns the member. Member 0 follows the protocol,
        // member 3 does not.
        for partition in [solo, elsewhere] {
            for (prover, (member, follows)) in
                [Some(&()), None].into_iter().flat_map(|p| [(p, (0, true)), (p, (3, false))])
            {
                let proves = prover.is_some() && partition.owns(member);
                let step = step(&committee, partition);
                let mut out = None;
                let work = |mut turn: Turn<_>, ()| {
                    let mut replay = turn.rng.clone();
                    let proof = turn.prove(|(): &&(), rng| rng.next_u64());
                    // A proof made here is the turn's next draw; none
                    // is made, and nothing drawn, elsewhere.
                    let next = replay.next_u64();
                    let after = if proves { replay.next_u64() } else { next };
                    assert_eq!(turn.rng.next_u64(), after);
                    (turn.attack(), next, proof)
                };
                let fold = |_, output| {
                    out = Some(output);
                    Ok(())
                };
                let mut rng = StdRng::seed_from_u64(9);
                step.run(&mut rng, &mut PostBuffer::new(), prover, [(member, ())], work, fold)
                    .unwrap();
                let (attack, next, proof) = out.unwrap();
                assert_eq!(attack.is_none(), follows);
                for verdict in [true, false] {
                    let mut checked = None;
                    let valid = proof.verify(|(), &p| {
                        checked = Some(p);
                        verdict
                    });
                    assert_eq!(valid, if proves { verdict } else { follows });
                    assert_eq!(checked, proves.then_some(next));
                }
            }
        }
    }

    #[test]
    fn postings_land_in_member_order_with_the_steps_descriptor() {
        let committee = Committee::honest("c", 5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut posts = PostBuffer::new();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let step = Step::new(&committee, &sb, PHASE, Post::PartialDec, 4);
        step.run(&mut rng, &mut posts, None::<&()>, step.everyone(), |_, ()| {}, |_, ()| Ok(()))
            .unwrap();
        let runs: Vec<_> = posts.runs().collect();
        assert_eq!(runs.len(), 1, "a step is one run");
        let (author, run) = &runs[0];
        assert_eq!(*author, Author::Members);
        assert_eq!((&**run.committee, run.phase, *run.message), ("c", PHASE, Post::PartialDec));
        assert_eq!((run.elements, run.bytes), (4, 32));
        // A member's whole message is one posting; consecutive members
        // are one span.
        assert_eq!(run.members.iter().collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(run.members.span_count(), 1);
    }

    /// What a 200-member threshold step reads: every speaker's value in
    /// member order, the first `t + 1` valid postings it keeps, and the
    /// runs it records. A member's posting is its first draw; an honest
    /// proof is the value masked by the map, a malicious one a draw.
    fn threshold_step(threads: usize, proofs: bool) -> (Vec<u64>, Vec<usize>, PostBuffer) {
        let (n, t) = (200, 66);
        let mut behaviors = vec![Behavior::Honest; n];
        behaviors[..t].fill(Behavior::Malicious(ActiveAttack::BadProof));
        let committee = Committee::with_behaviors("c", behaviors);
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo()).with_threads(threads);
        let step = Step::new(&committee, &sb, PHASE, Post::MulShare, 3);
        let key = 0x5eed_u64;
        let (mut values, mut kept, mut posts) = (Vec::new(), Vec::new(), PostBuffer::new());
        let work = |mut turn: Turn<_>, ()| {
            let value = turn.rng.next_u64();
            let honest = turn.attack().is_none();
            let proof =
                turn.prove(|&&key: &&u64, rng| if honest { value ^ key } else { rng.next_u64() });
            (value, proof)
        };
        let fold = |member, (value, proof): (u64, Proved<&u64, u64>)| {
            values.push(value);
            if kept.len() <= t && proof.verify(|&&key, &p| p == value ^ key) {
                kept.push(member);
            }
            Ok(())
        };
        let mut rng = StdRng::seed_from_u64(20);
        let prover = proofs.then_some(&key);
        step.run(&mut rng, &mut posts, prover, step.everyone(), work, fold).unwrap();
        (values, kept, posts)
    }

    #[test]
    fn a_step_reads_the_same_at_any_worker_count() {
        for proofs in [true, false] {
            let (values, kept, posts) = threshold_step(1, proofs);
            assert_eq!(kept, (66..133).collect::<Vec<_>>(), "the first t fail, t + 1 are kept");
            for workers in [1, 2, 4] {
                let forced = with_forced_workers(workers, || threshold_step(workers, proofs));
                assert_eq!((&forced.0, &forced.1), (&values, &kept), "{workers} workers");
                assert_eq!(runs(&forced.2), runs(&posts), "{workers} workers");
            }
        }
    }
}
