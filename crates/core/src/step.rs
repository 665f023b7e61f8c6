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
//! 2. one child seed per speaker from the caller's RNG; the member
//!    draws from the child only, values before proofs;
//! 3. who proves: this worker, for the members it owns, if anyone does
//!    ([`Turn::prove`]);
//! 4. who verifies: the reader, when it reads the posting
//!    ([`Proved::verify`]) — a step that keeps its first valid postings
//!    reads, and so verifies, only until it has them. Where this worker
//!    does not prove, validity is predicted from the behavior;
//! 5. every speaker's posting is recorded, owned or not, under the
//!    step's `(Post, phase, elements)`, in one members' run: the board
//!    view decides which of them this worker appends.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use yoso_runtime::{ActiveAttack, Behavior, Committee, Speakers};

use crate::messages::Post;
use crate::parallel::{Author, PostBuffer};
use crate::workitem::{RolePartition, ShardedBoard};

/// One committee posting one kind of message in one phase.
pub(crate) struct Step<'a> {
    committee: &'a Committee,
    /// The members this worker owns: its board view's partition.
    partition: RolePartition,
    phase: &'static str,
    /// `phase_index(phase)`, evaluated once per step.
    phase_index: u64,
    post: Post,
    elements: u64,
    /// Postings per speaker (one, unless the step covers a batch).
    postings: usize,
}

impl<'a> Step<'a> {
    /// A step in which every speaker posts one `post` of `elements`
    /// ring elements, onto the board view `sb` (which says who this
    /// worker owns).
    pub(crate) fn new(
        committee: &'a Committee,
        sb: &ShardedBoard<'_>,
        phase: &'static str,
        post: Post,
        elements: u64,
    ) -> Self {
        let phase_index = crate::engine::phase_index(phase);
        let partition = sb.partition();
        Step { committee, partition, phase, phase_index, post, elements, postings: 1 }
    }

    /// The same step over a batch: `postings` posts per speaker.
    pub(crate) fn with_postings(mut self, postings: usize) -> Self {
        self.postings = postings;
        self
    }

    /// Every member of the committee as a candidate with nothing held.
    pub(crate) fn everyone(&self) -> impl Iterator<Item = (usize, ())> {
        (0..self.committee.n()).map(|i| (i, ()))
    }

    /// Rule 1: how `member` behaves, if it posts in this step at all.
    /// The lookups below are made once a member and handed on ([`run`]
    /// is the per-posting hot path of every proofs-off execution).
    ///
    /// [`run`]: Step::run
    fn speaker(&self, member: usize) -> Option<Behavior> {
        let behavior = *self.committee.behavior(member);
        behavior.participates_at(self.phase_index).then_some(behavior)
    }

    /// Rule 1, for a caller that runs its own member loop.
    pub(crate) fn speaks(&self, member: usize) -> bool {
        self.speaker(member).is_some()
    }

    /// Rules 2 and 3: `member`'s turn from its child seed. `prover`
    /// holds the map the member's postings are proved over (`None` when
    /// proofs are off); the turn keeps it only if this worker owns the
    /// member.
    pub(crate) fn turn<M>(&self, member: usize, seed: u64, prover: Option<M>) -> Turn<M> {
        let owned = self.partition.owns(member);
        Self::turn_of(member, *self.committee.behavior(member), owned, seed, prover)
    }

    /// Rules 2 and 3 from what [`Step::run`] has already looked up.
    fn turn_of<M>(
        index: usize,
        behavior: Behavior,
        owned: bool,
        seed: u64,
        prover: Option<M>,
    ) -> Turn<M> {
        Turn { index, behavior, rng: StdRng::seed_from_u64(seed), prover: prover.filter(|_| owned) }
    }

    /// Rule 5 for a caller that runs its own member loop: the postings
    /// of every speaker of `members`, in order.
    pub(crate) fn record_speakers(
        &self,
        posts: &mut PostBuffer,
        members: impl IntoIterator<Item = usize>,
    ) {
        let run = self.open_run(posts);
        for member in members.into_iter().filter(|&member| self.speaks(member)) {
            self.record(run, member);
        }
    }

    /// The step's one run, opened on `posts`.
    fn open_run<'p>(&self, posts: &'p mut PostBuffer) -> &'p mut Speakers {
        posts.open_run(Author::Members, &self.committee.name, self.post, self.phase, self.elements)
    }

    /// Rule 5: `member`'s postings, onto the step's run.
    fn record(&self, run: &mut Speakers, member: usize) {
        for _ in 0..self.postings {
            run.push(member);
        }
    }

    /// Runs the step: each speaking candidate of `members` (`(index,
    /// what it holds)`, in index order) gets one seed from `rng` and
    /// its [`Turn`] is handed to `act` with what it holds.
    pub(crate) fn run<'m, R: Rng + ?Sized, M, T>(
        &self,
        rng: &mut R,
        posts: &mut PostBuffer,
        prover: Option<&'m M>,
        members: impl IntoIterator<Item = (usize, T)>,
        mut act: impl FnMut(Turn<&'m M>, T),
    ) {
        let run = self.open_run(posts);
        for (member, held) in members {
            let Some(behavior) = self.speaker(member) else { continue };
            let owned = self.partition.owns(member);
            act(Self::turn_of(member, behavior, owned, rng.next_u64(), prover), held);
            self.record(run, member);
        }
    }
}

/// One member's turn in a [`Step`]. `M` holds the map its postings are
/// proved over and is cloned into each proof: a reference to the step's
/// shared map, or an `Arc` of a map of the member's own.
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

impl<M> Turn<M> {
    /// The attack the member mounts; `None` if it follows the protocol
    /// (honest, leaky, or fail-stop and not yet crashed).
    pub(crate) fn attack(&self) -> Option<ActiveAttack> {
        match self.behavior {
            Behavior::Malicious(attack) => Some(attack),
            Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => None,
        }
    }

    /// Rule 3: the member's proof, the last thing its turn draws. Where
    /// this worker proves, `prove` makes it over the map — from the
    /// witness if the member follows the protocol, a forgery otherwise —
    /// for the reader to check; elsewhere nothing is drawn and the
    /// posting is predicted valid exactly when the member follows the
    /// protocol. A batch's turn proves once per posting.
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

    /// Runs the step with `()` as the prover: each speaker's value is
    /// its first draw, and `proved` collects who ran a proof closure.
    fn values(
        partition: RolePartition,
        proved: &mut Vec<usize>,
    ) -> (Vec<(usize, u64)>, PostBuffer) {
        let (committee, mut rng) = (committee(), StdRng::seed_from_u64(5));
        let (mut out, mut posts) = (Vec::new(), PostBuffer::new());
        let step = step(&committee, partition);
        step.run(&mut rng, &mut posts, Some(&()), step.everyone(), |mut turn, ()| {
            out.push((turn.index, turn.rng.next_u64()));
            let index = turn.index;
            turn.prove(|(), rng| {
                proved.push(index);
                rng.next_u64()
            });
        });
        (out, posts)
    }

    #[test]
    fn a_member_that_does_not_speak_draws_no_seed() {
        let committee = committee();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seeds = rng.clone();
        let mut spoke = Vec::new();
        let step = step(&committee, RolePartition::solo());
        assert_eq!((0..4).filter(|&i| step.speaks(i)).collect::<Vec<_>>(), [0, 3]);
        // Member 2 is a candidate that does not speak; member 1 is not
        // even a candidate.
        let candidates = [(0, 'a'), (2, 'b'), (3, 'c')];
        step.run(&mut rng, &mut PostBuffer::new(), None::<&()>, candidates, |mut turn, held| {
            let mut child = StdRng::seed_from_u64(seeds.next_u64());
            assert_eq!(turn.rng.next_u64(), child.next_u64());
            spoke.push((turn.index, held));
        });
        assert_eq!(spoke, [(0, 'a'), (3, 'c')]);
        assert_eq!(rng.next_u64(), seeds.next_u64(), "one draw per speaker, no more");
    }

    #[test]
    fn a_member_this_worker_does_not_own_has_the_same_value_and_no_proof() {
        let (mut proved_solo, mut proved_first) = (Vec::new(), Vec::new());
        let (all, _) = values(RolePartition::solo(), &mut proved_solo);
        let (sharded, posts) = values(RolePartition::range(0, 1), &mut proved_first);
        assert_eq!(all, sharded);
        assert_eq!((proved_solo, proved_first), (vec![0, 3], vec![0]));
        // Both speakers are recorded, in the step's one run; the board
        // view appends only the owned one.
        let runs: Vec<(Author, Vec<usize>)> =
            posts.runs().map(|(author, run)| (author, run.members.iter().collect())).collect();
        assert_eq!(runs, [(Author::Members, vec![0, 3])]);
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
                let mut turn = step(&committee, partition).turn(member, 9, prover);
                let mut replay = turn.rng.clone();
                let proof = turn.prove(|(), rng| rng.next_u64());
                // A proof made here is the turn's next draw; none is
                // made, and nothing drawn, elsewhere.
                let next = replay.next_u64();
                assert_eq!(turn.rng.next_u64(), if proves { replay.next_u64() } else { next });
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
        let step = step(&committee, solo);
        assert_eq!(step.turn(0, 9, None::<&()>).attack(), None);
        assert_eq!(step.turn(3, 9, None::<&()>).attack(), Some(ActiveAttack::WrongValue));
    }

    #[test]
    fn postings_land_in_member_order_with_the_steps_descriptor() {
        let committee = Committee::honest("c", 5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut posts = PostBuffer::new();
        let board = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        let step = Step::new(&committee, &sb, PHASE, Post::PartialDec, 4).with_postings(2);
        step.run(&mut rng, &mut posts, None::<&()>, step.everyone(), |_, ()| {});
        let runs: Vec<_> = posts.runs().collect();
        assert_eq!(runs.len(), 1, "a step is one run");
        let (author, run) = &runs[0];
        assert_eq!(*author, Author::Members);
        assert_eq!((&**run.committee, run.phase, *run.message), ("c", PHASE, Post::PartialDec));
        assert_eq!((run.elements, run.bytes), (4, 32));
        assert_eq!(run.members.iter().collect::<Vec<_>>(), [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        // A member posting twice in a row is one span: at most n.
        assert!(run.members.span_count() <= 5);
    }
}
