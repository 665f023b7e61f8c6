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
//! 3. who proves: this worker, for the members it owns, if anyone does;
//! 4. validity where this worker does not prove is predicted from the
//!    behavior ([`Turn::honest`], [`Turn::forged`]);
//! 5. every speaker's posting is recorded, owned or not, under the
//!    step's `(Post, phase, elements)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use yoso_runtime::{ActiveAttack, Behavior, Committee};

use crate::messages::Post;
use crate::parallel::PostBuffer;
use crate::ExecutionConfig;

/// One committee posting one kind of message in one phase.
pub(crate) struct Step<'a> {
    committee: &'a Committee,
    cfg: &'a ExecutionConfig,
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
    /// ring elements.
    pub(crate) fn new(
        committee: &'a Committee,
        cfg: &'a ExecutionConfig,
        phase: &'static str,
        post: Post,
        elements: u64,
    ) -> Self {
        let phase_index = crate::engine::phase_index(phase);
        Step { committee, cfg, phase, phase_index, post, elements, postings: 1 }
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

    /// Rules 2 and 3: `member`'s turn from its child seed. `prover` is
    /// what proves and verifies the step's postings (`None` when proofs
    /// are off); the turn keeps it only if this worker owns the member.
    pub(crate) fn turn<'t, M>(
        &self,
        member: usize,
        seed: u64,
        prover: Option<&'t M>,
    ) -> Turn<'t, M> {
        let owned = self.cfg.partition.owns(member);
        Self::turn_of(member, *self.committee.behavior(member), owned, seed, prover)
    }

    /// Rules 2 and 3 from what [`Step::run`] has already looked up.
    fn turn_of<M>(
        index: usize,
        behavior: Behavior,
        owned: bool,
        seed: u64,
        prover: Option<&M>,
    ) -> Turn<'_, M> {
        Turn { index, behavior, rng: StdRng::seed_from_u64(seed), prover: prover.filter(|_| owned) }
    }

    /// Rule 5: `member`'s posting(s), buffered for the board.
    pub(crate) fn record(&self, posts: &mut PostBuffer, member: usize) {
        self.record_as(posts, member, self.cfg.partition.owns(member));
    }

    /// Rule 5 with the ownership flag already decided.
    fn record_as(&self, posts: &mut PostBuffer, member: usize, owned: bool) {
        for _ in 0..self.postings {
            posts.record(owned, &self.committee.name, member, self.post, self.phase, self.elements);
        }
    }

    /// Runs the step: each speaking candidate of `members` (`(index,
    /// what it holds)`, in index order) gets one seed from `rng` and
    /// its [`Turn`] is handed to `act` with what it holds.
    pub(crate) fn run<R: Rng + ?Sized, M, T>(
        &self,
        rng: &mut R,
        posts: &mut PostBuffer,
        prover: Option<&M>,
        members: impl IntoIterator<Item = (usize, T)>,
        mut act: impl FnMut(Turn<'_, M>, T),
    ) {
        for (member, held) in members {
            let Some(behavior) = self.speaker(member) else { continue };
            let owned = self.cfg.partition.owns(member);
            act(Self::turn_of(member, behavior, owned, rng.next_u64(), prover), held);
            self.record_as(posts, member, owned);
        }
    }
}

/// One member's turn in a [`Step`].
pub(crate) struct Turn<'t, M> {
    /// The member's index in its committee.
    pub(crate) index: usize,
    /// How the adversary has the member behave.
    pub(crate) behavior: Behavior,
    /// The member's own randomness: values first, proofs after.
    pub(crate) rng: StdRng,
    /// Present where this worker proves and verifies the posting.
    prover: Option<&'t M>,
}

impl<M> Turn<'_, M> {
    /// The attack the member mounts; `None` if it follows the protocol
    /// (honest, leaky, or fail-stop and not yet crashed).
    pub(crate) fn attack(&self) -> Option<ActiveAttack> {
        match self.behavior {
            Behavior::Malicious(attack) => Some(attack),
            Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => None,
        }
    }

    /// Validity of an honest posting: `prove_then_verify` decides where
    /// this worker proves; elsewhere the posting is predicted valid.
    pub(crate) fn honest(
        &mut self,
        prove_then_verify: impl FnOnce(&M, &mut StdRng) -> bool,
    ) -> bool {
        self.prover.is_none_or(|prover| prove_then_verify(prover, &mut self.rng))
    }

    /// Validity of a posting whose proof is forged: `verify_garbage`
    /// decides where this worker proves; elsewhere the posting is
    /// predicted invalid.
    pub(crate) fn forged(&mut self, verify_garbage: impl FnOnce(&M, &mut StdRng) -> bool) -> bool {
        self.prover.is_some_and(|prover| verify_garbage(prover, &mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RolePartition;
    use rand::RngCore;

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

    fn step<'a>(committee: &'a Committee, cfg: &'a ExecutionConfig) -> Step<'a> {
        Step::new(committee, cfg, PHASE, Post::MulShare, 7)
    }

    /// Runs the step with `()` as the prover: each speaker's value is
    /// its first draw, and `proved` collects who ran a proof closure.
    fn values(cfg: &ExecutionConfig, proved: &mut Vec<usize>) -> (Vec<(usize, u64)>, PostBuffer) {
        let (committee, mut rng) = (committee(), StdRng::seed_from_u64(5));
        let (mut out, mut posts) = (Vec::new(), PostBuffer::new());
        let step = step(&committee, cfg);
        step.run(&mut rng, &mut posts, Some(&()), step.everyone(), |mut turn, ()| {
            out.push((turn.index, turn.rng.next_u64()));
            let index = turn.index;
            turn.honest(|(), rng| {
                proved.push(index);
                rng.next_u64() > 0
            });
        });
        (out, posts)
    }

    #[test]
    fn a_member_that_does_not_speak_draws_no_seed() {
        let (committee, cfg) = (committee(), ExecutionConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut seeds = rng.clone();
        let mut spoke = Vec::new();
        let step = step(&committee, &cfg);
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
        let solo = ExecutionConfig::default();
        let first_only = solo.with_partition(RolePartition::range(0, 1));
        let (mut proved_solo, mut proved_first) = (Vec::new(), Vec::new());
        let (all, _) = values(&solo, &mut proved_solo);
        let (sharded, posts) = values(&first_only, &mut proved_first);
        assert_eq!(all, sharded);
        assert_eq!((proved_solo, proved_first), (vec![0, 3], vec![0]));
        // Both speakers are recorded; only the owned one is appended.
        let owned: Vec<(bool, Vec<usize>)> =
            posts.runs().map(|(owned, run)| (owned, run.members.to_vec())).collect();
        assert_eq!(owned, [(true, vec![0]), (false, vec![3])]);
    }

    #[test]
    fn validity_is_checked_where_proved_and_predicted_elsewhere() {
        let committee = committee();
        let solo = ExecutionConfig::default();
        let elsewhere = solo.with_partition(RolePartition::range(1, 4));
        // (config, prover) → does member 0's turn carry the prover?
        for (cfg, prover, proves) in [
            (&solo, Some(&()), true),
            (&solo, None, false),
            (&elsewhere, Some(&()), false),
            (&elsewhere, None, false),
        ] {
            for verdict in [true, false] {
                let mut turn = step(&committee, cfg).turn(0, 9, prover);
                assert_eq!(turn.honest(|(), _| verdict), if proves { verdict } else { true });
                assert_eq!(turn.forged(|(), _| verdict), if proves { verdict } else { false });
            }
        }
        let step = step(&committee, &solo);
        assert_eq!(step.turn(0, 9, None::<&()>).attack(), None);
        assert_eq!(step.turn(3, 9, None::<&()>).attack(), Some(ActiveAttack::WrongValue));
    }

    #[test]
    fn postings_land_in_member_order_with_the_steps_descriptor() {
        let (committee, cfg) = (Committee::honest("c", 5), ExecutionConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut posts = PostBuffer::new();
        let step = Step::new(&committee, &cfg, PHASE, Post::PartialDec, 4).with_postings(2);
        step.run(&mut rng, &mut posts, None::<&()>, step.everyone(), |_, ()| {});
        let runs: Vec<_> = posts.runs().collect();
        assert_eq!(runs.len(), 1, "a step is one run");
        let (owned, run) = &runs[0];
        assert!(owned);
        assert_eq!((&**run.committee, run.phase, *run.message), ("c", PHASE, Post::PartialDec));
        assert_eq!((run.elements, run.bytes), (4, 32));
        assert_eq!(run.members, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }
}
