//! Adversary modelling: corruption sampling and misbehavior strategies.
//!
//! The paper's threat model: the environment corrupts a uniformly
//! random fraction `τ` of computation roles (chosen corruption applies
//! only to input/output roles), and — in the §5.4 extension —
//! additionally fail-stops up to `n·ε` honest roles.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::role::Committee;

/// What an actively corrupted role does when its turn comes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveAttack {
    /// Publish a uniformly random wrong value in place of the correct
    /// one (with a proof that cannot verify).
    WrongValue,
    /// Publish the correct value but a garbage proof.
    BadProof,
    /// Publish nothing at all.
    Silent,
    /// Publish a value crafted to shift the reconstructed result by a
    /// fixed offset (tests additive-attack resilience).
    AdditiveOffset,
}

/// The behavior of a single role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Follows the protocol; state is private.
    Honest,
    /// Follows the protocol but leaks its view to the adversary
    /// (semi-honest / "Leaky" in the ideal functionality).
    Leaky,
    /// Actively malicious with the given strategy.
    Malicious(ActiveAttack),
    /// Honest but crashes (stops posting) from `crash_phase` onwards —
    /// the paper's fail-stop party.
    FailStop {
        /// The phase index from which the role is unresponsive.
        crash_phase: u64,
    },
}

impl Behavior {
    /// Whether this role counts towards the corruption threshold `t`.
    pub fn is_malicious(&self) -> bool {
        matches!(self, Behavior::Malicious(_))
    }

    /// Whether the role participates (posts) at `phase`.
    pub fn participates_at(&self, phase: u64) -> bool {
        match self {
            Behavior::FailStop { crash_phase } => phase < *crash_phase,
            Behavior::Malicious(ActiveAttack::Silent) => false,
            _ => true,
        }
    }
}

/// An adversary configuration: how committees get corrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct Adversary {
    /// Number of actively malicious roles per committee.
    pub malicious_per_committee: usize,
    /// Strategy assigned to malicious roles.
    pub attack: ActiveAttack,
    /// Number of additional fail-stop roles per committee.
    pub failstop_per_committee: usize,
    /// Phase at which fail-stop roles crash.
    pub crash_phase: u64,
    /// Number of additional leaky (semi-honest) roles per committee.
    pub leaky_per_committee: usize,
}

impl Adversary {
    /// A passive adversary: no corruption at all.
    pub fn none() -> Self {
        Adversary {
            malicious_per_committee: 0,
            attack: ActiveAttack::WrongValue,
            failstop_per_committee: 0,
            crash_phase: 0,
            leaky_per_committee: 0,
        }
    }

    /// An active adversary with `t` malicious roles per committee.
    pub fn active(t: usize, attack: ActiveAttack) -> Self {
        Adversary {
            malicious_per_committee: t,
            attack,
            failstop_per_committee: 0,
            crash_phase: 0,
            leaky_per_committee: 0,
        }
    }

    /// Adds fail-stop corruption.
    pub fn with_failstops(mut self, count: usize, crash_phase: u64) -> Self {
        self.failstop_per_committee = count;
        self.crash_phase = crash_phase;
        self
    }

    /// Adds leaky (semi-honest) corruption.
    pub fn with_leaky(mut self, count: usize) -> Self {
        self.leaky_per_committee = count;
        self
    }

    /// Samples a committee of size `n` under this adversary: corruption
    /// is assigned to *uniformly random* members (the YOSO model —
    /// role assignment hides identities, so the adversary's hits are
    /// random).
    ///
    /// # Panics
    ///
    /// Panics if the corruption counts exceed `n`.
    pub fn sample_committee<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        name: impl Into<String>,
        n: usize,
    ) -> Committee {
        let total =
            self.malicious_per_committee + self.failstop_per_committee + self.leaky_per_committee;
        assert!(total <= n, "corruption ({total}) exceeds committee size ({n})");
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(rng);
        let mut behaviors = vec![Behavior::Honest; n];
        let mut it = indices.into_iter();
        for _ in 0..self.malicious_per_committee {
            behaviors[it.next().unwrap()] = Behavior::Malicious(self.attack);
        }
        for _ in 0..self.failstop_per_committee {
            behaviors[it.next().unwrap()] = Behavior::FailStop { crash_phase: self.crash_phase };
        }
        for _ in 0..self.leaky_per_committee {
            behaviors[it.next().unwrap()] = Behavior::Leaky;
        }
        Committee::with_behaviors(name, behaviors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn behavior_predicates() {
        assert!(Behavior::Malicious(ActiveAttack::WrongValue).is_malicious());
        assert!(!Behavior::Honest.is_malicious());
        assert!(!Behavior::Leaky.is_malicious());
        assert!(!Behavior::FailStop { crash_phase: 0 }.is_malicious());

        let fs = Behavior::FailStop { crash_phase: 3 };
        assert!(fs.participates_at(2));
        assert!(!fs.participates_at(3));
        assert!(!fs.participates_at(10));
        assert!(!Behavior::Malicious(ActiveAttack::Silent).participates_at(0));
        assert!(Behavior::Honest.participates_at(100));
    }

    #[test]
    fn sampling_respects_counts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let adv = Adversary::active(3, ActiveAttack::WrongValue)
            .with_failstops(2, 1)
            .with_leaky(1);
        let c = adv.sample_committee(&mut rng, "c", 10);
        assert_eq!(c.corruption_count(), 3);
        assert_eq!(c.crashed_by(1).len(), 2);
        assert_eq!(
            c.behaviors.iter().filter(|b| matches!(b, Behavior::Leaky)).count(),
            1
        );
        assert_eq!(
            c.behaviors.iter().filter(|b| matches!(b, Behavior::Honest)).count(),
            4
        );
    }

    #[test]
    fn sampling_positions_are_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let adv = Adversary::active(1, ActiveAttack::WrongValue);
        let mut positions = std::collections::HashSet::new();
        for _ in 0..50 {
            let c = adv.sample_committee(&mut rng, "c", 10);
            positions.insert(c.malicious()[0]);
        }
        assert!(positions.len() > 3, "malicious index should vary: {positions:?}");
    }

    #[test]
    #[should_panic(expected = "exceeds committee size")]
    fn oversized_corruption_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        Adversary::active(11, ActiveAttack::WrongValue).sample_committee(&mut rng, "c", 10);
    }
}
