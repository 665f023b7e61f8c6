//! Roles and committees.
//!
//! A role speaks once (§2). The protocol keeps that discipline in
//! `yoso_core`'s committee step — rule 1 picks who speaks, rule 5 posts
//! every speaker's message in one members' run — so no per-role token
//! is issued here.

use std::fmt;
use std::sync::Arc;

use crate::adversary::Behavior;

/// Identity of a role: a committee label plus the member index.
///
/// The committee label is reference-counted so cloning a `RoleId` —
/// which batched board posting does once per record — is a refcount
/// bump, not a string allocation. Every role a [`Committee`] hands out
/// shares the committee's own label allocation, which is what lets the
/// board's run-length log recognise same-committee postings by pointer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoleId {
    /// The committee this role belongs to (e.g. `"off-1"`, `"on-3"`).
    pub committee: Arc<str>,
    /// 0-based index within the committee.
    pub index: usize,
}

impl RoleId {
    /// Creates a role id.
    pub fn new(committee: impl Into<String>, index: usize) -> Self {
        RoleId { committee: Arc::from(committee.into()), index }
    }
}

impl fmt::Display for RoleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.committee, self.index)
    }
}

/// A committee of `n` roles with the adversary's per-role behaviors.
#[derive(Debug, Clone)]
pub struct Committee {
    /// The committee label (also the committee part of member roles,
    /// which alias this allocation).
    pub name: Arc<str>,
    /// Per-member behavior, as assigned by the adversary.
    pub behaviors: Vec<Behavior>,
}

impl Committee {
    /// Creates a fully honest committee.
    pub fn honest(name: impl Into<String>, n: usize) -> Self {
        Committee::with_behaviors(name, vec![Behavior::Honest; n])
    }

    /// Creates a committee with explicit behaviors.
    pub fn with_behaviors(name: impl Into<String>, behaviors: Vec<Behavior>) -> Self {
        Committee { name: Arc::from(name.into()), behaviors }
    }

    /// Committee size.
    pub fn n(&self) -> usize {
        self.behaviors.len()
    }

    /// The role id of member `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn role(&self, i: usize) -> RoleId {
        assert!(i < self.n(), "member index out of range");
        RoleId { committee: Arc::clone(&self.name), index: i }
    }

    /// The behavior of member `i`.
    pub fn behavior(&self, i: usize) -> &Behavior {
        &self.behaviors[i]
    }

    /// Indices of actively malicious members.
    pub fn malicious(&self) -> Vec<usize> {
        self.behaviors
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_malicious())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of members that crash at or before `phase`.
    pub fn crashed_by(&self, phase: u64) -> Vec<usize> {
        self.behaviors
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b, Behavior::FailStop { crash_phase } if *crash_phase <= phase))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of corrupted (malicious) members.
    pub fn corruption_count(&self) -> usize {
        self.malicious().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ActiveAttack;

    #[test]
    fn role_id_display() {
        let r = RoleId::new("off-1", 3);
        assert_eq!(r.to_string(), "off-1[3]");
    }

    #[test]
    fn committee_queries() {
        let behaviors = vec![
            Behavior::Honest,
            Behavior::Malicious(ActiveAttack::WrongValue),
            Behavior::FailStop { crash_phase: 2 },
            Behavior::Leaky,
            Behavior::Malicious(ActiveAttack::Silent),
        ];
        let c = Committee::with_behaviors("on-1", behaviors);
        assert_eq!(c.n(), 5);
        assert_eq!(c.malicious(), vec![1, 4]);
        assert_eq!(c.corruption_count(), 2);
        assert_eq!(c.crashed_by(1), Vec::<usize>::new());
        assert_eq!(c.crashed_by(2), vec![2]);
        assert_eq!(c.role(1), RoleId::new("on-1", 1));
    }

    #[test]
    fn member_roles_share_the_committee_label_allocation() {
        let c = Committee::honest("off-1", 4);
        let (a, b) = (c.role(0), c.role(3));
        assert!(Arc::ptr_eq(&a.committee, &c.name));
        assert!(Arc::ptr_eq(&a.committee, &b.committee));
        // A clone of the committee keeps sharing it too.
        assert!(Arc::ptr_eq(&c.clone().role(1).committee, &c.name));
    }

    #[test]
    fn honest_committee_has_no_corruption() {
        let c = Committee::honest("c1", 10);
        assert_eq!(c.corruption_count(), 0);
    }
}
