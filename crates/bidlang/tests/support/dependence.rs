//! *m*-dependence analysis (Definition 1 of the paper).
//!
//! An event is *m-dependent* if its probability, conditional on any
//! allocation, depends only on the placement of at most *m* advertisers.
//! Theorem 2 shows winner determination is polynomial for OR-bids on
//! 1-dependent events; Theorem 3 shows it is APX-hard already for
//! 2-dependent events.
//!
//! For the formula language of `ssa_bidlang` the analysis is syntactic:
//!
//! * `Slotj` / `Click` / `Purchase` predicates concern only the *owning*
//!   advertiser, so any combination of them is 1-dependent (the paper's
//!   Section III-B observation);
//! * `HeavySlotj` predicates depend on which advertiser (heavyweight or not)
//!   occupies slot `j`, hence on the whole allocation — they are only
//!   tractable through the Section III-F pattern decomposition, which this
//!   analysis flags via [`Dependence::AllAdvertisers`].

use super::AdvertiserId;
use ssa_bidlang::Formula;
use std::collections::BTreeSet;

/// The set of advertisers whose placement an event's probability can depend
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dependence {
    /// The event depends only on the placements of this explicit set.
    On(BTreeSet<AdvertiserId>),
    /// The event may depend on every advertiser's placement (heavyweight
    /// predicates).
    AllAdvertisers,
}

impl Dependence {
    /// The `m` of Definition 1, if bounded.
    pub fn m(&self) -> Option<usize> {
        match self {
            Dependence::On(set) => Some(set.len()),
            Dependence::AllAdvertisers => None,
        }
    }

    /// Merges two dependence sets (union).
    pub fn union(self, other: Dependence) -> Dependence {
        match (self, other) {
            (Dependence::AllAdvertisers, _) | (_, Dependence::AllAdvertisers) => {
                Dependence::AllAdvertisers
            }
            (Dependence::On(mut a), Dependence::On(b)) => {
                a.extend(b);
                Dependence::On(a)
            }
        }
    }
}

/// Computes the dependence set of `formula` when owned by advertiser `owner`.
pub fn dependence_set(formula: &Formula, owner: AdvertiserId) -> Dependence {
    let mut dep = Dependence::On(BTreeSet::new());
    formula.for_each_predicate(&mut |p| {
        let contribution = if p.is_own_outcome() {
            Dependence::On(BTreeSet::from([owner]))
        } else {
            Dependence::AllAdvertisers
        };
        // `std::mem::replace` dance because the closure captures `dep` by
        // reference but `union` consumes.
        let current = std::mem::replace(&mut dep, Dependence::AllAdvertisers);
        dep = current.union(contribution);
    });
    dep
}

/// `true` if the event defined by `formula` (owned by any single advertiser)
/// is 1-dependent — the precondition of Theorem 2.
pub fn is_one_dependent(formula: &Formula) -> bool {
    matches!(
        dependence_set(formula, AdvertiserId::new(0)).m(),
        Some(0) | Some(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_bidlang::SlotId;

    #[test]
    fn own_outcome_formulas_are_one_dependent() {
        let f = (Formula::click() & Formula::slot(SlotId::new(1)))
            | (Formula::purchase() & !Formula::slot(SlotId::new(2)));
        assert!(is_one_dependent(&f));
        let dep = dependence_set(&f, AdvertiserId::new(7));
        assert_eq!(dep, Dependence::On(BTreeSet::from([AdvertiserId::new(7)])));
    }

    #[test]
    fn constants_are_zero_dependent() {
        assert_eq!(
            dependence_set(&Formula::True, AdvertiserId::new(0)).m(),
            Some(0)
        );
        assert!(is_one_dependent(&Formula::True));
    }

    #[test]
    fn heavy_predicates_are_unbounded() {
        let f = Formula::click() & Formula::heavy_in_slot(SlotId::new(1));
        assert_eq!(
            dependence_set(&f, AdvertiserId::new(0)),
            Dependence::AllAdvertisers
        );
        assert!(!is_one_dependent(&f));
    }

    #[test]
    fn union_behaviour() {
        let a = Dependence::On(BTreeSet::from([AdvertiserId::new(1)]));
        let b = Dependence::On(BTreeSet::from([AdvertiserId::new(2)]));
        assert_eq!(a.clone().union(b).m(), Some(2));
        assert_eq!(a.union(Dependence::AllAdvertisers).m(), None);
    }
}
