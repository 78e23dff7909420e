//! Boolean formulas over bidding predicates.
//!
//! A [`Formula`] is the left column of a Bids table row (paper Figures 3
//! and 6): an arbitrary Boolean combination of [`Predicate`]s. The operators
//! `&`, `|` and `!` are overloaded so formulas compose naturally:
//!
//! ```
//! use ssa_bidlang::{Formula, SlotId};
//! // "Click ∧ Slot1" from the paper's Figure 6.
//! let f = Formula::click() & Formula::slot(SlotId::new(1));
//! assert_eq!(f.to_string(), "Click ∧ Slot1");
//! ```

use crate::ids::SlotId;
use crate::outcome::AdvertiserView;
use crate::predicate::Predicate;
use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

/// A Boolean combination of [`Predicate`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic predicate.
    Pred(Predicate),
    /// Logical negation.
    Not(Box<Formula>),
    /// Logical conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Logical disjunction.
    Or(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// The `Click` predicate as a formula.
    #[inline]
    pub fn click() -> Formula {
        Formula::Pred(Predicate::Click)
    }

    /// The `Purchase` predicate as a formula.
    #[inline]
    pub fn purchase() -> Formula {
        Formula::Pred(Predicate::Purchase)
    }

    /// The `Slotj` predicate as a formula.
    #[inline]
    pub fn slot(slot: SlotId) -> Formula {
        Formula::Pred(Predicate::Slot(slot))
    }

    /// The `HeavySlotj` predicate (Section III-F) as a formula.
    #[inline]
    pub fn heavy_in_slot(slot: SlotId) -> Formula {
        Formula::Pred(Predicate::HeavyInSlot(slot))
    }

    /// Disjunction `Slot1 ∨ … ∨ Slotk` over a set of slots; the paper's
    /// "displayed in positions 1 or 2" style bid. Empty input yields `False`.
    pub fn any_slot<I: IntoIterator<Item = SlotId>>(slots: I) -> Formula {
        slots
            .into_iter()
            .map(Formula::slot)
            .reduce(|a, b| a | b)
            .unwrap_or(Formula::False)
    }

    /// The "not displayed at all" event `∧j ¬Slotj` for `k` slots.
    pub fn no_slot(k: u16) -> Formula {
        (1..=k)
            .map(|j| !Formula::slot(SlotId::new(j)))
            .reduce(|a, b| a & b)
            .unwrap_or(Formula::True)
    }

    /// Evaluates the formula against one advertiser's view of the outcome.
    pub fn eval(&self, view: &AdvertiserView) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Pred(p) => view.satisfies(*p),
            Formula::Not(f) => !f.eval(view),
            Formula::And(a, b) => a.eval(view) && b.eval(view),
            Formula::Or(a, b) => a.eval(view) || b.eval(view),
        }
    }

    /// Visits every predicate occurring in the formula.
    pub fn for_each_predicate<F: FnMut(Predicate)>(&self, f: &mut F) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Pred(p) => f(*p),
            Formula::Not(inner) => inner.for_each_predicate(f),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.for_each_predicate(f);
                b.for_each_predicate(f);
            }
        }
    }

    /// `true` if the formula mentions any `HeavyInSlot` predicate, i.e.
    /// requires the Section III-F heavyweight machinery.
    pub fn mentions_heavy(&self) -> bool {
        let mut found = false;
        self.for_each_predicate(&mut |p| {
            found |= matches!(p, Predicate::HeavyInSlot(_));
        });
        found
    }

    /// Structural size (number of AST nodes); used by tests and as a guard on
    /// adversarial inputs.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Pred(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(a, b) | Formula::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Constant-folding simplification. Removes `True`/`False` sub-terms and
    /// double negations; does **not** attempt full Boolean minimisation.
    pub fn simplify(self) -> Formula {
        match self {
            Formula::Not(f) => match f.simplify() {
                Formula::True => Formula::False,
                Formula::False => Formula::True,
                Formula::Not(inner) => *inner,
                other => Formula::Not(Box::new(other)),
            },
            Formula::And(a, b) => match (a.simplify(), b.simplify()) {
                (Formula::False, _) | (_, Formula::False) => Formula::False,
                (Formula::True, x) | (x, Formula::True) => x,
                (x, y) => Formula::And(Box::new(x), Box::new(y)),
            },
            Formula::Or(a, b) => match (a.simplify(), b.simplify()) {
                (Formula::True, _) | (_, Formula::True) => Formula::True,
                (Formula::False, x) | (x, Formula::False) => x,
                (x, y) => Formula::Or(Box::new(x), Box::new(y)),
            },
            leaf => leaf,
        }
    }
}

impl BitAnd for Formula {
    type Output = Formula;
    fn bitand(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }
}

impl BitOr for Formula {
    type Output = Formula;
    fn bitor(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }
}

impl Not for Formula {
    type Output = Formula;
    fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }
}

impl From<Predicate> for Formula {
    fn from(p: Predicate) -> Formula {
        Formula::Pred(p)
    }
}

/// Precedence levels used for minimal parenthesisation in `Display`.
fn precedence(f: &Formula) -> u8 {
    match f {
        Formula::True | Formula::False | Formula::Pred(_) | Formula::Not(_) => 3,
        Formula::And(..) => 2,
        Formula::Or(..) => 1,
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_child(
            out: &mut fmt::Formatter<'_>,
            child: &Formula,
            parent_prec: u8,
        ) -> fmt::Result {
            if precedence(child) < parent_prec {
                write!(out, "({child})")
            } else {
                write!(out, "{child}")
            }
        }
        match self {
            Formula::True => write!(out, "⊤"),
            Formula::False => write!(out, "⊥"),
            Formula::Pred(p) => write!(out, "{p}"),
            Formula::Not(f) => {
                write!(out, "¬")?;
                write_child(out, f, 3)
            }
            // Right children of equal precedence are parenthesised so that
            // the (left-associative) parser reconstructs the same tree.
            Formula::And(a, b) => {
                write_child(out, a, 2)?;
                write!(out, " ∧ ")?;
                write_child(out, b, 3)
            }
            Formula::Or(a, b) => {
                write_child(out, a, 1)?;
                write!(out, " ∨ ")?;
                write_child(out, b, 2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::AdvertiserView;

    fn view(slot: Option<u16>, clicked: bool, purchased: bool) -> AdvertiserView {
        AdvertiserView {
            slot: slot.map(SlotId::new),
            clicked,
            purchased,
            heavy_pattern: None,
        }
    }

    #[test]
    fn eval_atoms() {
        let v = view(Some(2), true, false);
        assert!(Formula::click().eval(&v));
        assert!(!Formula::purchase().eval(&v));
        assert!(Formula::slot(SlotId::new(2)).eval(&v));
        assert!(!Formula::slot(SlotId::new(1)).eval(&v));
        assert!(Formula::True.eval(&v));
        assert!(!Formula::False.eval(&v));
    }

    #[test]
    fn eval_compound_figure3() {
        // Figure 3: Purchase pays; Slot1 ∨ Slot2 pays.
        let slot12 = Formula::any_slot([SlotId::new(1), SlotId::new(2)]);
        assert!(slot12.eval(&view(Some(1), false, false)));
        assert!(slot12.eval(&view(Some(2), false, false)));
        assert!(!slot12.eval(&view(Some(3), false, false)));
        assert!(!slot12.eval(&view(None, false, false)));
    }

    #[test]
    fn top_or_bottom_but_not_middle() {
        // The Section I brand-awareness bid: top or bottom, never the middle.
        let f = Formula::slot(SlotId::new(1)) | Formula::slot(SlotId::new(4));
        assert!(f.eval(&view(Some(1), false, false)));
        assert!(f.eval(&view(Some(4), false, false)));
        assert!(!f.eval(&view(Some(2), false, false)));
    }

    #[test]
    fn top_slot_or_nothing() {
        // "displayed in the topmost slot or not displayed at all"
        let f = Formula::slot(SlotId::new(1)) | Formula::no_slot(4);
        assert!(f.eval(&view(Some(1), false, false)));
        assert!(f.eval(&view(None, false, false)));
        assert!(!f.eval(&view(Some(3), false, false)));
    }

    #[test]
    fn negation_and_constants() {
        let v = view(None, false, false);
        assert!((!Formula::click()).eval(&v));
        assert!(Formula::no_slot(3).eval(&v));
        assert!(!Formula::no_slot(3).eval(&view(Some(2), false, false)));
        assert_eq!(Formula::any_slot([]), Formula::False);
        assert_eq!(Formula::no_slot(0), Formula::True);
    }

    #[test]
    fn display_matches_paper_notation() {
        let f = Formula::click() & Formula::slot(SlotId::new(1));
        assert_eq!(f.to_string(), "Click ∧ Slot1");
        let g = Formula::purchase() | (Formula::click() & Formula::slot(SlotId::new(2)));
        assert_eq!(g.to_string(), "Purchase ∨ Click ∧ Slot2");
        let h = (Formula::purchase() | Formula::click()) & Formula::slot(SlotId::new(2));
        assert_eq!(h.to_string(), "(Purchase ∨ Click) ∧ Slot2");
        let n = !(Formula::click() | Formula::purchase());
        assert_eq!(n.to_string(), "¬(Click ∨ Purchase)");
    }

    #[test]
    fn simplify_folds_constants() {
        let f = (Formula::click() & Formula::True) | Formula::False;
        assert_eq!(f.simplify(), Formula::click());
        let g = !!Formula::purchase();
        assert_eq!(g.simplify(), Formula::purchase());
        let h = Formula::click() & Formula::False;
        assert_eq!(h.simplify(), Formula::False);
        let i = !Formula::True;
        assert_eq!(i.simplify(), Formula::False);
    }

    #[test]
    fn mentions_heavy() {
        assert!(!Formula::click().mentions_heavy());
        let f = Formula::click() & Formula::heavy_in_slot(SlotId::new(1));
        assert!(f.mentions_heavy());
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Formula::click().size(), 1);
        assert_eq!((Formula::click() & Formula::purchase()).size(), 3);
        assert_eq!((!Formula::click()).size(), 2);
    }
}
