//! Auction outcomes as one advertiser sees them.
//!
//! The paper quantifies over "the set of all possible outcomes that
//! describe which slot was allocated to which advertiser together with
//! which advertisers received clicks and purchases" (Section III-A). An
//! [`AdvertiserView`] is the per-advertiser projection of such an outcome
//! that a [`crate::Formula`] is evaluated against.

use crate::ids::SlotId;
use crate::predicate::Predicate;

/// Bitmask of which slots are occupied by heavyweight advertisers
/// (Section III-F). Bit `j-1` set means slot `j` holds a heavyweight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HeavyPattern(pub u32);

impl HeavyPattern {
    /// Pattern with no heavyweight slots.
    pub const EMPTY: HeavyPattern = HeavyPattern(0);

    /// Builds a pattern from an iterator of heavyweight slots.
    pub fn from_slots<I: IntoIterator<Item = SlotId>>(slots: I) -> Self {
        let mut mask = 0u32;
        for s in slots {
            mask |= 1 << s.index0();
        }
        HeavyPattern(mask)
    }

    /// Does slot `j` hold a heavyweight advertiser?
    #[inline]
    pub fn is_heavy(self, slot: SlotId) -> bool {
        self.0 & (1 << slot.index0()) != 0
    }

    /// Marks a slot as heavyweight, returning the new pattern.
    #[inline]
    pub fn with(self, slot: SlotId) -> HeavyPattern {
        HeavyPattern(self.0 | (1 << slot.index0()))
    }

    /// Number of heavyweight slots in the pattern.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates all `2^k` patterns for `k` slots (Section III-F enumerates
    /// every choice of heavyweight slots).
    pub fn all(k: u16) -> impl Iterator<Item = HeavyPattern> {
        (0u32..(1 << k)).map(HeavyPattern)
    }
}

/// One advertiser's view of the final outcome: everything its formulas can
/// observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvertiserView {
    /// The slot assigned to this advertiser, or `None` if not displayed.
    pub slot: Option<SlotId>,
    /// Whether the user clicked this advertiser's ad.
    pub clicked: bool,
    /// Whether the user purchased via this advertiser's ad.
    pub purchased: bool,
    /// The heavyweight pattern of the page, if the Section III-F model is in
    /// play. `None` means heavyweight predicates evaluate to `false`.
    pub heavy_pattern: Option<HeavyPattern>,
}

impl AdvertiserView {
    /// A view for an advertiser that was not displayed and therefore received
    /// no clicks or purchases.
    pub fn unplaced() -> Self {
        AdvertiserView {
            slot: None,
            clicked: false,
            purchased: false,
            heavy_pattern: None,
        }
    }

    /// Truth value of a predicate under this view.
    #[inline]
    pub fn satisfies(&self, p: Predicate) -> bool {
        match p {
            Predicate::Slot(j) => self.slot == Some(j),
            Predicate::Click => self.clicked,
            Predicate::Purchase => self.purchased,
            Predicate::HeavyInSlot(j) => self
                .heavy_pattern
                .map(|pat| pat.is_heavy(j))
                .unwrap_or(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_pattern_bits() {
        let p = HeavyPattern::from_slots([SlotId::new(1), SlotId::new(3)]);
        assert!(p.is_heavy(SlotId::new(1)));
        assert!(!p.is_heavy(SlotId::new(2)));
        assert!(p.is_heavy(SlotId::new(3)));
        assert_eq!(p.count(), 2);
        assert_eq!(p.with(SlotId::new(2)).count(), 3);
        assert_eq!(HeavyPattern::all(3).count(), 8);
    }

    #[test]
    fn heavy_predicate_defaults_false() {
        let v = AdvertiserView::unplaced();
        assert!(!v.satisfies(Predicate::HeavyInSlot(SlotId::new(1))));
        let v2 = AdvertiserView {
            heavy_pattern: Some(HeavyPattern::from_slots([SlotId::new(1)])),
            ..AdvertiserView::unplaced()
        };
        assert!(v2.satisfies(Predicate::HeavyInSlot(SlotId::new(1))));
    }
}
