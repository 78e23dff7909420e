//! The strongly-typed slot identifier.
//!
//! Slots are numbered **1-based** to match the paper's `Slot1 … Slotk`
//! notation; [`SlotId::index0`] converts to a zero-based array index.

use std::fmt;

/// Identifier of an advertising slot, **1-based** like the paper's `Slotj`.
///
/// Slot 1 is the topmost (most valuable) position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(u16);

impl SlotId {
    /// Creates a slot id from its 1-based position.
    ///
    /// # Panics
    ///
    /// Panics if `position == 0`: the paper's slots start at `Slot1`.
    #[inline]
    pub fn new(position: u16) -> Self {
        assert!(position > 0, "slot positions are 1-based");
        SlotId(position)
    }

    /// Creates a slot id from a zero-based index.
    // Invariant: every slot index comes from a page of at most
    // `ssa_core::MAX_SLOTS` (1 024) slots, far below `u16::MAX`.
    #[allow(clippy::expect_used)]
    #[inline]
    pub fn from_index0(index: usize) -> Self {
        SlotId(u16::try_from(index + 1).expect("slot index exceeds u16"))
    }

    /// The 1-based position (`Slot1` → 1).
    #[inline]
    pub fn position(self) -> u16 {
        self.0
    }

    /// The zero-based index for array access (`Slot1` → 0).
    #[inline]
    pub fn index0(self) -> usize {
        usize::from(self.0 - 1)
    }

    /// Returns `true` if `self` is a strictly higher (more prominent)
    /// position than `other`. Slot 1 is the highest.
    #[inline]
    pub fn is_above(self, other: SlotId) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Slot{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        let s = SlotId::new(3);
        assert_eq!(s.position(), 3);
        assert_eq!(s.index0(), 2);
        assert_eq!(SlotId::from_index0(2), s);
        assert_eq!(s.to_string(), "Slot3");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn slot_zero_rejected() {
        let _ = SlotId::new(0);
    }

    #[test]
    fn slot_ordering_matches_prominence() {
        assert!(SlotId::new(1).is_above(SlotId::new(2)));
        assert!(!SlotId::new(2).is_above(SlotId::new(2)));
        assert!(!SlotId::new(3).is_above(SlotId::new(2)));
    }
}
