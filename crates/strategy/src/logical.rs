//! Logical updates (Section IV-B): adjustment lists.
//!
//! "If we can maintain a decrement list — a list of programs, sorted by
//! their bid, that are currently decrementing their bid for a given keyword
//! — we can avoid explicitly decrementing each program's bid, by instead
//! performing a single logical decrement in constant time."
//!
//! [`AdjustmentList`] is one such list: members are stored with bids
//! *relative* to the shared adjustment variable, so ticking the adjustment
//! moves every member at once and the sorted order is preserved ("all
//! programs in the list adjust their bids by the same amount").
//! [`LogicalBids`] bundles the increment, decrement, and constant lists for
//! one keyword; [`crate::LogicalRoiPopulation`] maintains whole ROI
//! populations through them.

use std::collections::{BTreeSet, HashMap};

/// Identifier of a bidding program within a population.
pub type ProgramId = usize;

/// Which of the three Section IV-B lists a program sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListKind {
    /// Bids grow by 1 per auction on this keyword.
    Increment,
    /// Bids shrink by 1 per auction on this keyword.
    Decrement,
    /// Bids do not change.
    Constant,
}

impl ListKind {
    /// Per-auction delta applied by [`LogicalBids::tick`].
    pub fn delta(self) -> i64 {
        match self {
            ListKind::Increment => 1,
            ListKind::Decrement => -1,
            ListKind::Constant => 0,
        }
    }
}

/// A bid list with a shared adjustment variable.
///
/// Effective bid of member `p` = stored bid of `p` + `adjustment`.
/// [`AdjustmentList::tick`] is `O(1)`; insertion and removal are
/// `O(log n)`.
#[derive(Debug, Clone, Default)]
pub struct AdjustmentList {
    adjustment: i64,
    // (stored bid, program) — ordered ascending; iterate backwards for the
    // descending bid order the top-k machinery wants.
    members: BTreeSet<(i64, ProgramId)>,
    stored: HashMap<ProgramId, i64>,
}

impl AdjustmentList {
    /// An empty list.
    pub fn new() -> Self {
        AdjustmentList::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the list has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Moves every member's effective bid by `delta` in `O(1)`.
    pub fn tick(&mut self, delta: i64) {
        if !self.members.is_empty() {
            self.adjustment += delta;
        }
    }

    /// Inserts a program with the given **effective** bid.
    pub fn insert(&mut self, program: ProgramId, effective_bid: i64) {
        let stored = effective_bid - self.adjustment;
        let fresh = self.stored.insert(program, stored).is_none();
        assert!(fresh, "program {program} already in list");
        self.members.insert((stored, program));
    }

    /// Removes a program, returning its effective bid.
    pub fn remove(&mut self, program: ProgramId) -> Option<i64> {
        let stored = self.stored.remove(&program)?;
        let removed = self.members.remove(&(stored, program));
        debug_assert!(removed, "list out of sync");
        Some(stored + self.adjustment)
    }

    /// Effective bid of a member.
    pub fn bid(&self, program: ProgramId) -> Option<i64> {
        self.stored.get(&program).map(|s| s + self.adjustment)
    }

    /// Members by descending effective bid (ties: descending id, matching
    /// the `BTreeSet` reverse order).
    pub fn iter_desc(&self) -> impl Iterator<Item = (ProgramId, i64)> + '_ {
        self.members
            .iter()
            .rev()
            .map(move |&(stored, p)| (p, stored + self.adjustment))
    }
}

/// The three per-keyword lists plus membership tracking.
#[derive(Debug, Clone, Default)]
pub struct LogicalBids {
    lists: [AdjustmentList; 3],
    kind_of: HashMap<ProgramId, ListKind>,
}

fn slot(kind: ListKind) -> usize {
    match kind {
        ListKind::Increment => 0,
        ListKind::Decrement => 1,
        ListKind::Constant => 2,
    }
}

impl LogicalBids {
    /// Empty structure.
    pub fn new() -> Self {
        LogicalBids::default()
    }

    /// Total number of programs across the three lists.
    pub fn len(&self) -> usize {
        self.kind_of.len()
    }

    /// `true` if no programs are registered.
    pub fn is_empty(&self) -> bool {
        self.kind_of.is_empty()
    }

    /// Registers a program with its current bid and direction.
    pub fn insert(&mut self, program: ProgramId, bid: i64, kind: ListKind) {
        let fresh = self.kind_of.insert(program, kind).is_none();
        assert!(fresh, "program {program} already registered");
        self.lists[slot(kind)].insert(program, bid);
    }

    /// Unregisters a program, returning `(bid, kind)`.
    pub fn remove(&mut self, program: ProgramId) -> Option<(i64, ListKind)> {
        let kind = self.kind_of.remove(&program)?;
        let bid = self.lists[slot(kind)]
            .remove(program)
            .expect("membership out of sync");
        Some((bid, kind))
    }

    /// Moves a program to another list, preserving its effective bid.
    pub fn migrate(&mut self, program: ProgramId, to: ListKind) {
        if self.kind_of.get(&program) == Some(&to) {
            return;
        }
        let (bid, _) = self.remove(program).expect("unknown program");
        self.insert(program, bid, to);
    }

    /// The single logical update for one auction: increment list +1,
    /// decrement list −1. `O(1)`.
    pub fn tick(&mut self) {
        self.lists[slot(ListKind::Increment)].tick(1);
        self.lists[slot(ListKind::Decrement)].tick(-1);
    }

    /// A program's current effective bid.
    pub fn bid(&self, program: ProgramId) -> Option<i64> {
        let kind = self.kind_of.get(&program)?;
        self.lists[slot(*kind)].bid(program)
    }

    /// A program's current list.
    pub fn kind(&self, program: ProgramId) -> Option<ListKind> {
        self.kind_of.get(&program).copied()
    }

    /// All programs by descending effective bid: a three-way merge of the
    /// per-list sorted orders.
    pub fn iter_desc(&self) -> impl Iterator<Item = (ProgramId, i64)> + '_ {
        ThreeWayMerge::new([
            Box::new(self.lists[0].iter_desc()) as Box<dyn Iterator<Item = (ProgramId, i64)>>,
            Box::new(self.lists[1].iter_desc()),
            Box::new(self.lists[2].iter_desc()),
        ])
    }
}

/// Descending merge of three descending (program, bid) streams.
struct ThreeWayMerge<'a> {
    iters: [Box<dyn Iterator<Item = (ProgramId, i64)> + 'a>; 3],
    heads: [Option<(ProgramId, i64)>; 3],
}

impl<'a> ThreeWayMerge<'a> {
    fn new(mut iters: [Box<dyn Iterator<Item = (ProgramId, i64)> + 'a>; 3]) -> Self {
        let heads = [iters[0].next(), iters[1].next(), iters[2].next()];
        ThreeWayMerge { iters, heads }
    }
}

impl Iterator for ThreeWayMerge<'_> {
    type Item = (ProgramId, i64);

    fn next(&mut self) -> Option<(ProgramId, i64)> {
        let best = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|(p, b)| (i, p, b)))
            .max_by_key(|&(_, p, b)| (b, p))?;
        let (idx, p, b) = best;
        self.heads[idx] = self.iters[idx].next();
        Some((p, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjustment_list_o1_tick() {
        let mut l = AdjustmentList::new();
        l.insert(0, 10);
        l.insert(1, 5);
        l.insert(2, 8);
        l.tick(3);
        assert_eq!(l.bid(0), Some(13));
        assert_eq!(l.bid(1), Some(8));
        let order: Vec<_> = l.iter_desc().collect();
        assert_eq!(order, vec![(0, 13), (2, 11), (1, 8)]);
        // Removal returns the effective bid.
        assert_eq!(l.remove(2), Some(11));
        assert_eq!(l.len(), 2);
        assert_eq!(l.remove(2), None);
    }

    #[test]
    fn insert_after_tick_respects_adjustment() {
        let mut l = AdjustmentList::new();
        l.insert(0, 10);
        l.tick(-4);
        l.insert(1, 9); // effective 9 now
        assert_eq!(l.bid(0), Some(6));
        assert_eq!(l.bid(1), Some(9));
        l.tick(-1);
        assert_eq!(l.bid(1), Some(8));
    }

    #[test]
    fn tick_on_empty_list_is_inert() {
        let mut l = AdjustmentList::new();
        l.tick(100);
        l.insert(0, 5);
        assert_eq!(l.bid(0), Some(5));
    }

    #[test]
    fn logical_bids_tick_and_migrate() {
        let mut lb = LogicalBids::new();
        lb.insert(0, 10, ListKind::Increment);
        lb.insert(1, 10, ListKind::Decrement);
        lb.insert(2, 10, ListKind::Constant);
        lb.tick();
        lb.tick();
        assert_eq!(lb.bid(0), Some(12));
        assert_eq!(lb.bid(1), Some(8));
        assert_eq!(lb.bid(2), Some(10));
        // Migrating to Constant freezes the effective bid.
        lb.migrate(1, ListKind::Constant);
        lb.tick();
        assert_eq!(lb.bid(1), Some(8));
        assert_eq!(lb.bid(0), Some(13));
        assert_eq!(lb.kind(1), Some(ListKind::Constant));
    }

    #[test]
    fn merged_iteration_is_globally_sorted() {
        let mut lb = LogicalBids::new();
        for (p, bid, kind) in [
            (0, 3, ListKind::Increment),
            (1, 9, ListKind::Increment),
            (2, 7, ListKind::Decrement),
            (3, 1, ListKind::Decrement),
            (4, 8, ListKind::Constant),
            (5, 5, ListKind::Constant),
        ] {
            lb.insert(p, bid, kind);
        }
        let bids: Vec<i64> = lb.iter_desc().map(|(_, b)| b).collect();
        let mut sorted = bids.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(bids, sorted);
        assert_eq!(lb.iter_desc().count(), 6);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_insert_rejected() {
        let mut lb = LogicalBids::new();
        lb.insert(0, 1, ListKind::Constant);
        lb.insert(0, 2, ListKind::Increment);
    }

    #[test]
    fn migrate_to_same_list_is_noop() {
        let mut lb = LogicalBids::new();
        lb.insert(0, 4, ListKind::Increment);
        lb.migrate(0, ListKind::Increment);
        assert_eq!(lb.bid(0), Some(4));
    }
}
