//! Per-slot retained order: each slot's best rows, kept current as single
//! rows change.
//!
//! Section III-E reads winner determination off each slot's top-k bidders;
//! Section IV keeps those orders current by moving only the bidders that
//! changed. [`RetainedOrder`] is that state without the `n × k` matrix
//! behind it: per slot, a short best-first list under [`TopK`]'s own total
//! order (weight descending by `total_cmp`, id ascending) and a **floor**
//! that every unlisted, non-[`EXCLUDED`] row ranks at or below. A list is
//! therefore always the exact top-`len` of its column, and a changed row
//! that was unlisted and stays under the floor costs one compare per slot.
//!
//! Lists hold between `k + 1` and `2(k + 1)` entries (`k` = slots): `k` for
//! the reduced graph's candidates, one more so a runner-up survives the `k`
//! rows an assignment can seat. Rows that fall out shrink a list; once one
//! with unlisted rows behind it drops below `k + 1` the order has
//! [underflowed](RetainedOrder::underflowed) and must be rebuilt —
//! [`RetainedOrder::clear`], then [`RetainedOrder::update`] with every row
//! — which refills the lists to `2(k + 1)`, so at least `k + 1` rows must
//! leave one list between rebuilds.
//!
//! [`TopK`]: crate::topk::TopK

use crate::heap::HeapUse;
use crate::matrix::EXCLUDED;
use std::cmp::Ordering;

/// `(id, weight)`, as in [`top_k_indices`](crate::top_k_indices).
type Entry = (usize, f64);

/// Whether `a` ranks strictly before `b`: heavier, or equal and smaller id.
fn ranks_before(a: Entry, b: Entry) -> bool {
    match a.1.total_cmp(&b.1) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a.0 < b.0,
    }
}

#[derive(Debug, Clone)]
struct SlotList {
    /// Best first: exactly the `entries.len()` best non-excluded rows.
    entries: Vec<Entry>,
    /// Every unlisted, non-excluded row ranks at or after this and every
    /// listed one before it (or is it); `None` while no such row exists.
    floor: Option<Entry>,
}

impl SlotList {
    /// Lists `entry`, which is not listed, if it ranks before the floor.
    /// Over `cap` entries the last one leaves and becomes the floor.
    fn admit(&mut self, entry: Entry, cap: usize, listed: &mut [u16]) {
        if self.floor.is_some_and(|floor| !ranks_before(entry, floor)) {
            return;
        }
        let at = self.entries.partition_point(|&e| ranks_before(e, entry));
        if at == cap {
            self.floor = Some(entry);
            return;
        }
        self.entries.insert(at, entry);
        listed[entry.0] += 1;
        if self.entries.len() > cap {
            let dropped = self.entries.pop().expect("longer than cap");
            listed[dropped.0] -= 1;
            self.floor = Some(dropped);
        }
    }
}

/// Each slot's best rows under [`TopK`](crate::topk::TopK)'s order,
/// repaired one changed row at a time; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct RetainedOrder {
    lists: Vec<SlotList>,
    /// Each list's floor weight, or [`EXCLUDED`] while it has no floor: a
    /// weight numerically below it ranks after the floor whatever its id,
    /// so [`RetainedOrder::update`] turns most rows away with one float
    /// compare per slot and never looks at the list.
    floor_weights: Vec<f64>,
    /// In how many lists each row is listed, so a row in none is never
    /// searched for.
    listed: Vec<u16>,
}

impl RetainedOrder {
    /// An empty order over `slots` lists.
    pub fn new(slots: usize) -> Self {
        assert!(slots < usize::from(u16::MAX), "too many slots");
        let cap = 2 * (slots + 1);
        RetainedOrder {
            lists: (0..slots)
                .map(|_| SlotList {
                    // One past `cap`: `admit` inserts before it drops.
                    entries: Vec::with_capacity(cap + 1),
                    floor: None,
                })
                .collect(),
            floor_weights: vec![EXCLUDED; slots],
            listed: Vec::new(),
        }
    }

    /// The length below which a list with unlisted rows behind it is short.
    fn keep(&self) -> usize {
        self.lists.len() + 1
    }

    /// Forgets every row. Calling [`RetainedOrder::update`] with each row
    /// then rebuilds the order, whatever state it was in.
    pub fn clear(&mut self) {
        for list in &mut self.lists {
            list.entries.clear();
            list.floor = None;
        }
        self.floor_weights.fill(EXCLUDED);
        self.listed.clear();
    }

    /// Records that `row`'s weights are now `weights` (one per slot): the
    /// row leaves the lists it was on and joins those where it ranks before
    /// the floor. Rows never seen before are inserted the same way.
    ///
    /// # Panics
    ///
    /// Panics on a weight that is neither finite nor [`EXCLUDED`].
    pub fn update(&mut self, row: usize, weights: &[f64]) {
        assert_eq!(weights.len(), self.lists.len(), "one weight per slot");
        if row >= self.listed.len() {
            self.listed.resize(row + 1, 0);
        }
        if self.listed[row] > 0 {
            for list in &mut self.lists {
                if let Some(at) = list.entries.iter().position(|e| e.0 == row) {
                    list.entries.remove(at);
                }
            }
            self.listed[row] = 0;
        }
        let cap = 2 * self.keep();
        for (slot, &weight) in weights.iter().enumerate() {
            // Under the floor, or excluded (nothing is below `EXCLUDED`, so
            // an excluded weight gets past the first test only).
            if weight < self.floor_weights[slot] || weight == EXCLUDED {
                continue;
            }
            assert!(
                weight.is_finite(),
                "revenue weights must be finite or EXCLUDED, got {weight}"
            );
            let list = &mut self.lists[slot];
            list.admit((row, weight), cap, &mut self.listed);
            self.floor_weights[slot] = list.floor.map_or(EXCLUDED, |floor| floor.1);
        }
    }

    /// The heap the order holds: its lists, their floors and the per-row
    /// listing counts.
    pub fn heap_use(&self) -> HeapUse {
        HeapUse::of_vec(&self.lists)
            + self
                .lists
                .iter()
                .map(|list| HeapUse::of_vec(&list.entries))
                .sum()
            + HeapUse::of_vec(&self.floor_weights)
            + HeapUse::of_vec(&self.listed)
    }

    /// Whether some list no longer holds its column's top `k + 1`: rows
    /// have left it and unlisted ones, of unknown rank, would have to take
    /// their place. Until rebuilt, [`RetainedOrder::top`] and
    /// [`RetainedOrder::candidates_into`] are not to be trusted.
    pub fn underflowed(&self) -> bool {
        let keep = self.keep();
        self.lists
            .iter()
            .any(|list| list.floor.is_some() && list.entries.len() < keep)
    }

    /// The best rows of `slot`, best first: at least `k + 1`, or every
    /// non-excluded row there is.
    pub fn top(&self, slot: usize) -> &[(usize, f64)] {
        &self.lists[slot].entries
    }

    /// Writes the union of every slot's top `k` ids, ascending, into `out`
    /// (cleared first) — what
    /// [`reduced_candidates`](crate::reduced_candidates) computes from the
    /// full matrix.
    pub fn candidates_into(&self, out: &mut Vec<usize>) {
        let k = self.lists.len();
        out.clear();
        for list in &self.lists {
            out.extend(list.entries.iter().take(k).map(|e| e.0));
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(order: &RetainedOrder, slot: usize) -> Vec<usize> {
        order.top(slot).iter().map(|e| e.0).collect()
    }

    #[test]
    fn lists_are_best_first_with_ties_towards_smaller_ids() {
        let mut order = RetainedOrder::new(1);
        for (row, w) in [(0, 1.0), (1, 5.0), (2, 5.0), (3, EXCLUDED)] {
            order.update(row, &[w]);
        }
        assert_eq!(ids(&order, 0), vec![1, 2, 0]);
        order.update(1, &[0.5]);
        assert_eq!(ids(&order, 0), vec![2, 0, 1]);
        order.update(2, &[EXCLUDED]);
        assert_eq!(ids(&order, 0), vec![0, 1]);
        assert!(!order.underflowed(), "nothing is unlisted");
    }

    #[test]
    fn overflow_sets_a_floor_and_departures_underflow() {
        // One slot: lists hold 2..=4 entries.
        let mut order = RetainedOrder::new(1);
        for row in 0..6 {
            order.update(row, &[10.0 - row as f64]);
        }
        assert_eq!(ids(&order, 0), vec![0, 1, 2, 3]);
        // Below the floor: not listed, and nothing to search for later.
        order.update(6, &[1.0]);
        assert_eq!(ids(&order, 0), vec![0, 1, 2, 3]);
        // Above the floor (row 4's 6.0) with room: listed, even last.
        order.update(3, &[EXCLUDED]);
        order.update(6, &[6.5]);
        assert_eq!(ids(&order, 0), vec![0, 1, 2, 6]);
        // Three more departures leave one entry with rows behind it.
        for row in [0, 1] {
            order.update(row, &[EXCLUDED]);
            assert!(!order.underflowed());
        }
        order.update(2, &[0.0]);
        assert_eq!(ids(&order, 0), vec![6]);
        assert!(order.underflowed());
        // Rebuild: clear, then every row.
        order.clear();
        let weights = [EXCLUDED, EXCLUDED, 0.0, EXCLUDED, 6.0, 5.0, 6.5];
        for (row, w) in weights.into_iter().enumerate() {
            order.update(row, &[w]);
        }
        assert_eq!(ids(&order, 0), vec![6, 4, 5, 2]);
        assert!(!order.underflowed());
    }

    #[test]
    fn candidates_are_the_union_of_each_slots_top_k() {
        let mut order = RetainedOrder::new(2);
        let rows = [[9.0, 5.0], [8.0, 7.0], [7.0, 6.0], [7.0, 4.0]];
        for (row, w) in rows.iter().enumerate() {
            order.update(row, w);
        }
        let mut candidates = vec![99];
        order.candidates_into(&mut candidates);
        assert_eq!(candidates, vec![0, 1, 2]); // Figure 11
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        RetainedOrder::new(1).update(0, &[f64::NAN]);
    }
}
