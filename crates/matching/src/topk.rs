//! Bounded top-k selection with binary heaps.
//!
//! Section III-E: "for each slot, we can find the top k bidders for that
//! slot in time O(k + n log k) by maintaining a priority heap of size at
//! most k". [`TopK`] is that heap; [`top_k_indices`] applies it to every
//! column of a revenue matrix.

use crate::heap::HeapUse;
use crate::matrix::{RevenueMatrix, EXCLUDED};
use crate::ordered::OrderedF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A fixed-capacity collector retaining the `k` largest `(weight, id)`
/// entries seen so far. Ties are broken towards smaller ids (deterministic).
#[derive(Debug, Clone)]
pub struct TopK {
    capacity: usize,
    // Min-heap of the current top entries; `Reverse` flips `BinaryHeap`'s
    // max-heap order. Keyed on (weight, Reverse(id)) so that among equal
    // weights the *larger* id is evicted first.
    heap: BinaryHeap<Reverse<(OrderedF64, Reverse<usize>)>>,
}

impl TopK {
    /// Creates a collector for the `k` largest entries.
    pub fn new(k: usize) -> Self {
        TopK {
            capacity: k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The heap the collector holds.
    pub(crate) fn heap_use(&self) -> HeapUse {
        let size = std::mem::size_of::<Reverse<(OrderedF64, Reverse<usize>)>>();
        HeapUse {
            in_use: self.heap.len() * size,
            reserved: self.heap.capacity() * size,
            allocations: usize::from(self.heap.capacity() > 0),
        }
    }

    /// Offers an entry. [`EXCLUDED`] weights are ignored.
    ///
    /// `O(log k)` when the entry is admitted, `O(1)` when it is rejected.
    pub fn offer(&mut self, id: usize, weight: f64) {
        if self.capacity == 0 || weight == EXCLUDED {
            return;
        }
        let key = Reverse((OrderedF64::new(weight), Reverse(id)));
        if self.heap.len() < self.capacity {
            self.heap.push(key);
        } else if let Some(&Reverse(min)) = self.heap.peek() {
            if (OrderedF64::new(weight), Reverse(id)) > min {
                self.heap.pop();
                self.heap.push(key);
            }
        }
    }

    /// Offers `(index, weight)` for every entry of `weights` — one column
    /// of a revenue matrix. The retained set is exactly what calling
    /// [`TopK::offer`] on each entry in order would leave (the `k` largest
    /// keys do not depend on the order they were offered in); only the
    /// route there is shorter. `likely` — strictly ascending, typically the
    /// previous solve's candidates — is offered first, so the floor starts
    /// high and the scan of the rest rejects nearly every weight with one
    /// float compare instead of churning the heap as the floor creeps up.
    pub fn offer_column(&mut self, weights: &[f64], likely: &[usize]) {
        // The scan below skips what was offered here by binary search.
        debug_assert!(likely.windows(2).all(|pair| pair[0] < pair[1]));
        for &id in likely {
            if let Some(&weight) = weights.get(id) {
                self.offer(id, weight);
            }
        }
        // Nothing is below -inf, so until the collector fills every weight
        // goes through `offer`.
        let mut floor = self.current_floor().unwrap_or(f64::NEG_INFINITY);
        for (id, &weight) in weights.iter().enumerate() {
            // Numerically below the floor implies below it in the heap's
            // total order: never admitted, whatever its id.
            if weight < floor || likely.binary_search(&id).is_ok() {
                continue;
            }
            self.offer(id, weight);
            floor = self.current_floor().unwrap_or(f64::NEG_INFINITY);
        }
    }

    /// Re-arms the collector for a fresh pass retaining the `k` largest
    /// entries, keeping the heap's allocation. Used by the reusable solvers
    /// to avoid per-auction heap construction.
    pub fn reset(&mut self, k: usize) {
        self.capacity = k;
        self.heap.clear();
    }

    /// Drains the retained ids into `out` in unspecified order, leaving the
    /// collector empty but with its allocation intact.
    pub fn drain_ids_into(&mut self, out: &mut Vec<usize>) {
        out.extend(self.heap.drain().map(|Reverse((_, Reverse(id)))| id));
    }

    /// The smallest retained weight, if the collector is full.
    pub fn current_floor(&self) -> Option<f64> {
        if self.heap.len() < self.capacity {
            None
        } else {
            self.heap.peek().map(|Reverse((w, _))| w.get())
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the collector, returning `(id, weight)` pairs sorted by
    /// descending weight (ties: ascending id).
    pub fn into_sorted_desc(self) -> Vec<(usize, f64)> {
        let mut entries: Vec<(usize, f64)> = self
            .heap
            .into_iter()
            .map(|Reverse((w, Reverse(id)))| (id, w.get()))
            .collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries
    }
}

/// For each slot (column), the ids of the advertisers with the top-k weights
/// in that column, sorted by descending weight. `k` defaults to the number
/// of slots, which is what the reduced-graph method needs.
pub fn top_k_indices(matrix: &RevenueMatrix, k: usize) -> Vec<Vec<(usize, f64)>> {
    let slots = matrix.num_slots();
    let mut collectors: Vec<TopK> = (0..slots).map(|_| TopK::new(k)).collect();
    for (slot, collector) in collectors.iter_mut().enumerate() {
        for (adv, &w) in matrix.column(slot).iter().enumerate() {
            collector.offer(adv, w);
        }
    }
    collectors.into_iter().map(TopK::into_sorted_desc).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_largest() {
        let mut t = TopK::new(2);
        for (id, w) in [(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0)] {
            t.offer(id, w);
        }
        assert_eq!(t.into_sorted_desc(), vec![(1, 5.0), (3, 4.0)]);
    }

    #[test]
    fn ties_prefer_smaller_ids() {
        let mut t = TopK::new(2);
        for id in 0..5 {
            t.offer(id, 7.0);
        }
        assert_eq!(t.into_sorted_desc(), vec![(0, 7.0), (1, 7.0)]);
    }

    /// `offer_column` is a faster route to the same retained set as
    /// offering every entry in order — whatever ids it is told are likely,
    /// with ties (which break towards smaller ids), excluded entries and
    /// signed zeros in the column.
    #[test]
    fn offer_column_matches_offering_in_order() {
        let values = [3.0, 0.0, -0.0, 7.5, EXCLUDED, 3.0, -2.0, 7.5, 1.0];
        // A fixed multiplicative walk over `values`: long columns full of
        // ties, no RNG needed.
        let column = |len: usize, salt: usize| -> Vec<f64> {
            (0..len)
                .map(|i| values[(i * 7 + salt * 5 + i / 3) % values.len()])
                .collect()
        };
        for len in [0, 1, 4, 9, 40] {
            for salt in 0..6 {
                let weights = column(len, salt);
                for k in [0, 1, 3, 8] {
                    let mut in_order = TopK::new(k);
                    for (id, &w) in weights.iter().enumerate() {
                        in_order.offer(id, w);
                    }
                    let expected = in_order.into_sorted_desc();
                    let hints: [&[usize]; 4] = [&[], &[0, 2, 5], &[3, 7, 38, 39, 400], &[1, 4, 6]];
                    for likely in hints {
                        let mut seeded = TopK::new(k);
                        seeded.offer_column(&weights, likely);
                        assert_eq!(
                            seeded.into_sorted_desc(),
                            expected,
                            "len {len} salt {salt} k {k} likely {likely:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ignores_excluded_and_zero_capacity() {
        let mut t = TopK::new(2);
        t.offer(0, EXCLUDED);
        assert!(t.is_empty());
        let mut z = TopK::new(0);
        z.offer(0, 1.0);
        assert_eq!(z.len(), 0);
    }

    #[test]
    fn reset_and_drain_reuse() {
        let mut t = TopK::new(2);
        t.offer(0, 1.0);
        t.offer(1, 5.0);
        t.offer(2, 3.0);
        let mut ids = Vec::new();
        t.drain_ids_into(&mut ids);
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        assert!(t.is_empty());
        t.reset(1);
        t.offer(3, 2.0);
        t.offer(4, 9.0);
        assert_eq!(t.into_sorted_desc(), vec![(4, 9.0)]);
    }

    #[test]
    fn floor_only_when_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.current_floor(), None);
        t.offer(0, 3.0);
        assert_eq!(t.current_floor(), None);
        t.offer(1, 5.0);
        assert_eq!(t.current_floor(), Some(3.0));
        t.offer(2, 4.0);
        assert_eq!(t.current_floor(), Some(4.0));
    }

    #[test]
    fn per_slot_selection_matches_figure10() {
        // Figure 9/10: top-2 for slot 1 are Nike(0) and Adidas(1); for
        // slot 2, Adidas(1) and Reebok(2).
        let m = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0],
            vec![8.0, 7.0],
            vec![7.0, 6.0],
            vec![7.0, 4.0],
        ]);
        let tops = top_k_indices(&m, 2);
        let ids: Vec<Vec<usize>> = tops
            .iter()
            .map(|l| l.iter().map(|(id, _)| *id).collect())
            .collect();
        assert_eq!(ids, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn fewer_advertisers_than_k() {
        let m = RevenueMatrix::from_rows(&[vec![2.0], vec![1.0]]);
        let tops = top_k_indices(&m, 5);
        assert_eq!(tops[0].len(), 2);
    }

    #[test]
    fn negative_weights_still_ranked() {
        let m = RevenueMatrix::from_rows(&[vec![-1.0], vec![-3.0], vec![2.0]]);
        let tops = top_k_indices(&m, 2);
        assert_eq!(tops[0], vec![(2, 2.0), (0, -1.0)]);
    }
}
