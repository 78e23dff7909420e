//! The threshold algorithm of Fagin, Lotem & Naor, as used in Section IV-A.
//!
//! Setting: each advertiser's bid for a slot is a **monotone** function
//! `f(x₁, …, x_m)` of per-advertiser parameters, and for every parameter we
//! maintain a list of advertisers sorted by that parameter. The threshold
//! algorithm (TA) finds the top-k advertisers by aggregate score while
//! reading only a prefix of each sorted list — it is *instance optimal*
//! among algorithms that avoid wild guesses.
//!
//! The driver [`threshold_top_k`] works over any [`TaSource`];
//! [`MaintainedIndex`] is the incrementally-updatable sorted list
//! (`O(log n)` repositioning) the engine uses to keep the lists current when
//! winning programs change their parameters (Section IV-A's
//! "update their positions in the sorted lists").

use crate::ordered::OrderedF64;
use crate::topk::TopK;
use std::collections::BTreeSet;

/// Abstraction over the sorted parameter lists the TA reads.
///
/// Objects are dense ids `0..num_objects()`. Lists are sorted **descending**
/// by value; `random_access(list, obj)` returns the value object `obj` has
/// in `list`.
pub trait TaSource {
    /// Number of sorted lists (parameters).
    fn num_lists(&self) -> usize;
    /// Number of objects.
    fn num_objects(&self) -> usize;
    /// Descending iterator over `(object, value)` of one list.
    fn sorted_iter(&self, list: usize) -> Box<dyn Iterator<Item = (usize, f64)> + '_>;
    /// The value of `object` in `list`.
    fn random_access(&self, list: usize, object: usize) -> f64;
}

/// Access counts reported by [`threshold_top_k`]; the whole point of the TA
/// is that `sorted_accesses ≪ num_lists · num_objects` on favourable inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaInstrumentation {
    /// Entries read by sequential (sorted) access.
    pub sorted_accesses: usize,
    /// Values fetched by random access.
    pub random_accesses: usize,
    /// Distinct objects fully scored.
    pub objects_scored: usize,
    /// Number of parallel rounds (depth reached in every list).
    pub depth: usize,
}

/// Runs the threshold algorithm: returns the `k` objects with the largest
/// `agg(values…)` scores (descending), plus instrumentation.
///
/// `agg` must be monotone in every argument — this is the Section IV-A
/// requirement on the bid functions `f_j` and is what makes the stopping
/// threshold sound.
pub fn threshold_top_k<S: TaSource + ?Sized>(
    source: &S,
    agg: &dyn Fn(&[f64]) -> f64,
    k: usize,
) -> (Vec<(usize, f64)>, TaInstrumentation) {
    let lists = source.num_lists();
    let n = source.num_objects();
    let mut instr = TaInstrumentation::default();
    if k == 0 || lists == 0 || n == 0 {
        return (Vec::new(), instr);
    }

    let mut iters: Vec<_> = (0..lists).map(|l| source.sorted_iter(l)).collect();
    let mut last_seen: Vec<Option<f64>> = vec![None; lists];
    let mut seen = vec![false; n];
    let mut top = TopK::new(k);
    let mut scratch = vec![0.0f64; lists];

    loop {
        let mut any_progress = false;
        for (l, iter) in iters.iter_mut().enumerate() {
            let Some((obj, val)) = iter.next() else {
                continue;
            };
            any_progress = true;
            instr.sorted_accesses += 1;
            last_seen[l] = Some(val);
            if !seen[obj] {
                seen[obj] = true;
                for (l2, slot) in scratch.iter_mut().enumerate() {
                    if l2 == l {
                        *slot = val;
                    } else {
                        *slot = source.random_access(l2, obj);
                        instr.random_accesses += 1;
                    }
                }
                instr.objects_scored += 1;
                top.offer(obj, agg(&scratch));
            }
        }
        if !any_progress {
            break; // every list exhausted
        }
        instr.depth += 1;
        // Threshold: the best score any unseen object could still achieve.
        if last_seen.iter().all(Option::is_some) {
            for (slot, v) in scratch.iter_mut().zip(last_seen.iter().flatten()) {
                *slot = *v;
            }
            let tau = agg(&scratch);
            if let Some(floor) = top.current_floor() {
                if floor >= tau {
                    break;
                }
            }
        }
    }
    (top.into_sorted_desc(), instr)
}

/// A sorted parameter list with `O(log n)` incremental updates.
///
/// Backed by a `BTreeSet<(value, object)>` plus a dense value array for
/// random access. This is the structure Section IV-A maintains per
/// advertiser-specific parameter: after the k winners of an auction update
/// their parameters, repositioning costs `O(|Y| k log n)` overall.
#[derive(Debug, Clone)]
pub struct MaintainedIndex {
    values: Vec<f64>,
    sorted: BTreeSet<(OrderedF64, usize)>,
}

impl MaintainedIndex {
    /// Builds an index over the given per-object values.
    pub fn new(values: Vec<f64>) -> Self {
        let sorted = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (OrderedF64::new(v), i))
            .collect();
        MaintainedIndex { values, sorted }
    }

    /// Number of objects in the index.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current value of an object.
    pub fn value(&self, object: usize) -> f64 {
        self.values[object]
    }

    /// Updates an object's value, repositioning it in `O(log n)`.
    pub fn update(&mut self, object: usize, new_value: f64) {
        let old = self.values[object];
        let removed = self.sorted.remove(&(OrderedF64::new(old), object));
        debug_assert!(removed, "index out of sync");
        self.values[object] = new_value;
        self.sorted.insert((OrderedF64::new(new_value), object));
    }

    /// Descending `(object, value)` iterator.
    pub fn iter_desc(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.sorted.iter().rev().map(|&(v, o)| (o, v.get()))
    }
}

/// A [`TaSource`] over a set of [`MaintainedIndex`]es (one per parameter).
pub struct IndexedSource<'a> {
    lists: Vec<&'a MaintainedIndex>,
}

impl<'a> IndexedSource<'a> {
    /// Builds a source from per-parameter indexes.
    ///
    /// # Panics
    ///
    /// Panics if the indexes disagree on the number of objects or no index
    /// is supplied.
    pub fn new(lists: Vec<&'a MaintainedIndex>) -> Self {
        assert!(!lists.is_empty(), "at least one list required");
        let n = lists[0].len();
        assert!(
            lists.iter().all(|l| l.len() == n),
            "all lists must cover the same objects"
        );
        IndexedSource { lists }
    }
}

impl TaSource for IndexedSource<'_> {
    fn num_lists(&self) -> usize {
        self.lists.len()
    }
    fn num_objects(&self) -> usize {
        self.lists[0].len()
    }
    fn sorted_iter(&self, list: usize) -> Box<dyn Iterator<Item = (usize, f64)> + '_> {
        Box::new(self.lists[list].iter_desc())
    }
    fn random_access(&self, list: usize, object: usize) -> f64 {
        self.lists[list].value(object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: score everything, sort, truncate.
    fn full_scan(lists: &[Vec<f64>], agg: &dyn Fn(&[f64]) -> f64, k: usize) -> Vec<(usize, f64)> {
        let n = lists[0].len();
        let mut scored: Vec<(usize, f64)> = (0..n)
            .map(|o| {
                let vals: Vec<f64> = lists.iter().map(|l| l[o]).collect();
                (o, agg(&vals))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    fn indexes(lists: &[Vec<f64>]) -> Vec<MaintainedIndex> {
        lists
            .iter()
            .map(|l| MaintainedIndex::new(l.clone()))
            .collect()
    }

    #[test]
    fn finds_exact_top_k_sum() {
        let lists = vec![vec![5.0, 1.0, 3.0, 9.0, 2.0], vec![2.0, 8.0, 3.0, 1.0, 7.0]];
        let idx = indexes(&lists);
        let source = IndexedSource::new(idx.iter().collect());
        let agg = |v: &[f64]| v.iter().sum::<f64>();
        let (got, instr) = threshold_top_k(&source, &agg, 2);
        assert_eq!(got, full_scan(&lists, &agg, 2));
        assert!(instr.sorted_accesses > 0);
    }

    #[test]
    fn early_termination_on_skewed_lists() {
        // One object dominates both lists: TA must stop after depth ~2,
        // far before scanning all n objects.
        let n = 1000;
        let mut a: Vec<f64> = (0..n).map(|i| i as f64 / 1000.0).collect();
        let mut b = a.clone();
        a[500] = 100.0;
        b[500] = 100.0;
        let lists = vec![a, b];
        let idx = indexes(&lists);
        let source = IndexedSource::new(idx.iter().collect());
        let agg = |v: &[f64]| v.iter().sum::<f64>();
        let (got, instr) = threshold_top_k(&source, &agg, 1);
        assert_eq!(got[0].0, 500);
        assert!(
            instr.sorted_accesses < 20,
            "TA should stop early, made {} accesses",
            instr.sorted_accesses
        );
    }

    #[test]
    fn product_aggregation() {
        // The engine's actual shape: weight × monotone bid function.
        let lists = vec![vec![0.5, 0.9, 0.1, 0.7], vec![10.0, 2.0, 50.0, 8.0]];
        let idx = indexes(&lists);
        let source = IndexedSource::new(idx.iter().collect());
        let agg = |v: &[f64]| v[0] * v[1];
        let (got, _) = threshold_top_k(&source, &agg, 4);
        assert_eq!(got, full_scan(&lists, &agg, 4));
    }

    #[test]
    fn k_larger_than_n() {
        let lists = vec![vec![1.0, 2.0]];
        let idx = indexes(&lists);
        let source = IndexedSource::new(idx.iter().collect());
        let agg = |v: &[f64]| v[0];
        let (got, _) = threshold_top_k(&source, &agg, 10);
        assert_eq!(got, vec![(1, 2.0), (0, 1.0)]);
    }

    #[test]
    fn zero_k_and_empty() {
        let lists = vec![vec![1.0]];
        let idx = indexes(&lists);
        let source = IndexedSource::new(idx.iter().collect());
        let agg = |v: &[f64]| v[0];
        let (got, instr) = threshold_top_k(&source, &agg, 0);
        assert!(got.is_empty());
        assert_eq!(instr.sorted_accesses, 0);
    }

    #[test]
    fn maintained_index_updates() {
        let mut idx = MaintainedIndex::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(
            idx.iter_desc().collect::<Vec<_>>(),
            vec![(0, 3.0), (2, 2.0), (1, 1.0)]
        );
        idx.update(1, 10.0);
        assert_eq!(idx.value(1), 10.0);
        assert_eq!(idx.iter_desc().next(), Some((1, 10.0)));
        idx.update(1, 0.5);
        assert_eq!(idx.iter_desc().last(), Some((1, 0.5)));
    }

    #[test]
    fn ta_consistent_after_updates() {
        let mut w = MaintainedIndex::new(vec![0.1, 0.2, 0.3, 0.4]);
        let mut bid = MaintainedIndex::new(vec![10.0, 10.0, 10.0, 10.0]);
        let agg = |v: &[f64]| v[0] * v[1];
        // Initially object 3 wins.
        {
            let source = IndexedSource::new(vec![&w, &bid]);
            let (got, _) = threshold_top_k(&source, &agg, 1);
            assert_eq!(got[0].0, 3);
        }
        // The winner's bid is slashed; object 2 should take over.
        bid.update(3, 1.0);
        w.update(0, 0.15);
        {
            let source = IndexedSource::new(vec![&w, &bid]);
            let (got, _) = threshold_top_k(&source, &agg, 1);
            assert_eq!(got[0].0, 2);
        }
    }

    #[test]
    #[should_panic(expected = "same objects")]
    fn mismatched_lists_rejected() {
        let a = MaintainedIndex::new(vec![1.0]);
        let b = MaintainedIndex::new(vec![1.0, 2.0]);
        let _ = IndexedSource::new(vec![&a, &b]);
    }
}
