//! The expected-revenue matrix and assignment types shared by all winner
//! determination methods.

use crate::heap::HeapUse;
use std::fmt;

/// Sentinel weight marking an advertiser–slot pair that must never be
/// matched (e.g. the advertiser's bid forbids the slot, or the adjusted
/// weight after no-slot normalisation is negative).
pub const EXCLUDED: f64 = f64::NEG_INFINITY;

/// Dense `n × k` matrix of expected revenues: `get(i, j)` is the expected
/// revenue from assigning slot `j` (zero-based) to advertiser `i`.
///
/// This is the paper's Figure 9 "revenue matrix". Entries are finite floats
/// or [`EXCLUDED`]; NaN and `+∞` are rejected at insertion.
///
/// Storage is slot-major (`data[slot * n + adv]`): the solvers' inner loops
/// — the Jonker–Volgenant cost scan, top-k column collection, and the
/// pruning pass — all walk *one slot across every advertiser*, so keeping a
/// slot's weights contiguous turns those scans into linear slice walks (see
/// [`RevenueMatrix::column`]). Logical indexing everywhere else stays
/// `(advertiser, slot)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RevenueMatrix {
    n: usize,
    k: usize,
    data: Vec<f64>,
}

impl RevenueMatrix {
    /// Creates an all-zero matrix for `n` advertisers and `k` slots.
    pub fn zeros(n: usize, k: usize) -> Self {
        assert!(k > 0, "at least one slot is required");
        RevenueMatrix {
            n,
            k,
            data: vec![0.0; n * k],
        }
    }

    /// Builds a matrix from a function of `(advertiser, slot)` indexes.
    pub fn from_fn(n: usize, k: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = RevenueMatrix::zeros(n, k);
        for i in 0..n {
            for j in 0..k {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Builds a matrix from row slices (`rows[i][j]` = advertiser `i`,
    /// slot `j`).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let k = rows.first().map(|r| r.len()).unwrap_or(1).max(1);
        let mut m = RevenueMatrix::zeros(n, k);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), k, "ragged revenue matrix");
            for (j, &w) in row.iter().enumerate() {
                m.set(i, j, w);
            }
        }
        m
    }

    /// Number of advertisers (rows).
    #[inline]
    pub fn num_advertisers(&self) -> usize {
        self.n
    }

    /// Number of slots (columns).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.k
    }

    /// The heap the matrix holds: its cells, spare capacity included.
    pub fn heap_use(&self) -> HeapUse {
        HeapUse::of_vec(&self.data)
    }

    /// The weight of assigning slot `j` to advertiser `i`.
    #[inline]
    pub fn get(&self, adv: usize, slot: usize) -> f64 {
        self.data[slot * self.n + adv]
    }

    /// Sets a weight.
    ///
    /// # Panics
    ///
    /// Panics if the weight is NaN or `+∞` (only finite values and
    /// [`EXCLUDED`] are meaningful revenues).
    #[inline]
    pub fn set(&mut self, adv: usize, slot: usize, weight: f64) {
        assert!(
            weight.is_finite() || weight == EXCLUDED,
            "revenue weights must be finite or EXCLUDED, got {weight}"
        );
        self.data[slot * self.n + adv] = weight;
    }

    /// Iterates `(advertiser, slot, weight)` over all entries, advertiser-
    /// major (the historical row-major order — the network-simplex arc
    /// builder depends on it for deterministic arc numbering).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| (0..self.k).map(move |j| (i, j, self.get(i, j))))
    }

    /// The contiguous column of weights for one slot, indexed by advertiser.
    #[inline]
    pub fn column(&self, slot: usize) -> &[f64] {
        &self.data[slot * self.n..(slot + 1) * self.n]
    }

    /// Reshapes the matrix to `n × k` in place, reusing the existing
    /// allocation when its capacity suffices, and refills every entry from
    /// `f`. This is the zero-realloc counterpart of [`RevenueMatrix::from_fn`]
    /// used by the batched auction pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or if `f` produces NaN / `+∞`.
    pub fn fill_from_fn(&mut self, n: usize, k: usize, mut f: impl FnMut(usize, usize) -> f64) {
        self.reshape(n, k);
        // `f` is still called advertiser-major (i outer, j inner) so that
        // stateful closures observe the same call order as `from_fn`.
        for i in 0..n {
            for j in 0..k {
                let weight = f(i, j);
                assert!(
                    weight.is_finite() || weight == EXCLUDED,
                    "revenue weights must be finite or EXCLUDED, got {weight}"
                );
                self.data[j * n + i] = weight;
            }
        }
    }

    /// Reshapes the matrix to `n × k` in place, every weight zero, reusing
    /// the existing allocation when its capacity suffices. For weights that
    /// arrive a row at a time ([`RevenueMatrix::set_row`]), which slot-major
    /// storage cannot lend out as slices.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reshape(&mut self, n: usize, k: usize) {
        assert!(k > 0, "at least one slot is required");
        self.n = n;
        self.k = k;
        self.data.clear();
        self.data.resize(n * k, 0.0);
    }

    /// Sets one advertiser's weights for every slot.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not one weight per slot, or on NaN / `+∞`.
    pub fn set_row(&mut self, adv: usize, weights: &[f64]) {
        assert_eq!(weights.len(), self.k, "one weight per slot");
        for (slot, &weight) in weights.iter().enumerate() {
            self.set(adv, slot, weight);
        }
    }

    /// Extracts the sub-matrix restricted to the given advertisers (in the
    /// given order). Used by the reduced-graph method.
    pub fn restrict_advertisers(&self, advertisers: &[usize]) -> RevenueMatrix {
        let mut m = RevenueMatrix::zeros(advertisers.len(), self.k);
        self.restrict_advertisers_into(advertisers, &mut m);
        m
    }

    /// In-place variant of [`RevenueMatrix::restrict_advertisers`]: reshapes
    /// `out` and fills it with the selected rows without allocating (beyond
    /// growing `out`'s capacity on first use).
    pub fn restrict_advertisers_into(&self, advertisers: &[usize], out: &mut RevenueMatrix) {
        out.fill_from_fn(advertisers.len(), self.k, |new_i, j| {
            self.get(advertisers[new_i], j)
        });
    }
}

impl fmt::Display for RevenueMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.k {
                let w = self.get(i, j);
                if w == EXCLUDED {
                    write!(f, "{:>8}", "×")?;
                } else {
                    write!(f, "{w:>8.2}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A slot-to-advertiser assignment together with its total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `slot_to_adv[j]` is the advertiser assigned to slot `j`, if any.
    pub slot_to_adv: Vec<Option<usize>>,
    /// Sum of matrix weights over assigned pairs.
    pub total_weight: f64,
}

impl Default for Assignment {
    /// An empty assignment over zero slots; allocates nothing, so scratch
    /// buffers can be `std::mem::take`n and restored for free.
    fn default() -> Self {
        Assignment {
            slot_to_adv: Vec::new(),
            total_weight: 0.0,
        }
    }
}

impl Assignment {
    /// An empty assignment over `k` slots.
    pub fn empty(k: usize) -> Self {
        Assignment {
            slot_to_adv: vec![None; k],
            total_weight: 0.0,
        }
    }

    /// Clears the assignment and resizes it to `k` slots in place, reusing
    /// the existing allocation. Solvers call this before writing a result.
    pub fn reset(&mut self, k: usize) {
        self.slot_to_adv.clear();
        self.slot_to_adv.resize(k, None);
        self.total_weight = 0.0;
    }

    /// Inverts into an advertiser-to-slot map over `n` advertisers.
    pub fn adv_to_slot(&self, n: usize) -> Vec<Option<usize>> {
        let mut out = vec![None; n];
        for (j, adv) in self.slot_to_adv.iter().enumerate() {
            if let Some(i) = adv {
                debug_assert!(out[*i].is_none(), "advertiser in two slots");
                out[*i] = Some(j);
            }
        }
        out
    }

    /// Number of filled slots.
    pub fn num_assigned(&self) -> usize {
        self.slot_to_adv.iter().flatten().count()
    }

    /// Recomputes the total weight from a matrix; used to cross-check
    /// solver bookkeeping in tests.
    pub fn weight_in(&self, matrix: &RevenueMatrix) -> f64 {
        self.slot_to_adv
            .iter()
            .enumerate()
            .filter_map(|(j, adv)| adv.map(|i| matrix.get(i, j)))
            .sum()
    }

    /// Checks structural validity: each advertiser at most once, indices in
    /// range.
    pub fn is_valid(&self, n: usize) -> bool {
        let mut seen = vec![false; n];
        for adv in self.slot_to_adv.iter().flatten() {
            if *adv >= n || seen[*adv] {
                return false;
            }
            seen[*adv] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = RevenueMatrix::from_rows(&[vec![9.0, 5.0], vec![8.0, 7.0]]);
        assert_eq!(m.num_advertisers(), 2);
        assert_eq!(m.num_slots(), 2);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.column(0), &[9.0, 8.0]);
        assert_eq!(m.column(1), &[5.0, 7.0]);
        assert_eq!(m.iter().count(), 4);
        // `iter` yields advertiser-major order regardless of storage layout.
        let order: Vec<(usize, usize)> = m.iter().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn from_fn_matches_manual() {
        let m = RevenueMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(2, 1), 21.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let mut m = RevenueMatrix::zeros(1, 1);
        m.set(0, 0, f64::NAN);
    }

    #[test]
    fn excluded_allowed_and_displayed() {
        let mut m = RevenueMatrix::zeros(1, 2);
        m.set(0, 0, EXCLUDED);
        assert_eq!(m.get(0, 0), EXCLUDED);
        assert!(m.to_string().contains('×'));
    }

    #[test]
    fn restriction() {
        let m = RevenueMatrix::from_rows(&[vec![9.0, 5.0], vec![8.0, 7.0], vec![7.0, 6.0]]);
        let r = m.restrict_advertisers(&[2, 0]);
        assert_eq!(r.num_advertisers(), 2);
        assert_eq!(r.get(0, 0), 7.0);
        assert_eq!(r.get(1, 1), 5.0);
    }

    #[test]
    fn assignment_helpers() {
        let a = Assignment {
            slot_to_adv: vec![Some(2), None, Some(0)],
            total_weight: 0.0,
        };
        assert_eq!(a.num_assigned(), 2);
        assert_eq!(a.adv_to_slot(3), vec![Some(2), None, Some(0)]);
        assert!(a.is_valid(3));
        let bad = Assignment {
            slot_to_adv: vec![Some(1), Some(1)],
            total_weight: 0.0,
        };
        assert!(!bad.is_valid(2));
    }

    #[test]
    fn fill_from_fn_reshapes_without_losing_validation() {
        let mut m = RevenueMatrix::zeros(1, 1);
        m.fill_from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.num_advertisers(), 3);
        assert_eq!(m.num_slots(), 2);
        assert_eq!(m.get(2, 1), 21.0);
        // Shrinking reuses the allocation.
        let cap_before = m.data.capacity();
        m.fill_from_fn(2, 2, |_, _| 1.0);
        assert_eq!(m.data.capacity(), cap_before);
        assert_eq!(m.num_advertisers(), 2);
    }

    #[test]
    fn reshape_and_set_row_fill_a_row_at_a_time() {
        let mut m = RevenueMatrix::from_rows(&[vec![9.0, 5.0]]);
        m.reshape(2, 3);
        assert_eq!(m, RevenueMatrix::zeros(2, 3));
        m.set_row(1, &[1.0, EXCLUDED, -0.5]);
        assert_eq!(m.column(1), &[0.0, EXCLUDED]);
        assert_eq!(m.get(1, 2), -0.5);
    }

    #[test]
    #[should_panic(expected = "one weight per slot")]
    fn set_row_checks_the_row_length() {
        RevenueMatrix::zeros(1, 2).set_row(0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn fill_from_fn_rejects_nan() {
        let mut m = RevenueMatrix::zeros(1, 1);
        m.fill_from_fn(1, 1, |_, _| f64::NAN);
    }

    #[test]
    fn restrict_into_matches_owned_restrict() {
        let m = RevenueMatrix::from_rows(&[vec![9.0, 5.0], vec![8.0, 7.0], vec![7.0, 6.0]]);
        let owned = m.restrict_advertisers(&[2, 0]);
        let mut out = RevenueMatrix::zeros(0, 1);
        m.restrict_advertisers_into(&[2, 0], &mut out);
        assert_eq!(out, owned);
    }

    #[test]
    fn assignment_reset_reuses_buffer() {
        let mut a = Assignment {
            slot_to_adv: vec![Some(2), None, Some(0)],
            total_weight: 9.0,
        };
        a.reset(2);
        assert_eq!(a.slot_to_adv, vec![None, None]);
        assert_eq!(a.total_weight, 0.0);
        assert_eq!(Assignment::default().slot_to_adv.capacity(), 0);
    }

    #[test]
    fn weight_recompute() {
        let m = RevenueMatrix::from_rows(&[vec![9.0, 5.0], vec![8.0, 7.0]]);
        let a = Assignment {
            slot_to_adv: vec![Some(0), Some(1)],
            total_weight: 16.0,
        };
        assert_eq!(a.weight_in(&m), 16.0);
    }
}
