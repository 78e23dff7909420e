//! Outcome probability models (Section III-A).
//!
//! The paper's first-order approximation: "the probability that a given
//! advertiser gets a click depends only on the slot allocated to him, and
//! … the probability that he gets a purchase depends only on whether he got
//! a click and on the slot allocated to him."
//!
//! [`ClickModel`] stores the full `n × k` click-probability matrix — the
//! general (possibly non-separable, Figure 7) case. [`SeparableClickModel`]
//! is the restricted product form (Figure 8) used by current auction
//! platforms; it converts into a `ClickModel` and additionally supports the
//! sort-based allocation that is only correct under separability.
//!
//! Both models grow one advertiser at a time ([`ClickModel::push_row`],
//! [`PurchaseModel::push_row`]), so a new advertiser appends a row instead
//! of rebuilding the model. A click row is an `Arc<[f64]>`: the model
//! holds a pointer, and whoever pushes a row it already holds — the
//! marketplace does, for an advertiser's campaigns on every keyword —
//! stores its probabilities once for all of them. A row nobody shares
//! costs its 16-byte pointer and its allocation's 16-byte header on top of
//! its `k` entries. An advertiser that never purchases — the pure
//! click-auction setting — costs [`PurchaseModel`] no per-slot storage at
//! all, and while nobody in the model purchases, no entry of a row index
//! either.

use crate::footprint::{Accountant, Component, HeapUse};
use ssa_bidlang::SlotId;
use std::sync::Arc;

/// Enters a click row in `ledger` unless an earlier holder did.
pub(crate) fn account_click_row(ledger: &mut Accountant, row: &Arc<[f64]>) {
    ledger.add_shared(Component::ClickRows, row, |_| HeapUse::default());
}

/// Per-advertiser, per-slot click probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickModel {
    k: usize,
    /// One row per advertiser, each possibly shared with other models.
    rows: Vec<Arc<[f64]>>,
}

/// A click row as [`ClickModel::push_row`] takes it: an `Arc<[f64]>` is
/// kept as it is (shared with whoever else holds it), a borrowed slice is
/// copied into a row of its own.
pub trait IntoClickRow {
    /// The row as the model stores it.
    fn into_click_row(self) -> Arc<[f64]>;
}

impl IntoClickRow for Arc<[f64]> {
    fn into_click_row(self) -> Arc<[f64]> {
        self
    }
}

impl IntoClickRow for &[f64] {
    fn into_click_row(self) -> Arc<[f64]> {
        Arc::from(self)
    }
}

impl IntoClickRow for &Vec<f64> {
    fn into_click_row(self) -> Arc<[f64]> {
        Arc::from(self.as_slice())
    }
}

impl<const K: usize> IntoClickRow for &[f64; K] {
    fn into_click_row(self) -> Arc<[f64]> {
        Arc::from(self.as_slice())
    }
}

impl ClickModel {
    /// A model over `k` slots with no advertisers yet; grow it with
    /// [`ClickModel::push_row`].
    pub fn empty(k: usize) -> Self {
        ClickModel {
            k,
            rows: Vec::new(),
        }
    }

    /// Builds a model from a function of `(advertiser, slot)` indexes.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn from_fn(n: usize, k: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut model = ClickModel::empty(k);
        model.rows.reserve_exact(n);
        for i in 0..n {
            model.push_row((0..k).map(|j| f(i, j)).collect::<Arc<[f64]>>());
        }
        model
    }

    /// Appends the next advertiser's per-slot click probabilities. A
    /// shared row is stored as the same allocation, not copied.
    ///
    /// # Panics
    ///
    /// Panics if the row does not have one entry per slot or any
    /// probability is outside `[0, 1]`.
    pub fn push_row(&mut self, row: impl IntoClickRow) {
        let row = row.into_click_row();
        assert_eq!(row.len(), self.k, "click row must cover every slot");
        for (j, &v) in row.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&v),
                "p_click({},{j}) = {v} out of range",
                self.rows.len()
            );
        }
        self.rows.push(row);
    }

    /// Enters the model's row pointers and, each once, its rows.
    pub(crate) fn account(&self, ledger: &mut Accountant) {
        ledger.add(Component::ClickRowPointers, HeapUse::of_vec(&self.rows));
        for row in &self.rows {
            account_click_row(ledger, row);
        }
    }

    /// Builds a model from explicit rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let k = rows.first().map(|r| r.len()).unwrap_or(0);
        ClickModel::from_fn(n, k, |i, j| rows[i][j])
    }

    /// Number of advertisers.
    pub fn num_advertisers(&self) -> usize {
        self.rows.len()
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.k
    }

    /// P(click | advertiser `i` in slot `j`). An unplaced ad is never
    /// clicked.
    #[inline]
    pub fn p_click(&self, adv: usize, slot: SlotId) -> f64 {
        self.rows[adv][slot.index0()]
    }

    /// Raw row access for hot loops.
    #[inline]
    pub fn row(&self, adv: usize) -> &[f64] {
        &self.rows[adv]
    }

    /// Checks the separability condition: the matrix factors into
    /// advertiser-specific × slot-specific terms (within `tol`).
    ///
    /// Separability ⇔ the matrix has rank at most one. With a pivot
    /// `p[r][c] ≠ 0` that is every 2×2 minor through the pivot:
    /// `p[i][j] · p[r][c] = p[i][c] · p[r][j]`. The pivot is the entry of
    /// largest magnitude, so a row or column of zeros is never the one
    /// everything is compared against.
    pub fn is_separable(&self, tol: f64) -> bool {
        if self.rows.len() < 2 || self.k < 2 {
            return true;
        }
        let (mut r, mut c, mut p_rc) = (0, 0, 0.0f64);
        for (i, row) in self.rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v.abs() > p_rc.abs() {
                    (r, c, p_rc) = (i, j, v);
                }
            }
        }
        if p_rc == 0.0 {
            return true; // the zero matrix
        }
        self.rows
            .iter()
            .all(|row| (0..self.k).all(|j| (row[j] * p_rc - row[c] * self.rows[r][j]).abs() <= tol))
    }

    /// The paper's Figure 7 non-separable example (Nike/Adidas × 2 slots).
    pub fn figure7() -> Self {
        ClickModel::from_rows(&[vec![0.7, 0.4], vec![0.6, 0.3]])
    }

    /// The paper's Figure 8 separable example.
    pub fn figure8() -> Self {
        ClickModel::from_rows(&[vec![0.8, 0.4], vec![0.6, 0.3]])
    }
}

/// A separable click model: `p(i, j) = advertiser_factor[i] ·
/// slot_factor[j]` (Section III-C).
#[derive(Debug, Clone, PartialEq)]
pub struct SeparableClickModel {
    /// Advertiser-specific factors.
    pub advertiser_factors: Vec<f64>,
    /// Slot-specific factors.
    pub slot_factors: Vec<f64>,
}

impl SeparableClickModel {
    /// Creates a model, checking that every product is a probability.
    pub fn new(advertiser_factors: Vec<f64>, slot_factors: Vec<f64>) -> Self {
        for (i, a) in advertiser_factors.iter().enumerate() {
            for (j, s) in slot_factors.iter().enumerate() {
                let p = a * s;
                assert!((0.0..=1.0).contains(&p), "p({i},{j}) = {p} out of range");
            }
        }
        SeparableClickModel {
            advertiser_factors,
            slot_factors,
        }
    }

    /// Expands into the general matrix form.
    pub fn to_click_model(&self) -> ClickModel {
        ClickModel::from_fn(
            self.advertiser_factors.len(),
            self.slot_factors.len(),
            |i, j| self.advertiser_factors[i] * self.slot_factors[j],
        )
    }

    /// The `O(n log k)` sort-based allocation that is correct **only under
    /// separability** (Section III-C): the advertiser with the j-th highest
    /// `advertiser_factor × per_click_value` gets the slot with the j-th
    /// highest slot factor.
    ///
    /// Returns `slot_to_adv` ordered by descending slot factor rank.
    pub fn sort_allocation(&self, per_click_value: &[f64]) -> Vec<Option<usize>> {
        assert_eq!(per_click_value.len(), self.advertiser_factors.len());
        let k = self.slot_factors.len();
        let mut advertisers: Vec<usize> = (0..self.advertiser_factors.len()).collect();
        advertisers.sort_by(|&a, &b| {
            let va = self.advertiser_factors[a] * per_click_value[a];
            let vb = self.advertiser_factors[b] * per_click_value[b];
            vb.total_cmp(&va).then(a.cmp(&b))
        });
        let mut slots: Vec<usize> = (0..k).collect();
        slots.sort_by(|&a, &b| self.slot_factors[b].total_cmp(&self.slot_factors[a]));
        let mut slot_to_adv = vec![None; k];
        for (rank, &slot) in slots.iter().enumerate() {
            if let Some(&adv) = advertisers.get(rank) {
                if self.advertiser_factors[adv] * per_click_value[adv] > 0.0 {
                    slot_to_adv[slot] = Some(adv);
                }
            }
        }
        slot_to_adv
    }
}

/// P(purchase | click?, slot) per advertiser (Section III-A: purchase
/// probability depends on whether the ad was clicked and on the slot).
///
/// Stored sparsely: only advertisers with some non-zero probability own a
/// per-slot row, and the per-advertiser index of those rows exists only
/// once one does. In the pure click-auction setting — every production
/// population so far — the model is two words, whatever the advertiser
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct PurchaseModel {
    k: usize,
    /// Number of advertisers.
    n: usize,
    /// Per advertiser: index of its row in `rows` (in units of `k`), or
    /// [`NEVER`] for an advertiser that never purchases. Empty while no
    /// advertiser purchases; the first one that does writes `NEVER` for
    /// every advertiser before it.
    row_of: Vec<u32>,
    /// `(p | click, p | no click)`, row-major over the stored rows.
    rows: Vec<(f64, f64)>,
}

/// `row_of` marker of an advertiser whose purchase probabilities are all
/// `+0.0`.
const NEVER: u32 = u32::MAX;

impl PurchaseModel {
    /// A model where purchases never happen (the pure click-auction
    /// setting).
    pub fn never(n: usize, k: usize) -> Self {
        PurchaseModel {
            k,
            n,
            row_of: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Builds a model from `(advertiser, slot) → (p | click, p | no click)`.
    pub fn from_fn(n: usize, k: usize, mut f: impl FnMut(usize, usize) -> (f64, f64)) -> Self {
        let mut model = PurchaseModel::never(0, k);
        let mut row = Vec::with_capacity(k);
        for i in 0..n {
            row.clear();
            row.extend((0..k).map(|j| f(i, j)));
            model.push_row(&row);
        }
        model
    }

    /// Appends the next advertiser's per-slot `(p | click, p | no click)`
    /// pairs. A row of nothing but `+0.0` is recorded as "never purchases"
    /// and stores nothing per slot (`-0.0` is kept as written, so
    /// [`PurchaseModel::row`] always returns the bits it was given).
    ///
    /// # Panics
    ///
    /// Panics if the row does not have one entry per slot or any
    /// probability is outside `[0, 1]`.
    pub fn push_row(&mut self, row: &[(f64, f64)]) {
        assert_eq!(row.len(), self.k, "purchase row must cover every slot");
        for &(pc, pn) in row {
            assert!((0.0..=1.0).contains(&pc), "p_purchase|click out of range");
            assert!((0.0..=1.0).contains(&pn), "p_purchase|¬click out of range");
        }
        if row
            .iter()
            .all(|&(pc, pn)| pc.to_bits() == 0 && pn.to_bits() == 0)
        {
            return self.push_never();
        }
        // A row that is not all zeros has an entry, so `k > 0` here.
        let index = u32::try_from(self.rows.len() / self.k).unwrap_or(NEVER);
        assert_ne!(index, NEVER, "more than 2^32 - 2 purchasing advertisers");
        self.row_of.resize(self.n, NEVER);
        self.row_of.push(index);
        self.n += 1;
        self.rows.extend_from_slice(row);
    }

    /// Appends an advertiser that never purchases.
    pub fn push_never(&mut self) {
        if !self.row_of.is_empty() {
            self.row_of.push(NEVER);
        }
        self.n += 1;
    }

    /// Advertiser `adv`'s row as stored; `None` if it never purchases.
    pub(crate) fn stored_row(&self, adv: usize) -> Option<&[(f64, f64)]> {
        debug_assert!(adv < self.n, "advertiser {adv} of {}", self.n);
        match self.row_of.get(adv).copied().unwrap_or(NEVER) {
            NEVER => None,
            index => {
                let start = index as usize * self.k;
                Some(&self.rows[start..start + self.k])
            }
        }
    }

    /// P(purchase | advertiser `i` in slot `j`, clicked?).
    #[inline]
    pub fn p_purchase(&self, adv: usize, slot: SlotId, clicked: bool) -> f64 {
        match self.stored_row(adv) {
            None => 0.0,
            Some(row) => {
                let (given_click, given_no_click) = row[slot.index0()];
                if clicked {
                    given_click
                } else {
                    given_no_click
                }
            }
        }
    }

    /// An advertiser's per-slot `(p | click, p | no click)` pairs exactly
    /// as they were supplied — explicit zeros for one that never purchases.
    pub fn row(&self, adv: usize) -> Vec<(f64, f64)> {
        match self.stored_row(adv) {
            None => vec![(0.0, 0.0); self.k],
            Some(row) => row.to_vec(),
        }
    }

    /// Number of advertisers.
    pub fn num_advertisers(&self) -> usize {
        self.n
    }

    /// Enters the model's row index and rows.
    pub(crate) fn account(&self, ledger: &mut Accountant) {
        ledger.add(Component::PurchaseIndex, HeapUse::of_vec(&self.row_of));
        ledger.add(Component::PurchaseRows, HeapUse::of_vec(&self.rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_is_not_separable_figure8_is() {
        assert!(!ClickModel::figure7().is_separable(1e-9));
        assert!(ClickModel::figure8().is_separable(1e-9));
    }

    #[test]
    fn a_zero_row_or_column_does_not_make_a_model_separable() {
        // Row 0 / column 0 of zeros: every minor through (0, 0) is 0 = 0.
        let zero_row = ClickModel::from_rows(&[vec![0.0, 0.0], vec![0.5, 0.1], vec![0.1, 0.5]]);
        assert!(!zero_row.is_separable(1e-9));
        let zero_column = ClickModel::from_rows(&[vec![0.0, 0.5, 0.1], vec![0.0, 0.2, 0.9]]);
        assert!(!zero_column.is_separable(1e-9));
        // Zeros that do factor still do.
        let factored = ClickModel::from_rows(&[vec![0.0, 0.0], vec![0.4, 0.2], vec![0.2, 0.1]]);
        assert!(factored.is_separable(1e-9));
        assert!(ClickModel::from_fn(3, 2, |_, _| 0.0).is_separable(1e-9));
    }

    #[test]
    fn pushed_shared_rows_are_stored_once() {
        let row: Arc<[f64]> = Arc::from([0.7, 0.4].as_slice());
        let mut clicks = ClickModel::empty(2);
        clicks.push_row(row.clone());
        clicks.push_row(row.clone());
        clicks.push_row(&[0.7, 0.4]);
        assert!(std::ptr::eq(clicks.row(0), clicks.row(1)));
        assert!(std::ptr::eq(clicks.row(0), &*row));
        assert!(!std::ptr::eq(clicks.row(0), clicks.row(2)));
        assert_eq!(clicks.row(0), clicks.row(2));
        assert_eq!(Arc::strong_count(&row), 3);
    }

    #[test]
    fn separable_expansion_matches_figure8() {
        // Figure 8 factors: advertisers 4 and 3, slots 0.2 and 0.1.
        let s = SeparableClickModel::new(vec![4.0, 3.0], vec![0.2, 0.1]);
        let expanded = s.to_click_model();
        let reference = ClickModel::figure8();
        for i in 0..2 {
            for j in 1..=2u16 {
                let slot = SlotId::new(j);
                assert!((expanded.p_click(i, slot) - reference.p_click(i, slot)).abs() < 1e-12);
            }
        }
        assert!(expanded.is_separable(1e-12));
    }

    #[test]
    fn sort_allocation_orders_by_factors() {
        let s = SeparableClickModel::new(vec![4.0, 3.0, 2.0], vec![0.1, 0.2]);
        // Slot 2 (index 1) has the higher factor → best advertiser there.
        let alloc = s.sort_allocation(&[1.0, 1.0, 1.0]);
        assert_eq!(alloc, vec![Some(1), Some(0)]);
        // Values can reorder advertisers.
        let alloc = s.sort_allocation(&[1.0, 10.0, 1.0]);
        assert_eq!(alloc, vec![Some(0), Some(1)]);
    }

    #[test]
    fn sort_allocation_skips_zero_value() {
        let s = SeparableClickModel::new(vec![1.0, 1.0], vec![0.5, 0.4]);
        let alloc = s.sort_allocation(&[0.0, 0.0]);
        assert_eq!(alloc, vec![None, None]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn click_probabilities_validated() {
        let _ = ClickModel::from_rows(&[vec![1.5]]);
    }

    #[test]
    fn purchase_model_lookup() {
        let m = PurchaseModel::from_fn(1, 2, |_, j| (0.2 / (j + 1) as f64, 0.01));
        assert_eq!(m.p_purchase(0, SlotId::new(1), true), 0.2);
        assert_eq!(m.p_purchase(0, SlotId::new(2), true), 0.1);
        assert_eq!(m.p_purchase(0, SlotId::new(1), false), 0.01);
        let never = PurchaseModel::never(1, 2);
        assert_eq!(never.p_purchase(0, SlotId::new(1), true), 0.0);
    }

    #[test]
    fn models_grow_one_advertiser_at_a_time() {
        let mut clicks = ClickModel::empty(2);
        clicks.push_row(&[0.7, 0.4]);
        clicks.push_row(&[0.6, 0.3]);
        assert_eq!(clicks, ClickModel::figure7());
        assert_eq!(clicks.row(1), &[0.6, 0.3]);

        let mut purchases = PurchaseModel::never(1, 2);
        purchases.push_row(&[(0.5, 0.25), (0.0, 0.0)]);
        purchases.push_never();
        purchases.push_row(&[(0.0, 0.0), (0.0, 0.0)]);
        purchases.push_row(&[(0.0, -0.0), (0.0, 0.0)]);
        let built = PurchaseModel::from_fn(5, 2, |i, j| match (i, j) {
            (1, 0) => (0.5, 0.25),
            (4, 0) => (0.0, -0.0),
            _ => (0.0, 0.0),
        });
        assert_eq!(purchases, built);
        assert_eq!(purchases.num_advertisers(), 5);
        assert_eq!(purchases.p_purchase(1, SlotId::new(1), false), 0.25);
        assert_eq!(purchases.p_purchase(3, SlotId::new(2), true), 0.0);
        // Only the two rows that are not all `+0.0` are stored; the others
        // read back as explicit zeros, and `-0.0` as it was written.
        assert_eq!(purchases.rows.len(), 2 * 2);
        assert_eq!(purchases.row(0), vec![(0.0, 0.0); 2]);
        assert_eq!(purchases.row(1), vec![(0.5, 0.25), (0.0, 0.0)]);
        assert!(purchases.row(4)[0].1.is_sign_negative());
    }

    /// The pure click-auction setting costs no per-advertiser storage: the
    /// row index appears with the first advertiser that purchases.
    #[test]
    fn a_model_without_purchases_holds_no_per_advertiser_storage() {
        let mut purchases = PurchaseModel::never(3, 2);
        for _ in 0..997 {
            purchases.push_never();
        }
        assert_eq!(purchases.num_advertisers(), 1000);
        assert_eq!(purchases.row_of.capacity(), 0);
        assert_eq!(purchases.rows.capacity(), 0);
        assert_eq!(purchases.row(999), vec![(0.0, 0.0); 2]);
        assert_eq!(purchases.p_purchase(0, SlotId::new(1), true), 0.0);

        purchases.push_row(&[(0.5, 0.25), (0.0, 0.0)]);
        purchases.push_never();
        assert_eq!(purchases.num_advertisers(), 1002);
        assert_eq!(purchases.row_of.len(), 1002);
        assert!(purchases.row_of[..1000].iter().all(|&at| at == NEVER));
        assert_eq!(purchases.row_of[1000..], [0, NEVER]);
        assert_eq!(purchases.row(1000), vec![(0.5, 0.25), (0.0, 0.0)]);
        assert_eq!(purchases.row(1001), vec![(0.0, 0.0); 2]);
    }

    #[test]
    #[should_panic(expected = "cover every slot")]
    fn pushed_rows_must_cover_every_slot() {
        ClickModel::empty(2).push_row(&[0.5]);
    }

    #[test]
    fn degenerate_models_are_separable() {
        assert!(ClickModel::from_rows(&[vec![0.5, 0.2]]).is_separable(1e-12));
        assert!(ClickModel::from_rows(&[vec![0.5], vec![0.1]]).is_separable(1e-12));
    }
}
