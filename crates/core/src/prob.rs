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
//! of rebuilding the model. Click rows live in a click table: each row
//! stored once, as `k` contiguous probabilities in one flat buffer, and
//! named by a 4-byte id. A [`ClickModel`] owns a table of its own and one
//! id per advertiser. A [`Marketplace`](crate::Marketplace) owns one table
//! for all its keywords, and each keyword engine holds only ids into it,
//! so an advertiser's row is stored once for its campaigns on every
//! keyword.
//! The table's insert is the only way a row enters, and it refuses a row
//! of the wrong length or with a probability outside `[0, 1]` as a typed
//! [`MarketError`]. An advertiser that never purchases — the pure
//! click-auction setting — costs [`PurchaseModel`] no per-slot storage at
//! all, and while nobody in the model purchases, no entry of a row index
//! either.

use crate::footprint::{Accountant, Component, HeapUse};
use crate::marketplace::{validate_click_probs, MarketError};
use ssa_bidlang::SlotId;
use std::num::NonZeroU32;

/// The name of a row in a [`ClickTable`]: four bytes, whatever the slot
/// count, and `Option<ClickRowId>` is four bytes too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClickRowId(NonZeroU32);

impl ClickRowId {
    /// The row's position in its table, from 0.
    #[inline]
    fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

/// Click-probability rows over `k` slots, each stored once, flat: row `r`
/// is entries `r·k .. (r+1)·k` of one buffer. Rows are appended and never
/// change, so an id stays valid for the table's life.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClickTable {
    k: usize,
    /// Rows stored; counted apart from `probs` so a zero-slot table counts
    /// its rows too.
    len: usize,
    probs: Vec<f64>,
}

impl ClickTable {
    /// An empty table of rows over `num_slots` slots.
    pub(crate) fn new(num_slots: usize) -> Self {
        ClickTable {
            k: num_slots,
            len: 0,
            probs: Vec::new(),
        }
    }

    /// Appends `row` and returns its id: the one way a row enters a table.
    /// A row without one entry per slot is refused as
    /// [`MarketError::ModelDimension`], a probability outside `[0, 1]` as
    /// [`MarketError::InvalidProbability`], and a row past the 4-byte ids'
    /// range as [`MarketError::ClickTableFull`]; a refused row leaves the
    /// table as it was.
    pub(crate) fn insert(&mut self, row: &[f64]) -> Result<ClickRowId, MarketError> {
        validate_click_probs(row, self.k)?;
        let id = u32::try_from(self.len + 1)
            .ok()
            .and_then(NonZeroU32::new)
            .ok_or(MarketError::ClickTableFull)?;
        self.probs.extend_from_slice(row);
        self.len += 1;
        Ok(ClickRowId(id))
    }

    /// The row `id` names.
    #[inline]
    pub(crate) fn row(&self, id: ClickRowId) -> &[f64] {
        let start = id.index() * self.k;
        &self.probs[start..start + self.k]
    }

    /// Number of slots a row covers.
    pub(crate) fn num_slots(&self) -> usize {
        self.k
    }

    /// The rows `ids` name, as an auction reads them.
    pub(crate) fn rows<'a>(&'a self, ids: &'a [ClickRowId]) -> ClickRows<'a> {
        ClickRows { table: self, ids }
    }

    /// Enters the table's one buffer.
    pub(crate) fn account(&self, ledger: &mut Accountant) {
        ledger.add(Component::ClickRows, HeapUse::of_vec(&self.probs));
    }
}

/// Per-advertiser, per-slot click probabilities: one 4-byte row id per
/// advertiser, naming a row of the model's own table
/// ([`ClickModel::from_fn`], [`ClickModel::from_rows`],
/// [`ClickModel::push_row`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClickModel {
    /// What the ids name.
    table: ClickTable,
    ids: Vec<ClickRowId>,
}

/// Click rows as an auction reads them: ids, resolved in the table they
/// name.
#[derive(Debug, Clone, Copy)]
pub struct ClickRows<'a> {
    table: &'a ClickTable,
    ids: &'a [ClickRowId],
}

impl<'a> ClickRows<'a> {
    /// Advertiser `adv`'s per-slot probabilities.
    #[inline]
    pub fn row(&self, adv: usize) -> &'a [f64] {
        self.table.row(self.ids[adv])
    }

    /// P(click | advertiser `adv` in `slot`).
    #[inline]
    pub fn p_click(&self, adv: usize, slot: SlotId) -> f64 {
        self.row(adv)[slot.index0()]
    }
}

impl ClickModel {
    /// A model over `k` slots with no advertisers yet; grow it with
    /// [`ClickModel::push_row`].
    pub fn empty(k: usize) -> Self {
        ClickModel {
            table: ClickTable::new(k),
            ids: Vec::new(),
        }
    }

    /// Builds a model from a function of `(advertiser, slot)` indexes; the
    /// first probability outside `[0, 1]` is refused as
    /// [`MarketError::InvalidProbability`].
    pub fn from_fn(
        n: usize,
        k: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self, MarketError> {
        let mut model = ClickModel::empty(k);
        model.table.probs.reserve_exact(n * k);
        model.ids.reserve_exact(n);
        let mut row = Vec::with_capacity(k);
        for i in 0..n {
            row.clear();
            row.extend((0..k).map(|j| f(i, j)));
            model.push_row(&row)?;
        }
        Ok(model)
    }

    /// Builds a model from explicit rows, one per advertiser, over as many
    /// slots as the first row has entries.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MarketError> {
        let k = rows.first().map_or(0, Vec::len);
        let mut model = ClickModel::empty(k);
        for row in rows {
            model.push_row(row)?;
        }
        Ok(model)
    }

    /// Appends the next advertiser's per-slot click probabilities as a row
    /// of the model's own table. A row without one entry per slot is
    /// refused as [`MarketError::ModelDimension`], a probability outside
    /// `[0, 1]` as [`MarketError::InvalidProbability`], and either leaves
    /// the model as it was.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), MarketError> {
        let id = self.table.insert(row)?;
        self.ids.push(id);
        Ok(())
    }

    /// The model's rows, resolved in its own table.
    pub fn rows(&self) -> ClickRows<'_> {
        self.table.rows(&self.ids)
    }

    /// Number of advertisers.
    pub fn num_advertisers(&self) -> usize {
        self.ids.len()
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.table.num_slots()
    }

    /// P(click | advertiser `i` in slot `j`). An unplaced ad is never
    /// clicked.
    #[inline]
    pub fn p_click(&self, adv: usize, slot: SlotId) -> f64 {
        self.rows().p_click(adv, slot)
    }

    /// Raw row access for hot loops.
    #[inline]
    pub fn row(&self, adv: usize) -> &[f64] {
        self.rows().row(adv)
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
        let (n, k) = (self.num_advertisers(), self.num_slots());
        if n < 2 || k < 2 {
            return true;
        }
        let (mut r, mut c, mut p_rc) = (0, 0, 0.0f64);
        for i in 0..n {
            for (j, &v) in self.row(i).iter().enumerate() {
                if v.abs() > p_rc.abs() {
                    (r, c, p_rc) = (i, j, v);
                }
            }
        }
        if p_rc == 0.0 {
            return true; // the zero matrix
        }
        let pivot_row = self.row(r);
        (0..n).all(|i| {
            let row = self.row(i);
            (0..k).all(|j| (row[j] * p_rc - row[c] * pivot_row[j]).abs() <= tol)
        })
    }

    /// The paper's Figure 7 non-separable example (Nike/Adidas × 2 slots).
    pub fn figure7() -> Self {
        ClickModel::paper_figure(&[[0.7, 0.4], [0.6, 0.3]])
    }

    /// The paper's Figure 8 separable example.
    pub fn figure8() -> Self {
        ClickModel::paper_figure(&[[0.8, 0.4], [0.6, 0.3]])
    }

    /// A model of the paper's constant two-slot rows.
    #[allow(clippy::expect_used)] // constant rows of two probabilities in [0, 1]
    fn paper_figure(rows: &[[f64; 2]]) -> Self {
        let mut model = ClickModel::empty(2);
        for row in rows {
            model.push_row(row).expect("the paper's probabilities");
        }
        model
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

    /// Expands into the general matrix form; a product outside `[0, 1]`
    /// (a factor changed since [`SeparableClickModel::new`]) is refused as
    /// [`MarketError::InvalidProbability`].
    pub fn to_click_model(&self) -> Result<ClickModel, MarketError> {
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
        let zero_row =
            ClickModel::from_rows(&[vec![0.0, 0.0], vec![0.5, 0.1], vec![0.1, 0.5]]).unwrap();
        assert!(!zero_row.is_separable(1e-9));
        let zero_column =
            ClickModel::from_rows(&[vec![0.0, 0.5, 0.1], vec![0.0, 0.2, 0.9]]).unwrap();
        assert!(!zero_column.is_separable(1e-9));
        // Zeros that do factor still do.
        let factored =
            ClickModel::from_rows(&[vec![0.0, 0.0], vec![0.4, 0.2], vec![0.2, 0.1]]).unwrap();
        assert!(factored.is_separable(1e-9));
        assert!(ClickModel::from_fn(3, 2, |_, _| 0.0)
            .unwrap()
            .is_separable(1e-9));
    }

    #[test]
    fn pushed_shared_rows_are_stored_once() {
        // A model's rows are one flat buffer, one row per push; the market
        // shares a row by handing several engines the same id.
        let mut table = ClickTable::new(2);
        let shared = table.insert(&[0.7, 0.4]).unwrap();
        let ids = [shared, shared];
        assert_eq!(table.len, 1);
        let rows = table.rows(&ids);
        assert!(std::ptr::eq(rows.row(0), rows.row(1)));
        assert_eq!(rows.row(1), &[0.7, 0.4]);
        assert_eq!(std::mem::size_of::<ClickRowId>(), 4);
        assert_eq!(std::mem::size_of::<Option<ClickRowId>>(), 4);

        let own = ClickModel::from_rows(&[vec![0.7, 0.4], vec![0.7, 0.4]]).unwrap();
        assert_eq!(own.table.len, 2);
        assert_eq!(own.table.probs, [0.7, 0.4, 0.7, 0.4]);
        assert_eq!(own.row(0), own.row(1));
    }

    #[test]
    fn separable_expansion_matches_figure8() {
        // Figure 8 factors: advertisers 4 and 3, slots 0.2 and 0.1.
        let s = SeparableClickModel::new(vec![4.0, 3.0], vec![0.2, 0.1]);
        let expanded = s.to_click_model().unwrap();
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

    /// A row enters only through the table's insert, which refuses a bad
    /// probability as a typed error, without a panic and without a trace.
    #[test]
    fn click_probabilities_validated() {
        assert_eq!(
            ClickModel::from_rows(&[vec![1.5]]),
            Err(MarketError::InvalidProbability(1.5))
        );
        let mut clicks = ClickModel::figure7();
        assert_eq!(
            clicks.push_row(&[0.5, 1.5]),
            Err(MarketError::InvalidProbability(1.5))
        );
        assert_eq!(clicks, ClickModel::figure7());
        let nan = ClickModel::from_fn(2, 2, |i, _| if i == 1 { f64::NAN } else { 0.5 });
        assert!(matches!(nan, Err(MarketError::InvalidProbability(p)) if p.is_nan()));
        let separable = SeparableClickModel {
            advertiser_factors: vec![4.0],
            slot_factors: vec![0.5],
        };
        assert_eq!(
            separable.to_click_model(),
            Err(MarketError::InvalidProbability(2.0))
        );
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
        clicks.push_row(&[0.7, 0.4]).unwrap();
        clicks.push_row(&[0.6, 0.3]).unwrap();
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
    fn pushed_rows_must_cover_every_slot() {
        let mut clicks = ClickModel::empty(2);
        let short = MarketError::ModelDimension {
            expected: 2,
            got: 1,
        };
        assert_eq!(clicks.push_row(&[0.5]), Err(short.clone()));
        assert_eq!(clicks, ClickModel::empty(2));
        assert_eq!(
            ClickModel::from_rows(&[vec![0.5, 0.5], vec![0.5]]),
            Err(short)
        );
    }

    #[test]
    fn degenerate_models_are_separable() {
        assert!(ClickModel::from_rows(&[vec![0.5, 0.2]])
            .unwrap()
            .is_separable(1e-12));
        assert!(ClickModel::from_rows(&[vec![0.5], vec![0.1]])
            .unwrap()
            .is_separable(1e-12));
    }
}
