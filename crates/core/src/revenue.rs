//! Expected revenue: from multi-feature bids to a matching problem.
//!
//! This is the constructive half of Theorem 2. Every Boolean combination of
//! an advertiser's own `Slotj` / `Click` / `Purchase` predicates is a
//! 1-dependent event, so conditional on "advertiser `i` gets slot `j`" its
//! probability is fully determined by the click and purchase models: the
//! slot predicates become constants and only the four (click, purchase)
//! worlds remain. Summing value × probability over the rows of the Bids
//! table gives the edge weight `E[revenue | i in slot j]`.
//!
//! One subtlety the paper's proof handles with the `E ∧ (∧j ¬Slotj)` bids:
//! a formula may also pay when the advertiser is *not* shown (e.g. a brand
//! bid on `Slot1 ∨ ¬(Slot1 ∨ … ∨ Slotk)` — "top or nothing"). We therefore
//! normalise: the matching works on **adjusted weights**
//! `w(i,j) = E[rev | i in slot j] − v₀(i)` where `v₀(i)` is the revenue
//! from leaving `i` unplaced, and the total expected revenue of an
//! allocation is `Σᵢ v₀(i) + Σ_matched w(i,j)`. Negative adjusted weights
//! simply mean "better left unplaced", which the matching solvers honour by
//! leaving slots empty.

use crate::prob::{ClickModel, ClickRows, PurchaseModel};
use ssa_bidlang::{AdvertiserView, BidsTable, SlotId};
use ssa_matching::RevenueMatrix;

/// Expected revenue from assigning `slot` to advertiser `adv` under the
/// click/purchase models, assuming the advertiser pays what it bids.
pub fn expected_revenue(
    bids: &BidsTable,
    adv: usize,
    slot: SlotId,
    clicks: ClickRows<'_>,
    purchases: &PurchaseModel,
) -> f64 {
    slot_revenue(bids, adv, slot, clicks.p_click(adv, slot), purchases)
}

/// [`expected_revenue`] with the advertiser's click probability in `slot`
/// already read.
// Inlined into the per-row loop, where the advertiser's click row, model
// rows and table are loop invariants: a full fill runs a quarter faster
// for it.
#[inline]
fn slot_revenue(
    bids: &BidsTable,
    adv: usize,
    slot: SlotId,
    p_click: f64,
    purchases: &PurchaseModel,
) -> f64 {
    let mut total = 0.0;
    for clicked in [false, true] {
        let p_c = if clicked { p_click } else { 1.0 - p_click };
        if p_c == 0.0 {
            continue;
        }
        let p_purchase = purchases.p_purchase(adv, slot, clicked);
        for purchased in [false, true] {
            let p = p_c
                * if purchased {
                    p_purchase
                } else {
                    1.0 - p_purchase
                };
            if p == 0.0 {
                continue;
            }
            let view = AdvertiserView {
                slot: Some(slot),
                clicked,
                purchased,
                heavy_pattern: None,
            };
            total += p * bids.payment(&view).as_f64();
        }
    }
    total
}

/// Revenue collected from an advertiser that is not displayed (its ad gets
/// no clicks and no purchases, but negated-slot formulas may still pay).
pub fn no_slot_revenue(bids: &BidsTable) -> f64 {
    bids.payment(&AdvertiserView::unplaced()).as_f64()
}

/// The per-advertiser unplaced revenues plus their sum; the constant part of
/// the winner-determination objective.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoSlotValues {
    /// `base[i]` = revenue if advertiser `i` is left unplaced.
    pub base: Vec<f64>,
    /// Sum of `base`.
    pub total_base: f64,
}

impl NoSlotValues {
    /// Rebuilds `total_base` by summing `base` in index order — the same
    /// order [`revenue_matrix`] sums in, so refreshing single values
    /// with [`NoSlotValues::set`] stays bit-identical to a full rebuild.
    pub fn resum(&mut self) {
        self.total_base = self.base.iter().sum();
    }

    /// Sets advertiser `adv`'s value and returns whether its bits changed.
    /// When no value's bits changed, `total_base` — the sum of the same
    /// values in the same order — is already right and needs no
    /// [`NoSlotValues::resum`].
    pub fn set(&mut self, adv: usize, value: f64) -> bool {
        let changed = self.base[adv].to_bits() != value.to_bits();
        self.base[adv] = value;
        changed
    }
}

/// One advertiser's row of adjusted weights, written into `weights` (one
/// per slot): `E[revenue | adv in slot j] − v₀(adv)`. Returns `v₀(adv)`, the
/// advertiser's no-slot value. The one place the row formula is spelled:
/// the dense fill, the engine's refresh of a changed row and its
/// matrix-free path all call it, so their weights agree bit for bit.
///
/// An advertiser whose table has no rows bids on nothing at all: it is
/// excluded from the matching outright rather than entered at weight 0,
/// where tie-breaking against empty slots could still display it (this is
/// how the `Marketplace` facade expresses paused campaigns without
/// rebuilding the engine).
pub fn row_weights_into(
    bids: &BidsTable,
    adv: usize,
    clicks: ClickRows<'_>,
    purchases: &PurchaseModel,
    weights: &mut [f64],
) -> f64 {
    let base = no_slot_revenue(bids);
    if bids.is_empty() {
        weights.fill(ssa_matching::EXCLUDED);
    } else {
        let click_row = clicks.row(adv);
        for (j, (weight, &p_click)) in weights.iter_mut().zip(click_row).enumerate() {
            let slot = SlotId::from_index0(j);
            *weight = slot_revenue(bids, adv, slot, p_click, purchases) - base;
        }
    }
    base
}

/// Builds the adjusted expected-revenue matrix for winner determination,
/// together with the no-slot normalisation values.
///
/// Total expected revenue of an assignment =
/// `no_slot.total_base + assignment.total_weight`.
pub fn revenue_matrix(
    bids: &[BidsTable],
    clicks: &ClickModel,
    purchases: &PurchaseModel,
) -> (RevenueMatrix, NoSlotValues) {
    let n = bids.len();
    assert_eq!(clicks.num_advertisers(), n, "click model size mismatch");
    assert_eq!(
        purchases.num_advertisers(),
        n,
        "purchase model size mismatch"
    );
    let k = clicks.num_slots();
    let mut matrix = RevenueMatrix::zeros(n, k);
    let mut no_slot = NoSlotValues::default();
    let mut row = vec![0.0; k];
    let clicks = clicks.rows();
    for (i, table) in bids.iter().enumerate() {
        no_slot
            .base
            .push(row_weights_into(table, i, clicks, purchases, &mut row));
        matrix.set_row(i, &row);
    }
    no_slot.resum();
    (matrix, no_slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_bidlang::{Formula, Money};
    use ssa_matching::max_weight_assignment;

    /// Refreshes one advertiser's matrix row and base value the way the
    /// engine does for a changed row; returns whether the base moved.
    fn refresh_row(
        bids: &BidsTable,
        adv: usize,
        models: &(ClickModel, PurchaseModel),
        matrix: &mut RevenueMatrix,
        no_slot: &mut NoSlotValues,
    ) -> bool {
        let mut row = vec![0.0; matrix.num_slots()];
        let base = row_weights_into(bids, adv, models.0.rows(), &models.1, &mut row);
        matrix.set_row(adv, &row);
        no_slot.set(adv, base)
    }

    fn uniform_models(n: usize, k: usize, p: f64) -> (ClickModel, PurchaseModel) {
        (
            ClickModel::from_fn(n, k, |_, _| p).unwrap(),
            PurchaseModel::never(n, k),
        )
    }

    #[test]
    fn single_feature_expected_revenue_is_p_times_bid() {
        let bids = BidsTable::single_feature(Money::from_cents(10));
        let clicks = ClickModel::from_rows(&[vec![0.3, 0.1]]).unwrap();
        let purchases = PurchaseModel::never(1, 2);
        assert!(
            (expected_revenue(&bids, 0, SlotId::new(1), clicks.rows(), &purchases) - 3.0).abs()
                < 1e-12
        );
        assert!(
            (expected_revenue(&bids, 0, SlotId::new(2), clicks.rows(), &purchases) - 1.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn figure3_bids_with_purchases() {
        // Pay 5 on Purchase, 2 on Slot1∨Slot2 (slot events are certain given
        // the assignment).
        let bids = BidsTable::figure3();
        let clicks = ClickModel::from_rows(&[vec![0.5, 0.5, 0.5]]).unwrap();
        let purchases = PurchaseModel::from_fn(1, 3, |_, _| (0.4, 0.0));
        // Slot 1: P(purchase) = 0.5·0.4 = 0.2 → 5·0.2 + 2 = 3.
        let r1 = expected_revenue(&bids, 0, SlotId::new(1), clicks.rows(), &purchases);
        assert!((r1 - 3.0).abs() < 1e-12, "r1 = {r1}");
        // Slot 3: no slot bonus → 5·0.2 = 1.
        let r3 = expected_revenue(&bids, 0, SlotId::new(3), clicks.rows(), &purchases);
        assert!((r3 - 1.0).abs() < 1e-12, "r3 = {r3}");
    }

    #[test]
    fn exhaustive_world_enumeration_agrees() {
        // Cross-check expected_revenue against a literal enumeration of the
        // four (click, purchase) worlds for an arbitrary formula.
        let bids = BidsTable::new(vec![
            (
                Formula::click() & !Formula::purchase() & Formula::slot(SlotId::new(2)),
                Money::from_cents(7),
            ),
            (Formula::purchase(), Money::from_cents(3)),
        ]);
        let clicks = ClickModel::from_rows(&[vec![0.25, 0.6]]).unwrap();
        let purchases = PurchaseModel::from_fn(1, 2, |_, j| (0.5 / (j + 1) as f64, 0.125));
        for j in 1..=2u16 {
            let slot = SlotId::new(j);
            let pc = clicks.p_click(0, slot);
            let mut manual = 0.0;
            for clicked in [false, true] {
                for purchased in [false, true] {
                    let pp = purchases.p_purchase(0, slot, clicked);
                    let p = (if clicked { pc } else { 1.0 - pc })
                        * (if purchased { pp } else { 1.0 - pp });
                    let view = AdvertiserView {
                        slot: Some(slot),
                        clicked,
                        purchased,
                        heavy_pattern: None,
                    };
                    manual += p * bids.payment(&view).as_f64();
                }
            }
            let fast = expected_revenue(&bids, 0, slot, clicks.rows(), &purchases);
            assert!((fast - manual).abs() < 1e-12);
        }
    }

    #[test]
    fn top_or_nothing_bid_yields_negative_adjusted_weights() {
        // "topmost slot or not displayed at all": leaving the advertiser out
        // pays 4; slot 2 pays 0 → adjusted weight for slot 2 is −4.
        let k = 2;
        let bids = vec![BidsTable::new(vec![(
            Formula::slot(SlotId::new(1)) | Formula::no_slot(k),
            Money::from_cents(4),
        )])];
        let (clicks, purchases) = uniform_models(1, k as usize, 0.5);
        let (matrix, base) = revenue_matrix(&bids, &clicks, &purchases);
        assert_eq!(base.base, vec![4.0]);
        assert_eq!(matrix.get(0, 0), 0.0); // 4 (slot1) − 4 (base)
        assert_eq!(matrix.get(0, 1), -4.0); // 0 − 4
                                            // The matching must therefore leave this advertiser unplaced rather
                                            // than give it slot 2.
        let a = max_weight_assignment(&matrix);
        assert_eq!(a.slot_to_adv, vec![Some(0), None]);
        // …and total revenue = base + weight = 4 + 0.
        assert!((base.total_base + a.total_weight - 4.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_dimensions_and_values() {
        let bids = vec![
            BidsTable::single_feature(Money::from_cents(10)),
            BidsTable::single_feature(Money::from_cents(20)),
        ];
        let clicks = ClickModel::from_rows(&[vec![0.8, 0.4], vec![0.6, 0.3]]).unwrap();
        let purchases = PurchaseModel::never(2, 2);
        let (matrix, base) = revenue_matrix(&bids, &clicks, &purchases);
        assert_eq!(matrix.num_advertisers(), 2);
        assert_eq!(matrix.num_slots(), 2);
        assert_eq!(base.total_base, 0.0);
        assert!((matrix.get(0, 0) - 8.0).abs() < 1e-12);
        assert!((matrix.get(1, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_is_excluded_from_the_matching() {
        let bids = vec![
            BidsTable::empty(),
            BidsTable::single_feature(Money::from_cents(1)),
        ];
        let (clicks, purchases) = uniform_models(2, 2, 0.5);
        let (matrix, base) = revenue_matrix(&bids, &clicks, &purchases);
        assert_eq!(matrix.get(0, 0), ssa_matching::EXCLUDED);
        assert_eq!(matrix.get(0, 1), ssa_matching::EXCLUDED);
        assert_eq!(base.base[0], 0.0);
        // The matching never seats the empty-table advertiser, even though
        // a zero-weight row could win tie-breaks against an empty slot.
        let a = max_weight_assignment(&matrix);
        assert_eq!(a.slot_to_adv.iter().filter(|s| **s == Some(0)).count(), 0);
    }

    #[test]
    fn row_refresh_matches_full_rebuild() {
        let (clicks, purchases) = uniform_models(3, 2, 0.4);
        let before = vec![
            BidsTable::single_feature(Money::from_cents(10)),
            BidsTable::single_feature(Money::from_cents(7)),
            BidsTable::new(vec![(Formula::no_slot(2), Money::from_cents(3))]),
        ];
        let (mut matrix, mut no_slot) = revenue_matrix(&before, &clicks, &purchases);
        // Change rows 1 (new bid) and 2 (paused: empty table) only.
        let mut after = before.clone();
        after[1] = BidsTable::single_feature(Money::from_cents(55));
        after[2] = BidsTable::empty();
        let models = (clicks, purchases);
        let base_changed: Vec<bool> = (0..3)
            .map(|adv| refresh_row(&after[adv], adv, &models, &mut matrix, &mut no_slot))
            .collect();
        let (clicks, purchases) = models;
        // Row 0 was rewritten as it stood and row 1's base stays 0: only
        // the paused "not displayed" bid moves the sum.
        assert_eq!(base_changed, vec![false, false, true]);
        no_slot.resum();
        let (full_matrix, full_base) = revenue_matrix(&after, &clicks, &purchases);
        assert_eq!(matrix, full_matrix);
        assert_eq!(no_slot, full_base);
    }

    /// The sum need only be redone when some value's bits changed: both
    /// zeros count as different, a rewritten equal value does not, and a
    /// "top or nothing" bid — the one kind with a base — does when its
    /// value moves.
    #[test]
    fn base_values_report_bit_changes_only() {
        let mut no_slot = NoSlotValues {
            base: vec![0.0, 4.0],
            total_base: 4.0,
        };
        assert!(!no_slot.set(0, 0.0));
        assert!(no_slot.set(0, -0.0), "-0.0 and +0.0 differ in bits");
        assert!(!no_slot.set(0, -0.0));
        assert!(!no_slot.set(1, 4.0));

        let top_or_nothing = |cents| {
            BidsTable::new(vec![(
                Formula::slot(SlotId::new(1)) | Formula::no_slot(2),
                Money::from_cents(cents),
            )])
        };
        let models = uniform_models(2, 2, 0.5);
        let mut bids = vec![
            BidsTable::single_feature(Money::from_cents(9)),
            top_or_nothing(4),
        ];
        let (mut matrix, mut no_slot) = revenue_matrix(&bids, &models.0, &models.1);
        let mut refresh = |bids: &[BidsTable], adv: usize| {
            let moved = refresh_row(&bids[adv], adv, &models, &mut matrix, &mut no_slot);
            if moved {
                no_slot.resum();
            }
            let rebuilt = revenue_matrix(bids, &models.0, &models.1);
            assert_eq!((&matrix, &no_slot), (&rebuilt.0, &rebuilt.1));
            moved
        };
        bids[0] = BidsTable::single_feature(Money::from_cents(3));
        assert!(!refresh(&bids, 0), "a per-click bid has no base to move");
        bids[1] = top_or_nothing(6);
        assert!(refresh(&bids, 1));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn model_size_checked() {
        let bids = vec![BidsTable::empty()];
        let (clicks, purchases) = uniform_models(2, 2, 0.5);
        let _ = revenue_matrix(&bids, &clicks, &purchases);
    }
}
