//! Bids tables: OR-bids on Boolean combinations of predicates (Section II-A).

use crate::formula::Formula;
use crate::money::Money;
use crate::outcome::AdvertiserView;
use std::fmt;

/// One row of a Bids table: "pay `value` if `formula` is true".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BidRow {
    /// The Boolean event being bid on.
    pub formula: Formula,
    /// The amount the advertiser pays if the event occurs.
    pub value: Money,
}

/// An advertiser's Bids table (paper Figures 3 and 6).
///
/// Semantics are OR-bid: the advertiser pays the **sum** of the values of all
/// rows whose formulas hold in the final outcome.
///
/// A one-row table — every per-click bid — is stored inline, in the same 32
/// bytes a longer table spends on its row vector, so building, holding and
/// replacing one never touches the heap. Tables of zero or several rows
/// keep a `Vec`. Equality compares [`BidsTable::rows`].
#[derive(Debug, Clone)]
pub struct BidsTable {
    rows: Rows,
}

#[derive(Debug, Clone)]
enum Rows {
    One(BidRow),
    /// Zero rows or at least two.
    Many(Vec<BidRow>),
}

impl Default for BidsTable {
    fn default() -> Self {
        BidsTable {
            rows: Rows::Many(Vec::new()),
        }
    }
}

impl PartialEq for BidsTable {
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows()
    }
}

impl Eq for BidsTable {}

impl BidsTable {
    /// Builds a table from `(formula, value)` rows.
    ///
    /// # Panics
    ///
    /// Panics if any value is negative: the language prices *desirable*
    /// events; negative payments would let an advertiser be paid by the
    /// provider.
    pub fn new<I: IntoIterator<Item = (Formula, Money)>>(rows: I) -> Self {
        let mut table = BidsTable::empty();
        for (formula, value) in rows {
            table.push(formula, value);
        }
        table
    }

    /// An empty table (bids nothing, pays nothing).
    pub fn empty() -> Self {
        BidsTable::default()
    }

    /// The paper's Figure 3 table: 5¢ for a purchase, 2¢ for slot 1 or 2.
    pub fn figure3() -> Self {
        use crate::ids::SlotId;
        BidsTable::new(vec![
            (Formula::purchase(), Money::from_cents(5)),
            (
                Formula::any_slot([SlotId::new(1), SlotId::new(2)]),
                Money::from_cents(2),
            ),
        ])
    }

    /// The classical single-feature bid: pay `value` per click (Figure 1).
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative.
    pub fn single_feature(value: Money) -> Self {
        BidsTable::new([(Formula::click(), value)])
    }

    /// The rows of the table.
    pub fn rows(&self) -> &[BidRow] {
        match &self.rows {
            Rows::One(row) => std::slice::from_ref(row),
            Rows::Many(rows) => rows,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows().is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative.
    pub fn push(&mut self, formula: Formula, value: Money) {
        assert!(
            value >= Money::ZERO,
            "bid values must be non-negative, got {value} for {formula}"
        );
        let row = BidRow { formula, value };
        self.rows = match std::mem::replace(&mut self.rows, Rows::Many(Vec::new())) {
            Rows::Many(rows) if rows.is_empty() => Rows::One(row),
            Rows::Many(mut rows) => {
                rows.push(row);
                Rows::Many(rows)
            }
            Rows::One(first) => Rows::Many(vec![first, row]),
        };
    }

    /// Total payment owed under an outcome view: the sum of values of rows
    /// whose formulas are true (OR-bid semantics).
    pub fn payment(&self, view: &AdvertiserView) -> Money {
        self.rows()
            .iter()
            .filter(|r| r.formula.eval(view))
            .map(|r| r.value)
            .sum()
    }

    /// `true` if any row's formula mentions a heavyweight predicate.
    pub fn mentions_heavy(&self) -> bool {
        self.rows().iter().any(|r| r.formula.mentions_heavy())
    }

    /// Sum of all row values — an upper bound on the payment in any outcome.
    pub fn max_payment(&self) -> Money {
        self.rows().iter().map(|r| r.value).sum()
    }
}

impl fmt::Display for BidsTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<40} value", "formula")?;
        for row in self.rows() {
            writeln!(f, "{:<40} {}", row.formula.to_string(), row.value)?;
        }
        Ok(())
    }
}

impl FromIterator<(Formula, Money)> for BidsTable {
    fn from_iter<I: IntoIterator<Item = (Formula, Money)>>(iter: I) -> Self {
        BidsTable::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlotId;

    fn view(slot: Option<u16>, clicked: bool, purchased: bool) -> AdvertiserView {
        AdvertiserView {
            slot: slot.map(SlotId::new),
            clicked,
            purchased,
            heavy_pattern: None,
        }
    }

    #[test]
    fn figure3_payments() {
        let bids = BidsTable::figure3();
        // Purchase and slot 1: both rows true → 5 + 2 = 7 (the paper's text).
        assert_eq!(bids.payment(&view(Some(1), true, true)).cents(), 7);
        // Purchase only (slot 3): 5.
        assert_eq!(bids.payment(&view(Some(3), true, true)).cents(), 5);
        // Slot 2, no purchase: 2.
        assert_eq!(bids.payment(&view(Some(2), true, false)).cents(), 2);
        // Nothing: 0.
        assert_eq!(bids.payment(&view(None, false, false)).cents(), 0);
    }

    #[test]
    fn figure6_payments() {
        // Figure 6: Click ∧ Slot1 → 4; Click → 0.
        let bids = BidsTable::new(vec![
            (
                Formula::click() & Formula::slot(SlotId::new(1)),
                Money::from_cents(4),
            ),
            (Formula::click(), Money::ZERO),
        ]);
        assert_eq!(bids.payment(&view(Some(1), true, false)).cents(), 4);
        assert_eq!(bids.payment(&view(Some(2), true, false)).cents(), 0);
    }

    #[test]
    fn single_feature_is_click_only() {
        let bids = BidsTable::single_feature(Money::from_cents(3));
        assert_eq!(bids.payment(&view(Some(5), true, false)).cents(), 3);
        assert_eq!(bids.payment(&view(Some(1), false, true)).cents(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bids_rejected() {
        let _ = BidsTable::new(vec![(Formula::click(), Money::from_cents(-1))]);
    }

    #[test]
    fn max_payment_bounds() {
        let bids = BidsTable::figure3();
        assert_eq!(bids.max_payment().cents(), 7);
        assert!(bids.payment(&view(Some(1), true, true)).cents() <= bids.max_payment().cents());
    }

    #[test]
    fn empty_table() {
        let bids = BidsTable::empty();
        assert!(bids.is_empty());
        assert_eq!(bids.payment(&view(Some(1), true, true)), Money::ZERO);
    }

    #[test]
    fn display_contains_rows() {
        let s = BidsTable::figure3().to_string();
        assert!(s.contains("Purchase"));
        assert!(s.contains("Slot1 ∨ Slot2"));
        assert!(s.contains("$0.05"));
    }

    #[test]
    fn one_row_tables_live_inline() {
        // The one row fits where a row vector would be.
        assert_eq!(
            std::mem::size_of::<BidsTable>(),
            std::mem::size_of::<BidRow>()
        );
        let bid = Money::from_cents(3);
        let one = BidsTable::single_feature(bid);
        assert!(matches!(one.rows, Rows::One(_)));
        assert_eq!(
            one.rows(),
            &[BidRow {
                formula: Formula::click(),
                value: bid
            }]
        );
        assert_eq!(one, BidsTable::new(vec![(Formula::click(), bid)]));
        assert_ne!(one, BidsTable::empty());
        assert_ne!(one, BidsTable::single_feature(Money::from_cents(4)));

        // Growing past one row moves to a vector; equality follows the rows.
        let mut grown = BidsTable::empty();
        grown.push(Formula::purchase(), Money::from_cents(5));
        grown.push(
            Formula::any_slot([SlotId::new(1), SlotId::new(2)]),
            Money::from_cents(2),
        );
        assert_eq!(grown, BidsTable::figure3());
        assert_eq!(grown.len(), 2);
        assert_eq!(BidsTable::new(Vec::new()), BidsTable::empty());
    }

    #[test]
    fn from_iterator() {
        let bids: BidsTable = vec![(Formula::click(), Money::from_cents(1))]
            .into_iter()
            .collect();
        assert_eq!(bids.len(), 1);
    }
}
