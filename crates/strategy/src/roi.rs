//! Native implementation of the Figure 5 "Equalize ROI" strategy.
//!
//! Semantics mirror the SQL program line by line (with the paper's line-11
//! typo corrected to `>`):
//!
//! * **underspending** (`amtSpent / time < targetSpendRate`): add 1¢ to the
//!   bid of every keyword that (a) has the maximum ROI over *all* keywords,
//!   (b) is relevant to the current query, and (c) is below its `maxbid`;
//! * **overspending**: subtract 1¢ from every minimum-ROI relevant keyword
//!   whose bid is above zero;
//! * **emit**: a Bids table row per formula, whose value is the sum of the
//!   bids of matching keywords with relevance > 0.7.
//!
//! In the Section V workload each query has exactly one keyword with
//! relevance 1 and the rest 0, which is what [`RoiBidder`] assumes: the
//! "relevant" set is the singleton query keyword.

use ssa_bidlang::{BidsTable, Formula, Money};
use ssa_core::{Bidder, BidderOutcome, QueryContext};

/// Per-keyword strategy state (one row of the paper's Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordEntry {
    /// The formula this keyword bids on (Figure 4's `formula` column).
    pub formula: Formula,
    /// Bid ceiling in cents.
    pub maxbid: i64,
    /// Return on investment so far (value gained / amount spent).
    pub roi: f64,
    /// Current tentative bid in cents.
    pub bid: i64,
    /// The advertiser's value for a click on this keyword, in cents; used
    /// to update ROI when clicks arrive.
    pub click_value: i64,
    /// Cumulative value gained from this keyword (cents).
    pub value_gained: f64,
    /// Cumulative spend on this keyword (cents).
    pub spent: f64,
}

impl KeywordEntry {
    /// A fresh entry bidding `Click` with the given value/cap and starting
    /// conditions.
    pub fn new(click_value: i64, initial_bid: i64, initial_roi: f64) -> Self {
        KeywordEntry {
            formula: Formula::click(),
            maxbid: click_value,
            roi: initial_roi,
            bid: initial_bid,
            click_value,
            value_gained: 0.0,
            spent: 0.0,
        }
    }
}

/// The Figure 5 strategy as a [`Bidder`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoiBidder {
    /// One entry per keyword in the universe.
    pub keywords: Vec<KeywordEntry>,
    /// Target spending rate in cents per time unit.
    pub target_spend_rate: f64,
    /// Total amount spent so far (cents).
    pub amt_spent: f64,
}

impl RoiBidder {
    /// Creates a bidder over `keywords` with the given target rate.
    pub fn new(keywords: Vec<KeywordEntry>, target_spend_rate: f64) -> Self {
        assert!(!keywords.is_empty(), "a bidder needs at least one keyword");
        RoiBidder {
            keywords,
            target_spend_rate,
            amt_spent: 0.0,
        }
    }

    /// The max-ROI value over all keywords (Figure 5's scalar subquery).
    pub(crate) fn max_roi(&self) -> f64 {
        self.keywords
            .iter()
            .map(|k| k.roi)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The min-ROI value over all keywords.
    pub(crate) fn min_roi(&self) -> f64 {
        self.keywords
            .iter()
            .map(|k| k.roi)
            .fold(f64::INFINITY, f64::min)
    }

    /// Applies the Figure 5 bid adjustment for a query on `keyword` at
    /// `time`, then returns the current bid for that keyword.
    pub fn adjust_and_bid(&mut self, keyword: usize, time: u64) -> i64 {
        debug_assert!(time >= 1);
        let rate = self.amt_spent / time as f64;
        if rate < self.target_spend_rate {
            let max_roi = self.max_roi();
            // Only the query keyword has relevance > 0.
            let entry = &mut self.keywords[keyword];
            if entry.roi == max_roi && entry.bid < entry.maxbid {
                entry.bid += 1;
            }
        } else if rate > self.target_spend_rate {
            let min_roi = self.min_roi();
            let entry = &mut self.keywords[keyword];
            if entry.roi == min_roi && entry.bid > 0 {
                entry.bid -= 1;
            }
        }
        self.keywords[keyword].bid
    }

    /// Records a win on `keyword`: the provider charged `price` for a
    /// click worth `value` to the advertiser; ROI and spend are updated the
    /// way the paper describes ("total value gained from the keyword …
    /// divided by the amount spent so far on it").
    pub fn record_click(&mut self, keyword: usize, price: Money, value: f64) {
        let entry = &mut self.keywords[keyword];
        entry.spent += price.as_f64();
        entry.value_gained += value;
        if entry.spent > 0.0 {
            entry.roi = entry.value_gained / entry.spent;
        }
        self.amt_spent += price.as_f64();
    }
}

/// As a campaign program the strategy settles the way every Figure 5
/// flavour does — the keyword-local programs, the SQL `settle` trigger and
/// the RHTALU simulation: a click is recorded only when it was charged,
/// and on the keyword the auction was for (`ctx.keyword`).
impl Bidder for RoiBidder {
    fn on_query(&mut self, ctx: &QueryContext) -> BidsTable {
        let bid = self.adjust_and_bid(ctx.keyword, ctx.time);
        let formula = self.keywords[ctx.keyword].formula.clone();
        BidsTable::new([(formula, Money::from_cents(bid))])
    }

    fn on_outcome(&mut self, ctx: &QueryContext, outcome: &BidderOutcome) {
        if outcome.clicked && outcome.price.is_positive() {
            let value = self.keywords[ctx.keyword].click_value as f64;
            self.record_click(ctx.keyword, outcome.price, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bidder() -> RoiBidder {
        RoiBidder::new(
            vec![
                KeywordEntry {
                    roi: 2.0,
                    bid: 4,
                    maxbid: 5,
                    ..KeywordEntry::new(5, 4, 2.0)
                },
                KeywordEntry {
                    roi: 1.0,
                    bid: 8,
                    maxbid: 6, // mirrors Figure 4 (maxbid may sit below bid)
                    ..KeywordEntry::new(6, 8, 1.0)
                },
            ],
            1.0,
        )
    }

    #[test]
    fn underspending_increments_argmax_only() {
        let mut b = bidder();
        // time 10, spent 0 → rate 0 < 1 → underspending. Keyword 0 has max
        // ROI and headroom → bid 5.
        assert_eq!(b.adjust_and_bid(0, 10), 5);
        // Keyword 1 is not argmax: unchanged even when queried.
        assert_eq!(b.adjust_and_bid(1, 11), 8);
    }

    #[test]
    fn maxbid_cap_enforced() {
        let mut b = bidder();
        for t in 1..10 {
            b.adjust_and_bid(0, t);
        }
        assert_eq!(b.keywords[0].bid, 5, "capped at maxbid");
    }

    #[test]
    fn overspending_decrements_argmin_to_floor() {
        let mut b = bidder();
        b.amt_spent = 1000.0; // rate ≫ target
        for t in 1..20 {
            b.adjust_and_bid(1, t);
        }
        assert_eq!(b.keywords[1].bid, 0, "floored at zero");
        // Argmax keyword untouched by overspending on keyword 0? Keyword 0
        // is not argmin, so nothing happens.
        assert_eq!(b.adjust_and_bid(0, 21), 4);
    }

    #[test]
    fn balanced_spending_keeps_bids() {
        let mut b = bidder();
        b.amt_spent = 10.0;
        assert_eq!(b.adjust_and_bid(0, 10), 4); // rate == target → no move
    }

    #[test]
    fn roi_updates_on_click() {
        let mut b = bidder();
        b.record_click(0, Money::from_cents(2), 5.0);
        assert!((b.keywords[0].roi - 2.5).abs() < 1e-12);
        assert_eq!(b.amt_spent, 2.0);
        b.record_click(0, Money::from_cents(3), 5.0);
        assert!((b.keywords[0].roi - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bidder_trait_emits_single_row() {
        let mut b = bidder();
        let ctx = QueryContext {
            time: 10,
            keyword: 0,
            num_keywords: 2,
        };
        let bids = b.on_query(&ctx);
        assert_eq!(bids.len(), 1);
        assert_eq!(bids.rows()[0].value, Money::from_cents(5));
        assert_eq!(bids.rows()[0].formula, Formula::click());
        // Click outcome feeds ROI.
        b.on_outcome(
            &ctx,
            &BidderOutcome {
                slot: Some(ssa_bidlang::SlotId::new(1)),
                clicked: true,
                purchased: false,
                price: Money::from_cents(3),
            },
        );
        assert_eq!(b.amt_spent, 3.0);
    }

    #[test]
    fn bidder_trait_settles_charged_clicks_on_the_queried_keyword() {
        let mut b = bidder();
        let click = |cents| BidderOutcome {
            slot: Some(ssa_bidlang::SlotId::new(1)),
            clicked: true,
            purchased: false,
            price: Money::from_cents(cents),
        };
        let on = |keyword| QueryContext {
            time: 10,
            keyword,
            num_keywords: 2,
        };
        // A zero-priced click settles nothing: no spend, no value, no ROI.
        let before = b.clone();
        b.on_outcome(&on(1), &click(0));
        assert_eq!(b, before);
        // A charged click settles the keyword the auction was for, even
        // when the bidder's last query was on another.
        b.on_query(&on(0));
        let queried = b.keywords[0].clone();
        b.on_outcome(&on(1), &click(4));
        assert_eq!(b.amt_spent, 4.0);
        assert_eq!(b.keywords[0], queried);
        let settled = &b.keywords[1];
        assert_eq!((settled.spent, settled.value_gained), (4.0, 6.0));
        assert!((settled.roi - 1.5).abs() < 1e-12);
    }

    #[test]
    fn tied_roi_updates_query_keyword() {
        let mut b = RoiBidder::new(
            vec![KeywordEntry::new(10, 2, 1.0), KeywordEntry::new(10, 3, 1.0)],
            5.0,
        );
        // Both tie for argmax: the queried one moves.
        assert_eq!(b.adjust_and_bid(1, 1), 4);
        assert_eq!(b.keywords[0].bid, 2);
    }
}
