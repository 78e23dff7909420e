//! Pricing rules (Section III's framing: winner determination first, then a
//! "very simple computation" per pricing scheme).
//!
//! * [`PricingScheme::PayYourBid`] — first-price: advertisers pay exactly
//!   what their realised formulas bid. This is the accounting assumption of
//!   the winner-determination objective itself.
//! * [`PricingScheme::Gsp`] — the §V "slight generalization of generalized
//!   second-pricing": the winner of slot `j` pays, **per click**, the
//!   per-click-equivalent bid of the best *losing* candidate for slot `j`,
//!   capped at the winner's own per-click equivalent. In the classical
//!   single-feature separable setting this degenerates to textbook GSP.
//! * [`PricingScheme::Vickrey`] — VCG: each winner pays the externality it
//!   imposes, computed exactly by re-solving the matching without the
//!   winner. Charged per auction (not per click), as in Clarke–Groves.

use ssa_matching::{max_weight_assignment, Assignment, RetainedOrder, RevenueMatrix};

/// Which pricing rule the engine applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingScheme {
    /// Advertisers pay their realised bids (first price).
    PayYourBid,
    /// Generalised second pricing, charged per click.
    Gsp,
    /// Vickrey–Clarke–Groves, charged per auction.
    Vickrey,
}

impl std::fmt::Display for PricingScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PricingScheme::PayYourBid => "pay-your-bid",
            PricingScheme::Gsp => "gsp",
            PricingScheme::Vickrey => "vcg",
        })
    }
}

/// Error returned when parsing a [`PricingScheme`] from its CLI name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePricingError {
    /// The name matched none of the accepted scheme names or aliases.
    UnknownScheme(String),
}

impl std::fmt::Display for ParsePricingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParsePricingError::UnknownScheme(name) => write!(
                f,
                "unknown pricing scheme {name:?} (expected pay-your-bid, gsp, or vcg)"
            ),
        }
    }
}

impl std::error::Error for ParsePricingError {}

impl std::str::FromStr for PricingScheme {
    type Err = ParsePricingError;

    /// Parses the [`Display`](std::fmt::Display) names plus common aliases
    /// (`first-price`, `vickrey`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pay-your-bid" | "first-price" | "first" => Ok(PricingScheme::PayYourBid),
            "gsp" => Ok(PricingScheme::Gsp),
            "vcg" | "vickrey" => Ok(PricingScheme::Vickrey),
            other => Err(ParsePricingError::UnknownScheme(other.to_string())),
        }
    }
}

/// Price attached to a slot for this auction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotPrice {
    /// Slot index (zero-based).
    pub slot: usize,
    /// Winning advertiser.
    pub winner: usize,
    /// For [`PricingScheme::Gsp`]: price per click (in cents, fractional).
    /// For [`PricingScheme::Vickrey`]: lump-sum payment for the auction.
    pub amount: f64,
}

/// GSP prices: for each filled slot, the expected-revenue of the best
/// **unassigned** advertiser for that slot, converted to a per-click price
/// via the winner's click probability and capped by the winner's own
/// per-click equivalent.
///
/// `p_click(winner, slot)` is supplied by the caller so that this module
/// stays independent of the probability model representation.
pub fn gsp_prices(
    matrix: &RevenueMatrix,
    assignment: &Assignment,
    p_click: &dyn Fn(usize, usize) -> f64,
) -> Vec<SlotPrice> {
    let assigned = assignment.adv_to_slot(matrix.num_advertisers());
    let mut prices = Vec::new();
    let seated = |adv: usize| assigned[adv].is_some();
    gsp_prices_into(matrix, assignment, seated, p_click, &mut prices);
    prices
}

/// In-place variant of [`gsp_prices`] for the batched pipeline: takes
/// `seated(adv)`, whether the assignment seats row `adv` (which hot paths
/// answer from the inverse map they already maintain as scratch), and
/// writes into `prices` (cleared first), so pricing performs no
/// per-auction allocation.
pub fn gsp_prices_into(
    matrix: &RevenueMatrix,
    assignment: &Assignment,
    seated: impl Fn(usize) -> bool,
    p_click: &dyn Fn(usize, usize) -> f64,
    prices: &mut Vec<SlotPrice>,
) {
    let n = matrix.num_advertisers();
    prices.clear();
    for (slot, winner) in assignment.slot_to_adv.iter().enumerate() {
        let Some(winner) = *winner else { continue };
        // Best losing expected revenue for this slot.
        let mut runner_up = 0.0f64;
        for adv in 0..n {
            if !seated(adv) {
                let w = matrix.get(adv, slot);
                if w.is_finite() && w > runner_up {
                    runner_up = w;
                }
            }
        }
        prices.push(SlotPrice {
            slot,
            winner,
            amount: gsp_per_click(runner_up, matrix.get(winner, slot), p_click(winner, slot)),
        });
    }
}

/// The GSP per-click price of one slot: the best losing expected revenue
/// `runner_up` over the winner's click probability `p`, capped by the
/// winner's own per-click equivalent (`own` = its weight for the slot).
fn gsp_per_click(runner_up: f64, own: f64, p: f64) -> f64 {
    if p > 0.0 {
        (runner_up / p).min(own.max(0.0) / p).max(0.0)
    } else {
        0.0
    }
}

/// [`gsp_prices_into`] without the matrix: the runner-up of a slot is read
/// off that slot's retained order and the winner's own weight comes from
/// `weight(winner, slot)`. The best unassigned row of a column is among its
/// top `k + 1` — an assignment seats at most `k` — and `order` lists at
/// least that many best first, so the first unassigned entry is the one the
/// full scan would settle on; the prices agree bit for bit.
pub fn gsp_prices_from_order_into(
    order: &RetainedOrder,
    weight: &dyn Fn(usize, usize) -> f64,
    assignment: &Assignment,
    seated: impl Fn(usize) -> bool,
    p_click: &dyn Fn(usize, usize) -> f64,
    prices: &mut Vec<SlotPrice>,
) {
    prices.clear();
    for (slot, winner) in assignment.slot_to_adv.iter().enumerate() {
        let Some(winner) = *winner else { continue };
        let runner_up = order
            .top(slot)
            .iter()
            .find(|(adv, _)| !seated(*adv))
            .map_or(0.0, |&(_, w)| if w > 0.0 { w } else { 0.0 });
        prices.push(SlotPrice {
            slot,
            winner,
            amount: gsp_per_click(runner_up, weight(winner, slot), p_click(winner, slot)),
        });
    }
}

/// Exact VCG payments: for each winner `i`,
/// `payment(i) = welfare(others | i absent) − welfare(others | chosen)`.
///
/// `welfare(others | chosen)` is the total matching weight minus `i`'s own
/// edge. Removing an advertiser is implemented by re-solving the matching
/// on the matrix with `i`'s row excluded — `O(k)` extra matchings overall
/// since only winners need prices.
pub fn vcg_prices(matrix: &RevenueMatrix, assignment: &Assignment) -> Vec<SlotPrice> {
    let n = matrix.num_advertisers();
    let mut prices = Vec::new();
    for (slot, winner) in assignment.slot_to_adv.iter().enumerate() {
        let Some(winner) = *winner else { continue };
        // Matrix without the winner.
        let others: Vec<usize> = (0..n).filter(|&i| i != winner).collect();
        let reduced = matrix.restrict_advertisers(&others);
        let without = max_weight_assignment(&reduced).total_weight;
        let own_edge = matrix.get(winner, slot);
        let others_with = assignment.total_weight - own_edge;
        let payment = (without - others_with).max(0.0);
        prices.push(SlotPrice {
            slot,
            winner,
            amount: payment,
        });
    }
    prices
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_matching::max_weight_assignment;

    #[test]
    fn pricing_scheme_display_round_trips() {
        for scheme in [
            PricingScheme::PayYourBid,
            PricingScheme::Gsp,
            PricingScheme::Vickrey,
        ] {
            assert_eq!(scheme.to_string().parse::<PricingScheme>(), Ok(scheme));
        }
        assert_eq!("Vickrey".parse(), Ok(PricingScheme::Vickrey));
        assert_eq!("FIRST-PRICE".parse(), Ok(PricingScheme::PayYourBid));
        assert_eq!(
            "dutch".parse::<PricingScheme>(),
            Err(ParsePricingError::UnknownScheme("dutch".into()))
        );
        let err: Box<dyn std::error::Error> =
            Box::new("dutch".parse::<PricingScheme>().expect_err("must fail"));
        assert!(err.to_string().contains("dutch"));
    }

    /// Classical single-feature setting: separable clicks, per-click bids.
    /// GSP must reduce to "pay the next-highest bid".
    #[test]
    fn gsp_reduces_to_textbook_in_separable_case() {
        // Slot factors 0.2 / 0.1; advertiser factor 1; bids 10, 8, 5.
        let bids = [10.0, 8.0, 5.0];
        let slot_factors = [0.2, 0.1];
        let matrix = RevenueMatrix::from_fn(3, 2, |i, j| bids[i] * slot_factors[j]);
        let a = max_weight_assignment(&matrix);
        assert_eq!(a.slot_to_adv, vec![Some(0), Some(1)]);
        let prices = gsp_prices(&matrix, &a, &|_, j| slot_factors[j]);
        // Winner of slot 1 (bid 10) pays the best loser's bid = 5?? No:
        // textbook GSP charges the next-highest *bid*; with only advertiser
        // 2 losing, both winners pay 5 per click.
        assert_eq!(prices.len(), 2);
        assert!((prices[0].amount - 5.0).abs() < 1e-9);
        assert!((prices[1].amount - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gsp_capped_by_own_bid() {
        // Loser has a larger expected revenue for slot 0 than the winner
        // could ever pay per click (winner excluded there by weights).
        let matrix = RevenueMatrix::from_rows(&[
            vec![2.0, 1.9], // winner overall
            vec![1.95, 0.0],
        ]);
        let a = max_weight_assignment(&matrix);
        let prices = gsp_prices(&matrix, &a, &|_, _| 1.0);
        for p in prices {
            let own = matrix.get(p.winner, p.slot);
            assert!(p.amount <= own + 1e-9, "price exceeds own bid equivalent");
        }
    }

    #[test]
    fn gsp_zero_when_no_losers() {
        let matrix = RevenueMatrix::from_rows(&[vec![5.0, 2.0], vec![4.0, 3.0]]);
        let a = max_weight_assignment(&matrix);
        let prices = gsp_prices(&matrix, &a, &|_, _| 0.5);
        assert!(prices.iter().all(|p| p.amount == 0.0));
    }

    /// Reading the runner-up off the retained order gives the prices the
    /// full scan gives, bit for bit — with ties, excluded rows, non-positive
    /// weights and fewer rows than slots.
    #[test]
    fn gsp_from_the_retained_order_matches_the_full_scan() {
        use ssa_matching::EXCLUDED;
        let values = [7.0, 7.0, 3.5, 0.0, -0.0, -2.0, 12.25, EXCLUDED];
        let mut state = 0xC0FFEEu64;
        let mut next = move |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % m
        };
        for (n, k) in [(1, 2), (3, 3), (9, 2), (40, 3), (40, 1)] {
            for _ in 0..20 {
                let excluded_row = next(n);
                let matrix = RevenueMatrix::from_fn(n, k, |i, _| {
                    if i == excluded_row {
                        EXCLUDED
                    } else {
                        values[next(values.len())]
                    }
                });
                let mut order = RetainedOrder::new(k);
                let mut row = vec![0.0; k];
                for i in 0..n {
                    for (j, w) in row.iter_mut().enumerate() {
                        *w = matrix.get(i, j);
                    }
                    order.update(i, &row);
                }
                let assignment = max_weight_assignment(&matrix);
                let p_click = |adv: usize, slot: usize| [0.5, 0.0, 0.25][(adv + slot) % 3];
                let want = gsp_prices(&matrix, &assignment, &p_click);
                let mut got = Vec::new();
                let assigned = assignment.adv_to_slot(n);
                gsp_prices_from_order_into(
                    &order,
                    &|adv, slot| matrix.get(adv, slot),
                    &assignment,
                    |adv| assigned[adv].is_some(),
                    &p_click,
                    &mut got,
                );
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.slot, g.winner), (w.slot, w.winner));
                    assert_eq!(g.amount.to_bits(), w.amount.to_bits(), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn vcg_on_figure9() {
        let matrix = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0], // Nike
            vec![8.0, 7.0], // Adidas
            vec![7.0, 6.0], // Reebok
            vec![7.0, 4.0], // Sketchers
        ]);
        let a = max_weight_assignment(&matrix);
        assert_eq!(a.slot_to_adv, vec![Some(0), Some(1)]);
        let prices = vcg_prices(&matrix, &a);
        // Without Nike: best is Adidas→1, Reebok→2 = 14; others-with = 7.
        assert!((prices[0].amount - 7.0).abs() < 1e-9);
        // Without Adidas: Nike→1, Reebok→2 = 15; others-with = 9 → 6.
        assert!((prices[1].amount - 6.0).abs() < 1e-9);
    }

    #[test]
    fn vcg_never_exceeds_bid_and_is_nonnegative() {
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 100) as f64
        };
        for _ in 0..20 {
            let matrix = RevenueMatrix::from_fn(5, 3, |_, _| next());
            let a = max_weight_assignment(&matrix);
            for p in vcg_prices(&matrix, &a) {
                assert!(p.amount >= 0.0);
                assert!(p.amount <= matrix.get(p.winner, p.slot) + 1e-9);
            }
        }
    }
}
