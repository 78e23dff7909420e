//! The heavyweight/lightweight model of Section III-F.
//!
//! Advertisers are classified as *heavyweights* (famous) or *lightweights*.
//! Click probabilities may now depend on the advertiser's own slot **and**
//! on which slots hold heavyweights; bids may mention `HeavySlotj`
//! predicates. Winner determination enumerates all `2^k` choices of
//! heavyweight slots; for each choice the problem splits into two disjoint
//! maximum-weight matchings (heavies → heavy slots, lights → light slots),
//! solvable independently and in parallel.
//!
//! The representation is `O(k·2^k)` per advertiser and the solver runs in
//! `O(2^k (n log k + k⁵))` sequentially, or with the pattern loop spread
//! over threads — the thread count is independent of `n`, matching the
//! paper's claim.

use crate::prob::PurchaseModel;
use ssa_bidlang::{AdvertiserView, BidsTable, HeavyPattern, SlotId};
use ssa_matching::{max_weight_assignment, RevenueMatrix};

/// Click probabilities that depend on the heavyweight pattern:
/// `p(click | advertiser, slot, pattern)`.
#[derive(Debug, Clone)]
pub struct PatternClickModel {
    n: usize,
    k: usize,
    // [adv * k * 2^k + slot * 2^k + pattern]
    p: Vec<f64>,
}

impl PatternClickModel {
    /// Builds the full `n × k × 2^k` table from a function.
    ///
    /// # Panics
    ///
    /// Panics if `k > 16` (the table would not fit in memory) or any value
    /// is not a probability.
    pub fn from_fn(
        n: usize,
        k: usize,
        mut f: impl FnMut(usize, usize, HeavyPattern) -> f64,
    ) -> Self {
        assert!(k <= 16, "pattern click models are limited to k ≤ 16");
        let patterns = 1usize << k;
        let mut p = Vec::with_capacity(n * k * patterns);
        for adv in 0..n {
            for slot in 0..k {
                for pat in 0..patterns {
                    let v = f(adv, slot, HeavyPattern(pat as u32));
                    assert!((0.0..=1.0).contains(&v), "p out of range: {v}");
                    p.push(v);
                }
            }
        }
        PatternClickModel { n, k, p }
    }

    /// Number of advertisers.
    pub fn num_advertisers(&self) -> usize {
        self.n
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.k
    }

    /// P(click | `adv` in `slot`, page pattern `pattern`).
    #[inline]
    pub fn p_click(&self, adv: usize, slot: SlotId, pattern: HeavyPattern) -> f64 {
        let patterns = 1usize << self.k;
        self.p[adv * self.k * patterns + slot.index0() * patterns + pattern.0 as usize]
    }
}

/// A Section III-F winner-determination instance.
#[derive(Debug, Clone)]
pub struct HeavyweightInstance {
    /// `is_heavy[i]`: is advertiser `i` a heavyweight? (The paper suggests
    /// classifying by historical clicks.)
    pub is_heavy: Vec<bool>,
    /// Pattern-dependent click model.
    pub clicks: PatternClickModel,
    /// Purchase model (conditional on click and slot, pattern-independent).
    pub purchases: PurchaseModel,
    /// Bids; may mention `HeavySlotj`, `Slotj`, `Click`, `Purchase`.
    pub bids: Vec<BidsTable>,
}

/// An optimal heavyweight-aware allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyweightSolution {
    /// Which slots ended up heavyweight.
    pub pattern: HeavyPattern,
    /// The allocation.
    pub slot_to_adv: Vec<Option<usize>>,
    /// Its expected revenue.
    pub expected_revenue: f64,
}

/// Expected revenue of `adv` in `slot` under a fixed page pattern.
fn pattern_expected_revenue(
    instance: &HeavyweightInstance,
    adv: usize,
    slot: SlotId,
    pattern: HeavyPattern,
) -> f64 {
    let p_click = instance.clicks.p_click(adv, slot, pattern);
    let mut total = 0.0;
    for clicked in [false, true] {
        let p_c = if clicked { p_click } else { 1.0 - p_click };
        if p_c == 0.0 {
            continue;
        }
        let p_purchase = instance.purchases.p_purchase(adv, slot, clicked);
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
                heavy_pattern: Some(pattern),
            };
            total += p * instance.bids[adv].payment(&view).as_f64();
        }
    }
    total
}

/// Revenue from an unplaced advertiser under a pattern (heavy-slot formulas
/// still pay).
fn pattern_no_slot_revenue(
    instance: &HeavyweightInstance,
    adv: usize,
    pattern: HeavyPattern,
) -> f64 {
    let view = AdvertiserView {
        slot: None,
        clicked: false,
        purchased: false,
        heavy_pattern: Some(pattern),
    };
    instance.bids[adv].payment(&view).as_f64()
}

/// Shift large enough to force heavy slots to be filled whenever feasible,
/// without distorting the comparison between fillings.
const FILL_BONUS: f64 = 1e9;

/// Solves one pattern; returns `None` when the pattern is infeasible (some
/// designated heavy slot cannot be filled by a heavyweight). Infeasible and
/// unfilled patterns are safely skipped: the allocation they would have
/// produced occurs in the iteration of its *actual* induced pattern.
fn solve_pattern(
    instance: &HeavyweightInstance,
    pattern: HeavyPattern,
) -> Option<HeavyweightSolution> {
    let n = instance.is_heavy.len();
    let k = instance.clicks.num_slots();
    let heavies: Vec<usize> = (0..n).filter(|&i| instance.is_heavy[i]).collect();
    let lights: Vec<usize> = (0..n).filter(|&i| !instance.is_heavy[i]).collect();
    let heavy_slots: Vec<usize> = (0..k)
        .filter(|&j| pattern.is_heavy(SlotId::from_index0(j)))
        .collect();
    let light_slots: Vec<usize> = (0..k)
        .filter(|&j| !pattern.is_heavy(SlotId::from_index0(j)))
        .collect();
    if heavies.len() < heavy_slots.len() {
        return None; // not enough heavyweights to realise the pattern
    }

    let base: Vec<f64> = (0..n)
        .map(|i| pattern_no_slot_revenue(instance, i, pattern))
        .collect();
    let total_base: f64 = base.iter().sum();

    // Heavy side: matching must *fill* every heavy slot (otherwise the slot
    // would not actually be heavyweight); the FILL_BONUS makes maximum
    // cardinality dominate.
    let mut heavy_total = 0.0;
    let mut slot_to_adv = vec![None; k];
    if !heavy_slots.is_empty() {
        let hm = RevenueMatrix::from_fn(heavies.len(), heavy_slots.len(), |hi, hj| {
            let adv = heavies[hi];
            let slot = SlotId::from_index0(heavy_slots[hj]);
            pattern_expected_revenue(instance, adv, slot, pattern) - base[adv] + FILL_BONUS
        });
        let ha = max_weight_assignment(&hm);
        for (hj, adv_local) in ha.slot_to_adv.iter().enumerate() {
            let Some(local) = *adv_local else {
                return None; // could not fill all heavy slots
            };
            let adv = heavies[local];
            slot_to_adv[heavy_slots[hj]] = Some(adv);
            let slot = SlotId::from_index0(heavy_slots[hj]);
            heavy_total += pattern_expected_revenue(instance, adv, slot, pattern) - base[adv];
        }
    }

    // Light side: ordinary partial matching (empty light slots are fine).
    let mut light_total = 0.0;
    if !light_slots.is_empty() && !lights.is_empty() {
        let lm = RevenueMatrix::from_fn(lights.len(), light_slots.len(), |li, lj| {
            let adv = lights[li];
            let slot = SlotId::from_index0(light_slots[lj]);
            pattern_expected_revenue(instance, adv, slot, pattern) - base[adv]
        });
        let la = max_weight_assignment(&lm);
        for (lj, adv_local) in la.slot_to_adv.iter().enumerate() {
            if let Some(local) = adv_local {
                slot_to_adv[light_slots[lj]] = Some(lights[*local]);
            }
        }
        light_total = la.total_weight;
    }

    Some(HeavyweightSolution {
        pattern,
        slot_to_adv,
        expected_revenue: total_base + heavy_total + light_total,
    })
}

/// Exact winner determination for the heavyweight model: enumerate all
/// `2^k` patterns (optionally across `threads` threads) and keep the best.
/// A worker's panic resumes on the caller's thread.
// Invariant: the empty pattern designates no heavy slot, so it is always
// feasible and `best` is never `None`.
#[allow(clippy::expect_used)]
pub fn solve_heavyweight(instance: &HeavyweightInstance, threads: usize) -> HeavyweightSolution {
    let k = instance.clicks.num_slots();
    assert_eq!(instance.is_heavy.len(), instance.bids.len());
    assert_eq!(instance.clicks.num_advertisers(), instance.bids.len());
    let patterns: Vec<HeavyPattern> = HeavyPattern::all(k as u16).collect();
    let best = if threads <= 1 {
        patterns
            .iter()
            .filter_map(|&p| solve_pattern(instance, p))
            .max_by(|a, b| a.expected_revenue.total_cmp(&b.expected_revenue))
    } else {
        let chunk = patterns.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = patterns
                .chunks(chunk)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .filter_map(|&p| solve_pattern(instance, p))
                            .max_by(|a, b| a.expected_revenue.total_cmp(&b.expected_revenue))
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .max_by(|a, b| a.expected_revenue.total_cmp(&b.expected_revenue))
        })
    };
    best.expect("the empty pattern is always feasible")
}

/// Brute-force reference: enumerate every assignment, derive its induced
/// pattern, and score it. Exponential; for validation only (`n ≤ 6`,
/// `k ≤ 3`).
// Invariant: the assignment leaving every slot empty is always scored, so
// `best` is never `None`.
#[allow(clippy::expect_used)]
pub fn brute_force_heavyweight(instance: &HeavyweightInstance) -> HeavyweightSolution {
    let n = instance.is_heavy.len();
    let k = instance.clicks.num_slots();
    assert!(n <= 6 && k <= 3, "brute force limited to tiny instances");

    let mut best: Option<HeavyweightSolution> = None;
    let mut slots: Vec<Option<usize>> = vec![None; k];
    let mut used = vec![false; n];

    fn score(instance: &HeavyweightInstance, slots: &[Option<usize>]) -> (HeavyPattern, f64) {
        let pattern = HeavyPattern::from_slots(slots.iter().enumerate().filter_map(|(j, a)| {
            a.and_then(|adv| instance.is_heavy[adv].then(|| SlotId::from_index0(j)))
        }));
        let n = instance.is_heavy.len();
        let placed: Vec<bool> = {
            let mut p = vec![false; n];
            for a in slots.iter().flatten() {
                p[*a] = true;
            }
            p
        };
        let mut total = 0.0;
        for (j, a) in slots.iter().enumerate() {
            if let Some(adv) = a {
                total += pattern_expected_revenue(instance, *adv, SlotId::from_index0(j), pattern);
            }
        }
        #[allow(clippy::needless_range_loop)] // indexes `placed` and the model
        for adv in 0..n {
            if !placed[adv] {
                total += pattern_no_slot_revenue(instance, adv, pattern);
            }
        }
        (pattern, total)
    }

    fn recurse(
        instance: &HeavyweightInstance,
        j: usize,
        slots: &mut Vec<Option<usize>>,
        used: &mut Vec<bool>,
        best: &mut Option<HeavyweightSolution>,
    ) {
        let k = slots.len();
        if j == k {
            let (pattern, revenue) = score(instance, slots);
            if best
                .as_ref()
                .map(|b| revenue > b.expected_revenue)
                .unwrap_or(true)
            {
                *best = Some(HeavyweightSolution {
                    pattern,
                    slot_to_adv: slots.clone(),
                    expected_revenue: revenue,
                });
            }
            return;
        }
        slots[j] = None;
        recurse(instance, j + 1, slots, used, best);
        for adv in 0..instance.is_heavy.len() {
            if !used[adv] {
                used[adv] = true;
                slots[j] = Some(adv);
                recurse(instance, j + 1, slots, used, best);
                slots[j] = None;
                used[adv] = false;
            }
        }
    }

    recurse(instance, 0, &mut slots, &mut used, &mut best);
    best.expect("at least the empty assignment exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_bidlang::{Formula, Money};

    /// Builds a small instance where a lightweight pays extra to avoid a
    /// heavyweight directly above (the paper's motivating example).
    fn small_instance() -> HeavyweightInstance {
        let n = 4;
        let k = 2;
        let is_heavy = vec![true, false, false, true];
        // Clicks drop for lightweights when slot 1 holds a heavyweight.
        let clicks = PatternClickModel::from_fn(n, k, |adv, slot, pattern| {
            let base = [0.6, 0.5, 0.4, 0.55][adv] / (slot + 1) as f64;
            if !is_heavy_static(adv) && pattern.is_heavy(SlotId::new(1)) && slot == 1 {
                base * 0.5 // shadowed by the famous competitor above
            } else {
                base
            }
        });
        fn is_heavy_static(adv: usize) -> bool {
            matches!(adv, 0 | 3)
        }
        let purchases = PurchaseModel::never(n, k);
        let bids = vec![
            BidsTable::single_feature(Money::from_cents(30)),
            // Bids 3¢ extra for slot 2 when slot 1 is NOT heavyweight.
            BidsTable::new(vec![
                (Formula::click(), Money::from_cents(25)),
                (
                    Formula::slot(SlotId::new(2)) & !Formula::heavy_in_slot(SlotId::new(1)),
                    Money::from_cents(3),
                ),
            ]),
            BidsTable::single_feature(Money::from_cents(20)),
            BidsTable::single_feature(Money::from_cents(28)),
        ];
        HeavyweightInstance {
            is_heavy,
            clicks,
            purchases,
            bids,
        }
    }

    #[test]
    fn matches_brute_force() {
        let instance = small_instance();
        let fast = solve_heavyweight(&instance, 1);
        let slow = brute_force_heavyweight(&instance);
        assert!(
            (fast.expected_revenue - slow.expected_revenue).abs() < 1e-9,
            "fast {} vs brute {}",
            fast.expected_revenue,
            slow.expected_revenue
        );
    }

    #[test]
    fn threaded_matches_sequential() {
        let instance = small_instance();
        let seq = solve_heavyweight(&instance, 1);
        let par = solve_heavyweight(&instance, 4);
        assert_eq!(seq.expected_revenue, par.expected_revenue);
        assert_eq!(seq.pattern, par.pattern);
    }

    #[test]
    fn induced_pattern_is_consistent() {
        let instance = small_instance();
        let sol = solve_heavyweight(&instance, 1);
        // Every slot the solution marks heavy holds a heavyweight, and
        // vice versa.
        for j in 0..2 {
            let slot = SlotId::from_index0(j);
            let holds_heavy = sol.slot_to_adv[j]
                .map(|a| instance.is_heavy[a])
                .unwrap_or(false);
            assert_eq!(sol.pattern.is_heavy(slot), holds_heavy);
        }
    }

    #[test]
    fn all_lightweights_still_solvable() {
        let n = 3;
        let k = 2;
        let clicks =
            PatternClickModel::from_fn(n, k, |adv, slot, _| 0.5 / ((adv + 1) * (slot + 1)) as f64);
        let instance = HeavyweightInstance {
            is_heavy: vec![false; n],
            clicks,
            purchases: PurchaseModel::never(n, k),
            bids: vec![BidsTable::single_feature(Money::from_cents(10)); n],
        };
        let sol = solve_heavyweight(&instance, 1);
        assert_eq!(sol.pattern, HeavyPattern::EMPTY);
        let slow = brute_force_heavyweight(&instance);
        assert!((sol.expected_revenue - slow.expected_revenue).abs() < 1e-9);
    }

    #[test]
    fn pattern_click_model_lookup() {
        let m = PatternClickModel::from_fn(1, 2, |_, slot, pat| {
            0.1 * (slot + 1) as f64
                + if pat.is_heavy(SlotId::new(1)) {
                    0.05
                } else {
                    0.0
                }
        });
        assert_eq!(m.p_click(0, SlotId::new(1), HeavyPattern::EMPTY), 0.1);
        assert_eq!(
            m.p_click(
                0,
                SlotId::new(1),
                HeavyPattern::from_slots([SlotId::new(1)])
            ),
            0.15000000000000002
        );
    }
}
