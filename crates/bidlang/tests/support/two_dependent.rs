//! 2-dependent bids and the Theorem 3 reduction.
//!
//! Theorem 3 proves winner determination APX-hard for OR-bids on 2-dependent
//! events by encoding a weighted directed graph as "placed-above" bids: for
//! each arc *(i, i′)* with weight *w*, advertiser *i* bids *w* on the event
//! `E_{i>i'}` — "*i* gets a slot and is placed above *i′*, who may or may not
//! get a slot". Winner determination then equals finding the maximum-weight
//! feedback arc set over all size-*k* subgraphs.
//!
//! This module provides:
//!
//! * [`AboveBid`] — a 2-dependent bid and its event semantics,
//! * [`WeightedDigraph`] and [`encode_digraph`] — the reduction of the proof,
//! * [`solve_exact`] — brute-force winner determination over all
//!   `(n choose k) · k!` assignments (exponential; for validation only),
//! * [`ordering_revenue`] — direct evaluation of an ordering on the digraph,
//! * [`solve_local_search`] — a swap/replace local-search heuristic, the
//!   practical fallback the hardness result motivates.

use super::AdvertiserId;
use ssa_bidlang::{Money, SlotId};

/// A bid of `value` on the event `E_{bidder > other}`: the bidder is placed
/// in some slot, and `other` is either in a strictly lower slot or unplaced.
///
/// This event depends on the placements of exactly two advertisers, so it is
/// 2-dependent in the sense of Definition 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AboveBid {
    /// The advertiser placing (and paying) the bid.
    pub bidder: AdvertiserId,
    /// The competitor the bidder wants to appear above.
    pub other: AdvertiserId,
    /// The amount paid if the event holds.
    pub value: Money,
}

impl AboveBid {
    /// Evaluates the event against a slot assignment
    /// (`slot_of[i]` = slot of advertiser `i`, or `None`).
    pub fn holds(&self, slot_of: &[Option<SlotId>]) -> bool {
        match slot_of[self.bidder.index()] {
            None => false,
            Some(mine) => match slot_of[self.other.index()] {
                None => true,
                Some(theirs) => mine.is_above(theirs),
            },
        }
    }
}

/// Total revenue of a set of above-bids under an assignment, assuming
/// advertisers pay what they bid.
pub fn bids_revenue(bids: &[AboveBid], slot_of: &[Option<SlotId>]) -> Money {
    bids.iter()
        .filter(|b| b.holds(slot_of))
        .map(|b| b.value)
        .sum()
}

/// A weighted directed graph on `n` advertisers; `weight[i][j]` is the value
/// advertiser `i` attaches to appearing above advertiser `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedDigraph {
    weights: Vec<Vec<Money>>,
}

impl WeightedDigraph {
    /// Creates a graph with `n` vertices and all-zero weights.
    pub fn new(n: usize) -> Self {
        WeightedDigraph {
            weights: vec![vec![Money::ZERO; n]; n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Sets the weight of arc `(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops (`from == to`) — `E_{i>i}` is not a meaningful
    /// event — or negative weights.
    pub fn set_weight(&mut self, from: AdvertiserId, to: AdvertiserId, w: Money) {
        assert_ne!(from, to, "self-loops are not expressible as above-bids");
        assert!(w >= Money::ZERO, "arc weights must be non-negative");
        self.weights[from.index()][to.index()] = w;
    }
}

/// The Theorem 3 encoding: each positive-weight arc `(i, i′)` becomes a bid
/// by `i` of that weight on `E_{i>i'}`.
pub fn encode_digraph(graph: &WeightedDigraph) -> Vec<AboveBid> {
    let n = graph.len();
    let mut bids = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let w = graph.weights[i][j];
            if w.is_positive() {
                bids.push(AboveBid {
                    bidder: AdvertiserId::from(i),
                    other: AdvertiserId::from(j),
                    value: w,
                });
            }
        }
    }
    bids
}

/// Revenue of placing `ordering[0]` in slot 1, `ordering[1]` in slot 2, …
/// computed **directly on the digraph**: each placed advertiser collects the
/// weight of its arcs to every advertiser placed later or not placed at all.
///
/// This is the "maximum weighted feedback arc set over size-k subgraphs"
/// objective of the Theorem 3 proof.
pub fn ordering_revenue(graph: &WeightedDigraph, ordering: &[AdvertiserId]) -> Money {
    let mut total = Money::ZERO;
    for (pos, &a) in ordering.iter().enumerate() {
        for other in 0..graph.len() {
            if other == a.index() {
                continue;
            }
            // `other` is below `a` iff it appears strictly later in the
            // ordering or not at all.
            let above = ordering[..=pos].iter().any(|&x| x.index() == other);
            if !above {
                total += graph.weights[a.index()][other];
            }
        }
    }
    total
}

/// Result of an exact or heuristic 2-dependent winner determination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoDependentSolution {
    /// The chosen ordering: `ordering[j]` occupies slot `j+1`. May be shorter
    /// than `k` if fewer advertisers than slots exist.
    pub ordering: Vec<AdvertiserId>,
    /// The revenue achieved, assuming advertisers pay what they bid.
    pub revenue: Money,
}

impl TwoDependentSolution {
    /// Converts the ordering into a `slot_of` assignment over `n`
    /// advertisers.
    pub fn slot_assignment(&self, n: usize) -> Vec<Option<SlotId>> {
        let mut slot_of = vec![None; n];
        for (j, a) in self.ordering.iter().enumerate() {
            slot_of[a.index()] = Some(SlotId::from_index0(j));
        }
        slot_of
    }
}

/// Exact winner determination for above-bids by brute force over all
/// `(n choose k) · k!` ordered selections.
///
/// Exponential — Theorem 3 says nothing substantially better exists — so this
/// is intended for validation on small instances. Guarded to `n ≤ 12`.
pub fn solve_exact(bids: &[AboveBid], n: usize, k: u16) -> TwoDependentSolution {
    assert!(n <= 12, "brute-force solver is restricted to n ≤ 12");
    let k = usize::from(k).min(n);
    let mut best = TwoDependentSolution {
        ordering: Vec::new(),
        revenue: Money::ZERO,
    };
    let mut current: Vec<AdvertiserId> = Vec::with_capacity(k);
    let mut used = vec![false; n];
    fn recurse(
        bids: &[AboveBid],
        n: usize,
        k: usize,
        current: &mut Vec<AdvertiserId>,
        used: &mut Vec<bool>,
        best: &mut TwoDependentSolution,
    ) {
        // Evaluate every prefix too: leaving slots empty is allowed.
        let slot_of = {
            let mut s = vec![None; n];
            for (j, a) in current.iter().enumerate() {
                s[a.index()] = Some(SlotId::from_index0(j));
            }
            s
        };
        let revenue = bids_revenue(bids, &slot_of);
        if revenue > best.revenue {
            *best = TwoDependentSolution {
                ordering: current.clone(),
                revenue,
            };
        }
        if current.len() == k {
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                current.push(AdvertiserId::from(i));
                recurse(bids, n, k, current, used, best);
                current.pop();
                used[i] = false;
            }
        }
    }
    recurse(bids, n, k, &mut current, &mut used, &mut best);
    best
}

/// Local-search heuristic for 2-dependent winner determination: greedy
/// construction followed by best-improvement swap / replace moves.
///
/// Theorem 3 rules out exact polynomial algorithms (unless P = NP); this is
/// the pragmatic alternative a provider could deploy. Runs in
/// `O(iterations · n · k)` per improvement round.
pub fn solve_local_search(
    graph: &WeightedDigraph,
    k: u16,
    max_rounds: usize,
) -> TwoDependentSolution {
    let n = graph.len();
    let k = usize::from(k).min(n);
    // Multi-start: once with a free greedy choice, then once per forced
    // first pick. Local optima of the move set below depend heavily on who
    // sits in slot 1, so restarting over slot-1 candidates is the cheapest
    // effective diversification (O(n) restarts of an O(n·k) search).
    let mut best = local_search_from(graph, k, max_rounds, None);
    for first in 0..n {
        let candidate = local_search_from(graph, k, max_rounds, Some(AdvertiserId::from(first)));
        if candidate.revenue > best.revenue {
            best = candidate;
        }
    }
    best
}

fn local_search_from(
    graph: &WeightedDigraph,
    k: usize,
    max_rounds: usize,
    forced_first: Option<AdvertiserId>,
) -> TwoDependentSolution {
    let n = graph.len();
    // Greedy: repeatedly append the advertiser with the largest marginal gain.
    let mut ordering: Vec<AdvertiserId> = Vec::with_capacity(k);
    let mut used = vec![false; n];
    if let Some(first) = forced_first {
        if k > 0 {
            used[first.index()] = true;
            ordering.push(first);
        }
    }
    while ordering.len() < k {
        let mut best_gain = Money::ZERO;
        let mut best_adv = None;
        #[allow(clippy::needless_range_loop)] // `i` indexes both `used` and ids
        for i in 0..n {
            if used[i] {
                continue;
            }
            ordering.push(AdvertiserId::from(i));
            let gain = ordering_revenue(graph, &ordering);
            ordering.pop();
            if best_adv.is_none() || gain > best_gain {
                best_gain = gain;
                best_adv = Some(i);
            }
        }
        let Some(i) = best_adv else { break };
        used[i] = true;
        ordering.push(AdvertiserId::from(i));
    }
    let mut revenue = ordering_revenue(graph, &ordering);

    for _ in 0..max_rounds {
        let mut improved = false;
        // Swap moves: exchange two placed advertisers.
        for a in 0..ordering.len() {
            for b in (a + 1)..ordering.len() {
                ordering.swap(a, b);
                let r = ordering_revenue(graph, &ordering);
                if r > revenue {
                    revenue = r;
                    improved = true;
                } else {
                    ordering.swap(a, b);
                }
            }
        }
        // Replace moves: substitute a placed advertiser with an unplaced one.
        for pos in 0..ordering.len() {
            for i in 0..n {
                if used[i] {
                    continue;
                }
                let old = ordering[pos];
                ordering[pos] = AdvertiserId::from(i);
                let r = ordering_revenue(graph, &ordering);
                if r > revenue {
                    revenue = r;
                    used[old.index()] = false;
                    used[i] = true;
                    improved = true;
                } else {
                    ordering[pos] = old;
                }
            }
        }
        // Insert moves: insert an unplaced advertiser at any position,
        // evicting the bottom advertiser if the page is full. This compound
        // move escapes local optima that single swaps / replaces cannot
        // (e.g. when the optimum needs a new advertiser *above* the current
        // winners).
        for pos in 0..=ordering.len() {
            for i in 0..n {
                if used[i] {
                    continue;
                }
                let mut candidate = ordering.clone();
                candidate.insert(pos.min(candidate.len()), AdvertiserId::from(i));
                let evicted = if candidate.len() > k {
                    candidate.pop()
                } else {
                    None
                };
                let r = ordering_revenue(graph, &candidate);
                if r > revenue {
                    revenue = r;
                    used[i] = true;
                    if let Some(e) = evicted {
                        used[e.index()] = false;
                    }
                    ordering = candidate;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    TwoDependentSolution { ordering, revenue }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adv(i: usize) -> AdvertiserId {
        AdvertiserId::from(i)
    }

    #[test]
    fn above_bid_semantics() {
        let bid = AboveBid {
            bidder: adv(0),
            other: adv(1),
            value: Money::from_cents(3),
        };
        // Bidder above other.
        let s = vec![Some(SlotId::new(1)), Some(SlotId::new(2))];
        assert!(bid.holds(&s));
        // Bidder below other.
        let s = vec![Some(SlotId::new(2)), Some(SlotId::new(1))];
        assert!(!bid.holds(&s));
        // Other unplaced: event still holds ("who may or may not get a slot").
        let s = vec![Some(SlotId::new(1)), None];
        assert!(bid.holds(&s));
        // Bidder unplaced: event fails.
        let s = vec![None, Some(SlotId::new(1))];
        assert!(!bid.holds(&s));
    }

    #[test]
    fn encode_skips_zero_arcs() {
        let mut g = WeightedDigraph::new(3);
        g.set_weight(adv(0), adv(1), Money::from_cents(5));
        g.set_weight(adv(2), adv(0), Money::from_cents(2));
        let bids = encode_digraph(&g);
        assert_eq!(bids.len(), 2);
    }

    #[test]
    fn exact_matches_direct_objective_on_triangle() {
        // 0 → 1 (5), 1 → 2 (4), 2 → 0 (3): a weighted cycle; with k = 2 the
        // best is to place the endpoints of the heaviest "path".
        let mut g = WeightedDigraph::new(3);
        g.set_weight(adv(0), adv(1), Money::from_cents(5));
        g.set_weight(adv(1), adv(2), Money::from_cents(4));
        g.set_weight(adv(2), adv(0), Money::from_cents(3));
        let bids = encode_digraph(&g);
        let sol = solve_exact(&bids, 3, 2);
        assert_eq!(sol.revenue, ordering_revenue(&g, &sol.ordering));
        // Best: place 0 then 1 → 0 collects w(0,1)=5 (1 below) and nothing
        // from 2 (2 unplaced counts as below: w(0,2)=0), 1 collects
        // w(1,2)=4 → 9.
        assert_eq!(sol.revenue.cents(), 9);
    }

    #[test]
    fn exact_can_leave_slots_empty() {
        // Only one profitable advertiser; filling further slots is harmless
        // but the empty-prefix evaluation must not crash and the optimum must
        // be found.
        let mut g = WeightedDigraph::new(2);
        g.set_weight(adv(0), adv(1), Money::from_cents(7));
        let bids = encode_digraph(&g);
        let sol = solve_exact(&bids, 2, 2);
        assert_eq!(sol.revenue.cents(), 7);
        assert_eq!(sol.ordering[0], adv(0));
    }

    #[test]
    fn local_search_reaches_exact_on_small_instances() {
        let mut g = WeightedDigraph::new(5);
        let weights = [
            (0, 1, 4),
            (1, 0, 2),
            (2, 3, 9),
            (3, 4, 1),
            (4, 2, 6),
            (0, 4, 3),
        ];
        for (a, b, w) in weights {
            g.set_weight(adv(a), adv(b), Money::from_cents(w));
        }
        let exact = solve_exact(&encode_digraph(&g), 5, 3);
        let heuristic = solve_local_search(&g, 3, 50);
        assert!(heuristic.revenue <= exact.revenue);
        // On this instance local search finds the optimum.
        assert_eq!(heuristic.revenue, exact.revenue);
    }

    #[test]
    fn slot_assignment_roundtrip() {
        let sol = TwoDependentSolution {
            ordering: vec![adv(2), adv(0)],
            revenue: Money::ZERO,
        };
        let s = sol.slot_assignment(3);
        assert_eq!(s[2], Some(SlotId::new(1)));
        assert_eq!(s[0], Some(SlotId::new(2)));
        assert_eq!(s[1], None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = WeightedDigraph::new(2);
        g.set_weight(adv(0), adv(0), Money::from_cents(1));
    }
}
