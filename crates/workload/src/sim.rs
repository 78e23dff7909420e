//! The RHTALU reference simulation of Section V.

use crate::config::SectionVWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_bidlang::{Money, SlotId};
use ssa_core::pricing::{gsp_prices_into, SlotPrice};
use ssa_matching::threshold::{threshold_top_k, MaintainedIndex, TaSource};
use ssa_matching::{Assignment, HungarianSolver, RevenueMatrix, WdSolver};
use ssa_strategy::{LogicalRoiPopulation, RoiPopulation};
use std::time::{Duration, Instant};

/// Aggregate counters for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimulationStats {
    /// Auctions run.
    pub auctions: u64,
    /// Sum of winner-determination objectives (expected revenue, cents).
    pub total_expected_revenue: f64,
    /// Realised clicks.
    pub clicks: u64,
    /// Realised GSP revenue (cents).
    pub charged_cents: i64,
    /// Total candidates the threshold algorithm selected ([`Simulation`]
    /// only).
    pub candidates: u64,
    /// Sorted accesses performed by the threshold algorithm ([`Simulation`]
    /// only).
    pub ta_sorted_accesses: u64,
}

/// A [`TaSource`] over one slot: list 0 is the static click-probability
/// index for that slot, list 1 the logically-maintained bid list for the
/// query keyword. The aggregation `w × bid` is monotone in both.
pub struct TaSlotSource<'a> {
    /// Sorted click probabilities for this slot.
    pub w_index: &'a MaintainedIndex,
    /// The logical population holding the bid lists.
    pub population: &'a LogicalRoiPopulation,
    /// The query keyword.
    pub keyword: usize,
}

// Invariant: the threshold algorithm asks only for the lists
// `num_lists` reports.
#[allow(clippy::unreachable)]
impl TaSource for TaSlotSource<'_> {
    fn num_lists(&self) -> usize {
        2
    }
    fn num_objects(&self) -> usize {
        self.w_index.len()
    }
    fn sorted_iter(&self, list: usize) -> Box<dyn Iterator<Item = (usize, f64)> + '_> {
        match list {
            0 => Box::new(self.w_index.iter_desc()),
            1 => Box::new(
                self.population
                    .iter_desc(self.keyword)
                    .map(|(p, b)| (p, b as f64)),
            ),
            _ => unreachable!("two lists"),
        }
    }
    fn random_access(&self, list: usize, object: usize) -> f64 {
        match list {
            0 => self.w_index.value(object),
            1 => self.population.bid_on(object, self.keyword) as f64,
            _ => unreachable!("two lists"),
        }
    }
}

/// Product aggregation used by the RHTALU selection.
pub fn ta_aggregation(values: &[f64]) -> f64 {
    values.iter().product()
}

/// The Section V simulation under RHTALU: per auction, logical updates
/// advance every ROI program, the threshold algorithm selects each slot's
/// best k+1 advertisers, the Hungarian algorithm solves the candidate
/// sub-problem, and GSP prices it. It is the reference the marketplace
/// ([`crate::MarketSimulation`]) is held to under LP, H and RH, and the
/// RHTALU column of Figures 12 and 13.
///
/// The candidate matrix, assignment and price buffers persist across
/// auctions and are refilled in place; the threshold algorithm still
/// returns fresh top-k lists.
pub struct Simulation {
    /// The generated workload.
    pub workload: SectionVWorkload,
    population: LogicalRoiPopulation,
    /// Static per-slot click-probability indexes.
    w_indexes: Vec<MaintainedIndex>,
    /// One user-action RNG stream per keyword, seeded exactly like the
    /// marketplace's ([`ssa_core::keyword_stream_seed`]), so the
    /// marketplace reproduces this reference click for click.
    rngs: Vec<StdRng>,
    auction_idx: usize,
    hungarian: HungarianSolver,
    /// Reused candidate revenue matrix.
    matrix: RevenueMatrix,
    /// Reused candidate-local assignment.
    assignment: Assignment,
    /// Reused candidate ids (global advertiser ids, ascending).
    candidates: Vec<usize>,
    /// Reused "candidate holds a slot" flags for pricing.
    seated: Vec<bool>,
    /// Reused GSP slot-price buffer (candidate-local winners).
    prices: Vec<SlotPrice>,
    /// Counters.
    pub stats: SimulationStats,
}

impl Simulation {
    /// Builds the simulation for the workload.
    pub fn new(workload: SectionVWorkload) -> Self {
        let n = workload.config.num_advertisers;
        let k = workload.config.num_slots;
        let w_indexes = (0..k)
            .map(|j| {
                MaintainedIndex::new(
                    (0..n)
                        .map(|i| workload.clicks.p_click(i, SlotId::from_index0(j)))
                        .collect(),
                )
            })
            .collect();
        let rngs = (0..workload.config.num_keywords)
            .map(|keyword| {
                StdRng::seed_from_u64(ssa_core::keyword_stream_seed(
                    workload.config.seed ^ 0x5EED_CAFE,
                    keyword,
                ))
            })
            .collect();
        Simulation {
            population: LogicalRoiPopulation::new(&workload.bidders),
            workload,
            w_indexes,
            rngs,
            auction_idx: 0,
            hungarian: HungarianSolver::new(),
            matrix: RevenueMatrix::zeros(0, k.max(1)),
            assignment: Assignment::default(),
            candidates: Vec::new(),
            seated: Vec::new(),
            prices: Vec::new(),
            stats: SimulationStats::default(),
        }
    }

    /// Current bid (cents) of `program` on `keyword` — exposed so the
    /// equivalence tests can compare strategy state bid-for-bid against
    /// [`crate::MarketSimulation`].
    pub fn bid_of(&self, program: usize, keyword: usize) -> i64 {
        self.population.bid_on(program, keyword)
    }

    /// Runs one complete auction (program evaluation, winner determination,
    /// click sampling, GSP pricing, strategy feedback). Returns the
    /// winner-determination objective.
    pub fn run_auction(&mut self) -> f64 {
        let keyword =
            self.workload.query_stream[self.auction_idx % self.workload.query_stream.len()];
        self.auction_idx += 1;
        let k = self.workload.config.num_slots;
        self.population.begin_auction(keyword);

        // Threshold-algorithm selection over the logical bid lists.
        self.candidates.clear();
        for w_index in &self.w_indexes {
            let source = TaSlotSource {
                w_index,
                population: &self.population,
                keyword,
            };
            // Top k+1 rather than top k: the winner determination needs k,
            // but exact GSP pricing needs the best *unassigned* competitor
            // per slot, and with at most k advertisers assigned the
            // (k+1)-deep list always contains one.
            let (top, instr) = threshold_top_k(&source, &ta_aggregation, k + 1);
            self.stats.ta_sorted_accesses += instr.sorted_accesses as u64;
            self.candidates.extend(top.into_iter().map(|(id, _)| id));
        }
        self.candidates.sort_unstable();
        self.candidates.dedup();

        // The reduced-graph Hungarian, then GSP within the candidate set.
        let clicks = &self.workload.clicks;
        let (candidates, population) = (&self.candidates, &self.population);
        self.matrix.fill_from_fn(candidates.len(), k, |ci, j| {
            let adv = candidates[ci];
            clicks.p_click(adv, SlotId::from_index0(j)) * population.bid_on(adv, keyword) as f64
        });
        self.hungarian.solve(&self.matrix, &mut self.assignment);
        self.seated.clear();
        self.seated.resize(candidates.len(), false);
        for &ci in self.assignment.slot_to_adv.iter().flatten() {
            self.seated[ci] = true;
        }
        gsp_prices_into(
            &self.matrix,
            &self.assignment,
            |ci| self.seated[ci],
            &|ci, slot| clicks.p_click(candidates[ci], SlotId::from_index0(slot)),
            &mut self.prices,
        );

        // Sample user actions and feed GSP charges back into the strategies.
        for (j, ci) in self.assignment.slot_to_adv.iter().enumerate() {
            let Some(ci) = *ci else { continue };
            let adv = candidates[ci];
            if self.rngs[keyword].gen::<f64>() >= clicks.p_click(adv, SlotId::from_index0(j)) {
                continue;
            }
            self.stats.clicks += 1;
            let per_click = self
                .prices
                .iter()
                .find(|sp| sp.winner == ci)
                .map_or(0.0, |sp| sp.amount);
            let price = Money::from_f64_rounded(per_click);
            if price.is_positive() {
                self.stats.charged_cents += price.cents();
                let value = self.workload.bidders[adv].keywords[keyword].0 as f64;
                self.population.record_click(adv, price, value);
            }
        }

        let objective = self.assignment.total_weight;
        self.stats.auctions += 1;
        self.stats.total_expected_revenue += objective;
        self.stats.candidates += candidates.len() as u64;
        objective
    }

    /// Runs `auctions` auctions, returning the elapsed wall-clock time.
    pub fn run_timed(&mut self, auctions: usize) -> Duration {
        let start = Instant::now();
        for _ in 0..auctions {
            self.run_auction();
        }
        start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SectionVConfig, SectionVWorkload};
    use crate::MarketSimulation;
    use ssa_core::WdMethod;

    fn workload(n: usize, seed: u64) -> SectionVWorkload {
        SectionVWorkload::generate(SectionVConfig {
            num_advertisers: n,
            num_slots: 5,
            num_keywords: 4,
            seed,
        })
    }

    fn market(n: usize, seed: u64, method: WdMethod) -> MarketSimulation {
        MarketSimulation::new(workload(n, seed), method).expect("valid Section V market")
    }

    /// LP, H and RH on the marketplace produce the RHTALU reference's
    /// winner-determination objective on the very first auction
    /// (identical fresh state).
    #[test]
    fn methods_agree_on_first_auction_objective() {
        let reference = Simulation::new(workload(60, 11)).run_auction();
        for method in [WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced] {
            let objective = market(60, 11, method)
                .run_auctions(1)
                .expect("in range")
                .total_expected_revenue;
            assert!(
                (objective - reference).abs() < 1e-6,
                "{method}: {objective} vs RHTALU {reference}"
            );
        }
    }

    /// RH on the marketplace and RHTALU agree auction after auction: same
    /// objective every round even as strategies evolve through clicks and
    /// charges (the RNG streams are identical, and GSP pricing agrees
    /// because the k+1-deep selection always holds each slot's best
    /// unassigned competitor).
    #[test]
    fn rh_and_rhtalu_agree_over_time() {
        let mut rh = market(40, 5, WdMethod::Reduced);
        let mut ta = Simulation::new(workload(40, 5));
        for auction in 0..120 {
            let before = rh.stats.total_expected_revenue;
            let a = rh.run_auctions(1).expect("in range").total_expected_revenue - before;
            let b = ta.run_auction();
            assert!(
                (a - b).abs() < 1e-6,
                "objective diverged at auction {auction}: RH {a} vs RHTALU {b}"
            );
        }
        assert_eq!(rh.stats.clicks, ta.stats.clicks);
        assert_eq!(rh.stats.charged_cents, ta.stats.charged_cents);
    }

    /// The reduction bounds candidates by k(k+1) per auction, far below n.
    #[test]
    fn candidate_counts() {
        let mut ta = Simulation::new(workload(80, 2));
        for _ in 0..10 {
            ta.run_auction();
        }
        let per_auction = ta.stats.candidates as f64 / ta.stats.auctions as f64;
        assert!(
            per_auction <= 30.0,
            "candidates per auction = {per_auction}"
        );
        assert!(ta.stats.ta_sorted_accesses > 0);
    }

    /// Revenue statistics accumulate sensibly.
    #[test]
    fn stats_accumulate() {
        let mut sim = Simulation::new(workload(50, 9));
        let d = sim.run_timed(30);
        assert_eq!(sim.stats.auctions, 30);
        assert!(sim.stats.total_expected_revenue > 0.0);
        assert!(d.as_nanos() > 0);
        // Clicks were sampled and some were charged.
        assert!(sim.stats.clicks > 0);
    }
}
