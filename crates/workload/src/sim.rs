//! The four-method auction simulation of Section V.

use crate::config::SectionVWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_bidlang::{Money, SlotId};
use ssa_core::pricing::{gsp_prices_into, SlotPrice};
use ssa_matching::threshold::{threshold_top_k, MaintainedIndex, TaSource};
use ssa_matching::{Assignment, HungarianSolver, ReducedSolver, RevenueMatrix, WdSolver};
use ssa_simplex::NetworkSimplexSolver;
use ssa_strategy::{LogicalRoiPopulation, NaiveRoiPopulation, RoiPopulation};
use std::time::{Duration, Instant};

/// The four winner-determination / program-evaluation methods compared in
/// Figures 12 and 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Linear program solved with the (network) simplex method.
    Lp,
    /// Hungarian algorithm on the full bipartite graph.
    H,
    /// Reduced bipartite graph (Section III-E).
    Rh,
    /// Reduced graph + threshold algorithm + logical updates (Section IV).
    Rhtalu,
}

impl Method {
    /// All four methods, in the paper's order.
    pub const ALL: [Method; 4] = [Method::Lp, Method::H, Method::Rh, Method::Rhtalu];

    /// Label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Method::Lp => "LP",
            Method::H => "H",
            Method::Rh => "RH",
            Method::Rhtalu => "RHTALU",
        }
    }
}

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
    /// Total candidates surviving the reduction (RH / RHTALU).
    pub candidates: u64,
    /// Sorted accesses performed by the threshold algorithm (RHTALU).
    pub ta_sorted_accesses: u64,
}

enum Population {
    Naive(NaiveRoiPopulation),
    Logical(LogicalRoiPopulation),
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

/// One full Section V simulation under a fixed method.
///
/// The simulation is the hot path the Figure 12/13 measurements drive, so
/// it is built on the reusable-[`WdSolver`] pipeline: the revenue matrix,
/// assignment, candidate list, price buffers, and solver scratch persist
/// across auctions and are refilled in place. The full-matrix methods
/// allocate nothing per auction after warm-up; RHTALU's
/// threshold-algorithm selection still returns fresh top-k lists.
pub struct Simulation {
    /// The generated workload.
    pub workload: SectionVWorkload,
    method: Method,
    population: Population,
    /// Static per-slot click-probability indexes (RHTALU only).
    w_indexes: Vec<MaintainedIndex>,
    /// One user-action RNG stream per keyword, seeded exactly like the
    /// marketplace's ([`ssa_core::keyword_stream_seed`]), so the
    /// marketplace driver reproduces this reference click for click.
    rngs: Vec<StdRng>,
    auction_idx: usize,
    /// Persistent solver for the full-matrix methods (LP / H / RH); RHTALU
    /// runs its own threshold-algorithm selection in front of `hungarian`.
    solver: Option<Box<dyn WdSolver>>,
    /// Hungarian scratch for the RHTALU candidate sub-problem.
    hungarian: HungarianSolver,
    /// Reused revenue (or candidate sub-) matrix.
    matrix: RevenueMatrix,
    /// Reused assignment buffer (global advertiser ids).
    assignment: Assignment,
    /// Reused candidate-local assignment buffer (RHTALU only).
    local_assignment: Assignment,
    /// Reused RHTALU candidate ids.
    candidates: Vec<usize>,
    /// Reused advertiser→slot inverse map for pricing.
    adv_to_slot: Vec<Option<usize>>,
    /// Reused GSP slot-price buffer.
    prices: Vec<SlotPrice>,
    /// Counters.
    pub stats: SimulationStats,
}

impl Simulation {
    /// Builds a simulation for the workload and method.
    pub fn new(workload: SectionVWorkload, method: Method) -> Self {
        let n = workload.config.num_advertisers;
        let k = workload.config.num_slots;
        let population = match method {
            Method::Rhtalu => Population::Logical(LogicalRoiPopulation::new(&workload.bidders)),
            _ => Population::Naive(NaiveRoiPopulation::new(&workload.bidders)),
        };
        let w_indexes = if method == Method::Rhtalu {
            (0..k)
                .map(|j| {
                    MaintainedIndex::new(
                        (0..n)
                            .map(|i| workload.clicks.p_click(i, SlotId::from_index0(j)))
                            .collect(),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let solver: Option<Box<dyn WdSolver>> = match method {
            Method::Lp => Some(Box::new(NetworkSimplexSolver::new())),
            Method::H => Some(Box::new(HungarianSolver::new())),
            Method::Rh => Some(Box::new(ReducedSolver::new())),
            Method::Rhtalu => None,
        };
        let rngs = (0..workload.config.num_keywords)
            .map(|keyword| {
                StdRng::seed_from_u64(ssa_core::keyword_stream_seed(
                    workload.config.seed ^ 0x5EED_CAFE,
                    keyword,
                ))
            })
            .collect();
        Simulation {
            workload,
            method,
            population,
            w_indexes,
            rngs,
            auction_idx: 0,
            solver,
            hungarian: HungarianSolver::new(),
            matrix: RevenueMatrix::zeros(0, k.max(1)),
            assignment: Assignment::default(),
            local_assignment: Assignment::default(),
            candidates: Vec::new(),
            adv_to_slot: Vec::new(),
            prices: Vec::new(),
            stats: SimulationStats::default(),
        }
    }

    /// The method being simulated.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Current bid (cents) of `program` on `keyword` — exposed so the
    /// facade-equivalence tests can compare strategy state bid-for-bid
    /// against [`crate::MarketSimulation`].
    pub fn bid_of(&self, program: usize, keyword: usize) -> i64 {
        match &self.population {
            Population::Naive(p) => p.bid_on(program, keyword),
            Population::Logical(p) => p.bid_on(program, keyword),
        }
    }

    /// Runs one complete auction (program evaluation, winner determination,
    /// click sampling, GSP pricing, strategy feedback). Returns the
    /// winner-determination objective.
    pub fn run_auction(&mut self) -> f64 {
        let keyword =
            self.workload.query_stream[self.auction_idx % self.workload.query_stream.len()];
        self.auction_idx += 1;
        let k = self.workload.config.num_slots;

        // Program evaluation.
        match &mut self.population {
            Population::Naive(p) => p.begin_auction(keyword),
            Population::Logical(p) => p.begin_auction(keyword),
        };

        // Winner determination.
        let (candidates, objective) = match self.method {
            Method::Lp | Method::H | Method::Rh => {
                let Population::Naive(pop) = &self.population else {
                    unreachable!("naive methods use the naive population")
                };
                let clicks = &self.workload.clicks;
                let n = pop.len();
                self.matrix.fill_from_fn(n, k, |i, j| {
                    clicks.p_click(i, SlotId::from_index0(j)) * pop.bid(i) as f64
                });
                let solver = self.solver.as_mut().expect("naive methods own a solver");
                solver.solve(&self.matrix, &mut self.assignment);
                let objective = self.assignment.total_weight;
                fill_adv_to_slot(&self.assignment, n, &mut self.adv_to_slot);
                gsp_prices_into(
                    &self.matrix,
                    &self.assignment,
                    |adv| self.adv_to_slot[adv].is_some(),
                    &|adv, slot| clicks.p_click(adv, SlotId::from_index0(slot)),
                    &mut self.prices,
                );
                // Every advertiser was considered: candidates = n.
                let assignment = std::mem::take(&mut self.assignment);
                let prices = std::mem::take(&mut self.prices);
                self.settle(keyword, &assignment, &prices);
                self.assignment = assignment;
                self.prices = prices;
                (n, objective)
            }
            Method::Rhtalu => {
                let (candidates, accesses) = self.solve_rhtalu(keyword);
                self.stats.ta_sorted_accesses += accesses;
                (candidates, self.assignment.total_weight)
            }
        };

        self.stats.auctions += 1;
        self.stats.total_expected_revenue += objective;
        self.stats.candidates += candidates as u64;
        objective
    }

    /// RHTALU path: threshold-algorithm selection over logical bid lists,
    /// then the reduced-graph Hungarian, then GSP within the candidate set.
    /// Leaves the global-id assignment in `self.assignment` and returns the
    /// candidate count plus TA sorted accesses.
    fn solve_rhtalu(&mut self, keyword: usize) -> (usize, u64) {
        let k = self.workload.config.num_slots;
        let Population::Logical(pop) = &self.population else {
            unreachable!("RHTALU uses the logical population")
        };
        self.candidates.clear();
        let mut accesses = 0u64;
        for j in 0..k {
            let source = TaSlotSource {
                w_index: &self.w_indexes[j],
                population: pop,
                keyword,
            };
            // Top k+1 rather than top k: the winner determination needs k,
            // but exact GSP pricing needs the best *unassigned* competitor
            // per slot, and with at most k advertisers assigned the
            // (k+1)-deep list always contains one.
            let (top, instr) = threshold_top_k(&source, &ta_aggregation, k + 1);
            accesses += instr.sorted_accesses as u64;
            self.candidates.extend(top.into_iter().map(|(id, _)| id));
        }
        self.candidates.sort_unstable();
        self.candidates.dedup();

        let clicks = &self.workload.clicks;
        let candidates = &self.candidates;
        self.matrix.fill_from_fn(candidates.len(), k, |ci, j| {
            let adv = candidates[ci];
            clicks.p_click(adv, SlotId::from_index0(j)) * pop.bid_on(adv, keyword) as f64
        });
        self.hungarian
            .solve(&self.matrix, &mut self.local_assignment);
        fill_adv_to_slot(
            &self.local_assignment,
            candidates.len(),
            &mut self.adv_to_slot,
        );
        gsp_prices_into(
            &self.matrix,
            &self.local_assignment,
            |ci| self.adv_to_slot[ci].is_some(),
            &|ci, slot| clicks.p_click(candidates[ci], SlotId::from_index0(slot)),
            &mut self.prices,
        );
        // Map back to global ids (assignment and prices alike).
        self.assignment.reset(k);
        self.assignment.total_weight = self.local_assignment.total_weight;
        for (j, local) in self.local_assignment.slot_to_adv.iter().enumerate() {
            self.assignment.slot_to_adv[j] = local.map(|ci| candidates[ci]);
        }
        for p in &mut self.prices {
            p.winner = candidates[p.winner];
        }
        let num_candidates = candidates.len();
        let assignment = std::mem::take(&mut self.assignment);
        let prices = std::mem::take(&mut self.prices);
        self.settle(keyword, &assignment, &prices);
        self.assignment = assignment;
        self.prices = prices;
        (num_candidates, accesses)
    }

    /// Samples user actions and feeds GSP charges back into the strategies.
    fn settle(
        &mut self,
        keyword: usize,
        assignment: &Assignment,
        prices: &[ssa_core::pricing::SlotPrice],
    ) {
        let clicks = &self.workload.clicks;
        for (j, adv) in assignment.slot_to_adv.iter().enumerate() {
            let Some(adv) = *adv else { continue };
            let p = clicks.p_click(adv, SlotId::from_index0(j));
            if self.rngs[keyword].gen::<f64>() >= p {
                continue;
            }
            self.stats.clicks += 1;
            let per_click = prices
                .iter()
                .find(|sp| sp.winner == adv)
                .map(|sp| sp.amount)
                .unwrap_or(0.0);
            let price = Money::from_f64_rounded(per_click);
            if price.is_positive() {
                self.stats.charged_cents += price.cents();
                let value = self.workload.bidders[adv].keywords[keyword].0 as f64;
                match &mut self.population {
                    Population::Naive(pop) => pop.record_click(adv, price, value),
                    Population::Logical(pop) => pop.record_click(adv, price, value),
                }
            }
        }
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

/// Refills `out` with the advertiser→slot inverse of `assignment` over `n`
/// advertisers, reusing the buffer.
fn fill_adv_to_slot(assignment: &Assignment, n: usize, out: &mut Vec<Option<usize>>) {
    out.clear();
    out.resize(n, None);
    for (j, adv) in assignment.slot_to_adv.iter().enumerate() {
        if let Some(i) = adv {
            out[*i] = Some(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SectionVConfig, SectionVWorkload};

    fn workload(n: usize, seed: u64) -> SectionVWorkload {
        SectionVWorkload::generate(SectionVConfig {
            num_advertisers: n,
            num_slots: 5,
            num_keywords: 4,
            seed,
        })
    }

    /// All four methods produce the same winner-determination objective on
    /// the very first auction (identical fresh state).
    #[test]
    fn methods_agree_on_first_auction_objective() {
        let mut objectives = Vec::new();
        for method in Method::ALL {
            let mut sim = Simulation::new(workload(60, 11), method);
            objectives.push(sim.run_auction());
        }
        for pair in objectives.windows(2) {
            assert!(
                (pair[0] - pair[1]).abs() < 1e-6,
                "objectives diverge: {objectives:?}"
            );
        }
    }

    /// RH and RHTALU agree auction after auction: same objective every
    /// round even as strategies evolve through clicks and charges (the RNG
    /// streams are identical, and ties in GSP pricing resolve identically
    /// because the candidate set always contains every positive-weight
    /// competitor for each slot... asserted here empirically).
    #[test]
    fn rh_and_rhtalu_agree_over_time() {
        let mut rh = Simulation::new(workload(40, 5), Method::Rh);
        let mut ta = Simulation::new(workload(40, 5), Method::Rhtalu);
        for auction in 0..120 {
            let a = rh.run_auction();
            let b = ta.run_auction();
            assert!(
                (a - b).abs() < 1e-6,
                "objective diverged at auction {auction}: RH {a} vs RHTALU {b}"
            );
        }
        assert_eq!(rh.stats.clicks, ta.stats.clicks);
        assert_eq!(rh.stats.charged_cents, ta.stats.charged_cents);
    }

    /// The reduction bounds candidates by k² while the naive methods look
    /// at all n advertisers.
    #[test]
    fn candidate_counts() {
        let mut ta = Simulation::new(workload(80, 2), Method::Rhtalu);
        for _ in 0..10 {
            ta.run_auction();
        }
        let per_auction = ta.stats.candidates as f64 / ta.stats.auctions as f64;
        assert!(
            per_auction <= 30.0,
            "candidates per auction = {per_auction}"
        );
        assert!(ta.stats.ta_sorted_accesses > 0);

        let mut h = Simulation::new(workload(80, 2), Method::H);
        h.run_auction();
        assert_eq!(h.stats.candidates, 80);
    }

    /// Revenue statistics accumulate sensibly.
    #[test]
    fn stats_accumulate() {
        let mut sim = Simulation::new(workload(50, 9), Method::Rh);
        let d = sim.run_timed(30);
        assert_eq!(sim.stats.auctions, 30);
        assert!(sim.stats.total_expected_revenue > 0.0);
        assert!(d.as_nanos() > 0);
        // Clicks were sampled and some were charged.
        assert!(sim.stats.clicks > 0);
    }
}
