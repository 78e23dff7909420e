//! Populations of ROI bidders: naive full evaluation vs. logical updates.
//!
//! Section IV's point is that the provider does not need to run every
//! bidding program on every auction. For the ROI heuristic, a losing
//! program's behaviour between wins is fully predictable:
//!
//! * its per-auction bid move is shared with every other program in the
//!   same increment/decrement list — one logical tick updates them all;
//! * the only times its *direction* changes are (a) when a shared monotone
//!   variable crosses a computable critical value (its spending rate
//!   `amtSpent / time` sinks to the target as `time` grows) and (b) when
//!   its bid hits the `maxbid` cap or zero floor after a computable number
//!   of auctions on the keyword.
//!
//! [`LogicalRoiPopulation`] implements exactly that: per-keyword
//! [`LogicalBids`] lists, a time-trigger queue, and per-keyword
//! count-trigger queues; per auction it does `O(1)` logical work plus
//! `O(K log n)` per fired trigger or win. [`NaiveRoiPopulation`] runs every
//! program every auction. The two are proven equivalent by the test suite
//! (and the ablation bench measures the gap — this is the "LU" in RHTALU).

use crate::logical::{ListKind, LogicalBids, ProgramId};
use crate::roi::{KeywordEntry, RoiBidder};
use ssa_bidlang::Money;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Construction parameters for one ROI bidder.
#[derive(Debug, Clone, PartialEq)]
pub struct RoiBidderParams {
    /// Per-keyword `(click_value, initial_bid, initial_roi)`; `maxbid`
    /// equals `click_value`, per the Section V workload.
    pub keywords: Vec<(i64, i64, f64)>,
    /// Target spending rate (cents per time unit).
    pub target_spend_rate: f64,
}

/// Common interface of the two evaluation strategies.
pub trait RoiPopulation {
    /// Number of programs.
    fn len(&self) -> usize;
    /// `true` if there are no programs.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Advances the auction clock and applies every program's Figure 5
    /// adjustment for a query on `keyword`. Returns the new time.
    fn begin_auction(&mut self, keyword: usize) -> u64;
    /// Current bid (cents) of `program` on the most recent auction keyword.
    fn bid(&self, program: ProgramId) -> i64;
    /// All `(program, bid)` pairs for the most recent auction keyword, in
    /// descending bid order.
    fn bids_desc(&self) -> Vec<(ProgramId, i64)>;
    /// Records a charged click: `program` paid `price` for a click worth
    /// `value` on the most recent auction keyword.
    fn record_click(&mut self, program: ProgramId, price: Money, value: f64);
}

// ---------------------------------------------------------------------------
// Naive: run every program, every auction.
// ---------------------------------------------------------------------------

/// Full evaluation: every program runs on every auction (the paper's
/// worst case: "getting these bids for a given search query requires, in
/// the worst case, running each advertiser's program").
#[derive(Debug, Clone)]
pub struct NaiveRoiPopulation {
    bidders: Vec<RoiBidder>,
    time: u64,
    current_keyword: usize,
}

impl NaiveRoiPopulation {
    /// Builds the population.
    pub fn new(params: &[RoiBidderParams]) -> Self {
        let bidders = params
            .iter()
            .map(|p| {
                RoiBidder::new(
                    p.keywords
                        .iter()
                        .map(|&(v, b, r)| KeywordEntry::new(v, b, r))
                        .collect(),
                    p.target_spend_rate,
                )
            })
            .collect();
        NaiveRoiPopulation {
            bidders,
            time: 0,
            current_keyword: 0,
        }
    }
}

impl RoiPopulation for NaiveRoiPopulation {
    fn len(&self) -> usize {
        self.bidders.len()
    }

    fn begin_auction(&mut self, keyword: usize) -> u64 {
        self.time += 1;
        self.current_keyword = keyword;
        for bidder in &mut self.bidders {
            bidder.adjust_and_bid(keyword, self.time);
        }
        self.time
    }

    fn bid(&self, program: ProgramId) -> i64 {
        self.bidders[program].keywords[self.current_keyword].bid
    }

    fn bids_desc(&self) -> Vec<(ProgramId, i64)> {
        let mut out: Vec<(ProgramId, i64)> =
            (0..self.bidders.len()).map(|p| (p, self.bid(p))).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        out
    }

    fn record_click(&mut self, program: ProgramId, price: Money, value: f64) {
        self.bidders[program].record_click(self.current_keyword, price, value);
    }
}

// ---------------------------------------------------------------------------
// Logical updates.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct KwState {
    maxbid: i64,
    roi: f64,
    value_gained: f64,
    spent: f64,
}

#[derive(Debug, Clone)]
struct ProgramState {
    target: f64,
    amt_spent: f64,
    keywords: Vec<KwState>,
}

impl ProgramState {
    fn max_roi(&self) -> f64 {
        self.keywords
            .iter()
            .map(|k| k.roi)
            .fold(f64::NEG_INFINITY, f64::max)
    }
    fn min_roi(&self) -> f64 {
        self.keywords
            .iter()
            .map(|k| k.roi)
            .fold(f64::INFINITY, f64::min)
    }
}

/// The logical-updates evaluation path.
#[derive(Debug, Clone)]
pub struct LogicalRoiPopulation {
    programs: Vec<ProgramState>,
    per_keyword: Vec<LogicalBids>,
    // (due time, program) — min-heap.
    time_triggers: BinaryHeap<Reverse<(u64, ProgramId)>>,
    // per keyword: (due q-count, program).
    count_triggers: Vec<BinaryHeap<Reverse<(u64, ProgramId)>>>,
    q_count: Vec<u64>,
    time: u64,
    current_keyword: usize,
    initialized: bool,
    /// Number of trigger firings + win reclassifications (instrumentation:
    /// the real per-auction work beyond O(1) ticks).
    pub reclassifications: u64,
}

impl LogicalRoiPopulation {
    /// Builds the population.
    pub fn new(params: &[RoiBidderParams]) -> Self {
        assert!(!params.is_empty(), "population must not be empty");
        let num_keywords = params[0].keywords.len();
        assert!(
            params.iter().all(|p| p.keywords.len() == num_keywords),
            "all programs must cover the same keyword universe"
        );
        let programs: Vec<ProgramState> = params
            .iter()
            .map(|p| ProgramState {
                target: p.target_spend_rate,
                amt_spent: 0.0,
                keywords: p
                    .keywords
                    .iter()
                    .map(|&(value, _bid, roi)| KwState {
                        maxbid: value,
                        roi,
                        value_gained: 0.0,
                        spent: 0.0,
                    })
                    .collect(),
            })
            .collect();
        let mut per_keyword: Vec<LogicalBids> =
            (0..num_keywords).map(|_| LogicalBids::new()).collect();
        // Bids are registered as Constant until the first auction
        // classifies everyone for time 1.
        for (pid, p) in params.iter().enumerate() {
            for (q, &(_, bid, _)) in p.keywords.iter().enumerate() {
                per_keyword[q].insert(pid, bid, ListKind::Constant);
            }
        }
        LogicalRoiPopulation {
            programs,
            per_keyword,
            time_triggers: BinaryHeap::new(),
            count_triggers: (0..num_keywords).map(|_| BinaryHeap::new()).collect(),
            q_count: vec![0; num_keywords],
            time: 0,
            current_keyword: 0,
            initialized: false,
            reclassifications: 0,
        }
    }

    /// Number of keywords in the universe.
    pub fn num_keywords(&self) -> usize {
        self.per_keyword.len()
    }

    /// Descending (program, bid) iterator over a keyword's logical lists —
    /// this is the sorted "bid" list the threshold algorithm consumes.
    pub fn iter_desc(&self, keyword: usize) -> impl Iterator<Item = (ProgramId, i64)> + '_ {
        self.per_keyword[keyword].iter_desc()
    }

    /// Bid of `program` on an arbitrary keyword.
    pub fn bid_on(&self, program: ProgramId, keyword: usize) -> i64 {
        self.per_keyword[keyword]
            .bid(program)
            .expect("program registered everywhere")
    }

    fn classify(&self, pid: ProgramId, keyword: usize, bid: i64, time: u64) -> ListKind {
        let p = &self.programs[pid];
        let rate = p.amt_spent / time as f64;
        let kw = &p.keywords[keyword];
        if rate < p.target && kw.roi == p.max_roi() && bid < kw.maxbid {
            ListKind::Increment
        } else if rate > p.target && kw.roi == p.min_roi() && bid > 0 {
            ListKind::Decrement
        } else {
            ListKind::Constant
        }
    }

    /// Re-derives every keyword membership of `pid` from ground truth and
    /// schedules the triggers implied by the new state.
    fn reclassify(&mut self, pid: ProgramId, time: u64) {
        self.reclassifications += 1;
        for q in 0..self.per_keyword.len() {
            let (bid, _) = self.per_keyword[q].remove(pid).expect("registered");
            let kind = self.classify(pid, q, bid, time);
            self.per_keyword[q].insert(pid, bid, kind);
            match kind {
                ListKind::Increment => {
                    let kw = &self.programs[pid].keywords[q];
                    let due = self.q_count[q] + (kw.maxbid - bid).max(0) as u64;
                    self.count_triggers[q].push(Reverse((due, pid)));
                }
                ListKind::Decrement => {
                    let due = self.q_count[q] + bid.max(0) as u64;
                    self.count_triggers[q].push(Reverse((due, pid)));
                }
                ListKind::Constant => {}
            }
        }
        // Time-driven direction flips: only over-/exactly-on-target
        // programs change with time (their rate sinks as time grows).
        let p = &self.programs[pid];
        let rate = p.amt_spent / time as f64;
        if rate >= p.target && p.target > 0.0 {
            // First integer t > time with amt_spent / t ≤ target. The floor
            // is a conservative (never late) estimate; firing early is safe
            // because reclassification recomputes ground truth.
            let raw = (p.amt_spent / p.target).floor() as u64;
            let due = raw.max(time + 1);
            self.time_triggers.push(Reverse((due, pid)));
        }
    }

    fn fire_time_triggers(&mut self, time: u64) {
        while let Some(&Reverse((due, pid))) = self.time_triggers.peek() {
            if due > time {
                break;
            }
            self.time_triggers.pop();
            self.reclassify(pid, time);
        }
    }

    fn fire_count_triggers(&mut self, keyword: usize, time: u64) {
        while let Some(&Reverse((due, pid))) = self.count_triggers[keyword].peek() {
            if due > self.q_count[keyword] {
                break;
            }
            self.count_triggers[keyword].pop();
            self.reclassify(pid, time);
        }
    }
}

impl RoiPopulation for LogicalRoiPopulation {
    fn len(&self) -> usize {
        self.programs.len()
    }

    fn begin_auction(&mut self, keyword: usize) -> u64 {
        self.time += 1;
        self.current_keyword = keyword;
        let time = self.time;
        if !self.initialized {
            self.initialized = true;
            for pid in 0..self.programs.len() {
                self.reclassify(pid, time);
            }
        } else {
            self.fire_time_triggers(time);
        }
        self.q_count[keyword] += 1;
        self.per_keyword[keyword].tick();
        self.fire_count_triggers(keyword, time);
        time
    }

    fn bid(&self, program: ProgramId) -> i64 {
        self.bid_on(program, self.current_keyword)
    }

    fn bids_desc(&self) -> Vec<(ProgramId, i64)> {
        self.per_keyword[self.current_keyword].iter_desc().collect()
    }

    fn record_click(&mut self, program: ProgramId, price: Money, value: f64) {
        let q = self.current_keyword;
        {
            let p = &mut self.programs[program];
            let kw = &mut p.keywords[q];
            kw.spent += price.as_f64();
            kw.value_gained += value;
            if kw.spent > 0.0 {
                kw.roi = kw.value_gained / kw.spent;
            }
            p.amt_spent += price.as_f64();
        }
        let time = self.time;
        self.reclassify(program, time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: usize, keywords: usize) -> Vec<RoiBidderParams> {
        // Deterministic, diverse parameters.
        (0..n)
            .map(|i| RoiBidderParams {
                keywords: (0..keywords)
                    .map(|q| {
                        let value = 5 + ((i * 7 + q * 13) % 46) as i64;
                        let bid = 1 + ((i * 3 + q * 5) % value as usize) as i64;
                        let roi = 0.5 + ((i + 2 * q) % 8) as f64 / 4.0;
                        (value, bid, roi)
                    })
                    .collect(),
                target_spend_rate: 1.0 + (i % 9) as f64,
            })
            .collect()
    }

    /// The central Section IV-B claim: logical updates are *exactly*
    /// equivalent to running every program, including across wins, caps,
    /// floors, and direction flips.
    #[test]
    fn logical_equals_naive_over_long_run() {
        let ps = params(40, 3);
        let mut naive = NaiveRoiPopulation::new(&ps);
        let mut logical = LogicalRoiPopulation::new(&ps);
        let mut rng_state = 12345u64;
        let mut next = move |m: u64| {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 33) % m
        };
        for auction in 0..600 {
            let kw = next(3) as usize;
            naive.begin_auction(kw);
            logical.begin_auction(kw);
            for pid in 0..naive.len() {
                assert_eq!(
                    naive.bid(pid),
                    logical.bid(pid),
                    "bid divergence at auction {auction} (kw {kw}) for program {pid}"
                );
            }
            // Winner: the top bidder; charge it a click at a price derived
            // from the runner-up (a GSP-flavoured deterministic rule).
            let order = naive.bids_desc();
            if let [(winner, wbid), rest @ ..] = order.as_slice() {
                if *wbid > 0 {
                    let price = rest.first().map(|(_, b)| *b).unwrap_or(0).max(1);
                    let value = 2.0 * price as f64;
                    if next(2) == 0 {
                        naive.record_click(*winner, Money::from_cents(price), value);
                        logical.record_click(*winner, Money::from_cents(price), value);
                    }
                }
            }
        }
    }

    #[test]
    fn bids_desc_agree_and_are_sorted() {
        let ps = params(25, 2);
        let mut naive = NaiveRoiPopulation::new(&ps);
        let mut logical = LogicalRoiPopulation::new(&ps);
        for t in 0..50 {
            let kw = t % 2;
            naive.begin_auction(kw);
            logical.begin_auction(kw);
            let a = naive.bids_desc();
            let b = logical.bids_desc();
            let bids_a: Vec<i64> = a.iter().map(|(_, b)| *b).collect();
            let bids_b: Vec<i64> = b.iter().map(|(_, b)| *b).collect();
            assert_eq!(bids_a, bids_b, "sorted bid sequences diverge at t={t}");
            assert!(bids_a.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn reclassification_count_stays_low_without_wins() {
        // With no wins, the only reclassifications after initialisation are
        // trigger firings: direction flips and cap/floor arrivals, each a
        // bounded number per program per keyword — far fewer than n per
        // auction.
        let n = 60;
        let auctions = 400u64;
        let ps = params(n, 2);
        let mut logical = LogicalRoiPopulation::new(&ps);
        for t in 0..auctions {
            logical.begin_auction((t % 2) as usize);
        }
        let per_auction = logical.reclassifications as f64 / auctions as f64;
        assert!(
            per_auction < n as f64 / 4.0,
            "logical updates degenerated to full evaluation: {per_auction} reclassifications/auction"
        );
    }

    #[test]
    fn iter_desc_per_keyword() {
        let ps = params(10, 2);
        let mut logical = LogicalRoiPopulation::new(&ps);
        logical.begin_auction(0);
        let list: Vec<(ProgramId, i64)> = logical.iter_desc(1).collect();
        assert_eq!(list.len(), 10);
        assert!(list.windows(2).all(|w| w[0].1 >= w[1].1));
        // bid_on agrees with the iterator.
        for (pid, bid) in list {
            assert_eq!(logical.bid_on(pid, 1), bid);
        }
    }
}
