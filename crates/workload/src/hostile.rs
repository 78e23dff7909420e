//! Hostile-world workload shapes: the adversarial counterpart of the
//! well-behaved Section V stream.
//!
//! The paper's evaluation draws query keywords uniformly, which is the
//! *kindest* possible traffic for a sharded serving layer — every shard
//! sees the same load and every latency percentile looks like the mean.
//! Real sponsored-search traffic is none of those things. This module
//! generates the unkind shapes, seeded and reproducible:
//!
//! * [`WorkloadShape::Zipf`] — keyword popularity follows a Zipf law with
//!   exponent `s`, drawn by binary search over a precomputed CDF. Hot
//!   keywords concentrate load on whichever shards own them.
//! * [`WorkloadShape::Flash`] — a flash crowd: uniform background traffic
//!   with the middle half of the stream pinned to one (seeded) keyword.
//!   Because a keyword lives on exactly one shard
//!   ([`ssa_core::shard_of_keyword`]), the crowd lands on a single shard
//!   by construction, which is the worst case for queue-depth skew.
//! * [`WorkloadShape::Churn`] — uniform queries, but the population
//!   mutates under load: a seeded [`ChurnPlan`] of budget exhaustions
//!   (pauses), comebacks (resumes), and re-bids interleaves control-plane
//!   writes with the serving hot path.
//! * [`WorkloadShape::Uniform`] — the paper's shape, included so harnesses
//!   can A/B against the baseline under one flag.
//!
//! [`ShardSkew`] summarises how unevenly any stream routes across a shard
//! count (per-shard queue depths, p50/p99, max-over-mean), and
//! [`defective_targeting_sources`] produces targeting programs that every
//! layer must *reject with a typed error* — the control-plane half of a
//! hostile world.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssa_core::{shard_of_keyword, MutationRecord};
use std::fmt;
use std::str::FromStr;

/// A traffic shape for the query-keyword stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadShape {
    /// Keywords drawn uniformly — the paper's Section V shape.
    Uniform,
    /// Zipf-distributed keyword popularity with exponent `s` (> 0);
    /// `zipf:1.1` on the command line.
    Zipf {
        /// The Zipf exponent: larger is more skewed.
        s: f64,
    },
    /// Uniform background with the middle half of the stream pinned to one
    /// seeded keyword (and therefore one shard).
    Flash,
    /// Uniform queries with a seeded plan of control-plane churn events
    /// applied while serving ([`WorkloadShape::churn_plan`]).
    Churn,
}

/// A [`WorkloadShape`] string that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError {
    raw: String,
}

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid workload {:?}: expected uniform, zipf:<s> (s > 0), flash, or churn",
            self.raw
        )
    }
}

impl std::error::Error for ParseWorkloadError {}

impl FromStr for WorkloadShape {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let raw = s.trim();
        let err = || ParseWorkloadError {
            raw: raw.to_string(),
        };
        match raw {
            "uniform" => Ok(WorkloadShape::Uniform),
            "flash" => Ok(WorkloadShape::Flash),
            "churn" => Ok(WorkloadShape::Churn),
            other => {
                let exponent = other.strip_prefix("zipf:").ok_or_else(err)?;
                let s: f64 = exponent.parse().map_err(|_| err())?;
                if s.is_finite() && s > 0.0 {
                    Ok(WorkloadShape::Zipf { s })
                } else {
                    Err(err())
                }
            }
        }
    }
}

impl fmt::Display for WorkloadShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadShape::Uniform => write!(f, "uniform"),
            WorkloadShape::Zipf { s } => write!(f, "zipf:{s}"),
            WorkloadShape::Flash => write!(f, "flash"),
            WorkloadShape::Churn => write!(f, "churn"),
        }
    }
}

impl WorkloadShape {
    /// Generates the seeded query-keyword stream: `len` draws over
    /// `num_keywords` keywords. The same `(shape, num_keywords, len,
    /// seed)` always yields the same stream.
    pub fn query_stream(&self, num_keywords: usize, len: usize, seed: u64) -> Vec<usize> {
        let kw = num_keywords.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            WorkloadShape::Uniform | WorkloadShape::Churn => {
                (0..len).map(|_| rng.gen_range(0..kw)).collect()
            }
            WorkloadShape::Zipf { s } => {
                // CDF over ranks 1..=kw with weight 1/rank^s; each draw is
                // a binary search (partition_point), so the stream costs
                // O(len log kw) however skewed the law.
                let cdf: Vec<f64> = (0..kw)
                    .scan(0.0f64, |acc, rank| {
                        *acc += 1.0 / ((rank + 1) as f64).powf(*s);
                        Some(*acc)
                    })
                    .collect();
                // Invariant: `kw` is at least 1, so the CDF has a last entry.
                #[allow(clippy::expect_used)]
                let total = *cdf.last().expect("kw >= 1");
                // A seeded rotation decouples "hot" from "keyword 0" so
                // the hot set exercises different shards per seed.
                let offset = rng.gen_range(0..kw);
                (0..len)
                    .map(|_| {
                        let u = rng.gen_range(0.0..total);
                        let rank = cdf.partition_point(|&c| c <= u);
                        (rank + offset) % kw
                    })
                    .collect()
            }
            WorkloadShape::Flash => {
                let hot = rng.gen_range(0..kw);
                let (start, end) = (len / 4, len - len / 4);
                (0..len)
                    .map(|i| {
                        if (start..end).contains(&i) {
                            hot
                        } else {
                            rng.gen_range(0..kw)
                        }
                    })
                    .collect()
            }
        }
    }

    /// The seeded control-plane churn accompanying a `queries`-long serve
    /// of this shape: empty for every shape but [`WorkloadShape::Churn`].
    ///
    /// The plan only names `(keyword, index)` coordinates below the given
    /// bounds, so applying it to a Section V population (one campaign per
    /// advertiser per keyword: `campaigns_per_keyword = n`) never misses.
    /// Every exhausted campaign is scheduled to return later in the run,
    /// so the plan perturbs serving without permanently shrinking the
    /// market.
    pub fn churn_plan(
        &self,
        num_keywords: usize,
        campaigns_per_keyword: usize,
        queries: usize,
        seed: u64,
    ) -> ChurnPlan {
        let mut events = Vec::new();
        if !matches!(self, WorkloadShape::Churn) || campaigns_per_keyword == 0 || queries == 0 {
            return ChurnPlan { events };
        }
        let kw = num_keywords.max(1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2_BEEF);
        let rounds = (queries / 16).clamp(1, 64);
        for round in 0..rounds {
            let at = round * queries / rounds;
            let keyword = rng.gen_range(0..kw) as u64;
            let index = rng.gen_range(0..campaigns_per_keyword) as u64;
            match round % 3 {
                // Budget exhausted: the campaign stops bidding mid-run…
                0 => {
                    events.push(ChurnEvent {
                        after_query: at,
                        op: MutationRecord::PauseCampaign { keyword, index },
                    });
                    // …and returns once its (notional) budget refills.
                    events.push(ChurnEvent {
                        after_query: at + (queries - at) / 2,
                        op: MutationRecord::ResumeCampaign { keyword, index },
                    });
                }
                // The advertiser re-bids mid-run.
                1 => events.push(ChurnEvent {
                    after_query: at,
                    op: MutationRecord::UpdateBid {
                        keyword,
                        index,
                        bid_cents: rng.gen_range(1..=50),
                    },
                }),
                // A return whether or not it paused (resume is idempotent).
                _ => events.push(ChurnEvent {
                    after_query: at,
                    op: MutationRecord::ResumeCampaign { keyword, index },
                }),
            }
        }
        events.sort_by_key(|e| e.after_query);
        ChurnPlan { events }
    }
}

/// One control-plane mutation of a [`ChurnPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Apply the event once this many queries of the stream have been
    /// served.
    pub after_query: usize,
    /// The operation: a [`MutationRecord::PauseCampaign`] (budget
    /// exhausted), a [`MutationRecord::ResumeCampaign`] (the advertiser
    /// returns) or a [`MutationRecord::UpdateBid`] (a mid-run re-bid).
    pub op: MutationRecord,
}

/// A seeded, sorted sequence of [`ChurnEvent`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnPlan {
    /// The events, sorted by [`ChurnEvent::after_query`].
    pub events: Vec<ChurnEvent>,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted sample by the
/// nearest-rank method: the smallest element with at least `q` of the
/// sample at or below it. 0 for an empty sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[rank]
}

/// How unevenly a query stream routes across `shards` worker shards: the
/// static queue depth each shard would see under keyword-affinity routing
/// ([`ssa_core::shard_of_keyword`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSkew {
    /// Queries routed to each shard, by shard index.
    pub queries_per_shard: Vec<u64>,
}

impl ShardSkew {
    /// Routes every keyword of `stream` with [`shard_of_keyword`] and
    /// counts per-shard queue depth.
    pub fn from_stream(stream: &[usize], shards: usize) -> Self {
        let shards = shards.max(1);
        let mut queries_per_shard = vec![0u64; shards];
        for &keyword in stream {
            queries_per_shard[shard_of_keyword(keyword, shards)] += 1;
        }
        ShardSkew { queries_per_shard }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of per-shard queue depth, by the
    /// nearest-rank method.
    pub fn quantile(&self, q: f64) -> u64 {
        let mut sorted = self.queries_per_shard.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q)
    }

    /// Median per-shard queue depth.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile per-shard queue depth (the hottest shard, at the
    /// shard counts this repo runs).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Hottest shard's depth over the mean depth: 1.0 is perfectly even,
    /// `shards` is everything-on-one-shard.
    pub fn max_over_mean(&self) -> f64 {
        let max = self.queries_per_shard.iter().copied().max().unwrap_or(0);
        let total: u64 = self.queries_per_shard.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.queries_per_shard.len() as f64;
        max as f64 / mean
    }

    /// One JSON object (stable keys, no dependencies) in the house
    /// bench-report style.
    pub fn to_json(&self) -> String {
        let depths: Vec<String> = self
            .queries_per_shard
            .iter()
            .map(|d| d.to_string())
            .collect();
        format!(
            concat!(
                "{{\"queries_per_shard\":[{}],\"p50\":{},\"p99\":{},",
                "\"max_over_mean\":{:.3}}}"
            ),
            depths.join(","),
            self.p50(),
            self.p99(),
            self.max_over_mean(),
        )
    }
}

/// Seeded targeting programs that must fail to parse: syntax garbage,
/// unbalanced parentheses, and expressions nested beyond the compiler's
/// depth limit. Every layer that accepts targeting source (campaign spec,
/// wire protocol, WAL replay) must reject each of these with a typed
/// error — never a panic, never a silently-ignored program.
pub fn defective_targeting_sources(count: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD_7A26);
    (0..count)
        .map(|i| match i % 5 {
            // Unbalanced parentheses.
            0 => format!("({} geo = 'us'", "(".repeat(rng.gen_range(1..4))),
            // Nested past any sane depth limit.
            1 => {
                let depth = 80 + rng.gen_range(0usize..40);
                format!("{}geo = 'us'{}", "(".repeat(depth), ")".repeat(depth))
            }
            // A bare operator with no operands.
            2 => "and".to_string(),
            // A comparison missing its right-hand side.
            3 => format!("device = {}", ""),
            // Random ASCII soup (printable, so the failure is the
            // grammar's, not the tokenizer's input validation).
            _ => (0..rng.gen_range(5..30))
                .map(|_| rng.gen_range(33u8..=126) as char)
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_core::CompiledTargeting;

    #[test]
    fn parsing_round_trips_and_rejects_garbage() {
        for (text, shape) in [
            ("uniform", WorkloadShape::Uniform),
            ("zipf:1.1", WorkloadShape::Zipf { s: 1.1 }),
            ("flash", WorkloadShape::Flash),
            ("churn", WorkloadShape::Churn),
        ] {
            assert_eq!(text.parse::<WorkloadShape>(), Ok(shape));
            assert_eq!(shape.to_string().parse::<WorkloadShape>(), Ok(shape));
        }
        for bad in [
            "zipf", "zipf:", "zipf:0", "zipf:-1", "zipf:inf", "pareto", "",
        ] {
            let err = bad.parse::<WorkloadShape>().unwrap_err();
            assert!(err.to_string().contains("invalid workload"), "{bad}: {err}");
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for shape in [
            WorkloadShape::Uniform,
            WorkloadShape::Zipf { s: 1.3 },
            WorkloadShape::Flash,
            WorkloadShape::Churn,
        ] {
            let a = shape.query_stream(10, 500, 7);
            let b = shape.query_stream(10, 500, 7);
            assert_eq!(a, b, "{shape}");
            assert!(a.iter().all(|&k| k < 10), "{shape}");
            let c = shape.query_stream(10, 500, 8);
            assert_ne!(a, c, "{shape} ignored the seed");
        }
    }

    #[test]
    fn zipf_concentrates_mass_by_rank() {
        let stream = WorkloadShape::Zipf { s: 1.2 }.query_stream(10, 20_000, 11);
        let mut counts = [0u64; 10];
        for &k in &stream {
            counts[k] += 1;
        }
        let mut sorted = counts;
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 1 under s=1.2 carries ~34% of the mass; uniform would give
        // every keyword 10%.
        assert!(
            sorted[0] > stream.len() as u64 / 4,
            "hottest keyword only {} of {}",
            sorted[0],
            stream.len()
        );
        assert!(
            sorted[0] > 3 * sorted[9].max(1),
            "tail not thinner: {sorted:?}"
        );
    }

    #[test]
    fn flash_pins_the_crowd_to_one_shard() {
        let stream = WorkloadShape::Flash.query_stream(10, 4000, 3);
        let window = &stream[1000..3000];
        let hot = window[0];
        assert!(window.iter().all(|&k| k == hot), "flash window not pinned");
        // And under keyword-affinity routing the whole crowd lands on one
        // shard: the skew summary must show it.
        let skew = ShardSkew::from_stream(&stream, 4);
        assert!(
            skew.max_over_mean() > 2.0,
            "flash crowd did not skew 4 shards: {skew:?}"
        );
        assert!(skew.p99() >= skew.p50());
    }

    #[test]
    fn nearest_rank_pins_the_quantile_formula() {
        let sorted = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(nearest_rank(&sorted, 0.0), 10);
        assert_eq!(nearest_rank(&sorted, 0.5), 50);
        assert_eq!(nearest_rank(&sorted, 0.99), 100);
        assert_eq!(nearest_rank(&sorted, 1.0), 100);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn uniform_stays_balanced() {
        let stream = WorkloadShape::Uniform.query_stream(64, 20_000, 5);
        let skew = ShardSkew::from_stream(&stream, 4);
        assert!(
            skew.max_over_mean() < 1.5,
            "uniform traffic should not skew: {skew:?}"
        );
        let json = skew.to_json();
        for key in [
            "\"queries_per_shard\":[",
            "\"p50\":",
            "\"p99\":",
            "\"max_over_mean\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn churn_plan_is_seeded_sorted_and_in_bounds() {
        let shape = WorkloadShape::Churn;
        let plan = shape.churn_plan(10, 40, 512, 9);
        assert_eq!(plan, shape.churn_plan(10, 40, 512, 9));
        assert!(!plan.events.is_empty());
        assert!(plan
            .events
            .windows(2)
            .all(|w| w[0].after_query <= w[1].after_query));
        for e in &plan.events {
            let (keyword, index) = match e.op {
                MutationRecord::PauseCampaign { keyword, index }
                | MutationRecord::ResumeCampaign { keyword, index } => (keyword, index),
                MutationRecord::UpdateBid {
                    keyword,
                    index,
                    bid_cents,
                } => {
                    assert!(bid_cents > 0);
                    (keyword, index)
                }
                ref other => panic!("churn pauses, resumes or re-bids, not {other:?}"),
            };
            assert!(keyword < 10 && index < 40 && e.after_query <= 512, "{e:?}");
        }
        // Every exhaustion has a later return for the same campaign.
        for e in &plan.events {
            if let MutationRecord::PauseCampaign { keyword, index } = e.op {
                assert!(
                    plan.events.iter().any(|r| r.op
                        == MutationRecord::ResumeCampaign { keyword, index }
                        && r.after_query >= e.after_query),
                    "no return for {e:?}"
                );
            }
        }
        // Other shapes churn nothing.
        assert!(WorkloadShape::Uniform
            .churn_plan(10, 40, 512, 9)
            .events
            .is_empty());
    }

    #[test]
    fn defective_sources_are_all_rejected_with_typed_errors() {
        let sources = defective_targeting_sources(25, 99);
        assert_eq!(sources, defective_targeting_sources(25, 99));
        for src in &sources {
            assert!(
                CompiledTargeting::parse(src).is_err(),
                "defective source parsed: {src:?}"
            );
        }
    }
}
