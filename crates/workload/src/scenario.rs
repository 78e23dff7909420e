//! One description of a single-run Section V experiment.
//!
//! The paper's evaluation is one experiment — one advertiser population,
//! one query stream, the method varied — and every way this repository
//! serves it (in process, sharded, journalled, over the wire) is a
//! *dimension* of that experiment, not a different experiment. A
//! [`Scenario`] names a point in that space and `ssa_bench::run` serves
//! it, so an in-process row, a wire row, and a journalled row of one
//! scenario differ only in the layer under test, and layer cost falls out
//! by subtraction.
//!
//! | field | `reproduce` |
//! |---|---|
//! | `population` | `--strategy`, `--targeted` |
//! | `stream` | `--workload` |
//! | `transport` | `--server` |
//! | `drive` | `--connections`, `--verify`, `--skip`, `--shutdown` |
//! | `durability` | `--durable` (over the wire: the server's `--data-dir`) |
//! | `shards` | `--shards` |
//! | `method` | `--method` |
//! | `pricing` | (GSP) |
//! | `pruned` | `--pruned` |
//! | `advertisers`, `seed` | `--quick`, `--advertisers` |
//! | `auctions`, `warmup` | `--quick`, `--load` |

use crate::config::SectionVConfig;
use crate::hostile::{ChurnPlan, WorkloadShape};
use crate::sql::Strategy;
use ssa_core::{PricingScheme, QueryRequest, UserAttrs, WdMethod};
use std::net::SocketAddr;
use std::path::PathBuf;

/// Which advertiser population a scenario registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// The static Section V population: one per-click campaign per
    /// advertiser per keyword ([`crate::SectionVWorkload::campaigns`]).
    PerClick,
    /// The per-click population with every even-indexed advertiser
    /// targeting mobile queries only, served a stream that alternates
    /// mobile and desktop queries — so desktop queries exclude half the
    /// advertisers from the candidate set before the matrix fill.
    Targeted,
    /// The programmed Section II-B population ([`crate::sql`]): every
    /// advertiser a keyword-local Figure 5 ROI program of the given
    /// flavour. Programs are in-process values: they can neither cross
    /// the wire nor be journalled.
    Programmed(Strategy),
}

/// Which keyword stream a scenario serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stream {
    /// Keywords in rotation: query `i` asks for keyword `i mod keywords`.
    RoundRobin,
    /// A seeded hostile shape ([`WorkloadShape::query_stream`]), with its
    /// churn plan applied while the clock runs.
    Shaped(WorkloadShape),
}

impl Stream {
    /// The first `len` keywords of the stream over `num_keywords`
    /// keywords. A shaped stream's seed is decoupled from the population
    /// seed, so the shape owns traffic randomness and the population
    /// stays comparable across shapes.
    pub fn keywords(&self, num_keywords: usize, len: usize, seed: u64) -> Vec<usize> {
        match self {
            Stream::RoundRobin => (0..len).map(|i| i % num_keywords.max(1)).collect(),
            Stream::Shaped(shape) => shape.query_stream(num_keywords, len, seed ^ 0x7AFF_1C5E),
        }
    }

    /// The hostile shape, if the stream has one.
    pub fn shape(&self) -> Option<WorkloadShape> {
        match self {
            Stream::RoundRobin => None,
            Stream::Shaped(shape) => Some(*shape),
        }
    }
}

/// How a wire run's queries reach the server. The default sends
/// `ServeBatch` requests over one connection; the other settings serve one
/// request at a time and time each. Every field drives a server, so a run
/// in process accepts only the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Drive {
    /// `Some(n)`: a closed loop — `n` connections split the stream, each
    /// sending its next request when the last one is answered.
    pub connections: Option<usize>,
    /// `Some(skip)`: one connection serves the stream in order and every
    /// auction is compared bit for bit with an in-process twin, as are the
    /// keywords' top bids at the end. No warm-up is served. With `skip`
    /// above 0 the server already holds the market and has served the
    /// stream's first `skip` queries, which the twin replays before the
    /// comparison starts.
    pub verify: Option<usize>,
    /// Ask the server to drain and stop after the run.
    pub shutdown: bool,
}

/// One point in the experiment space: what is served, to whom, through
/// which layers. See the [module docs](self) for the field ↔ flag table.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The advertiser population.
    pub population: Population,
    /// The query stream.
    pub stream: Stream,
    /// `Some(addr)` serves through the `ssa-server` at `addr` over the
    /// wire protocol; `None` serves in process.
    pub transport: Option<SocketAddr>,
    /// How a wire run drives the server.
    pub drive: Drive,
    /// `Some(dir)` journals every mutation and batch to a write-ahead log
    /// in `dir` (which must be empty) while the clock runs, then recovers
    /// from it and checks the recovered market against the served one.
    pub durability: Option<PathBuf>,
    /// Shard count of the serving layer; `None` means one shard and is
    /// reported as `"shards":null`.
    pub shards: Option<usize>,
    /// Winner-determination method.
    pub method: WdMethod,
    /// Pricing rule. The programmed populations are defined under GSP
    /// (their click charges are the feedback the ROI programs consume)
    /// and ignore this field.
    pub pricing: PricingScheme,
    /// Solve on the union of each slot's top-k bidders.
    pub pruned: bool,
    /// Advertisers in the population.
    pub advertisers: usize,
    /// Timed auctions.
    pub auctions: usize,
    /// Unmeasured warm-up auctions served before the clock starts.
    pub warmup: usize,
    /// Workload seed (population, stream, and market seeds derive from it).
    pub seed: u64,
}

impl Scenario {
    /// The quick preset: finishes in well under a second per row.
    pub fn quick() -> Self {
        Scenario::sized(250, 50)
    }

    /// The full preset: the scale the tracked perf rows run at.
    pub fn full() -> Self {
        Scenario::sized(1000, 200)
    }

    fn sized(advertisers: usize, auctions: usize) -> Self {
        Scenario {
            population: Population::PerClick,
            stream: Stream::RoundRobin,
            transport: None,
            drive: Drive::default(),
            durability: None,
            shards: None,
            method: WdMethod::Reduced,
            pricing: PricingScheme::Gsp,
            pruned: false,
            advertisers,
            auctions: 0,
            warmup: 0,
            seed: 4242,
        }
        .load(auctions)
    }

    /// Serves `auctions` timed auctions, after a tenth as many (plus one)
    /// warm-up auctions.
    pub fn load(mut self, auctions: usize) -> Self {
        self.auctions = auctions;
        self.warmup = auctions / 10 + 1;
        self
    }

    /// The Section V workload configuration of the population: the
    /// paper's 15 slots and 10 keywords.
    pub fn section_v(&self) -> SectionVConfig {
        SectionVConfig::paper(self.advertisers, self.seed)
    }

    /// The first `len` queries of the scenario's stream. The targeted
    /// population's stream alternates mobile and desktop users.
    pub fn requests(&self, len: usize) -> Vec<QueryRequest> {
        let keywords = self
            .stream
            .keywords(self.section_v().num_keywords, len, self.seed);
        let targeted = self.population == Population::Targeted;
        keywords
            .into_iter()
            .enumerate()
            .map(|(i, keyword)| {
                if targeted {
                    let device = if i % 2 == 0 { "mobile" } else { "desktop" };
                    QueryRequest::with_attrs(keyword, UserAttrs::new().device(device))
                } else {
                    QueryRequest::new(keyword)
                }
            })
            .collect()
    }

    /// The control-plane churn applied while the timed auctions are
    /// served: empty unless the stream is [`WorkloadShape::Churn`].
    pub fn churn_plan(&self) -> ChurnPlan {
        match self.stream {
            Stream::RoundRobin => ChurnPlan::default(),
            Stream::Shaped(shape) => shape.churn_plan(
                self.section_v().num_keywords,
                self.advertisers,
                self.auctions,
                self.seed,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_size_only() {
        let (quick, full) = (Scenario::quick(), Scenario::full());
        assert_eq!(
            (quick.advertisers, quick.auctions, quick.warmup),
            (250, 50, 6)
        );
        assert_eq!(
            (full.advertisers, full.auctions, full.warmup),
            (1000, 200, 21)
        );
        assert_eq!(
            Scenario {
                advertisers: full.advertisers,
                ..quick
            }
            .load(full.auctions),
            full
        );
        assert_eq!(Scenario::quick().load(25).warmup, 3);
    }

    #[test]
    fn round_robin_is_a_prefix_stable_rotation() {
        let long = Stream::RoundRobin.keywords(10, 25, 7);
        assert_eq!(long[..12], Stream::RoundRobin.keywords(10, 12, 99));
        assert_eq!(long[9..12], [9, 0, 1]);
    }

    #[test]
    fn shaped_streams_are_seeded_and_churn_only_under_churn() {
        let zipf = Scenario {
            stream: Stream::Shaped(WorkloadShape::Zipf { s: 1.1 }),
            ..Scenario::quick()
        };
        assert_eq!(zipf.requests(40), zipf.requests(40));
        assert_ne!(
            zipf.requests(40),
            Scenario {
                seed: 1,
                ..zipf.clone()
            }
            .requests(40)
        );
        assert!(zipf.churn_plan().events.is_empty());
        let churn = Scenario {
            stream: Stream::Shaped(WorkloadShape::Churn),
            ..Scenario::quick()
        };
        assert!(!churn.churn_plan().events.is_empty());
    }

    #[test]
    fn targeted_requests_alternate_devices() {
        let scenario = Scenario {
            population: Population::Targeted,
            ..Scenario::quick()
        };
        let requests = scenario.requests(4);
        assert_eq!(requests[0].attrs, UserAttrs::new().device("mobile"));
        assert_eq!(requests[1].attrs, UserAttrs::new().device("desktop"));
        assert_eq!(requests[3].keyword, 3);
        assert!(Scenario::quick().requests(2)[0].attrs.is_empty());
    }
}
