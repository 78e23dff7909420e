//! Section V load-driving over the wire: verification twins and latency
//! reporting for the `ssa-load` binary and the bench driver.
//!
//! Both sides of the wire build the same population from the same record
//! stream ([`SectionVWorkload::records`]) on a market built from the same
//! [`MarketConfig`] ([`market_config_for`]), so a remote marketplace
//! configured and populated through [`crate::Client::apply_all`] is
//! bit-for-bit the market [`local_twin`] builds in process — which is what
//! lets the twin act as the equivalence oracle for wire-served auctions.

use std::time::Duration;

use ssa_core::{Marketplace, PricingScheme, WdMethod};
use ssa_workload::{nearest_rank, SectionVConfig, SectionVWorkload};

use crate::proto::MarketConfig;
use crate::server::build_market;

/// The [`MarketConfig`] of the Section V marketplace for a given workload:
/// same slots/keywords, the workload's derived market seed, caller-chosen
/// method, pricing, shard count, and solver toggles.
pub fn market_config_for(
    config: &SectionVConfig,
    method: WdMethod,
    pricing: PricingScheme,
    shards: usize,
    pruned: bool,
) -> MarketConfig {
    MarketConfig {
        slots: config.num_slots,
        keywords: config.num_keywords,
        seed: config.market_seed(),
        method,
        pricing,
        shards,
        pruned,
        warm_start: true,
        default_click_probs: None,
        default_purchase_probs: None,
    }
}

/// Builds the in-process marketplace a remote server holds after
/// [`crate::proto::Request::Configure`]\(`config`\) and the untargeted
/// population's [`SectionVWorkload::records`]: the oracle for
/// equivalence checks. Outcomes do not depend on `config.shards`, so the
/// twin may run any shard count. Panics on a configuration or population
/// the marketplace refuses: a twin of a refused one is no oracle.
#[allow(clippy::expect_used)]
pub fn local_twin(workload: &SectionVWorkload, config: &MarketConfig) -> Marketplace {
    let mut market = build_market(config).expect("twin configuration is valid");
    workload
        .populate(&mut market, false)
        .expect("Section V campaign is valid");
    market
}

/// Collects request latencies; [`LatencyRecorder::summary`] sorts them
/// once and reports percentiles.
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    samples_us: Vec<u64>,
}

/// Percentiles of a [`LatencyRecorder`]'s samples, in milliseconds (all 0
/// if nothing was recorded).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median, by the nearest-rank method.
    pub p50_ms: f64,
    /// 99th percentile, by the nearest-rank method.
    pub p99_ms: f64,
    /// Maximum.
    pub max_ms: f64,
    /// Mean.
    pub mean_ms: f64,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one request's latency.
    pub fn record(&mut self, latency: Duration) {
        self.samples_us.push(latency.as_micros() as u64);
    }

    /// Merges another recorder's samples in (per-worker recorders are
    /// folded into one before reporting).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples_us.extend_from_slice(&other.samples_us);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Sorts the samples once and reads every reported statistic off the
    /// sorted vector.
    pub fn summary(self) -> LatencySummary {
        let mut sorted = self.samples_us;
        sorted.sort_unstable();
        let sum: u64 = sorted.iter().sum();
        LatencySummary {
            p50_ms: nearest_rank(&sorted, 0.50) as f64 / 1e3,
            p99_ms: nearest_rank(&sorted, 0.99) as f64 / 1e3,
            max_ms: sorted.last().copied().unwrap_or(0) as f64 / 1e3,
            mean_ms: sum as f64 / sorted.len().max(1) as f64 / 1e3,
        }
    }
}

/// Aggregate outcome of an `ssa-load` run, serialisable as one JSON line
/// in the bench-report stream.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Name of the `Scenario` preset the run's sizes started from
    /// (`"quick"` or `"full"`; size flags may have overridden parts of it).
    pub preset: &'static str,
    /// Advertisers in the Section V population.
    pub advertisers: usize,
    /// Keyword universe size.
    pub keywords: usize,
    /// Slots per page.
    pub slots: usize,
    /// Winner-determination method the server ran.
    pub method: WdMethod,
    /// Shard count the server ran.
    pub shards: usize,
    /// Workload seed.
    pub seed: u64,
    /// Concurrent client connections.
    pub connections: usize,
    /// Queries answered successfully (excludes refused ones).
    pub queries: u64,
    /// Unmeasured warm-up queries.
    pub warmup: u64,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
    /// Per-request latency percentiles of the measured phase.
    pub latency: LatencySummary,
    /// Requests refused with `Overloaded`.
    pub overloaded: u64,
    /// Population records the server applied (0 when the run did not
    /// populate).
    pub populate_ops: u64,
    /// Wall-clock time of the population's pipelined
    /// [`crate::Client::apply_all`], in milliseconds.
    pub populate_ms: f64,
    /// Logical cores available to the *client* process.
    pub cores: usize,
    /// Outcome of the bit-exactness check against the local twin:
    /// `Some(true)` verified, `Some(false)` mismatch, `None` not checked.
    pub verified: Option<bool>,
    /// Hostile stream shape the run drew its queries from (`--workload`),
    /// or `None` for the round-robin stream.
    pub workload: Option<ssa_workload::WorkloadShape>,
}

impl LoadReport {
    /// Queries per second over the measured phase.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// One JSON object (stable keys, no dependencies) in the style of
    /// `ssa_bench::MethodRun::to_json`, tagged `"metric":"net_load"`.
    pub fn to_json(&self) -> String {
        let verified = match self.verified {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        let workload = match self.workload {
            Some(shape) => format!("\"{shape}\""),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"metric\":\"net_load\",\"preset\":\"{}\",",
                "\"method\":\"{}\",\"advertisers\":{},",
                "\"keywords\":{},\"slots\":{},\"shards\":{},\"seed\":{},",
                "\"connections\":{},\"queries\":{},\"warmup\":{},",
                "\"elapsed_ms\":{:.3},\"qps\":{:.1},\"p50_ms\":{:.3},",
                "\"p99_ms\":{:.3},\"max_ms\":{:.3},\"mean_ms\":{:.3},",
                "\"overloaded\":{},\"populate_ops\":{},\"populate_ms\":{:.3},",
                "\"cores\":{},\"verified\":{},\"workload\":{}}}"
            ),
            self.preset,
            self.method,
            self.advertisers,
            self.keywords,
            self.slots,
            self.shards,
            self.seed,
            self.connections,
            self.queries,
            self.warmup,
            self.elapsed.as_secs_f64() * 1e3,
            self.qps(),
            self.latency.p50_ms,
            self.latency.p99_ms,
            self.latency.max_ms,
            self.latency.mean_ms,
            self.overloaded,
            self.populate_ops,
            self.populate_ms,
            self.cores,
            verified,
            workload,
        )
    }
}

/// Logical cores available to this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_uses_nearest_rank() {
        let mut rec = LatencyRecorder::new();
        // Recorded out of order: the summary sorts.
        for us in [9000, 2000, 7000, 4000, 5000, 6000, 3000, 8000, 1000, 10_000] {
            rec.record(Duration::from_micros(us));
        }
        let summary = rec.summary();
        assert_eq!(summary.p50_ms, 5.0);
        assert_eq!(summary.p99_ms, 10.0);
        assert_eq!(summary.max_ms, 10.0);
        assert_eq!(summary.mean_ms, 5.5);
        assert_eq!(LatencyRecorder::new().summary(), LatencySummary::default());
    }

    #[test]
    fn report_json_has_the_contract_fields() {
        let mut latencies = LatencyRecorder::new();
        latencies.record(Duration::from_micros(1500));
        let report = LoadReport {
            preset: "full",
            advertisers: 50,
            keywords: 10,
            slots: 15,
            method: WdMethod::Reduced,
            shards: 4,
            seed: 42,
            connections: 2,
            queries: 4096,
            warmup: 512,
            elapsed: Duration::from_millis(100),
            latency: latencies.summary(),
            overloaded: 0,
            populate_ops: 2200,
            populate_ms: 55.5,
            cores: available_cores(),
            verified: Some(true),
            workload: Some(ssa_workload::WorkloadShape::Zipf { s: 1.1 }),
        };
        let json = report.to_json();
        for key in [
            "\"metric\":\"net_load\"",
            "\"preset\":\"full\"",
            "\"qps\":",
            "\"p50_ms\":",
            "\"p99_ms\":",
            "\"max_ms\":",
            "\"populate_ops\":2200",
            "\"populate_ms\":55.500",
            "\"cores\":",
            "\"verified\":true",
            "\"method\":\"rh\"",
            "\"workload\":\"zipf:1.1\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
