//! Network serving quickstart: the TCP sibling of
//! `examples/sharded_marketplace.rs`.
//!
//! An `ssa_net::Server` is booted in-process on an ephemeral port, then a
//! `Client` drives the whole marketplace lifecycle over the framed wire
//! protocol: configure the market, apply the population as one pipelined
//! stream of `MutationRecord`s, serve single auctions and a batched
//! stream, mutate bids mid-stream, inspect the bid book and server
//! counters — and finally the same records and queries are replayed on an
//! in-process `ShardedMarketplace` through `Marketplace::apply` to demonstrate
//! the serving contract: the wire changes the transport, never the
//! auctions.
//!
//! ```text
//! cargo run --example net_quickstart
//! ```

use sponsored_search::core::pricing::PricingScheme;
use sponsored_search::core::sharded::ShardedMarketplace;
use sponsored_search::core::{MutationRecord, WdMethod};
use sponsored_search::marketplace::{Marketplace, MarketplaceBuilder};
use sponsored_search::net::{Client, MarketConfig, Server, ServerConfig};

const KEYWORDS: usize = 4;
const SHARDS: usize = 2;
const SEED: u64 = 2008;

fn builder() -> MarketplaceBuilder {
    Marketplace::builder()
        .slots(2)
        .keywords(KEYWORDS)
        .method(WdMethod::Reduced)
        .seed(SEED)
        .default_click_probs(vec![0.4, 0.25])
}

fn main() {
    // A server needs *a* marketplace to start; clients usually reshape it
    // over the wire with `configure`, exactly as we do below.
    let bootstrap: ShardedMarketplace = builder().build_sharded(SHARDS).expect("valid config");
    let server = Server::bind("127.0.0.1:0", bootstrap, ServerConfig::default())
        .expect("bind ephemeral port")
        .spawn();
    println!("ssa-server listening on {}", server.addr());

    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("server is alive");

    // Control plane: every market operation is a `MutationRecord`, the
    // same value the write-ahead log stores. Rebuild the market to a known
    // shape, then apply the population as one pipelined stream.
    client
        .apply(MutationRecord::Configure(MarketConfig {
            slots: 2,
            keywords: KEYWORDS,
            seed: SEED,
            method: WdMethod::Reduced,
            pricing: PricingScheme::Gsp,
            shards: SHARDS,
            pruned: false,
            warm_start: true,
            default_click_probs: None,
            default_purchase_probs: None,
        }))
        .expect("reconfigure");
    let mut population: Vec<MutationRecord> = ["Athletics Inc", "Runner's Hub", "BrandHouse"]
        .into_iter()
        .map(|name| MutationRecord::RegisterAdvertiser { name: name.into() })
        .collect();
    for keyword in 0..KEYWORDS as u64 {
        // Three bidders on two slots keeps GSP's runner-up price live, so
        // realized revenue is non-trivial.
        for (advertiser, cents) in [(0, 10 + keyword as i64), (1, 14 - keyword as i64), (2, 7)] {
            population.push(MutationRecord::AddCampaign {
                advertiser,
                keyword,
                bid_cents: cents,
                click_value_cents: 3 * cents,
                roi_target: None,
                // The wire-configured market has no default click model;
                // campaigns carry their own curves.
                click_probs: Some(vec![0.4, 0.25]),
                purchase_probs: None,
                targeting: None,
            });
        }
    }
    let applied = client
        .apply_all(population.clone())
        .expect("population accepted");
    println!("population: {applied} records applied");

    // Data plane: single auctions...
    let response = client.serve(0).expect("keyword 0 exists");
    println!(
        "\nfirst wire auction: keyword {} · time {} · {} placements · realized {}",
        response.keyword,
        response.time,
        response.placements.len(),
        response.realized_revenue,
    );

    // ...and batched streams, answered with an aggregate summary.
    let stream: Vec<usize> = (1..200).map(|i| i % KEYWORDS).collect();
    let batch = client.serve_batch(&stream).expect("keywords in range");
    println!(
        "wire batch: {} auctions · {} clicks · realized {}¢",
        batch.auctions, batch.clicks, batch.realized_cents,
    );

    // Incremental updates land between auctions, same as in process:
    // Athletics Inc's bid on keyword 0 drops, its keyword-1 campaign pauses.
    let updates = [
        MutationRecord::UpdateBid {
            keyword: 0,
            index: 0,
            bid_cents: 1,
        },
        MutationRecord::PauseCampaign {
            keyword: 1,
            index: 0,
        },
    ];
    client.apply_all(updates.clone()).expect("known campaigns");
    let batch2 = client.serve_batch(&stream).expect("keywords in range");

    println!("\ntop of the keyword-0 bid book after the update:");
    for (id, bid) in client.top_bids(0, 3).expect("known keyword") {
        println!("  {id:?} bids {bid}");
    }
    let stats = client.stats().expect("stats");
    println!(
        "server counters: {} auctions · {} requests · {} sessions · {} overloaded",
        stats.auctions, stats.requests, stats.sessions, stats.overloaded,
    );

    // The serving contract: replay the identical run in process — same
    // config, same population, same stream — and compare outcomes.
    let mut local = builder().build_sharded(SHARDS).expect("valid config");
    for op in population {
        local.apply(op).expect("population accepted");
    }
    let local_first = local
        .serve(sponsored_search::marketplace::QueryRequest::new(0))
        .expect("keyword 0 exists");
    assert_eq!(response, local_first, "single auctions must agree");
    let queries: Vec<_> = stream
        .iter()
        .map(|&k| sponsored_search::marketplace::QueryRequest::new(k))
        .collect();
    let local_batch = local.serve_batch(&queries).expect("keywords in range");
    assert_eq!(
        batch.expected_revenue.to_bits(),
        local_batch.total.expected_revenue.to_bits()
    );
    assert_eq!(batch.clicks, local_batch.total.clicks);
    for op in updates {
        local.apply(op).expect("known campaigns");
    }
    let local_batch2 = local.serve_batch(&queries).expect("keywords in range");
    assert_eq!(
        batch2.expected_revenue.to_bits(),
        local_batch2.total.expected_revenue.to_bits()
    );
    assert_eq!(
        batch2.realized_cents,
        local_batch2.total.realized_revenue.cents()
    );
    println!("\nin-process replay matched the wire run bit-for-bit");

    // Graceful shutdown drains in-flight work, then the listener closes.
    client.shutdown_server().expect("graceful shutdown");
    server.join();
    println!("server drained and stopped");
}
