//! Sharded marketplace quickstart: the multi-threaded sibling of
//! `examples/marketplace.rs`.
//!
//! An 8-keyword marketplace is partitioned across 4 shards; a mixed query
//! stream is fanned out to per-shard worker threads by `serve_batch`, bids
//! change incrementally between batches (routed to the owning shard, no
//! cross-shard locking), and at the end the run is replayed on an
//! *unsharded* marketplace in keyword-local RNG mode to demonstrate the
//! equivalence guarantee: sharding changes the wall-clock, never the
//! auctions.
//!
//! ```text
//! cargo run --example sharded_marketplace
//! ```

use sponsored_search::bidlang::Money;
use sponsored_search::core::sharded::ShardedMarketplace;
use sponsored_search::core::WdMethod;
use sponsored_search::marketplace::{CampaignSpec, Marketplace, MarketplaceBuilder, QueryRequest};

const KEYWORDS: usize = 8;
const SHARDS: usize = 4;

fn configure() -> MarketplaceBuilder {
    Marketplace::builder()
        .slots(2)
        .keywords(KEYWORDS)
        .method(WdMethod::Reduced)
        .seed(2008)
        .default_click_probs(vec![0.35, 0.2])
}

/// Registers the same small campaign population on any marketplace flavour
/// (the control-plane APIs are name-for-name identical).
macro_rules! populate {
    ($market:expr) => {{
        let athletics = $market.register_advertiser("Athletics Inc");
        let runners = $market.register_advertiser("Runner's Hub");
        let brand = $market.register_advertiser("BrandHouse");
        let mut campaigns = Vec::new();
        for keyword in 0..KEYWORDS {
            campaigns.push(
                $market
                    .add_campaign(
                        athletics,
                        keyword,
                        CampaignSpec::per_click(Money::from_cents(10 + keyword as i64)),
                    )
                    .expect("campaign accepted"),
            );
            campaigns.push(
                $market
                    .add_campaign(
                        runners,
                        keyword,
                        CampaignSpec::per_click(Money::from_cents(14 - keyword as i64)),
                    )
                    .expect("campaign accepted"),
            );
            // Three bidders on two slots, so GSP's runner-up price is
            // always live and realized revenue is non-trivial.
            campaigns.push(
                $market
                    .add_campaign(
                        brand,
                        keyword,
                        CampaignSpec::per_click(Money::from_cents(7)),
                    )
                    .expect("campaign accepted"),
            );
        }
        campaigns
    }};
}

fn mixed_stream(len: usize) -> Vec<QueryRequest> {
    let mut state = 0x5EEDu64;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            QueryRequest::new(((state >> 33) % KEYWORDS as u64) as usize)
        })
        .collect()
}

fn main() {
    let mut market: ShardedMarketplace = configure()
        .build_sharded(SHARDS)
        .expect("valid configuration");
    let campaigns = populate!(market);

    println!("== keyword → shard routing (stable hash) ==");
    for keyword in 0..KEYWORDS {
        println!("  keyword {keyword} → shard {}", market.shard_of(keyword));
    }

    // Serve a mixed-keyword stream: serve_batch chunks it, deals the
    // chunks to their owning shards, and runs the shards concurrently.
    let stream = mixed_stream(200);
    let report = market.serve_batch(&stream).expect("keywords in range");
    println!("\n== first batch (200 queries over {SHARDS} shards) ==");
    println!(
        "  auctions {} · chunks {} · clicks {} · realized {}",
        report.total.auctions, report.chunks, report.total.clicks, report.total.realized_revenue,
    );

    // Incremental updates route straight to the owning shard: O(log n) on
    // that keyword's logical bid index, other shards untouched.
    market
        .update_bid(campaigns[0], Money::from_cents(1))
        .expect("per-click campaign");
    market.pause_campaign(campaigns[3]).expect("known campaign");
    let report2 = market.serve_batch(&stream).expect("keywords in range");
    println!("\n== second batch (after update_bid + pause) ==");
    println!(
        "  auctions {} · clicks {} · realized {}",
        report2.total.auctions, report2.total.clicks, report2.total.realized_revenue,
    );

    // The equivalence guarantee, demonstrated: an unsharded marketplace
    // replays the exact same auctions.
    let mut replay = configure().build().expect("valid configuration");
    let replay_campaigns = populate!(replay);
    let replay1 = replay.serve_batch(&stream).expect("keywords in range");
    replay
        .update_bid(replay_campaigns[0], Money::from_cents(1))
        .expect("per-click campaign");
    replay
        .pause_campaign(replay_campaigns[3])
        .expect("known campaign");
    let replay2 = replay.serve_batch(&stream).expect("keywords in range");
    assert_eq!(report, replay1, "sharded and unsharded runs must agree");
    assert_eq!(report2, replay2, "…including across incremental updates");
    println!(
        "\nunsharded replay matched both batches bit-for-bit \
         ({} shards are an execution detail, not a semantic one)",
        SHARDS
    );
}
