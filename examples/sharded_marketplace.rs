//! Sharded marketplace quickstart: the multi-threaded sibling of
//! `examples/marketplace.rs`.
//!
//! An 8-keyword marketplace is built on 4 shards; a mixed query stream is
//! fanned out to per-shard worker threads by `serve_batch`, bids change
//! incrementally between batches (each touches its keyword's book, no
//! cross-shard locking), and at the end the run is replayed on the same
//! marketplace built on *one* shard to demonstrate the equivalence
//! guarantee: sharding changes the wall-clock, never the auctions.
//!
//! ```text
//! cargo run --example sharded_marketplace
//! ```

use sponsored_search::bidlang::Money;
use sponsored_search::core::{CampaignId, WdMethod};
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

/// Registers a small campaign population: three advertisers on every
/// keyword.
fn populate(market: &mut Marketplace) -> Vec<CampaignId> {
    let athletics = market.register_advertiser("Athletics Inc");
    let runners = market.register_advertiser("Runner's Hub");
    let brand = market.register_advertiser("BrandHouse");
    let mut campaigns = Vec::new();
    for keyword in 0..KEYWORDS {
        // Three bidders on two slots, so GSP's runner-up price is always
        // live and realized revenue is non-trivial.
        for (advertiser, cents) in [
            (athletics, 10 + keyword as i64),
            (runners, 14 - keyword as i64),
            (brand, 7),
        ] {
            campaigns.push(
                market
                    .add_campaign(
                        advertiser,
                        keyword,
                        CampaignSpec::per_click(Money::from_cents(cents)),
                    )
                    .expect("campaign accepted"),
            );
        }
    }
    campaigns
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
    let mut market = configure()
        .build_sharded(SHARDS)
        .expect("valid configuration");
    let campaigns = populate(&mut market);

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

    // Incremental updates go straight to the keyword's book: one write to
    // the campaign and its bidder, every other keyword untouched.
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

    // The equivalence guarantee, demonstrated: the same marketplace on one
    // shard replays the exact same auctions.
    let mut replay = configure().build().expect("valid configuration");
    let replay_campaigns = populate(&mut replay);
    let replay1 = replay.serve_batch(&stream).expect("keywords in range");
    replay
        .update_bid(replay_campaigns[0], Money::from_cents(1))
        .expect("per-click campaign");
    replay
        .pause_campaign(replay_campaigns[3])
        .expect("known campaign");
    let replay2 = replay.serve_batch(&stream).expect("keywords in range");
    assert_eq!(report, replay1, "four shards and one must agree");
    assert_eq!(report2, replay2, "…including across incremental updates");
    println!(
        "\none-shard replay matched both batches bit-for-bit \
         ({} shards are an execution detail, not a semantic one)",
        SHARDS
    );
}
