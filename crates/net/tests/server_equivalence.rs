//! The serving contract: a seeded Section V stream served over a socket
//! is bit-identical — winners, clicks, purchases, charges, and the
//! floating-point expected-revenue aggregates — to the same stream served
//! in process through `ShardedMarketplace`.

use ssa_bidlang::Money;
use ssa_core::marketplace::QueryRequest;
use ssa_core::{CampaignId, PricingScheme, WdMethod};
use ssa_net::client::Client;
use ssa_net::load::{local_twin, market_config_for};
use ssa_net::proto::BatchSummary;
use ssa_net::server::{Server, ServerConfig, ServerHandle};
use ssa_net::{populate_remote, MarketConfig};
use ssa_workload::{SectionVConfig, SectionVWorkload};

fn small_config() -> SectionVConfig {
    SectionVConfig {
        num_advertisers: 25,
        num_slots: 5,
        num_keywords: 8,
        seed: 0xC0FFEE,
    }
}

/// Spawns a server on a fresh port with a throwaway initial marketplace
/// (every test reconfigures it over the wire anyway).
fn spawn_server() -> ServerHandle {
    let market = ssa_core::Marketplace::builder()
        .slots(1)
        .keywords(1)
        .default_click_probs(vec![0.1])
        .build_sharded(1)
        .expect("valid bootstrap marketplace");
    Server::bind("127.0.0.1:0", market, ServerConfig::default())
        .expect("bind")
        .spawn()
}

fn setup(
    config: &SectionVConfig,
    shards: usize,
) -> (ServerHandle, Client, SectionVWorkload, MarketConfig) {
    let workload = SectionVWorkload::generate(*config);
    let market_config =
        market_config_for(config, WdMethod::Reduced, PricingScheme::Gsp, shards, false);
    let server = spawn_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    client.configure(&market_config).expect("configure");
    populate_remote(&mut client, &workload, false).expect("populate");
    (server, client, workload, market_config)
}

/// Serve-by-serve equivalence, with control-plane mutations applied
/// mid-stream to both sides: every wire-served auction equals the
/// in-process auction, including raw `expected_revenue` bits.
#[test]
fn wire_serves_match_in_process_with_mid_stream_mutations() {
    let config = small_config();
    let (server, mut client, workload, market_config) = setup(&config, 3);
    let mut twin = local_twin(&workload, &market_config);

    let stream: Vec<usize> = workload.query_stream.iter().take(240).copied().collect();
    for (i, &keyword) in stream.iter().enumerate() {
        match i {
            60 => {
                // Raise one campaign's bid on both sides.
                let id = CampaignId::from_parts(keyword, 3);
                let bid = Money::from_cents(4_200);
                client.update_bid(id, bid).expect("remote update_bid");
                twin.update_bid(id, bid).expect("local update_bid");
            }
            100 => {
                // Pause a campaign and give another an ROI target.
                let paused = CampaignId::from_parts(keyword, 0);
                client.pause_campaign(paused).expect("remote pause");
                twin.pause_campaign(paused).expect("local pause");
                let targeted = CampaignId::from_parts(keyword, 5);
                client
                    .set_roi_target(targeted, Some(1.5))
                    .expect("remote roi");
                twin.set_roi_target(targeted, Some(1.5)).expect("local roi");
            }
            180 => {
                let resumed = CampaignId::from_parts(keyword, 0);
                client.resume_campaign(resumed).expect("remote resume");
                twin.resume_campaign(resumed).expect("local resume");
            }
            _ => {}
        }

        let remote = client.serve(keyword).expect("remote serve");
        let local = twin.serve(QueryRequest::new(keyword)).expect("local serve");
        assert_eq!(
            remote.expected_revenue.to_bits(),
            local.expected_revenue.to_bits(),
            "expected_revenue bits diverged at query {i} (keyword {keyword})"
        );
        assert_eq!(remote, local, "auction diverged at query {i}");
    }

    // The control-plane view agrees too: same top bids, same order.
    for keyword in 0..config.num_keywords {
        let remote_bids = client.top_bids(keyword, 6).expect("remote top_bids");
        let local_bids = twin.top_bids(keyword, 6).expect("local top_bids");
        assert_eq!(remote_bids, local_bids, "top_bids diverged on {keyword}");
    }

    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

/// One wire `ServeBatch` over the full Section V stream equals the
/// in-process `serve_batch` aggregate, bit for bit — and the twin's shard
/// count does not matter, thanks to keyword-local RNG.
#[test]
fn wire_batch_matches_in_process_at_any_shard_count() {
    let config = small_config();
    let (server, mut client, workload, market_config) = setup(&config, 4);

    let stream: Vec<usize> = workload.query_stream.clone();
    let remote = client.serve_batch(&stream).expect("remote serve_batch");

    for twin_shards in [1usize, 2, 4] {
        let twin_config = MarketConfig {
            shards: twin_shards,
            ..market_config.clone()
        };
        let mut twin = local_twin(&workload, &twin_config);
        let requests: Vec<QueryRequest> = stream.iter().map(|&kw| QueryRequest::new(kw)).collect();
        let report = twin.serve_batch(&requests).expect("local serve_batch");
        let local = BatchSummary::from_report(&report);

        assert_eq!(
            remote.expected_revenue.to_bits(),
            local.expected_revenue.to_bits(),
            "aggregate expected_revenue bits diverged at {twin_shards} twin shards"
        );
        assert_eq!(remote, local, "batch diverged at {twin_shards} twin shards");
    }

    // Server-side counters observed the batch.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.auctions, stream.len() as u64);
    assert_eq!(stats.keywords, config.num_keywords as u64);
    assert_eq!(stats.shards, 4);
    assert_eq!(
        stats.advertisers, config.num_advertisers as u64,
        "every Section V advertiser registered over the wire"
    );

    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

/// `Configure` rebuilds the marketplace from scratch: serving the same
/// stream after a reconfigure reproduces the original outcomes exactly.
#[test]
fn reconfigure_resets_to_a_reproducible_market() {
    let config = small_config();
    let (server, mut client, workload, market_config) = setup(&config, 2);

    let stream: Vec<usize> = workload.query_stream.iter().take(64).copied().collect();
    let first: Vec<_> = stream
        .iter()
        .map(|&kw| client.serve(kw).expect("first pass"))
        .collect();

    // Rebuild + repopulate: the same auctions come out again.
    client.configure(&market_config).expect("reconfigure");
    populate_remote(&mut client, &workload, false).expect("repopulate");
    for (i, &kw) in stream.iter().enumerate() {
        let again = client.serve(kw).expect("second pass");
        assert_eq!(again, first[i], "replay diverged at query {i}");
    }

    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

/// Every operation arm answers a malformed request exactly as the server's
/// hand-written `execute` arms did before requests ran through the bridge
/// and `ssa_core::journal::apply`: same [`ErrorCode`], same message. The
/// market is the 8-keyword, 5-slot, 25-advertiser Section V one.
#[test]
fn malformed_requests_keep_their_error_codes_and_messages() {
    use ssa_core::UserAttrs;
    use ssa_net::{ErrorCode, NetError, Request};

    let config = small_config();
    let (server, mut client, _workload, market_config) = setup(&config, 2);
    let add_campaign =
        |advertiser, keyword, click_probs, targeting: Option<&str>| Request::AddCampaign {
            advertiser,
            keyword,
            bid_cents: 10,
            click_value_cents: 20,
            roi_target: None,
            click_probs,
            purchase_probs: None,
            targeting: targeting.map(str::to_string),
        };
    let unknown_keyword = "keyword 99 outside the configured universe of 8";
    let cases: Vec<(Request, ErrorCode, &str)> = vec![
        (
            Request::Serve {
                keyword: 99,
                attrs: UserAttrs::new(),
            },
            ErrorCode::UnknownKeyword,
            unknown_keyword,
        ),
        (
            Request::ServeBatch {
                queries: vec![(0, UserAttrs::new()), (99, UserAttrs::new())],
            },
            ErrorCode::UnknownKeyword,
            unknown_keyword,
        ),
        (
            add_campaign(0, 99, None, None),
            ErrorCode::UnknownKeyword,
            unknown_keyword,
        ),
        (
            add_campaign(999, 1, Some(vec![0.1; 5]), None),
            ErrorCode::UnknownAdvertiser,
            "unknown advertiser handle 999",
        ),
        (
            add_campaign(0, 1, Some(vec![0.1; 3]), None),
            ErrorCode::ModelDimension,
            "per-slot model has 3 entries but the marketplace has 5 slots",
        ),
        (
            add_campaign(0, 1, Some(vec![0.1, 0.1, 1.5, 0.1, 0.1]), None),
            ErrorCode::InvalidProbability,
            "probability 1.5 outside [0, 1]",
        ),
        (
            add_campaign(0, 1, None, None),
            ErrorCode::MissingClickModel,
            "campaign supplied no click probabilities and no default click model is configured",
        ),
        (
            add_campaign(0, 1, Some(vec![0.1; 5]), Some("geo = ")),
            ErrorCode::InvalidTargeting,
            "invalid targeting expression: ",
        ),
        (
            Request::UpdateBid {
                keyword: 1,
                index: 999,
                bid_cents: 5,
            },
            ErrorCode::UnknownCampaign,
            "unknown campaign 1/999 (keyword/index)",
        ),
        (
            Request::UpdateBid {
                keyword: 99,
                index: 0,
                bid_cents: 5,
            },
            ErrorCode::UnknownCampaign,
            "unknown campaign 99/0 (keyword/index)",
        ),
        (
            Request::UpdateBid {
                keyword: 1,
                index: 0,
                bid_cents: -5,
            },
            ErrorCode::NegativeBid,
            "bid -$0.05 is negative",
        ),
        (
            Request::PauseCampaign {
                keyword: 1,
                index: 999,
            },
            ErrorCode::UnknownCampaign,
            "unknown campaign 1/999 (keyword/index)",
        ),
        (
            Request::ResumeCampaign {
                keyword: 99,
                index: 0,
            },
            ErrorCode::UnknownCampaign,
            "unknown campaign 99/0 (keyword/index)",
        ),
        (
            Request::SetRoiTarget {
                keyword: 1,
                index: 999,
                target: Some(1.5),
            },
            ErrorCode::UnknownCampaign,
            "unknown campaign 1/999 (keyword/index)",
        ),
        (
            Request::SetRoiTarget {
                keyword: 1,
                index: 0,
                target: Some(0.0),
            },
            ErrorCode::InvalidRoiTarget,
            "ROI target 0 must be finite and positive",
        ),
        (
            Request::Configure(MarketConfig {
                slots: 0,
                ..market_config.clone()
            }),
            ErrorCode::InvalidConfig,
            "a marketplace needs at least one slot",
        ),
        (
            Request::Configure(MarketConfig {
                keywords: 0,
                ..market_config.clone()
            }),
            ErrorCode::InvalidConfig,
            "a marketplace needs at least one keyword",
        ),
        (
            Request::Configure(MarketConfig {
                shards: 0,
                ..market_config.clone()
            }),
            ErrorCode::InvalidConfig,
            "a sharded marketplace needs at least one shard",
        ),
        (
            Request::Configure(MarketConfig {
                slots: 1 << 20,
                ..market_config.clone()
            }),
            ErrorCode::InvalidConfig,
            "a marketplace has at most 1024 slots, not 1048576",
        ),
        (
            Request::Configure(MarketConfig {
                keywords: 1 << 40,
                ..market_config.clone()
            }),
            ErrorCode::InvalidConfig,
            "a marketplace has at most 65536 keywords, not 1099511627776",
        ),
        (
            Request::Configure(MarketConfig {
                shards: 1 << 40,
                ..market_config.clone()
            }),
            ErrorCode::InvalidConfig,
            "a marketplace has at most 1024 shards, not 1099511627776",
        ),
    ];
    let before = client.stats().expect("stats");
    for (request, code, message) in cases {
        match client.request(&request) {
            Err(NetError::Server {
                code: got,
                message: detail,
            }) => {
                assert_eq!(got, code, "{request:?}");
                // The targeting parser's own wording is pinned by its
                // crate; here only the arm's prefix is.
                if code == ErrorCode::InvalidTargeting {
                    assert!(detail.starts_with(message), "{request:?}: {detail}");
                } else {
                    assert_eq!(detail, message, "{request:?}");
                }
            }
            other => panic!("{request:?} answered {other:?}"),
        }
    }
    // A refused operation changes nothing — a refused Configure included.
    let after = client.stats().expect("stats");
    assert_eq!(
        (
            after.campaigns,
            after.keywords,
            after.shards,
            after.auctions
        ),
        (
            before.campaigns,
            before.keywords,
            before.shards,
            before.auctions
        )
    );
    // And the server is still up: an oversized Configure is refused, not a
    // process abort.
    client.ping().expect("ping after the refusals");
    client.serve(0).expect("serve after the refusals");

    client.shutdown_server().expect("graceful shutdown");
    server.join();
}
