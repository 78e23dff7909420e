//! `Client::apply_all` pipelines a record stream and checks every reply:
//! a refused record in the middle of the window comes back as the server's
//! typed error, every reply already in flight is read off the connection,
//! and the server holds exactly what the same records build applied one
//! at a time in process.

use ssa_core::{journal, Marketplace, MarketplaceBuilder, MutationRecord, QueryRequest};
use ssa_net::client::{Client, NetError};
use ssa_net::proto::ErrorCode;
use ssa_net::server::{Server, ServerConfig};
use ssa_workload::defective_targeting_sources;

const KEYWORDS: usize = 3;

fn builder() -> MarketplaceBuilder {
    Marketplace::builder()
        .slots(2)
        .keywords(KEYWORDS)
        .seed(53)
        .default_click_probs(vec![0.5, 0.25])
}

/// Two advertisers with a campaign on every keyword, and one more
/// campaign in the middle whose targeting source nests past the parser's
/// depth limit. Shorter than the window: every record is in flight before
/// the refusal comes back.
fn stream_with_a_hostile_record() -> Vec<MutationRecord> {
    let campaign = |advertiser, keyword, bid_cents, targeting| MutationRecord::AddCampaign {
        advertiser,
        keyword,
        bid_cents,
        click_value_cents: 90,
        roi_target: None,
        click_probs: None,
        purchase_probs: None,
        targeting,
    };
    let mut records = vec![
        MutationRecord::RegisterAdvertiser { name: "a".into() },
        MutationRecord::RegisterAdvertiser { name: "b".into() },
    ];
    for keyword in 0..KEYWORDS as u64 {
        records.push(campaign(0, keyword, 30 + keyword as i64, None));
    }
    let hostile = defective_targeting_sources(2, 53).remove(1);
    records.push(campaign(1, 0, 99, Some(hostile)));
    for keyword in 0..KEYWORDS as u64 {
        records.push(campaign(1, keyword, 20 + keyword as i64, None));
        records.push(MutationRecord::UpdateBid {
            keyword,
            index: 0,
            bid_cents: 25,
        });
    }
    records
}

#[test]
fn a_refused_record_mid_window_is_typed_and_leaves_the_connection_clean() {
    let server = Server::bind(
        "127.0.0.1:0",
        builder().build_sharded(2).expect("valid marketplace"),
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn();
    let mut client = Client::connect(server.addr()).expect("connect");

    let records = stream_with_a_hostile_record();
    match client.apply_all(records.clone()) {
        Err(NetError::Server {
            code: ErrorCode::InvalidTargeting,
            ..
        }) => {}
        other => panic!("expected InvalidTargeting, got {other:?}"),
    }
    // No stale reply is left in the client's buffer: the next round trip
    // reads its own.
    client.ping().expect("the connection is still usable");

    let mut twin = builder().build().expect("valid marketplace");
    let mut refused = 0;
    for op in records {
        if journal::apply(&mut twin, op).is_err() {
            refused += 1;
        }
    }
    assert_eq!(refused, 1, "the twin refuses the hostile record alone");
    for keyword in 0..KEYWORDS {
        assert_eq!(
            client.top_bids(keyword, 8).expect("read"),
            twin.top_bids(keyword, 8).expect("twin read"),
            "keyword {keyword}'s book"
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.advertisers, twin.num_advertisers() as u64);
    assert_eq!(stats.campaigns, twin.num_campaigns_total() as u64);
    assert_eq!(stats.auctions, twin.now());

    // The markets keep serving alike.
    for keyword in 0..KEYWORDS {
        assert_eq!(
            client.serve(keyword).expect("serve"),
            twin.serve(QueryRequest::new(keyword)).expect("twin serve")
        );
    }
    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

/// A stream several windows long is applied whole, and the count says so.
#[test]
fn a_stream_longer_than_the_window_is_applied_in_order() {
    let server = Server::bind(
        "127.0.0.1:0",
        builder().build_sharded(1).expect("valid marketplace"),
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn();
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut records = vec![MutationRecord::RegisterAdvertiser { name: "a".into() }];
    records.extend(
        (0..KEYWORDS as u64).map(|keyword| MutationRecord::AddCampaign {
            advertiser: 0,
            keyword,
            bid_cents: 10,
            click_value_cents: 90,
            roi_target: None,
            click_probs: None,
            purchase_probs: None,
            targeting: None,
        }),
    );
    // Each bid write depends on the one before it: only in-order
    // application leaves the last one standing.
    records.extend((0..300).map(|i| MutationRecord::UpdateBid {
        keyword: i % KEYWORDS as u64,
        index: 0,
        bid_cents: 11 + i as i64,
    }));
    let applied = client.apply_all(records.clone()).expect("stream applied");
    assert_eq!(applied, records.len() as u64);

    let mut twin = builder().build().expect("valid marketplace");
    for op in records {
        journal::apply(&mut twin, op).expect("twin applies");
    }
    for keyword in 0..KEYWORDS {
        assert_eq!(
            client.top_bids(keyword, 8).expect("read"),
            twin.top_bids(keyword, 8).expect("twin read"),
        );
    }
    client.shutdown_server().expect("graceful shutdown");
    server.join();
}
