//! A connection's reader runs an idle session's control request itself,
//! while everything else queues for the executor. Seen from outside, that
//! must change nothing: each session's replies come back in request order,
//! the book ends as an in-process twin fed both sessions' streams ends,
//! and a journalled server logs and commits exactly the acknowledged
//! operations.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use ssa_bidlang::Money;
use ssa_core::{AdvertiserHandle, CampaignId, CampaignSpec, Marketplace, MarketplaceBuilder};
use ssa_durable::{Durability, FsyncPolicy};
use ssa_net::client::{Client, NetError};
use ssa_net::proto::{ErrorCode, Request, Response};
use ssa_net::server::{Server, ServerConfig};

mod support;
use support::{add_campaign, advertiser, campaign, register, update_bid};

const KEYWORDS: usize = 4;
/// Session A's requests, pipelined in one burst.
const A_BURST: usize = 24;
/// Session B's rounds of one-at-a-time `AddCampaign`, `UpdateBid`,
/// `TopBids`.
const B_ROUNDS: usize = 8;

fn builder() -> MarketplaceBuilder {
    Marketplace::builder()
        .slots(2)
        .keywords(KEYWORDS)
        .seed(41)
        .default_click_probs(vec![0.5, 0.25])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssa-net-control-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What session A sends at position `i` of its burst: serves on keywords
/// 0 and 1, each followed by a control request — a bid write on A's own
/// campaign or a read of keyword 0's book — so a control request always
/// arrives while A still owes the reply to an earlier serve.
fn a_request(i: usize) -> Request {
    match i % 4 {
        0 | 2 => Request::Serve {
            keyword: (i / 2 % 2) as u64,
            attrs: Default::default(),
        },
        1 => Request::UpdateBid {
            keyword: 0,
            index: 0,
            bid_cents: 30 + i as i64,
        },
        _ => Request::TopBids {
            keyword: 0,
            limit: 8,
        },
    }
}

/// The bid B writes in round `round` on the campaign it just added.
fn b_bid(round: usize) -> Money {
    Money::from_cents(25 + 3 * round as i64)
}

fn run(journalled: bool) {
    let dir = temp_dir(if journalled { "journalled" } else { "memory" });
    let market = builder().build_sharded(2).expect("valid marketplace");
    let durability = journalled.then(|| {
        let (recovered, durability) =
            Durability::open(&dir, FsyncPolicy::Always, 0).expect("open data dir");
        assert!(recovered.is_none());
        durability
            .log_configure(&market.capture_state().expect("journalable").config)
            .expect("configure logged");
        durability
    });
    let server = Server::bind(
        "127.0.0.1:0",
        market,
        ServerConfig {
            // A's serves hold the executor while B's calls arrive.
            executor_delay: Some(Duration::from_millis(4)),
            durability: durability.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn();

    // Setup, one at a time: advertisers a and b, A's campaign on keyword 0.
    let mut b = Client::connect(server.addr()).expect("connect b");
    let a_id = advertiser(b.apply(register("a")).expect("register a"));
    let b_id = advertiser(b.apply(register("b")).expect("register b"));
    let a_campaign = campaign(
        b.apply(add_campaign(
            a_id,
            0,
            Money::from_cents(30),
            Money::from_cents(90),
            None,
            None,
        ))
        .expect("a's campaign"),
    );
    assert_eq!(a_campaign, CampaignId::from_parts(0, 0));
    let mut acknowledged = 3u64;

    // Session A pipelines its burst from its own thread and then reads
    // every reply, in order.
    let (sent_tx, sent_rx) = mpsc::channel();
    let addr = server.addr();
    let a = std::thread::spawn(move || {
        let mut a = Client::connect(addr).expect("connect a");
        let ids: Vec<u64> = (0..A_BURST)
            .map(|i| a.send_request(&a_request(i)).expect("send"))
            .collect();
        sent_tx.send(()).expect("main thread waits");
        for (i, id) in ids.into_iter().enumerate() {
            let (got, response) = a.read_response().expect("a reply");
            assert_eq!(got, id, "A's reply {i} came back out of request order");
            match (a_request(i), response) {
                (Request::Serve { keyword, .. }, Response::Served(auction)) => {
                    assert_eq!(auction.keyword, keyword)
                }
                (Request::UpdateBid { .. }, Response::Ack) => {}
                (Request::TopBids { .. }, Response::TopBids { bids }) => {
                    assert_eq!(bids[0].0, 0, "a keyword-0 bid")
                }
                (request, response) => panic!("{request:?} answered {response:?}"),
            }
        }
    });

    // Session B, one request at a time while A's serves are in flight;
    // `Client` checks that each reply answers the request just sent.
    sent_rx.recv().expect("A sent its burst");
    let mut b_campaigns = Vec::new();
    for round in 0..B_ROUNDS {
        let keyword = 2 + round % 2;
        let id = campaign(
            b.apply(add_campaign(
                b_id,
                keyword,
                Money::from_cents(20),
                Money::from_cents(80),
                None,
                None,
            ))
            .expect("b's campaign"),
        );
        b.apply(update_bid(id, b_bid(round))).expect("b's bid");
        let book = b.top_bids(keyword, 64).expect("b's read");
        assert!(book.contains(&(id, b_bid(round))), "B reads its own write");
        b_campaigns.push((keyword, id));
        acknowledged += 2;
    }
    a.join().expect("session A saw its replies in order");
    acknowledged += (0..A_BURST)
        .filter(|&i| !matches!(a_request(i), Request::TopBids { .. }))
        .count() as u64;

    // The in-process twin, fed both streams. A writes only its own
    // campaign and B only its own, so the book does not depend on how the
    // two interleaved.
    let mut twin = builder().build().expect("valid marketplace");
    let (ta, tb) = (twin.register_advertiser("a"), twin.register_advertiser("b"));
    assert_eq!((ta, tb), (a_id, b_id));
    let spec = |bid, value| {
        CampaignSpec::per_click(Money::from_cents(bid)).click_value(Money::from_cents(value))
    };
    twin.add_campaign(ta, 0, spec(30, 90))
        .expect("a's campaign");
    let mut serves = 0;
    for i in 0..A_BURST {
        match a_request(i) {
            Request::Serve { keyword, .. } => {
                twin.serve(ssa_core::QueryRequest::new(keyword as usize))
                    .expect("twin serve");
                serves += 1;
            }
            Request::UpdateBid { bid_cents, .. } => twin
                .update_bid(a_campaign, Money::from_cents(bid_cents))
                .expect("twin bid"),
            _ => {}
        }
    }
    for (round, &(keyword, id)) in b_campaigns.iter().enumerate() {
        let twin_id = twin
            .add_campaign(AdvertiserHandle::from_index(1), keyword, spec(20, 80))
            .expect("twin campaign");
        assert_eq!(twin_id, id);
        twin.update_bid(id, b_bid(round)).expect("twin bid");
    }
    for keyword in 0..KEYWORDS {
        assert_eq!(
            b.top_bids(keyword, 64).expect("read"),
            twin.top_bids(keyword, 64).expect("twin read"),
            "keyword {keyword}'s book"
        );
    }
    let stats = b.stats().expect("stats");
    let snapshot = twin.snapshot();
    assert_eq!(stats.auctions, serves);
    assert_eq!(stats.auctions, snapshot.auctions);
    assert_eq!(stats.campaigns, snapshot.campaigns as u64);
    assert_eq!(stats.advertisers, snapshot.advertisers as u64);

    if let Some(durability) = &durability {
        // The configure record, then one record per acknowledged operation.
        assert_eq!(durability.wal_records(), 1 + acknowledged);
        assert_eq!(durability.committed_seq(), 1 + acknowledged);
    }
    b.shutdown_server().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_sessions_control_requests_keep_every_session_in_order() {
    run(false);
}

#[test]
fn journalled_the_log_holds_exactly_the_acknowledged_operations() {
    run(true);
}

/// A negative click value is refused over the wire as a typed error, on
/// the path an idle session's control request takes, and the server
/// keeps serving.
#[test]
fn a_negative_click_value_is_a_typed_server_error() {
    let market = builder().build_sharded(1).expect("valid marketplace");
    let server = Server::bind("127.0.0.1:0", market, ServerConfig::default())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(server.addr()).expect("connect");
    let advertiser = advertiser(client.apply(register("a")).expect("register"));
    match client.apply(add_campaign(
        advertiser,
        1,
        Money::from_cents(10),
        Money::from_cents(-5),
        None,
        None,
    )) {
        Err(NetError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::NegativeBid);
            assert_eq!(message, "click value -$0.05 is negative");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(client.top_bids(1, 8).expect("read"), Vec::new());
    client.ping().expect("still serving");
    client.shutdown_server().expect("shutdown");
    server.join();
}
