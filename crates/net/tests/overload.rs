//! Backpressure and graceful-shutdown behaviour: saturating the bounded
//! admission queue yields typed `Overloaded` responses (counted in
//! `Stats`) while every admitted request still completes, and `Shutdown`
//! drains in-flight work instead of dropping it.

use std::time::Duration;

use ssa_bidlang::Money;
use ssa_net::client::{Client, NetError};
use ssa_net::proto::{Request, Response};
use ssa_net::server::{Server, ServerConfig, ServerHandle};

mod support;
use support::{add_campaign, advertiser, register};

/// One keyword, one slot: every data-plane request lands on the same
/// admission lane, so the saturation arithmetic is exact.
fn spawn_tiny_server(config: ServerConfig) -> ServerHandle {
    let market = ssa_core::Marketplace::builder()
        .slots(1)
        .keywords(1)
        .seed(9)
        .default_click_probs(vec![0.5])
        .build_sharded(1)
        .expect("valid marketplace");
    Server::bind("127.0.0.1:0", market, config)
        .expect("bind")
        .spawn()
}

fn populate_one_campaign(client: &mut Client) {
    let advertiser = advertiser(client.apply(register("overloader")).expect("register"));
    client
        .apply(add_campaign(
            advertiser,
            0,
            Money::from_cents(30),
            Money::from_cents(90),
            None,
            None,
        ))
        .expect("campaign accepted");
}

/// Saturate the admission lane with pipelined serves: exactly `cap`
/// requests are admitted and completed, the rest come back as typed
/// `Overloaded` carrying the configured retry hint, and `Stats` accounts
/// for both populations.
#[test]
fn saturation_yields_typed_overloaded_and_admitted_work_completes() {
    let cap = 3usize;
    let total = 12usize;
    let retry_hint = 7u32;
    let server = spawn_tiny_server(ServerConfig {
        admission_per_shard: cap,
        retry_after_ms: retry_hint,
        // Pin the first admitted job in the executor long enough for the
        // reader to classify all 12 pipelined requests first.
        executor_delay: Some(Duration::from_millis(150)),
        durability: None,
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    populate_one_campaign(&mut client);

    // Pipeline without reading: the reader thread admits or refuses each
    // frame long before the delayed executor finishes the first job.
    let mut pending = Vec::new();
    for _ in 0..total {
        pending.push(
            client
                .send_request(&Request::Serve {
                    keyword: 0,
                    attrs: Default::default(),
                })
                .expect("send"),
        );
    }

    let mut served = 0usize;
    let mut overloaded = 0usize;
    for _ in 0..total {
        let (id, response) = client.read_response().expect("response");
        assert!(pending.contains(&id), "unknown request id {id}");
        match response {
            Response::Served(auction) => {
                assert_eq!(auction.keyword, 0);
                served += 1;
            }
            Response::Overloaded { retry_after_ms } => {
                assert_eq!(retry_after_ms, retry_hint, "retry hint travels verbatim");
                overloaded += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(served, cap, "exactly the admitted requests were served");
    assert_eq!(overloaded, total - cap, "the rest were refused, not queued");

    // Stats separates executed work from refusals.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.auctions, cap as u64);
    assert_eq!(stats.overloaded, (total - cap) as u64);

    // The lane drained with the tickets: new serves are admitted again.
    let auction = client.serve(0).expect("post-saturation serve");
    assert_eq!(auction.time, cap as u64 + 1);

    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

/// Shutdown drains: requests already admitted when the shutdown lands are
/// completed and their responses flushed before the connection closes.
#[test]
fn shutdown_completes_in_flight_requests() {
    let backlog = 3usize;
    let server = spawn_tiny_server(ServerConfig {
        admission_per_shard: 64,
        retry_after_ms: 1,
        executor_delay: Some(Duration::from_millis(100)),
        durability: None,
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    populate_one_campaign(&mut client);

    let mut pending = Vec::new();
    for _ in 0..backlog {
        pending.push(
            client
                .send_request(&Request::Serve {
                    keyword: 0,
                    attrs: Default::default(),
                })
                .expect("send"),
        );
    }
    // Let the reader submit the backlog before the shutdown arrives; the
    // delayed executor guarantees the jobs are still queued or in flight.
    std::thread::sleep(Duration::from_millis(30));

    let mut other = Client::connect(server.addr()).expect("second connection");
    other.shutdown_server().expect("shutdown acknowledged");

    // Every admitted request is answered despite the shutdown.
    for expected_id in pending {
        let (id, response) = client.read_response().expect("drained response");
        assert_eq!(id, expected_id, "responses drain in submission order");
        match response {
            Response::Served(auction) => assert_eq!(auction.keyword, 0),
            bad => panic!("in-flight request dropped: {bad:?}"),
        }
    }

    // After the drain the server closes the connection cleanly.
    match client.read_response() {
        Err(NetError::Disconnected) => {}
        other => panic!("expected a clean close after drain, got {other:?}"),
    }

    server.join();
}
