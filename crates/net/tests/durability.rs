//! Server-level durability: a journalled server's full lifecycle —
//! `Configure` over the wire (journal transfer), population, serving,
//! shutdown, recovery into a fresh server — produces a marketplace that
//! stays bit-identical to an in-process twin across the restart.

use ssa_bidlang::Money;
use ssa_core::{MutationRecord, QueryRequest, ShardedMarketplace};
use ssa_durable::{Durability, FsyncPolicy};
use ssa_net::client::Client;
use ssa_net::proto::MarketConfig;
use ssa_net::server::{build_market, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};

mod support;
use support::{add_campaign, advertiser, campaign, register};

fn temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!("ssa-net-durability-{}", std::process::id()))
}

fn wire_config() -> MarketConfig {
    MarketConfig {
        slots: 2,
        keywords: 6,
        seed: 777,
        method: ssa_core::WdMethod::Reduced,
        pricing: ssa_core::PricingScheme::Gsp,
        shards: 2,
        pruned: false,
        warm_start: true,
        default_click_probs: None,
        default_purchase_probs: None,
    }
}

fn boot(dir: &Path, boot_config: &MarketConfig) -> (ServerHandle, Durability) {
    let (recovered, durability) =
        Durability::open(dir, FsyncPolicy::Off, 0).expect("open data dir");
    let market = match recovered {
        Some((market, _report)) => market,
        None => {
            let market = build_market(boot_config).expect("valid config");
            durability
                .log_configure(&market.capture_state().expect("journalable").config)
                .expect("configure logged");
            market
        }
    };
    let server = Server::bind(
        "127.0.0.1:0",
        market,
        ServerConfig {
            durability: Some(durability.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn();
    (server, durability)
}

/// Drives the same population + queries against a client and the twin.
fn populate(client: &mut Client, twin: &mut ShardedMarketplace) {
    let remote_a = advertiser(client.apply(register("a")).expect("register"));
    let local_a = twin.register_advertiser("a");
    assert_eq!(remote_a.index(), local_a.index());
    let remote_b = advertiser(client.apply(register("b")).expect("register"));
    let local_b = twin.register_advertiser("b");
    // The wire-configured market has no default click model, so every
    // campaign carries its own per-slot probabilities.
    let probs = vec![0.55, 0.25];
    for kw in 0..6 {
        let (bid, value) = (Money::from_cents(30 + kw as i64), Money::from_cents(90));
        let remote_id = campaign(
            client
                .apply(add_campaign(
                    remote_a,
                    kw,
                    bid,
                    value,
                    None,
                    Some(probs.clone()),
                ))
                .expect("campaign"),
        );
        let local_id = twin
            .add_campaign(
                local_a,
                kw,
                ssa_core::CampaignSpec::per_click(bid)
                    .click_value(value)
                    .click_probs(probs.clone()),
            )
            .expect("campaign");
        assert_eq!(remote_id, local_id);
        client
            .apply(add_campaign(
                remote_b,
                kw,
                Money::from_cents(45),
                Money::from_cents(120),
                Some(1.3),
                Some(probs.clone()),
            ))
            .expect("campaign");
        twin.add_campaign(
            local_b,
            kw,
            ssa_core::CampaignSpec::per_click(Money::from_cents(45))
                .click_value(Money::from_cents(120))
                .roi_target(1.3)
                .click_probs(probs.clone()),
        )
        .expect("campaign");
    }
}

fn serve_both(client: &mut Client, twin: &mut ShardedMarketplace, queries: usize) {
    for t in 0..queries {
        let kw = (t * 5 + 1) % 6;
        let remote = client.serve(kw).expect("serve");
        let local = twin.serve(QueryRequest::new(kw)).expect("serve");
        assert_eq!(
            remote.expected_revenue.to_bits(),
            local.expected_revenue.to_bits(),
            "revenue bits diverged at query {t}"
        );
        assert_eq!(remote, local, "divergence at query {t}");
    }
}

#[test]
fn server_restart_recovers_bit_identically() {
    let dir = temp_dir();
    let _ = std::fs::remove_dir_all(&dir);

    // Boot flags deliberately differ from the wire Configure, so recovery
    // must restore the *configured* marketplace, not the boot one.
    let boot_config = MarketConfig {
        keywords: 3,
        shards: 1,
        ..wire_config()
    };

    let (server, durability) = boot(&dir, &boot_config);
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .apply(MutationRecord::Configure(wire_config()))
        .expect("configure");
    let mut twin = build_market(&wire_config()).expect("twin");
    populate(&mut client, &mut twin);
    serve_both(&mut client, &mut twin, 60);

    let stats = client.stats().expect("stats");
    // Boot configure + wire configure + 2 registers + 12 campaigns + 60.
    assert_eq!(stats.wal_records, 76);
    assert_eq!(stats.snapshot_seq, 0);
    assert_eq!(stats.wal_records, durability.wal_records());

    client.shutdown_server().expect("graceful shutdown");
    server.join();
    drop(durability);

    // Restart from the same directory: no Configure, no population —
    // everything comes back from the log, including RNG positions.
    let (server, durability) = boot(&dir, &boot_config);
    let mut client = Client::connect(server.addr()).expect("connect");
    serve_both(&mut client, &mut twin, 40);
    for kw in 0..6 {
        assert_eq!(
            client.top_bids(kw, 16).expect("top bids"),
            twin.top_bids(kw, 16).expect("top bids"),
            "top-bid divergence at keyword {kw}"
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.wal_records, 116);
    assert_eq!(stats.auctions, 100);

    // A snapshot taken now compacts the log; the next restart recovers
    // from it alone.
    let market_state_seq = durability.wal_records();
    client.shutdown_server().expect("graceful shutdown");
    server.join();
    assert_eq!(market_state_seq, 116);

    let recovered = ssa_durable::recover(&dir)
        .expect("recover")
        .expect("state persisted");
    assert_eq!(
        recovered.0.capture_state().expect("journalable"),
        twin.capture_state().expect("journalable")
    );
    std::fs::remove_dir_all(&dir).ok();
}
