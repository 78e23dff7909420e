//! The executor's commit groups, seen from outside a journalled server:
//! requests in flight together share one `fdatasync`, a one-at-a-time
//! client still pays one each, every acknowledged operation is in the log
//! — and a commit that fails acknowledges nothing and drains the server
//! instead of panicking it.

use std::path::PathBuf;
use std::time::Duration;

use ssa_bidlang::Money;
use ssa_core::UserAttrs;
use ssa_durable::{Durability, FsyncPolicy};
use ssa_net::client::{Client, NetError};
use ssa_net::proto::{ErrorCode, Request, Response};
use ssa_net::server::{Server, ServerConfig, ServerHandle};

const KEYWORDS: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssa-net-group-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journalled (`FsyncPolicy::Always`) two-shard server on a fresh
/// directory.
fn boot(dir: &std::path::Path, executor_delay: Option<Duration>) -> (ServerHandle, Durability) {
    let (recovered, durability) =
        Durability::open(dir, FsyncPolicy::Always, 0).expect("open data dir");
    assert!(recovered.is_none());
    let market = ssa_core::Marketplace::builder()
        .slots(2)
        .keywords(KEYWORDS)
        .seed(31)
        .default_click_probs(vec![0.5, 0.25])
        .build_sharded(2)
        .expect("valid marketplace");
    durability
        .log_configure(&market.capture_state().expect("journalable").config)
        .expect("configure logged");
    let server = Server::bind(
        "127.0.0.1:0",
        market,
        ServerConfig {
            executor_delay,
            durability: Some(durability.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn();
    (server, durability)
}

/// Two advertisers on every keyword, one request at a time; returns the
/// number of operations acknowledged.
fn populate(client: &mut Client) -> u64 {
    let mut acknowledged = 0;
    for (name, cents) in [("a", 40), ("b", 55)] {
        let advertiser = client.register_advertiser(name).expect("register");
        acknowledged += 1;
        for kw in 0..KEYWORDS {
            client
                .add_campaign(
                    advertiser,
                    kw,
                    Money::from_cents(cents + kw as i64),
                    Money::from_cents(120),
                    None,
                    None,
                )
                .expect("campaign");
            acknowledged += 1;
        }
    }
    acknowledged
}

fn serve(keyword: usize) -> Request {
    Request::Serve {
        keyword: keyword as u64,
        attrs: UserAttrs::new(),
    }
}

#[test]
fn requests_in_flight_together_share_a_sync_and_one_at_a_time_do_not() {
    let dir = temp_dir("window");
    // The delay holds each auction in the executor long enough that the
    // rest of a pipelined window is queued behind it when its tick ends.
    let (server, durability) = boot(&dir, Some(Duration::from_millis(10)));
    let mut client = Client::connect(server.addr()).expect("connect");

    // One at a time: every tick is one record, every record its own sync
    // (the configure record `boot` logged included).
    let mut acknowledged = 1 + populate(&mut client);
    for kw in 0..KEYWORDS {
        client.serve(kw).expect("serve");
        acknowledged += 1;
    }
    assert_eq!(durability.wal_records(), acknowledged);
    assert_eq!(durability.syncs(), acknowledged);
    assert_eq!(durability.committed_seq(), acknowledged);

    // A window of 16 on each of two connections.
    let mut other = Client::connect(server.addr()).expect("connect");
    let window = 16;
    let mut ids = Vec::new();
    for t in 0..window {
        ids.push((0, client.send_request(&serve(t % KEYWORDS)).expect("send")));
        ids.push((
            1,
            other
                .send_request(&serve((t + 1) % KEYWORDS))
                .expect("send"),
        ));
    }
    for (conn, id) in ids {
        let (got, response) = [&mut client, &mut other][conn]
            .read_response()
            .expect("response");
        assert_eq!(got, id, "responses come back in request order");
        assert!(matches!(response, Response::Served(_)), "{response:?}");
        acknowledged += 1;
    }
    // Every acknowledged operation is one record, all of them committed,
    // under fewer syncs than records.
    assert_eq!(durability.wal_records(), acknowledged);
    assert_eq!(durability.committed_seq(), acknowledged);
    let windowed_syncs = durability.syncs() - (acknowledged - 2 * window as u64);
    assert!(
        windowed_syncs < 2 * window as u64,
        "{windowed_syncs} syncs for {} windowed records",
        2 * window
    );

    client.shutdown_server().expect("graceful shutdown");
    server.join();
    drop(durability);
    let (recovered, report) = ssa_durable::recover(&dir)
        .expect("recover")
        .expect("state persisted");
    assert_eq!(report.wal_records, acknowledged);
    assert_eq!(recovered.now(), (KEYWORDS + 2 * window) as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_commit_acknowledges_nothing_and_drains_the_server() {
    let dir = temp_dir("broken");
    let (server, durability) = boot(&dir, None);
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut acknowledged = 1 + populate(&mut client);
    for kw in 0..KEYWORDS {
        client.serve(kw).expect("serve");
        acknowledged += 1;
    }

    // The log stops taking writes mid-run. The next tick executes, cannot
    // commit, and answers with a typed failure — not a panic, not an
    // acknowledgement.
    durability
        .break_log_for_tests()
        .expect("descriptor swapped");
    match client.serve(0) {
        Err(NetError::Server {
            code: ErrorCode::StorageFailed,
            message,
        }) => assert!(message.contains("not acknowledged"), "{message}"),
        other => panic!("expected StorageFailed, got {other:?}"),
    }
    assert_eq!(durability.committed_seq(), acknowledged);

    // The server has begun its drain: this connection's read side is
    // closed, so the next request is refused or never read, and every
    // server thread ends without a shutdown request.
    assert!(client.serve(1).is_err());
    drop(client);
    server.join();
    drop(durability);

    // What survives is exactly the acknowledged history.
    let (recovered, report) = ssa_durable::recover(&dir)
        .expect("recover")
        .expect("state persisted");
    assert_eq!(report.wal_records, acknowledged);
    assert_eq!(recovered.now(), KEYWORDS as u64);
    std::fs::remove_dir_all(&dir).ok();
}
