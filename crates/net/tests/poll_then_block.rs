//! Polling for a one-at-a-time peer must change nothing a peer can see.
//!
//! A connection's reader polls its socket with a non-blocking `peek` once
//! its session's last two requests both ran on the reader's own path, and
//! `Client::request` polls for a control request's reply. Non-blocking mode belongs to the
//! open file description, which the reader shares with the connection's
//! writer: a reader that polled while the writer was writing to a full
//! socket would make that write fail with `WouldBlock` and lose replies.
//! These tests hold every exit path to a blocking socket and every reply
//! to its peer.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ssa_bidlang::Money;
use ssa_core::{CampaignSpec, Marketplace};
use ssa_net::client::Client;
use ssa_net::frame::{read_frame, write_frame, FrameKind, PROTO_VERSION};
use ssa_net::proto::{Request, Response};
use ssa_net::server::{Server, ServerConfig, ServerHandle};

const SLOTS: usize = 16;
const KEYWORDS: usize = 2;
const SHARDS: usize = 2;
/// Bytes of replies the paused peer is owed in a burst: half as much again
/// as Linux lets a loopback socket's send buffer grow to (4 MiB by
/// default), so the buffers fill while the burst is still being sent.
const OWED_BYTES: usize = 6 << 20;
/// Bursts the paused peer sends, each on a fresh connection (a socket that
/// has read megabytes grows its receive buffer past the burst): each is one
/// more chance for a reader that polled to catch the writer at a full
/// buffer.
const ROUNDS: usize = 6;
/// Gap between the burst's requests: shorter than the ≈ 200 µs a reader
/// would still poll for, so a reader that polled during the burst would
/// spend most of it in non-blocking mode, and long enough for the executor
/// to keep up, so each reply is written while the reader waits.
const GAP: Duration = Duration::from_micros(100);

/// A market whose every auction fills all [`SLOTS`] slots, so a `Served`
/// reply carries [`SLOTS`] placements and charges.
fn full_market() -> Marketplace {
    let mut market = Marketplace::builder()
        .slots(SLOTS)
        .keywords(KEYWORDS)
        .seed(52)
        .default_click_probs((0..SLOTS).map(|s| 0.9 / (s + 1) as f64).collect())
        .build_sharded(SHARDS)
        .expect("valid marketplace");
    for a in 0..SLOTS {
        let advertiser = market.register_advertiser(format!("a{a}"));
        for keyword in 0..KEYWORDS {
            market
                .add_campaign(
                    advertiser,
                    keyword,
                    CampaignSpec::per_click(Money::from_cents(20 + a as i64)),
                )
                .expect("campaign");
        }
    }
    market
}

fn spawn(market: Marketplace, config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", market, config)
        .expect("bind")
        .spawn()
}

fn send(peer: &mut TcpStream, id: u64, request: &Request) {
    let mut frame = Vec::new();
    write_frame(&mut frame, FrameKind::Request, id, &request.encode()).expect("encode");
    peer.write_all(&frame).expect("send");
}

/// Reads one reply frame: its request id, its encoded length and the
/// response.
fn receive(peer: &mut TcpStream) -> (u64, usize, Response) {
    let frame = read_frame(peer).expect("a reply").expect("not EOF");
    let response = Response::decode(&frame.payload).expect("decodes");
    (frame.request_id, frame.payload.len(), response)
}

fn serve(keyword: usize) -> Request {
    Request::Serve {
        keyword: keyword as u64,
        attrs: Default::default(),
    }
}

/// A peer connected to `server` that gives up on a reply after 10 s.
fn connect(server: &ServerHandle) -> TcpStream {
    let peer = TcpStream::connect(server.addr()).expect("connect");
    peer.set_nodelay(true).expect("nodelay");
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    peer
}

#[test]
fn a_paused_peer_gets_every_reply_to_a_burst_after_one_at_a_time_requests() {
    let server = spawn(
        full_market(),
        ServerConfig {
            // Room for the whole burst: nothing is refused and the reader
            // never stops reading.
            admission_per_shard: 1 << 16,
            ..ServerConfig::default()
        },
    );
    for _round in 0..ROUNDS {
        let mut peer = connect(&server);
        // One serve, to size the burst by its reply.
        send(&mut peer, 1, &serve(0));
        let (id, reply_len, response) = receive(&mut peer);
        assert_eq!(id, 1);
        let Response::Served(auction) = response else {
            panic!("serve answered {response:?}");
        };
        assert_eq!(auction.placements.len(), SLOTS, "every slot is filled");
        let burst = OWED_BYTES.div_ceil(reply_len) as u64;
        // One-at-a-time control requests, each run on the reader's own
        // path: two arm the reader's poll and the third sets its budget, so
        // the reader polls for the burst's first request.
        for id in 2..5 {
            send(&mut peer, id, &Request::Ping);
            assert!(matches!(receive(&mut peer), (got, _, Response::Pong { .. }) if got == id));
        }
        // The burst, paced, and then a peer that reads nothing for 100 ms:
        // the replies fill the socket's buffers while the reader waits for
        // the next request.
        let first = 5;
        for i in 0..burst {
            send(&mut peer, first + i, &serve(i as usize % KEYWORDS));
            // A sleep this short overshoots by more than the gap.
            let sent = Instant::now();
            while sent.elapsed() < GAP {
                std::hint::spin_loop();
            }
        }
        std::thread::sleep(Duration::from_millis(100));
        for i in 0..burst {
            let (id, _, response) = receive(&mut peer);
            assert_eq!(id, first + i, "replies come back in request order");
            assert!(
                matches!(response, Response::Served(_)),
                "request {id} answered {response:?}"
            );
        }
        // The connection is still up.
        send(&mut peer, first + burst, &Request::Ping);
        assert!(matches!(receive(&mut peer), (_, _, Response::Pong { .. })));
    }
    server.shutdown();
    server.join();
}

#[test]
fn a_control_reply_slower_than_the_poll_leaves_the_client_blocking() {
    // A hand-run peer answers each ping after the next of these delays:
    // the fourth is past the poll's cap, and so is the fifth.
    const DELAYS_MS: [u64; 6] = [0, 0, 0, 2, 2, 0];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        for delay in DELAYS_MS {
            let frame = read_frame(&mut stream)
                .expect("a request")
                .expect("not EOF");
            std::thread::sleep(Duration::from_millis(delay));
            let pong = Response::Pong {
                session: 7,
                proto_version: PROTO_VERSION,
            };
            let mut reply = Vec::new();
            write_frame(
                &mut reply,
                FrameKind::Response,
                frame.request_id,
                &pong.encode(),
            )
            .expect("encode");
            stream.write_all(&reply).expect("reply");
        }
    });
    let mut client = Client::connect(addr).expect("connect");
    // Fast replies arm the client's poll (the first wait takes in the
    // peer's accept); the next one's wait runs past its budget, so the
    // client restores blocking mode and sleeps for it.
    for _ in 0..3 {
        assert_eq!(client.ping().expect("ping"), 7);
    }
    assert_eq!(client.ping().expect("a slow ping"), 7);
    // So a pipelined read blocks until its reply arrives instead of
    // failing with `WouldBlock`.
    let id = client.send_request(&Request::Ping).expect("send");
    let (got, response) = client.read_response().expect("a blocking read");
    assert_eq!(got, id);
    assert!(
        matches!(response, Response::Pong { session: 7, .. }),
        "{response:?}"
    );
    // And a fast exchange after a slow one still succeeds.
    assert_eq!(client.ping().expect("ping"), 7);
    peer.join().expect("peer");
}

#[test]
fn a_thousand_pings_succeed() {
    let server = spawn(full_market(), ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let session = client.ping().expect("ping");
    for _ in 1..1000 {
        assert_eq!(client.ping().expect("ping"), session);
    }
    client.shutdown_server().expect("shutdown");
    server.join();
}

#[test]
fn a_shutdown_while_readers_poll_ends_every_server_thread() {
    let server = spawn(full_market(), ServerConfig::default());
    let addr = server.addr();
    // One client pings until the server refuses or hangs up; its reader
    // polls between pings.
    let pinger = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let mut pings = 0u64;
        while client.ping().is_ok() {
            pings += 1;
        }
        pings
    });
    // Another arms its reader's poll and then goes quiet.
    let mut quiet = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        quiet.ping().expect("ping");
    }
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown();

    let (done_tx, done_rx) = mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        server.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("the server had not stopped {:?} on", started.elapsed()));
    assert!(pinger.join().expect("pinger") > 0);
    assert!(quiet.ping().is_err(), "the server is gone");
}
