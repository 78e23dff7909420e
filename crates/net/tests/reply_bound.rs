//! Memory a peer that never reads can make the server hold.
//!
//! A session is owed at most its admission window plus a fixed allowance
//! of replies; at that bound its reader stops reading, and an admitted
//! request's lane slot is held until its reply is written. So a peer that
//! pipelines without ever reading costs the server a bounded number of
//! replies however much it sends, and the executor, which never waits on
//! that peer, still serves everyone else.
//!
//! It is a test binary of its own, and one `#[test]`, because it installs a
//! counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

use ssa_bidlang::Money;
use ssa_core::shard_of_keyword;
use ssa_net::client::{Client, NetError};
use ssa_net::frame::{read_frame, write_frame, FrameKind};
use ssa_net::proto::{Request, Response};
use ssa_net::server::{Server, ServerConfig};

mod support;
use support::{add_campaign, advertiser, register};

/// The system allocator, tracking the bytes live in the whole process.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counting is
// one atomic add, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KEYWORDS: usize = 8;
const SHARDS: usize = 2;
/// Frames the peer offers at most: far more than the socket buffers
/// between it and the server hold, so it stalls long before the end.
const FLOOD: usize = 2_000_000;
/// Frames per `write` of the peer.
const BURST: usize = 64;
/// The most the server's live heap may grow while the peer floods. The
/// bounded replies, their queued jobs and the writer's encode buffer come
/// to ≈ 30 KB; without the bound every reply the socket buffers cannot take
/// stays on the heap (3 MB after 100 000 frames, and the server reads all
/// of them).
const MAX_GROWTH: isize = 256 << 10;

#[test]
fn a_peer_that_never_reads_holds_a_bounded_number_of_replies() {
    let market = ssa_core::Marketplace::builder()
        .slots(2)
        .keywords(KEYWORDS)
        .seed(7)
        .default_click_probs(vec![0.5, 0.25])
        .build_sharded(SHARDS)
        .expect("valid marketplace");
    // The peer floods keyword 0's shard; the healthy session also serves a
    // keyword on the other one.
    let flooded = 0;
    let other = (1..KEYWORDS)
        .find(|&k| shard_of_keyword(k, SHARDS) != shard_of_keyword(flooded, SHARDS))
        .expect("a keyword on the other shard");
    let server = Server::bind(
        "127.0.0.1:0",
        market,
        ServerConfig {
            admission_per_shard: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn();
    let mut healthy = Client::connect(server.addr()).expect("connect");
    let advertiser = advertiser(healthy.apply(register("a")).expect("register"));
    for keyword in 0..KEYWORDS {
        for cents in [20, 30] {
            healthy
                .apply(add_campaign(
                    advertiser,
                    keyword,
                    Money::from_cents(cents),
                    Money::from_cents(90),
                    None,
                    None,
                ))
                .expect("campaign");
        }
    }
    for keyword in [flooded, other] {
        healthy.serve(keyword).expect("warm the engine");
    }

    // The peer's session is up and answering before the count starts.
    let mut peer = TcpStream::connect(server.addr()).expect("connect peer");
    let mut frame = Vec::new();
    write_frame(&mut frame, FrameKind::Request, 0, &Request::Ping.encode()).expect("encode");
    peer.write_all(&frame).expect("ping");
    let pong = read_frame(&mut peer).expect("pong").expect("not EOF");
    assert!(matches!(
        Response::decode(&pong.payload),
        Ok(Response::Pong { .. })
    ));
    peer.set_write_timeout(Some(Duration::from_millis(500)))
        .expect("write timeout");
    let mut burst = Vec::new();
    for i in 0..BURST as u64 {
        let request = if i % 2 == 0 {
            Request::Serve {
                keyword: flooded as u64,
                attrs: Default::default(),
            }
        } else {
            Request::Ping
        };
        write_frame(&mut burst, FrameKind::Request, i + 1, &request.encode()).expect("encode");
    }

    let before = LIVE.load(Ordering::Relaxed);
    let mut sent = 0;
    while sent < FLOOD && peer.write_all(&burst).is_ok() {
        sent += BURST;
    }
    // The server stops reading, the socket buffers fill, the peer stalls.
    assert!(
        sent < FLOOD,
        "the server read all {FLOOD} frames of a peer that never reads"
    );
    std::thread::sleep(Duration::from_millis(100));
    let growth = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        growth <= MAX_GROWTH,
        "a peer that never read made the heap grow by {growth} B after {sent} frames, \
         {MAX_GROWTH} B allowed"
    );

    // The executor still answers another session while the peer sits at
    // its bound: a serve on the other shard is served, and one on the
    // flooded lane is served or refused, as the slots the peer's unwritten
    // replies hold leave room.
    let auction = healthy.serve(other).expect("served beside a stalled peer");
    assert_eq!(auction.keyword, other);
    match healthy.serve(flooded) {
        Ok(_) | Err(NetError::Overloaded { .. }) => {}
        Err(e) => panic!("a serve on the flooded lane failed: {e}"),
    }

    // Once the peer hangs up, the replies it was owed are counted off and
    // the lane drains.
    drop(peer);
    healthy.ping().expect("ping");
    let mut drained = false;
    for _ in 0..100 {
        match healthy.serve(flooded) {
            Ok(_) => {
                drained = true;
                break;
            }
            Err(NetError::Overloaded { .. }) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("serve failed: {e}"),
        }
    }
    assert!(drained, "the lane never drained after the peer hung up");
    healthy.shutdown_server().expect("shutdown");
    server.join();
}
