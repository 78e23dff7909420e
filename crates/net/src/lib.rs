//! # ssa-net — the TCP serving front-end
//!
//! The marketplace behind a real network boundary: a `std::net` server
//! (no async runtime) speaking a hand-rolled, length-prefixed, versioned
//! wire protocol, with per-connection sessions, bounded per-shard
//! admission, typed overload responses, and graceful drain on shutdown.
//!
//! The layers, bottom up:
//!
//! * [`frame`] — `[len][version][kind][request id][payload]` framing with
//!   a max-frame limit and typed [`frame::FrameError`]s; hostile length
//!   prefixes are rejected before any allocation.
//! * [`proto`] — typed [`proto::Request`]/[`proto::Response`] messages
//!   over a little-endian binary payload encoding; `f64` travels as raw
//!   bits so revenue aggregates stay bit-exact across the wire. Decode
//!   failures are typed [`proto::ProtoError`]s, never panics.
//! * [`admission`] — bounded per-shard lanes for the data plane; a full
//!   lane answers [`proto::Response::Overloaded`] with a retry hint
//!   instead of queueing without bound.
//! * [`session`] — per-connection identity, counters, the count of replies
//!   a session is owed, its write half, and the read-side half-close that
//!   drives graceful drain.
//! * [`server`] — accept loop, per-connection reader/writer threads, and
//!   the executor thread. The [`ssa_core::Marketplace`] sits behind one
//!   lock: the executor takes it for each tick of queued work, and a
//!   connection's reader takes it to run an idle session's control request
//!   and write the reply itself. Data-plane requests always queue.
//! * [`client`] — a blocking typed client, usable single-outstanding or
//!   pipelined.
//! * [`load`] — Section V population and replay helpers shared by the
//!   `ssa-load` binary, the bench driver's `--server` path, and the
//!   equivalence tests; latency recording with p50/p99 reporting.
//!
//! The serving contract: a seeded Section V stream served over a socket
//! produces **bit-identical** winners, clicks, and charges to the same
//! stream served in process through `Marketplace::serve_batch`
//! (proven in `tests/server_equivalence.rs`).
//!
//! # Quickstart
//!
//! ```
//! use ssa_net::client::Client;
//! use ssa_net::proto::MarketConfig;
//! use ssa_net::server::{Server, ServerConfig};
//! use ssa_core::{Marketplace, PricingScheme, WdMethod};
//! use ssa_bidlang::Money;
//!
//! let market = Marketplace::builder()
//!     .slots(2)
//!     .keywords(4)
//!     .seed(7)
//!     .default_click_probs(vec![0.6, 0.3])
//!     .build_sharded(2)
//!     .expect("valid configuration");
//! let server = Server::bind("127.0.0.1:0", market, ServerConfig::default())
//!     .expect("bind")
//!     .spawn();
//!
//! let mut client = Client::connect(server.addr()).expect("connect");
//! let advertiser = client.register_advertiser("shoes.example").expect("register");
//! client
//!     .add_campaign(advertiser, 1, Money::from_cents(20), Money::from_cents(50), None, None)
//!     .expect("campaign accepted");
//! let auction = client.serve(1).expect("auction served");
//! assert_eq!(auction.keyword, 1);
//!
//! client.shutdown_server().expect("graceful shutdown");
//! server.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod frame;
pub mod load;
pub mod proto;
pub mod server;
pub mod session;

pub use admission::Admission;
pub use client::{parse_addr, Client, NetError, ParseAddrError};
pub use frame::{FrameError, FrameKind, RawFrame, MAX_FRAME, PROTO_VERSION};
pub use load::{
    available_cores, local_twin, market_config_for, populate_remote, LatencyRecorder,
    LatencySummary, LoadReport,
};
pub use proto::{
    BatchSummary, ErrorCode, MarketConfig, ProtoError, Request, Response, ServerStats, WireAuction,
    WirePlacement,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{Session, SessionRegistry};
