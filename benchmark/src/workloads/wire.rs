//! The two wire workloads: an `ssa_net::Server` on loopback in this
//! process, two client connections each keeping sixteen requests in
//! flight. `wire-durable` is `wire-serve` byte for byte, except that the
//! server journals every operation with an fsync.
//!
//! Loopback is not a link and the sandbox's disk is a shared virtual one:
//! these are the sandbox's latencies, not a device's.

use super::{core_rows, EndToEnd, LaneClock, Phase, Scale, Stop, Traced, Workload};
use crate::check::{digest, same_outcomes};
use crate::gen::{self, ConnStream};
use crate::stats::median_call_ns;
use crate::trace::{OpenSpan, SpanName, Tracer};
use crate::{env, text, SPAN_CAPACITY};
use ssa_bidlang::Money;
use ssa_core::{
    AdvertiserHandle, CampaignId, CampaignSpec, PhaseStats, PricingScheme, QueryRequest,
    ShardedMarketplace, WdMethod,
};
use ssa_durable::{Durability, FsyncPolicy};
use ssa_net::frame::{read_frame, write_frame};
use ssa_net::server::build_market;
use ssa_net::{
    market_config_for, Client, FrameError, FrameKind, MarketConfig, NetError, Request, Response,
    Server, ServerConfig, ServerHandle,
};
use ssa_workload::SectionVWorkload;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One client thread per connection; threads + connections stay within
/// the reference box's two cores.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight, so the CPU and not the
/// wake-up latency of a one-at-a-time exchange is the limit. 32 in flight
/// is far below the 256 a shard's admission lane admits.
const WINDOW: usize = 16;
const SHARDS: usize = 2;
const ADVERTISERS: usize = 200;
/// WAL records between snapshots of `wire-durable`: several fire per run,
/// so the stalls of background work are inside the numbers.
pub const SNAPSHOT_EVERY: u64 = 10_000;

/// Operation counts sized for the 20 s reference run (both connections
/// together unless said otherwise).
struct Sizes {
    /// Warm-up of a traced run or a probe, whose exact counters must
    /// repeat: a good second of the workload's own traffic at this commit,
    /// so TCP windows, sessions and lazy per-keyword engines are warm.
    warmup: u64,
    /// Warm-up of an end-to-end run: a second of that traffic by the clock
    /// (see `inproc::Sizes`).
    timed_warmup: Duration,
    /// Operations of one connection in a block of the measured phase:
    /// about half a second.
    block_per_connection: u64,
    /// Operations per connection whose outcomes the in-process twin must
    /// reproduce.
    kept_per_connection: u64,
    /// Operations of each phase of a traced run: a fifth of a measured
    /// phase.
    traced: u64,
}

fn sizes(workload: Workload, scale: Scale) -> Sizes {
    match workload {
        Workload::WireServe => Sizes {
            warmup: scale.ops(24_000, 200),
            timed_warmup: scale.duration(1.0),
            block_per_connection: scale.ops(2500, 20),
            kept_per_connection: scale.ops(20_000, 100),
            traced: scale.ops(40_000, 400),
        },
        Workload::WireDurable => Sizes {
            warmup: scale.ops(4000, 100),
            timed_warmup: scale.duration(1.0),
            block_per_connection: scale.ops(500, 10),
            kept_per_connection: scale.ops(20_000, 100),
            traced: scale.ops(8000, 200),
        },
        _ => unreachable!("{} is not a wire workload", workload.name()),
    }
}

/// A connection that records spans around its own protocol steps. It does
/// by hand what `Client::send_request` and `Client::read_response` do, so
/// that encode, send, wait and decode can be told apart.
struct TracedConn {
    stream: TcpStream,
    next_id: u64,
    tracer: Tracer,
    /// `op` spans of the requests in flight, oldest first.
    open_ops: VecDeque<OpenSpan>,
}

enum Conn {
    Typed(Client),
    Traced(Box<TracedConn>),
}

impl Conn {
    fn send(&mut self, request: &Request, op: u64) -> Result<u64, NetError> {
        match self {
            Conn::Typed(client) => client.send_request(request),
            Conn::Traced(conn) => {
                let TracedConn {
                    stream,
                    next_id,
                    tracer,
                    open_ops,
                } = &mut **conn;
                let mut span = tracer.open_detached(SpanName::Op, op);
                let payload =
                    tracer.timed_child(&mut span, SpanName::ClientEncode, || request.encode());
                *next_id += 1;
                let sent = tracer.timed_child(&mut span, SpanName::ClientSend, || {
                    write_frame(stream, FrameKind::Request, *next_id, &payload)?;
                    stream.flush().map_err(FrameError::from)
                });
                open_ops.push_back(span);
                sent?;
                Ok(*next_id)
            }
        }
    }

    fn receive(&mut self) -> Result<(u64, Response), NetError> {
        match self {
            Conn::Typed(client) => client.read_response(),
            Conn::Traced(conn) => {
                let TracedConn {
                    stream,
                    tracer,
                    open_ops,
                    ..
                } = &mut **conn;
                let mut span = open_ops
                    .pop_front()
                    .expect("a response has a request in flight");
                let frame =
                    tracer.timed_child(&mut span, SpanName::ClientWait, || read_frame(stream));
                let response = match frame {
                    Ok(Some(frame)) => tracer
                        .timed_child(&mut span, SpanName::ClientDecode, || {
                            Response::decode(&frame.payload)
                        })
                        .map(|response| (frame.request_id, response))
                        .map_err(NetError::from),
                    Ok(None) => Err(NetError::Disconnected),
                    Err(e) => Err(e.into()),
                };
                tracer.close_detached(span);
                response
            }
        }
    }
}

struct InFlight {
    /// Request id, or `None` for a request that was never sent because
    /// the connection had already failed.
    id: Option<u64>,
    op: u64,
    sent: Instant,
    is_serve: bool,
}

/// One connection's closed loop: keep [`WINDOW`] requests in flight, time
/// each auction from just before its send to its decoded response.
fn drive(conn: &mut Conn, stream: &mut ConnStream, mut clock: LaneClock, keep: u64) -> Phase {
    let mut phase = Phase::default();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
    let mut issued = 0u64;
    // Once the transport fails, the rest of the lane's operations count as
    // failed without being sent.
    let mut dead = false;
    loop {
        while in_flight.len() < WINDOW {
            let sent = Instant::now();
            if !clock.may_issue(issued, sent) {
                break;
            }
            let request = stream.next_request();
            let id = if dead {
                None
            } else {
                conn.send(&request, issued).ok()
            };
            dead |= id.is_none();
            in_flight.push_back(InFlight {
                id,
                op: issued,
                sent,
                is_serve: matches!(request, Request::Serve { .. }),
            });
            issued += 1;
        }
        let Some(oldest) = in_flight.pop_front() else {
            break;
        };
        let answer = match oldest.id {
            Some(id) if !dead => conn.receive().map(|(got, response)| (got == id, response)),
            _ => Err(NetError::Disconnected),
        };
        let answered = oldest.sent.elapsed().as_nanos() as u64;
        let auction_latency = match answer {
            Ok((true, Response::Served(auction))) if oldest.is_serve => {
                if oldest.op < keep {
                    // Without the global clock: it is the one value that
                    // depends on how the connections interleave.
                    phase.kept.push(digest(&auction.to_response(), false));
                }
                Some(answered)
            }
            Ok((true, Response::Ack)) if !oldest.is_serve => {
                phase.updates += 1;
                None
            }
            // `Overloaded`, `Failed` or an answer to another request.
            Ok(_) => {
                phase.failed += 1;
                None
            }
            Err(_) => {
                phase.failed += 1;
                dead = true;
                None
            }
        };
        clock.answered(auction_latency, &mut phase);
    }
    clock.finish(&mut phase);
    phase.attempted = issued;
    phase
}

struct Wire {
    population: SectionVWorkload,
    config: MarketConfig,
    server: ServerHandle,
    control: Client,
    conns: Vec<Conn>,
    streams: Vec<ConnStream>,
    durability: Option<(Durability, PathBuf)>,
    /// Operations per connection issued so far, warm-up included: what the
    /// twin must replay.
    issued: [u64; CONNECTIONS],
    /// The part of `issued` that was warm-up.
    warmup_issued: [u64; CONNECTIONS],
    /// Acknowledged operations the server journals (configure, population
    /// and every `Serve`/`UpdateBid`).
    journalled: u64,
    generate_ms: f64,
    populate_ops_per_s: f64,
}

/// The wire scenario's market configuration for a population.
pub fn market_config(population: &SectionVWorkload, shards: usize) -> MarketConfig {
    market_config_for(
        &population.config,
        WdMethod::Reduced,
        PricingScheme::Gsp,
        shards,
        false,
    )
}

/// The market a server is given, and the twin the checks compare with.
pub fn empty_market(config: &MarketConfig) -> Result<ShardedMarketplace, String> {
    build_market(config).map_err(text)
}

/// Registers the wire population on an in-process market, campaign for
/// campaign as [`Wire::set_up`] registers it over the wire.
pub fn populate_twin(
    market: &mut ShardedMarketplace,
    population: &SectionVWorkload,
) -> Result<(), String> {
    for i in 0..population.bidders.len() {
        market.register_advertiser(format!("advertiser-{i}"));
    }
    for campaign in gen::wire_campaigns(population) {
        let mut spec = CampaignSpec::per_click(campaign.bid)
            .click_value(campaign.click_value)
            .click_probs(campaign.click_probs);
        if let Some(source) = campaign.targeting {
            spec = spec.targeting(source);
        }
        market
            .add_campaign(
                AdvertiserHandle::from_index(campaign.advertiser),
                campaign.keyword,
                spec,
            )
            .map_err(text)?;
    }
    Ok(())
}

/// The in-process twin of the served market: same configuration, same
/// population, fed each connection's stream by [`replay_on_twin`].
pub fn build_twin(
    population: &SectionVWorkload,
    config: &MarketConfig,
) -> Result<ShardedMarketplace, String> {
    let mut market = empty_market(config)?;
    populate_twin(&mut market, population)?;
    Ok(market)
}

/// Applies one request of a connection's stream to the twin.
pub fn apply(
    twin: &mut ShardedMarketplace,
    request: Request,
    serve: bool,
) -> Result<Option<ssa_core::AuctionResponse>, String> {
    match request {
        Request::Serve { keyword, attrs } if serve => twin
            .serve(QueryRequest::with_attrs(keyword as usize, attrs))
            .map(Some)
            .map_err(text),
        Request::UpdateBid {
            keyword,
            index,
            bid_cents,
        } => twin
            .update_bid(
                CampaignId::from_parts(keyword as usize, index as usize),
                Money::from_cents(bid_cents),
            )
            .map(|()| None)
            .map_err(text),
        _ => Ok(None),
    }
}

impl Wire {
    /// One full set-up: inputs, server, population over the wire, data
    /// connections, warm-up. `attempt` keeps the WAL directories of one
    /// run's several set-ups apart.
    fn set_up(
        workload: Workload,
        seed: u64,
        sizes: &Sizes,
        warmup: Stop,
        attempt: usize,
    ) -> Result<Wire, String> {
        let started = Instant::now();
        let population = gen::section_v(ADVERTISERS, seed);
        let campaigns = gen::wire_campaigns(&population);
        let streams: Vec<ConnStream> = (0..CONNECTIONS)
            .map(|c| ConnStream::new(&population, c, CONNECTIONS))
            .collect();
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;

        let config = market_config(&population, SHARDS);
        let market = empty_market(&config)?;
        let mut journalled = 0;
        let durability = if workload == Workload::WireDurable {
            let dir = env::out_dir().join(format!("wal-{seed}-{}-{attempt}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let (recovered, durability) =
                Durability::open(&dir, FsyncPolicy::Always, SNAPSHOT_EVERY).map_err(text)?;
            if recovered.is_some() {
                return Err(format!("{} already held a marketplace", dir.display()));
            }
            durability
                .log_configure(&market.capture_state().map_err(text)?.config)
                .map_err(text)?;
            journalled += 1;
            Some((durability, dir))
        } else {
            None
        };
        let server = Server::bind(
            "127.0.0.1:0",
            market,
            ServerConfig {
                durability: durability.as_ref().map(|(d, _)| d.clone()),
                ..ServerConfig::default()
            },
        )
        .map_err(text)?
        .spawn();

        let mut control = Client::connect(server.addr()).map_err(text)?;
        let populating = Instant::now();
        for i in 0..population.bidders.len() {
            let handle = control
                .register_advertiser(&format!("advertiser-{i}"))
                .map_err(text)?;
            if handle.index() != i {
                return Err(format!("advertiser {i} registered as {}", handle.index()));
            }
        }
        let population_ops = (population.bidders.len() + campaigns.len()) as u64;
        for campaign in campaigns {
            let id = control
                .add_targeted_campaign(
                    AdvertiserHandle::from_index(campaign.advertiser),
                    campaign.keyword,
                    campaign.bid,
                    campaign.click_value,
                    None,
                    Some(campaign.click_probs),
                    campaign.targeting.map(str::to_string),
                )
                .map_err(text)?;
            if id != CampaignId::from_parts(campaign.keyword, campaign.advertiser) {
                return Err(format!("campaign registered as {id:?}"));
            }
        }
        let populate_ops_per_s = population_ops as f64 / populating.elapsed().as_secs_f64();
        journalled += population_ops;

        let mut wire = Wire {
            population,
            config,
            server,
            control,
            conns: Vec::new(),
            streams,
            durability,
            issued: [0; CONNECTIONS],
            warmup_issued: [0; CONNECTIONS],
            journalled,
            generate_ms,
            populate_ops_per_s,
        };
        wire.connect(None)?;
        let warmup = wire.run(warmup, sizes.block_per_connection, 0);
        if warmup.failed > 0 {
            return Err(format!("{} warm-up operations failed", warmup.failed));
        }
        wire.warmup_issued = wire.issued;
        Ok(wire)
    }

    /// Replaces the data connections: typed `Client`s, or — given the
    /// shared time origin of a traced phase — connections that record
    /// spans.
    fn connect(&mut self, traced_from: Option<Instant>) -> Result<(), String> {
        let addr: SocketAddr = self.server.addr();
        self.conns.clear();
        for _ in 0..CONNECTIONS {
            self.conns.push(match traced_from {
                None => Conn::Typed(Client::connect(addr).map_err(text)?),
                Some(epoch) => {
                    let stream = TcpStream::connect(addr).map_err(text)?;
                    stream.set_nodelay(true).map_err(text)?;
                    Conn::Traced(Box::new(TracedConn {
                        stream,
                        next_id: 0,
                        tracer: Tracer::new(epoch, SPAN_CAPACITY / CONNECTIONS),
                        open_ops: VecDeque::with_capacity(WINDOW),
                    }))
                }
            });
        }
        Ok(())
    }

    /// Runs one phase on both connections at once. `Stop::Ops` counts
    /// operations of both together.
    fn run(&mut self, stop: Stop, block: u64, keep: u64) -> Phase {
        let per_connection = match stop {
            Stop::Ops(n) => Stop::Ops(n / CONNECTIONS as u64),
            after => after,
        };
        let start = Instant::now();
        let phases: Vec<Phase> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.streams.iter_mut())
                .map(|(conn, stream)| {
                    let clock = LaneClock::new(per_connection, block, start);
                    scope.spawn(move || drive(conn, stream, clock, keep))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut total = Phase::default();
        for (c, mut phase) in phases.into_iter().enumerate() {
            self.issued[c] += phase.attempted;
            self.journalled += phase.auctions + phase.updates;
            // Outcomes stay apart per connection: connection 0's, then 1's.
            total.kept.append(&mut phase.kept);
            total.absorb_concurrent(phase);
        }
        total
    }

    /// The order book as the server reports it: every keyword's bids,
    /// highest first.
    fn book(&mut self) -> Result<Vec<Vec<(CampaignId, Money)>>, String> {
        (0..self.population.config.num_keywords)
            .map(|k| self.control.top_bids(k, ADVERTISERS).map_err(text))
            .collect()
    }

    /// Graceful shutdown; waits for every server thread to end.
    fn shut_down(mut self) -> Result<Option<(Durability, PathBuf)>, String> {
        self.conns.clear();
        self.control.shutdown_server().map_err(text)?;
        drop(self.control);
        self.server.join();
        Ok(self.durability)
    }
}

fn twin_book(
    twin: &ShardedMarketplace,
    keywords: usize,
) -> Result<Vec<Vec<(CampaignId, Money)>>, String> {
    (0..keywords)
        .map(|k| twin.top_bids(k, ADVERTISERS).map_err(text))
        .collect()
}

/// Feeds the twin each connection's stream: the warm-up and the next
/// `kept` operations in full (returning those outcomes, connection 0's
/// first), then only the bid writes of the rest — the final book depends
/// on nothing else.
fn replay_on_twin(
    twin: &mut ShardedMarketplace,
    population: &SectionVWorkload,
    warmup_issued: [u64; CONNECTIONS],
    kept: u64,
    issued: [u64; CONNECTIONS],
) -> Result<Vec<u64>, String> {
    let mut outcomes = Vec::new();
    for c in 0..CONNECTIONS {
        let mut stream = ConnStream::new(population, c, CONNECTIONS);
        for op in 0..issued[c] {
            let measured = op >= warmup_issued[c];
            let in_full = op < warmup_issued[c] + kept;
            if let Some(outcome) = apply(twin, stream.next_request(), in_full)? {
                if measured {
                    outcomes.push(digest(&outcome, false));
                }
            }
        }
    }
    Ok(outcomes)
}

fn remove_wal(durability: Option<(Durability, PathBuf)>) {
    if let Some((handle, dir)) = durability {
        drop(handle);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The end-to-end run: set up, measure, read the book over the wire, shut
/// down; then — with the clock stopped — compare with the in-process twin
/// and, for `wire-durable`, with what recovery rebuilds from the log. Two
/// more set-ups follow for the `setup_s` median.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    measure_for: Duration,
    scale: Scale,
    process_start: Instant,
) -> Result<EndToEnd, String> {
    let sizes = sizes(workload, scale);
    let mut checked = Vec::new();

    let warmup = Stop::After(sizes.timed_warmup);
    let mut wire = Wire::set_up(workload, seed, &sizes, warmup, 0)?;
    let mut setups_s = vec![process_start.elapsed().as_secs_f64()];
    let mut phase = wire.run(
        Stop::After(measure_for),
        sizes.block_per_connection,
        sizes.kept_per_connection,
    );
    let peak_rss_mb = env::peak_rss_mb();

    let book = wire.book()?;
    let stats = wire.control.stats().map_err(text)?;
    if stats.overloaded != 0 {
        return Err(format!(
            "the server refused {} requests as overloaded",
            stats.overloaded
        ));
    }
    let (population, config) = (wire.population.clone(), wire.config.clone());
    let (issued, warmup_issued, journalled) = (wire.issued, wire.warmup_issued, wire.journalled);
    let durability = wire.shut_down()?;

    let mut twin = build_twin(&population, &config)?;
    let replayed = replay_on_twin(
        &mut twin,
        &population,
        warmup_issued,
        sizes.kept_per_connection,
        issued,
    )?;
    same_outcomes("in-process twin", &phase.kept, &replayed)?;
    checked.push(format!(
        "the first {} outcomes of each connection match the in-process twin",
        phase.kept.len() / CONNECTIONS
    ));
    if book != twin_book(&twin, population.config.num_keywords)? {
        return Err("the book read over the wire differs from the twin's".into());
    }
    checked.push("the final top_bids book matches the twin's".into());

    if let Some((handle, dir)) = &durability {
        if handle.wal_records() != journalled {
            return Err(format!(
                "{} WAL records for {journalled} acknowledged journalled operations",
                handle.wal_records()
            ));
        }
        let (recovered, _) = ssa_durable::recover(dir)
            .map_err(text)?
            .ok_or("recovery found nothing in the WAL directory")?;
        if book != twin_book(&recovered, population.config.num_keywords)? {
            return Err("the recovered book differs from the one read before shutdown".into());
        }
        checked.push(format!(
            "{journalled} WAL records = acknowledged journalled operations; the recovered book matches"
        ));
    }
    remove_wal(durability);

    for attempt in 1..3 {
        // A run must end within three minutes. When the disk has turned
        // twenty times slower, one journalled set-up takes half a minute:
        // such a run reports the set-ups it has.
        if process_start.elapsed() > Duration::from_secs(90) {
            break;
        }
        let started = Instant::now();
        let again = Wire::set_up(workload, seed, &sizes, warmup, attempt)?;
        setups_s.push(started.elapsed().as_secs_f64());
        remove_wal(again.shut_down()?);
    }

    phase.kept = Vec::new();
    Ok(EndToEnd {
        setups_s,
        phase,
        peak_rss_mb,
        checked,
    })
}

/// Engine phase tallies of the served market, seen from outside: the twin
/// replays `count` operations per connection through `serve_batch`, the
/// call that returns them.
#[derive(Default)]
struct TwinTallies {
    phases: PhaseStats,
    auctions: u64,
    updates: u64,
    /// Wall time inside `serve_batch` and inside `update_bid`.
    serving: Duration,
    writing: Duration,
}

fn twin_tallies(
    population: &SectionVWorkload,
    config: &MarketConfig,
    count: u64,
) -> Result<TwinTallies, String> {
    let mut twin = build_twin(population, config)?;
    let mut t = TwinTallies::default();
    for c in 0..CONNECTIONS {
        let mut stream = ConnStream::new(population, c, CONNECTIONS);
        for _ in 0..count {
            match stream.next_request() {
                Request::Serve { keyword, attrs } => {
                    let query = [QueryRequest::with_attrs(keyword as usize, attrs)];
                    let called = Instant::now();
                    let report = twin.serve_batch(&query).map_err(text)?;
                    t.serving += called.elapsed();
                    t.phases.absorb(&report.total.phases);
                    t.auctions += 1;
                }
                write => {
                    let called = Instant::now();
                    apply(&mut twin, write, false)?;
                    t.writing += called.elapsed();
                    t.updates += 1;
                }
            }
        }
    }
    Ok(t)
}

/// The traced run: the same fixed operation count first on typed clients,
/// then on connections that record spans; the engine's phases come from
/// the in-process twin.
pub fn traced(workload: Workload, seed: u64, scale: Scale) -> Result<Traced, String> {
    let sizes = sizes(workload, scale);
    let mut wire = Wire::set_up(workload, seed, &sizes, Stop::Ops(sizes.warmup), 0)?;
    // Ten equal-count blocks a connection: their spread is
    // `client.block_rate_cv`.
    let block = sizes.traced / CONNECTIONS as u64 / 10;
    let untraced = wire.run(Stop::Ops(sizes.traced), block, 0);

    wire.connect(Some(Instant::now()))?;
    let traced = wire.run(Stop::Ops(sizes.traced), block, 0);
    let mut tracers = std::mem::take(&mut wire.conns)
        .into_iter()
        .map(|conn| match conn {
            Conn::Traced(conn) => conn.tracer,
            Conn::Typed(_) => unreachable!("the traced phase ran on traced connections"),
        });
    let mut tracer = tracers.next().expect("at least one connection");
    tracers.for_each(|other| tracer.absorb(other));

    let stats = wire.control.stats().map_err(text)?;
    let journalled = wire.journalled;
    let generate_ms = wire.generate_ms;
    let (population, config) = (wire.population.clone(), wire.config.clone());
    let durability = wire.shut_down()?;
    let (wal_records, snapshots) = durability.as_ref().map_or((0, 0), |(handle, _)| {
        (handle.wal_records(), handle.snapshot_seq() / SNAPSHOT_EVERY)
    });
    remove_wal(durability);

    let mut checked = Vec::new();
    if stats.overloaded != 0 {
        return Err(format!(
            "the server refused {} requests as overloaded",
            stats.overloaded
        ));
    }
    if workload == Workload::WireDurable {
        if wal_records != journalled {
            return Err(format!(
                "{wal_records} WAL records for {journalled} acknowledged journalled operations"
            ));
        }
        checked.push(format!(
            "{wal_records} WAL records = acknowledged journalled operations"
        ));
    }

    let twin = twin_tallies(&population, &config, sizes.kept_per_connection)?;
    let mut layer = core_rows(
        &twin.phases,
        twin.auctions,
        twin.writing.as_secs_f64() * 1e6 / twin.updates.max(1) as f64,
        twin.serving.as_nanos() as u64,
    );
    layer.extend([
        ("workload.generate_ms", generate_ms),
        ("net.overloaded", stats.overloaded as f64),
        ("durable.wal_records", wal_records as f64),
        ("durable.snapshots", snapshots as f64),
    ]);
    Ok(Traced {
        untraced,
        traced,
        tracer,
        layer,
        checked,
    })
}

/// The layer probes that need a server: one-at-a-time round trips over
/// loopback (bound by the scheduler's wake-up latency, so informational),
/// what the wire adds to an in-process `serve` of the same market, how
/// fast a population registers, and — from a short run of the scenario
/// memory-only and journalled — what durability costs per auction.
pub fn probe(seed: u64, scale: Scale) -> Result<Vec<(&'static str, f64)>, String> {
    let round_trips = scale.ops(2000, 20);
    let set_up = |workload: Workload, attempt: usize| {
        let sizes = sizes(workload, scale);
        Wire::set_up(workload, seed, &sizes, Stop::Ops(sizes.warmup), attempt)
    };
    let mut serve = set_up(Workload::WireServe, 8)?;
    let populate_ops_per_s = serve.populate_ops_per_s;
    let control = &mut serve.control;
    let ping_rtt_us = median_call_ns(round_trips, || control.ping().map(drop).map_err(text))? / 1e3;

    let mut stream = ConnStream::new(&serve.population, 0, 1);
    let queries: Vec<(u64, ssa_core::UserAttrs)> = std::iter::repeat_with(|| stream.next_request())
        .filter_map(|request| match request {
            Request::Serve { keyword, attrs } => Some((keyword, attrs)),
            _ => None,
        })
        .take(round_trips as usize)
        .collect();
    let mut next = queries.iter();
    let serve_rtt_ns = median_call_ns(round_trips, || {
        let (keyword, attrs) = next.next().expect("one query per round trip");
        control
            .serve_with_attrs(*keyword as usize, attrs.clone())
            .map(drop)
            .map_err(text)
    })?;
    let mut twin = build_twin(&serve.population, &serve.config)?;
    let mut next = queries.iter();
    let in_process_ns = median_call_ns(round_trips, || {
        let (keyword, attrs) = next.next().expect("one query per call");
        twin.serve(QueryRequest::with_attrs(*keyword as usize, attrs.clone()))
            .map(drop)
            .map_err(text)
    })?;

    // The same scenario and traffic twice, so the rates can be subtracted.
    let rate = |wire: &mut Wire, count: u64, block: u64| {
        let phase = wire.run(Stop::Ops(count), block, 0);
        if phase.failed > 0 {
            return Err(format!("{} probe operations failed", phase.failed));
        }
        Ok(phase.auctions_per_s())
    };
    let memory_rate = rate(&mut serve, scale.ops(20_000, 400), scale.ops(5000, 20))?;
    remove_wal(serve.shut_down()?);
    let mut durable = set_up(Workload::WireDurable, 9)?;
    let durable_rate = rate(&mut durable, scale.ops(4000, 200), scale.ops(500, 10))?;
    remove_wal(durable.shut_down()?);

    Ok(vec![
        ("net.ping_rtt_us", ping_rtt_us),
        ("net.serve_rtt_us", serve_rtt_ns / 1e3),
        ("net.wire_overhead_us", (serve_rtt_ns - in_process_ns) / 1e3),
        ("net.populate_ops_per_s", populate_ops_per_s),
        (
            "durable.cost_per_auction_us",
            1e6 / durable_rate - 1e6 / memory_rate,
        ),
    ])
}
