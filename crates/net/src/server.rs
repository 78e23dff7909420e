//! The TCP serving front-end: accept loop, per-connection reader/writer
//! threads, and the executor thread that runs queued market work.
//!
//! # Threading model
//!
//! * **One marketplace behind one lock.** The [`Marketplace`] sits in a
//!   `Mutex`; whoever holds it runs a *group* of requests in order, each
//!   through the same [`Marketplace::apply`], and commits the group
//!   (`run_group`). Two threads take it: the executor, for a tick, and a
//!   connection's reader, for one control request of an idle session.
//!   (`serve_batch` still fans out across shard worker threads *inside* a
//!   request, so multi-core throughput comes from batching, exactly as
//!   in-process callers get it.)
//! * **The executor works in ticks**: it blocks for one queued job, then
//!   runs it and whatever else is queued — arrivals during the tick
//!   included, up to a fixed bound — as one group, until the queue is
//!   empty.
//! * **A reader runs an idle session's control request itself.** When a
//!   request is not data-plane ([`Request::is_data_plane`]) and its
//!   session owes no reply — none queued, none held for a commit, none
//!   handed to the writer and not yet written ([`Session::owed`]) — the
//!   reader takes the lock, runs the request as a one-job group and
//!   writes the reply to the socket itself. Nothing of that session can
//!   be overtaken, since every earlier reply is already on the wire, and
//!   a one-at-a-time round trip skips the executor's and the writer's
//!   wake-ups. Everything else queues for the executor.
//! * **A one-at-a-time peer is polled for.** Once a session's last two
//!   requests both ran on its reader's own path, the reader polls the
//!   socket (a non-blocking `peek`) for the next request before it sleeps
//!   in its read, as [`crate::client::Client::request`] does for a
//!   control reply. The budget is twice the last wait if that was at most
//!   ≈ 200 µs, else zero, so a slow or remote peer is polled for once. The
//!   writer's and registry's clones share the non-blocking flag, so the
//!   reader polls only while [`Session::owed`] is 0 — the writer has
//!   nothing to write — and restores blocking mode before anything writes.
//! * **Data-plane work always queues**, even for an idle session: a
//!   reader that ran a `Serve` itself would stop classifying the rest of
//!   its peer's pipelined burst while the auction ran, and admission
//!   answers a full lane only as fast as the reader classifies.
//! * **Commit before acknowledge.** Memory-only, a group's replies are
//!   released as soon as each has run. With a [`Durability`] attached a
//!   group is one *commit group*: its records — one per operation, run
//!   order = log order — are staged in memory and reach the write-ahead
//!   log in one `write` and (under `FsyncPolicy::Always`) one
//!   `fdatasync`, and only then are the group's replies released, on
//!   either path. What a tick saves is every sync but one; a one-at-a-time
//!   client makes one-record groups and pays one sync each.
//! * **A commit that fails acknowledges nothing**: every job of the group
//!   is answered [`ErrorCode::StorageFailed`], and the server begins its
//!   drain (later groups fail the same way — the log accepts nothing
//!   behind a write of unknown extent). A restart recovers the log's
//!   whole-record prefix: every acknowledged operation, possibly followed
//!   by unacknowledged ones.
//! * **Per connection**: a reader thread (buffered read → decode → admit
//!   → run or submit) and a writer thread (encode → write) that drains the
//!   connection's reply channel; reader and writer write through one lock
//!   on the write half. Responses to pipelined requests come back in
//!   request order, each carrying its request id; the writer sends
//!   everything its channel holds in one `write`, so a tick's burst of
//!   replies to one peer is one system call. Accepted sockets run with
//!   `TCP_NODELAY`.
//! * **Backpressure**: data-plane requests take a bounded
//!   [`crate::admission`] slot per involved shard before entering the
//!   executor queue and hold it until their reply is *written*; a full
//!   lane is answered immediately with [`Response::Overloaded`] — the
//!   request is never queued. A session is owed at most its admission
//!   window plus a fixed allowance of replies; at that bound its reader
//!   stops reading until the writer catches up, so a peer that never
//!   reads holds a bounded number of replies and the executor never waits
//!   on it.
//!
//! # Graceful shutdown
//!
//! [`Request::Shutdown`] (or [`ServerHandle::shutdown`]) flips the
//! shutdown flag, half-closes the read side of every live connection
//! ([`crate::session::SessionRegistry::shutdown_reads`]), and nudges the
//! accept loop awake. Readers see EOF and stop submitting; jobs already
//! queued drain through the executor (an [`mpsc`] channel delivers
//! everything buffered before reporting disconnection); writers flush the
//! responses; then the threads unwind. In-flight requests are *completed*,
//! never dropped.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use ssa_core::{shard_of_keyword, Marketplace, MutationRecord};

use crate::admission::{Admission, Ticket, LANES};
use crate::frame::{encode_frame, read_frame, FrameKind, PollBudget, PROTO_VERSION};
use crate::proto::{ErrorCode, MarketConfig, Request, Response, ServerStats};
use crate::session::{Session, SessionRegistry};
use ssa_durable::Durability;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Data-plane requests allowed per shard lane — queued, running, or
    /// answered but not yet written to their peer — before new ones are
    /// refused with [`Response::Overloaded`]. A session is owed at most
    /// this many replies per shard, plus a fixed allowance for control
    /// requests, before its reader stops reading.
    pub admission_per_shard: usize,
    /// Back-off hint, in milliseconds, attached to every `Overloaded`.
    pub retry_after_ms: u32,
    /// Fault injection for tests: sleep this long in the executor before
    /// running each *data-plane* job, so admission lanes can be saturated
    /// deterministically. `None` (the default) adds no delay.
    pub executor_delay: Option<Duration>,
    /// Write-ahead log to journal the marketplace through. The caller
    /// opens it (recovering any prior state into the `market` passed to
    /// [`Server::bind`]) and must already have logged the configure
    /// record for a freshly built marketplace
    /// ([`Durability::log_configure`]); `bind` attaches the handle's
    /// group journal, and whoever holds the market lock — the executor
    /// for a tick, a reader for an idle session's control request —
    /// commits once per group and snapshots on the handle's cadence
    /// between groups. `None` serves memory-only.
    pub durability: Option<Durability>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            admission_per_shard: 256,
            retry_after_ms: 10,
            executor_delay: None,
            durability: None,
        }
    }
}

/// One unit of market work: a decoded request, its session and `to`,
/// where its reply goes — the connection's writer for a queued job,
/// nowhere for the one a reader runs and answers itself.
struct Job<To> {
    to: To,
    session: Arc<Session>,
    request_id: u64,
    request: Request,
    ticket: Option<Ticket>,
}

/// A reply on its way to its peer. The admission ticket rides along and
/// drops once the reply is written, so a lane slot bounds a reply's
/// memory until it has left the process.
struct Reply {
    request_id: u64,
    response: Response,
    _ticket: Option<Ticket>,
}

/// Where the executor sends a queued job's reply: its connection's writer.
type Outbox = mpsc::Sender<Reply>;

/// Replies a session may be owed beyond its admission window: room for
/// the control requests a peer pipelines (`Client::apply_all` keeps at
/// most this many in flight) and the reader's own refusals.
pub(crate) const CONTROL_REPLIES: usize = 64;

/// State shared by the accept loop, connection threads, and executor.
struct Shared {
    local_addr: SocketAddr,
    /// The marketplace; its holder runs a group and commits it.
    market: Mutex<Marketplace>,
    sessions: Arc<SessionRegistry>,
    admission: Arc<Admission>,
    shutdown: AtomicBool,
    /// Shard count of the *current* marketplace; connection readers route
    /// admission through it, whoever runs a `Configure` updates it.
    num_shards: AtomicUsize,
    /// Requests executed (any plane). Refused requests are counted by
    /// [`Admission::overloaded_count`] instead.
    requests: AtomicU64,
    admission_per_shard: usize,
    executor_delay: Option<Duration>,
    durability: Option<Durability>,
}

impl Shared {
    fn shards_of_request(&self, request: &Request) -> Option<Vec<usize>> {
        let num_shards = self.num_shards.load(Ordering::Relaxed);
        match request {
            Request::Serve { keyword, .. } => {
                Some(vec![shard_of_keyword(*keyword as usize, num_shards)])
            }
            Request::ServeBatch { queries } => Some(
                queries
                    .iter()
                    .map(|(kw, _)| shard_of_keyword(*kw as usize, num_shards))
                    .collect(),
            ),
            _ => None,
        }
    }
}

/// A bound, not-yet-running server; obtained from [`Server::bind`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: mpsc::Sender<Job<Outbox>>,
    executor: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds the listener, takes `market` and starts the executor thread.
    /// The server does not accept connections until [`Server::run`] (or
    /// [`Server::spawn`]) is called.
    pub fn bind(
        addr: impl ToSocketAddrs,
        mut market: Marketplace,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        if let Some(durability) = &config.durability {
            market.set_journal(durability.group_journal());
        }
        let shared = Arc::new(Shared {
            local_addr: listener.local_addr()?,
            sessions: SessionRegistry::new(),
            admission: Admission::new(config.admission_per_shard, config.retry_after_ms),
            shutdown: AtomicBool::new(false),
            num_shards: AtomicUsize::new(market.num_shards()),
            market: Mutex::new(market),
            requests: AtomicU64::new(0),
            admission_per_shard: config.admission_per_shard.max(1),
            executor_delay: config.executor_delay,
            durability: config.durability,
        });
        let (jobs, job_rx) = mpsc::channel();
        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || executor_loop(job_rx, &shared))
        };
        Ok(Server {
            listener,
            shared,
            jobs,
            executor,
        })
    }

    /// The address the listener actually bound (resolves `:0` port
    /// requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Runs the accept loop on the calling thread until graceful shutdown,
    /// then drains the executor and returns.
    pub fn run(self) {
        let Server {
            listener,
            shared,
            jobs,
            executor,
        } = self;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let Ok(session) = shared.sessions.register(&stream) else {
                continue;
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                // This accept raced with graceful shutdown: the drain
                // pass may have run before this session was registered,
                // so half-close the registry again (idempotent) to make
                // sure this reader sees EOF too.
                shared.sessions.shutdown_reads();
            }
            let shared = Arc::clone(&shared);
            let jobs = jobs.clone();
            connections.retain(|handle| !handle.is_finished());
            connections.push(std::thread::spawn(move || {
                serve_connection(stream, session, shared, jobs)
            }));
        }
        // Dropping the accept loop's job sender lets the executor's
        // receive loop end once every connection reader has exited and
        // released its clone; buffered jobs drain first.
        drop(jobs);
        let _ = executor.join();
        // The drain contract: every response for admitted work reaches
        // the wire before the server reports itself stopped. Each reader
        // joins its paired writer, so joining the connection threads
        // flushes the final replies (the shutdown Ack included).
        for handle in connections {
            let _ = handle.join();
        }
    }

    /// Runs the accept loop on a new thread, returning a handle for
    /// clients in the same process (tests, examples, the bench driver).
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shared,
            thread,
        }
    }
}

/// A running server spawned on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown without a client connection: flips the
    /// flag, half-closes live sessions, and wakes the accept loop.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Waits for the server to finish draining and exit.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Flips the shutdown flag, EOFs every live reader, and nudges the accept
/// loop so it observes the flag. Idempotent.
fn begin_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.sessions.shutdown_reads();
    // The accept loop is parked in `accept`; a throwaway connection wakes
    // it to check the flag.
    let _ = TcpStream::connect(shared.local_addr);
}

/// Per-connection reader: decode frames, admit data-plane work, run an
/// idle session's control request or submit the job; plus the paired
/// writer thread that serialises queued responses back out.
fn serve_connection(
    stream: TcpStream,
    session: Arc<Session>,
    shared: Arc<Shared>,
    jobs: mpsc::Sender<Job<Outbox>>,
) {
    // The most replies this session may be owed: its admission window on
    // every lane the market's shards map to at connect, plus the control
    // allowance. The reader reads nothing more at the bound, so a peer
    // that never reads holds at most this many replies.
    let window = shared.admission_per_shard * shared.num_shards.load(Ordering::Relaxed).min(LANES)
        + CONTROL_REPLIES;
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let writer = {
        let session = Arc::clone(&session);
        let reader = std::thread::current();
        std::thread::spawn(move || {
            // Everything the channel holds goes out in one write: the
            // replies a tick releases together cost one system call.
            let mut replies = Vec::new();
            let mut burst = Vec::new();
            let mut broken = false;
            while let Ok(first) = reply_rx.recv() {
                replies.extend(std::iter::once(first).chain(reply_rx.try_iter()));
                for reply in &replies {
                    encode_reply(&mut burst, reply);
                }
                // Replies to a peer whose socket failed are still counted
                // off, so its reader is never parked for good.
                broken = broken || session.write(&burst).is_err();
                burst.clear();
                let written = replies.len();
                // The tickets drop here, after the write.
                replies.clear();
                if session.paid(written) >= window {
                    reader.unpark();
                }
            }
        })
    };

    // One `read` brings in as many pipelined frames as have arrived.
    let mut reader = BufReader::new(stream);
    let mut direct = Vec::new();
    // Requests in a row (up to two) run on this reader's path: at two the
    // peer waits for each reply, and the reader polls for the next request.
    let mut own_runs = 0u8;
    let mut poll = PollBudget::default();
    loop {
        while session.owed() >= window {
            std::thread::park();
        }
        if own_runs == 2 {
            // Only this thread counts replies up, and the last request ran
            // here with none owed: the writer has nothing to write.
            debug_assert_eq!(session.owed(), 0);
            if poll.poll(&reader).is_err() {
                break;
            }
        }
        // Clean EOF, mid-frame truncation, or transport error all end the
        // loop: there is nothing further to decode on this connection.
        let Ok(Some(frame)) = read_frame(&mut reader) else {
            break;
        };
        poll.learn();
        let streak = std::mem::take(&mut own_runs);
        if frame.kind != FrameKind::Request {
            // A response frame sent *to* a server is a peer bug; drop the
            // connection rather than guess.
            break;
        }
        session.note_request();
        let refuse = |response| {
            session.owe();
            let _ = reply_tx.send(Reply {
                request_id: frame.request_id,
                response,
                _ticket: None,
            });
        };
        let request = match Request::decode(&frame.payload) {
            Ok(request) => request,
            Err(e) => {
                // Well-framed but undecodable payload: answer with a typed
                // failure (the request id is known) and keep the
                // connection — the peer may just be newer than us.
                refuse(Response::Failed {
                    code: ErrorCode::Unsupported,
                    message: e.to_string(),
                });
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            refuse(Response::Failed {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".into(),
            });
            continue;
        }
        if !request.is_data_plane() && session.owed() == 0 {
            // Run to completion here: every earlier reply is on the wire,
            // so this one overtakes nothing.
            let Ok(mut market) = shared.market.lock() else {
                break;
            };
            let job = Job {
                to: (),
                session: Arc::clone(&session),
                request_id: frame.request_id,
                request,
                ticket: None,
            };
            run_group(&mut market, [job], &shared, |(), reply| {
                encode_reply(&mut direct, &reply)
            });
            drop(market);
            if session.write(&direct).is_err() {
                break;
            }
            direct.clear();
            own_runs = (streak + 1).min(2);
            continue;
        }
        let ticket = match shared.shards_of_request(&request) {
            Some(shards) => match shared.admission.try_admit_shards(shards) {
                Some(ticket) => Some(ticket),
                None => {
                    refuse(Response::Overloaded {
                        retry_after_ms: shared.admission.retry_after_ms(),
                    });
                    continue;
                }
            },
            None => None,
        };
        session.owe();
        let job = Job {
            to: reply_tx.clone(),
            session: Arc::clone(&session),
            request_id: frame.request_id,
            request,
            ticket,
        };
        if jobs.send(job).is_err() {
            break;
        }
    }
    shared.sessions.unregister(session.id);
    // Drop our reply sender; the writer exits once the executor has
    // answered (or dropped) every job this connection submitted.
    drop(reply_tx);
    drop(jobs);
    let _ = writer.join();
}

fn encode_reply(out: &mut Vec<u8>, reply: &Reply) {
    out.extend_from_slice(&encode_frame(
        FrameKind::Response,
        reply.request_id,
        &reply.response.encode(),
    ));
}

/// Most jobs one tick runs before it commits: the queue is normally empty
/// long before, and a peer that keeps it full cannot put everyone's
/// commit — and so everyone's replies — off for longer than this.
const MAX_TICK: usize = 256;

/// The executor: drains the job queue in submission order, a tick at a
/// time under the market lock, until every sender is gone.
fn executor_loop(jobs: mpsc::Receiver<Job<Outbox>>, shared: &Shared) {
    while let Ok(first) = jobs.recv() {
        let Ok(mut market) = shared.market.lock() else {
            return;
        };
        let tick = std::iter::once(first).chain(jobs.try_iter()).take(MAX_TICK);
        run_group(&mut market, tick, shared, |outbox, reply| {
            let _ = outbox.send(reply);
        });
    }
}

/// The one commit path: runs `jobs` in order on `market` and commits them
/// as one group, handing each reply to `release` — as soon as it has run
/// memory-only, after the commit that covers its record under a
/// [`Durability`]. The caller holds the market lock throughout, so the
/// group's records are exactly the ones the commit writes.
fn run_group<To>(
    market: &mut Marketplace,
    jobs: impl IntoIterator<Item = Job<To>>,
    shared: &Shared,
    mut release: impl FnMut(To, Reply),
) {
    let mut held = Vec::new();
    for job in jobs {
        if let (Some(delay), true) = (shared.executor_delay, job.request.is_data_plane()) {
            std::thread::sleep(delay);
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let reply = Reply {
            request_id: job.request_id,
            response: execute(market, job.request, &job.session, shared),
            _ticket: job.ticket,
        };
        match shared.durability {
            None => release(job.to, reply),
            Some(_) => held.push((job.to, reply)),
        }
    }
    let Some(durability) = &shared.durability else {
        return;
    };
    match durability.commit() {
        Ok(()) => {
            // Only the lock's holder journals, so every reply's record is
            // at or before the newest one — which the commit covered.
            debug_assert_eq!(durability.committed_seq(), durability.wal_records());
            for (to, reply) in held {
                release(to, reply);
            }
            // Snapshotting needs `&market` while the journal half of the
            // handle lives inside it, so the trigger sits here, between
            // groups, under the lock.
            if let Err(e) = durability.maybe_snapshot(market) {
                eprintln!("ssa-server: snapshot failed (log continues): {e}");
            }
        }
        Err(e) => {
            eprintln!("ssa-server: write-ahead log commit failed, shutting down: {e}");
            begin_shutdown(shared);
            for (to, reply) in held {
                let response = Response::Failed {
                    code: ErrorCode::StorageFailed,
                    message: format!("not made durable, not acknowledged: {e}"),
                };
                release(to, Reply { response, ..reply });
            }
        }
    }
}

/// Runs one request: the four wire-only ones here, every other through the
/// bridge into [`Marketplace::apply`] — the same `apply` recovery replays
/// the write-ahead log with, which journals (a `Configure` included)
/// through the marketplace's own hook.
fn execute(
    market: &mut Marketplace,
    request: Request,
    session: &Session,
    shared: &Shared,
) -> Response {
    match request {
        Request::Ping => Response::Pong {
            session: session.id,
            proto_version: PROTO_VERSION,
        },
        Request::TopBids { keyword, limit } => {
            match market.top_bids(keyword as usize, limit as usize) {
                Ok(bids) => Response::TopBids {
                    bids: bids
                        .into_iter()
                        .map(|(id, m)| (id.keyword() as u64, id.index() as u64, m.cents()))
                        .collect(),
                },
                Err(e) => failed(&e),
            }
        }
        Request::Stats => Response::Stats(ServerStats {
            advertisers: market.num_advertisers() as u64,
            campaigns: market.num_campaigns_total() as u64,
            keywords: market.num_keywords() as u64,
            slots: market.num_slots() as u64,
            shards: market.num_shards() as u64,
            auctions: market.now(),
            sessions: shared.sessions.total_count(),
            requests: shared.requests.load(Ordering::Relaxed),
            overloaded: shared.admission.overloaded_count(),
            wal_records: shared
                .durability
                .as_ref()
                .map_or(0, |durability| durability.wal_records()),
            snapshot_seq: shared
                .durability
                .as_ref()
                .map_or(0, |durability| durability.snapshot_seq()),
        }),
        Request::Shutdown => {
            begin_shutdown(shared);
            Response::Ack
        }
        op => {
            // The four wire-only requests are matched above.
            #[allow(clippy::expect_used)]
            let op =
                MutationRecord::try_from(op).expect("every other request carries an operation");
            match market.apply(op) {
                Ok(reply) => {
                    // Only a `Configure` can have changed it; one relaxed
                    // store is cheaper than asking which operation ran.
                    shared
                        .num_shards
                        .store(market.num_shards(), Ordering::Relaxed);
                    reply.into()
                }
                Err(e) => failed(&e),
            }
        }
    }
}

/// Builds the marketplace a [`Request::Configure`] describes
/// ([`Marketplace::from_config`] under the name this layer has
/// always exported).
pub fn build_market(config: &MarketConfig) -> Result<Marketplace, ssa_core::MarketError> {
    Marketplace::from_config(config)
}

fn failed(e: &ssa_core::MarketError) -> Response {
    Response::Failed {
        code: ErrorCode::from(e),
        message: e.to_string(),
    }
}
