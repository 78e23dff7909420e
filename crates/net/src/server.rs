//! The TCP serving front-end: accept loop, per-connection reader/writer
//! threads, and the single executor thread that owns the marketplace.
//!
//! # Threading model
//!
//! * **One executor thread** owns the
//!   [`Marketplace`] outright — no locks on
//!   market state; requests are serialised through an [`mpsc`] channel and
//!   executed in submission order. (`serve_batch` still fans out across
//!   shard worker threads *inside* a request, so multi-core throughput
//!   comes from batching, exactly as in-process callers get it.)
//! * **The executor works in ticks**: it blocks for one job, then runs it
//!   and whatever else is queued — arrivals during the tick included, up
//!   to a fixed bound — in queue order, each through the same
//!   [`ssa_core::journal::apply`], until the queue is empty. Memory-only,
//!   every job is answered as soon as it has run. With a [`Durability`]
//!   attached the tick is one *commit group*: its records — one per
//!   operation, queue order = execution order = log order — are staged in
//!   memory as the jobs run and reach the write-ahead log in one `write`
//!   and (under `FsyncPolicy::Always`) one `fdatasync`, and only then are
//!   the tick's replies released. An acknowledgement therefore always
//!   waits for a sync that covers its record; what a tick saves is every
//!   sync but one. A one-at-a-time client makes one-record ticks and pays
//!   one sync each, as before.
//! * **A commit that fails acknowledges nothing**: every job of the tick
//!   is answered [`ErrorCode::StorageFailed`], and the server begins its
//!   drain (later ticks fail the same way — the log accepts nothing behind
//!   a write of unknown extent). A restart recovers the log's whole-record
//!   prefix: every acknowledged operation, possibly followed by
//!   unacknowledged ones.
//! * **Per connection**: a reader thread (buffered read → decode → admit
//!   → submit) and a writer thread (encode → write), joined by a
//!   per-connection response channel. Responses to pipelined requests
//!   come back in execution order, each carrying its request id; the
//!   writer sends everything its channel holds in one `write`, so a
//!   tick's burst of replies to one peer is one system call. Accepted
//!   sockets run with `TCP_NODELAY`.
//! * **Backpressure**: data-plane requests take a bounded
//!   [`crate::admission`] slot per involved shard before entering the
//!   executor queue and hold it until they are answered; a full lane is
//!   answered immediately with [`Response::Overloaded`] — the request is
//!   never queued.
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

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ssa_core::{shard_of_keyword, Marketplace, MutationRecord};

use crate::admission::{Admission, Ticket};
use crate::frame::{read_frame, write_frame, FrameKind, PROTO_VERSION};
use crate::proto::{ErrorCode, MarketConfig, Request, Response, ServerStats};
use crate::session::{Session, SessionRegistry};
use ssa_durable::Durability;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queued-or-in-flight data-plane requests allowed per shard lane
    /// before new ones are refused with [`Response::Overloaded`].
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
    /// group journal, the executor commits once per tick and snapshots on
    /// the handle's cadence between ticks. `None` serves memory-only.
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

/// One unit of executor work: a decoded request plus everything needed to
/// answer it. The admission ticket rides along so its lane slots are
/// released only when the request has been answered.
struct Job {
    request_id: u64,
    session: Arc<Session>,
    request: Request,
    reply: mpsc::Sender<(u64, Response)>,
    _ticket: Option<Ticket>,
}

/// State shared by the accept loop, connection threads, and executor.
struct Shared {
    local_addr: SocketAddr,
    sessions: Arc<SessionRegistry>,
    admission: Arc<Admission>,
    shutdown: AtomicBool,
    /// Shard count of the *current* marketplace; connection readers route
    /// admission through it, the executor updates it on `Configure`.
    num_shards: AtomicUsize,
    /// Requests executed (any plane). Refused requests are counted by
    /// [`Admission::overloaded_count`] instead.
    requests: AtomicU64,
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
    jobs: mpsc::Sender<Job>,
    executor: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds the listener and starts the executor thread that owns
    /// `market`. The server does not accept connections until
    /// [`Server::run`] (or [`Server::spawn`]) is called.
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
            requests: AtomicU64::new(0),
            executor_delay: config.executor_delay,
            durability: config.durability,
        });
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || executor_loop(market, job_rx, &shared))
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

/// Per-connection reader: decode frames, admit data-plane work, submit
/// jobs; plus the paired writer thread that serialises responses back out.
fn serve_connection(
    stream: TcpStream,
    session: Arc<Session>,
    shared: Arc<Shared>,
    jobs: mpsc::Sender<Job>,
) {
    let (reply_tx, reply_rx) = mpsc::channel::<(u64, Response)>();
    let writer = {
        let mut stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                shared.sessions.unregister(session.id);
                return;
            }
        };
        std::thread::spawn(move || {
            // Everything the channel holds goes out in one write: the
            // replies a tick releases together cost one system call.
            let mut burst = Vec::new();
            while let Ok(first) = reply_rx.recv() {
                for (request_id, response) in std::iter::once(first).chain(reply_rx.try_iter()) {
                    write_frame(
                        &mut burst,
                        FrameKind::Response,
                        request_id,
                        &response.encode(),
                    )
                    .expect("a Vec takes every write");
                }
                if stream.write_all(&burst).is_err() {
                    break;
                }
                burst.clear();
            }
        })
    };

    // One `read` brings in as many pipelined frames as have arrived.
    let mut reader = BufReader::new(stream);
    // Clean EOF, mid-frame truncation, or transport error all end the
    // loop: there is nothing further to decode on this connection.
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        if frame.kind != FrameKind::Request {
            // A response frame sent *to* a server is a peer bug; drop the
            // connection rather than guess.
            break;
        }
        session.note_request();
        let request = match Request::decode(&frame.payload) {
            Ok(request) => request,
            Err(e) => {
                // Well-framed but undecodable payload: answer with a typed
                // failure (the request id is known) and keep the
                // connection — the peer may just be newer than us.
                let _ = reply_tx.send((
                    frame.request_id,
                    Response::Failed {
                        code: ErrorCode::Unsupported,
                        message: e.to_string(),
                    },
                ));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = reply_tx.send((
                frame.request_id,
                Response::Failed {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining".into(),
                },
            ));
            continue;
        }
        let ticket = match shared.shards_of_request(&request) {
            Some(shards) => match shared.admission.try_admit_shards(shards) {
                Some(ticket) => Some(ticket),
                None => {
                    let _ = reply_tx.send((
                        frame.request_id,
                        Response::Overloaded {
                            retry_after_ms: shared.admission.retry_after_ms(),
                        },
                    ));
                    continue;
                }
            },
            None => None,
        };
        if jobs
            .send(Job {
                request_id: frame.request_id,
                session: Arc::clone(&session),
                request,
                reply: reply_tx.clone(),
                _ticket: ticket,
            })
            .is_err()
        {
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

/// A reply held back until the commit group its record belongs to is
/// durable. The ticket rides along: the lane slot frees on release.
struct Held {
    reply: mpsc::Sender<(u64, Response)>,
    request_id: u64,
    response: Response,
    _ticket: Option<Ticket>,
}

/// Most jobs one tick runs before it commits: the queue is normally empty
/// long before, and a peer that keeps it full cannot put everyone's
/// commit — and so everyone's replies — off for longer than this.
const MAX_TICK: usize = 256;

/// The executor: single owner of the marketplace, draining the job queue
/// in submission order, a tick at a time, until every sender is gone.
fn executor_loop(mut market: Marketplace, jobs: mpsc::Receiver<Job>, shared: &Shared) {
    let mut held: Vec<Held> = Vec::new();
    while let Ok(first) = jobs.recv() {
        for job in std::iter::once(first).chain(jobs.try_iter()).take(MAX_TICK) {
            if let (Some(delay), true) = (shared.executor_delay, job.request.is_data_plane()) {
                std::thread::sleep(delay);
            }
            shared.requests.fetch_add(1, Ordering::Relaxed);
            let Job {
                request_id,
                session,
                request,
                reply,
                _ticket,
            } = job;
            let response = execute(&mut market, request, &session, shared);
            match &shared.durability {
                // `_ticket` lives to the end of the iteration: the lane
                // slot is released only after the request fully executed.
                None => {
                    let _ = reply.send((request_id, response));
                }
                Some(_) => held.push(Held {
                    reply,
                    request_id,
                    response,
                    _ticket,
                }),
            }
        }
        let Some(durability) = &shared.durability else {
            continue;
        };
        match durability.commit() {
            Ok(()) => {
                // Only this thread journals, so every reply's record is
                // at or before the newest one — which the commit covered.
                debug_assert_eq!(durability.committed_seq(), durability.wal_records());
                for job in held.drain(..) {
                    let _ = job.reply.send((job.request_id, job.response));
                }
                // Snapshotting needs `&market` while the journal half of
                // the handle lives inside it, so the trigger sits here —
                // on the thread that owns the marketplace, between ticks.
                if let Err(e) = durability.maybe_snapshot(&market) {
                    eprintln!("ssa-server: snapshot failed (log continues): {e}");
                }
            }
            Err(e) => {
                eprintln!("ssa-server: write-ahead log commit failed, shutting down: {e}");
                begin_shutdown(shared);
                for job in held.drain(..) {
                    let _ = job.reply.send((
                        job.request_id,
                        Response::Failed {
                            code: ErrorCode::StorageFailed,
                            message: format!("not made durable, not acknowledged: {e}"),
                        },
                    ));
                }
            }
        }
    }
}

/// Runs one request: the four wire-only ones here, every other through the
/// bridge into [`ssa_core::journal::apply`] — the same `apply` recovery
/// replays the write-ahead log with, journalling (a `Configure` included)
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
        Request::Stats => {
            let snapshot = market.snapshot();
            Response::Stats(ServerStats {
                advertisers: snapshot.advertisers as u64,
                campaigns: snapshot.campaigns as u64,
                keywords: snapshot.keywords as u64,
                slots: snapshot.slots as u64,
                shards: snapshot.shards as u64,
                auctions: snapshot.auctions,
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
            })
        }
        Request::Shutdown => {
            begin_shutdown(shared);
            Response::Ack
        }
        op => {
            let op =
                MutationRecord::try_from(op).expect("every other request carries an operation");
            match ssa_core::journal::apply(market, op) {
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
