//! # sponsored-search — expressive and scalable sponsored search auctions
//!
//! A from-scratch Rust reproduction of *Toward Expressive and Scalable
//! Sponsored Search Auctions* (Martin, Gehrke & Halpern, ICDE 2008,
//! arXiv:0809.0116). This umbrella crate re-exports the workspace members:
//!
//! * [`bidlang`] — the multi-feature bidding language (formulas over
//!   `Slotj` / `Click` / `Purchase`, OR-bid tables) and the typed
//!   attribute-targeting expression language ([`bidlang::targeting`]);
//! * [`minidb`] — the SQL engine that executes bidding programs
//!   (Section II-B);
//! * [`matching`] — Hungarian matching, the reduced-graph method, the
//!   threshold algorithm (Sections III & IV-A);
//! * [`simplex`] — the network simplex solver of method LP;
//! * [`strategy`] — the ROI-equalising heuristic (native and SQL) and
//!   logical updates (Sections II-C & IV-B);
//! * [`core`] — the auction engine: probability models, expected revenue,
//!   pricing, the heavyweight model (Sections III-A/E/F) — plus the
//!   [`marketplace`] service facade;
//! * [`workload`] — the Section V experimental workload,
//!   `MarketSimulation` (the shared-ROI population on a marketplace, which
//!   Figures 12/13 time under LP / H / RH), the RHTALU reference
//!   `Simulation` it is held to, the `Scenario`
//!   description of a single-run experiment, and the
//!   hostile-world generator (Zipf / flash-crowd / churn query shapes,
//!   defective targeting sources);
//! * [`net`] — the TCP serving front-end: a framed wire protocol over
//!   `std::net`, the `ssa-server` binary wrapping a
//!   [`marketplace::Marketplace`], driven by `reproduce --server` (see
//!   "One scenario, one runner" below);
//! * [`durable`] — crash recovery: a checksummed write-ahead log of every
//!   control-plane mutation and serve, periodic snapshots, and
//!   bit-identical replay.
//!
//! ## Architecture: the `Marketplace` facade over the `WdSolver` pipeline
//!
//! The public serving surface is the [`marketplace::Marketplace`], the
//! one market type: a long-lived service owning registered advertisers,
//! the clock, an optional journal, and one book per keyword (campaigns,
//! persistent engine+solver, RNG stream). Shards are a
//! partition of those books that only `serve_batch` looks at. Below it, winner
//! determination is unified behind [`matching::WdSolver`]: each method (H,
//! RH, LP) is a solver struct with persistent scratch, constructed from a
//! [`core::WdMethod`] via `WdMethod::new_solver()`:
//!
//! ```text
//!                    marketplace::Marketplace
//!      register_advertiser / add_campaign        update_bid / pause /
//!      serve(QueryRequest) / serve_batch         set_roi_target
//!                 │ one persistent engine              │ the campaign
//!                 ▼ per keyword                        ▼ in its engine, O(1)
//!        core::engine (crate-private)  workload::Simulation (RHTALU only:
//!                                      the reference and Figs 12/13's column)
//!                    ┌──────┴────────┐
//!                 WdMethod::new_solver()
//!        ▲            ▲              ▲
//!  HungarianSolver ReducedSolver  NetworkSimplexSolver
//!  (method H)      (method RH)    (method LP, ssa_simplex)
//!        ▲            ▲              ▲
//!        └────────────┼──────────────┘
//!                ssa_matching::WdSolver
//!       solve(&mut self, &RevenueMatrix, &mut Assignment)
//! ```
//!
//! A keyword's engine reuses one solver and one weight source across every
//! auction on it — per-slot top lists on the default `rh` path, a revenue
//! matrix refilled in place for the methods that read whole columns (see
//! "Solver hot path" below) — so there is no per-auction matrix
//! allocation. [`marketplace::Marketplace::serve_batch`] splits a
//! multi-keyword query stream into same-keyword chunks and feeds each to
//! that keyword's persistent engine, so there is no per-query allocation
//! either.
//!
//! ## Scaling out: shards
//!
//! A configuration's `shards = N` (the builder's
//! [`marketplace::MarketplaceBuilder::build_sharded`]`(N)`) partitions the
//! marketplace's keywords over `N` shards by a stable hash
//! ([`sharded::shard_of_keyword`]); when a `serve_batch` stream touches
//! more than one shard, each shard's keyword books — campaigns, engines,
//! solver scratch — go to a [`std::thread::scope`] worker and the
//! per-chunk [`core::BatchReport`]s are merged in stream order. `serve`,
//! the control plane (`add_campaign`, `update_bid`, `pause_campaign`,
//! `set_roi_target` index the keyword's book directly: `O(1)`, no
//! cross-shard locking), state capture and the journal are the same code
//! at every shard count, and the builder's `build()` is
//! `build_sharded(1)`.
//!
//! Sharding is an execution strategy with a proven equivalence guarantee.
//! There is one RNG mode: every marketplace draws keyword `k`'s user
//! actions from its own stream seeded by
//! [`marketplace::keyword_stream_seed`]`(seed, k)`, so winners, clicks,
//! and charges are bit-identical for every shard count
//! (property-tested for shard counts 1/2/4/7 against a one-shard market
//! driven query by query). Pick `--shards` ≈ the
//! machine's core count when serving many keywords; stay on one shard for
//! cross-keyword-coupled bidding programs (e.g. the shared-state ROI
//! strategy), whose semantics depend on global event order. See
//! `examples/sharded_marketplace.rs` for a runnable tour.
//!
//! ## One scenario, one runner
//!
//! The paper's evaluation is one experiment, and every serving layer is a
//! dimension of it. `workload::Scenario` describes a single run, one field
//! per `reproduce` flag:
//!
//! | field | flag | |
//! |---|---|---|
//! | `population` | `--strategy`, `--targeted` | per-click, targeted, or programmed |
//! | `stream` | `--workload` | round-robin or a hostile shape |
//! | `transport` | `--server` | in process or over the wire |
//! | `drive` | `--connections`, `--verify`, `--skip`, `--shutdown` | over the wire: batched, a closed loop, or verified against a twin |
//! | `durability` | `--durable` | memory only or journalled + recovered |
//! | `shards` | `--shards` | worker shards |
//! | `method`, `pruned` | `--method`, `--pruned` | winner determination |
//! | `advertisers`, `auctions`, `warmup`, `seed` | `--quick`, `--advertisers`, `--load` | the `Scenario::quick()` / `full()` presets |
//!
//! `ssa_bench::run` is the one runner: it serves every `reproduce` run,
//! with bit-identical outcomes along every execution-strategy dimension;
//! what a layer cannot express (programs over the wire or under a
//! journal) is that layer's typed error. Figures 12 and 13 time LP / H /
//! RH on `workload::MarketSimulation` (shared-ROI programs on a one-shard
//! marketplace) and RHTALU on `workload::Simulation`, the reference the
//! equivalence tests (`tests/marketplace.rs`) hold the marketplace to.
//!
//! ## Quickstart: the `Marketplace` facade
//!
//! ```
//! use sponsored_search::marketplace::{CampaignSpec, Marketplace, QueryRequest};
//! use sponsored_search::bidlang::Money;
//!
//! let mut market = Marketplace::builder()
//!     .slots(2)
//!     .keywords(1)
//!     .seed(2008)
//!     .default_click_probs(vec![0.8, 0.4])
//!     .build()
//!     .expect("valid configuration");
//! let shoes = market.register_advertiser("shoes.example");
//! let books = market.register_advertiser("books.example");
//! let c = market
//!     .add_campaign(shoes, 0, CampaignSpec::per_click(Money::from_cents(20)))
//!     .expect("campaign accepted");
//! market
//!     .add_campaign(books, 0, CampaignSpec::per_click(Money::from_cents(10)))
//!     .expect("campaign accepted");
//!
//! let response = market.serve(QueryRequest::new(0)).expect("keyword 0 exists");
//! assert_eq!(response.placements.len(), 2);
//!
//! // Incremental updates rewrite the campaign and its bidder in place — no
//! // engine rebuild, O(1) per change.
//! market.update_bid(c, Money::from_cents(5)).expect("per-click campaign");
//! market.pause_campaign(c).expect("known campaign");
//! let response = market.serve(QueryRequest::new(0)).expect("keyword 0 exists");
//! assert_eq!(response.placements.len(), 1); // paused ads are never shown
//! ```
//!
//! ## SQL bidding programs (Section II-B)
//!
//! The paper's expressive core: advertisers submit *SQL bidding programs*
//! — schema, state, and triggers — and the provider runs them when
//! auctions begin. [`core::SqlProgram::compile`] compiles one once — the
//! embedded [`minidb`] engine parses both scripts, runs their DDL and
//! lowers every statement — and [`marketplace::CampaignSpec::sql_program`]
//! registers a first-class campaign of it, its initial state bound through
//! [`minidb::Params`] (no SQL text on the auction hot path).
//! Per auction the marketplace sets the shared `time`/`keyword`
//! variables, fires the program's `Query` trigger, submits its `Bids`
//! table, and (if the program declares an `Outcome` table) reports
//! settlement back through an outcome trigger — so strategies like
//! Figure 5's "Equalize ROI", bookkeeping included, live entirely in SQL.
//! A program that errors at auction time is excluded from the matching
//! rather than taking serving down ([`core::SqlProgramBidder`] keeps the
//! error for diagnosis).
//!
//! ```
//! use sponsored_search::core::SqlProgram;
//! use sponsored_search::marketplace::{CampaignSpec, Marketplace, QueryRequest};
//! use sponsored_search::minidb::Params;
//!
//! let mut market = Marketplace::builder()
//!     .slots(1)
//!     .default_click_probs(vec![0.5])
//!     .build()
//!     .expect("valid configuration");
//! let adv = market.register_advertiser("programmed.example");
//! // Compiled once; every campaign of the program shares it.
//! let program = SqlProgram::compile(
//!     "CREATE TABLE Query (kw INT);
//!      CREATE TABLE Bids (formula TEXT, value INT);
//!      INSERT INTO Bids VALUES ('Click', :start);",
//!     "CREATE TRIGGER bid AFTER INSERT ON Query
//!      { UPDATE Bids SET value = value + 1; }",
//! )
//! .expect("well-formed program");
//! let spec = CampaignSpec::sql_program(&program, &Params::new().bind("start", 10))
//!     .expect("the parameters fit the program");
//! market.add_campaign(adv, 0, spec).expect("campaign accepted");
//! let response = market.serve(QueryRequest::new(0)).expect("keyword 0 exists");
//! assert_eq!(response.placements.len(), 1); // bid 11¢ on the first auction
//! ```
//!
//! The Section II-B population runs at marketplace scale:
//! `ssa_workload::sql` builds every Section V advertiser as a
//! keyword-local Figure 5 ROI program — native Rust or SQL — and proves
//! the two populations bit-identical through `serve_batch`, sharded and
//! not (`reproduce --strategy <native|sql>` measures SQL programs on the
//! planned executor against their native twins; see
//! `examples/sql_campaign.rs` for a runnable tour).
//!
//! ## Query planning and compiled triggers
//!
//! Below the prepared-statement surface, [`minidb`] executes through an
//! explicit logical → physical plan split. A prepared statement or
//! trigger body is lowered once: columns become row offsets
//! and every predicate/SET/projection expression compiles to a flat
//! op-sequence evaluated without AST recursion. Equality-probed
//! `INT`/`TEXT` columns get secondary sorted-array indexes, built on
//! demand by a tiny planner that chooses index-lookup vs scan per
//! statement and maintained incrementally on every mutation (entries stay
//! sorted by key and row, so rows come back in scan order; NULLs are never
//! indexed, matching three-valued equality). A program is compiled once per
//! *program* ([`minidb::Template`]): its DDL runs once into one catalog
//! (tables, column names and types, variable names), and its statements
//! are lowered once against it, so the thousands of campaign databases
//! instantiated from it share its catalog, trigger bodies and plans, and
//! own only their rows, variables and indexes. There is no process-wide
//! state. Owners — prepared statements and trigger bodies — memoise their
//! planned script, which holds the catalog it was lowered at, and compare
//! one pointer per execution; DDL gives a database a catalog of its own
//! and transparently replans for it alone.
//!
//! Planned + indexed + compiled execution is the one SQL executor the
//! library ships, held to an equivalence guarantee: it is bit-identical to
//! a tree-walking interpreter that scans every table, which is compiled
//! only into minidb's own test build, where a proptest equivalence suite
//! calls it by name as the oracle. The `native|sql` Section V workload
//! check holds the SQL population to its native twin, bit for bit.
//! The planner's choices are watched through its counters
//! ([`minidb::Database::planner_stats`]: `index_hits`, `rows_scanned`,
//! `plans_cached`), which flow through `reproduce --strategy sql --json`
//! so CI tracks whether the index path actually served.
//!
//! ## Batched serving (`serve_batch`)
//!
//! On the hot path, hand the market a whole query stream: one solver and
//! one weight source per keyword serve every auction, and the aggregate
//! comes back as a [`core::BatchReport`]:
//!
//! ```
//! use sponsored_search::core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
//! use sponsored_search::bidlang::Money;
//!
//! let mut market = Marketplace::builder()
//!     .slots(2)
//!     .keywords(1)
//!     .seed(1)
//!     .build()
//!     .expect("valid configuration");
//! let shop = market.register_advertiser("shop.example");
//! for (cents, probs) in [(10, vec![0.8, 0.4]), (20, vec![0.6, 0.3])] {
//!     let spec = CampaignSpec::per_click(Money::from_cents(cents)).click_probs(probs);
//!     market.add_campaign(shop, 0, spec).expect("campaign accepted");
//! }
//! let queries = vec![QueryRequest::new(0); 500];
//! let report = market.serve_batch(&queries).expect("keyword 0 exists").total;
//! assert_eq!(report.auctions, 500);
//! assert_eq!(market.now(), 500); // the clock advances per auction
//! assert!(report.expected_revenue > 0.0);
//! ```
//!
//! ## Solver hot path: phase metrics, pruning, warm starts
//!
//! The batch loop is instrumented and optimised around one invariant:
//! **every fast path is bit-identical to the full cold solve**.
//!
//! * **Phase metrics** — every [`core::BatchReport`] carries a
//!   [`core::PhaseStats`]: nanoseconds spent in program evaluation,
//!   matrix fill, the solve itself, pricing, and settlement, plus solve /
//!   warm-solve / candidate counters and the exact `cells_evaluated` /
//!   `rescans` cost counters. Shards absorb their workers' stats,
//!   and `reproduce --json` (and the text mode's `phases:` line) surface
//!   them so a regression names the phase that slowed down. Timings are
//!   excluded from report equality — two runs compare on outcomes.
//! * **Top-k pruning** ([`marketplace::MarketplaceBuilder::pruned`],
//!   `EngineConfig::pruned`) — [`matching::PrunedSolver`] wraps a dense
//!   solver (`h`, `lp`, or any method under VCG; `rh` under GSP or
//!   pay-your-bid already solves on its lists' top-k union and ignores
//!   the flag): with `k` slots, only advertisers reaching a per-slot top-k
//!   floor can win, so it solves the candidate submatrix instead of all
//!   `n` rows. Ties at the floor are kept, candidate reindexing is
//!   monotone, and duplicate candidate rows force a full-matrix fallback
//!   (a dominated row's augmenting pass can re-route *tied* winners), so
//!   outcomes are bit-identical — property-tested across all four
//!   methods, sharded and not.
//! * **Standing vs. evaluated campaigns** — a per-click or fixed-table
//!   campaign is *standing*: read — never asked — and its table held
//!   nowhere but in the campaign. The engine holds a table only for SQL
//!   and closure *programs* ([`core::Bidder`]) and targeted campaigns, the
//!   rows it evaluates at every auction; only programs are told outcomes.
//!   Every marketplace update reaches a campaign through the one mutable
//!   accessor of its keyword engine, which keeps a standing table from
//!   before its first write, so a write that leaves it equal dirties
//!   nothing.
//! * **Warm starts** (`EngineConfig::warm_start`, default on) — the
//!   engine recomputes only the weights of rows whose table changed, and
//!   skips the solve entirely when none did; solvers are deterministic, so
//!   the previous assignment *is* the solution. With warm starts off,
//!   every auction recomputes every weight and solves.
//! * **Solve and price from per-slot order** — with method `rh` under GSP
//!   or pay-your-bid (the default, pruned or not) the engine holds no
//!   `n × k` revenue matrix. It keeps a
//!   [`matching::RetainedOrder`]: per slot, the best `k + 1` to `2(k + 1)`
//!   rows in the solver's ranking and a floor no unlisted row ranks above,
//!   repaired from the rows whose table changed (one row formula,
//!   `ssa_core::revenue::row_weights_into`, shared with the dense fill).
//!   The reduced graph is the union of the lists' top `k`, solved by
//!   [`matching::ReducedSolver::solve_candidates`]; GSP reads each slot's
//!   runner-up off its list, and who is seated off a 2-byte slot index per
//!   row. Outcomes are bit-identical to solving and pricing on the dense
//!   matrix, which [`core::revenue_matrix`],
//!   `ReducedSolver::solve` and `gsp_prices` remain the oracles for. When
//!   a list with unlisted rows behind it drops below `k + 1`, the order is
//!   rebuilt from every row — a *rescan*, `n × k` weight evaluations,
//!   counted with every other evaluated cell in
//!   [`core::PhaseStats`]`::{cells_evaluated, rescans}`; at least `k + 1`
//!   writes must each take a row off one list between two rescans. `h`,
//!   `lp` and VCG read whole columns and keep the dense matrix, allocated
//!   only in an engine built with one of them. An engine's configuration
//!   is fixed at construction; a market changes it only through the
//!   journalled `Configure` ([`marketplace::Marketplace::configure`]),
//!   which rebuilds the market.
//! * **One copy of what campaigns share** — a keyword's engine holds a
//!   click row id and a [`core::PurchaseModel`] row per campaign, grown a
//!   row at a time from its first `add_campaign` (a campaign appends to a
//!   warm engine rather than rebuilding it). A campaign is one record —
//!   the engine's bidder is the campaign — so nothing about it is stored
//!   twice; state capture reads the engine, and a campaign that never
//!   purchases stores no purchase row (captured as explicit zeros, so
//!   snapshots do not change). Click rows live once each in the market's
//!   flat click table, named by 4-byte ids: an
//!   advertiser's campaigns whose rows are bit for bit equal share one
//!   across keywords (and across snapshot and journal replay), a
//!   targeting text is compiled once per market, and a one-row
//!   [`bidlang::BidsTable`] is stored inline. A per-click campaign at 15
//!   slots holds 54.6 B of the market's ledger (70.6 B with a 32-byte
//!   record, 87.0 B while rows were `Arc`s); one whose row differs on
//!   every keyword, 162.6 B.
//! * **Slot-major matrix layout** — [`matching::RevenueMatrix`] stores
//!   `data[slot * n + adv]`, so the per-slot column scans of the solvers
//!   (and the pruning floor pass) walk contiguous memory.
//!
//! `reproduce --method h --quick --pruned --json` runs the paired
//! configuration CI tracks: identical outcome fields, smaller
//! `avg_candidates`, and a shrunken `solve_ms`.
//!
//! ## Serving over the network: `ssa_net`
//!
//! [`net`] puts the sharded marketplace behind a TCP socket with nothing
//! but `std::net` — no async runtime. Messages travel in length-prefixed
//! frames (`[len][version][kind][request_id][payload]`, little-endian,
//! capped at [`net::MAX_FRAME`]) whose payloads encode a typed
//! [`net::Request`]/[`net::Response`] pair; malformed input — truncated
//! frames, oversized length prefixes, unknown tags — comes back as a
//! typed [`net::ProtoError`], never a panic or an unbounded allocation.
//!
//! A market operation is spelled once: [`core::MutationRecord`], with one
//! byte codec on [`core::codec`] and one executor and journalling point,
//! [`core::Marketplace::apply`]. An operation-carrying [`net::Request`]'s
//! payload *is* that operation's body — byte for byte what the
//! write-ahead log stores after `len ++ crc ++ seq` — so the wire and the
//! log are two envelopes around one body, the server executes requests
//! with the `apply` recovery replays with, and a `Configure` is journalled
//! like any other operation. `Request` stays the wire-facing enum (nine
//! operations plus `Ping`, `TopBids`, `Stats`, `Shutdown`), joined to
//! `MutationRecord` by one mechanical `TryFrom`/`From` pair; adding a
//! field to `Serve` touches `MutationRecord::Serve` and its codec arms,
//! its arm in `Marketplace::apply`, and `Request::Serve` with its two
//! bridge arms — nothing else.
//!
//! The server ([`net::Server`], shipped as the `ssa-server` binary) keeps
//! the marketplace behind one lock, run a tick at a time by an executor
//! thread; a connection's reader runs an idle session's control request
//! itself, and everything else — every data-plane request included — queues
//! for the executor. Readers decode and *admit* requests through bounded
//! per-shard admission lanes ([`net::Admission`]), so a flood of data-plane
//! traffic degrades into typed `Overloaded { retry_after_ms }` responses
//! instead of unbounded queueing. Control-plane calls (campaign
//! registration, bid updates, pause/resume, ROI targets, stats) bypass the
//! data-plane lanes. Graceful shutdown drains every in-flight request
//! before the socket closes. The serving contract is the same equivalence
//! guarantee the sharded marketplace proves in-process: a seeded Section V
//! stream served over the wire is **bit-identical** to `serve_batch` in
//! process, at any shard count (`reproduce --server <addr> --verify` checks
//! exactly this, query by query and then each keyword's top bids).
//!
//! ```text
//! cargo run --release --bin ssa-server -- --addr 127.0.0.1:7878
//! cargo run --release --bin reproduce -- --method rh --quick \
//!     --server 127.0.0.1:7878 --connections 4 --json   # p50/p99/max latency
//! ```
//!
//! The server starts from the default one-slot, one-keyword market; the
//! client's `Configure` (which `reproduce --server` sends first) sets the
//! market's shape.
//!
//! See `examples/net_quickstart.rs` for the client API end to end.
//!
//! ## Durability: write-ahead log + snapshot recovery
//!
//! [`durable`] makes a served marketplace survive crashes. The key
//! observation is that serving is already deterministic — clicks,
//! purchases, and charges are drawn from seeded per-keyword RNG streams —
//! so the journal records *operations*, not outcomes, and replay
//! re-derives every outcome (and every RNG position) bit-identically.
//!
//! A data directory holds two kinds of files:
//!
//! ```text
//! data/
//! ├── snapshot-00000000000000004096.snap   # compacted log through seq 4096
//! └── wal-00000000000000004097.log         # every operation since
//!
//! segment  = [magic "SSAWAL\0\0"][version u32][first_seq u64]  (20 bytes)
//!            followed by records:
//! record   = [payload_len u32][crc32 u32][payload]
//! payload  = [seq u64][op body: Configure | Register | AddCampaign |
//!                               UpdateBid | Pause | Resume | SetRoi |
//!                               Serve | ServeBatch]
//! ```
//!
//! The op body is [`core::MutationRecord::encode_into`]'s output, the same
//! bytes a request frame carries for that operation. Every control-plane
//! mutation and every serve appends one checksummed
//! record ([`durable::Durability::journal`] plugs into
//! [`marketplace::Marketplace::set_journal`]). A crash can tear at
//! most the final record; recovery ([`durable::recover`]) truncates the
//! torn tail, replays snapshot ∘ log, and returns a marketplace whose
//! stored bids, top-bid books, and *future auction outcomes* are
//! bit-identical to the pre-crash instance — property-tested across
//! every byte-level truncation point and shard counts 1/2/4. Floats
//! travel as raw IEEE-754 bits end to end, so "bit-identical" is meant
//! literally.
//!
//! Records reach the log in commit groups: every record is its own group
//! for an in-process market ([`durable::Durability::journal`]), while the
//! server stages a record per operation as its executor runs a tick of
//! queued requests and commits them together before any of the tick's
//! replies is sent ([`durable::Durability::group_journal`],
//! [`durable::Durability::commit`]). Two fsync policies say what a commit
//! does ([`durable::FsyncPolicy`]): `Off` (default) writes the group to the
//! OS page cache — it survives process kills (`kill -9`) but not power
//! loss; `Always` also issues one `fdatasync` per group, plus directory
//! syncs on rotation — it survives power loss, and an acknowledgement
//! always waits for an `fdatasync` covering its record (shared with the
//! requests in flight beside it; unacknowledged tail records may be lost
//! or recovered). Periodic
//! snapshots ([`durable::Durability::maybe_snapshot`]) bound replay time
//! and compact the log: after a snapshot lands, older segments and
//! snapshots are deleted.
//!
//! `ssa-server --data-dir <dir>` wires this into the TCP front-end
//! (`--fsync always|off`, `--snapshot-every <n>`); on boot it prints a
//! `ssa-server recovered wal_records=… snapshot_bytes=… replay_ms=…`
//! line that the crash-recovery CI job asserts on, and `reproduce --server
//! <addr> --verify --skip <n>` replays a workload's tail against the
//! recovered server to prove the restart lost nothing. See
//! `examples/durable_restart.rs` for the library-level loop.
//!
//! ## Targeting and workload shapes
//!
//! Queries carry an optional bag of typed user attributes
//! ([`core::UserAttrs`]: the conventional `geo`/`device`/`segment` keys
//! plus arbitrary string/integer customs), and a campaign may attach a
//! *targeting expression* over them
//! ([`marketplace::CampaignSpec::targeting`]):
//!
//! ```text
//! geo = 'us' and (device = 'mobile' or segment in ('sports', 'autos'))
//!     and not age < 21
//! ```
//!
//! The source parses once at registration, on bid formulas' own
//! depth-bounded descent ([`bidlang::parser`]), into a
//! [`bidlang::targeting::TargetExpr`] AST and compiles to a postfix
//! bytecode program ([`bidlang::targeting::CompiledTargeting`]); the
//! serve hot path runs a fixed-stack bytecode loop — no allocation, no
//! recursion, no re-parsing per auction. Registration does not recurse
//! per link of a flat `and`/`or` chain either, so a chain of any length
//! that fits a frame cannot overflow a server's executor stack. A
//! campaign whose expression rejects the query's attributes is excluded
//! from the matching (a zero-revenue row the reduced method then drops,
//! visible as a smaller `avg_candidates`). Three guarantees hold:
//!
//! * **Untargeted markets ignore attributes bit-for-bit** — serving any
//!   attribute bag to a market with no targeting anywhere is
//!   bit-identical to serving the bare keyword, at every shard count,
//!   over the wire, and after WAL recovery (property-tested in
//!   `tests/targeting.rs`).
//! * **Hostile sources fail typed** — defective expressions (unbalanced
//!   parens, depth bombs, type confusion) are rejected at registration
//!   with a [`bidlang::ParseError`] in
//!   [`marketplace::MarketError::InvalidTargeting`] in process and
//!   [`net::ErrorCode::InvalidTargeting`] over the wire, leaving the
//!   market untouched.
//! * **Missing means no** — an absent attribute fails every comparison
//!   on its key, `!=` included; ordered comparisons hold only between
//!   two integers.
//!
//! ```
//! use sponsored_search::marketplace::{CampaignSpec, Marketplace, QueryRequest};
//! use sponsored_search::core::UserAttrs;
//! use sponsored_search::bidlang::Money;
//!
//! let mut market = Marketplace::builder()
//!     .slots(1)
//!     .default_click_probs(vec![0.5])
//!     .build()
//!     .expect("valid configuration");
//! let adv = market.register_advertiser("mobile-first.example");
//! market
//!     .add_campaign(
//!         adv,
//!         0,
//!         CampaignSpec::per_click(Money::from_cents(20)).targeting("device = 'mobile'"),
//!     )
//!     .expect("well-formed targeting");
//! let mobile = market
//!     .serve(QueryRequest::with_attrs(0, UserAttrs::new().device("mobile")))
//!     .expect("keyword 0 exists");
//! assert_eq!(mobile.placements.len(), 1);
//! let desktop = market
//!     .serve(QueryRequest::with_attrs(0, UserAttrs::new().device("desktop")))
//!     .expect("keyword 0 exists");
//! assert!(desktop.placements.is_empty()); // targeting excluded the only campaign
//! ```
//!
//! The data-plane counterpart is the hostile-world workload generator
//! ([`workload::WorkloadShape`]): seeded, reproducible query streams
//! that are deliberately unkind to a sharded serving layer — `zipf:<s>`
//! (Zipf-skewed keyword popularity), `flash` (a flash crowd pinning the
//! middle half of the stream to one keyword, hence one shard), `churn`
//! (pauses, resumes, and re-bids interleaved with serving), with
//! `uniform` as the paper's baseline under the same flag.
//! [`workload::ShardSkew`] summarises how unevenly a stream routes
//! across a shard count (per-shard queue depths, p50/p99,
//! max-over-mean), and [`workload::defective_targeting_sources`]
//! generates the targeting attack corpus above. The harnesses expose
//! all of it:
//!
//! ```text
//! reproduce --workload zipf:1.1 --shards 4 --json   # per-shard skew in the JSON row
//! reproduce --targeted --shards 2 --json            # candidate drop under targeting
//! reproduce --workload zipf:1.1 --server <host:port>  # the same shapes over the wire
//! ```
//!
//! CI's perf-smoke job tracks both rows on every push. See
//! `examples/targeted_campaign.rs` for a runnable tour.

#![forbid(unsafe_code)]

pub use ssa_bidlang as bidlang;
pub use ssa_core as core;
/// The `Marketplace` service facade, re-exported from [`core`] for
/// discoverability: `sponsored_search::marketplace::Marketplace` is the
/// recommended entry point.
pub use ssa_core::marketplace;
/// Shard routing, re-exported from [`core`]: the stable keyword → shard
/// hash, `--shards` parsing, and `ShardedMarketplace`, the alias
/// [`marketplace::Marketplace`] keeps for code written when a sharded
/// market was a second type.
pub use ssa_core::sharded;
/// Crash recovery: the write-ahead log, snapshots, and `recover` — see
/// the "Durability" section above.
pub use ssa_durable as durable;
pub use ssa_matching as matching;
pub use ssa_minidb as minidb;
/// The TCP serving front-end: framed wire protocol, `Server`/`Client`,
/// and bounded admission.
pub use ssa_net as net;
pub use ssa_simplex as simplex;
pub use ssa_strategy as strategy;
pub use ssa_workload as workload;
