//! Typed wire messages and their binary payload encoding.
//!
//! The protocol splits a **data plane** ([`Request::Serve`],
//! [`Request::ServeBatch`]) from a **control plane** (advertiser and
//! campaign management, [`Request::Stats`], [`Request::Configure`]): data
//! requests pass through bounded per-shard admission
//! ([`crate::admission`]) and may be refused with
//! [`Response::Overloaded`], while control requests always queue.
//!
//! # One operation body, two envelopes
//!
//! Nine of [`Request`]'s variants carry a market operation. They are the
//! wire-facing spelling of [`ssa_core::MutationRecord`], joined to it by one mechanical bridge —
//! `TryFrom<Request> for MutationRecord` and `From<MutationRecord> for
//! Request` — and they encode and decode *through* the operation codec:
//! the payload of such a request is byte for byte the body the
//! write-ahead log stores after `len ++ crc ++ seq` for the same
//! operation, and the server executes it with the same
//! [`ssa_core::journal::apply`] recovery replays with. The four remaining
//! requests ([`Request::Ping`], [`Request::TopBids`], [`Request::Stats`],
//! [`Request::Shutdown`]) read or steer the server, are never journalled,
//! and take the tags after the operations'. Adding a field to an
//! operation touches the `MutationRecord` variant and its codec and
//! `apply` arms in `ssa_core::journal`, then the `Request` variant and its
//! two bridge arms here — nothing else.
//!
//! Payloads use [`ssa_core::codec`]: fixed-width little-endian integers,
//! `f64` via [`f64::to_bits`] (so expected-revenue values survive the wire
//! *bit-exactly* — the server↔in-process equivalence tests depend on it),
//! `u32`-length-prefixed UTF-8 strings, and `u32`-counted vectors. Every
//! decode error is a typed [`ProtoError`]; hostile payloads (truncated,
//! trailing garbage, absurd counts) must never panic or over-allocate —
//! claimed element counts are validated against the bytes actually present
//! before any buffer is reserved.

use ssa_bidlang::{Money, SlotId};
use ssa_core::codec::{put_bool, put_f64, put_i64, put_string, put_u16, put_u32, put_u64, Reader};
use ssa_core::marketplace::{
    AdvertiserHandle, AuctionResponse, CampaignId, MarketBatchReport, MarketError, Placement,
};
use ssa_core::{MutationRecord, Reply, UserAttrs};

/// Typed payload decode failure: the workspace's one [`CodecError`],
/// under the name this layer has always exported.
///
/// [`CodecError`]: ssa_core::CodecError
pub use ssa_core::CodecError as ProtoError;

/// Marketplace configuration carried by [`Request::Configure`]: the server
/// tears down its marketplace and rebuilds it to this shape, so a client
/// (the load driver, the equivalence tests) fully controls the market it
/// measures. The same type the write-ahead log and snapshots record.
pub use ssa_core::MarketConfigState as MarketConfig;

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness + session probe; answered with [`Response::Pong`].
    Ping,
    /// Data plane: run one auction on a keyword.
    Serve {
        /// Keyword index.
        keyword: u64,
        /// Typed user attributes the query carries (empty when the client
        /// has none — the common case; targeting then sees no match for
        /// any comparison).
        attrs: UserAttrs,
    },
    /// Data plane: run a mixed-keyword query stream through
    /// [`ssa_core::Marketplace::serve_batch`].
    ServeBatch {
        /// One `(keyword, user attributes)` pair per query, in stream
        /// order.
        queries: Vec<(u64, UserAttrs)>,
    },
    /// Control plane: register an advertiser.
    RegisterAdvertiser {
        /// Display name.
        name: String,
    },
    /// Control plane: open a per-click campaign.
    AddCampaign {
        /// Advertiser handle index (from
        /// [`Response::AdvertiserRegistered`]).
        advertiser: u64,
        /// Keyword the campaign bids on.
        keyword: u64,
        /// Initial bid, in cents.
        bid_cents: i64,
        /// Value the advertiser attaches to a click, in cents.
        click_value_cents: i64,
        /// Optional ROI target (Section II-C).
        roi_target: Option<f64>,
        /// Optional per-slot click probabilities.
        click_probs: Option<Vec<f64>>,
        /// Optional per-slot purchase probabilities
        /// `(p | click, p | no click)`.
        purchase_probs: Option<Vec<(f64, f64)>>,
        /// Optional targeting expression source; the server parses and
        /// compiles it at registration and answers
        /// [`ErrorCode::InvalidTargeting`] if it is malformed or too deep.
        targeting: Option<String>,
    },
    /// Control plane: set a per-click campaign's bid.
    UpdateBid {
        /// Campaign keyword coordinate.
        keyword: u64,
        /// Campaign index coordinate.
        index: u64,
        /// New bid, in cents.
        bid_cents: i64,
    },
    /// Control plane: pause a campaign.
    PauseCampaign {
        /// Campaign keyword coordinate.
        keyword: u64,
        /// Campaign index coordinate.
        index: u64,
    },
    /// Control plane: resume a paused campaign.
    ResumeCampaign {
        /// Campaign keyword coordinate.
        keyword: u64,
        /// Campaign index coordinate.
        index: u64,
    },
    /// Control plane: set or clear a per-click campaign's ROI target.
    SetRoiTarget {
        /// Campaign keyword coordinate.
        keyword: u64,
        /// Campaign index coordinate.
        index: u64,
        /// `None` clears the target.
        target: Option<f64>,
    },
    /// Control plane: the highest effective bids on a keyword.
    TopBids {
        /// Keyword index.
        keyword: u64,
        /// Maximum entries to return.
        limit: u64,
    },
    /// Control plane: server + marketplace counters.
    Stats,
    /// Control plane: rebuild the marketplace to a new configuration.
    Configure(MarketConfig),
    /// Ask the server to shut down gracefully (drain, then exit).
    Shutdown,
}

impl Request {
    /// Whether the request runs auctions (and therefore passes through
    /// bounded admission) rather than managing state.
    pub fn is_data_plane(&self) -> bool {
        matches!(self, Request::Serve { .. } | Request::ServeBatch { .. })
    }

    /// Encodes the request into a frame payload: an operation-carrying
    /// request is its [`MutationRecord`] body, a wire-only one its tag and
    /// fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Ping => buf.push(TAG_PING),
            Request::TopBids { keyword, limit } => {
                buf.push(TAG_TOP_BIDS);
                put_u64(&mut buf, *keyword);
                put_u64(&mut buf, *limit);
            }
            Request::Stats => buf.push(TAG_STATS),
            Request::Shutdown => buf.push(TAG_SHUTDOWN),
            // The clone is the price of the flat enum: the operation codec
            // encodes a `MutationRecord`, and `self` is only borrowed. The
            // four wire-only requests are matched above.
            #[allow(clippy::expect_used)]
            op => MutationRecord::try_from(op.clone())
                .expect("every other request carries an operation")
                .encode_into(&mut buf),
        }
        buf
    }

    /// Decodes a request from a frame payload; the whole payload must be
    /// consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload.get(1..).unwrap_or_default());
        let request = match payload.first() {
            Some(&TAG_PING) => Request::Ping,
            Some(&TAG_TOP_BIDS) => Request::TopBids {
                keyword: r.u64("keyword")?,
                limit: r.u64("limit")?,
            },
            Some(&TAG_STATS) => Request::Stats,
            Some(&TAG_SHUTDOWN) => Request::Shutdown,
            _ => return MutationRecord::decode(payload).map(Request::from),
        };
        r.finish()?;
        Ok(request)
    }
}

// Wire-only request tags. They share one tag space with the operations
// (0–8, `ssa_core::journal`), so a new operation's tag must skip these.
const TAG_PING: u8 = 9;
const TAG_TOP_BIDS: u8 = 10;
const TAG_STATS: u8 = 11;
const TAG_SHUTDOWN: u8 = 12;

/// The bridge, wire-facing → execution-facing: mechanical, field for
/// field, every field moved. `Err` hands back exactly the four wire-only
/// requests, which carry no operation.
impl TryFrom<Request> for MutationRecord {
    type Error = Request;

    fn try_from(request: Request) -> Result<Self, Request> {
        Ok(match request {
            Request::Configure(config) => MutationRecord::Configure(config),
            Request::RegisterAdvertiser { name } => MutationRecord::RegisterAdvertiser { name },
            Request::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                roi_target,
                click_probs,
                purchase_probs,
                targeting,
            } => MutationRecord::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                roi_target,
                click_probs,
                purchase_probs,
                targeting,
            },
            Request::UpdateBid {
                keyword,
                index,
                bid_cents,
            } => MutationRecord::UpdateBid {
                keyword,
                index,
                bid_cents,
            },
            Request::PauseCampaign { keyword, index } => {
                MutationRecord::PauseCampaign { keyword, index }
            }
            Request::ResumeCampaign { keyword, index } => {
                MutationRecord::ResumeCampaign { keyword, index }
            }
            Request::SetRoiTarget {
                keyword,
                index,
                target,
            } => MutationRecord::SetRoiTarget {
                keyword,
                index,
                target,
            },
            Request::Serve { keyword, attrs } => MutationRecord::Serve { keyword, attrs },
            Request::ServeBatch { queries } => MutationRecord::ServeBatch { queries },
            wire_only @ (Request::Ping
            | Request::TopBids { .. }
            | Request::Stats
            | Request::Shutdown) => return Err(wire_only),
        })
    }
}

/// The bridge back, execution-facing → wire-facing: what a decoded
/// operation body becomes.
impl From<MutationRecord> for Request {
    fn from(op: MutationRecord) -> Self {
        match op {
            MutationRecord::Configure(config) => Request::Configure(config),
            MutationRecord::RegisterAdvertiser { name } => Request::RegisterAdvertiser { name },
            MutationRecord::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                roi_target,
                click_probs,
                purchase_probs,
                targeting,
            } => Request::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                roi_target,
                click_probs,
                purchase_probs,
                targeting,
            },
            MutationRecord::UpdateBid {
                keyword,
                index,
                bid_cents,
            } => Request::UpdateBid {
                keyword,
                index,
                bid_cents,
            },
            MutationRecord::PauseCampaign { keyword, index } => {
                Request::PauseCampaign { keyword, index }
            }
            MutationRecord::ResumeCampaign { keyword, index } => {
                Request::ResumeCampaign { keyword, index }
            }
            MutationRecord::SetRoiTarget {
                keyword,
                index,
                target,
            } => Request::SetRoiTarget {
                keyword,
                index,
                target,
            },
            MutationRecord::Serve { keyword, attrs } => Request::Serve { keyword, attrs },
            MutationRecord::ServeBatch { queries } => Request::ServeBatch { queries },
        }
    }
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// One placement inside a [`WireAuction`]: slot, winner, user actions,
/// charge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePlacement {
    /// 1-based slot position.
    pub slot_position: u16,
    /// Winning campaign's keyword coordinate.
    pub campaign_keyword: u64,
    /// Winning campaign's index coordinate.
    pub campaign_index: u64,
    /// Owning advertiser's handle index.
    pub advertiser: u64,
    /// Whether the user clicked.
    pub clicked: bool,
    /// Whether the user purchased.
    pub purchased: bool,
    /// Charge, in cents.
    pub charge_cents: i64,
}

/// Wire form of [`AuctionResponse`]: the complete outcome of one auction,
/// convertible back to the in-process type without loss (the conversion
/// round-trip is what the equivalence tests compare bit-for-bit).
#[derive(Debug, Clone, PartialEq)]
pub struct WireAuction {
    /// The queried keyword.
    pub keyword: u64,
    /// Global market clock value of the auction (1-based).
    pub time: u64,
    /// Expected revenue of the winning allocation (bit-exact over the
    /// wire).
    pub expected_revenue: f64,
    /// Realised revenue, in cents.
    pub realized_cents: i64,
    /// Ads shown, in slot order.
    pub placements: Vec<WirePlacement>,
    /// Every charge of the auction as `(keyword, index, cents)`.
    pub charges: Vec<(u64, u64, i64)>,
}

impl From<&AuctionResponse> for WireAuction {
    fn from(a: &AuctionResponse) -> Self {
        WireAuction {
            keyword: a.keyword as u64,
            time: a.time,
            expected_revenue: a.expected_revenue,
            realized_cents: a.realized_revenue.cents(),
            placements: a
                .placements
                .iter()
                .map(|p| WirePlacement {
                    slot_position: p.slot.position(),
                    campaign_keyword: p.campaign.keyword() as u64,
                    campaign_index: p.campaign.index() as u64,
                    advertiser: p.advertiser.index() as u64,
                    clicked: p.clicked,
                    purchased: p.purchased,
                    charge_cents: p.charge.cents(),
                })
                .collect(),
            charges: a
                .charges
                .iter()
                .map(|(id, m)| (id.keyword() as u64, id.index() as u64, m.cents()))
                .collect(),
        }
    }
}

impl WireAuction {
    /// Rebuilds the in-process [`AuctionResponse`] this wire auction
    /// describes.
    pub fn to_response(&self) -> AuctionResponse {
        AuctionResponse {
            keyword: self.keyword as usize,
            time: self.time,
            expected_revenue: self.expected_revenue,
            realized_revenue: Money::from_cents(self.realized_cents),
            placements: self
                .placements
                .iter()
                .map(|p| Placement {
                    slot: SlotId::new(p.slot_position),
                    campaign: CampaignId::from_parts(
                        p.campaign_keyword as usize,
                        p.campaign_index as usize,
                    ),
                    advertiser: AdvertiserHandle::from_index(p.advertiser as usize),
                    clicked: p.clicked,
                    purchased: p.purchased,
                    charge: Money::from_cents(p.charge_cents),
                })
                .collect(),
            charges: self
                .charges
                .iter()
                .map(|&(kw, idx, cents)| {
                    (
                        CampaignId::from_parts(kw as usize, idx as usize),
                        Money::from_cents(cents),
                    )
                })
                .collect(),
        }
    }
}

/// Aggregate outcome of a [`Request::ServeBatch`]: the outcome fields of a
/// [`MarketBatchReport`] total (the fields its `PartialEq` compares),
/// without the per-keyword breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchSummary {
    /// Auctions run.
    pub auctions: u64,
    /// Sum of winner-determination objectives (bit-exact over the wire).
    pub expected_revenue: f64,
    /// Slots that received an advertiser.
    pub filled_slots: u64,
    /// Realised clicks.
    pub clicks: u64,
    /// Realised purchases.
    pub purchases: u64,
    /// Realised revenue, in cents.
    pub realized_cents: i64,
    /// Same-keyword chunks the stream was split into.
    pub chunks: u64,
}

impl BatchSummary {
    /// Summarises a full in-process batch report.
    pub fn from_report(report: &MarketBatchReport) -> Self {
        BatchSummary {
            auctions: report.total.auctions,
            expected_revenue: report.total.expected_revenue,
            filled_slots: report.total.filled_slots,
            clicks: report.total.clicks,
            purchases: report.total.purchases,
            realized_cents: report.total.realized_revenue.cents(),
            chunks: report.chunks,
        }
    }

    /// Folds another summary in (used when a long stream is shipped as
    /// several `ServeBatch` frames). Floating-point summation order
    /// matches the in-process `BatchReport::absorb` chain, keeping the
    /// aggregate bit-exact.
    pub fn absorb(&mut self, other: &BatchSummary) {
        self.auctions += other.auctions;
        self.expected_revenue += other.expected_revenue;
        self.filled_slots += other.filled_slots;
        self.clicks += other.clicks;
        self.purchases += other.purchases;
        self.realized_cents += other.realized_cents;
        self.chunks += other.chunks;
    }
}

/// Server + marketplace counters returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Registered advertisers.
    pub advertisers: u64,
    /// Campaigns across all keywords.
    pub campaigns: u64,
    /// Keyword universe size.
    pub keywords: u64,
    /// Slots per results page.
    pub slots: u64,
    /// Shards the marketplace runs.
    pub shards: u64,
    /// Total auctions served (the market clock).
    pub auctions: u64,
    /// Sessions ever accepted.
    pub sessions: u64,
    /// Requests executed (admitted and run, any plane).
    pub requests: u64,
    /// Data-plane requests refused with [`Response::Overloaded`].
    pub overloaded: u64,
    /// Records appended to the write-ahead log over its lifetime (0 when
    /// the server runs without durability).
    pub wal_records: u64,
    /// WAL sequence number the newest snapshot covers through (0 when no
    /// snapshot exists or durability is off).
    pub snapshot_seq: u64,
}

/// Machine-readable failure category carried by [`Response::Failed`];
/// mirrors [`MarketError`] plus server-side conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// No such advertiser handle.
    UnknownAdvertiser,
    /// Keyword outside the configured universe.
    UnknownKeyword,
    /// No such campaign.
    UnknownCampaign,
    /// Per-slot model length mismatch.
    ModelDimension,
    /// Probability outside `[0, 1]`.
    InvalidProbability,
    /// No click model available for the campaign.
    MissingClickModel,
    /// The campaign is not per-click incremental.
    NotIncremental,
    /// Negative bid.
    NegativeBid,
    /// Non-finite or non-positive ROI target.
    InvalidRoiTarget,
    /// Configuration rejected (zero slots/keywords/shards or equivalent).
    InvalidConfig,
    /// The server is draining and no longer accepts this request.
    ShuttingDown,
    /// The request is valid but this server does not support it.
    Unsupported,
    /// A campaign's targeting expression failed to parse or exceeded the
    /// nesting-depth limit.
    InvalidTargeting,
    /// The server's write-ahead log failed: the operation was not made
    /// durable and is not acknowledged, and the server is shutting down.
    StorageFailed,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::UnknownAdvertiser => 0,
            ErrorCode::UnknownKeyword => 1,
            ErrorCode::UnknownCampaign => 2,
            ErrorCode::ModelDimension => 3,
            ErrorCode::InvalidProbability => 4,
            ErrorCode::MissingClickModel => 5,
            ErrorCode::NotIncremental => 6,
            ErrorCode::NegativeBid => 7,
            ErrorCode::InvalidRoiTarget => 8,
            ErrorCode::InvalidConfig => 9,
            ErrorCode::ShuttingDown => 10,
            ErrorCode::Unsupported => 11,
            ErrorCode::InvalidTargeting => 12,
            ErrorCode::StorageFailed => 13,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => ErrorCode::UnknownAdvertiser,
            1 => ErrorCode::UnknownKeyword,
            2 => ErrorCode::UnknownCampaign,
            3 => ErrorCode::ModelDimension,
            4 => ErrorCode::InvalidProbability,
            5 => ErrorCode::MissingClickModel,
            6 => ErrorCode::NotIncremental,
            7 => ErrorCode::NegativeBid,
            8 => ErrorCode::InvalidRoiTarget,
            9 => ErrorCode::InvalidConfig,
            10 => ErrorCode::ShuttingDown,
            11 => ErrorCode::Unsupported,
            12 => ErrorCode::InvalidTargeting,
            13 => ErrorCode::StorageFailed,
            tag => {
                return Err(ProtoError::UnknownTag {
                    what: "error code",
                    tag,
                })
            }
        })
    }
}

impl From<&MarketError> for ErrorCode {
    fn from(e: &MarketError) -> Self {
        match e {
            MarketError::UnknownAdvertiser(_) => ErrorCode::UnknownAdvertiser,
            MarketError::UnknownKeyword { .. } => ErrorCode::UnknownKeyword,
            MarketError::UnknownCampaign(_) => ErrorCode::UnknownCampaign,
            MarketError::ModelDimension { .. } => ErrorCode::ModelDimension,
            MarketError::InvalidProbability(_) => ErrorCode::InvalidProbability,
            // A valid row the market has no 4-byte id left for.
            MarketError::ClickTableFull => ErrorCode::Unsupported,
            MarketError::MissingClickModel => ErrorCode::MissingClickModel,
            MarketError::NotIncremental(_) => ErrorCode::NotIncremental,
            // Negative money either way; the code predates the variant.
            MarketError::NegativeBid(_) | MarketError::NegativeClickValue(_) => {
                ErrorCode::NegativeBid
            }
            MarketError::InvalidRoiTarget(_) => ErrorCode::InvalidRoiTarget,
            MarketError::InvalidTargeting(_) => ErrorCode::InvalidTargeting,
            // A non-per-click campaign on a journalled marketplace, or a
            // position restore on one: the wire protocol cannot submit
            // either, but the mapping must be total.
            MarketError::NotDurable(_) | MarketError::Journalled => ErrorCode::Unsupported,
            MarketError::NoSlots
            | MarketError::NoKeywords
            | MarketError::NoShards
            | MarketError::TooManySlots(_)
            | MarketError::TooManyKeywords(_)
            | MarketError::TooManyShards(_)
            | MarketError::RngStreams { .. } => ErrorCode::InvalidConfig,
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Server-assigned session id of this connection.
        session: u64,
        /// Protocol version the server speaks.
        proto_version: u8,
    },
    /// Answer to [`Request::Serve`]: the full auction outcome.
    Served(WireAuction),
    /// Answer to [`Request::ServeBatch`]: the aggregate outcome.
    BatchServed(BatchSummary),
    /// Answer to [`Request::RegisterAdvertiser`].
    AdvertiserRegistered {
        /// Handle index of the new advertiser.
        advertiser: u64,
    },
    /// Answer to [`Request::AddCampaign`].
    CampaignAdded {
        /// Campaign keyword coordinate.
        keyword: u64,
        /// Campaign index coordinate.
        index: u64,
    },
    /// Answer to fire-and-forget control calls (update/pause/resume/ROI,
    /// configure, shutdown).
    Ack,
    /// Answer to [`Request::TopBids`]: `(keyword, index, cents)`
    /// descending by bid.
    TopBids {
        /// The bids.
        bids: Vec<(u64, u64, i64)>,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// The request was understood but failed.
    Failed {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail (the in-process error's `Display`).
        message: String,
    },
    /// Data-plane backpressure: the owning shard's admission lane is full.
    /// The request was **not** executed; retry after the hint.
    Overloaded {
        /// Suggested client back-off, in milliseconds.
        retry_after_ms: u32,
    },
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Pong {
                session,
                proto_version,
            } => {
                buf.push(0);
                put_u64(&mut buf, *session);
                buf.push(*proto_version);
            }
            Response::Served(a) => {
                buf.push(1);
                put_u64(&mut buf, a.keyword);
                put_u64(&mut buf, a.time);
                put_f64(&mut buf, a.expected_revenue);
                put_i64(&mut buf, a.realized_cents);
                put_u32(&mut buf, a.placements.len() as u32);
                for p in &a.placements {
                    put_u16(&mut buf, p.slot_position);
                    put_u64(&mut buf, p.campaign_keyword);
                    put_u64(&mut buf, p.campaign_index);
                    put_u64(&mut buf, p.advertiser);
                    put_bool(&mut buf, p.clicked);
                    put_bool(&mut buf, p.purchased);
                    put_i64(&mut buf, p.charge_cents);
                }
                put_u32(&mut buf, a.charges.len() as u32);
                for (kw, idx, cents) in &a.charges {
                    put_u64(&mut buf, *kw);
                    put_u64(&mut buf, *idx);
                    put_i64(&mut buf, *cents);
                }
            }
            Response::BatchServed(s) => {
                buf.push(2);
                put_u64(&mut buf, s.auctions);
                put_f64(&mut buf, s.expected_revenue);
                put_u64(&mut buf, s.filled_slots);
                put_u64(&mut buf, s.clicks);
                put_u64(&mut buf, s.purchases);
                put_i64(&mut buf, s.realized_cents);
                put_u64(&mut buf, s.chunks);
            }
            Response::AdvertiserRegistered { advertiser } => {
                buf.push(3);
                put_u64(&mut buf, *advertiser);
            }
            Response::CampaignAdded { keyword, index } => {
                buf.push(4);
                put_u64(&mut buf, *keyword);
                put_u64(&mut buf, *index);
            }
            Response::Ack => buf.push(5),
            Response::TopBids { bids } => {
                buf.push(6);
                put_u32(&mut buf, bids.len() as u32);
                for (kw, idx, cents) in bids {
                    put_u64(&mut buf, *kw);
                    put_u64(&mut buf, *idx);
                    put_i64(&mut buf, *cents);
                }
            }
            Response::Stats(s) => {
                buf.push(7);
                put_u64(&mut buf, s.advertisers);
                put_u64(&mut buf, s.campaigns);
                put_u64(&mut buf, s.keywords);
                put_u64(&mut buf, s.slots);
                put_u64(&mut buf, s.shards);
                put_u64(&mut buf, s.auctions);
                put_u64(&mut buf, s.sessions);
                put_u64(&mut buf, s.requests);
                put_u64(&mut buf, s.overloaded);
                put_u64(&mut buf, s.wal_records);
                put_u64(&mut buf, s.snapshot_seq);
            }
            Response::Failed { code, message } => {
                buf.push(8);
                buf.push(code.to_byte());
                put_string(&mut buf, message);
            }
            Response::Overloaded { retry_after_ms } => {
                buf.push(9);
                put_u32(&mut buf, *retry_after_ms);
            }
        }
        buf
    }

    /// Decodes a response from a frame payload; the whole payload must be
    /// consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8("response tag")? {
            0 => Response::Pong {
                session: r.u64("session")?,
                proto_version: r.u8("proto version")?,
            },
            1 => {
                let keyword = r.u64("keyword")?;
                let time = r.u64("time")?;
                let expected_revenue = r.f64("expected revenue")?;
                let realized_cents = r.i64("realized revenue")?;
                let placements = r.vec("placements", 29, |r| {
                    Ok(WirePlacement {
                        slot_position: r.u16("slot")?,
                        campaign_keyword: r.u64("campaign keyword")?,
                        campaign_index: r.u64("campaign index")?,
                        advertiser: r.u64("advertiser")?,
                        clicked: r.bool("clicked")?,
                        purchased: r.bool("purchased")?,
                        charge_cents: r.i64("charge")?,
                    })
                })?;
                let charges = r.vec("charges", 24, |r| {
                    Ok((
                        r.u64("charge keyword")?,
                        r.u64("charge index")?,
                        r.i64("charge cents")?,
                    ))
                })?;
                Response::Served(WireAuction {
                    keyword,
                    time,
                    expected_revenue,
                    realized_cents,
                    placements,
                    charges,
                })
            }
            2 => Response::BatchServed(BatchSummary {
                auctions: r.u64("auctions")?,
                expected_revenue: r.f64("expected revenue")?,
                filled_slots: r.u64("filled slots")?,
                clicks: r.u64("clicks")?,
                purchases: r.u64("purchases")?,
                realized_cents: r.i64("realized revenue")?,
                chunks: r.u64("chunks")?,
            }),
            3 => Response::AdvertiserRegistered {
                advertiser: r.u64("advertiser")?,
            },
            4 => Response::CampaignAdded {
                keyword: r.u64("keyword")?,
                index: r.u64("campaign index")?,
            },
            5 => Response::Ack,
            6 => Response::TopBids {
                bids: r.vec("top bids", 24, |r| {
                    Ok((r.u64("keyword")?, r.u64("index")?, r.i64("cents")?))
                })?,
            },
            7 => Response::Stats(ServerStats {
                advertisers: r.u64("advertisers")?,
                campaigns: r.u64("campaigns")?,
                keywords: r.u64("keywords")?,
                slots: r.u64("slots")?,
                shards: r.u64("shards")?,
                auctions: r.u64("auctions")?,
                sessions: r.u64("sessions")?,
                requests: r.u64("requests")?,
                overloaded: r.u64("overloaded")?,
                wal_records: r.u64("wal_records")?,
                snapshot_seq: r.u64("snapshot_seq")?,
            }),
            8 => Response::Failed {
                code: ErrorCode::from_byte(r.u8("error code")?)?,
                message: r.string("error message")?,
            },
            9 => Response::Overloaded {
                retry_after_ms: r.u32("retry hint")?,
            },
            tag => {
                return Err(ProtoError::UnknownTag {
                    what: "response",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// What an executed operation answers on the wire.
impl From<Reply> for Response {
    fn from(reply: Reply) -> Self {
        match reply {
            Reply::Done => Response::Ack,
            Reply::AdvertiserRegistered(advertiser) => Response::AdvertiserRegistered {
                advertiser: advertiser.index() as u64,
            },
            Reply::CampaignAdded(id) => Response::CampaignAdded {
                keyword: id.keyword() as u64,
                index: id.index() as u64,
            },
            Reply::Served(auction) => Response::Served(WireAuction::from(&auction)),
            Reply::BatchServed(report) => Response::BatchServed(BatchSummary::from_report(&report)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_core::{PricingScheme, WdMethod};

    /// One request per variant; the operation-carrying ones also cross the
    /// bridge (the property suite in `tests/framing.rs` draws the rest).
    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Serve {
                keyword: 8,
                attrs: UserAttrs::new()
                    .geo("us")
                    .device("mobile")
                    .set_int("age", 33),
            },
            Request::ServeBatch {
                queries: vec![
                    (0, UserAttrs::new()),
                    (1, UserAttrs::new().segment("gamer")),
                    (9, UserAttrs::new()),
                ],
            },
            Request::RegisterAdvertiser {
                name: "books.example".into(),
            },
            Request::AddCampaign {
                advertiser: 2,
                keyword: 7,
                bid_cents: 150,
                click_value_cents: 400,
                roi_target: Some(1.25),
                click_probs: Some(vec![0.6, 0.3, 0.15]),
                purchase_probs: Some(vec![(0.1, 0.01)]),
                targeting: Some("geo = 'us' and not device = 'bot'".into()),
            },
            Request::UpdateBid {
                keyword: 1,
                index: 4,
                bid_cents: -3,
            },
            Request::PauseCampaign {
                keyword: 0,
                index: 0,
            },
            Request::ResumeCampaign {
                keyword: 0,
                index: 0,
            },
            Request::SetRoiTarget {
                keyword: 5,
                index: 1,
                target: None,
            },
            Request::TopBids {
                keyword: 2,
                limit: 10,
            },
            Request::Stats,
            Request::Configure(MarketConfig {
                slots: 15,
                keywords: 10,
                seed: 42,
                method: WdMethod::Lp,
                pricing: PricingScheme::Gsp,
                shards: 4,
                pruned: true,
                warm_start: false,
                default_click_probs: None,
                default_purchase_probs: None,
            }),
            Request::Shutdown,
        ];
        for req in reqs {
            let payload = req.encode();
            assert_eq!(Request::decode(&payload).as_ref(), Ok(&req));
            match MutationRecord::try_from(req.clone()) {
                // An operation's payload *is* its body, and the bridge is
                // lossless in both directions.
                Ok(op) => {
                    let mut body = Vec::new();
                    op.encode_into(&mut body);
                    assert_eq!(payload, body);
                    assert_eq!(Request::from(op), req);
                }
                Err(wire_only) => {
                    assert_eq!(wire_only, req);
                    assert!(MutationRecord::decode(&payload).is_err());
                }
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Pong {
                session: 9,
                proto_version: 1,
            },
            Response::Served(WireAuction {
                keyword: 4,
                time: 77,
                expected_revenue: 12.345,
                realized_cents: 210,
                placements: vec![WirePlacement {
                    slot_position: 1,
                    campaign_keyword: 4,
                    campaign_index: 2,
                    advertiser: 0,
                    clicked: true,
                    purchased: false,
                    charge_cents: 35,
                }],
                charges: vec![(4, 2, 35)],
            }),
            Response::BatchServed(BatchSummary {
                auctions: 100,
                expected_revenue: 1.5e3,
                filled_slots: 180,
                clicks: 40,
                purchases: 3,
                realized_cents: 1234,
                chunks: 17,
            }),
            Response::AdvertiserRegistered { advertiser: 12 },
            Response::CampaignAdded {
                keyword: 3,
                index: 0,
            },
            Response::Ack,
            Response::TopBids {
                bids: vec![(3, 0, 90), (3, 2, 40)],
            },
            Response::Stats(ServerStats {
                advertisers: 10,
                campaigns: 100,
                keywords: 10,
                slots: 15,
                shards: 4,
                auctions: 4096,
                sessions: 3,
                requests: 4200,
                overloaded: 9,
                wal_records: 5100,
                snapshot_seq: 4096,
            }),
            Response::Failed {
                code: ErrorCode::UnknownKeyword,
                message: "keyword 99 outside the configured universe of 10".into(),
            },
            Response::Overloaded { retry_after_ms: 10 },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    }

    // The hostile-input cases for operation bodies (truncation at every
    // byte, absurd counts, unknown tags) live with the codec, in
    // `ssa_core`'s `tests/op_codec.rs`; these cover what only this layer
    // decodes.

    #[test]
    fn trailing_bytes_rejected() {
        for request in [Request::Ping, Request::Stats, Request::Shutdown] {
            let mut buf = request.encode();
            buf.push(0);
            assert_eq!(
                Request::decode(&buf),
                Err(ProtoError::Trailing { extra: 1 })
            );
        }
    }

    #[test]
    fn unknown_tags_are_typed() {
        assert_eq!(
            Request::decode(&[200]),
            Err(ProtoError::UnknownTag {
                what: "operation",
                tag: 200,
            })
        );
        assert_eq!(
            Response::decode(&[250]),
            Err(ProtoError::UnknownTag {
                what: "response",
                tag: 250,
            })
        );
    }

    /// Method tag 3 was the retired parallel reduction (`rhp`, followed by
    /// a `u32` thread count): reserved, never reassigned, and refused.
    #[test]
    fn a_configure_with_the_retired_method_tag_is_refused() {
        let payload = Request::Configure(MarketConfig {
            slots: 2,
            keywords: 3,
            seed: 1,
            method: WdMethod::Reduced,
            pricing: PricingScheme::Gsp,
            shards: 1,
            pruned: false,
            warm_start: true,
            default_click_probs: None,
            default_purchase_probs: None,
        })
        .encode();
        // The method byte follows the request tag, slots, keywords and seed.
        assert_eq!(payload[25], 2, "rh's tag");
        let retired = [&payload[..25], &[3], &4u32.to_le_bytes(), &payload[26..]].concat();
        assert_eq!(
            Request::decode(&retired),
            Err(ProtoError::UnknownTag {
                what: "method",
                tag: 3,
            })
        );
    }

    #[test]
    fn configuration_errors_map_to_invalid_config() {
        for err in [
            MarketError::NoSlots,
            MarketError::NoKeywords,
            MarketError::NoShards,
            MarketError::TooManySlots(1 << 20),
            MarketError::TooManyKeywords(1 << 40),
            MarketError::TooManyShards(1 << 40),
            MarketError::RngStreams {
                keywords: 3,
                streams: 2,
            },
        ] {
            assert_eq!(ErrorCode::from(&err), ErrorCode::InvalidConfig, "{err:?}");
        }
    }

    #[test]
    fn f64_is_bit_exact() {
        let tricky = [0.1 + 0.2, f64::MIN_POSITIVE, 1.0e308, -0.0];
        for v in tricky {
            let resp = Response::BatchServed(BatchSummary {
                expected_revenue: v,
                ..BatchSummary::default()
            });
            match Response::decode(&resp.encode()).unwrap() {
                Response::BatchServed(s) => {
                    assert_eq!(s.expected_revenue.to_bits(), v.to_bits());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
