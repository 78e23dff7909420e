//! The one market operation: [`MutationRecord`], its byte codec, and the
//! journal hook that observes it.
//!
//! Everything that changes a [`Marketplace`] — a typed call, a request off
//! the wire, a record replayed from the write-ahead log or a snapshot — is
//! one `MutationRecord`, executed by one [`Marketplace::apply`].
//!
//! # One body, three envelopes
//!
//! [`MutationRecord::encode_into`] writes `tag u8 ++ fields` through
//! [`crate::codec`]. Those bytes are the operation *body*, and every
//! transport carries them verbatim:
//!
//! ```text
//! WAL record      = len u32 ++ crc32 u32 ++ seq u64 ++ body     (ssa_durable)
//! snapshot record = len u32 ++ body                             (ssa_durable)
//! request frame   = len u32 ++ version ++ kind ++ id u64 ++ body (ssa_net)
//! ```
//!
//! A snapshot is a compacted log ([`crate::state`]): its records are
//! [`Marketplace::compacted_log`], and recovery applies them.
//!
//! Tags 0–8 and every field layout are the on-disk format (`WAL_VERSION`
//! 3, pinned by the golden fixture); the wire shares the tag space, with
//! its read-only requests numbered after the operations.
//!
//! Adding a field to an operation — `Serve`, say — therefore touches: the
//! variant here, its arms in `encode_into`, `read` and [`Marketplace::apply`],
//! and `ssa_net::proto::Request::Serve` with its two bridge arms (the wire
//! enum stays flat until the benchmark that constructs it can follow).
//!
//! # The journal hook
//!
//! A [`MutationJournal`] attached via [`Marketplace::set_journal`] is
//! handed each [`MutationRecord`] *after* [`Marketplace::apply`] executed
//! it: every control-plane mutation and every served query, typed calls
//! included. Two properties make this sufficient for exact recovery:
//!
//! * **Journal-after-apply**: a record is only emitted once the mutation
//!   succeeded, so a crash between apply and journal loses an operation
//!   that was never acknowledged — the recovered state is always a
//!   consistent prefix of the acknowledged history.
//! * **Determinism**: auction outcomes are a pure function of the campaign
//!   book, the clock, and the per-keyword RNG streams, so journaling just
//!   the *queries served* (keyword plus user attributes, not the
//!   outcomes) is enough — replaying the
//!   serves re-draws the identical clicks, purchases, and charges, and
//!   leaves the RNG streams at the identical positions.
//!
//! When no journal is attached the hot serve path pays a single
//! `Option` branch and nothing else.

use crate::codec::{
    put_attrs, put_f64, put_f64_vec, put_i64, put_opt, put_pair_vec, put_string, put_u32, put_u64,
    CodecError, Reader,
};
use crate::marketplace::{AdvertiserHandle, AuctionResponse, CampaignId, MarketBatchReport};
#[cfg(doc)]
use crate::marketplace::{MarketError, Marketplace};
use crate::state::MarketConfigState;
use ssa_bidlang::targeting::UserAttrs;

/// One marketplace operation.
///
/// Coordinates (advertiser, keyword, campaign index) are `u64`, the width
/// they have on disk and on the wire; [`Marketplace::apply`] is where they
/// become in-memory indexes.
///
/// Per-click campaigns only (the kind
/// [`crate::marketplace::CampaignSpec::per_click`] builds): campaigns
/// running custom programs or fixed tables cannot be serialized and are
/// rejected with [`MarketError::NotDurable`] while a journal is attached.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationRecord {
    /// [`Marketplace::configure`]: replace the marketplace with a
    /// fresh build of this configuration.
    Configure(MarketConfigState),
    /// [`Marketplace::register_advertiser`].
    RegisterAdvertiser {
        /// Display name registered.
        name: String,
    },
    /// [`Marketplace::add_campaign`] with a per-click spec, exactly
    /// as supplied (models left `None` resolve through builder defaults at
    /// replay, same as at first application).
    AddCampaign {
        /// Registration index of the advertiser.
        advertiser: u64,
        /// Keyword the campaign bids on.
        keyword: u64,
        /// Nominal per-click bid, in cents.
        bid_cents: i64,
        /// Click value, in cents.
        click_value_cents: i64,
        /// Initial ROI target, if supplied.
        roi_target: Option<f64>,
        /// Per-slot click probabilities, if supplied.
        click_probs: Option<Vec<f64>>,
        /// Per-slot purchase probabilities, if supplied.
        purchase_probs: Option<Vec<(f64, f64)>>,
        /// Targeting expression source, if supplied (re-parsed at replay
        /// through the same validation path as the original registration).
        targeting: Option<String>,
    },
    /// [`Marketplace::update_bid`].
    UpdateBid {
        /// Campaign's keyword.
        keyword: u64,
        /// Campaign's index within the keyword.
        index: u64,
        /// New nominal bid, in cents.
        bid_cents: i64,
    },
    /// [`Marketplace::pause_campaign`].
    PauseCampaign {
        /// Campaign's keyword.
        keyword: u64,
        /// Campaign's index within the keyword.
        index: u64,
    },
    /// [`Marketplace::resume_campaign`].
    ResumeCampaign {
        /// Campaign's keyword.
        keyword: u64,
        /// Campaign's index within the keyword.
        index: u64,
    },
    /// [`Marketplace::set_roi_target`].
    SetRoiTarget {
        /// Campaign's keyword.
        keyword: u64,
        /// Campaign's index within the keyword.
        index: u64,
        /// New target (`None` clears it).
        target: Option<f64>,
    },
    /// One [`Marketplace::serve`] call (outcome re-derived at
    /// replay).
    Serve {
        /// The keyword queried.
        keyword: u64,
        /// The query's typed user attributes (empty for legacy queries).
        /// Journaled because targeting makes outcomes depend on them.
        attrs: UserAttrs,
    },
    /// One [`Marketplace::serve_batch`] call, in stream order.
    ServeBatch {
        /// The queries served, in order: keyword plus user attributes.
        queries: Vec<(u64, UserAttrs)>,
    },
}

// The operation tag table. These numbers are on disk (`WAL_VERSION` 3) and
// on the wire; a new operation takes the next number free in both.
const TAG_CONFIGURE: u8 = 0;
const TAG_REGISTER: u8 = 1;
const TAG_ADD_CAMPAIGN: u8 = 2;
const TAG_UPDATE_BID: u8 = 3;
const TAG_PAUSE: u8 = 4;
const TAG_RESUME: u8 = 5;
const TAG_SET_ROI: u8 = 6;
const TAG_SERVE: u8 = 7;
const TAG_SERVE_BATCH: u8 = 8;

/// The head most operations share: the tag, then two `u64` coordinates.
fn put_head(buf: &mut Vec<u8>, tag: u8, first: u64, second: u64) {
    buf.push(tag);
    put_u64(buf, first);
    put_u64(buf, second);
}

impl MutationRecord {
    /// Appends the operation body — `tag ++ fields` — to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            MutationRecord::Configure(config) => {
                buf.push(TAG_CONFIGURE);
                config.encode_into(buf);
            }
            MutationRecord::RegisterAdvertiser { name } => {
                LogRecord::RegisterAdvertiser { name }.encode_into(buf);
            }
            MutationRecord::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                roi_target,
                click_probs,
                purchase_probs,
                targeting,
            } => LogRecord::AddCampaign {
                advertiser: *advertiser,
                keyword: *keyword,
                bid_cents: *bid_cents,
                click_value_cents: *click_value_cents,
                roi_target: *roi_target,
                click_probs: click_probs.as_deref(),
                purchase_probs: purchase_probs.as_deref().map(PurchaseRow::Stored),
                targeting: targeting.as_deref(),
            }
            .encode_into(buf),
            MutationRecord::UpdateBid {
                keyword,
                index,
                bid_cents,
            } => {
                put_head(buf, TAG_UPDATE_BID, *keyword, *index);
                put_i64(buf, *bid_cents);
            }
            &MutationRecord::PauseCampaign { keyword, index } => {
                LogRecord::PauseCampaign { keyword, index }.encode_into(buf);
            }
            MutationRecord::ResumeCampaign { keyword, index } => {
                put_head(buf, TAG_RESUME, *keyword, *index);
            }
            MutationRecord::SetRoiTarget {
                keyword,
                index,
                target,
            } => {
                put_head(buf, TAG_SET_ROI, *keyword, *index);
                put_opt(buf, target, |b, v| put_f64(b, *v));
            }
            MutationRecord::Serve { keyword, attrs } => {
                buf.push(TAG_SERVE);
                put_u64(buf, *keyword);
                put_attrs(buf, attrs);
            }
            MutationRecord::ServeBatch { queries } => {
                buf.push(TAG_SERVE_BATCH);
                put_u32(buf, queries.len() as u32);
                for (keyword, attrs) in queries {
                    put_u64(buf, *keyword);
                    put_attrs(buf, attrs);
                }
            }
        }
    }

    /// Decodes one operation body, requiring the buffer to be exactly
    /// consumed.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let op = Self::read(&mut r)?;
        r.finish()?;
        Ok(op)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8("operation tag")? {
            TAG_CONFIGURE => MutationRecord::Configure(MarketConfigState::read(r)?),
            TAG_REGISTER => MutationRecord::RegisterAdvertiser {
                name: r.string("advertiser name")?,
            },
            TAG_ADD_CAMPAIGN => MutationRecord::AddCampaign {
                advertiser: r.u64("campaign advertiser")?,
                keyword: r.u64("campaign keyword")?,
                bid_cents: r.i64("campaign bid")?,
                click_value_cents: r.i64("campaign click value")?,
                roi_target: r.opt("campaign roi", |r| r.f64("campaign roi"))?,
                click_probs: r.opt("campaign click probs", |r| {
                    r.f64_vec("campaign click probs")
                })?,
                purchase_probs: r.opt("campaign purchase probs", |r| {
                    r.pair_vec("campaign purchase probs")
                })?,
                targeting: r.opt("campaign targeting", |r| r.string("campaign targeting"))?,
            },
            TAG_UPDATE_BID => MutationRecord::UpdateBid {
                keyword: r.u64("update keyword")?,
                index: r.u64("update index")?,
                bid_cents: r.i64("update bid")?,
            },
            TAG_PAUSE => MutationRecord::PauseCampaign {
                keyword: r.u64("pause keyword")?,
                index: r.u64("pause index")?,
            },
            TAG_RESUME => MutationRecord::ResumeCampaign {
                keyword: r.u64("resume keyword")?,
                index: r.u64("resume index")?,
            },
            TAG_SET_ROI => MutationRecord::SetRoiTarget {
                keyword: r.u64("roi keyword")?,
                index: r.u64("roi index")?,
                target: r.opt("roi target", |r| r.f64("roi target"))?,
            },
            TAG_SERVE => MutationRecord::Serve {
                keyword: r.u64("serve keyword")?,
                attrs: r.attrs("serve attrs")?,
            },
            TAG_SERVE_BATCH => MutationRecord::ServeBatch {
                // Minimum element: keyword (8) + empty attr bag count (4).
                queries: r.vec("batch queries", 12, |r| {
                    Ok((r.u64("batch keyword")?, r.attrs("batch attrs")?))
                })?,
            },
            tag => {
                return Err(CodecError::UnknownTag {
                    what: "operation",
                    tag,
                })
            }
        })
    }
}

/// A record of [`Marketplace::compacted_log`]: its [`MutationRecord`]
/// namesake, variant for variant and field for field, with names, rows
/// and targeting texts borrowed from the market, so a snapshot writer
/// copies nothing. It encodes to its namesake's bytes, and the namesake
/// encodes through it: there is one codec.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // documented on the namesake
pub enum LogRecord<'a> {
    RegisterAdvertiser {
        name: &'a str,
    },
    AddCampaign {
        advertiser: u64,
        keyword: u64,
        bid_cents: i64,
        click_value_cents: i64,
        roi_target: Option<f64>,
        click_probs: Option<&'a [f64]>,
        purchase_probs: Option<PurchaseRow<'a>>,
        targeting: Option<&'a str>,
    },
    PauseCampaign {
        keyword: u64,
        index: u64,
    },
}

/// Per-slot purchase probabilities, borrowed: a stored row, or
/// `(0.0, 0.0)` in each of `slots` slots for a campaign that never
/// purchases.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub enum PurchaseRow<'a> {
    Stored(&'a [(f64, f64)]),
    Never { slots: usize },
}

impl LogRecord<'_> {
    /// Appends the operation body — `tag ++ fields` — to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            LogRecord::RegisterAdvertiser { name } => {
                buf.push(TAG_REGISTER);
                put_string(buf, name);
            }
            LogRecord::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                roi_target,
                click_probs,
                purchase_probs,
                targeting,
            } => {
                put_head(buf, TAG_ADD_CAMPAIGN, advertiser, keyword);
                put_i64(buf, bid_cents);
                put_i64(buf, click_value_cents);
                put_opt(buf, &roi_target, |b, v| put_f64(b, *v));
                put_opt(buf, &click_probs, |b, v| put_f64_vec(b, v));
                put_opt(buf, &purchase_probs, |b, row| match *row {
                    PurchaseRow::Stored(row) => put_pair_vec(b, row),
                    PurchaseRow::Never { slots } => {
                        put_u32(b, slots as u32);
                        // Two `0.0`s a slot, whose bits are all zero.
                        b.resize(b.len() + slots * 16, 0);
                    }
                });
                put_opt(buf, &targeting, |b, v| put_string(b, v));
            }
            LogRecord::PauseCampaign { keyword, index } => put_head(buf, TAG_PAUSE, keyword, index),
        }
    }
}

impl From<LogRecord<'_>> for MutationRecord {
    fn from(record: LogRecord<'_>) -> Self {
        match record {
            LogRecord::RegisterAdvertiser { name } => {
                MutationRecord::RegisterAdvertiser { name: name.into() }
            }
            LogRecord::AddCampaign {
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
                click_probs: click_probs.map(<[f64]>::to_vec),
                purchase_probs: purchase_probs.map(|row| match row {
                    PurchaseRow::Stored(row) => row.to_vec(),
                    PurchaseRow::Never { slots } => vec![(0.0, 0.0); slots],
                }),
                targeting: targeting.map(String::from),
            },
            LogRecord::PauseCampaign { keyword, index } => {
                MutationRecord::PauseCampaign { keyword, index }
            }
        }
    }
}

/// A sink for [`MutationRecord`]s; see the [module docs](self).
///
/// `Send` so a journalled marketplace can still move to a serving thread;
/// `Debug` so the marketplace keeps its derived `Debug`.
pub trait MutationJournal: Send + std::fmt::Debug {
    /// Called once per successfully applied operation, in application
    /// order. Implementations that cannot persist the record must fail
    /// loudly (panic): continuing would silently break the recovery
    /// guarantee.
    fn record(&mut self, record: &MutationRecord);
}

/// What [`Marketplace::apply`] answers for an operation it executed.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Applied, nothing to return (configure, update, pause, resume, ROI).
    Done,
    /// The new advertiser's handle.
    AdvertiserRegistered(AdvertiserHandle),
    /// The new campaign's id.
    CampaignAdded(CampaignId),
    /// One auction's full outcome.
    Served(AuctionResponse),
    /// A query stream's aggregate outcome.
    BatchServed(MarketBatchReport),
}
