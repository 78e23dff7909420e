//! Full-fidelity marketplace state capture for the durability layer.
//!
//! [`MarketState`] is everything needed to rebuild a
//! [`crate::marketplace::Marketplace`] **bit-identically**: the build
//! configuration, the advertiser roster, every per-click campaign's
//! nominal bid state, the global clock, and the exact stream position of
//! each keyword's user-action RNG. It is produced by
//! [`crate::marketplace::Marketplace::capture_state`] and consumed by
//! [`crate::marketplace::Marketplace::from_state`]; the `ssa_durable`
//! crate serializes it as the snapshot half of its snapshot + WAL scheme —
//! reading it through [`StateSource`], which the live marketplace
//! implements too, so a snapshot is written from the marketplace in place
//! and a `MarketState` is only built where one is wanted as a value
//! (tests, equivalence checks, recovery).
//!
//! # Why this is sufficient
//!
//! The marketplace is deterministic apart from the user-action RNG
//! streams, and every marketplace draws those streams *per keyword*
//! (see [`crate::marketplace::keyword_stream_seed`]).
//! The tables an engine holds for its programs, its revenue matrix,
//! solver scratch, and warm-start state are pure execution state — a
//! restored market re-derives them at each keyword's next auction and
//! reproduces the same auctions bit for bit (the repository's
//! solver-equivalence guarantee). Each campaign's probabilities, whose one
//! copy is its row of the keyword engine's models, are read out of those
//! models into [`CampaignState`] — a campaign that never purchases stores
//! no purchase row there, and is captured with the explicit zeros it would
//! have been registered with. So campaigns + clock + RNG positions pin down
//! every future auction outcome exactly.

use crate::codec::{put_bool, put_f64_vec, put_opt, put_pair_vec, put_u64, CodecError, Reader};
use crate::engine::WdMethod;
use crate::marketplace::MarketError;
use crate::pricing::PricingScheme;

/// The build-time configuration of a marketplace, as needed to
/// reconstruct it via [`crate::marketplace::MarketplaceBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct MarketConfigState {
    /// Ad slots per results page.
    pub slots: usize,
    /// Size of the keyword universe.
    pub keywords: usize,
    /// Marketplace RNG seed (keyword stream seeds derive from it).
    pub seed: u64,
    /// Winner-determination method.
    pub method: WdMethod,
    /// Pricing rule.
    pub pricing: PricingScheme,
    /// Shard count.
    pub shards: usize,
    /// Whether winner determination runs the top-k pruned solver.
    pub pruned: bool,
    /// Whether unchanged auctions skip the refill + solve.
    pub warm_start: bool,
    /// Builder-level default click model, if one was configured.
    pub default_click_probs: Option<Vec<f64>>,
    /// Builder-level default purchase model, if one was configured.
    pub default_purchase_probs: Option<Vec<(f64, f64)>>,
}

impl MarketConfigState {
    /// Appends the configuration's encoding — the `Configure` operation's
    /// body and the head of a snapshot body — to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.slots as u64);
        put_u64(buf, self.keywords as u64);
        put_u64(buf, self.seed);
        // Tag 3 was the retired parallel reduction (`rhp`, followed by a
        // `u32` thread count): reserved, never reassigned.
        buf.push(match self.method {
            WdMethod::Lp => 0,
            WdMethod::Hungarian => 1,
            WdMethod::Reduced => 2,
        });
        buf.push(match self.pricing {
            PricingScheme::PayYourBid => 0,
            PricingScheme::Gsp => 1,
            PricingScheme::Vickrey => 2,
        });
        put_u64(buf, self.shards as u64);
        put_bool(buf, self.pruned);
        put_bool(buf, self.warm_start);
        put_opt(buf, &self.default_click_probs, |b, v| put_f64_vec(b, v));
        put_opt(buf, &self.default_purchase_probs, |b, v| put_pair_vec(b, v));
    }

    /// Reads a configuration written by [`MarketConfigState::encode_into`].
    pub fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MarketConfigState {
            slots: r.u64("config slots")? as usize,
            keywords: r.u64("config keywords")? as usize,
            seed: r.u64("config seed")?,
            method: match r.u8("method")? {
                0 => WdMethod::Lp,
                1 => WdMethod::Hungarian,
                2 => WdMethod::Reduced,
                tag => {
                    return Err(CodecError::UnknownTag {
                        what: "method",
                        tag,
                    })
                }
            },
            pricing: match r.u8("pricing")? {
                0 => PricingScheme::PayYourBid,
                1 => PricingScheme::Gsp,
                2 => PricingScheme::Vickrey,
                tag => {
                    return Err(CodecError::UnknownTag {
                        what: "pricing",
                        tag,
                    })
                }
            },
            shards: r.u64("config shards")? as usize,
            pruned: r.bool("config pruned")?,
            warm_start: r.bool("config warm_start")?,
            default_click_probs: r
                .opt("config click probs", |r| r.f64_vec("config click probs"))?,
            default_purchase_probs: r.opt("config purchase probs", |r| {
                r.pair_vec("config purchase probs")
            })?,
        })
    }
}

/// One per-click campaign's durable state: enough to re-register it via
/// [`crate::marketplace::CampaignSpec::per_click`] and reproduce its
/// [`crate::marketplace::CampaignId`], effective bid, and outcome models
/// exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// The keyword the campaign bids on.
    pub keyword: usize,
    /// Registration index of the owning advertiser.
    pub advertiser: usize,
    /// Nominal per-click bid, in cents (the ROI cap is re-derived).
    pub bid_cents: i64,
    /// Advertiser's value of a click, in cents.
    pub click_value_cents: i64,
    /// ROI target, if one is set.
    pub roi_target: Option<f64>,
    /// Per-slot click probabilities (always resolved, never defaulted).
    pub click_probs: Vec<f64>,
    /// Per-slot purchase probabilities `(p | click, p | no click)`.
    pub purchase_probs: Vec<(f64, f64)>,
    /// Whether the campaign is currently paused.
    pub paused: bool,
    /// Targeting expression source, if the campaign targets (re-parsed and
    /// re-compiled on restore through the same path as registration).
    pub targeting: Option<String>,
}

/// A [`CampaignState`] borrowed from wherever it lives — a captured
/// [`MarketState`], or the live market's books and probability models —
/// so a snapshot can be written without copying the campaign book first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignView<'a> {
    /// See [`CampaignState::keyword`].
    pub keyword: usize,
    /// See [`CampaignState::advertiser`].
    pub advertiser: usize,
    /// See [`CampaignState::bid_cents`].
    pub bid_cents: i64,
    /// See [`CampaignState::click_value_cents`].
    pub click_value_cents: i64,
    /// See [`CampaignState::roi_target`].
    pub roi_target: Option<f64>,
    /// See [`CampaignState::click_probs`].
    pub click_probs: &'a [f64],
    /// See [`CampaignState::purchase_probs`]. `None` is a campaign that
    /// never purchases and stores no row: it stands for one explicit
    /// `(0.0, 0.0)` per entry of `click_probs`.
    pub purchase_probs: Option<&'a [(f64, f64)]>,
    /// See [`CampaignState::paused`].
    pub paused: bool,
    /// See [`CampaignState::targeting`].
    pub targeting: Option<&'a str>,
}

impl CampaignView<'_> {
    /// Copies the view into an owned [`CampaignState`].
    pub(crate) fn to_state(self) -> CampaignState {
        CampaignState {
            keyword: self.keyword,
            advertiser: self.advertiser,
            bid_cents: self.bid_cents,
            click_value_cents: self.click_value_cents,
            roi_target: self.roi_target,
            click_probs: self.click_probs.to_vec(),
            purchase_probs: match self.purchase_probs {
                Some(row) => row.to_vec(),
                None => vec![(0.0, 0.0); self.click_probs.len()],
            },
            paused: self.paused,
            targeting: self.targeting.map(str::to_string),
        }
    }
}

/// Where a snapshot's content comes from: a captured [`MarketState`], or
/// the live [`crate::marketplace::Marketplace`] read in place. Both
/// yield the same sequence — campaigns keyword-major in registration
/// order — so the one snapshot encoder (`ssa_durable`) writes the same
/// bytes from either.
pub trait StateSource {
    /// Build configuration.
    fn config(&self) -> MarketConfigState;
    /// Advertiser display names in registration order.
    fn advertisers(&self) -> impl ExactSizeIterator<Item = &str>;
    /// How many items [`StateSource::campaigns`] yields.
    fn campaign_count(&self) -> usize;
    /// Every campaign's durable state, in [`MarketState::campaigns`]
    /// order; [`MarketError::NotDurable`] for a campaign that has none.
    fn campaigns(&self) -> impl Iterator<Item = Result<CampaignView<'_>, MarketError>>;
    /// Global market clock.
    fn clock(&self) -> u64;
    /// Each keyword's RNG stream position, indexed by keyword.
    fn rng_states(&self) -> impl ExactSizeIterator<Item = [u64; 4]>;
}

/// A complete, bit-identical checkpoint of a
/// [`crate::marketplace::Marketplace`].
///
/// Campaigns appear grouped by keyword in ascending keyword order and, within
/// a keyword, in registration order — replaying them through
/// `add_campaign` reproduces every [`crate::marketplace::CampaignId`].
#[derive(Debug, Clone, PartialEq)]
pub struct MarketState {
    /// Build configuration.
    pub config: MarketConfigState,
    /// Advertiser display names in registration order.
    pub advertisers: Vec<String>,
    /// Every campaign's durable state (keyword-major registration order).
    pub campaigns: Vec<CampaignState>,
    /// Global market clock: auctions served so far.
    pub clock: u64,
    /// Exact xoshiro256** state of each keyword's user-action RNG stream,
    /// indexed by keyword: exactly one per keyword of `config`.
    pub rng_states: Vec<[u64; 4]>,
}

impl StateSource for MarketState {
    fn config(&self) -> MarketConfigState {
        self.config.clone()
    }

    fn advertisers(&self) -> impl ExactSizeIterator<Item = &str> {
        self.advertisers.iter().map(String::as_str)
    }

    fn campaign_count(&self) -> usize {
        self.campaigns.len()
    }

    fn campaigns(&self) -> impl Iterator<Item = Result<CampaignView<'_>, MarketError>> {
        self.campaigns.iter().map(|c| {
            Ok(CampaignView {
                keyword: c.keyword,
                advertiser: c.advertiser,
                bid_cents: c.bid_cents,
                click_value_cents: c.click_value_cents,
                roi_target: c.roi_target,
                click_probs: &c.click_probs,
                purchase_probs: Some(&c.purchase_probs),
                paused: c.paused,
                targeting: c.targeting.as_deref(),
            })
        })
    }

    fn clock(&self) -> u64 {
        self.clock
    }

    fn rng_states(&self) -> impl ExactSizeIterator<Item = [u64; 4]> {
        self.rng_states.iter().copied()
    }
}
