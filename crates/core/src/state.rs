//! Full-fidelity marketplace state capture for the durability layer.
//!
//! [`MarketState`] is everything needed to rebuild a
//! [`crate::sharded::ShardedMarketplace`] **bit-identically**: the build
//! configuration, the advertiser roster, every per-click campaign's
//! nominal bid state, the global clock, and the exact stream position of
//! each keyword's user-action RNG. It is produced by
//! [`crate::sharded::ShardedMarketplace::capture_state`] and consumed by
//! [`crate::sharded::ShardedMarketplace::from_state`]; the `ssa_durable`
//! crate serializes it as the snapshot half of its snapshot + WAL scheme.
//!
//! # Why this is sufficient
//!
//! The marketplace is deterministic apart from the user-action RNG
//! streams, and every marketplace draws those streams *per keyword*
//! (see [`crate::marketplace::keyword_stream_seed`]).
//! The tables an engine holds for its campaigns, its revenue matrix,
//! solver scratch, and warm-start state are pure execution state — a
//! restored market re-derives them at each keyword's next auction and
//! reproduces the same auctions bit for bit (the repository's
//! solver-equivalence guarantee). Each campaign's probabilities, whose one
//! copy is its row of the keyword engine's models, are read out of those
//! models into [`CampaignState`] — a campaign that never purchases stores
//! no purchase row there, and is captured with the explicit zeros it would
//! have been registered with. So campaigns + clock + RNG positions pin down
//! every future auction outcome exactly.

use crate::codec::{
    put_bool, put_f64_vec, put_opt, put_pair_vec, put_u32, put_u64, CodecError, Reader,
};
use crate::engine::WdMethod;
use crate::pricing::PricingScheme;

/// The build-time configuration of a sharded marketplace, as needed to
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
        match self.method {
            WdMethod::Lp => buf.push(0),
            WdMethod::Hungarian => buf.push(1),
            WdMethod::Reduced => buf.push(2),
            WdMethod::ReducedParallel(threads) => {
                buf.push(3);
                put_u32(buf, threads as u32);
            }
        }
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
                3 => WdMethod::ReducedParallel(r.u32("method threads")? as usize),
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

/// A complete, bit-identical checkpoint of a
/// [`crate::sharded::ShardedMarketplace`].
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
    /// indexed by keyword (read from the owning shard).
    pub rng_states: Vec<[u64; 4]>,
}
