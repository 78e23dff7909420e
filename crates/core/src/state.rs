//! A marketplace's state as a compacted log: the configuration a
//! `Configure` operation carries, and [`MarketState`], a checkpoint.
//!
//! A snapshot is log compaction (Ongaro and Ousterhout, "In Search of an
//! Understandable Consensus Algorithm", USENIX ATC 2014, §7): the shortest
//! list of [`MutationRecord`]s that rebuilds the campaign book —
//! [`crate::marketplace::Marketplace::compacted_log`], which `ssa_durable`
//! streams into a snapshot and `capture_state` collects — plus what no
//! operation can set, the clock and each keyword's RNG position. A
//! restore applies the records through `Marketplace::apply`, as WAL
//! replay and the server do, then restores those two through
//! [`crate::marketplace::Marketplace::restore_positions`].
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
//! solver-equivalence guarantee). Each `AddCampaign` carries every model
//! explicitly, so no configured default is resolved again at restore. So
//! campaigns + clock + RNG positions pin down every future auction
//! outcome exactly.

use crate::codec::{put_bool, put_f64_vec, put_opt, put_pair_vec, put_u64, CodecError, Reader};
use crate::engine::{EngineConfig, WdMethod};
use crate::journal::MutationRecord;
use crate::pricing::PricingScheme;

/// A marketplace's configuration: what
/// [`crate::marketplace::Marketplace::from_config`] builds a market from,
/// what the market keeps as supplied, and what a `Configure` operation
/// carries. [`crate::marketplace::MarketplaceBuilder`] writes one setter
/// at a time.
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
    /// Click model of campaigns without one of their own, if configured.
    pub default_click_probs: Option<Vec<f64>>,
    /// Purchase model of campaigns without one of their own, if configured.
    pub default_purchase_probs: Option<Vec<(f64, f64)>>,
}

/// One slot, one keyword, one shard and seed 0, [`EngineConfig`]'s
/// default engine, and no default rows.
impl Default for MarketConfigState {
    fn default() -> Self {
        let EngineConfig {
            method,
            pricing,
            pruned,
            warm_start,
        } = EngineConfig::default();
        MarketConfigState {
            slots: 1,
            keywords: 1,
            seed: 0,
            method,
            pricing,
            shards: 1,
            pruned,
            warm_start,
            default_click_probs: None,
            default_purchase_probs: None,
        }
    }
}

impl MarketConfigState {
    /// Appends the configuration's encoding — the `Configure` operation's
    /// body — to `buf`.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
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
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, CodecError> {
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

/// A complete, bit-identical checkpoint of a
/// [`crate::marketplace::Marketplace`], as a compacted log: the
/// `Configure` of `config`, then `records`, rebuild the campaign book, and
/// the trailer — `clock` and `rng_states` — is what no operation can set.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketState {
    /// Build configuration: the log's `Configure`.
    pub config: MarketConfigState,
    /// One `RegisterAdvertiser` per advertiser, then one `AddCampaign` per
    /// campaign, keyword by keyword in registration order, each paused
    /// campaign's `PauseCampaign` right after it.
    pub records: Vec<MutationRecord>,
    /// Global market clock: auctions served so far.
    pub clock: u64,
    /// Exact xoshiro256** state of each keyword's user-action RNG stream,
    /// indexed by keyword: exactly one per keyword of `config`.
    pub rng_states: Vec<[u64; 4]>,
}
