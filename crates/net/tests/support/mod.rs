//! The records the wire suites send through `Client::apply`, and the
//! handles read back off their replies.

#![allow(dead_code)]

use ssa_bidlang::Money;
use ssa_core::{AdvertiserHandle, CampaignId, Marketplace, MutationRecord};
use ssa_net::server::build_market;
use ssa_net::{MarketConfig, Response};
use ssa_workload::SectionVWorkload;

/// The in-process marketplace a server holds after
/// `Request::Configure(config)` and the untargeted population's
/// `SectionVWorkload::records`: the oracle for equivalence checks.
/// Outcomes do not depend on `config.shards`, so the twin may run any
/// shard count.
pub fn local_twin(workload: &SectionVWorkload, config: &MarketConfig) -> Marketplace {
    let mut market = build_market(config).expect("twin configuration is valid");
    workload
        .populate(&mut market, false)
        .expect("Section V campaign is valid");
    market
}

/// Registers an advertiser named `name`.
pub fn register(name: &str) -> MutationRecord {
    MutationRecord::RegisterAdvertiser { name: name.into() }
}

/// Opens an untargeted per-click campaign.
pub fn add_campaign(
    advertiser: AdvertiserHandle,
    keyword: usize,
    bid: Money,
    click_value: Money,
    roi_target: Option<f64>,
    click_probs: Option<Vec<f64>>,
) -> MutationRecord {
    MutationRecord::AddCampaign {
        advertiser: advertiser.index() as u64,
        keyword: keyword as u64,
        bid_cents: bid.cents(),
        click_value_cents: click_value.cents(),
        roi_target,
        click_probs,
        purchase_probs: None,
        targeting: None,
    }
}

/// The advertiser a `RegisterAdvertiser` reply names.
pub fn advertiser(reply: Response) -> AdvertiserHandle {
    match reply {
        Response::AdvertiserRegistered { advertiser } => {
            AdvertiserHandle::from_index(advertiser as usize)
        }
        other => panic!("expected a registration, got {other:?}"),
    }
}

/// The campaign an `AddCampaign` reply names.
pub fn campaign(reply: Response) -> CampaignId {
    match reply {
        Response::CampaignAdded { keyword, index } => {
            CampaignId::from_parts(keyword as usize, index as usize)
        }
        other => panic!("expected a campaign, got {other:?}"),
    }
}

/// Sets a per-click campaign's bid.
pub fn update_bid(id: CampaignId, bid: Money) -> MutationRecord {
    MutationRecord::UpdateBid {
        keyword: id.keyword() as u64,
        index: id.index() as u64,
        bid_cents: bid.cents(),
    }
}
