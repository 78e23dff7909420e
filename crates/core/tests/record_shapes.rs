//! A per-click campaign's record changes shape under the update API —
//! held in line, then boxed once an update takes it past what the inline
//! record holds (a bid of 2³² cents, an ROI target), then in line again —
//! and nothing a caller can see depends on the shape.
//!
//! One campaign walks inline → boxed → inline through `update_bid`,
//! `set_roi_target` and a pause and resume, on one shard and on two. After
//! every step the live market is held to a twin built straight from the
//! campaign's current spec (and the live clock and RNG streams): the
//! effective bid, every keyword's `top_bids`, the compacted log's bytes and
//! the outcomes of the next queries are equal, and the live market's
//! journal replayed on a fresh market recovers it exactly.

use ssa_bidlang::Money;
use ssa_core::footprint::Component;
use ssa_core::journal::MutationJournal;
use ssa_core::marketplace::{CampaignId, CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{MarketState, MutationRecord};
use std::sync::{Arc, Mutex};

#[path = "support/restore.rs"]
mod restore;

const KEYWORDS: usize = 4;
const ADVERTISERS: usize = 5;
/// The advertiser and keyword of the campaign under test.
const SUBJECT: (usize, usize) = (2, 1);
const CLICK_VALUE: i64 = 100;

/// Collects every journalled record.
#[derive(Debug, Default, Clone)]
struct Journal(Arc<Mutex<Vec<MutationRecord>>>);

impl MutationJournal for Journal {
    fn record(&mut self, record: &MutationRecord) {
        self.0.lock().expect("journal lock").push(record.clone());
    }
}

/// The campaign under test as a spec would register it.
#[derive(Debug, Clone, Copy)]
struct Subject {
    bid: i64,
    roi_target: Option<f64>,
    paused: bool,
}

impl Subject {
    fn spec(self) -> CampaignSpec {
        let spec = CampaignSpec::per_click(Money::from_cents(self.bid))
            .click_value(Money::from_cents(CLICK_VALUE));
        match self.roi_target {
            Some(target) => spec.roi_target(target),
            None => spec,
        }
    }

    /// The documented effective bid: the nominal bid capped at
    /// `click_value / target`, zero while paused.
    fn effective_bid(self) -> Money {
        let cap = (self.roi_target).map_or(i64::MAX, |t| (CLICK_VALUE as f64 / t).floor() as i64);
        Money::from_cents(if self.paused { 0 } else { self.bid.min(cap) })
    }
}

/// A market of `ADVERTISERS` advertisers with a per-click campaign on every
/// keyword, the subject's registered from `subject`; returns the subject's id.
fn populate(market: &mut Marketplace, subject: Subject) -> CampaignId {
    let mut id = None;
    for adv in 0..ADVERTISERS {
        let advertiser = market.register_advertiser(format!("advertiser-{adv}"));
        for keyword in 0..KEYWORDS {
            let spec = if (adv, keyword) == SUBJECT {
                subject.spec()
            } else {
                let bid = 10 + ((adv * 7 + keyword * 3) % 40) as i64;
                CampaignSpec::per_click(Money::from_cents(bid))
            };
            let added = market.add_campaign(advertiser, keyword, spec);
            let added = added.expect("campaign accepted");
            if (adv, keyword) == SUBJECT {
                id = Some(added);
            }
        }
    }
    let id = id.expect("the subject is registered");
    if subject.paused {
        market.pause_campaign(id).expect("campaign exists");
    }
    id
}

/// The live market's twin: the market `subject` registers from scratch,
/// at the live market's clock and RNG positions.
fn twin(live: &Marketplace, subject: Subject) -> Marketplace {
    let mut built = Marketplace::from_config(&live.config()).expect("valid configuration");
    populate(&mut built, subject);
    let state = MarketState {
        config: live.config(),
        records: built.capture_state().expect("per-click only").records,
        clock: live.now(),
        rng_states: live.rng_states().collect(),
    };
    restore::restored(&state)
}

/// The compacted log's bytes, record after record.
fn log_bytes(market: &Marketplace) -> Vec<u8> {
    let mut bytes = Vec::new();
    for record in market.compacted_log() {
        record.expect("per-click only").encode_into(&mut bytes);
    }
    bytes
}

/// Holds the live market to its twin after one step, then serves both.
fn check(live: &mut Marketplace, journal: &Journal, id: CampaignId, subject: Subject, boxed: bool) {
    let step = format!("{subject:?} on {} shards", live.num_shards());
    let mut twin = twin(live, subject);
    let holds = live.footprint().get(Component::BoxedCampaigns).allocations;
    assert_eq!(holds, usize::from(boxed), "boxed records after {step}");
    assert_eq!(live.current_bid(id), Ok(subject.effective_bid()), "{step}");
    assert_eq!(live.current_bid(id), twin.current_bid(id), "{step}");
    for keyword in 0..KEYWORDS {
        assert_eq!(
            live.top_bids(keyword, ADVERTISERS),
            twin.top_bids(keyword, ADVERTISERS)
        );
    }
    assert_eq!(
        log_bytes(live),
        log_bytes(&twin),
        "compacted log after {step}"
    );

    let mut recovered = Marketplace::from_config(&live.config()).expect("valid configuration");
    for record in journal.0.lock().expect("journal lock").iter() {
        recovered
            .apply(record.clone())
            .expect("a journalled record applies");
    }
    assert_eq!(
        recovered.capture_state(),
        live.capture_state(),
        "replay after {step}"
    );

    for keyword in (0..KEYWORDS).chain([SUBJECT.1; 3]) {
        let query = QueryRequest::new(keyword);
        assert_eq!(live.serve(query.clone()), twin.serve(query), "{step}");
    }
    let stream: Vec<QueryRequest> = (0..12).map(|i| QueryRequest::new(i % KEYWORDS)).collect();
    assert_eq!(
        live.serve_batch(&stream),
        twin.serve_batch(&stream),
        "{step}"
    );
}

#[test]
fn a_campaign_moves_in_and_out_of_its_box_without_a_visible_change() {
    let past_u32 = 1_i64 << 32;
    for shards in [1, 2] {
        let mut live = Marketplace::builder()
            .slots(3)
            .keywords(KEYWORDS)
            .seed(11)
            .default_click_probs(vec![0.5, 0.3, 0.1])
            .build_sharded(shards)
            .expect("valid configuration");
        let journal = Journal::default();
        live.set_journal(Box::new(journal.clone()));
        let mut subject = Subject {
            bid: 30,
            roi_target: None,
            paused: false,
        };
        let id = populate(&mut live, subject);
        check(&mut live, &journal, id, subject, false);

        subject.bid = past_u32;
        live.update_bid(id, Money::from_cents(past_u32))
            .expect("per-click");
        check(&mut live, &journal, id, subject, true);
        subject.bid = 45;
        live.update_bid(id, Money::from_cents(45))
            .expect("per-click");
        check(&mut live, &journal, id, subject, false);

        subject.roi_target = Some(2.5);
        live.set_roi_target(id, Some(2.5)).expect("per-click");
        check(&mut live, &journal, id, subject, true);
        subject.roi_target = None;
        live.set_roi_target(id, None).expect("per-click");
        check(&mut live, &journal, id, subject, false);

        // The pause flag moves with the record, both ways.
        subject.paused = true;
        live.pause_campaign(id).expect("campaign exists");
        check(&mut live, &journal, id, subject, false);
        subject.bid = past_u32;
        live.update_bid(id, Money::from_cents(past_u32))
            .expect("per-click");
        check(&mut live, &journal, id, subject, true);
        subject.paused = false;
        live.resume_campaign(id).expect("campaign exists");
        check(&mut live, &journal, id, subject, true);
        subject.paused = true;
        live.pause_campaign(id).expect("campaign exists");
        subject.bid = 20;
        live.update_bid(id, Money::from_cents(20))
            .expect("per-click");
        check(&mut live, &journal, id, subject, false);
        subject.paused = false;
        live.resume_campaign(id).expect("campaign exists");
        check(&mut live, &journal, id, subject, false);
    }
}
