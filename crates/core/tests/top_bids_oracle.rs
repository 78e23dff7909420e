//! `Marketplace::top_bids` and `current_bid` against a reference model
//! that shares no code with the market: every campaign's nominal bid, click
//! value, ROI target and pause flag kept in a plain vector, its effective
//! bid re-derived from the documented rule, and a keyword's book read by
//! sorting those bids.
//!
//! Random streams of `update_bid` / `pause_campaign` / `resume_campaign` /
//! `set_roi_target` (with serves in between) run at one and at four
//! shards, and a market of per-click campaigns only is then checked again
//! after `capture_state` and a restore of the capture (its records
//! replayed, then its clock and RNG positions).

use proptest::prelude::*;
use ssa_bidlang::{BidsTable, Money};
use ssa_core::marketplace::{CampaignId, CampaignSpec, MarketError, Marketplace, QueryRequest};
use ssa_core::TableBidder;

#[path = "support/restore.rs"]
mod restore;

const KEYWORDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    PerClick,
    Table,
    Program,
}

/// What the market should hold for one campaign.
#[derive(Debug, Clone)]
struct Expected {
    id: CampaignId,
    kind: Kind,
    nominal: i64,
    click_value: i64,
    roi_target: Option<f64>,
    paused: bool,
}

impl Expected {
    /// The nominal bid capped at `click_value / roi_target` (whole cents,
    /// rounded down), never below zero; zero while paused; `None` unless
    /// per-click.
    fn current_bid(&self) -> Option<i64> {
        if self.kind != Kind::PerClick {
            return None;
        }
        if self.paused {
            return Some(0);
        }
        let cap = self
            .roi_target
            .map_or(i64::MAX, |t| (self.click_value as f64 / t).floor() as i64);
        Some(self.nominal.min(cap).max(0))
    }
}

/// The reference book of `keyword`: every unpaused per-click campaign by
/// bid descending, ties to the higher index.
fn reference_book(expected: &[Expected], keyword: usize) -> Vec<(CampaignId, Money)> {
    let mut book: Vec<(CampaignId, i64)> = expected
        .iter()
        .filter(|e| e.id.keyword() == keyword && !e.paused)
        .filter_map(|e| Some((e.id, e.current_bid()?)))
        .collect();
    book.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.index().cmp(&a.0.index())));
    book.into_iter()
        .map(|(id, cents)| (id, Money::from_cents(cents)))
        .collect()
}

/// Holds `market` to the model: every campaign's `current_bid`, and every
/// keyword's `top_bids` at no limit, at `limit`, and at zero.
fn check(market: &Marketplace, expected: &[Expected], limit: usize, how: &str) {
    for e in expected {
        let want = match e.current_bid() {
            Some(cents) => Ok(Money::from_cents(cents)),
            None => Err(MarketError::NotIncremental(e.id)),
        };
        assert_eq!(market.current_bid(e.id), want, "{how}: {e:?}");
    }
    for keyword in 0..KEYWORDS {
        let book = reference_book(expected, keyword);
        assert_eq!(
            market.top_bids(keyword, usize::MAX).unwrap(),
            book,
            "{how}: keyword {keyword}"
        );
        assert_eq!(
            market.top_bids(keyword, limit).unwrap(),
            book[..limit.min(book.len())],
            "{how}: keyword {keyword}, limit {limit}"
        );
        assert!(market.top_bids(keyword, 0).unwrap().is_empty(), "{how}");
    }
}

/// Registers `campaigns` — `(keyword, kind, bid, click value)`, kind 0–3
/// per-click, 4 a fixed table, 5 a program — on a fresh market.
fn populate(shards: usize, campaigns: &[(usize, u8, i64, i64)]) -> (Marketplace, Vec<Expected>) {
    let mut market = Marketplace::builder()
        .slots(2)
        .keywords(KEYWORDS)
        .seed(5)
        .default_click_probs(vec![0.6, 0.3])
        .build_sharded(shards)
        .expect("valid configuration");
    let advertiser = market.register_advertiser("a");
    let mut expected = Vec::new();
    for &(keyword, kind, bid, click_value) in campaigns {
        let table = BidsTable::single_feature(Money::from_cents(bid));
        let (kind, spec) = match kind {
            0..=3 => (
                Kind::PerClick,
                CampaignSpec::per_click(Money::from_cents(bid))
                    .click_value(Money::from_cents(click_value)),
            ),
            4 => (Kind::Table, CampaignSpec::table(table)),
            _ => (
                Kind::Program,
                CampaignSpec::program(Box::new(TableBidder::new(table))),
            ),
        };
        let id = market
            .add_campaign(advertiser, keyword, spec)
            .expect("accepted");
        expected.push(Expected {
            id,
            kind,
            nominal: bid,
            click_value,
            roi_target: None,
            paused: false,
        });
    }
    (market, expected)
}

/// Applies one operation — `(op, campaign pick, value, target)` — to the
/// market and the model alike.
fn apply(market: &mut Marketplace, expected: &mut [Expected], op: (u8, usize, i64, f64)) {
    let (op, pick, value, target) = op;
    if op == 6 {
        market
            .serve(QueryRequest::new(pick % KEYWORDS))
            .expect("keyword in range");
        return;
    }
    if expected.is_empty() {
        return;
    }
    let e = &mut expected[pick % expected.len()];
    let per_click = e.kind == Kind::PerClick;
    let result = match op {
        0 | 1 => {
            let result = market.update_bid(e.id, Money::from_cents(value));
            if per_click {
                e.nominal = value;
            }
            result
        }
        2 | 3 => {
            e.paused = op == 2;
            let result = if e.paused {
                market.pause_campaign(e.id)
            } else {
                market.resume_campaign(e.id)
            };
            result.expect("every kind pauses and resumes");
            return;
        }
        4 => {
            let result = market.set_roi_target(e.id, Some(target));
            if per_click {
                e.roi_target = Some(target);
            }
            result
        }
        _ => {
            let result = market.set_roi_target(e.id, None);
            if per_click {
                e.roi_target = None;
            }
            result
        }
    };
    let want = if per_click {
        Ok(())
    } else {
        Err(MarketError::NotIncremental(e.id))
    };
    assert_eq!(result, want, "{e:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn top_bids_is_the_sorted_book_of_unpaused_per_click_bids(
        campaigns in proptest::collection::vec((0usize..KEYWORDS, 0u8..6, 0i64..12, 0i64..40), 0..24),
        durable_only in any::<bool>(),
        ops in proptest::collection::vec((0u8..7, 0usize..64, 0i64..12, 0.5f64..4.0), 0..80),
        limit in 0usize..10,
    ) {
        // A durable market holds per-click campaigns only.
        let campaigns: Vec<_> = campaigns
            .into_iter()
            .map(|(kw, kind, bid, value)| (kw, if durable_only { kind % 4 } else { kind }, bid, value))
            .collect();
        for shards in [1, 4] {
            let (mut market, mut expected) = populate(shards, &campaigns);
            for (t, &op) in ops.iter().enumerate() {
                apply(&mut market, &mut expected, op);
                check(&market, &expected, limit, &format!("shards={shards} op {t} {op:?}"));
            }
            if durable_only {
                let state = market.capture_state().expect("per-click campaigns only");
                let restored = restore::restored(&state);
                check(&restored, &expected, limit, &format!("shards={shards} restored"));
            }
        }
    }
}
