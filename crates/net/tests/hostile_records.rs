//! The wire half of hostile-record decoding: `Configure` and `AddCampaign`
//! bodies taken from generated markets (`config()` plus `compacted_log()`)
//! and from the golden fixture's snapshot, each damaged once — a byte
//! flipped, the body cut short, a length prefix raised, or two values of
//! one type swapped — then decoded as a wire `Request` and run through
//! what the server's `execute` runs: `MutationRecord::try_from`, then
//! `Marketplace::apply`, on a fresh market (an `AddCampaign` on one
//! configured from the same source, with its advertisers registered).
//!
//! Every case ends one of two ways: a typed `ProtoError` or `MarketError`,
//! or an accepted record that re-encodes to its own bytes, that the market
//! holds exactly as sent (no default stands in for a value it carried),
//! whose probabilities, amounts and sizes are ones the market may accept,
//! and whose keyword still serves. Nothing panics.

use ssa_bidlang::Money;
use ssa_core::{
    CampaignSpec, Marketplace, MutationRecord, PricingScheme, QueryRequest, UserAttrs, WdMethod,
    MAX_KEYWORDS, MAX_SHARDS, MAX_SLOTS,
};
use ssa_net::proto::Request;

/// The golden fixture's snapshot (`tests/fixtures/golden-wal` at the
/// workspace root).
const GOLDEN_SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden-wal/snapshot-00000000000000000019.snap"
);

/// Damaged bodies checked; each is one decode and at most three applies.
const CASES: u64 = 400;

/// One market's records as bodies: its `Configure`, its registrations and
/// its campaigns.
struct Source {
    configure: Vec<u8>,
    registrations: Vec<Vec<u8>>,
    campaigns: Vec<Vec<u8>>,
}

fn body(record: &MutationRecord) -> Vec<u8> {
    let mut bytes = Vec::new();
    record.encode_into(&mut bytes);
    bytes
}

/// The snapshot's records, read off its body: the bytes behind the
/// 28-byte file header, each record behind a `u32` length, up to a zero.
fn golden() -> Source {
    let file = std::fs::read(GOLDEN_SNAPSHOT).expect("the golden snapshot");
    let (mut records, mut pos) = (Vec::new(), 28);
    loop {
        let len = u32::from_le_bytes(file[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if len == 0 {
            break;
        }
        records.push(file[pos..pos + len].to_vec());
        pos += len;
    }
    let mut source = Source {
        configure: records.remove(0),
        registrations: Vec::new(),
        campaigns: Vec::new(),
    };
    for record in records {
        match MutationRecord::decode(&record) {
            Ok(MutationRecord::RegisterAdvertiser { .. }) => source.registrations.push(record),
            Ok(MutationRecord::AddCampaign { .. }) => source.campaigns.push(record),
            _ => {}
        }
    }
    source
}

/// SplitMix64: the cases' one source of choices.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A market of a few advertisers whose campaigns cover every field an
/// `AddCampaign` carries: own and default click rows, purchase rows, ROI
/// targets, targeting texts and a paused campaign.
fn generated(seed: u64) -> Source {
    let mut state = seed;
    let slots = 1 + (mix(&mut state) % 4) as usize;
    let keywords = 1 + (mix(&mut state) % 4) as usize;
    let row = |state: &mut u64| -> Vec<f64> {
        (0..slots)
            .map(|_| (mix(state) % 1_000) as f64 / 1_000.0)
            .collect()
    };
    let mut builder = Marketplace::builder()
        .slots(slots)
        .keywords(keywords)
        .seed(seed)
        .method([WdMethod::Lp, WdMethod::Hungarian, WdMethod::Reduced][seed as usize % 3])
        .pricing([PricingScheme::Gsp, PricingScheme::PayYourBid][seed as usize % 2])
        .default_click_probs(row(&mut state));
    if seed.is_multiple_of(2) {
        builder = builder.default_purchase_probs(vec![(0.25, 0.05); slots]);
    }
    let mut market = builder.build_sharded(1 + seed as usize % 3).expect("valid");
    for adv in 0..3 {
        let advertiser = market.register_advertiser(format!("advertiser-{adv}"));
        for keyword in 0..keywords {
            let bid = Money::from_cents((mix(&mut state) % 90) as i64);
            let mut spec = CampaignSpec::per_click(bid)
                .click_value(Money::from_cents((mix(&mut state) % 200) as i64));
            match mix(&mut state) % 4 {
                0 => spec = spec.click_probs(row(&mut state)),
                1 => spec = spec.purchase_probs(vec![(0.5, 0.125); slots]),
                2 => spec = spec.roi_target(0.5 + (mix(&mut state) % 4) as f64),
                _ => spec = spec.targeting("geo = 'us' and device != 'tv'"),
            }
            let id = market
                .add_campaign(advertiser, keyword, spec)
                .expect("valid");
            if mix(&mut state).is_multiple_of(5) {
                market.pause_campaign(id).expect("known campaign");
            }
        }
    }
    let mut source = Source {
        configure: body(&MutationRecord::Configure(market.config())),
        registrations: Vec::new(),
        campaigns: Vec::new(),
    };
    for record in market.compacted_log() {
        let record = MutationRecord::from(record.expect("per-click campaigns only"));
        match record {
            MutationRecord::RegisterAdvertiser { .. } => source.registrations.push(body(&record)),
            MutationRecord::AddCampaign { .. } => source.campaigns.push(body(&record)),
            _ => {}
        }
    }
    source
}

/// The offsets of `body`'s `u32` length prefixes: a configuration's two
/// default rows, a campaign's two rows and its targeting text.
fn length_prefixes(body: &[u8]) -> Vec<usize> {
    let mut prefixes = Vec::new();
    let mut opt = |at: &mut usize, width: Option<usize>| {
        let present = body[*at] == 1;
        *at += 1;
        if present {
            match width {
                None => *at += 8,
                Some(width) => {
                    prefixes.push(*at);
                    let n = u32::from_le_bytes(body[*at..*at + 4].try_into().unwrap());
                    *at += 4 + n as usize * width;
                }
            }
        }
    };
    if body[0] == 0 {
        // tag, slots, keywords, seed, method, pricing, shards, two flags
        let mut at = 37;
        opt(&mut at, Some(8));
        opt(&mut at, Some(16));
    } else {
        // tag, advertiser, keyword, bid, click value
        let mut at = 33;
        opt(&mut at, None);
        opt(&mut at, Some(8));
        opt(&mut at, Some(16));
        opt(&mut at, Some(1));
    }
    prefixes
}

/// `bytes` with two values of one type swapped, chosen by `pick`: two of a
/// configuration's counts or its two flags; a campaign's advertiser and
/// keyword, or its bid and click value; or a campaign's row swapped for the
/// same row of `other`, another campaign of the same source.
fn swapped(bytes: &[u8], other: &[u8], pick: u64) -> Vec<u8> {
    let mut record = MutationRecord::decode(bytes).expect("an undamaged body");
    let other = MutationRecord::decode(other).expect("an undamaged body");
    match (&mut record, other) {
        (MutationRecord::Configure(config), _) => match pick % 4 {
            0 => std::mem::swap(&mut config.slots, &mut config.keywords),
            1 => std::mem::swap(&mut config.keywords, &mut config.shards),
            2 => std::mem::swap(&mut config.pruned, &mut config.warm_start),
            _ => std::mem::swap(&mut config.slots, &mut config.shards),
        },
        (
            MutationRecord::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                click_probs,
                purchase_probs,
                ..
            },
            MutationRecord::AddCampaign {
                click_probs: other_clicks,
                purchase_probs: other_purchases,
                ..
            },
        ) => match pick % 4 {
            0 => std::mem::swap(advertiser, keyword),
            1 => std::mem::swap(bid_cents, click_value_cents),
            2 => *click_probs = other_clicks,
            _ => *purchase_probs = other_purchases,
        },
        _ => unreachable!("bodies are configurations and campaigns"),
    }
    body(&record)
}

/// A probability row the market may hold: one entry per slot, each in
/// `[0, 1]`.
fn probability_row<'a>(row: impl ExactSizeIterator<Item = &'a f64>, slots: usize) -> bool {
    row.len() == slots && row.into_iter().all(|p| (0.0..=1.0).contains(p))
}

/// The market a damaged `op` runs on: a fresh one, configured and with its
/// advertisers registered from `source` unless `op` is a `Configure`.
fn fresh_market(source: &Source, op: &MutationRecord) -> Marketplace {
    let mut market = Marketplace::builder().build().expect("the default market");
    if !matches!(op, MutationRecord::Configure(_)) {
        for record in std::iter::once(&source.configure).chain(&source.registrations) {
            let record = MutationRecord::decode(record).expect("an undamaged body");
            market
                .apply(record)
                .expect("the source's own records apply");
        }
    }
    market
}

/// How a damaged body ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A typed `ProtoError`.
    Undecoded,
    /// A wire-only request, which carries no operation.
    WireOnly,
    /// A typed `MarketError`.
    Refused,
    /// Applied, and checked.
    Accepted,
}

/// Runs one damaged body the way the server does and checks its outcome.
fn check(source: &Source, bytes: &[u8], case: u64) -> Outcome {
    let Ok(request) = Request::decode(bytes) else {
        return Outcome::Undecoded;
    };
    assert_eq!(
        request.encode(),
        bytes,
        "case {case}: a decoded request re-encodes to its bytes"
    );
    let Ok(op) = MutationRecord::try_from(request) else {
        return Outcome::WireOnly;
    };
    let mut market = fresh_market(source, &op);
    let slots = market.num_slots();
    if market.apply(op.clone()).is_err() {
        return Outcome::Refused;
    }
    match op {
        MutationRecord::Configure(config) => {
            assert!(
                (1..=MAX_SLOTS).contains(&config.slots),
                "case {case}: {config:?}"
            );
            assert!(
                (1..=MAX_KEYWORDS).contains(&config.keywords),
                "case {case}: {config:?}"
            );
            assert!(
                (1..=MAX_SHARDS).contains(&config.shards),
                "case {case}: {config:?}"
            );
            if let Some(row) = &config.default_click_probs {
                assert!(
                    probability_row(row.iter(), config.slots),
                    "case {case}: {row:?}"
                );
            }
            if let Some(row) = &config.default_purchase_probs {
                let flat: Vec<f64> = row.iter().flat_map(|&(a, b)| [a, b]).collect();
                assert!(
                    probability_row(flat.iter(), 2 * config.slots),
                    "case {case}: {row:?}"
                );
            }
            let held = body(&MutationRecord::Configure(market.config()));
            assert_eq!(
                held, bytes,
                "case {case}: the market holds the configuration sent"
            );
        }
        MutationRecord::AddCampaign {
            advertiser,
            keyword,
            bid_cents,
            click_value_cents,
            roi_target,
            click_probs,
            purchase_probs,
            ..
        } => {
            assert!(
                bid_cents >= 0 && click_value_cents >= 0,
                "case {case}: negative money"
            );
            assert!(
                roi_target.is_none_or(|t| t.is_finite() && t > 0.0),
                "case {case}"
            );
            assert!(
                (advertiser as usize) < market.num_advertisers(),
                "case {case}"
            );
            if let Some(row) = &click_probs {
                assert!(probability_row(row.iter(), slots), "case {case}: {row:?}");
            }
            if let Some(row) = &purchase_probs {
                let flat: Vec<f64> = row.iter().flat_map(|&(a, b)| [a, b]).collect();
                assert!(
                    probability_row(flat.iter(), 2 * slots),
                    "case {case}: {row:?}"
                );
            }
            // A campaign that brings both rows is held exactly as sent: no
            // default stands in for anything it carried. (One that leaves a
            // row out takes the configured default, by design.)
            if click_probs.is_some() && purchase_probs.is_some() {
                let held: Vec<Vec<u8>> = market
                    .compacted_log()
                    .map(|record| MutationRecord::from(record.expect("per-click campaigns only")))
                    .filter(|record| matches!(record, MutationRecord::AddCampaign { .. }))
                    .map(|record| body(&record))
                    .collect();
                assert_eq!(
                    held,
                    [bytes],
                    "case {case}: the market holds the campaign sent"
                );
            }
            let query = QueryRequest::with_attrs(keyword as usize, UserAttrs::new().geo("us"));
            market.serve(query).expect("the campaign's keyword serves");
        }
        _ => {}
    }
    Outcome::Accepted
}

#[test]
fn damaged_configure_and_add_campaign_bodies_are_typed_errors_or_exact() {
    let sources = [
        golden(),
        generated(1),
        generated(2),
        generated(3),
        generated(4),
    ];
    for source in &sources {
        assert!(!source.campaigns.is_empty() && !source.registrations.is_empty());
    }
    let mut state = 0x5EED_0003;
    let mut outcomes = Vec::new();
    for case in 0..CASES {
        let source = &sources[(mix(&mut state) % sources.len() as u64) as usize];
        let pick = |state: &mut u64, n: usize| (mix(state) % n as u64) as usize;
        let campaign = pick(&mut state, source.campaigns.len());
        let original = match mix(&mut state) % 3 {
            0 => &source.configure,
            _ => &source.campaigns[campaign],
        };
        let mut bytes = original.clone();
        match case % 4 {
            0 => {
                let at = pick(&mut state, bytes.len());
                bytes[at] ^= 1 + (mix(&mut state) % 255) as u8;
            }
            1 => bytes.truncate(pick(&mut state, bytes.len())),
            2 => {
                let prefixes = length_prefixes(&bytes);
                if prefixes.is_empty() {
                    continue;
                }
                let at = prefixes[pick(&mut state, prefixes.len())];
                let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                let grown = len + 1 + (mix(&mut state) % 64) as u32;
                bytes[at..at + 4].copy_from_slice(&grown.to_le_bytes());
            }
            _ => {
                let other = &source.campaigns[pick(&mut state, source.campaigns.len())];
                bytes = swapped(&bytes, other, mix(&mut state));
            }
        }
        outcomes.push(check(source, &bytes, case));
    }
    // Every way out is taken, so no layer goes untested.
    for outcome in [Outcome::Undecoded, Outcome::Refused, Outcome::Accepted] {
        let n = outcomes.iter().filter(|&&seen| seen == outcome).count();
        println!("{outcome:?}: {n} of {CASES}");
        assert!(n >= 20, "{outcome:?} in only {n} of {CASES} cases");
    }
}
