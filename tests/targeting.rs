//! Typed query targeting, end to end: untargeted markets must ignore
//! attribute bags bit-for-bit (sharded or not), the compiled bytecode
//! matcher must agree with the reference AST evaluator on arbitrary
//! expressions, hostile targeting sources must be rejected with typed
//! errors at the core and wire layers, and targeted campaigns must
//! survive a write-ahead-log recovery bit-identically.

use proptest::collection::vec;
use proptest::prelude::*;
use sponsored_search::bidlang::targeting::{AttrValue, CmpOp, CompiledTargeting, TargetExpr};
use sponsored_search::bidlang::Money;
use sponsored_search::core::{MutationRecord, UserAttrs};
use sponsored_search::durable::{recover, Durability, FsyncPolicy};
use sponsored_search::marketplace::{
    CampaignId, CampaignSpec, MarketError, Marketplace, QueryRequest,
};
use sponsored_search::net::{Client, ErrorCode, NetError, Response, Server, ServerConfig};
use sponsored_search::sharded::ShardedMarketplace;
use sponsored_search::workload::defective_targeting_sources;

const SLOTS: usize = 3;
const KEYWORDS: usize = 2;

/// A small deterministic market: six advertisers, one per-click campaign
/// per keyword, no targeting anywhere.
fn untargeted_market(shards: usize, seed: u64) -> ShardedMarketplace {
    let mut market = Marketplace::builder()
        .slots(SLOTS)
        .keywords(KEYWORDS)
        .seed(seed)
        .default_click_probs(vec![0.7, 0.4, 0.2])
        .build_sharded(shards)
        .expect("valid configuration");
    for i in 0..6i64 {
        let adv = market.register_advertiser(format!("adv-{i}"));
        for keyword in 0..KEYWORDS {
            market
                .add_campaign(
                    adv,
                    keyword,
                    CampaignSpec::per_click(Money::from_cents(10 + 3 * i))
                        .click_value(Money::from_cents(50)),
                )
                .expect("valid campaign");
        }
    }
    market
}

// ---------------------------------------------------------------------------
// Attribute and expression generators.
// ---------------------------------------------------------------------------

/// Keys drawn from a small pool so expressions and attribute bags
/// actually collide.
fn arb_key() -> BoxedStrategy<String> {
    prop_oneof![
        Just("geo"),
        Just("device"),
        Just("age"),
        Just("segment"),
        Just("score"),
    ]
    .prop_map(str::to_string)
    .boxed()
}

fn arb_value() -> BoxedStrategy<AttrValue> {
    prop_oneof![
        (-5i64..5).prop_map(AttrValue::Int),
        prop_oneof![
            Just("us"),
            Just("de"),
            Just("mobile"),
            Just("tv"),
            Just("sports"),
        ]
        .prop_map(|s| AttrValue::Str(s.to_string())),
    ]
    .boxed()
}

fn arb_attrs() -> BoxedStrategy<UserAttrs> {
    vec((arb_key(), arb_value()), 0..5)
        .prop_map(|kv| kv.into_iter().collect::<UserAttrs>())
        .boxed()
}

fn arb_op() -> BoxedStrategy<CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
    .boxed()
}

fn arb_expr() -> BoxedStrategy<TargetExpr> {
    let leaf = prop_oneof![
        (arb_key(), arb_op(), arb_value()).prop_map(|(key, op, value)| TargetExpr::Cmp {
            key,
            op,
            value
        }),
        (arb_key(), vec(arb_value(), 1..4))
            .prop_map(|(key, values)| TargetExpr::In { key, values }),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TargetExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TargetExpr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|e| TargetExpr::Not(Box::new(e))),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An untargeted market serves a query with an arbitrary attribute bag
    /// exactly as it serves the bare keyword — bit-for-bit, at 1 and 4
    /// shards. Targeting must cost nothing when nobody targets.
    #[test]
    fn untargeted_markets_ignore_attrs_bit_identically(
        stream in vec((0usize..KEYWORDS, arb_attrs()), 1..25),
        seed in 0u64..500,
    ) {
        let mut plain = untargeted_market(1, seed);
        let mut attrs_one = untargeted_market(1, seed);
        let mut attrs_four = untargeted_market(4, seed);
        for (t, (keyword, attrs)) in stream.iter().enumerate() {
            let want = plain
                .serve(QueryRequest::new(*keyword))
                .expect("keyword in range");
            let one = attrs_one
                .serve(QueryRequest::with_attrs(*keyword, attrs.clone()))
                .expect("keyword in range");
            let four = attrs_four
                .serve(QueryRequest::with_attrs(*keyword, attrs.clone()))
                .expect("keyword in range");
            prop_assert_eq!(&want, &one, "divergence at query {} (1 shard)", t);
            prop_assert_eq!(&want, &four, "divergence at query {} (4 shards)", t);
            prop_assert_eq!(
                want.expected_revenue.to_bits(),
                four.expected_revenue.to_bits(),
                "revenue bits diverged at query {}",
                t
            );
        }
    }

    /// The postfix bytecode matcher agrees with the reference AST
    /// evaluator on arbitrary expressions and attribute bags.
    #[test]
    fn compiled_matcher_agrees_with_the_reference_evaluator(
        expr in arb_expr(),
        bags in vec(arb_attrs(), 1..12),
    ) {
        let compiled = CompiledTargeting::compile(&expr, "property");
        for attrs in &bags {
            prop_assert_eq!(
                compiled.matches(attrs),
                expr.matches(attrs),
                "compiled and reference disagree on {:?} for {:?}",
                attrs,
                &expr
            );
        }
    }
}

/// Every defective source from the hostile generator is rejected with the
/// typed core error — and the rejection leaves the market untouched.
#[test]
fn hostile_sources_are_rejected_typed_and_leave_the_market_unchanged() {
    let mut market = untargeted_market(2, 77);
    let attacker = market.register_advertiser("attacker".to_string());
    let before = market.capture_state().expect("journalable");
    for source in defective_targeting_sources(25, 99) {
        let err = market
            .add_campaign(
                attacker,
                0,
                CampaignSpec::per_click(Money::from_cents(5)).targeting(source.clone()),
            )
            .expect_err("defective source must not register");
        assert!(
            matches!(err, MarketError::InvalidTargeting(_)),
            "{source:?} rejected with the wrong error: {err:?}"
        );
    }
    assert_eq!(
        market.capture_state().expect("journalable"),
        before,
        "a rejected targeting source mutated the market"
    );
}

/// Targeting over the wire: a campaign registered with a targeting source
/// through `ssa_net::Client` serves attribute queries bit-identically to
/// an in-process twin, defective sources come back as
/// [`ErrorCode::InvalidTargeting`], and the rejections leave both sides
/// aligned.
#[test]
fn targeting_over_the_wire_matches_in_process() {
    let mut twin = untargeted_market(2, 55);
    let serverside = untargeted_market(2, 55);
    let server = Server::bind("127.0.0.1:0", serverside, ServerConfig::default())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(server.addr()).expect("connect");

    let remote_adv = match client
        .apply(MutationRecord::RegisterAdvertiser {
            name: "mobile-first".into(),
        })
        .expect("register over the wire")
    {
        Response::AdvertiserRegistered { advertiser } => advertiser,
        other => panic!("expected a registration, got {other:?}"),
    };
    // A per-click campaign of that advertiser on keyword 0.
    let targeted = |bid_cents, click_value_cents, source: String| MutationRecord::AddCampaign {
        advertiser: remote_adv,
        keyword: 0,
        bid_cents,
        click_value_cents,
        roi_target: None,
        click_probs: None,
        purchase_probs: None,
        targeting: Some(source),
    };
    let local_adv = twin.register_advertiser("mobile-first".to_string());
    let remote_id = match client
        .apply(targeted(30, 70, "device = 'mobile'".to_string()))
        .expect("targeted campaign registers over the wire")
    {
        Response::CampaignAdded { keyword, index } => {
            CampaignId::from_parts(keyword as usize, index as usize)
        }
        other => panic!("expected a campaign, got {other:?}"),
    };
    let local_id = twin
        .add_campaign(
            local_adv,
            0,
            CampaignSpec::per_click(Money::from_cents(30))
                .click_value(Money::from_cents(70))
                .targeting("device = 'mobile'"),
        )
        .expect("targeted campaign registers in process");
    assert_eq!(remote_id, local_id);

    let serve_both = |client: &mut Client, twin: &mut ShardedMarketplace, t: usize| {
        let keyword = t % KEYWORDS;
        let attrs = if t.is_multiple_of(2) {
            UserAttrs::new().device("mobile")
        } else {
            UserAttrs::new().device("desktop").geo("us")
        };
        let remote = client
            .serve_with_attrs(keyword, attrs.clone())
            .expect("wire serve");
        let local = twin
            .serve(QueryRequest::with_attrs(keyword, attrs))
            .expect("twin serve");
        assert_eq!(remote, local, "wire and in-process diverged at query {t}");
        assert_eq!(
            remote.expected_revenue.to_bits(),
            local.expected_revenue.to_bits(),
            "revenue bits diverged at query {t}"
        );
    };
    for t in 0..30 {
        serve_both(&mut client, &mut twin, t);
    }

    for source in defective_targeting_sources(10, 3) {
        match client.apply(targeted(5, 5, source.clone())) {
            Err(NetError::Server {
                code: ErrorCode::InvalidTargeting,
                ..
            }) => {}
            other => panic!("{source:?} over the wire: expected InvalidTargeting, got {other:?}"),
        }
    }
    // The rejected registrations changed nothing: both sides still agree.
    for t in 30..40 {
        serve_both(&mut client, &mut twin, t);
    }

    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

/// Targeted campaigns and attribute queries journal through the
/// write-ahead log: a recovered marketplace is bit-identical to the live
/// one — state and future auctions alike.
#[test]
fn targeted_campaigns_survive_wal_recovery_bit_identically() {
    let dir = std::env::temp_dir().join(format!("ssa-targeting-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (pre, durability) =
        Durability::open(&dir, FsyncPolicy::Off, 0).expect("durable store opens");
    assert!(pre.is_none(), "test requires an empty data directory");

    // The market starts empty; the whole population registers through the
    // journal so recovery replays it — targeting sources included.
    let mut live = Marketplace::builder()
        .slots(SLOTS)
        .keywords(KEYWORDS)
        .seed(2026)
        .default_click_probs(vec![0.7, 0.4, 0.2])
        .build_sharded(2)
        .expect("valid configuration");
    durability
        .log_configure(&live.capture_state().expect("journalable").config)
        .expect("configure journalled");
    live.set_journal(durability.journal());

    for i in 0..5i64 {
        let adv = live.register_advertiser(format!("adv-{i}"));
        for keyword in 0..KEYWORDS {
            let mut spec = CampaignSpec::per_click(Money::from_cents(12 + 4 * i))
                .click_value(Money::from_cents(60));
            if i % 2 == 0 {
                spec = spec.targeting("device = 'mobile' or score >= 3");
            }
            live.add_campaign(adv, keyword, spec)
                .expect("valid campaign");
        }
    }
    let attrs_of = |t: usize| match t % 3 {
        0 => UserAttrs::new().device("mobile"),
        1 => UserAttrs::new().device("desktop").set_int("score", 4),
        _ => UserAttrs::new(),
    };
    for t in 0..30 {
        live.serve(QueryRequest::with_attrs(t % KEYWORDS, attrs_of(t)))
            .expect("keyword in range");
    }
    drop(durability);

    let (mut recovered, report) = recover(&dir)
        .expect("recovery succeeds")
        .expect("the run journalled state");
    assert!(report.wal_records > 0);
    assert_eq!(
        recovered.capture_state().expect("journalable"),
        live.capture_state().expect("journalable"),
        "recovered marketplace diverged from the live one"
    );
    for t in 30..40 {
        let attrs = attrs_of(t);
        let a = live
            .serve(QueryRequest::with_attrs(t % KEYWORDS, attrs.clone()))
            .expect("keyword in range");
        let b = recovered
            .serve(QueryRequest::with_attrs(t % KEYWORDS, attrs))
            .expect("keyword in range");
        assert_eq!(a, b, "post-recovery divergence at query {t}");
        assert_eq!(a.expected_revenue.to_bits(), b.expected_revenue.to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}
