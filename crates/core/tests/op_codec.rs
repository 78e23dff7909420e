//! The operation codec under hostile input — one table-driven suite for the
//! one codec. The write-ahead log and the wire protocol both carry these
//! bodies, so the cases their codecs used to test separately (every-byte
//! truncation, trailing bytes, absurd counts rejected before allocation,
//! unknown tags, `f64` bit-exactness) are checked once, here.

use ssa_core::{CodecError, MarketConfigState, MutationRecord, PricingScheme, UserAttrs, WdMethod};

fn encode(op: &MutationRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    op.encode_into(&mut buf);
    buf
}

fn config() -> MarketConfigState {
    MarketConfigState {
        slots: 3,
        keywords: 11,
        seed: 42,
        method: WdMethod::Hungarian,
        pricing: PricingScheme::Gsp,
        shards: 4,
        pruned: true,
        warm_start: false,
        default_click_probs: Some(vec![0.3, 0.2, 0.1]),
        default_purchase_probs: None,
    }
}

/// Every variant, with its optional fields both present and absent.
fn samples() -> Vec<MutationRecord> {
    vec![
        MutationRecord::Configure(config()),
        MutationRecord::Configure(MarketConfigState {
            method: WdMethod::Lp,
            pricing: PricingScheme::Vickrey,
            default_click_probs: None,
            default_purchase_probs: Some(vec![(0.5, 0.25)]),
            ..config()
        }),
        MutationRecord::RegisterAdvertiser {
            name: "books.example — книги".into(),
        },
        MutationRecord::AddCampaign {
            advertiser: 1,
            keyword: 7,
            bid_cents: 125,
            click_value_cents: 600,
            roi_target: Some(1.25),
            click_probs: Some(vec![0.5, 0.25]),
            purchase_probs: Some(vec![(0.1, 0.01), (0.05, 0.002)]),
            targeting: Some("geo = 'us' and age >= 21".into()),
        },
        MutationRecord::AddCampaign {
            advertiser: 0,
            keyword: 0,
            bid_cents: 0,
            click_value_cents: 0,
            roi_target: None,
            click_probs: None,
            purchase_probs: None,
            targeting: None,
        },
        MutationRecord::UpdateBid {
            keyword: 3,
            index: 2,
            bid_cents: -1,
        },
        MutationRecord::PauseCampaign {
            keyword: 1,
            index: 0,
        },
        MutationRecord::ResumeCampaign {
            keyword: 1,
            index: 0,
        },
        MutationRecord::SetRoiTarget {
            keyword: 2,
            index: 1,
            target: None,
        },
        MutationRecord::SetRoiTarget {
            keyword: u64::MAX,
            index: 1,
            target: Some(2.5),
        },
        MutationRecord::Serve {
            keyword: 9,
            attrs: UserAttrs::new(),
        },
        MutationRecord::Serve {
            keyword: 2,
            attrs: UserAttrs::new()
                .geo("us")
                .device("mobile")
                .set_int("age", -3),
        },
        MutationRecord::ServeBatch { queries: vec![] },
        MutationRecord::ServeBatch {
            queries: vec![
                (0, UserAttrs::new()),
                (9, UserAttrs::new().segment("gamer")),
                (4, UserAttrs::new().set_int("score", i64::MAX)),
                (4, UserAttrs::new().set_int("score", i64::MIN)),
                (1, UserAttrs::new()),
            ],
        },
    ]
}

#[test]
fn every_operation_round_trips() {
    for op in samples() {
        assert_eq!(
            MutationRecord::decode(&encode(&op)).as_ref(),
            Ok(&op),
            "{op:?}"
        );
    }
}

/// Decoding is left to right with mandatory full consumption, so every
/// strict prefix ends mid-field and every extension leaves bytes over.
#[test]
fn every_truncation_and_every_extension_is_a_typed_error() {
    for op in samples() {
        let body = encode(&op);
        for len in 0..body.len() {
            assert!(
                MutationRecord::decode(&body[..len]).is_err(),
                "{len}-byte prefix of {op:?} decoded"
            );
        }
        for extra in 1..4 {
            let mut long = body.clone();
            long.resize(body.len() + extra, 0);
            assert_eq!(
                MutationRecord::decode(&long),
                Err(CodecError::Trailing { extra }),
                "{op:?}"
            );
        }
    }
}

fn bytes(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

/// Hand-built hostile bodies and the exact typed error each must produce —
/// in particular a count that claims more elements than the buffer could
/// hold is rejected before anything is allocated for it.
#[test]
fn hostile_bodies_are_typed_errors() {
    let max = &u32::MAX.to_le_bytes()[..];
    let kw = &7u64.to_le_bytes()[..];
    let cases: Vec<(&str, Vec<u8>, CodecError)> = vec![
        (
            "empty body",
            vec![],
            CodecError::Truncated {
                what: "operation tag",
            },
        ),
        (
            "unknown operation tag",
            vec![200, 0, 0, 0],
            CodecError::UnknownTag {
                what: "operation",
                tag: 200,
            },
        ),
        (
            "a wire-only request tag is no operation",
            vec![9],
            CodecError::UnknownTag {
                what: "operation",
                tag: 9,
            },
        ),
        (
            "ServeBatch claiming u32::MAX queries in a 13-byte body",
            bytes(&[&[8], max, &[0; 8]]),
            CodecError::Oversized {
                what: "batch queries",
                len: u32::MAX as u64,
            },
        ),
        (
            "ServeBatch claiming one query more than its bytes hold",
            bytes(&[&[8], &2u32.to_le_bytes(), kw, &[0; 4]]),
            CodecError::Oversized {
                what: "batch queries",
                len: 2,
            },
        ),
        (
            "Serve whose attribute bag claims u32::MAX entries",
            bytes(&[&[7], kw, max]),
            CodecError::Oversized {
                what: "serve attrs",
                len: u32::MAX as u64,
            },
        ),
        (
            "RegisterAdvertiser whose name claims u32::MAX bytes",
            bytes(&[&[1], max, b"abc"]),
            CodecError::Oversized {
                what: "advertiser name",
                len: u32::MAX as u64,
            },
        ),
        (
            "AddCampaign whose click model claims u32::MAX slots",
            bytes(&[&[2], kw, kw, &[0; 16], &[0], &[1], max]),
            CodecError::Oversized {
                what: "campaign click probs",
                len: u32::MAX as u64,
            },
        ),
        (
            "RegisterAdvertiser with invalid UTF-8",
            bytes(&[&[1], &2u32.to_le_bytes(), &[0xC3, 0x28]]),
            CodecError::InvalidUtf8 {
                what: "advertiser name",
            },
        ),
        (
            "SetRoiTarget with an option byte that is neither 0 nor 1",
            bytes(&[&[6], kw, kw, &[7]]),
            CodecError::UnknownTag {
                what: "roi target",
                tag: 7,
            },
        ),
        (
            "Serve with an attribute value tag that is neither int nor string",
            bytes(&[
                &[7],
                kw,
                &1u32.to_le_bytes(),
                &1u32.to_le_bytes(),
                b"k",
                &[9],
                &[0; 8],
            ]),
            CodecError::UnknownTag {
                what: "serve attrs",
                tag: 9,
            },
        ),
        (
            "Configure with an unknown method",
            bytes(&[&[0], &[0; 24], &[4]]),
            CodecError::UnknownTag {
                what: "method",
                tag: 4,
            },
        ),
        (
            "Configure with method tag 3, the retired rhp: reserved, never reassigned",
            bytes(&[&[0], &[0; 24], &[3], &2u32.to_le_bytes(), &[1]]),
            CodecError::UnknownTag {
                what: "method",
                tag: 3,
            },
        ),
        (
            "Configure with an unknown pricing rule",
            bytes(&[&[0], &[0; 24], &[2], &[3]]),
            CodecError::UnknownTag {
                what: "pricing",
                tag: 3,
            },
        ),
        (
            "Configure with a flag byte that is not a bool",
            bytes(&[&[0], &[0; 24], &[2], &[1], &[0; 8], &[2]]),
            CodecError::UnknownTag {
                what: "config pruned",
                tag: 2,
            },
        ),
    ];
    for (name, body, expected) in cases {
        assert_eq!(MutationRecord::decode(&body), Err(expected), "{name}");
    }
}

/// Floats travel as raw bits: recovery and the wire are bit-identical, so
/// `-0.0`, subnormals and a NaN payload must all survive, which `==` on
/// `f64` would not show.
#[test]
fn f64_fields_are_bit_exact() {
    let tricky = [
        0.1 + 0.2,
        f64::MIN_POSITIVE,
        1.0e308,
        -0.0,
        f64::from_bits(0x3FF0_0000_0000_0001),
        f64::from_bits(0x7FF8_0000_0000_BEEF),
    ];
    let op = MutationRecord::AddCampaign {
        advertiser: 0,
        keyword: 0,
        bid_cents: 1,
        click_value_cents: 1,
        roi_target: Some(tricky[0]),
        click_probs: Some(tricky.to_vec()),
        purchase_probs: Some(tricky.iter().map(|&v| (v, -v)).collect()),
        targeting: None,
    };
    let MutationRecord::AddCampaign {
        roi_target: Some(roi),
        click_probs: Some(clicks),
        purchase_probs: Some(purchases),
        ..
    } = MutationRecord::decode(&encode(&op)).expect("round trip")
    else {
        panic!("decoded to another variant");
    };
    assert_eq!(roi.to_bits(), tricky[0].to_bits());
    for (i, v) in tricky.iter().enumerate() {
        assert_eq!(clicks[i].to_bits(), v.to_bits());
        assert_eq!(purchases[i].0.to_bits(), v.to_bits());
        assert_eq!(purchases[i].1.to_bits(), (-v).to_bits());
    }
}
