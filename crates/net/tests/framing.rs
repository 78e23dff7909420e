//! Property tests for the framing + proto layers: every message type
//! round-trips bit-exactly, and hostile inputs (truncations, oversized
//! length prefixes, unknown tags, random bytes) produce typed errors —
//! never a panic, never an attacker-sized allocation — and a frame the
//! codec accepts never takes the server down.

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

use ssa_bidlang::Money;
use ssa_core::{AttrValue, MutationRecord, PricingScheme, ShardedMarketplace, UserAttrs, WdMethod};
use ssa_durable::{Durability, FsyncPolicy};
use ssa_net::client::Client;
use ssa_net::frame::{
    encode_frame, read_frame, FrameError, FrameKind, HEADER_TAIL, MAX_FRAME, PROTO_VERSION,
};
use ssa_net::proto::{
    BatchSummary, ErrorCode, MarketConfig, ProtoError, Request, Response, ServerStats, WireAuction,
    WirePlacement,
};
use ssa_net::server::{Server, ServerConfig};

fn arb_method() -> BoxedStrategy<WdMethod> {
    prop_oneof![
        Just(WdMethod::Lp),
        Just(WdMethod::Hungarian),
        Just(WdMethod::Reduced),
    ]
    .boxed()
}

fn arb_pricing() -> BoxedStrategy<PricingScheme> {
    prop_oneof![
        Just(PricingScheme::PayYourBid),
        Just(PricingScheme::Gsp),
        Just(PricingScheme::Vickrey),
    ]
    .boxed()
}

fn arb_config() -> BoxedStrategy<MarketConfig> {
    (
        (any::<usize>(), any::<usize>(), any::<u64>(), any::<usize>()),
        (arb_method(), arb_pricing(), any::<bool>(), any::<bool>()),
        (
            option::of(vec(any::<f64>(), 0..16)),
            option::of(vec((any::<f64>(), any::<f64>()), 0..16)),
        ),
    )
        .prop_map(
            |(
                (slots, keywords, seed, shards),
                (method, pricing, pruned, warm_start),
                (default_click_probs, default_purchase_probs),
            )| {
                MarketConfig {
                    slots,
                    keywords,
                    seed,
                    method,
                    pricing,
                    shards,
                    pruned,
                    warm_start,
                    default_click_probs,
                    default_purchase_probs,
                }
            },
        )
        .boxed()
}

fn arb_attr_value() -> BoxedStrategy<AttrValue> {
    prop_oneof![
        any::<i64>().prop_map(AttrValue::Int),
        ".{0,12}".prop_map(AttrValue::Str),
    ]
    .boxed()
}

fn arb_attrs() -> BoxedStrategy<UserAttrs> {
    vec(("[a-z_]{1,10}", arb_attr_value()), 0..5)
        .prop_map(|kv| kv.into_iter().collect::<UserAttrs>())
        .boxed()
}

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Ping),
        (any::<u64>(), arb_attrs()).prop_map(|(keyword, attrs)| Request::Serve { keyword, attrs }),
        vec((any::<u64>(), arb_attrs()), 0..50).prop_map(|queries| Request::ServeBatch { queries }),
        ".{0,40}".prop_map(|name| Request::RegisterAdvertiser { name }),
        (
            (any::<u64>(), any::<u64>(), any::<i64>(), any::<i64>()),
            (
                option::of(any::<f64>()),
                option::of(vec(any::<f64>(), 0..16)),
                option::of(vec((any::<f64>(), any::<f64>()), 0..16)),
                option::of(".{0,40}"),
            ),
        )
            .prop_map(
                |(
                    (advertiser, keyword, bid_cents, click_value_cents),
                    (roi_target, click_probs, purchase_probs, targeting),
                )| {
                    Request::AddCampaign {
                        advertiser,
                        keyword,
                        bid_cents,
                        click_value_cents,
                        roi_target,
                        click_probs,
                        purchase_probs,
                        targeting,
                    }
                }
            ),
        (any::<u64>(), any::<u64>(), any::<i64>()).prop_map(|(keyword, index, bid_cents)| {
            Request::UpdateBid {
                keyword,
                index,
                bid_cents,
            }
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(keyword, index)| Request::PauseCampaign { keyword, index }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(keyword, index)| Request::ResumeCampaign { keyword, index }),
        (any::<u64>(), any::<u64>(), option::of(any::<f64>())).prop_map(
            |(keyword, index, target)| Request::SetRoiTarget {
                keyword,
                index,
                target,
            }
        ),
        (any::<u64>(), any::<u64>())
            .prop_map(|(keyword, limit)| Request::TopBids { keyword, limit }),
        Just(Request::Stats),
        arb_config().prop_map(Request::Configure),
        Just(Request::Shutdown),
    ]
    .boxed()
}

fn arb_placement() -> BoxedStrategy<WirePlacement> {
    (
        (any::<u16>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<bool>(), any::<i64>()),
    )
        .prop_map(
            |(
                (slot_position, campaign_keyword, campaign_index, advertiser),
                (clicked, purchased, charge_cents),
            )| WirePlacement {
                slot_position,
                campaign_keyword,
                campaign_index,
                advertiser,
                clicked,
                purchased,
                charge_cents,
            },
        )
        .boxed()
}

fn arb_auction() -> BoxedStrategy<WireAuction> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<f64>(),
        any::<i64>(),
        vec(arb_placement(), 0..6),
        vec((any::<u64>(), any::<u64>(), any::<i64>()), 0..6),
    )
        .prop_map(
            |(keyword, time, expected_revenue, realized_cents, placements, charges)| WireAuction {
                keyword,
                time,
                expected_revenue,
                realized_cents,
                placements,
                charges,
            },
        )
        .boxed()
}

fn arb_error_code() -> BoxedStrategy<ErrorCode> {
    prop_oneof![
        Just(ErrorCode::UnknownAdvertiser),
        Just(ErrorCode::UnknownKeyword),
        Just(ErrorCode::UnknownCampaign),
        Just(ErrorCode::ModelDimension),
        Just(ErrorCode::InvalidProbability),
        Just(ErrorCode::MissingClickModel),
        Just(ErrorCode::NotIncremental),
        Just(ErrorCode::NegativeBid),
        Just(ErrorCode::InvalidRoiTarget),
        Just(ErrorCode::InvalidConfig),
        Just(ErrorCode::ShuttingDown),
        Just(ErrorCode::Unsupported),
        Just(ErrorCode::InvalidTargeting),
    ]
    .boxed()
}

fn arb_stats() -> BoxedStrategy<ServerStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (advertisers, campaigns, keywords, slots),
                (shards, auctions, sessions, requests, overloaded),
                (wal_records, snapshot_seq),
            )| ServerStats {
                advertisers,
                campaigns,
                keywords,
                slots,
                shards,
                auctions,
                sessions,
                requests,
                overloaded,
                wal_records,
                snapshot_seq,
            },
        )
        .boxed()
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        (any::<u64>(), any::<u8>()).prop_map(|(session, proto_version)| Response::Pong {
            session,
            proto_version,
        }),
        arb_auction().prop_map(Response::Served),
        (
            (any::<u64>(), any::<f64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<i64>(), any::<u64>()),
        )
            .prop_map(
                |(
                    (auctions, expected_revenue, filled_slots),
                    (clicks, purchases, realized_cents, chunks),
                )| {
                    Response::BatchServed(BatchSummary {
                        auctions,
                        expected_revenue,
                        filled_slots,
                        clicks,
                        purchases,
                        realized_cents,
                        chunks,
                    })
                }
            ),
        any::<u64>().prop_map(|advertiser| Response::AdvertiserRegistered { advertiser }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(keyword, index)| Response::CampaignAdded { keyword, index }),
        Just(Response::Ack),
        vec((any::<u64>(), any::<u64>(), any::<i64>()), 0..12)
            .prop_map(|bids| Response::TopBids { bids }),
        arb_stats().prop_map(Response::Stats),
        (arb_error_code(), ".{0,60}")
            .prop_map(|(code, message)| Response::Failed { code, message }),
        any::<u32>().prop_map(|retry_after_ms| Response::Overloaded { retry_after_ms }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request round-trips bit-exactly through its payload encoding
    /// AND through the full framing layer.
    #[test]
    fn requests_round_trip(request in arb_request(), request_id in any::<u64>()) {
        let payload = request.encode();
        prop_assert_eq!(Request::decode(&payload).as_ref(), Ok(&request));

        let framed = encode_frame(FrameKind::Request, request_id, &payload);
        let frame = read_frame(&mut framed.as_slice()).unwrap().unwrap();
        prop_assert_eq!(frame.kind, FrameKind::Request);
        prop_assert_eq!(frame.request_id, request_id);
        prop_assert_eq!(Request::decode(&frame.payload), Ok(request));
    }

    /// Every response round-trips bit-exactly (f64 fields travel as raw
    /// bits, so PartialEq on the decoded value is a bit-level check for
    /// every generated finite float).
    #[test]
    fn responses_round_trip(response in arb_response(), request_id in any::<u64>()) {
        let payload = response.encode();
        prop_assert_eq!(Response::decode(&payload).as_ref(), Ok(&response));

        let framed = encode_frame(FrameKind::Response, request_id, &payload);
        let frame = read_frame(&mut framed.as_slice()).unwrap().unwrap();
        prop_assert_eq!(Response::decode(&frame.payload), Ok(response));
    }

    /// Truncating a valid message payload anywhere yields a typed error —
    /// decoding is left-to-right with mandatory full consumption, so a
    /// strict prefix always ends mid-field.
    #[test]
    fn truncated_payloads_are_typed_errors(request in arb_request(), frac in 0.0f64..1.0) {
        let payload = request.encode();
        if payload.len() > 1 {
            let cut = 1 + ((payload.len() - 1) as f64 * frac) as usize;
            if cut < payload.len() {
                prop_assert!(Request::decode(&payload[..cut]).is_err());
            }
        }
    }

    /// Arbitrary bytes never panic a decoder; they either parse or come
    /// back as a typed error.
    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..300)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// A length prefix beyond MAX_FRAME is rejected as TooLarge before any
    /// allocation, whatever bytes follow it.
    #[test]
    fn oversized_length_prefixes_rejected(
        len in (MAX_FRAME + 1)..=u32::MAX,
        tail in vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::TooLarge { len, max: MAX_FRAME })
        );
    }

    /// Unknown message tags are typed ProtoErrors, on both sides of the
    /// protocol.
    #[test]
    fn unknown_tags_are_typed(tag in 13u8..=255, tail in vec(any::<u8>(), 0..32)) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(
            Request::decode(&bytes),
            Err(ProtoError::UnknownTag { what: "operation", tag })
        );
        prop_assert_eq!(
            Response::decode(&bytes),
            Err(ProtoError::UnknownTag { what: "response", tag })
        );
    }

    /// A corrupted version byte inside an otherwise valid frame is a typed
    /// Version error.
    #[test]
    fn version_mismatch_is_typed(version in any::<u8>(), payload in vec(any::<u8>(), 0..64)) {
        let mut framed = encode_frame(FrameKind::Request, 1, &payload);
        framed[4] = version;
        let result = read_frame(&mut framed.as_slice());
        if version == PROTO_VERSION {
            prop_assert!(result.is_ok());
        } else {
            prop_assert_eq!(result, Err(FrameError::Version { got: version }));
        }
    }

    /// Trailing garbage after a complete message is a typed error, not a
    /// silent accept.
    #[test]
    fn trailing_bytes_are_typed(request in arb_request(), extra in 1usize..16) {
        let mut payload = request.encode();
        payload.extend(std::iter::repeat_n(0u8, extra));
        prop_assert_eq!(
            Request::decode(&payload),
            Err(ProtoError::Trailing { extra })
        );
    }

    /// One body, two envelopes: the payload of an operation-carrying
    /// request is byte for byte what the write-ahead log stores after
    /// `len ++ crc ++ seq` when the journal is handed that operation; a
    /// wire-only request has no operation to journal.
    #[test]
    fn request_payload_is_the_wal_record_body(request in arb_request()) {
        let payload = request.encode();
        match MutationRecord::try_from(request.clone()) {
            Ok(op) => {
                let wal = TempWal::open();
                wal.durability.journal().record(&op);
                prop_assert_eq!(wal.bodies(), vec![payload]);
            }
            Err(wire_only) => prop_assert_eq!(wire_only, request),
        }
    }
}

/// A write-ahead log in a scratch directory, read back record by record.
struct TempWal {
    dir: std::path::PathBuf,
    durability: Durability,
}

impl TempWal {
    fn open() -> TempWal {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ssa-framing-wal-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (recovered, durability) =
            Durability::open(&dir, FsyncPolicy::Off, 0).expect("open scratch WAL");
        assert!(recovered.is_none());
        TempWal { dir, durability }
    }

    /// The bytes after `seq` of every record in the (single) segment: a
    /// 20-byte header, then `len u32 ++ crc u32 ++ seq u64 ++ body`.
    fn bodies(&self) -> Vec<Vec<u8>> {
        let segment = std::fs::read(self.dir.join("wal-00000000000000000001.log"))
            .expect("the first segment exists");
        let mut rest = &segment[20..];
        let mut bodies = Vec::new();
        while !rest.is_empty() {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            bodies.push(rest[16..8 + len].to_vec());
            rest = &rest[8 + len..];
        }
        bodies
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The same equality for operations a journalled market really executed:
/// one request per operation, applied in order, and the log holds exactly
/// their payloads — the marketplace journals what the request said, not a
/// re-spelling of it.
#[test]
fn executed_requests_journal_their_own_payloads() {
    let config = MarketConfig {
        slots: 2,
        keywords: 4,
        seed: 9,
        method: WdMethod::Reduced,
        pricing: PricingScheme::Gsp,
        shards: 2,
        pruned: false,
        warm_start: true,
        default_click_probs: Some(vec![0.6, 0.3]),
        default_purchase_probs: None,
    };
    let attrs = UserAttrs::new().geo("us").set_int("age", 30);
    let script = vec![
        Request::Configure(config.clone()),
        Request::RegisterAdvertiser {
            name: "shoes.example".into(),
        },
        Request::AddCampaign {
            advertiser: 0,
            keyword: 1,
            bid_cents: 40,
            click_value_cents: 90,
            roi_target: Some(1.5),
            click_probs: None,
            purchase_probs: Some(vec![(0.2, 0.0), (0.1, 0.0)]),
            targeting: Some("geo = 'us'".into()),
        },
        Request::UpdateBid {
            keyword: 1,
            index: 0,
            bid_cents: 35,
        },
        Request::PauseCampaign {
            keyword: 1,
            index: 0,
        },
        Request::ResumeCampaign {
            keyword: 1,
            index: 0,
        },
        Request::SetRoiTarget {
            keyword: 1,
            index: 0,
            target: None,
        },
        Request::Serve {
            keyword: 1,
            attrs: attrs.clone(),
        },
        Request::ServeBatch {
            queries: vec![(1, attrs), (3, UserAttrs::new()), (1, UserAttrs::new())],
        },
    ];
    let wal = TempWal::open();
    let mut market = ShardedMarketplace::from_config(&MarketConfig {
        keywords: 1,
        ..config
    })
    .expect("valid boot configuration");
    market.set_journal(wal.durability.journal());
    for request in &script {
        let op = MutationRecord::try_from(request.clone()).expect("carries an operation");
        ssa_core::journal::apply(&mut market, op).expect("the script is valid");
    }
    let payloads: Vec<Vec<u8>> = script.iter().map(Request::encode).collect();
    assert_eq!(wal.bodies(), payloads);
}

/// A flat `and` chain of 100 000 comparisons is a valid targeting source
/// of ≈ 1.4 MB, well under `MAX_FRAME`. The server registers it on its
/// executor thread, whose stack is the 2 MiB default, and keeps answering.
#[test]
fn a_long_targeting_chain_registers_and_the_server_answers() {
    let market = ssa_core::Marketplace::builder()
        .slots(1)
        .keywords(1)
        .default_click_probs(vec![0.1])
        .build()
        .expect("valid marketplace");
    let server = Server::bind("127.0.0.1:0", market, ServerConfig::default())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(server.addr()).expect("connect");
    let advertiser = client.register_advertiser("chain").expect("register");
    let source = vec!["age >= 21"; 100_000].join(" and ");
    assert!((source.len() as u64) < u64::from(MAX_FRAME));
    let id = client
        .add_targeted_campaign(
            advertiser,
            0,
            Money::from_cents(5),
            Money::from_cents(10),
            None,
            None,
            Some(source),
        )
        .expect("the chain registers");
    assert_eq!((id.keyword(), id.index()), (0, 0));
    client.ping().expect("the server still answers");
    client.shutdown_server().expect("graceful shutdown");
    server.join();
}

/// The count guard exercised at the exact boundary: a ServeBatch whose
/// claimed count matches its bytes parses; one claimed element more is a
/// typed error, not a huge allocation.
#[test]
fn count_guard_boundary() {
    let queries: Vec<(u64, UserAttrs)> = (0..16).map(|kw| (kw, UserAttrs::new())).collect();
    let request = Request::ServeBatch { queries };
    let mut payload = request.encode();
    assert_eq!(Request::decode(&payload), Ok(request));
    // Bump the count field (bytes 1..5) by one: it now claims more
    // elements than the payload carries.
    let claimed = u32::from_le_bytes(payload[1..5].try_into().unwrap()) + 1;
    payload[1..5].copy_from_slice(&claimed.to_le_bytes());
    assert!(matches!(
        Request::decode(&payload),
        Err(ProtoError::Oversized { .. }) | Err(ProtoError::Truncated { .. })
    ));
}

/// A count field claiming u32::MAX elements is rejected up front by the
/// count × element-size guard — decoding must not try to allocate.
#[test]
fn hostile_count_rejected_before_allocation() {
    let mut payload = vec![8u8]; // ServeBatch tag
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        Request::decode(&payload),
        Err(ProtoError::Oversized {
            what: "batch queries",
            len: u32::MAX as u64,
        })
    );
}

/// Frame lengths shorter than the header tail are rejected with the
/// declared length, not a slicing panic.
#[test]
fn short_header_lengths_rejected() {
    for len in 0..HEADER_TAIL {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&vec![0u8; len as usize]);
        assert_eq!(
            read_frame(&mut bytes.as_slice()),
            Err(FrameError::TooShort { len }),
            "len={len}"
        );
    }
}
