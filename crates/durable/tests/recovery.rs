//! End-to-end recovery equivalence: random marketplaces, random mixed
//! mutation/serve streams, a snapshot taken at a random point (or not at
//! all), and a crash at a random byte of the live WAL segment. The
//! recovered marketplace must be **bit-identical** to a fresh marketplace
//! that applied the same acknowledged prefix — same stored bids, same
//! `top_bids`, same clock, same next-auction outcomes — at shard counts
//! 1, 2, and 4.

use proptest::prelude::*;
use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use ssa_core::{AdvertiserHandle, MarketState, MutationRecord};
use ssa_durable::{recover, Durability, FsyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Debug, Clone)]
enum Op {
    Serve(usize),
    ServeBatch(Vec<usize>),
    Register(String),
    AddCampaign {
        adv: usize,
        kw: usize,
        cents: i64,
        roi: Option<f64>,
    },
    UpdateBid {
        nth: usize,
        cents: i64,
    },
    Pause {
        nth: usize,
    },
    Resume {
        nth: usize,
    },
    SetRoi {
        nth: usize,
        target: Option<f64>,
    },
}

#[derive(Debug, Clone)]
struct Scenario {
    keywords: usize,
    slots: usize,
    seed: u64,
    ops: Vec<Op>,
    /// Take a snapshot after this many ops (None: never).
    snapshot_after: Option<usize>,
    /// Picks the crash byte within the live segment.
    crash_salt: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..=7,
        1usize..=3,
        0u64..100_000,
        4usize..=36,
        any::<bool>(),
        0u64..u64::MAX,
    )
        .prop_map(|(keywords, slots, seed, num_ops, snapshot, crash_salt)| {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            let mut advertisers = 2usize;
            let mut campaigns = 2usize;
            let ops = (0..num_ops)
                .map(|_| match next(10) {
                    0 => {
                        advertisers += 1;
                        Op::Register(format!("adv-{advertisers}"))
                    }
                    1 => {
                        campaigns += 1;
                        Op::AddCampaign {
                            adv: next(advertisers as u64) as usize,
                            kw: next(keywords as u64) as usize,
                            cents: next(95) as i64,
                            roi: if next(3) == 0 { Some(1.2) } else { None },
                        }
                    }
                    2 => Op::UpdateBid {
                        nth: next(campaigns as u64) as usize,
                        cents: next(95) as i64,
                    },
                    3 => Op::Pause {
                        nth: next(campaigns as u64) as usize,
                    },
                    4 => Op::Resume {
                        nth: next(campaigns as u64) as usize,
                    },
                    5 => Op::SetRoi {
                        nth: next(campaigns as u64) as usize,
                        target: if next(2) == 0 { None } else { Some(1.5) },
                    },
                    6 => Op::ServeBatch(
                        (0..1 + next(6) as usize)
                            .map(|_| next(keywords as u64) as usize)
                            .collect(),
                    ),
                    _ => Op::Serve(next(keywords as u64) as usize),
                })
                .collect::<Vec<_>>();
            let snapshot_after = snapshot.then(|| next(num_ops as u64) as usize);
            Scenario {
                keywords,
                slots,
                seed,
                ops,
                snapshot_after,
                crash_salt,
            }
        })
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ssa-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn build_market(s: &Scenario, shards: usize) -> Marketplace {
    let builder = Marketplace::builder()
        .slots(s.slots)
        .keywords(s.keywords)
        .seed(s.seed)
        .default_click_probs((0..s.slots).map(|j| 0.75 / (j + 1) as f64).collect())
        .default_purchase_probs((0..s.slots).map(|j| (0.15 / (j + 1) as f64, 0.0)).collect());
    builder.build_sharded(shards).unwrap()
}

fn prologue(market: &mut Marketplace, ids: &mut Vec<ssa_core::CampaignId>) {
    let a = market.register_advertiser("adv-1");
    let b = market.register_advertiser("adv-2");
    ids.push(
        market
            .add_campaign(
                a,
                0,
                CampaignSpec::per_click(Money::from_cents(40)).click_value(Money::from_cents(90)),
            )
            .unwrap(),
    );
    ids.push(
        market
            .add_campaign(
                b,
                0,
                CampaignSpec::per_click(Money::from_cents(60)).click_value(Money::from_cents(120)),
            )
            .unwrap(),
    );
}

/// Number of WAL records one op produces (always 1 in the current
/// protocol, kept as a function so the accounting survives format
/// changes).
fn records_of(_op: &Op) -> usize {
    1
}

fn apply_op(market: &mut Marketplace, ids: &mut Vec<ssa_core::CampaignId>, op: &Op) {
    match op {
        Op::Serve(kw) => {
            market.serve(QueryRequest::new(*kw)).unwrap();
        }
        Op::ServeBatch(kws) => {
            let requests: Vec<QueryRequest> = kws.iter().map(|&kw| QueryRequest::new(kw)).collect();
            market.serve_batch(&requests).unwrap();
        }
        Op::Register(name) => {
            market.register_advertiser(name.clone());
        }
        Op::AddCampaign {
            adv,
            kw,
            cents,
            roi,
        } => {
            let mut spec = CampaignSpec::per_click(Money::from_cents(*cents))
                .click_value(Money::from_cents(130));
            if let Some(roi) = roi {
                spec = spec.roi_target(*roi);
            }
            let handle = AdvertiserHandle::from_index(*adv % market.num_advertisers());
            ids.push(market.add_campaign(handle, *kw, spec).unwrap());
        }
        Op::UpdateBid { nth, cents } => {
            market
                .update_bid(ids[*nth % ids.len()], Money::from_cents(*cents))
                .unwrap();
        }
        Op::Pause { nth } => {
            market.pause_campaign(ids[*nth % ids.len()]).unwrap();
        }
        Op::Resume { nth } => {
            market.resume_campaign(ids[*nth % ids.len()]).unwrap();
        }
        Op::SetRoi { nth, target } => {
            market
                .set_roi_target(ids[*nth % ids.len()], *target)
                .unwrap();
        }
    }
}

/// Frame-end offsets of the records in a segment image. A zero length
/// prefix is where a syncing writer's zero-filled reserve starts.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 20;
    while bytes.len().saturating_sub(pos) >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 || bytes.len() - pos - 8 < len {
            break;
        }
        pos += 8 + len;
        ends.push(pos);
    }
    ends
}

fn tail_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
        .collect();
    segments.sort();
    segments.pop().expect("at least one segment")
}

fn first_seq_of(path: &Path) -> u64 {
    let name = path.file_name().unwrap().to_string_lossy().to_string();
    name.strip_prefix("wal-")
        .and_then(|rest| rest.strip_suffix(".log"))
        .unwrap()
        .parse()
        .unwrap()
}

/// A campaign that never purchases stores no purchase row in the engine,
/// and one that does stores its own — on the same keyword, through a
/// snapshot and through WAL replay, both come back with the rows they were
/// registered with (explicit zeros for the first), bit for bit.
#[test]
fn purchasing_and_never_purchasing_campaigns_round_trip_on_one_keyword() {
    let run = |market: &mut Marketplace| {
        let a = market.register_advertiser("buyer");
        let b = market.register_advertiser("browser");
        let per_click = |cents| CampaignSpec::per_click(Money::from_cents(cents));
        let ids = [
            market
                .add_campaign(
                    a,
                    0,
                    per_click(40).purchase_probs(vec![(0.5, 0.125), (0.25, 0.0)]),
                )
                .unwrap(),
            market.add_campaign(b, 0, per_click(60)).unwrap(),
            // Negative zeros are not "never": they come back as written.
            market
                .add_campaign(
                    b,
                    0,
                    per_click(50).purchase_probs(vec![(-0.0, 0.0), (0.0, 0.0)]),
                )
                .unwrap(),
        ];
        for _ in 0..20 {
            market.serve(QueryRequest::new(0)).unwrap();
        }
        ids
    };
    // `build()`: the plain one-shard market journals, captures and
    // recovers like any other.
    let build = || {
        Marketplace::builder()
            .slots(2)
            .keywords(1)
            .seed(99)
            .default_click_probs(vec![0.75, 0.375])
            .build()
            .unwrap()
    };
    for snapshot in [false, true] {
        let dir = temp_dir("purchases");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let mut market = build();
        dur.log_configure(&market.capture_state().unwrap().config)
            .unwrap();
        market.set_journal(dur.journal());
        let ids = run(&mut market);
        if snapshot {
            dur.snapshot_now(&market).unwrap();
        }
        market.update_bid(ids[1], Money::from_cents(45)).unwrap();
        market.serve(QueryRequest::new(0)).unwrap();
        drop(market.take_journal());
        drop(dur);

        let want = market.capture_state().unwrap();
        let bits = |row: &[(f64, f64)]| -> Vec<(u64, u64)> {
            row.iter()
                .map(|(c, n)| (c.to_bits(), n.to_bits()))
                .collect()
        };
        // Each campaign's purchase row, as its `AddCampaign` carries it.
        let rows = |state: &MarketState| -> Vec<Vec<(u64, u64)>> {
            state
                .records
                .iter()
                .filter_map(|record| match record {
                    MutationRecord::AddCampaign { purchase_probs, .. } => {
                        Some(bits(purchase_probs.as_deref().expect("always explicit")))
                    }
                    _ => None,
                })
                .collect()
        };
        assert_eq!(
            rows(&want),
            [
                bits(&[(0.5, 0.125), (0.25, 0.0)]),
                vec![(0, 0); 2],
                bits(&[(-0.0, 0.0), (0.0, 0.0)]),
            ]
        );

        let (mut recovered, _) = recover(&dir).unwrap().expect("records were written");
        let got = recovered.capture_state().unwrap();
        assert_eq!(got, want, "snapshot={snapshot}");
        assert_eq!(rows(&got), rows(&want));
        for _ in 0..20 {
            assert_eq!(
                recovered.serve(QueryRequest::new(0)).unwrap(),
                market.serve(QueryRequest::new(0)).unwrap(),
                "snapshot={snapshot}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery from a random crash point equals a fresh marketplace that
    /// applied the acknowledged prefix — at every shard count, with and
    /// without a mid-stream snapshot.
    #[test]
    fn crashed_log_recovers_bit_identically(s in arb_scenario()) {
        for &shards in &SHARD_COUNTS {
            let dir = temp_dir("live");
            let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
            let mut market = build_market(&s, shards);
            dur.log_configure(&market.capture_state().unwrap().config).unwrap();
            market.set_journal(dur.journal());
            let mut ids = Vec::new();
            prologue(&mut market, &mut ids);
            for (i, op) in s.ops.iter().enumerate() {
                apply_op(&mut market, &mut ids, op);
                if s.snapshot_after == Some(i) {
                    dur.snapshot_now(&market).unwrap();
                }
            }
            drop(dur);
            drop(market);

            // Crash: truncate the live segment at a pseudorandom byte.
            let tail = tail_segment(&dir);
            let bytes = std::fs::read(&tail).unwrap();
            let cut = (s.crash_salt % (bytes.len() as u64 + 1)) as usize;
            std::fs::write(&tail, &bytes[..cut]).unwrap();

            // Acked operations: everything before the live segment (its
            // name says how many records precede it), plus the records
            // fully inside the truncated image, minus the configure.
            let persisted_before = first_seq_of(&tail) - 1;
            let persisted_in_tail = record_ends(&bytes).iter().filter(|&&e| e <= cut).count() as u64;
            let acked = (persisted_before + persisted_in_tail) as usize;

            let recovered = recover(&dir).expect("crashed log must recover");
            let mut want = build_market(&s, shards);
            let mut want_ids = Vec::new();
            if acked == 0 {
                prop_assert!(recovered.is_none());
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            let (mut got, report) = recovered.expect("acked records imply state");
            if s.snapshot_after.is_none() {
                prop_assert_eq!(report.wal_records as usize, acked);
                prop_assert_eq!(report.snapshot_bytes, 0);
            }
            // Twin-replay the acked prefix: 1 configure + 4 prologue
            // records + ops (1 record each).
            let mut steps = acked - 1;
            if steps >= 1 { want.register_advertiser("adv-1"); }
            if steps >= 2 { want.register_advertiser("adv-2"); }
            if steps >= 3 {
                want_ids.push(want.add_campaign(
                    AdvertiserHandle::from_index(0), 0,
                    CampaignSpec::per_click(Money::from_cents(40)).click_value(Money::from_cents(90)),
                ).unwrap());
            }
            if steps >= 4 {
                want_ids.push(want.add_campaign(
                    AdvertiserHandle::from_index(1), 0,
                    CampaignSpec::per_click(Money::from_cents(60)).click_value(Money::from_cents(120)),
                ).unwrap());
            }
            steps = steps.saturating_sub(4);
            let mut applied = 0;
            for op in &s.ops {
                if applied >= steps { break; }
                apply_op(&mut want, &mut want_ids, op);
                applied += records_of(op);
            }
            prop_assert_eq!(applied, steps, "op stream and record accounting disagree");

            // Stored campaign state, clock, and RNG positions.
            prop_assert_eq!(got.capture_state().unwrap(), want.capture_state().unwrap());
            // top_bids, bit for bit.
            for kw in 0..s.keywords {
                prop_assert_eq!(
                    got.top_bids(kw, 8).unwrap(),
                    want.top_bids(kw, 8).unwrap()
                );
            }
            // Future auctions, bit for bit.
            for round in 0..2 {
                for kw in 0..s.keywords {
                    let a = got.serve(QueryRequest::new(kw)).unwrap();
                    let b = want.serve(QueryRequest::new(kw)).unwrap();
                    prop_assert_eq!(a.expected_revenue.to_bits(), b.expected_revenue.to_bits(),
                        "kw {} round {}", kw, round);
                    prop_assert_eq!(a, b);
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Reopening a crashed directory for writing (what the server does on
    /// restart) truncates the torn tail in place and continues the
    /// sequence, and a second recovery round-trips the continued log.
    #[test]
    fn reopen_after_crash_continues_the_log(s in arb_scenario()) {
        let dir = temp_dir("reopen");
        let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let mut market = build_market(&s, 2);
        dur.log_configure(&market.capture_state().unwrap().config).unwrap();
        market.set_journal(dur.journal());
        let mut ids = Vec::new();
        prologue(&mut market, &mut ids);
        for op in &s.ops {
            apply_op(&mut market, &mut ids, op);
        }
        drop(dur);
        drop(market);

        let tail = tail_segment(&dir);
        let bytes = std::fs::read(&tail).unwrap();
        let cut = (s.crash_salt % (bytes.len() as u64 + 1)) as usize;
        std::fs::write(&tail, &bytes[..cut]).unwrap();

        // Restart: reopen, serve a little more, crash-free shutdown.
        let (recovered, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
        let extra: Vec<usize> = (0..5).map(|i| i % s.keywords).collect();
        let state_after = match recovered {
            Some((mut market, _)) => {
                market.set_journal(dur.journal());
                for &kw in &extra {
                    market.serve(QueryRequest::new(kw)).unwrap();
                }
                Some(market.capture_state().unwrap())
            }
            None => None,
        };
        drop(dur);

        let second = recover(&dir).expect("continued log must recover");
        match (state_after, second) {
            (None, None) => {}
            (Some(want), Some((got, _))) => {
                prop_assert_eq!(got.capture_state().unwrap(), want);
            }
            (want, got) => prop_assert!(false, "presence mismatch: want {:?} got {:?}",
                want.is_some(), got.is_some()),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `records` framed as a snapshot body — each encoded with
/// `MutationRecord::encode_into` behind its `u32` length — then a trailer
/// (a zero length, the clock, `streams` RNG states) and `extra` bytes.
fn snapshot_body(records: &[MutationRecord], streams: usize, extra: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    for record in records {
        let mut op = Vec::new();
        record.encode_into(&mut op);
        body.extend_from_slice(&(op.len() as u32).to_le_bytes());
        body.extend_from_slice(&op);
    }
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&(streams as u32).to_le_bytes());
    for stream in 0..streams as u64 {
        for word in [stream + 1, 2, 3, 4] {
            body.extend_from_slice(&word.to_le_bytes());
        }
    }
    body.extend_from_slice(extra);
    body
}

/// A fresh directory holding `body` as the snapshot through seq 1, behind
/// a header with the right magic, version, length and CRC.
fn snapshot_dir(body: &[u8]) -> PathBuf {
    let dir = temp_dir("impossible");
    std::fs::create_dir_all(&dir).unwrap();
    let file = [
        &ssa_durable::SNAPSHOT_MAGIC[..],
        &ssa_durable::WAL_VERSION.to_le_bytes(),
        &1u64.to_le_bytes(),
        &(body.len() as u32).to_le_bytes(),
        &ssa_durable::crc32(body).to_le_bytes(),
        body,
    ]
    .concat();
    std::fs::write(dir.join(format!("snapshot-{:020}.snap", 1)), file).unwrap();
    dir
}

/// Snapshot bodies that pass their checksum but describe a market that
/// cannot exist: each one is a typed error from `recover` and from
/// `Durability::open` — never a panic, never a market. The decoder refuses
/// a body that is not a compacted log; `apply`, which replays each record
/// as it is decoded, refuses every record a market would not accept;
/// `restore_positions` refuses a trailer without one RNG stream per
/// keyword.
#[test]
fn checksum_valid_snapshots_of_impossible_markets_are_typed_errors() {
    use ssa_core::{CampaignId, MarketError};
    use ssa_durable::DurableError;

    let config = Marketplace::builder()
        .slots(2)
        .keywords(3)
        .seed(5)
        .build()
        .unwrap()
        .config();
    let configure = MutationRecord::Configure(config);
    let register = MutationRecord::RegisterAdvertiser { name: "a".into() };
    // The fields a case edits of one valid campaign.
    struct Campaign {
        advertiser: u64,
        keyword: u64,
        bid_cents: i64,
        click_value_cents: i64,
        roi_target: Option<f64>,
        click_probs: Vec<f64>,
    }
    let campaign = |edit: fn(&mut Campaign)| {
        let mut c = Campaign {
            advertiser: 0,
            keyword: 1,
            bid_cents: 40,
            click_value_cents: 90,
            roi_target: Some(1.25),
            click_probs: vec![0.5, 0.25],
        };
        edit(&mut c);
        MutationRecord::AddCampaign {
            advertiser: c.advertiser,
            keyword: c.keyword,
            bid_cents: c.bid_cents,
            click_value_cents: c.click_value_cents,
            roi_target: c.roi_target,
            click_probs: Some(c.click_probs),
            purchase_probs: Some(vec![(0.0, 0.0); 2]),
            targeting: None,
        }
    };
    let valid = campaign(|_| {});
    let serve = MutationRecord::Serve {
        keyword: 1,
        attrs: Default::default(),
    };
    let update = MutationRecord::UpdateBid {
        keyword: 1,
        index: 0,
        bid_cents: 41,
    };
    let pause = |index| MutationRecord::PauseCampaign { keyword: 1, index };
    let market = |err: &DurableError, want: fn(&MarketError) -> bool| matches!(err, DurableError::Market(err) if want(err));
    let corrupt = |err: &DurableError, needle: &str| matches!(err, DurableError::Corrupt(msg) if msg.contains(needle));

    // The well-formed body these cases break recovers.
    let good = [configure.clone(), register.clone(), valid.clone(), pause(0)];
    let dir = snapshot_dir(&snapshot_body(&good, 3, &[]));
    let (back, _) = recover(&dir).unwrap().expect("a market");
    assert!(back.is_paused(CampaignId::from_parts(1, 0)).unwrap());
    std::fs::remove_dir_all(&dir).ok();

    type Check<'a> = Box<dyn Fn(&DurableError) -> bool + 'a>;
    let cases: Vec<(&str, Vec<u8>, Check)> = vec![
        (
            "first record not Configure",
            snapshot_body(&[register.clone(), configure.clone()], 3, &[]),
            Box::new(|e| corrupt(e, "unknown first snapshot record tag 0x01")),
        ),
        (
            "second Configure",
            snapshot_body(&[configure.clone(), configure.clone()], 3, &[]),
            Box::new(|e| corrupt(e, "unknown snapshot record tag 0x00")),
        ),
        (
            "Serve in the body",
            snapshot_body(
                &[configure.clone(), register.clone(), valid.clone(), serve],
                3,
                &[],
            ),
            Box::new(|e| corrupt(e, "unknown snapshot record tag 0x07")),
        ),
        (
            "UpdateBid in the body",
            snapshot_body(
                &[configure.clone(), register.clone(), valid.clone(), update],
                3,
                &[],
            ),
            Box::new(|e| corrupt(e, "unknown snapshot record tag 0x03")),
        ),
        (
            "unregistered advertiser",
            snapshot_body(&[configure.clone(), valid.clone()], 3, &[]),
            Box::new(|e| market(e, |e| matches!(e, MarketError::UnknownAdvertiser(_)))),
        ),
        (
            "keyword out of range",
            snapshot_body(
                &[
                    configure.clone(),
                    register.clone(),
                    campaign(|c| c.keyword = 3),
                ],
                3,
                &[],
            ),
            Box::new(|e| {
                market(e, |e| {
                    matches!(
                        e,
                        MarketError::UnknownKeyword {
                            keyword: 3,
                            num_keywords: 3
                        }
                    )
                })
            }),
        ),
        (
            "click row of the wrong length",
            snapshot_body(
                &[
                    configure.clone(),
                    register.clone(),
                    campaign(|c| c.click_probs = vec![0.5]),
                ],
                3,
                &[],
            ),
            Box::new(|e| {
                market(e, |e| {
                    matches!(
                        e,
                        MarketError::ModelDimension {
                            expected: 2,
                            got: 1
                        }
                    )
                })
            }),
        ),
        (
            "probability 1.5",
            snapshot_body(
                &[
                    configure.clone(),
                    register.clone(),
                    campaign(|c| c.click_probs[0] = 1.5),
                ],
                3,
                &[],
            ),
            Box::new(|e| {
                market(
                    e,
                    |e| matches!(e, MarketError::InvalidProbability(p) if *p == 1.5),
                )
            }),
        ),
        (
            "NaN ROI target",
            snapshot_body(
                &[
                    configure.clone(),
                    register.clone(),
                    campaign(|c| c.roi_target = Some(f64::NAN)),
                ],
                3,
                &[],
            ),
            Box::new(|e| {
                market(
                    e,
                    |e| matches!(e, MarketError::InvalidRoiTarget(t) if t.is_nan()),
                )
            }),
        ),
        (
            "negative bid",
            snapshot_body(
                &[
                    configure.clone(),
                    register.clone(),
                    campaign(|c| c.bid_cents = -1),
                ],
                3,
                &[],
            ),
            Box::new(|e| market(e, |e| matches!(e, MarketError::NegativeBid(_)))),
        ),
        (
            "negative click value",
            snapshot_body(
                &[
                    configure.clone(),
                    register.clone(),
                    campaign(|c| c.click_value_cents = -1),
                ],
                3,
                &[],
            ),
            Box::new(|e| {
                market(e, |e| {
                    *e == MarketError::NegativeClickValue(Money::from_cents(-1))
                })
            }),
        ),
        (
            "pause of a campaign not in the body",
            snapshot_body(
                &[configure.clone(), register.clone(), valid.clone(), pause(1)],
                3,
                &[],
            ),
            Box::new(|e| market(e, |e| matches!(e, MarketError::UnknownCampaign(_)))),
        ),
        (
            "one RNG stream too few",
            snapshot_body(&good, 2, &[]),
            Box::new(|e| {
                market(e, |e| {
                    *e == MarketError::RngStreams {
                        keywords: 3,
                        streams: 2,
                    }
                })
            }),
        ),
        (
            "one RNG stream too many",
            snapshot_body(&good, 4, &[]),
            Box::new(|e| {
                market(e, |e| {
                    *e == MarketError::RngStreams {
                        keywords: 3,
                        streams: 4,
                    }
                })
            }),
        ),
        (
            "trailing bytes",
            snapshot_body(&good, 3, &[0]),
            Box::new(|e| corrupt(e, "1 trailing bytes")),
        ),
    ];
    for (case, body, check) in cases {
        let dir = snapshot_dir(&body);
        let results = [
            recover(&dir).map(|found| found.is_some()),
            Durability::open(&dir, FsyncPolicy::Off, 0).map(|(found, _)| found.is_some()),
        ];
        for result in results {
            match result {
                Err(err) => assert!(check(&err), "{case}: the wrong error: {err:?}"),
                Ok(market) => panic!("{case}: expected a typed error, got market={market}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A write-ahead log whose records pass their checksums but register a
/// campaign with a negative click value is a typed error from `recover`
/// and from `Durability::open`, as the same record is over the wire and in
/// a snapshot body.
#[test]
fn a_logged_negative_click_value_is_a_typed_error() {
    use ssa_core::MarketError;
    use ssa_durable::DurableError;

    let config = Marketplace::builder()
        .slots(2)
        .keywords(2)
        .seed(5)
        .build()
        .unwrap()
        .config();
    let records = [
        MutationRecord::Configure(config),
        MutationRecord::RegisterAdvertiser { name: "a".into() },
        MutationRecord::AddCampaign {
            advertiser: 0,
            keyword: 1,
            bid_cents: 40,
            click_value_cents: -90,
            roi_target: None,
            click_probs: Some(vec![0.5, 0.25]),
            purchase_probs: None,
            targeting: None,
        },
    ];
    // One segment from seq 1, framed as `wal.rs` documents it.
    let mut segment = [
        &ssa_durable::WAL_MAGIC[..],
        &ssa_durable::WAL_VERSION.to_le_bytes(),
        &1u64.to_le_bytes(),
    ]
    .concat();
    for (seq, record) in (1u64..).zip(&records) {
        let mut payload = seq.to_le_bytes().to_vec();
        record.encode_into(&mut payload);
        segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        segment.extend_from_slice(&ssa_durable::crc32(&payload).to_le_bytes());
        segment.extend_from_slice(&payload);
    }
    let dir = temp_dir("negative-click-value");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("wal-{:020}.log", 1)), segment).unwrap();
    let want = MarketError::NegativeClickValue(Money::from_cents(-90));
    let results = [
        recover(&dir).map(|found| found.is_some()),
        Durability::open(&dir, FsyncPolicy::Off, 0).map(|(found, _)| found.is_some()),
    ];
    for result in results {
        match result {
            Err(DurableError::Market(e)) => assert_eq!(e, want),
            other => panic!("expected {want:?}, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// How far a syncing writer extends a segment past its records at a time.
const RESERVE_STEP: usize = 1 << 20;

/// A segment from `first_seq` holding `records`, framed as `wal.rs`
/// documents it.
fn segment_of(first_seq: u64, records: &[MutationRecord]) -> Vec<u8> {
    let mut segment = [
        &ssa_durable::WAL_MAGIC[..],
        &ssa_durable::WAL_VERSION.to_le_bytes(),
        &first_seq.to_le_bytes(),
    ]
    .concat();
    for (seq, record) in (first_seq..).zip(records) {
        let mut payload = seq.to_le_bytes().to_vec();
        record.encode_into(&mut payload);
        segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        segment.extend_from_slice(&ssa_durable::crc32(&payload).to_le_bytes());
        segment.extend_from_slice(&payload);
    }
    segment
}

/// Writes `image` as segment `first_seq` of `dir`. Its trailing zeros
/// become a hole, as a syncing writer's reserve leaves them.
fn write_segment(dir: &Path, first_seq: u64, image: &[u8]) -> PathBuf {
    let path = dir.join(format!("wal-{first_seq:020}.log"));
    let data = image.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    std::fs::write(&path, &image[..data]).unwrap();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(image.len() as u64)
        .unwrap();
    path
}

/// `bytes` followed by a reserve of zeros.
fn with_reserve(bytes: &[u8]) -> Vec<u8> {
    let mut image = bytes.to_vec();
    image.resize(bytes.len() + RESERVE_STEP, 0);
    image
}

/// A configure, an advertiser, a campaign and two queries.
fn hand_records() -> Vec<MutationRecord> {
    let config = Marketplace::builder()
        .slots(2)
        .keywords(2)
        .seed(5)
        .build()
        .unwrap()
        .config();
    let serve = |keyword| MutationRecord::Serve {
        keyword,
        attrs: ssa_core::UserAttrs::new(),
    };
    vec![
        MutationRecord::Configure(config),
        MutationRecord::RegisterAdvertiser { name: "a".into() },
        MutationRecord::AddCampaign {
            advertiser: 0,
            keyword: 1,
            bid_cents: 40,
            click_value_cents: 90,
            roi_target: None,
            click_probs: Some(vec![0.5, 0.25]),
            purchase_probs: None,
            targeting: None,
        },
        serve(0),
        serve(1),
    ]
}

/// The market `records` build when applied in order from their configure.
fn replayed(records: &[MutationRecord]) -> MarketState {
    let MutationRecord::Configure(config) = &records[0] else {
        panic!("a log opens with its configure record")
    };
    let mut market = Marketplace::from_config(config).unwrap();
    for record in &records[1..] {
        market.apply(record.clone()).unwrap();
    }
    market.capture_state().unwrap()
}

/// A final segment that ends in a reserve recovers every record; taking
/// the directory over trims the file to its last record, and the log
/// continues at the next sequence number.
#[test]
fn a_final_segment_ending_in_a_reserve_recovers_every_record() {
    let records = hand_records();
    let dir = temp_dir("reserve-final");
    std::fs::create_dir_all(&dir).unwrap();
    let segment = segment_of(1, &records);
    let path = write_segment(&dir, 1, &with_reserve(&segment));

    let (got, report) = recover(&dir).unwrap().expect("records were written");
    assert_eq!(report.wal_records, 5);
    assert_eq!(got.capture_state().unwrap(), replayed(&records));

    let (reopened, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        segment.len() as u64
    );
    let mut market = reopened.expect("records were written").0;
    market.set_journal(dur.journal());
    market.serve(QueryRequest::new(1)).unwrap();
    assert_eq!(dur.wal_records(), 6);
    drop(dur);
    let (back, report) = recover(&dir).unwrap().expect("records were written");
    assert_eq!(report.wal_records, 6);
    assert_eq!(
        back.capture_state().unwrap(),
        market.capture_state().unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn record followed by a reserve is a torn tail: the whole records
/// before it recover.
#[test]
fn a_torn_record_before_a_reserve_recovers_the_whole_record_prefix() {
    let records = hand_records();
    let dir = temp_dir("reserve-torn");
    std::fs::create_dir_all(&dir).unwrap();
    let whole = segment_of(1, &records[..4]).len();
    // The last frame keeps its length, checksum, seq and tag, and loses
    // its keyword, 1. Had it lost only zeros, the hole would read them
    // back and the record would be whole.
    let image = with_reserve(&segment_of(1, &records)[..whole + 17]);
    write_segment(&dir, 1, &image);
    for found in [
        recover(&dir).unwrap(),
        Durability::open(&dir, FsyncPolicy::Off, 0).unwrap().0,
    ] {
        let (got, report) = found.expect("whole records precede the tear");
        assert_eq!(report.wal_records, 4);
        assert_eq!(got.capture_state().unwrap(), replayed(&records[..4]));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshot rotation creates the next segment before the old writer
/// trims its reserve, so a crash between them leaves a non-final segment
/// ending in zeros: that is a clean end, not corruption. One non-zero
/// byte in the same place still is.
#[test]
fn a_non_final_segment_ending_in_a_reserve_recovers_and_a_byte_in_it_is_corruption() {
    let records = hand_records();
    let mut first = with_reserve(&segment_of(1, &records[..3]));
    let second = segment_of(4, &records[3..]);
    let dir = temp_dir("reserve-non-final");
    std::fs::create_dir_all(&dir).unwrap();
    write_segment(&dir, 1, &first);
    write_segment(&dir, 4, &second);
    let (got, report) = recover(&dir).unwrap().expect("records were written");
    assert_eq!(report.wal_records, 5);
    assert_eq!(got.capture_state().unwrap(), replayed(&records));
    let (reopened, _) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
    assert_eq!(
        reopened.unwrap().0.capture_state().unwrap(),
        replayed(&records)
    );
    std::fs::remove_dir_all(&dir).ok();

    let at = first.len() - RESERVE_STEP + 4096;
    first[at] = 1;
    let dir = temp_dir("reserve-non-final-byte");
    std::fs::create_dir_all(&dir).unwrap();
    write_segment(&dir, 1, &first);
    write_segment(&dir, 4, &second);
    for result in [
        recover(&dir).map(|found| found.is_some()),
        Durability::open(&dir, FsyncPolicy::Off, 0).map(|(found, _)| found.is_some()),
    ] {
        match result {
            Err(ssa_durable::DurableError::Corrupt(_)) => {}
            other => panic!("expected corruption, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The records a damage case journals ahead of `s.ops`, one at a time:
/// two advertisers and two campaigns, so every mutation op has a target.
fn opening_ops() -> [Op; 4] {
    let add = |adv, cents| Op::AddCampaign {
        adv,
        kw: 0,
        cents,
        roi: None,
    };
    [
        Op::Register("adv-1".into()),
        Op::Register("adv-2".into()),
        add(0, 40),
        add(1, 60),
    ]
}

/// The ways a damage case breaks one segment image.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// XOR one byte of the header or the records with a non-zero mask.
    Flip,
    /// Cut the file anywhere, reserve included.
    Truncate,
    /// Raise one record's length prefix and recompute its checksum over
    /// the longer payload, where the file holds it.
    Inflate,
    /// Write a non-zero byte into the reserve.
    HoleByte,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Segment images a syncing log wrote, reserve included, split into a
    /// non-final and a final segment at a random record (or left whole),
    /// then damaged once. `recover` and `Durability::open` each give
    /// either exactly the whole records ahead of the damage (damage to
    /// the final segment's records or reserve reads as a torn tail) or a
    /// typed error (a damaged header, a checksum-valid record that does
    /// not decode, any damage to a non-final segment short of a cut into
    /// its reserve).
    #[test]
    fn a_damaged_syncing_log_recovers_a_whole_record_prefix_or_a_typed_error(
        s in arb_scenario(),
        damage in prop_oneof![
            Just(Damage::Flip),
            Just(Damage::Truncate),
            Just(Damage::Inflate),
            Just(Damage::HoleByte),
        ],
        split in any::<u64>(),
        non_final in any::<bool>(),
        at in any::<u64>(),
    ) {
        // Journal one record per commit under `Always`, keeping the state
        // after each: `states[k - 1]` is the market after `k` records.
        let write_dir = temp_dir("damage-w");
        let (_, dur) = Durability::open(&write_dir, FsyncPolicy::Always, 0).unwrap();
        let mut market = build_market(&s, 1);
        dur.log_configure(&market.capture_state().unwrap().config).unwrap();
        market.set_journal(dur.journal());
        let mut states = vec![market.capture_state().unwrap()];
        let mut ids = Vec::new();
        for op in opening_ops().iter().chain(&s.ops) {
            apply_op(&mut market, &mut ids, op);
            states.push(market.capture_state().unwrap());
        }
        // The segment is still open, so it still runs into its reserve.
        let image = std::fs::read(tail_segment(&write_dir)).unwrap();
        drop(market);
        drop(dur);
        std::fs::remove_dir_all(&write_dir).ok();
        let ends = record_ends(&image);
        let n = ends.len();
        prop_assert_eq!(n, states.len());
        prop_assert_eq!(image.len() % RESERVE_STEP, 0);
        prop_assert!(image[ends[n - 1]..].iter().all(|&b| b == 0));

        // Split after record `m` (0: one segment). The final segment of a
        // split gets its own reserve once it holds a record.
        let m = (split % (n as u64 + 1)) as usize;
        let mut segments = Vec::new();
        if m > 0 {
            segments.push((1, with_reserve(&image[..ends[m - 1]])));
            let mut rest = segment_of(m as u64 + 1, &[]);
            rest.extend_from_slice(&image[ends[m - 1]..ends[n - 1]]);
            if m < n {
                rest.resize(RESERVE_STEP, 0);
            }
            segments.push((m as u64 + 1, rest));
        } else {
            segments.push((1, image.clone()));
        }

        // Pick the damaged segment: one with records (and a reserve for
        // `HoleByte`), the non-final one if asked and there is one.
        let mut target = if non_final { 0 } else { segments.len() - 1 };
        let records_end = |bytes: &[u8]| record_ends(bytes).last().copied().unwrap_or(20);
        let (_, bytes) = &segments[target];
        if records_end(bytes) == bytes.len() {
            target = 0;
        }
        let last = target + 1 == segments.len();
        let (first_seq, bytes) = &mut segments[target];
        let local = record_ends(bytes);
        let end = records_end(bytes);
        let mask = 1 + (at >> 40) as u8 % 255;
        // Records of the log ahead of the damage.
        let ahead = |pos: usize| *first_seq as usize - 1 + local.iter().filter(|&&e| e <= pos).count();
        // What recovery must find: `Some(records)`, or `None` for an error.
        let expected = match damage {
            Damage::Flip => {
                let pos = (at % end as u64) as usize;
                bytes[pos] ^= mask;
                (last && pos >= 20).then(|| ahead(pos))
            }
            Damage::Truncate => {
                // Half the cuts land among the records, half anywhere.
                let span = if at & 1 == 0 { end } else { bytes.len() };
                let cut = ((at >> 1) % (span as u64 + 1)) as usize;
                bytes.truncate(cut);
                if last {
                    Some(ahead(cut))
                } else if cut >= end {
                    // Only the reserve went: nothing is damaged.
                    Some(n)
                } else {
                    None
                }
            }
            Damage::Inflate => {
                let j = ((at >> 8) % local.len() as u64) as usize;
                let pos = if j == 0 { 20 } else { local[j - 1] };
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
                // Half the time past the end of the file.
                let grow = if at & 1 == 0 { 1 + (at >> 32) as u32 % 64 } else { 2 << 20 };
                let len = len + grow;
                bytes[pos..pos + 4].copy_from_slice(&len.to_le_bytes());
                let whole = bytes.get(pos + 8..pos + 8 + len as usize).map(ssa_durable::crc32);
                if let Some(crc) = whole {
                    bytes[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
                }
                // A whole payload under a valid checksum that does not
                // decode is corruption; a short one is a torn record.
                (last && whole.is_none()).then(|| ahead(pos))
            }
            Damage::HoleByte => {
                let pos = end + (at % (bytes.len() - end) as u64) as usize;
                bytes[pos] = mask;
                last.then(|| ahead(pos))
            }
        };

        let dir = temp_dir("damage");
        std::fs::create_dir_all(&dir).unwrap();
        for (first_seq, bytes) in &segments {
            write_segment(&dir, *first_seq, bytes);
        }
        let outcomes = [
            recover(&dir).map(|found| found.map(|(market, report)| (market, report.wal_records))),
            Durability::open(&dir, FsyncPolicy::Always, 0).map(|(found, dur)| {
                let found = found.map(|(market, report)| (market, report.wal_records));
                // The reopened log continues right behind what it recovered.
                assert_eq!(dur.wal_records(), found.as_ref().map_or(0, |(_, records)| *records));
                found
            }),
        ];
        for outcome in outcomes {
            match outcome {
                Ok(found) => {
                    let records = found.as_ref().map_or(0, |(_, records)| *records as usize);
                    prop_assert_eq!(Some(records), expected, "{:?} in segment {}", damage, target);
                    if let Some((market, _)) = found {
                        prop_assert_eq!(market.capture_state().unwrap(), states[records - 1].clone());
                    }
                }
                Err(err) => {
                    prop_assert!(
                        !matches!(err, ssa_durable::DurableError::Io(_)),
                        "{:?}: {}", damage, err
                    );
                    prop_assert!(expected.is_none(), "{:?} in segment {}: {}", damage, target, err);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The golden fixture's snapshot (`tests/fixtures/golden-wal` at the
/// workspace root).
const GOLDEN_SNAPSHOT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden-wal/snapshot-00000000000000000019.snap"
);

/// A snapshot file's body: the bytes behind its 28-byte header.
fn body_of_file(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()[28..].to_vec()
}

/// A body's records, each one's encoding, and the trailer behind the zero
/// length that ends them.
fn split_body(body: &[u8]) -> (Vec<Vec<u8>>, Vec<u8>) {
    let (mut records, mut pos) = (Vec::new(), 0);
    loop {
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if len == 0 {
            return (records, body[pos..].to_vec());
        }
        records.push(body[pos..pos + len].to_vec());
        pos += len;
    }
}

/// `records` behind their lengths, the zero length, then `trailer`.
fn join_body<'a>(records: impl IntoIterator<Item = &'a [u8]>, trailer: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    for record in records {
        body.extend_from_slice(&(record.len() as u32).to_le_bytes());
        body.extend_from_slice(record);
    }
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(trailer);
    body
}

/// `market` as its snapshot body: `Configure`, the compacted log, and the
/// trailer of its clock and RNG positions.
fn reencoded(market: &Marketplace) -> Vec<u8> {
    let mut records = vec![Vec::new()];
    MutationRecord::Configure(market.config()).encode_into(&mut records[0]);
    for record in market.compacted_log() {
        let mut bytes = Vec::new();
        record.unwrap().encode_into(&mut bytes);
        records.push(bytes);
    }
    let mut trailer = market.now().to_le_bytes().to_vec();
    trailer.extend_from_slice(&(market.num_keywords() as u32).to_le_bytes());
    for word in market.rng_states().flatten() {
        trailer.extend_from_slice(&word.to_le_bytes());
    }
    join_body(records.iter().map(Vec::as_slice), &trailer)
}

/// A body the snapshot writer wrote for a scenario's market, with or
/// without the builder's default models.
fn written_body(s: &Scenario, defaults: bool) -> Vec<u8> {
    let dir = temp_dir("written");
    let (_, dur) = Durability::open(&dir, FsyncPolicy::Off, 0).unwrap();
    let mut market = build_market(s, 1);
    dur.log_configure(&market.config()).unwrap();
    market.set_journal(dur.journal());
    let mut ids = Vec::new();
    prologue(&mut market, &mut ids);
    for op in &s.ops {
        apply_op(&mut market, &mut ids, op);
    }
    dur.snapshot_now(&market).unwrap();
    let snapshot = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.extension().is_some_and(|ext| ext == "snap"))
        .unwrap();
    let body = body_of_file(&snapshot);
    std::fs::remove_dir_all(&dir).ok();
    if defaults {
        return body;
    }
    // The writer's body for the same book built without default models:
    // every campaign carries both of its rows either way.
    let (mut parts, trailer) = split_body(&body);
    let Ok(MutationRecord::Configure(mut config)) = MutationRecord::decode(&parts[0]) else {
        panic!("a body opens with its Configure")
    };
    (config.default_click_probs, config.default_purchase_probs) = (None, None);
    parts[0].clear();
    MutationRecord::Configure(config).encode_into(&mut parts[0]);
    join_body(parts.iter().map(Vec::as_slice), &trailer)
}

/// The ways a damage case breaks one snapshot body; the checksum is
/// recomputed over the damaged body.
#[derive(Debug, Clone, Copy)]
enum BodyDamage {
    /// XOR one byte with a non-zero mask.
    Flip,
    /// Cut the body short.
    Truncate,
    /// Raise one length prefix, the list's terminating zero included.
    Inflate,
    /// Swap two values of one type: two records (a pause or the last
    /// registration and its neighbour among them), or two fields of the
    /// records (a campaign's bid and click value, its advertiser and
    /// keyword, two campaigns' keywords, a pause's keyword and index, or a
    /// campaign's model and the configuration's default).
    Swap,
}

/// `body` with two values of one type swapped, chosen by `at`.
fn swapped(body: &[u8], at: u64) -> Vec<u8> {
    let (parts, trailer) = split_body(body);
    let mut records: Vec<MutationRecord> = parts
        .iter()
        .map(|part| MutationRecord::decode(part).unwrap())
        .collect();
    let n = records.len();
    let pick = |salt: u64, among: &dyn Fn(&MutationRecord) -> bool| {
        let found: Vec<usize> = (0..n).filter(|&i| among(&records[i])).collect();
        (!found.is_empty()).then(|| found[(at >> salt) as usize % found.len()])
    };
    let is_add = |r: &MutationRecord| matches!(r, MutationRecord::AddCampaign { .. });
    let is_pause = |r: &MutationRecord| matches!(r, MutationRecord::PauseCampaign { .. });
    let (i, j) = (pick(8, &|_| true).unwrap(), pick(24, &|_| true).unwrap());
    let (add, other_add) = (pick(8, &is_add).unwrap(), pick(24, &is_add).unwrap());
    let MutationRecord::Configure(mut config) = records[0].clone() else {
        panic!("a body opens with its Configure")
    };
    let keyword_of = |r: &MutationRecord| match r {
        MutationRecord::AddCampaign { keyword, .. } => *keyword,
        _ => unreachable!("an AddCampaign"),
    };
    let other_keyword = keyword_of(&records[other_add]);
    // A pause, or the last registration: where a neighbour swap crosses
    // the writer's order.
    let edges: Vec<usize> = (1..n)
        .filter(|&k| match (&records[k], records.get(k + 1)) {
            (MutationRecord::PauseCampaign { .. }, _) => true,
            (MutationRecord::RegisterAdvertiser { .. }, next) => {
                !matches!(next, Some(MutationRecord::RegisterAdvertiser { .. }))
            }
            _ => false,
        })
        .collect();
    let edge = edges[(at >> 16) as usize % edges.len()];
    match (at % 8, pick(40, &is_pause)) {
        (0, _) | (7, None) => records.swap(i, j),
        (5, _) => {
            let own = keyword_of(&records[add]);
            for (k, swapped_in) in [(add, other_keyword), (other_add, own)] {
                if let MutationRecord::AddCampaign { keyword, .. } = &mut records[k] {
                    *keyword = swapped_in;
                }
            }
        }
        (6, _) => records.swap(edge, if edge + 1 < n { edge + 1 } else { edge - 1 }),
        (7, Some(pause)) => {
            if let MutationRecord::PauseCampaign { keyword, index } = &mut records[pause] {
                std::mem::swap(keyword, index);
            }
        }
        (kind, _) => {
            let MutationRecord::AddCampaign {
                advertiser,
                keyword,
                bid_cents,
                click_value_cents,
                click_probs,
                purchase_probs,
                ..
            } = &mut records[add]
            else {
                unreachable!("an AddCampaign")
            };
            match kind {
                1 => std::mem::swap(bid_cents, click_value_cents),
                2 => std::mem::swap(advertiser, keyword),
                3 => std::mem::swap(click_probs, &mut config.default_click_probs),
                _ => std::mem::swap(purchase_probs, &mut config.default_purchase_probs),
            }
        }
    }
    if (3..=4).contains(&(at % 8)) {
        records[0] = MutationRecord::Configure(config);
    }
    let encoded: Vec<Vec<u8>> = records
        .iter()
        .map(|record| {
            let mut bytes = Vec::new();
            record.encode_into(&mut bytes);
            bytes
        })
        .collect();
    join_body(encoded.iter().map(Vec::as_slice), &trailer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Snapshot bodies the writer wrote — for generated markets, with and
    /// without the builder's default models, and the golden fixture's — each
    /// damaged once under a valid checksum. `recover` and
    /// `Durability::open` each give either a typed error or a market whose
    /// own snapshot body is the damaged body byte for byte: the decoder
    /// accepts only what the writer emits, and nothing the market
    /// normalises on the way in.
    #[test]
    fn a_damaged_snapshot_body_recovers_to_itself_or_is_a_typed_error(
        s in arb_scenario(),
        source in 0u8..3,
        damage in prop_oneof![
            Just(BodyDamage::Flip),
            Just(BodyDamage::Truncate),
            Just(BodyDamage::Inflate),
            Just(BodyDamage::Swap),
        ],
        at in any::<u64>(),
    ) {
        let mut body = match source {
            0 => body_of_file(Path::new(GOLDEN_SNAPSHOT)),
            defaults => written_body(&s, defaults == 1),
        };
        match damage {
            BodyDamage::Flip => {
                let pos = (at % body.len() as u64) as usize;
                body[pos] ^= 1 + (at >> 40) as u8 % 255;
            }
            BodyDamage::Truncate => body.truncate((at % body.len() as u64) as usize),
            BodyDamage::Inflate => {
                let (parts, _) = split_body(&body);
                let j = ((at >> 8) % (parts.len() as u64 + 1)) as usize;
                let pos: usize = parts[..j].iter().map(|part| 4 + part.len()).sum();
                let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap());
                let grow = 1 + (at >> 32) as u32 % 64;
                body[pos..pos + 4].copy_from_slice(&(len + grow).to_le_bytes());
            }
            BodyDamage::Swap => body = swapped(&body, at),
        }
        let dir = snapshot_dir(&body);
        let outcomes = [
            recover(&dir).map(|found| found.map(|(market, _)| market)),
            Durability::open(&dir, FsyncPolicy::Off, 0).map(|(found, _)| found.map(|(market, _)| market)),
        ];
        std::fs::remove_dir_all(&dir).ok();
        for outcome in outcomes {
            match outcome {
                Ok(market) => {
                    let market = market.expect("a snapshot holds a market");
                    prop_assert!(reencoded(&market) == body, "{:?}: recovered a different body", damage);
                }
                Err(err) => prop_assert!(
                    !matches!(err, ssa_durable::DurableError::Io(_)),
                    "{:?}: {}", damage, err
                ),
            }
        }
    }
}
