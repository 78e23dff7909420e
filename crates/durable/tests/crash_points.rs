//! Crash-point sweep: a WAL image truncated at **every byte boundary**
//! must recover to exactly the operations whose records are fully on
//! disk — the torn record (and nothing else) is dropped, recovery never
//! panics, and the recovered marketplace is bit-identical to a fresh one
//! that applied the same acknowledged prefix.
//!
//! Truncation is the right crash model here: an appending writer's crash
//! leaves a *prefix* of the file (plus possibly garbage past it, which
//! the checksum catches the same way), so sweeping every prefix length
//! covers every possible kill point.

use proptest::prelude::*;
use ssa_bidlang::Money;
use ssa_core::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use ssa_durable::{recover, Durability, FsyncPolicy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One always-valid marketplace operation (validity is arranged by the
/// generator: indices stay in range by construction).
#[derive(Debug, Clone)]
enum Op {
    Serve(usize),
    AddCampaign { adv: usize, kw: usize, cents: i64 },
    UpdateBid { nth: usize, cents: i64 },
    Pause { nth: usize },
    Resume { nth: usize },
    SetRoi { nth: usize, target: Option<f64> },
}

#[derive(Debug, Clone)]
struct Scenario {
    keywords: usize,
    slots: usize,
    seed: u64,
    ops: Vec<Op>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=4, 1usize..=2, 0u64..10_000, 2usize..=10).prop_map(
        |(keywords, slots, seed, num_ops)| {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |m: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % m
            };
            // Two advertisers and two starter campaigns exist before the
            // random tail, so mutation ops always have a target.
            let mut campaigns = 2usize;
            let ops = (0..num_ops)
                .map(|_| match next(8) {
                    0 => {
                        campaigns += 1;
                        Op::AddCampaign {
                            adv: next(2) as usize,
                            kw: next(keywords as u64) as usize,
                            cents: next(90) as i64,
                        }
                    }
                    1 => Op::UpdateBid {
                        nth: next(campaigns as u64) as usize,
                        cents: next(90) as i64,
                    },
                    2 => Op::Pause {
                        nth: next(campaigns as u64) as usize,
                    },
                    3 => Op::Resume {
                        nth: next(campaigns as u64) as usize,
                    },
                    4 => Op::SetRoi {
                        nth: next(campaigns as u64) as usize,
                        target: if next(2) == 0 {
                            None
                        } else {
                            Some(1.0 + next(100) as f64 / 50.0)
                        },
                    },
                    _ => Op::Serve(next(keywords as u64) as usize),
                })
                .collect();
            Scenario {
                keywords,
                slots,
                seed,
                ops,
            }
        },
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ssa-crashpt-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn build_market(s: &Scenario, shards: usize) -> Marketplace {
    let builder = Marketplace::builder()
        .slots(s.slots)
        .keywords(s.keywords)
        .seed(s.seed)
        .default_click_probs((0..s.slots).map(|j| 0.7 / (j + 1) as f64).collect());
    builder.build_sharded(shards).unwrap()
}

/// The fixed prologue every scenario starts from: two advertisers, two
/// campaigns. Returns the campaign-id list mutation ops index into.
fn prologue(market: &mut Marketplace) -> Vec<ssa_core::CampaignId> {
    let a = market.register_advertiser("a");
    let b = market.register_advertiser("b");
    vec![
        market
            .add_campaign(
                a,
                0,
                CampaignSpec::per_click(Money::from_cents(40)).click_value(Money::from_cents(90)),
            )
            .unwrap(),
        market
            .add_campaign(
                b,
                0,
                CampaignSpec::per_click(Money::from_cents(55)).click_value(Money::from_cents(100)),
            )
            .unwrap(),
    ]
}

fn apply_op(market: &mut Marketplace, ids: &mut Vec<ssa_core::CampaignId>, op: &Op) {
    let handles: Vec<_> = (0..market.num_advertisers())
        .map(ssa_core::AdvertiserHandle::from_index)
        .collect();
    match op {
        Op::Serve(kw) => {
            market.serve(QueryRequest::new(*kw)).unwrap();
        }
        Op::AddCampaign { adv, kw, cents } => {
            let id = market
                .add_campaign(
                    handles[*adv],
                    *kw,
                    CampaignSpec::per_click(Money::from_cents(*cents))
                        .click_value(Money::from_cents(110)),
                )
                .unwrap();
            ids.push(id);
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

/// Frame-end byte offsets of every record in a segment image. A zero
/// length prefix is where a syncing writer's zero-filled reserve starts.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 20;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 || bytes.len() - pos - 8 < len {
            break;
        }
        pos += 8 + len;
        ends.push(pos);
    }
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For every truncation length of the on-disk WAL image, recovery
    /// succeeds and yields exactly the fully-persisted operation prefix.
    #[test]
    fn every_truncation_point_recovers_the_acked_prefix(s in arb_scenario()) {
        // Write the full log once.
        let write_dir = temp_dir("w");
        let (_, dur) = Durability::open(&write_dir, FsyncPolicy::Off, 0).unwrap();
        let mut market = build_market(&s, 2);
        dur.log_configure(&market.capture_state().unwrap().config).unwrap();
        market.set_journal(dur.journal());
        let mut ids = prologue(&mut market);
        for op in &s.ops {
            apply_op(&mut market, &mut ids, op);
        }
        drop(dur);
        let segment = std::fs::read_dir(&write_dir).unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
            .expect("one segment");
        let full = std::fs::read(&segment).unwrap();
        let ends = record_ends(&full);
        // 1 configure + 4 prologue records + the ops.
        prop_assert_eq!(ends.len(), 5 + s.ops.len());

        let crash_dir = temp_dir("c");
        std::fs::create_dir_all(&crash_dir).unwrap();
        let crash_file = crash_dir.join(segment.file_name().unwrap());
        for cut in 0..=full.len() {
            std::fs::write(&crash_file, &full[..cut]).unwrap();
            // Records fully on disk at this cut.
            let persisted = ends.iter().filter(|&&e| e <= cut).count();
            let recovered = recover(&crash_dir).expect("recovery must never fail on a truncated log");
            match recovered {
                None => prop_assert_eq!(persisted, 0, "cut {} lost persisted records", cut),
                Some((mut got, report)) => {
                    prop_assert_eq!(report.wal_records as usize, persisted);
                    let mut want = twin_of_prefix(&s, persisted);
                    prop_assert_eq!(
                        got.capture_state().unwrap(),
                        want.capture_state().unwrap(),
                        "cut {} diverged", cut
                    );
                    // And the next auction draws stay bit-identical.
                    for kw in 0..s.keywords {
                        let a = got.serve(QueryRequest::new(kw)).unwrap();
                        let b = want.serve(QueryRequest::new(kw)).unwrap();
                        prop_assert_eq!(&a, &b);
                        prop_assert_eq!(
                            a.expected_revenue.to_bits(),
                            b.expected_revenue.to_bits()
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&write_dir).ok();
        std::fs::remove_dir_all(&crash_dir).ok();
    }
}

/// A fresh market that applied the operations of the log's first
/// `persisted` (≥ 1) records: the configure record, then the prologue's
/// 2 registers + 2 campaigns, then the scenario's ops.
fn twin_of_prefix(s: &Scenario, persisted: usize) -> Marketplace {
    let mut want = build_market(s, 2);
    let mut want_ids = Vec::new();
    let steps = persisted - 1; // skip the configure record
    let take = steps.min(4);
    replay_prologue(&mut want, &mut want_ids, take);
    for op in s.ops.iter().take(steps - take) {
        apply_op(&mut want, &mut want_ids, op);
    }
    want
}

/// The same sweep over a *commit group*: records staged through the group
/// journal reach the file in one write, so a crash can cut that write
/// anywhere. Every cut recovers to a whole-record prefix, never an error,
/// and reopening the directory for writing resumes at the next sequence
/// number. The log syncs, so its open segment runs past the records in a
/// zero-filled reserve, and every crash image keeps it: recovery reads
/// each cut through the hole.
#[test]
fn a_commit_group_cut_anywhere_recovers_a_whole_record_prefix() {
    let s = Scenario {
        keywords: 3,
        slots: 2,
        seed: 77,
        ops: vec![
            Op::Serve(0),
            Op::AddCampaign {
                adv: 1,
                kw: 2,
                cents: 35,
            },
            Op::UpdateBid { nth: 2, cents: 48 },
            Op::Serve(2),
            Op::Pause { nth: 0 },
            Op::SetRoi {
                nth: 1,
                target: Some(1.25),
            },
            Op::Serve(0),
            Op::Resume { nth: 0 },
            Op::Serve(1),
        ],
    };
    let write_dir = temp_dir("gw");
    let (_, dur) = Durability::open(&write_dir, FsyncPolicy::Always, 0).unwrap();
    let mut market = build_market(&s, 2);
    dur.log_configure(&market.capture_state().unwrap().config)
        .unwrap();
    market.set_journal(dur.group_journal());
    let mut ids = prologue(&mut market);
    for op in &s.ops {
        apply_op(&mut market, &mut ids, op);
    }
    let segment = std::fs::read_dir(&write_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "log"))
        .expect("one segment");
    // The whole group is still in memory: only the configure record is on
    // disk, under one sync.
    assert_eq!(record_ends(&std::fs::read(&segment).unwrap()).len(), 1);
    assert_eq!((dur.committed_seq(), dur.syncs()), (1, 1));
    dur.commit().unwrap();
    let records = 5 + s.ops.len();
    assert_eq!(dur.wal_records(), records as u64);
    assert_eq!((dur.committed_seq(), dur.syncs()), (records as u64, 2));
    drop(dur);
    // `market` still holds the group journal, so the segment is open.
    let full = std::fs::read(&segment).unwrap();
    let ends = record_ends(&full);
    assert_eq!(ends.len(), records);
    let last_end = *ends.last().unwrap();
    assert!(full.len() > last_end);
    assert!(full[last_end..].iter().all(|&b| b == 0));

    let crash_dir = temp_dir("gc");
    std::fs::create_dir_all(&crash_dir).unwrap();
    let crash_file = crash_dir.join(segment.file_name().unwrap());
    for cut in 0..=last_end {
        std::fs::write(&crash_file, &full[..cut]).unwrap();
        // A crash under `Always` leaves the file at its extended length.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&crash_file)
            .unwrap()
            .set_len(full.len() as u64)
            .unwrap();
        // A record is on disk once what the cut lost of it is zeros: the
        // hole reads back the same bytes.
        let persisted = ends
            .iter()
            .filter(|&&e| e <= cut || full[cut..e].iter().all(|&b| b == 0))
            .count();
        let recovered = recover(&crash_dir).expect("a cut group never fails recovery");
        assert_eq!(recovered.is_some(), persisted > 0, "cut {cut}");
        if let Some((got, report)) = recovered {
            assert_eq!(report.wal_records as usize, persisted, "cut {cut}");
            assert_eq!(
                got.capture_state().unwrap(),
                twin_of_prefix(&s, persisted).capture_state().unwrap(),
                "cut {cut} diverged"
            );
        }
        // Taking the directory over truncates the torn record and resumes
        // right behind the prefix.
        let (_, dur) = Durability::open(&crash_dir, FsyncPolicy::Off, 0).unwrap();
        assert_eq!(dur.wal_records() as usize, persisted, "cut {cut}");
        assert_eq!(dur.committed_seq() as usize, persisted, "cut {cut}");
    }
    std::fs::remove_dir_all(&write_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// Applies the first `take` (≤ 4) prologue records to a twin market.
fn replay_prologue(market: &mut Marketplace, ids: &mut Vec<ssa_core::CampaignId>, take: usize) {
    let mut handles = Vec::new();
    if take >= 1 {
        handles.push(market.register_advertiser("a"));
    }
    if take >= 2 {
        handles.push(market.register_advertiser("b"));
    }
    if take >= 3 {
        ids.push(
            market
                .add_campaign(
                    handles[0],
                    0,
                    CampaignSpec::per_click(Money::from_cents(40))
                        .click_value(Money::from_cents(90)),
                )
                .unwrap(),
        );
    }
    if take >= 4 {
        ids.push(
            market
                .add_campaign(
                    handles[1],
                    0,
                    CampaignSpec::per_click(Money::from_cents(55))
                        .click_value(Money::from_cents(100)),
                )
                .unwrap(),
        );
    }
}
