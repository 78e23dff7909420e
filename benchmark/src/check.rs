//! Outcome digests: how a run's answers are compared with a replay's.

use ssa_core::AuctionResponse;

/// FNV-1a over every field of an outcome: keyword, expected-revenue bits,
/// realised revenue, placements and charges. `with_time` leaves the global
/// market clock in or out — on the wire it is the one value that depends
/// on how the connections interleave.
pub fn digest(response: &AuctionResponse, with_time: bool) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(response.keyword as u64);
    if with_time {
        feed(response.time);
    }
    feed(response.expected_revenue.to_bits());
    feed(response.realized_revenue.cents() as u64);
    feed(response.placements.len() as u64);
    for p in &response.placements {
        feed(u64::from(p.slot.position()));
        feed(p.campaign.keyword() as u64);
        feed(p.campaign.index() as u64);
        feed(p.advertiser.index() as u64);
        feed(u64::from(p.clicked) | u64::from(p.purchased) << 1);
        feed(p.charge.cents() as u64);
    }
    feed(response.charges.len() as u64);
    for (campaign, charge) in &response.charges {
        feed(campaign.keyword() as u64);
        feed(campaign.index() as u64);
        feed(charge.cents() as u64);
    }
    hash
}

/// Compares the digests of two outcome streams.
pub fn same_outcomes(what: &str, measured: &[u64], replayed: &[u64]) -> Result<(), String> {
    if measured.len() != replayed.len() {
        return Err(format!(
            "{what}: {} measured outcomes against {} replayed",
            measured.len(),
            replayed.len()
        ));
    }
    match measured.iter().zip(replayed).position(|(a, b)| a != b) {
        Some(i) => Err(format!("{what}: outcome {i} differs")),
        None => Ok(()),
    }
}
