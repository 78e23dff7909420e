//! The snapshot body encoding and the CRC that guards every record.
//!
//! A WAL record's payload is `seq u64` followed by the operation body
//! [`ssa_core::MutationRecord::encode_into`] writes — the same bytes a
//! request frame carries on the wire, so this crate owns no operation
//! codec. What it does own is the [`MarketState`] snapshot body, written
//! with the same [`ssa_core::codec`] primitives (little-endian, `f64` as
//! raw bits, counts checked before allocation), and [`crc32`].

use ssa_core::codec::{
    put_bool, put_f64, put_f64_vec, put_i64, put_opt, put_pair_vec, put_string, put_u32, put_u64,
    CodecError, Reader,
};
use ssa_core::{CampaignState, MarketConfigState, MarketState};

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected polynomial 0xEDB88320), const-table implementation.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every WAL record and
/// snapshot body.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// MarketState (snapshot body).
// ---------------------------------------------------------------------------

/// Encodes a full marketplace checkpoint as a snapshot body.
pub(crate) fn encode_state(state: &MarketState) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256 + state.campaigns.len() * 64);
    state.config.encode_into(&mut buf);
    put_u32(&mut buf, state.advertisers.len() as u32);
    for name in &state.advertisers {
        put_string(&mut buf, name);
    }
    put_u32(&mut buf, state.campaigns.len() as u32);
    for c in &state.campaigns {
        put_u64(&mut buf, c.keyword as u64);
        put_u64(&mut buf, c.advertiser as u64);
        put_i64(&mut buf, c.bid_cents);
        put_i64(&mut buf, c.click_value_cents);
        put_opt(&mut buf, &c.roi_target, |b, v| put_f64(b, *v));
        put_f64_vec(&mut buf, &c.click_probs);
        put_pair_vec(&mut buf, &c.purchase_probs);
        put_bool(&mut buf, c.paused);
        put_opt(&mut buf, &c.targeting, |b, v| put_string(b, v));
    }
    put_u64(&mut buf, state.clock);
    put_u32(&mut buf, state.rng_states.len() as u32);
    for s in &state.rng_states {
        for &word in s {
            put_u64(&mut buf, word);
        }
    }
    buf
}

/// Decodes a snapshot body back into a marketplace checkpoint.
pub(crate) fn decode_state(bytes: &[u8]) -> Result<MarketState, CodecError> {
    let mut r = Reader::new(bytes);
    let config = MarketConfigState::read(&mut r)?;
    let advertisers = r.vec("advertisers", 4, |r| r.string("advertiser name"))?;
    let campaigns = r.vec("campaigns", 43, |r| {
        Ok(CampaignState {
            keyword: r.u64("campaign keyword")? as usize,
            advertiser: r.u64("campaign advertiser")? as usize,
            bid_cents: r.i64("campaign bid")?,
            click_value_cents: r.i64("campaign click value")?,
            roi_target: r.opt("campaign roi", |r| r.f64("campaign roi"))?,
            click_probs: r.f64_vec("campaign click probs")?,
            purchase_probs: r.pair_vec("campaign purchase probs")?,
            paused: r.bool("campaign paused")?,
            targeting: r.opt("campaign targeting", |r| r.string("campaign targeting"))?,
        })
    })?;
    let clock = r.u64("clock")?;
    let rng_states = r.vec("rng states", 32, |r| {
        Ok([
            r.u64("rng word")?,
            r.u64("rng word")?,
            r.u64("rng word")?,
            r.u64("rng word")?,
        ])
    })?;
    r.finish()?;
    Ok(MarketState {
        config,
        advertisers,
        campaigns,
        clock,
        rng_states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_core::{PricingScheme, WdMethod};

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector plus the empty string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample_state() -> MarketState {
        MarketState {
            config: MarketConfigState {
                slots: 3,
                keywords: 11,
                seed: 42,
                method: WdMethod::ReducedParallel(2),
                pricing: PricingScheme::Gsp,
                shards: 4,
                pruned: true,
                warm_start: false,
                default_click_probs: Some(vec![0.3, 0.2, 0.1]),
                default_purchase_probs: None,
            },
            advertisers: vec!["a".into(), "advertiser-две".into()],
            campaigns: vec![CampaignState {
                keyword: 5,
                advertiser: 1,
                bid_cents: 99,
                click_value_cents: 400,
                roi_target: Some(f64::from_bits(0x3FF0_0000_0000_0001)),
                click_probs: vec![0.1 + 0.2],
                purchase_probs: vec![(1.0 / 3.0, 2.0 / 7.0)],
                paused: true,
                targeting: Some("device != 'bot'".into()),
            }],
            clock: 987,
            rng_states: vec![[1, 2, 3, 4], [u64::MAX, 0, 7, 9]],
        }
    }

    #[test]
    fn state_round_trips_preserving_f64_bits() {
        let state = sample_state();
        let bytes = encode_state(&state);
        let back = decode_state(&bytes).expect("round trip");
        assert_eq!(back, state);
        // PartialEq on f64 would accept -0.0 == 0.0; check raw bits too.
        assert_eq!(
            back.campaigns[0].click_probs[0].to_bits(),
            state.campaigns[0].click_probs[0].to_bits()
        );
    }

    #[test]
    fn damaged_snapshot_bodies_fail_cleanly() {
        let bytes = encode_state(&sample_state());
        for len in 0..bytes.len() {
            assert!(
                decode_state(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_state(&trailing),
            Err(CodecError::Trailing { extra: 1 })
        );
    }
}
