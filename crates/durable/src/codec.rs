//! The snapshot body encoding and the CRC that guards every record.
//!
//! A WAL record's payload is `seq u64` followed by the operation body
//! [`ssa_core::MutationRecord::encode_into`] writes — the same bytes a
//! request frame carries on the wire, so this crate owns no operation
//! codec. What it does own is the [`MarketState`] snapshot body, written
//! with the same [`ssa_core::codec`] primitives (little-endian, `f64` as
//! raw bits, counts checked before allocation), and [`crc32`].

use std::io::{self, Write};

use crate::DurableError;
use ssa_core::codec::{
    put_bool, put_f64, put_f64_vec, put_i64, put_opt, put_pair_vec, put_string, put_u32, put_u64,
    CodecError, Reader,
};
use ssa_core::{CampaignState, MarketConfigState, MarketState, StateSource};

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

/// A CRC-32 (IEEE) over bytes fed in pieces: what a snapshot body streamed
/// to disk is checksummed with. [`crc32`] is the one-piece form.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The checksum of no bytes yet.
    pub fn new() -> Self {
        Crc32(!0)
    }

    /// Folds the next piece in.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every WAL record and
/// snapshot body.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The `N`-byte header or frame field at `bytes[at..]`, read behind a
/// length check by every caller: past the end it is zeros, not a panic.
pub(crate) fn field<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let field = bytes.get(at..).and_then(<[u8]>::first_chunk);
    field.copied().unwrap_or([0; N])
}

// ---------------------------------------------------------------------------
// MarketState (snapshot body).
// ---------------------------------------------------------------------------

/// Writes a full marketplace checkpoint to `out` as a snapshot body, one
/// campaign at a time through a small reused buffer: `source` is the live
/// marketplace (nothing is copied out of it first) or a captured
/// [`MarketState`], and the bytes are the same.
pub(crate) fn encode_state(
    source: &impl StateSource,
    out: &mut impl Write,
) -> Result<(), DurableError> {
    fn emit(out: &mut impl Write, buf: &mut Vec<u8>) -> io::Result<()> {
        out.write_all(buf)?;
        buf.clear();
        Ok(())
    }
    let buf = &mut Vec::with_capacity(512);
    source.config().encode_into(buf);
    let advertisers = source.advertisers();
    put_u32(buf, advertisers.len() as u32);
    for name in advertisers {
        put_string(buf, name);
        emit(out, buf)?;
    }
    put_u32(buf, source.campaign_count() as u32);
    for campaign in source.campaigns() {
        let c = campaign?;
        put_u64(buf, c.keyword as u64);
        put_u64(buf, c.advertiser as u64);
        put_i64(buf, c.bid_cents);
        put_i64(buf, c.click_value_cents);
        put_opt(buf, &c.roi_target, |b, v| put_f64(b, *v));
        put_f64_vec(buf, c.click_probs);
        match c.purchase_probs {
            Some(row) => put_pair_vec(buf, row),
            None => {
                put_u32(buf, c.click_probs.len() as u32);
                buf.resize(buf.len() + 16 * c.click_probs.len(), 0);
            }
        }
        put_bool(buf, c.paused);
        put_opt(buf, &c.targeting, |b, v| put_string(b, v));
        emit(out, buf)?;
    }
    put_u64(buf, source.clock());
    let rng_states = source.rng_states();
    put_u32(buf, rng_states.len() as u32);
    for state in rng_states {
        for word in state {
            put_u64(buf, word);
        }
        emit(out, buf)?;
    }
    emit(out, buf)?;
    Ok(())
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
        // Fed in pieces, the same checksum.
        let mut pieces = Crc32::new();
        pieces.update(b"1234");
        pieces.update(b"");
        pieces.update(b"56789");
        assert_eq!(pieces.finish(), 0xCBF4_3926);
    }

    fn encoded(state: &MarketState) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_state(state, &mut bytes).expect("a Vec takes every write");
        bytes
    }

    fn sample_state() -> MarketState {
        MarketState {
            config: MarketConfigState {
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
        let bytes = encoded(&state);
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
        let bytes = encoded(&sample_state());
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
