//! The snapshot body's framing and the CRC that guards every record.
//!
//! A WAL record's payload is `seq u64` followed by the operation body
//! [`ssa_core::MutationRecord::encode_into`] writes — the same bytes a
//! request frame carries on the wire, so this crate owns no operation
//! codec. A snapshot body is those bodies too: the market's compacted log,
//! each record behind a length, then a trailer with the clock and the RNG
//! positions (see `encode_body`). This module owns that framing and
//! [`crc32`].

use std::io::{self, Write};

use crate::DurableError;
use ssa_core::codec::{put_u32, put_u64, CodecError, Reader};
use ssa_core::{Marketplace, MutationRecord};

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
// The snapshot body: a compacted log and its trailer.
// ---------------------------------------------------------------------------

/// Writes `market`'s snapshot body to `out`, one record at a time through
/// a small reused buffer — nothing is copied out of the market, since
/// every log record borrows what it carries:
///
/// ```text
/// body    = record... ++ trailer
/// record  = len u32 ++ MutationRecord body    (Configure, then compacted_log)
/// trailer = 0 u32 ++ clock u64 ++ streams u32 ++ streams × [u64; 4]
/// ```
///
/// No record is empty (each opens with its tag), so a zero length ends the
/// list; the trailer is not a record, so no client can send it.
pub(crate) fn encode_body(market: &Marketplace, out: &mut impl Write) -> Result<(), DurableError> {
    fn emit(out: &mut impl Write, buf: &mut Vec<u8>) -> io::Result<()> {
        out.write_all(buf)?;
        buf.clear();
        Ok(())
    }
    /// Fills in the length `put_u32(buf, 0)` held the place of.
    fn emit_record(out: &mut impl Write, buf: &mut Vec<u8>) -> io::Result<()> {
        let len = buf.len() as u32 - 4;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        emit(out, buf)
    }
    let buf = &mut Vec::with_capacity(512);
    put_u32(buf, 0);
    MutationRecord::Configure(market.config()).encode_into(buf);
    emit_record(out, buf)?;
    for record in market.compacted_log() {
        put_u32(buf, 0);
        record?.encode_into(buf);
        emit_record(out, buf)?;
    }
    put_u32(buf, 0);
    put_u64(buf, market.now());
    let rng_states = market.rng_states();
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

/// Replays a body [`encode_body`] wrote: each record moves into
/// [`crate::store::replay`] as it is decoded, then the trailer restores the
/// clock and RNG positions. A record the market takes must also keep
/// [`Marketplace::compacted_log`]'s order — `Configure`, registrations,
/// campaigns by ascending keyword with both models, each pause right behind
/// its campaign — or it is [`DurableError::Corrupt`], as are other kinds
/// and decode failures; the market's refusals stay its own.
pub(crate) fn decode_body(bytes: &[u8]) -> Result<Marketplace, DurableError> {
    let (mut rest, mut market) = (bytes, None);
    let truncated = |what| CodecError::Truncated { what };
    // The last campaign added, as (keyword, index), and whether the
    // previous record added it.
    let (mut last, mut after_add): (Option<(u64, u64)>, bool) = (None, false);
    loop {
        let (len, tail) = (rest.split_first_chunk()).ok_or(truncated("snapshot record length"))?;
        let (record, tail) = (tail.split_at_checked(u32::from_le_bytes(*len) as usize))
            .ok_or(truncated("snapshot record"))?;
        rest = tail;
        let Some(&tag) = record.first() else { break };
        let what = market
            .as_ref()
            .map_or("first snapshot record", |_| "snapshot record");
        let record = MutationRecord::decode(record)?;
        let pausable = std::mem::take(&mut after_add);
        let in_order = match (&record, market.is_some()) {
            (MutationRecord::Configure(_), false) => true,
            (MutationRecord::RegisterAdvertiser { .. }, true) => last.is_none(),
            (
                MutationRecord::AddCampaign {
                    keyword,
                    click_probs,
                    purchase_probs,
                    ..
                },
                true,
            ) => {
                let ascending = last.is_none_or(|(previous, _)| previous <= *keyword);
                let index = last.filter(|&(previous, _)| previous == *keyword);
                (last, after_add) = (Some((*keyword, index.map_or(0, |(_, i)| i + 1))), true);
                ascending && click_probs.is_some() && purchase_probs.is_some()
            }
            (&MutationRecord::PauseCampaign { keyword, index }, true) => {
                pausable && last == Some((keyword, index))
            }
            _ => return Err(CodecError::UnknownTag { what, tag }.into()),
        };
        crate::store::replay(&mut market, record)?;
        if !in_order {
            let order = "a record out of the compacted log's order";
            return Err(DurableError::Corrupt(order.into()));
        }
    }
    let mut market = market.ok_or(truncated("snapshot Configure record"))?;
    let mut r = Reader::new(rest);
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
    market.restore_positions(clock, &rng_states)?;
    Ok(market)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_bidlang::Money;
    use ssa_core::{CampaignSpec, PricingScheme, QueryRequest, WdMethod};

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

    /// A market whose body holds every record kind a snapshot carries: a
    /// targeted, paused, purchasing campaign, a ROI-capped one and a
    /// never-purchasing one, on two of three keywords.
    fn sample_market() -> Marketplace {
        let mut market = Marketplace::builder()
            .slots(1)
            .keywords(3)
            .seed(42)
            .method(WdMethod::Hungarian)
            .pricing(PricingScheme::Gsp)
            .default_click_probs(vec![0.3])
            .build_sharded(2)
            .expect("valid configuration");
        let a = market.register_advertiser("a");
        let b = market.register_advertiser("advertiser-две");
        let paused = market
            .add_campaign(
                b,
                2,
                CampaignSpec::per_click(Money::from_cents(99))
                    .click_value(Money::from_cents(400))
                    .click_probs(vec![0.1 + 0.2])
                    .purchase_probs(vec![(1.0 / 3.0, 2.0 / 7.0)])
                    .targeting("device != 'bot'"),
            )
            .expect("accepted");
        market.pause_campaign(paused).expect("known campaign");
        let capped = CampaignSpec::per_click(Money::from_cents(50))
            .roi_target(f64::from_bits(0x3FF0_0000_0000_0001));
        market.add_campaign(a, 0, capped).expect("accepted");
        for keyword in [0, 2, 2] {
            market.serve(QueryRequest::new(keyword)).expect("in range");
        }
        market
    }

    fn encoded(market: &Marketplace) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_body(market, &mut bytes).expect("a Vec takes every write");
        bytes
    }

    #[test]
    fn state_round_trips_preserving_f64_bits() {
        let market = sample_market();
        let back = decode_body(&encoded(&market)).expect("round trip");
        let back = back.capture_state().expect("per-click campaigns only");
        let want = market.capture_state().expect("per-click campaigns only");
        assert_eq!(back, want);
        // PartialEq on f64 would accept -0.0 == 0.0: re-encoding compares
        // every bit.
        let mut again = Vec::new();
        for record in &back.records {
            record.encode_into(&mut again);
        }
        let mut wanted = Vec::new();
        for record in &want.records {
            record.encode_into(&mut wanted);
        }
        assert_eq!(again, wanted);
        assert_eq!(back.records.len(), 5, "2 advertisers, 2 campaigns, 1 pause");
    }

    #[test]
    fn damaged_snapshot_bodies_fail_cleanly() {
        let bytes = encoded(&sample_market());
        for len in 0..bytes.len() {
            assert!(
                decode_body(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        match decode_body(&trailing) {
            Err(DurableError::Corrupt(msg)) => {
                assert_eq!(msg, CodecError::Trailing { extra: 1 }.to_string())
            }
            other => panic!("expected trailing bytes, got {other:?}"),
        }
    }
}
