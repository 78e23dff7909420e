//! Shard routing: which shard owns a keyword, and how a shard count is
//! parsed.
//!
//! A shard is a partition of a [`Marketplace`]'s keyword books, used by
//! [`Marketplace::serve_batch`] to spread a mixed-keyword stream over
//! worker threads (the [marketplace module docs](crate::marketplace)
//! describe the scheme and why outcomes do not depend on it). What lives
//! here is the part other layers need *without* a marketplace in hand: the
//! stable routing hash [`shard_of_keyword`] (a network front-end's
//! admission control computes placement from it) and [`parse_shards`] (the
//! `--shards` flag).
//!
//! [`ShardedMarketplace`] is an alias of [`Marketplace`]. It was a second
//! market type until the two were made one; the name stays because the
//! repository's frozen benchmark package and signatures downstream spell
//! it. New code names `Marketplace`.

use crate::marketplace::{splitmix64, Marketplace};

/// The marketplace, under the name it had when a sharded market was a
/// separate type; see the [module docs](self).
pub type ShardedMarketplace = Marketplace;

/// Error returned when parsing a shard count (the `--shards` CLI flag)
/// fails. The shape mirrors [`crate::ParseMethodError`]: a typed
/// [`std::error::Error`] per rejection reason instead of a panic or a
/// silent default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseShardsError {
    /// The value was not an unsigned integer.
    Invalid(String),
    /// `0` — a marketplace needs at least one shard.
    Zero,
}

impl std::fmt::Display for ParseShardsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseShardsError::Invalid(raw) => write!(f, "invalid shard count {raw:?}"),
            ParseShardsError::Zero => f.write_str("shard count must be positive"),
        }
    }
}

impl std::error::Error for ParseShardsError {}

/// Parses a shard count: an unsigned integer ≥ 1, with typed errors.
pub fn parse_shards(s: &str) -> Result<usize, ParseShardsError> {
    let n: usize = s
        .trim()
        .parse()
        .map_err(|_| ParseShardsError::Invalid(s.to_string()))?;
    if n == 0 {
        return Err(ParseShardsError::Zero);
    }
    Ok(n)
}

/// The shard that owns `keyword` in a marketplace partitioned across
/// `num_shards` shards: a stable SplitMix64 hash of the keyword index
/// modulo the shard count. Stable across runs, processes, and machines, so
/// external routers (e.g. a network front-end's admission control) can
/// compute placement without holding the marketplace itself.
pub fn shard_of_keyword(keyword: usize, num_shards: usize) -> usize {
    (splitmix64(keyword as u64) % num_shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_total() {
        for kw in 0..16 {
            let s = shard_of_keyword(kw, 5);
            assert!(s < 5);
            assert_eq!(s, shard_of_keyword(kw, 5), "routing must be deterministic");
        }
        // With 16 keywords over 5 shards, more than one shard owns work.
        let owners: std::collections::HashSet<usize> =
            (0..16).map(|kw| shard_of_keyword(kw, 5)).collect();
        assert!(owners.len() > 1);
    }

    #[test]
    fn parse_shards_is_typed() {
        assert_eq!(parse_shards("4"), Ok(4));
        assert_eq!(parse_shards(" 2 "), Ok(2));
        assert_eq!(parse_shards("0"), Err(ParseShardsError::Zero));
        assert_eq!(
            parse_shards("four"),
            Err(ParseShardsError::Invalid("four".into()))
        );
        let err: Box<dyn std::error::Error> = Box::new(ParseShardsError::Zero);
        assert!(err.to_string().contains("positive"));
    }
}
