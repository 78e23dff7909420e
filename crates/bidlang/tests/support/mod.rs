//! The paper's dependence results, demonstrated on the bidding language:
//! Definition 1's analysis ([`dependence`]) and Theorem 3's reduction from
//! maximum weighted feedback arc set to 2-dependent bids
//! ([`two_dependent`]). Both name advertisers by an [`AdvertiserId`].

use std::fmt;

pub mod dependence;
pub mod two_dependent;

/// Identifier of an advertiser (zero-based, dense).
///
/// Advertiser ids index directly into per-advertiser arrays, so they are
/// expected to be dense in `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdvertiserId(pub u32);

impl AdvertiserId {
    /// Creates an advertiser id from a zero-based index.
    #[inline]
    pub fn new(index: u32) -> Self {
        AdvertiserId(index)
    }

    /// Returns the zero-based index as `usize` for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AdvertiserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "adv{}", self.0)
    }
}

impl From<u32> for AdvertiserId {
    fn from(v: u32) -> Self {
        AdvertiserId(v)
    }
}

impl From<usize> for AdvertiserId {
    fn from(v: usize) -> Self {
        AdvertiserId(u32::try_from(v).expect("advertiser index exceeds u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advertiser_id_conversions() {
        let a = AdvertiserId::from(7usize);
        assert_eq!(a.index(), 7);
        assert_eq!(a, AdvertiserId::new(7));
        assert_eq!(a.to_string(), "adv7");
    }
}
