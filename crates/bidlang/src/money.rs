//! Exact money arithmetic in integer cents.
//!
//! The paper's bids are quoted in cents ("willing to pay 5 cents if he gets a
//! purchase"). Bids and realised payments are kept exact as `i64` cents;
//! *expected* revenue — a probability-weighted quantity — lives in `f64` and
//! is produced via [`Money::as_f64`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An exact amount of money in integer cents.
///
/// Negative amounts are allowed (they arise as intermediate values in the
/// no-slot normalisation of winner determination) but bids themselves are
/// validated non-negative by [`crate::BidsTable::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(i64);

impl Money {
    /// Zero cents.
    pub const ZERO: Money = Money(0);

    /// Creates an amount from integer cents.
    #[inline]
    pub const fn from_cents(cents: i64) -> Self {
        Money(cents)
    }

    /// The amount in integer cents.
    #[inline]
    pub const fn cents(self) -> i64 {
        self.0
    }

    /// The amount as a floating-point number of cents, for expected-value
    /// computations.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Rounds a floating-point number of cents to the nearest exact amount.
    ///
    /// Used when converting expected-value prices (e.g. GSP charges) back to
    /// chargeable amounts.
    #[inline]
    pub fn from_f64_rounded(cents: f64) -> Self {
        Money(cents.round() as i64)
    }

    /// Returns `true` if the amount is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// The larger of two amounts.
    #[inline]
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }

    /// The smaller of two amounts.
    #[inline]
    pub fn min(self, other: Money) -> Money {
        Money(self.0.min(other.0))
    }
}

impl Add for Money {
    type Output = Money;
    #[inline]
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    #[inline]
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    #[inline]
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    #[inline]
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;
    #[inline]
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    #[inline]
    fn mul(self, rhs: i64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        Money(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{sign}${}.{:02}", abs / 100, abs % 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Money::from_cents(250);
        let b = Money::from_cents(100);
        assert_eq!((a + b).cents(), 350);
        assert_eq!((a - b).cents(), 150);
        assert_eq!((a * 3).cents(), 750);
        assert_eq!((-b).cents(), -100);
        let mut c = a;
        c += b;
        c -= Money::from_cents(50);
        assert_eq!(c.cents(), 300);
    }

    #[test]
    fn display_formats_dollars() {
        assert_eq!(Money::from_cents(507).to_string(), "$5.07");
        assert_eq!(Money::from_cents(-3).to_string(), "-$0.03");
        assert_eq!(Money::ZERO.to_string(), "$0.00");
    }

    #[test]
    fn sum_and_clamps() {
        let total: Money = [1, 2, 3].iter().map(|&c| Money::from_cents(c)).sum();
        assert_eq!(total.cents(), 6);
        assert_eq!(Money::from_cents(5).max(Money::from_cents(9)).cents(), 9);
        assert_eq!(Money::from_cents(5).min(Money::from_cents(9)).cents(), 5);
    }

    #[test]
    fn f64_roundtrip() {
        assert_eq!(Money::from_f64_rounded(4.6).cents(), 5);
        assert_eq!(Money::from_f64_rounded(-4.6).cents(), -5);
        assert_eq!(Money::from_cents(7).as_f64(), 7.0);
    }
}
