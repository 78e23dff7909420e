//! The dense LP reference the property tests hold the network simplex to:
//! a tableau simplex ([`tableau`]) and the assignment LP it solves ([`lp`]),
//! whose integral optimum demonstrates the Chvátal argument of Section
//! III-B/D.

pub mod lp;
pub mod tableau;
