//! The Section III-E tree aggregation networks, simulated, for the property
//! test that checks their depth.

pub mod parallel;
