//! A capture rebuilt the way recovery rebuilds a snapshot.

use ssa_core::{MarketState, Marketplace};

/// `state`'s records applied to a fresh build of its configuration
/// through `Marketplace::apply`, then its clock and RNG positions restored.
pub fn restored(state: &MarketState) -> Marketplace {
    let mut market = Marketplace::from_config(&state.config).expect("valid configuration");
    for record in &state.records {
        market.apply(record.clone()).expect("a captured record");
    }
    (market.restore_positions(state.clock, &state.rng_states)).expect("one stream per keyword");
    market
}
