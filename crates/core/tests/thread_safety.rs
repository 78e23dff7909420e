//! Compile-time thread-safety assertions.
//!
//! `serve_batch` hands each shard's keyword books — engines, boxed
//! solvers, campaign programs, RNGs — to a scoped worker thread, and the
//! serving layer moves the whole marketplace, attached journal included,
//! to its executor thread, so these types must stay `Send`. Asserting the bounds here means a future
//! non-thread-safe field (an `Rc`, a `RefCell` handed across campaigns, a
//! raw pointer in solver scratch) fails `cargo test` at compile time
//! instead of surfacing as a trait-bound error deep inside shard
//! integration.

use ssa_core::marketplace::{AuctionResponse, CampaignSpec, MarketBatchReport, Marketplace};
use ssa_core::{AuctionEngine, BatchReport, SqlProgramBidder, TableBidder};
use ssa_matching::{HungarianSolver, ReducedSolver, WdSolver};
use ssa_simplex::NetworkSimplexSolver;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn marketplaces_are_send() {
    // The marketplace carries its journal (`Box<dyn MutationJournal>`,
    // `Send` by supertrait) wherever it goes.
    assert_send::<Marketplace>();
    assert_send::<AuctionEngine<TableBidder>>();
    // Campaign specs (and thus their boxed programs) move into the
    // marketplace, which must remain Send afterwards.
    assert_send::<CampaignSpec>();
    // SQL bidding programs carry a whole embedded database (tables,
    // trigger ASTs, prepared plans, formula cache) — all of it must
    // migrate to shard workers with the campaign.
    assert_send::<SqlProgramBidder>();
    assert_send::<ssa_minidb::Database>();
    assert_send::<ssa_minidb::Prepared>();
    assert_sync::<ssa_minidb::Prepared>();
}

#[test]
fn every_wd_solver_is_send() {
    assert_send::<HungarianSolver>();
    assert_send::<ReducedSolver>();
    assert_send::<NetworkSimplexSolver>();
    // The trait-object form engines actually hold: `WdSolver: Send` is a
    // supertrait bound, so the box is Send without an explicit `+ Send`.
    assert_send::<Box<dyn WdSolver>>();
}

#[test]
fn reports_are_send_and_sync() {
    // Reports cross the shard merge boundary by value and may be shared
    // read-only by monitoring threads.
    assert_send::<BatchReport>();
    assert_sync::<BatchReport>();
    assert_send::<MarketBatchReport>();
    assert_sync::<MarketBatchReport>();
    assert_send::<AuctionResponse>();
    assert_sync::<AuctionResponse>();
}
