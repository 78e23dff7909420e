//! # ssa-bidlang — the multi-feature bidding language
//!
//! This crate implements Section II-A of *Toward Expressive and Scalable
//! Sponsored Search Auctions* (Martin, Gehrke & Halpern, ICDE 2008): a bidding
//! language in which advertisers place **OR-bids on Boolean combinations of
//! predicates** over the auction outcome.
//!
//! The available predicates are:
//!
//! * [`Predicate::Slot`] — "my ad is shown in slot *j*",
//! * [`Predicate::Click`] — "the user clicked on my ad",
//! * [`Predicate::Purchase`] — "the user made a purchase via my ad",
//! * [`Predicate::HeavyInSlot`] — "slot *j* is occupied by a *heavyweight*
//!   advertiser" (the Section III-F extension).
//!
//! A bid is a [`BidsTable`]: a list of ([`Formula`], value) rows. If several
//! formulas hold in the final outcome the advertiser pays the **sum** of the
//! corresponding values (OR-bid semantics, Section II-A).
//!
//! ```
//! use ssa_bidlang::{Formula, BidsTable, Money, SlotId, AdvertiserView};
//!
//! // The paper's Figure 3: pay 5¢ for a purchase, 2¢ for slot 1 or 2
//! // (and hence 7¢ for both).
//! let bids = BidsTable::new(vec![
//!     (Formula::purchase(), Money::from_cents(5)),
//!     (Formula::slot(SlotId::new(1)) | Formula::slot(SlotId::new(2)), Money::from_cents(2)),
//! ]);
//! let outcome = AdvertiserView {
//!     slot: Some(SlotId::new(1)),
//!     clicked: true,
//!     purchased: true,
//!     heavy_pattern: None,
//! };
//! assert_eq!(bids.payment(&outcome), Money::from_cents(7));
//! ```
//!
//! The crate also contains:
//!
//! * a text [`parser`] for formulas (`"Click & Slot1 | Purchase"`),
//! * a [`targeting`] expression language over typed user attributes
//!   (`geo = 'us' and segment in ('sports', 'autos')`), compiled once per
//!   campaign to an allocation-free bytecode matcher.
//!
//! Both languages are the same Boolean grammar over different atoms, and
//! one depth-bounded recursive descent in [`parser`] parses both: a
//! syntax error or nesting past [`parser::MAX_NESTING_DEPTH`] is one
//! [`ParseError`] in either, and so is a formula of more than
//! [`parser::MAX_FORMULA_ATOMS`] atoms.
//!
//! Definition 1's 1-dependence is syntactic in this language: a formula's
//! event is 1-dependent exactly when it mentions no heavyweight predicate,
//! which [`Formula::mentions_heavy`] answers. The crate's property tests
//! hold that answer to an explicit dependence-set analysis, and reproduce
//! Theorem 3's reduction from maximum weighted feedback arc set to
//! 2-dependent bids with brute-force and local-search solvers; both live in
//! the tests (`tests/support/`), not in the shipped crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod bids;
pub mod formula;
pub mod ids;
pub mod money;
pub mod outcome;
pub mod parser;
pub mod predicate;
pub mod targeting;

pub use bids::{BidRow, BidsTable};
pub use formula::Formula;
pub use ids::SlotId;
pub use money::Money;
pub use outcome::{AdvertiserView, HeavyPattern};
pub use parser::{parse_formula, ParseError, ParseErrorKind};
pub use predicate::Predicate;
pub use targeting::{parse_targeting, AttrValue, CompiledTargeting, TargetExpr, UserAttrs};
