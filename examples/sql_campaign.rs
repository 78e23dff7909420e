//! SQL bidding programs as first-class campaigns (Section II-B).
//!
//! An advertiser hands the marketplace a real *SQL bidding program* — a
//! schema, initial state, and triggers. `SqlProgram::compile` compiles it
//! once — the embedded `ssa_minidb` engine parses both scripts, runs their
//! DDL and lowers every statement — and `CampaignSpec::sql_program` runs a
//! campaign of it with its own initial state; a host registering many
//! campaigns of one program holds the compiled value and passes it to
//! each. Each auction the marketplace sets the shared `time`/`keyword`
//! variables, fires the program's `Query` trigger, reads its `Bids`
//! table, and after settlement fires the `Outcome` trigger — so the whole
//! strategy, ROI bookkeeping included, lives inside SQL.
//!
//! The program below is the paper's Figure 5 "Equalize ROI" strategy for
//! a single keyword, bidding against a couple of static rivals.
//!
//! ```text
//! cargo run --example sql_campaign
//! ```

use sponsored_search::bidlang::Money;
use sponsored_search::core::SqlProgram;
use sponsored_search::marketplace::{CampaignSpec, Marketplace, QueryRequest};
use sponsored_search::minidb::Params;

/// Schema and initial state. The host protocol requires a single-column
/// `Query` table, a `Bids (formula, value)` table, and — to receive
/// settlement notifications — a single-column `Outcome` table. Numeric
/// initial state is bound through parameters, never string-formatted.
const TABLES: &str = "
CREATE TABLE Query (kw INT);
CREATE TABLE Outcome (clicked INT);
CREATE TABLE Keywords (text TEXT, formula TEXT, maxbid INT, roi FLOAT, bid INT, relevance FLOAT);
CREATE TABLE Bids (formula TEXT, value INT);
INSERT INTO Keywords VALUES ('shoes', 'Click', :value, :roi, :bid, 1.0);
INSERT INTO Bids VALUES ('Click', 0);
SET amtSpent = 0.0;
SET spent = 0.0;
SET valueGained = 0.0;
SET clickValue = :value;
SET targetSpendRate = :rate;
";

/// Figure 5, plus a settlement trigger keeping the ROI statistic in SQL.
const PROGRAM: &str = "
CREATE TRIGGER bid AFTER INSERT ON Query
{
  IF amtSpent / time < targetSpendRate THEN
    UPDATE Keywords SET bid = bid + 1
    WHERE roi = ( SELECT MAX( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid < maxbid;
  ELSEIF amtSpent / time > targetSpendRate THEN
    UPDATE Keywords SET bid = bid - 1
    WHERE roi = ( SELECT MIN( K.roi ) FROM Keywords K )
      AND relevance > 0 AND bid > 0;
  ENDIF;

  UPDATE Bids SET value =
    ( SELECT SUM( K.bid ) FROM Keywords K
      WHERE K.relevance > 0.7 AND K.formula = Bids.formula );
}

CREATE TRIGGER settle AFTER INSERT ON Outcome
{
  IF clicked = 1 AND price > 0 THEN
    SET spent = spent + price;
    SET valueGained = valueGained + clickValue;
    SET amtSpent = amtSpent + price;
    UPDATE Keywords SET roi = valueGained / spent;
  ENDIF;
}
";

fn main() {
    let mut market = Marketplace::builder()
        .slots(2)
        .seed(2008)
        .default_click_probs(vec![0.35, 0.20])
        .build()
        .expect("valid configuration");

    let programmed = market.register_advertiser("ProgrammedCo");
    let rival_a = market.register_advertiser("StaticShoes");
    let rival_b = market.register_advertiser("BudgetBoots");

    // The program, compiled once; a host with many campaigns of it keeps
    // this value and instantiates every campaign from it.
    let program = SqlProgram::compile(TABLES, PROGRAM).expect("well-formed bidding program");

    // The SQL campaign: click value 20¢, starting bid 3¢, initial ROI 1.5,
    // target spend rate 2¢ per auction.
    let params = Params::new()
        .bind("value", 20)
        .bind("bid", 3)
        .bind("roi", 1.5)
        .bind("rate", 2.0);
    let sql_campaign = market
        .add_campaign(
            programmed,
            0,
            CampaignSpec::sql_program(&program, &params).expect("the parameters fit the program"),
        )
        .expect("campaign accepted");

    // Two classical per-click rivals.
    market
        .add_campaign(rival_a, 0, CampaignSpec::per_click(Money::from_cents(6)))
        .expect("campaign accepted");
    market
        .add_campaign(rival_b, 0, CampaignSpec::per_click(Money::from_cents(4)))
        .expect("campaign accepted");

    println!("serving 12 'shoes' queries against a SQL-programmed bidder…\n");
    for _ in 0..12 {
        let response = market.serve(QueryRequest::new(0)).expect("known keyword");
        let program_row = response
            .placements
            .iter()
            .find(|p| p.campaign == sql_campaign);
        let placed = match program_row {
            Some(p) => format!(
                "slot {} (clicked: {}, charged {})",
                p.slot.position(),
                p.clicked,
                p.charge
            ),
            None => "not placed".to_string(),
        };
        println!(
            "auction {:>2}: expected revenue {:>6.2}¢ | ProgrammedCo {placed}",
            response.time, response.expected_revenue
        );
    }
    println!("\nThe program raised or lowered its bid each round inside SQL —");
    println!("underspending pushes it up toward maxbid, clicks feed the ROI row.");
}
