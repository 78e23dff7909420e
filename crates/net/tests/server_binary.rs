//! The `ssa-server` binary itself: it starts from the default one-shard,
//! one-slot market, takes its shape from the client's `Configure`, serves,
//! and drains on `Shutdown`. It takes no market-shape flag.

use ssa_core::MutationRecord;
use ssa_net::{Client, MarketConfig, Response};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

/// A running server process, killed if the test ends before it exits.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn server(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_ssa-server"));
    command.args(args);
    command
}

#[test]
fn the_server_takes_its_shape_from_the_clients_configure() {
    let child = server(&["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("ssa-server starts");
    let mut running = Running(child);
    let mut stdout = BufReader::new(running.0.stdout.take().expect("piped stdout"));
    let mut announced = String::new();
    stdout.read_line(&mut announced).expect("first stdout line");
    let addr = (announced.trim_end())
        .strip_prefix("ssa-server listening on ")
        .unwrap_or_else(|| panic!("not an address announcement: {announced:?}"));

    let mut client = Client::connect(addr).expect("connects");
    let before = client.stats().expect("stats");
    let shape = |s: &ssa_net::ServerStats| (s.shards, s.slots, s.keywords, s.auctions);
    assert_eq!(shape(&before), (1, 1, 1, 0), "the default market");

    let config = MarketConfig {
        slots: 15,
        keywords: 4,
        shards: 2,
        seed: 7,
        default_click_probs: Some(vec![0.5; 15]),
        ..MarketConfig::default()
    };
    let reply = client.apply(MutationRecord::Configure(config));
    assert_eq!(reply.expect("configured"), Response::Ack);
    let name = "shoes.example".to_string();
    client
        .apply(MutationRecord::RegisterAdvertiser { name })
        .expect("registered");
    let campaign = MutationRecord::AddCampaign {
        advertiser: 0,
        keyword: 3,
        bid_cents: 20,
        click_value_cents: 40,
        roi_target: None,
        click_probs: None,
        purchase_probs: None,
        targeting: None,
    };
    client.apply(campaign).expect("campaign added");
    let served = client.serve(3).expect("served");
    assert_eq!(served.placements.len(), 1);
    assert_eq!(shape(&client.stats().expect("stats")), (2, 15, 4, 1));

    client.shutdown_server().expect("shutdown acknowledged");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("stdout to its end");
    assert!(rest.contains("ssa-server drained and stopped"), "{rest:?}");
    assert!(running.0.wait().expect("exits").success());
}

#[test]
fn a_market_shape_flag_is_a_usage_error() {
    let out = server(&["--addr", "127.0.0.1:0", "--shards", "2"])
        .output()
        .expect("ssa-server runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--shards\""), "{stderr}");
}
