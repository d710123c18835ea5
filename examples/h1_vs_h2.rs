//! Load the same page over HTTP/1.1 (six connections, no push) and over
//! HTTP/2 with and without Interleaving Push — the protocol generations
//! the paper spans, side by side.
//!
//! ```sh
//! cargo run --release --example h1_vs_h2 [site-number 1..20]
//! ```

use h2push::core::PushPlanner;
use h2push::strategies::Strategy;
use h2push::testbed::{Protocol, ReplayConfig, ReplayInputs, RunPlan};
use h2push::webmodel::realworld_site;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    let page = realworld_site(n);
    println!(
        "site: {} — {} KB HTML, {} requests, {} servers\n",
        page.name,
        page.html_size() / 1024,
        page.resources.len(),
        page.server_group_count()
    );

    let inputs = ReplayInputs::from(&page);
    let configs = [
        ("HTTP/1.1 (6 connections)", Protocol::H1, Strategy::NoPush),
        ("HTTP/2, no push", Protocol::H2, Strategy::NoPush),
        ("HTTP/2 + interleaving push", Protocol::H2, PushPlanner::static_recommendation(&page)),
    ];
    println!(
        "{:30} {:>10} {:>12} {:>12}",
        "configuration", "PLT [ms]", "SpeedIndex", "first paint"
    );
    for (label, protocol, strategy) in configs {
        let mut cfg = ReplayConfig::testbed(strategy);
        cfg.protocol = protocol;
        let run = RunPlan::new(&inputs).config(cfg).run_one().expect("replay completes");
        let l = &run.outcome.load;
        println!(
            "{:30} {:>10.0} {:>12.0} {:>12.0}",
            label,
            l.plt(),
            l.speed_index(),
            l.first_paint().unwrap().since(l.connect_end).as_millis_f64()
        );
    }
    println!("\nThe 2015 protocol jump (H1 → H2) and the paper's 2018 question");
    println!("(can push do better?) in one table.");
}
