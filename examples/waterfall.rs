//! Print a traced resource waterfall with and without Interleaving Push —
//! the per-resource view behind the paper's Fig. 5/Fig. 6 analysis — and
//! write the text + JSON exports under `results/`.
//!
//! ```sh
//! cargo run --release --example waterfall [site-number 1..20]
//! ```

use h2push::strategies::{paper_strategy, PaperStrategy};
use h2push::testbed::{write_waterfall, RunPlan};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let page = h2push::webmodel::realworld_site(n);
    let seed = 42u64;
    for which in [PaperStrategy::NoPush, PaperStrategy::PushCriticalOptimized] {
        let (variant, strategy) = paper_strategy(&page, which);
        let run = RunPlan::new(&variant)
            .strategy(strategy.clone())
            .seed(seed)
            .traced()
            .run_one()
            .unwrap();
        let l = &run.outcome.load;
        println!(
            "\n=== {} — {} === first paint {:.0} ms, SI {:.0} ms, PLT {:.0} ms",
            variant.name,
            which.label(),
            l.first_paint().unwrap().since(l.connect_end).as_millis_f64(),
            l.speed_index(),
            l.plt()
        );
        let timeline = run.timeline.expect("traced run records a timeline");
        let (txt, json) = write_waterfall("results", &variant, &strategy, seed, &timeline).unwrap();
        print!("{}", std::fs::read_to_string(&txt).unwrap());
        println!("wrote {} and {}", txt.display(), json.display());
    }
}
