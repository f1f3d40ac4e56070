//! Explorer performance report: median wall-clock of the three analyses
//! the model checker is built for — litmus suite evaluation,
//! reachable-state enumeration, and Proposition-1 checking (the checker
//! is itself a deliverable; its cost determines how large a
//! configuration the analyses scale to).
//!
//! Run: `cargo run -p cxl0-bench --bin explore_perf --release`

use std::time::{Duration, Instant};

use cxl0_explore::litmus::run_suite;
use cxl0_explore::{check_proposition1, explore, paper, AlphabetBuilder};
use cxl0_model::{Semantics, SystemConfig, Val};

const SAMPLES: usize = 10;

/// Median wall-clock of `SAMPLES` runs of `f`.
fn median<R>(mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[SAMPLES / 2]
}

fn main() {
    let tests = paper::all_tests();
    let cfg = SystemConfig::symmetric_nvm(2, 1);
    let sem = Semantics::new(cfg.clone());
    let alphabet = AlphabetBuilder::new(&cfg).build();

    println!("explorer wall-clock, median of {SAMPLES} runs\n");
    println!("{:<32} {:>12}", "analysis", "median");
    let rows: [(&str, Duration); 3] = [
        ("litmus_full_suite", median(|| run_suite(&tests))),
        (
            "explore_2m_1loc_full_alphabet",
            median(|| explore(&sem, &alphabet, 1_000_000)),
        ),
        (
            "proposition1_all_items",
            median(|| check_proposition1(&sem, &[Val(0), Val(1)], 1_000_000).unwrap()),
        ),
    ];
    for (name, t) in rows {
        println!("{name:<32} {t:>12.3?}");
    }
}
