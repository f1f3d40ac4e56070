//! E3 regenerator: checks all eight items of Proposition 1 exhaustively
//! over the reachable state spaces of three configurations and prints a
//! report (the paper proves these in Rocq). Exits non-zero on a failed
//! item.
//!
//! Run with: `cargo run --release --example proposition1` (seconds; the
//! 20 000-state prefix of the 2-location space takes ~12 minutes and is
//! what `cargo test --release --test proposition1` checks)

use cxl0::explore::check_proposition1;
use cxl0::model::{MachineConfig, Semantics, SystemConfig, Val};

fn main() {
    // Budgets cap the explored prefix of each reachable space. The 1-loc
    // configurations close out well under their caps (full reachable
    // sets); the 2-loc space explodes combinatorially and every explored
    // state is checked for all 8 items at a cost that grows faster than
    // the prefix (1 000 states ≈ 6 s, 4 000 ≈ 50 s), so its cap keeps
    // this report, which CI runs on every push, to seconds.
    let configs: Vec<(&str, SystemConfig, usize)> = vec![
        (
            "2 machines, NVM ×1 loc",
            SystemConfig::symmetric_nvm(2, 1),
            500_000,
        ),
        (
            "NVM + volatile machine",
            SystemConfig::new(vec![
                MachineConfig::non_volatile(1),
                MachineConfig::volatile(1),
            ]),
            500_000,
        ),
        (
            "2 machines, NVM ×2 locs",
            SystemConfig::symmetric_nvm(2, 2),
            1_000,
        ),
    ];
    let mut ok = true;
    for (name, cfg, budget) in configs {
        println!("configuration: {name} (≤ {budget} states)");
        let sem = Semantics::new(cfg);
        match check_proposition1(&sem, &[Val(0), Val(1)], budget) {
            Ok(results) => {
                for (item, checked) in results {
                    println!("  PASS ({checked:>6} instantiations)  {item}");
                }
            }
            Err(ce) => {
                ok = false;
                println!("  FAIL: {ce}");
            }
        }
        println!();
    }
    std::process::exit(if ok { 0 } else { 1 });
}
