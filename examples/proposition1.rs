//! E3 regenerator: checks all eight items of Proposition 1 over the whole
//! reachable state spaces of four configurations and prints a report (the
//! paper proves these in Rocq). Each space is checked to be the product of
//! its per-location spaces and each item is checked on those, with counts
//! given for the whole space. Exits non-zero on a failed check.
//!
//! Run with: `cargo run --release --example proposition1` (seconds)

use cxl0::explore::check_proposition1;
use cxl0::model::{MachineConfig, Semantics, SystemConfig, Val};

fn main() {
    let (nvm, vol) = (MachineConfig::non_volatile(1), MachineConfig::volatile(1));
    let configs = [
        ("2 machines, NVM ×1 loc", SystemConfig::symmetric_nvm(2, 1)),
        (
            "NVM + volatile machine",
            SystemConfig::new(vec![nvm.clone(), vol.clone()]),
        ),
        (
            "NVM + volatile + compute-only machine",
            SystemConfig::new(vec![nvm, vol, MachineConfig::compute_only()]),
        ),
        ("2 machines, NVM ×2 locs", SystemConfig::symmetric_nvm(2, 2)),
    ];
    let mut ok = true;
    for (name, cfg) in configs {
        match check_proposition1(&Semantics::new(cfg), &[Val(0), Val(1)]) {
            Ok(report) => {
                println!("configuration: {name} ({} states)", report.states);
                for (item, checked) in report.items {
                    println!("  PASS ({checked:>8} instantiations)  {item}");
                }
            }
            Err(e) => {
                ok = false;
                println!("configuration: {name}\n  FAIL: {e}");
            }
        }
        println!();
    }
    std::process::exit(if ok { 0 } else { 1 });
}
