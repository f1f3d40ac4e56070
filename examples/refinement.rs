//! E10 regenerator: decides the §3.5 refinement claims completely — at
//! every depth, over every label — one location at a time, on the four
//! Proposition 1 configurations, and prints the distinguishing traces it
//! finds (the automated analogue of the paper's FDR4 runs). Exits non-zero
//! if a claim fails.
//!
//! Run with: `cargo run --release --example refinement`

use cxl0::explore::{check_refinement, Refinement};
use cxl0::model::{MachineConfig, ModelVariant, Semantics, SystemConfig, Val};

fn main() {
    let (nvm, vol) = (MachineConfig::non_volatile(1), MachineConfig::volatile(1));
    // (a, b, whether the paper claims a ⊑ b): the two §3.5 claims first.
    let claims = [
        (ModelVariant::Psn, ModelVariant::Base, true),
        (ModelVariant::Lwb, ModelVariant::Base, true),
        (ModelVariant::Base, ModelVariant::Psn, false),
        (ModelVariant::Base, ModelVariant::Lwb, false),
        (ModelVariant::Psn, ModelVariant::Lwb, false),
        (ModelVariant::Lwb, ModelVariant::Psn, false),
    ];
    // Each configuration with the claims checked on it. On the
    // two-location one each check explores two whole spaces of 10 000 to
    // 38 416 states, so it gets the two §3.5 claims only (its converses
    // fail with the one-location configurations' witnesses).
    let configs = [
        ("2 × NVM", SystemConfig::symmetric_nvm(2, 1), &claims[..]),
        (
            "NVM + volatile (§3.5)",
            SystemConfig::new(vec![nvm.clone(), vol.clone()]),
            &claims[..],
        ),
        (
            "NVM + volatile + compute-only",
            SystemConfig::new(vec![nvm, vol, MachineConfig::compute_only()]),
            &claims[..],
        ),
        (
            "2 × NVM, 2 locations each",
            SystemConfig::symmetric_nvm(2, 2),
            &claims[..2],
        ),
    ];
    let mut ok = true;
    for (name, cfg, claims) in &configs {
        println!("{name}: every label, values {{0,1}}");
        let sem = |v| Semantics::with_variant(cfg.clone(), v);
        for &(a, b, refines) in *claims {
            let result = match check_refinement(&sem(a), &sem(b), &[Val(0), Val(1)]) {
                Ok(result) => result,
                Err(e) => {
                    println!("  {a} ⊑ {b}   ERROR: {e}");
                    ok = false;
                    continue;
                }
            };
            let verdict = if result.holds() == refines {
                "matches paper"
            } else {
                ok = false;
                "MISMATCH"
            };
            match result {
                Refinement::Holds => println!("  {a} ⊑ {b}   holds (complete)   [{verdict}]"),
                Refinement::CounterExample(t) => {
                    println!("  {a} ⋢ {b}   complete, witness: {t}   [{verdict}]");
                }
            }
        }
    }
    println!("\nexpected: variants refine CXL0; CXL0 refines neither; PSN and LWB incomparable.");
    std::process::exit(if ok { 0 } else { 1 });
}
