//! E10 regenerator: checks the §3.5 refinement claims with the bounded
//! trace-refinement engine and prints the distinguishing traces it finds
//! (the automated analogue of the paper's FDR4 runs). Exits non-zero if
//! a claim fails.
//!
//! Run with: `cargo run --release --example refinement`

use cxl0::explore::{check_refinement, AlphabetBuilder, Refinement};
use cxl0::model::{MachineConfig, ModelVariant, Primitive, Semantics, SystemConfig, Val};

fn main() {
    // §3.5's configuration: machine 1 NVMM, machine 2 volatile.
    let cfg = SystemConfig::new(vec![
        MachineConfig::non_volatile(1),
        MachineConfig::volatile(1),
    ]);
    let alphabet = AlphabetBuilder::new(&cfg)
        .values([Val(0), Val(1)])
        .primitives([
            Primitive::LStore,
            Primitive::RStore,
            Primitive::Load,
            Primitive::Crash,
        ])
        .build();
    println!(
        "alphabet: {} labels over 2 machines × 1 location × values {{0,1}}; depth 5\n",
        alphabet.len()
    );

    let sem = |v| Semantics::with_variant(cfg.clone(), v);
    // (a, b, whether the paper claims a ⊑ b)
    let claims = [
        (ModelVariant::Psn, ModelVariant::Base, true),
        (ModelVariant::Lwb, ModelVariant::Base, true),
        (ModelVariant::Base, ModelVariant::Psn, false),
        (ModelVariant::Base, ModelVariant::Lwb, false),
        (ModelVariant::Psn, ModelVariant::Lwb, false),
        (ModelVariant::Lwb, ModelVariant::Psn, false),
    ];
    let mut ok = true;
    for (a, b, refines) in claims {
        let result = check_refinement(&sem(a), &sem(b), &alphabet, 5);
        let verdict = if result.holds() == refines {
            "matches paper"
        } else {
            ok = false;
            "MISMATCH"
        };
        match result {
            Refinement::HoldsUpToDepth(d) => {
                let scope = if d == usize::MAX {
                    "all depths (fixpoint)".to_string()
                } else {
                    format!("depth ≤ {d}")
                };
                println!("{a} ⊑ {b}   holds for {scope}   [{verdict}]");
            }
            Refinement::CounterExample(t) => {
                println!("{a} ⋢ {b}   witness: {t}   [{verdict}]");
            }
        }
    }
    println!("\nexpected: variants refine CXL0; CXL0 refines neither; PSN and LWB incomparable.");
    std::process::exit(if ok { 0 } else { 1 });
}
