//! Reproduces the paper's litmus tests: Figure 3 (tests 1–9), the §3.5
//! variant-separating tests (10–12, reported as CXL0/LWB/PSN triples),
//! the §6 motivating example (test 13), and the A1–A8 suite of the
//! `CXL0_AF` asynchronous-flush extension.
//!
//! Run with: `cargo run --example litmus_suite`

use cxl0::explore::litmus::run_suite;
use cxl0::explore::{paper, paper_async, Verdict};
use cxl0::model::ModelVariant;

fn main() {
    println!("Figure 3 — litmus tests for CXL0\n");
    for test in paper::figure3_tests() {
        let verdict = test.run(ModelVariant::Base);
        let expected = test.expected_for(ModelVariant::Base).unwrap();
        println!(
            "{} {}  {}   [{}]",
            test.name,
            verdict,
            test.trace,
            if verdict == expected {
                "matches paper"
            } else {
                "MISMATCH"
            }
        );
        println!("         {}\n", test.description);
    }

    println!("\n§3.5 — model variant comparison (CXL0, CXL0_LWB, CXL0_PSN)\n");
    for test in paper::variant_tests() {
        let triple: Vec<String> = [ModelVariant::Base, ModelVariant::Lwb, ModelVariant::Psn]
            .iter()
            .map(|&v| test.run(v).symbol().to_string())
            .collect();
        println!("{}  ({})  {}", test.name, triple.join(","), test.trace);
        println!("         {}\n", test.description);
    }

    println!("\n§6 — motivating example (x=1; r1=x; r2=x; assert r1==r2)\n");
    let t13 = paper::motivating_example();
    let verdict = t13.run(ModelVariant::Base);
    println!("{} {}  {}", t13.name, verdict, t13.trace);
    println!(
        "         the assertion CAN fail under CXL0: verdict {} (expected {})\n",
        verdict,
        Verdict::Allowed
    );

    println!("\n§3.2 extension — CXL0_AF asynchronous flushes (tests A1–A8)\n");
    let async_tests = paper_async::async_flush_tests();
    for test in &async_tests {
        for o in test.check() {
            println!(
                "{} {}   [{}]",
                test.name,
                o.observed,
                if o.pass() { "as designed" } else { "MISMATCH" }
            );
        }
        println!("         {}\n", test.description);
    }

    let report = run_suite(&paper::all_tests());
    println!("==> {}", report);
    assert!(report.all_pass(), "litmus suite must match the paper");
    assert!(
        run_suite(&async_tests).all_pass(),
        "async suite must match its design"
    );
}
