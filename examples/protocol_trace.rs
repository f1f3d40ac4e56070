//! Watching the CXL link: drives the host–device pair simulator through
//! a coherence scenario and prints every transaction the protocol
//! analyzer observes — the §5.1 methodology — then regenerates Table 1
//! (diffed against the paper's published cells; a mismatch exits
//! non-zero) and the Figure-5 latency sweep with the ratios the paper
//! reports alongside.
//!
//! Run with: `cargo run --release --example protocol_trace`
//!
//! "Trace" here means the protocol analyzer's transaction log (and, in
//! the model crate, a sequence of visible labels) — not the runtime's
//! `cxl0::trace` observability layer; see `examples/trace_export.rs`
//! for that one.

use cxl0::fabric::{run_figure5, AccessPath, LatencyConfig};
use cxl0::protocol::{
    expected_paper_cells, generate_table1, render_sequence, CxlOp, HostDevicePair, Line, MemTarget,
    Node,
};

fn main() {
    println!("=== A coherence ping-pong on the link ===\n");
    let mut sim = HostDevicePair::new();
    let line = Line::new(MemTarget::HostMemory, 0);
    let script = [
        (Node::Host, CxlOp::Read, "host warms the line"),
        (Node::Device, CxlOp::Read, "device reads it too (shared)"),
        (
            Node::Host,
            CxlOp::LStore,
            "host writes: snoop the device out",
        ),
        (
            Node::Device,
            CxlOp::LStore,
            "device writes: pulls ownership",
        ),
        (Node::Device, CxlOp::RFlush, "device flushes it back to HM"),
        (Node::Host, CxlOp::MStore, "host NT-stores over it"),
    ];
    for (node, op, why) in script {
        let before = sim.state(line);
        let txns = sim.perform(node, op, line).expect("available op");
        println!(
            "{node:>6} {op:<7} {why:<38} {} -> {}   link: {}",
            before,
            sim.state(line),
            render_sequence(&txns)
        );
    }
    println!(
        "\nanalyzer saw {} transactions across {} operations",
        sim.analyzer().total_transactions(),
        sim.analyzer().observations().len()
    );

    println!("\n=== Table 1, regenerated from the protocol engine ===\n");
    let (table, _) = generate_table1();
    println!("{}", table.to_text());
    let expected = expected_paper_cells();
    let mut mismatches = 0;
    for (key, want) in &expected {
        let got = &table.cells[key];
        if got != want {
            mismatches += 1;
            println!(
                "MISMATCH {key:?}: generated `{}` but the paper reports `{}`",
                got.render(),
                want.render()
            );
        }
    }
    if mismatches == 0 {
        println!("all {} cells match the paper's Table 1", expected.len());
    }

    println!("\n=== Figure 5, regenerated from the latency simulator ===\n");
    let fig = run_figure5(&LatencyConfig::testbed(), 1000, 42);
    println!("{fig}");

    let m = |p, o| fig.median(p, o).unwrap() as f64;
    println!("shape checks (simulated vs paper):");
    println!(
        "  host remote/local Read      {:.2}x   (paper: 2.34x)",
        m(AccessPath::HostToHdm, CxlOp::Read) / m(AccessPath::HostToHm, CxlOp::Read)
    );
    println!(
        "  device remote/local Read    {:.2}x   (paper: 1.94x)",
        m(AccessPath::DeviceToHm, CxlOp::Read) / m(AccessPath::DeviceToHdmDeviceBias, CxlOp::Read)
    );
    println!(
        "  device→HM RStore/LStore     {:.2}x   (paper: 2.08x)",
        m(AccessPath::DeviceToHm, CxlOp::RStore) / m(AccessPath::DeviceToHm, CxlOp::LStore)
    );
    println!(
        "  device→HM MStore/RStore     {:.2}x   (paper: 1.45x)",
        m(AccessPath::DeviceToHm, CxlOp::MStore) / m(AccessPath::DeviceToHm, CxlOp::RStore)
    );
    println!(
        "  host→HDM vs device→HM Read  {:.2}x   (paper: ~1.07x, 'same latency')",
        m(AccessPath::DeviceToHm, CxlOp::Read) / m(AccessPath::HostToHdm, CxlOp::Read)
    );
    println!(
        "  RFlush/MStore (host→HM)     {:.2}x   (paper: ~1.0x)",
        m(AccessPath::HostToHm, CxlOp::RFlush) / m(AccessPath::HostToHm, CxlOp::MStore)
    );
    println!(
        "  not-measurable cells        {}      (paper: 7)",
        fig.not_measurable()
    );

    std::process::exit(if mismatches == 0 { 0 } else { 1 });
}
