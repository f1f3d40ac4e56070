//! Graphviz (DOT) export of explored transition graphs, for inspecting
//! small state spaces visually (e.g. the Figure-1 scenario).

use std::fmt::Write as _;

use crate::space::{Edge, ReachableGraph};

/// Renders the graph in Graphviz DOT syntax. Visible transitions are solid
/// edges labeled with the paper's notation; silent propagation steps are
/// dotted, matching Figure 1's convention.
pub fn to_dot(graph: &ReachableGraph, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{title}\" {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(
        out,
        "  node [shape=box, fontname=\"monospace\", fontsize=9];"
    );
    for (i, st) in graph.states.iter().enumerate() {
        let label = st.to_string().replace('\n', "\\l").replace('"', "'");
        let style = if i == 0 { ", penwidth=2" } else { "" };
        let _ = writeln!(out, "  s{i} [label=\"{label}\\l\"{style}];");
    }
    for (from, edge, to) in &graph.edges {
        let text = edge.to_string().replace('"', "'");
        let style = match edge {
            Edge::Visible(_) => "",
            Edge::Silent(_) => ", style=dotted, color=gray",
        };
        let _ = writeln!(out, "  s{from} -> s{to} [label=\"{text}\"{style}];");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{explore, AlphabetBuilder};
    use cxl0_model::{Primitive, Semantics, SystemConfig};

    #[test]
    fn dot_output_is_well_formed() {
        let cfg = SystemConfig::symmetric_nvm(1, 1);
        let sem = Semantics::new(cfg.clone());
        let alphabet = AlphabetBuilder::new(&cfg)
            .primitives([Primitive::LStore, Primitive::Crash])
            .build();
        let graph = explore(&sem, &alphabet, 100);
        let dot = to_dot(&graph, "demo");
        assert!(dot.starts_with("digraph \"demo\" {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("s0 ["));
        assert!(dot.contains("->"));
        assert!(
            dot.contains("style=dotted")
                || graph
                    .edges
                    .iter()
                    .all(|(_, e, _)| matches!(e, super::Edge::Visible(_)))
        );
    }
}
