//! # `cxl0-explore` — explicit-state exploration for the CXL0 model
//!
//! This crate turns the per-step semantics of [`cxl0_model`] — one
//! [`Semantics`](cxl0_model::Semantics) for CXL0 and its `CXL0_AF`
//! asynchronous-flush labels — into the paper's full `γ ⟹ γ′` relation
//! and builds four analyses on top:
//!
//! * [`interp`] — the nondeterministic interpreter (τ-closure, label
//!   application, trace executability);
//! * [`litmus`] / [`paper`] — the litmus-test engine and the paper's 13
//!   tests (Fig. 3 tests 1–9, §3.5 tests 10–12, §6 test 13);
//! * [`space`] — label-alphabet generation and reachable-state search;
//! * `product` (crate-private) — the check that a configuration's space is
//!   the product of its per-location projections, which the next two
//!   analyses rest on;
//! * [`simulate`] — exhaustive checking of Proposition 1 (the paper's Rocq
//!   proofs, rechecked over finite configurations);
//! * [`refine`] — complete trace refinement between model variants, one
//!   location at a time (the paper's FDR4/CSP analysis);
//! * [`paper_async`] — the `CXL0_AF` litmus suite `A1`–`A8` and the
//!   exhaustive `AFlush;Barrier ≡ RFlush` equivalence check;
//! * [`program`] — per-machine instruction streams (`AFlush` and
//!   `Barrier` included) whose interleavings and crash points are
//!   enumerated into outcome sets.
//!
//! ## Example: running a paper litmus test
//!
//! ```
//! use cxl0_explore::{paper, litmus::run_suite};
//!
//! let report = run_suite(&paper::figure3_tests());
//! assert!(report.all_pass());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod interp;
pub mod litmus;
pub mod paper;
pub mod paper_async;
mod product;
pub mod program;
pub mod refine;
pub mod simulate;
pub mod space;

pub use interp::{Explorer, StateSet};
pub use litmus::{Litmus, LitmusOutcome, SuiteReport, Verdict};
pub use program::{outcomes, Instr, Outcome, Program, Reg};
pub use refine::{check_refinement, Refinement};
pub use simulate::{check_all as check_proposition1, CounterExample, Prop1Item, Prop1Report};
pub use space::{reachable_states, AlphabetBuilder};
