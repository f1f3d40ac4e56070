//! Litmus tests for the `CXL0_AF` asynchronous-flush extension (§3.2,
//! *Limitations of CXL* — the extension the paper sketches via persistency
//! buffers).
//!
//! Tests are named `A1`–`A8` and follow the paper's conventions: machine
//! *1* is `MachineId(0)`, `xᵢ` is the location owned by machine *i*, and
//! all memory is non-volatile. The suite establishes:
//!
//! | Test | Behavior | Verdict |
//! |---|---|---|
//! | A1 | `AFlush` alone does not survive the *issuer's* crash | ✔ lossy |
//! | A2 | `AFlush; Barrier` persists before the issuer's crash | ✗ |
//! | A3 | `AFlush; Barrier` persists before the *owner's* crash (≙ test 5) | ✗ |
//! | A4 | un-barriered `AFlush` may lose the store to the owner's crash (≙ test 4) | ✔ |
//! | A5 | batching: two `AFlush`es under one `Barrier` persist both lines | ✗ |
//! | A6 | a `Barrier` only waits for the issuer's own buffer | ✔ lossy |
//! | A7 | `Barrier` with an empty buffer is a no-op (always enabled) | ✔ |
//! | A8 | a crash discards pending requests: post-crash `Barrier` proves nothing | ✔ lossy |

use cxl0_model::{Label, Loc, MachineId, Semantics, State, SystemConfig, Trace, Val};

use crate::interp::{Explorer, StateSet};
use crate::litmus::{Litmus, Verdict};
use crate::paper::{base, x, M1, M2};
use crate::space::reachable_states;

/// `yᵢ`: the second location owned by machine `i` (used by the batching
/// test A5).
fn y(i: usize) -> Loc {
    Loc::new(MachineId(i - 1), 1)
}

/// The `A1`–`A8` suite.
pub fn async_flush_tests() -> Vec<Litmus> {
    let one = SystemConfig::symmetric_nvm(1, 1);
    let two = SystemConfig::symmetric_nvm(2, 1);
    let two_wide = SystemConfig::symmetric_nvm(2, 2);
    vec![
        Litmus {
            name: "test-A1".into(),
            description: "an un-barriered AFlush request dies with the issuer".into(),
            config: one.clone(),
            trace: Trace::from_labels([
                Label::lstore(M1, x(1), Val(1)),
                Label::aflush(M1, x(1)),
                Label::crash(M1),
                Label::load(M1, x(1), Val(0)),
            ]),
            expected: base(Verdict::Allowed),
        },
        Litmus {
            name: "test-A2".into(),
            description: "AFlush;Barrier persists before the issuer's crash (≙ test 3)".into(),
            config: one,
            trace: Trace::from_labels([
                Label::lstore(M1, x(1), Val(1)),
                Label::aflush(M1, x(1)),
                Label::barrier(M1),
                Label::crash(M1),
                Label::load(M1, x(1), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
        Litmus {
            name: "test-A3".into(),
            description: "AFlush;Barrier reaches remote persistent memory (≙ test 5)".into(),
            config: two.clone(),
            trace: Trace::from_labels([
                Label::lstore(M1, x(2), Val(1)),
                Label::aflush(M1, x(2)),
                Label::barrier(M1),
                Label::crash(M2),
                Label::load(M1, x(2), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
        Litmus {
            name: "test-A4".into(),
            description: "without the barrier the remote store may still be lost (≙ test 4)".into(),
            config: two.clone(),
            trace: Trace::from_labels([
                Label::lstore(M1, x(2), Val(1)),
                Label::aflush(M1, x(2)),
                Label::crash(M2),
                Label::load(M1, x(2), Val(0)),
            ]),
            expected: base(Verdict::Allowed),
        },
        Litmus {
            name: "test-A5".into(),
            description: "batching: one barrier retires both pending flushes".into(),
            config: two_wide,
            trace: Trace::from_labels([
                Label::lstore(M1, x(2), Val(1)),
                Label::lstore(M1, y(2), Val(1)),
                Label::aflush(M1, x(2)),
                Label::aflush(M1, y(2)),
                Label::barrier(M1),
                Label::crash(M2),
                // Losing *either* line is forbidden; losing y is the harder
                // branch (flushed second), so we assert it.
                Label::load(M1, y(2), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
        Litmus {
            name: "test-A6".into(),
            description: "a barrier by machine 2 does not retire machine 1's requests".into(),
            config: two.clone(),
            trace: Trace::from_labels([
                Label::lstore(M1, x(2), Val(1)),
                Label::aflush(M1, x(2)),
                Label::barrier(M2),
                Label::crash(M2),
                Label::load(M1, x(2), Val(0)),
            ]),
            expected: base(Verdict::Allowed),
        },
        Litmus {
            name: "test-A7".into(),
            description: "a barrier over an empty buffer never blocks".into(),
            config: two.clone(),
            trace: Trace::from_labels([
                Label::barrier(M1),
                Label::lstore(M1, x(2), Val(1)),
                Label::barrier(M2),
                Label::load(M1, x(2), Val(1)),
            ]),
            expected: base(Verdict::Allowed),
        },
        Litmus {
            name: "test-A8".into(),
            description: "a crash clears the buffer, so a post-crash barrier proves nothing".into(),
            config: two,
            trace: Trace::from_labels([
                Label::lstore(M2, x(2), Val(1)),
                Label::aflush(M2, x(2)),
                Label::crash(M2),
                Label::barrier(M2),
                Label::load(M1, x(2), Val(0)),
            ]),
            expected: base(Verdict::Allowed),
        },
    ]
}

/// Every state of a two-machine, one-location-each system reachable under
/// `LStore(·,1)`, `AFlush` and crashes by either machine (silent steps
/// interleaved freely).
pub fn aflush_barrier_state_space() -> Vec<State> {
    let cfg = SystemConfig::symmetric_nvm(2, 1);
    let mut alphabet = Vec::new();
    for m in cfg.machines() {
        for loc in cfg.all_locations() {
            alphabet.push(Label::lstore(m, loc, Val(1)));
            alphabet.push(Label::aflush(m, loc));
        }
        alphabet.push(Label::crash(m));
    }
    reachable_states(&Semantics::new(cfg), &alphabet)
}

/// Checks the `AFlush;Barrier ≡ RFlush` equivalence exhaustively over
/// [`aflush_barrier_state_space`], for every issuer and location. Returns
/// the first counterexample state.
pub fn check_aflush_barrier_equivalence() -> Option<String> {
    let sem = Semantics::new(SystemConfig::symmetric_nvm(2, 1));
    let exp = Explorer::new(&sem);
    let cfg = sem.config();
    for st in &aflush_barrier_state_space() {
        let set = StateSet::from([st.clone()]);
        for m in cfg.machines() {
            for loc in cfg.all_locations() {
                let via_async = [Label::aflush(m, loc), Label::barrier(m)];
                let via_sync = [Label::rflush(m, loc)];
                let ok = if st.pending(m).next().is_none() {
                    exp.same_outcomes(&set, &via_async, &via_sync)
                } else {
                    exp.simulates(&set, &via_async, &via_sync)
                };
                if !ok {
                    return Some(format!(
                        "equivalence fails for issuer {m}, loc {loc}, from state:\n{st}"
                    ));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_async_litmus_tests_pass() {
        for t in async_flush_tests() {
            assert!(t.passes(), "{:?}", t.check());
        }
    }

    #[test]
    fn suite_has_eight_tests_with_unique_names() {
        let tests = async_flush_tests();
        assert_eq!(tests.len(), 8);
        let mut names: Vec<_> = tests.iter().map(|t| t.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn aflush_barrier_equivalence_holds_exhaustively() {
        assert_eq!(check_aflush_barrier_equivalence(), None);
    }

    #[test]
    fn a2_with_barrier_removed_flips_to_allowed() {
        // Sanity: the barrier is what makes A2 forbidden.
        let mut t = async_flush_tests().swap_remove(1);
        assert_eq!(t.name, "test-A2");
        t.trace = (t.trace.iter().copied())
            .filter(|l| !matches!(l, Label::Barrier { .. }))
            .collect();
        t.expected = base(Verdict::Allowed);
        assert!(t.passes());
    }
}
