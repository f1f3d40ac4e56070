//! The simulated cost of each CXL0 primitive in nanoseconds,
//! distinguishing local (issuer owns the line) from remote accesses.
//!
//! The table is calibrated to the *shape* of the paper's Figure 5 (see
//! `cxl0-fabric` for the transaction-level derivation): local loads
//! ≈ 2.3× faster than remote, `LStore` ≈ write-buffer speed, and
//! `MStore`/`RFlush` paying the full memory round trip. It is fixed: the
//! runtime accumulates these costs so benchmarks can report
//! deterministic simulated time alongside wall-clock time, and one table
//! keeps every such figure comparable.

use cxl0_model::Primitive;

/// Load served with the issuer owning the line's home.
const LOAD_LOCAL: u64 = 110;
/// Load of a line homed on another machine (≈ 2.34× a local load, as
/// the paper's host measures).
const LOAD_REMOTE: u64 = 258;
/// `LStore` (write buffer / local cache).
const LSTORE: u64 = 12;
/// `RStore` to a remote owner's cache (≈ 2.08× the device's `LStore`).
const RSTORE_REMOTE: u64 = 115;
/// `MStore` to local memory (an NT store plus fence).
const MSTORE_LOCAL: u64 = 170;
/// `MStore` to remote memory (≈ 2.3× a local `MStore`).
const MSTORE_REMOTE: u64 = 400;
/// `LFlush` (drain one level).
const LFLUSH: u64 = 60;
/// `RFlush` of a locally-homed line (≈ `MStore`, as in the paper).
const RFLUSH_LOCAL: u64 = 175;
/// `RFlush` of a remotely-homed line.
const RFLUSH_REMOTE: u64 = 395;
/// RMW premium added on top of the matching store cost.
const RMW_EXTRA: u64 = 30;
/// Issuing an asynchronous flush request (`AFlush`, the `CLFLUSHOPT`
/// analogue of the `CXL0_AF` extension): just a buffer enqueue, no link
/// traffic.
pub(crate) const AFLUSH_ISSUE: u64 = 8;
/// Fixed overhead of a `Barrier` (the `SFENCE` analogue), before any
/// pending write-backs are waited for.
const BARRIER_BASE: u64 = 30;
/// Incremental per-line cost of each *additional* write-back retired
/// under one barrier: pending flushes overlap on the link, so `n` lines
/// cost one full `RFlush` plus `n-1` of these, not `n` full round trips.
const FLUSH_PIPELINED: u64 = 90;

/// The cost of one primitive; `local` is true when the issuer owns the
/// target line.
pub fn cost(p: Primitive, local: bool) -> u64 {
    match (p, local) {
        (Primitive::Load, true) => LOAD_LOCAL,
        (Primitive::Load, false) => LOAD_REMOTE,
        (Primitive::LStore, _) => LSTORE,
        (Primitive::RStore, true) => LSTORE, // owner RStore ≡ LStore
        (Primitive::RStore, false) => RSTORE_REMOTE,
        (Primitive::MStore, true) => MSTORE_LOCAL,
        (Primitive::MStore, false) => MSTORE_REMOTE,
        (Primitive::LFlush, _) => LFLUSH,
        (Primitive::RFlush, true) => RFLUSH_LOCAL,
        (Primitive::RFlush, false) => RFLUSH_REMOTE,
        (Primitive::Gpf, _) => RFLUSH_REMOTE * 4,
        (Primitive::LRmw, l) => cost(Primitive::LStore, l) + RMW_EXTRA,
        (Primitive::RRmw, l) => cost(Primitive::RStore, l) + RMW_EXTRA,
        (Primitive::MRmw, l) => cost(Primitive::MStore, l) + RMW_EXTRA,
        (Primitive::Crash, _) => 0,
    }
}

/// The cost of a `Barrier` that retires `lines` write-backs, the slowest
/// of which costs `max_line` as a full `RFlush`: that line is paid in
/// full, the rest overlap on the link at a pipelined increment each.
/// Callers that visit lines one at a time track only the maximum and the
/// count. This is the single definition of the formula.
pub fn barrier_cost_of(max_line: u64, lines: u64) -> u64 {
    if lines == 0 {
        BARRIER_BASE
    } else {
        BARRIER_BASE + max_line + FLUSH_PIPELINED * (lines - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_ratios_hold() {
        let r = LOAD_REMOTE as f64 / LOAD_LOCAL as f64;
        assert!((2.0..2.7).contains(&r), "remote/local load ratio {r}");
        assert!(RFLUSH_LOCAL.abs_diff(MSTORE_LOCAL) < 20);
        assert!(cost(Primitive::RStore, false) > cost(Primitive::LStore, false));
        assert!(cost(Primitive::MStore, false) > cost(Primitive::RStore, false));
    }

    #[test]
    fn owner_rstore_costs_like_lstore() {
        assert_eq!(cost(Primitive::RStore, true), cost(Primitive::LStore, true));
    }

    #[test]
    fn rmw_adds_premium() {
        assert_eq!(
            cost(Primitive::MRmw, false),
            cost(Primitive::MStore, false) + RMW_EXTRA
        );
    }

    #[test]
    fn barrier_cost_pipelines_after_the_slowest_line() {
        let remote = cost(Primitive::RFlush, false);
        assert_eq!(barrier_cost_of(0, 0), BARRIER_BASE);
        assert_eq!(barrier_cost_of(remote, 1), BARRIER_BASE + remote);
        let three = barrier_cost_of(remote, 3);
        assert_eq!(three, BARRIER_BASE + remote + 2 * FLUSH_PIPELINED);
        // Batching n lines under one barrier beats n synchronous RFlushes.
        assert!(three < 3 * remote);
    }
}
