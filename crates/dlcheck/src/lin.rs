//! Linearizability checking à la Wing & Gong, with the memoization
//! improvement of Lowe: a depth-first search over (linearized-set,
//! spec-state) pairs.
//!
//! The checker handles *pending* invocations per the original definition:
//! a pending operation may take effect at any point after its invocation
//! (with an arbitrary response), or may be omitted entirely.

use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;

use crate::bitset::BitSet;
use crate::history::{Event, History, OpId};
use crate::spec::SeqSpec;

/// One operation extracted from a history.
#[derive(Debug, Clone)]
pub struct OpRecord<Op, Ret> {
    /// The op id from the history.
    pub id: OpId,
    /// The operation.
    pub op: Op,
    /// Index of the invocation event.
    pub invoked_at: usize,
    /// Index of the response event and the returned value, if completed.
    pub response: Option<(usize, Ret)>,
}

/// Result of a linearizability check.
#[derive(Debug, Clone)]
pub enum LinResult<Op> {
    /// A witness linearization (op order) exists.
    Linearizable {
        /// The ops in linearization order (omitted pending ops excluded).
        witness: Vec<(OpId, Op)>,
    },
    /// No linearization exists.
    NotLinearizable,
}

impl<Op> LinResult<Op> {
    /// True for [`LinResult::Linearizable`].
    pub fn is_linearizable(&self) -> bool {
        matches!(self, LinResult::Linearizable { .. })
    }
}

impl<Op: fmt::Debug> fmt::Display for LinResult<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinResult::Linearizable { witness } => {
                write!(f, "linearizable via {} ops", witness.len())
            }
            LinResult::NotLinearizable => write!(f, "NOT linearizable"),
        }
    }
}

/// Extracts the operations of a history in invocation order.
pub fn collect_ops<Op: Clone + fmt::Debug, Ret: Clone + fmt::Debug>(
    history: &History<Op, Ret>,
) -> Vec<OpRecord<Op, Ret>> {
    let mut ops: Vec<OpRecord<Op, Ret>> = Vec::new();
    let mut index_of: std::collections::HashMap<OpId, usize> = Default::default();
    for (i, ev) in history.events().iter().enumerate() {
        match ev {
            Event::Invoke { id, op, .. } => {
                index_of.insert(*id, ops.len());
                ops.push(OpRecord {
                    id: *id,
                    op: op.clone(),
                    invoked_at: i,
                    response: None,
                });
            }
            Event::Respond { id, ret } => {
                let k = index_of[id];
                ops[k].response = Some((i, ret.clone()));
            }
            Event::Crash { .. } => {}
        }
    }
    ops
}

/// Checks whether `history` (crash-free; see [`crate::durable`] for the
/// crash-aware entry point) is linearizable with respect to `spec`.
///
/// Histories with more than a few hundred concurrent ops may be slow; the
/// search is exponential in the worst case but the memoization keeps
/// realistic histories (bounded concurrency) fast.
pub fn check_linearizable<S: SeqSpec>(
    spec: &S,
    history: &History<S::Op, S::Ret>,
) -> LinResult<S::Op>
where
    S::Op: Clone + fmt::Debug,
    S::Ret: Clone + fmt::Debug + PartialEq,
    S::State: Clone + Hash + Eq,
{
    let ops = collect_ops(history);
    let n = ops.len();

    // Happens-before predecessors: for op o, the set of *completed* ops
    // whose response precedes o's invocation. These must be linearized
    // before o.
    let mut preds: Vec<BitSet> = Vec::with_capacity(n);
    for o in &ops {
        let mut p = BitSet::new(n);
        for (j, q) in ops.iter().enumerate() {
            if let Some((resp_idx, _)) = &q.response {
                if *resp_idx < o.invoked_at {
                    p.set(j);
                }
            }
        }
        preds.push(p);
    }

    let mut completed = BitSet::new(n);
    for (j, o) in ops.iter().enumerate() {
        if o.response.is_some() {
            completed.set(j);
        }
    }

    // Iterative DFS with an explicit stack of (mask, state, path), where
    // a path is an index into one arena of (parent path, chosen op)
    // links, shared by every entry that extends it; ROOT is the empty
    // path.
    const ROOT: usize = usize::MAX;
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut visited: HashSet<(BitSet, S::State)> = HashSet::new();
    let init = spec.initial();
    let mut stack: Vec<(BitSet, S::State, usize)> = vec![(BitSet::new(n), init.clone(), ROOT)];
    visited.insert((BitSet::new(n), init));

    while let Some((mask, state, path)) = stack.pop() {
        if mask.contains_all(&completed) {
            let mut witness = Vec::new();
            let mut at = path;
            while at != ROOT {
                let (parent, j) = links[at];
                witness.push((ops[j].id, ops[j].op.clone()));
                at = parent;
            }
            witness.reverse();
            return LinResult::Linearizable { witness };
        }
        for j in 0..n {
            if mask.get(j) || !mask.contains_all(&preds[j]) {
                continue;
            }
            let (next_state, ret) = spec.apply(&state, &ops[j].op);
            if let Some((_, actual)) = &ops[j].response {
                if *actual != ret {
                    continue; // return value contradicts the spec here
                }
            }
            let mut next_mask = mask.clone();
            next_mask.set(j);
            let key = (next_mask.clone(), next_state.clone());
            if visited.insert(key) {
                links.push((path, j));
                stack.push((next_mask, next_state, links.len() - 1));
            }
        }
        // Pending ops may also be *omitted*: omission needs no transition —
        // it is modeled by simply never linearizing them, which the goal
        // check (`mask ⊇ completed`) already permits.
    }
    LinResult::NotLinearizable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Recorder, ThreadId};
    use crate::spec::{QueueOp, QueueRet, QueueSpec, RegisterOp, RegisterRet, RegisterSpec};

    #[test]
    fn sequential_queue_history_linearizable() {
        let rec = Recorder::new();
        let a = rec.invoke(ThreadId(0), 0, QueueOp::Enq(1));
        rec.respond(a, QueueRet::Ok);
        let b = rec.invoke(ThreadId(0), 0, QueueOp::Deq);
        rec.respond(b, QueueRet::Deqd(Some(1)));
        let h = rec.finish();
        assert!(check_linearizable(&QueueSpec, &h).is_linearizable());
    }

    #[test]
    fn fifo_violation_detected() {
        let rec = Recorder::new();
        let a = rec.invoke(ThreadId(0), 0, QueueOp::Enq(1));
        rec.respond(a, QueueRet::Ok);
        let b = rec.invoke(ThreadId(0), 0, QueueOp::Enq(2));
        rec.respond(b, QueueRet::Ok);
        let c = rec.invoke(ThreadId(0), 0, QueueOp::Deq);
        rec.respond(c, QueueRet::Deqd(Some(2))); // wrong: must be 1
        let h = rec.finish();
        assert!(!check_linearizable(&QueueSpec, &h).is_linearizable());
    }

    #[test]
    fn concurrent_overlap_allows_reordering() {
        // Two overlapping enqueues by different threads; a dequeue sees
        // the one invoked second — fine, they overlap.
        let rec = Recorder::new();
        let a = rec.invoke(ThreadId(0), 0, QueueOp::Enq(1));
        let b = rec.invoke(ThreadId(1), 0, QueueOp::Enq(2));
        rec.respond(a, QueueRet::Ok);
        rec.respond(b, QueueRet::Ok);
        let c = rec.invoke(ThreadId(0), 0, QueueOp::Deq);
        rec.respond(c, QueueRet::Deqd(Some(2)));
        let h = rec.finish();
        assert!(check_linearizable(&QueueSpec, &h).is_linearizable());
    }

    #[test]
    fn real_time_order_is_respected() {
        // Non-overlapping enqueues cannot be reordered.
        let rec = Recorder::new();
        let a = rec.invoke(ThreadId(0), 0, QueueOp::Enq(1));
        rec.respond(a, QueueRet::Ok);
        let b = rec.invoke(ThreadId(1), 0, QueueOp::Enq(2));
        rec.respond(b, QueueRet::Ok);
        let c = rec.invoke(ThreadId(0), 0, QueueOp::Deq);
        rec.respond(c, QueueRet::Deqd(Some(2)));
        let h = rec.finish();
        assert!(!check_linearizable(&QueueSpec, &h).is_linearizable());
    }

    #[test]
    fn pending_op_may_take_effect() {
        // A write is invoked but never responds (e.g. crash); a read still
        // sees its value — allowed, the pending op linearized.
        let rec = Recorder::new();
        let _w = rec.invoke(ThreadId(0), 0, RegisterOp::Write(7));
        let r = rec.invoke(ThreadId(1), 0, RegisterOp::Read);
        rec.respond(r, RegisterRet::Value(7));
        let h = rec.finish();
        assert!(check_linearizable(&RegisterSpec, &h).is_linearizable());
    }

    #[test]
    fn pending_op_may_be_omitted() {
        let rec = Recorder::new();
        let _w = rec.invoke(ThreadId(0), 0, RegisterOp::Write(7));
        let r = rec.invoke(ThreadId(1), 0, RegisterOp::Read);
        rec.respond(r, RegisterRet::Value(0));
        let h = rec.finish();
        assert!(check_linearizable(&RegisterSpec, &h).is_linearizable());
    }

    #[test]
    fn value_from_nowhere_rejected() {
        let rec = Recorder::new();
        let r = rec.invoke(ThreadId(0), 0, RegisterOp::Read);
        rec.respond(r, RegisterRet::Value(9));
        let h = rec.finish();
        assert!(!check_linearizable(&RegisterSpec, &h).is_linearizable());
    }

    #[test]
    fn witness_is_a_valid_linearization() {
        let rec = Recorder::new();
        let a = rec.invoke(ThreadId(0), 0, QueueOp::Enq(5));
        rec.respond(a, QueueRet::Ok);
        let b = rec.invoke(ThreadId(0), 0, QueueOp::Deq);
        rec.respond(b, QueueRet::Deqd(Some(5)));
        let h = rec.finish();
        match check_linearizable(&QueueSpec, &h) {
            LinResult::Linearizable { witness } => {
                assert_eq!(witness.len(), 2);
                assert!(matches!(witness[0].1, QueueOp::Enq(5)));
            }
            LinResult::NotLinearizable => panic!("expected linearizable"),
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<QueueOp, QueueRet> = History::new();
        assert!(check_linearizable(&QueueSpec, &h).is_linearizable());
    }
}
