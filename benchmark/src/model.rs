//! The oracles every result is checked against.
//!
//! Workers own disjoint keys, so a map or list worker's results are a
//! deterministic function of its own tape: [`KeyModel`] replays the
//! tape sequentially and every result must match. The queue is shared,
//! so [`QueueCheck`] checks what a FIFO queue guarantees however the
//! workers interleave: nothing is invented, duplicated or lost, and
//! each consumer sees each producer's values in order.

use crate::sut::REFUSED;
use crate::workload::{owner, preload_value, Op, OpKind, Spec};

/// Checks one worker's results as they arrive.
pub trait Oracle {
    /// Fills in what the tape leaves open (the queue's payloads).
    fn prepare(&mut self, op: Op) -> Op;
    /// Takes the result of an acknowledged op; `false` is a failed
    /// operation.
    fn observe(&mut self, op: Op, got: u64) -> bool;
    /// Advances the model by `op` without a system to ask (the harness
    /// loop's own cost, measured with no operation issued).
    fn dry(&mut self, op: Op) -> u64;
}

/// Sequential model of the keys one worker owns (indexed by key; 0 is
/// "absent", list members hold 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyModel {
    vals: Vec<u64>,
}

impl KeyModel {
    /// The preloaded state of `spec` under `seed`.
    pub fn preloaded(spec: &Spec, seed: u64) -> Self {
        let mut vals = vec![0; spec.keys as usize + 1];
        for key in 1..=spec.keys {
            vals[key as usize] = preload_value(spec, seed, key).unwrap_or(0);
        }
        KeyModel { vals }
    }

    pub fn value(&self, key: u32) -> u64 {
        self.vals[key as usize]
    }

    pub fn set(&mut self, key: u32, value: u64) {
        self.vals[key as usize] = value;
    }

    /// What `op` must return, applying its effect.
    fn expect(&mut self, op: Op) -> u64 {
        let slot = &mut self.vals[op.key as usize];
        let before = *slot;
        match op.kind {
            OpKind::MapGet => before,
            OpKind::MapInsert => {
                *slot = op.value;
                before
            }
            OpKind::MapRemove => {
                *slot = 0;
                before
            }
            OpKind::ListContains => u64::from(before != 0),
            OpKind::ListInsert => {
                *slot = 1;
                u64::from(before == 0)
            }
            OpKind::ListRemove => {
                *slot = 0;
                u64::from(before != 0)
            }
            OpKind::QueueEnqueue | OpKind::QueueDequeue => {
                unreachable!("queue ops have no key model")
            }
        }
    }
}

impl Oracle for KeyModel {
    #[inline]
    fn prepare(&mut self, op: Op) -> Op {
        op
    }

    #[inline]
    fn observe(&mut self, op: Op, got: u64) -> bool {
        self.expect(op) == got
    }

    #[inline]
    fn dry(&mut self, op: Op) -> u64 {
        self.expect(op)
    }
}

/// Producers are numbered from 1 in the payload's top byte; the rest is
/// the producer's running sequence number.
const SEQ_BITS: u32 = 56;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Per-producer tallies of one side (produced or consumed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    count: u64,
    sum: u64,
}

/// One thread's view of the shared queue: what it produced and what it
/// consumed. [`QueueCheck::reconcile`] closes the books over all views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueCheck {
    producer: u64,
    next_seq: u64,
    produced: Tally,
    consumed: Vec<Tally>,
    last_seen: Vec<u64>,
}

impl QueueCheck {
    /// A view for producer number `producer` (from 1; 0 only consumes)
    /// among `producers`, numbering its payloads from a seeded offset.
    pub fn new(producer: u64, producers: usize, seed: u64) -> Self {
        QueueCheck {
            producer,
            next_seq: crate::util::mix(seed, 0x5E9 + producer) >> 32,
            produced: Tally::default(),
            consumed: vec![Tally::default(); producers + 1],
            last_seen: vec![0; producers + 1],
        }
    }

    /// Takes one dequeued payload; `false` if it names no producer or
    /// arrives out of its producer's order.
    pub fn consume(&mut self, value: u64) -> bool {
        let producer = (value >> SEQ_BITS) as usize;
        let seq = value & SEQ_MASK;
        if producer == 0 || producer >= self.consumed.len() || seq <= self.last_seen[producer] {
            return false;
        }
        self.last_seen[producer] = seq;
        self.consumed[producer].count += 1;
        self.consumed[producer].sum = self.consumed[producer].sum.wrapping_add(seq);
        true
    }

    /// Operations that do not balance once every view is in: per
    /// producer, `enqueued = dequeued + drained`, by count and by sum
    /// (a duplicate or an invented value breaks one of the two).
    pub fn reconcile(views: &[QueueCheck]) -> u64 {
        let mut failed = 0;
        for p in views.iter().filter(|v| v.producer != 0) {
            let i = p.producer as usize;
            let count: u64 = views.iter().map(|v| v.consumed[i].count).sum();
            let sum = views
                .iter()
                .fold(0u64, |acc, v| acc.wrapping_add(v.consumed[i].sum));
            failed += p.produced.count.abs_diff(count);
            if p.produced.count == count && p.produced.sum != sum {
                failed += 1;
            }
        }
        failed
    }
}

impl Oracle for QueueCheck {
    #[inline]
    fn prepare(&mut self, mut op: Op) -> Op {
        if op.kind == OpKind::QueueEnqueue {
            op.value = (self.producer << SEQ_BITS) | (self.next_seq + 1);
        }
        op
    }

    #[inline]
    fn observe(&mut self, op: Op, got: u64) -> bool {
        match op.kind {
            OpKind::QueueEnqueue => {
                if got != 1 {
                    return false;
                }
                self.next_seq += 1;
                self.produced.count += 1;
                self.produced.sum = self.produced.sum.wrapping_add(self.next_seq);
                true
            }
            // An empty queue is a legal answer: the other worker may
            // have taken this worker's value first.
            OpKind::QueueDequeue => got == 0 || (got != REFUSED && self.consume(got)),
            _ => unreachable!("key ops have no queue check"),
        }
    }

    #[inline]
    fn dry(&mut self, op: Op) -> u64 {
        // Every enqueue succeeds and every dequeue finds the queue
        // empty: the bookkeeping cost without the queue.
        let got = u64::from(op.kind == OpKind::QueueEnqueue);
        u64::from(self.observe(op, got))
    }
}

/// Compares the list's recovered key snapshot with the workers' models.
/// `in_flight` holds each worker's op that the crash interrupted: that
/// key may be either way, and the model adopts what recovery shows.
/// Any other difference is an acknowledged operation lost (or an effect
/// invented); the model is resynchronised so one fault counts once.
/// Returns `(keys compared, mismatches)`.
pub fn check_list_snapshot(
    keys: u32,
    snapshot: &[u64],
    models: &mut [&mut KeyModel],
    in_flight: &[Option<Op>],
) -> (u64, u64) {
    let mut present = vec![false; keys as usize + 1];
    let mut failed = 0;
    for &k in snapshot {
        match present.get_mut(k as usize) {
            Some(slot) if k != 0 && !*slot => *slot = true,
            // Out of range or listed twice.
            _ => failed += 1,
        }
    }
    if snapshot.windows(2).any(|w| w[0] >= w[1]) {
        failed += 1;
    }
    for key in 1..=keys {
        let owner = owner(key);
        let actual = u64::from(present[key as usize]);
        if models[owner].value(key) != actual {
            let excused = in_flight[owner].is_some_and(|op| op.key == key);
            if !excused {
                failed += 1;
            }
            models[owner].set(key, actual);
        }
    }
    (u64::from(keys), failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, CHURN_CRASH, KV_READ_HEAVY};

    fn op(kind: OpKind, key: u32, value: u64) -> Op {
        Op { kind, key, value }
    }

    #[test]
    fn key_model_follows_map_and_list_semantics() {
        let kv = spec(KV_READ_HEAVY).unwrap();
        let mut m = KeyModel::preloaded(&kv, 1);
        let v0 = preload_value(&kv, 1, 3).unwrap();
        assert!(m.observe(op(OpKind::MapGet, 3, 0), v0));
        assert!(m.observe(op(OpKind::MapInsert, 3, 77), v0));
        assert!(m.observe(op(OpKind::MapGet, 3, 0), 77));
        assert!(m.observe(op(OpKind::MapRemove, 3, 0), 77));
        assert!(m.observe(op(OpKind::MapGet, 3, 0), 0));
        assert!(
            !m.observe(op(OpKind::MapGet, 3, 0), 77),
            "a stale read fails"
        );

        let list = spec(CHURN_CRASH).unwrap();
        let mut l = KeyModel::preloaded(&list, 1);
        l.set(5, 0);
        assert!(l.observe(op(OpKind::ListInsert, 5, 0), 1));
        assert!(l.observe(op(OpKind::ListInsert, 5, 0), 0));
        assert!(l.observe(op(OpKind::ListContains, 5, 0), 1));
        assert!(l.observe(op(OpKind::ListRemove, 5, 0), 1));
        assert!(!l.observe(op(OpKind::ListRemove, 5, 0), 1));
    }

    #[test]
    fn queue_check_balances_and_catches_loss_duplication_and_reordering() {
        let enq = op(OpKind::QueueEnqueue, 0, 0);
        let deq = op(OpKind::QueueDequeue, 0, 0);
        let mut a = QueueCheck::new(1, 2, 9);
        let mut b = QueueCheck::new(2, 2, 9);
        let mut drain = QueueCheck::new(0, 2, 9);
        let a1 = a.prepare(enq).value;
        assert!(a.observe(enq, 1));
        let a2 = a.prepare(enq).value;
        assert!(a.observe(enq, 1));
        assert_ne!(a1, a2);
        let b1 = b.prepare(enq).value;
        assert!(b.observe(enq, 1));
        assert!(b.observe(deq, a1));
        assert!(a.observe(deq, 0), "empty is a legal dequeue result");
        // a2 and b1 still queued: the books do not balance yet.
        assert_eq!(QueueCheck::reconcile(&[a.clone(), b.clone()]), 2);
        assert!(drain.consume(a2));
        assert!(drain.consume(b1));
        assert_eq!(
            QueueCheck::reconcile(&[a.clone(), b.clone(), drain.clone()]),
            0
        );
        // A duplicate delivery is out of order for whoever sees it twice…
        assert!(!drain.consume(a2));
        // …and unbalances the books when it reaches another consumer.
        let mut other = b.clone();
        assert!(other.observe(deq, a2));
        assert_ne!(QueueCheck::reconcile(&[a.clone(), other, drain.clone()]), 0);
        // Reordering and invented producers are refused outright.
        assert!(!b.observe(deq, a1));
        assert!(!b.observe(deq, 7 << SEQ_BITS | 1));
        assert!(!a.observe(enq, REFUSED));
    }

    /// The oracle is not vacuous: drop one acknowledged insert from the
    /// recovered state (equivalently, corrupt the model by one) and the
    /// check fails — unless that key's op was the one in flight.
    #[test]
    fn list_snapshot_check_catches_one_lost_acknowledged_insert() {
        let list = spec(CHURN_CRASH).unwrap();
        let (mut m0, mut m1) = (KeyModel::preloaded(&list, 4), KeyModel::preloaded(&list, 4));
        let mut models = [&mut m0, &mut m1];
        let snapshot: Vec<u64> = (1..=list.keys)
            .filter(|k| models[(*k as usize - 1) % 2].value(*k) != 0)
            .map(u64::from)
            .collect();
        let none = [None, None];
        assert_eq!(
            check_list_snapshot(list.keys, &snapshot, &mut models, &none),
            (256, 0)
        );

        // Worker 0 acknowledged an insert of an absent key it owns.
        let lost = (1..=list.keys)
            .find(|k| k % 2 == 1 && models[0].value(*k) == 0)
            .unwrap();
        assert!(models[0].observe(op(OpKind::ListInsert, lost, 0), 1));
        let (mut c0, mut c1) = (models[0].clone(), models[1].clone());
        assert_eq!(
            check_list_snapshot(list.keys, &snapshot, &mut [&mut c0, &mut c1], &none),
            (256, 1),
            "a lost acknowledged insert is a failed operation"
        );
        assert_eq!(c0.value(lost), 0, "the model resynchronises");

        // The same difference on the in-flight key is legal either way.
        let in_flight = [Some(op(OpKind::ListInsert, lost, 0)), None];
        assert_eq!(
            check_list_snapshot(list.keys, &snapshot, &mut models, &in_flight),
            (256, 0)
        );

        // Structural damage is caught too: unsorted or duplicated keys.
        let mut bad = snapshot.clone();
        bad.swap(0, 1);
        let (mut b0, mut b1) = (KeyModel::preloaded(&list, 4), KeyModel::preloaded(&list, 4));
        assert_ne!(
            check_list_snapshot(list.keys, &bad, &mut [&mut b0, &mut b1], &none).1,
            0
        );
    }
}
