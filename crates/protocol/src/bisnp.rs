//! CXL 3.0 **back-invalidation** flows for the coherent shared memory pool
//! of §4 — the configuration the paper calls out as *envisioned but not yet
//! buildable*: "Currently, there is no CPU or pool device that implements
//! CXL 3.0 back invalidation flows, so cache-coherent sharing is
//! unavailable."
//!
//! This module simulates that future device. A Type-3 pool exposes an
//! HDM-DB region (Host-managed Device Memory with Back-Invalidate) to `N`
//! hosts over CXL.mem. The pool runs an inclusive **snoop filter**
//! (directory): per line it tracks the set of sharers or the single owner.
//! When one host's request conflicts with another host's cached copy, the
//! pool issues **BISnp** (back-invalidate snoop) requests S2M→H and the
//! snooped hosts answer with **BIRsp** responses — the CXL 3.0 flows that
//! make multi-host coherence possible at all.
//!
//! Two layers:
//!
//! * [`pool_op`] — the value-free transaction-generation rules: which link
//!   transactions a CXL0 primitive triggers from a given (issuer state,
//!   directory state), and the resulting states: the *envisioned*
//!   Table-1 analogue.
//! * [`CoherentPool`] — a stateful multi-host simulator with values, used
//!   to check that the envisioned device satisfies the CXL0 model's global
//!   cache invariant (§3.3) and single-writer/multiple-reader exclusion —
//!   the precondition for §4's claim that "CXL0 applies to the fully
//!   cache-coherent version".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::mesi::MesiState;
use crate::transaction::M2SReq;

/// One of the `N` hosts attached to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A cache-line-sized location in the pool's HDM-DB region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub u32);

/// S2M back-invalidate snoop requests (CXL 3.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BISnpReq {
    /// Demand the line's data and a downgrade to Shared.
    BISnpData,
    /// Demand invalidation (returning dirty data if any).
    BISnpInv,
}

/// M2S back-invalidate responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BIRsp {
    /// The host invalidated its copy.
    BIRspI,
    /// The host downgraded to Shared.
    BIRspS,
}

/// A transaction on the multi-host pool fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PoolTxn {
    /// A CXL.mem M2S request from `host` to the pool.
    M2S(HostId, M2SReq),
    /// A back-invalidate snoop from the pool to `host`.
    BISnp(HostId, BISnpReq),
    /// `host`'s response to a back-invalidate snoop; `dirty` indicates the
    /// response carried write-back data.
    BIRsp(HostId, BIRsp, bool),
}

impl fmt::Display for PoolTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolTxn::M2S(h, r) => {
                let name = match r {
                    M2SReq::MemRdData => "MemRdData",
                    M2SReq::MemRd => "MemRd",
                    M2SReq::MemWr => "MemWr",
                    M2SReq::MemInv => "MemInv",
                };
                write!(f, "{h}→pool {name}")
            }
            PoolTxn::BISnp(h, r) => write!(f, "pool→{h} {r:?}"),
            PoolTxn::BIRsp(h, r, dirty) => {
                write!(f, "{h}→pool {r:?}{}", if *dirty { "+data" } else { "" })
            }
        }
    }
}

/// The pool's directory (snoop-filter) entry for one line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DirState {
    /// No host caches the line.
    #[default]
    Invalid,
    /// The listed hosts hold Shared copies.
    Shared(BTreeSet<HostId>),
    /// One host holds the line Exclusive or Modified.
    Owned(HostId),
}

impl DirState {
    /// Every host with a valid copy.
    pub fn holders(&self) -> Vec<HostId> {
        match self {
            DirState::Invalid => Vec::new(),
            DirState::Shared(s) => s.iter().copied().collect(),
            DirState::Owned(h) => vec![*h],
        }
    }
}

impl fmt::Display for DirState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirState::Invalid => write!(f, "I"),
            DirState::Shared(s) => {
                write!(f, "S{{")?;
                for (i, h) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{h}")?;
                }
                write!(f, "}}")
            }
            DirState::Owned(h) => write!(f, "O({h})"),
        }
    }
}

/// The CXL0 primitives available to a pool host (§4's coherent-pool
/// restriction: no remote caches to target, so `RStore`, `LFlush` and
/// remote RMWs do not exist here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PoolOp {
    /// `Load`.
    Read,
    /// `LStore` (cacheable write: read-for-ownership first).
    LStore,
    /// `MStore` (write-through to pool memory).
    MStore,
    /// `RFlush` (drain the line to pool memory everywhere).
    RFlush,
}

impl PoolOp {
    /// All four, in Table order.
    pub const ALL: [PoolOp; 4] = [PoolOp::Read, PoolOp::LStore, PoolOp::MStore, PoolOp::RFlush];
}

impl fmt::Display for PoolOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PoolOp::Read => "Read",
            PoolOp::LStore => "LStore",
            PoolOp::MStore => "MStore",
            PoolOp::RFlush => "RFlush",
        };
        f.write_str(s)
    }
}

/// Outcome of one primitive against the directory: the link transactions
/// in order, the issuer's next MESI state, and the next directory state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolOutcome {
    /// Link transactions, in order.
    pub transactions: Vec<PoolTxn>,
    /// The issuer's cache state afterwards.
    pub issuer_next: MesiState,
    /// The directory entry afterwards.
    pub dir_next: DirState,
}

fn dirty(state: MesiState) -> bool {
    state == MesiState::M
}

/// The transaction-generation rules for the envisioned coherent pool:
/// what happens when `issuer` (whose current cache state for the line is
/// `issuer_state`) performs `op` while the directory holds `dir`.
///
/// `peer_states` supplies the MESI state of each non-issuer holder (used
/// to decide whether a back-invalidation carries dirty data).
///
/// # Panics
///
/// Panics if `issuer_state`/`peer_states` are inconsistent with `dir`
/// (e.g. the issuer claims M while the directory says another host owns
/// the line) — the stateful [`CoherentPool`] can never produce that.
pub fn pool_op(
    op: PoolOp,
    issuer: HostId,
    issuer_state: MesiState,
    dir: &DirState,
    peer_states: &BTreeMap<HostId, MesiState>,
) -> PoolOutcome {
    let mut txns = Vec::new();
    match op {
        PoolOp::Read => match issuer_state {
            MesiState::M | MesiState::E | MesiState::S => PoolOutcome {
                transactions: txns,
                issuer_next: issuer_state,
                dir_next: dir.clone(),
            },
            MesiState::I => {
                txns.push(PoolTxn::M2S(issuer, M2SReq::MemRdData));
                let mut sharers = BTreeSet::new();
                sharers.insert(issuer);
                match dir {
                    DirState::Invalid => {}
                    DirState::Shared(s) => sharers.extend(s.iter().copied()),
                    DirState::Owned(g) => {
                        assert_ne!(*g, issuer, "owner cannot be I");
                        let was_dirty = dirty(peer_states[g]);
                        txns.push(PoolTxn::BISnp(*g, BISnpReq::BISnpData));
                        txns.push(PoolTxn::BIRsp(*g, BIRsp::BIRspS, was_dirty));
                        sharers.insert(*g);
                    }
                }
                PoolOutcome {
                    transactions: txns,
                    issuer_next: MesiState::S,
                    dir_next: DirState::Shared(sharers),
                }
            }
        },
        PoolOp::LStore => match issuer_state {
            MesiState::M | MesiState::E => PoolOutcome {
                transactions: txns,
                issuer_next: MesiState::M,
                dir_next: DirState::Owned(issuer),
            },
            MesiState::S => {
                // Ownership upgrade: no data transfer, but every other
                // sharer must be back-invalidated.
                txns.push(PoolTxn::M2S(issuer, M2SReq::MemInv));
                if let DirState::Shared(s) = dir {
                    for h in s {
                        if *h != issuer {
                            txns.push(PoolTxn::BISnp(*h, BISnpReq::BISnpInv));
                            txns.push(PoolTxn::BIRsp(*h, BIRsp::BIRspI, false));
                        }
                    }
                }
                PoolOutcome {
                    transactions: txns,
                    issuer_next: MesiState::M,
                    dir_next: DirState::Owned(issuer),
                }
            }
            MesiState::I => {
                txns.push(PoolTxn::M2S(issuer, M2SReq::MemRd));
                match dir {
                    DirState::Invalid => {}
                    DirState::Shared(s) => {
                        for h in s {
                            txns.push(PoolTxn::BISnp(*h, BISnpReq::BISnpInv));
                            txns.push(PoolTxn::BIRsp(*h, BIRsp::BIRspI, false));
                        }
                    }
                    DirState::Owned(g) => {
                        let was_dirty = dirty(peer_states[g]);
                        txns.push(PoolTxn::BISnp(*g, BISnpReq::BISnpInv));
                        txns.push(PoolTxn::BIRsp(*g, BIRsp::BIRspI, was_dirty));
                    }
                }
                PoolOutcome {
                    transactions: txns,
                    issuer_next: MesiState::M,
                    dir_next: DirState::Owned(issuer),
                }
            }
        },
        PoolOp::MStore => {
            // Write-through: every cached copy (the issuer's included) is
            // invalidated, then pool memory is written.
            for h in dir.holders() {
                if h != issuer {
                    let was_dirty = dirty(peer_states[&h]);
                    txns.push(PoolTxn::BISnp(h, BISnpReq::BISnpInv));
                    txns.push(PoolTxn::BIRsp(h, BIRsp::BIRspI, was_dirty));
                }
            }
            txns.push(PoolTxn::M2S(issuer, M2SReq::MemWr));
            PoolOutcome {
                transactions: txns,
                issuer_next: MesiState::I,
                dir_next: DirState::Invalid,
            }
        }
        PoolOp::RFlush => {
            // Drain the line everywhere; dirty copies write back.
            for h in dir.holders() {
                if h == issuer {
                    continue;
                }
                let was_dirty = dirty(peer_states[&h]);
                txns.push(PoolTxn::BISnp(h, BISnpReq::BISnpInv));
                txns.push(PoolTxn::BIRsp(h, BIRsp::BIRspI, was_dirty));
            }
            if issuer_state != MesiState::I {
                // The issuer's own copy drains with an explicit write-back
                // (dirty) or silently (clean).
                if dirty(issuer_state) {
                    txns.push(PoolTxn::M2S(issuer, M2SReq::MemWr));
                }
            }
            PoolOutcome {
                transactions: txns,
                issuer_next: MesiState::I,
                dir_next: DirState::Invalid,
            }
        }
    }
}

/// A stateful multi-host coherent pool: per-host MESI + value, a directory
/// per line, and pool memory. Every operation returns the generated link
/// traffic; invariants are re-checked after each step in debug builds.
///
/// # Examples
///
/// ```
/// use cxl0_protocol::bisnp::{CoherentPool, HostId, LineId, PoolOp};
///
/// let mut pool = CoherentPool::new(3, 4);
/// let x = LineId(0);
/// // h0 writes 7 into its cache; h1's read triggers a back-invalidate
/// // snoop that downgrades h0 and fetches the dirty data.
/// pool.lstore(HostId(0), x, 7);
/// let (v, txns) = pool.read(HostId(1), x);
/// assert_eq!(v, 7);
/// assert!(txns.iter().any(|t| t.to_string().contains("BISnpData")));
/// pool.check_invariants().unwrap();
/// ```
#[derive(Debug)]
pub struct CoherentPool {
    hosts: usize,
    mem: Vec<u64>,
    dir: Vec<DirState>,
    /// `caches[h][line] = (state, value)`; absent = Invalid.
    caches: Vec<BTreeMap<LineId, (MesiState, u64)>>,
    log: Vec<PoolTxn>,
}

impl CoherentPool {
    /// A pool with `hosts` hosts and `lines` zero-initialized lines.
    pub fn new(hosts: usize, lines: u32) -> Self {
        CoherentPool {
            hosts,
            mem: vec![0; lines as usize],
            dir: vec![DirState::Invalid; lines as usize],
            caches: vec![BTreeMap::new(); hosts],
            log: Vec::new(),
        }
    }

    /// Number of attached hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The pool memory value of `line`.
    pub fn memory(&self, line: LineId) -> u64 {
        self.mem[line.0 as usize]
    }

    /// The directory entry for `line`.
    pub fn directory(&self, line: LineId) -> &DirState {
        &self.dir[line.0 as usize]
    }

    /// `host`'s cache state for `line` (`I` if absent).
    pub fn host_state(&self, host: HostId, line: LineId) -> MesiState {
        self.caches[host.0]
            .get(&line)
            .map(|(s, _)| *s)
            .unwrap_or(MesiState::I)
    }

    /// All link traffic so far, in order.
    pub fn log(&self) -> &[PoolTxn] {
        &self.log
    }

    /// Clears the traffic log (between experiment phases).
    pub fn clear_log(&mut self) {
        self.log.clear();
    }

    fn peer_states(&self, line: LineId, issuer: HostId) -> BTreeMap<HostId, MesiState> {
        (0..self.hosts)
            .map(HostId)
            .filter(|h| *h != issuer)
            .map(|h| (h, self.host_state(h, line)))
            .collect()
    }

    fn apply_outcome(&mut self, issuer: HostId, line: LineId, outcome: &PoolOutcome) {
        // Process back-invalidations: snooped hosts write back dirty data
        // and downgrade/invalidate.
        for t in &outcome.transactions {
            if let PoolTxn::BIRsp(h, rsp, dirty) = t {
                let entry = self.caches[h.0].get(&line).copied();
                if let Some((_, v)) = entry {
                    if *dirty {
                        self.mem[line.0 as usize] = v;
                    }
                    match rsp {
                        BIRsp::BIRspI => {
                            self.caches[h.0].remove(&line);
                        }
                        BIRsp::BIRspS => {
                            self.caches[h.0].insert(line, (MesiState::S, v));
                        }
                    }
                }
            }
        }
        let _ = issuer;
        self.log.extend(outcome.transactions.iter().copied());
        self.dir[line.0 as usize] = outcome.dir_next.clone();
    }

    /// `Load`: returns the value and the link traffic it generated.
    pub fn read(&mut self, host: HostId, line: LineId) -> (u64, Vec<PoolTxn>) {
        let st = self.host_state(host, line);
        let outcome = pool_op(
            PoolOp::Read,
            host,
            st,
            &self.dir[line.0 as usize].clone(),
            &self.peer_states(line, host),
        );
        self.apply_outcome(host, line, &outcome);
        let v = if st == MesiState::I {
            // Data came from the pool (possibly freshened by a BISnpData
            // write-back processed in apply_outcome).
            let v = self
                .holders_value(line)
                .unwrap_or(self.mem[line.0 as usize]);
            self.caches[host.0].insert(line, (outcome.issuer_next, v));
            v
        } else {
            self.caches[host.0][&line].1
        };
        (v, outcome.transactions)
    }

    fn holders_value(&self, line: LineId) -> Option<u64> {
        for c in &self.caches {
            if let Some((_, v)) = c.get(&line) {
                return Some(*v);
            }
        }
        None
    }

    /// `LStore`: cacheable write (read-for-ownership + modify).
    pub fn lstore(&mut self, host: HostId, line: LineId, v: u64) -> Vec<PoolTxn> {
        let st = self.host_state(host, line);
        let outcome = pool_op(
            PoolOp::LStore,
            host,
            st,
            &self.dir[line.0 as usize].clone(),
            &self.peer_states(line, host),
        );
        self.apply_outcome(host, line, &outcome);
        self.caches[host.0].insert(line, (MesiState::M, v));
        outcome.transactions
    }

    /// `MStore`: write-through to pool memory, invalidating every copy.
    pub fn mstore(&mut self, host: HostId, line: LineId, v: u64) -> Vec<PoolTxn> {
        let st = self.host_state(host, line);
        let outcome = pool_op(
            PoolOp::MStore,
            host,
            st,
            &self.dir[line.0 as usize].clone(),
            &self.peer_states(line, host),
        );
        self.apply_outcome(host, line, &outcome);
        self.caches[host.0].remove(&line);
        self.mem[line.0 as usize] = v;
        outcome.transactions
    }

    /// `RFlush`: drain the line to pool memory everywhere.
    pub fn rflush(&mut self, host: HostId, line: LineId) -> Vec<PoolTxn> {
        let st = self.host_state(host, line);
        let outcome = pool_op(
            PoolOp::RFlush,
            host,
            st,
            &self.dir[line.0 as usize].clone(),
            &self.peer_states(line, host),
        );
        self.apply_outcome(host, line, &outcome);
        if let Some((s, v)) = self.caches[host.0].remove(&line) {
            if s == MesiState::M {
                self.mem[line.0 as usize] = v;
            }
        }
        outcome.transactions
    }

    /// Crash of `host`: its cache vanishes; the pool poisons the
    /// directory entries it owned (CXL Isolation, the `CXL0_PSN` analogue:
    /// the pool device detects the dead host and cleans its tracking).
    pub fn crash_host(&mut self, host: HostId) {
        let lines: Vec<LineId> = self.caches[host.0].keys().copied().collect();
        self.caches[host.0].clear();
        for line in lines {
            let d = &mut self.dir[line.0 as usize];
            match d {
                DirState::Owned(h) if *h == host => *d = DirState::Invalid,
                DirState::Shared(s) => {
                    s.remove(&host);
                    if s.is_empty() {
                        *d = DirState::Invalid;
                    }
                }
                _ => {}
            }
        }
    }

    /// Checks the two §3.3/§4 invariants this device must uphold for CXL0
    /// to apply:
    ///
    /// 1. **global cache invariant** — all valid copies of a line agree on
    ///    one value;
    /// 2. **SWMR + directory accuracy** — an M/E copy is unique and the
    ///    directory entry matches the real holder sets exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        for line in 0..self.mem.len() as u32 {
            let line = LineId(line);
            let mut value: Option<u64> = None;
            let mut holders = BTreeSet::new();
            let mut owner: Option<HostId> = None;
            for h in 0..self.hosts {
                if let Some(&(s, v)) = self.caches[h].get(&line) {
                    holders.insert(HostId(h));
                    if let Some(prev) = value {
                        if prev != v {
                            return Err(format!(
                                "cache invariant violated at {line:?}: {prev} vs {v}"
                            ));
                        }
                    }
                    value = Some(v);
                    if s == MesiState::M || s == MesiState::E {
                        if owner.is_some() {
                            return Err(format!("two owners for {line:?}"));
                        }
                        owner = Some(HostId(h));
                    }
                }
            }
            if owner.is_some() && holders.len() > 1 {
                return Err(format!("owner plus sharers for {line:?}"));
            }
            let expected = match (owner, holders.len()) {
                (Some(h), _) => DirState::Owned(h),
                (None, 0) => DirState::Invalid,
                (None, _) => DirState::Shared(holders.clone()),
            };
            if *self.directory(line) != expected {
                return Err(format!(
                    "directory mismatch at {line:?}: dir={} real={expected}",
                    self.directory(line)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H0: HostId = HostId(0);
    const H1: HostId = HostId(1);
    const H2: HostId = HostId(2);
    const X: LineId = LineId(0);

    #[test]
    fn cold_read_is_a_plain_memrddata() {
        let mut p = CoherentPool::new(2, 1);
        let (v, txns) = p.read(H0, X);
        assert_eq!(v, 0);
        assert_eq!(txns, vec![PoolTxn::M2S(H0, M2SReq::MemRdData)]);
        assert_eq!(*p.directory(X), DirState::Shared([H0].into()));
        p.check_invariants().unwrap();
    }

    #[test]
    fn warm_read_generates_no_traffic() {
        let mut p = CoherentPool::new(2, 1);
        p.read(H0, X);
        let (_, txns) = p.read(H0, X);
        assert!(txns.is_empty());
    }

    #[test]
    fn read_of_modified_line_back_snoops_the_owner() {
        let mut p = CoherentPool::new(2, 1);
        p.lstore(H0, X, 7);
        assert_eq!(*p.directory(X), DirState::Owned(H0));
        let (v, txns) = p.read(H1, X);
        assert_eq!(v, 7);
        assert_eq!(
            txns,
            vec![
                PoolTxn::M2S(H1, M2SReq::MemRdData),
                PoolTxn::BISnp(H0, BISnpReq::BISnpData),
                PoolTxn::BIRsp(H0, BIRsp::BIRspS, true),
            ]
        );
        // The dirty data was written back and both hosts share it.
        assert_eq!(p.memory(X), 7);
        assert_eq!(p.host_state(H0, X), MesiState::S);
        assert_eq!(p.host_state(H1, X), MesiState::S);
        p.check_invariants().unwrap();
    }

    #[test]
    fn store_to_shared_line_back_invalidates_all_sharers() {
        let mut p = CoherentPool::new(3, 1);
        p.read(H0, X);
        p.read(H1, X);
        p.read(H2, X);
        p.clear_log();
        let txns = p.lstore(H0, X, 5);
        // Upgrade: MemInv + BISnpInv to the two other sharers.
        assert_eq!(txns[0], PoolTxn::M2S(H0, M2SReq::MemInv));
        let snoops = txns
            .iter()
            .filter(|t| matches!(t, PoolTxn::BISnp(_, BISnpReq::BISnpInv)))
            .count();
        assert_eq!(snoops, 2);
        assert_eq!(*p.directory(X), DirState::Owned(H0));
        assert_eq!(p.host_state(H1, X), MesiState::I);
        p.check_invariants().unwrap();
    }

    #[test]
    fn store_to_foreign_modified_line_fetches_and_invalidates() {
        let mut p = CoherentPool::new(2, 1);
        p.lstore(H0, X, 3);
        let txns = p.lstore(H1, X, 4);
        assert_eq!(
            txns,
            vec![
                PoolTxn::M2S(H1, M2SReq::MemRd),
                PoolTxn::BISnp(H0, BISnpReq::BISnpInv),
                PoolTxn::BIRsp(H0, BIRsp::BIRspI, true),
            ]
        );
        // h0's dirty 3 was written back before h1's 4 took over the line.
        assert_eq!(p.memory(X), 3);
        let (v, _) = p.read(H1, X);
        assert_eq!(v, 4);
        p.check_invariants().unwrap();
    }

    #[test]
    fn mstore_invalidates_everything_and_writes_through() {
        let mut p = CoherentPool::new(3, 1);
        p.lstore(H0, X, 3);
        let txns = p.mstore(H1, X, 9);
        assert!(txns.contains(&PoolTxn::BISnp(H0, BISnpReq::BISnpInv)));
        assert_eq!(*txns.last().unwrap(), PoolTxn::M2S(H1, M2SReq::MemWr));
        assert_eq!(p.memory(X), 9);
        assert_eq!(*p.directory(X), DirState::Invalid);
        for h in [H0, H1, H2] {
            assert_eq!(p.host_state(h, X), MesiState::I);
        }
        p.check_invariants().unwrap();
    }

    #[test]
    fn rflush_drains_dirty_owner_via_writeback() {
        let mut p = CoherentPool::new(2, 1);
        p.lstore(H0, X, 6);
        let txns = p.rflush(H0, X);
        assert_eq!(txns, vec![PoolTxn::M2S(H0, M2SReq::MemWr)]);
        assert_eq!(p.memory(X), 6);
        assert_eq!(*p.directory(X), DirState::Invalid);
        p.check_invariants().unwrap();
    }

    #[test]
    fn rflush_by_non_holder_back_invalidates_the_owner() {
        let mut p = CoherentPool::new(2, 1);
        p.lstore(H0, X, 6);
        let txns = p.rflush(H1, X);
        assert_eq!(
            txns,
            vec![
                PoolTxn::BISnp(H0, BISnpReq::BISnpInv),
                PoolTxn::BIRsp(H0, BIRsp::BIRspI, true),
            ]
        );
        assert_eq!(p.memory(X), 6);
        p.check_invariants().unwrap();
    }

    #[test]
    fn crash_poisons_directory_tracking() {
        let mut p = CoherentPool::new(2, 2);
        p.lstore(H0, X, 6);
        p.read(H1, LineId(1));
        p.crash_host(H0);
        assert_eq!(*p.directory(X), DirState::Invalid);
        // The dirty 6 never reached memory: exactly the model's lost
        // un-flushed LStore (litmus test 1's behavior, multi-host form).
        assert_eq!(p.memory(X), 0);
        p.check_invariants().unwrap();
        // The other host's state is untouched.
        assert_eq!(p.host_state(H1, LineId(1)), MesiState::S);
    }

    #[test]
    fn rflush_then_crash_is_durable() {
        let mut p = CoherentPool::new(2, 1);
        p.lstore(H0, X, 6);
        p.rflush(H0, X);
        p.crash_host(H0);
        assert_eq!(p.memory(X), 6); // litmus test 5's ✗, multi-host form
    }

    #[test]
    fn invariants_hold_under_random_traffic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut p = CoherentPool::new(4, 4);
        for step in 0..2_000 {
            let h = HostId(rng.gen_range(0..4));
            let line = LineId(rng.gen_range(0..4));
            match rng.gen_range(0..5) {
                0 => {
                    p.read(h, line);
                }
                1 => {
                    p.lstore(h, line, step);
                }
                2 => {
                    p.mstore(h, line, step);
                }
                3 => {
                    p.rflush(h, line);
                }
                _ => p.crash_host(h),
            }
            p.check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }

    #[test]
    fn coherence_reads_see_last_write() {
        // The linear story the CXL0 model's Load rule promises.
        let mut p = CoherentPool::new(3, 1);
        p.lstore(H0, X, 1);
        assert_eq!(p.read(H1, X).0, 1);
        p.lstore(H2, X, 2);
        assert_eq!(p.read(H0, X).0, 2);
        p.mstore(H1, X, 3);
        assert_eq!(p.read(H2, X).0, 3);
        p.check_invariants().unwrap();
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            PoolTxn::M2S(H0, M2SReq::MemRdData).to_string(),
            "h0→pool MemRdData"
        );
        assert_eq!(
            PoolTxn::BISnp(H1, BISnpReq::BISnpInv).to_string(),
            "pool→h1 BISnpInv"
        );
        assert_eq!(
            PoolTxn::BIRsp(H1, BIRsp::BIRspI, true).to_string(),
            "h1→pool BIRspI+data"
        );
        assert_eq!(DirState::Owned(H0).to_string(), "O(h0)");
        assert_eq!(DirState::Invalid.to_string(), "I");
    }
}
