//! The **named-root registry**: a small durable directory at a well-known
//! offset of the memory node's segment, mapping names to structure
//! headers.
//!
//! Without it, recovering a durable structure means replaying its header
//! [`Loc`] through volatile application state — exactly the boilerplate a
//! programming model should absorb. With it, post-crash code reattaches
//! with `session.open_queue::<u64>("jobs")`.
//!
//! ## Layout and crash consistency
//!
//! The registry occupies the first `(capacity + 1) * ENTRY_CELLS` cells
//! of the memory node's shared segment (a well-known offset: recovery
//! needs no volatile state to find it): `capacity` entries, then one
//! header entry. Each entry is [`ENTRY_CELLS`] cells:
//!
//! | cell | contents |
//! |---|---|
//! | 0 | name hash; claimed as `hash \| PENDING` by CAS, commit clears the bit |
//! | 1 | name length in bytes (≤ [`MAX_NAME_BYTES`]) |
//! | 2–5 | name bytes, packed little-endian (a lookup loads the first `⌈len / 8⌉`) |
//! | 6 | payload: `aux << 32 \| (header addr + 1)` |
//! | 7 | kind tag (low 8 bits, `kind + 1`) and [`Word::TAG`] fingerprint (high 56 bits) |
//!
//! The header entry, at entry index `capacity`, holds the **pending-claims
//! word** in its cell 0 (cells 1–7 are unused; a whole entry keeps the
//! allocator's metadata, which follows the registry, on the same cell
//! parity). A registry of capacity 0 reserves no cells at all.
//!
//! All writes go through the cluster's [`Persistence`] strategy, so the
//! directory inherits whatever durability the cluster was built with.
//! `create` **claims** an entry by CAS on cell 0 (first claimant wins),
//! writes cells 1–7 as persistent private stores (nobody can observe the
//! entry before commit), then **commits** by storing the hash without the
//! `PENDING` bit. Committing is the linearization point of creation: a
//! crash before it leaves a *pending* entry that lookups skip and that
//! registry recovery (`Session::recover_roots`) seals back to empty (the
//! structure's cells are leaked, consistent with the heap's
//! monotonic-bump crash philosophy).
//!
//! The pending-claims word counts the claims that may be in flight. A
//! claimant raises it by a flagged FAA *before* its claim CAS and lowers
//! it again once its entry can no longer read `PENDING`: after the
//! persisted store of its commit or abort, or at once when it loses the
//! CAS. Hence the invariant recovery relies on: **any durable image
//! that holds a `PENDING` entry has a nonzero word.** Recovery loads
//! the word and, when it reads 0, is done after that one load.
//! Otherwise (a create was in flight at the crash, or a claimant died
//! before its CAS) it loads every entry's head cell, seals the pending
//! ones and stores 0 back with a persist — so its cost tracks the
//! creates in flight, not the capacity. The count is cluster-wide, so
//! clearing it needs recovery's quiescence.
//!
//! Sealing a pending entry back to empty can punch a hole into a linear
//! probe chain, so probes never early-stop at an empty slot: `create` and
//! `open` scan the whole directory (at most `capacity` head-cell loads —
//! the directory is a small fixed table) before concluding absence or
//! claiming a slot.
//!
//! [`Word::TAG`]: crate::api::Word::TAG

use std::fmt;
use std::sync::Arc;

use cxl0_model::Loc;

use crate::api::error::{ApiError, ApiResult};
use crate::backend::NodeHandle;
use crate::error::OpResult;
use crate::flit::Persistence;

/// Cells per registry entry.
pub const ENTRY_CELLS: u32 = 8;
/// Maximum root-name length, in bytes (4 name cells × 8 bytes).
pub const MAX_NAME_BYTES: usize = 32;

/// Cells the registry reserves at offset 0 of the memory node's segment
/// for `capacity` entries: the entries plus the header entry, or none at
/// all when the registry is disabled. Saturates instead of overflowing,
/// so an oversized capacity fails the cluster's size check.
pub(crate) fn region_cells(capacity: u32) -> u32 {
    if capacity == 0 {
        return 0;
    }
    capacity.saturating_add(1).saturating_mul(ENTRY_CELLS)
}

/// Claim marker in an entry's hash cell: set while a `create` is between
/// claim and commit.
const PENDING: u64 = 1 << 63;

/// What kind of durable structure a committed root points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootKind {
    /// A [`DurableRegister`](crate::ds::DurableRegister).
    Register,
    /// A [`DurableCounter`](crate::ds::DurableCounter).
    Counter,
    /// A [`DurableQueue`](crate::ds::DurableQueue).
    Queue,
    /// A [`DurableStack`](crate::ds::DurableStack).
    Stack,
    /// A [`DurableMap`](crate::ds::DurableMap).
    Map,
    /// A [`DurableLog`](crate::ds::DurableLog).
    Log,
    /// A [`DurableList`](crate::ds::DurableList).
    List,
}

impl RootKind {
    const ALL: [RootKind; 7] = [
        RootKind::Register,
        RootKind::Counter,
        RootKind::Queue,
        RootKind::Stack,
        RootKind::Map,
        RootKind::Log,
        RootKind::List,
    ];

    fn tag(self) -> u64 {
        self as u64 + 1
    }

    fn from_tag(tag: u64) -> Option<RootKind> {
        RootKind::ALL.get(tag.checked_sub(1)? as usize).copied()
    }
}

impl fmt::Display for RootKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RootKind::Register => "register",
            RootKind::Counter => "counter",
            RootKind::Queue => "queue",
            RootKind::Stack => "stack",
            RootKind::Map => "map",
            RootKind::Log => "log",
            RootKind::List => "list",
        };
        f.write_str(s)
    }
}

/// A committed root's registry record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootInfo {
    /// The root's name.
    pub name: String,
    /// The structure kind.
    pub kind: RootKind,
    /// The structure's header location.
    pub header: Loc,
    /// Kind-specific auxiliary word (capacity for maps and logs).
    pub aux: u32,
    /// The element type's [`Word::TAG`](crate::api::Word::TAG)
    /// fingerprint, truncated to the 56 bits the entry stores.
    pub type_tag: u64,
}

/// 56-bit truncation of a [`Word::TAG`](crate::api::Word::TAG) as stored
/// in an entry's kind cell.
pub(crate) fn truncate_type_tag(tag: u64) -> u64 {
    tag >> 8
}

fn name_hash(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Clear the PENDING bit and avoid the empty sentinel 0.
    (hash & !PENDING) | 1
}

fn pack_name(name: &str) -> [u64; 4] {
    let mut cells = [0u64; 4];
    for (i, chunk) in name.as_bytes().chunks(8).enumerate() {
        let mut bytes = [0u8; 8];
        bytes[..chunk.len()].copy_from_slice(chunk);
        cells[i] = u64::from_le_bytes(bytes);
    }
    cells
}

fn unpack_name(len: u64, cells: [u64; 4]) -> Option<String> {
    let len = usize::try_from(len).ok()?;
    if len > MAX_NAME_BYTES {
        return None;
    }
    let mut bytes = Vec::with_capacity(len);
    for cell in cells {
        bytes.extend_from_slice(&cell.to_le_bytes());
    }
    bytes.truncate(len);
    String::from_utf8(bytes).ok()
}

/// A claimed-but-uncommitted registry entry, handed from
/// [`RootDirectory::claim`] to [`RootDirectory::commit`] /
/// [`RootDirectory::abort`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RootClaim {
    entry: u32,
    hash: u64,
}

/// What one `create` attempt should publish.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RootRecord {
    pub kind: RootKind,
    pub header: Loc,
    pub aux: u32,
    pub type_tag: u64,
}

/// The durable name → header directory. One per [`Cluster`]; all methods
/// take the issuing node explicitly, like the data structures themselves.
///
/// [`Cluster`]: crate::api::Cluster
#[derive(Debug, Clone)]
pub(crate) struct RootDirectory {
    /// First cell of the registry region (well-known offset 0 of the
    /// memory node's segment).
    base: Loc,
    /// Number of entries.
    capacity: u32,
    persist: Arc<dyn Persistence>,
}

impl RootDirectory {
    pub(crate) fn new(base: Loc, capacity: u32, persist: Arc<dyn Persistence>) -> Self {
        RootDirectory {
            base,
            capacity,
            persist,
        }
    }

    fn cell(&self, entry: u32, field: u32) -> Loc {
        debug_assert!(field < ENTRY_CELLS);
        Loc::new(
            self.base.owner,
            self.base.addr.0 + entry * ENTRY_CELLS + field,
        )
    }

    /// The pending-claims word: cell 0 of the header entry.
    fn pending_word(&self) -> Loc {
        self.cell(self.capacity, 0)
    }

    /// Lowers the pending-claims word after a claim has ended durably.
    fn lower_pending(&self, node: &NodeHandle) -> OpResult<()> {
        self.persist
            .shared_faa(node, self.pending_word(), u64::MAX, true)
            .map(|_| ())
    }

    fn check_name(name: &str) -> ApiResult<u64> {
        if name.is_empty() {
            return Err(ApiError::NameEmpty);
        }
        if name.len() > MAX_NAME_BYTES {
            return Err(ApiError::NameTooLong {
                name: name.to_string(),
                max: MAX_NAME_BYTES,
            });
        }
        Ok(name_hash(name))
    }

    /// Reads entry `e`'s committed record, if committed and decodable.
    fn read_committed(&self, node: &NodeHandle, e: u32) -> OpResult<Option<RootInfo>> {
        let len = self.persist.shared_load(node, self.cell(e, 1), true)?;
        if len > MAX_NAME_BYTES as u64 {
            return Ok(None);
        }
        // Only the cells the name occupies: the rest are never written.
        let mut name_cells = [0u64; 4];
        let used = (len as usize).div_ceil(8);
        for (i, c) in name_cells.iter_mut().take(used).enumerate() {
            *c = self
                .persist
                .shared_load(node, self.cell(e, 2 + i as u32), true)?;
        }
        let payload = self.persist.shared_load(node, self.cell(e, 6), true)?;
        let meta = self.persist.shared_load(node, self.cell(e, 7), true)?;
        let Some(kind) = RootKind::from_tag(meta & 0xff) else {
            return Ok(None);
        };
        let Some(name) = unpack_name(len, name_cells) else {
            return Ok(None);
        };
        let addr_plus_one = (payload & 0xffff_ffff) as u32;
        if addr_plus_one == 0 {
            return Ok(None);
        }
        Ok(Some(RootInfo {
            name,
            kind,
            header: Loc::new(self.base.owner, addr_plus_one - 1),
            aux: (payload >> 32) as u32,
            type_tag: meta >> 8,
        }))
    }

    /// Publishes `name → record`. Claims an entry (CAS, first claimant
    /// wins) and returns a [`RootClaim`] to [`RootDirectory::commit`]
    /// or [`RootDirectory::abort`]. No structure memory is touched, so a
    /// failed claim is side-effect-free. Errors: `AlreadyExists`,
    /// `PendingRoot`, `RegistryFull`, `NameEmpty`/`NameTooLong`,
    /// `Crashed`.
    pub(crate) fn claim(&self, node: &NodeHandle, name: &str) -> ApiResult<RootClaim> {
        let result = self.claim_inner(node, name);
        // Close the operation on every path (under FliT-async,
        // complete_op's barrier retires this operation's helping
        // flushes; the ds/* methods uphold the same invariant).
        self.persist.complete_op(node)?;
        result
    }

    fn claim_inner(&self, node: &NodeHandle, name: &str) -> ApiResult<RootClaim> {
        let hash = Self::check_name(name)?;
        if self.capacity == 0 {
            return Err(ApiError::RegistryFull);
        }
        let start = hash % u64::from(self.capacity);
        'retry: loop {
            // Phase 1: scan the whole probe chain for the name. Sealed
            // entries leave holes, so absence needs the full scan — an
            // empty slot proves nothing.
            let mut first_free = None;
            for probe in 0..self.capacity {
                let e = ((start + u64::from(probe)) % u64::from(self.capacity)) as u32;
                let head = self.persist.shared_load(node, self.cell(e, 0), true)?;
                if head == 0 {
                    if first_free.is_none() {
                        first_free = Some(e);
                    }
                    continue;
                }
                self.head_conflicts(node, e, head, hash, name)?;
            }
            // Phase 2: claim the first free slot; on a lost race, rescan
            // (the winner may have been creating this very name).
            let Some(e) = first_free else {
                return Err(ApiError::RegistryFull);
            };
            // Raise the pending-claims word before the claim can land,
            // so no durable image holds this PENDING under a zero word.
            self.persist
                .shared_faa(node, self.pending_word(), 1, true)?;
            if self
                .persist
                .shared_cas(node, self.cell(e, 0), 0, hash | PENDING, true)?
                .is_err()
            {
                self.lower_pending(node)?;
                continue 'retry;
            }
            return Ok(RootClaim { entry: e, hash });
        }
    }

    /// Fills a claimed entry and commits it. The commit store is the
    /// linearization point of creation.
    pub(crate) fn commit(
        &self,
        node: &NodeHandle,
        claim: &RootClaim,
        name: &str,
        record: RootRecord,
    ) -> OpResult<()> {
        let e = claim.entry;
        // Ours alone until commit: persistent private stores suffice.
        let name_cells = pack_name(name);
        self.persist
            .private_store(node, self.cell(e, 1), name.len() as u64, true)?;
        for (i, c) in name_cells.iter().enumerate() {
            self.persist
                .private_store(node, self.cell(e, 2 + i as u32), *c, true)?;
        }
        let payload = (u64::from(record.aux) << 32) | u64::from(record.header.addr.0 + 1);
        self.persist
            .private_store(node, self.cell(e, 6), payload, true)?;
        let meta = (truncate_type_tag(record.type_tag) << 8) | record.kind.tag();
        self.persist
            .private_store(node, self.cell(e, 7), meta, true)?;
        // Commit: clear PENDING, then lower the word it was covered by.
        self.persist
            .shared_store(node, self.cell(e, 0), claim.hash, true)?;
        self.lower_pending(node)?;
        // The named structure is durably reachable from here on: seed the
        // sanitizer's reachability from its header block.
        node.check_add_root(record.header);
        self.persist.complete_op(node)
    }

    /// Releases an uncommitted claim (e.g. the structure allocation
    /// failed), making the entry empty again.
    pub(crate) fn abort(&self, node: &NodeHandle, claim: &RootClaim) -> OpResult<()> {
        self.persist
            .shared_store(node, self.cell(claim.entry, 0), 0, true)?;
        self.lower_pending(node)?;
        self.persist.complete_op(node)
    }

    /// Errors out if entry `e` (whose hash cell reads `head`) holds or is
    /// claiming `name`; returns `Ok(())` when the probe may move on.
    fn head_conflicts(
        &self,
        node: &NodeHandle,
        e: u32,
        head: u64,
        hash: u64,
        name: &str,
    ) -> ApiResult<()> {
        if head == hash | PENDING {
            return Err(ApiError::PendingRoot(name.to_string()));
        }
        if head == hash {
            if let Some(info) = self.read_committed(node, e)? {
                if info.name == name {
                    return Err(ApiError::AlreadyExists(name.to_string()));
                }
            }
        }
        Ok(())
    }

    /// Looks up the committed root under `name`.
    pub(crate) fn lookup(&self, node: &NodeHandle, name: &str) -> ApiResult<RootInfo> {
        let result = self.lookup_inner(node, name);
        self.persist.complete_op(node)?;
        result
    }

    fn lookup_inner(&self, node: &NodeHandle, name: &str) -> ApiResult<RootInfo> {
        let hash = Self::check_name(name)?;
        let start = if self.capacity == 0 {
            0
        } else {
            hash % u64::from(self.capacity)
        };
        for probe in 0..self.capacity {
            let e = ((start + u64::from(probe)) % u64::from(self.capacity)) as u32;
            let head = self.persist.shared_load(node, self.cell(e, 0), true)?;
            if head != hash {
                // Empty (possibly a sealed hole), pending, or another
                // name: keep scanning — the table is small.
                continue;
            }
            if let Some(info) = self.read_committed(node, e)? {
                if info.name == name {
                    node.check_add_root(info.header);
                    return Ok(info);
                }
            }
        }
        Err(ApiError::NotFound(name.to_string()))
    }

    /// Every committed root, in entry order.
    pub(crate) fn roots(&self, node: &NodeHandle) -> OpResult<Vec<RootInfo>> {
        let mut out = Vec::new();
        for e in 0..self.capacity {
            let head = self.persist.shared_load(node, self.cell(e, 0), true)?;
            if head == 0 || head & PENDING != 0 {
                continue;
            }
            if let Some(info) = self.read_committed(node, e)? {
                node.check_add_root(info.header);
                out.push(info);
            }
        }
        self.persist.complete_op(node)?;
        Ok(out)
    }

    /// Post-crash repair: seals every *pending* entry (claimed by a
    /// creator that never committed) back to empty, making the name
    /// creatable again. The claimed structure cells are leaked, exactly
    /// like heap cells of any crashed operation.
    ///
    /// Costs one load of the pending-claims word when it reads 0 (no
    /// create was in flight); otherwise a head-cell load per entry, a
    /// persisted store per sealed entry and one more clearing the word.
    ///
    /// Must run quiesced (no concurrent `create_*`), like the data
    /// structures' own `recover` methods. Returns the number of entries
    /// sealed.
    pub(crate) fn recover(&self, node: &NodeHandle) -> OpResult<usize> {
        let mut sealed = 0;
        if self.capacity > 0 && self.persist.shared_load(node, self.pending_word(), true)? != 0 {
            for e in 0..self.capacity {
                let head = self.persist.shared_load(node, self.cell(e, 0), true)?;
                if head & PENDING != 0 {
                    self.persist.shared_store(node, self.cell(e, 0), 0, true)?;
                    sealed += 1;
                }
            }
            self.persist
                .shared_store(node, self.pending_word(), 0, true)?;
        }
        self.persist.complete_op(node)?;
        Ok(sealed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_packing_round_trips() {
        for name in ["a", "jobs", "a-name-of-exactly-32-bytes-here!", "λλλ"] {
            let cells = pack_name(name);
            assert_eq!(unpack_name(name.len() as u64, cells).as_deref(), Some(name));
        }
    }

    #[test]
    fn oversized_or_garbage_lengths_decode_to_none() {
        assert_eq!(unpack_name(33, [0; 4]), None);
        assert_eq!(unpack_name(u64::MAX, [0; 4]), None);
    }

    #[test]
    fn hashes_are_nonzero_and_unpoisoned() {
        for name in ["", "x", "jobs", "queue-17"] {
            let h = name_hash(name);
            assert_ne!(h, 0);
            assert_eq!(h & PENDING, 0);
        }
    }

    #[test]
    fn kind_tags_round_trip() {
        for k in RootKind::ALL {
            assert_eq!(RootKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(RootKind::from_tag(0), None);
        assert_eq!(RootKind::from_tag(99), None);
    }
}
