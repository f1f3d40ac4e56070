//! # Crash-consistent memory allocation over the durable segment
//!
//! The paper's programming model assumes long-lived durable structures
//! on the memory node; the original bump [`SharedHeap`](crate::SharedHeap)
//! never reclaims, so every dequeue/remove leaked NVM forever and no
//! churn workload could run at sustained traffic. This module is the
//! missing layer between the heap and the data structures: a
//! **size-class allocator with durable free lists and a recovery
//! sweep**, in the spirit of pooled-CXL allocator subsystems and
//! checkpoint-recovered persistent allocators in the related work.
//!
//! ## Anatomy
//!
//! The allocator owns a range of the memory node's shared segment:
//!
//! ```text
//! [ region header | 15 free-list heads | 32 intent slots × 2 cells | block area … ]
//!   META_CELLS durable metadata cells                                bump tail
//! ```
//!
//! An intent slot is two cells. The 24 transient slots use only the
//! first (the intent word); each of the top 8, one per thread magazine,
//! uses both, alternating pushes between them (below).
//!
//! Every block is `1 + payload` cells: a **header** (state —
//! `ALLOCATED`, `FREE` or `MAGAZINE` —, size class, reuse *generation*,
//! intrusive `next` link) followed by the payload the caller sees. Payloads round up to power-of-two size classes
//! (1..=[`MAX_CLASS_CELLS`] cells); larger requests are exact-fit from
//! the bump tail and unreclaimable.
//!
//! All durable mutations flow through the cluster's
//! [`Persistence`](crate::Persistence) strategy, so the allocator
//! inherits whatever durability the cluster was built with — exactly
//! like the named-root registry.
//!
//! ## Crash consistency: one-word intents, persisted only where recovery looks
//!
//! A crash must never *lose* a block (reachable from no free list and
//! owned by no one) nor hand one out *twice* (reachable from a free
//! list while live). Under Algorithm 2 every persist point is a full
//! memory round trip (`RFlush` ≈ `MStore`, §5.2), so the protocol
//! persists exactly the steps recovery reads — **three per operation**
//! on the shared lists, fewer through a magazine — and nothing else.
//! Each in-flight operation leases one of 24 transient durable
//! **intent** slots: one word, `op | class | block | generation`.
//!
//! **Magazines.** The first 8 thread slots (the process-wide leases of
//! [`crate::backend`]) each own a magazine and one of the top 8 intent
//! slots. A thread's [`free`](Allocator::free) parks the block in its
//! magazine, and its next [`alloc`](Allocator::alloc) of that class
//! takes the oldest parked block back. The durable side of a magazine is
//! a chain of `MAGAZINE` headers, newest to oldest along `next`, named by
//! an intent `MAG(b, g)` in one of the slot's **two** cells: a push
//! writes the cell that does not name the newest parked block, so the
//! chain's own intent survives a push torn before its claim. The
//! volatile side knows each parked block's address and generation, so a
//! pop loads nothing. An empty or full magazine (8 blocks), a block of
//! another class than the parked ones, or a thread slot ≥ 8 takes the
//! shared-list path unchanged; `free_chain` always does.
//!
//! A ripe limbo bag of the reclamation domain ([`crate::smr`]) is
//! offered to the draining thread's magazine first: as many of its
//! blocks as the magazine has room for are **spliced** in under one
//! intent — the push of one block generalised to a run — and the rest
//! go to the shared lists as a `free_chain`. The claims run front to
//! back, so a crash after `j` of them leaves a walk from the intent over
//! exactly the claimed prefix.
//!
//! | operation | persist points (flit-cxl0: each one store/CAS + `RFlush`) |
//! |---|---|
//! | **alloc** from the magazine | ① header `ALLOCATED g+1` of the oldest parked block — complete at ① |
//! | **free** into the magazine | ① intent `MAG(b, g)` into the cell not naming the newest parked block → ② header CAS `ALLOCATED g → MAGAZINE g+1, next = newest` (claim *and* link) — complete at ② |
//! | **alloc** from a free list | ① intent `ALLOC(top, g)` → ② head CAS past `top` → ③ header `ALLOCATED g` — complete at ③ |
//! | **free** to a free list | ① intent `FREE(b, g)` → ② header CAS `ALLOCATED g → FREE g+1, next = top` (claim *and* link) → ③ head CAS to `b` |
//! | **free_chain** of `k` blocks of one class | ① intent `FREE(b₀, g₀)` → `k` claim CASes, each linking `bᵢ` to `bᵢ₊₁` (the last to `top`) → one head CAS to `b₀` — `k + 2` |
//! | **SMR drain** of `b₁ … b_k` into the magazine (`k` ≤ its room) | no load: limbo kept each block's `ALLOCATED g` header → ① intent `MAG(b₁, g₁)` into the cell not naming the newest parked block → `k` claim CASes, front to back, `ALLOCATED g → MAGAZINE g+1`, each linking `bᵢ` to `bᵢ₊₁` and `b_k` to the newest — `k + 1`; the rest of the bag as a `free_chain` without its header loads |
//! | alloc from the bump tail | the header store |
//!
//! A magazine takes back its **oldest** block, so the blocks still
//! parked stay on the walk from the newest one: a pop only ever cuts the
//! chain's end. Magazine intents are never cleared at run time (a stale
//! one names a block that moved on); recovery zeroes them.
//!
//! * The **pop** is a plain Treiber pop on a version-tagged head (every
//!   successful head CAS bumps a 30-bit version, so a popped-and-
//!   repushed top never re-creates an old head word). It is lock-free:
//!   an operation that dies anywhere leaves nothing for others to wait
//!   on. Its intent is recorded *before* the CAS, so an intent only
//!   says "this slot **may** have popped that block"; whether it did is
//!   read off the block.
//! * The **claim** CAS of a free is won by exactly one free of an
//!   incarnation (a racing double free is refused), bumps the
//!   generation, and leaves the block `FREE` but on no list until the
//!   head CAS publishes it. A chain's claimed blocks are linked front
//!   to back, so a walk along `next` from the intent's block reaches
//!   every one of them. [`Allocator::free`] *is* the chain of one.
//! * The intent **clear** is a plain cached store — no flush. If the
//!   issuer's cache is lost before the line drains, the intent
//!   resurfaces *stale* in the next sweep, which is harmless (below).
//!
//! **Recovery** ([`Allocator::recover`], run from
//! [`Session::recover_roots`](crate::api::Session::recover_roots),
//! quiesced) reads each latched intent against the header of the block
//! it names:
//!
//! | intent | header | generation | on its list | verdict → action |
//! |---|---|---|---|---|
//! | `ALLOC(b, g)` | `FREE` | `g` | no | torn after ②: put `b` back |
//! | `ALLOC(b, g)` | `FREE` | `g` | yes | torn before ②, or lost its CAS: none |
//! | `ALLOC(b, g)` | `ALLOCATED` | `g` | — | complete (or another pop's block): none |
//! | `FREE(b, g)` | `ALLOCATED` | `g` | — | torn after ①: claim `b`, then as next row |
//! | `FREE(b, g)` | `FREE` | `g+1` | no | torn after a claim: **walk** the chain, publish it |
//! | `FREE(b, g)` | `FREE` | `g+1` | yes | complete: none |
//! | `MAG(b, g)` | `MAGAZINE` | `g+1` | — | parked: **walk** the magazine, publish it |
//! | `MAG(b, g)` | `ALLOCATED` | `g` | — | push torn before its claim: publish `b` as `FREE g+1` |
//! | `MAG(b, g)` | `FREE` | `g+1` | no | a racing free's claim, or a sweep that died publishing: walk |
//! | `MAG(b₁, g₁)` of a splice | `ALLOCATED` | `g₁` | — | torn before its first claim: publish `b₁` as `FREE g₁+1`; `b₂ … b_k` are still `ALLOCATED` and back in limbo, and `SmrDomain::recover` frees them, refusing `b₁` |
//! | `MAG(b₁, g₁)` of a splice | `MAGAZINE` | `g₁+1` | — | torn after `j` claims: walk `b₁ … b_j` (`b_{j+1}` is still `ALLOCATED`), the older blocks from the other cell; `SmrDomain::recover` frees `b_{j+1} … b_k`, refusing the prefix |
//! | any | any | any other | — | **stale** — the block moved on: none |
//!
//! The *chain walk* follows `next` from the intent's block while blocks
//! are `FREE`, of the intent's class, and on no list; it stops at the
//! first block the torn chain had not claimed (still `ALLOCATED`, and
//! still its owner's) or at the old top (on the list). Every block it
//! reaches is put back, which is sound because recovery is quiesced: a
//! `FREE` block on no list belongs to no one. The walked blocks are
//! already linked, so republishing them costs two persists however long
//! the chain.
//!
//! The *magazine walk* reads a magazine slot's second cell only when
//! its first holds a `MAG` intent (a push writes cell 0 first, and
//! recovery zeroes both), so a heap whose magazines never pushed pays
//! the same 32 intent loads as before. It follows `next` from each
//! named block while blocks are of its class and `MAGAZINE` (or `FREE`
//! on no list), with a visited set: a block taken back and parked again
//! links into the chain it left, so chains overlap and revisit. The
//! blocks it collects are published after every intent has been read,
//! each header set `FREE` and linked to the next (`k + 1` persists per
//! class), then both cells are zeroed and every volatile magazine is
//! voided: the magazines are per-thread, volatile state that no crash
//! preserves.
//!
//! Why **stale intents are harmless**: a live block's header is
//! `ALLOCATED`, and the only rules that act on an `ALLOCATED` header
//! need a `FREE` or `MAG` intent at the header's *current* generation
//! — which only a free invoked on this incarnation writes, and a free
//! that returns without claiming does so only because the header
//! already moved on. Every other rule acts on `MAGAZINE` blocks, whose
//! magazines recovery voids, or on `FREE` blocks that no list holds,
//! which no one owns. Generations advance on every free, so an intent
//! from an earlier incarnation of a block matches nothing (up to the
//! 20-bit wrap bound below).
//!
//! "On its list" is answered by a per-class set built lazily by one
//! walk of that list, so a sweep walks each free list **at most once**
//! however many intents ask.
//!
//! One window is *not* the allocator's to close: an allocation is
//! complete at ③, so a caller that dies after it — inside `alloc` or
//! right after it returns — before durably linking the block anywhere
//! leaks the block, as with any allocator.
//!
//! ## ABA safety for reclaiming lock-free structures
//!
//! Reusing nodes under CAS-based structures resurrects the classic ABA
//! problem. Every block carries a **generation** bumped on each free,
//! and [`Allocator::encode`] tags pointer words with it (the
//! Michael–Scott counted-pointer technique): a stale CAS against a
//! pointer to a reclaimed-and-recycled block cannot match. (The
//! generation is 20 bits and wraps: like every counted-pointer scheme
//! the guard is probabilistic, defeated only if one block is freed
//! 2^20 times *while a single operation is suspended holding a stale
//! pointer to it* — not a reachable schedule in this simulator's
//! workloads, but worth naming.) Link
//! cells are initialized with [`Allocator::null_ptr`]`(gen)` so even
//! "null" differs across incarnations (nulls carry a tag bit, so none
//! equals a plain zero cell either). Reads of freed cells remain
//! possible (and harmless — the simulated fabric cannot fault); any
//! value read from a freed block is only ever used under a
//! generation-checked CAS that fails.
//!
//! One discipline makes this airtight without type-stable memory: **a
//! cell of a reclaimable block that is ever the target of a CAS must
//! only ever hold generation-tagged words** (encoded pointers or tagged
//! nulls), never application-chosen values — *or* the block's
//! reclamation must be deferred past every operation that could touch
//! it. The counted-pointer structures (queue, stack) follow the first
//! arm: their two-cell nodes keep the link at offset 1 and the value
//! at offset 0, and free unlinked nodes inline. The traversal
//! structures (sorted list, hash map), whose cells do hold
//! application-chosen words, follow the second: they retire blocks
//! through the epoch-based reclamation domain ([`crate::smr`]), which
//! keeps a retired block out of reuse until every operation pinned at
//! retirement has finished — see `docs/RECLAMATION.md` for why each
//! structure sits where it does.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use cxl0_runtime::alloc::Allocator;
//! use cxl0_runtime::{Flit, FlitPolicy, Persistence, SimFabric};
//! use cxl0_model::{MachineId, SystemConfig};
//!
//! let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 1024));
//! let persist: Arc<dyn Persistence> = Arc::new(Flit::new(FlitPolicy::CXL0));
//! let alloc = Allocator::over_region(fabric.config(), MachineId(1), persist);
//! let node = fabric.node(MachineId(0));
//!
//! let a = alloc.alloc(&node, 2)?.expect("heap fits");
//! alloc.free(&node, a.loc)?.expect("a is allocated");
//! let b = alloc.alloc(&node, 2)?.expect("heap fits");
//! assert_eq!(b.loc, a.loc);     // the block is reused…
//! assert_eq!(b.gen, a.gen + 1); // …under a fresh generation
//! assert!(b.recycled);
//!
//! // Several blocks go back as one chain: k + 2 persists, not 3k.
//! let c = alloc.alloc(&node, 2)?.expect("heap fits");
//! assert_eq!(alloc.free_chain(&node, &[b.loc, c.loc])?, 2);
//! # Ok::<(), cxl0_runtime::Crashed>(())
//! ```
//!
//! Within a [`Cluster`](crate::api::Cluster) the allocator is built
//! automatically (right after the named-root registry) and the durable
//! structures ([`ds`](crate::ds)) allocate and reclaim their nodes
//! through it; its counters surface through
//! [`Session::stats_delta`](crate::api::Session::stats_delta).

mod allocator;
pub(crate) mod layout;

pub(crate) use allocator::Owned;
pub use allocator::{
    AllocRecovery, AllocStats, Allocator, BlockRef, FreeError, INTENT_SLOTS, MAX_CLASS_CELLS,
    META_CELLS, NUM_CLASSES,
};
