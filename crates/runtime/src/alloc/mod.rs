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
//! [ region header | 15 free-list heads | 32 intent slots | block area … ]
//!   META_CELLS durable metadata cells                      bump tail
//! ```
//!
//! Every block is `1 + payload` cells: a **header** (state, size class,
//! reuse *generation*, intrusive free-list link) followed by the payload
//! the caller sees. Payloads round up to power-of-two size classes
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
//! — and nothing else. Each in-flight operation leases one of 32
//! durable **intent** slots: one word, `op | class | block | generation`
//! (the slot's second cell is reserved).
//!
//! | operation | persist points (flit-cxl0: each one store/CAS + `RFlush`) |
//! |---|---|
//! | **alloc** from a free list | ① intent `ALLOC(top, g)` → ② head CAS past `top` → ③ header `ALLOCATED g` — complete at ③ |
//! | **free** | ① intent `FREE(b, g)` → ② header CAS `ALLOCATED g → FREE g+1, next = top` (claim *and* link) → ③ head CAS to `b` |
//! | **free_chain** of `k` blocks of one class | ① intent `FREE(b₀, g₀)` → `k` claim CASes, each linking `bᵢ` to `bᵢ₊₁` (the last to `top`) → one head CAS to `b₀` — `k + 2` |
//! | alloc from the bump tail | the header store |
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
//! | either | any | any other | — | **stale** — the block moved on: none |
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
//! Why **stale intents are harmless**: a live block's header is
//! `ALLOCATED`, and the only rule that acts on an `ALLOCATED` header
//! needs a `FREE` intent at the header's *current* generation — which
//! only a free invoked on this incarnation writes, and a free that
//! returns without claiming does so only because the header already
//! moved on. Every other rule acts on `FREE` blocks that no list holds,
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

pub use allocator::{
    AllocRecovery, AllocStats, Allocator, BlockRef, FreeError, TornAlloc, TornFree, INTENT_SLOTS,
    MAX_CLASS_CELLS, META_CELLS, NUM_CLASSES,
};
