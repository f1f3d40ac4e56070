//! Bit layouts of the allocator's durable words.
//!
//! Four word shapes live in shared memory:
//!
//! * **pointer words** — what data structures store in their cells to
//!   reference an allocated block: `gen << 34 | (addr + 1)`, with zero
//!   pointer bits meaning *null*. The generation is the block's reuse
//!   counter, so a pointer to a reclaimed-and-recycled block never
//!   compares equal to a pointer to its previous incarnation (the
//!   classic CAS/ABA guard, per the original Michael–Scott counted
//!   pointers). Bit 63 is left clear for structure-level tag bits (the
//!   sorted list's deletion mark).
//! * **block headers** — the cell immediately before every block's
//!   payload: state + size class + generation + an intrusive free-list
//!   `next` link (meaningful only while the block is free).
//! * **free-list heads** — one cell per size class: the top block's
//!   address and a version counter bumped by every successful CAS, so a
//!   pushed-back block never re-creates an old head word (the Treiber
//!   pop's ABA guard).
//! * **intents** — one word per intent slot naming the in-flight
//!   operation, its size class, and the block and generation it acts
//!   on; `0` is an idle slot.

/// Bits of an encoded address (`addr + 1`; `0` = null).
pub(crate) const PTR_BITS: u32 = 34;
pub(crate) const PTR_MASK: u64 = (1 << PTR_BITS) - 1;

/// Block-generation field: bits 34..54 of pointer words and headers.
pub(crate) const GEN_SHIFT: u32 = 34;
pub(crate) const GEN_BITS: u32 = 20;
pub(crate) const GEN_MASK: u64 = (1 << GEN_BITS) - 1;

// ---- block headers ------------------------------------------------------

/// Size-class field of a header: bits 54..59.
const CLASS_SHIFT: u32 = 54;
const CLASS_MASK: u64 = 0x1f;
/// State field of a header: bits 59..62.
const STATE_SHIFT: u32 = 59;
const STATE_MASK: u64 = 0x7;

/// Header state: handed out (or being handed out) to the application.
pub(crate) const ST_ALLOCATED: u64 = 1;
/// Header state: on its class free list, or claimed by an in-flight
/// `free` and about to be published there.
pub(crate) const ST_FREE: u64 = 2;

/// Class tag of an oversize (exact-fit, unreclaimable) block.
pub(crate) const HUGE_CLASS: u64 = CLASS_MASK;

/// Builds a header word. `next` is the next free block's payload address
/// (`None` = end of list); only meaningful in [`ST_FREE`].
pub(crate) fn header_word(state: u64, class: u64, gen: u64, next: Option<u32>) -> u64 {
    debug_assert!(state <= STATE_MASK && class <= CLASS_MASK && gen <= GEN_MASK);
    (state << STATE_SHIFT)
        | (class << CLASS_SHIFT)
        | (gen << GEN_SHIFT)
        | next.map_or(0, |a| u64::from(a) + 1)
}

pub(crate) fn header_state(hdr: u64) -> u64 {
    (hdr >> STATE_SHIFT) & STATE_MASK
}

pub(crate) fn header_class(hdr: u64) -> u64 {
    (hdr >> CLASS_SHIFT) & CLASS_MASK
}

pub(crate) fn header_gen(hdr: u64) -> u64 {
    (hdr >> GEN_SHIFT) & GEN_MASK
}

/// The free-list successor recorded in a free block's header.
pub(crate) fn header_next(hdr: u64) -> Option<u32> {
    decode_addr(hdr)
}

// ---- pointer words ------------------------------------------------------

/// Encodes a payload address + generation as a pointer word.
pub(crate) fn ptr_word(addr: u32, gen: u64) -> u64 {
    debug_assert!(gen <= GEN_MASK);
    (gen << GEN_SHIFT) | (u64::from(addr) + 1)
}

/// Tag bit marking a null pointer word (bit 62). Without it,
/// `null_word(0)` would encode as plain `0` and a stale CAS expecting a
/// generation-0 null could match the zero-initialized (or recycled)
/// contents of a different block — the tag keeps every link-cell word
/// unique to its block incarnation.
const NULL_TAG: u64 = 1 << 62;

/// The null pointer word carrying a block's generation (used to
/// initialize link cells so a stale CAS against a recycled block's
/// "null" fails — nulls from different incarnations differ, and no
/// null ever equals a plain zero cell).
pub(crate) fn null_word(gen: u64) -> u64 {
    debug_assert!(gen <= GEN_MASK);
    NULL_TAG | (gen << GEN_SHIFT)
}

/// The address carried by a pointer word (also used for header `next`
/// fields and intent words). `None` when the pointer bits are 0.
pub(crate) fn decode_addr(raw: u64) -> Option<u32> {
    let p = raw & PTR_MASK;
    if p == 0 {
        None
    } else {
        Some((p - 1) as u32)
    }
}

/// The generation carried by a pointer word or intent word.
pub(crate) fn decode_gen(raw: u64) -> u64 {
    (raw >> GEN_SHIFT) & GEN_MASK
}

/// The seed generation of a fresh bump-tail block at payload address
/// `addr`: a per-address hash, always odd (never zero). Two birds: a
/// block's very first pointer words already differ from any
/// application scalar (a small integer's generation bits are zero, so
/// it can never alias a live block's pointer — which is what lets the
/// sanitizer treat a generation-matching word as a real reference),
/// and the first free of a neighbouring recycled block can't collide
/// either (distinct addresses hash to distinct seeds with high
/// probability, and the low bit keeps every seed odd while bumps
/// alternate parity).
pub(crate) fn seed_gen(addr: u32) -> u64 {
    (u64::from(addr).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) & GEN_MASK | 1
}

// ---- free-list head words -----------------------------------------------

/// Head version counter: bits 34..64 (wraps).
const VER_SHIFT: u32 = PTR_BITS;
const VER_MASK: u64 = (1 << (64 - VER_SHIFT)) - 1;

/// Builds a head word.
pub(crate) fn head_word(top: Option<u32>, ver: u64) -> u64 {
    ((ver & VER_MASK) << VER_SHIFT) | top.map_or(0, |a| u64::from(a) + 1)
}

/// The top block's payload address (`None` = empty list).
pub(crate) fn head_top(head: u64) -> Option<u32> {
    decode_addr(head)
}

pub(crate) fn head_ver(head: u64) -> u64 {
    (head >> VER_SHIFT) & VER_MASK
}

// ---- intent slots -------------------------------------------------------

/// Intent opcode: an allocation pop is in flight.
pub(crate) const OP_ALLOC: u64 = 1;
/// Intent opcode: a free (of one block or a chain) is in flight.
pub(crate) const OP_FREE: u64 = 2;

/// Opcode field of an intent word: bits 59..61, where a header keeps its
/// state — the block, generation and class fields sit exactly where a
/// header has them.
const OP_SHIFT: u32 = STATE_SHIFT;
const OP_MASK: u64 = 0x3;

/// Builds a one-word intent (`0` = idle slot): the operation, the size
/// class it works on, and the block it names at the generation the
/// operation observed — what lets recovery tell a live intent from a
/// stale one.
pub(crate) fn intent_word(op: u64, class: u64, addr: u32, gen: u64) -> u64 {
    debug_assert!(op == OP_ALLOC || op == OP_FREE);
    debug_assert!(class <= CLASS_MASK);
    (op << OP_SHIFT) | (class << CLASS_SHIFT) | ptr_word(addr, gen)
}

pub(crate) fn intent_op(word: u64) -> u64 {
    (word >> OP_SHIFT) & OP_MASK
}

pub(crate) fn intent_class(word: u64) -> u64 {
    header_class(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = header_word(ST_FREE, 7, 0xfffff, Some(12345));
        assert_eq!(header_state(h), ST_FREE);
        assert_eq!(header_class(h), 7);
        assert_eq!(header_gen(h), 0xfffff);
        assert_eq!(header_next(h), Some(12345));
        let h = header_word(ST_ALLOCATED, HUGE_CLASS, 0, None);
        assert_eq!(header_state(h), ST_ALLOCATED);
        assert_eq!(header_class(h), HUGE_CLASS);
        assert_eq!(header_next(h), None);
    }

    #[test]
    fn pointer_words_distinguish_generations() {
        let a = ptr_word(42, 3);
        let b = ptr_word(42, 4);
        assert_ne!(a, b);
        assert_eq!(decode_addr(a), Some(42));
        assert_eq!(decode_addr(b), Some(42));
        assert_eq!(decode_gen(a), 3);
        assert_ne!(null_word(3), null_word(4));
        assert_eq!(decode_addr(null_word(3)), None);
        // Even the generation-0 null is distinguishable from a plain
        // zero cell (fresh memory, foreign structures' initial state).
        assert_ne!(null_word(0), 0);
        // Bit 63 stays clear for structure-level marks.
        assert_eq!(ptr_word(u32::MAX, GEN_MASK) >> 63, 0);
        assert_eq!(null_word(GEN_MASK) >> 63, 0);
    }

    #[test]
    fn seed_generations_are_nonzero_and_spread() {
        let mut seen = std::collections::HashSet::new();
        for addr in 0..10_000u32 {
            let g = seed_gen(addr);
            assert_ne!(g, 0);
            assert_eq!(g & 1, 1, "seeds are odd");
            assert!(g <= GEN_MASK);
            seen.insert(g);
        }
        // The hash must actually spread: neighbouring addresses get
        // (mostly) distinct seeds.
        assert!(seen.len() > 9_000, "only {} distinct seeds", seen.len());
    }

    #[test]
    fn head_round_trips() {
        let h = head_word(Some(7), 9);
        assert_eq!(head_top(h), Some(7));
        assert_eq!(head_ver(h), 9);
        assert_eq!(head_top(head_word(None, 9)), None);
        assert_ne!(head_word(Some(7), 9), head_word(Some(7), 10));
    }

    #[test]
    fn head_version_wraps_without_corrupting_fields() {
        let h = head_word(Some(1), VER_MASK);
        assert_eq!(head_ver(h), VER_MASK);
        let bumped = head_word(Some(1), head_ver(h).wrapping_add(1));
        assert_eq!(head_ver(bumped), 0);
        assert_eq!(head_top(bumped), Some(1));
    }

    #[test]
    fn intent_words_round_trip() {
        let w = intent_word(OP_FREE, 11, 99, 6);
        assert_eq!(intent_op(w), OP_FREE);
        assert_eq!(intent_class(w), 11);
        assert_eq!(decode_addr(w), Some(99));
        assert_eq!(decode_gen(w), 6);
        // The widest fields still fit one word, and no intent is idle.
        let w = intent_word(OP_ALLOC, CLASS_MASK - 1, u32::MAX, GEN_MASK);
        assert_eq!(intent_op(w), OP_ALLOC);
        assert_eq!(decode_addr(w), Some(u32::MAX));
        assert_eq!(decode_gen(w), GEN_MASK);
        assert_ne!(intent_word(OP_ALLOC, 0, 0, 0), 0);
    }
}
