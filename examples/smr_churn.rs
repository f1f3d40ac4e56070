//! Epoch-based reclamation under full concurrency: a `DurableList`
//! absorbs insert/remove churn of **10× the memory node's capacity**
//! while reader threads traverse the whole time — no quiesce points,
//! no explicit `reclaim` calls. Removed nodes are *retired* into the
//! cluster's `cxl0::smr` domain and drain back to the allocator — into
//! the draining thread's magazine as far as it has room, the rest onto
//! the free lists — only after every traversal pinned at retirement has
//! finished;
//! the amortized collection built into retirement alone keeps the tiny
//! region serviceable.
//!
//! Contrast with `alloc_churn.rs`, where the queue frees inline (its
//! CASes always compare generation-tagged words); the sorted list
//! dereferences interior nodes without a validating CAS, so it needs
//! the grace period. `docs/RECLAMATION.md` develops the argument.
//!
//! Run with: `cargo run --release --example smr_churn`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cxl0::api::Cluster;
use cxl0::model::{MachineId, SystemConfig};
use cxl0::runtime::alloc::META_CELLS;

fn main() {
    // A deliberately tiny memory node: past the registry and allocator
    // metadata there is room for only a few dozen 3-cell list nodes,
    // so any reclamation gap exhausts the heap almost immediately.
    let area = 256;
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, META_CELLS + area))
        .root_capacity(4)
        .build()
        .expect("segment fits registry + allocator metadata");
    let setup = cluster.session(MachineId(0));
    let list = setup.create_list::<u64>("members").expect("create list");

    // Permanent residents bracketing the churn range: every reader
    // sweep traverses across the keys being inserted and removed.
    for k in [100u64, 900, 1800] {
        list.insert(&setup, k).expect("insert resident");
    }

    // Readers traverse continuously while the writer churns. Each
    // `contains` pins the epoch for its duration — that pin is the
    // only thing standing between a concurrent traversal and a
    // recycled node, and this workload proves it is enough.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let s = cluster.session(MachineId(0));
                let list = s.open_list::<u64>("members").expect("open list");
                let mut sweeps = 0u64;
                loop {
                    for k in [100u64, 900, 1800] {
                        assert!(
                            list.contains(&s, k).expect("no crash"),
                            "resident key {k} lost mid-churn"
                        );
                    }
                    sweeps += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                sweeps
            })
        })
        .collect();

    // A fresh session so the stats delta covers exactly the churn.
    let session = cluster.session(MachineId(0));
    let pairs = 900u64; // 3 cells per insert ≈ 10× the region
    println!("=== smr churn: {pairs} insert/remove pairs over a {area}-cell area ===\n");
    for i in 0..pairs {
        let k = 500 + i % 16;
        assert!(
            list.insert(&session, k).expect("no crash"),
            "heap exhausted at pair {i} — reclamation failed"
        );
        assert!(list.remove(&session, k).expect("no crash"), "pair {i}");
    }
    stop.store(true, Ordering::Relaxed);
    let mut sweeps = 0u64;
    for r in readers {
        sweeps += r.join().expect("reader panicked");
    }

    let d = session.stats_delta();
    println!("churn          : {pairs} insert/remove pairs");
    println!("reader sweeps  : {sweeps} full traversals during the churn");
    println!(
        "allocations    : {} ({} served from free lists, {:.1}% hit rate)",
        d.allocs,
        d.freelist_hits,
        100.0 * d.freelist_hits as f64 / d.allocs.max(1) as f64
    );
    println!(
        "smr            : {} retires, {} reclaims, {} in limbo",
        d.smr_retires, d.smr_reclaims, d.smr_limbo
    );
    println!(
        "epoch          : {} ({} advances during the churn)",
        d.smr_epoch, d.smr_advances
    );

    // Boundedness: ten regions' worth of node traffic, every block
    // either back on a free list or awaiting its grace period.
    assert_eq!(d.allocs, d.frees + d.smr_limbo, "no block unaccounted for");
    assert!(d.smr_retires >= pairs, "every removal retires its node");
    assert!(
        d.freelist_hits * 10 >= d.allocs * 9,
        "steady-state churn must be served by reuse"
    );
    assert!(sweeps > 0, "readers must have traversed during the churn");
    println!("\nconcurrent reclamation under traversal: OK");
}
