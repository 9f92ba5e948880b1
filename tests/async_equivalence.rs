//! Sync/async equivalence suite: the same seeded, order-dependent workload
//! driven through the three front-ends — blocking [`Rtf::run`], async
//! [`Rtf::run_async`] on the minimal executor, and ticketed async
//! [`Rtf::run_ticketed_async`] in a concurrent batch — must produce
//! bit-identical `rtf-replay-v1` artifacts. The async front-end is a new
//! *waiting* strategy, not a new semantics; the PR 6 differ proves it.
//!
//! All three drivers force commit order = submission order (sequentially,
//! or via pre-drawn tickets), which pins the commit-order log, the
//! order-sensitive state hash, and the lifecycle counters the artifact
//! compares.

use std::sync::Arc;

use rtf::{state_hash, CommitLog, ReplayArtifact, Rtf, VBox};
use rtf_txasync::{block_on, block_on_all};

/// Order-sensitive fold: the final value encodes the exact commit order.
fn mix(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Deterministic per-transaction payload (SplitMix64 over seed and index).
fn payload(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which front-end drives the workload.
#[derive(Clone, Copy, Debug)]
enum Driver {
    /// Sequential blocking `run_ticketed` calls.
    Sync,
    /// Sequential `block_on(run_ticketed_async(..))` — one future at a
    /// time, each resolved entirely through the poll path.
    Async,
    /// All tickets drawn up front, all futures in flight at once on one
    /// `block_on_all` executor thread.
    AsyncBatch,
}

/// One recorded run: `txns` transactions folding seeded payloads into a
/// per-lane hash chain plus a contended shared total, committing in
/// submission order through the ordered lane.
fn record_run(seed: u64, shards: usize, txns: usize, driver: Driver) -> ReplayArtifact {
    record_run_lanes(seed, shards, txns, driver, 1)
}

/// Same run with an explicit `commit_lanes` request. The sharded backbone
/// it once selected is gone — every runtime commits through one chain — so
/// the request must be invisible to the async front-ends' artifacts.
fn record_run_lanes(
    seed: u64,
    shards: usize,
    txns: usize,
    driver: Driver,
    lanes: usize,
) -> ReplayArtifact {
    let log = CommitLog::new();
    let tm = Rtf::builder()
        .workers(2)
        .ordered(shards)
        .commit_lanes(lanes)
        .event_sink(Arc::clone(&log) as _)
        .build();
    let chains: Arc<Vec<VBox<u64>>> = Arc::new((0..shards).map(|_| VBox::new(0u64)).collect());
    let total = VBox::new(0u64);

    let body = |ticket: rtf::OrderedTicket, p: u64| {
        let lane = ticket.ticket().lane as usize;
        let chains = Arc::clone(&chains);
        let total = total.clone();
        (ticket, move |tx: &mut rtf::Tx| {
            let acc = *tx.read(&chains[lane]);
            tx.write(&chains[lane], mix(acc, p));
            let t = *tx.read(&total);
            tx.write(&total, t + p % 7);
        })
    };

    match driver {
        Driver::Sync => {
            for k in 0..txns {
                let (ticket, f) = body(tm.ticket(), payload(seed, k as u64));
                tm.run_ticketed(ticket, f).expect("sync ticketed transaction failed");
            }
        }
        Driver::Async => {
            for k in 0..txns {
                let (ticket, f) = body(tm.ticket(), payload(seed, k as u64));
                block_on(tm.run_ticketed_async(ticket, f))
                    .expect("async ticketed transaction failed");
            }
        }
        Driver::AsyncBatch => {
            // Every ticket drawn before any future is polled: the batch is
            // genuinely concurrent (all in flight), yet the lane pins the
            // commit order to the draw order.
            let futs: Vec<_> = (0..txns)
                .map(|k| {
                    let (ticket, f) = body(tm.ticket(), payload(seed, k as u64));
                    tm.run_ticketed_async(ticket, f)
                })
                .collect();
            for r in block_on_all(futs) {
                r.expect("batched async ticketed transaction failed");
            }
        }
    }

    let hash =
        state_hash(chains.iter().map(|c| *c.read_committed()).chain([*total.read_committed()]));
    ReplayArtifact::from_run("async-equivalence", seed, shards as u32, &log, hash, &tm.stats())
}

/// The satellite claim: all three front-ends are bit-identical on the same
/// seed — commit-order log, state hash, and lifecycle counters.
#[test]
fn sync_async_and_batched_async_artifacts_are_bit_identical() {
    for (seed, shards) in [(3u64, 1usize), (0xFEED, 2)] {
        let sync = record_run(seed, shards, 60, Driver::Sync);
        assert_eq!(sync.counters.ordered_commits, 60);
        assert_eq!(sync.counters.tickets_abandoned, 0);
        for driver in [Driver::Async, Driver::AsyncBatch] {
            let run = record_run(seed, shards, 60, driver);
            assert_eq!(
                sync.diff(&run),
                None,
                "seed {seed:#x} diverged between sync and {driver:?}"
            );
        }
    }
}

/// The lanes axis: every async front-end on a runtime that asks for a
/// sharded chain (`commit_lanes(4)`, now a no-op) produces an artifact
/// bit-identical to the single-chain sync baseline.
#[test]
fn async_front_ends_on_sharded_chain_match_single_chain_sync() {
    for (seed, shards) in [(3u64, 1usize), (0xFEED, 2)] {
        let baseline = record_run_lanes(seed, shards, 60, Driver::Sync, 1);
        for driver in [Driver::Sync, Driver::Async, Driver::AsyncBatch] {
            let run = record_run_lanes(seed, shards, 60, driver, 4);
            assert_eq!(
                baseline.diff(&run),
                None,
                "seed {seed:#x} diverged between single-chain sync and sharded {driver:?}"
            );
        }
    }
}

/// Same property on a zero-worker runtime: the batch resolves entirely
/// through the poll path's helping (no OS thread ever blocks on
/// transaction state) and still matches the threaded sync baseline.
#[test]
fn zero_worker_async_batch_matches_the_sync_artifact() {
    let seed = 11u64;
    let sync = record_run(seed, 1, 40, Driver::Sync);

    let log = CommitLog::new();
    let tm = Rtf::builder().workers(0).ordered(1).event_sink(Arc::clone(&log) as _).build();
    let chain = VBox::new(0u64);
    let total = VBox::new(0u64);
    let futs: Vec<_> = (0..40)
        .map(|k| {
            let ticket = tm.ticket();
            let p = payload(seed, k as u64);
            let chain = chain.clone();
            let total = total.clone();
            tm.run_ticketed_async(ticket, move |tx| {
                let acc = *tx.read(&chain);
                tx.write(&chain, mix(acc, p));
                let t = *tx.read(&total);
                tx.write(&total, t + p % 7);
            })
        })
        .collect();
    for r in block_on_all(futs) {
        r.expect("zero-worker async transaction failed");
    }
    let hash = state_hash([*chain.read_committed(), *total.read_committed()]);
    let run = ReplayArtifact::from_run("async-equivalence", seed, 1, &log, hash, &tm.stats());
    assert_eq!(sync.diff(&run), None, "zero-worker async batch diverged from sync");
}

/// Plain (unordered) async equivalence: sequentially awaited `run_async`
/// transactions leave the same final state as sequential `run` calls.
#[test]
fn unordered_run_async_matches_run_sequentially() {
    let run = |asynchronous: bool| -> u64 {
        let tm = Rtf::builder().workers(2).build();
        let x = VBox::new(0u64);
        for k in 0..50u64 {
            let p = payload(21, k);
            let x = x.clone();
            let body = move |tx: &mut rtf::Tx| {
                let v = *tx.read(&x);
                tx.write(&x, mix(v, p));
            };
            if asynchronous {
                block_on(tm.run_async(body)).expect("async transaction failed");
            } else {
                tm.run(body).expect("sync transaction failed");
            }
        }
        *x.read_committed()
    };
    assert_eq!(run(false), run(true), "async front-end changed a sequential result");
}
