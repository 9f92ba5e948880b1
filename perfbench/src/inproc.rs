//! Closed-loop in-process workloads: `tpcc_futures` (TPC-C with
//! transactional futures), `synth_contended` (the Fig 5b contended
//! synthetic) and `synth_readonly` (the Fig 5a read-only synthetic split
//! across a transactional future).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rtf::{MetricsSnapshot, ObsConfig, Rtf, StatSnapshot, TxObs};
use rtf_benchkit::{SyntheticArray, SyntheticConfig};
use rtf_plainfut::PlainExecutor;
use rtf_tpcc::workload::run_op;
use rtf_tpcc::{TpccConfig, TpccDb, TpccExecutor, TpccOp, TpccScale};

use crate::cpus;
use crate::report::{hist_since, Report};
use crate::stats::{self, Dist, Latency};
use crate::trace::Spans;
use crate::{median_secs, splitmix64, Args, SETUPS, WARMUP};

/// Pre-generated TPC-C operations; clients cycle through them.
const TPCC_OPS: usize = 16_384;
/// TPC-C transaction kinds, in `tpcc.<kind>_us_*` order.
const TPCC_KINDS: [&str; 6] =
    ["new_order", "payment", "order_status", "delivery", "stock_level", "audit"];
/// Time slice of the sliced latency percentiles (over a thousand
/// transactions on either workload).
const SLICE: Duration = Duration::from_secs(1);
/// Top-level clients of `synth_contended`.
const SYNTH_CLIENTS: usize = 2;
/// Futures per `synth_readonly` transaction: one client and one future,
/// the paper's `1*2` on two cores.
const RO_FUTURES: usize = 1;
/// Every this many `synth_readonly` transactions, one checksum is kept and
/// checked against the same reads done without transactions.
const RO_CHECK_EVERY: u64 = 64;

/// The Fig 5 shape over 2^18 versioned cells, far larger than the CPU
/// caches; the hot-spot fields apply to the contended variant only.
fn synth_config() -> SyntheticConfig {
    SyntheticConfig {
        array_size: 1 << 18,
        tx_len: 1000,
        iters_between: 100,
        hot_spots: 20,
        hot_writes: 10,
    }
}

/// The `TpccConfig::default()` mix at 1 warehouse, 120 customers per
/// district and 1024 items, seeded from the run's seed.
fn tpcc_config(seed: u64) -> TpccConfig {
    let mut s = seed;
    TpccConfig {
        scale: TpccScale {
            warehouses: 1,
            customers_per_district: 120,
            items: 1024,
            seed: splitmix64(&mut s),
        },
        seed: splitmix64(&mut s),
        ..TpccConfig::default()
    }
}

fn tpcc_kind(op: &TpccOp) -> usize {
    match op {
        TpccOp::NewOrder { .. } => 0,
        TpccOp::Payment { .. } | TpccOp::PaymentByName { .. } => 1,
        TpccOp::OrderStatus { .. } | TpccOp::OrderStatusByName { .. } => 2,
        TpccOp::Delivery { .. } => 3,
        TpccOp::StockLevel { .. } => 4,
        TpccOp::Audit { .. } => 5,
    }
}

/// TPC-C consistency conditions 1 and 2 after the timed window.
pub fn gate_tpcc(tm: &Rtf, db: &TpccDb) -> Result<(), String> {
    let (ytd, order_ids) =
        tm.atomic(|tx| (db.check_ytd_consistency(tx), db.check_order_id_consistency(tx)));
    match (ytd, order_ids) {
        (true, true) => Ok(()),
        _ => Err(format!("W_YTD == sum(D_YTD): {ytd}, D_NEXT_O_ID consistent: {order_ids}")),
    }
}

/// One finished operation as a client saw it.
struct Outcome {
    kind: usize,
    /// Span name of the operation.
    name: &'static str,
    /// `Err` = the runtime returned a `TxError` (or panicked with one).
    result: Result<u64, ()>,
}

/// What one closed-loop client recorded.
struct ClientOut {
    /// `(started_at_ns, latency_ns)` of each committed operation.
    lat: Vec<(u64, u64)>,
    by_kind: Vec<Vec<u64>>,
    accs: Vec<u64>,
    failed: u64,
    queue_depth_max: usize,
    spans: Spans,
}

/// What one measured window recorded, merged over clients.
struct Window {
    lat: Latency,
    by_kind: Vec<Dist>,
    accs: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Median over slices of the commits completed per second.
    throughput: f64,
    /// Commits per second over the whole window.
    whole_throughput: f64,
    queue_depth_max: usize,
}

/// Runs `clients` closed-loop clients for `dur`; `op(client, i)` runs the
/// client's `i`-th operation.
fn closed_loop(
    clients: usize,
    dur: Duration,
    tm: &Rtf,
    spans: &mut Spans,
    trace: bool,
    op: &(dyn Fn(usize, u64) -> Outcome + Sync),
) -> Window {
    let start = Instant::now();
    let until = start + dur;
    let epoch = spans.epoch();
    let outs: Vec<ClientOut> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    cpus::pin_client(c);
                    let mut out = ClientOut {
                        lat: Vec::new(),
                        by_kind: vec![Vec::new(); TPCC_KINDS.len()],
                        accs: Vec::new(),
                        failed: 0,
                        queue_depth_max: 0,
                        spans: Spans::new(trace, epoch),
                    };
                    let mut i = 0u64;
                    while Instant::now() < until {
                        let t0 = Instant::now();
                        let o = op(c, i);
                        let t1 = Instant::now();
                        let ns = (t1 - t0).as_nanos() as u64;
                        let id = (c as u64) << 40 | (i + 1);
                        out.spans.record(o.name, t0, t1, 0, id);
                        match o.result {
                            Ok(acc) => {
                                out.lat.push(((t0 - start).as_nanos() as u64, ns));
                                out.by_kind[o.kind].push(ns);
                                out.accs.push(acc);
                            }
                            Err(()) => out.failed += 1,
                        }
                        out.queue_depth_max = out.queue_depth_max.max(tm.pool_queue_depth());
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut w = Window {
        lat: Latency::default(),
        by_kind: Vec::new(),
        accs: Vec::new(),
        attempted: 0,
        failed: 0,
        throughput: 0.0,
        whole_throughput: 0.0,
        queue_depth_max: 0,
    };
    let mut lat: Vec<(u64, u64)> = Vec::new();
    let mut by_kind = vec![Vec::new(); TPCC_KINDS.len()];
    for o in outs {
        w.attempted += o.lat.len() as u64 + o.failed;
        w.failed += o.failed;
        w.queue_depth_max = w.queue_depth_max.max(o.queue_depth_max);
        w.accs.extend(o.accs);
        lat.extend(o.lat);
        for (k, v) in by_kind.iter_mut().zip(o.by_kind) {
            k.push(v);
        }
        spans.absorb(o.spans);
    }
    w.whole_throughput = (w.attempted - w.failed) as f64 / elapsed;
    let done: Vec<u64> = lat.iter().map(|&(at, ns)| at + ns).collect();
    w.throughput = stats::sliced_rate(&done, SLICE.as_nanos() as u64, dur.as_nanos() as u64);
    w.lat = Latency::new(&lat, SLICE.as_nanos() as u64);
    w.by_kind = by_kind.into_iter().map(Dist::merged).collect();
    w
}

/// A measured window plus the layer counters and histograms over it.
struct Measured {
    w: Window,
    layers: StatSnapshot,
    hist: Option<MetricsSnapshot>,
}

/// Warm-up, then the measured window with counters diffed around it.
fn measure(
    clients: usize,
    window: Duration,
    tm: &Rtf,
    obs: Option<&Arc<TxObs>>,
    spans: &mut Spans,
    op: &(dyn Fn(usize, u64) -> Outcome + Sync),
) -> Measured {
    let mut scratch = Spans::new(false, Instant::now());
    let warm = closed_loop(clients, WARMUP, tm, &mut scratch, false, &|c, i| op(c, i | 1 << 62));
    let (before, hbefore) = (tm.stats(), obs.map(|o| o.metrics()));
    let mut w = closed_loop(clients, window, tm, spans, obs.is_some(), op);
    let layers = tm.stats().since(&before);
    let hist = obs.map(|o| hist_since(o.metrics(), &hbefore.expect("taken with the observer")));
    // The warm-up's commits count towards the correctness gates, and its
    // attempts and failures towards the run's counts.
    let mut accs = warm.accs;
    accs.append(&mut w.accs);
    w.accs = accs;
    w.attempted += warm.attempted;
    w.failed += warm.failed;
    Measured { w, layers, hist }
}

fn print_window(label: &str, w: &Window) {
    println!(
        "{label}: attempted {} failed {}  sliced throughput {:.1}/s (whole {:.1}/s)  sliced p50 {:.4} ms \
         p99 {:.4} ms ({} slices, >= {} samples each)  whole p99 {:.4} ms over {} samples",
        w.attempted,
        w.failed,
        w.throughput,
        w.whole_throughput,
        w.lat.p50 as f64 / 1e6,
        w.lat.p99 as f64 / 1e6,
        w.lat.slices,
        w.lat.min_slice,
        w.lat.whole.p99 as f64 / 1e6,
        w.lat.whole.count
    );
}

/// End-to-end metrics of an untraced window.
fn end_to_end(report: &mut Report, w: &Window, setup: Vec<f64>) {
    report.attempted = w.attempted;
    report.failed = w.failed;
    report.put("throughput_ops_s", w.throughput, "1/s");
    report.put("latency_p50_ms", w.lat.p50 as f64 / 1e6, "ms");
    report.put("latency_p99_ms", w.lat.p99 as f64 / 1e6, "ms");
    report.put("failed_share", w.failed as f64 / w.attempted.max(1) as f64, "share");
    report.put("setup_s", median_secs(setup), "s");
}

/// Per-layer metrics of a traced window against its untraced twin.
fn layers(report: &mut Report, m: &Measured, plain: &Window) {
    report.attempted = plain.attempted + m.w.attempted;
    report.failed = plain.failed + m.w.failed;
    report.runtime_layers(&m.layers, m.hist.as_ref());
    report.put("taskpool.queue_depth_max", m.w.queue_depth_max as f64, "count");
    report.put("failed_share", m.w.failed as f64 / m.w.attempted.max(1) as f64, "share");
    report.put("latency_p99_ms", m.w.lat.p99 as f64 / 1e6, "ms");
    report.put(
        "txobs.overhead_share",
        m.w.lat.p50 as f64 / plain.lat.p50.max(1) as f64 - 1.0,
        "share",
    );
}

fn tpcc_setup(seed: u64, obs: Option<Arc<TxObs>>) -> (Rtf, rtf_tpcc::TpccWorkload, f64) {
    let t = Instant::now();
    // One client and one future: the paper's `1*2` on two cores.
    let mut b = Rtf::builder().workers(1);
    if let Some(obs) = obs {
        b = b.observer(obs);
    }
    let tm = cpus::apart(|| b.build());
    let w = tpcc_config(seed).build(&tm, TPCC_OPS);
    (tm, w, t.elapsed().as_secs_f64())
}

fn tpcc_window(
    tm: &Rtf,
    w: &rtf_tpcc::TpccWorkload,
    window: Duration,
    obs: Option<&Arc<TxObs>>,
    spans: &mut Spans,
    report: &mut Report,
) -> Measured {
    let ex = TpccExecutor::new(tm.clone(), w.db.clone(), 1);
    let ops = &w.ops;
    let op = |_c: usize, i: u64| {
        let o = &ops[i as usize % ops.len()];
        let result =
            catch_unwind(AssertUnwindSafe(|| run_op(&ex, o))).map(|v| v as u64).map_err(|_| ());
        let kind = tpcc_kind(o);
        Outcome { kind, name: TPCC_KINDS[kind], result }
    };
    let m = measure(1, window, tm, obs, spans, &op);
    report.gate("tpcc consistency", gate_tpcc(tm, &w.db));
    m
}

/// `tpcc_futures`: one closed-loop client, one future per transaction.
pub fn run_tpcc(args: &Args, report: &mut Report, spans: &mut Spans) {
    let mut setup = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (tm, w, secs) = tpcc_setup(args.seed, None);
        setup.push(secs);
        last = Some((tm, w));
    }
    let (tm, w) = last.expect("at least one setup");
    let secs = Duration::from_secs(args.seconds);
    if !args.trace {
        let m = tpcc_window(&tm, &w, secs, None, spans, report);
        print_window("measured", &m.w);
        end_to_end(report, &m.w, setup);
        return;
    }
    let plain = tpcc_window(&tm, &w, secs / 2, None, spans, report);
    print_window("untraced", &plain.w);
    let obs = TxObs::new(ObsConfig::default());
    let (tm, w, _) = tpcc_setup(args.seed, Some(Arc::clone(&obs)));
    let m = tpcc_window(&tm, &w, secs / 2, Some(&obs), spans, report);
    print_window("traced", &m.w);
    layers(report, &m, &plain.w);
    for (kind, d) in TPCC_KINDS.iter().zip(&m.w.by_kind) {
        report.put(&format!("tpcc.{kind}_us_p50"), d.p50 as f64 / 1e3, "us");
    }
    report.put("tpcc.new_order_us_p99", m.w.by_kind[0].p99 as f64 / 1e3, "us");
    report.put("tpcc.audit_us_p99", m.w.by_kind[5].p99 as f64 / 1e3, "us");
}

fn synth_setup(read_only: bool, obs: Option<Arc<TxObs>>) -> (Rtf, SyntheticArray, f64) {
    let t = Instant::now();
    // One pool worker: it runs `synth_readonly`'s one future, on a CPU
    // apart from the one client, and idles under `synth_contended`'s two
    // futureless clients, which keep both CPUs.
    let mut b = Rtf::builder().workers(1);
    if let Some(obs) = obs {
        b = b.observer(obs);
    }
    let tm = if read_only { cpus::apart(|| b.build()) } else { b.build() };
    let sa = SyntheticArray::new(synth_config());
    (tm, sa, t.elapsed().as_secs_f64())
}

/// `synth_readonly`: each kept `(seed, checksum)` must equal the same
/// reads done by plain futures with no concurrency control.
fn gate_read_only(sa: &SyntheticArray, kept: &[(u64, u64)]) -> Result<(), String> {
    let ex = PlainExecutor::new(RO_FUTURES);
    let wrong = kept
        .iter()
        .filter(|&&(seed, acc)| sa.run_read_only_plain(&ex, RO_FUTURES, seed) != acc)
        .count();
    match (kept.len(), wrong) {
        (0, _) => Err("no checksum kept".into()),
        (_, 0) => Ok(()),
        (n, w) => Err(format!("{w} of {n} read-only checksums differ from plain reads")),
    }
}

fn synth_window(
    read_only: bool,
    (tm, sa): (&Rtf, &SyntheticArray),
    seed: u64,
    window: Duration,
    obs: Option<&Arc<TxObs>>,
    spans: &mut Spans,
    report: &mut Report,
) -> Measured {
    let tx_seed = |c: usize, i: u64| {
        let mut s = seed ^ (c as u64) << 56 ^ i;
        splitmix64(&mut s)
    };
    if read_only {
        let kept = Mutex::new(Vec::new());
        let op = |c: usize, i: u64| {
            let s = tx_seed(c, i);
            let result = catch_unwind(AssertUnwindSafe(|| sa.run_read_only(tm, RO_FUTURES, s)))
                .map_err(|_| ());
            if let (Ok(acc), 0) = (result, i % RO_CHECK_EVERY) {
                kept.lock().expect("no client panics holding it").push((s, acc));
            }
            Outcome { kind: 0, name: "synth.read_only", result }
        };
        let m = measure(1, window, tm, obs, spans, &op);
        let kept = kept.into_inner().expect("no client panics holding it");
        report.gate("read-only checksums", gate_read_only(sa, &kept));
        return m;
    }
    let before = sa.hot_sum();
    let op = |c: usize, i: u64| {
        let result = tm.run(sa.contended_body(0, tx_seed(c, i))).map_err(|_| ());
        Outcome { kind: 0, name: "synth.contended", result }
    };
    let m = measure(SYNTH_CLIENTS, window, tm, obs, spans, &op);
    report.gate(
        "hot-spot sum",
        stats::gate_hot_sum(before, sa.hot_sum(), &m.w.accs, sa.cfg.hot_writes as u64),
    );
    m
}

/// `synth_contended` (two closed-loop clients, no futures) or, with
/// `read_only`, `synth_readonly` (one client, one future).
pub fn run_synth(args: &Args, read_only: bool, report: &mut Report, spans: &mut Spans) {
    let mut setup = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (tm, sa, secs) = synth_setup(read_only, None);
        setup.push(secs);
        last = Some((tm, sa));
    }
    let (tm, sa) = last.expect("at least one setup");
    let secs = Duration::from_secs(args.seconds);
    if !args.trace {
        let m = synth_window(read_only, (&tm, &sa), args.seed, secs, None, spans, report);
        print_window("measured", &m.w);
        end_to_end(report, &m.w, setup);
        return;
    }
    let plain = synth_window(read_only, (&tm, &sa), args.seed, secs / 2, None, spans, report);
    print_window("untraced", &plain.w);
    let obs = TxObs::new(ObsConfig::default());
    let (tm, sa, _) = synth_setup(read_only, Some(Arc::clone(&obs)));
    let m = synth_window(read_only, (&tm, &sa), args.seed, secs / 2, Some(&obs), spans, report);
    print_window("traced", &m.w);
    layers(report, &m, &plain.w);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpcc_gate_fires_on_a_corrupted_warehouse() {
        let tm = Rtf::builder().workers(1).build();
        let cfg = TpccConfig {
            scale: TpccScale { warehouses: 1, customers_per_district: 10, items: 64, seed: 1 },
            ..TpccConfig::default()
        };
        let w = cfg.build(&tm, 50);
        let ex = TpccExecutor::new(tm.clone(), w.db.clone(), 1);
        for op in &w.ops {
            run_op(&ex, op);
        }
        assert!(gate_tpcc(&tm, &w.db).is_ok());
        tm.atomic(|tx| {
            let mut wh = w.db.warehouses.get(tx, &0).expect("warehouse 0");
            wh.ytd += 1;
            w.db.warehouses.insert(tx, 0, wh);
        });
        assert!(gate_tpcc(&tm, &w.db).is_err());
    }

    #[test]
    fn read_only_gate_fires_on_a_wrong_checksum() {
        let tm = Rtf::builder().workers(1).build();
        let sa = SyntheticArray::new(SyntheticConfig {
            array_size: 256,
            tx_len: 8,
            iters_between: 1,
            hot_spots: 4,
            hot_writes: 3,
        });
        let kept: Vec<(u64, u64)> =
            (0..8).map(|s| (s, sa.run_read_only(&tm, RO_FUTURES, s))).collect();
        assert!(gate_read_only(&sa, &kept).is_ok());
        let mut bad = kept.clone();
        bad[3].1 ^= 1;
        assert!(gate_read_only(&sa, &bad).is_err());
        assert!(gate_read_only(&sa, &[]).is_err());
    }

    #[test]
    fn synth_gate_holds_on_real_commits_and_fires_on_a_dropped_one() {
        let tm = Rtf::builder().workers(1).build();
        let sa = SyntheticArray::new(SyntheticConfig {
            array_size: 256,
            tx_len: 8,
            iters_between: 1,
            hot_spots: 4,
            hot_writes: 3,
        });
        let before = sa.hot_sum();
        let accs: Vec<u64> =
            (0..20).map(|i| tm.run(sa.contended_body(0, i)).expect("commits")).collect();
        assert!(stats::gate_hot_sum(before, sa.hot_sum(), &accs, 3).is_ok());
        assert!(stats::gate_hot_sum(before, sa.hot_sum(), &accs[1..], 3).is_err());
    }
}
