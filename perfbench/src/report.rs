//! Metric collection and the result line.

use rtf::{MetricsSnapshot, StatSnapshot};

/// A per-layer metric: `(name, unit, better)`, named after the module
/// that owns it.
pub type Layer = (&'static str, &'static str, &'static str);

/// The per-layer metrics every traced run prints (and `BENCHMARK.json`
/// lists); a layer the workload does not reach reads 0. The end-to-end p99
/// rides here, without a bound: on a 2-vCPU host its spread over ten runs
/// of the same code was 0.3 to 0.45 of its median (retried transactions and
/// hypervisor steal), wider than any bound a regression gate could use.
/// So does `sustained_rps`: the rate ladder runs in the traced run only,
/// and reads 0 on the closed-loop workloads.
pub const LAYERS: &[Layer] = &[
    ("latency_p99_ms", "ms", "lower"),
    ("core.futures_submitted", "count", "higher"),
    ("core.sub_commits", "count", "higher"),
    ("core.sub_validation_aborts", "count", "lower"),
    ("core.continuation_restarts", "count", "lower"),
    ("core.wait_turn_ms", "ms", "lower"),
    ("core.wait_turn_us_p99", "us", "lower"),
    ("core.future_lifetime_us_p50", "us", "lower"),
    ("core.future_lifetime_us_p99", "us", "lower"),
    ("core.ro_validation_skips", "count", "higher"),
    ("mvstm.top_commits", "count", "higher"),
    ("mvstm.top_ro_commits", "count", "higher"),
    ("mvstm.commit_us_p50", "us", "lower"),
    ("mvstm.commit_us_p99", "us", "lower"),
    ("mvstm.helped_writebacks", "count", "higher"),
    ("mvstm.versions_gced", "count", "higher"),
    ("txengine.read_fast", "count", "higher"),
    ("txengine.read_slow", "count", "lower"),
    ("txengine.read_fast_share", "share", "higher"),
    ("txengine.reads_per_commit", "count", "lower"),
    ("txengine.validation_ms", "ms", "lower"),
    ("txengine.validation_us_p99", "us", "lower"),
    ("txengine.top_validation_aborts", "count", "lower"),
    ("txengine.inter_tree_aborts", "count", "lower"),
    ("txengine.execs_per_commit", "count", "lower"),
    ("txengine.orec_snapshot_retries", "count", "lower"),
    ("retry.backoffs", "count", "lower"),
    ("retry.backoff_ms", "ms", "lower"),
    ("retry.exhausted", "count", "lower"),
    ("taskpool.helped_tasks", "count", "higher"),
    ("taskpool.queue_depth_max", "count", "lower"),
    ("txobs.overhead_share", "share", "lower"),
    ("txobs.spans_dropped", "count", "lower"),
    ("failed_share", "share", "lower"),
    // Layers only the serving workloads reach: protocol, admission, the
    // ordered lane, commit lanes and the async wake path.
    ("sustained_rps", "1/s", "higher"),
    ("txserver.protocol.encode_us", "us", "lower"),
    ("txserver.protocol.decode_us", "us", "lower"),
    ("txserver.rtt_us.kv_get", "us", "lower"),
    ("txserver.rtt_us.kv_put", "us", "lower"),
    ("txserver.rtt_us.kv_incr", "us", "lower"),
    ("txserver.rtt_us.kv_cas", "us", "lower"),
    ("txserver.rtt_us.vac_reserve", "us", "lower"),
    ("txserver.rtt_us.vac_bill", "us", "lower"),
    ("txserver.rtt_us.tpcc_payment", "us", "lower"),
    ("txserver.rtt_us.tpcc_stock_level", "us", "lower"),
    ("txserver.admitted", "count", "higher"),
    ("txserver.shed", "count", "lower"),
    ("txserver.failed", "count", "lower"),
    ("txserver.drained", "count", "lower"),
    ("txserver.admit_share", "share", "higher"),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("loadgen.late_ms_max", "ms", "lower"),
    ("ordered.tickets_issued", "count", "higher"),
    ("ordered.commits", "count", "higher"),
    ("ordered.tickets_abandoned", "count", "lower"),
    ("ordered.ticket_wait_ms", "ms", "lower"),
    ("ordered.spurious_wakes", "count", "lower"),
    ("ordered.stalls_detected", "count", "lower"),
    ("ordered.stall_aborts", "count", "lower"),
    ("mvstm.lane_commits", "count", "higher"),
    ("mvstm.lane_fallbacks", "count", "lower"),
    ("mvstm.lane_fast_share", "share", "higher"),
    ("mvstm.lane_helped_draws", "count", "lower"),
    ("taskpool.fence_deferrals", "count", "lower"),
    ("wait.wakers_registered", "count", "lower"),
    ("wait.wakers_fired", "count", "lower"),
    ("wait.async_polls", "count", "lower"),
    ("wait.async_spurious_share", "share", "lower"),
];

/// Per-transaction-kind latencies of `tpcc_futures`.
pub const TPCC_LAYERS: &[Layer] = &[
    ("tpcc.new_order_us_p50", "us", "lower"),
    ("tpcc.new_order_us_p99", "us", "lower"),
    ("tpcc.payment_us_p50", "us", "lower"),
    ("tpcc.order_status_us_p50", "us", "lower"),
    ("tpcc.delivery_us_p50", "us", "lower"),
    ("tpcc.stock_level_us_p50", "us", "lower"),
    ("tpcc.audit_us_p50", "us", "lower"),
    ("tpcc.audit_us_p99", "us", "lower"),
];

/// The per-layer metrics a workload prints besides [`LAYERS`].
pub fn extra_layers(workload: &str) -> &'static [Layer] {
    match workload {
        "tpcc_futures" => TPCC_LAYERS,
        _ => &[],
    }
}

/// The end-to-end metrics an untraced run prints, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The observer's histograms over the window between two snapshots.
pub fn hist_since(after: MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        commit: after.commit.since(&before.commit),
        wait_turn: after.wait_turn.since(&before.wait_turn),
        validation: after.validation.since(&before.validation),
        future_lifetime: after.future_lifetime.since(&before.future_lifetime),
        spans_dropped: after.spans_dropped - before.spans_dropped,
        ..after
    }
}

/// A run's metrics, sample counts and correctness verdict.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    gate_failures: Vec<String>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    pub fn gate(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.gate_failures.push(format!("{what}: {e}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Counters of every runtime layer over a measured window, plus the
    /// observer's histograms when one was attached.
    pub fn runtime_layers(&mut self, d: &StatSnapshot, h: Option<&MetricsSnapshot>) {
        let us = |ns: u64| ns as f64 / 1e3;
        let ms = |ns: u64| ns as f64 / 1e6;
        let c = |v: u64| v as f64;
        self.put("core.futures_submitted", c(d.futures_submitted), "count");
        self.put("core.sub_commits", c(d.sub_commits), "count");
        self.put("core.sub_validation_aborts", c(d.sub_validation_aborts), "count");
        self.put("core.continuation_restarts", c(d.continuation_restarts), "count");
        self.put("core.wait_turn_ms", ms(d.wait_turn_ns), "ms");
        self.put("core.ro_validation_skips", c(d.ro_validation_skips), "count");
        self.put("ordered.tickets_issued", c(d.tickets_issued), "count");
        self.put("ordered.commits", c(d.ordered_commits), "count");
        self.put("ordered.tickets_abandoned", c(d.tickets_abandoned), "count");
        self.put("ordered.ticket_wait_ms", ms(d.ticket_wait_ns), "ms");
        self.put("ordered.spurious_wakes", c(d.ticket_spurious_wakes), "count");
        self.put("ordered.stalls_detected", c(d.stalls_detected), "count");
        self.put("ordered.stall_aborts", c(d.stall_aborts), "count");
        self.put("mvstm.top_commits", c(d.top_commits), "count");
        self.put("mvstm.top_ro_commits", c(d.top_ro_commits), "count");
        self.put("mvstm.helped_writebacks", c(d.helped_writebacks), "count");
        self.put("mvstm.versions_gced", c(d.versions_gced), "count");
        self.put("mvstm.lane_commits", c(d.lane_commits), "count");
        self.put("mvstm.lane_fallbacks", c(d.lane_fallbacks), "count");
        self.put(
            "mvstm.lane_fast_share",
            ratio(d.lane_commits, d.lane_commits + d.lane_fallbacks),
            "share",
        );
        self.put("mvstm.lane_helped_draws", c(d.lane_helped_draws), "count");
        self.put("txengine.read_fast", c(d.read_fast), "count");
        self.put("txengine.read_slow", c(d.read_slow), "count");
        self.put(
            "txengine.read_fast_share",
            ratio(d.read_fast, d.read_fast + d.read_slow),
            "share",
        );
        self.put(
            "txengine.reads_per_commit",
            ratio(d.read_fast + d.read_slow, d.commits()),
            "count",
        );
        self.put("txengine.validation_ms", ms(d.validation_ns), "ms");
        self.put("txengine.top_validation_aborts", c(d.top_validation_aborts), "count");
        self.put("txengine.inter_tree_aborts", c(d.inter_tree_aborts), "count");
        self.put("txengine.execs_per_commit", d.executions_per_commit(), "count");
        self.put("txengine.orec_snapshot_retries", c(d.orec_snapshot_retries), "count");
        self.put("retry.backoffs", c(d.retry_backoffs), "count");
        self.put("retry.backoff_ms", ms(d.retry_backoff_ns), "ms");
        self.put("retry.exhausted", c(d.retries_exhausted), "count");
        self.put("taskpool.helped_tasks", c(d.pool_helped_tasks), "count");
        self.put("taskpool.fence_deferrals", c(d.pool_fence_deferrals), "count");
        self.put("wait.wakers_registered", c(d.wakers_registered), "count");
        self.put("wait.wakers_fired", c(d.wakers_fired), "count");
        self.put("wait.async_polls", c(d.async_polls), "count");
        self.put(
            "wait.async_spurious_share",
            ratio(d.async_spurious_polls, d.async_polls),
            "share",
        );
        self.put("txserver.admitted", c(d.server_admitted), "count");
        self.put("txserver.shed", c(d.server_shed), "count");
        self.put("txserver.failed", c(d.server_failed), "count");
        self.put(
            "txserver.admit_share",
            ratio(d.server_admitted, d.server_admitted + d.server_shed),
            "share",
        );
        if let Some(h) = h {
            self.put("core.wait_turn_us_p99", us(h.wait_turn.p99), "us");
            self.put("core.future_lifetime_us_p50", us(h.future_lifetime.p50), "us");
            self.put("core.future_lifetime_us_p99", us(h.future_lifetime.p99), "us");
            self.put("mvstm.commit_us_p50", us(h.commit.p50), "us");
            self.put("mvstm.commit_us_p99", us(h.commit.p99), "us");
            self.put("txengine.validation_us_p99", us(h.validation.p99), "us");
            self.put("txobs.spans_dropped", c(h.spans_dropped), "count");
        }
    }

    /// Adds a 0 for every per-layer metric the workload did not reach.
    pub fn fill_layers(&mut self, extra: &[Layer]) {
        for &(name, unit, _) in LAYERS.iter().chain(extra) {
            if !self.metrics.iter().any(|m| m.0 == name) {
                self.put(name, 0.0, unit);
            }
        }
    }

    /// Prints every metric with its unit, then the result as the last line
    /// of standard output: with `trace`, the per-layer set plus `extra`;
    /// without, the end-to-end set.
    pub fn print(&self, trace: bool, extra: &[Layer]) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<36} {value:>16.6} {unit}");
        }
        for f in &self.gate_failures {
            println!("GATE FAILED {f}");
        }
        let names: Vec<&str> = if trace {
            LAYERS.iter().chain(extra).map(|l| l.0).collect()
        } else {
            END_TO_END.iter().map(|l| l.0).collect()
        };
        let body: Vec<String> = names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|m| m.0 == *n))
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_this_program_prints() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed = END_TO_END.iter().copied().chain(LAYERS.iter().map(|l| (l.0, l.1)));
        for (name, unit) in listed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _, _) in TPCC_LAYERS {
            assert!(!doc.contains(&format!("\"{name}\"")), "{name} is not on every workload");
        }
        let names = doc.matches("\"name\"").count();
        let workloads = doc.matches("\"why\"").count();
        assert_eq!(names, END_TO_END.len() + LAYERS.len() + workloads, "no extra metrics");
    }

    #[test]
    fn a_traced_result_carries_every_layer_once() {
        let mut r = Report::default();
        r.put("failed_share", 0.5, "share");
        r.fill_layers(TPCC_LAYERS);
        assert_eq!(r.metrics.len(), LAYERS.len() + TPCC_LAYERS.len());
        r.put("failed_share", f64::NAN, "share");
        assert_eq!(r.metrics.iter().filter(|m| m.0 == "failed_share").count(), 1);
        assert_eq!(r.metrics.iter().find(|m| m.0 == "failed_share").map(|m| m.1), Some(0.0));
    }
}
