//! Pure measurement math and correctness gates, kept free of I/O so the
//! unit tests below can drive every rule with hand-made inputs.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of one latency sample set, in nanoseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dist {
    pub count: usize,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
    pub mean: f64,
}

impl Dist {
    /// Summarizes the union of several sources' samples. Percentiles are
    /// taken over the merged set, never combined from per-source
    /// percentiles (the worst source's p99 is not the merged p99).
    pub fn merged(parts: Vec<Vec<u64>>) -> Dist {
        let mut all: Vec<u64> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        Dist::from_sorted(&all)
    }

    /// Summarizes an ascending slice.
    pub fn from_sorted(sorted: &[u64]) -> Dist {
        if sorted.is_empty() {
            return Dist::default();
        }
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        Dist {
            count: sorted.len(),
            p50: percentile(sorted, 50.0),
            p99: percentile(sorted, 99.0),
            max: sorted[sorted.len() - 1],
            mean: sum as f64 / sorted.len() as f64,
        }
    }
}

/// Latency of a window: the whole distribution, plus the median over fixed
/// time slices of each slice's p50 and p99. A host hiccup that spoils one
/// slice's tail does not move the sliced figures; a tail that lasts does.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Latency {
    pub whole: Dist,
    pub p50: u64,
    pub p99: u64,
    pub slices: usize,
    /// Samples in the smallest slice.
    pub min_slice: usize,
}

impl Latency {
    /// `samples` are `(issued_at_ns, latency_ns)`, merged over every
    /// source; slices are `slice_ns` long by issue time.
    pub fn new(samples: &[(u64, u64)], slice_ns: u64) -> Latency {
        let mut by_slice: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for &(at, lat) in samples {
            by_slice.entry(at / slice_ns.max(1)).or_default().push(lat);
        }
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        let mut min_slice = usize::MAX;
        for v in by_slice.values_mut() {
            v.sort_unstable();
            p50s.push(percentile(v, 50.0));
            p99s.push(percentile(v, 99.0));
            min_slice = min_slice.min(v.len());
        }
        p50s.sort_unstable();
        p99s.sort_unstable();
        Latency {
            whole: Dist::merged(vec![samples.iter().map(|s| s.1).collect()]),
            p50: percentile(&p50s, 50.0),
            p99: percentile(&p99s, 50.0),
            slices: by_slice.len(),
            min_slice: if by_slice.is_empty() { 0 } else { min_slice },
        }
    }
}

/// Median over the whole `slice_ns` slices of a `window_ns` window of the
/// events completed per second in each; a stall that freezes a minority of
/// slices does not move it.
pub fn sliced_rate(done_at_ns: &[u64], slice_ns: u64, window_ns: u64) -> f64 {
    let slices = (window_ns / slice_ns.max(1)).max(1) as usize;
    let mut counts = vec![0u64; slices];
    for &t in done_at_ns {
        if let Some(c) = counts.get_mut((t / slice_ns.max(1)) as usize) {
            *c += 1;
        }
    }
    counts.sort_unstable();
    percentile(&counts, 50.0) as f64 / (slice_ns as f64 / 1e9)
}

/// One step of the offered-rate ladder.
#[derive(Clone, Debug, Default)]
pub struct Step {
    /// Offered rate, requests/second.
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests not answered OK (shed, typed error or lost).
    pub failed: u64,
    /// p99 latency from due time, ns, over OK replies.
    pub p99_ns: u64,
    /// Requests still unanswered when the step's schedule ended.
    pub backlog_end: u64,
    /// OK replies per second of the step.
    pub goodput: f64,
}

/// A step passes when every request it sent came back OK, its p99 meets
/// the limit, and the backlog left at its end is no more than the limit's
/// worth of arrivals (Little's law at the limit): a larger backlog is a
/// queue that was still growing.
pub fn step_passes(step: &Step, p99_limit_ns: u64) -> bool {
    let allowed_backlog = (step.rate * p99_limit_ns as f64 / 1e9).max(1.0);
    step.sent > 0
        && step.failed == 0
        && step.p99_ns <= p99_limit_ns
        && step.backlog_end as f64 <= allowed_backlog
}

/// Attempts per ladder rate: a step spoiled by a passing host stall gets
/// one more try before the ladder stops.
pub const ATTEMPTS: usize = 2;

/// The sustained rate of a ladder run. `attempts` lists every step run,
/// in order: each rate is tried up to [`ATTEMPTS`] times until one attempt
/// passes, and the ladder stops at the first rate whose every attempt
/// failed. The result is the goodput of the passing attempt at the highest
/// rate that passed (0 when the first rate fails).
pub fn sustained(attempts: &[Step], p99_limit_ns: u64) -> f64 {
    let mut best = 0.0;
    let mut rest = attempts;
    while let Some(first) = rest.first() {
        let tries = rest.iter().take_while(|s| s.rate == first.rate).take(ATTEMPTS).count();
        match rest[..tries].iter().find(|s| step_passes(s, p99_limit_ns)) {
            Some(s) => best = s.goodput,
            None => break,
        }
        rest = &rest[tries..];
    }
    best
}

/// Contended synthetic: each committed transaction adds `acc | 1` to a hot
/// spot `hot_writes` times, so the hot-spot sum must move by exactly the
/// wrapping sum of those increments.
pub fn gate_hot_sum(before: u64, after: u64, accs: &[u64], hot_writes: u64) -> Result<(), String> {
    let expected =
        accs.iter().fold(before, |sum, &acc| sum.wrapping_add((acc | 1).wrapping_mul(hot_writes)));
    if expected == after {
        Ok(())
    } else {
        Err(format!("hot-spot sum {after} != {expected} expected from {} commits", accs.len()))
    }
}

/// Serving: every request sent is accounted for exactly once.
pub fn gate_accounting(sent: u64, ok: u64, shed: u64, err: u64, lost: u64) -> Result<(), String> {
    if sent == ok + shed + err + lost {
        Ok(())
    } else {
        Err(format!("sent {sent} != ok {ok} + shed {shed} + err {err} + lost {lost}"))
    }
}

/// Serving: every reply matched a request that was still outstanding.
pub fn gate_unmatched(unmatched: u64) -> Result<(), String> {
    if unmatched == 0 {
        Ok(())
    } else {
        Err(format!("{unmatched} replies matched no outstanding request"))
    }
}

/// Serving: each increment-only key reads back at least the increments
/// answered OK (fewer is a lost update) and at most those plus the ones
/// never answered, which may or may not have committed. With every
/// increment answered, the two must be equal. `None` = key absent (0).
pub fn gate_increments(
    ok: &[u64],
    pending: &[u64],
    read_back: &[Option<u64>],
) -> Result<(), String> {
    if ok.len() != read_back.len() || pending.len() != ok.len() {
        return Err(format!("read back {} of {} keys", read_back.len(), ok.len()));
    }
    for (i, ((&lo, &unknown), got)) in ok.iter().zip(pending).zip(read_back).enumerate() {
        let got = got.unwrap_or(0);
        if got < lo || got > lo + unknown {
            return Err(format!(
                "check key {i}: read {got}, {lo} increments answered OK, {unknown} unanswered"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn merged_percentiles_come_from_the_union_not_the_worst_source() {
        // Source a: 100 fast samples and one slow; source b: all medium.
        let mut a = vec![10u64; 100];
        a.push(1000);
        let b = vec![20u64; 99];
        let d = Dist::merged(vec![a.clone(), b]);
        assert_eq!(d.count, 200);
        assert_eq!(d.p50, 10);
        // Merged p99 is rank 198 of 200: a medium sample, while source a's
        // own p99 would be 10 and its max 1000.
        assert_eq!(d.p99, 20);
        assert_eq!(d.max, 1000);
        assert!((d.mean - (100.0 * 10.0 + 1000.0 + 99.0 * 20.0) / 200.0).abs() < 1e-9);
        // A single source merged with nothing is itself.
        let mut sa = a;
        sa.sort_unstable();
        assert_eq!(Dist::merged(vec![sa.clone(), vec![]]), Dist::from_sorted(&sa));
    }

    #[test]
    fn sliced_latency_ignores_one_spoiled_slice_but_not_a_lasting_tail() {
        // Five 1 ms slices of 100 samples each; slice 2 has a 50 µs hiccup.
        let mut v: Vec<(u64, u64)> = Vec::new();
        for slice in 0..5u64 {
            for i in 0..100u64 {
                let lat = if slice == 2 && i >= 90 { 50_000 } else { 1_000 + i };
                v.push((slice * 1_000_000 + i, lat));
            }
        }
        let l = Latency::new(&v, 1_000_000);
        assert_eq!((l.slices, l.min_slice), (5, 100));
        assert_eq!(l.p99, 1_098, "median of the slices' p99");
        assert_eq!(l.p50, 1_049);
        assert_eq!(l.whole.count, 500);
        assert_eq!(l.whole.p99, 50_000, "the whole window still sees the hiccup");
        // The same tail in three of five slices moves the sliced p99.
        for s in &mut v {
            if s.0 / 1_000_000 >= 2 && s.0 % 1_000_000 >= 90 {
                s.1 = 50_000;
            }
        }
        assert_eq!(Latency::new(&v, 1_000_000).p99, 50_000);
        assert_eq!(Latency::new(&[], 1_000_000), Latency::default());
    }

    #[test]
    fn sliced_rate_is_the_median_slice_and_ignores_a_frozen_one() {
        // Four 1 s slices with 10, 12, 0 (frozen) and 11 completions, plus
        // one completion past the window.
        let mut done: Vec<u64> = Vec::new();
        for (slice, n) in [(0u64, 10u64), (1, 12), (2, 0), (3, 11), (4, 5)] {
            done.extend((0..n).map(|i| slice * 1_000_000_000 + i));
        }
        assert_eq!(sliced_rate(&done, 1_000_000_000, 4_000_000_000), 10.0);
        assert_eq!(sliced_rate(&done, 2_000_000_000, 4_000_000_000), 5.5);
        assert_eq!(sliced_rate(&[], 1_000_000_000, 4_000_000_000), 0.0);
    }

    fn step(rate: f64, failed: u64, p99_ms: f64, backlog: u64) -> Step {
        Step {
            rate,
            sent: rate as u64,
            failed,
            p99_ns: (p99_ms * 1e6) as u64,
            backlog_end: backlog,
            goodput: rate - failed as f64 - 0.5,
        }
    }

    #[test]
    fn ladder_step_rule() {
        let limit = 5_000_000; // 5 ms
        assert!(step_passes(&step(10_000.0, 0, 4.9, 3), limit));
        assert!(step_passes(&step(10_000.0, 0, 5.0, 50), limit));
        assert!(!step_passes(&step(10_000.0, 0, 5.1, 3), limit), "p99 over the limit");
        assert!(!step_passes(&step(10_000.0, 1, 1.0, 3), limit), "a failed request");
        assert!(!step_passes(&step(10_000.0, 0, 1.0, 51), limit), "growing backlog");
        assert!(!step_passes(&Step::default(), limit), "nothing sent");
    }

    #[test]
    fn ladder_retries_a_rate_once_and_stops_when_both_tries_fail() {
        let limit = 5_000_000;
        let pass = |rate| step(rate, 0, 1.0, 0);
        let fail = |rate| step(rate, 0, 9.0, 0);
        // A spoiled first try at 16k passes on its retry.
        let retried =
            [pass(8_000.0), fail(16_000.0), pass(16_000.0), fail(24_000.0), fail(24_000.0)];
        assert_eq!(sustained(&retried, limit), 16_000.0 - 0.5);
        // Both tries at 16k fail: the ladder stopped at 8k, whatever follows.
        let stopped = [pass(8_000.0), fail(16_000.0), fail(16_000.0), pass(24_000.0)];
        assert_eq!(sustained(&stopped, limit), 8_000.0 - 0.5);
        // A third try at one rate is never counted.
        let third = [fail(8_000.0), fail(8_000.0), pass(8_000.0)];
        assert_eq!(sustained(&third, limit), 0.0);
        assert_eq!(sustained(&[pass(8_000.0), pass(16_000.0)], limit), 16_000.0 - 0.5);
        assert_eq!(sustained(&[], limit), 0.0);
    }

    #[test]
    fn hot_sum_gate_fires_on_a_lost_or_extra_update() {
        let accs = [3u64, u64::MAX, 40];
        let after = 100u64
            .wrapping_add(3 * 10)
            .wrapping_add(u64::MAX.wrapping_mul(10))
            .wrapping_add(41 * 10);
        assert!(gate_hot_sum(100, after, &accs, 10).is_ok());
        assert!(gate_hot_sum(100, after.wrapping_add(1), &accs, 10).is_err());
        assert!(gate_hot_sum(100, after, &accs[..2], 10).is_err());
    }

    #[test]
    fn accounting_gate_fires_on_a_missing_request() {
        assert!(gate_accounting(10, 6, 2, 1, 1).is_ok());
        assert!(gate_accounting(10, 6, 2, 1, 0).is_err());
        assert!(gate_accounting(10, 7, 2, 1, 1).is_err());
    }

    #[test]
    fn unmatched_gate_fires_on_a_stray_reply() {
        assert!(gate_unmatched(0).is_ok());
        assert!(gate_unmatched(1).is_err());
    }

    #[test]
    fn increment_gate_fires_on_a_lost_update() {
        assert!(gate_increments(&[3, 0, 5], &[0, 0, 0], &[Some(3), None, Some(5)]).is_ok());
        assert!(gate_increments(&[3, 0, 5], &[0, 0, 0], &[Some(3), None, Some(4)]).is_err());
        assert!(gate_increments(&[3, 1], &[0, 0], &[Some(3), None]).is_err());
        assert!(gate_increments(&[3, 1], &[0, 0], &[Some(3)]).is_err());
        // An extra committed increment is only allowed for an unanswered one.
        assert!(gate_increments(&[3], &[0], &[Some(4)]).is_err());
        assert!(gate_increments(&[3], &[2], &[Some(4)]).is_ok());
        assert!(gate_increments(&[3], &[2], &[Some(6)]).is_err());
        assert!(gate_increments(&[3], &[2], &[Some(2)]).is_err());
    }
}
