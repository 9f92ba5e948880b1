//! Admission control: token bucket, in-flight cap, and the shedding ladder.
//!
//! The controller answers one question per request — *start it, or shed it
//! with which typed status?* — from three inputs:
//!
//! 1. a token bucket bounding the sustained arrival rate (burst-tolerant);
//! 2. a global in-flight cap (admitted-but-unfinished requests);
//! 3. the runtime's own saturation gauges, read through
//!    [`rtf::Rtf::commit_lane_depth`] and [`rtf::Rtf::pool_queue_depth`] —
//!    the same signals the telemetry layer exports.
//!
//! Decisions escalate down a ladder rather than flipping one breaker:
//!
//! * **Rung 0** (normal): admit.
//! * **Rung 1** (pressure — a gauge crossed its *soft* limit): shed
//!   read-only requests ([`Status::ShedReadonly`]); admitted read-write
//!   work keeps the capacity it already claimed.
//! * **Rung 2** (saturated — in-flight cap hit or a gauge crossed its
//!   *hard* limit): shed everything new ([`Status::ShedSaturated`]).
//! * **Draining**: shed everything new ([`Status::ShedDraining`]); rung 3
//!   of the ladder — aborting *stalled admitted* work — belongs to the
//!   runtime's starvation watchdog (`RtfBuilder::stall_abort`), which
//!   surfaces as [`TxError::StallAborted`](rtf::TxError::StallAborted) and
//!   maps to [`Status::ErrStallAborted`].
//!
//! The token bucket refills monotonically off `Instant`; everything here is
//! lock-free except the bucket itself (one `Mutex<f64>` pair — admission is
//! once per request, not per transaction attempt).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::protocol::{OpCode, Status};

/// Tuning knobs of the [`Admission`] controller.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Sustained admission rate, requests/second. `f64::INFINITY` disables
    /// the bucket.
    pub rate: f64,
    /// Bucket capacity (burst size), requests.
    pub burst: f64,
    /// Hard cap on admitted-but-unfinished requests.
    pub max_inflight: usize,
    /// Commit backlog ([`rtf::Rtf::commit_lane_depth`]) at which read-only
    /// shedding starts (rung 1).
    pub soft_lane_depth: u64,
    /// Commit backlog at which everything new is shed (rung 2).
    pub hard_lane_depth: u64,
    /// Pool queue depth at which read-only shedding starts (rung 1).
    pub soft_queue_depth: usize,
    /// Pool queue depth at which everything new is shed (rung 2).
    pub hard_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate: f64::INFINITY,
            burst: 1024.0,
            max_inflight: 256,
            soft_lane_depth: 48,
            hard_lane_depth: 192,
            soft_queue_depth: 256,
            hard_queue_depth: 1024,
        }
    }
}

/// What to do with an arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Start it. The in-flight slot is already claimed; the caller must
    /// pair this with [`Admission::release`] exactly once.
    Admit,
    /// Shed it with this typed status (one of the `Shed*` statuses).
    Shed(Status),
}

struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// The admission controller. One per server; shared by reference across
/// connection readers.
pub struct Admission {
    config: AdmissionConfig,
    bucket: Mutex<Bucket>,
    inflight: AtomicUsize,
    draining: AtomicBool,
}

impl Admission {
    /// A controller with the given knobs, bucket full.
    pub fn new(config: AdmissionConfig) -> Admission {
        let bucket = Mutex::new(Bucket { tokens: config.burst, refilled: Instant::now() });
        Admission {
            config,
            bucket,
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// Flips the controller into drain mode: every subsequent decision is
    /// [`Status::ShedDraining`]. Irreversible.
    pub fn start_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether drain mode is on.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Admitted-but-unfinished requests right now.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Takes one token if available, refilling lazily from elapsed time.
    fn try_take_token(&self) -> bool {
        if self.config.rate.is_infinite() {
            return true;
        }
        let mut b = self.bucket.lock();
        let now = Instant::now();
        let dt = now.duration_since(b.refilled).as_secs_f64();
        b.tokens = (b.tokens + dt * self.config.rate).min(self.config.burst);
        b.refilled = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Decides one arriving request. `lane_depth` / `queue_depth` are the
    /// runtime gauges, sampled by the caller (cheap atomic loads). On
    /// [`Decision::Admit`] the in-flight slot is claimed and must be given
    /// back through [`Admission::release`].
    pub fn decide(&self, op: OpCode, lane_depth: u64, queue_depth: usize) -> Decision {
        if self.draining() {
            return Decision::Shed(Status::ShedDraining);
        }
        // Rung 2: hard saturation — shed everything before spending tokens,
        // so the bucket keeps its burst for when capacity returns.
        if lane_depth >= self.config.hard_lane_depth || queue_depth >= self.config.hard_queue_depth
        {
            return Decision::Shed(Status::ShedSaturated);
        }
        // Rung 1: pressure — push read-only work back to the client.
        if op.is_read_only()
            && (lane_depth >= self.config.soft_lane_depth
                || queue_depth >= self.config.soft_queue_depth)
        {
            return Decision::Shed(Status::ShedReadonly);
        }
        if !self.try_take_token() {
            return Decision::Shed(Status::ShedAdmission);
        }
        // In-flight cap last, with a CAS loop so a burst of readers cannot
        // overshoot the cap between load and store.
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.config.max_inflight {
                return Decision::Shed(Status::ShedSaturated);
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Decision::Admit,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns an admitted request's in-flight slot (completion, drain, or
    /// connection reset — every admitted request releases exactly once).
    pub fn release(&self) {
        let prev = self.inflight.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "release without matching admit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(op: OpCode, a: &Admission) -> Decision {
        a.decide(op, 0, 0)
    }

    #[test]
    fn admits_until_inflight_cap_then_sheds_saturated() {
        let a = Admission::new(AdmissionConfig { max_inflight: 2, ..Default::default() });
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Admit);
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Admit);
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Shed(Status::ShedSaturated));
        a.release();
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Admit);
        assert_eq!(a.inflight(), 2);
    }

    #[test]
    fn token_bucket_sheds_admission_and_refills() {
        let a = Admission::new(AdmissionConfig { rate: 1000.0, burst: 2.0, ..Default::default() });
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Admit);
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Admit);
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Shed(Status::ShedAdmission));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Admit, "bucket refilled");
    }

    #[test]
    fn ladder_rung1_sheds_read_only_first() {
        let a = Admission::new(AdmissionConfig {
            soft_lane_depth: 10,
            hard_lane_depth: 100,
            ..Default::default()
        });
        // Below soft: both admitted.
        assert_eq!(a.decide(OpCode::KvGet, 5, 0), Decision::Admit);
        assert_eq!(a.decide(OpCode::KvPut, 5, 0), Decision::Admit);
        // Between soft and hard: read-only shed, read-write admitted.
        assert_eq!(a.decide(OpCode::KvGet, 50, 0), Decision::Shed(Status::ShedReadonly));
        assert_eq!(a.decide(OpCode::KvPut, 50, 0), Decision::Admit);
        // At hard: everything shed.
        assert_eq!(a.decide(OpCode::KvPut, 100, 0), Decision::Shed(Status::ShedSaturated));
        assert_eq!(a.decide(OpCode::KvGet, 100, 0), Decision::Shed(Status::ShedSaturated));
    }

    #[test]
    fn queue_depth_feeds_the_same_ladder() {
        let a = Admission::new(AdmissionConfig {
            soft_queue_depth: 8,
            hard_queue_depth: 64,
            ..Default::default()
        });
        assert_eq!(a.decide(OpCode::VacBill, 0, 9), Decision::Shed(Status::ShedReadonly));
        assert_eq!(a.decide(OpCode::VacReserve, 0, 9), Decision::Admit);
        assert_eq!(a.decide(OpCode::VacReserve, 0, 64), Decision::Shed(Status::ShedSaturated));
    }

    #[test]
    fn draining_sheds_everything() {
        let a = Admission::new(AdmissionConfig::default());
        a.start_drain();
        assert_eq!(quiet(OpCode::Ping, &a), Decision::Shed(Status::ShedDraining));
        assert_eq!(quiet(OpCode::KvPut, &a), Decision::Shed(Status::ShedDraining));
    }
}
