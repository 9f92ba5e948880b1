//! Open-loop serving workloads (`kv_serve`, `kv_ordered`): an in-process
//! `txserver::Server` driven over one loopback connection by one sender
//! thread and one reader thread.
//!
//! Every request gets a slot in a ring indexed by its `req_id`. The sender
//! stamps the slot's due time (from the fixed schedule) and send times; the
//! reader stamps the reply. Each phase is measured from its slots once its
//! replies are in, so latency is timed from when each request was *due*,
//! and a stalled server charges its delay to every request queued behind
//! it.

use std::io::{self, BufReader, BufWriter, Read};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use rtf::{BackoffConfig, ObsConfig, Rtf, TxObs};
use rtf_txserver::protocol::{read_frame, write_frame, FLAG_ORDERED, MAX_FRAME};
use rtf_txserver::{
    DrainReport, LoadConfig, OpCode, Request, RequestGen, Response, Server, ServerConfig, Status,
};

use crate::cpus;
use crate::report::{hist_since, Report};
use crate::stats::{self, Dist, Latency, Step};
use crate::trace::Spans;
use crate::{median_secs, Args, SETUPS, WARMUP};

/// Fixed offered rate of the measured window, requests/second: about a
/// fifth of what the ladder sustains on a 2-core host, so the window
/// measures latency, not queueing at saturation.
const RATE: f64 = 8_000.0;
/// Offered-rate ladder for `sustained_rps`, requests/second.
const LADDER: &[f64] = &[
    8_000.0, 16_000.0, 24_000.0, 32_000.0, 36_000.0, 40_000.0, 44_000.0, 48_000.0, 52_000.0,
    56_000.0, 60_000.0, 64_000.0,
];
/// Length of one ladder step.
const STEP: Duration = Duration::from_millis(2000);
/// p99 latency limit a ladder step must meet.
const P99_LIMIT_NS: u64 = 10_000_000;
/// Time slice of the sliced latency percentiles (2000 requests at
/// [`RATE`]).
const SLICE: Duration = Duration::from_millis(250);
/// How long a phase waits for its last replies: past the runtime's 5 s
/// stall watchdog, so a wedged request comes back as a typed error.
const GRACE: Duration = Duration::from_secs(6);
/// How long `Server::shutdown` may take: its two drain waits of 5 s each,
/// plus the joins.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(30);

/// Mix operations, in `txserver.rtt_us.<op>` order.
const OPS: [&str; 8] = [
    "kv_get",
    "kv_put",
    "kv_incr",
    "kv_cas",
    "vac_reserve",
    "vac_bill",
    "tpcc_payment",
    "tpcc_stock_level",
];

fn op_index(op: OpCode) -> u32 {
    match op {
        OpCode::KvGet => 0,
        OpCode::KvPut => 1,
        OpCode::KvIncr => 2,
        OpCode::KvCas => 3,
        OpCode::VacReserve => 4,
        OpCode::VacBill => 5,
        OpCode::TpccPayment => 6,
        OpCode::TpccStockLevel => 7,
        // The mix generates neither; counted with KV_GET if it ever does.
        OpCode::KvDel | OpCode::Ping => 0,
    }
}

/// Increment-only keys, disjoint from the mix's `0..4096`: every
/// `CHECK_EVERY`-th request increments one of them, and the run reads
/// them back to catch lost updates.
const CHECK_BASE: u64 = 1 << 40;
const CHECK_KEYS: usize = 16;
const CHECK_EVERY: u64 = 64;

// Slot `meta` layout: the request id in the high 32 bits (so a reused
// slot never matches an old reply), state in bits 0..8, status 8..16, op
// 16..24, check flag bit 24, check key 25..29.
const SENT: u64 = 1;
const REPLIED: u64 = 2;
const CHECK: u64 = 1 << 24;

/// One request's timestamps; slots are reused round-robin by request id.
#[derive(Default)]
struct Slot {
    due_ns: AtomicU64,
    sent_ns: AtomicU64,
    reply_ns: AtomicU64,
    enc_ns: AtomicU32,
    dec_ns: AtomicU32,
    meta: AtomicU64,
}

fn id_bits(id: u64) -> u64 {
    (id & 0xffff_ffff) << 32
}

/// The runtime the `txserver` binary builds (4 workers, 2 commit lanes,
/// 5 s stall watchdog), ordered or not.
fn runtime(ordered: bool, seed: u64, obs: Option<Arc<TxObs>>) -> Rtf {
    let mut b = Rtf::builder()
        .workers(4)
        .max_retries(256)
        .retry_deadline(Duration::from_secs(5))
        .retry_backoff(BackoffConfig {
            base: Duration::from_micros(20),
            cap: Duration::from_millis(2),
            seed,
        })
        .stall_warn(Duration::from_millis(500))
        .stall_abort(Duration::from_secs(5))
        .commit_lanes(2);
    if ordered {
        b = b.ordered(2);
    }
    if let Some(obs) = obs {
        b = b.observer(obs);
    }
    b.build()
}

/// Asks the kernel to wake this thread's sleeps on time: the default 50 µs
/// timer slack would make the generator late by that much on every wake.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) takes one unsigned long argument
    // and only changes the calling thread's timer slack; it touches no
    // memory of this process.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

/// Everything measured over one phase of the schedule.
#[derive(Default)]
struct PhaseStats {
    sent: u64,
    ok: u64,
    shed: u64,
    err: u64,
    lost: u64,
    due_lat: Latency,
    rtt: Vec<Dist>,
    late: Dist,
    enc_ns_mean: f64,
    dec_ns_mean: f64,
    backlog_end: u64,
    goodput: f64,
}

impl PhaseStats {
    fn failed(&self) -> u64 {
        self.shed + self.err + self.lost
    }
}

/// The load generator's connection.
struct Client {
    /// Buffered so `write_frame`'s prefix and payload leave in one write.
    wr: BufWriter<TcpStream>,
    slots: Arc<Vec<Slot>>,
    /// Next request id (ids are never reused; slots are).
    next: u64,
    epoch: Instant,
    unmatched: Arc<AtomicU64>,
    reader: Option<thread::JoinHandle<()>>,
    gen: RequestGen,
    ordered: bool,
    queue_depth_max: usize,
    /// Per check key: increments answered OK, and increments left
    /// unanswered, over every finished phase.
    check_ok: [u64; CHECK_KEYS],
    check_pending: [u64; CHECK_KEYS],
}

impl Client {
    fn connect(addr: SocketAddr, capacity: usize, seed: u64, ordered: bool) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let rd = stream.try_clone()?;
        let slots: Arc<Vec<Slot>> = Arc::new((0..capacity).map(|_| Slot::default()).collect());
        let epoch = Instant::now();
        let unmatched = Arc::new(AtomicU64::new(0));
        let reader = {
            let (slots, unmatched) = (Arc::clone(&slots), Arc::clone(&unmatched));
            thread::Builder::new()
                .name("perfbench-reader".into())
                .spawn(move || reader_loop(rd, &slots, epoch, &unmatched))?
        };
        // The repository's generator: default mix, Zipf 0.99 over 4096 keys.
        let load = LoadConfig { seed, ordered, ..LoadConfig::default() };
        Ok(Client {
            wr: BufWriter::new(stream),
            slots,
            next: 0,
            epoch,
            unmatched,
            reader: Some(reader),
            gen: RequestGen::new(&load, 1),
            ordered,
            queue_depth_max: 0,
            check_ok: [0; CHECK_KEYS],
            check_pending: [0; CHECK_KEYS],
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn slot(&self, id: u64) -> &Slot {
        &self.slots[(id % self.slots.len() as u64) as usize]
    }

    fn next_request(&mut self) -> (Request, u64) {
        let id = self.next;
        if id % CHECK_EVERY == CHECK_EVERY - 1 {
            let k = (id / CHECK_EVERY) % CHECK_KEYS as u64;
            let mut body = (CHECK_BASE + k).to_le_bytes().to_vec();
            body.extend_from_slice(&1u64.to_le_bytes());
            let flags = if self.ordered { FLAG_ORDERED } else { 0 };
            let req = Request { req_id: id, op: OpCode::KvIncr, flags, deadline_ms: 0, body };
            return (req, CHECK | k << 25);
        }
        let mut req = self.gen.next_request();
        req.req_id = id;
        (req, 0)
    }

    /// Sends `rate × dur` requests on a fixed schedule, waits for their
    /// replies (at most [`GRACE`] past the schedule's end), and measures
    /// the phase with latency slices of `slice`. With `spans`, the phase's
    /// requests are also recorded as spans.
    fn run_phase(
        &mut self,
        rate: f64,
        dur: Duration,
        slice: Duration,
        tm: &Rtf,
        spans: Option<&mut Spans>,
    ) -> io::Result<PhaseStats> {
        let n = (rate * dur.as_secs_f64()) as u64;
        assert!(n <= self.slots.len() as u64, "a phase must not wrap the slot ring");
        let lo = self.next;
        let slots = Arc::clone(&self.slots);
        let start = Instant::now();
        for i in 0..n {
            let due = start + Duration::from_nanos((i as f64 * 1e9 / rate) as u64);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let (req, flags) = self.next_request();
            self.next += 1;
            let slot = &slots[(req.req_id % slots.len() as u64) as usize];
            slot.due_ns.store(self.ns(due), Ordering::Relaxed);
            let t0 = Instant::now();
            slot.sent_ns.store(self.ns(t0), Ordering::Relaxed);
            let meta = id_bits(req.req_id) | SENT | (op_index(req.op) as u64) << 16 | flags;
            slot.meta.store(meta, Ordering::Release);
            write_frame(&mut self.wr, &req.encode())?;
            slot.enc_ns.store(t0.elapsed().as_nanos() as u32, Ordering::Relaxed);
            if i % 256 == 0 {
                self.queue_depth_max = self.queue_depth_max.max(tm.pool_queue_depth());
            }
        }
        let end = start + dur;
        if let Some(rest) = end.checked_duration_since(Instant::now()) {
            thread::sleep(rest);
        }
        let give_up = end + GRACE;
        let mut waiting = lo;
        while waiting < self.next && Instant::now() < give_up {
            if self.slot(waiting).meta.load(Ordering::Acquire) & 0xff == REPLIED {
                waiting += 1;
            } else {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let st = self.analyze(lo, self.ns(start), self.ns(end), slice);
        if let Some(spans) = spans {
            self.spans(lo, spans);
        }
        Ok(st)
    }

    /// Measures requests `lo..self.next`, due from `start_ns` to `end_ns`.
    fn analyze(&mut self, lo: u64, start_ns: u64, end_ns: u64, slice: Duration) -> PhaseStats {
        let mut st = PhaseStats { sent: self.next - lo, ..PhaseStats::default() };
        let (mut due_lat, mut late) = (Vec::new(), Vec::new());
        let mut rtt: Vec<Vec<u64>> = vec![Vec::new(); OPS.len()];
        let (mut enc, mut dec) = (0u64, 0u64);
        let mut last_ok = 0;
        for id in lo..self.next {
            let s = self.slot(id);
            let meta = s.meta.load(Ordering::Acquire);
            let (due, sent) = (s.due_ns.load(Ordering::Relaxed), s.sent_ns.load(Ordering::Relaxed));
            let key = (meta >> 25 & 0xf) as usize;
            late.push(sent.saturating_sub(due));
            enc += s.enc_ns.load(Ordering::Relaxed) as u64;
            if meta & 0xff != REPLIED {
                st.lost += 1;
                st.backlog_end += 1;
                if meta & CHECK != 0 {
                    self.check_pending[key] += 1;
                }
                continue;
            }
            let reply = s.reply_ns.load(Ordering::Relaxed);
            dec += s.dec_ns.load(Ordering::Relaxed) as u64;
            if reply > end_ns {
                st.backlog_end += 1;
            }
            match Status::from_u8((meta >> 8 & 0xff) as u8) {
                Some(Status::Ok) => {
                    st.ok += 1;
                    last_ok = last_ok.max(reply);
                    due_lat.push((due - start_ns, reply.saturating_sub(due)));
                    rtt[(meta >> 16 & 0xff) as usize].push(reply.saturating_sub(sent));
                    if meta & CHECK != 0 {
                        self.check_ok[key] += 1;
                    }
                }
                Some(s) if s.is_shed() => st.shed += 1,
                _ => st.err += 1,
            }
        }
        let replied = st.sent - st.lost;
        st.enc_ns_mean = enc as f64 / st.sent.max(1) as f64;
        st.dec_ns_mean = dec as f64 / replied.max(1) as f64;
        st.due_lat = Latency::new(&due_lat, slice.as_nanos() as u64);
        st.late = Dist::merged(vec![late]);
        st.rtt = rtt.into_iter().map(|v| Dist::merged(vec![v])).collect();
        // OK replies per second from the first due time to the last OK
        // reply: a server that keeps up answers the last request just after
        // the schedule ends, one that falls behind stretches the span.
        let span = last_ok.saturating_sub(start_ns).max(1);
        st.goodput = st.ok as f64 / (span as f64 / 1e9);
        st
    }

    /// Records requests `lo..self.next` as spans: per request a root span
    /// from due time to reply, with the generator's lateness, the
    /// client-side frame encode+write, the wait on the server and the frame
    /// decode below it.
    fn spans(&self, lo: u64, spans: &mut Spans) {
        let offset = spans.ns(self.epoch);
        for id in lo..self.next {
            let s = self.slot(id);
            let req = id + 1;
            let due = s.due_ns.load(Ordering::Relaxed) + offset;
            let sent = s.sent_ns.load(Ordering::Relaxed) + offset;
            let written = sent + s.enc_ns.load(Ordering::Relaxed) as u64;
            let replied = s.meta.load(Ordering::Acquire) & 0xff == REPLIED;
            let reply = if replied { s.reply_ns.load(Ordering::Relaxed) + offset } else { written };
            spans.record_ns("request", due, reply, 0, req);
            spans.record_ns("loadgen.late", due, sent, req, req);
            spans.record_ns("txserver.protocol.encode", sent, written, req, req);
            if replied {
                spans.record_ns("txserver.server", written, reply, req, req);
                let dec = reply + s.dec_ns.load(Ordering::Relaxed) as u64;
                spans.record_ns("txserver.protocol.decode", reply, dec, req, req);
            }
        }
    }

    /// Closes the connection; returns the replies that matched no
    /// outstanding request.
    fn close(mut self) -> u64 {
        let _ = self.wr.get_ref().shutdown(Shutdown::Both);
        if let Some(r) = self.reader.take() {
            r.join().expect("reader thread panicked");
        }
        self.unmatched.load(Ordering::Acquire)
    }
}

fn reader_loop(stream: TcpStream, slots: &[Slot], epoch: Instant, unmatched: &AtomicU64) {
    let mut rd = BufReader::with_capacity(1 << 16, stream);
    let mut len = [0u8; 4];
    let mut buf = Vec::new();
    // The length prefix arrives first: time its arrival as the reply time
    // and the payload read plus decode as the client's decode cost.
    while rd.read_exact(&mut len).is_ok() {
        let t0 = Instant::now();
        let n = u32::from_le_bytes(len);
        if n > MAX_FRAME {
            unmatched.fetch_add(1, Ordering::AcqRel);
            return;
        }
        buf.resize(n as usize, 0);
        if rd.read_exact(&mut buf).is_err() {
            return;
        }
        let resp = Response::decode(&buf);
        let dec = t0.elapsed().as_nanos() as u32;
        let Some(resp) = resp else {
            unmatched.fetch_add(1, Ordering::AcqRel);
            continue;
        };
        let slot = &slots[(resp.req_id % slots.len() as u64) as usize];
        let meta = slot.meta.load(Ordering::Acquire);
        // Only a reply to the slot's current, still outstanding request
        // matches; anything else (an unknown id, a duplicate, or a reply to
        // a request already written off as lost) does not.
        if meta >> 32 != resp.req_id & 0xffff_ffff || meta & 0xff != SENT {
            unmatched.fetch_add(1, Ordering::AcqRel);
            continue;
        }
        slot.reply_ns
            .store(t0.saturating_duration_since(epoch).as_nanos() as u64, Ordering::Relaxed);
        slot.dec_ns.store(dec, Ordering::Relaxed);
        let done = (meta & !0xffff) | REPLIED | (resp.status as u64) << 8;
        if slot.meta.compare_exchange(meta, done, Ordering::AcqRel, Ordering::Acquire).is_err() {
            unmatched.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Sends one request on `s` and waits for its reply, which must be OK.
fn call(s: &mut TcpStream, req: &Request) -> io::Result<Response> {
    write_frame(s, &req.encode())?;
    let frame = read_frame(s)?.ok_or(io::ErrorKind::UnexpectedEof)?;
    let resp = Response::decode(&frame).ok_or(io::ErrorKind::InvalidData)?;
    if resp.req_id != req.req_id || resp.status != Status::Ok {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{req:?} -> {resp:?}")));
    }
    Ok(resp)
}

fn connect_blocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(s)
}

/// Reads the check keys back over a fresh connection, one KV_GET at a time.
fn read_back(addr: SocketAddr) -> io::Result<Vec<Option<u64>>> {
    let mut s = connect_blocking(addr)?;
    let mut out = Vec::new();
    for k in 0..CHECK_KEYS as u64 {
        let req = Request {
            req_id: k,
            op: OpCode::KvGet,
            flags: 0,
            deadline_ms: 0,
            body: (CHECK_BASE + k).to_le_bytes().to_vec(),
        };
        let b = call(&mut s, &req)?.body;
        if b.len() < 9 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("read back {b:?}")));
        }
        let value = u64::from_le_bytes(b[1..9].try_into().expect("8 bytes"));
        out.push((b[0] == 1).then_some(value));
    }
    Ok(out)
}

/// Waits until the server answers a PING. The set-up loop does this before
/// it shuts a server down: `Server::shutdown` right after `Server::start`
/// can lose the wake-up of an executor that has not parked yet and then
/// waits for it forever.
fn ping(addr: SocketAddr) -> io::Result<()> {
    let req = Request { req_id: 0, op: OpCode::Ping, flags: 0, deadline_ms: 0, body: Vec::new() };
    call(&mut connect_blocking(addr)?, &req).map(drop)
}

/// `Server::shutdown`, failing the run if it has not returned within
/// [`SHUTDOWN_LIMIT`] instead of hanging past the run's end.
fn shutdown(server: Server) -> io::Result<DrainReport> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || tx.send(server.shutdown()));
    rx.recv_timeout(SHUTDOWN_LIMIT).map_err(|_| {
        let limit = SHUTDOWN_LIMIT.as_secs();
        io::Error::new(io::ErrorKind::TimedOut, format!("Server::shutdown hung for {limit} s"))
    })
}

/// What one server session measured.
struct Session {
    main: PhaseStats,
    steps: Vec<Step>,
    layers: rtf::StatSnapshot,
    hist: Option<rtf::MetricsSnapshot>,
    queue_depth_max: usize,
    drained: u64,
}

/// Starts a server (timed) on a fresh runtime, on every CPU but the first;
/// the calling thread, which goes on to run the load generator, moves to
/// the first (see [`cpus::apart`]).
fn start(ordered: bool, seed: u64, obs: Option<Arc<TxObs>>) -> io::Result<(Server, f64)> {
    let (server, secs) = cpus::apart(|| {
        let t = Instant::now();
        let server = Server::start(runtime(ordered, seed, obs), ServerConfig::default());
        (server, t.elapsed().as_secs_f64())
    });
    Ok((server?, secs))
}

/// Warm-up, the measured fixed-rate window, and optionally the ladder, on
/// one server; then the read-back, the drain and every gate.
fn session(
    server: Server,
    obs: Option<&Arc<TxObs>>,
    args: &Args,
    window: Duration,
    ladder: bool,
    report: &mut Report,
    spans: &mut Spans,
) -> io::Result<Session> {
    let ordered = args.workload == "kv_ordered";
    let tm = server.tm().clone();
    let biggest = LADDER.iter().fold(0.0f64, |a, &r| a.max(r * STEP.as_secs_f64()));
    let capacity = (RATE * window.as_secs_f64()).max(biggest) as usize + 1;
    tight_timer_slack();
    let mut client = Client::connect(server.local_addr(), capacity, args.seed, ordered)?;
    let warm = client.run_phase(RATE, WARMUP, SLICE, &tm, None)?;
    let (before, hbefore) = (tm.stats(), obs.map(|o| o.metrics()));
    let main = client.run_phase(RATE, window, SLICE, &tm, obs.map(|_| &mut *spans))?;
    let layers = tm.stats().since(&before);
    let hist = obs.map(|o| hist_since(o.metrics(), &hbefore.expect("taken with the observer")));
    let mut steps = Vec::new();
    let mut all = vec![warm];
    if ladder {
        'ladder: for &rate in LADDER {
            for _ in 0..stats::ATTEMPTS {
                let st = client.run_phase(rate, STEP, STEP / 4, &tm, None)?;
                let step = Step {
                    rate,
                    sent: st.sent,
                    failed: st.failed(),
                    p99_ns: st.due_lat.p99,
                    backlog_end: st.backlog_end,
                    goodput: st.goodput,
                };
                let pass = stats::step_passes(&step, P99_LIMIT_NS);
                println!(
                    "ladder {rate:>8.0} req/s: goodput {:.0}  sliced p99 {:.3} ms  failed {}  \
                     backlog {}  {}",
                    step.goodput,
                    step.p99_ns as f64 / 1e6,
                    step.failed,
                    step.backlog_end,
                    if pass { "pass" } else { "fail" }
                );
                all.push(st);
                steps.push(step);
                if pass {
                    continue 'ladder;
                }
            }
            break;
        }
    }
    // Counted before reading back: an increment answered OK committed
    // before the read; one never answered may have committed or not.
    let (check_ok, check_pending) = (client.check_ok, client.check_pending);
    let read = read_back(server.local_addr());
    let queue_depth_max = client.queue_depth_max;
    let unmatched = client.close();
    let drain = shutdown(server)?;

    for (i, st) in std::iter::once(&main).chain(&all).enumerate() {
        report.gate(
            &format!("phase {i} accounting"),
            stats::gate_accounting(st.sent, st.ok, st.shed, st.err, st.lost),
        );
    }
    report.gate("reply matching", stats::gate_unmatched(unmatched));
    report.gate(
        "drain reconciled",
        if drain.reconciled { Ok(()) } else { Err(format!("{drain:?}")) },
    );
    match read {
        Ok(got) => report
            .gate("increment read-back", stats::gate_increments(&check_ok, &check_pending, &got)),
        Err(e) => report.gate("increment read-back", Err(e.to_string())),
    }
    Ok(Session { main, steps, layers, hist, queue_depth_max, drained: drain.drained })
}

fn print_phase(label: &str, st: &PhaseStats) {
    println!(
        "{label}: sent {} ok {} shed {} err {} lost {}  goodput {:.1}/s  sliced p50 {:.4} ms \
         p99 {:.4} ms ({} slices, >= {} samples each)  whole p99 {:.4} ms over {} samples  \
         late p50 {:.4} p99 {:.4} ms max {:.4} ms",
        st.sent,
        st.ok,
        st.shed,
        st.err,
        st.lost,
        st.goodput,
        st.due_lat.p50 as f64 / 1e6,
        st.due_lat.p99 as f64 / 1e6,
        st.due_lat.slices,
        st.due_lat.min_slice,
        st.due_lat.whole.p99 as f64 / 1e6,
        st.due_lat.whole.count,
        st.late.p50 as f64 / 1e6,
        st.late.p99 as f64 / 1e6,
        st.late.max as f64 / 1e6,
    );
}

/// Runs a serving workload and fills `report`.
pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) -> io::Result<()> {
    let ordered = args.workload == "kv_ordered";
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(prev) = server.take() {
            shutdown(prev)?;
        }
        let (s, secs) = start(ordered, args.seed, None)?;
        ping(s.local_addr())?;
        setup.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one setup");
    let secs = Duration::from_secs(args.seconds);
    if !args.trace {
        let s = session(server, None, args, secs, false, report, spans)?;
        let st = &s.main;
        print_phase("measured", st);
        report.attempted = st.sent;
        report.failed = st.failed();
        report.put("throughput_ops_s", st.goodput, "1/s");
        report.put("latency_p50_ms", st.due_lat.p50 as f64 / 1e6, "ms");
        report.put("latency_p99_ms", st.due_lat.p99 as f64 / 1e6, "ms");
        report.put("failed_share", st.failed() as f64 / st.sent.max(1) as f64, "share");
        report.put("setup_s", median_secs(setup), "s");
        return Ok(());
    }
    // Traced run: the same window untraced followed by the rate ladder, then
    // the window on a fresh server with the observer attached and the
    // benchmark's spans on.
    let half = secs / 2;
    let plain = session(server, None, args, half, true, report, spans)?;
    print_phase("untraced", &plain.main);
    let obs = TxObs::new(ObsConfig::default());
    let (server, _) = start(ordered, args.seed, Some(Arc::clone(&obs)))?;
    let s = session(server, Some(&obs), args, half, false, report, spans)?;
    let st = &s.main;
    print_phase("traced", st);
    report.attempted = plain.main.sent + st.sent;
    report.failed = plain.main.failed() + st.failed();
    report.runtime_layers(&s.layers, s.hist.as_ref());
    report.put("txserver.protocol.encode_us", st.enc_ns_mean / 1e3, "us");
    report.put("txserver.protocol.decode_us", st.dec_ns_mean / 1e3, "us");
    for (op, d) in OPS.iter().zip(&st.rtt) {
        report.put(&format!("txserver.rtt_us.{op}"), d.p50 as f64 / 1e3, "us");
    }
    report.put("txserver.drained", s.drained as f64, "count");
    report.put("loadgen.late_ms_p99", st.late.p99 as f64 / 1e6, "ms");
    report.put("loadgen.late_ms_max", st.late.max as f64 / 1e6, "ms");
    report.put("taskpool.queue_depth_max", s.queue_depth_max as f64, "count");
    report.put("failed_share", st.failed() as f64 / st.sent.max(1) as f64, "share");
    report.put("latency_p99_ms", st.due_lat.p99 as f64 / 1e6, "ms");
    report.put(
        "txobs.overhead_share",
        st.due_lat.p50 as f64 / plain.main.due_lat.p50.max(1) as f64 - 1.0,
        "share",
    );
    report.put("sustained_rps", stats::sustained(&plain.steps, P99_LIMIT_NS), "1/s");
    Ok(())
}
