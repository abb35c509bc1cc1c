//! The serve workload: one `McServer::serve_event` loop over two channel
//! tenants, driven by one load-generator thread that replays recorded
//! device sessions.
//!
//! Set-up records one device session per tenant (compress95 scale 16,
//! 990 B tcache, prefetch depth 2, default link, inputs from `seed` and
//! `seed + 1`) through an in-thread MC, keeping every request and reply
//! payload. The generator replays each session in a loop, one request in
//! flight per tenant and no think time (a closed loop: each device waits
//! for its reply), re-sealing requests with increasing sequence numbers.
//! Every pass ends with the `InvalidateAll` a rebooting device sends, so
//! the tenant's MC forgets its residence mirror and the next pass must
//! reproduce the recording byte for byte — which the generator checks on
//! every reply. No client is simulated in the timed path.

use crate::calib::{self, Calibrator};
use crate::inline::{InlineMc, Session, Traffic};
use crate::stats::{median, us_quantile};
use crate::trace::{self, span, Site};
use crate::{input, solo, timed_setup, Options, Outcome};
use softcache::core::{
    IcacheConfig, Mc, McEndpoint, McServer, Reply, Request, ServeReport, SharedXlate,
    SoftIcacheSystem, XlateStats,
};
use softcache::isa::Image;
use softcache::net::envelope::{open, seal};
use softcache::net::transport::ChannelTransport;
use softcache::net::{policy_pair, LinkPolicy, NetError, ReadySet, Transport};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// compress95 input scale of the recorded sessions.
pub const SCALE: u32 = 16;
/// Device tcache size: the measured cliff, so sessions carry evictions
/// and invalidations as well as fetches.
pub const TCACHE_BYTES: u32 = 990;
/// Speculative-push depth of the recorded devices (batched fetches).
pub const PREFETCH_DEPTH: u32 = 2;
/// Tenant connections, one per recorded session.
pub const TENANTS: u64 = 2;
/// Serving before the window opens (fills the shared translation cache).
pub const WARMUP: Duration = Duration::from_secs(1);
/// Throughput and latency are taken per bin of this length; the metric is
/// the median over bins.
pub const BIN: Duration = Duration::from_secs(1);
/// `McServer`'s session epoch, echoed in every reply envelope.
const EPOCH: u32 = 1;
/// A request unanswered this long counts as not completed.
const STALL: Duration = Duration::from_secs(2);

/// The recorded devices' configuration.
pub fn config() -> IcacheConfig {
    IcacheConfig {
        tcache_size: TCACHE_BYTES,
        prefetch_depth: PREFETCH_DEPTH,
        ..IcacheConfig::default()
    }
}

/// Everything the serve workload needs before timing starts.
pub struct Setup {
    /// The program every tenant serves.
    pub image: Image,
    /// One recorded session per tenant.
    pub sessions: Vec<Arc<Session>>,
    /// Simulated cycles of the recorded softcache runs.
    pub soft_cycles: u64,
    /// Simulated cycles of the same inputs run natively.
    pub native_cycles: u64,
}

impl Setup {
    /// Compile, generate each tenant's input, run it natively, and record
    /// its softcache session.
    pub fn new(seed: u64) -> Setup {
        let image = solo::compress95();
        let mut sessions = Vec::new();
        let (mut soft_cycles, mut native_cycles) = (0, 0);
        for tenant in 0..TENANTS {
            let input = input::text(seed + tenant, SCALE);
            let native = solo::native_run(&image, &input);
            let log = Arc::new(Mutex::new(Session::default()));
            let transport =
                InlineMc::new(Mc::new(image.clone()), Arc::default()).recording(Arc::clone(&log));
            let out = SoftIcacheSystem::with_endpoint(
                image.clone(),
                config(),
                McEndpoint::remote(Box::new(transport)),
            )
            .run(&input)
            .expect("device session records");
            assert_eq!(
                out.output, native.output,
                "recorded session diverged from native"
            );
            let mut session = std::mem::take(&mut *log.lock().expect("session log lock"));
            session.requests.push(Request::InvalidateAll.encode());
            session.replies.push(Reply::Ack.encode());
            sessions.push(Arc::new(session));
            soft_cycles += out.exec.cycles;
            native_cycles += native.exec.cycles;
        }
        Setup {
            image,
            sessions,
            soft_cycles,
            native_cycles,
        }
    }
}

/// A server-end transport that times each request's service, from the
/// `try_recv` that hands the loop a frame to the `send` of its reply.
struct Timed {
    inner: ChannelTransport,
    got: Option<Instant>,
    service_ns: Arc<Mutex<Vec<u64>>>,
}

impl Transport for Timed {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        if let Some(t) = self.got.take() {
            let ns = t.elapsed().as_nanos() as u64;
            self.service_ns.lock().expect("service log lock").push(ns);
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.inner.recv()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let r = self.inner.try_recv();
        if matches!(r, Ok(Some(_))) {
            self.got = Some(Instant::now());
        }
        r
    }

    fn register_ready(&mut self, set: &Arc<ReadySet>, token: usize) -> bool {
        self.inner.register_ready(set, token)
    }
}

/// One tenant's device, as the generator replays it.
struct Client {
    session: Arc<Session>,
    link: ChannelTransport,
    next: usize,
    seq: u32,
    sent: Instant,
    in_flight: bool,
    /// Reply latencies of the current phase, in send order.
    latencies_ns: Vec<u64>,
    /// The server end's service times, in arrival order.
    service_ns: Arc<Mutex<Vec<u64>>>,
}

/// One measured bin of a serving pass.
pub struct Bin {
    /// Replies completed in it.
    pub replies: u64,
    /// Its length, from the first send to the last reply.
    pub secs: f64,
    /// Server busy time: the summed service times.
    pub busy_s: f64,
    /// Median reply latency (send to reply at the generator), µs.
    pub p50_us: f64,
    /// 99th-percentile reply latency, µs.
    pub p99_us: f64,
    /// Median and 99th-percentile service time, µs.
    pub service_us: [f64; 2],
    /// Median and 99th-percentile reply latency minus service time (wake-up
    /// and queueing), µs.
    pub handoff_us: [f64; 2],
    /// Hand-off calibration speed measured right after it.
    pub handoff_krtps: f64,
}

impl Bin {
    /// Replies per second of server busy time, raw or scaled to the
    /// reference hand-off speed.
    pub fn capacity(&self, scaled: bool) -> f64 {
        let busy = if scaled {
            calib::scale_handoff_time(self.busy_s, self.handoff_krtps)
        } else {
            self.busy_s
        };
        self.replies as f64 / busy
    }

    /// Median reply latency in µs, raw or scaled to the reference hand-off
    /// speed.
    pub fn latency_us(&self, scaled: bool) -> f64 {
        if scaled {
            calib::scale_handoff_time(self.p50_us, self.handoff_krtps)
        } else {
            self.p50_us
        }
    }
}

/// What one serving pass measured.
pub struct Pass {
    /// The measured bins, in order.
    pub bins: Vec<Bin>,
    /// Requests sent.
    pub attempted: u64,
    /// Replies that differed from the recording, and requests never
    /// answered.
    pub failed: u64,
    /// Per-tenant serve reports.
    pub reports: Vec<ServeReport>,
}

impl Pass {
    /// The median over bins of `f`.
    pub fn median(&self, f: impl Fn(&Bin) -> f64) -> f64 {
        median(&self.bins.iter().map(f).collect::<Vec<_>>())
    }
}

/// Serve every session for `warmup` and then a `window` measured in bins,
/// from a fresh server whose ends are wrapped in service timers.
pub fn pass(setup: &Setup, warmup: Duration, window: Duration) -> Pass {
    let server = McServer::new(setup.image.clone());
    let policy = LinkPolicy::default();
    let mut server_ends: Vec<Box<dyn Transport>> = Vec::new();
    let mut clients = Vec::new();
    for session in &setup.sessions {
        let (cc_end, mc_end) = policy_pair(&policy);
        let log = Arc::new(Mutex::new(Vec::new()));
        server_ends.push(Box::new(Timed {
            inner: mc_end,
            got: None,
            service_ns: Arc::clone(&log),
        }));
        clients.push(Client {
            session: Arc::clone(session),
            link: cc_end,
            next: 0,
            seq: 0,
            sent: Instant::now(),
            in_flight: false,
            latencies_ns: Vec::new(),
            service_ns: log,
        });
    }
    let server = &server;
    let (reports, mut pass) = std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.serve_event(server_ends));
        // `generate` drops the clients when it returns; the hang-ups end
        // the serve loop.
        let pass = generate(clients, warmup, window);
        (serving.join().expect("server thread panicked"), pass)
    });
    pass.reports = reports;
    pass
}

/// The load generator: a warm-up phase, then one phase per bin. Each phase
/// keeps one request in flight per tenant until its time is up, lets the
/// last requests finish, and then — with the server idle, so no more than
/// two threads are ever busy — collects the phase's service times and
/// measures the hand-off speed ([`calib::handoff_krtps_after`]). Every
/// reply is checked against the recording.
fn generate(mut clients: Vec<Client>, warmup: Duration, window: Duration) -> Pass {
    let window = window.max(Duration::from_millis(1));
    let nbins = ((window.as_secs_f64() / BIN.as_secs_f64()).round() as u32).max(1);
    let mut pass = Pass {
        bins: Vec::new(),
        attempted: 0,
        failed: 0,
        reports: Vec::new(),
    };
    let ready = ReadySet::new();
    for (token, c) in clients.iter_mut().enumerate() {
        assert!(
            c.link.register_ready(&ready, token),
            "channel ends support readiness"
        );
    }
    let phases = std::iter::once(warmup).chain(std::iter::repeat_n(window / nbins, nbins as usize));
    for (i, length) in phases.enumerate() {
        let start = Instant::now();
        if !serve_phase(&mut clients, &ready, start + length, &mut pass) {
            break; // a request went unanswered; it is counted failed
        }
        let secs = start.elapsed().as_secs_f64();
        // Per tenant, the k-th service time belongs to the k-th reply.
        let (mut latency, mut service, mut handoff) = (Vec::new(), Vec::new(), Vec::new());
        for c in &mut clients {
            let svc = std::mem::take(&mut *c.service_ns.lock().expect("service log lock"));
            let lat = std::mem::take(&mut c.latencies_ns);
            handoff.extend(lat.iter().zip(&svc).map(|(l, s)| l.saturating_sub(*s)));
            latency.extend(lat);
            service.extend(svc);
        }
        if i > 0 {
            pass.bins.push(Bin {
                replies: latency.len() as u64,
                secs,
                busy_s: service.iter().sum::<u64>() as f64 / 1e9,
                p50_us: us_quantile(&latency, 0.5),
                p99_us: us_quantile(&latency, 0.99),
                service_us: [us_quantile(&service, 0.5), us_quantile(&service, 0.99)],
                handoff_us: [us_quantile(&handoff, 0.5), us_quantile(&handoff, 0.99)],
                handoff_krtps: calib::handoff_krtps_after(secs),
            });
        }
    }
    pass
}

/// Run the closed loop until `end`, then until nothing is in flight.
/// Returns false (and counts the stragglers failed) when a request goes
/// unanswered for [`STALL`].
fn serve_phase(clients: &mut [Client], ready: &ReadySet, end: Instant, pass: &mut Pass) -> bool {
    for c in clients.iter_mut() {
        send(c, pass);
    }
    let mut progress = Instant::now();
    while clients.iter().any(|c| c.in_flight) {
        if progress.elapsed() >= STALL {
            pass.failed += clients.iter().filter(|c| c.in_flight).count() as u64;
            return false;
        }
        for token in ready.drain_wait(Duration::from_millis(100)) {
            let c = &mut clients[token];
            while let Ok(Some(wire)) = c.link.try_recv() {
                let now = Instant::now();
                progress = now;
                if !c.in_flight {
                    pass.failed += 1; // a reply nobody asked for
                    continue;
                }
                c.in_flight = false;
                c.latencies_ns
                    .push(now.duration_since(c.sent).as_nanos() as u64);
                let want = &c.session.replies[c.next];
                let ok = open(&wire).is_ok_and(|e| {
                    e.seq == c.seq && e.epoch == EPOCH && e.payload == want.as_slice()
                });
                if !ok {
                    pass.failed += 1;
                }
                c.next = (c.next + 1) % c.session.requests.len();
                if now < end {
                    send(c, pass);
                }
            }
        }
    }
    true
}

fn send(c: &mut Client, pass: &mut Pass) {
    c.seq += 1;
    let wire = seal(c.seq, 0, &c.session.requests[c.next]);
    pass.attempted += 1;
    c.sent = Instant::now();
    if c.link.send(wire).is_ok() {
        c.in_flight = true;
    } else {
        pass.failed += 1;
    }
}

/// Replay each session once on this thread through per-tenant MCs that
/// share one translation cache — the server's tenant set-up without its
/// loop or threads — with the envelope and MC calls as spans when this
/// thread is recording.
fn inline_pass(setup: &Setup, out: &mut Outcome) -> (XlateStats, Traffic) {
    let image = Arc::new(setup.image.clone());
    let shared = Arc::new(SharedXlate::default());
    let mut traffic = Traffic::default();
    for session in &setup.sessions {
        let mut mc = Mc::from_shared(Arc::clone(&image));
        mc.set_epoch(EPOCH);
        mc.attach_shared_cache(Arc::clone(&shared));
        for (k, (req, want)) in session.requests.iter().zip(&session.replies).enumerate() {
            let wire = span(Site::Seal, || seal(k as u32 + 1, 0, req));
            let env = span(Site::Open, || open(&wire)).expect("sealed above");
            let reply = span(Site::HandleFrame, || mc.handle_frame(env.payload));
            let back = span(Site::Seal, || seal(env.seq, mc.epoch(), &reply));
            let ok = span(Site::Open, || open(&back)).is_ok_and(|e| e.payload == want.as_slice());
            out.check(ok);
            traffic.frames += 2;
            traffic.wire_bytes += (wire.len() + back.len()) as u64;
            traffic.reply_bytes += reply.len() as u64;
        }
    }
    (shared.stats(), traffic)
}

/// Measure the serve workload.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let mut cal = Calibrator::default();
    let (setup, setup_s, setup_raw_s) = timed_setup(&mut cal, || Setup::new(opts.seed));
    let window = Duration::from_secs_f64(opts.seconds);
    let exchanges: u64 = setup.sessions.iter().map(|s| s.requests.len() as u64).sum();

    let served = pass(&setup, WARMUP, window);
    out.attempted += served.attempted;
    out.failed += served.failed;
    let context = vec![
        ("tenants", TENANTS.into()),
        ("session_exchanges", exchanges.into()),
        ("warmup_s", WARMUP.as_secs_f64().into()),
        ("bins", (served.bins.len() as u64).into()),
        ("requests", served.attempted.into()),
        ("handoff_krtps", served.median(|b| b.handoff_krtps).into()),
        (
            "raw_throughput",
            served.median(|b| b.capacity(false)).into(),
        ),
        (
            "replies_per_s",
            served.median(|b| b.replies as f64 / b.secs).into(),
        ),
        (
            "raw_latency_p50_us",
            served.median(|b| b.latency_us(false)).into(),
        ),
        ("latency_p99_us", served.median(|b| b.p99_us).into()),
        ("raw_setup_s", setup_raw_s.into()),
    ];

    if opts.trace {
        let reports = &served.reports;
        let busy: f64 = served.bins.iter().map(|b| b.busy_s).sum();
        let binned: f64 = served.bins.iter().map(|b| b.secs).sum();
        out.set("server.service.p50_us", served.median(|b| b.service_us[0]));
        out.set("server.service.p99_us", served.median(|b| b.service_us[1]));
        out.set("server.busy_frac", busy / binned);
        out.set("server.handoff.p50_us", served.median(|b| b.handoff_us[0]));
        out.set("server.handoff.p99_us", served.median(|b| b.handoff_us[1]));
        out.set("server.rpc_p99_us", served.median(|b| b.p99_us));
        out.set(
            "server.queue_hwm",
            reports.iter().map(|r| r.queue_hwm).max().unwrap_or(0) as f64,
        );
        out.set(
            "server.lost_wakeups",
            reports.iter().map(|r| r.lost_wakeups).sum::<u64>() as f64,
        );
        out.set(
            "server.admission_rejections",
            reports.iter().map(|r| r.admission_rejections).sum::<u64>() as f64,
        );

        // The inline replay once untimed by spans (the overhead baseline),
        // then traced.
        let plain = Instant::now();
        inline_pass(&setup, &mut out);
        let plain_s = plain.elapsed().as_secs_f64();
        trace::start();
        let (xlate, traffic) = inline_pass(&setup, &mut out);
        let tr = trace::finish();
        out.set(
            "trace.overhead_frac",
            tr.wall_ns as f64 / 1e9 / plain_s - 1.0,
        );
        let frame = tr.site(Site::HandleFrame);
        out.set("mc.handle_frame.self_s", tr.self_s(&[Site::HandleFrame]));
        out.set("mc.handle_frame.count", frame.count as f64);
        out.set(
            "mc.handle_frame.p50_us",
            us_quantile(&frame.durations_ns, 0.5),
        );
        out.set(
            "mc.handle_frame.p99_us",
            us_quantile(&frame.durations_ns, 0.99),
        );
        out.set("mc.reply_bytes", traffic.reply_bytes as f64);
        out.set("net.envelope.self_s", tr.self_s(&[Site::Open, Site::Seal]));
        out.set("net.frames", traffic.frames as f64);
        out.set("net.wire_bytes", traffic.wire_bytes as f64);
        out.set("xlate.hits", xlate.hits as f64);
        out.set("xlate.misses", xlate.misses() as f64);
        out.set(
            "xlate.hit_ratio",
            xlate.hits as f64 / xlate.lookups.max(1) as f64,
        );
        out.set(
            "xlate.unique_translations",
            xlate.unique_translations as f64,
        );
        out.set(
            "xlate.variant_translations",
            xlate.variant_translations as f64,
        );
        out.set("trace.coverage", tr.coverage());
        out.trace = Some(tr);
    } else {
        out.set("throughput", served.median(|b| b.capacity(true)));
        out.set("latency_p50_us", served.median(|b| b.latency_us(true)));
        let slowdown = solo::fixed_input_slowdown(&setup.image, config(), SCALE, &mut out);
        out.set("sim_slowdown", slowdown);
        out.set("setup_s", setup_s);
    }
    out.context = context;
    out.counters = vec![
        ("session.exchanges", exchanges),
        ("session.soft_cycles", setup.soft_cycles),
        ("session.native_cycles", setup.native_cycles),
    ];
    out
}
