//! The CC's handle on the memory controller.
//!
//! Two deployment shapes, matching the paper's two prototypes:
//!
//! * **Fused** ([`McEndpoint::Direct`]): MC and CC in one process,
//!   "communication ... is accomplished by jumping back and forth in places
//!   where a real embedded system would have to perform an RPC" (§2.1,
//!   SPARC prototype). Each RPC is a call: the request goes to
//!   [`Mc::handle`] by reference and the [`Reply`] comes straight back.
//!   Byte accounting uses [`Request::encoded_len`] and
//!   [`Reply::encoded_len`], the exact sizes of the frames the remote
//!   path would send, so both shapes account identically without the
//!   fused one building a frame. Debug builds still encode both frames
//!   and assert that the lengths match and that decoding gives back the
//!   same request and reply: the codec round trip is a debug oracle on
//!   every fused RPC, not a cost on every release one.
//! * **Remote** ([`McEndpoint::Remote`]): MC behind a [`Transport`] —
//!   typically a crossbeam channel pair with the MC's serve loop on another
//!   thread (§2.3, ARM prototype: two Skiff boards on Ethernet), or an
//!   [`InThreadMc`] that answers on the caller's thread, so a fault plan
//!   on the link replays without depending on thread timing.
//!
//! The remote path wraps every frame in the session envelope
//! (`seq | epoch | crc32 | payload`, see `softcache_net::envelope`):
//!
//! * CRC failures turn wire corruption into detectable loss — the frame is
//!   dropped and retransmission resolves it, so a faulty link degrades to
//!   latency, never to tcache corruption;
//! * sequence numbers discard stale/duplicated/reordered replies;
//! * the server epoch in every reply makes MC restarts observable: an
//!   epoch change means the MC lost its residence mirror, so the endpoint
//!   adopts the new epoch and surfaces [`CacheError::McRestarted`], which
//!   the CC answers with a full local resync (invalidate + refetch).
//!
//! Retries use the bounded exponential backoff of [`LinkPolicy`], with
//!   deterministic jitter so runs replay identically.

use crate::cc::CacheError;
use crate::mc::Mc;
use crate::protocol::{Reply, Request};
use softcache_net::envelope::{open, seal, EnvelopeError};
use softcache_net::{LinkModel, LinkPolicy, LinkStats, NetError, SessionCounters, Transport};
use std::collections::VecDeque;
use std::time::Duration;

/// Everything one request/reply exchange produced: the reply, the payload
/// sizes for byte accounting, how hard the session layer had to work to
/// get it, and the recovery events it logged along the way.
#[derive(Clone, Debug)]
pub struct RpcOutcome {
    /// The reply.
    pub reply: Reply,
    /// Request payload bytes (excluding the 12-byte envelope, which is
    /// part of the modeled per-message header).
    pub req_bytes: u32,
    /// Reply payload bytes.
    pub rep_bytes: u32,
    /// Wire attempts made (1 = no retransmission).
    pub attempts: u32,
    /// Total backoff wall-time slept between attempts.
    pub backoff: Duration,
    /// Session recovery events observed during this exchange.
    pub session: SessionCounters,
}

impl RpcOutcome {
    fn direct(reply: Reply, req_bytes: u32, rep_bytes: u32) -> RpcOutcome {
        RpcOutcome {
            reply,
            req_bytes,
            rep_bytes,
            attempts: 1,
            backoff: Duration::ZERO,
            session: SessionCounters::default(),
        }
    }

    /// Account this exchange in `link` under `model`: every attempt's
    /// traffic and round trip, the backoff between them, and the session
    /// events it logged. Returns the stall cycles it cost the client.
    pub(crate) fn charge(&self, link: &mut LinkStats, model: &LinkModel) -> u64 {
        let stall = link.record_attempts(
            model,
            self.req_bytes,
            self.rep_bytes,
            self.attempts,
            self.backoff,
        );
        link.session.absorb(&self.session);
        stall
    }
}

/// The CC's connection to the MC.
pub enum McEndpoint {
    /// MC in-process.
    Direct(Box<Mc>),
    /// MC behind a transport.
    Remote {
        /// The link.
        transport: Box<dyn Transport>,
        /// Next sequence number.
        seq: u32,
        /// Retry/backoff policy.
        policy: LinkPolicy,
        /// Last epoch seen from the server (`None` until the handshake).
        epoch: Option<u32>,
    },
}

impl McEndpoint {
    /// Fused MC.
    pub fn direct(mc: Mc) -> McEndpoint {
        McEndpoint::Direct(Box::new(mc))
    }

    /// Remote MC over `transport`, with the default [`LinkPolicy`].
    pub fn remote(transport: Box<dyn Transport>) -> McEndpoint {
        McEndpoint::remote_with_policy(transport, LinkPolicy::default())
    }

    /// Remote MC over `transport` under `policy`.
    pub fn remote_with_policy(transport: Box<dyn Transport>, policy: LinkPolicy) -> McEndpoint {
        McEndpoint::Remote {
            transport,
            seq: 0,
            policy,
            epoch: None,
        }
    }

    /// Replace the retry/backoff policy (no-op for the fused MC).
    pub fn set_policy(&mut self, new: LinkPolicy) {
        if let McEndpoint::Remote { policy, .. } = self {
            *policy = new;
        }
    }

    /// Access the fused MC (None when remote).
    pub fn mc(&self) -> Option<&Mc> {
        match self {
            McEndpoint::Direct(mc) => Some(mc),
            McEndpoint::Remote { .. } => None,
        }
    }

    /// Begin a client session that boots cold. A fused MC restarts its
    /// session ([`Mc::restart_session`]): it forgets the previous run's
    /// residence mirror and data writebacks, without an RPC. A remote
    /// MC's session is its owner's to manage; nothing is sent.
    pub(crate) fn begin_session(&mut self) {
        if let McEndpoint::Direct(mc) = self {
            mc.restart_session();
        }
    }

    /// The server epoch this endpoint last observed (None for the fused
    /// MC or before the first remote exchange).
    pub fn observed_epoch(&self) -> Option<u32> {
        match self {
            McEndpoint::Direct(_) => None,
            McEndpoint::Remote { epoch, .. } => *epoch,
        }
    }

    /// Perform one request/reply exchange.
    ///
    /// On the remote path the first exchange is preceded by a lazy
    /// [`Request::Hello`] handshake to learn the server epoch (the
    /// handshake's payload bytes are not accounted — it happens once per
    /// session — but its recovery events are folded into the outcome). An
    /// epoch change on any later reply surfaces as
    /// [`CacheError::McRestarted`] after the new epoch is adopted, so the
    /// caller can resync and simply retry the same request.
    pub fn rpc(&mut self, req: &Request) -> Result<RpcOutcome, CacheError> {
        match self {
            McEndpoint::Direct(mc) => {
                let reply = mc.handle(req);
                #[cfg(debug_assertions)]
                codec_oracle(req, &reply);
                let (req_bytes, rep_bytes) = (req.encoded_len(), reply.encoded_len());
                Ok(RpcOutcome::direct(
                    reply,
                    req_bytes as u32,
                    rep_bytes as u32,
                ))
            }
            McEndpoint::Remote {
                transport,
                seq,
                policy,
                epoch,
            } => {
                let mut hello_events = SessionCounters::default();
                if epoch.is_none() && !matches!(req, Request::Hello) {
                    let hello =
                        remote_rpc(transport.as_mut(), seq, policy, epoch, &Request::Hello)?;
                    hello_events = hello.session;
                    match hello.reply {
                        Reply::Welcome { epoch: e } => *epoch = Some(e),
                        _ => return Err(CacheError::Proto),
                    }
                }
                let mut out = remote_rpc(transport.as_mut(), seq, policy, epoch, req)?;
                out.session.absorb(&hello_events);
                if matches!(req, Request::Hello) {
                    if let Reply::Welcome { epoch: e } = out.reply {
                        *epoch = Some(e);
                    }
                }
                Ok(out)
            }
        }
    }
}

/// The fused MC's codec check: the frames the remote path would carry for
/// this exchange have the accounted lengths and decode back to the same
/// request and reply.
#[cfg(debug_assertions)]
fn codec_oracle(req: &Request, reply: &Reply) {
    let req_frame = req.encode();
    assert_eq!(req_frame.len(), req.encoded_len(), "{req:?}");
    assert_eq!(Request::decode(&req_frame).as_ref(), Ok(req));
    let rep_frame = reply.encode();
    assert_eq!(rep_frame.len(), reply.encoded_len(), "{reply:?}");
    assert_eq!(Reply::decode(&rep_frame).as_ref(), Ok(reply));
}

/// One enveloped exchange over `transport` with retry, backoff, CRC-drop
/// retransmission, stale-reply discard and epoch-mismatch detection.
fn remote_rpc(
    transport: &mut dyn Transport,
    seq: &mut u32,
    policy: &LinkPolicy,
    epoch: &mut Option<u32>,
    req: &Request,
) -> Result<RpcOutcome, CacheError> {
    *seq += 1;
    let id = *seq;
    let req_frame = req.encode();
    let wire = seal(id, epoch.unwrap_or(0), &req_frame);
    let mut session = SessionCounters::default();
    let mut attempts: u32 = 1;
    let mut backoff = Duration::ZERO;

    // Retransmit the request, bounded by the policy. Returns false once
    // the retry budget is exhausted.
    macro_rules! retransmit {
        () => {{
            attempts += 1;
            if attempts > policy.retries + 1 {
                return Err(CacheError::Net(NetError::Timeout));
            }
            session.retries += 1;
            let wait = policy.backoff_for(id, attempts);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            backoff += wait;
            transport.send(wire.clone()).map_err(CacheError::Net)?;
        }};
    }

    transport.send(wire.clone()).map_err(CacheError::Net)?;
    loop {
        match transport.recv() {
            Ok(frame) => match open(&frame) {
                Ok(env) => {
                    if env.seq != id {
                        // Stale reply from a retransmitted earlier exchange
                        // (or a reordered duplicate): discard and keep
                        // listening.
                        session.reorders_discarded += 1;
                        continue;
                    }
                    if let Some(known) = *epoch {
                        if env.epoch != known {
                            // The MC restarted between our exchanges: its
                            // residence mirror is gone, so every patched
                            // branch the CC holds is now unverifiable.
                            // Adopt the new epoch and let the CC resync.
                            *epoch = Some(env.epoch);
                            return Err(CacheError::McRestarted);
                        }
                    }
                    let reply = Reply::decode(env.payload).map_err(|_| CacheError::Proto)?;
                    return Ok(RpcOutcome {
                        reply,
                        req_bytes: req_frame.len() as u32,
                        rep_bytes: env.payload.len() as u32,
                        attempts,
                        backoff,
                        session,
                    });
                }
                Err(EnvelopeError::Runt) => {
                    session.runt_frames += 1;
                    continue;
                }
                Err(EnvelopeError::BadCrc) => {
                    // Corruption on the wire: the reply is untrustworthy,
                    // so treat it exactly like loss and retransmit.
                    session.crc_drops += 1;
                    retransmit!();
                }
            },
            Err(NetError::Timeout) => {
                session.timeouts += 1;
                retransmit!();
            }
            Err(e) => return Err(CacheError::Net(e)),
        }
    }
}

/// What a serve loop saw before it returned — one per client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests answered.
    pub served: u64,
    /// Frames shorter than the envelope header (dropped).
    pub runt_frames: u64,
    /// Frames dropped for CRC mismatch (the client retransmits).
    pub crc_drops: u64,
    /// Retransmitted requests answered from the reply cache instead of
    /// being re-executed (at-most-once semantics).
    pub dup_requests: u64,
    /// Batched fetches served to this client.
    pub batches: u64,
    /// Block translations this client got from the shared translation
    /// cache (zero without one attached).
    pub shared_hits: u64,
    /// Block translations performed for this client (and admitted to the
    /// shared cache when one is attached).
    pub shared_misses: u64,
    /// Frames shed unprocessed by admission control because the client's
    /// queue exceeded the backlog bound (the retry layer recovers them;
    /// only the event-driven server rejects).
    pub admission_rejections: u64,
    /// Deepest request queue observed for this client (only the
    /// event-driven server measures; the single-tenant [`serve`] loop
    /// leaves it 0).
    pub queue_hwm: u64,
    /// Pending frames found unmarked during an idle sweep of the event
    /// loop and rescued. Always 0 for a transport that honours the
    /// [`softcache_net::Transport::register_ready`] contract; anything
    /// else means its readiness marks are unreliable.
    pub lost_wakeups: u64,
    /// True when the loop ended because the peer disconnected (false when
    /// the request bound was reached).
    pub disconnected: bool,
}

/// Serve up to `max_requests` MC requests over a transport. Corrupt and
/// runt frames are dropped (and counted) — the client's retry layer
/// resolves them. Returns when the bound is hit or the peer disconnects;
/// the crash-restart harness uses the bound as a deterministic crash
/// point.
///
/// Execution is at-most-once per sequence number: the last reply payload
/// is kept, and a retransmission of the same request (the client lost our
/// reply) is answered by resealing it instead of being handled again. The
/// client's exchanges are strictly serial with increasing sequence
/// numbers, so one kept reply suffices. Without this, re-handling a
/// retransmitted `FetchBatch` would record residence-mirror entries for
/// pushed chunks the client never installed.
pub fn serve_bounded(mc: &mut Mc, transport: &mut dyn Transport, max_requests: u64) -> ServeReport {
    let mut report = ServeReport::default();
    let mut last: Option<(u32, Vec<u8>)> = None;
    let before = mc.stats;
    while report.served < max_requests {
        match transport.recv() {
            Ok(frame) => {
                if let Some(wire) = frame_reply(mc, &mut last, &frame, &mut report) {
                    if transport.send(wire).is_err() {
                        report.disconnected = true;
                        break;
                    }
                }
            }
            Err(NetError::Timeout) => continue,
            Err(NetError::Disconnected) => {
                report.disconnected = true;
                break;
            }
        }
    }
    absorb_mc_stats(&mut report, mc, &before);
    report
}

/// Handle one raw wire frame for `mc`: open the envelope, apply the
/// at-most-once duplicate check against `last` (the sequence number and
/// payload of the last reply), execute, seal. A duplicate's reply is
/// resealed from the kept payload — the same bytes, since the sequence
/// number and the epoch are the same — so no reply is copied. Returns
/// the wire bytes to send back (`None` when the frame was dropped or was
/// a stale duplicate needing no reply). Shared by [`serve_bounded`] and
/// the event-driven [`crate::server::McServer`] poll loop so the
/// single-tenant and the multi-client server answer byte-identically.
pub(crate) fn frame_reply(
    mc: &mut Mc,
    last: &mut Option<(u32, Vec<u8>)>,
    frame: &[u8],
    report: &mut ServeReport,
) -> Option<Vec<u8>> {
    match open(frame) {
        Ok(env) => {
            if let Some((seq, rep)) = last {
                if env.seq == *seq {
                    report.dup_requests += 1;
                    return Some(seal(*seq, mc.epoch(), rep));
                }
                if env.seq < *seq {
                    // A late duplicate of an even older exchange: the
                    // client has long moved on.
                    report.dup_requests += 1;
                    return None;
                }
            }
            let rep = mc.handle_frame(env.payload);
            let wire = seal(env.seq, mc.epoch(), &rep);
            *last = Some((env.seq, rep));
            report.served += 1;
            Some(wire)
        }
        Err(EnvelopeError::Runt) => {
            report.runt_frames += 1;
            None
        }
        Err(EnvelopeError::BadCrc) => {
            report.crc_drops += 1;
            None
        }
    }
}

/// Fold the MC-side counters a serve loop moved (relative to the `before`
/// snapshot) into the client's report.
pub(crate) fn absorb_mc_stats(report: &mut ServeReport, mc: &Mc, before: &crate::mc::McStats) {
    report.batches += mc.stats.batches_served - before.batches_served;
    report.shared_hits += mc.stats.shared_hits - before.shared_hits;
    report.shared_misses += mc.stats.shared_misses - before.shared_misses;
}

/// Serve MC requests over a transport until the peer disconnects. Run this
/// on the server thread in the remote configuration.
pub fn serve(mc: &mut Mc, transport: &mut dyn Transport) -> ServeReport {
    serve_bounded(mc, transport, u64::MAX)
}

/// An MC served on the caller's thread, as the CC's end of the link:
/// `send` answers the request frame at once through the step
/// [`serve_bounded`] runs (open the envelope, suppress duplicates,
/// handle, seal), and `recv` hands back the oldest queued reply, or times
/// out at once when there is none. Its replies are byte-identical to a
/// [`serve_bounded`] loop's, and nothing waits on another thread, so a
/// run over it, under a `FaultyTransport` plan too, is a pure function
/// of its inputs.
pub struct InThreadMc {
    mc: Mc,
    /// Sequence number and payload of the last reply (see `frame_reply`).
    last: Option<(u32, Vec<u8>)>,
    replies: VecDeque<Vec<u8>>,
    /// This MC life's serve report.
    report: ServeReport,
    /// Requests served per life before a crash.
    bound: u64,
    /// Crash-restarts left.
    crashes: u32,
}

impl InThreadMc {
    /// Serve `mc` for as long as the link lives.
    pub fn new(mc: Mc) -> InThreadMc {
        InThreadMc::crashing(mc, u64::MAX, 0)
    }

    /// Serve `mc` under the crash-restart schedule a caller of
    /// [`serve_bounded`] drives: after every `bound` served requests the
    /// MC crashes and comes back as a fresh MC with the next epoch,
    /// `crashes` times, then stays up.
    pub fn crashing(mc: Mc, bound: u64, crashes: u32) -> InThreadMc {
        InThreadMc {
            mc,
            last: None,
            replies: VecDeque::new(),
            report: ServeReport::default(),
            bound,
            crashes,
        }
    }
}

impl Transport for InThreadMc {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        if let Some(wire) = frame_reply(&mut self.mc, &mut self.last, &frame, &mut self.report) {
            self.replies.push_back(wire);
        }
        if self.crashes > 0 && self.report.served == self.bound {
            // A restarted MC answers as a fresh one: no residence mirror,
            // initial data, no kept reply, and an epoch the CC has not
            // seen.
            self.crashes -= 1;
            self.mc.restart_session();
            self.mc.set_epoch(self.mc.epoch() + 1);
            self.last = None;
            self.report = ServeReport::default();
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.replies.pop_front().ok_or(NetError::Timeout)
    }

    fn pending(&self) -> usize {
        self.replies.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcache_asm::assemble;
    use softcache_isa::layout::TEXT_BASE;
    use softcache_net::{thread_pair, FaultPlan, FaultyTransport};
    use std::time::Duration;

    fn test_mc() -> Mc {
        Mc::new(assemble("_start: nop\n halt").unwrap())
    }

    #[test]
    fn direct_rpc() {
        let mut ep = McEndpoint::direct(test_mc());
        let out = ep
            .rpc(&Request::FetchBlock {
                orig_pc: TEXT_BASE,
                dest: 0x40_0000,
            })
            .unwrap();
        assert!(matches!(out.reply, Reply::Chunk(_)));
        assert!(out.req_bytes > 0 && out.rep_bytes > 0);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.session.events(), 0);
    }

    #[test]
    fn remote_rpc_over_threads() {
        let (cc_t, mut mc_t) = thread_pair(Duration::from_millis(100));
        let server = std::thread::spawn(move || {
            let mut mc = test_mc();
            serve(&mut mc, &mut mc_t);
        });
        let mut ep = McEndpoint::remote(Box::new(cc_t));
        for _ in 0..3 {
            let out = ep
                .rpc(&Request::FetchBlock {
                    orig_pc: TEXT_BASE,
                    dest: 0x40_0000,
                })
                .unwrap();
            assert!(matches!(out.reply, Reply::Chunk(_)));
        }
        assert_eq!(ep.observed_epoch(), Some(1), "handshake learned the epoch");
        drop(ep);
        server.join().unwrap();
    }

    #[test]
    fn lossy_link_recovers_via_retry() {
        // Drop and duplicate 30 % of the frames each way: the RPC layer
        // must still complete every exchange, in order.
        let plan = FaultPlan {
            drop_per_mille: 300,
            dup_per_mille: 300,
            ..FaultPlan::clean(7)
        };
        let lossy = FaultyTransport::new(InThreadMc::new(test_mc()), plan);
        let counters = lossy.counters();
        let mut ep = McEndpoint::remote_with_policy(Box::new(lossy), LinkPolicy::eager(16));
        let mut events = 0;
        for i in 0..8 {
            let out = ep
                .rpc(&Request::FetchBlock {
                    orig_pc: TEXT_BASE,
                    dest: 0x40_0000 + i * 16,
                })
                .unwrap_or_else(|e| panic!("rpc {i}: {e}"));
            assert!(matches!(out.reply, Reply::Chunk(_)), "rpc {i}");
            events += out.session.events();
        }
        let injected = *counters.lock().unwrap();
        assert!(
            injected.dropped > 0 && injected.duplicated > 0,
            "{injected:?}"
        );
        assert!(events > 0, "drops must be visible as recovery events");
    }

    #[test]
    fn in_thread_mc_answers_byte_identically_to_serve_bounded() {
        // One request stream holding every kind of frame `frame_reply`
        // tells apart.
        let fetch = |dest: u32| {
            Request::FetchBlock {
                orig_pc: TEXT_BASE,
                dest,
            }
            .encode()
        };
        let mut corrupt = seal(3, 0, &fetch(0x40_0020));
        *corrupt.last_mut().unwrap() ^= 1;
        let stream = vec![
            seal(1, 0, &fetch(0x40_0000)),
            seal(1, 0, &fetch(0x40_0000)), // retransmitted: resealed reply
            seal(2, 0, &fetch(0x40_0010)),
            seal(1, 0, &fetch(0x40_0000)), // stale older duplicate: no reply
            corrupt,                       // CRC drop: no reply
            vec![0; 4],                    // runt: no reply
            seal(3, 0, &fetch(0x40_0020)),
        ];

        let (mut cc_t, mut mc_t) = thread_pair(Duration::from_secs(5));
        let server = std::thread::spawn(move || {
            let mut mc = test_mc();
            serve_bounded(&mut mc, &mut mc_t, u64::MAX)
        });
        for frame in &stream {
            cc_t.send(frame.clone()).unwrap();
        }
        let threaded: Vec<Vec<u8>> = (0..4).map(|_| cc_t.recv().unwrap()).collect();
        drop(cc_t);
        let report = server.join().unwrap();
        assert_eq!(report.served, 3);
        assert_eq!(report.dup_requests, 2);
        assert_eq!((report.crc_drops, report.runt_frames), (1, 1));

        let mut in_thread = InThreadMc::new(test_mc());
        for frame in stream {
            in_thread.send(frame).unwrap();
        }
        let replies: Vec<Vec<u8>> = std::iter::from_fn(|| in_thread.recv().ok()).collect();
        assert_eq!(replies, threaded);
    }

    #[test]
    fn corrupted_replies_are_dropped_and_retried() {
        let (cc_t, mut mc_t) = thread_pair(Duration::from_millis(50));
        let server = std::thread::spawn(move || {
            let mut mc = test_mc();
            serve(&mut mc, &mut mc_t)
        });
        let plan = FaultPlan {
            corrupt_per_mille: 300,
            ..FaultPlan::clean(11)
        };
        let faulty = FaultyTransport::new(cc_t, plan);
        let counters = faulty.counters();
        let mut ep = McEndpoint::remote_with_policy(Box::new(faulty), LinkPolicy::eager(64));
        let mut drops = 0;
        for i in 0..20 {
            let out = ep
                .rpc(&Request::FetchBlock {
                    orig_pc: TEXT_BASE,
                    dest: 0x40_0000 + i * 16,
                })
                .unwrap_or_else(|e| panic!("rpc {i}: {e}"));
            assert!(matches!(out.reply, Reply::Chunk(_)), "rpc {i}");
            drops += out.session.crc_drops;
        }
        let injected = counters.lock().unwrap().corrupted;
        assert!(injected > 0, "the plan must actually corrupt frames");
        assert!(drops > 0, "client-side CRC must catch reply corruption");
        drop(ep);
        let report = server.join().unwrap();
        // Requests corrupted on the way out are dropped server-side.
        assert!(report.served > 0);
    }

    #[test]
    fn epoch_change_surfaces_as_restart() {
        let (cc_t, mut mc_t) = thread_pair(Duration::from_millis(100));
        let server = std::thread::spawn(move || {
            // Serve the hello + one fetch in epoch 1, then "crash" and come
            // back as a fresh MC in epoch 2.
            let mut mc = test_mc();
            serve_bounded(&mut mc, &mut mc_t, 2);
            let mut mc = test_mc();
            mc.set_epoch(2);
            serve(&mut mc, &mut mc_t);
        });
        let mut ep = McEndpoint::remote(Box::new(cc_t));
        let req = Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        };
        ep.rpc(&req).unwrap();
        assert_eq!(ep.observed_epoch(), Some(1));
        let err = ep.rpc(&req).unwrap_err();
        assert!(matches!(err, CacheError::McRestarted), "{err}");
        assert_eq!(ep.observed_epoch(), Some(2), "new epoch adopted");
        // After the (caller-driven) resync, the same request just works.
        let out = ep.rpc(&req).unwrap();
        assert!(matches!(out.reply, Reply::Chunk(_)));
        drop(ep);
        server.join().unwrap();
    }

    #[test]
    fn duplicate_requests_answered_from_reply_cache() {
        let (mut cc_t, mut mc_t) = thread_pair(Duration::from_millis(100));
        let server = std::thread::spawn(move || {
            let mut mc = test_mc();
            let report = serve_bounded(&mut mc, &mut mc_t, 2);
            (report, mc.stats.blocks_served)
        });
        let req = Request::FetchBlock {
            orig_pc: TEXT_BASE,
            dest: 0x40_0000,
        }
        .encode();
        cc_t.send(seal(1, 0, &req)).unwrap();
        cc_t.send(seal(1, 0, &req)).unwrap(); // retransmitted exchange
        cc_t.send(seal(2, 0, &req)).unwrap();
        let r1 = cc_t.recv().unwrap();
        let r2 = cc_t.recv().unwrap();
        let r3 = cc_t.recv().unwrap();
        assert_eq!(r1, r2, "cached reply resent byte-identically");
        assert_ne!(r1, r3, "a new exchange gets a fresh reply");
        let (report, blocks_served) = server.join().unwrap();
        assert_eq!(report.served, 2);
        assert_eq!(report.dup_requests, 1);
        assert_eq!(blocks_served, 2, "the duplicate was not re-executed");
    }

    #[test]
    fn dead_server_times_out() {
        let (cc_t, mc_t) = thread_pair(Duration::from_millis(10));
        drop(mc_t);
        let mut ep = McEndpoint::remote_with_policy(Box::new(cc_t), LinkPolicy::eager(3));
        let err = ep.rpc(&Request::InvalidateAll).unwrap_err();
        assert!(matches!(err, CacheError::Net(_)));
    }
}
