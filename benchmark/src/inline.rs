//! An MC that answers on the caller's thread, behind the [`Transport`]
//! trait: `send` opens the request envelope, runs [`Mc::handle_frame`]
//! and seals the reply; `recv` hands the reply back. Plugged into a
//! remote [`softcache::core::McEndpoint`], it lets one thread run the CC
//! and the MC with the envelope and the MC call visible as spans, and
//! lets the serve workload record a device session exchange by exchange.

use crate::trace::{span, Site};
use softcache::core::Mc;
use softcache::net::envelope::{open, seal};
use softcache::net::{NetError, Transport};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Request and reply payloads (inside the envelope) of one session, in
/// exchange order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Session {
    /// Request payloads.
    pub requests: Vec<Vec<u8>>,
    /// The MC's reply payload to each request.
    pub replies: Vec<Vec<u8>>,
}

/// Byte counts of the traffic an [`InlineMc`] carried.
#[derive(Clone, Copy, Debug, Default)]
pub struct Traffic {
    /// Envelopes opened or sealed.
    pub frames: u64,
    /// Wire bytes of those envelopes.
    pub wire_bytes: u64,
    /// Reply payload bytes produced by the MC.
    pub reply_bytes: u64,
}

/// The in-thread MC transport.
pub struct InlineMc {
    mc: Mc,
    replies: VecDeque<Vec<u8>>,
    traffic: Arc<Mutex<Traffic>>,
    log: Option<Arc<Mutex<Session>>>,
}

impl InlineMc {
    /// Serve `mc`; `traffic` accumulates the byte counts.
    pub fn new(mc: Mc, traffic: Arc<Mutex<Traffic>>) -> InlineMc {
        InlineMc {
            mc,
            replies: VecDeque::new(),
            traffic,
            log: None,
        }
    }

    /// Also append every exchange to `log`.
    pub fn recording(mut self, log: Arc<Mutex<Session>>) -> InlineMc {
        self.log = Some(log);
        self
    }
}

impl Transport for InlineMc {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        let env =
            span(Site::Open, || open(&frame)).expect("the endpoint seals every request it sends");
        let reply = span(Site::HandleFrame, || self.mc.handle_frame(env.payload));
        let wire = span(Site::Seal, || seal(env.seq, self.mc.epoch(), &reply));
        {
            let mut t = self.traffic.lock().expect("traffic counter lock");
            t.frames += 2;
            t.wire_bytes += (frame.len() + wire.len()) as u64;
            t.reply_bytes += reply.len() as u64;
        }
        if let Some(log) = &self.log {
            let mut log = log.lock().expect("session log lock");
            log.requests.push(env.payload.to_vec());
            log.replies.push(reply);
        }
        self.replies.push_back(wire);
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.replies.pop_front().ok_or(NetError::Timeout)
    }

    fn pending(&self) -> usize {
        self.replies.len()
    }
}
