//! The CoAP request layer: confirmable delivery with NSTART=1,
//! exponential backoff, and the give-up behaviour the paper observed.
//!
//! §9.4: default CoAP "gives up after just 4 retransmissions; it
//! exponentially increases the wait time between those retransmissions,
//! but then resets its RTO to 3 seconds when giving up and moving to
//! the next packet." We reproduce that literally, with the RTO source
//! pluggable (default BEB or CoCoA), and a non-confirmable mode for
//! the unreliable rows of Table 8.

use crate::cocoa::Cocoa;
use crate::msg::{BlockValue, CoapCode, CoapMessage, CoapOption, MsgType};
use lln_sim::{Duration, Instant, Rng};
use std::collections::VecDeque;

/// RTO algorithm for confirmable exchanges.
#[derive(Clone, Debug)]
pub enum RtoAlgorithm {
    /// RFC 7252 default: ACK_TIMEOUT x random(1, 1.5), doubling.
    Default,
    /// CoCoA (strong/weak estimators, variable backoff).
    Cocoa(Cocoa),
}

/// RFC 7252 §4.8 ACK_TIMEOUT (2 s).
pub const ACK_TIMEOUT: Duration = Duration::from_secs(2);
/// RFC 7252 §4.8 ACK_RANDOM_FACTOR (1.5).
pub const ACK_RANDOM_FACTOR: f64 = 1.5;
/// RFC 7252 §4.8 MAX_RETRANSMIT (4; §9.4).
pub const MAX_RETRANSMIT: u32 = 4;

/// Client configuration.
#[derive(Clone, Debug, Default)]
pub struct CoapClientConfig {
    /// Send non-confirmable messages instead (no reliability).
    pub non_confirmable: bool,
}

#[derive(Clone, Debug)]
struct Outstanding {
    message_id: u16,
    token: u64,
    encoded: Vec<u8>,
    first_sent: Instant,
    timeout: Duration,
    deadline: Instant,
    retransmits: u32,
}

#[derive(Clone, Debug)]
struct QueuedRequest {
    token: u64,
    payload: Vec<u8>,
    block: Option<BlockValue>,
}

/// Statistics for the §9 figures.
#[derive(Clone, Debug, Default)]
pub struct CoapStats {
    /// Messages transmitted (including retransmissions).
    pub msgs_sent: u64,
    /// Retransmissions performed (Figure 9b's CoAP line).
    pub retransmissions: u64,
    /// Exchanges completed (response received).
    pub delivered: u64,
    /// Exchanges abandoned after [`MAX_RETRANSMIT`].
    pub gave_up: u64,
}

/// A sans-IO CoAP client with one outstanding exchange (NSTART=1).
#[derive(Clone, Debug)]
pub struct CoapClient {
    cfg: CoapClientConfig,
    rto: RtoAlgorithm,
    queue: VecDeque<QueuedRequest>,
    outstanding: Option<Outstanding>,
    next_mid: u16,
    next_token: u64,
    /// Queue capacity in requests (the paper's application-layer queue
    /// overflow happens above this layer; this bound is generous).
    pub queue_capacity: usize,
    /// Statistics.
    pub stats: CoapStats,
    uri_path: Vec<Vec<u8>>,
}

impl CoapClient {
    /// Creates a client posting to `path` segments (e.g. `["sensors"]`).
    pub fn new(cfg: CoapClientConfig, rto: RtoAlgorithm, path: &[&str]) -> Self {
        CoapClient {
            cfg,
            rto,
            queue: VecDeque::new(),
            outstanding: None,
            next_mid: 1,
            next_token: 1,
            queue_capacity: 1024,
            stats: CoapStats::default(),
            uri_path: path.iter().map(|s| s.as_bytes().to_vec()).collect(),
        }
    }

    /// Queues a POST carrying `payload`. Returns the exchange token, or
    /// `None` when the queue is full.
    pub fn post(&mut self, payload: Vec<u8>) -> Option<u64> {
        self.enqueue(payload, None)
    }

    /// Queues one block of a blockwise transfer (§9.1's batching: each
    /// block sized like a TCP segment). The "robust" variant the paper
    /// implements: losing one block abandons only that block.
    pub fn post_block(&mut self, payload: Vec<u8>, num: u32, more: bool) -> Option<u64> {
        // szx 5 = 512-byte blocks (closest power of two to 5 frames).
        self.enqueue(payload, Some(BlockValue { num, more, szx: 5 }))
    }

    fn enqueue(&mut self, payload: Vec<u8>, block: Option<BlockValue>) -> Option<u64> {
        if self.queue.len() >= self.queue_capacity {
            return None;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.queue.push_back(QueuedRequest {
            token,
            payload,
            block,
        });
        Some(token)
    }

    /// Requests queued but not yet completed (incl. in flight).
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.outstanding.is_some())
    }

    /// Bytes pinned by retransmit state: the encoded in-flight message
    /// plus every queued payload — what the node memory budget charges
    /// to the CoAP retransmission class.
    pub fn pending_bytes(&self) -> usize {
        let in_flight = self.outstanding.as_ref().map_or(0, |o| o.encoded.len());
        in_flight + self.queue.iter().map(|q| q.payload.len()).sum::<usize>()
    }

    /// True when a response is expected (drives the §9.2 fast-poll
    /// hint for sleepy devices).
    pub fn expecting_response(&self) -> bool {
        self.outstanding.is_some()
    }

    fn initial_timeout(&mut self, rng: &mut Rng) -> Duration {
        match &self.rto {
            RtoAlgorithm::Default => {
                let base = ACK_TIMEOUT.as_secs_f64();
                let f = 1.0 + rng.gen_f64() * (ACK_RANDOM_FACTOR - 1.0);
                Duration::from_secs_f64(base * f)
            }
            RtoAlgorithm::Cocoa(c) => c.rto(),
        }
    }

    /// Produces the next datagram to send (a UDP payload), if any.
    pub fn poll_transmit(&mut self, now: Instant, rng: &mut Rng) -> Option<Vec<u8>> {
        if self.outstanding.is_some() {
            return None; // NSTART = 1
        }
        let req = self.queue.pop_front()?;
        let mid = self.next_mid;
        self.next_mid = self.next_mid.wrapping_add(1);
        let mtype = if self.cfg.non_confirmable {
            MsgType::Non
        } else {
            MsgType::Con
        };
        let mut msg = CoapMessage::new(mtype, CoapCode::POST, mid);
        msg.token = req.token.to_be_bytes().to_vec();
        for seg in &self.uri_path {
            msg.add_option(CoapOption::UriPath, seg.clone());
        }
        if let Some(b) = req.block {
            msg.add_option(CoapOption::Block1, b.encode());
        }
        msg.payload = req.payload;
        let encoded = msg.encode();
        self.stats.msgs_sent += 1;
        if self.cfg.non_confirmable {
            // Fire and forget: the exchange ends here; reliability is
            // measured at the server.
            return Some(encoded);
        }
        let timeout = self.initial_timeout(rng);
        self.outstanding = Some(Outstanding {
            message_id: mid,
            token: req.token,
            encoded: encoded.clone(),
            first_sent: now,
            timeout,
            deadline: now + timeout,
            retransmits: 0,
        });
        Some(encoded)
    }

    /// Earliest timer deadline.
    pub fn poll_at(&self) -> Option<Instant> {
        self.outstanding.as_ref().map(|o| o.deadline)
    }

    /// Fires the retransmission timer.
    pub fn on_timer(&mut self, now: Instant) -> Option<Vec<u8>> {
        let o = self.outstanding.as_mut()?;
        if now < o.deadline {
            return None;
        }
        o.retransmits += 1;
        if o.retransmits > MAX_RETRANSMIT {
            // Give up: drop the exchange, reset the RTO (§9.4). The
            // next exchange draws a fresh 2-3 s initial RTO.
            self.outstanding = None;
            self.stats.gave_up += 1;
            if let RtoAlgorithm::Cocoa(ref mut c) = self.rto {
                c.age();
            }
            return None;
        }
        o.timeout = match &self.rto {
            RtoAlgorithm::Default => o.timeout * 2,
            RtoAlgorithm::Cocoa(c) => c.backoff(o.timeout),
        };
        o.deadline = now + o.timeout;
        self.stats.retransmissions += 1;
        self.stats.msgs_sent += 1;
        Some(o.encoded.clone())
    }

    /// Processes a received datagram (UDP payload).
    pub fn on_datagram(&mut self, bytes: &[u8], now: Instant) {
        let Some(msg) = CoapMessage::decode(bytes) else {
            return;
        };
        let Some(o) = self.outstanding.as_ref() else {
            return;
        };
        let matches = match msg.mtype {
            MsgType::Ack => msg.message_id == o.message_id,
            // Separate response: match by token.
            MsgType::Con | MsgType::Non => msg.token == o.token.to_be_bytes(),
            MsgType::Rst => msg.message_id == o.message_id,
        };
        if !matches {
            return;
        }
        if msg.mtype == MsgType::Rst {
            self.outstanding = None;
            return;
        }
        let rtt = now.saturating_duration_since(o.first_sent);
        let retransmitted = o.retransmits > 0;
        self.outstanding = None;
        self.stats.delivered += 1;
        if let RtoAlgorithm::Cocoa(ref mut c) = self.rto {
            // CoCoA measures from the FIRST transmission — the §9.4
            // ambiguity, faithfully reproduced.
            c.on_exchange_complete(rtt, retransmitted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(99)
    }

    fn client() -> CoapClient {
        CoapClient::new(CoapClientConfig::default(), RtoAlgorithm::Default, &["s"])
    }

    fn ack_for(dg: &[u8]) -> Vec<u8> {
        let req = CoapMessage::decode(dg).unwrap();
        let mut ack = CoapMessage::new(MsgType::Ack, CoapCode::CHANGED, req.message_id);
        ack.token = req.token;
        ack.encode()
    }

    #[test]
    fn nstart_one_exchange_at_a_time() {
        let mut c = client();
        let mut r = rng();
        c.post(vec![1]).unwrap();
        c.post(vec![2]).unwrap();
        let t = Instant::ZERO;
        let first = c.poll_transmit(t, &mut r).expect("first");
        assert!(c.poll_transmit(t, &mut r).is_none(), "NSTART=1");
        c.on_datagram(&ack_for(&first), t);
        assert!(c.poll_transmit(t, &mut r).is_some(), "second after ACK");
        assert_eq!(c.stats.delivered, 1);
    }

    #[test]
    fn initial_timeout_within_rfc_bounds() {
        let mut c = client();
        let mut r = rng();
        for _ in 0..50 {
            c.post(vec![0]).unwrap();
            let t = Instant::ZERO;
            c.poll_transmit(t, &mut r).unwrap();
            let d = c.poll_at().unwrap() - t;
            assert!(d >= Duration::from_secs(2) && d <= Duration::from_secs(3));
            // Complete it to clear.
            let o = c.outstanding.clone().unwrap();
            let mut ack = CoapMessage::new(MsgType::Ack, CoapCode::CHANGED, o.message_id);
            ack.token = o.token.to_be_bytes().to_vec();
            c.on_datagram(&ack.encode(), t);
        }
    }

    #[test]
    fn retransmits_with_doubling_then_gives_up() {
        let mut c = client();
        let mut r = rng();
        c.post(vec![7]).unwrap();
        let mut t = Instant::ZERO;
        c.poll_transmit(t, &mut r).unwrap();
        let mut timeouts = Vec::new();
        for _ in 0..4 {
            let deadline = c.poll_at().unwrap();
            timeouts.push(deadline - t);
            t = deadline;
            assert!(c.on_timer(t).is_some(), "retransmission emitted");
        }
        // Doubling.
        for w in timeouts.windows(2) {
            let ratio = w[1].as_secs_f64() / w[0].as_secs_f64();
            assert!((ratio - 2.0).abs() < 0.01, "BEB ratio {ratio}");
        }
        // Fifth timeout: give up.
        let deadline = c.poll_at().unwrap();
        t = deadline;
        assert!(c.on_timer(t).is_none());
        assert_eq!(c.stats.gave_up, 1);
        assert_eq!(c.backlog(), 0, "the abandoned exchange is dropped");
        assert!(!c.expecting_response());
        assert_eq!(c.stats.retransmissions, 4);
    }

    #[test]
    fn non_confirmable_never_retransmits() {
        let cfg = CoapClientConfig {
            non_confirmable: true,
        };
        let mut c = CoapClient::new(cfg, RtoAlgorithm::Default, &["s"]);
        let mut r = rng();
        c.post(vec![1]).unwrap();
        let dg = c.poll_transmit(Instant::ZERO, &mut r).unwrap();
        let msg = CoapMessage::decode(&dg).unwrap();
        assert_eq!(msg.mtype, MsgType::Non);
        assert!(c.poll_at().is_none(), "no timer for NON");
        assert_eq!(c.backlog(), 0, "a NON exchange ends once sent");
    }

    #[test]
    fn blockwise_options_attached() {
        let mut c = client();
        let mut r = rng();
        c.post_block(vec![0; 100], 2, true).unwrap();
        let dg = c.poll_transmit(Instant::ZERO, &mut r).unwrap();
        let msg = CoapMessage::decode(&dg).unwrap();
        let b = msg.block1().expect("block1");
        assert_eq!(b.num, 2);
        assert!(b.more);
    }

    #[test]
    fn stale_response_ignored() {
        let mut c = client();
        let mut r = rng();
        c.post(vec![1]).unwrap();
        let dg = c.poll_transmit(Instant::ZERO, &mut r).unwrap();
        // ACK with wrong message id: ignored.
        let mut wrong = CoapMessage::new(MsgType::Ack, CoapCode::CHANGED, 9999);
        wrong.token = CoapMessage::decode(&dg).unwrap().token;
        c.on_datagram(&wrong.encode(), Instant::ZERO);
        assert!(c.expecting_response());
    }

    #[test]
    fn cocoa_rto_reacts_to_loss() {
        let mut c = CoapClient::new(
            CoapClientConfig::default(),
            RtoAlgorithm::Cocoa(Cocoa::new()),
            &["s"],
        );
        let mut r = rng();
        let mut t = Instant::ZERO;
        // Several exchanges completing only after one retransmission.
        for _ in 0..8 {
            c.post(vec![0]).unwrap();
            let _dg = c.poll_transmit(t, &mut r).unwrap();
            let deadline = c.poll_at().unwrap();
            t = deadline;
            let redg = c.on_timer(t).expect("rexmit");
            t += Duration::from_millis(300);
            c.on_datagram(&ack_for(&redg), t);
        }
        // Next exchange's initial timeout reflects inflated weak RTTs.
        c.post(vec![0]).unwrap();
        c.poll_transmit(t, &mut r).unwrap();
        let d = c.poll_at().unwrap() - t;
        assert!(
            d > Duration::from_secs(2),
            "CoCoA RTO should inflate under loss, got {d:?}"
        );
    }
}
