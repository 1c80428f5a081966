//! Unreliable transports: UDP datagram sockets and raw IP sockets.
//!
//! Packet loss is an expected behaviour for these protocols, so their
//! receive queues may legally drop data under pressure — but §5 notes one
//! exception a checkpoint must honour: data the application has already
//! *peeked* at is part of the application's observable state and must be
//! restored. The queue therefore tracks a `peeked` flag, and the checkpoint
//! always saves queue contents anyway ("we chose to have our scheme always
//! save the data in the queues, regardless of the protocol in question") to
//! avoid artificial post-restart packet loss.

use std::collections::VecDeque;
use zapc_proto::Endpoint;

/// One received datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sender endpoint.
    pub src: Endpoint,
    /// Payload.
    pub data: Vec<u8>,
}

/// Receive queue shared by UDP and raw-IP sockets.
#[derive(Debug, Clone)]
pub struct DgramQueue {
    queue: VecDeque<Datagram>,
    queued_bytes: usize,
    limit: usize,
    dropped: u64,
    peeked: bool,
}

impl DgramQueue {
    /// Creates a queue bounded by `limit` payload bytes (`SO_RCVBUF`).
    pub fn new(limit: usize) -> Self {
        DgramQueue { queue: VecDeque::new(), queued_bytes: 0, limit, dropped: 0, peeked: false }
    }

    /// Enqueues a datagram; over the limit it is silently dropped
    /// (unreliable-transport semantics). Returns `false` when dropped.
    pub fn push(&mut self, d: Datagram) -> bool {
        if self.queued_bytes + d.data.len() > self.limit {
            self.dropped += 1;
            return false;
        }
        self.queued_bytes += d.data.len();
        self.queue.push_back(d);
        true
    }

    /// Dequeues the oldest datagram.
    pub fn pop(&mut self) -> Option<Datagram> {
        let d = self.queue.pop_front()?;
        self.queued_bytes -= d.data.len();
        Some(d)
    }

    /// Examines the oldest datagram without consuming it (`MSG_PEEK`);
    /// records that the application has observed queue contents.
    pub fn peek(&mut self) -> Option<&Datagram> {
        if self.queue.front().is_some() {
            self.peeked = true;
        }
        self.queue.front()
    }

    /// Number of queued datagrams.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no datagram is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queued payload bytes.
    pub fn bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Datagrams dropped due to the buffer limit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the application has peeked at this queue.
    pub fn was_peeked(&self) -> bool {
        self.peeked
    }

    /// Checkpoint extraction: all queued datagrams plus the peeked flag.
    pub fn snapshot(&self) -> (Vec<Datagram>, bool) {
        (self.queue.iter().cloned().collect(), self.peeked)
    }

    /// Restore path: refills the queue (bypasses the limit — restored data
    /// was already accepted once).
    pub fn restore(&mut self, dgrams: Vec<Datagram>, peeked: bool) {
        for d in dgrams {
            self.queued_bytes += d.data.len();
            self.queue.push_back(d);
        }
        self.peeked = peeked;
    }
}

/// Protocol state of a datagram socket, UDP or raw IP alike: the two differ
/// only in how the stack demultiplexes to them, how `sendto` frames a
/// segment, and whether `connect` is allowed.
#[derive(Debug, Clone)]
pub struct DgramState {
    /// Receive queue.
    pub queue: DgramQueue,
    /// Default peer set by UDP `connect` (filters inbound, allows `send`);
    /// always `None` on a raw socket.
    pub peer: Option<Endpoint>,
    /// IP protocol number a raw socket captures (0 on UDP).
    pub ip_proto: u8,
}

impl DgramState {
    /// Creates datagram state for protocol number `ip_proto` with the given
    /// receive-buffer limit.
    pub fn new(ip_proto: u8, rcv_buf: usize) -> Self {
        DgramState { queue: DgramQueue::new(rcv_buf), peer: None, ip_proto }
    }

    /// Whether an inbound datagram from `src` should be accepted
    /// (connected-UDP filtering).
    pub fn accepts_from(&self, src: Endpoint) -> bool {
        match self.peer {
            Some(p) => p == src,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(h: u8, p: u16) -> Endpoint {
        Endpoint::new(10, 10, 0, h, p)
    }

    fn dg(h: u8, p: u16, data: &[u8]) -> Datagram {
        Datagram { src: ep(h, p), data: data.to_vec() }
    }

    #[test]
    fn fifo_order() {
        let mut q = DgramQueue::new(1024);
        q.push(dg(1, 1, b"first"));
        q.push(dg(1, 1, b"second"));
        assert_eq!(q.pop().unwrap().data, b"first");
        assert_eq!(q.pop().unwrap().data, b"second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_drops_silently() {
        let mut q = DgramQueue::new(10);
        assert!(q.push(dg(1, 1, b"123456")));
        assert!(!q.push(dg(1, 1, b"7890123")), "over limit");
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.push(dg(1, 1, b"7890123")), "room after pop");
    }

    #[test]
    fn peek_sets_flag_without_consuming() {
        let mut q = DgramQueue::new(1024);
        assert!(q.peek().is_none());
        assert!(!q.was_peeked(), "peek of empty queue observes nothing");
        q.push(dg(2, 9, b"data"));
        assert_eq!(q.peek().unwrap().data, b"data");
        assert!(q.was_peeked());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut q = DgramQueue::new(1024);
        q.push(dg(1, 5, b"a"));
        q.push(dg(2, 6, b"bb"));
        q.peek();
        let (snap, peeked) = q.snapshot();
        assert!(peeked);
        let mut fresh = DgramQueue::new(1024);
        fresh.restore(snap.clone(), peeked);
        assert_eq!(fresh.bytes(), 3);
        assert_eq!(fresh.pop().unwrap(), snap[0]);
        assert_eq!(fresh.pop().unwrap(), snap[1]);
        assert!(fresh.was_peeked());
    }

    #[test]
    fn connected_udp_filters() {
        let mut u = DgramState::new(0, 1024);
        assert!(u.accepts_from(ep(3, 3)));
        u.peer = Some(ep(1, 1));
        assert!(u.accepts_from(ep(1, 1)));
        assert!(!u.accepts_from(ep(3, 3)));
    }
}
