//! The `WsThread` per-destination drain (paper §4.2, Figure 3) as a
//! sans-IO state machine — no sockets, no clock, no threads — that both
//! runtimes' MSG-Dispatchers drive.
//!
//! A [`WsDrain`] is one destination's queue, kept-open connection,
//! failed attempts, write batch, and written messages awaiting responses
//! in order. A lost connection's unanswered messages are written again,
//! so every connection starts with nothing outstanding; an answered one
//! never is.

use std::collections::vec_deque::{self, VecDeque};

/// Envelopes one connection visit coalesces into a single write.
pub const DRAIN_BATCH: usize = 16;

/// Failed attempts in a row (refused connects, connections lost with work
/// unanswered) before a destination's queue is dropped; answers reset it.
pub const CONNECT_ATTEMPTS: u32 = 2;

/// Backoff after a refused connect, µs, through which the `WsThread` holds
/// its slot (§4.4's hold/retry) — the held slot behind Figure 6's middle curve.
pub const RETRY_BACKOFF_US: u64 = 500_000;

#[derive(Debug)]
enum Conn<C> {
    Idle,
    Connecting,
    Ready(C),
    Backoff,
}

/// What the destination needs from its runtime next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Open a connection and report how it went.
    Connect,
    /// Write [`WsDrain::write_batch`] on the ready connection.
    Write,
    /// Attempts are exhausted: drop the queue with [`WsDrain::give_up`].
    GiveUp,
    /// Nothing to do until an input: the queue is empty (the runtime's
    /// linger policy applies) or a connect or backoff is pending.
    Idle,
}

/// One destination's `WsThread` state; `M` is the runtime's queued
/// message, `C` its connection handle.
#[derive(Debug)]
pub struct WsDrain<M, C> {
    queue: VecDeque<M>,
    capacity: usize,
    conn: Conn<C>,
    attempts: u32,
    /// Written, awaiting responses in order.
    outstanding: VecDeque<M>,
    /// Head-of-queue messages written once before a lost connection.
    rewrites: usize,
    /// Length of the batch handed out by `write_batch`.
    batch: usize,
}

impl<M, C> WsDrain<M, C> {
    /// An idle destination queueing at most `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        WsDrain {
            queue: VecDeque::new(),
            capacity,
            conn: Conn::Idle,
            attempts: 0,
            outstanding: VecDeque::new(),
            rewrites: 0,
            batch: 0,
        }
    }

    /// Messages queued, not yet written.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Messages written, not yet answered.
    pub fn awaiting(&self) -> usize {
        self.outstanding.len()
    }

    /// Queues `msg`, or hands it back when the queue is full.
    pub fn push(&mut self, msg: M) -> Result<&M, M> {
        if self.queue.len() >= self.capacity {
            return Err(msg);
        }
        self.queue.push_back(msg);
        Ok(&self.queue[self.queue.len() - 1])
    }

    /// The next thing to do; [`Next::Connect`] comes once per attempt.
    pub fn next_step(&mut self) -> Next {
        if self.queue.is_empty() {
            return Next::Idle;
        }
        match self.conn {
            Conn::Idle if self.attempts >= CONNECT_ATTEMPTS => Next::GiveUp,
            Conn::Idle => {
                self.conn = Conn::Connecting;
                Next::Connect
            }
            Conn::Ready(_) => Next::Write,
            Conn::Connecting | Conn::Backoff => Next::Idle,
        }
    }

    /// The connect succeeded.
    pub fn connected(&mut self, conn: C) {
        self.conn = Conn::Ready(conn);
    }

    /// The connect failed: hold the slot for the returned backoff (µs),
    /// then [`backoff_elapsed`](Self::backoff_elapsed); `None` gives up.
    pub fn connect_failed(&mut self) -> Option<u64> {
        self.attempts += 1;
        if self.attempts >= CONNECT_ATTEMPTS {
            self.conn = Conn::Idle;
            return None;
        }
        self.conn = Conn::Backoff;
        Some(RETRY_BACKOFF_US)
    }

    /// The backoff timer fired: the next step connects again.
    pub fn backoff_elapsed(&mut self) {
        if matches!(self.conn, Conn::Backoff) {
            self.conn = Conn::Idle;
        }
    }

    /// Drops every queued message (each yielded one is the caller's to
    /// account) and resets the connection state.
    pub fn give_up(&mut self) -> vec_deque::Drain<'_, M> {
        self.conn = Conn::Idle;
        self.attempts = 0;
        self.rewrites = 0;
        self.queue.drain(..)
    }

    /// The ready connection and the next batch to write on it; report
    /// [`written`](Self::written) or [`conn_lost`](Self::conn_lost).
    pub fn write_batch(&mut self) -> Option<(&mut C, vec_deque::Iter<'_, M>)> {
        let Conn::Ready(conn) = &mut self.conn else {
            return None;
        };
        self.batch = self.queue.len().min(DRAIN_BATCH);
        (self.batch > 0).then(|| (conn, self.queue.range(..self.batch)))
    }

    /// The ready connection, to read responses on.
    pub fn connection(&mut self) -> Option<&mut C> {
        match &mut self.conn {
            Conn::Ready(conn) => Some(conn),
            _ => None,
        }
    }

    /// The batch reached the connection and awaits its responses.
    /// Returns how many of it are first-time deliveries.
    pub fn written(&mut self) -> usize {
        let n = std::mem::take(&mut self.batch);
        let rewritten = self.rewrites.min(n);
        self.rewrites -= rewritten;
        self.outstanding.extend(self.queue.drain(..n));
        n - rewritten
    }

    /// The oldest outstanding message was answered with `status`. A `200`
    /// is an RPC-style service answering synchronously: the message comes
    /// back so its reply can be translated and correlated to it (Table 1
    /// quadrant 3).
    pub fn answered(&mut self, status: u16) -> Option<M> {
        let msg = self.outstanding.pop_front()?;
        self.attempts = 0;
        (status == 200).then_some(msg)
    }

    /// A write failed or the connection dropped: unanswered messages go
    /// back to the queue's head and the next step reconnects at once.
    pub fn conn_lost(&mut self) {
        if self.batch > 0 || !self.outstanding.is_empty() {
            self.attempts += 1;
        }
        self.conn = Conn::Idle;
        self.batch = 0;
        self.rewrites += self.outstanding.len();
        while let Some(msg) = self.outstanding.pop_back() {
            self.queue.push_front(msg);
        }
    }

    /// Takes an idle ready connection to close it by choice (a linger
    /// expired); what is still unanswered on it counts as delivered.
    pub fn close(&mut self) -> Option<C> {
        if !self.queue.is_empty() {
            return None; // (so the connection is idle or ready)
        }
        self.outstanding.clear();
        match std::mem::replace(&mut self.conn, Conn::Idle) {
            Conn::Ready(conn) => Some(conn),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Drain = WsDrain<u32, &'static str>;

    fn ready(msgs: impl IntoIterator<Item = u32>) -> Drain {
        let mut d = Drain::new(usize::MAX);
        for m in msgs {
            d.push(m).unwrap();
        }
        assert_eq!(d.next_step(), Next::Connect);
        d.connected("conn");
        d
    }

    fn write(d: &mut Drain) -> Vec<u32> {
        assert_eq!(d.next_step(), Next::Write);
        let (_, batch) = d.write_batch().unwrap();
        batch.copied().collect()
    }

    #[test]
    fn batches_are_capped_and_fifo() {
        let mut d = ready(0..40);
        let first = write(&mut d);
        assert_eq!(first, (0..16).collect::<Vec<_>>());
        assert_eq!(d.written(), 16);
        assert_eq!(write(&mut d), (16..32).collect::<Vec<_>>());
        assert_eq!(d.written(), 16);
        assert_eq!(write(&mut d), (32..40).collect::<Vec<_>>());
        assert_eq!(d.written(), 8);
        assert_eq!(d.next_step(), Next::Idle);
        assert_eq!(d.awaiting(), 40);
    }

    #[test]
    fn overflow_hands_the_message_back() {
        let mut d = Drain::new(2);
        d.push(1).unwrap();
        d.push(2).unwrap();
        assert_eq!(d.push(3), Err(3));
        assert_eq!(d.queued(), 2);
    }

    #[test]
    fn unreachable_destination_holds_then_gives_up() {
        let mut d = Drain::new(8);
        d.push(7).unwrap();
        assert_eq!(d.next_step(), Next::Connect);
        assert_eq!(d.next_step(), Next::Idle, "one connect per attempt");
        assert_eq!(d.connect_failed(), Some(RETRY_BACKOFF_US));
        assert_eq!(
            d.next_step(),
            Next::Idle,
            "the slot is held through the backoff"
        );
        d.backoff_elapsed();
        assert_eq!(d.next_step(), Next::Connect);
        assert_eq!(d.connect_failed(), None);
        assert_eq!(d.next_step(), Next::GiveUp);
        assert_eq!(d.give_up().collect::<Vec<_>>(), vec![7]);
        assert_eq!(d.next_step(), Next::Idle);
        // A fresh message starts a fresh attempt budget.
        d.push(8).unwrap();
        assert_eq!(d.next_step(), Next::Connect);
        assert!(d.connect_failed().is_some());
    }

    #[test]
    fn an_answer_resets_the_attempt_budget() {
        let mut d = Drain::new(8);
        d.push(1).unwrap();
        d.next_step();
        assert!(d.connect_failed().is_some());
        d.backoff_elapsed();
        d.next_step();
        d.connected("conn");
        write(&mut d);
        d.written();
        d.answered(202);
        d.push(2).unwrap();
        write(&mut d);
        d.written();
        d.conn_lost();
        assert_eq!(d.next_step(), Next::Connect, "one failure since the answer");
    }

    #[test]
    fn connections_lost_unanswered_are_failed_attempts() {
        // A destination that accepts connections but drops them with
        // the work unanswered is not retried forever.
        let mut d = ready([1]);
        write(&mut d);
        d.written();
        d.conn_lost();
        assert_eq!(
            d.next_step(),
            Next::Connect,
            "the first loss reconnects at once"
        );
        d.connected("again");
        write(&mut d);
        d.conn_lost(); // this time the write itself failed
        assert_eq!(d.next_step(), Next::GiveUp);
    }

    #[test]
    fn losing_an_idle_connection_is_no_failure() {
        let mut d = ready([1]);
        write(&mut d);
        d.written();
        d.answered(202);
        for _ in 0..CONNECT_ATTEMPTS {
            d.conn_lost(); // closed between batches, nothing unanswered
        }
        d.push(2).unwrap();
        assert_eq!(d.next_step(), Next::Connect);
    }

    #[test]
    fn quadrant_three_translates_only_200() {
        let mut d = ready([1, 2, 3]);
        write(&mut d);
        d.written();
        assert_eq!(d.answered(202), None);
        assert_eq!(d.answered(200), Some(2));
        assert_eq!(d.answered(500), None);
        assert_eq!(d.answered(200), None, "nothing outstanding");
    }

    #[test]
    fn lost_connection_resends_only_unanswered_messages() {
        let mut d = ready(0..5);
        write(&mut d);
        assert_eq!(d.written(), 5);
        // Two answers, then the connection drops.
        d.answered(202);
        d.answered(202);
        d.conn_lost();
        assert_eq!(d.awaiting(), 0);
        assert_eq!(d.next_step(), Next::Connect);
        d.connected("fresh");
        assert_eq!(
            write(&mut d),
            vec![2, 3, 4],
            "answered messages are never resent"
        );
        assert_eq!(d.written(), 0, "a resend is not a new delivery");
    }

    #[test]
    fn fresh_connection_correlates_to_the_right_request() {
        // Regression: a connection lost with a request unanswered must
        // not leave that request's id to be matched against the first
        // response on the next connection.
        let mut d = ready([10]);
        write(&mut d);
        d.written();
        d.conn_lost();
        d.push(11).unwrap();
        d.next_step();
        d.connected("fresh");
        assert_eq!(write(&mut d), vec![10, 11]);
        assert_eq!(d.written(), 1);
        assert_eq!(d.answered(200), Some(10));
        assert_eq!(d.answered(200), Some(11));
    }

    #[test]
    fn failed_write_keeps_the_batch_and_counts_it_once() {
        let mut d = ready(0..3);
        write(&mut d);
        d.conn_lost(); // the batch never reached the connection
        d.next_step();
        d.connected("fresh");
        assert_eq!(write(&mut d), vec![0, 1, 2]);
        assert_eq!(d.written(), 3);
    }

    #[test]
    fn close_takes_an_idle_ready_connection_only() {
        let mut d = ready([1]);
        assert_eq!(d.close(), None, "queued work keeps the connection");
        write(&mut d);
        d.written();
        assert_eq!(d.close(), Some("conn"));
        assert_eq!(
            d.awaiting(),
            0,
            "closing by choice settles what is unanswered"
        );
        assert_eq!(d.close(), None);
        assert_eq!(d.next_step(), Next::Idle);
    }
}
