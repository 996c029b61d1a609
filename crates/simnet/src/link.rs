//! Point-to-point link model: serialization delay, FIFO queueing,
//! propagation delay, and an optional bounded buffer with tail drop.
//!
//! A link transmits at `rate_bps`; a packet of `n` bytes occupies the wire
//! for `8n / rate` seconds and queues behind the in-flight one (`busy_until`).
//! Every session builds its link unbounded, so none drops at the queue: a
//! `tc` limit is the link's rate and Figure 3(b)'s stalls are queueing delay
//! behind it. An unbounded link keeps no queue — `busy_until` is all its
//! state; the bounded queue (tail drop) is reached by tests only.

use crate::time::{SimDuration, SimTime};

/// Standard Ethernet-ish MTU used to packetize media flows.
pub const MTU_BYTES: usize = 1448;

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Packet will arrive at the far end at this time.
    At(SimTime),
    /// Packet was dropped: the queue was full.
    Dropped,
}

impl Delivery {
    /// Arrival time, if delivered.
    pub fn time(self) -> Option<SimTime> {
        match self {
            Delivery::At(t) => Some(t),
            Delivery::Dropped => None,
        }
    }
}

/// A unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    rate_bps: f64,
    propagation: SimDuration,
    /// Queue capacity in bytes (bytes waiting, excluding the in-flight
    /// packet). `usize::MAX` means unbounded.
    queue_capacity: usize,
    /// Time the transmitter becomes free.
    busy_until: SimTime,
    /// Bytes currently queued (scheduled but not yet started). Tracked on
    /// a bounded link only.
    queued_bytes: usize,
    /// Completion times of queued packets, to age out `queued_bytes`.
    /// Empty on an unbounded link.
    inflight: std::collections::VecDeque<(SimTime, usize)>,
    /// The last packet size serialized and its time on the wire: an MTU
    /// split offers the same size over and over.
    last_serialization: (usize, SimDuration),
    /// Total bytes accepted.
    pub bytes_sent: u64,
    /// Total bytes dropped.
    pub bytes_dropped: u64,
}

impl Link {
    /// Creates a link with the given rate (bits/second), one-way propagation
    /// delay, and queue capacity in bytes.
    pub fn new(rate_bps: f64, propagation: SimDuration, queue_capacity: usize) -> Self {
        assert!(rate_bps > 0.0, "link rate must be positive");
        Link {
            rate_bps,
            propagation,
            queue_capacity,
            busy_until: SimTime::ZERO,
            queued_bytes: 0,
            inflight: std::collections::VecDeque::new(),
            last_serialization: (0, SimDuration::ZERO),
            bytes_sent: 0,
            bytes_dropped: 0,
        }
    }

    /// Unbounded-buffer convenience constructor.
    pub fn unbounded(rate_bps: f64, propagation: SimDuration) -> Self {
        Link::new(rate_bps, propagation, usize::MAX)
    }

    /// Link rate in bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Serialization time for `bytes` at the link rate.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.rate_bps)
    }

    /// Offers a packet of `bytes` at time `now`. Returns the delivery time at
    /// the far end, or `Dropped` if the queue is full.
    pub fn enqueue(&mut self, now: SimTime, bytes: usize) -> Delivery {
        let mut delivery = Delivery::Dropped;
        self.enqueue_batch(now, [bytes], |d| delivery = d);
        delivery
    }

    /// Offers a batch of packets, all arriving at `now`, calling `deliver`
    /// once per packet with its outcome.
    ///
    /// Semantically identical to calling [`Link::enqueue`] once per size, in
    /// order — but the queue aging runs once (and not at all on an unbounded
    /// link), the transmitter/queue bookkeeping stays in locals for the
    /// whole batch and a repeated size reuses its serialization time, which
    /// is what lets a packetized send (one message → many MTU chunks) pump
    /// packets at memcpy-like cost.
    pub fn enqueue_batch(
        &mut self,
        now: SimTime,
        sizes: impl IntoIterator<Item = usize>,
        mut deliver: impl FnMut(Delivery),
    ) {
        // A queue that cannot fill is not tracked.
        let bounded = self.queue_capacity != usize::MAX;
        if bounded {
            self.expire(now);
        }
        let mut busy = self.busy_until.max(now);
        let mut queued = self.queued_bytes;
        let (mut last_bytes, mut last_time) = self.last_serialization;
        let mut sent = 0u64;
        let mut dropped = 0u64;
        for bytes in sizes {
            if bounded && queued.saturating_add(bytes) > self.queue_capacity {
                dropped += bytes as u64;
                deliver(Delivery::Dropped);
                continue;
            }
            if bytes != last_bytes {
                (last_bytes, last_time) = (bytes, self.serialization(bytes));
            }
            busy += last_time;
            if bounded {
                queued += bytes;
                self.inflight.push_back((busy, bytes));
            }
            sent += bytes as u64;
            deliver(Delivery::At(busy + self.propagation));
        }
        self.busy_until = busy;
        self.queued_bytes = queued;
        self.last_serialization = (last_bytes, last_time);
        self.bytes_sent += sent;
        self.bytes_dropped += dropped;
    }

    /// Sends a burst of `total` bytes as MTU packets; returns per-packet
    /// arrival times (drops omitted).
    pub fn enqueue_burst(&mut self, now: SimTime, total: usize) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(total / MTU_BYTES + 1);
        let mut remaining = total;
        while remaining > 0 {
            let pkt = remaining.min(MTU_BYTES);
            if let Delivery::At(t) = self.enqueue(now, pkt) {
                out.push(t);
            }
            remaining -= pkt;
        }
        out
    }

    /// Time at which the transmitter next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    fn expire(&mut self, now: SimTime) {
        while let Some(&(done, bytes)) = self.inflight.front() {
            if done <= now {
                self.queued_bytes -= bytes;
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: f64) -> f64 {
        m * 1e6
    }

    #[test]
    fn serialization_delay_exact() {
        let l = Link::unbounded(mbps(8.0), SimDuration::ZERO);
        // 1000 bytes at 8 Mbps = 1 ms.
        assert_eq!(l.serialization(1000), SimDuration::from_millis(1));
    }

    #[test]
    fn single_packet_delivery() {
        let mut l = Link::unbounded(mbps(8.0), SimDuration::from_millis(10));
        let d = l.enqueue(SimTime::ZERO, 1000);
        assert_eq!(d, Delivery::At(SimTime::from_millis(11)));
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = Link::unbounded(mbps(8.0), SimDuration::ZERO);
        let d1 = l.enqueue(SimTime::ZERO, 1000);
        let d2 = l.enqueue(SimTime::ZERO, 1000);
        assert_eq!(d1, Delivery::At(SimTime::from_millis(1)));
        assert_eq!(d2, Delivery::At(SimTime::from_millis(2)));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut l = Link::unbounded(mbps(8.0), SimDuration::ZERO);
        l.enqueue(SimTime::ZERO, 1000);
        let d = l.enqueue(SimTime::from_secs(1), 1000);
        assert_eq!(d, Delivery::At(SimTime::from_secs(1) + SimDuration::from_millis(1)));
    }

    #[test]
    fn bounded_queue_drops() {
        let mut l = Link::new(mbps(8.0), SimDuration::ZERO, 1500);
        assert!(matches!(l.enqueue(SimTime::ZERO, 1000), Delivery::At(_)));
        // 1000 queued; adding 1000 more exceeds 1500 capacity.
        assert_eq!(l.enqueue(SimTime::ZERO, 1000), Delivery::Dropped);
        assert_eq!(l.bytes_dropped, 1000);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = Link::new(mbps(8.0), SimDuration::ZERO, 1500);
        l.enqueue(SimTime::ZERO, 1000);
        // After 1 ms the first packet has serialized; queue is empty again.
        assert!(matches!(l.enqueue(SimTime::from_millis(1), 1000), Delivery::At(_)));
    }

    #[test]
    fn burst_packetizes_at_mtu() {
        let mut l = Link::unbounded(mbps(100.0), SimDuration::ZERO);
        let arrivals = l.enqueue_burst(SimTime::ZERO, 3 * MTU_BYTES + 10);
        assert_eq!(arrivals.len(), 4);
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn batch_matches_per_packet_enqueue() {
        let sizes = [1000usize, 1448, 64, 1448, 900, 1448, 1448, 32];
        let mut a = Link::new(mbps(4.0), SimDuration::from_millis(7), 4000);
        let mut b = a.clone();
        // Pre-load some state so the batch starts mid-stream.
        a.enqueue(SimTime::ZERO, 1200);
        b.enqueue(SimTime::ZERO, 1200);
        let now = SimTime::from_millis(2);
        let per_packet: Vec<Delivery> = sizes.iter().map(|&s| a.enqueue(now, s)).collect();
        let mut batched = Vec::new();
        b.enqueue_batch(now, sizes.iter().copied(), |d| batched.push(d));
        assert_eq!(per_packet, batched);
        assert_eq!(a.busy_until(), b.busy_until());
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.bytes_dropped, b.bytes_dropped);
        assert_eq!(a.queued_bytes, b.queued_bytes);
        assert_eq!(a.inflight, b.inflight);
    }

    #[test]
    fn unbounded_link_delivers_like_a_queue_that_never_fills() {
        // Same rate, delay and offered packets; the huge-but-finite queue
        // tracks every packet, the unbounded link none.
        let sizes = [1448usize, 1448, 1448, 377, 1448, 64, 64, 1448, 1448, 9];
        let mut tracked = Link::new(mbps(3.0), SimDuration::from_millis(7), usize::MAX - 1);
        let mut free = Link::unbounded(mbps(3.0), SimDuration::from_millis(7));
        for (i, now) in [0u64, 1, 1, 40, 41, 500].into_iter().enumerate() {
            let now = SimTime::from_millis(now);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            tracked.enqueue_batch(now, sizes[i..].iter().copied(), |d| a.push(d));
            free.enqueue_batch(now, sizes[i..].iter().copied(), |d| b.push(d));
            assert_eq!(a, b);
            assert_eq!(tracked.enqueue(now, 1000 + i), free.enqueue(now, 1000 + i));
        }
        assert_eq!(tracked.busy_until(), free.busy_until());
        assert_eq!(tracked.bytes_sent, free.bytes_sent);
        assert!(free.inflight.is_empty() && !tracked.inflight.is_empty());
    }

    #[test]
    fn batch_drops_when_queue_fills() {
        let mut l = Link::new(mbps(8.0), SimDuration::ZERO, 2500);
        let mut out = Vec::new();
        l.enqueue_batch(SimTime::ZERO, [1000, 1000, 1000], |d| out.push(d));
        assert!(matches!(out[0], Delivery::At(_)));
        assert!(matches!(out[1], Delivery::At(_)));
        assert_eq!(out[2], Delivery::Dropped);
        assert_eq!(l.bytes_dropped, 1000);
    }

    #[test]
    fn throughput_matches_rate() {
        // Send 1 MB through a 2 Mbps link: last byte should exit at ~4 s.
        let mut l = Link::unbounded(mbps(2.0), SimDuration::ZERO);
        let arrivals = l.enqueue_burst(SimTime::ZERO, 1_000_000);
        let last = arrivals.last().unwrap();
        assert!((last.as_secs_f64() - 4.0).abs() < 0.01, "last={last}");
    }
}
