//! Unreliable datagram transport over a [`Link`].
//!
//! The reliable transports below RTMP and HLS turn loss into *delay*
//! ([`crate::fault::RETX_DELAY`] per lost packet) because TCP retransmits under
//! the media. A datagram link has no such floor: a lost packet is a hole
//! the protocol above must handle (or not), which is exactly what the SRT
//! ingest path needs — loss recovery becomes *protocol behaviour* instead
//! of a fixed penalty.
//!
//! [`DatagramLink`] composes the existing [`Link`] (serialization, FIFO
//! queueing, propagation, bounded buffer with tail drop) with the existing
//! per-packet fault layer ([`LinkFaults`]): the same Gilbert–Elliott chain
//! and spike stream, consumed at the same fixed three variates per packet,
//! so a scaled loss config loses a superset of packets on either transport
//! and the chaos sweep stays a paired comparison. With faults disabled no
//! fault state exists and no variate is drawn — the link is byte-identical
//! to a bare [`Link`].

use crate::fault::{FaultConfig, LinkFaults};
use crate::link::{Delivery, Link};
use crate::time::{SimDuration, SimTime};

/// Outcome of offering a datagram to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DgramDelivery {
    /// Datagram arrives at the far end at this time.
    At(SimTime),
    /// Lost on the wire (Gilbert–Elliott): it simply never arrives.
    LostWire,
    /// Dropped at the sender: the link queue was full.
    LostQueue,
}

impl DgramDelivery {
    /// Arrival time, if delivered.
    pub fn time(self) -> Option<SimTime> {
        match self {
            DgramDelivery::At(t) => Some(t),
            _ => None,
        }
    }
}

/// An unreliable unidirectional datagram link: no delivery guarantee, no
/// ordering repair, no retransmission — those live in the protocol above.
#[derive(Debug, Clone)]
pub struct DatagramLink {
    link: Link,
    faults: Option<LinkFaults>,
    /// Datagrams lost on the wire so far.
    pub lost_wire: u64,
    /// Datagrams dropped by the full queue so far.
    pub lost_queue: u64,
}

impl DatagramLink {
    /// Creates a fault-free datagram link (rate in bits/second, one-way
    /// propagation, queue bound in bytes).
    pub fn new(rate_bps: f64, propagation: SimDuration, queue_capacity: usize) -> Self {
        DatagramLink {
            link: Link::new(rate_bps, propagation, queue_capacity),
            faults: None,
            lost_wire: 0,
            lost_queue: 0,
        }
    }

    /// Unbounded-queue convenience constructor.
    pub fn unbounded(rate_bps: f64, propagation: SimDuration) -> Self {
        DatagramLink {
            link: Link::unbounded(rate_bps, propagation),
            faults: None,
            lost_wire: 0,
            lost_queue: 0,
        }
    }

    /// Attaches the per-packet fault layer when `cfg` has any link fault
    /// active; inert (and draw-free) otherwise.
    pub fn with_faults(mut self, cfg: &FaultConfig, unit_seed: u64, label: &str) -> Self {
        if LinkFaults::active(cfg) {
            self.faults = Some(LinkFaults::new(cfg, unit_seed, label));
        }
        self
    }

    /// Underlying link (for rate/propagation queries).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// The same serializer as a *reliable-transport* path.
    ///
    /// The viewer's app traffic (bootstrap, chat, pictures) rides TCP
    /// connections that share the access bottleneck with the datagram
    /// media — one transmitter, one FIFO, one queue bound. A reliable
    /// segment is never wire-lost here and consumes no fault variate: the
    /// reliable path's loss-as-delay discipline
    /// ([`LinkFaults::packet_extra`]) is applied by the caller, keeping the
    /// datagram Gilbert–Elliott chain's per-packet draw count fixed.
    pub fn reliable(&mut self) -> &mut Link {
        &mut self.link
    }

    /// Fault counters, when the fault layer is attached: `(lost, spiked)`.
    pub fn fault_counts(&self) -> Option<(u64, u64)> {
        self.faults.as_ref().map(|f| (f.lost, f.spiked))
    }

    /// Offers a datagram of `bytes` at `now`.
    ///
    /// The queue/serialization bookkeeping runs even for wire-lost packets
    /// — they occupied the transmitter before vanishing downstream — so
    /// loss does not free up bandwidth, matching how a real lossy path
    /// behaves between the sender and the loss point.
    pub fn send(&mut self, now: SimTime, bytes: usize) -> DgramDelivery {
        match self.link.enqueue(now, bytes) {
            Delivery::Dropped => {
                self.lost_queue += 1;
                DgramDelivery::LostQueue
            }
            Delivery::At(t) => match self.faults.as_mut() {
                None => DgramDelivery::At(t),
                Some(lf) => {
                    let (lost, extra) = lf.datagram_fate();
                    if lost {
                        self.lost_wire += 1;
                        DgramDelivery::LostWire
                    } else {
                        DgramDelivery::At(t + extra)
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{LossConfig, SpikeConfig};

    fn lossy_cfg(scale: f64) -> FaultConfig {
        FaultConfig {
            loss: LossConfig {
                p_loss_good: 0.05,
                p_loss_bad: 0.5,
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.3,
            }
            .scaled(scale),
            ..Default::default()
        }
    }

    #[test]
    fn faultless_matches_bare_link() {
        let mut dg = DatagramLink::unbounded(8e6, SimDuration::from_millis(10));
        let mut raw = Link::unbounded(8e6, SimDuration::from_millis(10));
        for i in 0..100 {
            let now = SimTime::from_millis(i * 3);
            assert_eq!(dg.send(now, 1000).time(), raw.enqueue(now, 1000).time());
        }
        assert_eq!(dg.lost_wire, 0);
        assert!(dg.fault_counts().is_none(), "no fault state without faults");
    }

    #[test]
    fn reliable_and_datagram_traffic_share_the_serializer() {
        // A reliable segment occupies the transmitter: the datagram sent
        // right after it serializes behind it, exactly as if both came
        // from one Link.
        let mut dg = DatagramLink::unbounded(8e6, SimDuration::ZERO);
        let mut raw = Link::unbounded(8e6, SimDuration::ZERO);
        let t0 = SimTime::from_millis(1);
        assert_eq!(dg.reliable().enqueue(t0, 10_000).time(), raw.enqueue(t0, 10_000).time());
        assert_eq!(dg.send(t0, 1000).time(), raw.enqueue(t0, 1000).time());
    }

    #[test]
    fn inert_fault_config_attaches_nothing() {
        let dg = DatagramLink::unbounded(8e6, SimDuration::ZERO).with_faults(
            &FaultConfig::default(),
            7,
            "srt/link",
        );
        assert!(dg.faults.is_none());
    }

    #[test]
    fn losses_are_holes_not_delays() {
        let mut dg = DatagramLink::unbounded(8e6, SimDuration::ZERO).with_faults(
            &lossy_cfg(1.0),
            7,
            "srt/link",
        );
        let mut lost = 0;
        let mut delivered = 0;
        for i in 0..2000u64 {
            match dg.send(SimTime::from_millis(i), 500) {
                DgramDelivery::LostWire => lost += 1,
                DgramDelivery::At(_) => delivered += 1,
                DgramDelivery::LostQueue => panic!("unbounded queue dropped"),
            }
        }
        assert!(lost > 20, "lost={lost}");
        assert!(delivered > 1000, "delivered={delivered}");
        assert_eq!(dg.lost_wire, lost);
        assert_eq!(dg.fault_counts().unwrap().0, lost);
    }

    #[test]
    fn loss_schedule_is_reproducible_and_seed_keyed() {
        let fates = |seed: u64| {
            let mut dg = DatagramLink::unbounded(8e6, SimDuration::ZERO).with_faults(
                &lossy_cfg(1.0),
                seed,
                "srt/link",
            );
            (0..500u64).map(|i| dg.send(SimTime::from_millis(i), 500)).collect::<Vec<_>>()
        };
        assert_eq!(fates(7), fates(7));
        assert_ne!(fates(7), fates(8));
    }

    #[test]
    fn scaled_loss_is_a_superset_on_datagrams() {
        let mut lo = DatagramLink::unbounded(8e6, SimDuration::ZERO).with_faults(
            &lossy_cfg(1.0),
            7,
            "srt/link",
        );
        let mut hi = DatagramLink::unbounded(8e6, SimDuration::ZERO).with_faults(
            &lossy_cfg(3.0),
            7,
            "srt/link",
        );
        for i in 0..5000u64 {
            let a = lo.send(SimTime::from_millis(i), 500);
            let b = hi.send(SimTime::from_millis(i), 500);
            if a == DgramDelivery::LostWire {
                assert_eq!(b, DgramDelivery::LostWire, "packet {i} lost at 1x but not 3x");
            }
        }
        assert!(hi.lost_wire > lo.lost_wire);
    }

    #[test]
    fn spikes_delay_without_losing() {
        let cfg = FaultConfig {
            spike: SpikeConfig { p_spike: 1.0, spike_ms: 150 },
            ..Default::default()
        };
        let mut dg =
            DatagramLink::unbounded(8e6, SimDuration::ZERO).with_faults(&cfg, 7, "srt/link");
        match dg.send(SimTime::ZERO, 1000) {
            DgramDelivery::At(t) => assert!(t >= SimTime::from_millis(150), "t={t}"),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn full_queue_drops_at_sender() {
        let mut dg = DatagramLink::new(8e6, SimDuration::ZERO, 1500);
        assert!(matches!(dg.send(SimTime::ZERO, 1000), DgramDelivery::At(_)));
        assert_eq!(dg.send(SimTime::ZERO, 1000), DgramDelivery::LostQueue);
        assert_eq!(dg.lost_queue, 1);
    }
}
