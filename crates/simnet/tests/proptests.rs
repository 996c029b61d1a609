//! Property-based tests of the simulation substrate invariants, on the
//! in-tree `pscp-check` harness.

use pscp_check::{check, ensure, ensure_eq, Gen};
use pscp_simnet::link::Delivery;
use pscp_simnet::tcp::INIT_CWND_SEGMENTS;
use pscp_simnet::{GeoPoint, GeoRect, Link, SimDuration, SimTime, TcpModel};

#[test]
fn link_deliveries_fifo_and_rate_bounded() {
    check(
        "link_deliveries_fifo_and_rate_bounded",
        |g: &mut Gen| (g.vec(1..80, |g| g.usize(1..3000)), g.f64(0.1..100.0), g.u64(0..10_000)),
        |(sizes, rate_mbps, gap_us)| {
            let mut link = Link::unbounded(rate_mbps * 1e6, SimDuration::from_millis(5));
            let mut t = SimTime::ZERO;
            let mut last_arrival = SimTime::ZERO;
            let mut total_bytes = 0usize;
            for &s in sizes {
                let d = link.enqueue(t, s);
                let Delivery::At(arr) = d else { return Err("unbounded link dropped".into()) };
                // FIFO: arrivals are non-decreasing.
                ensure!(arr >= last_arrival, "FIFO violated");
                last_arrival = arr;
                total_bytes += s;
                t += SimDuration::from_micros(*gap_us);
            }
            // The last arrival cannot beat the physical minimum: total
            // serialization at the link rate plus propagation.
            let min_finish =
                SimDuration::from_secs_f64(total_bytes as f64 * 8.0 / (rate_mbps * 1e6));
            ensure!(
                last_arrival >= SimTime::ZERO + min_finish,
                "arrival {last_arrival} before physical bound"
            );
            Ok(())
        },
    );
}

#[test]
fn tcp_transfer_conserves_bytes_and_orders_chunks() {
    check(
        "tcp_transfer_conserves_bytes_and_orders_chunks",
        |g: &mut Gen| (g.usize(1..2_000_000), g.u64(1..300), g.f64(0.2..200.0)),
        |(bytes, rtt_ms, mbps)| {
            let m = TcpModel::new(1448, SimDuration::from_millis(*rtt_ms), mbps * 1e6);
            let mut cwnd = INIT_CWND_SEGMENTS;
            let s = m.transfer(SimTime::from_secs(1), *bytes, &mut cwnd, true);
            let sum: usize = s.chunks.iter().map(|&(_, n)| n).sum();
            ensure_eq!(sum, *bytes);
            for w in s.chunks.windows(2) {
                ensure!(w[1].0 >= w[0].0, "chunks out of order");
            }
            // Completion bounded below by serialization time.
            let serialize = *bytes as f64 * 8.0 / (mbps * 1e6);
            ensure!(
                s.completion.as_secs_f64() >= 1.0 + serialize * 0.99,
                "completion beat serialization"
            );
            Ok(())
        },
    );
}

#[test]
fn tcp_monotone_in_bytes() {
    check(
        "tcp_monotone_in_bytes",
        |g: &mut Gen| (g.usize(1..100_000), g.usize(1..100_000), g.u64(1..200), g.f64(0.2..100.0)),
        |(small, extra, rtt_ms, mbps)| {
            let m = TcpModel::new(1448, SimDuration::from_millis(*rtt_ms), mbps * 1e6);
            let t1 = m.cold_transfer_completion(SimTime::ZERO, *small);
            let t2 = m.cold_transfer_completion(SimTime::ZERO, small + extra);
            ensure!(t2 >= t1, "more bytes finished earlier: {t2} < {t1}");
            Ok(())
        },
    );
}

#[test]
fn geo_distance_metric_properties() {
    check(
        "geo_distance_metric_properties",
        |g: &mut Gen| {
            (g.f64(-89.0..89.0), g.f64(-179.0..179.0), g.f64(-89.0..89.0), g.f64(-179.0..179.0))
        },
        |(lat1, lon1, lat2, lon2)| {
            let a = GeoPoint::new(*lat1, *lon1);
            let b = GeoPoint::new(*lat2, *lon2);
            let d_ab = a.distance_km(&b);
            let d_ba = b.distance_km(&a);
            ensure!((d_ab - d_ba).abs() < 1e-6, "symmetry: {d_ab} vs {d_ba}");
            ensure!(d_ab >= 0.0, "negative distance");
            ensure!(d_ab <= 20_038.0, "half circumference bound, got {d_ab}");
            Ok(())
        },
    );
}

#[test]
fn quadrants_partition() {
    check(
        "quadrants_partition",
        |g: &mut Gen| {
            (
                g.f64(-80.0..70.0),
                g.f64(-170.0..160.0),
                (g.f64(1.0..20.0), g.f64(1.0..20.0)),
                (g.f64(0.001..0.999), g.f64(0.001..0.999)),
            )
        },
        |(south, west, (dlat, dlon), (plat, plon))| {
            let rect = GeoRect::new(*south, *west, south + dlat, west + dlon);
            let p = GeoPoint::new(south + dlat * plat, west + dlon * plon);
            ensure!(rect.contains(&p), "point outside its own rect");
            let n = rect.quadrants().iter().filter(|q| q.contains(&p)).count();
            ensure_eq!(n, 1);
            Ok(())
        },
    );
}

#[test]
fn rng_streams_reproducible() {
    const LABEL_CHARS: &[char] = &['a', 'b', 'k', 'z', '/'];
    check(
        "rng_streams_reproducible",
        |g: &mut Gen| (g.u64(..), g.string(LABEL_CHARS, 1..=20)),
        |(seed, label)| {
            use pscp_simnet::rng::Rng;
            let f = pscp_simnet::RngFactory::new(*seed);
            let draws: Vec<u32> = (0..4).map(|_| f.stream(label).gen::<u32>()).collect();
            ensure!(draws.windows(2).all(|w| w[0] == w[1]), "stream not reproducible");
            Ok(())
        },
    );
}
