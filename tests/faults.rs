//! Fault-injection invariants (DESIGN.md §8): the disabled layer must be
//! provably inert, the enabled layer bit-reproducible and thread-invariant,
//! recovery paths (retry, failover, re-poll) must actually engage, and the
//! chaos sweep's stall ratio must be monotone in the injected loss rate.
//! Inertness and thread invariance run on the untraced one-shard rows of
//! the contract table (`tests/contract/mod.rs`).

mod contract;

use std::sync::OnceLock;

use contract::{chaos_artifacts, lab, teleport_artifacts, Faults, Table};
use periscope_repro::client::session::{SessionConfig, SessionOutcome};
use periscope_repro::client::{Teleport, TeleportConfig};
use periscope_repro::core::chaos::{run_chaos, ChaosConfig};
use periscope_repro::core::{Lab, LabConfig};
use periscope_repro::obs::{MetricsRegistry, Observer};
use periscope_repro::service::select::Protocol;
use periscope_repro::simnet::fault::{FaultConfig, OutageConfig};
use periscope_repro::simnet::SimTime;

/// Runs a Teleport dataset with the given faults under a tracing observer.
fn run_with_faults(
    lab_seed: u64,
    faults: FaultConfig,
    sessions: usize,
    threads: usize,
) -> (Vec<SessionOutcome>, MetricsRegistry) {
    let mut lab = Lab::new(LabConfig::small(lab_seed));
    let rngs = *lab.rngs();
    let svc = lab.service();
    let obs = Observer::with_flags(true, false);
    let tp = Teleport::new(svc, rngs.child("faults-test"));
    let tcfg = TeleportConfig {
        sessions,
        session: SessionConfig { faults, ..Default::default() },
        analyze_per_protocol: usize::MAX,
        threads,
    };
    let outcomes = tp.run_dataset_observed(&tcfg, &obs);
    (outcomes, obs.metrics())
}

#[test]
fn default_fault_config_is_all_off() {
    let f = FaultConfig::default();
    assert!(!f.is_active(), "default FaultConfig must be inert: {f:?}");
    assert!(FaultConfig::chaos(1, 1.0).is_active());
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        Table::run(
            |row| !row.trace && row.shards == 1,
            |row| {
                let mut lab = lab(row);
                let mut out = teleport_artifacts(&mut lab, row);
                if row.faults == Faults::Off {
                    out.extend(chaos_artifacts(&mut lab, row));
                }
                out
            },
        )
    })
}

/// With every rate at zero the fault layer draws nothing, so even the
/// fault *seed* must not leak into the outputs: sessions and the metrics
/// snapshot are byte-identical across seeds, and no `fault`/`recovery`
/// subsystem may exist.
#[test]
fn disabled_faults_are_byte_inert() {
    let names = ["fault-free dataset", "fault-free dataset metrics"];
    table().assert_inert(|row| row.threads == 1, &names);
}

#[test]
fn disabled_faults_are_thread_invariant() {
    let names = ["fault-free dataset", "fault-free dataset metrics"];
    table().assert_inert(|row| row.faults == Faults::Off, &names);
}

/// Acceptance: a fixed fault seed reproduces the identical fault schedule,
/// retry counts and QoE dataset at 1 and 8 threads.
#[test]
fn enabled_faults_reproduce_across_thread_counts() {
    table().assert_inert(|_| true, &["faulted dataset", "faulted dataset metrics"]);
}

/// Recovery integration: CDN-POP outages force playlist re-polls and stall
/// the HLS player, and the session machinery survives without panicking.
#[test]
fn pop_outage_forces_repolls_and_stalls() {
    let faults = FaultConfig {
        seed: 5,
        pop_outage: OutageConfig { p_minute: 0.5 },
        ..FaultConfig::default()
    };
    let (outcomes, metrics) = run_with_faults(34, faults, 24, 0);
    assert!(metrics.counter("fault", "pop_outage_polls") >= 1, "no poll ever hit an outage");
    assert!(metrics.counter("recovery", "playlist_repolls") >= 1);
    let hls_stalls: u32 =
        outcomes.iter().filter(|o| o.protocol == Protocol::Hls).map(|o| o.meta().n_stalls).sum();
    assert!(hls_stalls >= 1, "outage-delayed segments never stalled the HLS player");
}

/// Recovery integration: a persistent ingest-server outage (every minute
/// down) makes every RTMP-selected session fail over to HLS.
#[test]
fn persistent_ingest_outage_fails_over_to_hls() {
    let faults = FaultConfig {
        seed: 6,
        ingest_outage: OutageConfig { p_minute: 1.0 },
        ..FaultConfig::default()
    };
    let (outcomes, metrics) = run_with_faults(35, faults, 16, 0);
    let failovers = metrics.counter("recovery", "failovers");
    assert!(failovers >= 1, "no session failed over despite a total ingest outage");
    assert_eq!(
        metrics.counter("fault", "ingest_outages"),
        failovers,
        "every detected outage should fail over under a persistent outage"
    );
    // After failover the whole dataset is HLS, and sessions still play.
    assert!(outcomes.iter().all(|o| o.protocol == Protocol::Hls));
    assert!(outcomes.iter().any(|o| o.player.join_time.is_some()));
}

/// Injected API errors either retry to success (delayed join) or exhaust
/// the budget into a never-joined session — the counters must balance
/// exactly: every injected error is followed by a retry or an abandonment.
#[test]
fn api_error_retries_are_accounted() {
    let faults =
        FaultConfig { seed: 7, api_429_rate: 0.25, api_5xx_rate: 0.15, ..FaultConfig::default() };
    let (outcomes, metrics) = run_with_faults(36, faults, 24, 1);
    let injected = metrics.counter("fault", "api_429") + metrics.counter("fault", "api_5xx");
    let handled =
        metrics.counter("recovery", "api_retries") + metrics.counter("recovery", "api_exhausted");
    assert!(injected >= 1, "rates this high must inject errors:\n{}", metrics.snapshot_text());
    assert_eq!(injected, handled, "every injected error retries or abandons");
    // Exhausted sessions appear as never-joined rows, not as missing rows.
    if metrics.counter("recovery", "api_exhausted") > 0 {
        assert!(outcomes.iter().any(|o| o.server == "unreachable"));
    }
}

/// Outage schedules are pure functions of (seed, unit, time): any observer
/// agrees, and different units get different schedules.
#[test]
fn outage_schedule_is_globally_consistent() {
    let outage = OutageConfig { p_minute: 0.3 };
    let mut down = 0;
    let mut diverged = false;
    for minute in 0..240u64 {
        let t = SimTime::from_secs(minute * 60 + 30);
        let a = outage.in_outage(9, "vidman-eu-1", t);
        assert_eq!(a, outage.in_outage(9, "vidman-eu-1", t));
        if a {
            down += 1;
        }
        if a != outage.in_outage(9, "pop-ams", t) {
            diverged = true;
        }
    }
    assert!(down > 0, "p=0.3 over 240 minutes must produce outages");
    assert!(down < 240, "p=0.3 must not take the unit down permanently");
    assert!(diverged, "different units must get different schedules");
}

// --------------------------------------------------------- datagram links
//
// The SRT ingest path rides the unreliable datagram transport, whose fault
// layer reuses the reliable path's Gilbert–Elliott chain. These two tests
// pin the integration-level contract the chaos sweep depends on: the loss
// schedule is a pure function of (config, seed), and a disabled config
// attaches no fault state at all — the datagram link is then byte-identical
// to a bare `Link`.

#[test]
fn datagram_ge_loss_is_bit_reproducible() {
    use periscope_repro::simnet::{DatagramLink, SimDuration};
    let fates = |seed: u64| {
        let mut dg = DatagramLink::unbounded(8e6, SimDuration::from_millis(10)).with_faults(
            &FaultConfig::chaos(5, 1.0),
            seed,
            "srt/link",
        );
        (0..2000u64).map(|i| dg.send(SimTime::from_millis(i), 500)).collect::<Vec<_>>()
    };
    assert_eq!(fates(7), fates(7), "datagram loss schedule must be deterministic");
    assert_ne!(fates(7), fates(8), "the unit seed must key the schedule");
    assert!(
        fates(7).iter().any(|f| f.time().is_none()),
        "chaos preset at 1x must lose at least one of 2000 datagrams"
    );
}

#[test]
fn datagram_faults_are_inert_when_disabled() {
    use periscope_repro::simnet::{DatagramLink, Link, SimDuration};
    let mut dg = DatagramLink::unbounded(8e6, SimDuration::from_millis(10)).with_faults(
        &FaultConfig::default(),
        0xDEAD_BEEF,
        "srt/link",
    );
    let mut bare = Link::unbounded(8e6, SimDuration::from_millis(10));
    assert!(dg.fault_counts().is_none(), "disabled config must attach no fault state");
    for i in 0..500u64 {
        let now = SimTime::from_millis(i * 2);
        assert_eq!(
            dg.send(now, 700).time(),
            bare.enqueue(now, 700).time(),
            "faultless datagram link must be byte-identical to a bare link"
        );
    }
    assert_eq!(dg.lost_wire, 0);
}

// ------------------------------------------------------- three-way chaos
//
// The chaos sweep is a paired comparison: every (transport × intensity)
// point replans the identical sessions (same RNG namespace), so arm
// differences measure the transport discipline, not sampling luck.

/// Runs one forced-transport Teleport arm under the chaos preset. Every
/// call reuses the same lab seed and RNG child, so arms are paired session
/// by session (common random numbers).
fn run_transport_arm(
    lab_seed: u64,
    faults: FaultConfig,
    transport: Protocol,
    sessions: usize,
) -> Vec<SessionOutcome> {
    let mut lab = Lab::new(LabConfig::small(lab_seed));
    let rngs = *lab.rngs();
    let svc = lab.service();
    let obs = Observer::with_flags(true, false);
    let tp = Teleport::new(svc, rngs.child("faults-test"));
    let tcfg = TeleportConfig {
        sessions,
        session: SessionConfig { faults, transport: Some(transport), ..Default::default() },
        threads: 0,
        ..Default::default()
    };
    tp.run_dataset_observed(&tcfg, &obs)
}

/// Acceptance (tentpole): at ≥2× chaos loss (marginal Gilbert–Elliott loss
/// ≈ 4.8%, disconnect windows active) the SRT arm's total stall time is
/// strictly below the RTMP arm's over the same planned sessions. The win is
/// the loss-recovery discipline: SRT conceals too-late packets inside its
/// latency window and shrugs off the connection-oriented disconnect windows
/// that force RTMP sessions to stall and reconnect.
#[test]
fn srt_arm_beats_rtmp_arm_at_double_loss() {
    let faults = FaultConfig::chaos(2016, 2.0);
    let rtmp = run_transport_arm(38, faults, Protocol::Rtmp, 16);
    let srt = run_transport_arm(38, faults, Protocol::Srt, 16);
    assert_eq!(rtmp.len(), srt.len(), "paired arms must plan the same sessions");
    let total = |arm: &[SessionOutcome]| arm.iter().map(|o| o.stall_ratio()).sum::<f64>();
    let (rtmp_total, srt_total) = (total(&rtmp), total(&srt));
    assert!(
        srt_total < rtmp_total,
        "SRT stall sum {srt_total:.4} should strictly beat RTMP {rtmp_total:.4} at 2x loss"
    );
}

/// Acceptance: in the three-way sweep the RTMP arm's QoE degrades
/// monotonically with the injected loss scale — as join-time growth, since
/// the TCP flow floor turns Gilbert–Elliott loss into a bounded one-time
/// latency shift rather than mid-stream stalls — the per-arm loss counters
/// obey the Gilbert–Elliott superset property, and the artifact carries
/// every (transport × scale) point plus one SLO verdict per arm.
#[test]
fn chaos_sweep_stall_ratio_is_monotone_in_loss() {
    let mut lab = Lab::new(LabConfig::small(37));
    let cfg = ChaosConfig {
        seed: 2016,
        sessions: 16,
        loss_scales: vec![0.0, 1.0, 4.0],
        transports: vec![Some(Protocol::Rtmp), Some(Protocol::Hls), Some(Protocol::Srt)],
        threads: 0,
    };
    let sweep = run_chaos(&mut lab, &cfg);
    assert_eq!(sweep.points.len(), 9, "3 transports x 3 scales");
    let rtmp = sweep.arm(Some(Protocol::Rtmp));
    let joins: Vec<f64> = rtmp.iter().map(|p| p.mean_join_s()).collect();
    for w in joins.windows(2) {
        assert!(w[1] >= w[0] - 1e-9, "RTMP join time not monotone in loss scale: {joins:?}");
    }
    assert!(joins[2] > joins[0], "4x loss should visibly delay RTMP joins: {joins:?}");
    // Loss counters only exist once loss is on, and grow with the scale
    // (the Gilbert–Elliott superset property) on every arm that draws them.
    for transport in [Protocol::Rtmp, Protocol::Hls, Protocol::Srt] {
        let arm = sweep.arm(Some(transport));
        let lost = |i: usize| arm[i].counter("fault", "lost_packets");
        assert_eq!(lost(0), 0, "{transport:?}: scale 0 must lose nothing");
        assert!(
            lost(2) >= lost(1),
            "{transport:?}: superset property violated: {} < {}",
            lost(2),
            lost(1)
        );
    }
    assert!(rtmp.last().expect("rtmp arm").counter("fault", "lost_packets") > 0);
    // The SRT arm actually exercises the ARQ loop once loss is on: NAKs go
    // out, retransmits come back, and too-late packets are concealed (not
    // stalled on) — all strictly increasing in the loss scale.
    let srt = sweep.arm(Some(Protocol::Srt));
    assert!(srt[2].counter("srt", "nak_sent") > srt[0].counter("srt", "nak_sent"));
    assert!(srt[2].counter("srt", "retransmits") > srt[0].counter("srt", "retransmits"));
    // One SLO verdict per arm, at the nominal x1 intensity.
    assert_eq!(sweep.slo.len(), 3);
    assert!(sweep.slo.iter().all(|s| s.loss_scale == 1.0));
    // The artifact is canonical JSON and names every sweep point.
    let json = sweep.sweep_json();
    let parsed = periscope_repro::proto::json::parse(&json).expect("CHAOS_sweep.json parses");
    assert_eq!(parsed.to_json() + "\n", json, "CHAOS_sweep.json is not in canonical form");
    assert_eq!(parsed.get("points").and_then(|p| p.as_array()).map(|a| a.len()), Some(9));
    assert_eq!(parsed.get("slo").and_then(|p| p.as_array()).map(|a| a.len()), Some(3));
}

/// Acceptance: the full three-way artifact is byte-identical at any
/// worker-thread count: the sweep's parallelism must not touch a draw.
#[test]
fn chaos_sweep_is_thread_invariant_three_way() {
    table().assert_inert(|_| true, &["CHAOS_sweep.json"]);
}
