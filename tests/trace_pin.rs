//! Trace pin.
//!
//! Goldens pin figures and `capture_pin.rs` pins capture bytes; this suite
//! pins what a session writes into its [`Trace`]: every event in recording
//! order, every closed span (id, parent, bounds, name), and every counter,
//! histogram, sketch and ring. One order-sensitive hash per cell over
//! `Teleport::run_one_traced` — RTMP/HLS/SRT × five session configurations
//! on the medium population's most- and mid-viewed broadcasts, plus one
//! cell for each recovery path — so a change that reorders events, shifts a
//! span id or drops a counter moves exactly the cells it touched. The
//! constants were produced before the three session files became one
//! driver; only `recovery/srt-handshake-exhausted` has moved since (that
//! session used to record its start twice, DESIGN.md §16).

use periscope_repro::client::device::NetworkSetup;
use periscope_repro::client::session::SessionConfig;
use periscope_repro::client::Teleport;
use periscope_repro::obs::{Field, Trace};
use periscope_repro::par;
use periscope_repro::service::ingest::assign_server;
use periscope_repro::service::select::Protocol;
use periscope_repro::service::{PeriscopeService, ServiceConfig};
use periscope_repro::simnet::fault::{FaultConfig, LossConfig, OutageConfig};
use periscope_repro::simnet::{RngFactory, SimDuration, SimTime};
use periscope_repro::workload::broadcast::Broadcast;
use periscope_repro::workload::population::{Population, PopulationConfig};

const JOIN_AT: SimTime = SimTime::from_secs(3600);

/// `(cell, hash)` in cell order.
const PINNED: &[(&str, u64)] = &[
    ("most-viewed/rtmp/default", 0xf01cb52d6bef1a81),
    ("most-viewed/rtmp/tc-1mbps", 0xa7b96619c80edd35),
    ("most-viewed/rtmp/chat-off", 0x6eb640571053fdcf),
    ("most-viewed/rtmp/private", 0xe9cc7451d27e9bf6),
    ("most-viewed/rtmp/chaos-2x", 0xaa22e0d4fd68bd4b),
    ("most-viewed/hls/default", 0xd7e7f8c0a60eb3b1),
    ("most-viewed/hls/tc-1mbps", 0x6ed4974e8a116cde),
    ("most-viewed/hls/chat-off", 0xd906196d19652d49),
    ("most-viewed/hls/private", 0x219a2958b4e8838c),
    ("most-viewed/hls/chaos-2x", 0x2f56ab064a387f06),
    ("most-viewed/srt/default", 0x1399ea0de963988e),
    ("most-viewed/srt/tc-1mbps", 0x53e35e78e50c2a5e),
    ("most-viewed/srt/chat-off", 0xc278f0411a18e39b),
    ("most-viewed/srt/private", 0x384158f08c7b9c75),
    ("most-viewed/srt/chaos-2x", 0x6551daafcae1f352),
    ("mid-viewed/rtmp/default", 0x034ea27c74c94cce),
    ("mid-viewed/rtmp/tc-1mbps", 0xca7eb16f1d24a19a),
    ("mid-viewed/rtmp/chat-off", 0x03469f8fd57a459d),
    ("mid-viewed/rtmp/private", 0x43df0997ded09fb5),
    ("mid-viewed/rtmp/chaos-2x", 0x69ed71f6d73ef461),
    ("mid-viewed/hls/default", 0xb0b691a5981ce95c),
    ("mid-viewed/hls/tc-1mbps", 0x24b581871ca4d1c2),
    ("mid-viewed/hls/chat-off", 0xcf0a47db05c64a27),
    ("mid-viewed/hls/private", 0xd8ff0ff789952ca9),
    ("mid-viewed/hls/chaos-2x", 0x66b8bf9c9138f4e1),
    ("mid-viewed/srt/default", 0xa95f0284ed64d1f2),
    ("mid-viewed/srt/tc-1mbps", 0x60aee2adaaddb9b2),
    ("mid-viewed/srt/chat-off", 0xa373abd73702a578),
    ("mid-viewed/srt/private", 0xa45d2f9fdcbeb757),
    ("mid-viewed/srt/chaos-2x", 0x9b59dc403cfaf13d),
    ("recovery/api-exhausted", 0x940f0aaf01481022),
    ("recovery/ingest-outage-ridden-out", 0x101d2581b24fca9c),
    ("recovery/rtmp-to-hls-failover", 0xfbe19a70a6969c73),
    ("recovery/srt-gateway-outage", 0x16f88ee47c93d30a),
    ("recovery/srt-handshake-exhausted", 0x5cb1c537ae19b8b2),
    ("recovery/hls-pop-outage-repoll", 0x75b5b2f7766280e7),
    ("recovery/hls-segment-refetch", 0xe0572c300e994cc2),
];

/// Order-sensitive 64-bit mix (the capture pin's).
struct Mix(u64);

impl Mix {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for &b in s.as_bytes() {
            self.word(u64::from(b));
        }
    }

    fn sketch(&mut self, s: &periscope_repro::stats::sketch::QuantileSketch) {
        for w in [s.count(), s.sum(), s.min().unwrap_or(0), s.max().unwrap_or(0)] {
            self.word(w);
        }
        for p in [0.1, 0.5, 0.9, 0.99] {
            self.word(s.quantile(p).unwrap_or(0));
        }
    }
}

fn trace_hash(trace: &Trace) -> u64 {
    let mut mix = Mix(0xcbf2_9ce4_8422_2325);
    mix.word(trace.events().len() as u64);
    for e in trace.events() {
        mix.word(e.t_us);
        mix.str(e.subsystem);
        mix.str(e.name);
        for (key, value) in &e.fields {
            mix.str(key);
            match value {
                Field::U(x) => mix.word(*x),
                Field::I(x) => mix.word(*x as u64),
                Field::F(x) => mix.word(x.to_bits()),
                Field::S(s) => mix.str(s),
            }
        }
    }
    // Open spans (the join root of a session that never joined) are dropped
    // at drain time and are not data; ids of the closed ones still show
    // where they sat in recording order.
    for s in trace.spans().iter().filter(|s| s.is_closed()) {
        mix.word(u64::from(s.id));
        mix.word(s.parent.map_or(u64::MAX, u64::from));
        mix.word(s.start_us);
        mix.word(s.end_us);
        mix.str(s.subsystem);
        mix.str(s.name);
    }
    let metrics = trace.metrics();
    for (sub, name, v) in metrics.counters() {
        mix.str(sub);
        mix.str(name);
        mix.word(v);
    }
    for (sub, name, h) in metrics.histograms() {
        mix.str(sub);
        mix.str(name);
        mix.word(h.total);
        mix.word(h.sum);
        for &c in &h.counts {
            mix.word(c);
        }
    }
    for (sub, name, s) in metrics.sketches() {
        mix.str(sub);
        mix.str(name);
        mix.sketch(s);
    }
    for (sub, name, ring) in metrics.rings() {
        mix.str(sub);
        mix.str(name);
        for (window, s) in ring.windows() {
            mix.word(window);
            mix.sketch(s);
        }
    }
    mix.0
}

struct Cell {
    name: String,
    broadcast: Broadcast,
    join_at: SimTime,
    config: SessionConfig,
    /// A counter that must have fired, proving the cell took the path it
    /// is named for.
    took: Option<(&'static str, &'static str)>,
}

fn outage(p_minute: f64) -> OutageConfig {
    OutageConfig { p_minute }
}

/// The first fault seed under which `unit`'s outage schedule satisfies
/// `wanted` (schedules are pure functions of `(seed, unit, minute)`).
fn seed_where(wanted: impl Fn(u64) -> bool) -> u64 {
    (1..10_000).find(|&seed| wanted(seed)).expect("some schedule in 10,000 fits")
}

fn recovery_cells(head: &Broadcast, mid: &Broadcast) -> Vec<Cell> {
    let d = SessionConfig::default;
    let forced = |protocol, faults| SessionConfig { transport: Some(protocol), faults, ..d() };
    let ingest_host = assign_server(&mid.location, mid.id.0).hostname();
    let srt_unit = format!("srt-{}", assign_server(&head.location, head.id.0).hostname());
    let half = outage(0.5);
    // Six seconds before a minute boundary: an outage that ends at the
    // boundary is ridden out, one that covers the next minutes too is not.
    let late = JOIN_AT + SimDuration::from_secs(54);
    let ends_soon = |seed, unit: &str| {
        half.in_outage(seed, unit, late)
            && half.outage_end(seed, unit, late) == JOIN_AT + SimDuration::from_secs(60)
    };
    let ride_out = seed_where(|seed| ends_soon(seed, &ingest_host));
    // Either POP may serve the session; both must come back at the boundary.
    let pop_repoll = seed_where(|seed| {
        ["fastly-eu.periscope.tv", "fastly-sf.periscope.tv"].iter().all(|pop| ends_soon(seed, pop))
    });
    let cell = |name: &str, broadcast: &Broadcast, join_at, config, took| Cell {
        name: format!("recovery/{name}"),
        broadcast: broadcast.clone(),
        join_at,
        config,
        took: Some(took),
    };
    vec![
        cell(
            "api-exhausted",
            mid,
            JOIN_AT,
            SessionConfig {
                faults: FaultConfig { seed: 7, api_5xx_rate: 1.0, ..Default::default() },
                ..d()
            },
            ("recovery", "api_exhausted"),
        ),
        cell(
            "ingest-outage-ridden-out",
            mid,
            late,
            forced(
                Protocol::Rtmp,
                FaultConfig { seed: ride_out, ingest_outage: half, ..Default::default() },
            ),
            ("recovery", "ingest_reconnects"),
        ),
        cell(
            "rtmp-to-hls-failover",
            mid,
            JOIN_AT,
            forced(
                Protocol::Rtmp,
                FaultConfig { seed: 7, ingest_outage: outage(1.0), ..Default::default() },
            ),
            ("recovery", "failovers"),
        ),
        // The head broadcast's access is HLS, so no `rtmp_server` outage
        // check follows the gateway fallback: the session stays on RTMP.
        cell(
            "srt-gateway-outage",
            head,
            JOIN_AT,
            forced(
                Protocol::Srt,
                FaultConfig {
                    seed: seed_where(|seed| {
                        half.in_outage(seed, &srt_unit, JOIN_AT)
                            && half.in_outage(seed, &srt_unit, JOIN_AT + SimDuration::from_secs(60))
                    }),
                    ingest_outage: half,
                    ..Default::default()
                },
            ),
            ("recovery", "srt_fallbacks"),
        ),
        cell(
            "srt-handshake-exhausted",
            mid,
            JOIN_AT,
            forced(
                Protocol::Srt,
                FaultConfig {
                    seed: 7,
                    loss: LossConfig { p_loss_good: 1.0, p_loss_bad: 1.0, ..Default::default() },
                    ..Default::default()
                },
            ),
            ("recovery", "srt_fallbacks"),
        ),
        cell(
            "hls-pop-outage-repoll",
            head,
            late,
            forced(
                Protocol::Hls,
                FaultConfig { seed: pop_repoll, pop_outage: half, ..Default::default() },
            ),
            ("recovery", "playlist_repolls"),
        ),
        cell(
            "hls-segment-refetch",
            head,
            JOIN_AT,
            forced(
                Protocol::Hls,
                FaultConfig { seed: 7, segment_error_rate: 0.5, ..Default::default() },
            ),
            ("recovery", "segment_refetches"),
        ),
    ]
}

#[test]
fn session_traces_are_pinned_cell_by_cell() {
    let population = Population::generate(PopulationConfig::medium(), &RngFactory::new(2016));
    let service = PeriscopeService::new(population, ServiceConfig::default());
    let mut live: Vec<&Broadcast> = service
        .population
        .live_at(JOIN_AT)
        .into_iter()
        .filter(|b| !b.private && b.is_live_at(JOIN_AT + SimDuration::from_secs(180)))
        .collect();
    live.sort_by_key(|b| (std::cmp::Reverse(b.viewers_at(JOIN_AT)), b.id.0));
    let (head, mid) = (live[0], live[live.len() / 2]);

    let d = SessionConfig::default;
    let configs = [
        ("default", d(), false),
        ("tc-1mbps", SessionConfig { network: NetworkSetup::finland_limited(1.0), ..d() }, false),
        ("chat-off", SessionConfig { chat_on: false, ..d() }, false),
        ("private", d(), true),
        ("chaos-2x", SessionConfig { faults: FaultConfig::chaos(7, 2.0), ..d() }, false),
    ];
    let mut cells = Vec::new();
    for (pick, broadcast) in [("most-viewed", head), ("mid-viewed", mid)] {
        for protocol in [Protocol::Rtmp, Protocol::Hls, Protocol::Srt] {
            for (name, config, private) in &configs {
                cells.push(Cell {
                    name: format!("{pick}/{protocol:?}/{name}").to_lowercase(),
                    broadcast: Broadcast { private: *private, ..broadcast.clone() },
                    join_at: JOIN_AT,
                    config: SessionConfig { transport: Some(protocol), ..config.clone() },
                    took: None,
                });
            }
        }
    }
    cells.extend(recovery_cells(head, mid));

    let teleport = Teleport::new(&service, RngFactory::new(2016));
    // Thread count 0 = `PSCP_THREADS`: the pin must hold at any worker count.
    let hashes = par::indexed_map(&cells, 0, |i, cell| {
        let mut trace = Trace::new(true);
        teleport.run_one_traced(&cell.broadcast, cell.join_at, &cell.config, i as u64, &mut trace);
        if let Some((sub, name)) = cell.took {
            assert!(trace.metrics().counter(sub, name) > 0, "{}: {sub}/{name} is 0", cell.name);
        }
        trace_hash(&trace)
    });
    let table: Vec<String> = cells
        .iter()
        .zip(&hashes)
        .map(|(cell, hash)| format!("    (\"{}\", {hash:#018x}),", cell.name))
        .collect();
    let pinned: Vec<String> =
        PINNED.iter().map(|(name, hash)| format!("    (\"{name}\", {hash:#018x}),")).collect();
    assert!(table == pinned, "trace content moved; the cells now hash to:\n{}", table.join("\n"));
}
