//! Micro-benchmarks on the phase-span harness.
//!
//! A dependency-free timing loop for the component benches: each bench
//! body runs under a [`pscp_obs::Observer`] phase span, iteration counts
//! are auto-calibrated to a per-bench time budget (`PSCP_BENCH_SECS`,
//! default 0.2 s), and the suite writes a `BENCH_<suite>.json` artifact in
//! the same phase-span JSON format `repro bench` uses for
//! `BENCH_parallel.json`. (That every figure still regenerates is
//! `tests/experiments_smoke.rs`'s job.)

use pscp_obs::Observer;
use pscp_proto::json::{Value, Writer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One timed bench: name, calibrated iteration count, and per-iteration
/// wall time (optionally with a bytes-processed throughput).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench name (`suite/case`).
    pub name: String,
    /// Measured iterations (excludes warmup and calibration runs).
    pub iters: u64,
    /// Total measured wall time.
    pub total_secs: f64,
    /// Bytes processed per iteration, when the bench is throughput-shaped.
    pub bytes_per_iter: Option<u64>,
    /// Heap allocations per iteration (rounded down), when the counting
    /// allocator is registered (`--features count-allocs` on the `repro`
    /// binary). `None` when it is not measuring.
    pub allocs_per_iter: Option<u64>,
}

impl BenchResult {
    /// Wall time of one iteration.
    pub fn per_iter_secs(&self) -> f64 {
        self.total_secs / self.iters.max(1) as f64
    }

    /// Throughput in MB/s, when bytes were declared.
    pub fn mb_per_sec(&self) -> Option<f64> {
        self.bytes_per_iter.map(|b| b as f64 * self.iters as f64 / self.total_secs.max(1e-12) / 1e6)
    }
}

/// A bench suite: runs bodies under phase spans and renders the artifact.
pub struct MicroBench {
    suite: String,
    seed: u64,
    target_secs: f64,
    observer: Observer,
    results: Vec<BenchResult>,
    facts: BTreeMap<String, Value>,
}

impl MicroBench {
    /// A suite writing `BENCH_<suite>.json`; `seed` is recorded for
    /// provenance.
    pub fn new(suite: &str, seed: u64) -> Self {
        let target_secs =
            std::env::var("PSCP_BENCH_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(0.2);
        MicroBench {
            suite: suite.to_string(),
            seed,
            target_secs,
            observer: Observer::profile_only(),
            results: Vec::new(),
            facts: BTreeMap::new(),
        }
    }

    /// Records a suite-level numeric fact (e.g. a memory footprint) in the
    /// artifact's `facts` object. The `bench-diff` gate only reads timings,
    /// so facts ride along without affecting the regression check.
    pub fn fact(&mut self, key: &str, value: u64) {
        self.facts.insert(key.to_string(), Value::from(value));
    }

    /// Records a suite-level fact that is a name, not a number (e.g. which
    /// kernel the host's CPU selected).
    pub fn fact_text(&mut self, key: &str, value: &str) {
        self.facts.insert(key.to_string(), Value::from(value));
    }

    /// Times `f` (which must return a value derived from its work, to keep
    /// the optimizer honest): one warmup, one calibration run to pick the
    /// iteration count for the time budget, then the measured loop.
    pub fn run(&mut self, name: &str, bytes_per_iter: Option<u64>, mut f: impl FnMut() -> u64) {
        let mut sink = f(); // warmup
        let calib_start = Instant::now();
        sink ^= f();
        let once = calib_start.elapsed().as_secs_f64();
        let iters = ((self.target_secs / once.max(1e-9)).ceil() as u64).clamp(1, 100_000);
        let allocs_before = pscp_obs::alloc_count::current();
        let start = Instant::now();
        self.observer.phase(name, || {
            for _ in 0..iters {
                sink ^= f();
            }
        });
        let total_secs = start.elapsed().as_secs_f64();
        let allocs = pscp_obs::alloc_count::current() - allocs_before;
        black_box(sink);
        self.results.push(BenchResult {
            name: name.to_string(),
            iters,
            total_secs,
            bytes_per_iter,
            // Floor division: the phase-span bookkeeping itself allocates a
            // handful of times per *bench*, which rounds to 0 per iteration.
            allocs_per_iter: pscp_obs::alloc_count::installed().then(|| allocs / iters.max(1)),
        });
    }

    /// Human-readable results table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>8} {:>14} {:>10} {:>12}\n{}\n",
            "bench",
            "iters",
            "per-iter",
            "MB/s",
            "allocs/iter",
            "-".repeat(83)
        ));
        for r in &self.results {
            let per = r.per_iter_secs();
            let per_h = if per >= 1.0 {
                format!("{per:.2} s")
            } else if per >= 1e-3 {
                format!("{:.2} ms", per * 1e3)
            } else {
                format!("{:.2} µs", per * 1e6)
            };
            let tp = r.mb_per_sec().map(|t| format!("{t:.1}")).unwrap_or_else(|| "-".into());
            let al = r.allocs_per_iter.map(|a| a.to_string()).unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<34} {:>8} {:>14} {:>10} {:>12}\n",
                r.name, r.iters, per_h, tp, al
            ));
        }
        out
    }

    /// The machine-readable artifact body (`BENCH_<suite>.json`, trailing
    /// newline).
    pub fn json(&self) -> String {
        let mut out = String::new();
        let w = &mut Writer::new(&mut out);
        w.begin_object();
        if !self.facts.is_empty() {
            w.key("facts").begin_object();
            for (key, value) in &self.facts {
                w.key(key);
                value.write_json(w);
            }
            w.end_object();
        }
        w.key("phases");
        pscp_obs::write_phases(&self.observer.phases(), w);
        w.key("results").begin_array();
        for r in &self.results {
            w.begin_object();
            w.key("allocs_per_iter").number_or_null(r.allocs_per_iter.map(|a| a as f64));
            w.key("iters").int(r.iters);
            w.key("mb_per_sec").number_or_null(r.mb_per_sec());
            w.key("name").str(&r.name);
            w.key("per_iter_secs").number(r.per_iter_secs());
            w.end_object();
        }
        w.end_array();
        w.key("seed").int(self.seed);
        w.key("suite").str(&self.suite);
        w.key("target_secs").number(self.target_secs);
        w.end_object();
        out.push('\n');
        out
    }

    /// Writes the artifact and returns the table plus the artifact path.
    pub fn finish(self) -> Result<String, String> {
        let path = format!("BENCH_{}.json", self.suite);
        crate::cli::write_artifact(&path, self.json())?;
        Ok(format!("{}\nwrote {path} ({} benches)", self.table(), self.results.len()))
    }
}

/// Component hot paths: protocol (de)framing, TS mux/demux, the encoder,
/// stats kernels, TLS record framing, capture recording, and one full
/// session per transport. These guard against regressions that would make
/// paper-scale figure regeneration impractically slow.
pub fn bench_components(seed: u64) -> Result<String, String> {
    use pscp_media::bitstream::{FrameKind, FramePayload};
    use pscp_media::content::{ContentClass, ContentProcess};
    use pscp_media::encoder::{Encoder, EncoderConfig};
    use pscp_media::flv::VideoTag;
    use pscp_media::ts::{TsDemuxer, TsMuxer, TsUnit};
    use pscp_proto::json;
    use pscp_proto::rtmp::{Chunker, Dechunker, Message};
    use pscp_simnet::{Link, RngFactory, SimDuration, SimTime};
    use pscp_stats::{welch_t_test, Ecdf};

    fn frame(pts: u32, size: usize) -> FramePayload {
        FramePayload {
            kind: if pts.is_multiple_of(1200) { FrameKind::I } else { FrameKind::P },
            qp: 30,
            width: 320,
            height: 568,
            pts_ms: pts,
            ntp_s: None,
            size,
        }
    }

    let mut suite = MicroBench::new("components", seed);

    // One second of video: 30 frames of ~1 kB.
    let msgs: Vec<Message> = (0..30u32)
        .map(|i| Message::video(i * 33, VideoTag::for_frame(frame(i * 33, 1000)).encode()))
        .collect();
    let rtmp_bytes: usize = msgs.iter().map(|m| m.payload.len()).sum();
    // Steady-state shape: the wire buffer and the dechunker's arenas are
    // reused across iterations, as the session loop reuses them across
    // messages; only the chunker restarts so each iteration emits the same
    // bytes.
    let mut wire: Vec<u8> = Vec::new();
    let mut d = Dechunker::new();
    suite.run("rtmp/chunk+dechunk 1s of video", Some(rtmp_bytes as u64), || {
        wire.clear();
        let mut chunker = Chunker::new();
        for m in &msgs {
            chunker.write_ref(m.as_ref(), &mut wire);
        }
        d.feed(&wire).expect("dechunk");
        let mut n = 0u64;
        while let Some(msg) = d.next_view() {
            n += msg.payload.len() as u64;
        }
        n
    });

    let units: Vec<TsUnit> = (0..108u32)
        .map(|i| TsUnit::Video { pts_ms: i * 33, data: frame(i * 33, 1200).encode() })
        .collect();
    let segment = TsMuxer::new().mux_segment(&units);
    let mut seg_out: Vec<u8> = Vec::new();
    suite.run("mpegts/mux 3.6s segment", Some(segment.len() as u64), || {
        seg_out.clear();
        TsMuxer::new().mux_into(units.iter().map(|u| u.as_ref()), &mut seg_out);
        seg_out.len() as u64
    });
    let mut demux = TsDemuxer::new();
    suite.run("mpegts/demux 3.6s segment", Some(segment.len() as u64), || {
        demux.reset();
        demux.push(&segment).expect("demux");
        demux.finish().expect("demux");
        demux.units().count() as u64
    });

    // One session's worth of frame bodies (2,040 frames, 2.5 MB) generated
    // into one reused buffer, the way the packetizers materialise them.
    let bodies: Vec<FramePayload> = (0..2040u32).map(|i| frame(i * 33, 1225)).collect();
    let body_bytes: usize = bodies.iter().map(|f| f.size).sum();
    let mut body_out: Vec<u8> = Vec::with_capacity(body_bytes);
    // The filler rate is the CPU's as much as the code's: name the kernel.
    suite.fact_text("bitstream_fill_kernel", &pscp_proto::filler::fill_kernel());
    suite.run("bitstream/frame filler 2.5 MB", Some(body_bytes as u64), || {
        body_out.clear();
        for f in &bodies {
            f.encode_into(&mut body_out);
        }
        body_out.len() as u64
    });

    suite.run("encoder/60s of video", None, || {
        let mut rng = RngFactory::new(1).stream("bench");
        let content = ContentProcess::new(ContentClass::Indoor, &mut rng);
        let mut enc = Encoder::new(EncoderConfig::default(), content);
        let mut total = 0usize;
        for i in 0..1800 {
            if let Some(f) = enc.next_frame(i as f64 / 30.0, &mut rng) {
                total += f.size();
            }
        }
        total as u64
    });

    let item = |i: u64| {
        let id = Value::str(format!("brdcst{i:07}"));
        Value::object([("id", id), ("lat", 41.2.into()), ("lng", 28.9.into()), ("n", i.into())])
    };
    let doc = Value::object([("broadcasts", (0..100).map(item).collect::<Vec<_>>().into())]);
    let doc = doc.to_json();
    suite.run("json/parse map-feed response", Some(doc.len() as u64), || {
        json::parse(&doc).expect("parse");
        doc.len() as u64
    });

    {
        use pscp_crawler::deep::crawler_location;
        use pscp_crawler::wire;
        use pscp_service::api::ApiRequest;
        use pscp_service::{PeriscopeService, ServiceConfig};
        use pscp_workload::population::{Population, PopulationConfig};
        // The crawl plane's hot exchange on real bodies: one getBroadcasts
        // for 100 live ids of a medium world — the service writing the
        // response, the crawler reading it, and both with the request.
        let pop =
            Population::generate(PopulationConfig::medium(), &RngFactory::new(5).child("world"));
        let mut svc = PeriscopeService::new(pop, ServiceConfig::default());
        let at = SimTime::from_secs(3600);
        let ids: Vec<_> = svc.population.live_at(at).iter().map(|b| b.id).take(100).collect();
        assert_eq!(ids.len(), 100, "a medium world has 100 live broadcasts an hour in");
        let request = ApiRequest::GetBroadcasts { ids: ids.clone() };
        // A user per call keeps the rate limiter out, as in `benchmark/`.
        let mut calls = 0u64;
        let mut user = move || {
            calls += 1;
            format!("bench-{calls}")
        };
        let http = request.to_http("bench");
        let body = String::from_utf8(svc.handle_http(&user(), &http, at, &crawler_location()).body)
            .expect("API responses are UTF-8 JSON");
        suite.run("json/write getBroadcasts ×100", Some(body.len() as u64), || {
            svc.handle_http(&user(), &http, at, &crawler_location()).body.len() as u64
        });
        suite.run("json/read getBroadcasts ×100", Some(body.len() as u64), || {
            wire::descriptions(&body).expect("decodes").len() as u64
        });
        suite.run("api/getBroadcasts round trip ×100", Some(body.len() as u64), || {
            wire::get_broadcasts(&mut svc, &user(), &ids, at).expect("answered").len() as u64
        });
    }

    // 1000 MTU-ish packets offered as bursts of 100 (one burst per
    // simulated send), so `enqueue_batch` amortizes the queue bookkeeping
    // the way the session packet pump does.
    let pkt_sizes: Vec<usize> = (0..1000usize).map(|i| 1448 - (i % 3)).collect();
    let pkt_bytes: u64 = pkt_sizes.iter().map(|&s| s as u64).sum();
    suite.run("link/enqueue 1000 packets", Some(pkt_bytes), || {
        let mut link = Link::unbounded(10e6, SimDuration::from_millis(20));
        let mut t = SimTime::ZERO;
        let mut n = 0u64;
        for burst in pkt_sizes.chunks(100) {
            t += SimDuration::from_millis(10);
            link.enqueue_batch(t, burst.iter().copied(), |d| {
                n += d.time().is_some() as u64;
            });
        }
        black_box(link.busy_until());
        n
    });

    let mut rng = RngFactory::new(2).stream("stats-bench");
    let data: Vec<f64> =
        (0..10_000).map(|_| pscp_simnet::dist::lognormal(&mut rng, 0.0, 1.0)).collect();
    suite
        .run("stats/ecdf build 10k samples", None, || Ecdf::new(&data).expect("ecdf").len() as u64);
    let (a, b) = data.split_at(5000);
    suite.run("stats/welch t-test 2x5k", None, || {
        welch_t_test(a, b).expect("welch").p_value.to_bits()
    });

    {
        use pscp_stats::sketch::QuantileSketch;
        // Constant-memory telemetry vs the full-sample path it replaces at
        // scale: fold synthetic join times (integer µs, lognormal like the
        // real distribution) into a sketch, against building the exact ECDF
        // over the same samples (DESIGN.md §11).
        let mut rng = RngFactory::new(3).stream("sketch-bench");
        let join_us: Vec<u64> = (0..100_000)
            .map(|_| (pscp_simnet::dist::lognormal(&mut rng, 0.0, 1.0) * 1e6) as u64)
            .collect();
        for n in [10_000usize, 100_000] {
            let slice = &join_us[..n];
            suite.run(&format!("stats/sketch fold {}k sessions", n / 1000), None, || {
                let mut s = QuantileSketch::new();
                for &v in slice {
                    s.observe(v);
                }
                s.quantile(0.9).unwrap_or(0)
            });
        }
        let secs: Vec<f64> = join_us.iter().map(|&v| v as f64 / 1e6).collect();
        suite.run("stats/ecdf build 100k samples", None, || {
            Ecdf::new(&secs).expect("ecdf").len() as u64
        });
        let mut full = QuantileSketch::new();
        for &v in &join_us {
            full.observe(v);
        }
        suite.fact("sketch_bytes_per_metric_100k_sessions", full.memory_bytes() as u64);
        suite.fact("sketch_bytes_empty", QuantileSketch::new().memory_bytes() as u64);
        // A QoeTelemetry accumulator carries four quantile sketches (join,
        // stall, RTMP latency, join breakdown); moments and top-k add a few
        // hundred bytes more. This bounds the watch loop's QoE state.
        suite.fact("sketch_bytes_telemetry_100k_sessions", 4 * full.memory_bytes() as u64);
    }

    {
        use pscp_core::shard::{ShardPlan, ShardStats};
        use pscp_simnet::rng::Rng as _;
        use pscp_workload::population::{Population, PopulationConfig};
        // Shard bookkeeping (DESIGN.md §13): build the 16-cell quadtree
        // plan over a medium world — what `run_scale` does before it runs
        // sessions — and merge 16 roll-ups into one, the exact
        // `ShardStats` merge.
        let pop =
            Population::generate(PopulationConfig::medium(), &RngFactory::new(4).child("world"));
        let mut leaves: Vec<ShardStats> = Vec::new();
        let mut rng = RngFactory::new(4).stream("shard-bench");
        for _ in 0..16 {
            let mut st = ShardStats::new();
            for _ in 0..500 {
                st.sessions += 1;
                st.join_us.observe((pscp_simnet::dist::lognormal(&mut rng, 0.0, 1.0) * 1e6) as u64);
                st.stall_ppm.observe((rng.gen::<f64>() * 1e5) as u64);
            }
            leaves.push(st);
        }
        suite.run("shard/plan+fold 16 cells medium world", None, || {
            let plan = ShardPlan::build(&pop, 16);
            let mut acc = ShardStats::new();
            for leaf in &leaves {
                acc.merge(leaf);
            }
            plan.discoverable_broadcast_minutes() + acc.join_us.count()
        });
        let plan = ShardPlan::build(&pop, 16);
        suite.fact("shard_plan_bytes_medium_world", plan.memory_bytes() as u64);
    }

    {
        use pscp_proto::tls::TlsChannel;
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        suite.run("tls/seal+open 100kB", Some(payload.len() as u64), || {
            let mut tx = TlsChannel::new(42);
            let mut rx = TlsChannel::new(42);
            let wire = tx.seal(&payload);
            rx.open_all(&wire).expect("open").len() as u64
        });
    }

    {
        use pscp_client::session::{run, run_uncaptured, SessionConfig};
        use pscp_media::audio::AudioBitrate;
        use pscp_obs::Trace;
        use pscp_service::select::Protocol;
        use pscp_simnet::GeoPoint;
        use pscp_workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};
        let broadcast = Broadcast {
            id: BroadcastId(5),
            location: GeoPoint::new(41.01, 28.98),
            city: "Istanbul",
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(1800),
            content: ContentClass::Indoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: 25.0,
            replay_available: true,
            private: false,
            location_public: true,
            viewer_seed: 5,
            target_bitrate_bps: 300_000.0,
        };
        // One 60 s session per transport, two rows each. `end-to-end` keeps
        // the capture; its `uncaptured` twin is the same session (broadcast,
        // seeds, packets, instants) run the way a dataset's unanalysed
        // sessions and every `run_scale` session run — lengths, not bytes
        // (DESIGN.md §10). Both report MB/s against the
        // capture size of one representative run (per-seed variation is ~1%,
        // fine for an indicator), so the columns compare directly; that run
        // is returned.
        let (at, config) = (SimTime::from_secs(400), SessionConfig::default());
        let rngs = |i: u64| RngFactory::new(i).child("bench-session");
        let both_modes = |suite: &mut MicroBench, label: &str, protocol, broadcast: &Broadcast| {
            let nominal = run(protocol, broadcast, at, &config, &rngs(1));
            let nominal_bytes = Some(nominal.capture.total_bytes() as u64);
            let mut i = 0u64;
            suite.run(&format!("session/{label} 60s end-to-end"), nominal_bytes, || {
                i += 1;
                run(protocol, broadcast, at, &config, &rngs(i)).capture.total_bytes() as u64
            });
            let mut i = 0u64;
            suite.run(&format!("session/{label} 60s uncaptured"), nominal_bytes, || {
                i += 1;
                run_uncaptured(protocol, broadcast, at, &config, &rngs(i), &mut Trace::disabled())
                    .player
                    .latency_n as u64
            });
            nominal
        };
        both_modes(&mut suite, "rtmp", Protocol::Rtmp, &broadcast);
        // The SRT twin of the RTMP bench (DESIGN.md §12): same broadcast,
        // same seeds (common random numbers), so the per-iteration delta
        // between the two benches is the transport machinery itself —
        // handshake, per-packet datagram accounting, ARQ bookkeeping.
        both_modes(&mut suite, "srt", Protocol::Srt, &broadcast);
        // The costliest arm: a popular broadcast served over HLS, with the
        // full chat room (and its picture downloads) that popularity brings.
        let popular = Broadcast { avg_viewers: 800.0, ..broadcast.clone() };
        let hot = both_modes(&mut suite, "hls", Protocol::Hls, &popular);
        let hot_bytes = hot.capture.total_bytes() as u64;

        // The two captured sessions `crates/client/tests/zero_alloc.rs`
        // pins, seed and all: every iteration is the same session, so with
        // the counting allocator on `allocs_per_iter` reads what that test
        // pins (RTMP 71; HLS 1,521 here, 1,531 there), and the HLS row is
        // the hot-chat row's media-only twin — segments written once, on
        // fetch, into the capture (DESIGN.md §10).
        let pinned = RngFactory::new(9).child("whole-session");
        for (label, protocol) in [("rtmp", Protocol::Rtmp), ("hls", Protocol::Hls)] {
            let bytes = run(protocol, &broadcast, at, &config, &pinned).capture.total_bytes();
            suite.run(&format!("session/{label} 60s captured, pinned"), Some(bytes as u64), || {
                run(protocol, &broadcast, at, &config, &pinned).capture.total_bytes() as u64
            });
        }

        // The player on its own: the media arrivals of one RTMP session
        // (≈ 1,800 video messages) through the buffer model.
        {
            use pscp_client::player::{run_playback, MediaArrival, PlayerConfig};
            let arrivals: Vec<MediaArrival> = (0..1800u64)
                .map(|i| MediaArrival {
                    at: SimTime::from_micros(400_000_000 + i * 33_333),
                    media_end_s: i as f64 / 30.0 + 2.0,
                    capture_wall_s: Some(399.0 + i as f64 / 30.0),
                })
                .collect();
            suite.run("player/run_playback 60s of arrivals", None, || {
                run_playback(
                    SimTime::from_secs(400),
                    SimDuration::from_secs(60),
                    PlayerConfig::rtmp(),
                    &arrivals,
                )
                .latency_n as u64
            });
        }

        // What recording that session's packets costs on its own: replay
        // its capture (same flows, sizes and payloads) into a fresh one.
        // The session deferred its stamps and `packets()` reads them, so
        // the source is copied once, untimed, into one whose stamps are
        // read already: the row times recording, not clock readings.
        let copy_of = |capture: &pscp_media::capture::Capture| {
            let mut copy = pscp_media::capture::Capture::new();
            for flow in &capture.flows {
                let idx = copy.open_flow(flow.kind, flow.server.clone());
                for pkt in flow.packets() {
                    copy.record(idx, pkt.at, pkt.wall_ts, pkt.payload);
                }
            }
            copy
        };
        let stamped = copy_of(&hot.capture);
        suite.run("capture/record hot-chat session", Some(hot_bytes), || {
            copy_of(&stamped).total_bytes() as u64
        });
    }

    suite.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCH_<suite>.json` is canonical JSON that `repro bench-diff` reads.
    #[test]
    fn artifact_is_canonical_and_diffable() {
        let mut suite = MicroBench { target_secs: 1e-4, ..MicroBench::new("unit", 7) };
        suite.fact("bytes", 42);
        suite.fact_text("kernel", "portable-8");
        suite.run("noop", Some(8), || 1);
        let json = suite.json();
        let v = pscp_proto::json::parse(&json).expect("the artifact parses");
        assert_eq!(v.to_json() + "\n", json, "written in canonical form");
        let facts = v.get("facts").expect("facts");
        assert_eq!(facts.get("bytes").and_then(Value::as_u64), Some(42));
        assert_eq!(facts.get("kernel").and_then(Value::as_str), Some("portable-8"));
        let names: Vec<String> = crate::diff::diff(&json, &json, 0.25)
            .expect("diffable")
            .entries
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["result/noop", "phase/noop"]);
    }
}
