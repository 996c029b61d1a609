//! The corners of the service the headline figures skip: replays, private
//! (RTMPS) broadcasts, and the mitmproxy-style API reconnaissance that
//! produced the paper's Table 1.
//!
//! Run with: `cargo run --release --example replay_and_private`

use periscope_repro::client::replay_session;
use periscope_repro::client::session::{self, SessionConfig};
use periscope_repro::crawler::tap::ApiTap;
use periscope_repro::media::capture::FlowKind;
use periscope_repro::proto::tls::TlsChannel;
use periscope_repro::service::api::ApiRequest;
use periscope_repro::service::select::Protocol;
use periscope_repro::service::{PeriscopeService, ServiceConfig};
use periscope_repro::simnet::{GeoPoint, GeoRect, RngFactory, SimDuration, SimTime};
use periscope_repro::workload::population::{Population, PopulationConfig};

fn main() {
    let rngs = RngFactory::new(777);
    let population = Population::generate(PopulationConfig::small(), &rngs.child("world"));
    let mut service = PeriscopeService::new(population, ServiceConfig::default());

    // --- 1. API reconnaissance through the tap (Table 1) -----------------
    println!("=== mitmproxy-style API reconnaissance ===");
    {
        let mut tap = ApiTap::new(&mut service);
        let loc = GeoPoint::new(60.19, 24.83);
        let mut t = SimTime::from_secs(30);
        let world = ApiRequest::MapGeoBroadcastFeed { rect: GeoRect::WORLD, include_replay: false };
        tap.handle("analyst", &world.to_http("tok"), t, &loc);
        t += SimDuration::from_secs(2);
        // Burst without pacing to see the rate limiter bite.
        for _ in 0..12 {
            tap.handle("analyst", &world.to_http("tok"), t, &loc);
        }
        for (name, example) in tap.discovered_commands() {
            let example =
                if example.len() > 56 { format!("{}…", &example[..56]) } else { example };
            println!("  {name:<22} {example}");
        }
        println!("  429s observed: {} (the crawler must pace itself)", tap.rate_limited_count());
    }

    // --- 2. A private broadcast over RTMPS --------------------------------
    println!("\n=== private broadcast (RTMPS) ===");
    let t = SimTime::from_secs(400);
    let mut private = service
        .population
        .live_at(t)
        .into_iter()
        .max_by_key(|b| b.viewers_at(t))
        .expect("live broadcasts exist")
        .clone();
    private.private = true;
    let out =
        session::run(Protocol::Rtmp, &private, t, &SessionConfig::default(), &rngs.child("priv"));
    println!("  server:      {}", out.server);
    println!("  join time:   {:.2} s (the app has the keys)", out.join_time_s().unwrap());
    let flow = out.capture.flow_of_kind(FlowKind::Rtmp).unwrap();
    let parse = periscope_repro::media::analysis::analyze_rtmp_flow(flow);
    println!(
        "  capture dissects as RTMP?  {}",
        if parse.is_ok() { "yes" } else { "no — ciphertext" }
    );
    let mut tls = TlsChannel::new(private.viewer_seed);
    let decrypted = tls.open_all(&flow.byte_stream()).map(|p| p.len()).unwrap_or(0);
    println!(
        "  with the session key: {} plaintext bytes recovered from {} wire bytes",
        decrypted,
        flow.byte_count()
    );

    // --- 3. Replay (VOD) playback ----------------------------------------
    println!("\n=== replay (VOD) session ===");
    let replayable = service
        .population
        .broadcasts
        .iter()
        .find(|b| b.replay_available && !b.private && b.duration > SimDuration::from_secs(90))
        .expect("a replayable broadcast exists")
        .clone();
    let out = replay_session::run(
        &replayable,
        SimTime::from_secs(3000),
        &SessionConfig::default(),
        &rngs.child("replay"),
    )
    .expect("replay exists");
    println!("  source broadcast: {} from {}", replayable.id.as_string(), replayable.city);
    println!("  join time:  {:.2} s", out.join_time_s().unwrap());
    println!("  stalls:     {} (VOD pulls ahead of playback)", out.meta().n_stalls);
    println!(
        "  stream rate: {:.0} kbps — §5.3: replay power equals live because traffic does",
        out.capture.rate_of_kinds(&[FlowKind::HlsHttp]) / 1e3
    );
}
