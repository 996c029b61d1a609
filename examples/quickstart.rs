//! Quickstart: spin up a small synthetic Periscope world, watch a handful
//! of broadcasts the way the paper's automation did, and print the QoE
//! numbers that come out.
//!
//! Run with: `cargo run --example quickstart`

use periscope_repro::core::{Lab, LabConfig};
use periscope_repro::service::select::Protocol;

fn main() {
    // Everything derives from one seed; change it and the whole world
    // (broadcasts, viewers, network weather) changes with it.
    let mut lab = Lab::new(LabConfig::small(42));

    println!("Running 20 automated 60-second viewing sessions...\n");
    let sessions = lab.run_viewing_sessions(20);

    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>10}  server",
        "protocol", "join(s)", "stalls", "stall-ratio", "viewers"
    );
    for s in &sessions {
        println!(
            "{:<10} {:>8} {:>10} {:>12.3} {:>10}  {}",
            s.protocol.name(),
            s.join_time_s().map(|j| format!("{j:.2}")).unwrap_or_else(|| "-".to_string()),
            s.meta().n_stalls,
            s.stall_ratio(),
            s.viewers_at_join,
            s.server,
        );
    }

    let rtmp = sessions.iter().filter(|s| s.protocol == Protocol::Rtmp).count();
    let hls = sessions.len() - rtmp;
    println!("\n{rtmp} RTMP sessions, {hls} HLS sessions");
    println!("(popular broadcasts fall back to HLS via the CDN, as in §5 of the paper)");
}
