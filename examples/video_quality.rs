//! Video-quality analysis the way §5.2 did it: run viewing sessions,
//! reconstruct the streams from the packet captures (wireshark/libav
//! stand-in) — each in the worker that recorded it — and report bitrate,
//! QP, GOP patterns and HLS segment durations.
//!
//! Run with: `cargo run --release --example video_quality`

use periscope_repro::core::{Lab, LabConfig};
use periscope_repro::media::analysis::GopClass;

fn main() {
    let mut lab = Lab::new(LabConfig::small(2024));
    let sessions = lab.run_viewing_sessions(24);

    println!(
        "{:<6} {:>12} {:>8} {:>8} {:>10} {:>8}  GOP",
        "proto", "bitrate", "avg QP", "fps", "I-interval", "frames"
    );
    let mut analyzed = Vec::new();
    for outcome in &sessions {
        let Some(r) = &outcome.stream else { continue };
        println!(
            "{:<6} {:>9.0} bps {:>8.1} {:>8.1} {:>10.1} {:>8}  {:?}",
            outcome.protocol.name(),
            r.bitrate_bps,
            r.avg_qp,
            r.fps,
            r.i_interval,
            r.n_frames,
            r.gop,
        );
        analyzed.push(r);
    }

    let n = analyzed.len().max(1);
    let in_range =
        analyzed.iter().filter(|r| (200_000.0..=400_000.0).contains(&r.bitrate_bps)).count();
    let ip_only = analyzed.iter().filter(|r| r.gop == GopClass::IpOnly).count();
    println!("\n{in_range}/{n} streams in the paper's typical 200-400 kbps band");
    println!(
        "{:.0}% I+P-only encodings (paper: ~20% — older devices without B-frame support)",
        100.0 * ip_only as f64 / n as f64
    );
    let seg: Vec<f64> =
        analyzed.iter().flat_map(|r| r.segment_durations_s.iter().copied()).collect();
    if !seg.is_empty() {
        let modal = seg.iter().filter(|&&d| (3.3..=3.9).contains(&d)).count();
        println!(
            "HLS segments: {} seen, {:.0}% at ~3.6 s (paper: 60%), range {:.1}-{:.1} s",
            seg.len(),
            100.0 * modal as f64 / seg.len() as f64,
            seg.iter().cloned().fold(f64::INFINITY, f64::min),
            seg.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );
    }
}
