//! The playback buffer model.
//!
//! Feeding it media arrivals yields the three §5.1 QoE quantities:
//!
//! * **join time** — "We calculate the join time, often also called startup
//!   latency, by subtracting the summed up playback and stall time from
//!   60s" — here computed directly as time-to-first-rendered-frame, which
//!   is the same quantity;
//! * **stalls** — count and durations, hence the stall ratio of Fig 3;
//! * **playback latency** — end-to-end capture-to-render delay (Fig 4b),
//!   computed per frame as render time minus capture wall time.
//!
//! The RTMP and HLS players share this core and differ in their thresholds:
//! RTMP starts after a small media buffer; HLS needs whole segments, whose
//! coarse granularity is exactly why it stalls less but lags more (§5.1's
//! closing speculation about buffer sizing, exposed here as parameters for
//! the `ablation_buffer` bench).

use pscp_simnet::{SimDuration, SimTime};

/// Player buffering thresholds, in media seconds.
#[derive(Debug, Clone, Copy)]
pub struct PlayerConfig {
    /// Media buffered before initial play-out starts.
    pub initial_buffer_s: f64,
    /// Media buffered before play-out resumes after a stall.
    pub resume_buffer_s: f64,
}

impl PlayerConfig {
    /// The RTMP player: aggressive, sub-second-to-seconds buffer.
    pub fn rtmp() -> Self {
        PlayerConfig { initial_buffer_s: 1.6, resume_buffer_s: 1.0 }
    }

    /// The HLS player: starts after two segments' worth of media.
    pub fn hls() -> Self {
        PlayerConfig { initial_buffer_s: 6.0, resume_buffer_s: 3.6 }
    }

    /// The SRT player: same thresholds as RTMP, so the three-way chaos
    /// sweep compares transports, not buffer tuning — any stall-ratio gap
    /// between the two is loss-recovery behaviour alone.
    pub fn srt() -> Self {
        PlayerConfig::rtmp()
    }
}

/// One media arrival: at wall instant `at`, the contiguous buffered media
/// extends to `media_end_s` (seconds of media since the first byte the
/// server chose to send), and the newly arrived span was captured by the
/// broadcaster at wall time `capture_wall_s` (for latency accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaArrival {
    /// Arrival instant at the player.
    pub at: SimTime,
    /// Buffered media horizon after this arrival, media-seconds.
    pub media_end_s: f64,
    /// Broadcaster wall-clock capture time of the newest media in this
    /// arrival, seconds (None when unknown).
    pub capture_wall_s: Option<f64>,
}

/// A completed stall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stall {
    /// When playback froze.
    pub start: SimTime,
    /// How long it lasted.
    pub duration: SimDuration,
}

/// The play-out log of one session.
#[derive(Debug, Clone)]
pub struct PlayerLog {
    /// Time from session start to first rendered frame; `None` if playback
    /// never started within the session.
    pub join_time: Option<SimDuration>,
    /// Completed stalls (join-time buffering is not a stall).
    pub stalls: Vec<Stall>,
    /// Total media seconds actually played.
    pub played_s: f64,
    /// Per-sample (render wall time − capture wall time), seconds.
    pub latency_samples: Vec<f64>,
    /// Session length used for ratio computations.
    pub session_s: f64,
}

impl PlayerLog {
    /// Summed stall time in seconds.
    pub fn total_stall_s(&self) -> f64 {
        self.stalls.iter().map(|s| s.duration.as_secs_f64()).sum()
    }

    /// Stall ratio: stall time / (stall + played) — §5.1's definition
    /// "summed up stall time divided by the total stream duration including
    /// stall and playback time".
    pub fn stall_ratio(&self) -> f64 {
        let denom = self.total_stall_s() + self.played_s;
        if denom <= 0.0 {
            // Never played: all stall by convention (join never completed).
            return 1.0;
        }
        (self.total_stall_s() / denom).max(0.0)
    }

    /// Mean playback latency, if sampled.
    pub fn mean_latency_s(&self) -> Option<f64> {
        if self.latency_samples.is_empty() {
            return None;
        }
        Some(self.latency_samples.iter().sum::<f64>() / self.latency_samples.len() as f64)
    }

    /// Number of stall events.
    pub fn n_stalls(&self) -> u32 {
        self.stalls.len() as u32
    }

    /// Mean stall event duration (what the RTMP player reports in
    /// playbackMeta).
    pub fn avg_stall_s(&self) -> Option<f64> {
        if self.stalls.is_empty() {
            return None;
        }
        Some(self.total_stall_s() / self.stalls.len() as f64)
    }

    /// Records the player's QoE events and metrics into a per-session
    /// trace: a `session.join` event at first render (or a `never_joined`
    /// counter), one `player.stall` event per stall, and the matching
    /// join-time/stall-duration histograms. `session_start` anchors the
    /// join event on the sim-time axis.
    pub fn record_events(&self, session_start: SimTime, trace: &mut pscp_obs::Trace) {
        use pscp_obs::{Field, MS_BUCKETS};
        match self.join_time {
            Some(join) => {
                let ms = (join.as_secs_f64() * 1000.0) as u64;
                trace.count("player", "joined", 1);
                trace.observe("player", "join_time_ms", &MS_BUCKETS, ms);
                if trace.is_enabled() {
                    trace.event(
                        (session_start + join).as_micros(),
                        "player",
                        "session.join",
                        vec![("join_ms", Field::U(ms))],
                    );
                }
            }
            None => trace.count("player", "never_joined", 1),
        }
        for stall in &self.stalls {
            let ms = (stall.duration.as_secs_f64() * 1000.0) as u64;
            trace.count("player", "stalls", 1);
            trace.observe("player", "stall_ms", &MS_BUCKETS, ms);
            if trace.is_enabled() {
                trace.event(
                    stall.start.as_micros(),
                    "player",
                    "player.stall",
                    vec![("duration_ms", Field::U(ms))],
                );
            }
            // Stall intervals as parentless spans: they happen *after* the
            // join, so they live beside the join tree, not inside it.
            trace.span(
                stall.start.as_micros(),
                (stall.start + stall.duration).as_micros(),
                "player",
                "player.stall",
                None,
            );
        }
    }
}

/// Runs the buffer simulation over arrivals (must be time-ordered) for a
/// session `[start, start+session)`.
pub fn run_playback(
    start: SimTime,
    session: SimDuration,
    config: PlayerConfig,
    arrivals: &[MediaArrival],
) -> PlayerLog {
    let end = start + session;
    let mut log = PlayerLog {
        join_time: None,
        stalls: Vec::new(),
        played_s: 0.0,
        // At most one sample per arrival (each pushes at most one anchor).
        latency_samples: Vec::with_capacity(arrivals.len()),
        session_s: session.as_secs_f64(),
    };
    // State machine over wall time.
    #[derive(PartialEq)]
    enum State {
        Buffering,
        Playing,
        Stalled(SimTime),
    }
    let mut state = State::Buffering;
    let mut buffered_end_s = 0.0_f64; // media horizon
    let mut play_pos_s = 0.0_f64; // media position being rendered
    let mut last_wall = start;
    // Capture-time anchors for latency: (media position, capture wall).
    // One is pushed only when it extends the buffered horizon, so positions
    // strictly increase and the played-through ones are always a prefix.
    let mut anchors = Anchors { list: Vec::with_capacity(arrivals.len()), next: 0 };

    let advance = |state: &mut State,
                   play_pos_s: &mut f64,
                   buffered_end_s: f64,
                   from: SimTime,
                   to: SimTime,
                   log: &mut PlayerLog,
                   anchors: &mut Anchors| {
        if to <= from {
            return;
        }
        if let State::Playing = state {
            let wall_dt = to.saturating_since(from).as_secs_f64();
            let media_avail = buffered_end_s - *play_pos_s;
            if wall_dt < media_avail {
                // Plays through the whole interval.
                let new_pos = *play_pos_s + wall_dt;
                anchors.emit_latency(*play_pos_s, new_pos, from, log);
                *play_pos_s = new_pos;
                log.played_s += wall_dt;
            } else {
                // Plays until the buffer runs dry, then stalls.
                let stall_at = from + SimDuration::from_secs_f64(media_avail);
                anchors.emit_latency(*play_pos_s, buffered_end_s, from, log);
                log.played_s += media_avail;
                *play_pos_s = buffered_end_s;
                *state = State::Stalled(stall_at);
            }
        }
    };

    for a in arrivals {
        if a.at >= end {
            break;
        }
        let at = a.at.max(start);
        // Move wall time forward under the old buffer state.
        advance(&mut state, &mut play_pos_s, buffered_end_s, last_wall, at, &mut log, &mut anchors);
        last_wall = at;
        if a.media_end_s > buffered_end_s {
            if let Some(cw) = a.capture_wall_s {
                anchors.list.push((a.media_end_s, cw));
            }
            buffered_end_s = a.media_end_s;
        }
        // State transitions on new data.
        match state {
            State::Buffering => {
                if buffered_end_s - play_pos_s >= config.initial_buffer_s {
                    state = State::Playing;
                    log.join_time = Some(at.saturating_since(start));
                }
            }
            State::Stalled(since) => {
                if buffered_end_s - play_pos_s >= config.resume_buffer_s {
                    log.stalls.push(Stall { start: since, duration: at.saturating_since(since) });
                    state = State::Playing;
                }
            }
            State::Playing => {}
        }
    }
    // Run out the clock to session end.
    advance(&mut state, &mut play_pos_s, buffered_end_s, last_wall, end, &mut log, &mut anchors);
    // A stall still open at the end counts up to the session boundary.
    if let State::Stalled(since) = state {
        log.stalls.push(Stall { start: since, duration: end.saturating_since(since) });
    }
    log
}

/// Latency anchors in ascending media position; `list[next..]` are the ones
/// playback has not reached yet.
struct Anchors {
    list: Vec<(f64, f64)>,
    next: usize,
}

impl Anchors {
    /// Emits latency samples for anchors crossed while playing media from
    /// `from_pos` to `to_pos` starting at wall `wall_from`, and retires
    /// every anchor at or before `to_pos`.
    fn emit_latency(
        &mut self,
        from_pos: f64,
        to_pos: f64,
        wall_from: SimTime,
        log: &mut PlayerLog,
    ) {
        while let Some(&(pos, cap_wall)) = self.list.get(self.next).filter(|a| a.0 <= to_pos) {
            if pos > from_pos {
                let render_wall = wall_from.as_secs_f64() + (pos - from_pos);
                log.latency_samples.push(render_wall - cap_wall);
            }
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_micros((s * 1e6) as u64)
    }

    fn arrival(at: f64, media: f64) -> MediaArrival {
        MediaArrival { at: t(at), media_end_s: media, capture_wall_s: None }
    }

    const SESSION: SimDuration = SimDuration::from_secs(60);

    #[test]
    fn smooth_stream_no_stalls() {
        // Media arrives 2 s ahead of real time, covering the whole session.
        let arrivals: Vec<MediaArrival> =
            (0..130).map(|i| arrival(i as f64 * 0.5, i as f64 * 0.5 + 2.0)).collect();
        let log = run_playback(SimTime::ZERO, SESSION, PlayerConfig::rtmp(), &arrivals);
        assert_eq!(log.n_stalls(), 0);
        assert!(log.stall_ratio() < 1e-9);
        let join = log.join_time.unwrap().as_secs_f64();
        assert!(join < 0.1, "join={join}");
        assert!((log.played_s - 60.0).abs() < 1.0, "played={}", log.played_s);
    }

    #[test]
    fn join_waits_for_initial_buffer() {
        // Media trickles in at real-time rate: buffer reaches 1.6 s of
        // media only at wall ~1.6+.
        let arrivals: Vec<MediaArrival> =
            (0..700).map(|i| arrival(i as f64 * 0.1, i as f64 * 0.1)).collect();
        let log = run_playback(SimTime::ZERO, SESSION, PlayerConfig::rtmp(), &arrivals);
        let join = log.join_time.unwrap().as_secs_f64();
        assert!((1.5..2.0).contains(&join), "join={join}");
    }

    #[test]
    fn gap_in_arrivals_causes_one_stall() {
        let mut arrivals = Vec::new();
        // 10 s of media delivered promptly...
        for i in 0..100 {
            arrivals.push(arrival(i as f64 * 0.1, i as f64 * 0.1 + 2.0));
        }
        // ...then silence until t=18 (buffer holds ~12 s media: dry at ~12),
        // then delivery resumes with plenty.
        for i in 0..420 {
            let at = 18.0 + i as f64 * 0.1;
            arrivals.push(arrival(at, at + 2.0));
        }
        let log = run_playback(SimTime::ZERO, SESSION, PlayerConfig::rtmp(), &arrivals);
        assert_eq!(log.n_stalls(), 1, "stalls={:?}", log.stalls);
        let stall = log.stalls[0];
        assert!((stall.start.as_secs_f64() - 12.0).abs() < 0.3, "start={}", stall.start);
        let dur = stall.duration.as_secs_f64();
        assert!((5.5..6.5).contains(&dur), "dur={dur}");
        // Ratio ≈ 6 / 60.
        assert!((log.stall_ratio() - 0.1).abs() < 0.02, "ratio={}", log.stall_ratio());
    }

    #[test]
    fn open_stall_truncated_at_session_end() {
        let arrivals: Vec<MediaArrival> =
            (0..30).map(|i| arrival(i as f64 * 0.1, i as f64 * 0.1 + 2.0)).collect();
        // Delivery stops at t=3 with ~5 s media buffered; dry at ~5; stalled
        // until 60.
        let log = run_playback(SimTime::ZERO, SESSION, PlayerConfig::rtmp(), &arrivals);
        assert_eq!(log.n_stalls(), 1);
        let dur = log.stalls[0].duration.as_secs_f64();
        assert!(dur > 50.0, "dur={dur}");
        assert!(log.stall_ratio() > 0.85);
    }

    #[test]
    fn never_joined_is_full_stall_ratio() {
        let arrivals = [arrival(59.0, 0.5)];
        let log = run_playback(SimTime::ZERO, SESSION, PlayerConfig::rtmp(), &arrivals);
        assert!(log.join_time.is_none());
        assert_eq!(log.stall_ratio(), 1.0);
        assert_eq!(log.played_s, 0.0);
    }

    #[test]
    fn hls_larger_buffer_joins_later_but_absorbs_gaps() {
        // Segments of 3.6 s arriving every 3.6 s with one late segment.
        let mut arrivals = Vec::new();
        let mut media = 0.0;
        let mut wall = 0.5;
        for i in 0..20 {
            media += 3.6;
            arrivals.push(arrival(wall, media));
            wall += if i == 4 { 6.5 } else { 3.6 }; // one delayed fetch
        }
        let hls = run_playback(SimTime::ZERO, SESSION, PlayerConfig::hls(), &arrivals);
        let rtmp_like = run_playback(SimTime::ZERO, SESSION, PlayerConfig::rtmp(), &arrivals);
        assert!(hls.join_time.unwrap() > rtmp_like.join_time.unwrap());
        assert!(hls.n_stalls() <= rtmp_like.n_stalls());
    }

    #[test]
    fn latency_samples_from_anchors() {
        // Media captured at wall time equal to its media position (zero
        // encoding delay), delivered 0.3 s later, played with a 1.6 s
        // initial buffer: latency ≈ initial threshold + delivery.
        let arrivals: Vec<MediaArrival> = (0..600)
            .map(|i| {
                let m = i as f64 * 0.1;
                MediaArrival { at: t(m + 0.3), media_end_s: m, capture_wall_s: Some(m) }
            })
            .collect();
        let log = run_playback(SimTime::ZERO, SESSION, PlayerConfig::rtmp(), &arrivals);
        let lat = log.mean_latency_s().unwrap();
        assert!((1.5..2.5).contains(&lat), "lat={lat}");
        assert!(log.latency_samples.len() > 100);
    }

    #[test]
    fn stall_ratio_definition_matches_paper() {
        // stall / (stall + played), not stall / session.
        let log = PlayerLog {
            join_time: Some(SimDuration::from_secs(10)),
            stalls: vec![Stall { start: t(20.0), duration: SimDuration::from_secs(10) }],
            played_s: 40.0,
            latency_samples: vec![],
            session_s: 60.0,
        };
        assert!((log.stall_ratio() - 0.2).abs() < 1e-9);
        assert_eq!(log.avg_stall_s(), Some(10.0));
    }
}
