//! `run_playback` against the implementation it replaced.
//!
//! The player used to rebuild its latency-anchor list on every media
//! arrival (one allocation and one pass over all anchors each time); it now
//! retires played-through anchors with a front cursor. The old code is kept
//! here verbatim as the reference, and every field of the `PlayerLog` must
//! match it bit for bit over arbitrary arrival lists.

use pscp_check::{check, ensure, Gen};
use pscp_client::player::{run_playback, MediaArrival, PlayerConfig, PlayerLog, Stall};
use pscp_simnet::{SimDuration, SimTime};

/// The pre-cursor `run_playback`, verbatim.
fn reference_playback(
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
        latency_samples: Vec::new(),
        session_s: session.as_secs_f64(),
    };
    #[derive(PartialEq)]
    enum State {
        Buffering,
        Playing,
        Stalled(SimTime),
    }
    let mut state = State::Buffering;
    let mut buffered_end_s = 0.0_f64;
    let mut play_pos_s = 0.0_f64;
    let mut last_wall = start;
    let mut anchors: Vec<(f64, f64)> = Vec::new();

    let advance = |state: &mut State,
                   play_pos_s: &mut f64,
                   buffered_end_s: f64,
                   from: SimTime,
                   to: SimTime,
                   log: &mut PlayerLog,
                   anchors: &mut Vec<(f64, f64)>| {
        if to <= from {
            return;
        }
        if let State::Playing = state {
            let wall_dt = to.saturating_since(from).as_secs_f64();
            let media_avail = buffered_end_s - *play_pos_s;
            if wall_dt < media_avail {
                let new_pos = *play_pos_s + wall_dt;
                emit_latency(anchors, *play_pos_s, new_pos, from, log);
                *play_pos_s = new_pos;
                log.played_s += wall_dt;
            } else {
                let stall_at = from + SimDuration::from_secs_f64(media_avail);
                emit_latency(anchors, *play_pos_s, buffered_end_s, from, log);
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
        advance(&mut state, &mut play_pos_s, buffered_end_s, last_wall, at, &mut log, &mut anchors);
        last_wall = at;
        if a.media_end_s > buffered_end_s {
            if let Some(cw) = a.capture_wall_s {
                anchors.push((a.media_end_s, cw));
            }
            buffered_end_s = a.media_end_s;
        }
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
    advance(&mut state, &mut play_pos_s, buffered_end_s, last_wall, end, &mut log, &mut anchors);
    if let State::Stalled(since) = state {
        log.stalls.push(Stall { start: since, duration: end.saturating_since(since) });
    }
    log
}

/// The pre-cursor `emit_latency`, verbatim.
fn emit_latency(
    anchors: &mut Vec<(f64, f64)>,
    from_pos: f64,
    to_pos: f64,
    wall_from: SimTime,
    log: &mut PlayerLog,
) {
    let mut kept = Vec::new();
    for &(pos, cap_wall) in anchors.iter() {
        if pos > from_pos && pos <= to_pos {
            let render_wall = wall_from.as_secs_f64() + (pos - from_pos);
            log.latency_samples.push(render_wall - cap_wall);
        } else if pos > to_pos {
            kept.push((pos, cap_wall));
        }
    }
    *anchors = kept;
}

const START: SimTime = SimTime::from_secs(100);
const SESSION: SimDuration = SimDuration::from_secs(60);

/// A time-ordered arrival list. Half the cases live on a quarter-second
/// grid (exact in binary), where playback positions land *exactly* on
/// anchors — the `pos == from_pos` / `pos == to_pos` edges; the rest is
/// arbitrary. Either way: arrivals before the session start and past its
/// end, media horizons that go backwards, and arrivals with no capture
/// stamp.
fn arb_arrivals(g: &mut Gen) -> Vec<MediaArrival> {
    let on_grid = g.bool();
    let mut at_us = g.u64(90_000_000..110_000_000);
    let mut media_s = 0.0_f64;
    g.vec(0..400, |g| {
        if on_grid {
            at_us = at_us / 250_000 * 250_000 + 250_000 * g.u64(0..6);
            media_s += 0.25 * g.i64(-2..8) as f64;
        } else {
            at_us += g.u64(0..1_500_000);
            media_s += g.f64(-0.5..1.5);
        }
        MediaArrival {
            at: SimTime::from_micros(at_us),
            media_end_s: media_s,
            capture_wall_s: if g.choice(5) == 0 { None } else { Some(at_us as f64 / 1e6 - 1.5) },
        }
    })
}

#[test]
fn cursor_playback_equals_the_rebuilding_one() {
    check(
        "cursor_playback_equals_the_rebuilding_one",
        |g: &mut Gen| (g.choice(2), arb_arrivals(g)),
        |(player, arrivals)| {
            let config = [PlayerConfig::rtmp(), PlayerConfig::hls()][*player];
            let got = run_playback(START, SESSION, config, arrivals);
            let want = reference_playback(START, SESSION, config, arrivals);
            ensure!(
                got.join_time == want.join_time,
                "join {:?} {:?}",
                got.join_time,
                want.join_time
            );
            ensure!(got.stalls == want.stalls, "stalls {:?} {:?}", got.stalls, want.stalls);
            ensure!(got.played_s.to_bits() == want.played_s.to_bits(), "played_s");
            ensure!(got.session_s.to_bits() == want.session_s.to_bits(), "session_s");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            ensure!(
                bits(&got.latency_samples) == bits(&want.latency_samples),
                "latency samples: {} vs {}",
                got.latency_samples.len(),
                want.latency_samples.len()
            );
            Ok(())
        },
    );
}

/// The property is not vacuous: the generated lists do play, stall and
/// sample latency, grid cases included (there every position is a multiple
/// of a quarter second, so play positions coincide with anchors and the
/// samples are whole quarter seconds).
#[test]
fn generated_arrivals_exercise_the_player() {
    let (mut joined, mut stalled, mut sampled, mut on_grid) = (0, 0, 0, 0);
    for seed in 0..64 {
        let mut g = Gen::new(pscp_check::Tape::recording(seed));
        let arrivals = arb_arrivals(&mut g);
        let log = run_playback(START, SESSION, PlayerConfig::rtmp(), &arrivals);
        joined += usize::from(log.join_time.is_some());
        stalled += usize::from(!log.stalls.is_empty());
        sampled += usize::from(!log.latency_samples.is_empty());
        on_grid += usize::from(log.latency_samples.iter().any(|l| (l * 4.0).fract() == 0.0));
    }
    assert!(
        joined > 20 && stalled > 10 && sampled > 20 && on_grid > 5,
        "{joined} {stalled} {sampled} {on_grid}"
    );
}
