//! What the two push transports share.
//!
//! RTMP and SRT are the same session up to the wire: the ingest host holds
//! the broadcaster's [`IngestTimeline`], replays it from the latest keyframe
//! and pushes live, video interleaved with audio, while the app's own TCP
//! connections carry bootstrap, chat and pictures through the same
//! bottleneck. All of that is here, once; a transport keeps its handshake,
//! its framing and its loss discipline. Because both run *this* code over
//! the same RNG streams, an RTMP and an SRT session of one seed see
//! identical broadcaster and app traffic — common random numbers by
//! construction.

use crate::broadcaster::IngestTimeline;
use crate::chat_client;
use crate::downlink::SendQueue;
use crate::player::MediaArrival;
use crate::session::SessionCtx;
use pscp_media::bitstream::FramePayload;
use pscp_media::capture::FlowKind;
use pscp_simnet::{SimDuration, SimTime, WallClock};

/// Small per-message server forwarding delay.
const SERVER_FORWARD: SimDuration = SimDuration::from_millis(5);
/// How much already-uploaded media the server replays from (at most one
/// GOP back to the latest keyframe, so playback can start immediately).
const WARMUP: SimDuration = SimDuration::from_secs(6);

/// What the player learns when a video message has fully arrived.
#[derive(Clone, Copy)]
pub(crate) struct Meta {
    /// Media horizon the message extends playback to, seconds.
    pub media_end_s: f64,
    /// Broadcaster wall clock at the frame's capture.
    pub capture_wall_s: f64,
}

impl Meta {
    /// The player-side arrival of the message this belongs to.
    pub fn arrived(self, at: SimTime) -> MediaArrival {
        MediaArrival {
            at,
            media_end_s: self.media_end_s,
            capture_wall_s: Some(self.capture_wall_s),
        }
    }
}

/// What a media message consists of — a descriptor: the transport writes
/// the bytes when the message goes on the wire.
#[derive(Clone, Copy)]
pub(crate) enum Body<'a> {
    /// A coded video frame, body not yet written.
    Video(&'a FramePayload),
    /// An audio frame of this many opaque bytes.
    Audio(usize),
}

impl Body<'_> {
    /// Length of the body in bytes.
    pub fn len(&self) -> usize {
        match *self {
            Body::Video(frame) => frame.size,
            Body::Audio(size) => size,
        }
    }
}

/// One message of the server's media schedule.
pub(crate) struct Media<'a> {
    /// Timestamp relative to the first replayed frame.
    pub ts_ms: u32,
    /// What the message carries.
    pub body: Body<'a>,
    /// What the player learns when it has arrived — video only.
    pub meta: Option<Meta>,
}

/// The server side of a push session: what was ingested, the flows the
/// capture sees and the viewer's downstream path.
pub(crate) struct Push {
    /// What the ingest host received over the session window.
    pub ingest: IngestTimeline,
    /// When the server stops sending.
    pub end: SimTime,
    /// The media flow (RTMP chunk stream / SRT datagrams).
    pub flow_media: usize,
    flow_misc: usize,
    /// The chat WebSocket flow.
    pub flow_chat: usize,
    flow_pics: Option<usize>,
    /// Bottleneck rate of the viewer path, bits/second.
    pub bottleneck: f64,
    /// One-way delay from the ingest host to the viewer.
    pub one_way_down: SimDuration,
    /// Packet size of the viewer path.
    pub mtu: usize,
}

impl Push {
    /// Encodes and uploads the broadcast over the session window and opens
    /// the capture's flows, the media flow first.
    pub fn open(ctx: &mut SessionCtx, kind: FlowKind, media_server: String) -> Push {
        let (join_at, config, server) = (ctx.join_at, ctx.config, ctx.server.location());
        let end = join_at + config.watch + SimDuration::from_secs(2);
        let ingest = IngestTimeline::simulate(
            ctx.broadcast,
            &config.uplink,
            join_at - WARMUP..end,
            ctx.broadcast.location.propagation_to(&server),
            &ctx.broadcaster_clock,
            &mut ctx.enc_rng,
            &mut ctx.clock_rng,
        );
        let tap = &mut ctx.tap;
        Push {
            ingest,
            end,
            flow_media: tap.open_flow(kind, media_server),
            flow_misc: tap.open_flow(FlowKind::AppMisc, "api.periscope.tv"),
            flow_chat: tap.open_flow(FlowKind::Chat, "chatman.periscope.tv"),
            flow_pics: config
                .chat_on
                .then(|| tap.open_flow(FlowKind::PictureHttp, "s3.amazonaws.com")),
            bottleneck: config.network.bottleneck_bps(),
            one_way_down: server.propagation_to(&config.network.location)
                + config.network.access_rtt / 2,
            mtu: config.network.mtu.max(256),
        }
    }

    /// Queues the app bootstrap and returns when it will have finished
    /// downloading at the bottleneck rate.
    pub fn queue_bootstrap<W>(&self, ctx: &mut SessionCtx, sends: &mut SendQueue<W>) -> SimTime {
        let starts = ctx.join_at + ctx.config.network.access_rtt;
        let bytes = ctx.bootstrap_bytes();
        sends.push(starts, self.flow_misc, &[], 0, bytes);
        starts + SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bottleneck)
    }

    /// Queues chat + pictures (§5.1: JSON flows even with chat off; pictures
    /// only with chat on). The chat *pane* — and with it the avatar
    /// downloads — only renders once the stream view is up, so picture
    /// fetches cannot precede `bootstrap_done`; the WebSocket connects
    /// earlier. Queued after the transport's own sends: equal-time sends go
    /// on the wire in queue order.
    pub fn queue_chat<W>(
        &self,
        ctx: &mut SessionCtx,
        bootstrap_done: SimTime,
        sends: &mut SendQueue<W>,
    ) {
        let (from, config) = (ctx.join_at, ctx.config);
        let chat =
            chat_client::events(ctx.broadcast, from, from + config.watch, config, &mut ctx.net_rng);
        sends.push_chats(&chat, |ev| {
            let flow = chat_client::flow_of(ev.kind, self.flow_chat, self.flow_pics)?;
            Some((if flow == self.flow_chat { ev.at } else { ev.at.max(bootstrap_done) }, flow))
        });
    }

    /// The media messages the server sends a viewer whose stream starts at
    /// `from`: a backlog burst from the latest keyframe ingested by then,
    /// then live push, each forwarded the moment the server has it; audio
    /// interleaved in pts order. Ends with the first video frame due at or
    /// after [`Push::end`].
    pub fn media_schedule<'a, 'c>(
        &'a self,
        from: SimTime,
        clock: &'c WallClock,
    ) -> MediaSchedule<'a, 'c> {
        let vi = self.ingest.replay_start(from);
        let first_pts = self.ingest.video.get(vi).map_or(0, |f| f.frame.pts_ms);
        let audio = &self.ingest.audio;
        let ai = audio.iter().position(|&(_, pts, _)| pts >= first_pts).unwrap_or(audio.len());
        MediaSchedule { push: self, clock, from, first_pts, frame_s: 1.0 / self.ingest.fps, vi, ai }
    }
}

/// Iterator behind [`Push::media_schedule`]: `(send instant, message)`.
pub(crate) struct MediaSchedule<'a, 'c> {
    push: &'a Push,
    clock: &'c WallClock,
    from: SimTime,
    first_pts: u32,
    frame_s: f64,
    vi: usize,
    ai: usize,
}

impl<'a> Iterator for MediaSchedule<'a, '_> {
    type Item = (SimTime, Media<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let (ingest, end) = (&self.push.ingest, self.push.end);
        loop {
            let frame = ingest.video.get(self.vi)?;
            let send_at = frame.a_in.max(self.from) + SERVER_FORWARD;
            if send_at >= end {
                return None;
            }
            let pts_ms = frame.frame.pts_ms;
            // Any audio due before this frame goes first.
            if let Some(&(a_in, pts, size)) = ingest.audio.get(self.ai).filter(|a| a.1 <= pts_ms) {
                self.ai += 1;
                let send_at = a_in.max(self.from) + SERVER_FORWARD;
                if send_at < end {
                    let ts_ms = pts.saturating_sub(self.first_pts);
                    return Some((send_at, Media { ts_ms, body: Body::Audio(size), meta: None }));
                }
                continue;
            }
            self.vi += 1;
            let meta = Meta {
                media_end_s: (pts_ms - self.first_pts) as f64 / 1000.0 + self.frame_s,
                capture_wall_s: self.clock.read_exact(frame.t_cap),
            };
            let ts_ms = pts_ms.saturating_sub(self.first_pts);
            return Some((
                send_at,
                Media { ts_ms, body: Body::Video(&frame.frame), meta: Some(meta) },
            ));
        }
    }
}
