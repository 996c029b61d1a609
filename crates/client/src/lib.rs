#![warn(missing_docs)]

//! The mobile viewing client and the automated measurement harness.
//!
//! §2 of the paper describes the setup this crate reproduces: Galaxy S3/S4
//! phones reverse-tethered to a Linux desktop with >100 Mbps connectivity,
//! optional `tc` bandwidth limits, a script pushing the "Teleport" button to
//! watch a random broadcast for exactly 60 seconds while tcpdump captures
//! traffic and a mitmproxy tap records playbackMeta uploads.
//!
//! * [`device`] — viewer phone profiles and the tethered network path;
//! * [`player`] — the playback buffer model: join time, stalls, playback
//!   latency (the quantities of Figures 3–4);
//! * [`uplink`] — the *broadcaster's* mobile uplink, whose glitches are what
//!   make even unthrottled viewers stall occasionally (Fig 3a);
//! * [`session`] — one viewing session, whichever transport carries it:
//!   configuration and outcome types, and the driver every session runs
//!   through — prelude (RNG streams, clocks, ingest host, start record,
//!   capture tap), transport, epilogue (playback, join phases, end record,
//!   outcome). [`session::run`], [`session::run_traced`] and
//!   [`session::run_uncaptured`] take the
//!   [`Protocol`](pscp_service::select::Protocol) to use, and
//!   [`session::analyze_session`] measures the stream a capture holds;
//! * `rtmp_session` / `hls_session` / `srt_session` (crate-internal) — the
//!   three transports under the driver: what genuinely differs between them, and
//!   nothing else. SRT is the what-if unreliable-transport study (NAK/ARQ
//!   inside a latency window, DESIGN.md §12), selected only by
//!   [`SessionConfig::transport`](session::SessionConfig::transport);
//! * [`broadcaster`] — the broadcasting phone and the encode + upload
//!   timeline the ingest server sees; `push` (crate-internal) is the server
//!   side and app traffic the two push transports share;
//! * [`replay_session`] — VOD playback of recorded broadcasts (§5.3's
//!   "Video on (not live)" scenario), finishing through the same epilogue;
//! * [`chat_client`] — chat-on traffic: WebSocket messages plus uncached
//!   profile-picture downloads (§5.1's 0.5 → 3.5 Mbps blow-up);
//! * [`retry`] — capped-exponential-backoff policies driving API retries,
//!   stream reconnects, and HLS segment re-fetches under injected faults;
//! * [`teleport`] — the automation loop generating a session dataset, each
//!   session's capture analysed in the worker that recorded it, and the
//!   one executor every plan of sessions runs through.

pub mod broadcaster;
pub mod chat_client;
pub mod device;
mod downlink;
mod hls_session;
pub mod player;
mod push;
pub mod replay_session;
pub mod retry;
mod rtmp_session;
pub mod session;
mod srt_session;
pub mod teleport;
pub mod uplink;

pub use device::{NetworkSetup, ViewerDevice};
pub use player::{PlayerConfig, PlayerLog};
pub use retry::{RetryClass, RetryPolicy};
pub use session::{SessionConfig, SessionOutcome};
pub use teleport::{Teleport, TeleportConfig};

#[cfg(test)]
mod fixture;
