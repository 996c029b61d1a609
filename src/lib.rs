//! # periscope-repro
//!
//! Umbrella crate for the reproduction of *"A First Look at Quality of Mobile
//! Live Streaming Experience: the Case of Periscope"* (Siekkinen, Masala,
//! Kämäräinen — ACM IMC 2016).
//!
//! The original study measured a live service that no longer exists. This
//! workspace rebuilds both sides of the experiment as a deterministic
//! simulation over virtual time:
//!
//! * the Periscope-like platform itself ([`service`]) — geo-indexed broadcast
//!   discovery API with rate limiting, RTMP ingest, popularity-triggered HLS
//!   distribution through a CDN, chat with profile-picture side traffic;
//! * the measurement apparatus ([`crawler`], [`client`]) — deep/targeted map
//!   crawls, automated 60-second "Teleport" viewing sessions, packet capture;
//! * the analysis pipeline ([`qoe`], [`media`], [`energy`], [`stats`]) —
//!   stall/latency QoE metrics, reconstruction-based video quality analysis,
//!   and a smartphone power model.
//!
//! Each paper figure and table has a corresponding experiment in
//! [`core::experiments`]; see `DESIGN.md` for the full index and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use periscope_repro::core::{Lab, LabConfig};
//!
//! // A small world: everything is driven by one seed, so runs reproduce.
//! let mut lab = Lab::new(LabConfig::small(42));
//! let sessions = lab.run_viewing_sessions(20);
//! assert_eq!(sessions.len(), 20);
//! ```

pub use pscp_client as client;
pub use pscp_core as core;
pub use pscp_crawler as crawler;
pub use pscp_energy as energy;
pub use pscp_media as media;
pub use pscp_obs as obs;
pub use pscp_proto as proto;
pub use pscp_qoe as qoe;
pub use pscp_service as service;
pub use pscp_simnet as simnet;
pub use pscp_simnet::par;
pub use pscp_stats as stats;
pub use pscp_workload as workload;
