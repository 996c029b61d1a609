#![warn(missing_docs)]

//! Deterministic discrete-event simulation core for the Periscope
//! reproduction.
//!
//! Everything in the reproduction runs on a virtual clock ([`SimTime`],
//! microsecond ticks) driven by a time-ordered [`event::EventQueue`]. All
//! randomness derives from one seed through [`rng::RngFactory`], which hands
//! out independent, label-addressed streams so adding a consumer never
//! perturbs existing ones.
//!
//! Independent work items (sessions, sweep points, crawls) fan out across
//! OS threads through [`par::indexed_map`], which reassembles results in
//! input order so thread count never changes any output byte.
//!
//! The network model is deliberately a *flow/packet hybrid*: media bytes move
//! through [`link::Link`]s in MTU-sized packets with FIFO queueing and
//! serialization delay, shaped by an optional [`shaper::TokenBucket`] (the
//! `tc` bandwidth limiter from the paper's testbed), while control traffic is
//! modeled at message granularity. [`tcp::TcpModel`] adds slow-start and
//! congestion-window dynamics for HLS segment fetches, where the first-window
//! behaviour dominates join time. [`clock::WallClock`] models imperfect NTP
//! sync, which the paper notes produced "small negative time differences" in
//! delivery-latency measurements.

pub mod clock;
pub mod datagram;
pub mod dist;
pub mod event;
pub mod fault;
pub mod geo;
pub mod link;
pub mod par;
pub mod rng;
pub mod shaper;
pub mod tcp;
pub mod time;

pub use clock::WallClock;
pub use datagram::{DatagramLink, DgramDelivery};
pub use event::EventQueue;
pub use fault::{FaultConfig, FaultRng, GroundTruthWindow, OUTAGE_SLOT_US};
pub use geo::{GeoPoint, GeoRect};
pub use link::Link;
pub use rng::{CounterRng, Rng, RngFactory};
pub use shaper::TokenBucket;
pub use tcp::TcpModel;
pub use time::{SimDuration, SimTime};
