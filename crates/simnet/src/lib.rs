#![warn(missing_docs)]

//! Deterministic simulation substrate for the Periscope reproduction.
//!
//! Nothing here runs an event loop. A session is a pure function of its
//! seed: it lays out its sends as a straight-line schedule over virtual
//! time ([`SimTime`], microsecond ticks), merges them into send-time order
//! and pumps them through one FIFO [`link::Link`]. All randomness derives
//! from one seed through [`rng::RngFactory`], which hands out independent,
//! label-addressed streams so adding a consumer never perturbs existing
//! ones.
//!
//! Independent work items (sessions, sweep points, crawls) fan out across
//! OS threads through [`par::indexed_map`], which reassembles results in
//! input order so thread count never changes any output byte.
//!
//! The network model is deliberately a *flow/packet hybrid*: media bytes move
//! through [`link::Link`]s in MTU-sized packets with FIFO queueing and
//! serialization delay, while control traffic is modeled at message
//! granularity. The `tc` bandwidth limit of the paper's testbed is the
//! link's rate — a plain rate on an unbounded FIFO, with no burst allowance
//! and no finite queue. [`tcp::TcpModel`] adds slow-start and
//! congestion-window dynamics for HLS segment fetches, where the first-window
//! behaviour dominates join time. [`clock::WallClock`] models imperfect NTP
//! sync, which the paper notes produced "small negative time differences" in
//! delivery-latency measurements.

pub mod clock;
pub mod datagram;
pub mod dist;
pub mod fault;
pub mod geo;
pub mod link;
pub mod par;
pub mod rng;
pub mod tcp;
pub mod time;

pub use clock::WallClock;
pub use datagram::{DatagramLink, DgramDelivery};
pub use fault::{FaultConfig, FaultRng, GroundTruthWindow, OUTAGE_SLOT_US};
pub use geo::{GeoPoint, GeoRect};
pub use link::Link;
pub use rng::{CounterRng, Rng, RngFactory};
pub use tcp::TcpModel;
pub use time::{SimDuration, SimTime};
