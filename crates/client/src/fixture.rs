//! The one broadcast the unit tests of this crate watch.

use pscp_media::audio::AudioBitrate;
use pscp_media::content::ContentClass;
use pscp_simnet::{GeoPoint, SimDuration, SimTime};
use pscp_workload::broadcast::{Broadcast, BroadcastId, DeviceProfile};

/// A public half-hour indoor broadcast from Istanbul with ~15 viewers and a
/// replay, live over `[100 s, 1900 s)`; id and viewer seed are `seed`.
pub(crate) fn broadcast(seed: u64) -> Broadcast {
    Broadcast {
        id: BroadcastId(seed),
        location: GeoPoint::new(41.01, 28.98), // Istanbul
        city: "Istanbul",
        start: SimTime::from_secs(100),
        duration: SimDuration::from_secs(1800),
        content: ContentClass::Indoor,
        device: DeviceProfile::Modern,
        audio: AudioBitrate::Kbps32,
        avg_viewers: 15.0,
        replay_available: true,
        private: false,
        location_public: true,
        viewer_seed: seed,
        target_bitrate_bps: 300_000.0,
    }
}
