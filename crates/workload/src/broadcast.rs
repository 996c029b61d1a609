//! Broadcast records: identity, place, time, content and device.

use crate::viewers;
use pscp_media::audio::AudioBitrate;
use pscp_media::content::ContentClass;
use pscp_media::encoder::GopPattern;
use pscp_simnet::{GeoPoint, SimDuration, SimTime};

/// A 13-character broadcast id, as the Periscope API uses (§3, Table 1:
/// "List of 13-character broadcast IDs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BroadcastId(pub u64);

/// The 13-character textual form of a [`BroadcastId`], held on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdText([u8; 13]);

impl IdText {
    /// The text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("alphabet is ASCII")
    }
}

impl BroadcastId {
    /// Renders the 13-character base-32 textual form without allocating.
    pub fn text(&self) -> IdText {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz234567";
        let mut chars = [b'a'; 13];
        let mut v = self.0;
        for slot in chars.iter_mut().rev() {
            *slot = ALPHABET[(v % 32) as usize];
            v /= 32;
        }
        IdText(chars)
    }

    /// Renders the 13-character base-32 textual form.
    pub fn as_string(&self) -> String {
        self.text().as_str().to_string()
    }

    /// Parses the textual form back.
    pub fn parse(s: &str) -> Option<BroadcastId> {
        if s.len() != 13 {
            return None;
        }
        let mut v: u64 = 0;
        for c in s.bytes() {
            let d = match c {
                b'a'..=b'z' => c - b'a',
                b'2'..=b'7' => c - b'2' + 26,
                _ => return None,
            };
            v = v.checked_mul(32)?.checked_add(d as u64)?;
        }
        Some(BroadcastId(v))
    }
}

/// Broadcaster device capability class.
///
/// §5.2 speculates the ~20% of streams without B frames come from "old
/// hardware \[that\] might not support them for encoding"; 2 streams were
/// intra-only. The two measurement phones (Galaxy S3/S4) differ only in
/// achievable frame rate — the one statistically significant difference the
/// paper's Welch tests found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceProfile {
    /// Current-generation phone: full IBP encoding at ~30 fps.
    Modern,
    /// Older encoder without B-frame support.
    NoBFrames,
    /// Ancient/odd encoder producing intra-only streams.
    IntraOnly,
}

impl DeviceProfile {
    /// GOP pattern this device encodes.
    pub fn gop(self) -> GopPattern {
        match self {
            DeviceProfile::Modern => GopPattern::Ibp,
            DeviceProfile::NoBFrames => GopPattern::IpOnly,
            DeviceProfile::IntraOnly => GopPattern::IOnly,
        }
    }

    /// Nominal capture frame rate.
    pub fn fps(self) -> f64 {
        match self {
            DeviceProfile::Modern => 30.0,
            DeviceProfile::NoBFrames => 27.0,
            DeviceProfile::IntraOnly => 24.0,
        }
    }
}

/// One broadcast in the synthetic population.
#[derive(Debug, Clone)]
pub struct Broadcast {
    /// Unique id.
    pub id: BroadcastId,
    /// Broadcaster location.
    pub location: GeoPoint,
    /// Nearest city name (diagnostics).
    pub city: &'static str,
    /// Start instant.
    pub start: SimTime,
    /// Total live duration.
    pub duration: SimDuration,
    /// Content class driving the encoder's complexity process.
    pub content: ContentClass,
    /// Broadcaster device.
    pub device: DeviceProfile,
    /// Audio bitrate choice (32 or 64 kbps, §5.2).
    pub audio: AudioBitrate,
    /// Ground-truth average concurrent viewers (0 for the no-viewer class).
    pub avg_viewers: f64,
    /// Whether a replay is available after the broadcast ends.
    pub replay_available: bool,
    /// Whether the broadcast is private (invisible to the crawler).
    pub private: bool,
    /// Whether the broadcaster disclosed a location (map-discoverable).
    pub location_public: bool,
    /// Seed for the per-broadcast viewer trajectory noise.
    pub viewer_seed: u64,
    /// Encoder rate-control target, bits/second. Broadcasts vary widely
    /// (Fig 6a: bitrates from under 100 kbps to over 1 Mbps).
    pub target_bitrate_bps: f64,
}

impl Broadcast {
    /// End instant.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Whether the broadcast is live at `t`.
    pub fn is_live_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }

    /// Whether the crawler can discover it on the map at `t`.
    pub fn discoverable_at(&self, t: SimTime) -> bool {
        self.is_live_at(t) && !self.private && self.location_public
    }

    /// Concurrent viewer count at `t` (0 when not live).
    pub fn viewers_at(&self, t: SimTime) -> u32 {
        if !self.is_live_at(t) || self.avg_viewers <= 0.0 {
            return 0;
        }
        let progress =
            t.saturating_since(self.start).as_secs_f64() / self.duration.as_secs_f64().max(1e-9);
        viewers::viewers_at(self.avg_viewers, progress, self.viewer_seed, t)
    }

    /// The one count [`viewers_at`](Self::viewers_at) gives at every
    /// instant of `[first, last]`, when bounds prove there is one
    /// ([`viewers::over`]). Both instants must be live and in one minute.
    pub fn viewers_over(&self, first: SimTime, last: SimTime) -> Option<u32> {
        debug_assert!(self.is_live_at(first) && self.is_live_at(last) && first <= last);
        debug_assert_eq!(first.as_micros() / 60_000_000, last.as_micros() / 60_000_000);
        if self.avg_viewers <= 0.0 {
            return Some(0);
        }
        // One division for both ends: within a few ulps of the progress
        // `viewers_at` computes, which `viewers::over`'s margin covers.
        let per_micro = 1.0 / self.duration.as_micros() as f64;
        let progress = |t: SimTime| t.saturating_since(self.start).as_micros() as f64 * per_micro;
        viewers::over(self.avg_viewers, progress(first), progress(last), self.viewer_seed, first)
    }

    /// Local hour of day at the given instant, using the longitude-derived
    /// timezone and taking `utc_start_hour` as the UTC hour at sim t=0.
    pub fn local_hour_at(&self, t: SimTime, utc_start_hour: f64) -> f64 {
        let utc_hour = (utc_start_hour + t.as_secs_f64() / 3600.0).rem_euclid(24.0);
        (utc_hour + self.location.utc_offset_hours() as f64).rem_euclid(24.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broadcast() -> Broadcast {
        Broadcast {
            id: BroadcastId(12345),
            location: GeoPoint::new(41.01, 28.98),
            city: "Istanbul",
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(300),
            content: ContentClass::Indoor,
            device: DeviceProfile::Modern,
            audio: AudioBitrate::Kbps32,
            avg_viewers: 10.0,
            replay_available: true,
            private: false,
            location_public: true,
            viewer_seed: 7,
            target_bitrate_bps: 300_000.0,
        }
    }

    #[test]
    fn id_string_is_13_chars_and_roundtrips() {
        for v in [0u64, 1, 12345, u64::MAX / 32] {
            let id = BroadcastId(v);
            let s = id.as_string();
            assert_eq!(s.len(), 13);
            assert_eq!(BroadcastId::parse(&s), Some(id));
        }
    }

    #[test]
    fn id_parse_rejects_bad_input() {
        assert_eq!(BroadcastId::parse("short"), None);
        assert_eq!(BroadcastId::parse("ABCDEFGHIJKLM"), None); // uppercase
        assert_eq!(BroadcastId::parse("aaaaaaaaaaaa1"), None); // '1' not in alphabet
    }

    #[test]
    fn ids_distinct() {
        assert_ne!(BroadcastId(1).as_string(), BroadcastId(2).as_string());
    }

    #[test]
    fn liveness_window() {
        let b = broadcast();
        assert!(!b.is_live_at(SimTime::from_secs(99)));
        assert!(b.is_live_at(SimTime::from_secs(100)));
        assert!(b.is_live_at(SimTime::from_secs(399)));
        assert!(!b.is_live_at(SimTime::from_secs(400)));
        assert_eq!(b.end(), SimTime::from_secs(400));
    }

    #[test]
    fn discoverability_respects_privacy() {
        let mut b = broadcast();
        let t = SimTime::from_secs(200);
        assert!(b.discoverable_at(t));
        b.private = true;
        assert!(!b.discoverable_at(t));
        b.private = false;
        b.location_public = false;
        assert!(!b.discoverable_at(t));
    }

    #[test]
    fn viewers_zero_outside_and_for_unpopular() {
        let mut b = broadcast();
        assert_eq!(b.viewers_at(SimTime::from_secs(50)), 0);
        b.avg_viewers = 0.0;
        assert_eq!(b.viewers_at(SimTime::from_secs(200)), 0);
    }

    #[test]
    fn viewers_positive_when_live() {
        let b = broadcast();
        let mid = SimTime::from_secs(250);
        assert!(b.viewers_at(mid) > 0);
    }

    #[test]
    fn local_hour_istanbul() {
        let b = broadcast();
        // Istanbul is UTC+2 by longitude (28.98/15 ≈ 1.93 → 2).
        let h = b.local_hour_at(SimTime::from_secs(100), 12.0);
        assert!((h - 14.0).abs() < 0.1, "h={h}");
    }

    #[test]
    fn device_profiles() {
        assert_eq!(DeviceProfile::Modern.gop(), GopPattern::Ibp);
        assert_eq!(DeviceProfile::NoBFrames.gop(), GopPattern::IpOnly);
        assert_eq!(DeviceProfile::IntraOnly.gop(), GopPattern::IOnly);
        assert!(DeviceProfile::Modern.fps() > DeviceProfile::NoBFrames.fps());
    }
}
