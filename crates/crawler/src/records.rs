//! Observation records the crawler accumulates.
//!
//! §4's statistics are computed from *observations*, not ground truth:
//! duration is "calculated by subtracting its start time (included in the
//! description) from the timestamp of the last moment the crawler
//! discovered the broadcast", and only broadcasts that ended during the
//! crawl count ("must not have been discovered during the last 60s of a
//! crawl"). This module implements exactly that bookkeeping.

use pscp_service::api::BroadcastDescription;
use pscp_simnet::{SimDuration, SimTime};
use pscp_workload::broadcast::BroadcastId;
use std::collections::HashMap;

/// Everything the crawler knows about one broadcast.
#[derive(Debug, Clone)]
pub struct BroadcastObservation {
    /// Broadcast id.
    pub id: BroadcastId,
    /// Start time from the description, seconds.
    pub start_s: f64,
    /// First sighting.
    pub first_seen: SimTime,
    /// Most recent sighting.
    pub last_seen: SimTime,
    /// Number of viewer-count samples.
    pub viewer_samples: u32,
    /// Sum of sampled viewer counts (for the average).
    pub viewer_sum: u64,
    /// Replay availability from the latest description.
    pub replay_available: bool,
    /// Advertised coordinates.
    pub lat: f64,
    /// Advertised longitude.
    pub lng: f64,
}

impl BroadcastObservation {
    /// Average sampled viewers.
    pub fn avg_viewers(&self) -> f64 {
        if self.viewer_samples == 0 {
            return 0.0;
        }
        self.viewer_sum as f64 / self.viewer_samples as f64
    }

    /// §4 duration estimate: last sighting minus advertised start.
    pub fn duration_estimate_s(&self) -> f64 {
        (self.last_seen.as_secs_f64() - self.start_s).max(0.0)
    }

    /// Local start hour from longitude timezone and the UTC hour at t=0.
    pub fn local_start_hour(&self, utc_start_hour: f64) -> f64 {
        let utc = (utc_start_hour + self.start_s / 3600.0).rem_euclid(24.0);
        let offset = (self.lng / 15.0).round();
        (utc + offset).rem_euclid(24.0)
    }
}

/// The crawler's observation database. Both readers return rows in
/// ascending id order, the same in every run: the map's own order is
/// per-process random.
#[derive(Debug, Default)]
pub struct ObservationStore {
    map: HashMap<BroadcastId, BroadcastObservation>,
}

impl ObservationStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObservationStore::default()
    }

    /// Ingests one `getBroadcasts` description seen at `now`.
    pub fn ingest(&mut self, desc: &BroadcastDescription, now: SimTime) {
        let entry = self.map.entry(desc.id).or_insert_with(|| BroadcastObservation {
            id: desc.id,
            start_s: desc.start_s,
            first_seen: now,
            last_seen: now,
            viewer_samples: 0,
            viewer_sum: 0,
            replay_available: desc.available_for_replay,
            lat: desc.lat,
            lng: desc.lng,
        });
        entry.last_seen = entry.last_seen.max(now);
        entry.viewer_samples += 1;
        entry.viewer_sum += desc.n_viewers as u64;
        entry.replay_available = desc.available_for_replay;
    }

    /// Marks a map sighting without a full description (keeps `last_seen`
    /// fresh for broadcasts whose detail query was rate-limited away).
    pub fn sight(&mut self, id: BroadcastId, now: SimTime) {
        if let Some(entry) = self.map.get_mut(&id) {
            entry.last_seen = entry.last_seen.max(now);
        }
    }

    /// Number of distinct broadcasts observed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `id` has been seen.
    pub fn contains(&self, id: BroadcastId) -> bool {
        self.map.contains_key(&id)
    }

    /// All observations, in ascending id order.
    pub fn all(&self) -> impl Iterator<Item = &BroadcastObservation> {
        self.by_id(|_| true).into_iter()
    }

    /// §4's "ended during the crawl" filter: broadcasts not sighted within
    /// `grace` of `crawl_end`, in ascending id order.
    pub fn ended_during(
        &self,
        crawl_end: SimTime,
        grace: SimDuration,
    ) -> Vec<&BroadcastObservation> {
        let cutoff = crawl_end - grace;
        self.by_id(|o| o.last_seen < cutoff)
    }

    /// The observations `keep` accepts, sorted by id. Ingest is the hot
    /// path and is hashed; the readers run once per crawl.
    fn by_id(&self, keep: impl Fn(&BroadcastObservation) -> bool) -> Vec<&BroadcastObservation> {
        let mut rows: Vec<&BroadcastObservation> = self.map.values().filter(|o| keep(o)).collect();
        rows.sort_unstable_by_key(|o| o.id);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(id: u64, start_s: f64, viewers: u32) -> BroadcastDescription {
        BroadcastDescription {
            id: BroadcastId(id),
            start_s,
            n_viewers: viewers,
            available_for_replay: false,
            live: true,
            lat: 41.0,
            lng: 29.0,
        }
    }

    #[test]
    fn ingest_tracks_first_and_last() {
        let mut store = ObservationStore::new();
        store.ingest(&desc(1, 50.0, 3), SimTime::from_secs(100));
        store.ingest(&desc(1, 50.0, 7), SimTime::from_secs(400));
        let o = store.all().next().unwrap();
        assert_eq!(o.first_seen, SimTime::from_secs(100));
        assert_eq!(o.last_seen, SimTime::from_secs(400));
        assert_eq!(o.avg_viewers(), 5.0);
        assert_eq!(o.duration_estimate_s(), 350.0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn sight_refreshes_last_seen_only() {
        let mut store = ObservationStore::new();
        store.ingest(&desc(1, 0.0, 2), SimTime::from_secs(10));
        store.sight(BroadcastId(1), SimTime::from_secs(99));
        let o = store.all().next().unwrap();
        assert_eq!(o.last_seen, SimTime::from_secs(99));
        assert_eq!(o.viewer_samples, 1);
        // Sighting an unknown id is a no-op.
        store.sight(BroadcastId(2), SimTime::from_secs(100));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn ended_during_applies_grace() {
        let mut store = ObservationStore::new();
        store.ingest(&desc(1, 0.0, 2), SimTime::from_secs(100)); // ended early
        store.ingest(&desc(2, 0.0, 2), SimTime::from_secs(990)); // still live
        let ended = store.ended_during(SimTime::from_secs(1000), SimDuration::from_secs(60));
        assert_eq!(ended.len(), 1);
        assert_eq!(ended[0].id, BroadcastId(1));
    }

    /// Rows come out in id order whatever order they went in: what
    /// `observations.csv` lists and what the §4 statistics sum over is the
    /// same in every run.
    #[test]
    fn readers_return_ascending_ids() {
        let mut store = ObservationStore::new();
        for id in (1..=40).rev() {
            store.ingest(&desc(id, 0.0, 2), SimTime::from_secs(id * 10));
        }
        let ids = |rows: Vec<&BroadcastObservation>| -> Vec<u64> {
            rows.iter().map(|o| o.id.0).collect()
        };
        let ascending: Vec<u64> = (1..=40).collect();
        assert_eq!(ids(store.all().collect()), ascending);
        let ended = store.ended_during(SimTime::from_secs(1000), SimDuration::from_secs(60));
        assert_eq!(ids(ended), ascending);
    }

    #[test]
    fn local_start_hour_uses_longitude() {
        let mut store = ObservationStore::new();
        store.ingest(&desc(1, 3600.0, 2), SimTime::from_secs(3700));
        let o = store.all().next().unwrap();
        // start at utc_hour 12 + 1h = 13:00 UTC; lng 29 → +2h → 15:00.
        assert!((o.local_start_hour(12.0) - 15.0).abs() < 0.01);
    }

    #[test]
    fn zero_sample_avg_is_zero() {
        let o = BroadcastObservation {
            id: BroadcastId(1),
            start_s: 0.0,
            first_seen: SimTime::ZERO,
            last_seen: SimTime::ZERO,
            viewer_samples: 0,
            viewer_sum: 0,
            replay_available: false,
            lat: 0.0,
            lng: 0.0,
        };
        assert_eq!(o.avg_viewers(), 0.0);
    }
}
