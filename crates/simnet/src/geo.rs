//! Geography: points, rectangles (the `mapGeoBroadcastFeed` query shape),
//! great-circle distances, propagation-delay estimation, and timezones.
//!
//! The crawler explores the world by querying rectangular areas and zooming
//! by quadtree subdivision (§4); the service places broadcasts at
//! coordinates and picks ingest servers by proximity (§5). Both sides share
//! this module.

use crate::time::SimDuration;

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// Signal propagation speed in fibre, km per millisecond (~2/3 c), plus a
/// routing-inflation factor folded in.
const FIBRE_KM_PER_MS: f64 = 200.0;
const ROUTE_INFLATION: f64 = 1.6;

/// A point on Earth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, [-90, 90].
    pub lat: f64,
    /// Longitude in degrees, [-180, 180].
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude and wrapping longitude into range.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        GeoPoint { lat, lon: lon - 180.0 }
    }

    /// Great-circle distance to `other` in kilometres (haversine).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (la1, lo1) = (self.lat.to_radians(), self.lon.to_radians());
        let (la2, lo2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = la2 - la1;
        let dlon = lo2 - lo1;
        let a = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// One-way network propagation delay estimate to `other`, including
    /// route inflation; floored at 1 ms for last-mile/serialisation noise.
    pub fn propagation_to(&self, other: &GeoPoint) -> SimDuration {
        let km = self.distance_km(other) * ROUTE_INFLATION;
        let ms = (km / FIBRE_KM_PER_MS).max(1.0);
        SimDuration::from_secs_f64(ms / 1e3)
    }

    /// UTC offset in whole hours inferred from longitude (15° per hour).
    /// Real timezones are political; longitude is the right fidelity for the
    /// paper's "local time of day" analysis (Fig 2b).
    pub fn utc_offset_hours(&self) -> i32 {
        (self.lon / 15.0).round() as i32
    }
}

/// An axis-aligned geographic rectangle (no antimeridian wrap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoRect {
    /// Southern edge.
    pub south: f64,
    /// Western edge.
    pub west: f64,
    /// Northern edge.
    pub north: f64,
    /// Eastern edge.
    pub east: f64,
}

impl GeoRect {
    /// The whole world.
    pub const WORLD: GeoRect = GeoRect { south: -90.0, west: -180.0, north: 90.0, east: 180.0 };

    /// Creates a rectangle; panics if the edges are inverted.
    pub fn new(south: f64, west: f64, north: f64, east: f64) -> Self {
        assert!(north >= south, "north must be >= south");
        assert!(east >= west, "east must be >= west");
        GeoRect { south, west, north, east }
    }

    /// Whether `p` lies inside (inclusive south/west, exclusive north/east,
    /// except at the world's edges so nothing falls off the map).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        let lat_ok =
            p.lat >= self.south && (p.lat < self.north || (self.north >= 90.0 && p.lat <= 90.0));
        let lon_ok =
            p.lon >= self.west && (p.lon < self.east || (self.east >= 180.0 && p.lon <= 180.0));
        lat_ok && lon_ok
    }

    /// Center point.
    pub fn center(&self) -> GeoPoint {
        GeoPoint { lat: (self.south + self.north) / 2.0, lon: (self.west + self.east) / 2.0 }
    }

    /// Splits into four quadrants (SW, SE, NW, NE) — the deep crawl's zoom
    /// step.
    pub fn quadrants(&self) -> [GeoRect; 4] {
        let c = self.center();
        [
            GeoRect::new(self.south, self.west, c.lat, c.lon),
            GeoRect::new(self.south, c.lon, c.lat, self.east),
            GeoRect::new(c.lat, self.west, self.north, c.lon),
            GeoRect::new(c.lat, c.lon, self.north, self.east),
        ]
    }

    /// Angular "area" in square degrees (a fine zoom-level proxy).
    pub fn deg_area(&self) -> f64 {
        (self.north - self.south) * (self.east - self.west)
    }

    /// The quadtree cell key of `p` at `depth` levels below the world
    /// rectangle: two bits per level, the quadrant index of
    /// [`GeoRect::quadrants`] (SW=0, SE=1, NW=2, NE=3), most significant
    /// level first. Because `contains` is inclusive on south/west edges,
    /// exclusive on interior north/east edges and inclusive on the world's
    /// own rim, the `4^depth` cells of a level partition the world: every
    /// point — poles and antimeridian included — lands in exactly one cell.
    pub fn quad_cell(p: &GeoPoint, depth: u8) -> u16 {
        assert!(depth <= 7, "quad keys carry at most 7 levels in 16 bits");
        let mut rect = GeoRect::WORLD;
        let mut key = 0u16;
        for _ in 0..depth {
            let quads = rect.quadrants();
            let qi = quads
                .iter()
                .position(|q| q.contains(p))
                .expect("quadrants partition their parent rectangle");
            key = (key << 2) | qi as u16;
            rect = quads[qi];
        }
        key
    }

    /// The rectangle of quadtree cell `key` at `depth` (inverse of
    /// [`GeoRect::quad_cell`] up to edge conventions).
    pub fn quad_rect(key: u16, depth: u8) -> GeoRect {
        assert!(depth <= 7, "quad keys carry at most 7 levels in 16 bits");
        let mut rect = GeoRect::WORLD;
        for level in (0..depth).rev() {
            let qi = ((key >> (2 * level)) & 3) as usize;
            rect = rect.quadrants()[qi];
        }
        rect
    }
}

/// Quadtree depth whose cell count equals `shards` (1 → 0, 4 → 1, 16 → 2,
/// 64 → 3); `None` unless the count is a power of four.
pub fn quad_depth_for(shards: usize) -> Option<u8> {
    let mut depth = 0u8;
    let mut cells = 1usize;
    while cells < shards && depth < 7 {
        cells *= 4;
        depth += 1;
    }
    (cells == shards).then_some(depth)
}

/// Depth of the reference cell grid (16 cells): the fixed level at which
/// the scale run's cross-cell metrics and census and the per-cell alerting
/// rings are reported, whatever partition a run uses.
pub const REF_DEPTH: u8 = 2;

/// The [`REF_DEPTH`] cells' quadkeys, indexed by cell key (digits SW=0,
/// SE=1, NW=2, NE=3, most significant level first): static strings, so a
/// per-cell ring key costs no allocation.
pub const REF_QUADKEYS: [&str; 16] = [
    "00", "01", "02", "03", "10", "11", "12", "13", "20", "21", "22", "23", "30", "31", "32", "33",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_helsinki_to_turin() {
        // Helsinki (60.17, 24.94) to Turin (45.07, 7.69): ~2030 km by
        // haversine on the mean-radius sphere.
        let hel = GeoPoint::new(60.17, 24.94);
        let tur = GeoPoint::new(45.07, 7.69);
        let d = hel.distance_km(&tur);
        assert!((d - 2030.0).abs() < 10.0, "d={d}");
    }

    #[test]
    fn distance_zero_to_self() {
        let p = GeoPoint::new(10.0, 20.0);
        assert!(p.distance_km(&p) < 1e-9);
    }

    #[test]
    fn distance_antipodal_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.distance_km(&b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }

    #[test]
    fn propagation_floor_is_one_ms() {
        let p = GeoPoint::new(1.0, 1.0);
        assert_eq!(p.propagation_to(&p), SimDuration::from_millis(1));
    }

    #[test]
    fn propagation_transatlantic_tens_of_ms() {
        let nyc = GeoPoint::new(40.7, -74.0);
        let lon = GeoPoint::new(51.5, -0.1);
        let d = nyc.propagation_to(&lon).as_millis();
        assert!((20..80).contains(&d), "d={d}ms");
    }

    #[test]
    fn utc_offsets() {
        assert_eq!(GeoPoint::new(60.0, 25.0).utc_offset_hours(), 2); // Finland-ish
        assert_eq!(GeoPoint::new(37.0, -122.0).utc_offset_hours(), -8); // SF
        assert_eq!(GeoPoint::new(0.0, 0.0).utc_offset_hours(), 0);
    }

    #[test]
    fn point_constructor_wraps() {
        let p = GeoPoint::new(95.0, 190.0);
        assert_eq!(p.lat, 90.0);
        assert!((p.lon - (-170.0)).abs() < 1e-9);
    }

    #[test]
    fn rect_contains() {
        let r = GeoRect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(&GeoPoint::new(5.0, 5.0)));
        assert!(r.contains(&GeoPoint::new(0.0, 0.0)));
        assert!(!r.contains(&GeoPoint::new(10.0, 5.0))); // north edge exclusive
        assert!(!r.contains(&GeoPoint::new(-1.0, 5.0)));
    }

    #[test]
    fn world_edges_inclusive() {
        assert!(GeoRect::WORLD.contains(&GeoPoint::new(90.0, 180.0)));
        assert!(GeoRect::WORLD.contains(&GeoPoint::new(-90.0, -180.0)));
    }

    #[test]
    fn quadrants_partition_points() {
        let r = GeoRect::new(0.0, 0.0, 10.0, 10.0);
        let quads = r.quadrants();
        // Every interior point is in exactly one quadrant.
        for lat in [1.0, 4.9, 5.0, 9.9] {
            for lon in [1.0, 4.9, 5.0, 9.9] {
                let p = GeoPoint::new(lat, lon);
                let n = quads.iter().filter(|q| q.contains(&p)).count();
                assert_eq!(n, 1, "point {p:?}");
            }
        }
    }

    #[test]
    fn quadrants_quarter_area() {
        let r = GeoRect::new(0.0, 0.0, 8.0, 8.0);
        for q in r.quadrants() {
            assert!((q.deg_area() - r.deg_area() / 4.0).abs() < 1e-9);
        }
    }
}
