//! Population generation: who broadcasts, where, when, for how long, and
//! for how many viewers.

use crate::broadcast::{Broadcast, BroadcastId, DeviceProfile};
use crate::cities::{City, CITIES};
use crate::diurnal;
use pscp_media::audio::AudioBitrate;
use pscp_media::content::ContentClass;
use pscp_simnet::dist;
use pscp_simnet::rng::Rng;
use pscp_simnet::{GeoPoint, GeoRect, RngFactory, SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Configuration of the synthetic population.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Simulated wall span. Crawls and sessions happen inside this window.
    pub window: SimDuration,
    /// Mean *discoverable* broadcast arrivals per second at unit diurnal
    /// activity, worldwide. The paper's deep crawls find 1K–4K live
    /// broadcasts; with ~6.5-minute mean durations, 5–10 arrivals/s lands
    /// in that range.
    pub arrivals_per_sec: f64,
    /// UTC hour of day at simulation t = 0.
    pub utc_start_hour: f64,
    /// Probability a broadcast has no viewers at all (paper: >10%).
    pub zero_viewer_prob: f64,
    /// Probability a broadcast is private (invisible to crawls).
    pub private_prob: f64,
    /// Probability a public broadcast hides its location.
    pub location_hidden_prob: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            window: SimDuration::from_secs(4 * 3600),
            arrivals_per_sec: 7.0,
            utc_start_hour: 12.0,
            zero_viewer_prob: 0.16,
            private_prob: 0.08,
            location_hidden_prob: 0.10,
        }
    }
}

impl PopulationConfig {
    /// A small population for tests and examples (minutes, not hours).
    pub fn small() -> Self {
        PopulationConfig {
            window: SimDuration::from_secs(1200),
            arrivals_per_sec: 1.5,
            ..Default::default()
        }
    }

    /// A medium population: enough statistical mass for distribution tests
    /// at a fraction of the default's generation cost.
    pub fn medium() -> Self {
        PopulationConfig {
            window: SimDuration::from_secs(2 * 3600),
            arrivals_per_sec: 4.0,
            ..Default::default()
        }
    }
}

/// The generated population with a time index for live queries.
#[derive(Debug)]
pub struct Population {
    /// All broadcasts, sorted by start time.
    pub broadcasts: Vec<Broadcast>,
    /// Configuration used to generate it.
    pub config: PopulationConfig,
    /// Minute-bucket index: bucket `i` lists indices of broadcasts live at
    /// any point within minute `i`.
    buckets: Vec<Vec<u32>>,
    /// Same index restricted to non-private broadcasts — the candidate set
    /// of every Teleport pick, and of a map query too wide for
    /// [`cells`](Population::cells) — precomputed so the hot sampling path
    /// never re-filters the full bucket per session. Empty when no
    /// broadcast is private (a crawler's view): then the buckets are the
    /// public buckets, and the world holds one copy.
    public_buckets: Vec<Vec<u32>>,
    /// Per minute, its public bucket filed by grid cell, built by the first
    /// map query that reads the minute (DESIGN.md §15).
    cells: Vec<OnceLock<CellIndex>>,
    /// Per minute, the Teleport weights of its public bucket, built by the
    /// first pick that reads the minute (DESIGN.md §15).
    picks: Vec<OnceLock<PickTable>>,
    /// Id → index lookup (the directory answers getBroadcasts by id).
    by_id: HashMap<BroadcastId, u32, BuildHasherDefault<IdHasher>>,
}

/// Side of a map-index cell in degrees: a deep-crawl cell at its deepest
/// (1.4° × 0.7°) spans at most 2 rows × 3 columns of them.
const CELL_DEG: f64 = 1.0;
/// Index cell rows (latitude) and columns (longitude).
const CELL_ROWS: u32 = (180.0 / CELL_DEG) as u32;
const CELL_COLS: u32 = (360.0 / CELL_DEG) as u32;
const _: () = assert!(CELL_ROWS * CELL_COLS <= 1 << 16, "a cell number fits 16 bits");
/// A query whose rect spans more cells than this — more than half of the
/// world — walks the public bucket: reading nearly every broadcast is
/// cheaper in index order than in cell order and needs no sort.
const MAX_INDEXED_CELLS: u32 = CELL_ROWS * CELL_COLS / 2;
/// A bucket position fits the 16 low bits of an index word; a minute with
/// more public broadcasts (≈ 15 times the default world's busiest) walks
/// its bucket.
const MAX_INDEXED_BUCKET: usize = 1 << 16;

/// The index cell along one axis of a coordinate `x` on an axis that starts
/// at `origin` and has `cells` cells. Every step is monotone
/// non-decreasing in `x` (subtracting a constant, dividing by a positive
/// one, `floor`, `clamp`), so a point inside a rect never falls outside the
/// cells of the rect's edges, however its coordinates round.
fn cell_of(x: f64, origin: f64, cells: u32) -> u32 {
    ((x - origin) / CELL_DEG).floor().clamp(0.0, f64::from(cells - 1)) as u32
}

/// One minute's public bucket as `cell << 16 | position` words, ascending,
/// where `position` is the entry's place in the bucket: a row of cells is
/// one contiguous run, and within a cell the positions — and so the
/// population indices — ascend. Four bytes per entry.
#[derive(Debug)]
struct CellIndex(Box<[u32]>);

impl CellIndex {
    fn build(bucket: &[u32], broadcasts: &[Broadcast]) -> CellIndex {
        let mut words: Box<[u32]> = bucket
            .iter()
            .enumerate()
            .map(|(position, &i)| {
                let p = broadcasts[i as usize].location;
                let cell = cell_of(p.lat, -90.0, CELL_ROWS) * CELL_COLS
                    + cell_of(p.lon, -180.0, CELL_COLS);
                cell << 16 | position as u32
            })
            .collect();
        words.sort_unstable();
        CellIndex(words)
    }

    /// The bucket positions filed under cells `first..=last`, which must
    /// lie in one row.
    fn run(&self, first: u32, last: u32) -> impl Iterator<Item = usize> + '_ {
        let start = self.0.partition_point(|&w| w < first << 16);
        let len = self.0[start..].partition_point(|&w| w < (last + 1) << 16);
        self.0[start..start + len].iter().map(|&w| (w & 0xffff) as usize)
    }
}

/// Bucket positions per block of a [`PickTable`]'s sums.
const PICK_BLOCK: usize = 64;

/// One minute's Teleport weights (viewers + 1) over its public bucket. An
/// entry live through the minute whose count bounds prove constant has its
/// weight stated here once; a pick reads every other entry through its
/// `Broadcast`. Two bytes per entry, four more per entry read at pick time,
/// eight per block.
#[derive(Debug)]
struct PickTable {
    /// Per bucket position, the entry's weight while live when bounds prove
    /// it constant over the entry's live part of the minute, else 0.
    weights: Box<[u16]>,
    /// Ascending positions of the entries a pick reads through their
    /// `Broadcast`: those live for only part of the minute (a pick checks
    /// liveness, then takes the stated weight or, if none, evaluates
    /// `Broadcast::viewers_at`) and those live through it with no stated
    /// weight (a count that may change, or one too large for a `u16`).
    varying: Box<[u32]>,
    /// Per block of [`PICK_BLOCK`] positions, the stated weight of its
    /// entries not in `varying`.
    block_sums: Box<[u64]>,
    /// The sum of `block_sums`.
    fixed_total: u64,
}

impl PickTable {
    fn build(bucket: &[u32], broadcasts: &[Broadcast], minute: u64) -> PickTable {
        let first = SimTime::from_micros(minute * 60_000_000);
        let last = SimTime::from_micros((minute + 1) * 60_000_000 - 1);
        let mut weights = Vec::with_capacity(bucket.len());
        let mut varying = Vec::new();
        let mut block_sums = vec![0u64; bucket.len().div_ceil(PICK_BLOCK)];
        for (pos, &i) in bucket.iter().enumerate() {
            let b = &broadcasts[i as usize];
            // The entry's live part of the minute, `[from, to]`; an entry
            // that ends on the minute's first instant has none.
            let from = b.start.max(first);
            if !b.is_live_at(from) {
                weights.push(0);
                continue;
            }
            let to = SimTime::from_micros(b.end().as_micros() - 1).min(last);
            let weight = b
                .viewers_over(from, to)
                .and_then(|v| u16::try_from(v).ok())
                .and_then(|v| v.checked_add(1))
                .unwrap_or(0);
            weights.push(weight);
            if weight > 0 && from == first && to == last {
                block_sums[pos / PICK_BLOCK] += u64::from(weight);
            } else {
                varying.push(pos as u32);
            }
        }
        let fixed_total = block_sums.iter().sum();
        PickTable {
            weights: weights.into(),
            varying: varying.into(),
            block_sums: block_sums.into(),
            fixed_total,
        }
    }
}

/// A pick's view of one [`PickTable`] at one instant.
struct Weigh<'a> {
    table: &'a PickTable,
    bucket: &'a [u32],
    broadcasts: &'a [Broadcast],
    now: SimTime,
}

impl Weigh<'_> {
    /// The weight at `now` of the varying entry at `pos`.
    fn varying(&self, pos: u32) -> u64 {
        let b = &self.broadcasts[self.bucket[pos as usize] as usize];
        if !b.is_live_at(self.now) {
            return 0;
        }
        match self.table.weights[pos as usize] {
            0 => u64::from(b.viewers_at(self.now)) + 1,
            w => u64::from(w),
        }
    }

    /// Per block, the weight at `now` of its varying entries.
    fn varying_sums(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.table.block_sums.len()];
        for &pos in self.table.varying.iter() {
            sums[pos as usize / PICK_BLOCK] += self.varying(pos);
        }
        sums
    }

    /// The positions of block `k` with their weights at `now`.
    fn block(&self, k: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let t = self.table;
        let range = k * PICK_BLOCK..((k + 1) * PICK_BLOCK).min(t.weights.len());
        let mut v = t.varying.partition_point(|&q| (q as usize) < range.start);
        range.map(move |pos| {
            let weight = if t.varying.get(v).is_some_and(|&q| q as usize == pos) {
                v += 1;
                self.varying(pos as u32)
            } else {
                u64::from(t.weights[pos])
            };
            (pos, weight)
        })
    }

    /// The first position whose running weight exceeds `u`, found through
    /// the block sums and then a walk inside one block; the last live
    /// position when none does. Every partial sum is an integer below 2^53,
    /// so it converts to `f64` exactly and each comparison is the one a
    /// cumulative `f64` table would make.
    fn locate(&self, u: f64, varying: &[u64]) -> usize {
        let mut run = 0u64;
        for (k, (&fixed, &now)) in self.table.block_sums.iter().zip(varying).enumerate() {
            if (run + fixed + now) as f64 > u {
                for (pos, w) in self.block(k) {
                    run += w;
                    if run as f64 > u {
                        return pos;
                    }
                }
                unreachable!("the block's sum crosses u");
            }
            run += fixed + now;
        }
        // `u` rounded up to the total: the last live entry.
        let mut sums = self.table.block_sums.iter().zip(varying);
        let k = sums.rposition(|(&fixed, &now)| fixed + now > 0).expect("something is live");
        self.block(k).filter(|&(_, w)| w > 0).last().expect("a live entry").0
    }
}

/// Hashes a [`BroadcastId`] with one multiply. Ids are already spread
/// (`make_broadcast` multiplies a counter by an odd constant), so SipHash
/// buys nothing. A product's low bits depend only on its factors' low bits,
/// and every id has bit 0 set, so [`finish`](Hasher::finish) rotates the
/// well-mixed high half down to where the table picks a bucket.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Population {
    /// Generates a population from a seed factory.
    pub fn generate(config: PopulationConfig, rngs: &RngFactory) -> Population {
        Self::generate_filtered(config, rngs, |_| true)
    }

    /// [`Population::generate`] retaining only broadcasts `keep` accepts.
    ///
    /// The filter is applied *after* each broadcast's draws, and the id
    /// counter advances for rejected broadcasts too, so the retained
    /// broadcasts are field-for-field identical to the corresponding
    /// subset of the unfiltered world — the full world is simply never
    /// materialized. Relative broadcast order (and therefore every index
    /// walk over the minute buckets) is preserved. This is what lets a
    /// crawler borrow a shard-local view of the world: a service built
    /// over the crawler-visible subset answers every crawl request with
    /// the same bytes at a fraction of the resident set (DESIGN.md §13).
    pub fn generate_filtered(
        config: PopulationConfig,
        rngs: &RngFactory,
        keep: impl Fn(&Broadcast) -> bool,
    ) -> Population {
        let mut rng = rngs.stream("workload/population");
        let window_s = config.window.as_secs_f64();
        let total_weight: f64 = CITIES.iter().map(|c| c.weight).sum();
        let mut broadcasts = Vec::new();
        let mut next_id: u64 = 1;
        for city in CITIES {
            let city_rate = config.arrivals_per_sec * city.weight / total_weight;
            // Thinned Poisson process: candidates at peak rate, accepted by
            // the local diurnal activity at the candidate instant.
            let peak = diurnal::peak_activity();
            let mut t = 0.0;
            loop {
                t += dist::exponential(&mut rng, city_rate * peak);
                if t >= window_s {
                    break;
                }
                let utc_hour = (config.utc_start_hour + t / 3600.0).rem_euclid(24.0);
                let local = (utc_hour + city.point().utc_offset_hours() as f64).rem_euclid(24.0);
                if !dist::coin(&mut rng, diurnal::activity(local) / peak) {
                    continue;
                }
                let b = Self::make_broadcast(
                    &config,
                    city,
                    local,
                    SimTime::from_micros((t * 1e6) as u64),
                    next_id,
                    &mut rng,
                );
                next_id += 1;
                if keep(&b) {
                    broadcasts.push(b);
                }
            }
        }
        Self::from_broadcasts(config, broadcasts)
    }

    /// A population of exactly `broadcasts`, whose ids must be distinct,
    /// sorted by start time and indexed for live queries over
    /// `config.window`.
    pub fn from_broadcasts(config: PopulationConfig, mut broadcasts: Vec<Broadcast>) -> Population {
        broadcasts.sort_by_key(|b| b.start);
        let buckets = Self::build_index(&broadcasts, config.window);
        let public_buckets = if broadcasts.iter().any(|b| b.private) {
            buckets
                .iter()
                .map(|bucket| {
                    bucket.iter().copied().filter(|&i| !broadcasts[i as usize].private).collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let cells = buckets.iter().map(|_| OnceLock::new()).collect();
        let picks = buckets.iter().map(|_| OnceLock::new()).collect();
        let by_id = broadcasts.iter().enumerate().map(|(i, b)| (b.id, i as u32)).collect();
        Population { broadcasts, config, buckets, public_buckets, cells, picks, by_id }
    }

    fn make_broadcast<R: Rng + ?Sized>(
        config: &PopulationConfig,
        city: &'static City,
        local_hour: f64,
        start: SimTime,
        id: u64,
        rng: &mut R,
    ) -> Broadcast {
        // Location: city center + a few tens of km of jitter (roughly 0.3°).
        let location = GeoPoint::new(
            city.lat + dist::normal(rng, 0.0, 0.25),
            city.lon + dist::normal(rng, 0.0, 0.25),
        );
        let zero_viewers = dist::coin(rng, config.zero_viewer_prob);
        // §4: zero-viewer broadcasts average ~2 min; the rest ~13 min with a
        // heavy tail ("some broadcasts lasting for over a day").
        let duration_s = if zero_viewers {
            dist::lognormal(rng, 95f64.ln(), 0.9).clamp(10.0, 4.0 * 3600.0)
        } else {
            // Median ~4 min, heavy tail to a day-plus: the paper's crawls
            // measured 13 min *average* for viewed broadcasts even with
            // crawl-window truncation, which needs a long tail.
            dist::lognormal(rng, 240f64.ln(), 1.5).clamp(20.0, 30.0 * 3600.0)
        };
        // Popularity: lognormal body + rare Pareto tail ("some attract
        // thousands of viewers"), modulated by local-time activity — viewers
        // are local people who are awake (Fig 2b).
        let avg_viewers = if zero_viewers {
            0.0
        } else {
            let body = dist::lognormal(rng, 3.5f64.ln(), 1.3);
            let v = if dist::coin(rng, 0.008) {
                dist::pareto(rng, 150.0, 1.1).min(25_000.0)
            } else {
                body
            };
            (v * diurnal::activity(local_hour)).max(0.05)
        };
        // Replay availability: most zero-viewer broadcasts are not kept
        // (>80% per §4); broadcasters with an audience keep replays more.
        let replay_available =
            if zero_viewers { dist::coin(rng, 0.18) } else { dist::coin(rng, 0.62) };
        let device = match dist::categorical(rng, &[0.795, 0.20, 0.005]) {
            0 => DeviceProfile::Modern,
            1 => DeviceProfile::NoBFrames,
            _ => DeviceProfile::IntraOnly,
        };
        let content = ContentClass::ALL[dist::categorical(
            rng,
            // Talking heads dominate; TV/sports rebroadcasts are common too.
            &[0.35, 0.25, 0.18, 0.12, 0.10],
        )];
        let audio = if dist::coin(rng, 0.6) { AudioBitrate::Kbps32 } else { AudioBitrate::Kbps64 };
        // Rate-control targets vary by broadcaster app version / settings;
        // intra-only encoders need far more bits for the same quality
        // ("poor efficiency coding schemes", §5.2).
        let efficiency = if device == DeviceProfile::IntraOnly { 1.7 } else { 1.0 };
        let target_bitrate_bps = (dist::lognormal(rng, (280_000f64).ln(), 0.45) * efficiency)
            .clamp(80_000.0, 1_300_000.0);
        Broadcast {
            id: BroadcastId(id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
            location,
            city: city.name,
            start,
            duration: SimDuration::from_secs_f64(duration_s),
            content,
            device,
            audio,
            avg_viewers,
            replay_available,
            private: dist::coin(rng, config.private_prob),
            location_public: !dist::coin(rng, config.location_hidden_prob),
            viewer_seed: rng.gen(),
            target_bitrate_bps,
        }
    }

    fn build_index(broadcasts: &[Broadcast], window: SimDuration) -> Vec<Vec<u32>> {
        let minutes = (window.as_secs_f64() / 60.0).ceil() as usize + 1;
        let mut buckets = vec![Vec::new(); minutes];
        for (i, b) in broadcasts.iter().enumerate() {
            let first = (b.start.as_micros() / 60_000_000) as usize;
            let last = (b.end().as_micros() / 60_000_000) as usize;
            for bucket in buckets.iter_mut().take(last.min(minutes - 1) + 1).skip(first) {
                bucket.push(i as u32);
            }
        }
        buckets
    }

    /// The non-private broadcasts live at any point within `minute`.
    fn public_bucket(&self, minute: usize) -> Option<&[u32]> {
        let buckets =
            if self.public_buckets.is_empty() { &self.buckets } else { &self.public_buckets };
        buckets.get(minute).map(Vec::as_slice)
    }

    /// All broadcasts live at `t`.
    pub fn live_at(&self, t: SimTime) -> Vec<&Broadcast> {
        let minute = (t.as_micros() / 60_000_000) as usize;
        match self.buckets.get(minute) {
            Some(bucket) => bucket
                .iter()
                .map(|&i| &self.broadcasts[i as usize])
                .filter(|b| b.is_live_at(t))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Broadcasts live and map-discoverable at `t` inside `rect`, in
    /// broadcast index order — the order of a scan of the full bucket.
    ///
    /// Reads only the 1° index cells `rect` covers, building the minute's
    /// index on first use; a rect over more than half of the world walks
    /// the minute's public bucket instead (private broadcasts are never
    /// discoverable).
    pub fn discoverable_in(&self, rect: &GeoRect, t: SimTime) -> Vec<&Broadcast> {
        let minute = (t.as_micros() / 60_000_000) as usize;
        let Some(bucket) = self.public_bucket(minute) else {
            return Vec::new();
        };
        let keep = |&i: &u32| {
            let b = &self.broadcasts[i as usize];
            b.discoverable_at(t) && rect.contains(&b.location)
        };
        let (south, north) =
            (cell_of(rect.south, -90.0, CELL_ROWS), cell_of(rect.north, -90.0, CELL_ROWS));
        let (west, east) =
            (cell_of(rect.west, -180.0, CELL_COLS), cell_of(rect.east, -180.0, CELL_COLS));
        let covered = (north + 1).saturating_sub(south) * (east + 1).saturating_sub(west);
        let hits: Vec<u32> = if covered > MAX_INDEXED_CELLS || bucket.len() > MAX_INDEXED_BUCKET {
            bucket.iter().copied().filter(keep).collect()
        } else {
            let index =
                self.cells[minute].get_or_init(|| CellIndex::build(bucket, &self.broadcasts));
            let mut hits = Vec::new();
            for row in south..=north {
                let run = index.run(row * CELL_COLS + west, row * CELL_COLS + east);
                hits.extend(run.map(|position| bucket[position]).filter(keep));
            }
            hits.sort_unstable();
            hits
        };
        hits.into_iter().map(|i| &self.broadcasts[i as usize]).collect()
    }

    /// Samples a live, non-private broadcast at `now`, weighted by its
    /// current viewer count plus one (so zero-viewer broadcasts remain
    /// reachable) — the Teleport button's selection model.
    ///
    /// Reads the minute's pick table, building it on first use (≈ 0.2 ms
    /// for the default world's ≈ 3,900-entry bucket). The table states the
    /// weight of every entry live through the minute whose count cannot
    /// change within it (≈ 56 % of a default-world bucket). A pick
    /// reads the rest through their `Broadcast`: it checks the liveness of
    /// those live for only part of the minute and evaluates
    /// `Broadcast::viewers_at` for those with no stated weight. It sums the
    /// weights as integers, draws one `f64` and walks the block sums to the
    /// entry the draw falls in: ≈ 45 µs a pick, against ≈ 145 µs for one
    /// pass evaluating every live entry. That is draw-for-draw the pick of
    /// `dist::categorical` over the live public bucket in bucket order.
    /// Returns `None` (without consuming randomness) when nothing public is
    /// live.
    pub fn sample_live_weighted<R: Rng + ?Sized>(
        &self,
        now: SimTime,
        rng: &mut R,
    ) -> Option<&Broadcast> {
        self.pick(now, &mut || rng.gen::<f64>())
    }

    /// [`Population::sample_live_weighted`] with its one uniform draw
    /// taken from `draw`, the only part that depends on the caller's `Rng`:
    /// the pick is compiled once, not once per `Rng` type in each caller.
    fn pick(&self, now: SimTime, draw: &mut dyn FnMut() -> f64) -> Option<&Broadcast> {
        let minute = (now.as_micros() / 60_000_000) as usize;
        let bucket = self.public_bucket(minute)?;
        let table = self.picks[minute]
            .get_or_init(|| PickTable::build(bucket, &self.broadcasts, minute as u64));
        let weigh = Weigh { table, bucket, broadcasts: &self.broadcasts, now };
        let varying = weigh.varying_sums();
        let total = table.fixed_total + varying.iter().sum::<u64>();
        debug_assert!(total < 1 << 53, "every partial sum is exact in f64");
        if total == 0 {
            return None;
        }
        let u = draw() * total as f64;
        Some(&self.broadcasts[bucket[weigh.locate(u, &varying)] as usize])
    }

    /// Look up a broadcast by id (O(1)).
    pub fn by_id(&self, id: BroadcastId) -> Option<&Broadcast> {
        self.index_of(id).map(|i| &self.broadcasts[i])
    }

    /// Where the broadcast with `id` sits in [`broadcasts`](Population::broadcasts) (O(1)).
    pub fn index_of(&self, id: BroadcastId) -> Option<usize> {
        self.by_id.get(&id).map(|&i| i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_simnet::GeoRect;

    /// Distribution tests are read-only; share one generated population
    /// instead of regenerating ~100K broadcasts per test.
    fn shared() -> &'static Population {
        static POP: std::sync::OnceLock<Population> = std::sync::OnceLock::new();
        POP.get_or_init(|| Population::generate(PopulationConfig::default(), &RngFactory::new(1)))
    }

    #[test]
    fn generates_plausible_count() {
        let p = shared();
        // 4h at ~7/s mean (diurnal-modulated): on the order of 100K.
        assert!(p.broadcasts.len() > 40_000, "n={}", p.broadcasts.len());
        assert!(p.broadcasts.len() < 200_000, "n={}", p.broadcasts.len());
    }

    #[test]
    fn filtered_generation_is_the_exact_subset() {
        let cfg = PopulationConfig::small();
        let rngs = RngFactory::new(9);
        let full = Population::generate(cfg.clone(), &rngs);
        let vis = Population::generate_filtered(cfg, &rngs, |b| !b.private && b.location_public);
        let expect: Vec<&Broadcast> =
            full.broadcasts.iter().filter(|b| !b.private && b.location_public).collect();
        assert!(vis.broadcasts.len() < full.broadcasts.len());
        assert_eq!(vis.broadcasts.len(), expect.len());
        for (got, want) in vis.broadcasts.iter().zip(expect) {
            assert_eq!(got.id, want.id);
            assert_eq!(got.start, want.start);
            assert_eq!(got.duration, want.duration);
            assert_eq!(got.viewer_seed, want.viewer_seed);
        }
        // Nothing in the view is private, so it keeps one copy of its
        // buckets, and its map queries answer as the full world's do.
        assert!(vis.public_buckets.is_empty() && !full.public_buckets.is_empty());
        for t in [SimTime::from_secs(300), SimTime::from_secs(900)] {
            for rect in [GeoRect::WORLD, GeoRect::new(30.0, -10.0, 60.0, 40.0)] {
                let found = |p: &Population| ids(p.discoverable_in(&rect, t));
                assert_eq!(found(&vis), found(&full), "{t:?} {rect:?}");
            }
        }
    }

    #[test]
    fn sorted_by_start() {
        let p = shared();
        for w in p.broadcasts.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn ids_unique() {
        let p = shared();
        let mut ids: Vec<u64> = p.broadcasts.iter().map(|b| b.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), p.broadcasts.len());
    }

    #[test]
    fn duration_distribution_matches_paper() {
        let p = shared();
        let mut durations: Vec<f64> =
            p.broadcasts.iter().map(|b| b.duration.as_secs_f64() / 60.0).collect();
        durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = durations[durations.len() / 2];
        // "roughly half are shorter than 4 minutes"
        assert!((2.5..6.0).contains(&median), "median={median}min");
        // "Most of the broadcasts last between 1 and 10 minutes"
        let between = durations.iter().filter(|&&d| (1.0..10.0).contains(&d)).count() as f64
            / durations.len() as f64;
        assert!(between > 0.5, "between={between}");
        // Long tail exists.
        assert!(*durations.last().unwrap() > 600.0, "max={}", durations.last().unwrap());
    }

    #[test]
    fn viewer_distribution_matches_paper() {
        let p = shared();
        let n = p.broadcasts.len() as f64;
        let zero = p.broadcasts.iter().filter(|b| b.avg_viewers == 0.0).count() as f64 / n;
        // ">10% of broadcasts have no viewers at all" — generated above the
        // paper's observed floor because ranking bias hides some from the
        // crawler.
        assert!((0.13..0.19).contains(&zero), "zero={zero}");
        let under20 = p.broadcasts.iter().filter(|b| b.avg_viewers < 20.0).count() as f64 / n;
        // "Over 90% of broadcasts have less than 20 viewers on average"
        assert!(under20 > 0.87, "under20={under20}");
        // "some attract thousands of viewers"
        assert!(p.broadcasts.iter().any(|b| b.avg_viewers > 1000.0));
    }

    #[test]
    fn zero_viewer_broadcasts_shorter() {
        let p = shared();
        let avg = |pred: &dyn Fn(&Broadcast) -> bool| {
            let xs: Vec<f64> =
                p.broadcasts.iter().filter(|b| pred(b)).map(|b| b.duration.as_secs_f64()).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let zero = avg(&|b| b.avg_viewers == 0.0);
        let nonzero = avg(&|b| b.avg_viewers > 0.0);
        // §4: "avg durations 2min vs 13 min"
        assert!(zero < 250.0, "zero avg {zero}s");
        assert!(nonzero > 450.0, "nonzero avg {nonzero}s");
        assert!(nonzero / zero > 2.5);
    }

    #[test]
    fn zero_viewer_replay_mostly_unavailable() {
        let p = shared();
        let zs: Vec<&Broadcast> = p.broadcasts.iter().filter(|b| b.avg_viewers == 0.0).collect();
        let unavailable =
            zs.iter().filter(|b| !b.replay_available).count() as f64 / zs.len() as f64;
        assert!(unavailable > 0.8, "unavailable={unavailable}");
    }

    #[test]
    fn device_mix_near_published_fractions() {
        let p = shared();
        let n = p.broadcasts.len() as f64;
        let no_b =
            p.broadcasts.iter().filter(|b| b.device == DeviceProfile::NoBFrames).count() as f64 / n;
        assert!((no_b - 0.20).abs() < 0.02, "no_b={no_b}");
        let intra = p.broadcasts.iter().filter(|b| b.device == DeviceProfile::IntraOnly).count();
        assert!(intra > 0);
    }

    #[test]
    fn live_at_index_consistent() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(9));
        for s in [0u64, 300, 600, 900] {
            let t = SimTime::from_secs(s);
            let live = p.live_at(t);
            let brute: Vec<&Broadcast> = p.broadcasts.iter().filter(|b| b.is_live_at(t)).collect();
            assert_eq!(live.len(), brute.len(), "t={s}");
        }
    }

    /// The pick the table replaced: the live public broadcasts in bucket
    /// order, weighed by `viewers_at + 1`, drawn by `dist::categorical`.
    fn oracle_pick<'p>(p: &'p Population, t: SimTime, rng: &mut impl Rng) -> Option<&'p Broadcast> {
        let live: Vec<&Broadcast> = p.live_at(t).into_iter().filter(|b| !b.private).collect();
        if live.is_empty() {
            return None;
        }
        let weights: Vec<f64> = live.iter().map(|b| b.viewers_at(t) as f64 + 1.0).collect();
        Some(live[dist::categorical(rng, &weights)])
    }

    /// Picks at every instant of `instants`, against the oracle drawing
    /// from a stream in lockstep: the same broadcast, the same draws.
    fn assert_picks_match(p: &Population, instants: &[SimTime], label: &str) {
        let f = RngFactory::new(17);
        let (mut fast, mut brute) = (f.stream(label), f.stream(label));
        for &t in instants {
            let picked = p.sample_live_weighted(t, &mut fast).map(|b| b.id);
            let expected = oracle_pick(p, t, &mut brute).map(|b| b.id);
            assert_eq!(picked, expected, "{label} t={t:?}");
            assert_eq!(fast, brute, "{label} t={t:?}: the same draws");
        }
    }

    #[test]
    fn weighted_sampler_matches_bruteforce_categorical() {
        // The sampler must be draw-for-draw compatible with filtering the
        // live bucket and calling dist::categorical on the weights — the
        // Teleport pick it replaced.
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(17));
        let instants = [60u64, 300, 600, 900, 1100].map(SimTime::from_secs);
        assert_picks_match(&p, &instants, "sampler-a");
    }

    #[test]
    fn pick_table_matches_bruteforce_at_paper_scale() {
        let p = shared();
        let window = p.config.window.as_micros();
        let mut rng = RngFactory::new(40).stream("instants");
        let mut instants: Vec<SimTime> = (0..12_000)
            .map(|_| SimTime::from_micros(rng.gen::<u64>() % (window + 120_000_000)))
            .collect();
        let minutes = p.picks.len() as u64 + 1;
        instants.extend((0..=minutes).map(|m| SimTime::from_micros(m * 60_000_000)));
        for b in p.broadcasts.iter().step_by(30) {
            let end = b.end().as_micros();
            instants.extend([b.start.as_micros(), end - 1, end].map(SimTime::from_micros));
        }
        assert!(instants.len() >= 20_000, "{} instants", instants.len());
        // Two halves on two threads, each with its own lockstep streams:
        // the oracle costs a `viewers_at` per live broadcast per instant.
        let (early, late) = instants.split_at(instants.len() / 2);
        std::thread::scope(|s| {
            s.spawn(|| assert_picks_match(p, early, "paper-scale/0"));
            s.spawn(|| assert_picks_match(p, late, "paper-scale/1"));
        });
    }

    #[test]
    fn pick_table_matches_bruteforce_on_a_crawler_view() {
        let rngs = RngFactory::new(9);
        let view = Population::generate_filtered(PopulationConfig::small(), &rngs, |b| !b.private);
        assert!(view.public_buckets.is_empty(), "the view's buckets are its public buckets");
        let instants: Vec<SimTime> = (0..400).map(|k| SimTime::from_secs(3 * k)).collect();
        assert_picks_match(&view, &instants, "crawler-view");
    }

    #[test]
    fn nothing_live_draws_nothing() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(17));
        let first = p.broadcasts[0].start;
        let before = SimTime::from_micros(first.as_micros() - 1);
        assert_eq!(before.as_micros() / 60_000_000, first.as_micros() / 60_000_000);
        let beyond = SimTime::from_micros(p.config.window.as_micros() + 3_600_000_000);
        for t in [before, beyond] {
            let mut rng = RngFactory::new(1).stream("idle");
            let untouched = rng;
            assert!(p.sample_live_weighted(t, &mut rng).is_none(), "t={t:?}");
            assert_eq!(rng, untouched, "no draw at t={t:?}");
        }
        let minute = (before.as_micros() / 60_000_000) as usize;
        assert!(
            p.picks[minute].get().is_some(),
            "a live-less instant of a filled minute reads its table"
        );
    }

    /// Every word is `u64::MAX`, so every `f64` draw is the largest,
    /// 1 − 2^-53: `u` lands in the last live entry's weight.
    struct AllOnes;

    impl Rng for AllOnes {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    /// Draws 1.0, which no `next_u64`-based draw returns: `u` equals the
    /// total, no running sum exceeds it, and the pick clamps.
    struct One;

    impl Rng for One {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }

        fn next_f64(&mut self) -> f64 {
            1.0
        }
    }

    #[test]
    fn a_draw_at_the_top_picks_the_last_live_entry() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(17));
        for s in [60u64, 300, 600, 900, 1100] {
            let t = SimTime::from_secs(s);
            let last = p.live_at(t).into_iter().rfind(|b| !b.private).map(|b| b.id);
            assert!(last.is_some(), "t={s}s");
            for picked in [
                p.sample_live_weighted(t, &mut AllOnes),
                p.sample_live_weighted(t, &mut One),
                oracle_pick(&p, t, &mut AllOnes),
                oracle_pick(&p, t, &mut One),
            ] {
                assert_eq!(picked.map(|b| b.id), last, "t={s}s");
            }
        }
    }

    /// Every word is 0, so every `f64` draw is 0.0: `u` is 0, and only a
    /// running sum that is not 0 exceeds it.
    struct AllZeros;

    impl Rng for AllZeros {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn a_draw_of_zero_picks_the_first_live_entry() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(17));
        let mut dead_first = 0;
        // The last second of each minute, when entries that ended within
        // the minute lie dead ahead of the first live one.
        for s in (59..1200).step_by(60) {
            let t = SimTime::from_secs(s);
            let minute = (t.as_micros() / 60_000_000) as usize;
            let bucket = p.public_bucket(minute).unwrap();
            dead_first += usize::from(!p.broadcasts[bucket[0] as usize].is_live_at(t));
            let first = p.live_at(t).into_iter().find(|b| !b.private).map(|b| b.id);
            assert!(first.is_some(), "t={s}s");
            for picked in
                [p.sample_live_weighted(t, &mut AllZeros), oracle_pick(&p, t, &mut AllZeros)]
            {
                assert_eq!(picked.map(|b| b.id), first, "t={s}s");
            }
        }
        assert!(dead_first > 0, "no minute's bucket opens with a dead entry");
    }

    #[test]
    fn stated_weights_hold_over_their_live_part() {
        let p = shared();
        let mut rng = RngFactory::new(41).stream("classifier");
        let mut stated = 0;
        for minute in (0..p.picks.len()).step_by(37) {
            let bucket = p.public_bucket(minute).unwrap();
            let table = &p.picks[minute];
            let table =
                table.get_or_init(|| PickTable::build(bucket, &p.broadcasts, minute as u64));
            let (first, last) = (minute as u64 * 60_000_000, (minute as u64 + 1) * 60_000_000 - 1);
            let mut instants = |b: &Broadcast| {
                let from = b.start.as_micros().max(first);
                let to = (b.end().as_micros() - 1).min(last);
                let inner: Vec<u64> =
                    (0..1_000).map(|_| from + rng.gen::<u64>() % (to - from + 1)).collect();
                [from, to].into_iter().chain(inner).map(SimTime::from_micros)
            };
            for (pos, &w) in table.weights.iter().enumerate().step_by(53).filter(|&(_, &w)| w > 0) {
                let b = &p.broadcasts[bucket[pos] as usize];
                for t in instants(b) {
                    assert_eq!(b.viewers_at(t) + 1, u32::from(w), "{:?} at {t:?}", b.id);
                }
                stated += 1;
            }
        }
        assert!(stated > 150, "{stated} stated");
    }

    #[test]
    fn weighted_sampler_never_returns_private_or_dead() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(18));
        let mut rng = RngFactory::new(18).stream("sampler-b");
        let t = SimTime::from_secs(600);
        for _ in 0..200 {
            let b = p.sample_live_weighted(t, &mut rng).expect("mid-window has live casts");
            assert!(b.is_live_at(t) && !b.private);
        }
    }

    #[test]
    fn discoverable_filters_privacy_and_rect() {
        let p = shared();
        let t = SimTime::from_secs(3600);
        let world = p.discoverable_in(&GeoRect::WORLD, t);
        assert!(!world.is_empty());
        assert!(world.iter().all(|b| !b.private && b.location_public));
        // A rect over the Pacific has almost nothing.
        let pacific = GeoRect::new(-10.0, -160.0, 10.0, -140.0);
        assert!(p.discoverable_in(&pacific, t).len() < world.len() / 20);
    }

    /// The oracle of a map query: every broadcast live at `t`, filtered by
    /// the query's own predicate, in broadcast order.
    fn oracle(p: &Population, rect: &GeoRect, t: SimTime) -> Vec<BroadcastId> {
        let live = p.live_at(t).into_iter();
        live.filter(|b| b.discoverable_at(t) && rect.contains(&b.location)).map(|b| b.id).collect()
    }

    fn ids(found: Vec<&Broadcast>) -> Vec<BroadcastId> {
        found.into_iter().map(|b| b.id).collect()
    }

    #[test]
    fn index_answers_every_quadtree_cell_to_depth_8() {
        let p = shared();
        for t in [SimTime::from_secs(3600), SimTime::from_micros(2 * 3600 * 1_000_000 + 17)] {
            // A child's oracle is its parent's filtered by the child's rect:
            // quadrants partition their parent, so that is the live filter.
            let mut level = vec![(GeoRect::WORLD, oracle(p, &GeoRect::WORLD, t))];
            for depth in 0..=8 {
                let mut next = Vec::new();
                for (rect, want) in &level {
                    assert_eq!(&ids(p.discoverable_in(rect, t)), want, "depth {depth} {rect:?}");
                    if depth < 8 {
                        for q in rect.quadrants() {
                            let sub = want
                                .iter()
                                .filter(|&&id| q.contains(&p.by_id(id).unwrap().location))
                                .copied()
                                .collect();
                            next.push((q, sub));
                        }
                    }
                }
                level = next;
            }
        }
    }

    /// A small world whose broadcasts sit on index cell corners, on cell
    /// edges, a few ulps below them and on the world's rim; the index is
    /// not built yet.
    fn snapped_world() -> Population {
        let mut p = Population::generate(PopulationConfig::small(), &RngFactory::new(23));
        for (i, b) in p.broadcasts.iter_mut().enumerate() {
            let (lat, lon) = (b.location.lat, b.location.lon);
            b.location = match i % 6 {
                0 => GeoPoint { lat: lat.round(), lon: lon.round() },
                1 => GeoPoint { lat: lat.round(), lon },
                2 => GeoPoint { lat, lon: lon.floor() },
                3 => GeoPoint { lat: [90.0, -90.0][i / 6 % 2], lon: [180.0, -180.0][i / 12 % 2] },
                4 => GeoPoint {
                    lat: lat.round() - f64::EPSILON * 64.0,
                    lon: lon.round() - f64::EPSILON * 256.0,
                },
                _ => continue,
            };
        }
        p
    }

    #[test]
    fn index_agrees_on_cell_boundaries_world_edges_and_zero_area_rects() {
        let p = snapped_world();
        let t = SimTime::from_secs(600);
        let mut rects = vec![
            GeoRect::WORLD,
            GeoRect::new(89.0, 179.0, 90.0, 180.0),
            GeoRect::new(-90.0, -180.0, -89.0, -179.0),
            GeoRect::new(90.0, 180.0, 90.0, 180.0),
            GeoRect::new(-90.0, -180.0, -90.0, -180.0),
            GeoRect::new(90.0, -180.0, 90.0, 180.0),
            GeoRect::new(-90.0, 180.0, 90.0, 180.0),
            GeoRect::new(-100.0, -200.0, 100.0, 200.0),
            GeoRect::new(-90.0, -180.0, -90.0 + 1e-9, 180.0),
        ];
        for b in p.discoverable_in(&GeoRect::WORLD, t) {
            let (lat, lon) = (b.location.lat, b.location.lon);
            // Whole-degree rects around the point, one cell and a few
            // cells wide; rects with an edge on the point; zero-area rects.
            let (s, w) = (lat.floor(), lon.floor());
            rects.push(GeoRect::new(s, w, s + 1.0, w + 1.0));
            rects.push(GeoRect::new(s - 1.0, w - 2.0, s + 2.0, w + 3.0));
            rects.push(GeoRect::new(lat, lon, (lat + 1.0).min(90.0), (lon + 1.0).min(180.0)));
            rects.push(GeoRect::new((lat - 1.0).max(-90.0), (lon - 1.0).max(-180.0), lat, lon));
            rects.push(GeoRect::new(lat, lon, lat, lon));
            rects.push(GeoRect::new(lat, lon, lat + 1e-12, lon + 1e-12));
            rects.push(GeoRect::new(lat, -180.0, lat, 180.0));
            rects.push(GeoRect::new(-90.0, lon, 90.0, lon));
        }
        assert!(rects.len() > 500, "{} rects", rects.len());
        for rect in &rects {
            assert_eq!(ids(p.discoverable_in(rect, t)), oracle(&p, rect, t), "{rect:?}");
        }
        let rim = GeoRect::new(90.0, 180.0, 90.0, 180.0);
        assert!(!oracle(&p, &rim, t).is_empty(), "the rim corner holds a broadcast");
    }

    #[test]
    fn index_agrees_at_minute_edges() {
        let p = snapped_world();
        let rects = [
            GeoRect::WORLD,
            GeoRect::new(35.0, 135.0, 40.0, 140.0),
            GeoRect::new(40.0, -75.0, 41.0, -73.0),
            GeoRect::new(51.0, -1.0, 52.0, 1.0),
            GeoRect::new(-24.0, -47.0, -23.0, -46.0),
        ];
        for k in 1..20u64 {
            for t in [SimTime::from_secs(k * 60), SimTime::from_micros(k * 60_000_000 - 1)] {
                for rect in &rects {
                    assert_eq!(
                        ids(p.discoverable_in(rect, t)),
                        oracle(&p, rect, t),
                        "{t:?} {rect:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn index_is_built_per_minute_on_first_query() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(5));
        let built = |p: &Population| p.cells.iter().filter(|c| c.get().is_some()).count();
        assert_eq!(built(&p), 0, "generating builds no index");
        let t = SimTime::from_secs(300);
        p.discoverable_in(&GeoRect::WORLD, t);
        assert_eq!(built(&p), 0, "a world-wide query walks the bucket");
        p.discoverable_in(&GeoRect::new(40.0, -75.0, 41.0, -73.0), t);
        assert_eq!(built(&p), 1);
        let index = p.cells[5].get().expect("minute 5 was queried");
        assert_eq!(index.0.len(), p.public_bucket(5).unwrap().len(), "one 4-byte word per entry");
        p.discoverable_in(&GeoRect::new(0.0, 0.0, 1.0, 1.0), t + SimDuration::from_secs(59));
        assert_eq!(built(&p), 1, "the same minute is not built twice");
    }

    #[test]
    fn a_minute_first_touched_by_two_threads_answers_alike() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(31));
        let t = SimTime::from_secs(540);
        let rect = GeoRect::new(30.0, -10.0, 60.0, 40.0);
        let barrier = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            let query = || {
                barrier.wait();
                ids(p.discoverable_in(&rect, t))
            };
            let (x, y) = (s.spawn(query), s.spawn(query));
            [x.join().unwrap(), y.join().unwrap()]
        });
        assert_eq!(a, b);
        assert_eq!(a, oracle(&p, &rect, t));
        assert!(!a.is_empty());
    }

    #[test]
    fn by_id_finds_every_broadcast() {
        let p = Population::generate(PopulationConfig::small(), &RngFactory::new(3));
        for (i, b) in p.broadcasts.iter().enumerate() {
            assert!(std::ptr::eq(p.by_id(b.id).unwrap(), &p.broadcasts[i]));
        }
        assert!(p.by_id(BroadcastId(2)).is_none(), "ids are odd");
    }

    #[test]
    fn concurrency_in_deep_crawl_range() {
        let p = shared();
        // Mid-window live count should be in the paper's observed 1K-4K
        // discoverable range (give or take calibration).
        let t = SimTime::from_secs(2 * 3600);
        let live = p.live_at(t).iter().filter(|b| b.discoverable_at(t)).count();
        assert!((800..6000).contains(&live), "live={live}");
    }

    #[test]
    fn geography_is_clumpy() {
        // Fig 1b's premise: activity concentrates in a minority of areas.
        let p = shared();
        let t = SimTime::from_secs(3600);
        let live = p.discoverable_in(&GeoRect::WORLD, t);
        // Split the world into an 8x8 grid; the top half of cells should
        // hold at least 80% of broadcasts.
        let mut counts = vec![0usize; 64];
        for b in &live {
            let col = (((b.location.lon + 180.0) / 45.0) as usize).min(7);
            let row = (((b.location.lat + 90.0) / 22.5) as usize).min(7);
            counts[row * 8 + col] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_half: usize = counts[..32].iter().sum();
        let total: usize = counts.iter().sum();
        assert!(top_half as f64 / total as f64 > 0.8);
    }

    #[test]
    fn determinism_same_seed() {
        let a = Population::generate(PopulationConfig::small(), &RngFactory::new(42));
        let b = Population::generate(PopulationConfig::small(), &RngFactory::new(42));
        assert_eq!(a.broadcasts.len(), b.broadcasts.len());
        for (x, y) in a.broadcasts.iter().zip(&b.broadcasts) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.start, y.start);
            assert_eq!(x.avg_viewers, y.avg_viewers);
        }
    }
}
