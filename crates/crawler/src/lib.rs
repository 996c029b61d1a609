#![warn(missing_docs)]

//! The measurement crawler of §4.
//!
//! "We developed a crawler by writing a mitmproxy inline script that
//! exploits the /mapGeoBroadcastFeed request of the Periscope API. ...
//! Our approach is to first perform a deep crawl and then to select only
//! the most active areas from that crawl and query only them, i.e., perform
//! a targeted crawl."
//!
//! * [`deep`] — the recursive quadtree crawl: "the crawler zooms into each
//!   area by dividing it into four smaller areas and recursively continues
//!   doing that until it no longer discovers substantially more
//!   broadcasts" (Fig 1);
//! * [`targeted`] — the top-areas crawl run by "four different
//!   simultaneously running crawlers ... with different user logged in
//!   (avoids rate limiting)", completing a round in ~50 s;
//! * [`records`] — per-broadcast observation records (first/last sighting,
//!   viewer statistics, replay flag) built from `getBroadcasts` responses;
//! * [`analysis`] — the §4 usage-pattern statistics (Fig 2 and the
//!   zero-viewer/replay/correlation numbers);
//! * [`tap`] — the mitmproxy stand-in that logged API exchanges and
//!   reverse-engineered the command inventory (Table 1);
//! * [`wire`] — the two API calls both crawls make: one exchange, the
//!   reply classified, the body decoded without a tree.

pub mod analysis;
pub mod deep;
pub mod records;
pub mod tap;
pub mod targeted;
pub mod wire;

pub use deep::{DeepCrawl, DeepCrawlConfig};
pub use records::{BroadcastObservation, ObservationStore};
pub use targeted::{TargetedCrawl, TargetedCrawlConfig};
