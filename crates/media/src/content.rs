//! Content classes and time-varying complexity.
//!
//! §5.2: "the type of content strongly differ among the streams. For
//! instance, some of them feature very static content such as one person
//! talking on a static background while others show, e.g., soccer matches
//! captured from a TV screen." Complexity here is a dimensionless multiplier
//! on the bits needed per frame at a reference QP; it evolves as a
//! mean-reverting process with occasional scene changes, which is what makes
//! bitrate vary widely at a fixed QP (Fig 6b).

use pscp_simnet::dist;
use pscp_simnet::rng::Rng;

/// Broad classes of captured content, with their typical coding complexity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentClass {
    /// One person talking against a static background.
    StaticTalk,
    /// Indoor scene with some motion (vlogging, room tours).
    Indoor,
    /// Outdoor walking shots: global motion, texture.
    Outdoor,
    /// Sports or TV screens: high motion, frequent scene changes.
    SportsTv,
    /// Concerts / events: motion plus lighting changes.
    Event,
}

impl ContentClass {
    /// All classes, for enumeration in workload mixes.
    pub const ALL: [ContentClass; 5] = [
        ContentClass::StaticTalk,
        ContentClass::Indoor,
        ContentClass::Outdoor,
        ContentClass::SportsTv,
        ContentClass::Event,
    ];

    /// Mean complexity multiplier (1.0 = reference).
    pub fn mean_complexity(self) -> f64 {
        match self {
            ContentClass::StaticTalk => 0.45,
            ContentClass::Indoor => 0.8,
            ContentClass::Outdoor => 1.2,
            ContentClass::SportsTv => 1.9,
            ContentClass::Event => 1.5,
        }
    }

    /// Scene-change rate in events per second.
    pub fn scene_change_rate(self) -> f64 {
        match self {
            ContentClass::StaticTalk => 0.005,
            ContentClass::Indoor => 0.02,
            ContentClass::Outdoor => 0.03,
            ContentClass::SportsTv => 0.12,
            ContentClass::Event => 0.06,
        }
    }

    /// Relative volatility of the complexity process.
    pub fn volatility(self) -> f64 {
        match self {
            ContentClass::StaticTalk => 0.05,
            ContentClass::Indoor => 0.10,
            ContentClass::Outdoor => 0.15,
            ContentClass::SportsTv => 0.30,
            ContentClass::Event => 0.20,
        }
    }
}

/// A per-broadcast complexity process: mean-reverting (Ornstein–Uhlenbeck in
/// log space) with Poisson scene changes that jump the level.
#[derive(Debug, Clone)]
pub struct ContentProcess {
    class: ContentClass,
    /// Current complexity in log space.
    log_level: f64,
    /// Long-run mean in log space.
    log_mean: f64,
    /// Mean-reversion speed per second.
    reversion: f64,
    /// The last step's constants; an encoder steps by the same interval
    /// every frame, so they are computed once.
    step: StepConstants,
}

/// What [`ContentProcess::step`] derives from `dt_s` alone.
#[derive(Debug, Clone, Copy)]
struct StepConstants {
    dt_s: f64,
    /// Share of the distance from the mean that survives the step.
    decay: f64,
    /// Standard deviation of the step's noise.
    noise_sd: f64,
    /// Probability of a scene change within the step.
    p_change: f64,
}

impl StepConstants {
    fn new(class: ContentClass, reversion: f64, dt_s: f64) -> Self {
        StepConstants {
            dt_s,
            decay: (-reversion * dt_s).exp(),
            noise_sd: class.volatility() * (dt_s.min(1.0)).sqrt(),
            p_change: 1.0 - (-class.scene_change_rate() * dt_s).exp(),
        }
    }
}

impl ContentProcess {
    /// Creates a process for `class`, randomizing the per-broadcast mean so
    /// two talks are not identical.
    pub fn new<R: Rng + ?Sized>(class: ContentClass, rng: &mut R) -> Self {
        let base = class.mean_complexity().ln();
        let log_mean = base + dist::normal(rng, 0.0, 0.25);
        let reversion = 0.5;
        let step = StepConstants::new(class, reversion, 0.0);
        ContentProcess { class, log_level: log_mean, log_mean, reversion, step }
    }

    /// The content class this process models.
    pub fn class(&self) -> ContentClass {
        self.class
    }

    /// Current complexity multiplier.
    pub fn complexity(&self) -> f64 {
        self.log_level.exp()
    }

    /// Advances the process by `dt_s` seconds.
    pub fn step<R: Rng + ?Sized>(&mut self, dt_s: f64, rng: &mut R) {
        assert!(dt_s >= 0.0, "time step must be non-negative");
        if dt_s != self.step.dt_s {
            self.step = StepConstants::new(self.class, self.reversion, dt_s);
        }
        let StepConstants { decay, noise_sd, p_change, .. } = self.step;
        // OU update in log space.
        self.log_level = self.log_mean
            + (self.log_level - self.log_mean) * decay
            + dist::normal(rng, 0.0, noise_sd);
        // Scene changes jump the level.
        if dist::coin(rng, p_change) {
            self.log_level += dist::normal(rng, 0.3, 0.4);
        }
        // Keep within physical bounds.
        self.log_level = self.log_level.clamp(-2.5, 2.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_simnet::RngFactory;

    fn rng() -> pscp_simnet::rng::CounterRng {
        RngFactory::new(77).stream("content-tests")
    }

    #[test]
    fn classes_ordered_by_complexity() {
        assert!(
            ContentClass::StaticTalk.mean_complexity() < ContentClass::Indoor.mean_complexity()
        );
        assert!(ContentClass::Indoor.mean_complexity() < ContentClass::SportsTv.mean_complexity());
    }

    #[test]
    fn complexity_stays_positive_and_bounded() {
        let mut r = rng();
        for class in ContentClass::ALL {
            let mut p = ContentProcess::new(class, &mut r);
            for _ in 0..1000 {
                p.step(1.0 / 30.0, &mut r);
                let c = p.complexity();
                assert!(c > 0.0 && c < 10.0, "complexity={c}");
            }
        }
    }

    #[test]
    fn sports_more_volatile_than_talk() {
        let mut r = rng();
        let observe = |class: ContentClass, r: &mut pscp_simnet::rng::CounterRng| {
            let mut p = ContentProcess::new(class, r);
            let mut values = Vec::new();
            for _ in 0..2000 {
                p.step(1.0 / 30.0, r);
                values.push(p.complexity().ln());
            }
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64
        };
        let var_talk = observe(ContentClass::StaticTalk, &mut r);
        let var_sports = observe(ContentClass::SportsTv, &mut r);
        assert!(var_sports > var_talk * 2.0, "sports={var_sports} talk={var_talk}");
    }

    #[test]
    fn long_run_mean_tracks_class() {
        let mut r = rng();
        let mut p = ContentProcess::new(ContentClass::SportsTv, &mut r);
        let mut sum = 0.0;
        let n = 30_000;
        for _ in 0..n {
            p.step(1.0 / 30.0, &mut r);
            sum += p.complexity();
        }
        let avg = sum / n as f64;
        // Scene-change jumps push above the OU mean; just require the
        // right ballpark, clearly above low-complexity classes.
        assert!(avg > 1.0 && avg < 4.5, "avg={avg}");
    }

    #[test]
    fn per_broadcast_means_differ() {
        let mut r = rng();
        let a = ContentProcess::new(ContentClass::Indoor, &mut r);
        let b = ContentProcess::new(ContentClass::Indoor, &mut r);
        assert_ne!(a.complexity(), b.complexity());
    }

    #[test]
    fn zero_step_is_noop_in_expectation() {
        let mut r = rng();
        let mut p = ContentProcess::new(ContentClass::Indoor, &mut r);
        let before = p.complexity();
        p.step(0.0, &mut r);
        // dt = 0: no noise (sd = 0), decay = 1, jump probability 0.
        assert_eq!(p.complexity(), before);
    }
}
