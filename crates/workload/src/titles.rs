//! Broadcast title generation.
//!
//! §4: "It would be nice to know the contents of the most popular
//! broadcasts but the text descriptions are typically not very
//! informative." Titles here reproduce that frustration: most are empty,
//! emoji runs, greetings, or single vague words; only a minority describe
//! content. Deterministic per broadcast id.

use pscp_simnet::rng::splitmix64;

/// Title style classes, in rough order of (un)informativeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TitleStyle {
    /// No title at all.
    Empty,
    /// Emoji / decoration only.
    Emoji,
    /// A greeting or phatic opener.
    Greeting,
    /// A vague single word.
    Vague,
    /// Something actually descriptive.
    Descriptive,
}

const EMOJI: &[&str] = &["🔴🔴🔴", "❤️❤️", "🎥", "🌙✨", "🔥🔥🔥", "😎", "🎶🎶"];
const GREETINGS: &[&str] = &[
    "hi guys",
    "hello world",
    "come say hi",
    "first scope!",
    "good morning",
    "can't sleep",
    "ask me anything",
    "just chilling",
];
const VAGUE: &[&str] =
    &["live", "late night", "vibes", "random", "bored", "test", "...", "untitled"];
const DESCRIPTIVE: &[&str] = &[
    "sunset over the Bosphorus",
    "cooking dinner — köfte tonight",
    "walking through Shibuya crossing",
    "street musicians downtown",
    "derby match on TV, join!",
    "driving to work, morning traffic",
    "painting session: watercolor basics",
    "airport spotting, heavy arrivals",
];

/// Style mix calibrated to "typically not very informative".
const STYLE_WEIGHTS: &[(TitleStyle, u64)] = &[
    (TitleStyle::Empty, 25),
    (TitleStyle::Emoji, 15),
    (TitleStyle::Greeting, 25),
    (TitleStyle::Vague, 22),
    (TitleStyle::Descriptive, 13),
];

/// Returns the deterministic title (and its style) for a broadcast id.
pub fn title_for(broadcast_id: u64) -> (TitleStyle, String) {
    let h = splitmix64(broadcast_id);
    let total: u64 = STYLE_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut pick = h % total;
    let mut style = TitleStyle::Empty;
    for &(s, w) in STYLE_WEIGHTS {
        if pick < w {
            style = s;
            break;
        }
        pick -= w;
    }
    let idx = (splitmix64(h) % 64) as usize;
    let text = match style {
        TitleStyle::Empty => String::new(),
        TitleStyle::Emoji => EMOJI[idx % EMOJI.len()].to_string(),
        TitleStyle::Greeting => GREETINGS[idx % GREETINGS.len()].to_string(),
        TitleStyle::Vague => VAGUE[idx % VAGUE.len()].to_string(),
        TitleStyle::Descriptive => DESCRIPTIVE[idx % DESCRIPTIVE.len()].to_string(),
    };
    (style, text)
}

/// Whether a title usefully describes content (the paper's complaint is
/// that this is rare).
pub fn is_informative(style: TitleStyle) -> bool {
    style == TitleStyle::Descriptive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(title_for(42), title_for(42));
        assert_ne!(title_for(1).1, title_for(2).1);
    }

    #[test]
    fn mostly_uninformative() {
        let informative = (0..10_000u64).filter(|&id| is_informative(title_for(id).0)).count();
        let frac = informative as f64 / 10_000.0;
        assert!((0.08..0.20).contains(&frac), "informative fraction {frac}");
    }

    #[test]
    fn style_mix_covers_all() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..1000u64 {
            seen.insert(format!("{:?}", title_for(id).0));
        }
        assert_eq!(seen.len(), 5, "all styles appear");
    }

    #[test]
    fn empty_style_has_empty_text() {
        for id in 0..2000u64 {
            let (style, text) = title_for(id);
            if style == TitleStyle::Empty {
                assert!(text.is_empty());
                return;
            }
        }
        panic!("no empty titles in 2000 draws");
    }
}
