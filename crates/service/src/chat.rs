//! The chat service and its profile-picture side traffic.
//!
//! §3: "Viewers can use text chat and emoticons to give feedback to the
//! broadcaster. The chat becomes full when certain number of viewers have
//! joined after which new joining users cannot send messages." §5.1 found
//! the QoE-relevant twist: "the JSON encoded chat messages are received
//! even when chat is off, but when the chat is on, image downloads from
//! Amazon S3 servers appear in the traffic" — profile pictures, some
//! downloaded repeatedly because the app does not cache them, inflating one
//! measured session from ~500 kbps to 3.5 Mbps.

use pscp_proto::json::Writer;
use pscp_proto::{decimal, decimal_len};
use pscp_simnet::dist;
use pscp_simnet::rng::Rng;
use pscp_simnet::SimTime;

/// Chat room behaviour parameters.
#[derive(Debug, Clone)]
pub struct ChatConfig {
    /// Viewers after which the chat is "full" (no new senders).
    pub full_at: u32,
    /// Per-viewer heart (emoticon) rate, events/second. Hearts are tiny
    /// and are NOT capped by chat fullness — anyone can tap.
    pub per_user_heart_rate: f64,
    /// Per-chatting-user message rate, messages/second.
    pub per_user_msg_rate: f64,
    /// Fraction of users with a profile picture.
    pub picture_prob: f64,
    /// Mean profile picture size in bytes (S3 JPEG thumbnails).
    pub mean_picture_bytes: f64,
}

impl Default for ChatConfig {
    fn default() -> Self {
        ChatConfig {
            full_at: 100,
            per_user_heart_rate: 0.08,
            // Active rooms run several messages per second in aggregate;
            // with uncached ~30 kB pictures per message this is what drives
            // the paper's 0.5 -> 3.5 Mbps traffic explosion (§5.1).
            per_user_msg_rate: 0.12,
            picture_prob: 0.75,
            mean_picture_bytes: 30_000.0,
        }
    }
}

/// One chat message as sent over the WebSocket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChatMessage {
    /// Delivery instant.
    pub at: SimTime,
    /// Sending user id.
    pub user_id: u64,
    /// Nominal body length in bytes. The JSON body carries
    /// `body_len − 90` (at least 4) characters of text inside its envelope
    /// ([`ChatMessage::json`]), so it is not the length on the wire.
    pub body_len: usize,
    /// Profile picture reference, if this user has one.
    pub picture: Option<PictureRef>,
}

/// A profile picture on S3. Its URL is a function of the user id
/// ([`MessageJson`] writes it) — stable per user, so caching *would* work;
/// the app just doesn't do it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PictureRef {
    /// Image size in bytes.
    pub bytes: usize,
}

impl ChatMessage {
    /// What the message's JSON body is a function of.
    pub fn json(&self) -> MessageJson {
        MessageJson {
            user_id: self.user_id,
            text_len: u32::try_from(self.body_len.saturating_sub(90).max(4))
                .expect("a chat message's text is under 4 GB"),
            picture: self.picture.is_some(),
        }
    }

    /// Appends the JSON body the server pushes.
    pub fn write_json(&self, out: &mut String) {
        self.json().write_json(out);
    }
}

/// Where every profile picture lives: this, the user handle, then
/// [`PICTURE_URL_TAIL`].
const PICTURE_URL_HEAD: &str = "https://s3.amazonaws.com/profile_images/";
const PICTURE_URL_TAIL: &str = ".jpg";

/// Sixty-four characters of message text; longer text repeats them.
const TEXT: &str = "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";

/// A chat message's JSON body as a descriptor: the sender, how many
/// characters of text, and whether it names the sender's profile picture
/// are all the body depends on. It states its exact length, and writes
/// the body only when asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageJson {
    /// Sending user id.
    pub user_id: u64,
    /// Characters of message text.
    pub text_len: u32,
    /// Whether the body names the sender's profile picture.
    pub picture: bool,
}

impl MessageJson {
    /// Length of the body [`write_json`](MessageJson::write_json) appends.
    pub fn json_len(&self) -> usize {
        let handle = 1 + decimal_len(self.user_id);
        let url = PICTURE_URL_HEAD.len() + handle + PICTURE_URL_TAIL.len();
        object_len(
            [
                Some(("kind", quoted("chat".len()))),
                self.picture.then_some(("profile_image_url", quoted(url))),
                Some(("text", quoted(self.text_len as usize))),
                Some(("user", quoted(handle))),
            ]
            .into_iter()
            .flatten(),
        )
    }

    /// Appends the body:
    /// `{"kind":"chat","profile_image_url":…,"text":"xx…","user":"u<id>"}`.
    pub fn write_json(&self, out: &mut String) {
        let mut digits = [0; 20];
        let id = decimal(self.user_id, &mut digits);
        let text = self.text_len as usize;
        let mut w = Writer::new(out);
        w.begin_object();
        w.key("kind").str("chat");
        if self.picture {
            w.key("profile_image_url").str_parts([PICTURE_URL_HEAD, "u", id, PICTURE_URL_TAIL]);
        }
        let whole = std::iter::repeat_n(TEXT, text / TEXT.len());
        w.key("text").str_parts(whole.chain([&TEXT[..text % TEXT.len()]]));
        w.key("user").str_parts(["u", id]);
        w.end_object();
    }
}

/// A heart (emoticon) event: §3's "text chat and emoticons". Hearts are
/// a handful of bytes of JSON each, batched by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heart {
    /// Delivery instant.
    pub at: SimTime,
    /// Hearts coalesced into this server push.
    pub count: u32,
}

impl Heart {
    /// Length of the JSON [`write_json`](Heart::write_json) appends.
    pub fn json_len(&self) -> usize {
        object_len([("kind", quoted("heart".len())), ("n", decimal_len(self.count.into()))])
    }

    /// Appends the batched heart JSON: `{"kind":"heart","n":<count>}`.
    pub fn write_json(&self, out: &mut String) {
        let mut w = Writer::new(out);
        w.begin_object();
        w.key("kind").str("heart");
        w.key("n").int(self.count);
        w.end_object();
    }
}

/// Length of a string value of `n` characters none of which is escaped.
fn quoted(n: usize) -> usize {
    n + 2
}

/// Length of a flat object [`Writer`] writes: braces, a comma between
/// members, and per member its quoted key (none needs escaping), a colon
/// and its value's length as written.
fn object_len<'k>(members: impl IntoIterator<Item = (&'k str, usize)>) -> usize {
    let (mut n, mut len) = (0, 2);
    for (key, value) in members {
        len += quoted(key.len()) + 1 + value;
        n += 1;
    }
    len + n.max(1) - 1
}

/// A chat room attached to one broadcast.
#[derive(Debug)]
pub struct ChatRoom {
    config: ChatConfig,
    /// Stable per-user picture assignment, indexed by sender rank − 1 (a
    /// sender's rank is its user id): unset until the user first speaks,
    /// then the picture size, or `None` if the user has no picture.
    pictures: Vec<Option<Option<usize>>>,
}

impl ChatRoom {
    /// Creates a room.
    pub fn new(config: ChatConfig) -> Self {
        ChatRoom { config, pictures: Vec::new() }
    }

    /// Number of users actually able to chat given `viewers` present.
    pub fn active_chatters(&self, viewers: u32) -> u32 {
        viewers.min(self.config.full_at)
    }

    /// Generates the heart pushes delivered in `[from, to)`. The server
    /// batches hearts every ~500 ms, so the event rate stays modest even
    /// for huge rooms while the counts grow.
    pub fn hearts_between<R: Rng + ?Sized>(
        &self,
        from: SimTime,
        to: SimTime,
        viewers: u32,
        rng: &mut R,
    ) -> Vec<Heart> {
        assert!(to >= from, "interval must be forward");
        // Tap rate saturates: beyond a few thousand viewers most lurk.
        let rate = (viewers.min(3000) as f64) * self.config.per_user_heart_rate;
        if rate <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut t = from.as_secs_f64();
        let end = to.as_secs_f64();
        let batch_s = 0.5;
        while t < end {
            let expected = rate * batch_s;
            // Poisson-ish count via exponential thinning.
            let count = (expected * dist::lognormal(rng, 0.0, 0.4)).round() as u32;
            if count > 0 {
                out.push(Heart { at: SimTime::from_micros((t * 1e6) as u64), count });
            }
            t += batch_s;
        }
        out
    }

    /// Generates the messages delivered in `[from, to)` for a broadcast
    /// with the given concurrent viewer count.
    pub fn messages_between<R: Rng + ?Sized>(
        &mut self,
        from: SimTime,
        to: SimTime,
        viewers: u32,
        rng: &mut R,
    ) -> Vec<ChatMessage> {
        assert!(to >= from, "interval must be forward");
        let chatters = self.active_chatters(viewers);
        if chatters == 0 {
            return Vec::new();
        }
        let rate = chatters as f64 * self.config.per_user_msg_rate;
        if self.pictures.len() < chatters as usize {
            self.pictures.resize(chatters as usize, None);
        }
        let mut out = Vec::new();
        let mut t = from.as_secs_f64();
        let end = to.as_secs_f64();
        loop {
            t += dist::exponential(rng, rate);
            if t >= end {
                break;
            }
            // Senders are zipf-ish: a few users dominate the conversation.
            let user_rank = dist::zipf(rng, chatters.max(1) as u64, 1.3);
            let user_id = user_rank; // rank doubles as a stable id per room
            let picture_prob = self.config.picture_prob;
            let mean_pic = self.config.mean_picture_bytes;
            let picture = self.pictures[user_rank as usize - 1].get_or_insert_with(|| {
                dist::coin(rng, picture_prob)
                    .then(|| (mean_pic * dist::lognormal(rng, 0.0, 0.5)).round() as usize)
            });
            let picture = picture.map(|bytes| PictureRef { bytes });
            let body_len = 90 + dist::exponential(rng, 1.0 / 40.0) as usize;
            out.push(ChatMessage {
                at: SimTime::from_micros((t * 1e6) as u64),
                user_id,
                body_len,
                picture,
            });
        }
        out
    }
}

/// Convenience: expected chat message rate (messages/second) at a viewer
/// count, for capacity planning in tests.
pub fn expected_message_rate(config: &ChatConfig, viewers: u32) -> f64 {
    viewers.min(config.full_at) as f64 * config.per_user_msg_rate
}

/// Expected downstream chat traffic in bits/second when the chat pane is
/// on: JSON messages plus (uncached) profile pictures.
pub fn expected_chat_rate_bps(config: &ChatConfig, viewers: u32) -> f64 {
    let msgs = expected_message_rate(config, viewers);
    let json = msgs * 130.0 * 8.0;
    let pics = msgs * config.picture_prob * config.mean_picture_bytes * 8.0;
    json + pics
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscp_simnet::RngFactory;

    fn room() -> (ChatRoom, pscp_simnet::rng::CounterRng) {
        (ChatRoom::new(ChatConfig::default()), RngFactory::new(8).stream("chat"))
    }

    #[test]
    fn no_viewers_no_messages() {
        let (mut room, mut rng) = room();
        let msgs = room.messages_between(SimTime::ZERO, SimTime::from_secs(60), 0, &mut rng);
        assert!(msgs.is_empty());
    }

    #[test]
    fn message_rate_scales_with_viewers_up_to_full() {
        let (mut room, mut rng) = room();
        let count = |viewers: u32, rng: &mut pscp_simnet::rng::CounterRng, room: &mut ChatRoom| {
            room.messages_between(SimTime::ZERO, SimTime::from_secs(600), viewers, rng).len()
        };
        let small = count(10, &mut rng, &mut room);
        let big = count(100, &mut rng, &mut room);
        let huge = count(5000, &mut rng, &mut room);
        assert!(big > small * 4, "small={small} big={big}");
        // Chat-full cap: 5000 viewers no busier than 100.
        let ratio = huge as f64 / big as f64;
        assert!((0.7..1.4).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn messages_ordered_and_in_window() {
        let (mut room, mut rng) = room();
        let from = SimTime::from_secs(30);
        let to = SimTime::from_secs(90);
        let msgs = room.messages_between(from, to, 50, &mut rng);
        assert!(!msgs.is_empty());
        for w in msgs.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        assert!(msgs.iter().all(|m| m.at >= from && m.at < to));
    }

    #[test]
    fn picture_urls_stable_per_user() {
        let (mut room, mut rng) = room();
        let msgs = room.messages_between(SimTime::ZERO, SimTime::from_secs(1200), 80, &mut rng);
        let url = |m: &ChatMessage| {
            let mut body = String::new();
            m.write_json(&mut body);
            let v = pscp_proto::json::parse(&body).unwrap();
            v.get("profile_image_url").and_then(|u| u.as_str().map(str::to_string))
        };
        let mut by_user: std::collections::HashMap<u64, (String, PictureRef)> =
            std::collections::HashMap::new();
        let mut repeats = 0;
        for m in &msgs {
            if let Some(pic) = m.picture {
                let url = url(m).expect("a message with a picture names it");
                assert!(url.ends_with(&format!("/u{}.jpg", m.user_id)), "{url}");
                if let Some(prev) = by_user.get(&m.user_id) {
                    assert_eq!(*prev, (url, pic), "url must be stable per user");
                    repeats += 1;
                } else {
                    by_user.insert(m.user_id, (url, pic));
                }
            } else {
                assert_eq!(url(m), None);
                assert!(!by_user.contains_key(&m.user_id), "a user's picture does not vanish");
            }
        }
        // Zipf senders: plenty of repeat messages → the no-cache bug has
        // something to amplify.
        assert!(repeats > 10, "repeats={repeats}");
    }

    #[test]
    fn some_users_lack_pictures() {
        let (mut room, mut rng) = room();
        let msgs = room.messages_between(SimTime::ZERO, SimTime::from_secs(1200), 100, &mut rng);
        let with: usize = msgs.iter().filter(|m| m.picture.is_some()).count();
        let without = msgs.len() - with;
        assert!(with > 0 && without > 0, "with={with} without={without}");
    }

    #[test]
    fn json_body_parses() {
        let (mut room, mut rng) = room();
        let msgs = room.messages_between(SimTime::ZERO, SimTime::from_secs(120), 50, &mut rng);
        let m = msgs.iter().find(|m| m.picture.is_some()).expect("some picture");
        let mut body = String::new();
        m.write_json(&mut body);
        let v = pscp_proto::json::parse(&body).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("chat"));
        assert!(v.get("profile_image_url").unwrap().as_str().unwrap().contains("s3.amazonaws.com"));
    }

    #[test]
    fn json_len_is_what_write_json_appends() {
        for user_id in [1, 9, 10, 99, 100, u64::MAX] {
            for text_len in [0, 4, 63, 64, 65, 127, 128, 70_000] {
                for picture in [false, true] {
                    let json = MessageJson { user_id, text_len, picture };
                    let mut body = String::from("prefix");
                    json.write_json(&mut body);
                    assert_eq!(body.len() - "prefix".len(), json.json_len(), "{json:?}");
                    let v = pscp_proto::json::parse(&body["prefix".len()..]).unwrap();
                    let text = v.get("text").unwrap().as_str().unwrap();
                    assert!(text.len() == text_len as usize && text.bytes().all(|b| b == b'x'));
                    let user = format!("u{user_id}");
                    assert_eq!(v.get("user").unwrap().as_str(), Some(user.as_str()));
                }
            }
        }
        for count in [0, 1, 9, 10, u32::MAX] {
            let heart = Heart { at: SimTime::ZERO, count };
            let mut body = String::new();
            heart.write_json(&mut body);
            assert_eq!(body.len(), heart.json_len(), "{count}");
        }
    }

    #[test]
    fn expected_rate_helper() {
        let cfg = ChatConfig::default();
        assert_eq!(expected_message_rate(&cfg, 0), 0.0);
        assert!((expected_message_rate(&cfg, 50) - 6.0).abs() < 1e-9);
        assert_eq!(expected_message_rate(&cfg, 10_000), expected_message_rate(&cfg, 100));
    }

    #[test]
    fn hearts_scale_with_viewers_and_batch() {
        let (room, mut rng) = room();
        let hearts = |viewers: u32, rng: &mut pscp_simnet::rng::CounterRng| {
            room.hearts_between(SimTime::ZERO, SimTime::from_secs(60), viewers, rng)
        };
        let none = hearts(0, &mut rng);
        assert!(none.is_empty());
        let small: u32 = hearts(10, &mut rng).iter().map(|h| h.count).sum();
        let big: u32 = hearts(1000, &mut rng).iter().map(|h| h.count).sum();
        assert!(big > small * 10, "small={small} big={big}");
        // Batched: event count bounded by the 0.5 s cadence.
        let events = hearts(5000, &mut rng);
        assert!(events.len() <= 121, "events={}", events.len());
        for h in &events {
            let mut body = String::new();
            h.write_json(&mut body);
            assert_eq!(body.len(), h.json_len());
        }
    }

    #[test]
    fn determinism() {
        let f = RngFactory::new(99);
        let run = || {
            let mut rng = f.stream("det");
            let mut room = ChatRoom::new(ChatConfig::default());
            room.messages_between(SimTime::ZERO, SimTime::from_secs(300), 60, &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
