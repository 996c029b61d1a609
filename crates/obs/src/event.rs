//! Structured, sim-time-stamped event records.
//!
//! Events carry *simulation* time, never wall-clock time, so a trace is a
//! pure function of the seed: two runs (at any thread count) that simulate
//! the same world emit byte-identical logs. Wall-clock profiling lives in
//! [`crate::span`] instead, deliberately segregated from this log.

use pscp_proto::json::Writer;

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Unsigned integer (counts, byte sizes, ids, durations in ms/µs).
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float, written at shortest round-trip precision.
    F(f64),
    /// Short string (protocol names, user ids).
    S(String),
}

/// One sim-time-stamped, subsystem-tagged record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time in microseconds.
    pub t_us: u64,
    /// Owning subsystem (`"player"`, `"hls"`, `"service"`, ...).
    pub subsystem: &'static str,
    /// Dotted event name (`"player.stall"`, `"hls.segment_fetch"`, ...).
    pub name: &'static str,
    /// Extra fields, in recording order.
    pub fields: Vec<(&'static str, Field)>,
}

impl Event {
    /// Writes the event as one JSON object. `unit` is the work-unit label
    /// assigned when the event was merged into the run-wide log (e.g.
    /// `"session/17"`, `"deep-crawl-14"`). Fields are written sorted by
    /// name, as the writer wants every object's keys.
    pub fn write_json(&self, unit: &str, w: &mut Writer<'_>) {
        w.begin_object();
        w.key("ev").str(self.name);
        if !self.fields.is_empty() {
            let mut fields: Vec<&(&str, Field)> = self.fields.iter().collect();
            fields.sort_by_key(|(k, _)| *k);
            w.key("fields").begin_object();
            for (k, v) in fields {
                w.key(k);
                match v {
                    Field::U(x) => w.int(*x),
                    Field::I(x) => w.int(*x),
                    Field::F(x) => w.number(*x),
                    Field::S(x) => w.str(x),
                }
            }
            w.end_object();
        }
        w.key("sub").str(self.subsystem);
        w.key("t_us").int(self.t_us);
        w.key("unit").str(unit);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(e: &Event, unit: &str) -> String {
        let mut out = String::new();
        e.write_json(unit, &mut Writer::new(&mut out));
        out
    }

    #[test]
    fn json_line_shape() {
        let e = Event {
            t_us: 1_500_000,
            subsystem: "player",
            name: "player.stall",
            fields: vec![("ratio", Field::F(0.25)), ("duration_ms", Field::U(420))],
        };
        assert_eq!(
            line(&e, "session/3"),
            "{\"ev\":\"player.stall\",\"fields\":{\"duration_ms\":420,\"ratio\":0.25},\
             \"sub\":\"player\",\"t_us\":1500000,\"unit\":\"session/3\"}"
        );
    }

    #[test]
    fn fieldless_event_omits_fields_object() {
        let e = Event { t_us: 0, subsystem: "rtmp", name: "rtmp.handshake", fields: vec![] };
        assert!(!line(&e, "u").contains("fields"));
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event {
            t_us: 1,
            subsystem: "service",
            name: "service.rate_limited",
            fields: vec![("user", Field::S("a\"b\\c".into()))],
        };
        assert!(line(&e, "u").contains("a\\\"b\\\\c"));
    }
}
