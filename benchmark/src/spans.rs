//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files only, around calls into
//! the program's public functions and around each stage replica; spans
//! inside the program are a later change. Everything stays in memory until
//! the workload ends. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `unit` is the id shared by every span of one
/// session, crawl slice or scale pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub unit: u64,
}

/// Handle of an open span (`None` while the recorder is disabled).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Per-name totals of a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    unit: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), unit: 0 }
    }

    /// Switches recording on or off between units (the paired overhead
    /// measurement runs the same session both ways).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between units");
        self.enabled = on;
    }

    /// Sets the id the following spans share.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn start(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            unit: self.unit,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span called `name`.
    pub fn within<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.start(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// The spans as one JSON document, in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(s, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host_ns\"");
        s.push_str(",\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"unit\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.unit
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to it (children recorded by one thread never overlap,
/// but the union keeps the rule true for any input).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            let parent = &spans[p as usize];
            let lo = sp.start_ns.max(parent.start_ns);
            let hi = sp.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(sp, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = sp.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (sp.end_ns - sp.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (sp, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(sp.name).or_default();
        t.count += 1;
        t.total_ns += sp.end_ns - sp.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, unit: 7 }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: union is 10..60
            span("leaf", 15, 20, Some(1)),
            span("late", 90, 130, Some(0)), // clipped to the parent: 90..100
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 5, 40]);
        let t = totals(&spans);
        assert_eq!(t["root"], NameTotals { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(t.keys().copied().collect::<Vec<_>>(), ["a", "b", "late", "leaf", "root"]);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_inert_when_off() {
        let mut rec = Recorder::new(true);
        rec.set_unit(3);
        let root = rec.start("session");
        rec.within("run_one", || std::hint::black_box(1 + 1));
        rec.end(root);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].unit, 3);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert!(rec.to_json("w", 1).contains("\"name\":\"run_one\""));

        let mut off = Recorder::new(false);
        let o = off.start("x");
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
