//! Client-side spans of the traced run: name, start, end and parent,
//! keyed by the message they belong to. Kept in memory during the run,
//! written out at the end, and reduced to per-layer self time.

use std::collections::HashMap;
use std::io::Write;

use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Message index: every span of one message shares it.
    pub msg: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Median self time per span name — a span's duration minus the part of
/// it that its child spans cover — with the number of spans of that name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut children: HashMap<(u64, &str), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.msg, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let kids = children
            .get(&(s.msg, s.name))
            .map_or(&[][..], Vec::as_slice);
        let own = s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids);
        by_name.entry(s.name).or_default().push(own as f64);
    }
    let mut out: Vec<_> = by_name
        .into_iter()
        .map(|(name, v)| (name, median(&v), v.len()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (a, b) in v {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Median duration of spans called `name`, in µs (0 when none).
pub fn p50_us(spans: &[Span], name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Writes the spans of the first `max_msgs` messages as JSON lines,
/// followed by one self-time summary line per span name.
pub fn write(path: &std::path::Path, spans: &[Span], max_msgs: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().filter(|s| s.msg < max_msgs) {
        writeln!(
            out,
            "{{\"msg\": {}, \"span\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.msg,
            s.name,
            s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            s.start_ns,
            s.end_ns
        )?;
    }
    for (name, self_ns, n) in self_times(spans) {
        writeln!(
            out,
            "{{\"self_time\": \"{name}\", \"median_ns\": {self_ns}, \"spans\": {n}}}"
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |msg, name, parent, start_ns, end_ns| Span {
            msg,
            name,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span(0, "message", None, 0, 100),
            span(0, "send_ack", Some("message"), 0, 30),
            span(0, "wait", Some("message"), 30, 90),
            span(1, "message", None, 0, 50),
            span(1, "send_ack", Some("message"), 0, 10),
            span(1, "wait", Some("message"), 10, 40),
            // Overlapping children count once; parts outside the parent not at all.
            span(2, "message", None, 100, 150),
            span(2, "send_ack", Some("message"), 90, 130),
            span(2, "wait", Some("message"), 120, 140),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], ("message", 10.0, 3)); // 10, 10, 50 - 40
        assert_eq!(st[1], ("send_ack", 30.0, 3));
        assert_eq!(p50_us(&spans, "wait"), 0.03);
    }
}
