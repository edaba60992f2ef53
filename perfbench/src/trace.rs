//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans stay in memory and are written out
//! once, when the traced run ends.
//!
//! A disabled [`Tracer`] records nothing: `enter` returns a dummy id and
//! `exit` ignores it, so the untraced timed phase pays one branch per
//! layer call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a call into `layer` made by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    op: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between operations (the traced run
    /// alternates traced and untraced passes).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, op: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        if id == usize::MAX {
            return;
        }
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, ms: each span's duration minus the part of
    /// it its direct children cover, summed by layer. Also returns the
    /// number of spans per layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.layer).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-6;
        }
        out
    }

    /// The spans as a JSON array (`name`, `layer`, `start_us`, `end_us`,
    /// `parent`, `op`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"op\":{}}}",
                if i == 0 { "" } else { ",\n" },
                i,
                s.name,
                s.layer,
                s.start_ns as f64 * 1e-3,
                s.end_ns as f64 * 1e-3,
                parent,
                s.op
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let op = t.enter("op", "bench", 0);
        let c = t.enter("child", "qr", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(c);
        t.exit(op);
        let st = t.self_times();
        assert!(st["qr"].1 >= 2.0);
        assert!(st["bench"].1 < st["qr"].1);
        assert_eq!(t.spans()[c].parent, Some(op));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("op", "bench", 0);
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
