//! In-memory spans for the traced pass: recorded from the benchmark's own
//! code around each call into a layer, self-checked, and written out as
//! Chrome trace JSON (which ui.perfetto.dev opens) when the run ends.

use serde_json::Value;
use std::time::Instant;

/// One timed region. `parent` is the index of the enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub label: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Collects spans on one thread; a span's id is its index.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span and returns its id. The clock is read last, so the
    /// bookkeeping is not charged to the span.
    pub fn begin(&mut self, name: &str, label: String, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            label,
            parent,
            start_ns: 0,
            dur_ns: 0,
        });
        let id = self.spans.len() - 1;
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id`. The clock is read first.
    pub fn end(&mut self, id: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id];
        s.dur_ns = now - s.start_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Checks that the children of every span with children cover at least
/// `1 - tolerance` of it, so the per-layer times add up to the whole.
pub fn check_coverage(spans: &[Span], tolerance: f64) -> Result<(), String> {
    for (id, s) in spans.iter().enumerate() {
        let covered = children_ns(spans, id);
        if covered == 0 {
            continue;
        }
        if covered as f64 > s.dur_ns as f64
            || (covered as f64) < (1.0 - tolerance) * s.dur_ns as f64
        {
            return Err(format!(
                "span {id} ({} {}) lasts {} ns but its children cover {covered} ns",
                s.name, s.label, s.dur_ns
            ));
        }
    }
    Ok(())
}

/// Summed duration of the direct children of span `id`. Spans of one
/// thread never overlap their siblings, so the sum is the covered time.
fn children_ns(spans: &[Span], id: usize) -> u64 {
    spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| c.dur_ns)
        .sum()
}

/// Per span name, in first-seen order: `(name, count, total_ns, self_ns)`,
/// where self time is a span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    let mut out: Vec<(String, u64, u64, u64)> = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        let own = s.dur_ns.saturating_sub(children_ns(spans, id));
        match out.iter_mut().find(|row| row.0 == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.dur_ns;
                row.3 += own;
            }
            None => out.push((s.name.clone(), 1, s.dur_ns, own)),
        }
    }
    out
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Seq(
        spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("label".into(), Value::Str(s.label.clone())),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("dur_ns".into(), Value::U64(s.dur_ns)),
                ])
            })
            .collect(),
    )
}

pub fn from_json(v: &Value) -> Result<Vec<Span>, String> {
    let field = |m: &[(String, Value)], k: &str| {
        serde::field(m, k)
            .cloned()
            .ok_or_else(|| format!("span without `{k}`"))
    };
    let str_of = |v: Value| match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    };
    let u64_of = |v: Value| match v {
        Value::U64(n) => Ok(n),
        other => Err(format!("expected an integer, got {other:?}")),
    };
    let mut out = Vec::new();
    for s in v.as_seq("spans").map_err(|e| e.0)? {
        let m = s.as_map("span").map_err(|e| e.0)?;
        out.push(Span {
            name: str_of(field(m, "name")?)?,
            label: str_of(field(m, "label")?)?,
            parent: match field(m, "parent")? {
                Value::Null => None,
                p => Some(u64_of(p)? as usize),
            },
            start_ns: u64_of(field(m, "start_ns")?)?,
            dur_ns: u64_of(field(m, "dur_ns")?)?,
        });
    }
    Ok(out)
}

/// Chrome trace JSON: one process per track, complete ("X") events in
/// microseconds, with each span's id and parent id in its args.
pub fn chrome_trace(tracks: &[(String, Vec<Span>)]) -> Value {
    let mut events = Vec::new();
    for (pid, (track, spans)) in tracks.iter().enumerate() {
        let pid = Value::U64(pid as u64 + 1);
        events.push(Value::Map(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), pid.clone()),
            (
                "args".into(),
                Value::Map(vec![("name".into(), Value::Str(track.clone()))]),
            ),
        ]));
        for (id, s) in spans.iter().enumerate() {
            let mut args = vec![("id".into(), Value::U64(id as u64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Value::U64(p as u64)));
            }
            if !s.label.is_empty() {
                args.push(("label".into(), Value::Str(s.label.clone())));
            }
            events.push(Value::Map(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("cat".into(), Value::Str("benchmark".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(s.start_ns as f64 / 1000.0)),
                ("dur".into(), Value::F64(s.dur_ns as f64 / 1000.0)),
                ("pid".into(), pid.clone()),
                ("tid".into(), Value::U64(1)),
                ("args".into(), Value::Map(args)),
            ]));
        }
    }
    Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name: name.into(),
            label: String::new(),
            parent,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn coverage_and_self_time() {
        let spans = vec![
            span("cell", None, 0, 1000),
            span("setup", Some(0), 0, 300),
            span("ticks", Some(0), 300, 690),
        ];
        check_coverage(&spans, 0.02).unwrap();
        assert!(check_coverage(&spans, 0.005).is_err());
        let rows = self_times(&spans);
        assert_eq!(rows[0], ("cell".to_string(), 1, 1000, 10));
        assert_eq!(rows[2], ("ticks".to_string(), 1, 690, 690));
        let overfull = vec![span("cell", None, 0, 100), span("setup", Some(0), 0, 101)];
        assert!(check_coverage(&overfull, 0.02).is_err());
    }

    #[test]
    fn spans_round_trip_through_json_and_tracer_nests() {
        let mut t = Tracer::default();
        let root = t.begin("workload", "w".into(), None);
        let child = t.begin("cell", "c".into(), Some(root));
        t.end(child);
        t.end(root);
        let spans = t.into_spans();
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        assert_eq!(from_json(&to_json(&spans)).unwrap(), spans);
        let trace = serde_json::to_string(&chrome_trace(&[("w".into(), spans)])).unwrap();
        assert!(trace.contains("\"ph\":\"X\"") && trace.contains("\"parent\":0"));
    }
}
