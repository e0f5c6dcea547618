//! In-memory span recorder for the traced repetition.
//!
//! Spans are recorded by the benchmark's own code around its calls into a
//! layer's public functions (nothing inside the library is instrumented),
//! kept in a preallocated buffer, and written out only after the
//! repetition ended.

use std::io::Write;
use std::time::Instant;

/// The layer names: a span's `layer` field indexes this table, and the
/// per-layer metric names are prefixed with these.
pub const LAYERS: [&str; 13] = [
    "host",
    "datatype",
    "rma",
    "index",
    "storage",
    "cache",
    "window",
    "coherence",
    "snapshot",
    "shard",
    "apps",
    "model",
    "trace",
];

/// Index of `name` in [`LAYERS`].
pub fn layer(name: &str) -> u8 {
    LAYERS
        .iter()
        .position(|l| *l == name)
        .unwrap_or_else(|| panic!("unknown layer `{name}`")) as u8
}

/// The root span's parent id.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. `op` is the workload operation the span belongs
/// to (spans of one operation share it); `parent` is the span that caused
/// this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub layer: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A preallocated span buffer with its own time origin.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans (pushing more still works
    /// but reallocates inside the measured region).
    pub fn new(capacity: usize) -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// The time origin every span of this recorder is relative to.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(&mut self, parent: u32, op: u32, layer: u8, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose end is not known yet (a repetition's root);
    /// close it with [`Recorder::close`].
    pub fn open(&mut self, parent: u32, op: u32, layer: u8) -> u32 {
        let now = self.now();
        self.push(parent, op, layer, now, now)
    }

    /// Sets span `id`'s end to now.
    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans (a second thread's), re-basing their
    /// ids and re-parenting their roots under `parent` (`NO_PARENT` keeps them
    /// roots). Both recorders must share a time origin
    /// ([`Recorder::with_origin`]).
    pub fn absorb(&mut self, other: Recorder, parent: u32) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + base
            },
            ..s
        }));
    }

    /// An empty recorder on an existing time origin (another thread's, or a
    /// rank's inside a simulation), to be [`Recorder::absorb`]ed later.
    pub fn with_origin(origin: Instant, capacity: usize) -> Recorder {
        Recorder {
            t0: origin,
            spans: Vec::with_capacity(capacity),
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
/// Indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in [`LAYERS`] order.
pub fn self_time_by_layer(spans: &[Span]) -> [u64; LAYERS.len()] {
    let mut out = [0u64; LAYERS.len()];
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out[s.layer as usize] += t;
    }
    out
}

/// Writes the trace file. Spans are rows of `columns` to keep a file of
/// ~10^5 spans small; `rungs` are the layer-ladder results of the same run.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    rungs: &[(String, f64)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        f,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"time_unit\": \"ns\", \"layers\": ["
    )?;
    for (i, l) in LAYERS.iter().enumerate() {
        write!(f, "{}\"{l}\"", if i > 0 { ", " } else { "" })?;
    }
    write!(f, "], \"self_ns_by_layer\": {{")?;
    for (i, t) in self_time_by_layer(spans).iter().enumerate() {
        write!(f, "{}\"{}\": {t}", if i > 0 { ", " } else { "" }, LAYERS[i])?;
    }
    write!(f, "}}, \"ladder_ns_per_op\": {{")?;
    for (i, (name, v)) in rungs.iter().enumerate() {
        let v = crate::json::Value::Num(*v);
        write!(f, "{}\"{name}\": {v}", if i > 0 { ", " } else { "" })?;
    }
    writeln!(
        f,
        "}}, \"columns\": [\"id\", \"parent\", \"op\", \"layer\", \"start_ns\", \"end_ns\"], \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            f,
            "[{}, {parent}, {}, {}, {}, {}]{}",
            s.id,
            s.op,
            s.layer,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 50, 80),
            span(3, 2, 55, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, NO_PARENT, 100, 200),
            span(1, 0, 110, 150),
            span(2, 0, 140, 160), // overlaps span 1 by 10
            span(3, 0, 190, 250), // overhangs the parent by 50
            span(4, 0, 120, 130), // nested inside span 1's interval
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn absorb_rebases_ids_and_reparents_roots() {
        let mut a = Recorder::new(4);
        let root = a.push(NO_PARENT, 0, layer("trace"), 0, 100);
        let mut b = Recorder::with_origin(a.origin(), 4);
        let r = b.push(NO_PARENT, 0, layer("shard"), 10, 90);
        b.push(r, 1, layer("shard"), 20, 30);
        a.absorb(b, root);
        let s = a.spans();
        assert_eq!((s[1].id, s[1].parent), (1, root));
        assert_eq!((s[2].id, s[2].parent), (2, 1));
        assert_eq!(self_times(s), vec![20, 70, 10]);
    }

    #[test]
    fn trace_file_is_valid_json() {
        // Under the package's own (git-ignored) output directory.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-test-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        let spans = [span(0, NO_PARENT, 0, 10), span(1, 0, 2, 4)];
        write_trace(&path, "hit_small", 42, &spans, &[("window".into(), 1.5)]).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let v = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(
            v.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("self_ns_by_layer")
                .and_then(|m| m.get("host"))
                .and_then(|n| n.as_f64()),
            Some(8.0 + 2.0)
        );
    }
}
