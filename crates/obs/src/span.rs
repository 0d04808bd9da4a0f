//! Hierarchical spans with deterministic IDs.
//!
//! A span identifies one timed region of the solve pipeline (a stage,
//! a segment execution, a retry attempt). Its ID is a pure function of
//! *structure*, not of wall-clock or scheduling:
//!
//! ```text
//! id(root)  = splitmix64(fnv64(label))
//! id(child) = splitmix64(splitmix64(parent_id ^ fnv64(label)) ^ ordinal)
//! ```
//!
//! where `ordinal` is the child's index among its siblings (in open
//! order on the control-plane thread). Because the solver's control
//! flow is bit-reproducible at any `RASENGAN_THREADS`, the span tree —
//! IDs, labels, attributes, nesting — is byte-identical too. Durations
//! (`elapsed_s`) are recorded alongside but excluded from the
//! deterministic rendering; the JSONL exporter includes them.
//!
//! The [`Tracer`] is an explicit open/close stack (no RAII guards, so
//! it can be threaded through `&mut` call chains without borrow
//! gymnastics). When disabled ([`Tracer::off`]) an open/close pair
//! costs two `Instant` reads and one `Vec` push/pop of a small frame —
//! the same order of cost as the ad-hoc `Instant` stage timing it
//! replaced — and no tree is built.

use crate::json::Json;
use std::hash::Hasher;
use std::time::Instant;

/// SplitMix64 finalizer — the canonical copy for the workspace.
///
/// `rasengan-qsim`'s `parallel` module re-exports this so seed
/// derivation and span-ID derivation share one definition.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a — the canonical copy for the workspace: the label
/// half of a span ID, the metrics shard pick, the fabric's ring points
/// and the persisted record checksum. Not cryptographic; the checksum
/// guards against bit rot and torn writes, not an adversary with write
/// access to the state directory.
#[must_use]
pub fn fnv64(bytes: impl AsRef<[u8]>) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes.as_ref());
    h.finish()
}

/// [`fnv64`] as a streaming [`Hasher`], for keys that hash through
/// [`std::hash::Hash`] (the serve cache's shard pick). Stable across
/// processes and releases, unlike `RandomState`.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Derives a child span ID from its parent's ID, its label, and its
/// ordinal among siblings.
#[must_use]
pub fn span_id(parent: u64, label: &str, ordinal: u64) -> u64 {
    splitmix64(splitmix64(parent ^ fnv64(label)) ^ ordinal)
}

/// One node of a trace tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Deterministic ID (see module docs for the derivation).
    pub id: u64,
    /// Call-site label, e.g. `"segment"`.
    pub label: &'static str,
    /// Index among siblings, in open order.
    pub ordinal: u64,
    /// Deterministic attributes (counts, indices, flags — never
    /// wall-clock, never thread counts).
    pub attrs: Vec<(&'static str, Json)>,
    /// Wall-clock duration in seconds. Excluded from the deterministic
    /// rendering.
    pub elapsed_s: f64,
    pub children: Vec<Span>,
}

impl Span {
    fn json(&self, with_elapsed: bool) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::Str(format!("{:#018x}", self.id))),
            ("label".to_string(), Json::Str(self.label.to_string())),
            ("ordinal".to_string(), Json::Int(i128::from(self.ordinal))),
        ];
        if !self.attrs.is_empty() {
            pairs.push((
                "attrs".to_string(),
                Json::Obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                ),
            ));
        }
        if with_elapsed {
            pairs.push(("elapsed_s".to_string(), Json::Num(self.elapsed_s)));
        }
        if !self.children.is_empty() {
            pairs.push((
                "children".to_string(),
                Json::Arr(self.children.iter().map(|c| c.json(with_elapsed)).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Total number of spans in this subtree (including `self`).
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(Span::count).sum::<usize>()
    }

    fn jsonl_into(&self, parent: u64, out: &mut String) {
        let mut pairs = vec![
            ("id".to_string(), Json::Str(format!("{:#018x}", self.id))),
            ("parent".to_string(), Json::Str(format!("{parent:#018x}"))),
            ("label".to_string(), Json::Str(self.label.to_string())),
            ("ordinal".to_string(), Json::Int(i128::from(self.ordinal))),
            ("elapsed_s".to_string(), Json::Num(self.elapsed_s)),
        ];
        if !self.attrs.is_empty() {
            pairs.push((
                "attrs".to_string(),
                Json::Obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect(),
                ),
            ));
        }
        out.push_str(&Json::Obj(pairs).render());
        out.push('\n');
        for child in &self.children {
            child.jsonl_into(self.id, out);
        }
    }
}

/// A completed span tree, as attached to an `Outcome` or exported.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceTree {
    pub root: Span,
}

impl TraceTree {
    /// Deterministic rendering: structure, IDs, labels, ordinals, and
    /// attributes — no durations. Byte-identical for a fixed-seed
    /// solve at any thread count; this is what golden tests compare
    /// and what the serve `trace` response section carries.
    pub fn deterministic_json(&self) -> Json {
        self.root.json(false)
    }

    /// Full rendering including wall-clock `elapsed_s` per span.
    pub fn full_json(&self) -> Json {
        self.root.json(true)
    }

    /// JSONL export: one span per line, depth-first, each line carrying
    /// `id`, `parent` (root's parent is `0x0`), `label`, `ordinal`,
    /// `elapsed_s`, and `attrs`. Reuses the canonical writer, so a
    /// given tree always exports to the same bytes up to durations.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.root.jsonl_into(0, &mut out);
        out
    }

    /// Total span count.
    pub fn count(&self) -> usize {
        self.root.count()
    }
}

/// Token returned by [`Tracer::open`]; pass it back to
/// [`Tracer::close`]. Closing a token also closes any spans opened
/// after it that are still open, keeping the tree well-nested across
/// early exits.
#[derive(Debug)]
#[must_use = "unclosed spans never reach the tree"]
pub struct SpanToken {
    depth: usize,
}

struct Frame {
    started: Instant,
    /// `None` in off mode: no tree is built, only elapsed time flows
    /// back through `close`.
    span: Option<Span>,
    next_ordinal: u64,
}

/// The span recorder. Either off (records nothing, `close` still
/// returns elapsed seconds so stage timings can be derived from the
/// same call sites) or recording into an in-memory tree.
pub struct Tracer {
    record: bool,
    frames: Vec<Frame>,
}

impl Tracer {
    /// A disabled tracer: `open`/`close` only time; no tree, no attrs.
    pub fn off() -> Tracer {
        Tracer {
            record: false,
            frames: vec![Frame {
                started: Instant::now(),
                span: None,
                next_ordinal: 0,
            }],
        }
    }

    /// A recording tracer with a root span labelled `label`.
    pub fn memory(label: &'static str) -> Tracer {
        Tracer {
            record: true,
            frames: vec![Frame {
                started: Instant::now(),
                span: Some(Span {
                    id: splitmix64(fnv64(label)),
                    label,
                    ordinal: 0,
                    attrs: Vec::new(),
                    elapsed_s: 0.0,
                    children: Vec::new(),
                }),
                next_ordinal: 0,
            }],
        }
    }

    /// Builds a tracer from a config flag.
    pub fn for_solve(trace: bool) -> Tracer {
        if trace {
            Tracer::memory("solve")
        } else {
            Tracer::off()
        }
    }

    /// Whether spans and attributes are being recorded. Callers may
    /// skip fine-grained detail spans when this is false.
    pub fn enabled(&self) -> bool {
        self.record
    }

    /// Opens a child span of the innermost open span.
    pub fn open(&mut self, label: &'static str) -> SpanToken {
        let span = if self.record {
            let parent = self.frames.last_mut().expect("tracer root frame");
            let ordinal = parent.next_ordinal;
            parent.next_ordinal += 1;
            let parent_id = parent.span.as_ref().expect("recording frame").id;
            Some(Span {
                id: span_id(parent_id, label, ordinal),
                label,
                ordinal,
                attrs: Vec::new(),
                elapsed_s: 0.0,
                children: Vec::new(),
            })
        } else {
            None
        };
        self.frames.push(Frame {
            started: Instant::now(),
            span,
            next_ordinal: 0,
        });
        SpanToken {
            depth: self.frames.len() - 1,
        }
    }

    /// Attaches a deterministic attribute to the innermost open span.
    /// No-op when disabled.
    pub fn attr(&mut self, key: &'static str, value: Json) {
        if !self.record {
            return;
        }
        if let Some(span) = self.frames.last_mut().and_then(|f| f.span.as_mut()) {
            span.attrs.push((key, value));
        }
    }

    /// Integer attribute convenience.
    pub fn attr_int(&mut self, key: &'static str, value: i128) {
        self.attr(key, Json::Int(value));
    }

    /// Closes the span opened by `token`, returning its wall-clock
    /// duration in seconds. Any spans opened after `token` that are
    /// still open (an early `break`/`return` skipped their close) are
    /// closed first, so the tree stays well-nested.
    pub fn close(&mut self, token: SpanToken) -> f64 {
        while self.frames.len() > token.depth + 1 {
            self.close_top();
        }
        self.close_top()
    }

    fn close_top(&mut self) -> f64 {
        let frame = self.frames.pop().expect("close without open");
        let elapsed = frame.started.elapsed().as_secs_f64();
        if let Some(mut span) = frame.span {
            span.elapsed_s = elapsed;
            if let Some(parent) = self.frames.last_mut().and_then(|f| f.span.as_mut()) {
                parent.children.push(span);
            }
        }
        elapsed
    }

    /// Finishes the trace: closes the root span and returns the tree
    /// (`None` when the tracer was off).
    pub fn finish(mut self) -> Option<TraceTree> {
        while self.frames.len() > 1 {
            self.close_top();
        }
        let root_frame = self.frames.pop()?;
        let mut root = root_frame.span?;
        root.elapsed_s = root_frame.started.elapsed().as_secs_f64();
        Some(TraceTree { root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_detects_single_bit_flips() {
        let bytes: Vec<u8> = (0u8..29).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        let clean = fnv64(&bytes);
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325, "offset basis");
        for bit in [0, 7, 63, 8 * bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv64(&flipped), clean, "flip at bit {bit} undetected");
        }
    }

    #[test]
    fn streamed_fnv64_equals_one_shot() {
        let bytes: Vec<u8> = (0u8..41).map(|i| i.wrapping_mul(91) ^ 0x3C).collect();
        for split in [0, 1, 17, bytes.len()] {
            let mut h = Fnv64::default();
            h.write(&bytes[..split]);
            h.write(&bytes[split..]);
            assert_eq!(h.finish(), fnv64(&bytes), "split at {split}");
        }
    }

    #[test]
    fn span_ids_are_structure_deterministic() {
        let a = span_id(7, "segment", 0);
        assert_eq!(a, span_id(7, "segment", 0));
        assert_ne!(a, span_id(7, "segment", 1));
        assert_ne!(a, span_id(7, "attempt", 0));
        assert_ne!(a, span_id(8, "segment", 0));
    }

    #[test]
    fn tree_structure_is_reproducible_and_duration_free() {
        let build = || {
            let mut t = Tracer::memory("solve");
            let prep = t.open("prepare");
            t.attr_int("ops", 9);
            t.close(prep);
            let exec = t.open("execute");
            for i in 0..3 {
                let seg = t.open("segment");
                t.attr_int("index", i);
                t.close(seg);
            }
            t.close(exec);
            t.finish().unwrap()
        };
        let (a, b) = (build(), build());
        // Wall-clock differs between the two builds, but the
        // deterministic rendering is byte-identical.
        assert_eq!(
            a.deterministic_json().render(),
            b.deterministic_json().render()
        );
        assert_eq!(a.count(), 6);
        let text = a.deterministic_json().render();
        assert!(!text.contains("elapsed_s"));
        assert!(a.full_json().render().contains("elapsed_s"));
    }

    #[test]
    fn off_tracer_times_but_builds_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        let tok = t.open("prepare");
        t.attr_int("ignored", 1);
        let elapsed = t.close(tok);
        assert!(elapsed >= 0.0);
        assert!(t.finish().is_none());
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_parent_links() {
        let mut t = Tracer::memory("solve");
        let a = t.open("prepare");
        t.close(a);
        let tree = t.finish().unwrap();
        let jsonl = tree.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let root = crate::json::parse(lines[0]).unwrap();
        let child = crate::json::parse(lines[1]).unwrap();
        assert_eq!(
            root.get("parent").unwrap().as_str(),
            Some("0x0000000000000000")
        );
        assert_eq!(
            child.get("parent").unwrap().as_str(),
            root.get("id").unwrap().as_str()
        );
    }

    #[test]
    fn unclosed_spans_are_closed_by_finish() {
        let mut t = Tracer::memory("solve");
        let _leak = t.open("execute");
        let tree = t.finish().unwrap();
        assert_eq!(tree.count(), 2);
    }
}
