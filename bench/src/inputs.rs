//! The op model: workloads, request frames, and the per-connection plans
//! the generators walk. Everything here is a pure function of the seed.

use crate::json::{escape_into, str_array_into};
use crate::stats::Fnv;
use av_corpus::Column;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ValidateFeeds,
    ClassifyBurst,
    ClassifyPaced,
    OnboardLake,
    DurableFeed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ValidateFeeds,
        Workload::ClassifyBurst,
        Workload::ClassifyPaced,
        Workload::OnboardLake,
        Workload::DurableFeed,
    ];

    /// The workloads `BENCHMARK.json` lists for the driver. The driver's
    /// time is 4 + 22 runs per workload inside 3420 s, and a steady
    /// reading on a shared host needs long windows more than it needs a
    /// fifth workload: `classify_paced` runs on request (and with
    /// `--workload all`) but is not on the list.
    #[cfg(test)]
    pub const LISTED: [Workload; 4] = [
        Workload::ValidateFeeds,
        Workload::ClassifyBurst,
        Workload::OnboardLake,
        Workload::DurableFeed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ValidateFeeds => "validate_feeds",
            Workload::ClassifyBurst => "classify_burst",
            Workload::ClassifyPaced => "classify_paced",
            Workload::OnboardLake => "onboard_lake",
            Workload::DurableFeed => "durable_feed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Read workloads leave the service's state alone, so their answers
    /// are known before the window; write workloads are checked against
    /// an oracle replay after it.
    pub fn mutates(self) -> bool {
        matches!(self, Workload::OnboardLake | Workload::DurableFeed)
    }

    /// Generator connections (≤ the container's two cores).
    pub fn connections(self) -> usize {
        match self {
            Workload::ClassifyPaced | Workload::OnboardLake => 1,
            _ => 2,
        }
    }
}

/// Frames a `classify_burst` connection keeps in flight.
pub const BURST_DEPTH: usize = 32;
/// Offered rate of `classify_paced`, operations per second.
pub const PACED_RATE: u64 = 2000;

/// Full size, or the 5 % self-check of `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn of(self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Validate = 1,
    Classify = 2,
    Ingest = 3,
    Infer = 4,
    Delete = 5,
    Ping = 6,
}

/// One request line. Frames that name a rule after the op that sends
/// them (`infer`, `delete_rule` in the write workloads) are cut around
/// the op counter, so an op list can be walked more than once without
/// ever reusing a rule name.
#[derive(Debug, Clone)]
pub struct Frame {
    pub kind: FrameKind,
    head: String,
    /// Text after the counter, and what to add to the op's own counter
    /// (a `delete_rule` names the rule an earlier op inferred).
    tail: Option<(i64, String)>,
    /// Data values the frame carries.
    pub values: u32,
    /// The oracle's answer, for frames whose answer is known up front.
    pub expect: u64,
}

impl Frame {
    pub fn fixed(kind: FrameKind, line: String, values: usize, expect: u64) -> Frame {
        Frame {
            kind,
            head: line,
            tail: None,
            values: values as u32,
            expect,
        }
    }

    pub fn counted(
        kind: FrameKind,
        head: String,
        offset: i64,
        tail: String,
        values: usize,
    ) -> Frame {
        Frame {
            kind,
            head,
            tail: Some((offset, tail)),
            values: values as u32,
            expect: 0,
        }
    }

    /// Append the frame as sent by op number `k`, newline included.
    pub fn render(&self, k: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(self.head.as_bytes());
        if let Some((offset, tail)) = &self.tail {
            out.extend_from_slice((k as i64 + offset).max(0).to_string().as_bytes());
            out.extend_from_slice(tail.as_bytes());
        }
        out.push(b'\n');
    }

    pub fn rendered(&self, k: u64) -> String {
        let mut out = Vec::new();
        self.render(k, &mut out);
        String::from_utf8(out).expect("frames are built from strings")
    }

    fn digest(&self, h: Fnv) -> Fnv {
        let h = h.num(self.kind as u64).field(&self.head);
        match &self.tail {
            Some((offset, tail)) => h.num(*offset as u64).field(tail),
            None => h,
        }
    }
}

/// One operation as the end-to-end metrics count it: one frame, except
/// in `onboard_lake`, where a table's `ingest` and `infer` go together.
#[derive(Debug, Clone)]
pub struct Op {
    pub frames: Vec<Frame>,
}

/// The ops one generator connection sends: the list, walked cyclically
/// from `start`. Read workloads share one list between connections at
/// different starts; write workloads give each connection its own.
#[derive(Debug, Clone)]
pub struct ConnPlan {
    pub ops: Arc<Vec<Op>>,
    pub start: usize,
}

impl ConnPlan {
    pub fn op(&self, k: u64) -> &Op {
        &self.ops[(self.start + k as usize) % self.ops.len()]
    }
}

/// Digest of the generated op lists (each distinct list once).
pub fn inputs_digest(plans: &[ConnPlan]) -> u64 {
    let mut h = Fnv::new();
    let mut seen: Vec<*const Vec<Op>> = Vec::new();
    for plan in plans {
        let ptr = Arc::as_ptr(&plan.ops);
        if seen.contains(&ptr) {
            continue;
        }
        seen.push(ptr);
        for op in plan.ops.iter() {
            for frame in &op.frames {
                h = frame.digest(h);
            }
        }
    }
    h.0
}

pub fn validate_line(rule: &str, values: &[&str]) -> String {
    let mut line = String::from("{\"op\":\"validate\",\"rule\":");
    escape_into(rule, &mut line);
    line.push_str(",\"values\":");
    str_array_into(values, &mut line);
    line.push('}');
    line
}

pub fn classify_line(value: &str) -> String {
    let mut line = String::from("{\"op\":\"classify\",\"value\":");
    escape_into(value, &mut line);
    line.push('}');
    line
}

pub fn ingest_line(columns: &[&Column]) -> String {
    let mut line = String::from("{\"op\":\"ingest\",\"columns\":[");
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str("{\"name\":");
        escape_into(&c.name, &mut line);
        line.push_str(",\"values\":");
        str_array_into(&c.values, &mut line);
        line.push('}');
    }
    line.push_str("]}");
    line
}

/// An `infer` frame for rule `<prefix><op counter>`: the automatic
/// fallback chain, or with `basic` the plain FMDV variant (whole-value
/// patterns only, no cuts).
pub fn infer_frame(prefix: &str, train: &[String], basic: bool) -> Frame {
    let mut head = String::from("{\"op\":\"infer\",\"rule\":\"");
    head.push_str(prefix);
    let mut tail = String::from(if basic {
        "\",\"variant\":\"fmdv\",\"values\":"
    } else {
        "\",\"values\":"
    });
    str_array_into(train, &mut tail);
    tail.push('}');
    Frame::counted(FrameKind::Infer, head, 0, tail, train.len())
}

/// A `delete_rule` frame for the rule the op `back` ops earlier inferred.
pub fn delete_frame(prefix: &str, back: i64) -> Frame {
    let mut head = String::from("{\"op\":\"delete_rule\",\"name\":\"");
    head.push_str(prefix);
    Frame::counted(FrameKind::Delete, head, -back, "\"}".to_string(), 0)
}

pub const PING_LINE: &str = "{\"op\":\"ping\"}";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_frames_name_rules_after_the_op() {
        let f = infer_frame("w/c0/r", &["a".to_string(), "b\"c".to_string()], false);
        assert_eq!(
            f.rendered(15),
            "{\"op\":\"infer\",\"rule\":\"w/c0/r15\",\"values\":[\"a\",\"b\\\"c\"]}\n"
        );
        assert_eq!(
            delete_frame("w/c0/r", 8).rendered(63),
            "{\"op\":\"delete_rule\",\"name\":\"w/c0/r55\"}\n"
        );
        let fixed = Frame::fixed(FrameKind::Classify, classify_line("x"), 1, 7);
        assert_eq!(fixed.rendered(3), fixed.rendered(99));
    }

    #[test]
    fn plans_wrap_and_share() {
        let ops: Arc<Vec<Op>> = Arc::new(
            ["a", "b", "c"]
                .iter()
                .map(|v| Op {
                    frames: vec![Frame::fixed(FrameKind::Classify, classify_line(v), 1, 0)],
                })
                .collect(),
        );
        let a = ConnPlan {
            ops: Arc::clone(&ops),
            start: 0,
        };
        let b = ConnPlan { ops, start: 1 };
        assert_eq!(a.op(4).frames[0].rendered(0), b.op(0).frames[0].rendered(0));
        // A shared list is digested once: the digest is that of one plan.
        assert_eq!(inputs_digest(&[a.clone(), b]), inputs_digest(&[a]));
    }
}
