//! Reading the flight recorder: where one payment's time went, and the
//! chrome://tracing export.
//!
//! A direct payment leaves this causal chain in the merged event stream:
//!
//! ```text
//! payer  OpSubmit(S) → Ecall → WireSend(W1)
//! payee                          WireRecv(W1) → Ecall → WireSend(W2)
//! payer                                                   WireRecv(W2) → Ecall → OpComplete(S)
//! ```
//!
//! The walk goes backwards from `OpComplete` along the recorded parents, so
//! it finds the frames that actually completed the operation and skips any
//! operation whose chain has another shape (multi-hop, replication, a
//! payment that waited in an admission queue).

use crate::json::Json;
use std::collections::HashMap;
use teechain_trace::{EventKind, TraceEvent};

/// The six timestamps of one direct payment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayPath {
    pub submit: u64,
    pub send_out: u64,
    pub recv_out: u64,
    pub send_back: u64,
    pub recv_back: u64,
    pub complete: u64,
}

impl PayPath {
    /// The five segments from submit to complete, in order.
    pub fn segments(&self) -> [u64; 5] {
        [
            self.send_out.saturating_sub(self.submit),
            self.recv_out.saturating_sub(self.send_out),
            self.send_back.saturating_sub(self.recv_out),
            self.recv_back.saturating_sub(self.send_back),
            self.complete.saturating_sub(self.recv_back),
        ]
    }
}

/// Names of [`PayPath::segments`], as reported.
pub const SEGMENT_NAMES: [&str; 5] = [
    "seg.submit_to_send_ns",
    "seg.wire_out_ns",
    "seg.payee_turn_ns",
    "seg.wire_back_ns",
    "seg.ack_to_complete_ns",
];

/// Extracts the path of every successfully completed direct payment, keyed
/// by the operation's root span.
pub fn pay_paths(events: &[TraceEvent]) -> HashMap<u64, PayPath> {
    let mut submit = HashMap::new();
    let mut complete = HashMap::new();
    let mut ecall_parent = HashMap::new();
    let mut send = HashMap::new();
    let mut recv = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::OpSubmit => {
                submit.insert(e.span, e.ts_ns);
            }
            EventKind::OpComplete if e.a == 1 => {
                complete.insert(e.span, (e.ts_ns, e.parent));
            }
            EventKind::Ecall => {
                ecall_parent.insert(e.span, e.parent);
            }
            EventKind::WireSend => {
                send.entry(e.span).or_insert((e.ts_ns, e.parent));
            }
            EventKind::WireRecv => {
                recv.entry(e.span).or_insert(e.ts_ns);
            }
            _ => {}
        }
    }
    // Climbs from a cause through enclave entries to what triggered them.
    let through_ecalls = |mut span: u64| {
        for _ in 0..8 {
            match ecall_parent.get(&span) {
                Some(&p) => span = p,
                None => break,
            }
        }
        span
    };
    let mut paths = HashMap::new();
    for (&op, &(complete_ts, cause)) in &complete {
        let path = (|| {
            let w2 = through_ecalls(cause);
            let (send_back, cause) = *send.get(&w2)?;
            let w1 = through_ecalls(cause);
            let (send_out, cause) = *send.get(&w1)?;
            if through_ecalls(cause) != op {
                return None;
            }
            Some(PayPath {
                submit: *submit.get(&op)?,
                send_out,
                recv_out: *recv.get(&w1)?,
                send_back,
                recv_back: *recv.get(&w2)?,
                complete: complete_ts,
            })
        })();
        if let Some(p) = path {
            paths.insert(op, p);
        }
    }
    paths
}

/// A bench-side span: a call from the generator into the runtime.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Thread id the bench-side spans are drawn on (node ids are small).
const BENCH_TID: u64 = 1_000_000;

/// One chrome://tracing document: bench-side spans as complete ("X")
/// events on their own track, flight-recorder events as instants ("i") on
/// one track per node. Timestamps are microseconds since the cluster epoch.
pub fn chrome_trace(spans: &[BenchSpan], events: &[TraceEvent]) -> String {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let mut out = Vec::with_capacity(spans.len() + events.len());
    for s in spans {
        out.push(Json::Obj(vec![
            ("name".into(), Json::Str(s.name.into())),
            ("cat".into(), Json::Str("bench".into())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), us(s.start_ns)),
            ("dur".into(), us(s.dur_ns)),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(BENCH_TID as f64)),
        ]));
    }
    for e in events {
        out.push(Json::Obj(vec![
            ("name".into(), Json::Str(e.kind.name().into())),
            ("cat".into(), Json::Str("recorder".into())),
            ("ph".into(), Json::Str("i".into())),
            ("s".into(), Json::Str("t".into())),
            ("ts".into(), us(e.ts_ns)),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(e.node as f64)),
            (
                "args".into(),
                Json::Obj(vec![
                    ("span".into(), Json::Str(format!("{:016x}", e.span))),
                    ("parent".into(), Json::Str(format!("{:016x}", e.parent))),
                    ("a".into(), Json::Num(e.a as f64)),
                    ("b".into(), Json::Num(e.b as f64)),
                ]),
            ),
        ]));
    }
    Json::Obj(vec![("traceEvents".into(), Json::Arr(out))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, node: u32, kind: EventKind, span: u64, parent: u64, a: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            node,
            kind,
            span,
            parent,
            a,
            b: 0,
        }
    }

    /// One direct payment: op span 1, ecalls 11/12/13, frames 21 and 22.
    fn direct_payment() -> Vec<TraceEvent> {
        vec![
            ev(100, 0, EventKind::OpSubmit, 1, 0, 7),
            ev(110, 0, EventKind::Ecall, 11, 1, 0),
            ev(130, 0, EventKind::WireSend, 21, 11, 200),
            ev(180, 1, EventKind::WireRecv, 21, 0, 200),
            ev(185, 1, EventKind::Ecall, 12, 21, 0),
            ev(200, 1, EventKind::WireSend, 22, 12, 150),
            ev(260, 0, EventKind::WireRecv, 22, 0, 150),
            ev(262, 0, EventKind::Ecall, 13, 22, 0),
            ev(275, 0, EventKind::OpComplete, 1, 13, 1),
        ]
    }

    #[test]
    fn segments_of_a_hand_built_payment() {
        let paths = pay_paths(&direct_payment());
        assert_eq!(paths.len(), 1);
        let p = paths[&1];
        assert_eq!(p.segments(), [30, 50, 20, 60, 15]);
        assert_eq!(p.segments().iter().sum::<u64>(), p.complete - p.submit);
    }

    #[test]
    fn other_shapes_and_failures_are_skipped() {
        // A failed operation has no path.
        let mut failed = direct_payment();
        failed[8].a = 0;
        assert!(pay_paths(&failed).is_empty());
        // A payment sent from another operation's turn (it waited in an
        // admission queue) does not chain back to its own submit.
        let mut queued = direct_payment();
        queued[1].parent = 99;
        assert!(pay_paths(&queued).is_empty());
        // A lost frame event (ring overwrite) drops the op, not the run.
        let mut torn = direct_payment();
        torn.remove(3);
        assert!(pay_paths(&torn).is_empty());
        // Two interleaved payments are told apart.
        let mut two = direct_payment();
        two.extend(direct_payment().into_iter().map(|mut e| {
            e.ts_ns += 1_000;
            e.span += 100;
            if e.parent != 0 {
                e.parent += 100;
            }
            e
        }));
        assert_eq!(pay_paths(&two).len(), 2);
    }

    #[test]
    fn chrome_document_parses() {
        let spans = [BenchSpan {
            name: "submit",
            start_ns: 90,
            dur_ns: 25,
        }];
        let doc = Json::parse(&chrome_trace(&spans, &direct_payment())).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 10);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("op_submit"));
    }
}
