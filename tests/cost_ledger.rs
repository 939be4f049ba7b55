//! The cost ledger: what one unit of work costs, counted rather than
//! timed, so a row moves only when the code does.
//!
//! **Codec rows.** Allocation calls (`alloc` plus `realloc`, the
//! benchmark's `alloc.count_per_op` definition) made by one
//! `write_request_frame` / `read_request_frame` or
//! `write_response_frame` / `read_response_frame` of each frame kind the
//! benchmark's `serve_mixed` and `serve_saturate` workloads exchange.
//! An encode writes into a buffer that never grows, so only the codec
//! allocates; a decode reads one frame from a byte slice and includes
//! the decoded frame's own heap fields. Every count is taken three times
//! after a warm-up call and must repeat exactly. The file holds a single
//! test, so nothing else allocates while it counts.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use qosr_cli::wire::{
    read_request_frame, read_response_frame, write_request_frame, write_response_frame, AdvanceDef,
    AdvanceOutcomeFrame, EstablishDef, OutcomeFrame, RequestFrame, ResponseFrame, StatsFrame,
};
use std::hint::black_box;

/// `(frame kind, allocation calls to encode, allocation calls to decode)`.
type Row = (&'static str, usize, usize);

/// The recorded codec rows, requests first.
const CODEC: &[Row] = &[
    ("request establish (plain)", 1, 1),
    ("request establish (traced)", 2, 1),
    ("request establish (tradeoff)", 7, 5),
    ("request terminate", 6, 3),
    ("request renegotiate", 6, 3),
    ("request advance (malleable)", 7, 4),
    ("request advance_cancel", 6, 3),
    ("request stats", 5, 3),
    ("response outcome (committed)", 2, 2),
    ("response outcome (attributed)", 8, 6),
    ("response outcome (rejected)", 9, 7),
    ("response terminated", 6, 3),
    ("response renegotiated", 7, 4),
    ("response advance", 8, 5),
    ("response advance_cancelled", 7, 3),
    ("response stats", 8, 5),
];

const ID: u64 = 1_234_567;
const SESSION: u64 = 987_654;

fn requests() -> Vec<(&'static str, RequestFrame)> {
    let plain = EstablishDef::new(ID);
    let mut traced = EstablishDef::new(ID);
    traced.service = 2;
    traced.domain = 5;
    traced.scale = 1.375;
    traced.trace = Some(ID);
    let mut tradeoff = traced.clone();
    tradeoff.planner = Some("tradeoff".to_owned());
    tradeoff.qos_min = Some(2);
    let mut advance = AdvanceDef::malleable(ID, 0, 37.25, 100_123.0);
    advance.max_rate = Some(4.5);
    vec![
        ("request establish (plain)", RequestFrame::Establish(plain)),
        (
            "request establish (traced)",
            RequestFrame::Establish(traced),
        ),
        (
            "request establish (tradeoff)",
            RequestFrame::Establish(tradeoff),
        ),
        (
            "request terminate",
            RequestFrame::Terminate {
                id: ID,
                session: SESSION,
            },
        ),
        (
            "request renegotiate",
            RequestFrame::Renegotiate {
                id: ID,
                session: SESSION,
            },
        ),
        (
            "request advance (malleable)",
            RequestFrame::Advance(advance),
        ),
        (
            "request advance_cancel",
            RequestFrame::AdvanceCancel {
                id: ID,
                session: SESSION,
            },
        ),
        ("request stats", RequestFrame::Stats { id: ID }),
    ]
}

fn outcome(status: &str) -> OutcomeFrame {
    OutcomeFrame {
        id: ID,
        status: status.to_owned(),
        session: None,
        rank: None,
        psi: None,
        from: None,
        to: None,
        error: None,
        miss_resource: None,
        miss_ratio: None,
        trace: None,
        queue_ns: None,
        collect_ns: None,
        plan_ns: None,
        replan_ns: None,
        commit_ns: None,
        total_ns: None,
    }
}

/// The attribution a traced establish's outcome carries.
fn attribute(frame: &mut OutcomeFrame) {
    frame.trace = Some(ID);
    frame.queue_ns = Some(151_873);
    frame.collect_ns = Some(2_417);
    frame.plan_ns = Some(8_935);
    frame.replan_ns = Some(0);
    frame.commit_ns = Some(3_106);
    frame.total_ns = Some(166_331);
}

fn responses() -> Vec<(&'static str, ResponseFrame)> {
    let mut committed = outcome("committed");
    committed.session = Some(SESSION);
    committed.rank = Some(3);
    committed.psi = Some(0.461_538_461_538_461_56);
    let mut attributed = committed.clone();
    attribute(&mut attributed);
    let mut rejected = outcome("rejected");
    rejected.error = Some(
        "planning failed: no end-to-end QoS level is reachable under current availability"
            .to_owned(),
    );
    rejected.miss_resource = Some(4);
    rejected.miss_ratio = Some(1.872_340_425_531_914_8);
    attribute(&mut rejected);
    let advance = AdvanceOutcomeFrame {
        id: ID,
        status: "booked".to_owned(),
        session: Some(SESSION),
        start: Some(5_123.0),
        end: Some(5_131.277_777_777_777),
        volume: Some(37.25),
        psi: Some(0.112_5),
        segments: Some(1),
        moved: None,
        error: None,
        nearest_deadline: None,
    };
    let stats = StatsFrame {
        id: ID,
        rounds: 61_729,
        requests: ID,
        establishments: 823_455,
        releases: 823_301,
        live_sessions: 154,
        connections: 1,
        total_available: 3_418.25,
        total_capacity: 6_400.0,
        over_committed: false,
    };
    vec![
        (
            "response outcome (committed)",
            ResponseFrame::Outcome(committed),
        ),
        (
            "response outcome (attributed)",
            ResponseFrame::Outcome(attributed),
        ),
        (
            "response outcome (rejected)",
            ResponseFrame::Outcome(rejected),
        ),
        (
            "response terminated",
            ResponseFrame::Terminated {
                id: ID,
                session: SESSION,
                released: 42.75,
            },
        ),
        (
            "response renegotiated",
            ResponseFrame::Renegotiated {
                id: ID,
                session: SESSION,
                rank: 4,
                psi: 0.384_615_384_615_384_6,
                upgraded: true,
            },
        ),
        ("response advance", ResponseFrame::Advance(advance)),
        (
            "response advance_cancelled",
            ResponseFrame::AdvanceCancelled {
                id: ID,
                session: SESSION,
                released_volume: 37.25,
                bookings_removed: 1,
            },
        ),
        ("response stats", ResponseFrame::Stats(stats)),
    ]
}

/// Allocation calls one run of `f` makes, after a warm-up run; panics
/// unless three counted runs agree exactly.
fn count(name: &str, what: &str, mut f: impl FnMut()) -> usize {
    f();
    let runs: Vec<usize> = (0..3)
        .map(|_| {
            let before = counting_alloc::calls();
            f();
            counting_alloc::calls() - before
        })
        .collect();
    assert!(
        runs.iter().all(|&n| n == runs[0]),
        "{name}: {what} allocation count does not repeat: {runs:?}"
    );
    runs[0]
}

/// Counts one encode and one decode of `frame`, checking the decode
/// gives the frame back.
fn row<F: PartialEq + std::fmt::Debug>(
    name: &'static str,
    frame: &F,
    write: impl Fn(&mut Vec<u8>, &F),
    read: impl Fn(&mut &[u8]) -> F,
) -> Row {
    let mut out = Vec::with_capacity(4096);
    let encode = count(name, "encode", || {
        out.clear();
        write(&mut out, frame);
    });
    assert!(out.capacity() == 4096, "{name}: the output buffer grew");
    let bytes = out.clone();
    let decode = count(name, "decode", || {
        black_box(read(&mut bytes.as_slice()));
    });
    assert_eq!(&read(&mut bytes.as_slice()), frame, "{name}: round trip");
    (name, encode, decode)
}

#[test]
fn codec_allocations_per_frame_are_pinned() {
    let mut measured: Vec<Row> = requests()
        .iter()
        .map(|(name, frame)| {
            row(
                name,
                frame,
                |out, f| write_request_frame(out, f).expect("encode"),
                |bytes| read_request_frame(bytes).expect("decode").expect("a frame"),
            )
        })
        .collect();
    measured.extend(responses().iter().map(|(name, frame)| {
        row(
            name,
            frame,
            |out, f| write_response_frame(out, f).expect("encode"),
            |bytes| {
                read_response_frame(bytes)
                    .expect("decode")
                    .expect("a frame")
            },
        )
    }));
    let table: String = measured
        .iter()
        .map(|(name, enc, dec)| format!("    (\"{name}\", {enc}, {dec}),\n"))
        .collect();
    assert_eq!(measured, CODEC, "measured codec rows:\n{table}");
}
