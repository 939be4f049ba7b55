//! Literal pins of the three encodings qosr shows the outside world:
//! the `qosr serve` frames, the span-tree JSONL and the scenario files.
//!
//! Every literal here was recorded from the hand-written codecs the
//! derived ones replaced, so a passing run proves the frame table, the
//! trace line and the scenario loader kept their exact bytes and
//! meanings:
//!
//! * the bytes of every request and response frame kind, with every
//!   optional field absent and with every field present, through the
//!   generic [`write_frame`] and through the fast writers;
//! * the decoded `{:?}` of non-canonical spellings (whitespace,
//!   reordered keys, explicit `null`s, unknown keys, defaults written
//!   out), through the generic and the fast readers;
//! * that malformed frames (two keys, an unknown tag, a wrong field
//!   type, a missing field) are errors;
//! * [`RequestTrace::to_jsonl`] lines, and the decoded `{:?}` of
//!   non-canonical trace lines;
//! * an FNV-1a 64 of the parsed `{:?}` of every `scenarios/*.scenario.json`.

use qosr::obs::{RequestTrace, SloReport, SpanKind, SpanRecord};
use qosr::sim::ScenarioFile;
use qosr_cli::wire::{
    read_frame, read_request_frame, read_response_frame, write_frame, write_request_frame,
    write_response_frame, AdvanceDef, AdvanceOutcomeFrame, EstablishDef, FlightFrame, OutcomeFrame,
    RequestFrame, ResponseFrame, SloFrame, StatsFrame,
};
use std::io::Cursor;

/// The JSON payload of one encoded frame, checking its length prefix.
fn payload(bytes: &[u8]) -> String {
    let (prefix, body) = bytes.split_at(4);
    assert_eq!(
        u32::from_be_bytes(prefix.try_into().unwrap()) as usize,
        body.len(),
        "length prefix"
    );
    String::from_utf8(body.to_vec()).unwrap()
}

fn framed(text: &str) -> Vec<u8> {
    let mut buf = (text.len() as u32).to_be_bytes().to_vec();
    buf.extend_from_slice(text.as_bytes());
    buf
}

fn full_establish(id: u64) -> EstablishDef {
    EstablishDef {
        id,
        service: 2,
        domain: 5,
        scale: 1.5,
        qos_min: Some(3),
        deadline: Some(12.5),
        planner: Some("tradeoff".into()),
        trace: Some(91),
    }
}

fn full_advance() -> AdvanceDef {
    AdvanceDef {
        id: 11,
        demand: Some(vec![(0, 25.0), (3, 4.5)]),
        from: Some(5.0),
        to: Some(9.0),
        resource: Some(2),
        volume: Some(500.0),
        deadline: Some(40.0),
        earliest: Some(8.0),
        min_rate: Some(1.0),
        max_rate: Some(25.0),
        preempt: true,
        policy: Some("tradeoff".into()),
        trace: Some(17),
    }
}

fn request_cases() -> Vec<RequestFrame> {
    let mut scaled = EstablishDef::new(4);
    scaled.scale = 2.0;
    vec![
        RequestFrame::Establish(EstablishDef::new(1)),
        RequestFrame::Establish(full_establish(7)),
        RequestFrame::Establish(scaled),
        RequestFrame::Batch {
            now: None,
            requests: vec![EstablishDef::new(1), full_establish(2)],
        },
        RequestFrame::Batch {
            now: Some(4.0),
            requests: Vec::new(),
        },
        RequestFrame::Advance(AdvanceDef::rigid(10, vec![(0, 25.0)], 5.0, 9.0)),
        RequestFrame::Advance(AdvanceDef::malleable(12, 2, 500.0, 40.0)),
        RequestFrame::Advance(full_advance()),
        RequestFrame::AdvanceCancel { id: 13, session: 4 },
        RequestFrame::Terminate { id: 3, session: 9 },
        RequestFrame::Renegotiate { id: 4, session: 9 },
        RequestFrame::Stats { id: 5 },
        RequestFrame::Flight { id: 7 },
        RequestFrame::Slo { id: 8 },
        RequestFrame::Ping { id: 6 },
        RequestFrame::Shutdown,
    ]
}

fn bare_outcome(id: u64, status: &str) -> OutcomeFrame {
    OutcomeFrame {
        id,
        status: status.into(),
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

fn bare_advance_outcome(id: u64, status: &str) -> AdvanceOutcomeFrame {
    AdvanceOutcomeFrame {
        id,
        status: status.into(),
        session: None,
        start: None,
        end: None,
        volume: None,
        psi: None,
        segments: None,
        moved: None,
        error: None,
        nearest_deadline: None,
    }
}

fn bare_trace(trace: u64) -> RequestTrace {
    RequestTrace {
        trace,
        service: None,
        outcome: "rejected".into(),
        session: None,
        rank: None,
        psi: None,
        conflicts: 0,
        retries: 0,
        total_ns: 0,
        spans: Vec::new(),
    }
}

fn full_trace() -> RequestTrace {
    RequestTrace {
        trace: 42,
        service: Some("video \"tracking\"".into()),
        outcome: "degraded".into(),
        session: Some(17),
        rank: Some(2),
        psi: Some(0.3125),
        conflicts: 2,
        retries: 3,
        total_ns: 9000,
        spans: vec![
            SpanRecord::new(SpanKind::Queue, 0, 1000),
            SpanRecord::new(SpanKind::Collect, 1000, 500),
            SpanRecord::new(SpanKind::Plan, 1500, 2000)
                .with_psi(0.25)
                .with_planner("tradeoff")
                .with_detail("rank 3 -> 2"),
            SpanRecord::new(SpanKind::Replan, 3500, 1500)
                .with_resource(4)
                .with_attempt(1)
                .with_child(
                    SpanRecord::new(SpanKind::Plan, 3600, 1000)
                        .with_psi(1.0)
                        .with_child(SpanRecord::new(SpanKind::Collect, 3700, 10)),
                ),
            SpanRecord::new(SpanKind::Commit, 5000, 4000),
        ],
    }
}

fn response_cases() -> Vec<ResponseFrame> {
    let mut committed = bare_outcome(1, "committed");
    committed.session = Some(17);
    committed.rank = Some(4);
    committed.psi = Some(0.31);
    let mut integral = committed.clone();
    integral.id = 2;
    integral.psi = Some(1.0);
    let mut degraded = committed.clone();
    degraded.id = 3;
    degraded.status = "degraded".into();
    degraded.from = Some(4);
    degraded.to = Some(2);
    let mut rejected = bare_outcome(4, "rejected");
    rejected.error = Some("no feasible plan: \"server.cpu\" short".into());
    rejected.miss_resource = Some(6);
    rejected.miss_ratio = Some(1.9);
    let mut traced = committed.clone();
    traced.id = 5;
    traced.trace = Some(99);
    traced.queue_ns = Some(10);
    traced.collect_ns = Some(20);
    traced.plan_ns = Some(30);
    traced.replan_ns = Some(0);
    traced.commit_ns = Some(40);
    traced.total_ns = Some(100);

    let mut booked = bare_advance_outcome(6, "booked");
    booked.session = Some(7);
    booked.start = Some(3.0);
    booked.end = Some(9.5);
    booked.volume = Some(130.0);
    booked.psi = Some(0.4);
    booked.segments = Some(2);
    let mut repacked = booked.clone();
    repacked.id = 7;
    repacked.status = "repacked".into();
    repacked.moved = Some(vec![3, 5]);
    let mut refused = bare_advance_outcome(8, "rejected");
    refused.error = Some("insufficient capacity".into());
    refused.nearest_deadline = Some(62.5);

    vec![
        ResponseFrame::Outcome(committed),
        ResponseFrame::Outcome(integral),
        ResponseFrame::Outcome(degraded),
        ResponseFrame::Outcome(rejected),
        ResponseFrame::Outcome(bare_outcome(9, "rejected")),
        ResponseFrame::Outcome(traced),
        ResponseFrame::Advance(booked),
        ResponseFrame::Advance(repacked),
        ResponseFrame::Advance(refused),
        ResponseFrame::Advance(bare_advance_outcome(10, "rejected")),
        ResponseFrame::AdvanceCancelled {
            id: 11,
            session: 7,
            released_volume: 130.0,
            bookings_removed: 2,
        },
        ResponseFrame::Terminated {
            id: 12,
            session: 9,
            released: 2.5,
        },
        ResponseFrame::Renegotiated {
            id: 13,
            session: 9,
            rank: 1,
            psi: 0.5,
            upgraded: true,
        },
        ResponseFrame::Renegotiated {
            id: 14,
            session: 9,
            rank: 3,
            psi: 0.0,
            upgraded: false,
        },
        ResponseFrame::Stats(StatsFrame {
            id: 15,
            rounds: 3,
            requests: 40,
            establishments: 30,
            releases: 5,
            live_sessions: 25,
            connections: 2,
            total_available: 812.5,
            total_capacity: 1000.0,
            over_committed: false,
        }),
        ResponseFrame::Flight(FlightFrame {
            id: 16,
            traces: Vec::new(),
        }),
        ResponseFrame::Flight(FlightFrame {
            id: 17,
            traces: vec![bare_trace(1), full_trace()],
        }),
        ResponseFrame::Slo(SloFrame {
            id: 18,
            report: SloReport {
                target_p99_ns: 5_000_000,
                target_rejection_rate: 0.05,
                target_degraded_rate: 0.1,
                total: 100,
                committed: 90,
                degraded: 6,
                rejected: 4,
                p99_ns: 1_200_000,
                rejection_rate: 0.04,
                degraded_rate: 0.06,
                short_total: 10,
                short_p99_ns: 900_000,
                short_rejection_rate: 0.0,
                short_degraded_rate: 0.1,
                rejection_burn: 0.8,
                degraded_burn: 0.6,
                latency_burn: 0.24,
                short_rejection_burn: 0.0,
                short_degraded_burn: 1.0,
                short_latency_burn: 0.18,
                breached: false,
                breaches: 0,
            },
        }),
        ResponseFrame::Pong { id: 19 },
        ResponseFrame::Error {
            id: None,
            message: "bad frame payload: \"x\"".into(),
        },
        ResponseFrame::Error {
            id: Some(20),
            message: "unknown session 9".into(),
        },
        ResponseFrame::Bye { drained: 21 },
    ]
}

const REQUEST_PINS: &[&str] = &[
    r#"{"establish":{"id":1}}"#,
    r#"{"establish":{"id":7,"service":2,"domain":5,"scale":1.5,"qos_min":3,"deadline":12.5,"planner":"tradeoff","trace":91}}"#,
    r#"{"establish":{"id":4,"scale":2.0}}"#,
    r#"{"batch":{"now":null,"requests":[{"id":1},{"id":2,"service":2,"domain":5,"scale":1.5,"qos_min":3,"deadline":12.5,"planner":"tradeoff","trace":91}]}}"#,
    r#"{"batch":{"now":4.0,"requests":[]}}"#,
    r#"{"advance":{"id":10,"demand":[[0,25.0]],"from":5.0,"to":9.0}}"#,
    r#"{"advance":{"id":12,"resource":2,"volume":500.0,"deadline":40.0}}"#,
    r#"{"advance":{"id":11,"demand":[[0,25.0],[3,4.5]],"from":5.0,"to":9.0,"resource":2,"volume":500.0,"deadline":40.0,"earliest":8.0,"min_rate":1.0,"max_rate":25.0,"preempt":true,"policy":"tradeoff","trace":17}}"#,
    r#"{"advance_cancel":{"id":13,"session":4}}"#,
    r#"{"terminate":{"id":3,"session":9}}"#,
    r#"{"renegotiate":{"id":4,"session":9}}"#,
    r#"{"stats":{"id":5}}"#,
    r#"{"flight":{"id":7}}"#,
    r#"{"slo":{"id":8}}"#,
    r#"{"ping":{"id":6}}"#,
    r#"{"shutdown":{}}"#,
];

const RESPONSE_PINS: &[&str] = &[
    r#"{"outcome":{"id":1,"status":"committed","session":17,"rank":4,"psi":0.31}}"#,
    r#"{"outcome":{"id":2,"status":"committed","session":17,"rank":4,"psi":1.0}}"#,
    r#"{"outcome":{"id":3,"status":"degraded","session":17,"rank":4,"psi":0.31,"from":4,"to":2}}"#,
    r#"{"outcome":{"id":4,"status":"rejected","error":"no feasible plan: \"server.cpu\" short","miss_resource":6,"miss_ratio":1.9}}"#,
    r#"{"outcome":{"id":9,"status":"rejected"}}"#,
    r#"{"outcome":{"id":5,"status":"committed","session":17,"rank":4,"psi":0.31,"trace":99,"queue_ns":10,"collect_ns":20,"plan_ns":30,"replan_ns":0,"commit_ns":40,"total_ns":100}}"#,
    r#"{"advance":{"id":6,"status":"booked","session":7,"start":3.0,"end":9.5,"volume":130.0,"psi":0.4,"segments":2}}"#,
    r#"{"advance":{"id":7,"status":"repacked","session":7,"start":3.0,"end":9.5,"volume":130.0,"psi":0.4,"segments":2,"moved":[3,5]}}"#,
    r#"{"advance":{"id":8,"status":"rejected","error":"insufficient capacity","nearest_deadline":62.5}}"#,
    r#"{"advance":{"id":10,"status":"rejected"}}"#,
    r#"{"advance_cancelled":{"id":11,"session":7,"released_volume":130.0,"bookings_removed":2}}"#,
    r#"{"terminated":{"id":12,"session":9,"released":2.5}}"#,
    r#"{"renegotiated":{"id":13,"session":9,"rank":1,"psi":0.5,"upgraded":true}}"#,
    r#"{"renegotiated":{"id":14,"session":9,"rank":3,"psi":0.0,"upgraded":false}}"#,
    r#"{"stats":{"id":15,"rounds":3,"requests":40,"establishments":30,"releases":5,"live_sessions":25,"connections":2,"total_available":812.5,"total_capacity":1000.0,"over_committed":false}}"#,
    r#"{"flight":{"id":16,"traces":[]}}"#,
    r#"{"flight":{"id":17,"traces":[{"trace":1,"outcome":"rejected","total_ns":0,"spans":[]},{"trace":42,"service":"video \"tracking\"","outcome":"degraded","session":17,"rank":2,"psi":0.3125,"conflicts":2,"retries":3,"total_ns":9000,"spans":[{"kind":"Queue","start_ns":0,"duration_ns":1000},{"kind":"Collect","start_ns":1000,"duration_ns":500},{"kind":"Plan","start_ns":1500,"duration_ns":2000,"psi":0.25,"planner":"tradeoff","detail":"rank 3 -> 2"},{"kind":"Replan","start_ns":3500,"duration_ns":1500,"resource":4,"attempt":1,"children":[{"kind":"Plan","start_ns":3600,"duration_ns":1000,"psi":1.0,"children":[{"kind":"Collect","start_ns":3700,"duration_ns":10}]}]},{"kind":"Commit","start_ns":5000,"duration_ns":4000}]}]}}"#,
    r#"{"slo":{"id":18,"report":{"target_p99_ns":5000000,"target_rejection_rate":0.05,"target_degraded_rate":0.1,"total":100,"committed":90,"degraded":6,"rejected":4,"p99_ns":1200000,"rejection_rate":0.04,"degraded_rate":0.06,"short_total":10,"short_p99_ns":900000,"short_rejection_rate":0.0,"short_degraded_rate":0.1,"rejection_burn":0.8,"degraded_burn":0.6,"latency_burn":0.24,"short_rejection_burn":0.0,"short_degraded_burn":1.0,"short_latency_burn":0.18,"breached":false,"breaches":0}}}"#,
    r#"{"pong":{"id":19}}"#,
    r#"{"error":{"id":null,"message":"bad frame payload: \"x\""}}"#,
    r#"{"error":{"id":20,"message":"unknown session 9"}}"#,
    r#"{"bye":{"drained":21}}"#,
];

#[test]
fn request_frame_bytes_are_pinned() {
    let cases = request_cases();
    assert_eq!(cases.len(), REQUEST_PINS.len());
    for (frame, pin) in cases.iter().zip(REQUEST_PINS) {
        let mut generic = Vec::new();
        write_frame(&mut generic, frame).unwrap();
        assert_eq!(payload(&generic), *pin, "write_frame");
        let mut fast = Vec::new();
        write_request_frame(&mut fast, frame).unwrap();
        assert_eq!(fast, generic, "write_request_frame");
        let back: RequestFrame = read_frame(&mut Cursor::new(&generic)).unwrap().unwrap();
        assert_eq!(&back, frame);
        let back = read_request_frame(&mut Cursor::new(&generic)).unwrap();
        assert_eq!(back.as_ref(), Some(frame));
    }
}

#[test]
fn response_frame_bytes_are_pinned() {
    let cases = response_cases();
    assert_eq!(cases.len(), RESPONSE_PINS.len());
    for (frame, pin) in cases.iter().zip(RESPONSE_PINS) {
        let mut generic = Vec::new();
        write_frame(&mut generic, frame).unwrap();
        assert_eq!(payload(&generic), *pin, "write_frame");
        let mut fast = Vec::new();
        write_response_frame(&mut fast, frame).unwrap();
        assert_eq!(fast, generic, "write_response_frame");
        let back: ResponseFrame = read_frame(&mut Cursor::new(&generic)).unwrap().unwrap();
        assert_eq!(&back, frame);
        let back = read_response_frame(&mut Cursor::new(&generic)).unwrap();
        assert_eq!(back.as_ref(), Some(frame));
    }
}

/// `(spelling, decoded {:?})` for request payloads.
const REQUEST_SPELLINGS: &[(&str, &str)] = &[
    (
        " { \"establish\" : { \"id\" : 1 } } ",
        "Establish(EstablishDef { id: 1, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None })",
    ),
    (
        "{\n\t\"ping\":\t{\"id\":\r\n6}\n}",
        "Ping { id: 6 }",
    ),
    (
        "{\"establish\":{\"scale\":2.5,\"id\":3,\"domain\":1}}",
        "Establish(EstablishDef { id: 3, service: 0, domain: 1, scale: 2.5, qos_min: None, deadline: None, planner: None, trace: None })",
    ),
    (
        "{\"establish\":{\"trace\":5,\"planner\":\"dag\",\"deadline\":3.5,\"qos_min\":2,\"scale\":0.5,\"domain\":4,\"service\":3,\"id\":8}}",
        "Establish(EstablishDef { id: 8, service: 3, domain: 4, scale: 0.5, qos_min: Some(2), deadline: Some(3.5), planner: Some(\"dag\"), trace: Some(5) })",
    ),
    (
        "{\"establish\":{\"id\":1,\"qos_min\":null,\"deadline\":null,\"planner\":null,\"trace\":null}}",
        "Establish(EstablishDef { id: 1, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None })",
    ),
    (
        "{\"establish\":{\"id\":1,\"bogus\":true,\"x\":[1,{\"y\":null}]}}",
        "Establish(EstablishDef { id: 1, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None })",
    ),
    (
        "{\"establish\":{\"id\":1,\"service\":0,\"domain\":0,\"scale\":1.0}}",
        "Establish(EstablishDef { id: 1, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None })",
    ),
    (
        "{\"establish\":{\"id\":1,\"scale\":1}}",
        "Establish(EstablishDef { id: 1, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None })",
    ),
    (
        "{\"establish\":{\"id\":1,\"scale\":1e0}}",
        "Establish(EstablishDef { id: 1, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None })",
    ),
    (
        "{\"establish\":{\"id\":1.0}}",
        "Establish(EstablishDef { id: 1, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None })",
    ),
    (
        "{\"batch\":{\"requests\":[]}}",
        "Batch { now: None, requests: [] }",
    ),
    (
        "{\"batch\":{\"now\":null,\"requests\":[{\"id\":2}]}}",
        "Batch { now: None, requests: [EstablishDef { id: 2, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None }] }",
    ),
    (
        "{\"batch\":{\"requests\":[{\"id\":2,\"extra\":1}],\"now\":3,\"x\":{}}}",
        "Batch { now: Some(3.0), requests: [EstablishDef { id: 2, service: 0, domain: 0, scale: 1.0, qos_min: None, deadline: None, planner: None, trace: None }] }",
    ),
    (
        "{\"advance\":{\"id\":1,\"demand\":null,\"from\":null,\"to\":null,\"resource\":null,\"volume\":null,\"deadline\":null,\"earliest\":null,\"min_rate\":null,\"max_rate\":null,\"preempt\":false,\"policy\":null,\"trace\":null}}",
        "Advance(AdvanceDef { id: 1, demand: None, from: None, to: None, resource: None, volume: None, deadline: None, earliest: None, min_rate: None, max_rate: None, preempt: false, policy: None, trace: None })",
    ),
    (
        "{\"advance\":{\"to\":9,\"from\":5,\"demand\":[[0,25]],\"id\":10,\"preempt\":true,\"junk\":\"x\"}}",
        "Advance(AdvanceDef { id: 10, demand: Some([(0, 25.0)]), from: Some(5.0), to: Some(9.0), resource: None, volume: None, deadline: None, earliest: None, min_rate: None, max_rate: None, preempt: true, policy: None, trace: None })",
    ),
    (
        "{\"advance_cancel\":{\"session\":4,\"id\":13,\"extra\":null}}",
        "AdvanceCancel { id: 13, session: 4 }",
    ),
    (
        "{\"terminate\":{\"session\":9,\"id\":3}}",
        "Terminate { id: 3, session: 9 }",
    ),
    (
        "{\"renegotiate\":{\"id\":4,\"session\":9,\"why\":\"better\"}}",
        "Renegotiate { id: 4, session: 9 }",
    ),
    (
        "{\"stats\":{\"id\":5,\"verbose\":true}}",
        "Stats { id: 5 }",
    ),
    (
        "{\"flight\":{ \"id\" : 7 }}",
        "Flight { id: 7 }",
    ),
    (
        "{\"slo\":{\"id\":8}}",
        "Slo { id: 8 }",
    ),
    (
        "{\"ping\":{\"id\":6,\"id2\":7}}",
        "Ping { id: 6 }",
    ),
    (
        "{\"shutdown\":{}}",
        "Shutdown",
    ),
    (
        "{ \"shutdown\" : { } }",
        "Shutdown",
    ),
];

/// `(spelling, decoded {:?})` for response payloads.
const RESPONSE_SPELLINGS: &[(&str, &str)] = &[
    (
        " { \"outcome\" : { \"id\" : 1 , \"status\" : \"committed\" , \"session\" : 17 , \"rank\" : 4 , \"psi\" : 0.31 } } ",
        "Outcome(OutcomeFrame { id: 1, status: \"committed\", session: Some(17), rank: Some(4), psi: Some(0.31), from: None, to: None, error: None, miss_resource: None, miss_ratio: None, trace: None, queue_ns: None, collect_ns: None, plan_ns: None, replan_ns: None, commit_ns: None, total_ns: None })",
    ),
    (
        "{\"outcome\":{\"psi\":0.31,\"rank\":4,\"session\":17,\"status\":\"committed\",\"id\":1}}",
        "Outcome(OutcomeFrame { id: 1, status: \"committed\", session: Some(17), rank: Some(4), psi: Some(0.31), from: None, to: None, error: None, miss_resource: None, miss_ratio: None, trace: None, queue_ns: None, collect_ns: None, plan_ns: None, replan_ns: None, commit_ns: None, total_ns: None })",
    ),
    (
        "{\"outcome\":{\"id\":1,\"status\":\"committed\",\"session\":17,\"rank\":4,\"psi\":1}}",
        "Outcome(OutcomeFrame { id: 1, status: \"committed\", session: Some(17), rank: Some(4), psi: Some(1.0), from: None, to: None, error: None, miss_resource: None, miss_ratio: None, trace: None, queue_ns: None, collect_ns: None, plan_ns: None, replan_ns: None, commit_ns: None, total_ns: None })",
    ),
    (
        "{\"outcome\":{\"id\":2,\"status\":\"rejected\",\"session\":null,\"rank\":null,\"psi\":null,\"from\":null,\"to\":null,\"error\":\"e\",\"miss_resource\":null,\"miss_ratio\":null,\"trace\":null,\"queue_ns\":null,\"collect_ns\":null,\"plan_ns\":null,\"replan_ns\":null,\"commit_ns\":null,\"total_ns\":null}}",
        "Outcome(OutcomeFrame { id: 2, status: \"rejected\", session: None, rank: None, psi: None, from: None, to: None, error: Some(\"e\"), miss_resource: None, miss_ratio: None, trace: None, queue_ns: None, collect_ns: None, plan_ns: None, replan_ns: None, commit_ns: None, total_ns: None })",
    ),
    (
        "{\"outcome\":{\"id\":3,\"status\":\"degraded\",\"session\":5,\"rank\":2,\"psi\":0.5,\"from\":3,\"to\":2,\"later\":[1]}}",
        "Outcome(OutcomeFrame { id: 3, status: \"degraded\", session: Some(5), rank: Some(2), psi: Some(0.5), from: Some(3), to: Some(2), error: None, miss_resource: None, miss_ratio: None, trace: None, queue_ns: None, collect_ns: None, plan_ns: None, replan_ns: None, commit_ns: None, total_ns: None })",
    ),
    (
        "{\"outcome\":{\"id\":4,\"status\":\"committed\",\"session\":5,\"rank\":2,\"psi\":0.5,\"from\":3}}",
        "Outcome(OutcomeFrame { id: 4, status: \"committed\", session: Some(5), rank: Some(2), psi: Some(0.5), from: Some(3), to: None, error: None, miss_resource: None, miss_ratio: None, trace: None, queue_ns: None, collect_ns: None, plan_ns: None, replan_ns: None, commit_ns: None, total_ns: None })",
    ),
    (
        "{\"advance\":{\"id\":6,\"status\":\"booked\",\"session\":7,\"start\":3,\"end\":9.5,\"volume\":130,\"psi\":0.4,\"segments\":2,\"moved\":null,\"error\":null,\"nearest_deadline\":null}}",
        "Advance(AdvanceOutcomeFrame { id: 6, status: \"booked\", session: Some(7), start: Some(3.0), end: Some(9.5), volume: Some(130.0), psi: Some(0.4), segments: Some(2), moved: None, error: None, nearest_deadline: None })",
    ),
    (
        "{\"advance\":{\"nearest_deadline\":62.5,\"error\":\"no\",\"status\":\"rejected\",\"id\":8,\"bonus\":{}}}",
        "Advance(AdvanceOutcomeFrame { id: 8, status: \"rejected\", session: None, start: None, end: None, volume: None, psi: None, segments: None, moved: None, error: Some(\"no\"), nearest_deadline: Some(62.5) })",
    ),
    (
        "{\"advance_cancelled\":{\"bookings_removed\":2,\"released_volume\":130,\"session\":7,\"id\":11}}",
        "AdvanceCancelled { id: 11, session: 7, released_volume: 130.0, bookings_removed: 2 }",
    ),
    (
        "{\"terminated\":{\"id\":12,\"session\":9,\"released\":2,\"note\":\"x\"}}",
        "Terminated { id: 12, session: 9, released: 2.0 }",
    ),
    (
        "{\"renegotiated\":{\"upgraded\":false,\"psi\":0,\"rank\":3,\"session\":9,\"id\":14}}",
        "Renegotiated { id: 14, session: 9, rank: 3, psi: 0.0, upgraded: false }",
    ),
    (
        "{\"stats\":{\"id\":15,\"rounds\":3,\"requests\":40,\"establishments\":30,\"releases\":5,\"live_sessions\":25,\"connections\":2,\"total_available\":812,\"total_capacity\":1000,\"over_committed\":true,\"uptime\":5}}",
        "Stats(StatsFrame { id: 15, rounds: 3, requests: 40, establishments: 30, releases: 5, live_sessions: 25, connections: 2, total_available: 812.0, total_capacity: 1000.0, over_committed: true })",
    ),
    (
        "{\"flight\":{\"id\":16,\"traces\":[{\"trace\":1,\"outcome\":\"rejected\",\"total_ns\":0,\"spans\":[],\"conflicts\":0,\"retries\":0,\"service\":null}]}}",
        "Flight(FlightFrame { id: 16, traces: [RequestTrace { trace: 1, service: None, outcome: \"rejected\", session: None, rank: None, psi: None, conflicts: 0, retries: 0, total_ns: 0, spans: [] }] })",
    ),
    (
        "{\"pong\":{\"id\":19,\"late\":true}}",
        "Pong { id: 19 }",
    ),
    (
        "{\"error\":{\"message\":\"m\"}}",
        "Error { id: None, message: \"m\" }",
    ),
    (
        "{\"error\":{\"id\":null,\"message\":\"m\"}}",
        "Error { id: None, message: \"m\" }",
    ),
    (
        "{\"error\":{\"message\":\"m\",\"id\":20}}",
        "Error { id: Some(20), message: \"m\" }",
    ),
    (
        "{\"bye\":{\"drained\":21,\"reason\":\"shutdown\"}}",
        "Bye { drained: 21 }",
    ),
];

fn decode_request(text: &str) -> Result<RequestFrame, String> {
    let generic = read_frame::<_, RequestFrame>(&mut Cursor::new(framed(text)))
        .map(|f| f.unwrap())
        .map_err(|e| e.to_string());
    let fast = read_request_frame(&mut Cursor::new(framed(text)))
        .map(|f| f.unwrap())
        .map_err(|e| e.to_string());
    assert_eq!(fast, generic, "fast and generic readers disagree on {text}");
    generic
}

fn decode_response(text: &str) -> Result<ResponseFrame, String> {
    let generic = read_frame::<_, ResponseFrame>(&mut Cursor::new(framed(text)))
        .map(|f| f.unwrap())
        .map_err(|e| e.to_string());
    let fast = read_response_frame(&mut Cursor::new(framed(text)))
        .map(|f| f.unwrap())
        .map_err(|e| e.to_string());
    assert_eq!(fast, generic, "fast and generic readers disagree on {text}");
    generic
}

#[test]
fn non_canonical_request_spellings_decode_as_pinned() {
    for (text, debug) in REQUEST_SPELLINGS {
        let frame = decode_request(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(format!("{frame:?}"), *debug, "{text}");
    }
}

#[test]
fn non_canonical_response_spellings_decode_as_pinned() {
    for (text, debug) in RESPONSE_SPELLINGS {
        let frame = decode_response(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(format!("{frame:?}"), *debug, "{text}");
    }
}

const MALFORMED_REQUESTS: &[&str] = &[
    "",
    "null",
    "42",
    "[]",
    "\"ping\"",
    "\"establish\"",
    "{}",
    r#"{"ping":{"id":1},"stats":{"id":2}}"#,
    r#"{"establish":{"id":1},"shutdown":{}}"#,
    r#"{"bogus":{"id":1}}"#,
    r#"{"Establish":{"id":1}}"#,
    r#"{"advanceCancel":{"id":1,"session":2}}"#,
    r#"{"ping":{"id":"1"}}"#,
    r#"{"ping":{"id":-1}}"#,
    r#"{"ping":{"id":1.5}}"#,
    r#"{"ping":[1]}"#,
    r#"{"ping":null}"#,
    r#"{"establish":{"id":1,"scale":"big"}}"#,
    r#"{"establish":{"id":1,"service":null}}"#,
    r#"{"establish":{"id":1,"qos_min":-2}}"#,
    r#"{"establish":{"id":1,"planner":7}}"#,
    r#"{"establish":[1]}"#,
    r#"{"batch":{"now":"later","requests":[]}}"#,
    r#"{"batch":{"requests":[{"id":"x"}]}}"#,
    r#"{"advance":{"id":1,"demand":[[0]]}}"#,
    r#"{"advance":{"id":1,"preempt":"yes"}}"#,
    r#"{"terminate":{"id":1,"session":true}}"#,
    r#"{"ping":{}}"#,
    r#"{"stats":{}}"#,
    r#"{"flight":{"session":1}}"#,
    r#"{"slo":{}}"#,
    r#"{"establish":{}}"#,
    r#"{"establish":{"service":1}}"#,
    r#"{"batch":{"now":1.0}}"#,
    r#"{"advance":{}}"#,
    r#"{"advance_cancel":{"id":1}}"#,
    r#"{"terminate":{"session":1}}"#,
    r#"{"renegotiate":{"id":1}}"#,
];

const MALFORMED_RESPONSES: &[&str] = &[
    "",
    "null",
    "[]",
    "\"pong\"",
    "{}",
    r#"{"pong":{"id":1},"bye":{"drained":0}}"#,
    r#"{"nope":{"id":1}}"#,
    r#"{"Outcome":{"id":1,"status":"committed"}}"#,
    r#"{"pong":{"id":"1"}}"#,
    r#"{"outcome":{"id":1,"status":3}}"#,
    r#"{"outcome":{"id":1,"status":"committed","rank":-1}}"#,
    r#"{"advance":{"id":1,"status":"booked","moved":[1.5]}}"#,
    r#"{"terminated":{"id":1,"session":2,"released":"all"}}"#,
    r#"{"renegotiated":{"id":1,"session":2,"rank":1,"psi":0.5,"upgraded":1}}"#,
    r#"{"error":{"id":"x","message":"m"}}"#,
    r#"{"bye":{"drained":null}}"#,
    r#"{"pong":{}}"#,
    r#"{"outcome":{"id":1}}"#,
    r#"{"outcome":{"status":"committed"}}"#,
    r#"{"advance":{"status":"booked"}}"#,
    r#"{"advance_cancelled":{"id":1,"session":2,"released_volume":1.0}}"#,
    r#"{"terminated":{"id":1,"session":2}}"#,
    r#"{"renegotiated":{"id":1,"session":2,"rank":1,"psi":0.5}}"#,
    r#"{"stats":{"id":1}}"#,
    r#"{"flight":{"id":1}}"#,
    r#"{"slo":{"id":1}}"#,
    r#"{"error":{"id":1}}"#,
    r#"{"bye":{}}"#,
];

#[test]
fn malformed_frames_are_errors() {
    for text in MALFORMED_REQUESTS {
        assert!(decode_request(text).is_err(), "request accepted: {text}");
    }
    for text in MALFORMED_RESPONSES {
        assert!(decode_response(text).is_err(), "response accepted: {text}");
    }
}

const TRACE_PINS: &[&str] = &[
    r#"{"trace":1,"outcome":"rejected","total_ns":0,"spans":[]}"#,
    r#"{"trace":2,"outcome":"rejected","conflicts":1,"total_ns":5,"spans":[{"kind":"Queue","start_ns":0,"duration_ns":5}]}"#,
    r#"{"trace":3,"outcome":"committed","psi":2.0,"retries":1,"total_ns":0,"spans":[]}"#,
    r#"{"trace":42,"service":"video \"tracking\"","outcome":"degraded","session":17,"rank":2,"psi":0.3125,"conflicts":2,"retries":3,"total_ns":9000,"spans":[{"kind":"Queue","start_ns":0,"duration_ns":1000},{"kind":"Collect","start_ns":1000,"duration_ns":500},{"kind":"Plan","start_ns":1500,"duration_ns":2000,"psi":0.25,"planner":"tradeoff","detail":"rank 3 -> 2"},{"kind":"Replan","start_ns":3500,"duration_ns":1500,"resource":4,"attempt":1,"children":[{"kind":"Plan","start_ns":3600,"duration_ns":1000,"psi":1.0,"children":[{"kind":"Collect","start_ns":3700,"duration_ns":10}]}]},{"kind":"Commit","start_ns":5000,"duration_ns":4000}]}"#,
];

fn trace_cases() -> Vec<RequestTrace> {
    let mut one_conflict = bare_trace(2);
    one_conflict.conflicts = 1;
    one_conflict.total_ns = 5;
    one_conflict.spans = vec![SpanRecord::new(SpanKind::Queue, 0, 5)];
    let mut one_retry = bare_trace(3);
    one_retry.outcome = "committed".into();
    one_retry.retries = 1;
    one_retry.psi = Some(2.0);
    vec![bare_trace(1), one_conflict, one_retry, full_trace()]
}

#[test]
fn request_trace_lines_are_pinned() {
    let cases = trace_cases();
    assert_eq!(cases.len(), TRACE_PINS.len());
    for (trace, pin) in cases.iter().zip(TRACE_PINS) {
        assert_eq!(trace.to_jsonl(), *pin);
        assert_eq!(&RequestTrace::from_jsonl(pin).unwrap(), trace);
    }
}

/// `(line, decoded {:?})` for non-canonical trace lines.
const TRACE_SPELLINGS: &[(&str, &str)] = &[
    (
        " { \"trace\" : 1 , \"outcome\" : \"rejected\" , \"total_ns\" : 0 , \"spans\" : [ ] } ",
        "RequestTrace { trace: 1, service: None, outcome: \"rejected\", session: None, rank: None, psi: None, conflicts: 0, retries: 0, total_ns: 0, spans: [] }",
    ),
    (
        "{\"spans\":[],\"total_ns\":7,\"retries\":1,\"conflicts\":2,\"outcome\":\"committed\",\"trace\":3}",
        "RequestTrace { trace: 3, service: None, outcome: \"committed\", session: None, rank: None, psi: None, conflicts: 2, retries: 1, total_ns: 7, spans: [] }",
    ),
    (
        "{\"trace\":4,\"service\":null,\"outcome\":\"rejected\",\"session\":null,\"rank\":null,\"psi\":null,\"total_ns\":0,\"spans\":[{\"kind\":\"Plan\",\"start_ns\":0,\"duration_ns\":5,\"psi\":null,\"planner\":null,\"resource\":null,\"attempt\":null,\"detail\":null}]}",
        "RequestTrace { trace: 4, service: None, outcome: \"rejected\", session: None, rank: None, psi: None, conflicts: 0, retries: 0, total_ns: 0, spans: [SpanRecord { kind: Plan, start_ns: 0, duration_ns: 5, psi: None, planner: None, resource: None, attempt: None, detail: None, children: [] }] }",
    ),
    (
        "{\"trace\":5,\"outcome\":\"committed\",\"conflicts\":0,\"retries\":0,\"total_ns\":9,\"spans\":[{\"kind\":\"Queue\",\"start_ns\":0,\"duration_ns\":9,\"children\":[]}],\"extra\":{\"x\":1}}",
        "RequestTrace { trace: 5, service: None, outcome: \"committed\", session: None, rank: None, psi: None, conflicts: 0, retries: 0, total_ns: 9, spans: [SpanRecord { kind: Queue, start_ns: 0, duration_ns: 9, psi: None, planner: None, resource: None, attempt: None, detail: None, children: [] }] }",
    ),
    (
        "{\"trace\":6,\"outcome\":\"degraded\",\"total_ns\":9,\"spans\":[{\"duration_ns\":9,\"start_ns\":0,\"kind\":\"Replan\",\"attempt\":2,\"resource\":3,\"children\":[{\"kind\":\"Plan\",\"start_ns\":1,\"duration_ns\":2,\"psi\":1,\"planner\":\"basic\",\"note\":\"x\"}]}]}",
        "RequestTrace { trace: 6, service: None, outcome: \"degraded\", session: None, rank: None, psi: None, conflicts: 0, retries: 0, total_ns: 9, spans: [SpanRecord { kind: Replan, start_ns: 0, duration_ns: 9, psi: None, planner: None, resource: Some(3), attempt: Some(2), detail: None, children: [SpanRecord { kind: Plan, start_ns: 1, duration_ns: 2, psi: Some(1.0), planner: Some(\"basic\"), resource: None, attempt: None, detail: None, children: [] }] }] }",
    ),
];

const MALFORMED_TRACES: &[&str] = &[
    "",
    "[]",
    r#"{"outcome":"committed","total_ns":1,"spans":[]}"#,
    r#"{"trace":1,"total_ns":1,"spans":[]}"#,
    r#"{"trace":1,"outcome":"committed","spans":[]}"#,
    r#"{"trace":1,"outcome":"committed","total_ns":1}"#,
    r#"{"trace":"1","outcome":"committed","total_ns":1,"spans":[]}"#,
    r#"{"trace":1,"outcome":"committed","total_ns":1,"spans":[],"rank":-1}"#,
    r#"{"trace":1,"outcome":"committed","total_ns":1,"spans":[{"kind":"Queue","start_ns":0}]}"#,
    r#"{"trace":1,"outcome":"committed","total_ns":1,"spans":[{"kind":"queue","start_ns":0,"duration_ns":1}]}"#,
    r#"{"trace":1,"outcome":"committed","total_ns":1,"spans":[{"kind":"Plan","start_ns":0,"duration_ns":1,"children":null}]}"#,
    r#"{"trace":1,"outcome":"committed","total_ns":1,"spans":[{"kind":"Plan","start_ns":0,"duration_ns":1,"attempt":"2"}]}"#,
];

#[test]
fn non_canonical_trace_lines_decode_as_pinned() {
    for (line, debug) in TRACE_SPELLINGS {
        let trace = RequestTrace::from_jsonl(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(format!("{trace:?}"), *debug, "{line}");
    }
    for line in MALFORMED_TRACES {
        assert!(RequestTrace::from_jsonl(line).is_err(), "accepted: {line}");
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// `(file name, FNV-1a 64 of the parsed file's {:?})`.
const SCENARIO_DIGESTS: &[(&str, u64)] = &[
    ("bulk-transfer.scenario.json", 0xa56d3ea7a1e0f992),
    ("calm-baseline.scenario.json", 0x6e50573256d4ea60),
    ("capacity-shrink.scenario.json", 0x3a568a5c4bc7cfa5),
    ("contention-storm.scenario.json", 0xb9d76aff5473699c),
    ("diurnal.scenario.json", 0x0caa8a78ad8e83d3),
    ("flash-crowd.scenario.json", 0x4e371989bab70a4b),
    ("heavy-tail.scenario.json", 0x3da75f88166883d1),
    ("mixed-fleet.scenario.json", 0x643bad1afea81fe7),
    ("qos-shift.scenario.json", 0xacff3263d2ade382),
    ("rolling-crashes.scenario.json", 0x4abcc98bc282f8b2),
    ("session-surge-guard.scenario.json", 0xf11196b0a844725c),
];

#[test]
fn scenario_files_parse_as_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let loaded = ScenarioFile::load_dir(dir).unwrap();
    let digests: Vec<(String, u64)> = loaded
        .iter()
        .map(|(path, file)| {
            let name = path.file_name().unwrap().to_str().unwrap().to_owned();
            (name, fnv1a(&format!("{file:?}")))
        })
        .collect();
    let pinned: Vec<(String, u64)> = SCENARIO_DIGESTS
        .iter()
        .map(|(name, digest)| (name.to_string(), *digest))
        .collect();
    assert_eq!(digests, pinned);
}
