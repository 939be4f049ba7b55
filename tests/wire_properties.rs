//! Property-based tests of the `qosr serve` wire codec
//! ([`qosr_cli::wire`]): every frame the protocol can express must
//! survive an encode/decode round trip bit-for-bit, and no byte stream
//! — truncated, oversized, or outright garbage — may ever panic, hang,
//! or come back as anything but a clean protocol error. The codec is
//! the server's trust boundary; these properties are what let the
//! per-connection readers treat any decode error as "close and move
//! on". Case count honours `PROPTEST_CASES` (CI runs the default).

use proptest::prelude::*;
use proptest::ProptestConfig;
use qosr_cli::wire::{
    read_frame, read_request_frame, read_response_frame, write_frame, write_request_frame,
    write_response_frame, EstablishDef, FlightFrame, OutcomeFrame, RequestFrame, ResponseFrame,
    SloFrame, StatsFrame, WireError, MAX_FRAME_LEN,
};
use qosr_obs::{RequestTrace, SloReport, SpanKind, SpanRecord};
use std::io::Cursor;

/// Finite, JSON-round-trippable floats (the vendored serializer prints
/// shortest-round-trip forms, so any finite `f64` survives; NaN and the
/// infinities serialize to `null` by design and are excluded).
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.5e308),
        Just(-4.9e-324),
        -1.0e12..1.0e12f64,
        0.0..1.0f64,
    ]
}

/// Strings exercising JSON escaping: quotes, backslashes, control
/// characters, multi-byte UTF-8.
fn wire_string() -> impl Strategy<Value = String> {
    const ALPHABET: &[&str] = &[
        "a", "Z", "0", " ", "\"", "\\", "\n", "\t", "\u{1}", "é", "λ", "🦀", "{", "}", ":", ",",
    ];
    proptest::collection::vec(0usize..ALPHABET.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn option_of<S: Strategy + 'static>(inner: S) -> BoxedStrategy<Option<S::Value>>
where
    S::Value: std::fmt::Debug + Clone,
{
    prop_oneof![Just(None), inner.prop_map(Some)].boxed()
}

fn establish_def() -> impl Strategy<Value = EstablishDef> {
    (
        (any::<u64>(), 0usize..16, 0usize..16, finite_f64()),
        (
            option_of(any::<u32>().boxed()),
            option_of(finite_f64().boxed()),
            option_of(
                prop_oneof![
                    Just("basic".to_string()),
                    Just("tradeoff".to_string()),
                    Just("random".to_string()),
                    Just("dag".to_string()),
                    wire_string().boxed(),
                ]
                .boxed(),
            ),
            option_of(any::<u64>().boxed()),
        ),
    )
        .prop_map(
            |((id, service, domain, scale), (qos_min, deadline, planner, trace))| {
                let mut def = EstablishDef::new(id);
                def.service = service;
                def.domain = domain;
                def.scale = scale;
                def.qos_min = qos_min;
                def.deadline = deadline;
                def.planner = planner;
                def.trace = trace;
                def
            },
        )
}

fn outcome_label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("committed".to_string()),
        Just("degraded".to_string()),
        Just("rejected".to_string()),
    ]
}

fn span_kind() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        Just(SpanKind::Queue),
        Just(SpanKind::Collect),
        Just(SpanKind::Plan),
        Just(SpanKind::Replan),
        Just(SpanKind::Commit),
    ]
}

fn span_leaf() -> impl Strategy<Value = SpanRecord> {
    (
        (span_kind(), any::<u64>(), any::<u64>()),
        (
            option_of(finite_f64().boxed()),
            option_of(wire_string().boxed()),
            option_of(any::<u64>().boxed()),
            option_of(any::<u32>().boxed()),
            option_of(wire_string().boxed()),
        ),
    )
        .prop_map(
            |((kind, start_ns, duration_ns), (psi, planner, resource, attempt, detail))| {
                SpanRecord {
                    kind,
                    start_ns,
                    duration_ns,
                    psi,
                    planner,
                    resource,
                    attempt,
                    detail,
                    children: Vec::new(),
                }
            },
        )
}

/// A span with up to one level of children — enough to exercise the
/// recursive `children` encoding without unbounded trees.
fn span_record() -> impl Strategy<Value = SpanRecord> {
    (span_leaf(), proptest::collection::vec(span_leaf(), 0..3)).prop_map(|(mut span, children)| {
        span.children = children;
        span
    })
}

fn request_trace() -> impl Strategy<Value = RequestTrace> {
    (
        (
            any::<u64>(),
            option_of(wire_string().boxed()),
            outcome_label(),
            option_of(any::<u64>().boxed()),
        ),
        (
            option_of(any::<u32>().boxed()),
            option_of(finite_f64().boxed()),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
        ),
        proptest::collection::vec(span_record(), 0..4),
    )
        .prop_map(
            |(
                (trace, service, outcome, session),
                (rank, psi, conflicts, retries, total_ns),
                spans,
            )| RequestTrace {
                trace,
                service,
                outcome,
                session,
                rank,
                psi,
                conflicts,
                retries,
                total_ns,
                spans,
            },
        )
}

fn slo_report() -> impl Strategy<Value = SloReport> {
    (
        (any::<u64>(), finite_f64(), finite_f64()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (finite_f64(), finite_f64()),
        (any::<u64>(), any::<u64>(), finite_f64(), finite_f64()),
        (
            (finite_f64(), finite_f64(), finite_f64()),
            (finite_f64(), finite_f64(), finite_f64()),
        ),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |(
                (target_p99_ns, target_rejection_rate, target_degraded_rate),
                (total, committed, degraded, rejected, p99_ns),
                (rejection_rate, degraded_rate),
                (short_total, short_p99_ns, short_rejection_rate, short_degraded_rate),
                (
                    (rejection_burn, degraded_burn, latency_burn),
                    (short_rejection_burn, short_degraded_burn, short_latency_burn),
                ),
                (breached, breaches),
            )| SloReport {
                target_p99_ns,
                target_rejection_rate,
                target_degraded_rate,
                total,
                committed,
                degraded,
                rejected,
                p99_ns,
                rejection_rate,
                degraded_rate,
                short_total,
                short_p99_ns,
                short_rejection_rate,
                short_degraded_rate,
                rejection_burn,
                degraded_burn,
                latency_burn,
                short_rejection_burn,
                short_degraded_burn,
                short_latency_burn,
                breached,
                breaches,
            },
        )
}

fn request_frame() -> impl Strategy<Value = RequestFrame> {
    prop_oneof![
        establish_def().prop_map(RequestFrame::Establish).boxed(),
        (
            option_of(finite_f64().boxed()),
            proptest::collection::vec(establish_def(), 0..8),
        )
            .prop_map(|(now, requests)| RequestFrame::Batch { now, requests })
            .boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(id, session)| RequestFrame::Terminate { id, session })
            .boxed(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(id, session)| RequestFrame::Renegotiate { id, session })
            .boxed(),
        any::<u64>()
            .prop_map(|id| RequestFrame::Stats { id })
            .boxed(),
        any::<u64>()
            .prop_map(|id| RequestFrame::Flight { id })
            .boxed(),
        any::<u64>().prop_map(|id| RequestFrame::Slo { id }).boxed(),
        any::<u64>()
            .prop_map(|id| RequestFrame::Ping { id })
            .boxed(),
        Just(RequestFrame::Shutdown).boxed(),
    ]
}

fn outcome_frame() -> impl Strategy<Value = OutcomeFrame> {
    (
        any::<u64>(),
        outcome_label(),
        option_of(any::<u64>().boxed()),
        (
            option_of(any::<u32>().boxed()),
            option_of(finite_f64().boxed()),
            option_of(any::<u32>().boxed()),
            option_of(any::<u32>().boxed()),
        ),
        (
            option_of(wire_string().boxed()),
            option_of(any::<u64>().boxed()),
            option_of(finite_f64().boxed()),
        ),
        (
            (
                option_of(any::<u64>().boxed()),
                option_of(any::<u64>().boxed()),
                option_of(any::<u64>().boxed()),
                option_of(any::<u64>().boxed()),
            ),
            (
                option_of(any::<u64>().boxed()),
                option_of(any::<u64>().boxed()),
                option_of(any::<u64>().boxed()),
            ),
        ),
    )
        .prop_map(
            |(
                id,
                status,
                session,
                (rank, psi, from, to),
                (error, miss_resource, miss_ratio),
                ((trace, queue_ns, collect_ns, plan_ns), (replan_ns, commit_ns, total_ns)),
            )| {
                OutcomeFrame {
                    id,
                    status,
                    session,
                    rank,
                    psi,
                    from,
                    to,
                    error,
                    miss_resource,
                    miss_ratio,
                    trace,
                    queue_ns,
                    collect_ns,
                    plan_ns,
                    replan_ns,
                    commit_ns,
                    total_ns,
                }
            },
        )
}

fn stats_frame() -> impl Strategy<Value = StatsFrame> {
    (
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        (finite_f64(), finite_f64(), any::<bool>()),
    )
        .prop_map(
            |(
                id,
                (rounds, requests, establishments, releases),
                (live_sessions, connections),
                (total_available, total_capacity, over_committed),
            )| StatsFrame {
                id,
                rounds,
                requests,
                establishments,
                releases,
                live_sessions,
                connections,
                total_available,
                total_capacity,
                over_committed,
            },
        )
}

fn response_frame() -> impl Strategy<Value = ResponseFrame> {
    prop_oneof![
        outcome_frame().prop_map(ResponseFrame::Outcome).boxed(),
        (any::<u64>(), any::<u64>(), finite_f64())
            .prop_map(|(id, session, released)| ResponseFrame::Terminated {
                id,
                session,
                released,
            })
            .boxed(),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            finite_f64(),
            any::<bool>()
        )
            .prop_map(
                |(id, session, rank, psi, upgraded)| ResponseFrame::Renegotiated {
                    id,
                    session,
                    rank,
                    psi,
                    upgraded,
                }
            )
            .boxed(),
        stats_frame().prop_map(ResponseFrame::Stats).boxed(),
        (
            any::<u64>(),
            proptest::collection::vec(request_trace(), 0..3),
        )
            .prop_map(|(id, traces)| ResponseFrame::Flight(FlightFrame { id, traces }))
            .boxed(),
        (any::<u64>(), slo_report())
            .prop_map(|(id, report)| ResponseFrame::Slo(SloFrame { id, report }))
            .boxed(),
        any::<u64>()
            .prop_map(|id| ResponseFrame::Pong { id })
            .boxed(),
        (option_of(any::<u64>().boxed()), wire_string())
            .prop_map(|(id, message)| ResponseFrame::Error { id, message })
            .boxed(),
        any::<u64>()
            .prop_map(|drained| ResponseFrame::Bye { drained })
            .boxed(),
    ]
}

/// Encodes `frame`, decodes it back, and checks the round trip plus the
/// clean-EOF contract (one frame in the buffer, nothing after it).
fn roundtrip<T>(frame: &T)
where
    T: PartialEq + std::fmt::Debug + serde::Serialize + serde::Deserialize,
{
    let mut buf = Vec::new();
    write_frame(&mut buf, frame).expect("encode");
    let mut cursor = Cursor::new(buf);
    let back: T = read_frame(&mut cursor).expect("decode").expect("one frame");
    assert_eq!(&back, frame);
    let eof: Option<T> = read_frame(&mut cursor).expect("clean EOF");
    assert!(eof.is_none(), "nothing may follow the frame");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(64))]

    /// Every request verb round-trips bit-for-bit, including maximal
    /// ids, empty batches, escaped strings, and denormal floats.
    #[test]
    fn request_frames_roundtrip(frame in request_frame()) {
        roundtrip(&frame);
    }

    /// Every response verb round-trips bit-for-bit.
    #[test]
    fn response_frames_roundtrip(frame in response_frame()) {
        roundtrip(&frame);
    }

    /// Chopping an encoded frame anywhere — inside the length prefix or
    /// inside the payload — yields a clean error (or clean EOF at the
    /// exact boundary 0), never a panic, a hang, or a bogus frame.
    #[test]
    fn truncation_anywhere_is_clean(frame in request_frame(), cut in 0usize..4096) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("encode");
        let cut = cut % buf.len(); // 0 <= cut < len: always strictly truncated
        buf.truncate(cut);
        let mut cursor = Cursor::new(buf);
        match read_frame::<_, RequestFrame>(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at the frame boundary"),
            Ok(Some(_)) => prop_assert!(false, "decoded a frame from a truncated stream"),
            Err(WireError::Truncated { .. }) | Err(WireError::Io(_)) | Err(WireError::Json(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Arbitrary garbage bytes never panic the decoder: any outcome is
    /// a clean EOF, a clean error, or (if the bytes happen to spell a
    /// valid frame) something that re-encodes losslessly.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut cursor = Cursor::new(bytes);
        // An accidental valid frame must still be lawful; any other
        // outcome (clean EOF or clean error) is fine.
        if let Ok(Some(frame)) = read_frame::<_, RequestFrame>(&mut cursor) {
            roundtrip(&frame);
        }
    }

    /// A length prefix beyond `MAX_FRAME_LEN` is rejected as oversized
    /// before any payload is read or allocated, whatever follows it.
    #[test]
    fn oversized_prefixes_are_rejected(extra in 1u32..1024, tail in proptest::collection::vec(any::<u8>(), 0..16)) {
        let len = MAX_FRAME_LEN as u32 + extra;
        let mut buf = len.to_be_bytes().to_vec();
        buf.extend_from_slice(&tail);
        let mut cursor = Cursor::new(buf);
        match read_frame::<_, RequestFrame>(&mut cursor) {
            Err(WireError::Oversized { len: l }) => prop_assert_eq!(l, len as usize),
            other => prop_assert!(false, "expected Oversized, got {:?}", other.map(|_| ())),
        }
    }

    /// An empty payload (`len == 0`) is not valid JSON, so it errors
    /// cleanly rather than producing a frame.
    #[test]
    fn empty_payload_is_a_clean_error(tail in proptest::collection::vec(any::<u8>(), 0..8)) {
        let mut buf = 0u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&tail);
        let mut cursor = Cursor::new(buf);
        prop_assert!(matches!(
            read_frame::<_, RequestFrame>(&mut cursor),
            Err(WireError::Json(_))
        ));
    }

    /// The hot-path request encoder is byte-identical to the generic
    /// one for every frame — the fast path is an optimization, never a
    /// dialect. (Frames outside the fast shape fall through to the
    /// generic encoder inside `write_request_frame`, so the equality
    /// holds unconditionally.)
    #[test]
    fn fast_request_encoder_is_byte_identical(frame in request_frame()) {
        let mut generic = Vec::new();
        write_frame(&mut generic, &frame).expect("generic encode");
        let mut fast = Vec::new();
        write_request_frame(&mut fast, &frame).expect("fast encode");
        prop_assert_eq!(fast, generic);
    }

    /// The hot-path response encoder is byte-identical to the generic
    /// one for every frame.
    #[test]
    fn fast_response_encoder_is_byte_identical(frame in response_frame()) {
        let mut generic = Vec::new();
        write_frame(&mut generic, &frame).expect("generic encode");
        let mut fast = Vec::new();
        write_response_frame(&mut fast, &frame).expect("fast encode");
        prop_assert_eq!(fast, generic);
    }

    /// The hot-path request reader decodes every generically-encoded
    /// frame to the same value the generic reader does (the fast
    /// scanner either matches exactly or falls back — it never decodes
    /// to something different).
    #[test]
    fn fast_request_reader_agrees_with_generic(frame in request_frame()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("encode");
        let back = read_request_frame(&mut Cursor::new(buf))
            .expect("fast decode")
            .expect("one frame");
        prop_assert_eq!(back, frame);
    }

    /// The hot-path response reader decodes every generically-encoded
    /// frame to the same value the generic reader does.
    #[test]
    fn fast_response_reader_agrees_with_generic(frame in response_frame()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("encode");
        let back = read_response_frame(&mut Cursor::new(buf))
            .expect("fast decode")
            .expect("one frame");
        prop_assert_eq!(back, frame);
    }

    /// Garbage bytes never panic the fast readers either, and anything
    /// they do accept must agree with the generic decoder (the strict
    /// scanner can only ever accept a subset of what serde accepts).
    #[test]
    fn garbage_never_panics_the_fast_readers(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(Some(frame)) = read_request_frame(&mut Cursor::new(bytes.clone())) {
            let generic = read_frame::<_, RequestFrame>(&mut Cursor::new(bytes.clone()))
                .expect("generic decode")
                .expect("one frame");
            prop_assert_eq!(frame, generic);
        }
        if let Ok(Some(frame)) = read_response_frame(&mut Cursor::new(bytes.clone())) {
            let generic = read_frame::<_, ResponseFrame>(&mut Cursor::new(bytes))
                .expect("generic decode")
                .expect("one frame");
            prop_assert_eq!(frame, generic);
        }
    }
}

/// Any `char`, weighted towards the ones JSON strings treat specially:
/// quotes, backslashes, control characters and each UTF-8 width.
fn json_char() -> impl Strategy<Value = char> {
    prop_oneof![
        4 => 0x20u32..0x7f,
        2 => 0u32..0x20,
        1 => Just(u32::from('"')),
        1 => Just(u32::from('\\')),
        1 => 0x80u32..0x800,
        1 => 0x800u32..0x10000,
        1 => 0x10000u32..0x110000,
    ]
    .prop_map(|code| char::from_u32(code).unwrap_or('\u{fffd}'))
}

/// One piece of a JSON string literal's body: a raw character, a
/// one-letter escape, a `\u` escape of a BMP character outside the
/// surrogate range, in either hex case, or a surrogate pair of `\u`
/// escapes naming a character beyond the BMP.
fn literal_piece() -> impl Strategy<Value = String> {
    const SHORT: &[&str] = &["\\\"", "\\\\", "\\/", "\\n", "\\t", "\\r", "\\b", "\\f"];
    prop_oneof![
        3 => json_char().prop_map(|c| match c {
            '"' | '\\' => "x".to_string(),
            c => c.to_string(),
        }),
        1 => (0..SHORT.len()).prop_map(|i| SHORT[i].to_string()),
        1 => (prop_oneof![0u32..0xd800, 0xe000u32..0x10000], any::<bool>()).prop_map(
            |(code, upper)| if upper {
                format!("\\u{code:04X}")
            } else {
                format!("\\u{code:04x}")
            }
        ),
        1 => (0x10000u32..0x110000).prop_map(|code| {
            let (high, low) = (0xd800 + ((code - 0x10000) >> 10), 0xdc00 + (code & 0x3ff));
            format!("\\u{high:04x}\\u{low:04X}")
        }),
    ]
}

/// Decodes a JSON string literal one character at a time: the oracle
/// the parser's run-at-a-time scanner is held to.
fn reference_decode(literal: &str) -> String {
    let body = &literal[1..literal.len() - 1];
    let mut chars = body.chars();
    let mut out = String::new();
    let hex4 = |chars: &mut std::str::Chars<'_>| {
        let hex: String = chars.take(4).collect();
        u32::from_str_radix(&hex, 16).expect("four hex digits")
    };
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next().expect("an escaped character") {
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let mut code = hex4(&mut chars);
                if (0xd800..0xdc00).contains(&code) {
                    assert_eq!((chars.next(), chars.next()), (Some('\\'), Some('u')));
                    code = 0x10000 + ((code - 0xd800) << 10) + (hex4(&mut chars) - 0xdc00);
                }
                out.push(char::from_u32(code).expect("a scalar value"));
            }
            other => out.push(other),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_from_env(64))]

    /// Every string survives a compact encode and a decode unchanged.
    #[test]
    fn strings_roundtrip_through_the_scanner(
        chars in proptest::collection::vec(json_char(), 0..64),
    ) {
        let s: String = chars.into_iter().collect();
        let text = serde_json::to_string(&s).expect("encode");
        prop_assert_eq!(serde_json::from_str::<String>(&text).expect("decode"), s);
    }

    /// Any escaped literal decodes to what the char-by-char reference
    /// decoder makes of it.
    #[test]
    fn escaped_literals_decode_like_the_reference(
        pieces in proptest::collection::vec(literal_piece(), 0..32),
    ) {
        let literal = format!("\"{}\"", pieces.concat());
        let decoded = serde_json::from_str::<String>(&literal).expect("decode");
        prop_assert_eq!(decoded, reference_decode(&literal));
    }
}

/// Malformed string literals fail with the parser's error texts and
/// positions, recorded before the scanner read whole runs at a time.
#[test]
fn malformed_strings_keep_their_error_texts() {
    let cases: &[(&str, &str)] = &[
        ("\"abc", "unterminated string at line 1 column 5"),
        ("\"tab\tλ", "unterminated string at line 1 column 8"),
        ("[\"a\",\n \"bc", "unterminated string at line 2 column 5"),
        ("\"a\\qb\"", "invalid escape sequence at line 1 column 4"),
        ("\"é\\x\"", "invalid escape sequence at line 1 column 5"),
        ("\"\\u12", "truncated \\u escape at line 1 column 3"),
        ("\"\\u12\"}", "invalid \\u escape at line 1 column 3"),
        ("\"\\ud83d\"", "unsupported \\u escape at line 1 column 3"),
    ];
    for (input, want) in cases {
        let err = serde_json::from_str::<String>(input).expect_err(input);
        assert_eq!(err.to_string(), *want, "{input:?}");
    }
}

/// A surrogate pair of `\u` escapes, as Python's `json.dumps` writes
/// every character beyond the BMP, decodes to that one character; a
/// lone high surrogate stays a payload error.
#[test]
fn surrogate_pair_escapes_decode_to_one_character() {
    let frame = |payload: &str| {
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(payload.as_bytes());
        read_response_frame(&mut Cursor::new(bytes))
    };
    let decoded = frame(r#"{"error":{"id":1,"message":"\ud83d\ude00"}}"#)
        .expect("decode")
        .expect("one frame");
    assert_eq!(
        decoded,
        ResponseFrame::Error {
            id: Some(1),
            message: "\u{1f600}".to_owned(),
        }
    );
    for lone in [
        r#"{"error":{"id":1,"message":"\ud83d"}}"#,
        r#"{"error":{"id":1,"message":"\ud83dx"}}"#,
        r#"{"error":{"id":1,"message":"\ude00\ud83d"}}"#,
        r#"{"error":{"id":1,"message":"\ud83d\u0041"}}"#,
    ] {
        assert!(
            matches!(frame(lone), Err(WireError::Json(_))),
            "{lone} must not decode"
        );
    }
}
