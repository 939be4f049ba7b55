//! The shapes the vendored `serde_derive` generates, tested where the
//! workspace's own test run reaches them: externally tagged enums under
//! `#[serde(rename_all = "snake_case")]` (unit, newtype and struct
//! variants), `#[serde(skip_serializing_if = "path")]` combined with
//! `default`, and the one rule for unit variants — encoded as
//! `{"tag":{}}`, decoded from `{"tag":{}}` or the bare string `"tag"`.
//!
//! The last tests pin what the derived frame, scenario and trace codecs
//! do differently from the hand-written ones they replaced.

use qosr::obs::RequestTrace;
use qosr::sim::{EventSpec, Rule, Trigger};
use qosr_cli::wire::{read_frame, write_frame, RequestFrame};
use serde::{Deserialize, Serialize};
use std::io::Cursor;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Command {
    Halt,
    MoveTo(Point),
    SetSpeed {
        meters_per_second: f64,
        #[serde(skip_serializing_if = "Option::is_none")]
        ramp: Option<f64>,
        #[serde(default = "one", skip_serializing_if = "is_one")]
        gain: f64,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Point {
    x: i64,
    #[serde(default, skip_serializing_if = "is_zero")]
    y: i64,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    tags: Vec<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    label: Option<String>,
    note: Option<String>,
}

fn one() -> f64 {
    1.0
}

fn is_one(x: &f64) -> bool {
    *x == 1.0
}

fn is_zero(n: &i64) -> bool {
    *n == 0
}

fn encode<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

fn decode<T: Deserialize>(text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn point(x: i64) -> Point {
    Point {
        x,
        y: 0,
        tags: Vec::new(),
        label: None,
        note: None,
    }
}

#[test]
fn every_variant_shape_roundtrips() {
    let full = Point {
        x: 1,
        y: -2,
        tags: vec!["a".into()],
        label: Some("p".into()),
        note: Some("n".into()),
    };
    let cases = [
        (Command::Halt, r#"{"halt":{}}"#),
        (
            Command::MoveTo(point(3)),
            r#"{"move_to":{"x":3,"note":null}}"#,
        ),
        (
            Command::MoveTo(full),
            r#"{"move_to":{"x":1,"y":-2,"tags":["a"],"label":"p","note":"n"}}"#,
        ),
        (
            Command::SetSpeed {
                meters_per_second: 2.5,
                ramp: None,
                gain: 1.0,
            },
            r#"{"set_speed":{"meters_per_second":2.5}}"#,
        ),
        (
            Command::SetSpeed {
                meters_per_second: 2.5,
                ramp: Some(0.5),
                gain: 3.0,
            },
            r#"{"set_speed":{"meters_per_second":2.5,"ramp":0.5,"gain":3.0}}"#,
        ),
    ];
    for (command, text) in cases {
        assert_eq!(encode(&command), text);
        assert_eq!(decode::<Command>(text), Ok(command));
    }
}

#[test]
fn skipped_fields_are_omitted_and_fill_back_in() {
    assert_eq!(encode(&point(7)), r#"{"x":7,"note":null}"#);
    assert_eq!(decode::<Point>(r#"{"x":7}"#), Ok(point(7)));
    // Written out, the skipped defaults decode to the same value.
    assert_eq!(
        decode::<Point>(r#"{"x":7,"y":0,"tags":[],"label":null,"note":null}"#),
        Ok(point(7))
    );
    assert_eq!(
        decode::<Command>(r#"{"set_speed":{"meters_per_second":1}}"#),
        Ok(Command::SetSpeed {
            meters_per_second: 1.0,
            ramp: None,
            gain: 1.0,
        })
    );
}

#[test]
fn unit_variants_decode_from_both_spellings() {
    assert_eq!(decode::<Command>(r#"{"halt":{}}"#), Ok(Command::Halt));
    assert_eq!(decode::<Command>(r#""halt""#), Ok(Command::Halt));
    assert_eq!(
        decode::<Command>(r#" { "halt" : { } } "#),
        Ok(Command::Halt)
    );
    for payload in [
        r#"{"halt":null}"#,
        r#"{"halt":5}"#,
        r#"{"halt":{"now":true}}"#,
    ] {
        let err = decode::<Command>(payload).unwrap_err();
        assert!(err.contains("field `halt`"), "{payload}: {err}");
    }
    // Only a payload-free variant may be written as a bare string.
    let err = decode::<Command>(r#""move_to""#).unwrap_err();
    assert!(err.contains("`move_to` is not a payload-free"), "{err}");
}

#[test]
fn errors_name_the_tag_list_every_tag_and_keep_the_field_path() {
    const TAGS: &str = "halt, move_to, set_speed";
    for (text, tag) in [
        (r#"{"teleport":{}}"#, "`teleport`"),
        (r#""teleport""#, "`teleport`"),
        (r#"{"MoveTo":{"x":1}}"#, "`MoveTo`"),
    ] {
        let err = decode::<Command>(text).unwrap_err();
        assert!(err.contains(tag), "{text}: {err}");
        assert!(err.contains(TAGS), "{text}: {err}");
        assert!(err.contains("`Command`"), "{text}: {err}");
    }
    for text in [r#"{"halt":{},"move_to":{"x":1}}"#, "{}", "[]", "7", "null"] {
        let err = decode::<Command>(text).unwrap_err();
        assert!(err.contains(TAGS), "{text}: {err}");
    }
    let err = decode::<Command>(r#"{"move_to":{"x":"far"}}"#).unwrap_err();
    assert!(err.contains("field `move_to`: field `x`"), "{err}");
    let err = decode::<Command>(r#"{"set_speed":{"ramp":1}}"#).unwrap_err();
    assert!(err.contains("field `set_speed`"), "{err}");
    assert!(err.contains("`meters_per_second`"), "{err}");
}

fn frame_from(text: &str) -> Result<RequestFrame, String> {
    let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(text.as_bytes());
    read_frame(&mut Cursor::new(bytes))
        .map(|frame| frame.unwrap())
        .map_err(|e| e.to_string())
}

/// Behaviour change: the hand-written decoder took only the object form.
#[test]
fn the_wire_accepts_a_bare_shutdown() {
    assert_eq!(frame_from(r#""shutdown""#), Ok(RequestFrame::Shutdown));
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &RequestFrame::Shutdown).unwrap();
    assert_eq!(&bytes[4..], br#"{"shutdown":{}}"#);
}

/// Behaviour change: the hand-written decoder ignored the payload.
#[test]
fn the_wire_rejects_a_shutdown_payload() {
    for text in [
        r#"{"shutdown":5}"#,
        r#"{"shutdown":null}"#,
        r#"{"shutdown":[]}"#,
        r#"{"shutdown":{"now":true}}"#,
    ] {
        let err = frame_from(text).unwrap_err();
        assert!(err.contains("field `shutdown`"), "{text}: {err}");
    }
}

/// Behaviour change: the hand-written encoder wrote the bare string
/// `"shift_weights"`. Both spellings still load.
#[test]
fn the_dsl_writes_shift_weights_as_an_object() {
    let rule = Rule {
        name: "reshuffle".into(),
        trigger: Trigger::At(5.0),
        events: vec![EventSpec::ShiftWeights],
        once: false,
    };
    let text = encode(&rule);
    assert_eq!(
        text,
        r#"{"name":"reshuffle","trigger":{"at":5.0},"events":[{"shift_weights":{}}],"once":false}"#
    );
    assert_eq!(decode::<Rule>(&text), Ok(rule.clone()));
    let bare = text.replace(r#"{"shift_weights":{}}"#, r#""shift_weights""#);
    assert_eq!(decode::<Rule>(&bare), Ok(rule));
}

/// Behaviour change: the hand-written decoder read an explicit `null`
/// count as 0; `#[serde(default)]` fills in only a missing one.
#[test]
fn trace_counts_reject_an_explicit_null() {
    let line = r#"{"trace":1,"outcome":"committed","conflicts":null,"total_ns":1,"spans":[]}"#;
    let err = RequestTrace::from_jsonl(line).unwrap_err().to_string();
    assert!(err.contains("field `conflicts`"), "{err}");
    let line = r#"{"trace":1,"outcome":"committed","total_ns":1,"spans":[]}"#;
    assert_eq!(RequestTrace::from_jsonl(line).unwrap().conflicts, 0);
}
