//! The `qosr serve` wire protocol: length-prefixed JSON frames.
//!
//! Every message on a connection — in either direction — is one
//! *frame*: a 4-byte big-endian payload length followed by that many
//! bytes of compact JSON. The JSON value is an externally-tagged
//! single-key object naming the frame kind (the same convention the
//! scenario DSL uses), e.g.
//!
//! ```text
//! {"establish":{"id":1,"service":0,"domain":3,"scale":1.0}}
//! {"outcome":{"id":1,"status":"committed","session":17,"rank":4,"psi":0.31}}
//! ```
//!
//! Clients send [`RequestFrame`]s, the server answers with
//! [`ResponseFrame`]s. Responses carry the request's client-chosen
//! `id`, so a pipelined client can match them up; the server answers
//! every request, in per-connection FIFO order.
//!
//! [`read_frame`] never panics on hostile input: an oversized length
//! prefix is rejected *before* allocating, a short read mid-frame is a
//! clean [`WireError::Truncated`], undecodable payload bytes are a
//! clean [`WireError::Json`], and an EOF on a frame boundary is
//! `Ok(None)` (the peer hung up politely).

use qosr_broker::{AdvanceOutcome, EstablishOutcome, SessionId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's JSON payload, enforced on both encode
/// and decode (decode rejects the length prefix before allocating).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A codec failure: transport, framing, or payload.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer hung up (or stopped) in the middle of a frame.
    Truncated {
        /// Bytes the frame header (or prefix) promised.
        expected: usize,
        /// Bytes actually received before EOF.
        got: usize,
    },
    /// A length prefix beyond [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: usize,
    },
    /// The payload was not valid JSON, or not a known frame.
    Json(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "I/O error: {e}"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            WireError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes (limit {MAX_FRAME_LEN})")
            }
            WireError::Json(msg) => write!(f, "bad frame payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encodes `frame` as one length-prefixed compact-JSON frame onto `w`.
/// Does not flush — callers batching frames flush once per burst.
pub fn write_frame<W: Write + ?Sized, T: Serialize>(w: &mut W, frame: &T) -> Result<(), WireError> {
    let body = serde_json::to_string(frame).map_err(|e| WireError::Json(e.to_string()))?;
    write_raw(w, body.as_bytes())
}

/// Length-prefixes and writes an already-encoded payload.
fn write_raw<W: Write + ?Sized>(w: &mut W, bytes: &[u8]) -> Result<(), WireError> {
    if bytes.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len: bytes.len() });
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    Ok(())
}

/// [`write_frame`] specialised to [`RequestFrame`], formatting the
/// plain establish shape (no QoS floor, deadline, or planner override)
/// directly instead of via a value tree. Output is byte-identical to
/// the derived encoder, the oracle a property test holds it to.
pub fn write_request_frame<W: Write + ?Sized>(
    w: &mut W,
    frame: &RequestFrame,
) -> Result<(), WireError> {
    use std::fmt::Write as _;
    if let RequestFrame::Establish(def) = frame {
        if def.qos_min.is_none()
            && def.deadline.is_none()
            && def.planner.is_none()
            && def.scale.is_finite()
        {
            let mut body = String::with_capacity(64);
            let _ = write!(body, "{{\"establish\":{{\"id\":{}", def.id);
            if def.service != 0 {
                let _ = write!(body, ",\"service\":{}", def.service);
            }
            if def.domain != 0 {
                let _ = write!(body, ",\"domain\":{}", def.domain);
            }
            if def.scale != 1.0 {
                body.push_str(",\"scale\":");
                push_float(&mut body, def.scale);
            }
            if let Some(t) = def.trace {
                let _ = write!(body, ",\"trace\":{t}");
            }
            body.push_str("}}");
            return write_raw(w, body.as_bytes());
        }
    }
    write_frame(w, frame)
}

/// [`write_frame`] specialised to [`ResponseFrame`], formatting the
/// committed/degraded outcome shapes directly (see
/// [`write_request_frame`] for the contract).
pub fn write_response_frame<W: Write + ?Sized>(
    w: &mut W,
    frame: &ResponseFrame,
) -> Result<(), WireError> {
    use std::fmt::Write as _;
    if let ResponseFrame::Outcome(o) = frame {
        if (o.status == "committed" || o.status == "degraded")
            && o.error.is_none()
            && o.miss_resource.is_none()
            && o.miss_ratio.is_none()
            && !o.has_attribution()
            && o.from.is_some() == o.to.is_some()
        {
            if let (Some(session), Some(rank), Some(psi)) = (o.session, o.rank, o.psi) {
                if psi.is_finite() {
                    let mut body = String::with_capacity(96);
                    let _ = write!(
                        body,
                        "{{\"outcome\":{{\"id\":{},\"status\":\"{}\",\"session\":{},\
                         \"rank\":{},\"psi\":",
                        o.id, o.status, session, rank
                    );
                    push_float(&mut body, psi);
                    if let (Some(from), Some(to)) = (o.from, o.to) {
                        let _ = write!(body, ",\"from\":{from},\"to\":{to}");
                    }
                    body.push_str("}}");
                    return write_raw(w, body.as_bytes());
                }
            }
        }
    }
    write_frame(w, frame)
}

/// Appends a finite float exactly as the generic serializer would
/// (integral values keep a trailing `.0`), so the fast encoders stay
/// byte-identical to the value-tree path.
fn push_float(body: &mut String, f: f64) {
    use std::fmt::Write as _;
    let start = body.len();
    let _ = write!(body, "{f}");
    if !body[start..].contains(['.', 'e', 'E']) {
        body.push_str(".0");
    }
}

/// A strict cursor over the compact JSON our own encoders emit: no
/// whitespace, fixed field order, JSON number grammar. Any deviation
/// makes the fast parsers return `None` and the caller falls back to
/// the generic (value-tree) parser, so hostile or merely unusual input
/// behaves exactly as before.
struct Scan<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Scan<'a> {
    fn new(text: &'a str) -> Self {
        Scan {
            s: text.as_bytes(),
            i: 0,
        }
    }

    /// Consumes `lit` if it is next, reporting whether it was.
    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn digits(&mut self) -> &'a [u8] {
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i].is_ascii_digit() {
            self.i += 1;
        }
        &self.s[start..self.i]
    }

    /// Scans a JSON unsigned integer (no sign, no leading zeros).
    fn u64(&mut self) -> Option<u64> {
        let digits = self.digits();
        if digits.is_empty() || (digits.len() > 1 && digits[0] == b'0') {
            return None;
        }
        std::str::from_utf8(digits).ok()?.parse().ok()
    }

    /// Scans a JSON number into an `f64`, enforcing JSON's grammar so
    /// the fast path accepts exactly what the generic parser would.
    fn f64(&mut self) -> Option<f64> {
        let start = self.i;
        if self.i < self.s.len() && self.s[self.i] == b'-' {
            self.i += 1;
        }
        let int = self.digits();
        if int.is_empty() || (int.len() > 1 && int[0] == b'0') {
            return None;
        }
        if self.eat(".") && self.digits().is_empty() {
            return None;
        }
        if self.i < self.s.len() && matches!(self.s[self.i], b'e' | b'E') {
            self.i += 1;
            if self.i < self.s.len() && matches!(self.s[self.i], b'+' | b'-') {
                self.i += 1;
            }
            if self.digits().is_empty() {
                return None;
            }
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    fn done(&self) -> bool {
        self.i == self.s.len()
    }
}

/// Parses the establish shape [`write_request_frame`] emits; `None`
/// (anything else, or any syntax deviation) falls back to the generic
/// parser.
fn fast_parse_establish(text: &str) -> Option<RequestFrame> {
    let mut s = Scan::new(text);
    if !s.eat("{\"establish\":{\"id\":") {
        return None;
    }
    let mut def = EstablishDef::new(s.u64()?);
    if s.eat(",\"service\":") {
        def.service = usize::try_from(s.u64()?).ok()?;
    }
    if s.eat(",\"domain\":") {
        def.domain = usize::try_from(s.u64()?).ok()?;
    }
    if s.eat(",\"scale\":") {
        def.scale = s.f64()?;
    }
    if s.eat(",\"trace\":") {
        def.trace = Some(s.u64()?);
    }
    if s.eat("}}") && s.done() {
        Some(RequestFrame::Establish(def))
    } else {
        None
    }
}

/// Parses the committed/degraded outcome shapes
/// [`write_response_frame`] emits; `None` falls back to the generic
/// parser (rejections carry arbitrary error strings, so they always
/// take the generic path).
fn fast_parse_outcome(text: &str) -> Option<ResponseFrame> {
    let mut s = Scan::new(text);
    if !s.eat("{\"outcome\":{\"id\":") {
        return None;
    }
    let id = s.u64()?;
    let status = if s.eat(",\"status\":\"committed\"") {
        "committed"
    } else if s.eat(",\"status\":\"degraded\"") {
        "degraded"
    } else {
        return None;
    };
    if !s.eat(",\"session\":") {
        return None;
    }
    let session = s.u64()?;
    if !s.eat(",\"rank\":") {
        return None;
    }
    let rank = u32::try_from(s.u64()?).ok()?;
    if !s.eat(",\"psi\":") {
        return None;
    }
    let psi = s.f64()?;
    let (mut from, mut to) = (None, None);
    if s.eat(",\"from\":") {
        from = Some(u32::try_from(s.u64()?).ok()?);
        if !s.eat(",\"to\":") {
            return None;
        }
        to = Some(u32::try_from(s.u64()?).ok()?);
    }
    if !(s.eat("}}") && s.done()) {
        return None;
    }
    Some(ResponseFrame::Outcome(OutcomeFrame {
        id,
        status: status.to_owned(),
        session: Some(session),
        rank: Some(rank),
        psi: Some(psi),
        from,
        to,
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
    }))
}

/// Reads exactly `buf.len()` bytes, distinguishing a clean EOF before
/// the first byte (`Ok(false)`) from one mid-buffer (`Truncated`).
fn read_exact_or_eof<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    frame_len: Option<usize>,
) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && frame_len.is_none() {
                    return Ok(false);
                }
                return Err(WireError::Truncated {
                    expected: frame_len.unwrap_or(buf.len()),
                    got: frame_len.map_or(filled, |_| filled),
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame's payload text. `Ok(None)` is a clean EOF on a
/// frame boundary; all framing and UTF-8 trouble maps to an error.
fn read_payload<R: Read + ?Sized>(r: &mut R) -> Result<Option<String>, WireError> {
    let mut prefix = [0u8; 4];
    if !read_exact_or_eof(r, &mut prefix, None)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    let mut body = vec![0u8; len];
    read_exact_or_eof(r, &mut body, Some(len))?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|e| WireError::Json(format!("invalid UTF-8: {e}")))
}

/// Decodes the next frame from `r`. `Ok(None)` means the peer closed
/// the stream cleanly on a frame boundary; every malformed input maps
/// to an error, never a panic or an unbounded allocation.
pub fn read_frame<R: Read + ?Sized, T: Deserialize>(r: &mut R) -> Result<Option<T>, WireError> {
    match read_payload(r)? {
        None => Ok(None),
        Some(text) => serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| WireError::Json(e.to_string())),
    }
}

/// [`read_frame`] specialised to [`RequestFrame`], with a fast-path
/// scanner for the establish shape the load generator emits. Identical
/// observable behaviour to the generic path (a property test holds the
/// two to byte-for-byte agreement); the scanner just skips the
/// intermediate value tree on the ~100k-frames/s hot path.
pub fn read_request_frame<R: Read + ?Sized>(r: &mut R) -> Result<Option<RequestFrame>, WireError> {
    match read_payload(r)? {
        None => Ok(None),
        Some(text) => match fast_parse_establish(&text) {
            Some(frame) => Ok(Some(frame)),
            None => serde_json::from_str(&text)
                .map(Some)
                .map_err(|e| WireError::Json(e.to_string())),
        },
    }
}

/// [`read_frame`] specialised to [`ResponseFrame`], with a fast-path
/// scanner for the committed/degraded outcome shapes the server emits
/// (see [`read_request_frame`] for the contract).
pub fn read_response_frame<R: Read + ?Sized>(
    r: &mut R,
) -> Result<Option<ResponseFrame>, WireError> {
    match read_payload(r)? {
        None => Ok(None),
        Some(text) => match fast_parse_outcome(&text) {
            Some(frame) => Ok(Some(frame)),
            None => serde_json::from_str(&text)
                .map(Some)
                .map_err(|e| WireError::Json(e.to_string())),
        },
    }
}

/// One templated establish request: the server instantiates the session
/// from its own world (`service`/`domain` indices into the serve
/// world's roster), so clients never ship a full `SessionInstance`.
///
/// Fields at their default (`service`/`domain` 0, `scale` 1, absent
/// options) are omitted from the wire form — the decode side fills them
/// back in, and the hot path (one establish per load-generator request)
/// shrinks to a ~20-byte payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstablishDef {
    /// Client-chosen correlation id, echoed on the outcome frame.
    pub id: u64,
    /// Service index in the server's world (0 on the bench world).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub service: usize,
    /// Client domain index (0 on the bench world).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub domain: usize,
    /// Demand scale ("fat" factor), default 1.
    #[serde(default = "default_scale", skip_serializing_if = "is_one")]
    pub scale: f64,
    /// Optional QoS floor (1-based rank).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub qos_min: Option<u32>,
    /// Optional admission deadline in server sim-time.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub deadline: Option<f64>,
    /// Planner override: `basic`, `tradeoff`, `random`, or `dag`
    /// (default `basic`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub planner: Option<String>,
    /// Client-minted trace id: when present (and the server traces),
    /// the admission records a span tree under this id and the outcome
    /// frame echoes it with per-phase latency attribution.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<u64>,
}

fn default_scale() -> f64 {
    1.0
}

fn is_one(scale: &f64) -> bool {
    *scale == 1.0
}

fn is_zero(index: &usize) -> bool {
    *index == 0
}

impl EstablishDef {
    /// A minimal establish for `id` on the bench world's one template.
    pub fn new(id: u64) -> Self {
        EstablishDef {
            id,
            service: 0,
            domain: 0,
            scale: 1.0,
            qos_min: None,
            deadline: None,
            planner: None,
            trace: None,
        }
    }
}

/// One advance-reservation request: either a *rigid* future-window
/// booking (a fixed per-resource demand held over `[from, to)`) or a
/// *malleable* bulk transfer (a volume to move over one resource
/// before a deadline — the server picks start, duration, and rate).
/// Exactly one of the two field groups must be present.
///
/// Absent options and a default `preempt` are omitted from the wire
/// form, mirroring [`EstablishDef`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdvanceDef {
    /// Client-chosen correlation id, echoed on the outcome frame.
    pub id: u64,
    /// Rigid: per-resource demand as `[resource, amount]` pairs.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub demand: Option<Vec<(u64, f64)>>,
    /// Rigid: window start, in server sim-time.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub from: Option<f64>,
    /// Rigid: window end (exclusive), in server sim-time.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub to: Option<f64>,
    /// Malleable: the resource the volume moves over.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub resource: Option<u64>,
    /// Malleable: total volume to move (amount × time units).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub volume: Option<f64>,
    /// Malleable: completion deadline, in server sim-time.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub deadline: Option<f64>,
    /// Malleable: earliest admissible start (default: now).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub earliest: Option<f64>,
    /// Malleable: lowest useful transfer rate (default 0).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub min_rate: Option<f64>,
    /// Malleable: transfer-rate cap (default unbounded).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_rate: Option<f64>,
    /// Rigid: allow preempting malleable sessions to make room.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub preempt: bool,
    /// Start-vs-contention policy: `ignore` (default) or `tradeoff`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub policy: Option<String>,
    /// Client-minted trace id: asks the server to assemble this
    /// booking's span tree into its flight ring (mirrors
    /// [`EstablishDef::trace`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<u64>,
}

impl AdvanceDef {
    /// A rigid window booking of `demand` over `[from, to)`.
    pub fn rigid(id: u64, demand: Vec<(u64, f64)>, from: f64, to: f64) -> Self {
        AdvanceDef {
            id,
            demand: Some(demand),
            from: Some(from),
            to: Some(to),
            resource: None,
            volume: None,
            deadline: None,
            earliest: None,
            min_rate: None,
            max_rate: None,
            preempt: false,
            policy: None,
            trace: None,
        }
    }

    /// A malleable transfer of `volume` over `resource` by `deadline`.
    pub fn malleable(id: u64, resource: u64, volume: f64, deadline: f64) -> Self {
        AdvanceDef {
            id,
            demand: None,
            from: None,
            to: None,
            resource: Some(resource),
            volume: Some(volume),
            deadline: Some(deadline),
            earliest: None,
            min_rate: None,
            max_rate: None,
            preempt: false,
            policy: None,
            trace: None,
        }
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RequestFrame {
    /// Admit one session; the server may coalesce consecutive
    /// establishes from any connection into one admission round.
    Establish(EstablishDef),
    /// Admit this exact request list as **one** admission round, at an
    /// explicit sim-time if given — the deterministic-round verb the
    /// equivalence tests drive.
    Batch {
        /// Explicit round sim-time (defaults to the server's round
        /// counter).
        now: Option<f64>,
        /// The round's requests, in arrival order.
        requests: Vec<EstablishDef>,
    },
    /// Book an advance reservation (rigid window or malleable
    /// transfer) on the server's reservation timelines.
    Advance(AdvanceDef),
    /// Cancel an advance session's bookings ahead of its window.
    AdvanceCancel {
        /// Correlation id.
        id: u64,
        /// The session id a prior advance-outcome frame reported.
        session: u64,
    },
    /// Release an admitted session's reservations.
    Terminate {
        /// Correlation id.
        id: u64,
        /// The session id a prior outcome frame reported.
        session: u64,
    },
    /// Try to upgrade an admitted session to a better plan (rank up, or
    /// equal rank at lower Ψ); a no-op answer if nothing better exists.
    Renegotiate {
        /// Correlation id.
        id: u64,
        /// The session id a prior outcome frame reported.
        session: u64,
    },
    /// Ask for a server snapshot: rounds, live sessions, capacity.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Dump the flight recorder: the server's ring of recently
    /// completed request span trees, most recent last.
    Flight {
        /// Correlation id.
        id: u64,
    },
    /// Ask for the current SLO report: per-target compliance and
    /// multi-window burn rates.
    Slo {
        /// Correlation id.
        id: u64,
    },
    /// Liveness probe, answered directly by the connection's reader.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Drain everything queued, answer [`ResponseFrame::Bye`], and stop
    /// the server.
    Shutdown,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ResponseFrame {
    /// The structured result of one establish.
    Outcome(OutcomeFrame),
    /// The structured result of one advance request.
    Advance(AdvanceOutcomeFrame),
    /// An advance cancel completed (possibly releasing nothing).
    AdvanceCancelled {
        /// Correlation id of the cancel request.
        id: u64,
        /// The cancelled advance session id.
        session: u64,
        /// Total volume released — Σ amount × duration over the
        /// removed bookings.
        released_volume: f64,
        /// How many bookings were removed.
        bookings_removed: u64,
    },
    /// A terminate completed, releasing `released` capacity units.
    Terminated {
        /// Correlation id of the terminate request.
        id: u64,
        /// The released session id.
        session: u64,
        /// Total capacity units released across all resources.
        released: f64,
    },
    /// A renegotiate completed (upgraded or kept as-is).
    Renegotiated {
        /// Correlation id of the renegotiate request.
        id: u64,
        /// The session id (unchanged by renegotiation).
        session: u64,
        /// The session's current end-to-end rank.
        rank: u32,
        /// The session's current bottleneck Ψ.
        psi: f64,
        /// Whether the session was swapped to a better plan.
        upgraded: bool,
    },
    /// The server snapshot a [`RequestFrame::Stats`] asked for.
    Stats(StatsFrame),
    /// The flight-recorder dump a [`RequestFrame::Flight`] asked for.
    Flight(FlightFrame),
    /// The SLO evaluation a [`RequestFrame::Slo`] asked for.
    Slo(SloFrame),
    /// Answer to a ping.
    Pong {
        /// Correlation id of the ping.
        id: u64,
    },
    /// The request could not be honoured (unknown session, invalid
    /// indices, malformed frame, …). The connection stays usable unless
    /// the error was a framing error.
    Error {
        /// Correlation id of the offending request, when decodable.
        id: Option<u64>,
        /// Human-readable explanation.
        message: String,
    },
    /// The server acknowledged a shutdown after draining its queue.
    Bye {
        /// Request frames the server answered before stopping — proof
        /// to a shutting-down client that nothing it pipelined ahead
        /// of the shutdown was dropped.
        drained: u64,
    },
}

/// The wire form of one [`EstablishOutcome`], flattened to scalars.
///
/// `None` fields are omitted rather than sent as `null` — a committed
/// outcome (the overwhelmingly common frame under load) carries five
/// fields instead of ten.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutcomeFrame {
    /// Correlation id of the establish request.
    pub id: u64,
    /// `committed`, `degraded`, or `rejected`.
    pub status: String,
    /// The admitted session id (absent when rejected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub session: Option<u64>,
    /// Committed end-to-end rank (absent when rejected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rank: Option<u32>,
    /// Committed bottleneck Ψ (absent when rejected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub psi: Option<f64>,
    /// First-planned rank (degraded outcomes only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub from: Option<u32>,
    /// Committed rank after degradation (degraded outcomes only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub to: Option<u32>,
    /// The rejection error, rendered (rejected outcomes only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// The nearest-miss blocking resource id (some rejections).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub miss_resource: Option<u64>,
    /// The nearest-miss `req/avail` overshoot ratio (some rejections).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub miss_ratio: Option<f64>,
    /// Echo of the request's trace id (traced establishes only; the
    /// remaining `*_ns` attribution fields ride along with it).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<u64>,
    /// Server-side queue residual: the part of `total_ns` no phase span
    /// measured. The server stamps ingress when its admission thread
    /// resolves the frame at the start of a round, after the socket
    /// read and the gather window, so this is template resolution,
    /// round scheduling and the wait while the round's other requests
    /// are planned and committed; the socket read and the gather-window
    /// wait are in neither this nor `total_ns`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub queue_ns: Option<u64>,
    /// Phase-1 availability collection time.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub collect_ns: Option<u64>,
    /// Pass-II planning time (including replans' nested plans).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub plan_ns: Option<u64>,
    /// Conflict-replan time (zero when the commit was clean).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub replan_ns: Option<u64>,
    /// Two-phase reserve/commit dispatch time.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub commit_ns: Option<u64>,
    /// End-to-end server-side latency, ingress to outcome. The root
    /// span durations (`queue/collect/plan/replan/commit`) sum to
    /// exactly this.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub total_ns: Option<u64>,
}

impl OutcomeFrame {
    /// Flattens an in-process [`EstablishOutcome`] to its wire form —
    /// the one conversion both the server and the over-the-wire
    /// equivalence tests use, so frame equality *is* outcome equality.
    pub fn from_outcome(id: u64, outcome: &EstablishOutcome) -> Self {
        let mut frame = OutcomeFrame {
            id,
            status: String::new(),
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
        };
        match outcome {
            EstablishOutcome::Committed(est) => {
                frame.status = "committed".into();
                frame.session = Some(est.id.0);
                frame.rank = Some(est.plan.rank);
                frame.psi = Some(est.plan.psi);
            }
            EstablishOutcome::Degraded { session, from, to } => {
                frame.status = "degraded".into();
                frame.session = Some(session.id.0);
                frame.rank = Some(session.plan.rank);
                frame.psi = Some(session.plan.psi);
                frame.from = Some(*from);
                frame.to = Some(*to);
            }
            EstablishOutcome::Rejected {
                error,
                nearest_miss,
            } => {
                frame.status = "rejected".into();
                frame.error = Some(error.to_string());
                if let Some(miss) = nearest_miss {
                    frame.miss_resource = Some(u64::from(miss.resource.0));
                    frame.miss_ratio = Some(miss.ratio);
                }
            }
        }
        frame
    }

    /// `true` for `committed` and `degraded` outcomes.
    pub fn is_admitted(&self) -> bool {
        self.status != "rejected"
    }

    /// `true` when the frame carries any per-request latency
    /// attribution fields — such frames take the generic encoder so
    /// the untraced hot path stays free of the extra branches.
    pub fn has_attribution(&self) -> bool {
        self.trace.is_some()
            || self.queue_ns.is_some()
            || self.collect_ns.is_some()
            || self.plan_ns.is_some()
            || self.replan_ns.is_some()
            || self.commit_ns.is_some()
            || self.total_ns.is_some()
    }

    /// Copies the span-tree attribution of a finished [`RequestTrace`](qosr_obs::RequestTrace)
    /// into the frame: one nanosecond bucket per phase, plus the total
    /// they sum to exactly.
    pub fn attach_trace(&mut self, trace: &qosr_obs::RequestTrace) {
        self.trace = Some(trace.trace);
        self.queue_ns = Some(trace.span_ns(qosr_obs::SpanKind::Queue));
        self.collect_ns = Some(trace.span_ns(qosr_obs::SpanKind::Collect));
        self.plan_ns = Some(trace.span_ns(qosr_obs::SpanKind::Plan));
        self.replan_ns = Some(trace.span_ns(qosr_obs::SpanKind::Replan));
        self.commit_ns = Some(trace.span_ns(qosr_obs::SpanKind::Commit));
        self.total_ns = Some(trace.total_ns);
    }
}

/// The wire form of one [`AdvanceOutcome`], flattened to scalars.
///
/// `None` fields are omitted rather than sent as `null`, mirroring
/// [`OutcomeFrame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdvanceOutcomeFrame {
    /// Correlation id of the advance request.
    pub id: u64,
    /// `booked`, `repacked`, or `rejected`.
    pub status: String,
    /// The advance session id (absent when rejected) — the handle a
    /// later `advance_cancel` frame names.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub session: Option<u64>,
    /// When the booked plan starts (absent when rejected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub start: Option<f64>,
    /// When the booked plan completes (absent when rejected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub end: Option<f64>,
    /// Total volume booked (absent when rejected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub volume: Option<f64>,
    /// The plan's contention share ψ (absent when rejected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub psi: Option<f64>,
    /// Constant-rate pieces in the plan (absent when rejected).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub segments: Option<u64>,
    /// Malleable sessions moved to make room (repacked outcomes only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub moved: Option<Vec<u64>>,
    /// The rejection error, rendered (rejected outcomes only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// For rejected malleable requests: the earliest deadline under
    /// which the same transfer would fit today, when one exists.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub nearest_deadline: Option<f64>,
}

impl AdvanceOutcomeFrame {
    /// Flattens an in-process [`AdvanceOutcome`] to its wire form —
    /// the one conversion the server and its tests share, so frame
    /// equality *is* outcome equality. `session` is the id the server
    /// booked the request under (ignored for rejections).
    pub fn from_outcome(id: u64, session: SessionId, outcome: &AdvanceOutcome) -> Self {
        let mut frame = AdvanceOutcomeFrame {
            id,
            status: String::new(),
            session: None,
            start: None,
            end: None,
            volume: None,
            psi: None,
            segments: None,
            moved: None,
            error: None,
            nearest_deadline: None,
        };
        let mut fill = |profile: &qosr_broker::AdvanceProfile| {
            frame.session = Some(session.0);
            frame.start = Some(profile.start.value());
            frame.end = Some(profile.end.value());
            frame.volume = Some(profile.volume);
            frame.psi = Some(profile.psi);
            frame.segments = Some(profile.segments.len() as u64);
        };
        match outcome {
            AdvanceOutcome::Booked { profile } => {
                fill(profile);
                frame.status = "booked".into();
            }
            AdvanceOutcome::Repacked { profile, moved } => {
                fill(profile);
                frame.status = "repacked".into();
                frame.moved = Some(moved.iter().map(|s| s.0).collect());
            }
            AdvanceOutcome::Rejected {
                error,
                nearest_feasible_deadline,
            } => {
                frame.status = "rejected".into();
                frame.error = Some(error.to_string());
                frame.nearest_deadline = nearest_feasible_deadline.map(|t| t.value());
            }
        }
        frame
    }

    /// `true` for `booked` and `repacked` outcomes.
    pub fn is_booked(&self) -> bool {
        self.status != "rejected"
    }
}

/// One server snapshot: admission progress and capacity accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsFrame {
    /// Correlation id of the stats request.
    pub id: u64,
    /// Admission rounds run so far.
    pub rounds: u64,
    /// Request frames decoded so far (all verbs).
    pub requests: u64,
    /// Establish requests that committed (possibly degraded).
    pub establishments: u64,
    /// Sessions terminated so far.
    pub releases: u64,
    /// Sessions currently holding reservations.
    pub live_sessions: u64,
    /// Connections currently open.
    pub connections: u64,
    /// Sum of available capacity across every broker.
    pub total_available: f64,
    /// Sum of configured capacity across every broker.
    pub total_capacity: f64,
    /// `true` if any broker's available capacity is negative — must
    /// never happen; the concurrent-client oracle asserts on it.
    pub over_committed: bool,
}

/// A flight-recorder dump: the span trees of the most recent requests,
/// oldest first — the server-side answer to "what just happened".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightFrame {
    /// Correlation id of the flight request.
    pub id: u64,
    /// The recorded traces, oldest first. Each re-encodes to the same
    /// canonical JSONL line the server would write to a dump file.
    pub traces: Vec<qosr_obs::RequestTrace>,
}

/// The server's current SLO evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloFrame {
    /// Correlation id of the slo request.
    pub id: u64,
    /// Per-target observed values and burn rates over both windows.
    pub report: qosr_obs::SloReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(frame: RequestFrame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = Cursor::new(buf);
        let back: RequestFrame = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, frame);
        assert!(
            read_frame::<_, RequestFrame>(&mut cursor)
                .unwrap()
                .is_none(),
            "clean EOF after the frame"
        );
    }

    #[test]
    fn request_frames_roundtrip() {
        roundtrip_request(RequestFrame::Establish(EstablishDef {
            id: 7,
            service: 2,
            domain: 5,
            scale: 1.5,
            qos_min: Some(3),
            deadline: Some(12.5),
            planner: Some("tradeoff".into()),
            trace: Some(91),
        }));
        roundtrip_request(RequestFrame::Batch {
            now: Some(4.0),
            requests: vec![EstablishDef::new(1), EstablishDef::new(2)],
        });
        roundtrip_request(RequestFrame::Advance(AdvanceDef::rigid(
            10,
            vec![(0, 25.0), (3, 4.5)],
            5.0,
            9.0,
        )));
        let mut malleable = AdvanceDef::malleable(11, 2, 500.0, 40.0);
        malleable.earliest = Some(8.0);
        malleable.min_rate = Some(1.0);
        malleable.max_rate = Some(25.0);
        malleable.policy = Some("tradeoff".into());
        malleable.trace = Some(17);
        roundtrip_request(RequestFrame::Advance(malleable));
        let mut preempting = AdvanceDef::rigid(12, vec![(1, 10.0)], 0.0, 2.0);
        preempting.preempt = true;
        roundtrip_request(RequestFrame::Advance(preempting));
        roundtrip_request(RequestFrame::AdvanceCancel { id: 13, session: 4 });
        roundtrip_request(RequestFrame::Terminate { id: 3, session: 9 });
        roundtrip_request(RequestFrame::Renegotiate { id: 4, session: 9 });
        roundtrip_request(RequestFrame::Stats { id: 5 });
        roundtrip_request(RequestFrame::Flight { id: 7 });
        roundtrip_request(RequestFrame::Slo { id: 8 });
        roundtrip_request(RequestFrame::Ping { id: 6 });
        roundtrip_request(RequestFrame::Shutdown);
    }

    fn roundtrip_response(frame: ResponseFrame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = Cursor::new(buf);
        let back: ResponseFrame = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn slo_frame_for_a_zero_target_roundtrips() {
        let engine = qosr_obs::SloEngine::new(qosr_obs::SloTargets {
            max_rejection_rate: 0.0,
            ..qosr_obs::SloTargets::default()
        });
        engine.observe(qosr_obs::SloOutcome::Rejected, 1_000);
        let (report, entered) = engine.evaluate();
        assert!(
            report.breached && entered,
            "any rejection breaches a zero target"
        );
        assert!(report.rejection_burn.is_finite() && report.rejection_burn > 1.0);
        let frame = ResponseFrame::Slo(SloFrame { id: 9, report });
        let mut buf = Vec::new();
        write_response_frame(&mut buf, &frame).unwrap();
        let back = read_response_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn advance_response_frames_roundtrip() {
        roundtrip_response(ResponseFrame::Advance(AdvanceOutcomeFrame {
            id: 1,
            status: "repacked".into(),
            session: Some(7),
            start: Some(3.0),
            end: Some(9.5),
            volume: Some(130.0),
            psi: Some(0.4),
            segments: Some(2),
            moved: Some(vec![3, 5]),
            error: None,
            nearest_deadline: None,
        }));
        roundtrip_response(ResponseFrame::Advance(AdvanceOutcomeFrame {
            id: 2,
            status: "rejected".into(),
            session: None,
            start: None,
            end: None,
            volume: None,
            psi: None,
            segments: None,
            moved: None,
            error: Some("insufficient capacity".into()),
            nearest_deadline: Some(62.5),
        }));
        roundtrip_response(ResponseFrame::AdvanceCancelled {
            id: 3,
            session: 7,
            released_volume: 130.0,
            bookings_removed: 2,
        });
    }

    #[test]
    fn advance_outcome_frames_flatten_like_their_outcomes() {
        use qosr_broker::{AdvanceRegistry, AdvanceRequest, SimTime, TimelineBroker};
        use qosr_model::{ResourceId, ResourceVector};
        use std::sync::Arc;

        let rid = ResourceId(0);
        let mut registry = AdvanceRegistry::new();
        registry.register(Arc::new(TimelineBroker::new(rid, 10.0)));

        let transfer = AdvanceRequest::malleable(SessionId(1), rid, 40.0, SimTime::new(8.0));
        let frame = AdvanceOutcomeFrame::from_outcome(
            5,
            SessionId(1),
            &registry.book(&transfer, SimTime::ZERO),
        );
        assert!(frame.is_booked());
        assert_eq!(frame.status, "booked");
        assert_eq!(frame.session, Some(1));
        assert_eq!(frame.volume, Some(40.0));
        assert_eq!(frame.segments, Some(1));

        let demand = ResourceVector::from_pairs([(rid, 10.0)]).expect("demand");
        let rigid = AdvanceRequest::rigid(SessionId(2), demand, SimTime::ZERO, SimTime::new(4.0))
            .allow_preempt(true);
        let frame = AdvanceOutcomeFrame::from_outcome(
            6,
            SessionId(2),
            &registry.book(&rigid, SimTime::ZERO),
        );
        assert_eq!(frame.status, "repacked");
        assert_eq!(frame.moved, Some(vec![1]));

        let hopeless = AdvanceRequest::malleable(SessionId(3), rid, 1.0e9, SimTime::new(9.0));
        let frame = AdvanceOutcomeFrame::from_outcome(
            7,
            SessionId(3),
            &registry.book(&hopeless, SimTime::ZERO),
        );
        assert!(!frame.is_booked());
        assert_eq!(frame.session, None);
        assert!(frame.error.is_some());
        assert!(frame.nearest_deadline.is_some());
    }

    #[test]
    fn establish_defaults_fill_in() {
        let text = r#"{"establish":{"id":1}}"#;
        let mut buf = (text.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(text.as_bytes());
        let frame: RequestFrame = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(frame, RequestFrame::Establish(EstablishDef::new(1)));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocating() {
        let mut buf = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"x");
        let err = read_frame::<_, RequestFrame>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, WireError::Oversized { len } if len == MAX_FRAME_LEN + 1));
    }

    #[test]
    fn truncated_payload_is_a_clean_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &RequestFrame::Ping { id: 1 }).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame::<_, RequestFrame>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn garbage_payload_is_a_clean_error() {
        let text = b"not json at all";
        let mut buf = (text.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(text);
        let err = read_frame::<_, RequestFrame>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, WireError::Json(_)));
    }
}
