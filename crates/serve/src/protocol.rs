//! Wire protocol: line-oriented requests, sectioned JSON responses.
//!
//! # Request
//!
//! ```text
//! RASENGAN/1 SOLVE
//! seed 7
//! shots 256
//! iterations 40
//! retries 2
//! degrade
//! deadline-ms 5000
//! BEGIN PROBLEM
//! <problems::io text format>
//! END PROBLEM
//! ```
//!
//! The first line names the protocol version and a verb (`SOLVE`,
//! `STATS`, `PING`). Every header is optional and line-oriented
//! (`key value`, or a bare flag); the problem body is bracketed by
//! `BEGIN PROBLEM` / `END PROBLEM` and defaults to the
//! [`rasengan_problems::io`] text format — a `format` header
//! (`native`, `qubo`, `qubo-recover`, `lp`) selects any other ingestion
//! front end, all of which lower into the same canonical problem
//! before solving. `STATS` and `PING` are just the verb line.
//!
//! # Response
//!
//! ```text
//! RASENGAN/1 OK
//! service {"queue_wait_ms":0.2,"cache":"miss","fingerprint":"0x..."}
//! result {"best":{...},...}
//! timing {"quantum_s":...}
//! ```
//!
//! A status line (`OK`, `BUSY`, `ERROR`) followed by named sections,
//! one canonical JSON document per line; the server closes the
//! connection after writing, so clients read to EOF. The `result`
//! section contains only deterministic solve output (no wall-clock),
//! so a served solve can be byte-compared against an in-process
//! [`Outcome`] serialized with [`render_outcome`]. Wall-clock and
//! service-side metadata live in `timing` and `service`.

use rasengan_core::latency::{Latency, StageTimes};
use rasengan_core::resilience::ResilienceConfig;
use rasengan_core::solver::{Outcome, RasenganConfig, RasenganError};
use rasengan_obs::json::{self, Json};
use rasengan_problems::ingest::Format;

/// Protocol tag opening every request and response.
pub const PROTOCOL: &str = "RASENGAN/1";

/// Why reading a request body failed — the protocol's structured
/// error. The split matters operationally: a [`RequestError::Timeout`]
/// means the per-connection IO deadline fired (a slow or stalled
/// client), which the server counts separately from malformed input
/// and reports with its own `kind` tag so clients can tell "I was too
/// slow" from "my request was wrong".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The socket read deadline expired before the request completed.
    Timeout(String),
    /// The request was malformed (bad header, missing bracket,
    /// oversized field, non-UTF-8 body).
    Malformed(String),
}

impl RequestError {
    /// The stable `kind` tag the error section carries.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestError::Timeout(_) => "timeout",
            RequestError::Malformed(_) => "bad-request",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            RequestError::Timeout(m) | RequestError::Malformed(m) => m,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for RequestError {}

/// A request's verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Solve the bracketed problem.
    Solve,
    /// Report service counters.
    Stats,
    /// Liveness check.
    Ping,
    /// Fabric membership exchange (push-pull heartbeat).
    Gossip,
}

/// Parses the first request line (`RASENGAN/1 <VERB>`).
pub fn parse_verb(line: &str) -> Result<Verb, String> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some(tag) if tag == PROTOCOL => {}
        Some(other) => return Err(format!("unknown protocol `{other}`")),
        None => return Err("empty request".to_string()),
    }
    match words.next() {
        Some("SOLVE") => Ok(Verb::Solve),
        Some("STATS") => Ok(Verb::Stats),
        Some("PING") => Ok(Verb::Ping),
        Some("GOSSIP") => Ok(Verb::Gossip),
        Some(other) => Err(format!("unknown verb `{other}`")),
        None => Err("missing verb".to_string()),
    }
}

/// A member's health as carried on the gossip wire. The fabric's
/// suspicion state machine owns the transitions; the wire only names
/// the three states so receivers can merge remote views.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GossipState {
    /// Heard from recently.
    Alive,
    /// Quiet past the suspect timeout; still in the ring.
    Suspect,
    /// Quiet past the dead timeout; out of the ring.
    Dead,
}

impl GossipState {
    /// The wire token.
    pub fn token(self) -> &'static str {
        match self {
            GossipState::Alive => "alive",
            GossipState::Suspect => "suspect",
            GossipState::Dead => "dead",
        }
    }

    /// Parses a wire token.
    pub fn parse(token: &str) -> Option<GossipState> {
        match token {
            "alive" => Some(GossipState::Alive),
            "suspect" => Some(GossipState::Suspect),
            "dead" => Some(GossipState::Dead),
            _ => None,
        }
    }
}

/// One member row in a gossip exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipMember {
    /// Stable node id (no whitespace).
    pub id: String,
    /// Address peers dial to reach the node (no whitespace).
    pub addr: String,
    /// Sender's view of the member's health.
    pub state: GossipState,
}

/// Ceiling on member rows in one gossip message; a hostile peer cannot
/// grow a receiver's membership table without bound.
pub const MAX_GOSSIP_MEMBERS: usize = 1024;

/// A membership exchange: the sender introduces itself and shares its
/// member table; the receiver merges it and replies with its own view
/// in a `gossip` response section (push-pull anti-entropy).
///
/// ```text
/// RASENGAN/1 GOSSIP
/// from <node-id> <addr>
/// member <node-id> <addr> <alive|suspect|dead>
/// END GOSSIP
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipMessage {
    /// Sender's node id.
    pub from_id: String,
    /// Sender's advertised address.
    pub from_addr: String,
    /// Sender's member table (usually includes itself).
    pub members: Vec<GossipMember>,
}

impl GossipMessage {
    /// Renders the full request text (verb line through `END GOSSIP`).
    pub fn render(&self) -> String {
        let mut out = format!("{PROTOCOL} GOSSIP\n");
        out.push_str(&format!("from {} {}\n", self.from_id, self.from_addr));
        for member in &self.members {
            out.push_str(&format!(
                "member {} {} {}\n",
                member.id,
                member.addr,
                member.state.token()
            ));
        }
        out.push_str("END GOSSIP\n");
        out
    }
}

/// Accumulates the member table of a `GOSSIP` request.
#[derive(Debug, Default)]
struct GossipAccum {
    from: Option<(String, String)>,
    members: Vec<GossipMember>,
}

impl GossipAccum {
    fn finish(self) -> Result<GossipMessage, RequestError> {
        let (from_id, from_addr) = self
            .from
            .ok_or_else(|| RequestError::Malformed("gossip missing `from` line".to_string()))?;
        Ok(GossipMessage {
            from_id,
            from_addr,
            members: self.members,
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GossipLine {
    Row,
    End,
}

fn apply_gossip_line(accum: &mut GossipAccum, trimmed: &str) -> Result<GossipLine, RequestError> {
    if trimmed.is_empty() {
        return Ok(GossipLine::Row);
    }
    if trimmed == "END GOSSIP" {
        return Ok(GossipLine::End);
    }
    let words: Vec<&str> = trimmed.split_whitespace().collect();
    match words.as_slice() {
        ["from", id, addr] => {
            accum.from = Some((id.to_string(), addr.to_string()));
        }
        ["member", id, addr, state] => {
            if accum.members.len() >= MAX_GOSSIP_MEMBERS {
                return Err(RequestError::Malformed(format!(
                    "gossip exceeds {MAX_GOSSIP_MEMBERS} members"
                )));
            }
            let state = GossipState::parse(state).ok_or_else(|| {
                RequestError::Malformed(format!("unknown gossip state `{state}`"))
            })?;
            accum.members.push(GossipMember {
                id: id.to_string(),
                addr: addr.to_string(),
                state,
            });
        }
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad gossip line `{trimmed}`"
            )))
        }
    }
    Ok(GossipLine::Row)
}

/// A solve request: the problem text plus the training knobs the
/// service lets clients control. Compile-side knobs (simplification,
/// pruning, segmentation, device) are fixed at their defaults so the
/// server's compile cache stays valid across requests.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Problem in the [`rasengan_problems::io`] text format.
    pub problem_text: String,
    /// Base RNG seed (`seed` header; default 0).
    pub seed: u64,
    /// Shots per objective evaluation (`shots`; default: solver's).
    pub shots: Option<usize>,
    /// Optimizer iteration cap (`iterations`; default: solver's).
    pub iterations: Option<usize>,
    /// Resilience retry budget (`retries`; default 0).
    pub retries: usize,
    /// Allow graceful degradation (`degrade` bare flag).
    pub degrade: bool,
    /// Per-request deadline (`deadline-ms`), mapped onto the solver's
    /// per-stage wall-clock budget: train and execute each get half.
    pub deadline_ms: Option<u64>,
    /// Request a structured trace (`trace` bare flag): the response
    /// gains a `trace` section carrying the solve's deterministic span
    /// tree.
    pub trace: bool,
    /// Fabric hop marker (`via` header): the node id of the peer that
    /// forwarded this request. A request carrying `via` is never
    /// forwarded again, bounding fabric routing to a single hop. It
    /// cannot change solve results and is absent from the result-cache
    /// key.
    pub via: Option<String>,
    /// Input format of the problem body (`format` header; default
    /// `native`). The server lowers every format into the same
    /// canonical [`Problem`](rasengan_problems::Problem) before
    /// fingerprinting, so the result cache is keyed on the lowered
    /// problem and the header needs no slot in the cache key.
    pub format: Format,
}

/// Upper bound on the bracketed problem body, in bytes. A hostile
/// client cannot make the server buffer unbounded input; real problem
/// files are a few KiB.
pub const MAX_PROBLEM_BYTES: usize = 1 << 20;

/// Upper bounds on numeric headers. Values beyond these are rejected
/// as malformed rather than trusted into shot/iteration arithmetic.
const MAX_SHOTS: usize = 10_000_000;
const MAX_ITERATIONS: usize = 1_000_000;
const MAX_RETRIES: usize = 64;

impl SolveRequest {
    /// A request with default knobs for the given problem text.
    pub fn new(problem_text: impl Into<String>) -> Self {
        SolveRequest {
            problem_text: problem_text.into(),
            seed: 0,
            shots: None,
            iterations: None,
            retries: 0,
            degrade: false,
            deadline_ms: None,
            trace: false,
            via: None,
            format: Format::Native,
        }
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shots per objective evaluation.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = Some(shots);
        self
    }

    /// Caps optimizer iterations.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = Some(iterations);
        self
    }

    /// Grants a resilience retry budget.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Allows graceful degradation.
    pub fn with_degrade(mut self) -> Self {
        self.degrade = true;
        self
    }

    /// Sets a per-request deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Requests a structured trace of the solve.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Marks the request as forwarded by the named fabric node, so the
    /// receiver serves it locally instead of forwarding again.
    pub fn with_via(mut self, node_id: impl Into<String>) -> Self {
        self.via = Some(node_id.into());
        self
    }

    /// Declares the input format of the problem body.
    pub fn with_format(mut self, format: Format) -> Self {
        self.format = format;
        self
    }

    /// The solver configuration this request maps to. `retries 2` plus
    /// the `degrade` flag reproduce
    /// [`ResilienceConfig::recommended`] exactly, so a served solve is
    /// bit-identical to an in-process solve under the recommended
    /// resilience posture.
    pub fn config(&self) -> RasenganConfig {
        let mut cfg = RasenganConfig::default().with_seed(self.seed);
        if let Some(shots) = self.shots {
            cfg = cfg.with_shots(shots);
        }
        if let Some(iters) = self.iterations {
            cfg = cfg.with_max_iterations(iters);
        }
        let mut resilience = ResilienceConfig::default();
        if self.retries > 0 {
            resilience = resilience.with_retry_budget(self.retries);
        }
        if self.degrade {
            resilience = resilience.with_degradation();
        }
        if let Some(ms) = self.deadline_ms {
            // The deadline covers the whole request; training and the
            // final execution are the two budgeted stages, so each
            // gets half as its wall-clock ceiling.
            resilience = resilience.with_stage_seconds(ms as f64 / 1000.0 / 2.0);
        }
        cfg.with_resilience(resilience).with_trace(self.trace)
    }

    /// Renders the full request text (first line through
    /// `END PROBLEM`).
    pub fn render(&self) -> String {
        let mut out = format!("{PROTOCOL} SOLVE\n");
        out.push_str(&format!("seed {}\n", self.seed));
        if let Some(shots) = self.shots {
            out.push_str(&format!("shots {shots}\n"));
        }
        if let Some(iters) = self.iterations {
            out.push_str(&format!("iterations {iters}\n"));
        }
        if self.retries > 0 {
            out.push_str(&format!("retries {}\n", self.retries));
        }
        if self.degrade {
            out.push_str("degrade\n");
        }
        if self.trace {
            out.push_str("trace\n");
        }
        if let Some(via) = &self.via {
            out.push_str(&format!("via {via}\n"));
        }
        if self.format != Format::Native {
            out.push_str(&format!("format {}\n", self.format.token()));
        }
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!("deadline-ms {ms}\n"));
        }
        out.push_str("BEGIN PROBLEM\n");
        out.push_str(&self.problem_text);
        if !self.problem_text.ends_with('\n') {
            out.push('\n');
        }
        out.push_str("END PROBLEM\n");
        out
    }
}

/// What a line in the header section turned out to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HeaderLine {
    /// A header (or blank line) was consumed.
    Header,
    /// The `BEGIN PROBLEM` bracket: the body starts next.
    BeginProblem,
}

/// What a line in the body section turned out to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BodyLine {
    /// A body line was appended.
    Body,
    /// The `END PROBLEM` bracket: the request is complete.
    EndProblem,
}

/// Applies one trimmed header-section line to `request`.
fn apply_header_line(
    request: &mut SolveRequest,
    trimmed: &str,
) -> Result<HeaderLine, RequestError> {
    if trimmed.is_empty() {
        return Ok(HeaderLine::Header);
    }
    if trimmed == "BEGIN PROBLEM" {
        return Ok(HeaderLine::BeginProblem);
    }
    let (key, value) = match trimmed.split_once(char::is_whitespace) {
        Some((k, v)) => (k, v.trim()),
        None => (trimmed, ""),
    };
    match key {
        "seed" => request.seed = parse_header(key, value).map_err(RequestError::Malformed)?,
        "shots" => {
            request.shots =
                Some(parse_bounded(key, value, MAX_SHOTS).map_err(RequestError::Malformed)?)
        }
        "iterations" => {
            request.iterations =
                Some(parse_bounded(key, value, MAX_ITERATIONS).map_err(RequestError::Malformed)?)
        }
        "retries" => {
            request.retries =
                parse_bounded(key, value, MAX_RETRIES).map_err(RequestError::Malformed)?
        }
        "degrade" => request.degrade = true,
        "trace" => request.trace = true,
        "via" => {
            if value.is_empty() || value.contains(char::is_whitespace) {
                return Err(RequestError::Malformed(
                    "header `via` wants a single node id".to_string(),
                ));
            }
            request.via = Some(value.to_string());
        }
        "format" => {
            request.format = Format::parse(value).ok_or_else(|| {
                RequestError::Malformed(format!(
                    "unknown problem format `{value}` (expected one of {})",
                    Format::all()
                        .iter()
                        .map(|f| f.token())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?
        }
        "deadline-ms" => {
            request.deadline_ms = Some(parse_header(key, value).map_err(RequestError::Malformed)?)
        }
        other => return Err(RequestError::Malformed(format!("unknown header `{other}`"))),
    }
    Ok(HeaderLine::Header)
}

/// Applies one raw body line (terminator included) to the
/// accumulating problem text, enforcing [`MAX_PROBLEM_BYTES`].
fn apply_body_line(problem: &mut String, line: &str) -> Result<BodyLine, RequestError> {
    if line.trim() == "END PROBLEM" {
        return Ok(BodyLine::EndProblem);
    }
    if problem.len() + line.len() > MAX_PROBLEM_BYTES {
        return Err(RequestError::Malformed(format!(
            "problem body exceeds {MAX_PROBLEM_BYTES} bytes"
        )));
    }
    problem.push_str(line);
    Ok(BodyLine::Body)
}

/// Progress of an [`IncrementalParser`] after feeding it bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseProgress {
    /// The request is incomplete; feed more bytes (or signal EOF).
    More,
    /// The verb line named `PING` — no body follows.
    Ping,
    /// The verb line named `STATS` — no body follows.
    Stats,
    /// A complete `SOLVE` request.
    Request(Box<SolveRequest>),
    /// A complete `GOSSIP` exchange.
    Gossip(Box<GossipMessage>),
}

/// Ceiling on bytes buffered for one request. The body cap is enforced
/// line by line; this outer bound additionally stops a client that
/// streams forever without ever sending a newline.
const MAX_REQUEST_BYTES: usize = MAX_PROBLEM_BYTES + (64 << 10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ParseState {
    Verb,
    Headers,
    Body,
    Gossip,
    Done,
}

/// The request parser: an incremental state machine over a growable
/// buffer, and the only parser of the request grammar.
///
/// Every connection owns one, whichever front end drives it, and feeds
/// it whatever bytes the socket yields; the parser consumes complete
/// lines as they form and walks verb → headers → bracketed body (or
/// the gossip member table). The result does not depend on how the
/// bytes were split across feeds, so a trickled request parses exactly
/// like one sent in a single write.
#[derive(Debug)]
pub struct IncrementalParser {
    buf: Vec<u8>,
    /// Index of the first byte not yet consumed as a complete line.
    scan: usize,
    state: ParseState,
    request: SolveRequest,
    problem: String,
    gossip: GossipAccum,
    verb: Option<Verb>,
}

impl Default for IncrementalParser {
    fn default() -> Self {
        IncrementalParser::new()
    }
}

impl IncrementalParser {
    /// A parser positioned before the verb line.
    pub fn new() -> IncrementalParser {
        IncrementalParser {
            buf: Vec::new(),
            scan: 0,
            state: ParseState::Verb,
            request: SolveRequest::new(String::new()),
            problem: String::new(),
            gossip: GossipAccum::default(),
            verb: None,
        }
    }

    /// The request's verb, once the verb line has been parsed. The
    /// server uses this to attribute a timeout (before the verb it is
    /// an anonymous bad connection, after it a stalled request) and to
    /// hand a `SOLVE` to a worker straight after its verb line.
    pub fn verb(&self) -> Option<Verb> {
        self.verb
    }

    /// Bytes currently buffered (diagnostics / tests).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.scan
    }

    /// Feeds freshly-read bytes and advances as far as the completed
    /// lines allow.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<ParseProgress, RequestError> {
        if self.buf.len() - self.scan + bytes.len() > MAX_REQUEST_BYTES {
            return Err(RequestError::Malformed(format!(
                "request exceeds {MAX_REQUEST_BYTES} bytes"
            )));
        }
        self.buf.extend_from_slice(bytes);
        self.advance(false)
    }

    /// Signals end-of-stream. Any buffered partial line is treated as
    /// a final unterminated line, and an incomplete request becomes an
    /// error naming the bracket it never reached.
    pub fn eof(&mut self) -> Result<ParseProgress, RequestError> {
        match self.advance(true)? {
            ParseProgress::More => Err(match self.state {
                ParseState::Verb => RequestError::Malformed(
                    parse_verb("").expect_err("empty verb line is an error"),
                ),
                ParseState::Headers => {
                    RequestError::Malformed("request ended before BEGIN PROBLEM".to_string())
                }
                ParseState::Body => {
                    RequestError::Malformed("request ended before END PROBLEM".to_string())
                }
                ParseState::Gossip => {
                    RequestError::Malformed("gossip ended before END GOSSIP".to_string())
                }
                ParseState::Done => RequestError::Malformed("request already complete".to_string()),
            }),
            progress => Ok(progress),
        }
    }

    fn advance(&mut self, at_eof: bool) -> Result<ParseProgress, RequestError> {
        loop {
            let line_end = self.buf[self.scan..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| self.scan + i + 1);
            let (start, end) = match line_end {
                Some(end) => (self.scan, end),
                // A partial line only counts at EOF (and an empty one
                // is genuine EOF, not a final line).
                None if at_eof && self.scan < self.buf.len() => (self.scan, self.buf.len()),
                None => {
                    self.compact();
                    return Ok(ParseProgress::More);
                }
            };
            let line = std::str::from_utf8(&self.buf[start..end]).map_err(|_| {
                RequestError::Malformed("io: stream did not contain valid UTF-8".to_string())
            })?;
            match self.state {
                ParseState::Verb => {
                    let verb = parse_verb(line).map_err(RequestError::Malformed)?;
                    self.verb = Some(verb);
                    self.scan = end;
                    match verb {
                        Verb::Solve => self.state = ParseState::Headers,
                        Verb::Gossip => self.state = ParseState::Gossip,
                        Verb::Ping => {
                            self.state = ParseState::Done;
                            return Ok(ParseProgress::Ping);
                        }
                        Verb::Stats => {
                            self.state = ParseState::Done;
                            return Ok(ParseProgress::Stats);
                        }
                    }
                }
                ParseState::Headers => {
                    let outcome = apply_header_line(&mut self.request, line.trim())?;
                    self.scan = end;
                    if outcome == HeaderLine::BeginProblem {
                        self.state = ParseState::Body;
                    }
                }
                ParseState::Body => {
                    let outcome = apply_body_line(&mut self.problem, line)?;
                    self.scan = end;
                    if outcome == BodyLine::EndProblem {
                        self.state = ParseState::Done;
                        let mut request =
                            std::mem::replace(&mut self.request, SolveRequest::new(String::new()));
                        request.problem_text = std::mem::take(&mut self.problem);
                        return Ok(ParseProgress::Request(Box::new(request)));
                    }
                }
                ParseState::Gossip => {
                    let outcome = apply_gossip_line(&mut self.gossip, line.trim())?;
                    self.scan = end;
                    if outcome == GossipLine::End {
                        self.state = ParseState::Done;
                        let accum = std::mem::take(&mut self.gossip);
                        return Ok(ParseProgress::Gossip(Box::new(accum.finish()?)));
                    }
                }
                ParseState::Done => return Ok(ParseProgress::More),
            }
        }
    }

    /// Drops consumed bytes once they dominate the buffer, keeping the
    /// resident footprint proportional to the unconsumed tail.
    fn compact(&mut self) {
        if self.scan > 4096 && self.scan * 2 > self.buf.len() {
            self.buf.drain(..self.scan);
            self.scan = 0;
        }
    }
}

fn parse_header<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value `{value}` for header `{key}`"))
}

/// Parses a numeric header and rejects values above `max`, so an
/// oversized field becomes a structured error instead of feeding
/// arbitrarily large numbers into downstream arithmetic.
fn parse_bounded(key: &str, value: &str, max: usize) -> Result<usize, String> {
    let parsed: usize = parse_header(key, value)?;
    if parsed > max {
        return Err(format!("header `{key}` value {parsed} exceeds limit {max}"));
    }
    Ok(parsed)
}

/// Response status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The request was served; a `result` (or `stats`/`pong`) section
    /// follows.
    Ok,
    /// Load was shed: the admission queue was full. The `service`
    /// section carries queue depth and capacity; retry later.
    Busy,
    /// The request failed; the `error` section says why, and a
    /// `partial` section may carry a best-effort outcome.
    Error,
}

impl ReplyStatus {
    fn token(self) -> &'static str {
        match self {
            ReplyStatus::Ok => "OK",
            ReplyStatus::Busy => "BUSY",
            ReplyStatus::Error => "ERROR",
        }
    }
}

/// A parsed response: a status plus named sections, each one line of
/// canonical JSON. Section bodies are kept as raw strings so tests can
/// byte-compare them; [`Reply::json`] parses on demand.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The status from the first line.
    pub status: ReplyStatus,
    /// `(name, raw JSON)` in response order.
    pub sections: Vec<(String, String)>,
}

impl Reply {
    /// Builds a reply from JSON sections.
    pub fn new(status: ReplyStatus, sections: Vec<(&str, Json)>) -> Reply {
        Reply {
            status,
            sections: sections
                .into_iter()
                .map(|(name, body)| (name.to_string(), body.render()))
                .collect(),
        }
    }

    /// The raw JSON text of a section.
    pub fn section(&self, name: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, body)| body.as_str())
    }

    /// Parses a section as JSON.
    pub fn json(&self, name: &str) -> Result<Json, String> {
        let body = self
            .section(name)
            .ok_or_else(|| format!("no `{name}` section"))?;
        json::parse(body)
    }

    /// Renders the full response text.
    pub fn render(&self) -> String {
        let mut out = format!("{PROTOCOL} {}\n", self.status.token());
        for (name, body) in &self.sections {
            out.push_str(name);
            out.push(' ');
            out.push_str(body);
            out.push('\n');
        }
        out
    }

    /// Parses a full response (as read to EOF by a client).
    pub fn parse(text: &str) -> Result<Reply, String> {
        let mut lines = text.lines();
        let first = lines.next().ok_or("empty response")?;
        let status = match first.split_whitespace().collect::<Vec<_>>().as_slice() {
            [tag, "OK"] if *tag == PROTOCOL => ReplyStatus::Ok,
            [tag, "BUSY"] if *tag == PROTOCOL => ReplyStatus::Busy,
            [tag, "ERROR"] if *tag == PROTOCOL => ReplyStatus::Error,
            _ => return Err(format!("bad status line `{first}`")),
        };
        let mut sections = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let (name, body) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad section line `{line}`"))?;
            sections.push((name.to_string(), body.to_string()));
        }
        Ok(Reply { status, sections })
    }
}

/// The deterministic part of an [`Outcome`] — everything except
/// wall-clock latency — as a canonical JSON object.
fn outcome_json(outcome: &Outcome) -> Json {
    let best = Json::obj(vec![
        (
            "bits",
            Json::Arr(
                outcome
                    .best
                    .bits
                    .iter()
                    .map(|&b| Json::Int(b as i128))
                    .collect(),
            ),
        ),
        ("value", Json::Num(outcome.best.value)),
        ("feasible", Json::Bool(outcome.best.feasible)),
    ]);
    let distribution = Json::Obj(
        outcome
            .distribution
            .iter()
            .map(|(label, p)| (label.to_string(), Json::Num(*p)))
            .collect(),
    );
    let stats = Json::obj(vec![
        ("m_basis", Json::Int(outcome.stats.m_basis as i128)),
        ("raw_ops", Json::Int(outcome.stats.raw_ops as i128)),
        ("kept_ops", Json::Int(outcome.stats.kept_ops as i128)),
        ("n_segments", Json::Int(outcome.stats.n_segments as i128)),
        (
            "max_segment_cx_depth",
            Json::Int(outcome.stats.max_segment_cx_depth as i128),
        ),
        (
            "total_cx_depth",
            Json::Int(outcome.stats.total_cx_depth as i128),
        ),
        ("n_params", Json::Int(outcome.stats.n_params as i128)),
        (
            "simplify_before",
            Json::Int(outcome.stats.simplify_cost.0 as i128),
        ),
        (
            "simplify_after",
            Json::Int(outcome.stats.simplify_cost.1 as i128),
        ),
    ]);
    let resilience = Json::obj(vec![
        ("clean", Json::Bool(outcome.resilience.is_clean())),
        (
            "faults",
            Json::Int(outcome.resilience.faults_injected() as i128),
        ),
        ("retries", Json::Int(outcome.resilience.retries() as i128)),
        (
            "recoveries",
            Json::Int(outcome.resilience.recoveries() as i128),
        ),
        (
            "degradations",
            Json::Int(outcome.resilience.degradations() as i128),
        ),
        (
            "budget_stops",
            Json::Int(outcome.resilience.budget_exhaustions() as i128),
        ),
    ]);
    Json::obj(vec![
        ("best", best),
        ("expectation", Json::Num(outcome.expectation)),
        ("arg", Json::Num(outcome.arg)),
        (
            "raw_in_constraints_rate",
            Json::Num(outcome.raw_in_constraints_rate),
        ),
        (
            "in_constraints_rate",
            Json::Num(outcome.in_constraints_rate),
        ),
        ("distribution", distribution),
        ("stats", stats),
        (
            "history",
            Json::Arr(outcome.history.iter().map(|&x| Json::Num(x)).collect()),
        ),
        ("evaluations", Json::Int(outcome.evaluations as i128)),
        ("total_shots", Json::Int(outcome.total_shots as i128)),
        (
            "trained_times",
            Json::Arr(
                outcome
                    .trained_times
                    .iter()
                    .map(|&x| Json::Num(x))
                    .collect(),
            ),
        ),
        ("resilience", resilience),
    ])
}

/// Renders the deterministic part of an [`Outcome`] — everything
/// except wall-clock latency — as canonical JSON text: the exact bytes
/// the server puts in the `result` section. Bit-equal outcomes render
/// to byte-equal text, which is the contract the served-determinism
/// tests check.
pub fn render_outcome(outcome: &Outcome) -> String {
    outcome_json(outcome).render()
}

/// Serializes the wall-clock side of a served solve (the non-
/// deterministic part, kept out of `result`): the solve's latency,
/// plus how long this request queued and whether a cache answered it
/// (in which case the stages describe the solve that filled the cache).
pub fn timing_json(latency: &Latency, queue_s: f64, cache_hit: bool) -> Json {
    let stages = &latency.stages;
    Json::obj(vec![
        ("quantum_s", Json::Num(latency.quantum_s)),
        ("classical_s", Json::Num(latency.classical_s)),
        ("prepare_s", Json::Num(stages.prepare_s)),
        ("train_s", Json::Num(stages.train_s)),
        ("execute_s", Json::Num(stages.execute_s)),
        ("retry_s", Json::Num(stages.retry_s)),
        ("queue_s", Json::Num(queue_s)),
        ("cache_hit", Json::Bool(cache_hit)),
    ])
}

/// Reads a solve's latency back out of a `timing` section: the six
/// stage fields [`timing_json`] writes, each a finite number, or `None`.
/// The writer's shortest round-trip floats parse back to the same bits.
pub(crate) fn timing_latency(timing: &Json) -> Option<Latency> {
    let field = |name| timing.get(name)?.as_f64().filter(|x| x.is_finite());
    Some(Latency {
        quantum_s: field("quantum_s")?,
        classical_s: field("classical_s")?,
        stages: StageTimes {
            prepare_s: field("prepare_s")?,
            train_s: field("train_s")?,
            execute_s: field("execute_s")?,
            retry_s: field("retry_s")?,
        },
    })
}

/// Maps a solver error to response sections: an `error` section with a
/// stable `kind` tag and human-readable message, plus a `partial`
/// section when a budget stop salvaged a partial outcome.
pub fn error_sections(err: &RasenganError) -> Vec<(&'static str, Json)> {
    let kind = match err {
        RasenganError::Basis(_) => "basis",
        RasenganError::NoFeasibleSeed => "no-feasible-seed",
        RasenganError::NoFeasibleOutput { .. } => "no-feasible-output",
        RasenganError::FullyDetermined => "fully-determined",
        RasenganError::BudgetExceeded { .. } => "budget-exceeded",
        RasenganError::AllStartsFailed { .. } => "all-starts-failed",
    };
    let mut sections = vec![(
        "error",
        Json::obj(vec![
            ("kind", Json::Str(kind.to_string())),
            ("message", Json::Str(err.to_string())),
        ]),
    )];
    if let RasenganError::BudgetExceeded {
        partial: Some(partial),
        ..
    } = err
    {
        sections.push(("partial", outcome_json(partial)));
    }
    sections
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `text` in one piece, then signals EOF if the parser still
    /// wants more.
    fn one_shot(text: &[u8]) -> Result<ParseProgress, RequestError> {
        let mut parser = IncrementalParser::new();
        match parser.feed(text)? {
            ParseProgress::More => parser.eof(),
            progress => Ok(progress),
        }
    }

    /// Feeds `text` one byte at a time (worst-case fragmentation) and
    /// returns the first non-`More` progress, or the EOF verdict.
    fn drip(text: &[u8]) -> Result<ParseProgress, RequestError> {
        let mut parser = IncrementalParser::new();
        for byte in text {
            match parser.feed(std::slice::from_ref(byte))? {
                ParseProgress::More => {}
                progress => return Ok(progress),
            }
        }
        parser.eof()
    }

    /// Parses a full request (verb line included) both one-shot and one
    /// byte at a time, and checks the two agree.
    fn parse(text: impl AsRef<[u8]>) -> Result<ParseProgress, RequestError> {
        let text = text.as_ref();
        let whole = one_shot(text);
        assert_eq!(whole, drip(text), "{:?}", String::from_utf8_lossy(text));
        whole
    }

    /// [`parse`] for a `SOLVE` request that must succeed.
    fn parse_solve(text: impl AsRef<[u8]>) -> SolveRequest {
        match parse(text).unwrap() {
            ParseProgress::Request(request) => *request,
            other => panic!("unexpected progress {other:?}"),
        }
    }

    /// [`parse`] for a request that must fail.
    fn parse_err(text: impl AsRef<[u8]>) -> RequestError {
        parse(text).unwrap_err()
    }

    fn every_header() -> SolveRequest {
        SolveRequest::new("vars 2\nconstraint 1 : 1 1\n")
            .with_seed(7)
            .with_shots(256)
            .with_iterations(40)
            .with_retries(2)
            .with_degrade()
            .with_trace()
            .with_via("node-a")
            .with_deadline_ms(5000)
            .with_format(Format::Qubo)
    }

    fn three_member_gossip() -> GossipMessage {
        GossipMessage {
            from_id: "n0".to_string(),
            from_addr: "127.0.0.1:4100".to_string(),
            members: vec![
                GossipMember {
                    id: "n0".to_string(),
                    addr: "127.0.0.1:4100".to_string(),
                    state: GossipState::Alive,
                },
                GossipMember {
                    id: "n1".to_string(),
                    addr: "127.0.0.1:4101".to_string(),
                    state: GossipState::Suspect,
                },
                GossipMember {
                    id: "n2".to_string(),
                    addr: "127.0.0.1:4102".to_string(),
                    state: GossipState::Dead,
                },
            ],
        }
    }

    #[test]
    fn request_render_parse_round_trip() {
        let request = every_header();
        let text = request.render();
        assert_eq!(
            parse_verb(text.lines().next().unwrap()).unwrap(),
            Verb::Solve
        );
        assert_eq!(parse_solve(&text), request);
    }

    #[test]
    fn request_maps_to_recommended_resilience() {
        let request = SolveRequest::new("").with_retries(2).with_degrade();
        let cfg = request.config();
        let recommended = ResilienceConfig::recommended();
        assert_eq!(cfg.resilience.retry_budget, recommended.retry_budget);
        assert_eq!(cfg.resilience.degrade, recommended.degrade);
        assert_eq!(cfg.resilience, recommended);
    }

    #[test]
    fn deadline_splits_across_stages() {
        let cfg = SolveRequest::new("").with_deadline_ms(5000).config();
        assert_eq!(cfg.resilience.max_stage_seconds, Some(2.5));
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(parse_verb("HTTP/1.1 GET").is_err());
        assert!(parse_verb("RASENGAN/1 DANCE").is_err());
        assert!(parse("HTTP/1.1 GET /\r\n").is_err());
        assert_eq!(parse_err("").message(), "empty request");
        parse_err("RASENGAN/1 SOLVE\nseed 3\n");
        let err = parse_err("RASENGAN/1 SOLVE\nvolume 11\nBEGIN PROBLEM\nEND PROBLEM\n");
        assert_eq!(err.message(), "unknown header `volume`");
    }

    #[test]
    fn verb_line_edge_cases() {
        // The parser trusts `parse_verb` with the first line;
        // exercise the shapes a real socket produces: CRLF line
        // endings, leading/trailing whitespace, extra tokens.
        assert_eq!(parse_verb("RASENGAN/1 PING\r\n").unwrap(), Verb::Ping);
        assert_eq!(parse_verb("  RASENGAN/1   STATS  ").unwrap(), Verb::Stats);
        assert_eq!(parse_verb("RASENGAN/1 SOLVE extra").unwrap(), Verb::Solve);
        assert!(parse_verb("").is_err());
        assert!(parse_verb("\n").is_err());
        assert!(parse_verb("RASENGAN/2 SOLVE").is_err());
        assert!(parse_verb("RASENGAN/1").is_err());
        assert!(parse_verb("rasengan/1 solve").is_err());
    }

    #[test]
    fn bare_verbs_parse_with_or_without_a_newline() {
        assert_eq!(parse("RASENGAN/1 PING\n").unwrap(), ParseProgress::Ping);
        // A verb line terminated by EOF instead of a newline still
        // parses as the final line.
        assert_eq!(parse("RASENGAN/1 STATS").unwrap(), ParseProgress::Stats);
    }

    #[test]
    fn truncated_header_line_is_an_error_not_a_panic() {
        // EOF mid-header (no trailing newline, no BEGIN PROBLEM).
        let err = parse_err("RASENGAN/1 SOLVE\nshots 25");
        assert!(
            err.message().contains("BEGIN PROBLEM"),
            "unexpected error: {err}"
        );
        assert_eq!(err.kind(), "bad-request");
        // A header with a garbage value is rejected with the key named.
        let err = parse_err("RASENGAN/1 SOLVE\nshots lots\nBEGIN PROBLEM\nEND PROBLEM\n");
        assert!(err.message().contains("shots"), "unexpected error: {err}");
        // EOF inside the body (END PROBLEM never arrives).
        let err = parse_err("RASENGAN/1 SOLVE\nBEGIN PROBLEM\nvars 2\n");
        assert!(
            err.message().contains("END PROBLEM"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn non_utf8_body_is_an_error_not_a_panic() {
        let mut bytes = b"RASENGAN/1 SOLVE\nseed 1\nBEGIN PROBLEM\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, 0xfd, b'\n']);
        bytes.extend_from_slice(b"END PROBLEM\n");
        let err = parse_err(&bytes);
        assert_eq!(err.message(), "io: stream did not contain valid UTF-8");
        // Rejected mid-stream, without waiting for the rest.
        let mut parser = IncrementalParser::new();
        parser.feed(b"RASENGAN/1 SOLVE\nBEGIN PROBLEM\n").unwrap();
        assert!(parser.feed(&[0xff, 0xfe, b'\n']).is_err());
    }

    #[test]
    fn oversized_fields_are_rejected() {
        // A length-like field too large for u64 fails cleanly…
        parse_err(
            "RASENGAN/1 SOLVE\nshots 99999999999999999999999999\nBEGIN PROBLEM\nEND PROBLEM\n",
        );
        // …and one that parses but exceeds the protocol cap is also
        // rejected, with the limit named.
        let err = parse_err("RASENGAN/1 SOLVE\niterations 999999999\nBEGIN PROBLEM\nEND PROBLEM\n");
        assert!(err.message().contains("limit"), "unexpected error: {err}");
        // An oversized problem body is cut off: fed line by line it hits
        // MAX_PROBLEM_BYTES, fed in one piece the outer request cap.
        let mut text = String::from("RASENGAN/1 SOLVE\nBEGIN PROBLEM\n");
        for _ in 0..=MAX_PROBLEM_BYTES / 16 {
            text.push_str("vars 2 vars 2 vs\n");
        }
        text.push_str("END PROBLEM\n");
        let err = drip(text.as_bytes()).unwrap_err();
        assert!(
            err.message().contains("problem body exceeds"),
            "unexpected error: {err}"
        );
        let err = one_shot(text.as_bytes()).unwrap_err();
        assert!(err.message().contains("exceeds"), "unexpected error: {err}");
    }

    #[test]
    fn incremental_parser_tracks_verb_and_bounds_buffering() {
        let mut parser = IncrementalParser::new();
        assert_eq!(parser.verb(), None);
        parser.feed(b"RASENGAN/1 SOLVE\n").unwrap();
        assert_eq!(parser.verb(), Some(Verb::Solve));
        // A stream with no newline at all cannot buffer unboundedly.
        let mut hog = IncrementalParser::new();
        let chunk = vec![b'a'; 1 << 16];
        let mut result = Ok(ParseProgress::More);
        for _ in 0..((MAX_REQUEST_BYTES / chunk.len()) + 2) {
            result = hog.feed(&chunk);
            if result.is_err() {
                break;
            }
        }
        assert!(result.unwrap_err().message().contains("exceeds"));
        // An oversized body hits MAX_PROBLEM_BYTES even when the headers
        // were tiny and every line is short.
        let mut body = IncrementalParser::new();
        body.feed(b"RASENGAN/1 SOLVE\nBEGIN PROBLEM\n").unwrap();
        let line = vec![b'v'; 4095]
            .into_iter()
            .chain([b'\n'])
            .collect::<Vec<_>>();
        let mut err = None;
        for _ in 0..((MAX_PROBLEM_BYTES / line.len()) + 2) {
            if let Err(e) = body.feed(&line) {
                err = Some(e);
                break;
            }
        }
        assert!(err.unwrap().message().contains("problem body exceeds"));
    }

    #[test]
    fn trace_flag_round_trips_and_reaches_config() {
        let request = SolveRequest::new("vars 1\n").with_trace();
        assert!(request.render().lines().any(|l| l == "trace"));
        let parsed = parse_solve(request.render());
        assert!(parsed.trace);
        assert!(parsed.config().trace);
        // Absent the flag, the rendered request is unchanged from the
        // pre-trace protocol and the config keeps tracing off.
        let plain = SolveRequest::new("vars 1\n");
        assert!(!plain.render().contains("trace"));
        assert!(!plain.config().trace);
    }

    #[test]
    fn removed_batch_header_is_an_unknown_header() {
        // `batch` once pinned a trajectory lane width that no solve path
        // read; it is gone from the protocol, and the parser rejects it
        // like any other unknown header.
        let err = parse_err("RASENGAN/1 SOLVE\nbatch 4\nBEGIN PROBLEM\nvars 1\nEND PROBLEM\n");
        assert_eq!(err.kind(), "bad-request");
        assert_eq!(err.message(), "unknown header `batch`");
    }

    #[test]
    fn format_header_round_trips_for_every_format() {
        for format in Format::all() {
            let request = SolveRequest::new("p qubo 0 1 1 0\n0 0 -1\n").with_format(format);
            assert_eq!(parse_solve(request.render()).format, format, "{format}");
        }
        // Absent the header, the rendered request matches the
        // pre-format protocol and parses as native.
        let plain = SolveRequest::new("vars 1\n");
        assert!(!plain.render().contains("format"));
        assert_eq!(parse_solve(plain.render()).format, Format::Native);
        // An unknown format is a protocol error naming the options.
        let err = parse_err("RASENGAN/1 SOLVE\nformat dimacs\nBEGIN PROBLEM\nEND PROBLEM\n");
        assert!(err.message().contains("dimacs"), "unexpected: {err}");
        assert!(err.message().contains("qubo-recover"), "unexpected: {err}");
    }

    #[test]
    fn via_header_round_trips_and_is_single_token() {
        let request = SolveRequest::new("vars 1\n").with_via("node-a");
        assert!(request.render().lines().any(|l| l == "via node-a"));
        assert_eq!(parse_solve(request.render()).via.as_deref(), Some("node-a"));
        // Absent the header, the rendered request is unchanged from the
        // pre-fabric protocol.
        let plain = SolveRequest::new("vars 1\n");
        assert!(!plain.render().contains("via"));
        // A multi-token or empty via is a protocol error.
        for bad in ["via two words\n", "via\n"] {
            parse_err(format!(
                "RASENGAN/1 SOLVE\n{bad}BEGIN PROBLEM\nEND PROBLEM\n"
            ));
        }
    }

    #[test]
    fn gossip_round_trips() {
        let message = three_member_gossip();
        let text = message.render();
        assert_eq!(
            parse_verb(text.lines().next().unwrap()).unwrap(),
            Verb::Gossip
        );
        match parse(&text).unwrap() {
            ParseProgress::Gossip(parsed) => assert_eq!(*parsed, message),
            other => panic!("unexpected progress {other:?}"),
        }
    }

    #[test]
    fn malformed_gossip_is_rejected() {
        // Missing `from` line.
        let err = parse_err("RASENGAN/1 GOSSIP\nmember a b alive\nEND GOSSIP\n");
        assert!(err.message().contains("from"), "{err}");
        // Unknown state token.
        parse_err("RASENGAN/1 GOSSIP\nfrom a b\nmember a b zombie\nEND GOSSIP\n");
        // Truncated stream.
        let err = parse_err("RASENGAN/1 GOSSIP\nfrom a b\n");
        assert!(err.message().contains("END GOSSIP"), "{err}");
        // A junk line is named in the error.
        let err = parse_err("RASENGAN/1 GOSSIP\nfrom a b\npeers everywhere\n");
        assert!(err.message().contains("peers"), "{err}");
    }

    #[test]
    fn any_split_point_parses_like_one_shot() {
        let mut invalid_utf8 = b"RASENGAN/1 SOLVE\nBEGIN PROBLEM\n".to_vec();
        invalid_utf8.extend_from_slice(&[0xff, 0xfe, b'\n']);
        invalid_utf8.extend_from_slice(b"END PROBLEM\n");
        let cases: Vec<Vec<u8>> = vec![
            every_header().render().into_bytes(),
            three_member_gossip().render().into_bytes(),
            b"RASENGAN/1 PING\n".to_vec(),
            b"RASENGAN/1 PING".to_vec(),
            b"RASENGAN/1 STATS\n".to_vec(),
            b"RASENGAN/1 STATS".to_vec(),
            b"RASENGAN/1 SOLVE\nvolume 11\nBEGIN PROBLEM\nEND PROBLEM\n".to_vec(),
            invalid_utf8,
            b"RASENGAN/1 SOLVE\nseed 3\nBEGIN PROBLEM\nvars 2\n".to_vec(),
            b"RASENGAN/1 GOSSIP\nfrom a b\nmember a b alive\n".to_vec(),
        ];
        for text in &cases {
            let expected = one_shot(text);
            for k in 0..=text.len() {
                let mut parser = IncrementalParser::new();
                let split = parser.feed(&text[..k]).and_then(|progress| match progress {
                    ParseProgress::More => match parser.feed(&text[k..])? {
                        ParseProgress::More => parser.eof(),
                        progress => Ok(progress),
                    },
                    progress => Ok(progress),
                });
                assert_eq!(
                    split,
                    expected,
                    "split at {k} of {:?}",
                    String::from_utf8_lossy(text)
                );
            }
        }
    }

    #[test]
    fn reply_round_trips() {
        let reply = Reply::new(
            ReplyStatus::Busy,
            vec![(
                "service",
                Json::obj(vec![
                    ("queue_depth", Json::Int(8)),
                    ("queue_capacity", Json::Int(8)),
                ]),
            )],
        );
        let parsed = Reply::parse(&reply.render()).unwrap();
        assert_eq!(parsed, reply);
        assert_eq!(
            parsed.json("service").unwrap().get("queue_depth").unwrap(),
            &Json::Int(8)
        );
    }
}
