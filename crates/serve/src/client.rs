//! Blocking client for the solve service: one connection per request,
//! read to EOF, parse the sectioned reply.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{Reply, SolveRequest, PROTOCOL};

/// Default client-side socket timeout. Solves can legitimately take a
/// while; this only bounds a dead server, not a slow one answering
/// keep-nothing — the server writes in one burst when done.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

/// Bounded exponential backoff for transient connection failures —
/// the client half of warm restarts: a server being bounced refuses
/// connections for a moment, and a retrying client rides through and
/// observes the restart-to-warm transition end-to-end.
///
/// Only connection-level failures are retried: refused, reset, and
/// aborted (a server bouncing), plus the timed-out and unreachable
/// kinds a dead or partitioned peer produces — a fabric node that
/// just went dark looks like `TimedOut`/`HostUnreachable`, not
/// `ConnectionRefused`. These all mean no connection was usefully
/// established, so replaying is safe. Anything after a connection is
/// established — a malformed reply, a server-side error, a read
/// timeout surfacing as `WouldBlock` — is returned immediately: the
/// request may have been acted on, and replaying it is the caller's
/// decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (1 = no retries).
    pub attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling on the per-retry delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy making `attempts` total attempts with the default
    /// backoff (50 ms doubling, capped at 2 s).
    pub fn attempts(attempts: u32) -> Self {
        RetryPolicy {
            attempts: attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `retry` (0-based): base delay
    /// doubled per retry, saturating at the cap.
    fn delay(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(retry.min(20)));
        exp.min(self.max_delay)
    }

    fn should_retry(err: &std::io::Error) -> bool {
        matches!(
            err.kind(),
            std::io::ErrorKind::ConnectionRefused
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                // A dead or partitioned peer: the connect attempt
                // timed out or routing reported the host/network
                // unreachable. (An expired *read* deadline on an
                // established Unix socket surfaces as `WouldBlock`,
                // which stays non-retryable.)
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::HostUnreachable
                | std::io::ErrorKind::NetworkUnreachable
        )
    }
}

fn roundtrip(addr: impl ToSocketAddrs, request_text: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(DEFAULT_TIMEOUT))?;
    stream.set_write_timeout(Some(DEFAULT_TIMEOUT))?;
    exchange(&mut stream, request_text.as_bytes())
}

/// Sends the last bytes `rest` of a request (possibly none), signals
/// end-of-request with a write half-close and reads the reply: the
/// server replies and closes, so the reply is everything until EOF.
pub(crate) fn exchange(stream: &mut TcpStream, rest: &[u8]) -> std::io::Result<Reply> {
    if !rest.is_empty() {
        stream.write_all(rest)?;
        stream.flush()?;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let mut body = String::new();
    stream.read_to_string(&mut body)?;
    parse_response(&body)
}

/// Parses a raw response body, mapping protocol-level failures onto
/// [`std::io::ErrorKind::InvalidData`] so callers see one error type
/// for both transport and framing problems.
fn parse_response(body: &str) -> std::io::Result<Reply> {
    Reply::parse(body)
        .map_err(|message| std::io::Error::new(std::io::ErrorKind::InvalidData, message))
}

/// Submits a solve request and returns the parsed reply (which may be
/// `Busy` or `Error` — inspect [`Reply::status`]).
///
/// # Errors
///
/// I/O errors talking to the server, or an unparseable response.
pub fn submit(addr: impl ToSocketAddrs, request: &SolveRequest) -> std::io::Result<Reply> {
    roundtrip(addr, &request.render())
}

/// [`submit`] with bounded exponential backoff on connection-refused,
/// -reset, and -aborted — for riding through a server restart.
///
/// # Errors
///
/// The final attempt's error once the policy is exhausted, or
/// immediately for any non-connection failure.
pub fn submit_with_retry(
    addr: impl ToSocketAddrs + Copy,
    request: &SolveRequest,
    policy: RetryPolicy,
) -> std::io::Result<Reply> {
    let text = request.render();
    let mut retry = 0u32;
    loop {
        match roundtrip(addr, &text) {
            Ok(reply) => return Ok(reply),
            Err(err) if retry + 1 < policy.attempts.max(1) && RetryPolicy::should_retry(&err) => {
                std::thread::sleep(policy.delay(retry));
                retry += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

/// [`submit`], but dribbling the request onto the wire `chunk` bytes
/// at a time with a `pace` sleep between writes — a cooperative
/// slowloris. On the blocking driver each such client pins a worker
/// for the whole trickle; the reactor just keeps a parser buffering.
///
/// # Errors
///
/// I/O errors talking to the server, or an unparseable response.
pub fn submit_trickled(
    addr: impl ToSocketAddrs,
    request: &SolveRequest,
    chunk: usize,
    pace: Duration,
) -> std::io::Result<Reply> {
    let text = request.render();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(DEFAULT_TIMEOUT))?;
    stream.set_write_timeout(Some(DEFAULT_TIMEOUT))?;
    for piece in text.as_bytes().chunks(chunk.max(1)) {
        stream.write_all(piece)?;
        stream.flush()?;
        std::thread::sleep(pace);
    }
    exchange(&mut stream, &[])
}

/// A connection held deliberately mid-request: opened, fed a prefix of
/// a request, then parked. What it costs the server is the point — a
/// pinned worker thread on the blocking driver versus one idle
/// reactor connection — so the loadgen concurrency arm and the
/// adversarial tests park many of these while measuring a fast stream.
pub struct HeldConnection {
    stream: TcpStream,
}

impl HeldConnection {
    /// Connects and sends `prefix` (possibly empty), leaving the
    /// connection open and the request unfinished.
    ///
    /// # Errors
    ///
    /// Connection or write failures.
    pub fn open(addr: impl ToSocketAddrs, prefix: &[u8]) -> std::io::Result<HeldConnection> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(DEFAULT_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_TIMEOUT))?;
        if !prefix.is_empty() {
            stream.write_all(prefix)?;
            stream.flush()?;
        }
        Ok(HeldConnection { stream })
    }

    /// Sends more request bytes without completing it.
    ///
    /// # Errors
    ///
    /// Write failures (e.g. the server timed the connection out).
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Bounds how long [`finish`](HeldConnection::finish) may block on
    /// socket reads/writes — held connections are often dead or stuck
    /// behind a saturated server, and callers finishing hundreds of
    /// them need each one to fail fast rather than hang for the
    /// default two minutes.
    ///
    /// # Errors
    ///
    /// Fails only on a zero duration.
    pub fn set_io_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))
    }

    /// Sends the remainder of the request and reads the reply.
    ///
    /// # Errors
    ///
    /// I/O errors talking to the server, or an unparseable response.
    pub fn finish(mut self, rest: &[u8]) -> std::io::Result<Reply> {
        exchange(&mut self.stream, rest)
    }
}

/// Fetches the service counters (`STATS` verb).
///
/// # Errors
///
/// I/O errors talking to the server, or an unparseable response.
pub fn stats(addr: impl ToSocketAddrs) -> std::io::Result<Reply> {
    roundtrip(addr, &format!("{PROTOCOL} STATS\n"))
}

/// Liveness check (`PING` verb).
///
/// # Errors
///
/// I/O errors talking to the server, or an unparseable response.
pub fn ping(addr: impl ToSocketAddrs) -> std::io::Result<Reply> {
    roundtrip(addr, &format!("{PROTOCOL} PING\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReplyStatus;

    #[test]
    fn response_sections_split_on_first_space_only() {
        // Section bodies are JSON and JSON contains spaces inside
        // strings; only the first space separates name from body.
        let body = concat!(
            "RASENGAN/1 OK\n",
            "service {\"cache\":\"miss\",\"note\":\"a b c\"}\n",
            "result {\"best\":{\"bits\":[0,1]}}\n",
            "trace {\"label\":\"solve\"}\n",
        );
        let reply = parse_response(body).unwrap();
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(
            reply
                .sections
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["service", "result", "trace"]
        );
        assert_eq!(
            reply.section("service"),
            Some("{\"cache\":\"miss\",\"note\":\"a b c\"}")
        );
        assert_eq!(
            reply
                .json("trace")
                .unwrap()
                .get("label")
                .and_then(|v| v.as_str()),
            Some("solve")
        );
    }

    #[test]
    fn framing_failures_map_to_invalid_data() {
        for bad in ["", "HTTP/1.1 200 OK\n", "RASENGAN/1 MAYBE\n", "garbage"] {
            let err = parse_response(bad).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "body {bad:?} should map to InvalidData, got {err}"
            );
        }
        // Status parses but a section line has no space: still a
        // framing error, same mapping.
        let err = parse_response("RASENGAN/1 OK\nnospace\n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn retry_backoff_is_bounded_and_doubling() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(45),
        };
        assert_eq!(policy.delay(0), Duration::from_millis(10));
        assert_eq!(policy.delay(1), Duration::from_millis(20));
        assert_eq!(policy.delay(2), Duration::from_millis(40));
        // …then the cap holds forever, including absurd retry counts.
        assert_eq!(policy.delay(3), Duration::from_millis(45));
        assert_eq!(policy.delay(1000), Duration::from_millis(45));
    }

    #[test]
    fn retryable_error_classes_cover_dead_peers() {
        // Server-bounce classes: refused (nothing listening yet),
        // reset and aborted (listener went away mid-handshake).
        for kind in [
            std::io::ErrorKind::ConnectionRefused,
            std::io::ErrorKind::ConnectionReset,
            std::io::ErrorKind::ConnectionAborted,
        ] {
            assert!(
                RetryPolicy::should_retry(&std::io::Error::from(kind)),
                "{kind:?} must be retryable"
            );
        }
        // Dead-peer classes: a host that stopped answering makes the
        // connect attempt time out; a partition makes routing report
        // the host or network unreachable.
        for kind in [
            std::io::ErrorKind::TimedOut,
            std::io::ErrorKind::HostUnreachable,
            std::io::ErrorKind::NetworkUnreachable,
        ] {
            assert!(
                RetryPolicy::should_retry(&std::io::Error::from(kind)),
                "{kind:?} must be retryable (dead peer)"
            );
        }
        // Post-connection failures stay non-retryable: the request may
        // already have been acted on.
        for kind in [
            std::io::ErrorKind::InvalidData,
            std::io::ErrorKind::WouldBlock,
            std::io::ErrorKind::BrokenPipe,
            std::io::ErrorKind::UnexpectedEof,
        ] {
            assert!(
                !RetryPolicy::should_retry(&std::io::Error::from(kind)),
                "{kind:?} must not be retryable"
            );
        }
    }

    #[test]
    fn exhausted_retries_return_the_connection_error() {
        // A port with nothing listening: bind, read the address, drop.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        };
        let request = SolveRequest::new("vars 1\n");
        let err = submit_with_retry(addr, &request, policy).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn retries_ride_through_a_server_coming_up() {
        use crate::server::{serve, ServeConfig};
        // Reserve an ephemeral port, release it, and bring the server
        // up on it only after a delay — the first client attempts are
        // refused and the backoff carries the request through.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            serve(ServeConfig::default().with_addr(addr.to_string())).expect("late bind")
        });
        let request = SolveRequest::new(include_str!("../../../examples/instances/F1.problem"))
            .with_shots(64)
            .with_iterations(2);
        let policy = RetryPolicy {
            attempts: 40,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
        };
        let reply = submit_with_retry(addr, &request, policy).expect("retries ride through");
        assert_eq!(reply.status, ReplyStatus::Ok);
        server.join().unwrap().shutdown();
    }

    #[test]
    fn busy_and_error_statuses_are_data_not_errors() {
        // A well-formed BUSY/ERROR reply is a successful parse; the
        // caller inspects `status` — transport errors stay `Err`.
        let busy = parse_response("RASENGAN/1 BUSY\nservice {\"queue_depth\":8}\n").unwrap();
        assert_eq!(busy.status, ReplyStatus::Busy);
        let error =
            parse_response("RASENGAN/1 ERROR\nerror {\"kind\":\"basis\",\"message\":\"m\"}\n")
                .unwrap();
        assert_eq!(error.status, ReplyStatus::Error);
        assert_eq!(
            error
                .json("error")
                .unwrap()
                .get("kind")
                .and_then(|v| v.as_str()),
            Some("basis")
        );
    }
}
