//! The per-connection request/reply state machine — the only one: both
//! front ends drive it.
//!
//! A connection moves through three states:
//!
//! ```text
//! Reading --(PING/STATS/GOSSIP or parse error)--> Writing --> closed
//! Reading --(complete SOLVE request)-----------> Solving --> Writing --> closed
//! ```
//!
//! * **Reading** — the driver feeds whatever the socket yields into an
//!   [`IncrementalParser`]; partial reads simply leave the parser
//!   mid-request until more bytes arrive.
//! * **Solving** — the parsed request is on the worker queue; nothing
//!   the client sends can advance it.
//! * **Writing** — the rendered reply drains with partial-write
//!   resumption; when the last byte is out the connection closes (the
//!   protocol is one request per connection; clients read to EOF).
//!
//! Two drivers move the bytes. The reactor ([`crate::reactor`]) uses
//! non-blocking sockets, where `WouldBlock` means "drained, wait for
//! readiness" and deadlines come from its timer wheel. The blocking
//! driver ([`crate::server`]) sets `SO_RCVTIMEO`/`SO_SNDTIMEO`, so a
//! read or write that returns `WouldBlock` or `TimedOut` means the
//! deadline fired. Both surface as [`ReadOutcome::NeedMore`] /
//! [`WriteOutcome::Blocked`]; the driver knows which it means.
//!
//! What a request resolves to is decided here, once, for both drivers:
//! [`resolve`] answers PING/STATS/GOSSIP inline and counts malformed
//! requests, and [`Conn::expire`] attributes a fired deadline. The
//! `BUSY` shed is [`Shared::admit`].

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;

use rasengan_obs::json::Json;

use crate::protocol::{
    IncrementalParser, ParseProgress, Reply, ReplyStatus, RequestError, SolveRequest, Verb,
};
use crate::server::{gossip_reply, Shared};

/// Where a connection is in its request/response lifecycle.
pub(crate) enum ConnState {
    /// Accumulating request bytes into the incremental parser. Boxed:
    /// the parser carries per-verb accumulators (solve body, gossip
    /// member table) that dwarf the payload-free states.
    Reading(Box<IncrementalParser>),
    /// Request handed to the worker pool.
    Solving,
    /// Draining the rendered reply.
    Writing,
}

/// [`ConnState`] stripped of its payload — a `Copy` view the reactor
/// can hold while re-borrowing the connection table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// See [`ConnState::Reading`].
    Reading,
    /// See [`ConnState::Solving`].
    Solving,
    /// See [`ConnState::Writing`].
    Writing,
}

/// What a read drive produced.
pub(crate) enum ReadOutcome {
    /// The request is still incomplete and the socket has nothing more
    /// for now: drained (reactor), the read deadline fired (blocking
    /// driver), or the verb line is in and the caller asked to stop
    /// there. `progressed` is true when any bytes arrived (the reactor
    /// resets the idle deadline on progress, the per-read semantics of
    /// `SO_RCVTIMEO`).
    NeedMore { progressed: bool },
    /// The parser completed: a bare verb, a gossip exchange, or a full
    /// `SOLVE` request.
    Parsed(ParseProgress),
    /// The request is invalid (or truncated by EOF); reply and close.
    Invalid(RequestError),
    /// The connection failed at the transport level; close silently.
    Peer,
}

/// What a write drive produced.
pub(crate) enum WriteOutcome {
    /// Every reply byte is out; close the connection.
    Done,
    /// The socket stopped taking bytes mid-reply: the kernel buffer is
    /// full (reactor) or the write deadline fired (blocking driver).
    /// `progressed` is true when any bytes moved this drive.
    Blocked { progressed: bool },
    /// The peer is gone; close without finishing.
    Peer,
}

/// What a driver does next with a connection — the request rules'
/// verdict.
pub(crate) enum Step {
    /// Nothing to do yet: more bytes are due, or a solve is in flight.
    Wait,
    /// Stage this reply, drain it, and close.
    Reply(Reply),
    /// Offer the parsed request to the worker pool.
    Solve(Box<SolveRequest>),
    /// Close without a reply.
    Close,
}

/// One client connection. The stream type is generic only so tests can
/// script socket errors; both drivers use a [`TcpStream`].
pub(crate) struct Conn<S = TcpStream> {
    pub(crate) stream: S,
    pub(crate) state: ConnState,
    /// Rendered reply bytes being drained in `Writing`.
    out: Vec<u8>,
    /// How much of `out` has been written.
    written: usize,
}

/// Whether a socket error means "no bytes moved before the deadline or
/// readiness ran out" rather than a failed peer. `SO_RCVTIMEO` and
/// `SO_SNDTIMEO` surface as `WouldBlock` on Unix and `TimedOut`
/// elsewhere; a non-blocking socket reports `WouldBlock`.
fn stalled(err: &std::io::Error) -> bool {
    matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

impl<S: Read + Write> Conn<S> {
    /// Wraps a freshly-accepted stream.
    pub(crate) fn new(stream: S) -> Conn<S> {
        Conn {
            stream,
            state: ConnState::Reading(Box::default()),
            out: Vec::new(),
            written: 0,
        }
    }

    /// The current lifecycle phase.
    pub(crate) fn phase(&self) -> Phase {
        match self.state {
            ConnState::Reading(_) => Phase::Reading,
            ConnState::Solving => Phase::Solving,
            ConnState::Writing => Phase::Writing,
        }
    }

    /// The verb of a request still being read, once its line is
    /// parsed.
    pub(crate) fn verb(&self) -> Option<Verb> {
        match &self.state {
            ConnState::Reading(parser) => parser.verb(),
            _ => None,
        }
    }

    /// Marks the request as handed to the worker pool.
    pub(crate) fn solving(&mut self) {
        self.state = ConnState::Solving;
    }

    /// Drives reads until the socket has nothing more, EOF, or the
    /// parser resolves — or, with `until_verb`, until the verb line is
    /// in. Call only in `Reading`.
    pub(crate) fn handle_readable(&mut self, scratch: &mut [u8], until_verb: bool) -> ReadOutcome {
        let mut progressed = false;
        loop {
            let parser = match &mut self.state {
                ConnState::Reading(parser) => parser,
                _ => return ReadOutcome::NeedMore { progressed },
            };
            if until_verb && parser.verb().is_some() {
                return ReadOutcome::NeedMore { progressed };
            }
            match self.stream.read(scratch) {
                Ok(0) => {
                    return match parser.eof() {
                        Ok(progress) => ReadOutcome::Parsed(progress),
                        Err(err) => ReadOutcome::Invalid(err),
                    }
                }
                Ok(n) => {
                    progressed = true;
                    match parser.feed(&scratch[..n]) {
                        Ok(ParseProgress::More) => {}
                        Ok(progress) => return ReadOutcome::Parsed(progress),
                        Err(err) => return ReadOutcome::Invalid(err),
                    }
                }
                Err(err) if stalled(&err) => return ReadOutcome::NeedMore { progressed },
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Peer,
            }
        }
    }

    /// Stages a reply and switches to `Writing`. The caller follows up
    /// with [`handle_writable`](Conn::handle_writable) to start the
    /// drain.
    pub(crate) fn begin_reply(&mut self, reply: &Reply) {
        self.out = reply.render().into_bytes();
        self.written = 0;
        self.state = ConnState::Writing;
    }

    /// Drives writes until done or the socket stops taking bytes. Call
    /// only in `Writing`.
    pub(crate) fn handle_writable(&mut self) -> WriteOutcome {
        let mut progressed = false;
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return WriteOutcome::Peer,
                Ok(n) => {
                    self.written += n;
                    progressed = true;
                }
                Err(err) if stalled(&err) => return WriteOutcome::Blocked { progressed },
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Peer,
            }
        }
        let _ = self.stream.flush();
        WriteOutcome::Done
    }

    /// The timeout attribution rule: the IO deadline fired. A stall
    /// after the verb line is a stalled request — a `timeouts` tick and
    /// a structured `timeout` reply. A connection that never produced a
    /// verb is an anonymous bad connection — a `bad_requests` tick and
    /// a silent close. A client that stopped draining its reply is a
    /// `timeouts` tick and a close.
    pub(crate) fn expire(&self, shared: &Shared) -> Step {
        match self.phase() {
            Phase::Reading if self.verb().is_some() => Step::Reply(reject(
                shared,
                RequestError::Timeout("connection idle past the io timeout".to_string()),
            )),
            Phase::Reading => {
                shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                Step::Close
            }
            Phase::Solving => Step::Wait,
            Phase::Writing => {
                shared.timeouts.fetch_add(1, Ordering::Relaxed);
                Step::Close
            }
        }
    }
}

/// Counts a failed request read under its kind and builds its
/// structured error reply, tagged with the error's own `kind`
/// (`timeout` or `bad-request`).
fn reject(shared: &Shared, err: RequestError) -> Reply {
    let counter = match err {
        RequestError::Timeout(_) => &shared.timeouts,
        RequestError::Malformed(_) => &shared.bad_requests,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    Reply::new(
        ReplyStatus::Error,
        vec![(
            "error",
            Json::obj(vec![
                ("kind", Json::Str(err.kind().to_string())),
                ("message", Json::Str(err.message().to_string())),
            ]),
        )],
    )
}

/// The request rules for a read that resolved (anything but
/// [`ReadOutcome::NeedMore`], which each driver reads as it must):
/// `PING`, `STATS` and `GOSSIP` are answered inline — membership
/// exchanges never queue behind solves, so a saturated node still
/// heartbeats — a complete `SOLVE` goes to the pool, a malformed or
/// truncated request is counted and answered, and a transport failure
/// mid-request is counted as a bad request and closed.
pub(crate) fn resolve(shared: &Shared, outcome: ReadOutcome) -> Step {
    match outcome {
        // A read drive keeps reading on `More` and `eof` turns it into
        // an error, so it never surfaces as `Parsed`; it means wait.
        ReadOutcome::NeedMore { .. } | ReadOutcome::Parsed(ParseProgress::More) => Step::Wait,
        ReadOutcome::Parsed(ParseProgress::Ping) => Step::Reply(Reply::new(
            ReplyStatus::Ok,
            vec![("pong", Json::obj(vec![]))],
        )),
        ReadOutcome::Parsed(ParseProgress::Stats) => Step::Reply(Reply::new(
            ReplyStatus::Ok,
            vec![("stats", shared.stats_json())],
        )),
        ReadOutcome::Parsed(ParseProgress::Gossip(message)) => {
            Step::Reply(gossip_reply(shared, &message))
        }
        ReadOutcome::Parsed(ParseProgress::Request(request)) => Step::Solve(request),
        ReadOutcome::Invalid(err) => Step::Reply(reject(shared, err)),
        ReadOutcome::Peer => {
            shared.bad_requests.fetch_add(1, Ordering::Relaxed);
            Step::Close
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A socket that replays scripted read results and fails every
    /// write with one error kind.
    struct Scripted {
        reads: VecDeque<std::io::Result<Vec<u8>>>,
        write_error: ErrorKind,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.reads.pop_front() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(err)) => Err(err),
                None => Ok(0),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(self.write_error))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn conn(kind: ErrorKind) -> Conn<Scripted> {
        Conn::new(Scripted {
            reads: VecDeque::from([
                Ok(b"RASENGAN/1 SOLVE\n".to_vec()),
                Err(std::io::Error::from(kind)),
            ]),
            write_error: kind,
        })
    }

    #[test]
    fn deadline_errors_are_stalls_not_peer_failures() {
        // `SO_RCVTIMEO`/`SO_SNDTIMEO` firing surfaces as WouldBlock on
        // Unix and TimedOut elsewhere: both must read as a stall (the
        // timeout rule applies), never as a failed peer.
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            let mut conn = conn(kind);
            let mut scratch = [0u8; 64];
            assert!(matches!(
                conn.handle_readable(&mut scratch, false),
                ReadOutcome::NeedMore { progressed: true }
            ));
            assert_eq!(conn.verb(), Some(Verb::Solve), "{kind:?}");
            conn.begin_reply(&Reply::new(ReplyStatus::Ok, vec![]));
            assert!(matches!(
                conn.handle_writable(),
                WriteOutcome::Blocked { progressed: false }
            ));
        }
        // Any other error is the peer failing.
        let mut conn = conn(ErrorKind::ConnectionReset);
        assert!(matches!(
            conn.handle_readable(&mut [0u8; 64], false),
            ReadOutcome::Peer
        ));
        conn.begin_reply(&Reply::new(ReplyStatus::Ok, vec![]));
        assert!(matches!(conn.handle_writable(), WriteOutcome::Peer));
    }

    #[test]
    fn until_verb_stops_after_the_verb_line() {
        let mut conn = conn(ErrorKind::WouldBlock);
        assert!(matches!(
            conn.handle_readable(&mut [0u8; 64], true),
            ReadOutcome::NeedMore { progressed: true }
        ));
        // The scripted stall after the verb line was never read.
        assert_eq!(conn.stream.reads.len(), 1);
    }
}
