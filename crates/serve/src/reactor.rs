//! The epoll reactor: the event-driven driver of the connection state
//! machine ([`crate::conn`]).
//!
//! One thread owns every socket. The listener, a wakeup eventfd, and
//! each connection are registered with a single epoll instance
//! ([`crate::sys`]); the loop waits, dispatches readiness to the
//! per-connection state machines, and never blocks on any individual
//! socket. Parsed `SOLVE` requests go to the worker pool over the
//! shared `BoundedQueue`; workers compute a [`Reply`] and hand it back
//! through [`ReactorLink::complete`], which is a vec push plus an
//! eventfd write — solver threads never touch a socket.
//!
//! # Timer wheel
//!
//! `--io-timeout-ms` is enforced by a 256-slot, 10ms-tick timer wheel
//! instead of `SO_RCVTIMEO`/`SO_SNDTIMEO`. Each connection carries an
//! authoritative `deadline`, refreshed whenever bytes move in either
//! direction and cleared while a solve is in flight (a long solve is
//! not an IO stall). Wheel entries are hints: when one fires, the
//! connection's own deadline decides whether to time out or to re-arm
//! at the refreshed deadline — so progress never has to delete a wheel
//! entry, and stale entries for closed connections simply miss the
//! connection table. What a fired deadline means — a `timeout` reply,
//! or a silent close — is the shared rule [`Conn::expire`].
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown)
//! sets the stop flag and writes the eventfd. The reactor deregisters
//! the listener, keeps serving every live connection (reads still
//! parse, queued solves still complete, write buffers still drain),
//! and exits once the connection table is empty — at worst one IO
//! timeout after the last client stalls. Workers are joined after the
//! reactor, so in-flight solves always find the queue alive.

use std::collections::HashMap;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::conn::{resolve, Conn, Phase, ReadOutcome, Step, WriteOutcome};
use crate::protocol::{Reply, SolveRequest};
use crate::server::{Shared, Wake, Work};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Timer wheel granularity. Deadlines fire at most one tick late.
const TICK_MS: u64 = 10;
/// Wheel size; one lap covers `TICK_MS * WHEEL_SLOTS` = 2.56s, and
/// longer deadlines survive laps by re-insertion.
const WHEEL_SLOTS: u64 = 256;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The workers' channel back into the reactor: completed replies plus
/// the eventfd that interrupts `epoll_wait`.
struct ReactorLink {
    completions: Mutex<Vec<(u64, Reply)>>,
    wake: EventFd,
}

impl ReactorLink {
    /// Queues a finished reply for `token` and wakes the reactor.
    fn complete(&self, token: u64, reply: Reply) {
        self.completions.lock().unwrap().push((token, reply));
        self.wake.wake();
    }

    fn take(&self) -> Vec<(u64, Reply)> {
        std::mem::take(&mut *self.completions.lock().unwrap())
    }
}

/// A deadline hint. `deadline_ms` is re-checked against the
/// connection's live deadline when the slot fires (lazy cancellation).
struct TimerEntry {
    token: u64,
    deadline_ms: u64,
}

struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    /// Wheel time already processed, in ms since reactor start
    /// (always a multiple of `TICK_MS`).
    processed_ms: u64,
    armed: usize,
}

impl TimerWheel {
    fn new() -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            processed_ms: 0,
            armed: 0,
        }
    }

    fn armed(&self) -> bool {
        self.armed > 0
    }

    /// Arms a deadline. The slot is the deadline's tick rounded *up*
    /// (so firing the slot implies the deadline has passed), clamped
    /// to the next unprocessed tick so past deadlines fire promptly
    /// instead of waiting a full lap.
    fn arm(&mut self, token: u64, deadline_ms: u64) {
        let tick = deadline_ms
            .div_ceil(TICK_MS)
            .max(self.processed_ms / TICK_MS + 1);
        self.slots[(tick % WHEEL_SLOTS) as usize].push(TimerEntry { token, deadline_ms });
        self.armed += 1;
    }

    /// Advances wheel time to `now_ms`, returning the tokens of every
    /// entry that came due. Entries a full lap (or more) in the future
    /// land back in their slot for the next pass.
    fn expire(&mut self, now_ms: u64) -> Vec<u64> {
        let mut due = Vec::new();
        while self.processed_ms + TICK_MS <= now_ms {
            self.processed_ms += TICK_MS;
            let slot = ((self.processed_ms / TICK_MS) % WHEEL_SLOTS) as usize;
            let entries = std::mem::take(&mut self.slots[slot]);
            for entry in entries {
                if entry.deadline_ms <= now_ms {
                    self.armed -= 1;
                    due.push(entry.token);
                } else {
                    self.slots[slot].push(entry);
                }
            }
        }
        due
    }
}

/// Creates the epoll instance, registers the listener and wakeup fd,
/// and spawns the reactor thread; the returned [`Wake`] (an eventfd
/// write) interrupts it for shutdown. Fails only on resource
/// exhaustion (fd limits), surfaced from [`crate::server::serve`] at
/// startup.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> std::io::Result<(JoinHandle<()>, Wake)> {
    let link = Arc::new(ReactorLink {
        completions: Mutex::new(Vec::new()),
        wake: EventFd::new()?,
    });
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(link.wake.fd(), EPOLLIN, TOKEN_WAKE)?;
    let reactor = Reactor {
        epoll,
        listener,
        shared,
        link: Arc::clone(&link),
        conns: HashMap::new(),
        wheel: TimerWheel::new(),
        next_token: FIRST_CONN_TOKEN,
        start: Instant::now(),
        accepting: true,
    };
    let thread = std::thread::Builder::new()
        .name("rasengan-serve-reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok((thread, Box::new(move || link.wake.wake())))
}

/// A connection plus the reactor's own bookkeeping for it, which the
/// blocking driver has no use for.
struct Slot {
    conn: Conn,
    /// The epoll interest mask currently registered for the socket
    /// (`None` when deregistered, as in `Solving`), so re-arming knows
    /// whether to ADD or MOD.
    interest: Option<u32>,
    /// The wheel-validated absolute deadline for the current phase;
    /// `None` while solving (a long solve is not an IO stall).
    deadline: Option<Instant>,
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    shared: Arc<Shared>,
    link: Arc<ReactorLink>,
    conns: HashMap<u64, Slot>,
    wheel: TimerWheel,
    next_token: u64,
    start: Instant,
    accepting: bool,
}

impl Reactor {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    fn ms(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start)
            .as_millis()
            .min(u64::MAX as u128) as u64
    }

    fn fresh_deadline(&self) -> Instant {
        Instant::now() + self.shared.config.io_timeout
    }

    fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 256];
        let mut scratch = vec![0u8; 64 * 1024];
        loop {
            // With timers armed the wait is one wheel tick so expiry
            // stays prompt; otherwise block until a socket or the
            // eventfd has something (completions and shutdown both
            // write the eventfd, so -1 never oversleeps).
            let timeout = if self.wheel.armed() {
                TICK_MS as i32
            } else {
                -1
            };
            let fired = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            self.shared.loop_iterations.fetch_add(1, Ordering::Relaxed);
            for event in &events[..fired] {
                let (mask, token) = event.parts();
                match token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => self.link.wake.drain(),
                    token => self.conn_event(token, mask, &mut scratch),
                }
            }
            for (token, reply) in self.link.take() {
                self.deliver(token, reply);
            }
            let now_ms = self.now_ms();
            for token in self.wheel.expire(now_ms) {
                self.timer_fired(token, now_ms);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                if self.accepting {
                    self.accepting = false;
                    let _ = self.epoll.del(self.listener.as_raw_fd());
                }
                if self.conns.is_empty() {
                    break;
                }
            }
        }
    }

    /// Drains the accept backlog (level-triggered: stop at WouldBlock).
    fn accept_burst(&mut self) {
        while self.accepting {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    crate::sys::apply_send_buffer(&stream, self.shared.config.send_buffer_bytes);
                    self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                        // Out of epoll capacity; dropping the stream
                        // closes it.
                        continue;
                    }
                    let deadline = self.fresh_deadline();
                    let deadline_ms = self.ms(deadline);
                    self.wheel.arm(token, deadline_ms);
                    self.conns.insert(
                        token,
                        Slot {
                            conn: Conn::new(stream),
                            interest: Some(interest),
                            deadline: Some(deadline),
                        },
                    );
                    self.shared.conns_open.fetch_add(1, Ordering::Relaxed);
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient per-connection accept errors (ECONNABORTED
                // and friends): the backlog may still hold live
                // connections, but level-triggered epoll will re-report
                // it; don't spin here.
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, mask: u32, scratch: &mut [u8]) {
        let phase = match self.conns.get(&token) {
            Some(slot) => slot.conn.phase(),
            None => return,
        };
        match phase {
            Phase::Reading => {
                if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                    self.shared.readable_events.fetch_add(1, Ordering::Relaxed);
                    self.drive_read(token, scratch);
                }
            }
            // The socket is deregistered while solving; a late event
            // already in this batch is ignored.
            Phase::Solving => {}
            Phase::Writing => {
                if mask & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0 {
                    self.drive_write(token);
                }
            }
        }
    }

    fn drive_read(&mut self, token: u64, scratch: &mut [u8]) {
        let fresh = self.fresh_deadline();
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        match slot.conn.handle_readable(scratch, false) {
            ReadOutcome::NeedMore { progressed } => {
                if progressed {
                    slot.deadline = Some(fresh);
                }
            }
            outcome => {
                let step = resolve(&self.shared, outcome);
                self.apply(token, step);
            }
        }
    }

    /// Carries out the request rules' verdict for a connection.
    fn apply(&mut self, token: u64, step: Step) {
        match step {
            Step::Wait => {}
            Step::Reply(reply) => self.start_write(token, &reply),
            Step::Solve(request) => self.submit(token, request),
            Step::Close => self.close(token),
        }
    }

    /// Hands a parsed request to the worker pool, or sheds it.
    fn submit(&mut self, token: u64, request: Box<SolveRequest>) {
        let link = Arc::clone(&self.link);
        let work = Work::Parsed {
            request,
            reply_to: Box::new(move |reply| link.complete(token, reply)),
            enqueued: Instant::now(),
        };
        match self.shared.admit(work) {
            None => {
                let Some(slot) = self.conns.get_mut(&token) else {
                    return;
                };
                slot.conn.solving();
                // Nothing the client sends can advance a solving
                // request, so drop the socket from epoll entirely; the
                // completion re-registers it for writing. The deadline
                // is cleared too: a long solve is not an IO stall.
                let _ = self.epoll.del(slot.conn.stream.as_raw_fd());
                slot.interest = None;
                slot.deadline = None;
            }
            Some((_, busy)) => self.start_write(token, &busy),
        }
    }

    /// Routes a worker's finished reply back onto the wire.
    fn deliver(&mut self, token: u64, reply: Reply) {
        if self.conns.contains_key(&token) {
            self.start_write(token, &reply);
        }
    }

    fn start_write(&mut self, token: u64, reply: &Reply) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        slot.conn.begin_reply(reply);
        self.drive_write(token);
    }

    fn drive_write(&mut self, token: u64) {
        let fresh = self.fresh_deadline();
        let outcome = match self.conns.get_mut(&token) {
            Some(slot) => slot.conn.handle_writable(),
            None => return,
        };
        match outcome {
            WriteOutcome::Done => self.close(token),
            WriteOutcome::Blocked { progressed } => {
                self.shared.writable_stalls.fetch_add(1, Ordering::Relaxed);
                let (fd, interest, deadline) = {
                    let Some(slot) = self.conns.get_mut(&token) else {
                        return;
                    };
                    if progressed || slot.deadline.is_none() {
                        slot.deadline = Some(fresh);
                    }
                    (
                        slot.conn.stream.as_raw_fd(),
                        slot.interest,
                        slot.deadline.expect("write phase has a deadline"),
                    )
                };
                if interest != Some(EPOLLOUT) {
                    let registered = match interest {
                        Some(_) => self.epoll.modify(fd, EPOLLOUT, token),
                        None => self.epoll.add(fd, EPOLLOUT, token),
                    };
                    if registered.is_err() {
                        self.close(token);
                        return;
                    }
                    if let Some(slot) = self.conns.get_mut(&token) {
                        slot.interest = Some(EPOLLOUT);
                    }
                    // One wheel entry per write phase; deadline
                    // refreshes are picked up lazily when it fires.
                    let deadline_ms = self.ms(deadline);
                    self.wheel.arm(token, deadline_ms);
                }
            }
            WriteOutcome::Peer => self.close(token),
        }
    }

    /// Enforces a fired deadline, or re-arms if the connection made
    /// progress since the entry was inserted.
    fn timer_fired(&mut self, token: u64, now_ms: u64) {
        let Some(slot) = self.conns.get(&token) else {
            return;
        };
        let Some(deadline) = slot.deadline else {
            return;
        };
        let deadline_ms = self.ms(deadline);
        if deadline_ms > now_ms {
            self.wheel.arm(token, deadline_ms);
            return;
        }
        let step = slot.conn.expire(&self.shared);
        self.apply(token, step);
    }

    fn close(&mut self, token: u64) {
        if let Some(slot) = self.conns.remove(&token) {
            if slot.interest.is_some() {
                let _ = self.epoll.del(slot.conn.stream.as_raw_fd());
            }
            self.shared.conns_open.fetch_sub(1, Ordering::Relaxed);
            // Dropping the stream closes the fd.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_on_time_and_respects_laziness() {
        let mut wheel = TimerWheel::new();
        wheel.arm(7, 25);
        assert!(wheel.armed());
        // Nothing due before the deadline's tick.
        assert!(wheel.expire(20).is_empty());
        // The rounded-up tick (30ms) fires it.
        assert_eq!(wheel.expire(31), vec![7]);
        assert!(!wheel.armed());
    }

    #[test]
    fn wheel_survives_full_laps() {
        let mut wheel = TimerWheel::new();
        // A deadline more than one lap (2560ms) out must not fire on
        // the first pass over its slot.
        wheel.arm(3, TICK_MS * WHEEL_SLOTS + 45);
        assert!(wheel.expire(1000).is_empty());
        assert!(wheel.expire(2560).is_empty());
        assert_eq!(wheel.expire(TICK_MS * WHEEL_SLOTS + 50), vec![3]);
    }

    #[test]
    fn wheel_clamps_past_deadlines_to_next_tick() {
        let mut wheel = TimerWheel::new();
        assert!(wheel.expire(500).is_empty());
        // Arming a deadline that already passed fires on the next
        // tick, not a lap later.
        wheel.arm(9, 100);
        assert_eq!(wheel.expire(510), vec![9]);
    }
}
