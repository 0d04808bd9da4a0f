//! Raw Linux syscalls for the event-driven front end: epoll and
//! eventfd, invoked directly via inline assembly.
//!
//! The repo's no-registry constraint rules out the `libc` crate, and
//! `std` exposes neither epoll nor eventfd — so this module is the
//! whole platform shim: syscall numbers for x86_64 and aarch64, the
//! `epoll_event` ABI struct (packed on x86_64, naturally aligned
//! elsewhere), and safe wrappers that translate negative returns into
//! [`std::io::Error`] values. Everything else the reactor needs
//! (non-blocking accept/read/write) goes through `std::net` with
//! `set_nonblocking`, keeping the unsafe surface to this file.
//!
//! Only compiled on `target_os = "linux"` for x86_64/aarch64; other
//! platforms run the blocking driver (see [`crate::server`]).

use std::io;
use std::os::fd::RawFd;

// Syscall numbers. `epoll_wait` does not exist on aarch64, so both
// architectures go through `epoll_pwait` with a null sigmask.
#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const SETSOCKOPT: usize = 54;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}
#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const SETSOCKOPT: usize = 208;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

/// `epoll_ctl` ops.
pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

/// Event masks.
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const SOL_SOCKET: usize = 1;
const SO_SNDBUF: usize = 7;

const EPOLL_CLOEXEC: usize = 0o2000000;
const EFD_CLOEXEC: usize = 0o2000000;
const EFD_NONBLOCK: usize = 0o4000;
const EINTR: i32 = 4;

/// The kernel's `struct epoll_event`. x86_64 packs it to 12 bytes;
/// every other architecture uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// `EPOLLIN | EPOLLOUT | ...` bitmask.
    pub events: u32,
    /// Caller-owned token returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    /// Copies the (possibly unaligned) fields out of a packed event.
    pub fn parts(&self) -> (u32, u64) {
        (self.events, self.data)
    }
}

#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret;
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
    }
    ret
}

/// Translates a raw syscall return into `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// `setsockopt(fd, SOL_SOCKET, SO_SNDBUF, bytes)`: pins the socket's
/// kernel send buffer (the kernel doubles the requested value and, by
/// setting it explicitly, disables send-side autotuning). The serve
/// config uses this to bound per-connection kernel memory — without a
/// pin, loopback autotuning absorbs multi-megabyte replies into the
/// buffer and a stalled reader never registers as a write stall.
pub fn set_send_buffer(fd: RawFd, bytes: u32) -> io::Result<()> {
    let val: i32 = bytes.min(i32::MAX as u32) as i32;
    check(unsafe {
        syscall6(
            nr::SETSOCKOPT,
            fd as usize,
            SOL_SOCKET,
            SO_SNDBUF,
            (&val as *const i32) as usize,
            4,
            0,
        )
    })
    .map(|_| ())
}

fn close_fd(fd: RawFd) {
    // Nothing useful to do with a close error on a private fd.
    let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
}

/// An epoll instance; the fd is closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll { fd: fd as RawFd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        let ptr = if op == EPOLL_CTL_DEL {
            // The kernel ignores the event for DEL (and pre-2.6.9
            // kernels wanted a non-null pointer anyway, so keep one).
            &mut ev as *mut EpollEvent
        } else {
            &mut ev as *mut EpollEvent
        };
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd as usize,
                op as usize,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` for `events`, tagging its events with `data`.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Re-arms an already-registered `fd` with a new mask.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregisters `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (-1 blocks indefinitely) and fills
    /// `events`, returning how many fired. `EINTR` retries internally
    /// so callers never observe it.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.fd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0, // null sigmask: plain epoll_wait semantics
                    8, // sigsetsize (ignored with a null mask)
                )
            };
            if ret == -(EINTR as isize) {
                continue;
            }
            return check(ret);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

/// A non-blocking eventfd used as the reactor's wakeup channel:
/// workers (and shutdown) write a count, the reactor drains it.
/// Writing is async-signal-safe and lock-free, so solver threads never
/// touch a socket or a reactor lock to deliver completions.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<EventFd> {
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        Ok(EventFd { fd: fd as RawFd })
    }

    /// The raw fd, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the eventfd counter, waking any epoll waiter. Errors
    /// are ignored: the only failure mode for a non-blocking eventfd
    /// write is a saturated counter, which still leaves it readable.
    pub fn wake(&self) {
        let one: u64 = 1;
        let _ = unsafe {
            syscall6(
                nr::WRITE,
                self.fd as usize,
                (&one as *const u64) as usize,
                8,
                0,
                0,
                0,
            )
        };
    }

    /// Drains the counter so the fd stops polling readable.
    pub fn drain(&self) {
        let mut count: u64 = 0;
        let _ = unsafe {
            syscall6(
                nr::READ,
                self.fd as usize,
                (&mut count as *mut u64) as usize,
                8,
                0,
                0,
                0,
            )
        };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let epoll = Epoll::new().unwrap();
        let wake = EventFd::new().unwrap();
        epoll.add(wake.fd(), EPOLLIN, 42).unwrap();
        // Nothing pending: a zero-timeout wait returns no events.
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // A wake makes it readable, tagged with our token.
        wake.wake();
        wake.wake();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (mask, data) = events[0].parts();
        assert_eq!(data, 42);
        assert_ne!(mask & EPOLLIN, 0);
        // Draining clears readability (level-triggered).
        wake.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_reports_socket_readability() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // An incoming connection makes the listener readable.
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].parts().1, 7);
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        // The accepted stream: writable immediately, readable only
        // after the client sends, and MOD re-arms the mask.
        epoll.add(stream.as_raw_fd(), EPOLLIN, 9).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        client.write_all(b"hi").unwrap();
        assert_eq!(epoll.wait(&mut events, 2000).unwrap(), 1);
        assert_eq!(events[0].parts().1, 9);
        epoll.modify(stream.as_raw_fd(), EPOLLOUT, 9).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].parts().0 & EPOLLOUT, 0);
        epoll.del(stream.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}
