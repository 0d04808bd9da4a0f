//! The platform shim: the one place the serve crate asks which target
//! it is on.
//!
//! On Linux x86_64/aarch64 the raw epoll/eventfd/setsockopt syscalls
//! of the `linux` submodule are re-exported here for the reactor; every
//! other target compiles them out and runs the blocking driver only.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod linux;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use linux::*;

/// Applies the configured `SO_SNDBUF` pin to a freshly-accepted
/// socket. A no-op when unconfigured, and on targets without the raw
/// syscall shim.
pub(crate) fn apply_send_buffer(stream: &std::net::TcpStream, bytes: Option<u32>) {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    if let Some(bytes) = bytes {
        use std::os::fd::AsRawFd;
        let _ = set_send_buffer(stream.as_raw_fd(), bytes);
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    let _ = (stream, bytes);
}
