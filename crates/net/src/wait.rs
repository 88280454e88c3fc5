//! The crate's one blocking primitive: `poll(2)` over a handful of
//! sockets, and the socket-pair wake channel that lets another thread
//! end the wait. std links libc, so `poll` is declared here and the
//! crate stays zero-dependency (the idiom `pmserve` uses for `signal`).

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Ready to read, or the peer closed.
pub(crate) const POLLIN: i16 = 0x1;
/// Room to write.
pub(crate) const POLLOUT: i16 = 0x4;

/// `struct pollfd`. Hang-up and error end a [`wait`] whatever `events`
/// asks for; callers act on what their next read or write returns, not
/// on `revents`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn new(sock: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: sock.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// Block until one of `fds` is ready or `timeout` passes (`None`:
/// until one is ready). `poll` counts whole milliseconds and the
/// timeout is rounded *down*, so a caller pacing itself against a
/// deadline never oversleeps: a sub-millisecond remainder returns at
/// once and the caller's loop spins it out.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ms = timeout.map_or(-1, |t| i32::try_from(t.as_millis()).unwrap_or(i32::MAX));
    loop {
        // SAFETY: the pointer and length are those of one live,
        // exclusively borrowed slice of `#[repr(C)]` structs laid out as
        // `struct pollfd`; `poll` writes only their `revents`. A stale
        // descriptor number is reported as POLLNVAL, not dereferenced.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) };
        if rc >= 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return;
        }
    }
}

/// A wake channel: `(poke end, polled end)`, both nonblocking, so a
/// poke never stalls its sender — when the buffer is full the reader is
/// about to wake anyway.
pub(crate) fn wake_channel() -> std::io::Result<(UnixStream, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// Make the polled end readable.
pub(crate) fn poke(mut tx: &UnixStream) {
    let _ = tx.write(&[1]);
}

/// Swallow every poke so far, so the next [`wait`] blocks again.
pub(crate) fn drain(mut rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_poke_ends_the_wait_and_draining_it_rearms_the_channel() {
        let (tx, rx) = wake_channel().unwrap();
        let poker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            poke(&tx);
            tx
        });
        let mut fds = [PollFd::new(&rx, POLLIN)];
        wait(&mut fds, None);
        assert_ne!(fds[0].revents, 0);
        let _tx = poker.join().unwrap();

        // Undrained, the byte still reports ready; drained, `wait` runs
        // its whole timeout again.
        wait(&mut fds, Some(Duration::from_secs(5)));
        assert_ne!(fds[0].revents, 0);
        drain(&rx);
        let t0 = Instant::now();
        wait(&mut fds, Some(Duration::from_millis(40)));
        assert_eq!(fds[0].revents, 0);
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn a_sub_millisecond_timeout_returns_at_once() {
        let (_tx, rx) = wake_channel().unwrap();
        let mut fds = [PollFd::new(&rx, POLLIN)];
        let t0 = Instant::now();
        wait(&mut fds, Some(Duration::from_micros(900)));
        assert_eq!(fds[0].revents, 0);
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn pokes_beyond_the_buffer_are_dropped_not_blocked_on() {
        let (tx, rx) = wake_channel().unwrap();
        for _ in 0..100_000 {
            poke(&tx);
        }
        drain(&rx);
        let mut fds = [PollFd::new(&rx, POLLIN)];
        wait(&mut fds, Some(Duration::ZERO));
        assert_eq!(fds[0].revents, 0);
    }
}
