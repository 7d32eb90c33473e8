//! A minimal readiness-polling abstraction for the nonblocking
//! connection layer, the one server loop of `fpopd` and `fpoprouter`.
//!
//! Std-only by discipline: the syscalls are declared `extern "C"`
//! directly (std already links the platform libc, so no crate is
//! added). On Linux the backend is **epoll** (level-triggered) with an
//! **eventfd** waker; on other unix it is **poll(2)** with a self-pipe
//! waker. Non-unix builds exclude this module entirely (`lib.rs` gates
//! it `#[cfg(unix)]`): there is no blocking fallback, and the servers
//! are unix-only.
//!
//! The surface is deliberately tiny — register/modify/deregister a raw
//! fd under a caller-chosen token, wait for events, and a [`Waker`]
//! that makes `wait` return from another thread (the engine's worker
//! pool uses it to deliver completions into the event loop).

use std::io;
use std::os::unix::io::RawFd;
use std::sync::Arc;
use std::time::Duration;

/// What readiness to watch for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd is readable (or has pending error/hangup to observe via
    /// `read`, which then returns 0/error).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// Peer hangup / error was flagged by the OS. With read interest
    /// this means "read until it fails", not an instant drop — bytes
    /// already buffered by the kernel are still served. Without it (a
    /// connection that already read EOF) the peer is gone.
    pub hangup: bool,
}

// --- raw syscall surface (std links libc; no external crate) -------------

#[allow(non_camel_case_types, dead_code)]
type nfds_t = u64;

extern "C" {
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

// --- Linux backend: epoll + eventfd --------------------------------------

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// Mirrors `struct epoll_event`; packed on x86-64 (the kernel ABI).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    /// The epoll-backed poller.
    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            // EPOLLRDHUP only with read interest: level-triggered, it
            // would otherwise fire on every wait once the peer shuts its
            // write side.
            let mut events = 0;
            if interest.readable {
                events |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token as u64,
            };
            let arg = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev as *mut EpollEvent
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, arg) } < 0 {
                return Err(last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let millis: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    millis,
                )
            };
            if n < 0 {
                let e = last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // EINTR: caller just loops
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data as usize,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// Creates the waker fd pair: eventfd is both ends at once.
    pub fn waker_fds() -> io::Result<(RawFd, RawFd)> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_os_error());
        }
        Ok((fd, fd))
    }

    /// Drains a signalled eventfd.
    pub fn drain_waker(fd: RawFd) {
        let mut buf = [0u8; 8];
        unsafe { read(fd, buf.as_mut_ptr(), 8) };
    }

    /// Signals the eventfd.
    pub fn signal_waker(fd: RawFd) {
        let one: u64 = 1;
        unsafe { write(fd, one.to_ne_bytes().as_ptr(), 8) };
    }

    /// eventfd is one fd; close it once.
    pub const WAKER_IS_PAIR: bool = false;
}

// --- portable unix backend: poll(2) + self-pipe --------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const F_SETFL: i32 = 4;
    const O_NONBLOCK: i32 = 0o4000;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: nfds_t, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    }

    /// The poll(2)-backed poller: keeps the registration table in user
    /// space and rebuilds the `pollfd` array per wait. O(n) per turn,
    /// fine for the connection counts a non-Linux test host sees.
    pub struct Poller {
        entries: Vec<(RawFd, usize, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                entries: Vec::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.entries.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            for e in self.entries.iter_mut() {
                if e.0 == fd {
                    *e = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.entries.retain(|e| e.0 != fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .entries
                .iter()
                .map(|&(fd, _, interest)| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let millis: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as nfds_t, millis) };
            if n < 0 {
                let e = last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(self.entries.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    /// Creates the waker fd pair: a nonblocking self-pipe (read, write).
    pub fn waker_fds() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0i32; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_os_error());
        }
        unsafe {
            fcntl(fds[0], F_SETFL, O_NONBLOCK);
            fcntl(fds[1], F_SETFL, O_NONBLOCK);
        }
        Ok((fds[0], fds[1]))
    }

    /// Drains a signalled pipe read end.
    pub fn drain_waker(fd: RawFd) {
        let mut buf = [0u8; 64];
        while unsafe { read(fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
    }

    /// Signals the pipe write end.
    pub fn signal_waker(fd: RawFd) {
        let one = [1u8];
        unsafe { write(fd, one.as_ptr(), 1) };
    }

    /// A pipe has two fds; close both.
    pub const WAKER_IS_PAIR: bool = true;
}

/// The platform poller (epoll on Linux, poll(2) elsewhere on unix).
pub struct Poller {
    inner: imp::Poller,
}

impl Poller {
    /// Creates a poller.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_create1` error (Linux); infallible on the
    /// poll(2) backend.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: imp::Poller::new()?,
        })
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` error (e.g. an fd watched twice).
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Changes what `fd` is watched for.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` error (e.g. the fd is not registered).
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stops watching `fd` (call before closing it).
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` error.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one watched fd is ready (or `timeout`),
    /// appending events to `out`. EINTR is swallowed (returns with no
    /// events). Level-triggered: an fd that stays ready keeps reporting.
    ///
    /// # Errors
    ///
    /// Fatal poll backend errors (not EINTR).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(out, timeout)
    }
}

/// Wakes a [`Poller::wait`] from another thread.
///
/// Internally an eventfd (Linux) or self-pipe (other unix) registered in
/// the poller under a reserved token by the connection layer's engine
/// backend. Cloneable and cheap: worker-pool completion hooks each hold
/// one.
pub struct Waker {
    inner: Arc<WakerInner>,
}

struct WakerInner {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Creates the waker; `read_fd` must be registered with the poller.
    ///
    /// # Errors
    ///
    /// `eventfd`/`pipe` creation errors.
    pub fn new() -> io::Result<Waker> {
        let (read_fd, write_fd) = imp::waker_fds()?;
        Ok(Waker {
            inner: Arc::new(WakerInner { read_fd, write_fd }),
        })
    }

    /// The fd to register for readability in the poller.
    pub fn read_fd(&self) -> RawFd {
        self.inner.read_fd
    }

    /// Makes the poller's current/next `wait` return. Nonblocking and
    /// async-signal-ish safe: a single syscall, coalescing is fine (one
    /// wake serves any number of pending completions).
    pub fn wake(&self) {
        imp::signal_waker(self.inner.write_fd);
    }

    /// Drains the pending wake signal(s); the event loop calls this when
    /// the waker token fires, before polling its completion queue.
    pub fn drain(&self) {
        imp::drain_waker(self.inner.read_fd);
    }
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for WakerInner {
    fn drop(&mut self) {
        unsafe { close(self.read_fd) };
        if imp::WAKER_IS_PAIR {
            unsafe { close(self.write_fd) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poller_sees_readable_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        // Nothing pending: a short wait returns empty.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        // A connect makes the listener readable.
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        // Accept, watch the server end, and see client bytes arrive.
        let (server, _) = listener.accept().unwrap();
        poller
            .register(server.as_raw_fd(), 8, Interest::READ)
            .unwrap();
        client.write_all(b"hi").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 8 && e.readable));
        poller.deregister(server.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_wakes_a_waiting_poller() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller
            .register(waker.read_fd(), usize::MAX, Interest::READ)
            .unwrap();
        let w2 = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
        });
        let mut events = Vec::new();
        // Wait far longer than the wake delay: the wake must interrupt.
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == usize::MAX && e.readable));
        waker.drain();
        // Drained: the level-triggered fd goes quiet again.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        t.join().unwrap();
    }

    #[test]
    fn hangup_is_reported() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        drop(client); // peer hangs up
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("event");
        assert!(ev.readable, "hangup surfaces as readable (read -> 0)");
    }

    #[test]
    fn half_closed_peer_is_quiet_without_read_interest() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut poller = Poller::new().unwrap();
        // A connection that has read EOF is watched for nothing (or for
        // writability while it has bytes to write).
        let none = Interest {
            readable: false,
            writable: false,
        };
        poller.register(server.as_raw_fd(), 4, none).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            events.is_empty(),
            "a half-closed peer woke a poller that asked for no reads: {events:?}"
        );
    }
}
