//! Readiness primitives for the TCP edge: a minimal Linux `epoll` plus
//! `eventfd` binding.
//!
//! This is the workspace's second audited `unsafe` island (the first is
//! `resource-binding`'s shared-region containers). It is kept to five
//! foreign calls — `epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`
//! and `listen` — and every file descriptor they return is owned by an
//! [`OwnedFd`] at once, so closing is std's business. Every `unsafe`
//! block carries a `SAFETY` comment (enforced by
//! `clippy::undocumented_unsafe_blocks`), `EINTR` is retried, and a
//! failed call comes back as a typed [`std::io::Error`], never a panic.
//!
//! On other operating systems the constructors return
//! [`std::io::ErrorKind::Unsupported`], so [`crate::Service::serve_edge`]
//! refuses up front instead of falling back to polling.
#![allow(unsafe_code)]

/// Readable (`EPOLLIN`).
pub(crate) const READABLE: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub(crate) const WRITABLE: u32 = 0x004;
/// Error or hang-up (`EPOLLERR | EPOLLHUP`): always reported by the
/// kernel, whatever the interest set.
pub(crate) const CLOSED: u32 = 0x008 | 0x010;

pub(crate) use imp::{listen, EventFd, Poller};

#[cfg(target_os = "linux")]
mod imp {
    use std::fs::File;
    use std::io::{self, Read as _, Write as _};
    use std::net::TcpListener;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::{c_int, c_uint};

    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_MOD: c_int = 3;
    const EFD_CLOEXEC: c_int = 0o2_000_000;
    const EFD_NONBLOCK: c_int = 0o4_000;

    /// `struct epoll_event`. The kernel declares it packed on x86_64
    /// only (a 12-byte layout kept from i386); elsewhere it has natural
    /// alignment and is 16 bytes.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(crate) struct Event {
        events: u32,
        data: u64,
    }

    impl Event {
        const EMPTY: Event = Event { events: 0, data: 0 };

        /// The readiness bits the kernel reported.
        pub(crate) fn readiness(&self) -> u32 {
            self.events
        }

        /// The token the descriptor was registered with.
        pub(crate) fn token(&self) -> u64 {
            self.data
        }
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        #[link_name = "listen"]
        fn listen_fd(fd: c_int, backlog: c_int) -> c_int;
    }

    /// Listen again on the bound `listener` with an accept queue of
    /// `backlog` connections (clamped to `c_int`; the kernel caps it
    /// further at `net.core.somaxconn`). std listens with 128.
    pub(crate) fn listen(listener: &TcpListener, backlog: usize) -> io::Result<()> {
        let backlog = backlog.min(c_int::MAX as usize) as c_int;
        // SAFETY: listen takes no pointers; `listener` owns a live socket
        // descriptor for the duration of the call, and calling listen on
        // a listening socket only changes its backlog.
        check(unsafe { listen_fd(listener.as_raw_fd(), backlog) })?;
        Ok(())
    }

    /// `-1` → the thread's `errno` as an [`io::Error`].
    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// One epoll instance, level-triggered.
    pub(crate) struct Poller {
        epfd: OwnedFd,
        events: Vec<Event>,
    }

    impl Poller {
        /// A new epoll instance reporting up to `capacity` events per
        /// [`Poller::wait`].
        pub(crate) fn new(capacity: usize) -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; the flag is valid.
            let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                // SAFETY: `fd` was just returned by a successful
                // epoll_create1 and nothing else owns it.
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
                events: vec![Event::EMPTY; capacity.max(1)],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut event = Event {
                events: interest,
                data: token,
            };
            // SAFETY: `epfd` is a live epoll descriptor we own, `event`
            // is a valid `struct epoll_event` on our stack for the
            // duration of the call (the kernel copies it), and a bad
            // `fd` is reported through errno, not undefined behaviour.
            check(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) })?;
            Ok(())
        }

        /// Register `fd` under `token` with `interest`.
        pub(crate) fn add(&self, fd: &impl AsRawFd, interest: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), interest, token)
        }

        /// Replace the interest set of a registered `fd`.
        pub(crate) fn modify(
            &self,
            fd: &impl AsRawFd,
            interest: u32,
            token: u64,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), interest, token)
        }

        /// Block until at least one registered descriptor is ready, or
        /// `timeout_ms` passes (`None`: no timeout), and return how many
        /// events [`Poller::event`] can read. Retries `EINTR`.
        pub(crate) fn wait(&mut self, timeout_ms: Option<u32>) -> io::Result<usize> {
            let timeout = timeout_ms.map_or(-1, |ms| ms.min(i32::MAX as u32) as c_int);
            let max = self.events.len().min(i32::MAX as usize) as c_int;
            let n = loop {
                // SAFETY: `events` holds `max` initialised `Event`s that
                // the kernel may overwrite, and it outlives the call.
                let ret = unsafe {
                    epoll_wait(
                        self.epfd.as_raw_fd(),
                        self.events.as_mut_ptr(),
                        max,
                        timeout,
                    )
                };
                match check(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            Ok(n)
        }

        /// Event `i` of the last [`Poller::wait`].
        pub(crate) fn event(&self, i: usize) -> Event {
            self.events[i]
        }
    }

    /// A nonblocking `eventfd` counter: any thread may [`EventFd::notify`];
    /// the owner registers it with a [`Poller`] and [`EventFd::reset`]s it
    /// after waking.
    pub(crate) struct EventFd {
        file: File,
    }

    impl EventFd {
        pub(crate) fn new() -> io::Result<EventFd> {
            // SAFETY: eventfd takes no pointers; the flags are valid.
            let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            // SAFETY: `fd` was just returned by a successful eventfd and
            // nothing else owns it.
            let owned = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(EventFd {
                file: File::from(owned),
            })
        }

        /// Add one to the counter, making the descriptor readable. A
        /// full counter (2⁶⁴ − 2 pending wakes) is already readable, so
        /// `WouldBlock` is success too.
        pub(crate) fn notify(&self) -> io::Result<()> {
            loop {
                match (&self.file).write(&1u64.to_ne_bytes()) {
                    Ok(_) => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        }

        /// Zero the counter, so the descriptor is not readable until the
        /// next [`EventFd::notify`].
        pub(crate) fn reset(&self) -> io::Result<()> {
            let mut buf = [0u8; 8];
            loop {
                match (&self.file).read(&mut buf) {
                    Ok(_) => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
        }
    }

    impl AsRawFd for EventFd {
        fn as_raw_fd(&self) -> RawFd {
            self.file.as_raw_fd()
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    //! Readiness is implemented for Linux only: every constructor
    //! refuses, so no value of these types ever exists.

    use std::io;
    use std::net::TcpListener;

    /// Anything may be named in a registration; none ever happens.
    pub(crate) trait Source {}
    impl<T> Source for T {}

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the TCP edge needs epoll and eventfd (Linux only)",
        )
    }

    pub(crate) fn listen(_: &TcpListener, _: usize) -> io::Result<()> {
        Err(unsupported())
    }

    #[derive(Clone, Copy)]
    pub(crate) enum Event {}

    impl Event {
        pub(crate) fn readiness(&self) -> u32 {
            match *self {}
        }
        pub(crate) fn token(&self) -> u64 {
            match *self {}
        }
    }

    pub(crate) enum Poller {}

    impl Poller {
        pub(crate) fn new(_capacity: usize) -> io::Result<Poller> {
            Err(unsupported())
        }
        pub(crate) fn add(&self, _: &impl Source, _: u32, _: u64) -> io::Result<()> {
            match *self {}
        }
        pub(crate) fn modify(&self, _: &impl Source, _: u32, _: u64) -> io::Result<()> {
            match *self {}
        }
        pub(crate) fn wait(&mut self, _: Option<u32>) -> io::Result<usize> {
            match *self {}
        }
        pub(crate) fn event(&self, _: usize) -> Event {
            match *self {}
        }
    }

    pub(crate) enum EventFd {}

    impl EventFd {
        pub(crate) fn new() -> io::Result<EventFd> {
            Err(unsupported())
        }
        pub(crate) fn notify(&self) -> io::Result<()> {
            match *self {}
        }
        pub(crate) fn reset(&self) -> io::Result<()> {
            match *self {}
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_matches_the_kernel_layout() {
        let want = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<imp::Event>(), want);
    }

    #[test]
    fn eventfd_wakes_a_blocked_wait_and_resets() {
        let mut poller = Poller::new(4).unwrap();
        let wake = EventFd::new().unwrap();
        poller.add(&wake, READABLE, 7).unwrap();
        assert_eq!(poller.wait(Some(0)).unwrap(), 0);
        wake.notify().unwrap();
        wake.notify().unwrap();
        assert_eq!(poller.wait(Some(1000)).unwrap(), 1);
        assert_eq!(poller.event(0).token(), 7);
        assert_ne!(poller.event(0).readiness() & READABLE, 0);
        wake.reset().unwrap();
        assert_eq!(poller.wait(Some(0)).unwrap(), 0);
    }

    /// std listens with a backlog of 128; past it, a connect waits out
    /// SYN retransmits (a second or more). After `listen` with a deeper
    /// queue, 300 connects nobody accepts yet all complete at once.
    #[test]
    fn relisten_deepens_the_accept_queue() {
        use std::net::{TcpListener, TcpStream};
        use std::time::{Duration, Instant};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listen(&listener, 512).unwrap();
        let addr = listener.local_addr().unwrap();
        let start = Instant::now();
        let streams: Vec<TcpStream> = (0..300)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .unwrap_or_else(|e| panic!("connect {i} waited: {e}"))
            })
            .collect();
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(900),
            "300 connects took {took:?}"
        );
        drop(streams);
        assert!(listener.accept().is_ok(), "the listener still accepts");
    }

    #[test]
    fn double_registration_is_a_typed_error() {
        let poller = Poller::new(1).unwrap();
        let wake = EventFd::new().unwrap();
        poller.add(&wake, READABLE, 1).unwrap();
        let again = poller.add(&wake, READABLE, 1).unwrap_err();
        assert_eq!(again.raw_os_error(), Some(17), "EEXIST");
    }
}
