//! Raw `epoll` bindings — direct syscalls via inline assembly, no libc.
//!
//! The workspace's zero-dependency rule extends to the event loop: rather
//! than pulling in `libc`/`mio`, the four syscalls the loop needs
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`/`epoll_pwait`) are issued
//! with `core::arch::asm!`. Sockets themselves stay on `std::net` (with
//! `set_nonblocking`), so this module is the *only* unsafe surface in the
//! crate and it is four functions deep.
//!
//! Platform notes, encoded below rather than assumed:
//!
//! * **x86_64**: syscall numbers 291/233/232; arguments in
//!   `rdi/rsi/rdx/r10`, number in `rax`, `syscall` clobbers `rcx`/`r11`.
//!   `struct epoll_event` is `__attribute__((packed))` on this
//!   architecture (12 bytes), a kernel ABI quirk kept for compatibility.
//! * **aarch64**: `svc 0` with the number in `x8`, arguments in `x0..x5`.
//!   There is no `epoll_wait` syscall at all — only `epoll_pwait`
//!   (number 22), called with a null sigmask. `epoll_event` has natural
//!   alignment (16 bytes).
//!
//! A negative return value is `-errno`; the wrappers convert it to
//! `io::Error` so callers never see raw numbers.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readable interest.
pub const EPOLLIN: u32 = 0x001;
/// Writable interest.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to subscribe).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: u64 = 0x80000;
const EPOLL_CTL_ADD: u64 = 1;
const EPOLL_CTL_DEL: u64 = 2;
const EPOLL_CTL_MOD: u64 = 3;

/// One readiness record, ABI-compatible with the kernel's
/// `struct epoll_event` on the compiled architecture.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready-state bitmask (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token, returned verbatim.
    pub data: u64,
}

/// One readiness record, ABI-compatible with the kernel's
/// `struct epoll_event` on the compiled architecture.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready-state bitmask (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token, returned verbatim.
    pub data: u64,
}

impl EpollEvent {
    /// Copies the fields out (the x86_64 layout is packed, so direct
    /// references to `data` would be unaligned).
    pub fn parts(&self) -> (u32, u64) {
        let e = *self;
        (e.events, e.data)
    }
}

/// Whether the evented loop can run on this target.
pub const fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::EpollEvent;

    const NR_EPOLL_CREATE1: u64 = 291;
    const NR_EPOLL_CTL: u64 = 233;
    const NR_EPOLL_WAIT: u64 = 232;

    #[inline]
    unsafe fn syscall4(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64) -> i64 {
        let ret: i64;
        // SAFETY: caller passes kernel-valid arguments; `syscall` clobbers
        // rcx/r11 which are declared, and memory side effects (the kernel
        // writing into the events buffer) are covered by the default
        // (non-`nomem`) memory clobber.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub fn epoll_create1(flags: u64) -> i64 {
        unsafe { syscall4(NR_EPOLL_CREATE1, flags, 0, 0, 0) }
    }

    pub fn epoll_ctl(epfd: i32, op: u64, fd: i32, event: *mut EpollEvent) -> i64 {
        unsafe { syscall4(NR_EPOLL_CTL, epfd as u64, op, fd as u64, event as u64) }
    }

    pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, max: usize, timeout_ms: i32) -> i64 {
        unsafe {
            syscall4(
                NR_EPOLL_WAIT,
                epfd as u64,
                events as u64,
                max as u64,
                timeout_ms as u64,
            )
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod imp {
    use super::EpollEvent;

    const NR_EPOLL_CREATE1: u64 = 20;
    const NR_EPOLL_CTL: u64 = 21;
    const NR_EPOLL_PWAIT: u64 = 22;

    #[inline]
    unsafe fn syscall6(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64, a6: u64) -> i64 {
        let ret: i64;
        // SAFETY: as in the x86_64 wrapper; aarch64 `svc 0` preserves all
        // registers except x0 (the return value).
        unsafe {
            core::arch::asm!(
                "svc 0",
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                in("x8") nr,
                options(nostack),
            );
        }
        ret
    }

    pub fn epoll_create1(flags: u64) -> i64 {
        unsafe { syscall6(NR_EPOLL_CREATE1, flags, 0, 0, 0, 0, 0) }
    }

    pub fn epoll_ctl(epfd: i32, op: u64, fd: i32, event: *mut EpollEvent) -> i64 {
        unsafe { syscall6(NR_EPOLL_CTL, epfd as u64, op, fd as u64, event as u64, 0, 0) }
    }

    pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, max: usize, timeout_ms: i32) -> i64 {
        // epoll_pwait(epfd, events, maxevents, timeout, sigmask=NULL, _):
        // with a null sigmask the kernel ignores the size argument and the
        // call degenerates to classic epoll_wait.
        unsafe {
            syscall6(
                NR_EPOLL_PWAIT,
                epfd as u64,
                events as u64,
                max as u64,
                timeout_ms as u64,
                0,
                0,
            )
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    //! Stub so the crate still builds where the loop cannot run; callers
    //! gate on [`super::supported`] before constructing an [`super::Epoll`].
    use super::EpollEvent;

    const ENOSYS: i64 = -38;

    pub fn epoll_create1(_flags: u64) -> i64 {
        ENOSYS
    }

    pub fn epoll_ctl(_epfd: i32, _op: u64, _fd: i32, _event: *mut EpollEvent) -> i64 {
        ENOSYS
    }

    pub fn epoll_wait(_epfd: i32, _events: *mut EpollEvent, _max: usize, _timeout_ms: i32) -> i64 {
        ENOSYS
    }
}

fn check(ret: i64) -> io::Result<i64> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(
            i32::try_from(-ret).unwrap_or(22), // 22 = EINVAL
        ))
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance. Dropping it closes the fd; kernel-side
/// interest entries for still-open sockets die with it.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    ///
    /// # Errors
    ///
    /// The raw OS error (`ENOSYS` on unsupported targets).
    pub fn new() -> io::Result<Epoll> {
        let fd = check(imp::epoll_create1(EPOLL_CLOEXEC))?;
        // SAFETY: the kernel just handed us exclusive ownership of this fd.
        let fd = unsafe { OwnedFd::from_raw_fd(fd as RawFd) };
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: u64, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        check(imp::epoll_ctl(self.fd.as_raw_fd(), op, fd, evp)).map(|_| ())
    }

    /// Registers `fd` with the given interest mask and token.
    ///
    /// # Errors
    ///
    /// The raw OS error (`EEXIST` if already registered, …).
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Rewrites the interest mask (and token) for a registered `fd`.
    ///
    /// # Errors
    ///
    /// The raw OS error (`ENOENT` if not registered, …).
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`. Closing the socket does this implicitly; the
    /// explicit form exists for connections parked without being closed.
    ///
    /// # Errors
    ///
    /// The raw OS error.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (-1 = forever, 0 = poll) for readiness,
    /// filling `events` from the front. Returns the number filled; an
    /// interrupted wait (`EINTR`) reports `0` rather than an error so the
    /// caller's loop just re-evaluates its deadlines.
    ///
    /// # Errors
    ///
    /// The raw OS error for anything other than `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        match check(imp::epoll_wait(
            self.fd.as_raw_fd(),
            events.as_mut_ptr(),
            events.len(),
            timeout_ms,
        )) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn event_struct_matches_kernel_abi() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12, "packed on x86_64");
        #[cfg(target_arch = "aarch64")]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
    }

    #[test]
    fn wait_times_out_on_idle_listener() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn readiness_reports_the_registered_token() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 42).unwrap();
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.write_all(b"x").unwrap();
        let mut events = [EpollEvent::default(); 4];
        let n = ep.wait(&mut events, 2_000).unwrap();
        assert_eq!(n, 1);
        let (mask, token) = events[0].parts();
        assert_eq!(token, 42);
        assert_ne!(mask & EPOLLIN, 0);
    }

    #[test]
    fn modify_and_delete_roundtrip() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fd = listener.as_raw_fd();
        ep.add(fd, EPOLLIN, 1).unwrap();
        assert!(ep.add(fd, EPOLLIN, 1).is_err(), "double add is EEXIST");
        ep.modify(fd, EPOLLIN | EPOLLOUT, 2).unwrap();
        ep.delete(fd).unwrap();
        assert!(ep.modify(fd, EPOLLIN, 3).is_err(), "gone after delete");
    }
}
