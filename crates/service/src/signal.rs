//! Minimal signal handling for graceful server shutdown, without libc.
//!
//! The accept loop wants "did the operator press Ctrl-C / send
//! SIGTERM?" as a *pollable* condition, not an asynchronous handler:
//! an async handler would need a registered restorer trampoline
//! (`rt_sigaction`'s `SA_RESTORER` contract on x86_64) and careful
//! async-signal-safety. Instead the server **blocks** SIGINT and
//! SIGTERM on all threads (signal masks are inherited), then consumes
//! pending ones with a zero-timeout `rt_sigtimedwait` once per accept
//! iteration, through raw `syscall` instructions (the workspace carries
//! no libc dependency). On non-x86_64-Linux
//! targets both calls are no-ops and shutdown happens via the
//! `shutdown` request only.

/// SIGINT | SIGTERM as a kernel sigset bitmask (bit `sig-1`).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const MASK: u64 = (1 << (2 - 1)) | (1 << (15 - 1));

/// Block SIGINT/SIGTERM for the calling thread (and every thread it
/// subsequently spawns). Returns `true` on success. Call before
/// spawning workers so the mask is process-wide in practice.
pub fn block_shutdown_signals() -> bool {
    imp::block()
}

/// Consume a pending (blocked) SIGINT/SIGTERM without waiting. `true`
/// when one was delivered since the last poll.
pub fn shutdown_signal_pending() -> bool {
    imp::poll()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::MASK;

    /// `rt_sigprocmask(SIG_BLOCK, &mask, NULL, 8)` — raw syscall, no
    /// libc in the workspace; the kernel ABI is stable.
    pub fn block() -> bool {
        let mask = [MASK];
        let ret: i64;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 14i64 => ret,   // __NR_rt_sigprocmask
                in("rdi") 0i64,                  // SIG_BLOCK
                in("rsi") mask.as_ptr(),
                in("rdx") 0i64,                  // oldset = NULL
                in("r10") 8i64,                  // sizeof(kernel sigset_t)
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }

    /// `rt_sigtimedwait(&mask, NULL, &{0,0}, 8)` — returns the signal
    /// number if one of `mask` is pending, else `-EAGAIN` immediately
    /// (zero timeout).
    pub fn poll() -> bool {
        let mask = [MASK];
        let timeout = [0i64; 2]; // struct timespec { 0, 0 }
        let ret: i64;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 128i64 => ret,  // __NR_rt_sigtimedwait
                in("rdi") mask.as_ptr(),
                in("rsi") 0i64,                  // siginfo = NULL
                in("rdx") timeout.as_ptr(),
                in("r10") 8i64,                  // sizeof(kernel sigset_t)
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret > 0
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    pub fn block() -> bool {
        false
    }

    pub fn poll() -> bool {
        false
    }
}
