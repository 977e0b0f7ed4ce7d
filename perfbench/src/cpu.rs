//! The process's CPU clock: user plus system time of every thread, live and
//! exited, read through `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
//!
//! The timed run measures CPU time rather than wall-clock: on a host shared
//! with other tenants, the wall-clock of Hadar's default round path is
//! dominated by how quickly its short-lived worker threads get a core, while
//! the CPU time is the work the program itself does.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads the Linux process CPU clock");

use std::ffi::{c_int, c_long};

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds this process has used so far, all threads included.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::process_cpu_s;

    #[test]
    fn clock_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() > t0, "{x}");
    }
}
