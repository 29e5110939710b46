//! Process clocks and memory counters read straight from the kernel.
//!
//! CPU time comes from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, which
//! has nanosecond resolution. `/proc/self/stat` counts in 10 ms ticks,
//! which put ±2.5% of quantisation on a 0.4 s window.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User plus system CPU time of the whole process (every thread), in
/// seconds.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel always supports.
    #[allow(unsafe_code)]
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Hands freed heap back to the kernel, so the RSS baseline taken next
/// does not hide retained pages a later run would reuse.
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim only releases free memory; it has no
    // preconditions.
    #[allow(unsafe_code)]
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the process's peak RSS (`VmHWM`) to its current RSS.
///
/// # Errors
///
/// When `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
#[must_use]
pub fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
        Some(kb * 1024)
    })
}

/// Clock ticks (`USER_HZ`, normally 100 a second) during which the
/// hypervisor ran something else while this machine's CPUs wanted to
/// run: the `steal` column of the `cpu` line of `/proc/stat`. `None`
/// where the kernel does not report it.
#[must_use]
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}
