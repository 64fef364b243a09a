//! Host facts and process accounting read from outside the program:
//! CPU time, peak resident memory, core count, CPU model.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const WNOHANG: i32 = 1;

/// CPU time (user + system) this process has used so far, all threads
/// included — threads that already exited too.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout on
    // 64-bit Linux, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Return the memory earlier rounds freed to the kernel, so each round
/// starts from a trimmed heap.
pub fn release_free_memory() {
    // SAFETY: glibc's malloc_trim takes a byte count and only walks the
    // allocator's own free lists; it has no memory preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// What a child process used over its whole life, all threads included.
#[derive(Clone, Copy, Debug)]
pub struct ChildUsage {
    /// User + system CPU time.
    pub cpu: Duration,
    /// Peak resident memory, MiB.
    pub peak_rss_mib: f64,
    /// It exited normally with status 0.
    pub exited_ok: bool,
}

/// Reap child `pid` once it has exited (`block`: wait for it) and
/// return its resource usage; `None` while it still runs. The caller
/// must own `pid` as an unreaped child, and must not reap it any other
/// way.
pub fn reap(pid: u32, block: bool) -> Option<ChildUsage> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid, writable, and laid out as
        // wait4 expects on 64-bit Linux.
        let rc = unsafe {
            wait4(
                pid as i32,
                &mut status,
                if block { 0 } else { WNOHANG },
                &mut ru,
            )
        };
        if rc == pid as i32 {
            break;
        }
        if rc == -1 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted {
            continue;
        }
        return None;
    }
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
    Some(ChildUsage {
        cpu: tv(&ru.utime) + tv(&ru.stime),
        peak_rss_mib: ru.maxrss_kib as f64 / 1024.0,
        exited_ok: status == 0,
    })
}

/// `(steal, total)` CPU ticks of the whole host from `/proc/stat`: time
/// the hypervisor gave this machine's virtual CPUs to someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_advances_with_work() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > a);
    }

    #[test]
    #[allow(clippy::zombie_processes)] // `reap` waits for it.
    fn reap_reports_a_childs_cpu_and_memory() {
        let child = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .spawn()
            .unwrap();
        let usage = reap(child.id(), true).unwrap();
        assert!(usage.cpu > Duration::ZERO);
        assert!(usage.peak_rss_mib > 0.0);
        assert!(usage.exited_ok);
        let failing = std::process::Command::new("sh")
            .args(["-c", "exit 3"])
            .spawn()
            .unwrap();
        assert!(!reap(failing.id(), true).unwrap().exited_ok);
    }
}
