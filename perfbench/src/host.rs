//! Process and host counters read from Linux `/proc`.

use std::fs;

/// Kernel clock ticks per second of the `/proc/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds of a POSIX CPU-time clock, at nanosecond resolution.
fn cpu_clock_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable timespec for the whole call.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds of this process, all threads included
/// (exited threads too): `CLOCK_PROCESS_CPUTIME_ID`.
pub fn cpu_seconds() -> f64 {
    cpu_clock_seconds(2)
}

/// User + system CPU seconds of the calling thread:
/// `CLOCK_THREAD_CPUTIME_ID`.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock_seconds(3)
}

/// A `kB` line of `/proc/self/status`, in bytes.
fn status_bytes(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|line| line.starts_with(key))
        .unwrap_or_else(|| panic!("/proc/self/status has no {key}"));
    let kib: u64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("numeric kB field");
    kib * 1024
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_bytes("VmHWM:") as f64 / (1024.0 * 1024.0)
}

/// Current resident set size (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// Host-wide steal time so far (summed over CPUs), in seconds: time the
/// hypervisor ran something else while this guest wanted a CPU.
pub fn steal_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace()
        .nth(8)
        .and_then(|field| field.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// Milliseconds of a fixed single-threaded integer loop that touches no
/// memory: a probe of the host's current speed, independent of the suite's
/// code, for the noise record.
pub fn reference_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..20_000_000u64 {
        x = (x ^ (x >> 29) ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
