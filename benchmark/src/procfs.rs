//! What the kernel reports about this process — CPU time, peak resident
//! memory, read/write syscalls, context switches — and the one thing the
//! benchmark asks of it: pinning a workload's threads to one CPU. The
//! parsers take the file text so they can be tested on fixtures.

use std::fs;

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    field(status, "VmHWM:")
}

/// `(voluntary, nonvoluntary)` context switches of one task from its
/// `status` text.
pub fn parse_ctx_switches(status: &str) -> Option<(u64, u64)> {
    Some((
        field(status, "voluntary_ctxt_switches:")?,
        field(status, "nonvoluntary_ctxt_switches:")?,
    ))
}

/// `(syscr, syscw)` — read-like and write-like syscalls — from
/// `/proc/<pid>/io` text.
pub fn parse_io_syscalls(io: &str) -> Option<(u64, u64)> {
    Some((field(io, "syscr:")?, field(io, "syscw:")?))
}

/// First whitespace-separated number after `key` at the start of a line.
fn field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|l| l.strip_prefix(key)?.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let kb = fs::read_to_string("/proc/self/status").ok().and_then(|s| parse_vm_hwm_kb(&s));
    kb.unwrap_or(0) as f64 / 1024.0
}

/// Read-like plus write-like syscalls this process has made so far.
pub fn rw_syscalls() -> u64 {
    let io = fs::read_to_string("/proc/self/io").ok().and_then(|s| parse_io_syscalls(&s));
    io.map_or(0, |(r, w)| r + w)
}

/// Context switches (voluntary + involuntary) summed over the threads
/// alive now. The process-level `status` file covers the main thread
/// only, so the per-task files are summed.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .filter_map(|s| parse_ctx_switches(&s))
        .map(|(v, n)| v + n)
        .sum()
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread is pinned to one CPU while this lives; dropping it
/// restores the CPUs the thread was allowed on before.
#[derive(Debug)]
pub struct Pinned {
    original: CpuSet,
}

/// Pin the calling thread, and every thread it spawns from now on, to
/// the first CPU it is allowed on. `None` (and no change) where the
/// kernel refuses.
///
/// The `live` workload runs under this: on the reference box a wake-up
/// that crosses virtual CPUs costs anything from 10 to 300 µs depending
/// on what the hypervisor does with the idle one, and where the scheduler
/// puts two threads changes from run to run — loads per second moved
/// between 750 and 975 with the threads free and between 1 028 and 1 067
/// on one CPU. Pinned, a load is bound by the CPU work of server and
/// client, which is what a change to the program can move.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut original: CpuSet = [0; 16];
    // SAFETY: `original` is a live, writable buffer of exactly the size
    // passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut original) } != 0 {
        return None;
    }
    let word = original.iter().position(|&w| w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << original[word].trailing_zeros();
    // SAFETY: `one` is a live buffer of exactly the size passed, read only.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(Pinned { original })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `self.original` is a live buffer of exactly the size
        // passed, read only. A failure leaves the thread pinned, which is
        // harmless; `Drop` has nowhere to report it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.original) };
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process (every thread, living
/// or joined) in nanoseconds. `/proc/self/stat` has the same number at
/// 10 ms resolution, which is too coarse for a one-second pass.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, correctly laid out `struct timespec` (two
    // 64-bit fields on every 64-bit Linux target), and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbench\nUmask:\t0022\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\n\
                          VmRSS:\t   10240 kB\nThreads:\t2\nvoluntary_ctxt_switches:\t41\n\
                          nonvoluntary_ctxt_switches:\t7\n";
    const IO: &str = "rchar: 1000\nwchar: 2000\nsyscr: 12\nsyscw: 30\nread_bytes: 0\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(20480));
        assert_eq!(parse_ctx_switches(STATUS), Some((41, 7)));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        // "voluntary…" must not match inside "nonvoluntary…".
        assert_eq!(parse_ctx_switches("nonvoluntary_ctxt_switches:\t7\n"), None);
    }

    #[test]
    fn io_fields_parse() {
        assert_eq!(parse_io_syscalls(IO), Some((12, 30)));
        assert_eq!(parse_io_syscalls("syscr: 1\n"), None);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_dropping_restores() {
        let allowed = || {
            let mut set: CpuSet = [0; 16];
            // SAFETY: as in `pin_to_one_cpu`.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
            assert_eq!(rc, 0);
            set
        };
        let cpus = |set: &CpuSet| set.iter().map(|w| w.count_ones()).sum::<u32>();
        // On its own thread: affinity is per thread, and tests share a pool.
        std::thread::spawn(move || {
            let before = allowed();
            let pinned = pin_to_one_cpu().expect("the kernel lets a thread narrow its own CPUs");
            assert_eq!(cpus(&allowed()), 1);
            let inherited = std::thread::spawn(allowed).join().expect("child thread");
            assert_eq!(cpus(&inherited), 1, "threads spawned while pinned stay on that CPU");
            drop(pinned);
            assert_eq!(allowed(), before);
        })
        .join()
        .expect("pinning thread");
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_ns() > before, "no CPU time for {x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
