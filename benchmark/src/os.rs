//! Process and thread accounting read from the kernel (Linux only, like
//! the loopback rig itself): CPU clocks, fault and context-switch
//! counters, resident set size, and the environment block.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) and both clock ids are defined
    // for every process and thread.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread — and every thread it spawns from now
/// on, which inherit the mask — to `cpus`. Returns whether the kernel
/// accepted it.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    !cpus.is_empty() && unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } == 0
}

/// Process-wide fault and context-switch counters.
#[derive(Clone, Copy, Debug)]
pub struct ProcCounters {
    /// Minor page faults (no I/O): first touches of mmap'd table pages,
    /// fresh heap pages.
    pub minflt: u64,
    /// Voluntary + involuntary context switches.
    pub ctxsw: u64,
}

/// Snapshot [`ProcCounters`] for the whole process.
pub fn proc_counters() -> ProcCounters {
    // SAFETY: all-zero is a valid `Rusage` (plain integers), the pointer
    // is to that writable local, and its layout matches the kernel's
    // 64-bit `struct rusage` field for field.
    let ru = unsafe {
        let mut ru: Rusage = std::mem::zeroed();
        let rc = getrusage(RUSAGE_SELF, &mut ru);
        assert_eq!(rc, 0, "getrusage failed");
        ru
    };
    ProcCounters {
        minflt: ru.ru_minflt as u64,
        ctxsw: (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
    }
}

/// Resident set size in MiB (`VmRSS` of `/proc/self/status`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment every number must be read next to, as JSON members
/// (no surrounding braces).
pub fn environment_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"nproc\":{},\"cpu\":\"{}\",\"commit\":\"{}\",\"rustc\":\"{}\",\
         \"note\":\"server threads pinned to the first allowed cpu, load generator to the rest\"",
        nproc(),
        cpu.replace('"', "'"),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_thread_is_within_process() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let (p1, t1) = (process_cpu_ns(), thread_cpu_ns());
        assert!(t1 > t0, "thread clock did not advance");
        assert!(p1 - p0 >= (t1 - t0) / 2, "process clock lags its thread");
    }

    #[test]
    fn pinning_narrows_the_mask_and_spawned_threads_inherit_it() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        let inherited = std::thread::spawn(move || {
            assert!(pin_current_thread(&before[..1]));
            let child = std::thread::spawn(allowed_cpus).join().expect("child");
            (allowed_cpus(), child, before)
        })
        .join()
        .expect("pinned thread");
        assert_eq!(inherited.0, inherited.2[..1]);
        assert_eq!(inherited.1, inherited.2[..1]);
    }

    #[test]
    fn counters_and_rss_are_populated() {
        let page = vec![1u8; 1 << 22];
        std::hint::black_box(&page);
        assert!(proc_counters().minflt > 0);
        assert!(rss_mb() > 1.0);
    }
}
