//! Peak resident memory of this process and of the worker processes it
//! spawned and reaped (64-bit Linux).

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    /// `ru_utime` and `ru_stime`, two `struct timeval`s.
    _times: [i64; 4],
    /// `ru_maxrss`, in KiB.
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The largest peak resident set, in MiB, of this process and of every child
/// it has reaped.
///
/// This process's own peak is `VmHWM`, which covers only its own address
/// space; `ru_maxrss` of `RUSAGE_SELF` would also count the launcher's
/// memory from before `exec`. A child's `ru_maxrss` may likewise include
/// this process's resident set at spawn time, which never exceeds this
/// process's own peak, so the maximum is unaffected.
pub fn peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let own_kib: i64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    let mut usage = Rusage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` with the 64-bit
    // Linux layout, and `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    let children_kib = if rc == 0 { usage.maxrss } else { 0 };
    Some(own_kib.max(children_kib) as f64 / 1024.0)
}
