//! CPU placement: the system under test on some CPUs, the benchmark's
//! client threads each on one, so the scheduler cannot stack them onto one
//! core or move them between cores mid-run.

use std::sync::OnceLock;

/// A CPU set as the kernel's `cpu_set_t` bitmask (1024 CPUs).
type CpuMask = [u64; 16];

fn mask_of(cpus: &[usize]) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    mask
}

/// The CPUs the process started on, in ascending order; empty off Linux or
/// when the kernel does not say.
fn started_on() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        if !get_affinity(&mut mask) {
            return Vec::new();
        }
        (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    })
}

#[cfg(target_os = "linux")]
fn get_affinity(mask: &mut CpuMask) -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    unsafe { sched_getaffinity(0, std::mem::size_of_val(mask), mask.as_mut_ptr()) == 0 }
}

/// Restricts the calling thread, and every thread it starts from now on,
/// to `mask`.
#[cfg(target_os = "linux")]
fn pin(mask: &CpuMask) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: the kernel reads `size` bytes from `mask`; it changes only
    // the calling thread's affinity.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn get_affinity(_: &mut CpuMask) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
fn pin(_: &CpuMask) {}

/// Runs `build` on every CPU but the first, so every thread it starts
/// stays there, then moves the calling thread, which goes on to run the
/// client, to the first CPU. With fewer than two CPUs, just runs `build`.
pub fn apart<T>(build: impl FnOnce() -> T) -> T {
    let cpus = started_on();
    if cpus.len() < 2 {
        return build();
    }
    pin(&mask_of(&cpus[1..]));
    let out = build();
    pin(&mask_of(&cpus[..1]));
    out
}

/// Pins the calling thread, client `c` of a closed loop, to the `c`-th CPU
/// (round robin). With fewer than two CPUs, does nothing.
pub fn pin_client(c: usize) {
    let cpus = started_on();
    if cpus.len() >= 2 {
        pin(&mask_of(&[cpus[c % cpus.len()]]));
    }
}
