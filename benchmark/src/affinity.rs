//! Pins every thread of this process to one CPU for a serial measurement.
//!
//! With one transaction in flight exactly one thread is runnable at a time,
//! so nothing is lost by sharing a CPU — but a hand-off between threads on
//! different CPUs of a small VM costs a cross-CPU wake-up of about 20 us,
//! against about 1 us for a context switch on one CPU, and which of the two a
//! process gets is decided by where the scheduler happens to put its threads.
//! Pinned, the serial phases and the two-thread probes measure the
//! software's hand-off cost and repeat from run to run.

use std::fs;

/// `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_every_thread(set: &CpuSet) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return };
    for tid in tasks.flatten().filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: `set` points to a live, correctly sized `cpu_set_t` for
        // the duration of the call, and the call only reads it. A thread that
        // has exited in the meantime makes the call fail, which is harmless.
        unsafe { sched_setaffinity(tid, size_of::<CpuSet>(), set.as_ptr()) };
    }
}

/// While alive, every thread that existed at [`pin_to_one_cpu`] and every
/// thread spawned since runs on one CPU; dropping it gives all threads the
/// previous set back.
pub struct Pinned {
    previous: CpuSet,
}

/// Pins all current threads to the highest CPU this process may use (the
/// lowest one tends to serve interrupts). Returns `None`, and changes
/// nothing, where the affinity cannot be read.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut previous: CpuSet = [0; 16];
    // SAFETY: `previous` is a live, writable `cpu_set_t` of the size passed.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), previous.as_mut_ptr()) } != 0 {
        eprintln!("warning: cannot read the CPU affinity; serial phases run unpinned");
        return None;
    }
    let (word, bits) = previous.iter().enumerate().rev().find(|(_, bits)| **bits != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    set_every_thread(&one);
    Some(Pinned { previous })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_every_thread(&self.previous);
    }
}
