//! The host clock of the benchmark's timings: CPU time of the whole
//! process (`CLOCK_PROCESS_CPUTIME_ID`), summed over all its threads.
//!
//! On a virtual machine, wall time also counts the time the hypervisor
//! gives this CPU to other guests (steal time), which comes and goes
//! with their load. CPU time leaves it out, and otherwise equals the
//! wall time of single-threaded work that never blocks, which is what
//! the program's calls are. Run length is still kept by wall time.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// A reading of the process CPU clock, used like `std::time::Instant`.
#[derive(Clone, Copy, Debug)]
pub struct CpuTime(Duration);

impl CpuTime {
    pub fn now() -> CpuTime {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // Safety: `ts` is a valid, writable `struct timespec` (two
        // 64-bit fields on 64-bit Linux), and the clock id is a
        // constant every Linux kernel supports.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuTime(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    pub fn elapsed(&self) -> Duration {
        CpuTime::now().0.saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t = CpuTime::now();
        let mut x = 0u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(x > 0);
        assert!(t.elapsed() > Duration::ZERO);
    }
}
