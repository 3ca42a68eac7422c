//! Process-level measurements: CPU time and peak RSS from
//! `getrusage(RUSAGE_SELF)`, live thread count from `/proc/self/status`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// CPU time consumed by the whole process (all threads, live and
/// exited) and its resident-set high-water mark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    pub maxrss_kb: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss_kb: 0,
            rest: [0; 13],
        };
        // SAFETY: `ru` is a properly aligned, writable `struct rusage`
        // of the 64-bit Linux layout (2 timevals + 14 longs, 144 bytes);
        // getrusage writes only within it and keeps no pointer.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        if rc != 0 {
            return Usage::default();
        }
        let tv = |t: &Timeval| Duration::new(t.sec.max(0) as u64, (t.usec.max(0) as u32) * 1000);
        Usage { user: tv(&ru.utime), sys: tv(&ru.stime), maxrss_kb: ru.maxrss_kb.max(0) as u64 }
    }

    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }
}

/// Live thread count of this process.
pub fn threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:").and_then(|v| v.trim().parse().ok()))
        })
        .unwrap_or(0)
}

/// Samples the thread count every `SAMPLE_EVERY` until finished,
/// keeping the maximum: a round's peak, which a before/after reading
/// misses. Runtime threads live for most of a round, so a coarse period
/// catches them while costing the round little.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(threads()));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                // The sampler itself is not a runtime thread.
                p.fetch_max(threads().saturating_sub(1), Ordering::Relaxed);
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        ThreadSampler { stop, peak, handle: Some(handle) }
    }

    /// Stops the sampler and returns the peak it saw.
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("thread sampler panicked");
        }
        self.peak.load(Ordering::Relaxed)
    }
}
