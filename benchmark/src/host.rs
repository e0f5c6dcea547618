//! Host-side facts and helpers: timer cost, peak RSS, parallelism, the
//! deterministic fill pattern, and the repetition loop.

use std::time::{Duration, Instant};

/// Cost of one `Instant::now()` pair in nanoseconds: the mean of 4096
/// back-to-back readings without the slowest twentieth (an interrupt, a
/// lost CPU). Not their median: the readings are whole nanoseconds in steps
/// of the clock's own, and most of them are the same one.
/// Subtracted from every per-call span.
pub fn timer_ns() -> f64 {
    let mut deltas: Vec<f64> = (0..4096)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    deltas.sort_by(f64::total_cmp);
    let kept = &deltas[..deltas.len() * 19 / 20];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the host grants this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Fills `buf` with bytes that depend on `seed` and the offset, eight at a
/// time (SplitMix64 of the word index): the window contents every returned
/// byte is checked against.
pub fn fill_pattern(buf: &mut [u8], seed: u64) {
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        let word =
            clampi_prng::SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .next_u64()
                .to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user and system) this process has used so far, summed over
/// all its threads, living and ended.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread — and every thread it starts from now on —
/// to one of the CPUs it may run on (the one it is on), and returns that
/// CPU's number; `None`, and no change, where the host refuses.
///
/// Why: the ranks of a simulated run are threads that read each other's
/// windows and wake each other at barriers. Across two virtual CPUs of a
/// shared host the price of a cache line or a wake-up depends on where the
/// hypervisor happens to run them, and repetitions of identical work spread
/// by 15-25 %; on one CPU the threads take turns and the same repetitions
/// spread by 2-5 %. What is measured is then the work the code does, not
/// how well the host overlaps it.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a live, writable buffer of the `size` bytes
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let is_allowed = |cpu: usize| cpu < 1024 && allowed[cpu / 64] >> (cpu % 64) & 1 == 1;
    // SAFETY: no arguments, no memory touched.
    let here = usize::try_from(unsafe { sched_getcpu() }).ok();
    let cpu = here
        .filter(|&cpu| is_allowed(cpu))
        .or_else(|| (0..1024).find(|&cpu| is_allowed(cpu)))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the `size` bytes passed, only read.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// What the repetitions of one run took, one entry per repetition.
#[derive(Debug, Clone, Default)]
pub struct Reps {
    /// Wall seconds.
    pub walls: Vec<f64>,
    /// CPU seconds of the whole process ([`cpu_seconds`]).
    pub cpus: Vec<f64>,
    /// CPU seconds of the baseline that followed each repetition (empty
    /// where none ran: [`timed_reps`]).
    pub base_cpus: Vec<f64>,
}

impl Reps {
    pub fn len(&self) -> usize {
        self.walls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.walls.is_empty()
    }

    /// Appends `other`'s repetitions.
    pub fn extend(&mut self, other: Reps) {
        self.walls.extend(other.walls);
        self.cpus.extend(other.cpus);
        self.base_cpus.extend(other.base_cpus);
    }

    /// Runs `rep` once and records what it took.
    pub fn time(&mut self, rep: impl FnOnce()) {
        let (wall, cpu) = (Instant::now(), cpu_seconds());
        rep();
        self.cpus.push(cpu_seconds() - cpu);
        self.walls.push(wall.elapsed().as_secs_f64());
    }

    /// Runs the baseline of the repetition just timed and records its CPU
    /// seconds.
    pub fn time_baseline(&mut self, baseline: impl FnOnce()) {
        let cpu = cpu_seconds();
        baseline();
        self.base_cpus.push(cpu_seconds() - cpu);
    }
}

/// Which half of a pair [`timed_pairs`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// The repetition that is measured.
    Measured,
    /// The same operations on the path the measured one is compared with.
    Baseline,
}

/// Runs `rep` until `seconds` have passed — at least `min_reps` times — and
/// returns what each repetition took. Every repetition does the same fixed
/// amount of work; the time limit only decides how many are taken.
pub fn timed_reps(seconds: f64, min_reps: usize, mut rep: impl FnMut()) -> Reps {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut reps = Reps::default();
    while reps.len() < min_reps || Instant::now() < deadline {
        reps.time(&mut rep);
    }
    reps
}

/// [`timed_reps`] with every repetition followed at once by its baseline:
/// the two halves of a pair meet the same host, so their ratio holds still
/// where neither of them does.
pub fn timed_pairs(seconds: f64, min_reps: usize, mut rep: impl FnMut(Half)) -> Reps {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut reps = Reps::default();
    while reps.len() < min_reps || Instant::now() < deadline {
        reps.time(|| rep(Half::Measured));
        reps.time_baseline(|| rep(Half::Baseline));
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_depends_on_seed_and_offset() {
        let mut a = vec![0u8; 100];
        let mut b = vec![0u8; 100];
        fill_pattern(&mut a, 1);
        fill_pattern(&mut b, 1);
        assert_eq!(a, b);
        fill_pattern(&mut b, 2);
        assert_ne!(a, b);
        assert_ne!(a[..8], a[8..16]);
    }

    #[test]
    fn timed_reps_honours_the_minimum_and_the_deadline() {
        let mut n = 0;
        let reps = timed_reps(0.0, 3, || n += 1);
        assert_eq!((reps.len(), reps.cpus.len(), n), (3, 3, 3));
        let reps = timed_reps(0.02, 1, || std::thread::sleep(Duration::from_millis(5)));
        assert!(reps.len() >= 2 && reps.walls.iter().all(|w| *w >= 0.005));
        assert!(reps.cpus.iter().all(|c| *c >= 0.0));
    }

    #[test]
    fn timed_pairs_alternate_the_halves() {
        let mut order = Vec::new();
        let reps = timed_pairs(0.0, 2, |half| order.push(half));
        assert_eq!((reps.len(), reps.base_cpus.len()), (2, 2));
        assert_eq!(
            order,
            [
                Half::Measured,
                Half::Baseline,
                Half::Measured,
                Half::Baseline
            ]
        );
    }

    #[test]
    fn cpu_clock_counts_work() {
        // Other tests' threads are charged to the same clock, so only a
        // lower limit holds: spinning for 20 ms of wall time on a CPU the
        // host may take away at any moment costs some CPU time.
        let (wall, cpu) = (Instant::now(), cpu_seconds());
        while wall.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        assert!(cpu_seconds() - cpu > 0.001);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        // In a thread of its own: the pin outlives the call.
        std::thread::spawn(|| {
            if pin_to_one_cpu().is_some() {
                assert_eq!(parallelism(), 1);
                let child = std::thread::spawn(parallelism);
                assert_eq!(child.join().expect("child thread"), 1);
            }
        })
        .join()
        .expect("pinned thread");
    }

    #[test]
    fn host_facts_are_sane() {
        assert!(parallelism() >= 1);
        assert!(timer_ns() >= 0.0 && timer_ns() < 10_000.0);
        assert!(rss_peak_mb() >= 0.0);
    }
}
