//! Sample statistics and the `/proc` readers behind `cpu_ms_per_op` and
//! `peak_rss_mb`. The statistics and parsers are pure functions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Median of `xs` (mean of the middle two for an even count). Panics on an
/// empty slice: every caller has at least one sample by construction.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `xs`: the best-of-N estimate of a cost that outside load can
/// only ever inflate.
pub fn best(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "best of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of each key's best latency. A plain median over
/// heterogeneous ops sits on the cliff between two apps; this moves with
/// every key.
pub fn geomean_of_best(per_key: &[Vec<f64>]) -> f64 {
    let keys: Vec<&Vec<f64>> = per_key.iter().filter(|k| !k.is_empty()).collect();
    assert!(!keys.is_empty(), "geomean of no keys");
    let log_sum: f64 = keys.iter().map(|k| best(k).ln()).sum();
    (log_sum / keys.len() as f64).exp()
}

/// Cost of the slowest op kinds: the mean, over the slowest tenth of the keys,
/// of each key's best latency. A percentile over the individual samples
/// measures the machine's neighbours more than the program (on the reference
/// container it moved by 7 to 34 % between runs of the same binary), and a
/// single percentile over the keys sits on the cliff between two op kinds.
pub fn tail_over_keys(per_key: &[Vec<f64>]) -> f64 {
    let mut bests: Vec<f64> = per_key.iter().filter(|k| !k.is_empty()).map(|k| best(k)).collect();
    assert!(!bests.is_empty(), "tail of no keys");
    bests.sort_by(f64::total_cmp);
    let slowest = &bests[bests.len() - bests.len().div_ceil(10)..];
    slowest.iter().sum::<f64>() / slowest.len() as f64
}

/// Kernel clock ticks per second. Linux fixes `USER_HZ` at 100 on every
/// mainstream architecture and std has no `sysconf`.
const CLK_TCK: f64 = 100.0;

/// utime + stime of a `/proc/<pid>/stat` line, in milliseconds. The command
/// name may contain spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn cpu_ms_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command come state (field 3) ... utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1e3 / CLK_TCK)
}

/// `VmRSS` (resident set) of a `/proc/<pid>/status` text, in kB.
pub fn rss_kb_from_status(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time this process has used so far, all threads, in milliseconds.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_ms_from_stat(&s))
        .expect("/proc/self/stat is readable on Linux")
}

fn process_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| rss_kb_from_status(&s))
        .expect("/proc/self/status is readable on Linux")
}

/// Watches this process's resident set from a thread of its own, so that a
/// peak can be read per round. The kernel's own high-water mark (`VmHWM`)
/// covers the whole process life: with worker threads it records the one
/// moment the most sessions happened to overlap, which differs by a third
/// from run to run; the median of per-round peaks does not.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    const PERIOD: Duration = Duration::from_millis(5);

    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let thread = {
            let (stop, peak_kb) = (stop.clone(), peak_kb.clone());
            std::thread::spawn(move || {
                // Relaxed: the two values publish no other data.
                while !stop.load(Ordering::Relaxed) {
                    peak_kb.fetch_max(process_rss_kb(), Ordering::Relaxed);
                    std::thread::sleep(Self::PERIOD);
                }
            })
        };
        RssSampler { stop, peak_kb, thread: Some(thread) }
    }

    /// Highest resident set seen since the last call, in MB.
    pub fn take_peak_mb(&self) -> f64 {
        self.peak_kb.swap(0, Ordering::Relaxed).max(process_rss_kb()) as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The sampler thread only reads a file and sleeps; if it
            // panicked there is nothing to recover in a destructor.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_is_the_mean_of_the_slowest_tenth_of_keys_at_their_best() {
        // Key i has best latency i; its slow repeats do not count.
        let keys = |n: u32| -> Vec<Vec<f64>> {
            (1..=n).map(|i| vec![f64::from(i) * 3.0, f64::from(i)]).collect()
        };
        assert_eq!(tail_over_keys(&keys(40)), (37.0 + 38.0 + 39.0 + 40.0) / 4.0);
        assert_eq!(tail_over_keys(&keys(27)), 26.0, "3 of 27 keys");
        assert_eq!(tail_over_keys(&keys(5)), 5.0, "never fewer than one key");
    }

    #[test]
    fn geomean_uses_each_keys_best() {
        // Bests 1 and 100; a slow repeat of either key moves nothing, and a
        // key without samples is left out.
        let keys = vec![vec![1.0, 3.0, 1000.0], vec![140.0, 100.0, 110.0], vec![]];
        assert!((geomean_of_best(&keys) - 10.0).abs() < 1e-9);
        assert_eq!(best(&[2.0, 0.5, 20.0]), 0.5);
    }

    #[test]
    fn stat_parser_survives_spaces_and_parens_in_comm() {
        let stat = "4242 (dp cons) bench) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    150 25 0 0 20 0 3 0 1234 1000000 500 18446744073709551615";
        assert_eq!(cpu_ms_from_stat(stat), Some(1750.0));
        assert_eq!(cpu_ms_from_stat("no paren here"), None);
    }

    #[test]
    fn status_parser_reads_vmrss() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(rss_kb_from_status(status), Some(1000));
        assert_eq!(rss_kb_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn sampler_sees_a_buffer_that_lived_between_two_reads() {
        assert!(process_cpu_ms() >= 0.0);
        let sampler = RssSampler::start();
        let before = sampler.take_peak_mb();
        let buf = vec![1u8; 64 << 20];
        std::thread::sleep(RssSampler::PERIOD * 10);
        assert_eq!(std::hint::black_box(&buf)[buf.len() - 1], 1);
        drop(buf);
        let peak = sampler.take_peak_mb();
        assert!(peak >= before + 60.0, "peak {peak} MB after {before} MB");
        // The buffer is gone: the next reading starts afresh.
        assert!(sampler.take_peak_mb() < peak - 30.0);
    }
}
