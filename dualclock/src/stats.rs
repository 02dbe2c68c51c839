//! Sample statistics and `/proc` parsers. Pure functions, unit-tested.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Samples that must lie strictly beyond the tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it. By nearest rank that is the 11th
/// largest sample, at percentile `100·(n−10)/n`. With ten samples or fewer
/// no percentile qualifies, and the maximum is returned at percentile 100.
///
/// Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s[n - 1], 100.0);
    }
    let idx = n - 1 - TAIL_BEYOND;
    (s[idx], 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// On-CPU nanoseconds of a thread: the first field of
/// `/proc/thread-self/schedstat` (`<on-cpu ns> <wait ns> <timeslices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The calling thread's on-CPU nanoseconds so far, or `None` where the
/// kernel does not expose schedstat.
pub fn thread_cpu_ns() -> Option<u64> {
    parse_schedstat(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Hypervisor steal from `/proc/stat`: the `steal` field of the aggregate
/// `cpu` line (in USER_HZ ticks, summed over CPUs) and the number of
/// per-CPU `cpuN` lines.
pub fn parse_steal(stat: &str) -> Option<(u64, usize)> {
    let mut lines = stat.lines();
    let total = lines.next()?;
    let mut fields = total.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let steal = fields.nth(7)?.parse().ok()?;
    let cpus = lines
        .take_while(|l| l.starts_with("cpu"))
        .filter(|l| l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    Some((steal, cpus.max(1)))
}

/// `/proc/stat` counts in USER_HZ, which is 100 on Linux.
const USER_HZ: f64 = 100.0;

/// Wall seconds the hypervisor has taken from this machine's CPUs so far,
/// per CPU (0 where `/proc/stat` has no steal field). A step's wall minus
/// the growth of this is the time the step would have taken on CPUs of its
/// own; the resolution is one tick, 10 ms.
pub fn stolen_secs_per_cpu() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .map_or(0.0, |(ticks, cpus)| ticks as f64 / USER_HZ / cpus as f64)
}

/// Peak resident set in kB: the `VmHWM:` line of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// This process's peak resident set in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let kb = parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)?;
    Some(kb as f64 * 1024.0 / 1e6)
}

/// Share of the step wall that no layer span explains:
/// `1 − Σ layer self seconds ÷ (lanes × step wall)`. `lanes` is the number
/// of threads whose self times are summed (the ranks of a train step, 1 for
/// the host-sequential pipeline).
pub fn residual_share(layer_self_secs: &[f64], lanes: usize, step_wall_secs: f64) -> f64 {
    assert!(
        lanes > 0 && step_wall_secs > 0.0,
        "residual of an empty step"
    );
    1.0 - layer_self_secs.iter().sum::<f64>() / (lanes as f64 * step_wall_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(tail(&rev), (v, p));
    }

    #[test]
    fn tail_is_the_eleventh_largest() {
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 15.0);
        assert_eq!(p, 60.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        // One more sample moves the percentile up continuously.
        let (_, p2) = tail(&(1..=26).map(f64::from).collect::<Vec<_>>());
        assert!(p2 > p);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&[2.0, 5.0, 1.0]), (5.0, 100.0));
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), (9.0, 100.0));
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), (0.0, 100.0 / 11.0));
    }

    #[test]
    fn schedstat_parses_on_cpu_ns() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn schedstat_of_this_thread_grows() {
        // The kernel folds running time into the counter at scheduler
        // ticks, so spin for several of them.
        if let Some(a) = thread_cpu_ns() {
            let t = std::time::Instant::now();
            while t.elapsed().as_millis() < 50 {
                std::hint::spin_loop();
            }
            let b = thread_cpu_ns().expect("schedstat vanished");
            assert!(b > a, "on-CPU time did not grow: {a} -> {b}");
        }
    }

    #[test]
    fn steal_parses_total_and_cpu_count() {
        let stat = "cpu  558667 0 118668 361361 3164 0 379 33910 0 0\n\
                    cpu0 279333 0 59334 180680 1582 0 189 16955 0 0\n\
                    cpu1 279334 0 59334 180681 1582 0 190 16955 0 0\n\
                    intr 1 2 3\n";
        assert_eq!(parse_steal(stat), Some((33_910, 2)));
        // Kernels without the steal column.
        assert_eq!(
            parse_steal("cpu  1 2 3 4 5 6 7\ncpu0 1 2 3 4 5 6 7\n"),
            None
        );
        assert_eq!(parse_steal("intr 1\n"), None);
    }

    #[test]
    fn vm_hwm_parses_kb() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t   86796 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(86_796));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB"), None);
    }

    #[test]
    fn residual_share_arithmetic() {
        // Two ranks, a 1 s step: 1.5 rank-seconds explained of 2.
        assert!((residual_share(&[1.0, 0.25, 0.25], 2, 1.0) - 0.25).abs() < 1e-12);
        // Fully explained.
        assert_eq!(residual_share(&[0.5, 0.5], 1, 1.0), 0.0);
        // Nothing explained.
        assert_eq!(residual_share(&[], 8, 2.0), 1.0);
        // Over-attribution (overlapping spans) reads negative, not clamped.
        assert!(residual_share(&[3.0], 2, 1.0) < 0.0);
    }
}
