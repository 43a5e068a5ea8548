//! Small measurement helpers: percentiles, host facts, a seeded RNG.

use std::time::Instant;

/// Value at quantile `q` (0..=1) of `sorted` by the nearest-rank rule.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank quantile `q`: a tail
/// percentile is reported only when at least ten lie beyond it.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let v = quantile(sorted, q);
    sorted.iter().filter(|&&x| x > v).count()
}

/// One completed op of a measured run.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Latency in milliseconds.
    pub lat_ms: f64,
    /// Items (samples, cells) the op completed.
    pub items: f64,
    /// Index of the [`Slice`] the op ran in.
    pub slice: usize,
}

/// Fewest ops a measured run holds, so its p90 has ten samples beyond
/// it.
pub const MIN_OPS: usize = 100;

/// Length of a measurement slice, seconds. A run is a sequence of
/// slices; after each, the load pauses and the host speed is sampled.
pub const SLICE_S: f64 = 1.0;

/// Iterations of the host-speed calibration loop.
const CAL_ITERS: u64 = 200_000;

/// Calibration loops run after each slice; the slice's host factor is
/// their median.
pub const CAL_SAMPLES: usize = 7;

/// Microseconds one calibration loop takes at the reference host speed:
/// the median on the 2-vCPU Intel Xeon (AVX2) host the benchmark was
/// built on. `ref_ms` and `1/ref_s` are milliseconds and seconds scaled
/// to that speed.
pub const CAL_REF_US: f64 = 340.0;

/// Time of one calibration loop, microseconds: a fixed scalar integer
/// loop that shares no code with the program, so no change to the
/// program moves it.
pub fn calibration_us() -> f64 {
    let t = Instant::now();
    let mut r = Rng::new(std::hint::black_box(CAL_ITERS));
    let mut acc = 0u64;
    for _ in 0..CAL_ITERS {
        acc = acc.wrapping_add(r.next_u64() >> 7);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e6
}

/// How many times slower than the reference the host runs right now: the
/// median of [`CAL_SAMPLES`] calibration loops over [`CAL_REF_US`]. Call
/// it only while the workload is paused.
pub fn host_factor() -> f64 {
    let samples: Vec<f64> = (0..CAL_SAMPLES).map(|_| calibration_us()).collect();
    median(&samples) / CAL_REF_US
}

/// One slice of a measured run.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall time from the slice's start to its last op's completion, s.
    pub wall_s: f64,
    /// [`host_factor`] sampled right after the slice.
    pub host: f64,
}

/// End-to-end statistics of a measured run, in wall-clock units and
/// scaled to the reference host speed.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Items per reference second: items over Σ slice wall / host factor.
    pub items_per_ref_s: f64,
    /// Median of op latency / its slice's host factor, ms.
    pub p50_ref_ms: f64,
    /// p90 of the same.
    pub p90_ref_ms: f64,
    /// Items per wall-clock second.
    pub items_per_s: f64,
    /// Median wall-clock op latency, ms.
    pub p50_ms: f64,
    /// p90 wall-clock op latency, ms.
    pub p90_ms: f64,
    /// Median host factor over the slices.
    pub host: f64,
    /// Ops measured.
    pub ops: usize,
    /// Of those, ops slower than the p90 (reference-scaled).
    pub beyond_p90: usize,
}

impl RunStats {
    /// The wall-clock figures and the host factor, for the notes.
    pub fn wall_clock_note(&self) -> String {
        format!(
            "wall clock: items_per_s {:.3}, op_ms_p50 {:.4}, op_ms_p90 {:.4}; median host \
             factor {:.4} (calibration loop {:.1} us, reference {CAL_REF_US} us)",
            self.items_per_s,
            self.p50_ms,
            self.p90_ms,
            self.host,
            self.host * CAL_REF_US
        )
    }
}

/// Statistics over every op and slice of a run.
///
/// Other tenants of a shared host change its speed by up to ±20% over
/// seconds to minutes, which no run length the benchmark can afford
/// averages out. Each slice's wall time and each op's latency are
/// therefore divided by the host factor sampled right after the slice.
/// A change in the program moves its ops but not the calibration loop,
/// so it moves the scaled figures as much as the wall-clock ones.
pub fn run_stats(ops: &[Op], slices: &[Slice]) -> Option<RunStats> {
    if ops.is_empty() || slices.is_empty() {
        return None;
    }
    let host = |op: &Op| slices[op.slice].host;
    let items: f64 = ops.iter().map(|o| o.items).sum();
    let wall: f64 = slices.iter().map(|s| s.wall_s).sum();
    let ref_wall: f64 = slices.iter().map(|s| s.wall_s / s.host).sum();
    let mut lat: Vec<f64> = ops.iter().map(|o| o.lat_ms).collect();
    let mut ref_lat: Vec<f64> = ops.iter().map(|o| o.lat_ms / host(o)).collect();
    lat.sort_by(f64::total_cmp);
    ref_lat.sort_by(f64::total_cmp);
    Some(RunStats {
        items_per_ref_s: items / ref_wall,
        p50_ref_ms: quantile(&ref_lat, 0.5),
        p90_ref_ms: quantile(&ref_lat, 0.9),
        items_per_s: items / wall,
        p50_ms: quantile(&lat, 0.5),
        p90_ms: quantile(&lat, 0.9),
        host: median(&slices.iter().map(|s| s.host).collect::<Vec<_>>()),
        ops: ops.len(),
        beyond_p90: beyond(&ref_lat, 0.9),
    })
}

/// Median latency of `ops`, ms.
pub fn median_lat(ops: &[Op]) -> f64 {
    median(&ops.iter().map(|o| o.lat_ms).collect::<Vec<_>>())
}

/// Every registered `cq_obs` counter by name.
pub fn counters() -> std::collections::BTreeMap<&'static str, u64> {
    cq_obs::counters_snapshot().into_iter().collect()
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// together with the last result.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_and_tail_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn run_stats_scale_each_slice_by_its_host_factor() {
        // Two slices of 1 s with 10 ops of 100 ms each; the host ran at
        // reference speed in the first and 2x slower in the second,
        // where the same work took twice as long.
        let slices = [
            Slice {
                wall_s: 1.0,
                host: 1.0,
            },
            Slice {
                wall_s: 2.0,
                host: 2.0,
            },
        ];
        let ops: Vec<Op> = (0..20)
            .map(|i| Op {
                lat_ms: if i < 10 { 100.0 } else { 200.0 },
                items: 1.0,
                slice: i / 10,
            })
            .collect();
        let s = run_stats(&ops, &slices).unwrap();
        assert!(
            (s.items_per_ref_s - 10.0).abs() < 1e-9,
            "{}",
            s.items_per_ref_s
        );
        assert_eq!((s.p50_ref_ms, s.p90_ref_ms), (100.0, 100.0));
        assert!((s.items_per_s - 20.0 / 3.0).abs() < 1e-9);
        assert_eq!((s.p50_ms, s.p90_ms), (100.0, 200.0));
        assert_eq!((s.ops, s.host), (20, 1.0));
        assert!(run_stats(&[], &slices).is_none());
    }

    #[test]
    fn calibration_loop_runs() {
        let us = calibration_us();
        assert!(us > 0.0 && us.is_finite());
        assert!(host_factor() > 0.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            a,
            (0..4)
                .map({
                    let mut r = Rng::new(8);
                    move |_| r.next_u64()
                })
                .collect::<Vec<_>>()
        );
    }
}
