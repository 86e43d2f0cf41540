//! Measuring under interference. On this box the same code runs up to
//! 40 % slower for ten seconds at a time (neighbours on the memory
//! system). The harness therefore measures in short slices and takes the
//! timing metrics the driver reads from the fastest fifth of them (the
//! ones the neighbours disturbed least), grouped in time order into the
//! three windows those metrics are defined over. A stall of the engine's
//! own making (a checkpoint, a lock convoy, an eviction burst) slows
//! slices just as a neighbour does, so selection must not be the only
//! view: the failure counts, every layer count, and an all-slices rate
//! and tail written to `--out` and held to the same bounds by `--compare`
//! are taken over every slice, kept or not. (The all-slices tail cannot
//! be the driver's `op_p95_ms`: three runs in ten catch a slow spell that
//! lifts it by 15-40 %, and ten-seed spreads of 0.11-0.20 sit too near
//! the largest bound the driver admits, 0.25.) A fixed reference kernel
//! was tried as the selector and dropped: it is L2-resident and does not
//! feel the contention (correlation with op time 0.15).

use crate::catalog;
use crate::report::{MetricValue, WindowSummary};
use crate::spans::Tracer;
use crate::stats::{self, Sample};
use crate::sys;
use crate::workloads::{WindowRun, World};
use std::sync::Arc;
use std::time::Duration;

/// How long one slice runs (round-based workloads finish their round, so
/// every slice of a workload holds the same op mix or a large random one).
pub const SLICE: Duration = Duration::from_millis(300);
/// One slice in this many is kept.
pub const KEEP_ONE_IN: usize = 5;
/// Windows the kept slices are grouped into, and the fewest slices kept.
pub const WINDOWS: usize = 3;

pub struct Slice {
    pub run: WindowRun,
    pub cpu_s: f64,
}

impl Slice {
    fn ops_per_s(&self) -> f64 {
        self.run.ops() as f64 / self.run.seconds
    }
}

fn one_slice(world: &mut dyn World, tracer: Option<&Arc<Tracer>>) -> Slice {
    let cpu_before = sys::cpu_seconds();
    let mut run = world.run_window(SLICE, tracer);
    let cpu_s = sys::cpu_seconds() - cpu_before;
    stats::penalize_failures(&mut run.samples);
    Slice { run, cpu_s }
}

/// Closed-loop load for `total`, slice by slice.
pub fn measure(world: &mut dyn World, total: Duration) -> Vec<Slice> {
    let mut slices = Vec::new();
    let mut measured = 0.0;
    while measured < total.as_secs_f64() {
        slices.push(one_slice(world, None));
        measured += slices[slices.len() - 1].run.seconds;
    }
    slices
}

/// `total` of untraced and `total` of traced load, alternating slice by
/// slice so that a slow spell of the box falls on both alike. Returns
/// (untraced, traced).
pub fn measure_alternating(
    world: &mut dyn World,
    total: Duration,
    tracer: &Arc<Tracer>,
) -> (Vec<Slice>, Vec<Slice>) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while measured < 2.0 * total.as_secs_f64() {
        untraced.push(one_slice(world, None));
        traced.push(one_slice(world, Some(tracer)));
        measured += untraced[untraced.len() - 1].run.seconds + traced[traced.len() - 1].run.seconds;
    }
    (untraced, traced)
}

/// Indexes, ascending, of the fastest fifth of the slices (at least
/// [`WINDOWS`] of them, or all when there are fewer).
pub fn fastest_slices(ops_per_s: &[f64]) -> Vec<usize> {
    let keep = (ops_per_s.len() / KEEP_ONE_IN).max(WINDOWS).min(ops_per_s.len());
    let mut order: Vec<usize> = (0..ops_per_s.len()).collect();
    order.sort_by(|&a, &b| ops_per_s[b].total_cmp(&ops_per_s[a]));
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// One window: kept slices taken together.
pub struct Window {
    pub run: WindowRun,
    pub cpu_s: f64,
    pub slices: usize,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.run.ops() as f64 / self.run.seconds
    }
}

fn merge(parts: &[&Slice]) -> Window {
    let mut run = WindowRun::default();
    let mut cpu_s = 0.0;
    for (i, s) in parts.iter().enumerate() {
        run.seconds += s.run.seconds;
        run.samples.extend_from_slice(&s.run.samples);
        run.counters = run.counters.plus(&s.run.counters);
        run.retries += s.run.retries;
        run.server_service_us += s.run.server_service_us;
        run.request_bytes += s.run.request_bytes;
        if i == 0 {
            // The count basis is one round (or one slice): it repeats
            // exactly on the single-client workloads.
            run.basis = s.run.basis;
            run.basis_ops = s.run.basis_ops;
            run.basis_rows = s.run.basis_rows;
        }
        cpu_s += s.cpu_s;
    }
    Window { run, cpu_s, slices: parts.len() }
}

/// Consecutive groups of `slices`, up to [`WINDOWS`] of them.
fn windows_of(slices: &[&Slice]) -> Vec<Window> {
    slices.chunks(slices.len().div_ceil(WINDOWS).max(1)).map(merge).collect()
}

/// What a measured phase boils down to.
pub struct Phase {
    /// The kept slices in up to [`WINDOWS`] consecutive groups.
    pub windows: Vec<Window>,
    /// All kept slices as one run.
    pub whole: Window,
    /// Every slice, kept or not, in up to [`WINDOWS`] consecutive groups.
    pub all_windows: Vec<Window>,
    /// Every slice as one run.
    pub all: Window,
    /// Median ops/s over every slice: the rate selection cannot flatter.
    pub all_slices_ops_per_s: f64,
}

pub fn phase(slices: Vec<Slice>) -> Phase {
    let rates: Vec<f64> = slices.iter().map(Slice::ops_per_s).collect();
    let kept: Vec<&Slice> = fastest_slices(&rates).into_iter().map(|i| &slices[i]).collect();
    let every: Vec<&Slice> = slices.iter().collect();
    Phase {
        windows: windows_of(&kept),
        whole: merge(&kept),
        all_windows: windows_of(&every),
        all: merge(&every),
        all_slices_ops_per_s: stats::median(&rates),
    }
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&self.windows.iter().map(Window::ops_per_s).collect::<Vec<_>>())
    }

    /// Every op counts, whichever slice it ran in.
    pub fn attempted(&self) -> u64 {
        self.all.run.ops()
    }

    pub fn failed(&self) -> u64 {
        self.all.run.samples.iter().filter(|s| s.failed).count() as u64
    }

    pub fn summaries(&self) -> Vec<WindowSummary> {
        self.windows
            .iter()
            .map(|w| WindowSummary {
                seconds: w.run.seconds,
                ops: w.run.ops(),
                slices: w.slices as u64,
            })
            .collect()
    }

    /// The eight end-to-end metrics, and after them the all-slices rate
    /// and tail (`--out` and `--compare` only).
    pub fn end_to_end(
        &self,
        setup_s: &[f64],
        n_types: usize,
        peak_rss_mb: f64,
        stored_ratio: f64,
    ) -> Vec<MetricValue> {
        let per = |windows: &[Window], f: &dyn Fn(&Window) -> f64| -> Vec<f64> {
            windows.iter().map(f).collect()
        };
        let per_window = |f: &dyn Fn(&Window) -> f64| per(&self.windows, f);
        let pooled: &[Sample] = &self.whole.run.samples;
        let pooled_ms = stats::latencies_ms(pooled);
        let throughput = per_window(&Window::ops_per_s);
        let p50 = per_window(&|w| stats::quantile(&stats::latencies_ms(&w.run.samples), 0.5));
        let window_p95 = |w: &Window| stats::quantile(&stats::latencies_ms(&w.run.samples), 0.95);
        let p95 = per_window(&window_p95);
        let geo = per_window(&|w| stats::geomean_of_type_medians_ms(&w.run.samples, n_types));
        let cpu = per_window(&|w| w.cpu_s * 1e3 / w.run.ops().max(1) as f64);
        let metric = |name: &str, value: f64, parts: &[f64]| MetricValue {
            name: name.into(),
            value,
            spread: if parts.len() > 1 { stats::spread(parts) } else { 0.0 },
        };
        vec![
            metric("setup_s", stats::median(setup_s), setup_s),
            metric("ops_per_s", self.ops_per_s(), &throughput),
            metric("op_p50_ms", stats::quantile(&pooled_ms, 0.5), &p50),
            metric("op_p95_ms", stats::quantile(&pooled_ms, 0.95), &p95),
            metric("geomean_ms", stats::geomean_of_type_medians_ms(pooled, n_types), &geo),
            metric(
                "cpu_ms_per_op",
                self.whole.cpu_s * 1e3 / self.whole.run.ops().max(1) as f64,
                &cpu,
            ),
            metric("peak_rss_mb", peak_rss_mb, &[]),
            metric("stored_bytes_per_user_byte", stored_ratio, &[]),
            metric(
                catalog::ALL_SLICES_RATE,
                self.all_slices_ops_per_s,
                &per(&self.all_windows, &Window::ops_per_s),
            ),
            metric(
                catalog::ALL_SLICES_P95,
                window_p95(&self.all),
                &per(&self.all_windows, &window_p95),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fastest_fifth_is_kept_in_time_order() {
        // 20 slices; the four fastest sit at 3, 7, 11 and 19.
        let mut rates = vec![100.0; 20];
        for (i, r) in [(11, 150.0), (3, 140.0), (19, 130.0), (7, 120.0)] {
            rates[i] = r;
        }
        assert_eq!(fastest_slices(&rates), [3, 7, 11, 19]);
    }

    #[test]
    fn at_least_three_slices_are_kept() {
        assert_eq!(fastest_slices(&[5.0, 9.0, 7.0, 8.0, 6.0, 4.0]), [1, 2, 3]);
        assert_eq!(fastest_slices(&[5.0, 9.0]), [0, 1]);
        assert!(fastest_slices(&[]).is_empty());
    }

    #[test]
    fn kept_slices_group_into_three_windows() {
        let slice = |ops: usize, seconds: f64| Slice {
            run: WindowRun {
                seconds,
                samples: vec![Sample { ty: 0, ns: 1_000_000, failed: false }; ops],
                ..WindowRun::default()
            },
            cpu_s: 0.1,
        };
        // 35 slices of one second; the fastest seven hold 29..=35 ops.
        let p = phase((1..=35).map(|ops| slice(ops, 1.0)).collect());
        assert_eq!(p.all.slices, 35);
        assert_eq!(p.windows.iter().map(|w| w.slices).collect::<Vec<_>>(), [3, 3, 1]);
        assert_eq!(p.all_windows.iter().map(|w| w.slices).collect::<Vec<_>>(), [12, 12, 11]);
        assert_eq!(p.whole.run.ops(), (29..=35).sum::<usize>() as u64);
        assert_eq!(p.attempted(), (1..=35).sum::<usize>() as u64, "every op counts as attempted");
        // Windows: (29+30+31)/3, (32+33+34)/3, 35/1 ops per second.
        assert!((p.ops_per_s() - 33.0).abs() < 1e-9);
        assert!((p.all_slices_ops_per_s - 18.0).abs() < 1e-9);
    }

    #[test]
    fn a_stall_the_kept_slices_miss_reaches_the_all_slices_rate_and_tail() {
        let slice = |fast: usize, stalled: usize| {
            let sample = |ms: u64| Sample { ty: 0, ns: ms * 1_000_000, failed: false };
            let mut samples = vec![sample(1); fast];
            samples.extend(vec![sample(100); stalled]);
            Slice { run: WindowRun { seconds: 1.0, samples, ..WindowRun::default() }, cpu_s: 0.1 }
        };
        // Twelve slices in fifteen stall a fifth of their ops for 100 ms.
        let p = phase(
            (0..15).map(|i| if i % 5 == 0 { slice(100, 0) } else { slice(40, 10) }).collect(),
        );
        assert_eq!(p.whole.slices, 3, "the three clean slices are the fastest fifth");
        let metrics = p.end_to_end(&[1.0], 1, 1.0, 1.0);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("ops_per_s"), 100.0);
        assert_eq!(value("op_p50_ms"), 1.0);
        assert_eq!(value("op_p95_ms"), 1.0);
        assert_eq!(value(catalog::ALL_SLICES_RATE), 50.0);
        assert_eq!(value(catalog::ALL_SLICES_P95), 100.0);
    }
}
