//! # gtw-perfbench — the testbed's end-to-end and per-layer benchmark
//!
//! Four workloads, each from the public API of the repository's crates:
//!
//! | workload          | drives                                   | layers          |
//! |-------------------|------------------------------------------|-----------------|
//! | `wan_bulk`        | `TransferSet::run(0)`, 64 TCP flows      | desim, net      |
//! | `control_storm`   | `replica::multi_domain_fault_report`     | desim, net      |
//! | `fmri_session`    | `fire::rt::run_rt_session`               | scan, fire, mpi |
//! | `coupled_climate` | `apps::climate::coupled_run`             | mpi, apps       |
//!
//! An untraced run times repeated *scenarios* of one workload for a set
//! number of seconds and reports the end-to-end metrics of
//! [`catalog::END_TO_END`]. A traced run reports the per-layer metrics of
//! [`catalog::PER_LAYER`]: it traces the named workload at full size and,
//! so that every per-layer metric is measured in every traced run, the
//! other three at probe size. Every run checks its outputs; see
//! `README.md` in this directory.

pub mod catalog;
pub mod climate;
pub mod control_storm;
pub mod fmri;
pub mod spans;
pub mod stats;
pub mod tracer;
pub mod wan_bulk;

use std::time::Instant;

use gtw_desim::Json;

/// How much work a run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// The reduced size at which a traced run measures the layers the
    /// named workload does not exercise.
    Probe,
    /// Smallest sizes, for the benchmark's own smoke test.
    Tiny,
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Bulk TCP across the WAN on the sequential event kernel.
    WanBulk,
    /// The replicated signalling control plane under faults.
    ControlStorm,
    /// FIRE's realtime scan-to-map chain.
    FmriSession,
    /// Ocean–atmosphere coupling over MPI.
    CoupledClimate,
}

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 4] = [
        Workload::WanBulk,
        Workload::ControlStorm,
        Workload::FmriSession,
        Workload::CoupledClimate,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WanBulk => "wan_bulk",
            Workload::ControlStorm => "control_storm",
            Workload::FmriSession => "fmri_session",
            Workload::CoupledClimate => "coupled_climate",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The untraced run: end-to-end metrics.
    pub fn e2e(self, seed: u64, seconds: f64, scale: Scale) -> Outcome {
        let mut out = match self {
            Workload::WanBulk => wan_bulk::e2e(seed, seconds, scale),
            Workload::ControlStorm => control_storm::e2e(seed, seconds, scale),
            Workload::FmriSession => fmri::e2e(seed, seconds, scale),
            Workload::CoupledClimate => climate::e2e(seed, seconds, scale),
        };
        match stats::peak_rss_mb() {
            Ok(mb) => out.metrics.push(Metric::new("peak_rss_mb", "MB", mb)),
            Err(e) => out.problem(e),
        }
        out.metrics.sort_by_key(|m| catalog::END_TO_END.iter().position(|c| c.name == m.name));
        out
    }

    /// The traced run: per-layer metrics. The named workload is traced at
    /// `scale`; each other workload then contributes, at probe size, the
    /// metrics of the layers this one does not exercise. Spans go to
    /// `spans`.
    pub fn traced(self, seed: u64, scale: Scale, spans: &mut Spans) -> Outcome {
        let mut out = Outcome::default();
        let probe = if scale == Scale::Tiny { Scale::Tiny } else { Scale::Probe };
        let order = std::iter::once(self).chain(Self::ALL.into_iter().filter(|&w| w != self));
        for w in order {
            let main = w == self;
            let scale = if main { scale } else { probe };
            let mut part = Outcome::default();
            match w {
                Workload::WanBulk => wan_bulk::traced(seed, scale, spans, &mut part, main),
                Workload::ControlStorm => {
                    control_storm::traced(seed, scale, spans, &mut part, main)
                }
                Workload::FmriSession => fmri::traced(seed, scale, spans, &mut part, main),
                Workload::CoupledClimate => climate::traced(scale, spans, &mut part, main),
            }
            out.merge(part, main);
        }
        out.metrics.sort_by_key(|m| catalog::PER_LAYER.iter().position(|c| c.name == m.name));
        out
    }

    /// The deterministic digest of the workload's inputs and outputs.
    pub fn digest(self, seed: u64, scale: Scale) -> Json {
        match self {
            Workload::WanBulk => wan_bulk::digest(seed, scale),
            Workload::ControlStorm => control_storm::digest(seed, scale),
            Workload::FmriSession => fmri::digest(seed),
            Workload::CoupledClimate => climate::digest(scale),
        }
    }
}

pub use spans::Spans;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in the catalog.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric with a unit.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }

    /// A count (or a mean of counts).
    pub fn count(name: impl Into<String>, value: f64) -> Metric {
        Metric::new(name, "count", value)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: transfers, offered calls, sessions (maps) or
    /// coupled steps.
    pub attempted: u64,
    /// Operations that failed: incomplete transfers, refused calls, wrong
    /// maps or failed steps.
    pub failed: u64,
    /// Failed correctness checks; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// Figures, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Record a failed check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Record a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Fold a traced part in: counts and problems add up; a metric is
    /// taken from the first part that reports it (the named workload
    /// comes first).
    fn merge(&mut self, part: Outcome, main: bool) {
        if main {
            self.attempted += part.attempted;
            self.failed += part.failed;
        }
        self.problems.extend(part.problems);
        self.notes.extend(part.notes);
        for m in part.metrics {
            if !self.metrics.iter().any(|x| x.name == m.name) {
                self.metrics.push(m);
            }
        }
    }

    /// Add the end-to-end metrics of a timed loop: `setup_s`, the
    /// workload's throughput `work_per_s` (`work` units over the summed
    /// scenario times; `alias` names it for this workload) and the
    /// scenario-time 95th percentile. The median is printed with the
    /// sample counts but is not a metric: on a host whose speed switches
    /// between states for seconds at a time, a run's median scenario time
    /// lands in whichever state held for most of the run.
    pub fn e2e(&mut self, setup_s: f64, samples: &[f64], work: f64, alias: &str, unit_desc: &str) {
        let busy: f64 = samples.iter().sum();
        let ms: Vec<f64> = samples.iter().map(|s| s * 1e3).collect();
        self.metrics.push(Metric::new("setup_s", "s", setup_s));
        self.metrics.push(Metric::new("work_per_s", "1/s", work / busy));
        self.metrics.push(Metric::new("scenario_ms_p95", "ms", stats::quantile(&ms, 0.95)));
        self.note(format!(
            "{alias} = work_per_s = {:.6e} {unit_desc} per host second over {} scenarios \
             ({:.3} s busy); scenario_ms_p50 {:.4} ms; {} samples beyond p95",
            work / busy,
            samples.len(),
            busy,
            stats::median(&ms),
            stats::beyond(&ms, 0.95)
        ));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Run `setup` `reps` times and return the median host seconds of one
/// set-up together with the last set-up's result.
pub fn timed_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let s = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    (stats::median(&times), last.expect("at least one set-up ran"))
}

/// Run scenarios `0, 1, 2, …` until `seconds` of wall time have passed
/// (at least one), timing only `run`; `check` sees each output outside
/// the timed interval. Returns each scenario's host seconds.
pub fn timed_loop<T>(
    seconds: f64,
    mut run: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let i = samples.len();
        let t = Instant::now();
        let out = std::hint::black_box(run(i));
        samples.push(t.elapsed().as_secs_f64());
        check(i, out);
    }
    samples
}
