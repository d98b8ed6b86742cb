//! `coupled_climate`: `apps::climate::coupled_run` with the ocean on a
//! T3E rank and the atmosphere on an SP2 rank across the WAN fabric, at
//! grids small enough that the two `gtw-mpi` messages per step dominate.

use std::time::Instant;

use gtw_apps::climate::{coupled_run, Atmosphere, ClimateReport, Field2d, Ocean};
use gtw_desim::Json;
use gtw_mpi::{CommCost, FabricSpec, MachineSpec, Placement, Tag, Universe};

use crate::spans::Spans;
use crate::stats::{hash_f64s, median};
use crate::{timed_loop, timed_setup, Metric, Outcome, Scale};

/// Ocean grid (the finer one, on the T3E).
pub const OCEAN: (usize, usize) = (12, 6);
/// Atmosphere grid (on the SP2).
pub const ATMOS: (usize, usize) = (8, 4);

/// Coupled steps per run at `scale`.
pub fn steps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 200,
        Scale::Probe | Scale::Tiny => 20,
    }
}

/// The two-machine placement of `examples/climate_coupling.rs`.
pub fn placement() -> Placement {
    Placement::split(
        2,
        1,
        MachineSpec::new("Cray T3E (ocean)", FabricSpec::t3e_torus()),
        MachineSpec::new("IBM SP2 (atmosphere)", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    )
}

/// One coupled run: the ocean rank's report and its communication cost.
pub fn run(steps: usize) -> (Option<ClimateReport>, CommCost) {
    let mut out = Universe::run_placed(placement(), move |comm| {
        let report = coupled_run(&comm, OCEAN, ATMOS, steps);
        (report, comm.comm_cost())
    });
    out.swap_remove(0)
}

/// Check a run against the first one: the same steps and bit-identical
/// `sst_mean`/`tair_mean` series.
pub fn check_run(report: Option<&ClimateReport>, first: &ClimateReport) -> Result<(), String> {
    let r = report.ok_or("the ocean rank returned no report")?;
    if r.steps != first.steps {
        return Err(format!("{} steps, first run {}", r.steps, first.steps));
    }
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if !same(&r.sst_mean, &first.sst_mean) || !same(&r.tair_mean, &first.tair_mean) {
        return Err("sst_mean/tair_mean differ from the first run".into());
    }
    Ok(())
}

/// The end-to-end run. The workload has no random input: the seed is
/// recorded but does not change the run.
pub fn e2e(_seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let steps = steps(scale);
    let (setup_s, first) = timed_setup(9, || run(steps).0);
    let mut out = Outcome::default();
    let Some(first) = first else {
        out.attempted = 1;
        out.failed = 1;
        out.problem("coupled_climate warm-up run returned no report".into());
        return out;
    };
    let mut done = 0u64;
    let samples = timed_loop(
        seconds,
        |_| run(steps).0,
        |i, report| {
            out.attempted += steps as u64;
            match check_run(report.as_ref(), &first) {
                Ok(()) => done += steps as u64,
                Err(e) => {
                    out.failed += steps as u64;
                    out.problem(format!("coupled_climate run {i}: {e}"));
                }
            }
        },
    );
    out.e2e(setup_s, &samples, done as f64, "steps_per_s", "coupled steps");
    out
}

/// Deterministic digest: the mean series' hashes and the message counts.
pub fn digest(scale: Scale) -> Json {
    let (report, cost) = run(steps(scale));
    let Some(r) = report else {
        return Json::obj([("check", Json::from("the ocean rank returned no report"))]);
    };
    Json::obj([
        ("steps", Json::from(r.steps)),
        ("bytes_per_step", Json::from(r.bytes_per_step)),
        ("sst_mean_fnv1a", Json::from(format!("{:016x}", hash_f64s(&r.sst_mean)))),
        ("tair_mean_fnv1a", Json::from(format!("{:016x}", hash_f64s(&r.tair_mean)))),
        ("messages", Json::from(cost.messages)),
        ("bytes", Json::from(cost.bytes)),
    ])
}

const TAG_PING: Tag = Tag(900);

/// Host microseconds per round trip of an `ATMOS`-sized `f64` message
/// between the two ranks of the workload's placement: the median over
/// `n` ping-pongs, timed on the ocean rank.
fn roundtrip_us(n: usize) -> f64 {
    let words = ATMOS.0 * ATMOS.1;
    let out = Universe::run_placed(placement(), move |comm| {
        let buf = vec![1.0f64; words];
        let mut rtt = Vec::with_capacity(n);
        for _ in 0..n {
            if comm.rank() == 0 {
                let t = Instant::now();
                comm.send_f64s(1, TAG_PING, &buf);
                std::hint::black_box(comm.recv_f64s(1, TAG_PING));
                rtt.push(t.elapsed().as_secs_f64() * 1e6);
            } else {
                let (data, _) = comm.recv_f64s(0, TAG_PING);
                comm.send_f64s(0, TAG_PING, &data);
            }
        }
        rtt
    });
    median(&out[0])
}

/// Host microseconds per coupled step of the models alone on one
/// thread: `Ocean::step`, `Atmosphere::step` and both `Field2d::regrid`s.
fn compute_us_per_step(steps: usize) -> f64 {
    let mut ocean = Ocean::new(OCEAN.0, OCEAN.1);
    let mut atmos = Atmosphere::new(ATMOS.0, ATMOS.1);
    let t = Instant::now();
    for _ in 0..steps {
        let tair = atmos.t_air.regrid(OCEAN.0, OCEAN.1);
        let flux = ocean.step(&tair, 0.5);
        let flux_a: Field2d = flux.regrid(ATMOS.0, ATMOS.1);
        atmos.step(&flux_a);
    }
    std::hint::black_box((&ocean.sst, &atmos.t_air));
    t.elapsed().as_secs_f64() * 1e6 / steps as f64
}

/// The traced run: coupled runs with a span around each, plus a
/// ping-pong at the coupling message size over the same placement and
/// the models' compute alone. The unattributed share is what the
/// coupled run costs beyond compute plus one round trip per step.
pub fn traced(scale: Scale, spans: &mut Spans, out: &mut Outcome, main: bool) {
    let steps = steps(scale);
    let runs = if main && scale == Scale::Full { 50 } else { 3 };
    let first = run(steps).0;
    let mut untraced = Vec::new();
    for _ in 0..runs {
        let t = Instant::now();
        std::hint::black_box(run(steps));
        untraced.push(t.elapsed().as_secs_f64());
    }
    let mut traced = Vec::new();
    let mut cost = CommCost::default();
    for i in 0..runs {
        let s0 = spans.now();
        let t = Instant::now();
        let (report, c) = run(steps);
        traced.push(t.elapsed().as_secs_f64());
        spans.record("coupled_climate", "coupled_run", s0);
        cost = c;
        out.attempted += steps as u64;
        let checked = match &first {
            Some(f) => check_run(report.as_ref(), f),
            None => Err("the ocean rank returned no report".into()),
        };
        if let Err(e) = checked {
            out.failed += steps as u64;
            out.problem(format!("coupled_climate traced run {i}: {e}"));
        }
    }
    let s0 = spans.now();
    let rtt = roundtrip_us(if scale == Scale::Full { 2000 } else { 100 });
    spans.record("mpi", "ping-pong", s0);
    let s0 = spans.now();
    let compute = compute_us_per_step(if scale == Scale::Full { 20_000 } else { 200 });
    spans.record("apps", "Ocean/Atmosphere step", s0);

    let m = &mut out.metrics;
    m.push(Metric::new("mpi.roundtrip_us", "us", rtt));
    m.push(Metric::count("mpi.messages", cost.messages as f64));
    m.push(Metric::new("mpi.bytes", "B", cost.bytes as f64));
    m.push(Metric::new("apps.climate.compute_us_per_step", "us", compute));
    if main {
        let per_step_us = median(&untraced) * 1e6 / steps as f64;
        m.push(Metric::new("trace.overhead_ratio", "ratio", median(&traced) / median(&untraced)));
        m.push(Metric::new(
            "trace.unattributed_ratio",
            "ratio",
            1.0 - (compute + rtt) / per_step_us,
        ));
        out.note(format!(
            "coupled_climate traced: {runs} runs of {steps} steps, {per_step_us:.1} us/step \
             untraced, compute {compute:.1} us + round trip {rtt:.1} us"
        ));
    }
}
