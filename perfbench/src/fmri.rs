//! `fmri_session`: FIRE's realtime chain, `fire::rt::run_rt_session`,
//! over a `ScannerConfig::paper_default` protocol — acquisition, an MPI-2
//! spawn of a 1-rank T3E world across the WAN fabric, FIRE on each scan
//! and the map sent back.

use std::time::Instant;

use gtw_desim::{Json, SpanSink};
use gtw_fire::pipeline::{FireConfig, FirePipeline};
use gtw_fire::rt::run_rt_session;
use gtw_mpi::envelope::{decode_f32s, encode_f32s};
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::Volume;

use crate::spans::Spans;
use crate::stats::{hash_f32s, mean, median, quantile};
use crate::{timed_loop, timed_setup, Metric, Outcome, Scale};

/// Scans per session: one full 8-off/8-on block of the paper protocol,
/// the shortest series whose correlation map is not degenerate.
pub const SCANS: usize = 16;

/// Virtual T3E PEs the session's timing model assumes.
const PES: usize = 256;

/// The scanner for a workload seed.
pub fn scanner(seed: u64) -> Scanner {
    Scanner::new(ScannerConfig::paper_default(SCANS, seed), Phantom::standard())
}

/// The benchmark's own pass over the series: a fresh `FirePipeline` with
/// the session's configuration and reference vector, fed every scan.
/// Returns the final correlation map.
pub fn direct_map(scanner: &Scanner) -> Volume {
    let cfg = scanner.config();
    let mut pipe = FirePipeline::new(
        FireConfig::default(),
        cfg.dims,
        ReferenceVector::canonical(&cfg.stimulus),
    );
    let mut map = Volume::zeros(cfg.dims);
    for vol in scanner.series() {
        map = pipe.process(&vol).correlation;
    }
    map
}

/// Check a session's map against the direct pass, bit for bit.
pub fn check_map(map: &Volume, reference: &Volume) -> Result<(), String> {
    if map.dims != reference.dims {
        return Err(format!("map dims {:?} != {:?}", map.dims, reference.dims));
    }
    let differ =
        map.data.iter().zip(&reference.data).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    if differ > 0 {
        return Err(format!("{differ} map voxels differ from the direct FirePipeline pass"));
    }
    Ok(())
}

/// The end-to-end run: repeated sessions over one scanner.
pub fn e2e(seed: u64, seconds: f64, _scale: Scale) -> Outcome {
    // Set-up builds the scanner and runs one warm-up session.
    let (setup_s, scanner) = timed_setup(3, || {
        let scanner = scanner(seed);
        std::hint::black_box(run_rt_session(&scanner, FireConfig::default(), PES, 1));
        scanner
    });
    let reference = direct_map(&scanner);
    let mut out = Outcome::default();
    let mut scans = 0u64;
    let samples = timed_loop(
        seconds,
        |_| run_rt_session(&scanner, FireConfig::default(), PES, 1),
        |i, report| {
            scans += report.scans as u64;
            out.attempted += 1;
            if let Err(e) = check_map(&report.final_map, &reference) {
                out.failed += 1;
                out.problem(format!("fmri_session session {i}: {e}"));
            }
        },
    );
    out.e2e(setup_s, &samples, scans as f64, "scans_per_s", "scans through the realtime chain");
    out
}

/// Deterministic digest: the session map's hash and the direct pass's.
pub fn digest(seed: u64) -> Json {
    let scanner = scanner(seed);
    let session = run_rt_session(&scanner, FireConfig::default(), PES, 1);
    let reference = direct_map(&scanner);
    Json::obj([
        ("scans", Json::from(session.scans)),
        ("map_fnv1a", Json::from(format!("{:016x}", hash_f32s(&session.final_map.data)))),
        ("direct_map_fnv1a", Json::from(format!("{:016x}", hash_f32s(&reference.data)))),
        (
            "check",
            Json::from(
                check_map(&session.final_map, &reference).err().unwrap_or_else(|| "ok".into()),
            ),
        ),
    ])
}

/// The traced run: bench-driven passes over the session's series with a
/// span around each public call — `Scanner::acquire`,
/// `envelope::encode_f32s`/`decode_f32s` and `FirePipeline::process` with
/// the pipeline's own stage spans attached — compared with the untraced
/// `run_rt_session` over the same scanner.
pub fn traced(seed: u64, scale: Scale, spans: &mut Spans, out: &mut Outcome, main: bool) {
    // Enough passes for at least 200 `process` samples in the main run.
    let passes = if main && scale == Scale::Full { 13 } else { 1 };
    let scanner = scanner(seed);
    let cfg = scanner.config().clone();

    let s0 = spans.now();
    let t = Instant::now();
    let session = run_rt_session(&scanner, FireConfig::default(), PES, 1);
    let untraced_s = t.elapsed().as_secs_f64();
    spans.record("fmri_session", "run_rt_session", s0);

    let (mut acquire, mut encode, mut decode, mut process) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut filter, mut motion, mut correlate) = (0.0, 0.0, 0.0);
    let mut iterations = Vec::new();
    let mut traced_s = 0.0;
    let mut bytes = 0usize;
    for pass in 0..passes {
        let sink = SpanSink::with_capacity(1 << 12);
        let begin = Instant::now();
        let pipe_start = spans.now();
        let mut pipe = FirePipeline::new(
            FireConfig::default(),
            cfg.dims,
            ReferenceVector::canonical(&cfg.stimulus),
        )
        .with_spans(sink.clone());
        let mut map = Volume::zeros(cfg.dims);
        for t in 0..SCANS {
            let s0 = spans.now();
            let c = Instant::now();
            let vol = scanner.acquire(t);
            acquire.push(c.elapsed().as_secs_f64());
            spans.record("scan", "Scanner::acquire", s0);

            let s0 = spans.now();
            let c = Instant::now();
            let wire = encode_f32s(&vol.data);
            encode.push(c.elapsed().as_secs_f64());
            spans.record("mpi", "encode_f32s", s0);
            bytes += wire.len();

            let s0 = spans.now();
            let c = Instant::now();
            let vol = Volume::from_vec(cfg.dims, decode_f32s(&wire));
            decode.push(c.elapsed().as_secs_f64());
            spans.record("mpi", "decode_f32s", s0);

            let s0 = spans.now();
            let c = Instant::now();
            map = pipe.process(&vol).correlation;
            process.push(c.elapsed().as_secs_f64());
            spans.record("fire", "FirePipeline::process", s0);
        }
        traced_s += begin.elapsed().as_secs_f64();
        for s in sink.snapshot() {
            let d = (s.end.as_nanos() - s.begin.as_nanos()) as f64 * 1e-9;
            match s.name.as_str() {
                "filter" => filter += d,
                "motion" => motion += d,
                "correlate" => correlate += d,
                _ => {}
            }
            spans.add_offset("fire.stages", &s, pipe_start);
        }
        iterations.extend(pipe.motion_log.iter().map(|e| e.iterations as f64));
        out.attempted += 1;
        if let Err(e) = check_map(&map, &session.final_map) {
            out.failed += 1;
            out.problem(format!("fmri_session traced pass {pass}: {e}"));
        }
    }
    let n = (passes * SCANS) as f64;
    let mib = bytes as f64 / (1u64 << 20) as f64;
    let m = &mut out.metrics;
    m.push(Metric::new("scan.acquire_ms_per_scan", "ms", acquire.iter().sum::<f64>() * 1e3 / n));
    m.push(Metric::new("fire.filter_ms_per_scan", "ms", filter * 1e3 / n));
    m.push(Metric::new("fire.motion_ms_per_scan", "ms", motion * 1e3 / n));
    m.push(Metric::new("fire.correlate_ms_per_scan", "ms", correlate * 1e3 / n));
    m.push(Metric::new("fire.process_ms_p50", "ms", median(&process) * 1e3));
    m.push(Metric::new("fire.process_ms_p95", "ms", quantile(&process, 0.95) * 1e3));
    m.push(Metric::count("fire.motion_iterations_mean", mean(&iterations)));
    m.push(Metric::new("mpi.encode_us_per_mib", "us", encode.iter().sum::<f64>() * 1e6 / mib));
    m.push(Metric::new("mpi.decode_us_per_mib", "us", decode.iter().sum::<f64>() * 1e6 / mib));
    if main {
        let attributed: f64 =
            [&acquire, &encode, &decode, &process].iter().flat_map(|v| v.iter()).sum();
        m.push(Metric::new("trace.overhead_ratio", "ratio", traced_s / passes as f64 / untraced_s));
        m.push(Metric::new("trace.unattributed_ratio", "ratio", 1.0 - attributed / traced_s));
        out.note(format!(
            "fmri_session traced: {passes} pass(es) of {SCANS} scans, {} process samples",
            process.len()
        ));
    }
}
