//! What the benchmark measures and why: workloads, end-to-end metrics,
//! per-layer metrics with the end-to-end metric each should move, seeds,
//! and the build/host context. Printed by `--describe`.

use gtw_desim::Json;

/// The workload seed the benchmark is tuned and reported on.
pub const DEFAULT_SEED: u64 = 1999;
/// A seed kept out of tuning, for checking a later claim on inputs it was
/// not developed against.
pub const HELD_OUT_SEED: u64 = 2718;

/// A workload's record.
pub struct WorkloadInfo {
    /// Command-line name.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// Threads it runs on.
    pub threads: u64,
    /// The workload's own name for `work_per_s`, and what it counts.
    pub work: (&'static str, &'static str),
    /// One timed scenario.
    pub scenario: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "wan_bulk",
        why: "64 TCP flows on 7-hop WAN paths, a quarter lossy: a deep event heap and millions \
              of boxed messages, so desim queue/dispatch and net link/TCP code do the work",
        threads: 1,
        work: ("sim_bytes_per_s", "TCP payload bytes delivered per host second"),
        scenario: "one TransferSet::run(0) of 64 flows x 2 MiB, drawn fresh from (seed, i)",
    },
    WorkloadInfo {
        name: "control_storm",
        why: "multi_domain_fault_report per seed: a shallow queue of closures and timers, so \
              replica/signalling/gateway logic dominates and a deep-heap tuning shows its cost",
        threads: 1,
        work: ("calls_per_s", "offered calls simulated per host second"),
        scenario: "one multi_domain_fault_report(seed + i), 200 cross-domain calls",
    },
    WorkloadInfo {
        name: "fmri_session",
        why: "run_rt_session over a paper_default protocol: numeric FIRE code and acquisition \
              do the work and the event kernel none, so kernel and net changes must not move it",
        threads: 2,
        work: ("scans_per_s", "scans through the realtime chain per host second"),
        scenario: "one run_rt_session of 16 scans (one 8-off/8-on block)",
    },
    WorkloadInfo {
        name: "coupled_climate",
        why: "coupled_run on the T3E/SP2 split at 12x6 and 8x4 grids: two gtw-mpi messages per \
              step dominate, so send/recv changes show here; the seed is unused",
        threads: 2,
        work: ("steps_per_s", "coupled steps per host second"),
        scenario: "one coupled_run of 200 steps in a fresh 2-rank universe",
    },
];

/// An end-to-end metric: name, unit, direction, regression bound (share
/// of the parent's median) and meaning.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// What it is.
    pub meaning: &'static str,
}

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        meaning: "median of several set-ups before the timed section (input generation, scanner \
                  construction, one warm-up scenario)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
        meaning: "resident-set high-water mark of the workload's own process (VmHWM, MiB)",
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        meaning: "the workload's units of work per host second of scenario time: \
                  sim_bytes_per_s, calls_per_s, scans_per_s or steps_per_s",
    },
    EndToEnd {
        name: "scenario_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        meaning: "95th-percentile host milliseconds per scenario (the run prints the sample count \
                  and how many lie beyond it)",
    },
];

/// A per-layer metric: name, unit, layer, which end-to-end metric it
/// should move on which workload, and where the prediction is no change.
pub struct PerLayer {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The crate whose code it measures.
    pub layer: &'static str,
    /// Workload whose traced run measures it at full size.
    pub source: &'static str,
    /// End-to-end metric(s) a change in it should move, and where.
    pub moves: &'static str,
    /// Workloads on which the prediction is no change.
    pub no_change: &'static str,
}

const DESIM_MOVES: &str = "work_per_s (sim_bytes_per_s) on wan_bulk; work_per_s (calls_per_s) \
                           and scenario_ms_p95 on control_storm";
const DESIM_SAME: &str = "fmri_session, coupled_climate";
const NET_WAN_MOVES: &str = "work_per_s (sim_bytes_per_s) on wan_bulk";
const NET_WAN_SAME: &str = "fmri_session, coupled_climate";
const NET_CTL_MOVES: &str = "work_per_s (calls_per_s) and scenario_ms_p95 on control_storm";
const NET_CTL_SAME: &str = "wan_bulk, fmri_session, coupled_climate";
const FIRE_MOVES: &str = "work_per_s (scans_per_s) on fmri_session";
const FIRE_SAME: &str = "wan_bulk, control_storm, coupled_climate";
const MPI_MOVES: &str = "work_per_s (steps_per_s) on coupled_climate; a small share of \
                         work_per_s (scans_per_s) on fmri_session";
const MPI_SAME: &str = "wan_bulk, control_storm";

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, $layer:expr, $source:expr, $moves:expr, $same:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            layer: $layer,
            source: $source,
            moves: $moves,
            no_change: $same,
        }
    };
}

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [PerLayer; 44] = [
    layer!(
        "desim.events",
        "count",
        "lower",
        "desim",
        "wan_bulk, control_storm",
        DESIM_MOVES,
        DESIM_SAME
    ),
    layer!(
        "desim.sends",
        "count",
        "lower",
        "desim",
        "wan_bulk, control_storm",
        DESIM_MOVES,
        DESIM_SAME
    ),
    layer!(
        "desim.timers_armed",
        "count",
        "lower",
        "desim",
        "wan_bulk, control_storm",
        DESIM_MOVES,
        DESIM_SAME
    ),
    layer!(
        "desim.closure_calls",
        "count",
        "lower",
        "desim",
        "wan_bulk, control_storm",
        DESIM_MOVES,
        DESIM_SAME
    ),
    layer!(
        "desim.events_per_s",
        "1/s",
        "higher",
        "desim",
        "wan_bulk, control_storm",
        DESIM_MOVES,
        DESIM_SAME
    ),
    layer!(
        "desim.queue.depth_max",
        "count",
        "lower",
        "desim",
        "wan_bulk, control_storm",
        DESIM_MOVES,
        DESIM_SAME
    ),
    layer!(
        "desim.queue.depth_mean",
        "count",
        "lower",
        "desim",
        "wan_bulk, control_storm",
        DESIM_MOVES,
        DESIM_SAME
    ),
    layer!(
        "desim.queue.ns_per_op",
        "ns",
        "lower",
        "desim",
        "wan_bulk, control_storm",
        DESIM_MOVES,
        DESIM_SAME
    ),
    layer!(
        "net.pipe_stage.events",
        "count",
        "lower",
        "net",
        "wan_bulk",
        NET_WAN_MOVES,
        NET_WAN_SAME
    ),
    layer!(
        "net.pipe_stage.ns_per_event",
        "ns",
        "lower",
        "net",
        "wan_bulk",
        NET_WAN_MOVES,
        NET_WAN_SAME
    ),
    layer!(
        "net.tcp_sender.events",
        "count",
        "lower",
        "net",
        "wan_bulk",
        NET_WAN_MOVES,
        NET_WAN_SAME
    ),
    layer!(
        "net.tcp_sender.ns_per_event",
        "ns",
        "lower",
        "net",
        "wan_bulk",
        NET_WAN_MOVES,
        NET_WAN_SAME
    ),
    layer!(
        "net.tcp_receiver.events",
        "count",
        "lower",
        "net",
        "wan_bulk",
        NET_WAN_MOVES,
        NET_WAN_SAME
    ),
    layer!(
        "net.tcp_receiver.ns_per_event",
        "ns",
        "lower",
        "net",
        "wan_bulk",
        NET_WAN_MOVES,
        NET_WAN_SAME
    ),
    layer!("net.tcp.retransmits", "count", "lower", "net", "wan_bulk", NET_WAN_MOVES, NET_WAN_SAME),
    layer!("net.fault.drops", "count", "lower", "net", "wan_bulk", NET_WAN_MOVES, NET_WAN_SAME),
    layer!("net.stats.collect_ms", "ms", "lower", "net", "wan_bulk", NET_WAN_MOVES, NET_WAN_SAME),
    layer!("net.stats.render_ms", "ms", "lower", "net", "wan_bulk", NET_WAN_MOVES, NET_WAN_SAME),
    layer!(
        "net.replica.events",
        "count",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.replica.ns_per_event",
        "ns",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.replica_proxy.events",
        "count",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.replica_proxy.ns_per_event",
        "ns",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.gateway.events",
        "count",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.gateway.ns_per_event",
        "ns",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.call_pump.events",
        "count",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.call_pump.ns_per_event",
        "ns",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.replica.placed_ratio",
        "ratio",
        "higher",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.replica.handoff_abort_ratio",
        "ratio",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "net.replica.elections",
        "count",
        "lower",
        "net",
        "control_storm",
        NET_CTL_MOVES,
        NET_CTL_SAME
    ),
    layer!(
        "scan.acquire_ms_per_scan",
        "ms",
        "lower",
        "scan",
        "fmri_session",
        FIRE_MOVES,
        FIRE_SAME
    ),
    layer!("fire.filter_ms_per_scan", "ms", "lower", "fire", "fmri_session", FIRE_MOVES, FIRE_SAME),
    layer!("fire.motion_ms_per_scan", "ms", "lower", "fire", "fmri_session", FIRE_MOVES, FIRE_SAME),
    layer!(
        "fire.correlate_ms_per_scan",
        "ms",
        "lower",
        "fire",
        "fmri_session",
        FIRE_MOVES,
        FIRE_SAME
    ),
    layer!("fire.process_ms_p50", "ms", "lower", "fire", "fmri_session", FIRE_MOVES, FIRE_SAME),
    layer!("fire.process_ms_p95", "ms", "lower", "fire", "fmri_session", FIRE_MOVES, FIRE_SAME),
    layer!(
        "fire.motion_iterations_mean",
        "count",
        "lower",
        "fire",
        "fmri_session",
        FIRE_MOVES,
        FIRE_SAME
    ),
    layer!("mpi.encode_us_per_mib", "us", "lower", "mpi", "fmri_session", MPI_MOVES, MPI_SAME),
    layer!("mpi.decode_us_per_mib", "us", "lower", "mpi", "fmri_session", MPI_MOVES, MPI_SAME),
    layer!("mpi.roundtrip_us", "us", "lower", "mpi", "coupled_climate", MPI_MOVES, MPI_SAME),
    layer!("mpi.messages", "count", "lower", "mpi", "coupled_climate", MPI_MOVES, MPI_SAME),
    layer!("mpi.bytes", "B", "lower", "mpi", "coupled_climate", MPI_MOVES, MPI_SAME),
    layer!(
        "apps.climate.compute_us_per_step",
        "us",
        "lower",
        "apps",
        "coupled_climate",
        "work_per_s (steps_per_s) on coupled_climate, as the minority share",
        "wan_bulk, control_storm, fmri_session"
    ),
    layer!(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "benchmark",
        "every workload",
        "none: traced over untraced wall time of the named workload",
        "every workload"
    ),
    layer!(
        "trace.unattributed_ratio",
        "ratio",
        "lower",
        "benchmark",
        "every workload",
        "none: share of the named workload's traced time no layer accounts for",
        "every workload"
    ),
];

/// The full record: meta block, seeds, workloads and metrics.
pub fn describe() -> Json {
    let mut meta = gtw_bench::meta_json(0);
    meta.push("rustc", env!("PERFBENCH_RUSTC_VERSION"));
    meta.push("build_profile", env!("PERFBENCH_PROFILE"));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Json::obj([
                ("name", Json::from(w.name)),
                ("why", Json::from(w.why)),
                ("threads", Json::from(w.threads)),
                ("work_per_s", Json::from(format!("{}: {}", w.work.0, w.work.1))),
                ("scenario", Json::from(w.scenario)),
            ])
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better)),
                ("bound", Json::Num(m.bound)),
                ("meaning", Json::from(m.meaning)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better)),
                ("layer", Json::from(m.layer)),
                ("measured_on", Json::from(m.source)),
                ("moves", Json::from(m.moves)),
                ("no_change_on", Json::from(m.no_change)),
            ])
        })
        .collect();
    Json::obj([
        ("meta", meta),
        ("default_seed", Json::from(DEFAULT_SEED)),
        ("held_out_seed", Json::from(HELD_OUT_SEED)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(e2e)),
        ("per_layer", Json::Arr(layers)),
    ])
}
