//! `control_storm`: the multi-domain replicated signalling fault
//! scenario, `replica::multi_domain_fault_report`, for consecutive seeds.

use std::time::Instant;

use gtw_desim::component::msg;
use gtw_desim::fault::{FaultPlan, Schedule, Window};
use gtw_desim::{Json, SimDuration, SimTime, Simulator, StreamRng};
use gtw_net::gateway::{schedule_gateway_outages, GatewayPair, GatewaySink};
use gtw_net::replica::{
    leader_of, multi_domain_fault_report, AddMember, CallPump, MultiDomain, RemoveMember, Replica,
    ReplicaDown, ReplicaUp, ReplicatedAgent,
};

use crate::spans::Spans;
use crate::stats::fnv1a;
use crate::tracer::{self, Drive, LayerTracer, Totals};
use crate::{timed_loop, timed_setup, Metric, Outcome, Scale};

/// Counts read back from one scenario's report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    /// Calls offered.
    pub offered: u64,
    /// Calls placed.
    pub placed: u64,
    /// Calls refused.
    pub refused: u64,
}

/// Check one report: budgets conserved, replica states converged and
/// `placed + refused == offered`.
pub fn check_report(report: &Json) -> Result<Tally, String> {
    let count = |key: &str| {
        report.get(key).and_then(Json::as_i128).map(|v| v as u64).ok_or(format!("no {key} count"))
    };
    let flag = |key: &str| matches!(report.get(key), Some(Json::Bool(true)));
    let tally =
        Tally { offered: count("offered")?, placed: count("placed")?, refused: count("refused")? };
    if !flag("budgets_conserved") {
        return Err("budgets not conserved".into());
    }
    if !flag("states_converged") {
        return Err("replica states did not converge".into());
    }
    if tally.placed + tally.refused != tally.offered {
        return Err(format!(
            "placed {} + refused {} != offered {}",
            tally.placed, tally.refused, tally.offered
        ));
    }
    if tally.offered == 0 {
        return Err("no calls offered".into());
    }
    Ok(tally)
}

/// The end-to-end run: seeds `seed`, `seed + 1`, … until time is up.
pub fn e2e(seed: u64, seconds: f64, _scale: Scale) -> Outcome {
    // Set-up is a warm-up scenario on the workload seed; the timed
    // section then starts again from that seed.
    let (setup_s, ()) = timed_setup(9, || {
        std::hint::black_box(multi_domain_fault_report(seed));
    });
    let mut out = Outcome::default();
    let mut offered = 0u64;
    let samples = timed_loop(
        seconds,
        |i| multi_domain_fault_report(seed + i as u64),
        |i, report| match check_report(&report) {
            Ok(t) => {
                out.attempted += t.offered;
                out.failed += t.refused;
                offered += t.offered;
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("control_storm seed {}: {e}", seed + i as u64));
            }
        },
    );
    out.e2e(setup_s, &samples, offered as f64, "calls_per_s", "offered calls simulated");
    out
}

/// Seeds the digest covers.
fn digest_seeds(scale: Scale) -> u64 {
    if scale == Scale::Tiny {
        2
    } else {
        8
    }
}

/// Deterministic digest: per seed the report hash and call counts.
pub fn digest(seed: u64, scale: Scale) -> Json {
    let rows = (0..digest_seeds(scale))
        .map(|i| {
            let report = multi_domain_fault_report(seed + i);
            let (placed, refused, check) = match check_report(&report) {
                Ok(t) => (t.placed, t.refused, "ok".to_string()),
                Err(e) => (0, 0, e),
            };
            Json::obj([
                ("seed", Json::from(seed + i)),
                ("report_fnv1a", Json::from(format!("{:016x}", fnv1a(report.dump().as_bytes())))),
                ("placed", Json::from(placed)),
                ("refused", Json::from(refused)),
                ("check", Json::from(check)),
            ])
        })
        .collect();
    Json::Arr(rows)
}

/// Component types the traced run attributes time to.
const KINDS: [&str; 4] = ["net.replica", "net.replica_proxy", "net.gateway", "net.call_pump"];

/// What a traced scenario leaves behind for the per-layer figures.
struct Run {
    report: Json,
    drive: Drive,
    tracer: LayerTracer,
    elections: u64,
    confirmed: u64,
    aborted: u64,
    build_s: f64,
}

/// Rebuild `multi_domain_fault_report(seed)` from `MultiDomain::build`
/// and the public fault API with the [`LayerTracer`] attached, and render
/// the same report. Kept step for step with the library function; the
/// traced run compares the two reports byte for byte.
fn rebuild(seed: u64) -> Run {
    let begin = Instant::now();
    let horizon = SimTime::from_secs(30);
    let mut sim = Simulator::new();
    sim.set_tracer(Box::new(LayerTracer::new(&KINDS, 1 << 22)));
    let md = MultiDomain::build(&mut sim, seed, horizon);
    let (fzj, gmd, uni) = (&md.groups[0], &md.groups[1], &md.groups[2]);

    let mut rng = StreamRng::new(seed, "multi-domain/crash");
    let crash_at = SimTime::from_secs_f64(rng.uniform_in(2.0, 5.0));
    let rejoin_at = crash_at + SimDuration::from_secs(2);
    let replicas = fzj.replicas.clone();
    sim.call_at(crash_at, move |sim| {
        let idx = leader_of(sim, &replicas).unwrap_or(0);
        let id = replicas[idx];
        let now = sim.now();
        sim.send_at(now, id, msg(ReplicaDown { wipe: true }));
        sim.send_at(rejoin_at, id, msg(ReplicaUp));
    });

    let mut plan = FaultPlan::new(seed);
    plan.isolate(
        "gmd/r2",
        &["gmd/r0".into(), "gmd/r1".into(), "gmd/r2".into(), "gmd/client".into()],
        Schedule::new(vec![Window::new(SimTime::from_secs(10), SimTime::from_secs(12))]),
    );
    plan.partition(
        &[vec!["uni/r1".into()], vec!["uni/r2".into()]],
        Schedule::blips(SimDuration::from_millis(1500), SimDuration::from_millis(50), 10),
    );
    gmd.apply_fault_plan(&mut sim, &plan);
    uni.apply_fault_plan(&mut sim, &plan);
    schedule_gateway_outages(
        &mut sim,
        md.pair,
        0,
        &Schedule::new(vec![Window::new(SimTime::from_secs(6), SimTime::from_secs_f64(8.5))]),
    );
    schedule_gateway_outages(
        &mut sim,
        md.pair,
        1,
        &Schedule::new(vec![Window::new(SimTime::from_secs(9), SimTime::from_secs(11))]),
    );
    sim.send_at(SimTime::from_secs(1), fzj.replicas[3], msg(ReplicaDown { wipe: true }));
    sim.send_at(SimTime::from_secs(14), fzj.replicas[3], msg(ReplicaUp));
    sim.send_at(SimTime::from_secs(15), fzj.proxy, msg(AddMember(3)));
    sim.send_at(SimTime::from_secs(18), fzj.proxy, msg(RemoveMember(0)));

    let mut tr = tracer::take(&mut sim);
    for g in &md.groups {
        for &id in &g.replicas {
            tr.classify(id, 0);
        }
        tr.classify(g.proxy, 1);
    }
    tr.classify(md.pair, 2);
    tr.classify(md.sink, 2);
    tr.classify(md.pump, 3);
    let build_s = begin.elapsed().as_secs_f64();

    let (drive, tracer) = tracer::drive(&mut sim, tr);

    let p = sim.component::<CallPump>(md.pump);
    let offered = p.offered;
    let placed = p.placed();
    let refused = p.results.len() as u64 - placed;
    let availability = if offered == 0 { 1.0 } else { placed as f64 / offered as f64 };
    let proxies = || md.groups.iter().map(|g| sim.component::<ReplicatedAgent>(g.proxy));
    let handoffs_confirmed: u64 = proxies().map(|a| a.handoffs_confirmed).sum();
    let handoffs_aborted: u64 = proxies().map(|a| a.handoffs_aborted).sum();
    let dedup_acks: u64 = proxies().map(|a| a.dedup_acks_sent).sum();
    let handoff_expiries = md.replica_sum(&sim, |r| r.handoff_expiries);
    let spare_snapshots = sim.component::<Replica>(fzj.replicas[3]).snapshots_installed;
    let max_dedup_table = md
        .groups
        .iter()
        .flat_map(|g| g.replicas.iter())
        .map(|&id| sim.component::<Replica>(id).cac().dedup_entries())
        .max()
        .unwrap_or(0);
    let members_fzj: Vec<Json> = sim
        .component::<Replica>(fzj.replicas[1])
        .cac()
        .members()
        .iter()
        .map(|&i| Json::from(u64::from(i)))
        .collect();
    let gp = sim.component::<GatewayPair>(md.pair);
    let sink = sim.component::<GatewaySink>(md.sink);
    let gmd_proxy = sim.component::<ReplicatedAgent>(gmd.proxy);
    let committed_epoch = sim.component::<Replica>(gmd.replicas[0]).cac().gateway_epoch;
    let committed_mbps = sim.component::<Replica>(uni.replicas[0]).cac().committed_bps() / 1e6;

    let report = Json::obj([
        ("seed", Json::from(seed)),
        ("offered", Json::from(offered)),
        ("placed", Json::from(placed)),
        ("refused", Json::from(refused)),
        ("availability", Json::from(availability)),
        ("crash_at_s", Json::from(crash_at.as_secs_f64())),
        ("handoffs_confirmed", Json::from(handoffs_confirmed)),
        ("handoffs_aborted", Json::from(handoffs_aborted)),
        ("handoff_expiries", Json::from(handoff_expiries)),
        ("dedup_acks", Json::from(dedup_acks)),
        ("max_dedup_table", Json::from(max_dedup_table)),
        ("spare_snapshots", Json::from(spare_snapshots)),
        ("members_fzj", Json::Arr(members_fzj)),
        ("gateway_epoch", Json::from(gp.epoch())),
        ("gateway_committed_epoch", Json::from(committed_epoch)),
        ("gateway_failovers", Json::from(gp.failovers)),
        ("epoch_requests", Json::from(gp.epoch_requests)),
        ("epoch_grants", Json::from(gmd_proxy.epoch_grants)),
        ("epoch_refusals", Json::from(gmd_proxy.epoch_refusals)),
        ("forwarded", Json::from(gp.forwarded)),
        ("inflight_lost", Json::from(gp.inflight_lost)),
        ("delivered", Json::from(sink.delivered.len())),
        ("budgets_conserved", Json::from(md.budgets_conserved(&sim))),
        ("states_converged", Json::from(md.all_converged(&sim))),
        ("committed_mbps", Json::from(committed_mbps)),
    ]);
    Run {
        report,
        drive,
        tracer,
        elections: md.replica_sum(&sim, |r| r.elections_started),
        confirmed: handoffs_confirmed,
        aborted: handoffs_aborted,
        build_s,
    }
}

/// The traced run over `seeds` consecutive seeds.
pub fn traced(seed: u64, scale: Scale, spans: &mut Spans, out: &mut Outcome, main: bool) {
    let seeds = match (scale, main) {
        (Scale::Full, true) => 20,
        _ => 2,
    };
    let mut totals = Totals::default();
    let (mut placed, mut offered, mut elections, mut confirmed, mut aborted) = (0, 0, 0, 0, 0);
    let (mut traced_s, mut untraced_s, mut build_s) = (0.0, 0.0, 0.0);
    for i in 0..seeds {
        let s = seed + i;
        let s0 = spans.now();
        let t = Instant::now();
        let reference = multi_domain_fault_report(s);
        untraced_s += t.elapsed().as_secs_f64();
        spans.record("control_storm", "multi_domain_fault_report", s0);

        let s0 = spans.now();
        let t = Instant::now();
        let run = rebuild(s);
        traced_s += t.elapsed().as_secs_f64();
        spans.record("control_storm", "rebuild+drive", s0);

        match check_report(&run.report) {
            Ok(tally) => {
                out.attempted += tally.offered;
                out.failed += tally.refused;
                placed += tally.placed;
                offered += tally.offered;
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("control_storm traced seed {s}: {e}"));
            }
        }
        if run.report.dump() != reference.dump() {
            out.problem(format!(
                "control_storm traced seed {s}: the rebuilt scenario's report differs from \
                 multi_domain_fault_report"
            ));
        }
        let s0 = spans.now();
        totals.add(&run.drive, &run.tracer);
        spans.record("desim", "EventQueue replay", s0);
        elections += run.elections;
        confirmed += run.confirmed;
        aborted += run.aborted;
        build_s += run.build_s;
    }

    let m = &mut out.metrics;
    if main {
        m.extend(totals.desim_metrics(untraced_s));
    }
    m.extend(totals.kind_metrics(&KINDS));
    m.push(Metric::new("net.replica.placed_ratio", "ratio", placed as f64 / offered.max(1) as f64));
    m.push(Metric::new(
        "net.replica.handoff_abort_ratio",
        "ratio",
        aborted as f64 / (confirmed + aborted).max(1) as f64,
    ));
    m.push(Metric::count("net.replica.elections", elections as f64));
    if main {
        let attributed = totals.attributed_s() + build_s;
        m.push(Metric::new("trace.overhead_ratio", "ratio", traced_s / untraced_s));
        m.push(Metric::new("trace.unattributed_ratio", "ratio", 1.0 - attributed / traced_s));
        out.note(format!(
            "control_storm traced: {seeds} seeds, {} events, {traced_s:.3} s traced vs \
             {untraced_s:.3} s untraced",
            totals.steps()
        ));
    }
}
