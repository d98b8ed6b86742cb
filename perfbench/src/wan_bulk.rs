//! `wan_bulk`: 64 concurrent TCP bulk flows on 7-hop local–WAN–local
//! paths, a quarter of them over a degraded WAN hop, on the sequential
//! kernel through `TransferSet::run(0)`.

use std::time::Instant;

use gtw_desim::component::msg;
use gtw_desim::fault::FaultPlan;
use gtw_desim::{ComponentId, Json, SimDuration, Simulator, SpanSink, StreamRng};
use gtw_net::ip::IpConfig;
use gtw_net::link::{Medium, PipeStage, StageConfig};
use gtw_net::stats::{RunReport, StatsRegistry};
use gtw_net::tcp::{HopModel, StartTransfer, TcpConfig, TcpReceiver, TcpSender};
use gtw_net::transfer::{degraded_plan, BulkTransfer, Protocol, TransferSet};
use gtw_net::units::Bandwidth;

use crate::spans::Spans;
use crate::stats::fnv1a;
use crate::tracer::{self, LayerTracer, Totals};
use crate::{timed_loop, timed_setup, Metric, Outcome, Scale};

/// Flow sizes for one scale.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Concurrent flows per scenario.
    pub flows: usize,
    /// Payload bytes per flow.
    pub bytes: u64,
}

impl Size {
    /// The benchmark's size for `scale`.
    pub fn of(scale: Scale) -> Size {
        match scale {
            Scale::Full => Size { flows: 64, bytes: 2 << 20 },
            Scale::Probe => Size { flows: 16, bytes: 1 << 20 },
            Scale::Tiny => Size { flows: 8, bytes: 256 << 10 },
        }
    }
}

/// Scenarios the digest covers.
const DIGEST_SCENARIOS: usize = 8;

/// One generated scenario: each flow with its optional fault plan.
pub struct Scenario {
    /// Flows in insertion order (flow `k` is labelled `t{k}.`).
    pub items: Vec<(BulkTransfer, Option<FaultPlan>)>,
}

fn hop(rate_mbps: f64, prop_us: f64) -> HopModel {
    HopModel {
        medium: Medium::Raw { rate: Bandwidth::from_mbps(rate_mbps) },
        per_packet: SimDuration::ZERO,
        propagation: SimDuration::from_nanos((prop_us * 1e3).round() as u64),
    }
}

impl Scenario {
    /// Scenario `index` of workload seed `seed`. The seed draws each
    /// flow's WAN bottleneck rate (155–622 Mbit/s), WAN propagation
    /// (0.3–0.9 ms), access-hop propagation and window (256 KiB–1 MiB);
    /// every fourth flow runs under `degraded_plan` on its WAN hop
    /// (`t{k}.hop3`: 1% loss and a 50 ms outage at 100 ms).
    pub fn generate(seed: u64, index: usize, size: Size) -> Scenario {
        let mut rng = StreamRng::new(seed, &format!("perfbench/wan_bulk/{index}"));
        let items = (0..size.flows)
            .map(|k| {
                let rate = rng.uniform_in(155.0, 622.0);
                let wan_us = rng.uniform_in(300.0, 900.0);
                let access_us = rng.uniform_in(2.0, 20.0);
                let window_kib = [256u64, 512, 768, 1024][(rng.next_u32() % 4) as usize];
                let xfer = BulkTransfer {
                    hops: vec![
                        hop(800.0, access_us),
                        hop(622.0, 5.0),
                        hop(622.0, 8.0),
                        hop(rate, wan_us),
                        hop(622.0, 8.0),
                        hop(622.0, 5.0),
                        hop(800.0, access_us),
                    ],
                    ip: IpConfig { mtu: 9180 },
                    bytes: size.bytes,
                    protocol: Protocol::Tcp { window_bytes: window_kib << 10 },
                };
                let plan =
                    (k % 4 == 3).then(|| degraded_plan(rng.next_u64(), &format!("t{k}.hop3")));
                (xfer, plan)
            })
            .collect();
        Scenario { items }
    }

    /// The scenario as the library's multi-flow runner takes it.
    pub fn transfer_set(&self) -> TransferSet {
        let mut set = TransferSet::new();
        for (xfer, plan) in &self.items {
            match plan {
                Some(p) => set.add_faulted(xfer.clone(), p.clone()),
                None => set.add(xfer.clone()),
            }
        }
        set
    }

    /// Payload bytes the scenario moves.
    pub fn payload_bytes(&self) -> u64 {
        self.items.iter().map(|(x, _)| x.bytes).sum()
    }
}

/// Check a finished run: every transfer delivered its payload, every hop
/// conserves packets (`packets_in == packets_out + packets_dropped`) and
/// every TCP pair has `bytes_acked == bytes_delivered`.
pub fn check_report(sc: &Scenario, run: &RunReport) -> Result<(), String> {
    for h in &run.hops {
        let s = &h.stats;
        if s.packets_in != s.packets_out + s.packets_dropped {
            return Err(format!(
                "hop {}: packets_in {} != packets_out {} + packets_dropped {}",
                h.label, s.packets_in, s.packets_out, s.packets_dropped
            ));
        }
    }
    if run.senders.len() != sc.items.len() || run.receivers.len() != sc.items.len() {
        return Err(format!(
            "{} flows but {} senders / {} receivers reported",
            sc.items.len(),
            run.senders.len(),
            run.receivers.len()
        ));
    }
    for (k, ((xfer, _), (s, r))) in
        sc.items.iter().zip(run.senders.iter().zip(&run.receivers)).enumerate()
    {
        if r.bytes_delivered != xfer.bytes || s.elapsed.is_none() {
            return Err(format!(
                "flow t{k} incomplete: {} of {} bytes delivered",
                r.bytes_delivered, xfer.bytes
            ));
        }
        if s.bytes_acked != r.bytes_delivered {
            return Err(format!(
                "flow t{k}: bytes_acked {} != bytes_delivered {}",
                s.bytes_acked, r.bytes_delivered
            ));
        }
    }
    Ok(())
}

/// The end-to-end run. Every scenario is a fresh draw (scenario `i` of
/// the workload seed), so a run's percentiles describe the distribution
/// of scenarios rather than a handful of them; drawing one takes tens of
/// microseconds against tens of milliseconds of simulation.
pub fn e2e(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let size = Size::of(scale);
    // Set-up: draw the first scenario and run it once, so allocator and
    // page-cache growth are paid before the timed section.
    let (setup_s, ()) = timed_setup(5, || {
        let sc = Scenario::generate(seed, 0, size);
        std::hint::black_box(sc.transfer_set().run(0));
    });
    let mut out = Outcome::default();
    let mut bytes = 0u64;
    let samples = timed_loop(
        seconds,
        |i| {
            let sc = Scenario::generate(seed, i, size);
            let (_, run) = sc.transfer_set().run(0);
            (sc, run)
        },
        |i, (sc, run)| {
            out.attempted += sc.items.len() as u64;
            match check_report(&sc, &run) {
                Ok(()) => bytes += sc.payload_bytes(),
                Err(e) => {
                    out.failed += sc.items.len() as u64;
                    out.problem(format!("wan_bulk scenario {i}: {e}"));
                }
            }
        },
    );
    out.e2e(setup_s, &samples, bytes as f64, "sim_bytes_per_s", "payload bytes delivered");
    out
}

/// Deterministic digest of the first scenarios: per scenario the event
/// count, report hash, completed transfers and retransmits.
pub fn digest(seed: u64, scale: Scale) -> Json {
    let size = Size::of(scale);
    let rows = (0..DIGEST_SCENARIOS)
        .map(|i| {
            let sc = Scenario::generate(seed, i, size);
            let (reports, run) = sc.transfer_set().run(0);
            Json::obj([
                ("scenario", Json::from(i as u64)),
                ("events", Json::from(run.events_processed)),
                (
                    "report_fnv1a",
                    Json::from(format!("{:016x}", fnv1a(run.to_json().dump().as_bytes()))),
                ),
                ("completed", Json::from(reports.len() as u64)),
                ("retransmits", Json::from(reports.iter().map(|r| r.retransmits).sum::<u64>())),
                ("check", Json::from(check_report(&sc, &run).err().unwrap_or_else(|| "ok".into()))),
            ])
        })
        .collect();
    Json::Arr(rows)
}

/// Component types the traced run attributes time to.
const KINDS: [&str; 3] = ["net.pipe_stage", "net.tcp_sender", "net.tcp_receiver"];

/// Wire one flow exactly as `TransferSet::run` does — reverse (ACK)
/// chain first, then the receiver, the forward chain and the sender, the
/// registry in the same order, and the start event — from the public
/// parts, recording each component's type for the tracer.
fn wire_flow(
    sim: &mut Simulator,
    reg: &mut StatsRegistry,
    kinds: &mut Vec<(ComponentId, usize)>,
    k: usize,
    xfer: &BulkTransfer,
    plan: Option<&FaultPlan>,
) {
    let Protocol::Tcp { window_bytes } = xfer.protocol else {
        panic!("wan_bulk generates TCP flows only");
    };
    let prefix = format!("t{k}.");
    let flow = k as u64 + 1;
    let spans = SpanSink::disabled();
    let stage = |label: String, h: &HopModel, next: ComponentId| {
        let mut s = PipeStage::new(
            label.clone(),
            StageConfig {
                medium: h.medium,
                per_packet: h.per_packet,
                propagation: h.propagation,
                buffer_bytes: u64::MAX,
            },
            next,
        )
        .with_spans(spans.clone());
        if let Some(inj) = plan.and_then(|p| p.injector(&label)) {
            s = s.with_faults(inj);
        }
        s
    };
    let rev_hops: Vec<HopModel> = xfer.hops.iter().rev().cloned().collect();
    let mut rev_ids = Vec::with_capacity(rev_hops.len());
    let mut next = ComponentId::placeholder();
    for (i, h) in rev_hops.iter().enumerate().rev() {
        next = sim.add_component(stage(format!("{prefix}rev{i}"), h, next));
        rev_ids.push(next);
    }
    let cfg = TcpConfig::bulk(flow, xfer.bytes, xfer.ip, window_bytes);
    let receiver = sim.add_component(TcpReceiver::new(flow, xfer.bytes, next));
    let mut fwd_ids = Vec::with_capacity(xfer.hops.len());
    let mut next = receiver;
    for (i, h) in xfer.hops.iter().enumerate().rev() {
        next = sim.add_component(stage(format!("{prefix}hop{i}"), h, next));
        reg.add_stage(next);
        fwd_ids.push(next);
    }
    let sender = sim.add_component(TcpSender::new(cfg, next).with_spans(spans.clone()));
    match rev_ids.first() {
        Some(&id) => sim.component_mut::<PipeStage>(id).next = sender,
        None => sim.component_mut::<TcpReceiver>(receiver).ack_path = sender,
    }
    reg.add_tcp_sender(sender);
    reg.add_tcp_receiver(receiver);
    for &id in rev_ids.iter().rev() {
        reg.add_stage(id);
    }
    sim.send_in(SimDuration::ZERO, sender, msg(StartTransfer));
    kinds.extend(rev_ids.iter().chain(&fwd_ids).map(|&id| (id, 0)));
    kinds.push((sender, 1));
    kinds.push((receiver, 2));
}

/// The traced run: each scenario is hand-wired with the [`LayerTracer`]
/// attached and must reproduce the event count and `RunReport` JSON bytes
/// of the untraced `TransferSet::run(0)` exactly.
pub fn traced(seed: u64, scale: Scale, spans: &mut Spans, out: &mut Outcome, main: bool) {
    let size = Size::of(scale);
    let scenarios = if scale == Scale::Full { 3 } else { 1 };
    let mut totals = Totals::default();
    let (mut wire_s, mut collect_s, mut render_s, mut traced_s, mut untraced_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut retransmits, mut fault_drops) = (0u64, 0u64);
    for i in 0..scenarios {
        let sc = Scenario::generate(seed, i, size);
        let set = sc.transfer_set();
        let s0 = spans.now();
        let clock = Instant::now();
        let (_, reference) = set.run(0);
        untraced_s += clock.elapsed().as_secs_f64();
        spans.record("wan_bulk", "TransferSet::run", s0);
        let reference_json = reference.to_json().dump();

        let begin = Instant::now();
        let s0 = spans.now();
        let mut sim = Simulator::new();
        sim.set_tracer(Box::new(LayerTracer::new(&KINDS, 1 << 23)));
        let mut reg = StatsRegistry::new();
        let mut kinds = Vec::new();
        for (k, (xfer, plan)) in sc.items.iter().enumerate() {
            wire_flow(&mut sim, &mut reg, &mut kinds, k, xfer, plan.as_ref());
        }
        let mut tr = tracer::take(&mut sim);
        for (id, kind) in kinds {
            tr.classify(id, kind);
        }
        wire_s += begin.elapsed().as_secs_f64();
        spans.record("wan_bulk", "wire", s0);

        let s0 = spans.now();
        let (d, tr) = tracer::drive(&mut sim, tr);
        spans.record("desim", "Simulator::step", s0);
        let s0 = spans.now();
        let c = Instant::now();
        let run = reg.collect(&sim);
        collect_s += c.elapsed().as_secs_f64();
        spans.record("net", "StatsRegistry::collect", s0);
        let s0 = spans.now();
        let r = Instant::now();
        let json = run.to_json().dump();
        render_s += r.elapsed().as_secs_f64();
        spans.record("net", "RunReport::to_json+dump", s0);
        traced_s += begin.elapsed().as_secs_f64();

        out.attempted += sc.items.len() as u64;
        if let Err(e) = check_report(&sc, &run) {
            out.failed += sc.items.len() as u64;
            out.problem(format!("wan_bulk traced scenario {i}: {e}"));
        }
        if run.events_processed != reference.events_processed || json != reference_json {
            out.problem(format!(
                "wan_bulk traced scenario {i}: hand-wired run ({} events) does not reproduce \
                 TransferSet::run(0) ({} events, reports {})",
                run.events_processed,
                reference.events_processed,
                if json == reference_json { "equal" } else { "differ" }
            ));
        }
        let s0 = spans.now();
        totals.add(&d, &tr);
        spans.record("desim", "EventQueue replay", s0);
        retransmits += run.senders.iter().map(|s| s.retransmits).sum::<u64>();
        fault_drops += run.hops.iter().map(|h| h.stats.faults_injected()).sum::<u64>();
    }

    let m = &mut out.metrics;
    m.extend(totals.desim_metrics(untraced_s));
    m.extend(totals.kind_metrics(&KINDS));
    m.push(Metric::count("net.tcp.retransmits", retransmits as f64));
    m.push(Metric::count("net.fault.drops", fault_drops as f64));
    m.push(Metric::new("net.stats.collect_ms", "ms", collect_s * 1e3 / scenarios as f64));
    m.push(Metric::new("net.stats.render_ms", "ms", render_s * 1e3 / scenarios as f64));
    if main {
        let attributed = totals.attributed_s() + wire_s + collect_s + render_s;
        m.push(Metric::new("trace.overhead_ratio", "ratio", traced_s / untraced_s));
        m.push(Metric::new("trace.unattributed_ratio", "ratio", 1.0 - attributed / traced_s));
        out.note(format!(
            "wan_bulk traced: {scenarios} scenario(s), {} events, {traced_s:.3} s traced vs \
             {untraced_s:.3} s untraced",
            totals.steps()
        ));
    }
}
