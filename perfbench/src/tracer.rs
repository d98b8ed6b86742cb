//! Kernel-side attribution from outside the program: a [`Tracer`] that
//! charges host time to component types, counts scheduling activity and
//! records the queue's push/pop sequence for a standalone replay.

use std::any::Any;
use std::time::Instant;

use gtw_desim::{ComponentId, EventQueue, SimTime, Simulator, Tracer};

use crate::stats::median;
use crate::Metric;

/// Marker for a pop in the recorded queue-operation sequence; every other
/// value is the delivery instant (ns) of a push.
const POP: u64 = u64::MAX;

/// Host time per component type.
///
/// The interval between two consecutive `on_dispatch`/`on_call`
/// callbacks is charged to the type of the component (or closure) that
/// was dispatched at its start, so a type's time covers its handler plus
/// the kernel's pop of the next event. Component ids map to a type index
/// through a table the workload fills once it has wired the simulation;
/// unclassified ids and the interval before the first dispatch land in
/// the `other` slot.
pub struct LayerTracer {
    /// Slot of unclassified ids; the closure slot follows it.
    other: usize,
    kind_of: Vec<usize>,
    busy_ns: Vec<u64>,
    events: Vec<u64>,
    current: usize,
    last: Instant,
    /// Deliveries scheduled, timers included (`Ctx::timer_in` reports
    /// through both `on_timer_armed` and `on_send`).
    scheduled: u64,
    /// Self-timers armed.
    pub timers: u64,
    /// Closure events run.
    pub calls: u64,
    ops: Vec<u64>,
    op_cap: usize,
}

impl LayerTracer {
    /// A tracer for the given component types. Two slots are appended:
    /// `other` (unclassified) and `closure` (`call_in`/`call_at` events).
    /// At most `op_cap` queue operations are recorded for the replay.
    pub fn new(kinds: &[&'static str], op_cap: usize) -> Self {
        let other = kinds.len();
        LayerTracer {
            other,
            kind_of: Vec::new(),
            busy_ns: vec![0; other + 2],
            events: vec![0; other + 2],
            current: other,
            last: Instant::now(),
            scheduled: 0,
            timers: 0,
            calls: 0,
            ops: Vec::new(),
            op_cap,
        }
    }

    fn other(&self) -> usize {
        self.other
    }

    fn closure(&self) -> usize {
        self.other + 1
    }

    /// Charge dispatches to `id` to type `kind` (an index into the
    /// constructor's `kinds`).
    pub fn classify(&mut self, id: ComponentId, kind: usize) {
        assert!(kind < self.other(), "kind {kind} out of range");
        let i = id.index();
        if self.kind_of.len() <= i {
            self.kind_of.resize(i + 1, self.other());
        }
        self.kind_of[i] = kind;
    }

    fn switch_to(&mut self, kind: usize) {
        let now = Instant::now();
        self.busy_ns[self.current] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.current = kind;
        self.events[kind] += 1;
    }

    /// Restart the clock: the interval up to the first dispatch is
    /// charged to `other`.
    pub fn start(&mut self) {
        self.current = self.other();
        self.last = Instant::now();
    }

    /// Charge the last handler's interval, ending at `end`.
    pub fn stop_at(&mut self, end: Instant) {
        self.busy_ns[self.current] += end.saturating_duration_since(self.last).as_nanos() as u64;
        self.current = self.other();
        self.last = end;
    }

    /// Deliveries scheduled by `send_in`/`send_at`, timers excluded.
    pub fn sends(&self) -> u64 {
        self.scheduled - self.timers
    }

    /// Events dispatched to a type.
    pub fn events(&self, kind: usize) -> u64 {
        self.events[kind]
    }

    /// Host nanoseconds charged to a type.
    pub fn busy_ns(&self, kind: usize) -> u64 {
        self.busy_ns[kind]
    }

    /// Host nanoseconds charged to closure events.
    pub fn closure_ns(&self) -> u64 {
        self.busy_ns[self.closure()]
    }

    /// The recorded push/pop sequence (closure events excluded: their
    /// pushes are not visible to a tracer).
    pub fn ops(&self) -> &[u64] {
        &self.ops
    }

    fn record(&mut self, op: u64) {
        if self.ops.len() < self.op_cap {
            self.ops.push(op);
        }
    }
}

impl Tracer for LayerTracer {
    fn on_dispatch(&mut self, _now: SimTime, target: ComponentId, _name: &str) {
        let kind = self.kind_of.get(target.index()).copied().unwrap_or(self.other());
        self.switch_to(kind);
        self.record(POP);
    }

    fn on_send(&mut self, _now: SimTime, _from: ComponentId, _to: ComponentId, at: SimTime) {
        self.scheduled += 1;
        self.record(at.as_nanos().min(POP - 1));
    }

    fn on_timer_armed(&mut self, _now: SimTime, _owner: ComponentId, _at: SimTime) {
        self.timers += 1;
    }

    fn on_call(&mut self, _now: SimTime) {
        self.calls += 1;
        let kind = self.closure();
        self.switch_to(kind);
    }
}

/// Queue depth seen while stepping a simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Drive {
    /// Events processed.
    pub steps: u64,
    /// Largest `events_pending()` after a step.
    pub depth_max: usize,
    /// Sum of `events_pending()` after each step.
    pub depth_sum: u64,
}

impl Drive {
    /// Mean queue depth after a step.
    pub fn depth_mean(&self) -> f64 {
        self.depth_sum as f64 / self.steps.max(1) as f64
    }
}

/// Run `sim` to completion one [`Simulator::step`] at a time — the same
/// event sequence as [`Simulator::run`] — sampling the queue depth after
/// every step, with `tracer` attached for the duration. Returns the
/// depth figures and the tracer with its clock stopped at the loop's end.
pub fn drive(sim: &mut Simulator, mut tracer: LayerTracer) -> (Drive, LayerTracer) {
    let mut d = Drive::default();
    tracer.start();
    sim.set_tracer(Box::new(tracer));
    while sim.step() {
        let depth = sim.events_pending();
        d.steps += 1;
        d.depth_max = d.depth_max.max(depth);
        d.depth_sum += depth as u64;
    }
    let end = Instant::now();
    let mut tracer = take(sim);
    tracer.stop_at(end);
    (d, tracer)
}

/// Detach the [`LayerTracer`] attached to `sim`.
pub fn take(sim: &mut Simulator) -> LayerTracer {
    let boxed: Box<dyn Any> = sim.take_tracer().expect("a tracer is attached");
    *boxed.downcast::<LayerTracer>().expect("the attached tracer is a LayerTracer")
}

/// Replay a recorded push/pop sequence through a standalone
/// [`EventQueue`] with boxed payloads (the kernel's `Msg` shape) and
/// return the median host nanoseconds per operation over `reps` replays.
/// A pop on an empty queue (its push came from a closure event the tracer
/// could not see) is a no-op, as it is in the kernel.
pub fn replay_ns_per_op(ops: &[u64], reps: usize) -> f64 {
    if ops.is_empty() {
        return f64::NAN;
    }
    let mut per_op = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let mut q: EventQueue<Box<dyn Any + Send>> = EventQueue::new();
        let t = Instant::now();
        for &op in ops {
            if op == POP {
                std::hint::black_box(q.pop());
            } else {
                q.push(SimTime::from_nanos(op), Box::new(op));
            }
        }
        per_op.push(t.elapsed().as_nanos() as f64 / ops.len() as f64);
        std::hint::black_box(q.len());
    }
    crate::stats::median(&per_op)
}

/// Kernel figures summed over a workload's traced simulations.
#[derive(Default)]
pub struct Totals {
    drive: Drive,
    busy_ns: Vec<u64>,
    events: Vec<u64>,
    closure_ns: u64,
    sends: u64,
    timers: u64,
    calls: u64,
    queue_ns_per_op: Vec<f64>,
}

impl Totals {
    /// Add one traced simulation and replay its queue operations.
    pub fn add(&mut self, d: &Drive, tr: &LayerTracer) {
        self.drive.steps += d.steps;
        self.drive.depth_max = self.drive.depth_max.max(d.depth_max);
        self.drive.depth_sum += d.depth_sum;
        self.busy_ns.resize(tr.other, 0);
        self.events.resize(tr.other, 0);
        for k in 0..tr.other {
            self.busy_ns[k] += tr.busy_ns(k);
            self.events[k] += tr.events(k);
        }
        self.closure_ns += tr.closure_ns();
        self.sends += tr.sends();
        self.timers += tr.timers;
        self.calls += tr.calls;
        self.queue_ns_per_op.push(replay_ns_per_op(tr.ops(), 3));
    }

    /// Events processed.
    pub fn steps(&self) -> u64 {
        self.drive.steps
    }

    /// Host seconds charged to the classified component types and to
    /// closure events.
    pub fn attributed_s(&self) -> f64 {
        (self.busy_ns.iter().sum::<u64>() + self.closure_ns) as f64 * 1e-9
    }

    /// The `desim.*` metrics; `untraced_s` is the host time of the same
    /// simulations run untraced.
    pub fn desim_metrics(&self, untraced_s: f64) -> Vec<Metric> {
        let d = &self.drive;
        vec![
            Metric::count("desim.events", d.steps as f64),
            Metric::count("desim.sends", self.sends as f64),
            Metric::count("desim.timers_armed", self.timers as f64),
            Metric::count("desim.closure_calls", self.calls as f64),
            Metric::new("desim.events_per_s", "1/s", d.steps as f64 / untraced_s),
            Metric::count("desim.queue.depth_max", d.depth_max as f64),
            Metric::count("desim.queue.depth_mean", d.depth_mean()),
            Metric::new("desim.queue.ns_per_op", "ns", median(&self.queue_ns_per_op)),
        ]
    }

    /// `{kind}.events` and `{kind}.ns_per_event` for each component type,
    /// named as in the tracer's constructor.
    pub fn kind_metrics(&self, kinds: &[&str]) -> Vec<Metric> {
        kinds
            .iter()
            .zip(self.busy_ns.iter().zip(&self.events))
            .flat_map(|(name, (&busy, &events))| {
                [
                    Metric::count(format!("{name}.events"), events as f64),
                    Metric::new(
                        format!("{name}.ns_per_event"),
                        "ns",
                        busy as f64 / events.max(1) as f64,
                    ),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_desim::component::{msg, Component, Ctx, Msg};
    use gtw_desim::SimDuration;

    struct Ping {
        left: u32,
    }

    impl Component for Ping {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _m: Msg) {
            if self.left > 0 {
                self.left -= 1;
                ctx.timer_in(SimDuration::from_micros(1), msg(()));
            }
        }
    }

    #[test]
    fn counts_and_attribution_cover_every_event() {
        let mut sim = Simulator::new();
        sim.set_tracer(Box::new(LayerTracer::new(&["ping"], 1 << 10)));
        let id = sim.add_component(Ping { left: 9 });
        sim.send_in(SimDuration::ZERO, id, msg(()));
        sim.call_in(SimDuration::from_micros(3), |_| {});
        let mut tr = take(&mut sim);
        tr.classify(id, 0);
        let (d, tr) = drive(&mut sim, tr);
        assert_eq!(d.steps, 11);
        assert_eq!(tr.events(0), 10);
        assert_eq!(tr.calls, 1);
        assert_eq!(tr.timers, 9);
        assert_eq!(tr.sends(), 1);
        // 10 pushes seen (the closure's is not) and 10 delivery pops.
        assert_eq!(tr.ops().len(), 20);
        assert!(replay_ns_per_op(tr.ops(), 2) > 0.0);
    }
}
