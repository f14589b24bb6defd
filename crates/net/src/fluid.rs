//! The fluid network: max-min fair sharing plus stochastic loss.
//!
//! Each tick (default 10 ms):
//!
//! 1. every active flow states its *desired* rate — the minimum of its
//!    congestion-control rate and its application limit;
//! 2. link capacity is divided by progressive filling (max-min fairness):
//!    all flows grow uniformly until a link saturates or a flow reaches its
//!    desire, then that constraint freezes and filling continues;
//! 3. flows advance `rate × dt` bytes; completion times are recorded;
//! 4. random loss is sampled per flow from its path loss probability and
//!    the number of packets it moved this tick; lossy flows get their
//!    congestion control's loss reaction. Links driven at ≥ capacity apply
//!    an additional congestion-loss probability, closing the AIMD loop even
//!    on clean fiber.
//!
//! # Epochs
//!
//! Re-running progressive filling every tick is wasteful: between
//! *allocation-changing events* (flow arrival/completion, a link going up
//! or down, a material change in a flow's desired rate) the allocation is
//! constant, so the solver caches it and each tick reduces to the
//! advance/loss bookkeeping of steps 3–4. A congestion-controlled flow's
//! desire may drift up to `DESIRE_TOLERANCE` (0.5 %) from the value used
//! at the last solve before a re-solve is forced. Every solve fills all
//! active flows again; an early exit skips filling entirely when every
//! link can carry the sum of its flows' desires.
//!
//! # Jumps
//!
//! [`FluidNet::step`] advances one tick. The run loops
//! ([`FluidNet::run_until`], [`FluidNet::run_flow_to_completion`]) jump
//! instead, from event to event, for every kind of congestion control:
//! between solves each rate is frozen, so bytes grow linearly, loss gaps
//! are geometric, and only each flow's controller moves, upward between
//! losses, by the closed forms of [`crate::cc`]. Each flow folds
//! `DESIRE_TOLERANCE`, its app limit and the link-limited exemption into
//! one threshold rate (infinite when its desire cannot drift, e.g. UDT
//! above its app cap), and a jump runs to the earliest of the deadline,
//! one tick short of the first completion, and the first tick at which a
//! controller passes its threshold. A loss inside the jump advances that
//! flow's controller to the loss tick and applies the loss there; the jump
//! ends at that tick only if the loss makes the desire drift materially.
//! `Constant` flows never end a jump early, so a net of them draws each
//! flow's gaps in flow order up to the jump's end, and nothing else.
//!
//! # Telemetry points
//!
//! A flow started while a live [`Telemetry`] handle is attached emits two
//! trace points every `POINT_EVERY` (5 simulated seconds), at the first
//! tick end at or past each due time: `net.flowN.mbps`, its allocated
//! rate, and `net.flowN.cwnd_mbps`, its controller's desired rate (inside
//! a jump, the closed-form state at the point's tick). Any other flow
//! keeps no point state, and a jump walks only its losses.
//!
//! [`FluidNet::topology_mut`] marks the cached allocation stale, so the
//! next tick solves again. That is the per-tick referee of the differential
//! tests: the same `FluidNet` with `topology_mut()` called before every
//! `step()`. With the `audit` feature every solve is also checked against
//! max-min fairness directly (`net.max_min_fair`): a flow held below its
//! desire must cross a downed link, or a saturated link on which no flow
//! gets a higher rate.
//!
//! The solver is allocation-free on the hot path: all per-solve working
//! sets live in persistent scratch buffers on the [`FluidNet`].

use osdc_sim::{SimDuration, SimRng, SimTime};
use osdc_telemetry::{audit, CounterId, GaugeId, HistogramId, Telemetry};

use crate::cc::CongestionControl;
use crate::topology::{LinkId, NodeId, Topology};
use crate::MSS_BYTES;

/// Pre-interned ids for the network-wide metrics; per-flow throughput
/// goes out as trace points instead, so flow count never grows the
/// registry.
#[derive(Clone, Copy, Debug)]
struct NetIds {
    flows_started: CounterId,
    flows_completed: CounterId,
    loss_events: CounterId,
    active_flows: GaugeId,
    flow_throughput_mbps: HistogramId,
}

impl NetIds {
    fn register(tele: &Telemetry) -> Self {
        NetIds {
            flows_started: tele.counter("net.flows_started"),
            flows_completed: tele.counter("net.flows_completed"),
            loss_events: tele.counter("net.loss_events"),
            active_flows: tele.gauge("net.active_flows"),
            flow_throughput_mbps: tele.histogram("net.flow_throughput_mbps"),
        }
    }
}

/// Spacing of a flow's telemetry points: coarse enough that a
/// terabyte-scale Table 3 transfer cannot evict everything else from the
/// shared trace ring.
const POINT_EVERY: SimDuration = SimDuration::from_secs(5);

/// Relative drift of a flow's desired rate (vs. the desire used at the
/// last solve) that forces a re-solve: ~0.5 %, throughput-accurate to well
/// under a percent.
const DESIRE_TOLERANCE: f64 = 5e-3;

/// Handle to a flow inside a [`FluidNet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowId(pub usize);

/// Parameters for starting a flow.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    pub src: NodeId,
    pub dst: NodeId,
    /// Total bytes to move; `u64::MAX` approximates an unbounded source.
    pub bytes: u64,
    pub cc: CongestionControl,
    /// Application ceiling in bits/second (disk, cipher, or protocol stage
    /// bottleneck). `f64::INFINITY` if unconstrained.
    pub app_limit_bps: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowStatus {
    Active,
    Done { at: SimTime },
}

/// Why a flow could not be started. Under fault injection (links down,
/// sites partitioned) these are runtime conditions the caller degrades
/// on, not configuration errors worth a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// No usable route between the endpoints (possibly because every
    /// candidate path crosses a downed link).
    NoRoute { src: String, dst: String },
    /// Source and destination are the same node.
    SameEndpoint { node: String },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoRoute { src, dst } => write!(f, "no route {src} → {dst}"),
            NetError::SameEndpoint { node } => {
                write!(f, "flow endpoints must differ (both {node})")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A flow's telemetry points; only flows started under live telemetry
/// have them.
struct FlowPoints {
    /// `net.flowN.mbps`.
    mbps: String,
    /// `net.flowN.cwnd_mbps`.
    cwnd: String,
    /// The next point goes on the first tick end at or past this time.
    next_at: SimTime,
}

impl FlowPoints {
    fn emit(&mut self, tele: &Telemetry, at: SimTime, rate_bps: f64, cwnd_bps: f64) {
        tele.point(&self.mbps, at, rate_bps / 1e6);
        tele.point(&self.cwnd, at, cwnd_bps / 1e6);
        self.next_at = at + POINT_EVERY;
    }
}

struct FlowState {
    src: NodeId,
    dst: NodeId,
    path: Vec<LinkId>,
    path_loss: f64,
    bytes_total: u64,
    bytes_done: f64,
    cc: CongestionControl,
    app_limit_bps: f64,
    status: FlowStatus,
    started: SimTime,
    loss_events: u64,
    points: Option<FlowPoints>,
    /// Allocated rate from the last solve, bits/second.
    rate_bps: f64,
    /// The desire fed to the solver at the last solve; drift beyond
    /// `DESIRE_TOLERANCE` forces a re-solve.
    desire_used: f64,
    /// Whether any path link was saturated at the last solve.
    congested: bool,
    /// Per-tick loss-event probability cache, keyed on the exact
    /// `(p, pkts)` pair so the `powf` is skipped while the rate holds.
    q_key_p: f64,
    q_key_pkts: f64,
    q_event: f64,
}

impl FlowState {
    fn is_active(&self) -> bool {
        self.status == FlowStatus::Active
    }

    fn desire(&self) -> f64 {
        self.cc.desired_rate_bps().min(self.app_limit_bps)
    }

    /// Would re-solving with desire `d` materially change the allocation?
    fn desire_drifted(&self, d: f64) -> bool {
        // A flow held below its desire by links stays link-limited while
        // its desire remains above the allocation: the desire is not the
        // binding constraint, so its motion cannot change the result.
        if self.rate_bps < self.desire_used - 1e-6 && d > self.rate_bps * (1.0 + DESIRE_TOLERANCE) {
            return false;
        }
        (d - self.desire_used).abs() > DESIRE_TOLERANCE * self.desire_used.max(1.0)
    }

    /// Per-packet loss probability: residual path loss plus congestion
    /// loss when a path link was saturated at the last solve, capped at 1
    /// (a near-total loss rate on a saturated link would otherwise pass
    /// it, and `(1 - p)^pkts` would be NaN).
    fn loss_prob(&self, congestion_loss: f64) -> f64 {
        (self.path_loss + if self.congested { congestion_loss } else { 0.0 }).min(1.0)
    }

    /// Per-tick loss-event probability for `pkts` packets at per-packet
    /// probability `p`, cached on the exact pair.
    fn q_event_for(&mut self, p: f64, pkts: f64) -> f64 {
        if p != self.q_key_p || pkts != self.q_key_pkts {
            self.q_key_p = p;
            self.q_key_pkts = pkts;
            self.q_event = 1.0 - (1.0 - p).powf(pkts);
        }
        self.q_event
    }

    /// The congestion-control rate above which this flow's desire drifts
    /// materially upward ([`FlowState::desire_drifted`] folded into one
    /// number): `∞` when it cannot, because the flow is link-limited (any
    /// upward move is exempt) or the app limit holds the desire inside the
    /// tolerance band.
    fn drift_threshold(&self) -> f64 {
        if self.rate_bps < self.desire_used - 1e-6 {
            return f64::INFINITY;
        }
        let t = self.desire_used + DESIRE_TOLERANCE * self.desire_used.max(1.0);
        if t.is_nan() || self.app_limit_bps <= t {
            f64::INFINITY
        } else {
            t
        }
    }
}

/// Persistent solver working sets: nothing on the solve path allocates.
#[derive(Default)]
struct Scratch {
    /// `(flow index, desired rate)` in ascending flow order.
    desires: Vec<(usize, f64)>,
    /// `(flow index, allocated rate)`, parallel to `desires`.
    alloc: Vec<(usize, f64)>,
    frozen: Vec<bool>,
    remaining: Vec<f64>,
    users: Vec<usize>,
    /// `(flow index, tick)` of every loss drawn inside a jump, grouped by
    /// flow in ascending index and ascending tick within a flow.
    losses: Vec<(usize, u64)>,
}

/// Solver work counters, exposed for benches and tests that pin how much
/// work a run does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Simulated ticks covered, whether stepped or jumped over (a jump
    /// counts every tick it covers).
    pub ticks: u64,
    /// Progressive-filling solves executed.
    pub solves: u64,
    /// Advances of the clock: one per [`FluidNet::step`] and one per
    /// closed-form jump, however many ticks it covers.
    pub advances: u64,
}

/// The simulator. Owns a topology, the flows, a clock and a seeded RNG.
pub struct FluidNet {
    topo: Topology,
    flows: Vec<FlowState>,
    now: SimTime,
    tick: SimDuration,
    rng: SimRng,
    /// Extra per-packet loss probability applied when a link is saturated.
    congestion_loss: f64,
    tele: Telemetry,
    ids: Option<NetIds>,
    /// Active-flow counter, maintained on start/complete/cancel so no call
    /// site pays an O(flows) scan.
    active: usize,
    /// Whether an allocation-changing event (a flow starting, completing
    /// or cancelled, a link going up or down, a flow moving path, or
    /// `topology_mut`) came after the last solve.
    stale: bool,
    /// Per-link allocated load at the last solve, rebuilt by every solve.
    link_load: Vec<f64>,
    link_saturated: Vec<bool>,
    scratch: Scratch,
    stats: SolverStats,
}

impl FluidNet {
    pub fn new(topo: Topology, seed: u64) -> Self {
        FluidNet {
            topo,
            flows: Vec::new(),
            now: SimTime::ZERO,
            tick: SimDuration::from_millis(10),
            rng: SimRng::new(seed),
            congestion_loss: 1e-4,
            tele: Telemetry::disabled(),
            ids: None,
            active: 0,
            stale: true,
            link_load: Vec::new(),
            link_saturated: Vec::new(),
            scratch: Scratch::default(),
            stats: SolverStats::default(),
        }
    }

    /// Tick/solve counters since construction.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Attach a telemetry handle. Flows started from now on put their
    /// throughput and cwnd into the trace ring as points every 5 simulated
    /// seconds; loss events and flow lifecycle go into counters;
    /// completed-flow goodput into a histogram.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.ids = tele.is_enabled().then(|| NetIds::register(&tele));
        self.tele = tele;
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Launch a flow. Errors (rather than panicking) when the endpoints
    /// coincide or no usable route exists — under fault injection a
    /// partitioned WAN is a runtime condition to degrade on, not a
    /// configuration bug.
    pub fn start_flow(&mut self, spec: FlowSpec) -> Result<FlowId, NetError> {
        if spec.src == spec.dst {
            return Err(NetError::SameEndpoint {
                node: self.topo.node_name(spec.src).to_string(),
            });
        }
        let path =
            self.topo
                .shortest_path(spec.src, spec.dst)
                .ok_or_else(|| NetError::NoRoute {
                    src: self.topo.node_name(spec.src).to_string(),
                    dst: self.topo.node_name(spec.dst).to_string(),
                })?;
        let path_loss = self.topo.path_loss_rate(&path);
        let id = FlowId(self.flows.len());
        let points = self.ids.map(|_| FlowPoints {
            mbps: format!("net.flow{}.mbps", id.0),
            cwnd: format!("net.flow{}.cwnd_mbps", id.0),
            next_at: self.now,
        });
        self.stale = true;
        self.flows.push(FlowState {
            src: spec.src,
            dst: spec.dst,
            path,
            path_loss,
            bytes_total: spec.bytes,
            bytes_done: 0.0,
            cc: spec.cc,
            app_limit_bps: spec.app_limit_bps,
            status: FlowStatus::Active,
            started: self.now,
            loss_events: 0,
            points,
            rate_bps: 0.0,
            desire_used: f64::NAN,
            congested: false,
            q_key_p: f64::NAN,
            q_key_pkts: f64::NAN,
            q_event: 0.0,
        });
        self.active += 1;
        if let Some(ids) = &self.ids {
            self.tele.incr(ids.flows_started);
            self.tele.set_gauge(ids.active_flows, self.active as f64);
        }
        Ok(id)
    }

    /// Mutable access to the topology. Marks the cached allocation stale,
    /// so the next tick solves again: calling it before every `step()`
    /// makes the per-tick referee of the differential tests. Flows keep
    /// their paths and path loss; fault injection goes through
    /// [`FluidNet::set_link_up`] / [`FluidNet::set_link_loss_rate`] /
    /// [`FluidNet::set_link_delay`], which also reroute and re-sample.
    pub fn topology_mut(&mut self) -> &mut Topology {
        self.stale = true;
        &mut self.topo
    }

    /// Reroute active flows onto current shortest paths and re-sample
    /// their path loss from current link state; a flow that moves makes
    /// the allocation stale. Flows left with no usable route keep their
    /// path and stall (downed links carry nothing) until connectivity
    /// returns. Returns how many flows changed path.
    fn reroute_flows(&mut self) -> usize {
        let mut rerouted = 0;
        for f in self.flows.iter_mut().filter(|f| f.is_active()) {
            if let Some(path) = self.topo.shortest_path(f.src, f.dst) {
                if path != f.path {
                    rerouted += 1;
                    f.path = path;
                }
            }
            f.path_loss = self.topo.path_loss_rate(&f.path);
        }
        if rerouted > 0 {
            self.stale = true;
        }
        rerouted
    }

    /// Bring a link up or down and reconverge routing. Returns how many
    /// flows changed path.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) -> usize {
        self.topo.set_link_up(id, up);
        self.stale = true;
        self.reroute_flows()
    }

    /// Change a link's residual loss rate. Loss does not enter the
    /// allocator or the routing metric, so only the path-loss of flows
    /// crossing the link is refreshed; cached rates stay valid.
    pub fn set_link_loss_rate(&mut self, id: LinkId, loss_rate: f64) {
        self.topo.set_link_loss_rate(id, loss_rate);
        for i in 0..self.flows.len() {
            if self.flows[i].is_active() && self.flows[i].path.contains(&id) {
                self.flows[i].path_loss = self.topo.path_loss_rate(&self.flows[i].path);
            }
        }
    }

    /// Change a link's propagation delay and reconverge routing (delay is
    /// the routing metric, so any path may move). Returns how many flows
    /// changed path.
    pub fn set_link_delay(&mut self, id: LinkId, delay: SimDuration) -> usize {
        self.topo.set_link_delay(id, delay);
        self.reroute_flows()
    }

    pub fn status(&self, id: FlowId) -> FlowStatus {
        self.flows[id.0].status
    }

    pub fn bytes_done(&self, id: FlowId) -> u64 {
        self.flows[id.0].bytes_done as u64
    }

    pub fn loss_events(&self, id: FlowId) -> u64 {
        self.flows[id.0].loss_events
    }

    /// Mean goodput of a finished flow in bits/second.
    pub fn average_throughput_bps(&self, id: FlowId) -> Option<f64> {
        let f = &self.flows[id.0];
        match f.status {
            FlowStatus::Done { at } => {
                let secs = at.saturating_since(f.started).as_secs_f64();
                (secs > 0.0).then(|| f.bytes_done * 8.0 / secs)
            }
            FlowStatus::Active => None,
        }
    }

    /// Number of active flows. O(1): a counter maintained at flow
    /// start/completion/cancel.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Progressive filling over `scratch.desires`, writing
    /// `scratch.alloc`.
    fn allocate_into(topo: &Topology, flows: &[FlowState], s: &mut Scratch) {
        let links = topo.link_count();
        s.remaining.clear();
        s.remaining.extend((0..links).map(|l| {
            let link = topo.link(LinkId(l));
            // A downed link carries nothing: flows still routed over it
            // (no alternative path) freeze at zero rate and stall.
            if link.up {
                link.capacity_bps
            } else {
                0.0
            }
        }));
        s.alloc.clear();
        s.alloc.extend(s.desires.iter().map(|&(i, _)| (i, 0.0)));
        s.frozen.clear();
        s.frozen.resize(s.desires.len(), false);
        s.users.clear();
        s.users.resize(links, 0);
        loop {
            for c in s.users.iter_mut() {
                *c = 0;
            }
            for (k, &(i, _)) in s.desires.iter().enumerate() {
                if !s.frozen[k] {
                    for &l in &flows[i].path {
                        s.users[l.0] += 1;
                    }
                }
            }
            // Uniform growth headroom: min over flows of remaining demand
            // and min over their links of remaining/users.
            let mut delta = f64::INFINITY;
            let mut any = false;
            for (k, &(i, desire)) in s.desires.iter().enumerate() {
                if s.frozen[k] {
                    continue;
                }
                any = true;
                delta = delta.min(desire - s.alloc[k].1);
                for &l in &flows[i].path {
                    delta = delta.min(s.remaining[l.0] / s.users[l.0] as f64);
                }
            }
            if !any {
                break;
            }
            let delta = delta.max(0.0);
            for (k, &(i, desire)) in s.desires.iter().enumerate() {
                if s.frozen[k] {
                    continue;
                }
                s.alloc[k].1 += delta;
                for &l in &flows[i].path {
                    s.remaining[l.0] -= delta;
                }
                if s.alloc[k].1 >= desire - 1e-6 {
                    s.frozen[k] = true;
                }
            }
            // Freeze every unfrozen flow crossing a saturated link.
            let mut progressed = false;
            for (k, &(i, _)) in s.desires.iter().enumerate() {
                if s.frozen[k] {
                    continue;
                }
                if flows[i].path.iter().any(|&l| s.remaining[l.0] <= 1e-3) {
                    s.frozen[k] = true;
                    progressed = true;
                }
            }
            if delta <= 0.0 && !progressed {
                // No headroom and nothing froze: numerical corner; stop.
                break;
            }
        }
    }

    /// Solve every active flow: rebuilds desires, the per-link load
    /// ledger, saturation flags and every flow's cached rate.
    fn solve(&mut self) {
        self.stats.solves += 1;
        self.scratch.desires.clear();
        for (i, f) in self.flows.iter().enumerate() {
            if f.is_active() {
                self.scratch.desires.push((i, f.desire()));
            }
        }
        // Early exit: if every link can carry the sum of its crossing
        // desires, the allocation *is* the desires. (Links can be added
        // through `topology_mut`, so the ledger is sized here.)
        let links = self.topo.link_count();
        self.link_load.clear();
        self.link_load.resize(links, 0.0);
        self.link_saturated.resize(links, false);
        for &(i, d) in &self.scratch.desires {
            for &l in &self.flows[i].path {
                self.link_load[l.0] += d;
            }
        }
        let mut fits = true;
        for l in 0..links {
            if self.link_load[l] > 0.0 {
                let link = self.topo.link(LinkId(l));
                if !link.up || self.link_load[l] > link.capacity_bps {
                    fits = false;
                    break;
                }
            }
        }
        if fits {
            self.scratch.alloc.clear();
            let desires = std::mem::take(&mut self.scratch.desires);
            self.scratch.alloc.extend(desires.iter().copied());
            self.scratch.desires = desires;
        } else {
            Self::allocate_into(&self.topo, &self.flows, &mut self.scratch);
            // Per-link load from the fresh allocation (ascending flow order).
            self.link_load.fill(0.0);
            for &(i, rate) in &self.scratch.alloc {
                for &l in &self.flows[i].path {
                    self.link_load[l.0] += rate;
                }
            }
        }
        for l in 0..links {
            self.link_saturated[l] =
                self.link_load[l] >= self.topo.link(LinkId(l)).capacity_bps * 0.999;
        }
        for k in 0..self.scratch.desires.len() {
            let (i, d) = self.scratch.desires[k];
            let rate = self.scratch.alloc[k].1;
            audit::check!(
                rate.is_finite() && rate >= 0.0 && rate <= d + 1e-3,
                "net.flow_rate_in_bounds",
                "solve: flow {i} allocated {rate} bps against desire {d}"
            );
            let sat = &self.link_saturated;
            let congested = self.flows[i].path.iter().any(|&l| sat[l.0]);
            let f = &mut self.flows[i];
            f.rate_bps = rate;
            f.desire_used = d;
            f.congested = congested;
        }
        self.audit_link_loads("solve");
        self.audit_max_min("solve");
        self.stale = false;
    }

    /// Audit-only structural scan over the link ledger: no link carries a
    /// negative load, and no *up* link is booked beyond its capacity
    /// (within progressive-filling float slack). Compiled out unless the
    /// `audit` feature is on.
    fn audit_link_loads(&self, site: &str) {
        if !audit::enabled() {
            return;
        }
        for l in 0..self.topo.link_count() {
            let load = self.link_load[l];
            let link = self.topo.link(LinkId(l));
            audit::check!(
                load >= -1e-3,
                "net.link_load_nonnegative",
                "{site}: link {l} booked at {load} bps"
            );
            if link.up {
                audit::check!(
                    load <= link.capacity_bps * (1.0 + 1e-6) + 1e-3,
                    "net.link_load_le_capacity",
                    "{site}: link {l} booked at {load} bps over {} bps capacity",
                    link.capacity_bps
                );
            }
        }
    }

    /// Audit-only max-min fairness check on the cached allocation: every
    /// active flow held more than 1e-3 bps below the desire it was solved
    /// with (`desire_used`, since drift inside the tolerance is by design)
    /// crosses a downed link, or a saturated link on which no flow gets a
    /// higher rate. "Saturated" and "higher" allow `1e-6 × capacity + 1e-3`
    /// of float slack. Compiled out unless the `audit` feature is on.
    fn audit_max_min(&self, site: &str) {
        if !audit::enabled() {
            return;
        }
        let mut top_rate = vec![0.0f64; self.topo.link_count()];
        for f in self.flows.iter().filter(|f| f.is_active()) {
            for &l in &f.path {
                top_rate[l.0] = top_rate[l.0].max(f.rate_bps);
            }
        }
        for (i, f) in self.flows.iter().enumerate() {
            if !f.is_active() || f.rate_bps >= f.desire_used - 1e-3 {
                continue;
            }
            let bottlenecked = f.path.iter().any(|&l| {
                let link = self.topo.link(l);
                let slack = 1e-6 * link.capacity_bps + 1e-3;
                !link.up
                    || (self.link_load[l.0] >= link.capacity_bps - slack
                        && top_rate[l.0] <= f.rate_bps + slack)
            });
            audit::check!(
                bottlenecked,
                "net.max_min_fair",
                "{site}: flow {i} held at {} bps below its desire {} with no bottleneck link",
                f.rate_bps,
                f.desire_used
            );
        }
    }

    /// Does any active flow's desire sit outside the cached solve's
    /// tolerance band?
    fn desires_drifted(&self) -> bool {
        self.flows
            .iter()
            .any(|f| f.is_active() && f.desire_drifted(f.desire()))
    }

    /// Advance one tick. Returns the new virtual time.
    pub fn step(&mut self) -> SimTime {
        self.stats.ticks += 1;
        self.stats.advances += 1;
        if self.active == 0 {
            self.now += self.tick;
            return self.now;
        }
        if self.stale || self.desires_drifted() {
            self.solve();
        }
        self.advance_tick()
    }

    /// Steps 3–4 of the tick: advance every active flow on its cached
    /// rate, record completions and traces, sample loss, in ascending flow
    /// index.
    fn advance_tick(&mut self) -> SimTime {
        let dt = self.tick.as_secs_f64();
        let end = self.now + self.tick;
        let ids = self.ids;
        let mut completed = 0usize;
        for i in 0..self.flows.len() {
            if !self.flows[i].is_active() {
                continue;
            }
            let f = &mut self.flows[i];
            let rate = f.rate_bps;
            let bytes = rate * dt / 8.0;
            f.bytes_done += bytes;
            f.cc.on_tick(dt, bytes);
            if f.bytes_done >= f.bytes_total as f64 {
                f.bytes_done = f.bytes_total as f64;
                f.status = FlowStatus::Done { at: end };
                completed += 1;
                self.active -= 1;
                if let Some(ids) = &ids {
                    self.tele.incr(ids.flows_completed);
                    let secs = end.saturating_since(f.started).as_secs_f64();
                    if secs > 0.0 {
                        self.tele
                            .observe(ids.flow_throughput_mbps, f.bytes_done * 8.0 / secs / 1e6);
                    }
                }
            }
            audit::check!(
                f.bytes_done <= f.bytes_total as f64,
                "net.flow_done_le_total",
                "flow {i}: {} of {} bytes after tick",
                f.bytes_done,
                f.bytes_total
            );
            if let Some(p) = f.points.as_mut().filter(|p| end >= p.next_at) {
                p.emit(&self.tele, end, rate, f.cc.desired_rate_bps());
            }
            // Loss sampling: path residual loss plus congestion loss on any
            // saturated link of the path.
            let pkts = bytes / MSS_BYTES;
            let p = f.loss_prob(self.congestion_loss);
            if p > 0.0 && pkts > 0.0 {
                let p_event = f.q_event_for(p, pkts);
                if self.rng.chance(p_event) {
                    f.cc.on_loss();
                    f.loss_events += 1;
                    if let Some(ids) = &ids {
                        self.tele.incr(ids.loss_events);
                    }
                }
            }
        }
        if completed > 0 {
            // The freed capacity re-solves the sharers next tick.
            self.stale = true;
            if let Some(ids) = &ids {
                self.tele.set_gauge(ids.active_flows, self.active as f64);
            }
        }
        self.now = end;
        self.now
    }

    /// Ticks needed to reach `deadline` from now (0 if already there).
    fn ticks_until(&self, deadline: SimTime) -> u64 {
        if deadline.0 <= self.now.0 {
            return 0;
        }
        (deadline.0 - self.now.0).div_ceil(self.tick.0)
    }

    /// Try to cover the ticks up to `deadline` in one closed-form jump.
    /// Needs a fresh allocation (no structural event pending since the
    /// last solve); a desire that drifted materially since then is
    /// re-solved first. Returns whether the clock moved.
    fn try_jump(&mut self, deadline: SimTime) -> bool {
        if self.stale {
            return false;
        }
        if self.desires_drifted() {
            self.solve();
        }
        let k = self.ticks_until(deadline);
        k > 0 && self.jump(k) > 0
    }

    /// Advance up to `max_ticks` ticks in closed form. Rates are frozen
    /// between solves, so bytes grow linearly, loss gaps are geometric and
    /// only each flow's congestion control moves, by the closed forms of
    /// [`crate::cc`]. The jump ends at the earliest of `max_ticks`, one
    /// tick short of the earliest completion (so the completion tick goes
    /// through [`FluidNet::advance_tick`]), and the first tick at which
    /// some flow's desire drifts materially, by growth or by a loss.
    /// Returns the number of ticks jumped (0 when a completion or an
    /// over-unity loss probability demands per-tick stepping).
    fn jump(&mut self, max_ticks: u64) -> u64 {
        let dt = self.tick.as_secs_f64();
        let congestion_loss = self.congestion_loss;
        let mut k = max_ticks;
        for f in self.flows.iter().filter(|f| f.is_active()) {
            let bpt = f.rate_bps * dt / 8.0;
            if bpt > 0.0 {
                let rem = f.bytes_total as f64 - f.bytes_done;
                let to_done = (rem / bpt).ceil();
                let to_done = if to_done >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    to_done as u64
                };
                k = k.min(to_done.saturating_sub(1));
                // Loss probability saturating at 1 would mean a loss per
                // tick; leave that regime to the stepper.
                let p = f.loss_prob(congestion_loss);
                if p > 0.0 && 1.0 - (1.0 - p).powf(bpt / MSS_BYTES) >= 1.0 {
                    return 0;
                }
            }
            if let Some(h) = f.cc.ticks_to_exceed(f.drift_threshold(), dt, bpt) {
                k = k.min(h);
            }
        }
        if k == 0 {
            return 0;
        }
        // Draw each flow's losses as geometric gaps, in ascending flow
        // order. A loss that makes the desire drift ends the jump at its
        // tick; otherwise the flow's growth horizon restarts from the
        // post-loss state. Draws past the (possibly shortened) end are
        // discarded: the per-tick process is memoryless, and flows'
        // processes are independent, so the next jump redraws fairly.
        self.scratch.losses.clear();
        for i in 0..self.flows.len() {
            let f = &mut self.flows[i];
            if !f.is_active() {
                continue;
            }
            let bpt = f.rate_bps * dt / 8.0;
            let pkts = bpt / MSS_BYTES;
            let p = f.loss_prob(congestion_loss);
            if p <= 0.0 || pkts <= 0.0 {
                continue;
            }
            let ln_1mq = (1.0 - f.q_event_for(p, pkts)).ln();
            if ln_1mq >= 0.0 {
                continue;
            }
            let f = &self.flows[i];
            let threshold = f.drift_threshold();
            let mut cc = f.cc.clone();
            let mut cc_at = 0u64;
            let mut at = 0u64;
            loop {
                let u = self.rng.f64();
                let gap = ((1.0 - u).ln() / ln_1mq).floor() + 1.0;
                let gap = if gap >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    gap as u64
                };
                at = at.saturating_add(gap);
                if at > k {
                    break;
                }
                self.scratch.losses.push((i, at));
                cc.advance_ticks(at - cc_at, dt, bpt);
                cc.on_loss();
                cc_at = at;
                if f.desire_drifted(cc.desired_rate_bps().min(f.app_limit_bps)) {
                    k = at;
                    break;
                }
                if let Some(h) = cc.ticks_to_exceed(threshold, dt, bpt) {
                    k = k.min(at.saturating_add(h));
                }
            }
        }
        let t0 = self.now;
        let end = SimTime(t0.0 + k * self.tick.0);
        let mut losses = std::mem::take(&mut self.scratch.losses);
        let mut next_loss = 0;
        for i in 0..self.flows.len() {
            if !self.flows[i].is_active() {
                continue;
            }
            let f = &mut self.flows[i];
            let rate = f.rate_bps;
            let bpt = rate * dt / 8.0;
            f.bytes_done += k as f64 * bpt;
            // The jump stops one tick short of the earliest completion, so
            // no flow may cross its total inside the closed form.
            audit::check!(
                f.bytes_done < f.bytes_total as f64 || bpt <= 0.0,
                "net.jump_stops_before_completion",
                "flow {i}: {} of {} bytes after a {k}-tick jump",
                f.bytes_done,
                f.bytes_total
            );
            // Walk this flow's due points and losses in tick order; a
            // point due on a loss tick sees the state before the loss, as
            // in `advance_tick`. `f.cc` stands at tick `cc_at`.
            let mut cc_at = 0u64;
            loop {
                let loss = losses
                    .get(next_loss)
                    .filter(|&&(j, t)| j == i && t <= k)
                    .map(|&(_, t)| t);
                let point = f.points.as_mut().filter(|p| p.next_at <= end).map(|p| {
                    let j = p.next_at.0.saturating_sub(t0.0).div_ceil(self.tick.0);
                    (j.max(1), p)
                });
                match (point, loss) {
                    (Some((j, p)), l) if l.is_none_or(|t| j <= t) => {
                        let mut cc = f.cc.clone();
                        cc.advance_ticks(j - cc_at, dt, bpt);
                        let at = SimTime(t0.0 + j * self.tick.0);
                        p.emit(&self.tele, at, rate, cc.desired_rate_bps());
                    }
                    (_, Some(t)) => {
                        f.cc.advance_ticks(t - cc_at, dt, bpt);
                        audit::check!(
                            f.cc.state_in_bounds(),
                            "net.cc_state_in_bounds",
                            "flow {i}: {:?} after a {}-tick closed form",
                            f.cc,
                            t - cc_at
                        );
                        f.cc.on_loss();
                        cc_at = t;
                        next_loss += 1;
                        f.loss_events += 1;
                        if let Some(ids) = &self.ids {
                            self.tele.incr(ids.loss_events);
                        }
                    }
                    _ => break,
                }
            }
            // Draws past the jump's end are discarded.
            while losses.get(next_loss).is_some_and(|&(j, _)| j == i) {
                next_loss += 1;
            }
            f.cc.advance_ticks(k - cc_at, dt, bpt);
            audit::check!(
                f.cc.state_in_bounds(),
                "net.cc_state_in_bounds",
                "flow {i}: {:?} after a {}-tick closed form",
                f.cc,
                k - cc_at
            );
        }
        losses.clear();
        self.scratch.losses = losses;
        self.now = end;
        self.stats.ticks += k;
        self.stats.advances += 1;
        k
    }

    /// Run until `flow` completes or `deadline` passes; returns completion
    /// time if it finished.
    pub fn run_flow_to_completion(&mut self, flow: FlowId, deadline: SimTime) -> Option<SimTime> {
        loop {
            if let FlowStatus::Done { at } = self.flows[flow.0].status {
                return Some(at);
            }
            if self.now >= deadline {
                return None;
            }
            if !self.try_jump(deadline) {
                self.step();
            }
        }
    }

    /// Run until the clock reaches `deadline`, whether or not any flow is
    /// active. Backoff waits idle here so the whole net stays on one clock.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.now < deadline {
            if self.active == 0 {
                // No flows: ticks are pure clock advancement, integer-exact.
                let k = self.ticks_until(deadline);
                self.now = SimTime(self.now.0 + k * self.tick.0);
                self.stats.ticks += k;
                self.stats.advances += 1;
                return;
            }
            if !self.try_jump(deadline) {
                self.step();
            }
        }
    }

    /// Abandon an active flow (a transfer giving up on its attempt): it
    /// stops consuming bandwidth immediately. Returns the bytes it had
    /// moved, so a retrying caller can resume from the remainder.
    pub fn cancel_flow(&mut self, id: FlowId) -> u64 {
        if self.flows[id.0].is_active() {
            self.flows[id.0].status = FlowStatus::Done { at: self.now };
            self.active -= 1;
            self.stale = true;
            if let Some(ids) = &self.ids {
                self.tele.set_gauge(ids.active_flows, self.active as f64);
            }
        }
        self.flows[id.0].bytes_done as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_sim::SimDuration;

    fn two_node_net(cap_bps: f64, one_way_ms: u64, loss: f64) -> (FluidNet, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_duplex_link(a, b, cap_bps, SimDuration::from_millis(one_way_ms), loss);
        (FluidNet::new(t, 42), a, b)
    }

    fn deadline_secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn constant_flow_finishes_on_schedule() {
        let (mut net, a, b) = two_node_net(1e9, 5, 0.0);
        // 100 Mbyte at 100 mbit/s → 8 seconds.
        let f = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: 100_000_000,
                cc: CongestionControl::Constant { rate_bps: 100e6 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        let done = net
            .run_flow_to_completion(f, deadline_secs(60))
            .expect("finishes");
        let secs = done.as_secs_f64();
        assert!((secs - 8.0).abs() < 0.1, "took {secs}s");
        assert_eq!(net.bytes_done(f), 100_000_000);
    }

    #[test]
    fn app_limit_caps_throughput() {
        let (mut net, a, b) = two_node_net(10e9, 1, 0.0);
        let f = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: 125_000_000, // 1 Gbit
                cc: CongestionControl::Constant { rate_bps: 10e9 },
                app_limit_bps: 1e9,
            })
            .expect("route");
        let done = net
            .run_flow_to_completion(f, deadline_secs(60))
            .expect("finishes");
        assert!((done.as_secs_f64() - 1.0).abs() < 0.05);
    }

    #[test]
    fn fair_share_between_equal_flows() {
        let (mut net, a, b) = two_node_net(1e9, 1, 0.0);
        let mk = |net: &mut FluidNet| {
            net.start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: u64::MAX,
                cc: CongestionControl::Constant { rate_bps: 2e9 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route")
        };
        let f1 = mk(&mut net);
        let f2 = mk(&mut net);
        for _ in 0..100 {
            net.step();
        }
        let b1 = net.bytes_done(f1) as f64;
        let b2 = net.bytes_done(f2) as f64;
        assert!((b1 / b2 - 1.0).abs() < 0.01, "{b1} vs {b2}");
        // Combined ≈ link capacity × time = 1e9 × 1s / 8.
        assert!(((b1 + b2) / 1.25e8 - 1.0).abs() < 0.02);
    }

    #[test]
    fn demand_limited_flow_leaves_capacity_to_others() {
        let (mut net, a, b) = two_node_net(1e9, 1, 0.0);
        let small = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: u64::MAX,
                cc: CongestionControl::Constant { rate_bps: 100e6 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        let big = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: u64::MAX,
                cc: CongestionControl::Constant { rate_bps: 10e9 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        for _ in 0..100 {
            net.step();
        }
        let rate_small = net.bytes_done(small) as f64 * 8.0 / 1.0;
        let rate_big = net.bytes_done(big) as f64 * 8.0 / 1.0;
        assert!(
            (rate_small / 100e6 - 1.0).abs() < 0.02,
            "small got {rate_small}"
        );
        assert!((rate_big / 900e6 - 1.0).abs() < 0.02, "big got {rate_big}");
    }

    #[test]
    fn reno_lossless_fills_short_fat_pipe() {
        let (mut net, a, b) = two_node_net(100e6, 1, 0.0);
        let f = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: u64::MAX,
                cc: CongestionControl::reno(0.004),
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        for _ in 0..1000 {
            net.step();
        }
        // After 10 s the window has grown far past the BDP; the link is the
        // limit and congestion losses keep it near capacity.
        let tp = net.bytes_done(f) as f64 * 8.0 / 10.0;
        assert!(tp > 70e6, "tp {tp}");
    }

    #[test]
    fn reno_long_fat_pipe_is_loss_limited() {
        // The Table 3 regime: 10G, 104 ms RTT, residual loss ~1.2e-7.
        let (mut net, a, b) = two_node_net(10e9, 52, 1.2e-7 / 2.0); // per-link: path has 1 link each way
        let f = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: u64::MAX,
                cc: CongestionControl::reno(0.104),
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        // 120 simulated seconds.
        for _ in 0..12_000 {
            net.step();
        }
        let tp_mbps = net.bytes_done(f) as f64 * 8.0 / 120.0 / 1e6;
        // Loss-limited far below the 10G line rate, in the few-hundred-mbit
        // band the paper measured for rsync/TCP.
        assert!(
            (200.0..900.0).contains(&tp_mbps),
            "Reno on the LFN should sit in the hundreds of mbit/s, got {tp_mbps}"
        );
    }

    #[test]
    fn udt_beats_reno_on_long_fat_pipe() {
        let mk = |cc: CongestionControl| {
            let (mut net, a, b) = two_node_net(10e9, 52, 6e-8);
            let f = net
                .start_flow(FlowSpec {
                    src: a,
                    dst: b,
                    bytes: u64::MAX,
                    cc,
                    app_limit_bps: 1e9,
                })
                .expect("route");
            for _ in 0..6000 {
                net.step();
            }
            net.bytes_done(f) as f64 * 8.0 / 60.0
        };
        let reno = mk(CongestionControl::reno(0.104));
        let udt = mk(CongestionControl::udt(10e9));
        assert!(
            udt > reno * 1.3,
            "UDT ({:.0} mbit/s) should clearly beat Reno ({:.0} mbit/s)",
            udt / 1e6,
            reno / 1e6
        );
    }

    #[test]
    fn completion_deadline_returns_none() {
        let (mut net, a, b) = two_node_net(1e6, 1, 0.0);
        let f = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: u64::MAX,
                cc: CongestionControl::Constant { rate_bps: 1e6 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        assert!(net.run_flow_to_completion(f, deadline_secs(1)).is_none());
        assert_eq!(net.status(f), FlowStatus::Active);
    }

    /// `(t_ns, value)` of every exported trace point named `name`.
    fn points(tele: &Telemetry, name: &str) -> Vec<(u64, f64)> {
        let key = format!("{{\"kind\":\"point\",\"name\":\"{name}\",\"t_ns\":");
        tele.export_jsonl()
            .lines()
            .filter_map(|l| {
                let (t, v) = l.strip_prefix(key.as_str())?.split_once(",\"value\":")?;
                Some((t.parse().ok()?, v.strip_suffix('}')?.parse().ok()?))
            })
            .collect()
    }

    #[test]
    fn traces_are_recorded() {
        let (mut net, a, b) = two_node_net(1e9, 1, 0.0);
        let tele = Telemetry::new();
        net.set_telemetry(tele.clone());
        net.start_flow(FlowSpec {
            src: a,
            dst: b,
            bytes: u64::MAX,
            cc: CongestionControl::Constant { rate_bps: 500e6 },
            app_limit_bps: f64::INFINITY,
        })
        .expect("route");
        for _ in 0..2000 {
            net.step();
        }
        // 20 s of stepping: points at 0.01, 5.01, 10.01 and 15.01 s.
        for name in ["net.flow0.mbps", "net.flow0.cwnd_mbps"] {
            let pts = points(&tele, name);
            assert_eq!(pts.len(), 4, "{name}: {pts:?}");
            assert!(
                pts.iter().all(|&(_, v)| (v - 500.0).abs() < 1.0),
                "{name}: {pts:?}"
            );
        }
    }

    #[test]
    fn points_are_the_same_stepped_or_jumped() {
        let run = |jump: bool| {
            let (mut net, a, b) = two_node_net(1e9, 5, 0.0);
            let tele = Telemetry::new();
            net.set_telemetry(tele.clone());
            // Start off the 5 s grid: points follow the flow, not the clock.
            net.run_until(SimTime::ZERO + SimDuration::from_millis(1230));
            let f = net
                .start_flow(FlowSpec {
                    src: a,
                    dst: b,
                    bytes: 1_150_000_000, // 23 s at 400 mbit/s
                    cc: CongestionControl::Constant { rate_bps: 400e6 },
                    app_limit_bps: f64::INFINITY,
                })
                .expect("route");
            if jump {
                net.run_flow_to_completion(f, deadline_secs(60))
                    .expect("finishes");
            } else {
                while net.status(f) == FlowStatus::Active {
                    net.step();
                }
            }
            (
                points(&tele, "net.flow0.mbps"),
                points(&tele, "net.flow0.cwnd_mbps"),
            )
        };
        let stepped = run(false);
        assert_eq!(run(true), stepped);
        let (mbps, cwnd) = stepped;
        let due: Vec<(u64, f64)> = (0..5u64)
            .map(|m| (1_240_000_000 + m * 5_000_000_000, 400.0))
            .collect();
        assert_eq!(mbps, due);
        assert_eq!(cwnd, due);
    }

    #[test]
    fn telemetry_traces_flow_lifecycle() {
        let (mut net, a, b) = two_node_net(1e9, 5, 1e-5);
        let tele = Telemetry::new();
        net.set_telemetry(tele.clone());
        let f = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: 100_000_000,
                cc: CongestionControl::Constant { rate_bps: 100e6 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        assert_eq!(tele.counter_value("net.flows_started"), 1);
        assert_eq!(tele.gauge_value("net.active_flows"), Some(1.0));
        net.run_flow_to_completion(f, deadline_secs(60))
            .expect("finishes");
        assert_eq!(tele.counter_value("net.flows_completed"), 1);
        assert_eq!(tele.gauge_value("net.active_flows"), Some(0.0));
        assert_eq!(tele.counter_value("net.loss_events"), net.loss_events(f));
        let snap = tele.histograms_snapshot();
        let tp = snap
            .iter()
            .find(|h| h.name == "net.flow_throughput_mbps")
            .expect("throughput histogram");
        assert_eq!(tp.count, 1);
        let jsonl = tele.export_jsonl();
        assert!(jsonl.contains("net.flow0.mbps"));
        assert!(jsonl.contains("net.flow0.cwnd_mbps"));
    }

    #[test]
    fn telemetry_disabled_leaves_no_trace() {
        let (mut net, a, b) = two_node_net(1e9, 5, 0.0);
        let tele = Telemetry::disabled();
        net.set_telemetry(tele.clone());
        let f = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: 1_000_000,
                cc: CongestionControl::Constant { rate_bps: 100e6 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        net.run_flow_to_completion(f, deadline_secs(60))
            .expect("finishes");
        assert_eq!(net.bytes_done(f), 1_000_000);
        // No point state is kept, and nothing reaches the handle.
        assert!(net.flows[f.0].points.is_none());
        assert_eq!(tele.trace_len(), 0);
        assert!(tele.export_jsonl().is_empty());
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut net, a, b) = two_node_net(10e9, 52, 1e-6);
            let f = net
                .start_flow(FlowSpec {
                    src: a,
                    dst: b,
                    bytes: 10_000_000_000,
                    cc: CongestionControl::udt(10e9),
                    app_limit_bps: 1e9,
                })
                .expect("route");
            net.run_flow_to_completion(f, deadline_secs(1000))
        };
        assert_eq!(run(), run());
    }

    // ---- epoch-solver specific coverage ------------------------------

    /// Run a mixed CC scenario; returns per-flow bytes and the solve
    /// count. `per_tick` runs the referee: `topology_mut()` before every
    /// step drops the cache, so every tick runs a full solve.
    fn mixed_run(per_tick: bool) -> (Vec<u64>, u64) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let h = t.add_node("hub");
        let b = t.add_node("b");
        t.add_duplex_link(a, h, 10e9, SimDuration::from_millis(20), 1e-6);
        t.add_duplex_link(h, b, 2e9, SimDuration::from_millis(32), 1e-6);
        let mut net = FluidNet::new(t, 99);
        let specs = [
            CongestionControl::reno(0.104),
            CongestionControl::udt(2e9),
            CongestionControl::Constant { rate_bps: 400e6 },
        ];
        let flows: Vec<FlowId> = specs
            .iter()
            .map(|cc| {
                net.start_flow(FlowSpec {
                    src: a,
                    dst: b,
                    bytes: 3_000_000_000,
                    cc: cc.clone(),
                    app_limit_bps: 1.5e9,
                })
                .expect("route")
            })
            .collect();
        for _ in 0..4000 {
            if per_tick {
                net.topology_mut();
            }
            net.step();
        }
        let bytes = flows.iter().map(|&f| net.bytes_done(f)).collect();
        (bytes, net.solver_stats().solves)
    }

    #[test]
    fn default_epoch_mode_stays_close_and_solves_less() {
        let (rb, rs) = mixed_run(true);
        let (eb, es) = mixed_run(false);
        for (r, e) in rb.iter().zip(&eb) {
            let (r, e) = (*r as f64, *e as f64);
            assert!(
                (r - e).abs() / r.max(1.0) < 0.02,
                "epoch bytes drifted: {r} vs {e}"
            );
        }
        assert!(
            es * 3 < rs,
            "epoch mode should solve far less often: {es} vs {rs}"
        );
    }

    #[test]
    fn constant_only_jump_matches_stepping() {
        let run = |jump: bool| {
            let (mut net, a, b) = two_node_net(1e9, 5, 1e-5);
            let f = net
                .start_flow(FlowSpec {
                    src: a,
                    dst: b,
                    bytes: 250_000_000,
                    cc: CongestionControl::Constant { rate_bps: 400e6 },
                    app_limit_bps: f64::INFINITY,
                })
                .expect("route");
            if jump {
                net.run_flow_to_completion(f, deadline_secs(60))
            } else {
                loop {
                    if let FlowStatus::Done { at } = net.status(f) {
                        break Some(at);
                    }
                    net.step();
                }
            }
        };
        let jumped = run(true).expect("finishes");
        let stepped = run(false).expect("finishes");
        assert_eq!(
            jumped, stepped,
            "completion time must not depend on jumping"
        );
    }

    #[test]
    fn run_until_with_no_flows_is_exact() {
        let (mut net, _a, _b) = two_node_net(1e9, 5, 0.0);
        let deadline = SimTime::ZERO + SimDuration::from_millis(12_345);
        net.run_until(deadline);
        // Tick-grid overshoot, exactly as the stepper would land.
        assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_millis(12_350));
    }

    #[test]
    fn active_flow_counter_tracks_lifecycle() {
        let (mut net, a, b) = two_node_net(1e9, 1, 0.0);
        assert_eq!(net.active_flows(), 0);
        let f1 = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: 1_000_000,
                cc: CongestionControl::Constant { rate_bps: 100e6 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        let f2 = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: u64::MAX,
                cc: CongestionControl::Constant { rate_bps: 100e6 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        assert_eq!(net.active_flows(), 2);
        net.run_flow_to_completion(f1, deadline_secs(10))
            .expect("finishes");
        assert_eq!(net.active_flows(), 1);
        net.cancel_flow(f2);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn targeted_link_mutators_match_global_refresh() {
        // The same fault sequence through the targeted mutators on the
        // cached allocation and on the per-tick referee (`topology_mut()`
        // before every step) must produce identical transfers.
        let run = |per_tick: bool| {
            let mut t = Topology::new();
            let a = t.add_node("a");
            let b = t.add_node("b");
            let c = t.add_node("c");
            t.add_duplex_link(a, b, 10e9, SimDuration::from_millis(10), 1e-7);
            t.add_duplex_link(b, c, 10e9, SimDuration::from_millis(10), 1e-7);
            t.add_duplex_link(a, c, 1e9, SimDuration::from_millis(50), 1e-7);
            let fast = t.links_between(a, b);
            let mut net = FluidNet::new(t, 7);
            let f = net
                .start_flow(FlowSpec {
                    src: a,
                    dst: c,
                    bytes: u64::MAX,
                    cc: CongestionControl::Constant { rate_bps: 5e9 },
                    app_limit_bps: f64::INFINITY,
                })
                .expect("route");
            let steps = |net: &mut FluidNet| {
                for _ in 0..50 {
                    if per_tick {
                        net.topology_mut();
                    }
                    net.step();
                }
            };
            steps(&mut net);
            for &l in &fast {
                net.set_link_up(l, false);
                net.set_link_loss_rate(l, 0.5);
            }
            steps(&mut net);
            for &l in &fast {
                net.set_link_up(l, true);
                net.set_link_loss_rate(l, 1e-7);
            }
            steps(&mut net);
            (net.bytes_done(f), net.loss_events(f))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn near_total_loss_on_a_saturated_link_loses_every_tick() {
        // Path loss 0.99995 plus the congestion loss of the saturated link
        // passes 1; capped, the jump hands the flow to the stepper, which
        // loses a packet every tick instead of drawing NaN gaps.
        let (mut net, a, b) = two_node_net(1e9, 1, 0.99995);
        let f = net
            .start_flow(FlowSpec {
                src: a,
                dst: b,
                bytes: u64::MAX,
                cc: CongestionControl::Constant { rate_bps: 2e9 },
                app_limit_bps: f64::INFINITY,
            })
            .expect("route");
        net.run_until(deadline_secs(10));
        assert_eq!(net.now(), deadline_secs(10));
        assert_eq!(net.solver_stats().ticks, 1_000);
        assert_eq!(net.loss_events(f), 1_000);
    }

    #[test]
    fn solver_stats_count_work() {
        let (mut net, a, b) = two_node_net(1e9, 1, 0.0);
        net.start_flow(FlowSpec {
            src: a,
            dst: b,
            bytes: u64::MAX,
            cc: CongestionControl::Constant { rate_bps: 100e6 },
            app_limit_bps: f64::INFINITY,
        })
        .expect("route");
        for _ in 0..100 {
            net.step();
        }
        let s = net.solver_stats();
        assert_eq!(s.ticks, 100);
        // A constant flow needs exactly one solve.
        assert_eq!(s.solves, 1);
    }
}
