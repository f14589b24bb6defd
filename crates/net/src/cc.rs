//! Congestion-control models advanced in fluid-simulation ticks.
//!
//! Two real protocols matter for Table 3:
//!
//! * **TCP Reno** (what 2012 rsync-over-ssh rode on): window-based AIMD —
//!   exponential slow start to `ssthresh`, +1 MSS per RTT in congestion
//!   avoidance, window halving on loss. At 104 ms RTT a single Reno stream
//!   needs ~3500 packets in flight to hold 400 mbit/s, so even rare random
//!   loss (~1e-7/packet) caps it far below the 10G line rate — the effect
//!   the paper exploits.
//! * **UDT D-AIMD** (what UDR rides on): rate-based control updated every
//!   `SYN = 0.01 s`. The increase step grows with the *estimated available
//!   bandwidth* (decimal-quantized, per the UDT spec), and the decrease is
//!   a gentle ×8/9, so recovery after a loss takes well under a second
//!   instead of many RTTs. That asymmetry is the entire UDR story.
//!
//! # Closed forms
//!
//! [`CongestionControl::on_tick`] is the per-tick law. Between two solves
//! of the fluid network a flow's allocated rate is frozen, so every tick
//! delivers the same packets and, between losses, a controller's desired
//! rate only moves up. Two crate-internal closed forms per kind let
//! [`FluidNet`](crate::FluidNet) jump from event to event instead of
//! stepping:
//!
//! * `CongestionControl::advance_ticks` is the state after `k` loss-free
//!   ticks. For Reno, slow start adds `a` packets a tick (`a` = packets
//!   delivered per tick at the frozen rate) up to `ssthresh`, and
//!   congestion avoidance grows `cwnd²` by about `2a` a tick; `rwnd` caps
//!   both. Ticks where that growth is coarse (`cwnd² < 1000 a`) are
//!   stepped exactly, so the form stays within 1e-6 of stepping. UDT adds
//!   one increase per SYN; the increase is constant while the available
//!   bandwidth stays within one decade, so `k` SYNs sum decade by decade,
//!   equal to stepping up to float rounding. The SYN after a loss adds
//!   nothing. `Constant` never moves.
//! * `CongestionControl::ticks_to_exceed` is the first tick at which the
//!   desired rate exceeds a given rate: a search over `advance_ticks`
//!   that starts from an analytic estimate (Reno) or from one tick (UDT),
//!   so the two agree tick for tick.

use crate::MSS_BYTES;

/// UDT's fixed rate-control interval, seconds.
pub const UDT_SYN_SECS: f64 = 0.01;

/// Default TCP socket-buffer (receive window) ceiling in bytes.
///
/// This is the quietly decisive constant of Table 3: a single 2012-era TCP
/// stream is bounded by `min(cwnd, rwnd) / RTT`, and hosts tuned to a
/// few-megabyte `tcp_rmem` top out around 400 mbit/s at 104 ms — exactly
/// where the paper's unencrypted rsync lands. UDT sizes its own UDP
/// buffers to the bandwidth-delay product and escapes the ceiling.
pub const DEFAULT_RWND_BYTES: f64 = 5.55e6;

/// TCP Reno window state (window counted in packets).
#[derive(Clone, Debug)]
pub struct RenoState {
    pub cwnd_pkts: f64,
    pub ssthresh_pkts: f64,
    /// Receive-window ceiling in packets (socket buffer bound).
    pub rwnd_pkts: f64,
    /// Smoothed RTT used to convert window → rate, seconds.
    pub rtt_secs: f64,
}

impl RenoState {
    pub fn new(rtt_secs: f64) -> Self {
        Self::with_rwnd(rtt_secs, DEFAULT_RWND_BYTES)
    }

    pub fn with_rwnd(rtt_secs: f64, rwnd_bytes: f64) -> Self {
        RenoState {
            cwnd_pkts: 2.0,
            ssthresh_pkts: f64::INFINITY,
            rwnd_pkts: (rwnd_bytes / MSS_BYTES).max(2.0),
            rtt_secs: rtt_secs.max(1e-4),
        }
    }

    pub fn desired_rate_bps(&self) -> f64 {
        self.rate_at(self.cwnd_pkts)
    }

    /// The rate a window of `cwnd_pkts` allows, bits/second.
    fn rate_at(&self, cwnd_pkts: f64) -> f64 {
        cwnd_pkts.min(self.rwnd_pkts) * MSS_BYTES * 8.0 / self.rtt_secs
    }

    /// Advance by `dt` seconds during which `acked_pkts` packets were
    /// delivered (fluid approximation of the ack clock).
    pub fn on_progress(&mut self, acked_pkts: f64) {
        if self.cwnd_pkts < self.ssthresh_pkts {
            // Slow start: +1 packet per ack (doubling per RTT).
            self.cwnd_pkts = (self.cwnd_pkts + acked_pkts).min(self.ssthresh_pkts.max(2.0));
        } else {
            // Congestion avoidance: +1/cwnd per ack.
            self.cwnd_pkts += acked_pkts / self.cwnd_pkts;
        }
        // The window can never outgrow what the receiver will buffer.
        self.cwnd_pkts = self.cwnd_pkts.min(self.rwnd_pkts);
    }

    pub fn on_loss(&mut self) {
        self.ssthresh_pkts = (self.cwnd_pkts / 2.0).max(2.0);
        self.cwnd_pkts = self.ssthresh_pkts;
    }

    /// `k` loss-free ticks of [`RenoState::on_progress`]`(acked_pkts)`, in
    /// closed form.
    pub(crate) fn advance(&mut self, k: u64, acked_pkts: f64) {
        self.cwnd_pkts = self.cwnd_after(k, acked_pkts);
    }

    /// Ticks of [`RenoState::on_progress`]`(acked_pkts)` until the desired
    /// rate first exceeds `rate_bps` (`Some(0)` if it already does, `None`
    /// if the window can never get there).
    pub(crate) fn ticks_to_exceed(&self, rate_bps: f64, acked_pkts: f64) -> Option<u64> {
        if self.desired_rate_bps() > rate_bps {
            return Some(0);
        }
        if acked_pkts.is_nan() || acked_pkts <= 0.0 || self.rate_at(self.rwnd_pkts) <= rate_bps {
            return None;
        }
        // Estimate: slow start to the target window or to `ssthresh`, then
        // cwnd² growing by 2a a tick; `first_tick` corrects the estimate.
        let a = acked_pkts;
        let target = rate_bps * self.rtt_secs / (MSS_BYTES * 8.0);
        let mut c = self.cwnd_pkts;
        let mut est = 0.0;
        if c < self.ssthresh_pkts {
            let cap = self.ssthresh_pkts.max(2.0);
            if target < cap {
                est = ((target - c) / a).floor() + 1.0;
            } else {
                est = ((cap - c) / a).ceil();
                c = cap;
            }
        }
        if c >= self.ssthresh_pkts {
            est += ((target * target - c * c) / (2.0 * a)).ceil();
        }
        first_tick(est as u64, |k| {
            self.rate_at(self.cwnd_after(k, acked_pkts)) > rate_bps
        })
    }

    /// The window after `k` loss-free ticks delivering `a` packets each.
    fn cwnd_after(&self, k: u64, a: f64) -> f64 {
        let w = self.rwnd_pkts;
        let mut c = self.cwnd_pkts;
        if k == 0 {
            return c;
        }
        if a.is_nan() || a <= 0.0 {
            return c.min(w);
        }
        let mut k = k as f64;
        if c < self.ssthresh_pkts {
            // Slow start: +a a tick until the window reaches `ssthresh`.
            let cap = self.ssthresh_pkts.max(2.0);
            let to_cap = ((cap - c) / a).ceil();
            if k < to_cap {
                return (c + k * a).min(cap).min(w);
            }
            c = cap.min(w);
            k -= to_cap;
            if c >= w {
                return w;
            }
        }
        // Congestion avoidance: cwnd² grows by 2a + a²/cwnd² a tick. Step
        // exactly while that last term is coarse, then sum it in closed
        // form: Σ a²/x over x = x0 + 2aj is (a/2)·ln(y/x0) plus the
        // Euler–Maclaurin end correction.
        while k > 0.0 && c < w && c * c < RENO_CLOSED_FORM_MIN * a {
            c = (c + a / c).min(w);
            k -= 1.0;
        }
        if k == 0.0 || c >= w {
            return c;
        }
        let x0 = c * c;
        let y = x0 + 2.0 * a * k;
        let x = y + 0.5 * a * (y / x0).ln() + 0.5 * (a * a / x0 - a * a / y);
        x.sqrt().min(w)
    }
}

/// Congestion avoidance is summed in closed form once `cwnd² ≥ 1000 a`
/// (the per-tick growth is under 1e-3 of `cwnd²`); below that it steps.
const RENO_CLOSED_FORM_MIN: f64 = 1000.0;

/// The first `k ≥ 1` at which the monotone `holds(k)` is true, searched
/// outward from the estimate `est` (`holds(0)` is known false): gallop to
/// a bracket, then bisect. `None` if it never holds below `u64::MAX`.
fn first_tick(est: u64, holds: impl Fn(u64) -> bool) -> Option<u64> {
    let est = est.max(1);
    let (mut lo, mut hi);
    let mut step = 1u64;
    if holds(est) {
        hi = est;
        lo = loop {
            let probe = hi.saturating_sub(step);
            if probe == 0 || !holds(probe) {
                break probe;
            }
            hi = probe;
            step = step.saturating_mul(2);
        };
    } else {
        lo = est;
        hi = loop {
            let probe = lo.checked_add(step)?;
            if holds(probe) {
                break probe;
            }
            lo = probe;
            step = step.checked_mul(2)?;
        };
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// UDT rate-based state (rate counted in packets/second).
#[derive(Clone, Debug)]
pub struct UdtState {
    pub rate_pps: f64,
    /// Bottleneck bandwidth estimate in bits/second (UDT derives this from
    /// packet-pair probes; the fluid model feeds it the true path value).
    pub bw_estimate_bps: f64,
    /// Seconds of simulated time accumulated toward the next SYN boundary.
    syn_accum: f64,
    /// Whether a loss arrived during the current SYN interval (suppresses
    /// the increase for that interval, per the spec).
    loss_this_syn: bool,
}

impl UdtState {
    pub fn new(bw_estimate_bps: f64) -> Self {
        UdtState {
            // UDT starts around a handful of packets per SYN.
            rate_pps: 16.0 / UDT_SYN_SECS,
            bw_estimate_bps,
            syn_accum: 0.0,
            loss_this_syn: false,
        }
    }

    pub fn desired_rate_bps(&self) -> f64 {
        self.rate_pps * MSS_BYTES * 8.0
    }

    /// The published UDT increase formula: packets added per SYN interval,
    /// from the decimal-quantized available bandwidth.
    fn inc_pkts_per_syn(&self) -> f64 {
        self.increase_at(self.rate_pps).0
    }

    /// The increase (packets per SYN) at rate `rate_pps`, and the rate at
    /// which it next changes: where the available bandwidth drops into
    /// the next decade, or `∞` once the increase sits at its 1-byte floor
    /// (every lower decade floors too).
    fn increase_at(&self, rate_pps: f64) -> (f64, f64) {
        let avail_bps = self.bw_estimate_bps - rate_pps * MSS_BYTES * 8.0;
        if avail_bps <= 0.0 {
            return (1.0 / MSS_BYTES, f64::INFINITY);
        }
        let quantized = 10f64.powf(avail_bps.log10().ceil());
        let inc = (quantized * 1.5e-6 / MSS_BYTES).max(1.0 / MSS_BYTES);
        if inc == 1.0 / MSS_BYTES {
            return (inc, f64::INFINITY);
        }
        (
            inc,
            (self.bw_estimate_bps - quantized / 10.0) / (MSS_BYTES * 8.0),
        )
    }

    /// The rate after `n` loss-free increases, summed decade by decade:
    /// `run` steps of `step` packets/second each, until the increase
    /// changes. The split is checked against [`UdtState::increase_at`] so
    /// it agrees with stepping.
    fn rate_after_increases(&self, mut n: f64) -> f64 {
        let mut rate = self.rate_pps;
        while n > 0.0 {
            let (inc, next) = self.increase_at(rate);
            let step = inc / UDT_SYN_SECS;
            let mut run = ((next - rate) / step).ceil().max(1.0);
            if run.is_finite() {
                if run > 1.0 && self.increase_at(rate + (run - 1.0) * step).0 != inc {
                    run -= 1.0;
                } else if self.increase_at(rate + run * step).0 == inc {
                    run += 1.0;
                }
            }
            let take = run.min(n);
            let next = rate + take * step;
            if next == rate {
                break;
            }
            rate = next;
            n -= take;
        }
        rate
    }

    /// SYN boundaries crossed by `k` ticks of `dt`, and the accumulator
    /// left over (exactly `k` and `0` at the fluid tick, `dt = SYN`).
    fn syns_in(&self, k: u64, dt: f64) -> (f64, f64) {
        let total = self.syn_accum / UDT_SYN_SECS + k as f64 * (dt / UDT_SYN_SECS);
        let syns = (total + 1e-9).floor();
        (syns, ((total - syns) * UDT_SYN_SECS).max(0.0))
    }

    /// `k` loss-free ticks of [`UdtState::on_tick`]`(dt)`, in closed form.
    pub(crate) fn advance(&mut self, k: u64, dt: f64) {
        let (mut syns, accum) = self.syns_in(k, dt);
        self.syn_accum = accum;
        if syns >= 1.0 && self.loss_this_syn {
            self.loss_this_syn = false;
            syns -= 1.0;
        }
        self.rate_pps = self.rate_after_increases(syns);
    }

    /// Ticks of [`UdtState::on_tick`]`(dt)` until the desired rate first
    /// exceeds `rate_bps` (`Some(0)` if it already does, `None` if it
    /// never will).
    pub(crate) fn ticks_to_exceed(&self, rate_bps: f64, dt: f64) -> Option<u64> {
        if self.desired_rate_bps() > rate_bps {
            return Some(0);
        }
        if !rate_bps.is_finite() || dt.is_nan() || dt <= 0.0 {
            return None;
        }
        // The rate rises every SYN, and a jump's horizon is mostly a tick
        // or two (a ramp) or none at all (above the app cap): gallop from
        // one tick rather than estimate.
        first_tick(1, |k| {
            let mut s = self.clone();
            s.advance(k, dt);
            s.desired_rate_bps() > rate_bps
        })
    }

    /// Advance by `dt` seconds; applies one increase per elapsed SYN
    /// boundary (loss-free intervals only).
    pub fn on_tick(&mut self, dt: f64) {
        self.syn_accum += dt;
        while self.syn_accum >= UDT_SYN_SECS {
            self.syn_accum -= UDT_SYN_SECS;
            if self.loss_this_syn {
                self.loss_this_syn = false;
            } else {
                self.rate_pps += self.inc_pkts_per_syn() / UDT_SYN_SECS;
            }
        }
    }

    /// Multiplicative decrease on a loss event: rate ← rate × 8/9.
    pub fn on_loss(&mut self) {
        self.rate_pps *= 8.0 / 9.0;
        self.rate_pps = self.rate_pps.max(1.0);
        self.loss_this_syn = true;
    }
}

/// A flow's congestion-control discipline.
#[derive(Clone, Debug)]
pub enum CongestionControl {
    /// Window-based TCP Reno.
    Reno(RenoState),
    /// Rate-based UDT.
    Udt(UdtState),
    /// Fixed-rate source (UDP-style or an abstract provisioned channel).
    Constant { rate_bps: f64 },
}

impl CongestionControl {
    pub fn reno(rtt_secs: f64) -> Self {
        CongestionControl::Reno(RenoState::new(rtt_secs))
    }

    pub fn udt(bw_estimate_bps: f64) -> Self {
        CongestionControl::Udt(UdtState::new(bw_estimate_bps))
    }

    /// Rate the flow *wants* to send at right now, bits/second.
    pub fn desired_rate_bps(&self) -> f64 {
        match self {
            CongestionControl::Reno(s) => s.desired_rate_bps(),
            CongestionControl::Udt(s) => s.desired_rate_bps(),
            CongestionControl::Constant { rate_bps } => *rate_bps,
        }
    }

    /// Advance internal clocks after a tick in which `delivered_bytes` got
    /// through.
    pub fn on_tick(&mut self, dt: f64, delivered_bytes: f64) {
        match self {
            CongestionControl::Reno(s) => s.on_progress(delivered_bytes / MSS_BYTES),
            CongestionControl::Udt(s) => s.on_tick(dt),
            CongestionControl::Constant { .. } => {}
        }
    }

    pub fn on_loss(&mut self) {
        match self {
            CongestionControl::Reno(s) => s.on_loss(),
            CongestionControl::Udt(s) => s.on_loss(),
            CongestionControl::Constant { .. } => {}
        }
    }

    /// `k` loss-free calls of [`CongestionControl::on_tick`]`(dt,
    /// delivered_bytes)`, in closed form (see the module docs for how
    /// close each kind comes to stepping).
    pub(crate) fn advance_ticks(&mut self, k: u64, dt: f64, delivered_bytes: f64) {
        match self {
            CongestionControl::Reno(s) => s.advance(k, delivered_bytes / MSS_BYTES),
            CongestionControl::Udt(s) => s.advance(k, dt),
            CongestionControl::Constant { .. } => {}
        }
    }

    /// Loss-free ticks of [`CongestionControl::on_tick`]`(dt,
    /// delivered_bytes)` until the desired rate first exceeds `rate_bps`:
    /// `Some(0)` if it already does, `None` if it never will.
    pub(crate) fn ticks_to_exceed(
        &self,
        rate_bps: f64,
        dt: f64,
        delivered_bytes: f64,
    ) -> Option<u64> {
        match self {
            CongestionControl::Reno(s) => s.ticks_to_exceed(rate_bps, delivered_bytes / MSS_BYTES),
            CongestionControl::Udt(s) => s.ticks_to_exceed(rate_bps, dt),
            CongestionControl::Constant { rate_bps: r } => (*r > rate_bps).then_some(0),
        }
    }

    /// Whether the state is one the per-tick laws can reach: Reno's
    /// window finite and within `[2, rwnd]`, UDT's rate finite and at
    /// least one packet a second.
    pub(crate) fn state_in_bounds(&self) -> bool {
        match self {
            CongestionControl::Reno(s) => {
                s.cwnd_pkts.is_finite() && s.cwnd_pkts >= 2.0 && s.cwnd_pkts <= s.rwnd_pkts
            }
            CongestionControl::Udt(s) => s.rate_pps.is_finite() && s.rate_pps >= 1.0,
            CongestionControl::Constant { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut s = RenoState::new(0.1);
        let start = s.cwnd_pkts;
        // One RTT of acks at the current rate doubles the window.
        s.on_progress(start);
        assert!((s.cwnd_pkts - 2.0 * start).abs() < 1e-9);
    }

    #[test]
    fn reno_congestion_avoidance_is_linear() {
        let mut s = RenoState::new(0.1);
        s.ssthresh_pkts = 10.0;
        s.cwnd_pkts = 10.0;
        // One full window of acks adds ~1 packet.
        s.on_progress(10.0);
        assert!((s.cwnd_pkts - 11.0).abs() < 1e-9);
    }

    #[test]
    fn reno_loss_halves() {
        let mut s = RenoState::new(0.1);
        s.cwnd_pkts = 100.0;
        s.ssthresh_pkts = 50.0;
        s.on_loss();
        assert_eq!(s.cwnd_pkts, 50.0);
        assert_eq!(s.ssthresh_pkts, 50.0);
    }

    #[test]
    fn reno_rate_matches_window_over_rtt() {
        let mut s = RenoState::new(0.104);
        s.cwnd_pkts = 3561.0; // ≈ what 400 mbit/s needs at 104 ms
        let rate = s.desired_rate_bps();
        assert!(
            (rate / 1e6 - 400.0).abs() < 1.0,
            "rate {} mbit/s",
            rate / 1e6
        );
    }

    #[test]
    fn udt_ramps_quickly() {
        let mut s = UdtState::new(10e9);
        let r0 = s.desired_rate_bps();
        for _ in 0..100 {
            s.on_tick(UDT_SYN_SECS); // one simulated second
        }
        let r1 = s.desired_rate_bps();
        assert!(
            r1 > r0 + 1e9,
            "UDT should gain >1 Gbit/s per second when idle: {r0} → {r1}"
        );
    }

    #[test]
    fn udt_decrease_is_gentle() {
        let mut s = UdtState::new(10e9);
        s.rate_pps = 90_000.0;
        s.on_loss();
        assert!((s.rate_pps - 80_000.0).abs() < 1.0);
    }

    #[test]
    fn udt_no_increase_in_lossy_syn() {
        let mut s = UdtState::new(10e9);
        s.rate_pps = 1000.0;
        s.on_loss();
        let r = s.rate_pps;
        s.on_tick(UDT_SYN_SECS); // the SYN containing the loss: no increase
        assert_eq!(s.rate_pps, r);
        s.on_tick(UDT_SYN_SECS); // next SYN: growth resumes
        assert!(s.rate_pps > r);
    }

    #[test]
    fn udt_increase_shrinks_near_capacity() {
        let far = UdtState {
            rate_pps: 1000.0,
            ..UdtState::new(10e9)
        };
        let near = UdtState {
            rate_pps: 10e9 / (MSS_BYTES * 8.0) * 0.999,
            ..UdtState::new(10e9)
        };
        assert!(far.inc_pkts_per_syn() > near.inc_pkts_per_syn());
    }

    #[test]
    fn udt_min_increase_at_saturation() {
        let over = UdtState {
            rate_pps: 10e9 / (MSS_BYTES * 8.0) * 1.5,
            ..UdtState::new(10e9)
        };
        assert_eq!(over.inc_pkts_per_syn(), 1.0 / MSS_BYTES);
    }

    #[test]
    fn constant_rate_is_inert() {
        let mut cc = CongestionControl::Constant { rate_bps: 5e6 };
        cc.on_loss();
        cc.on_tick(1.0, 1e6);
        assert_eq!(cc.desired_rate_bps(), 5e6);
    }

    /// A Reno state anywhere its laws can take it: slow start (possibly
    /// toward a finite `ssthresh`) or congestion avoidance, below `rwnd`.
    fn reno_state(cwnd: f64, ssthresh: Option<f64>, rwnd: f64) -> RenoState {
        let rwnd = rwnd.max(2.0);
        RenoState {
            cwnd_pkts: cwnd.clamp(2.0, rwnd),
            ssthresh_pkts: ssthresh.map_or(f64::INFINITY, |s| s.max(2.0)),
            rwnd_pkts: rwnd,
            rtt_secs: 0.104,
        }
    }

    fn udt_state(rate_pps: f64, bw: f64, lossy: bool) -> UdtState {
        let mut s = UdtState::new(bw);
        s.rate_pps = rate_pps;
        s.loss_this_syn = lossy;
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Reno's closed form tracks `k` calls of `on_progress` within
        /// 1e-6 of the window, for `a` from a trickle to 500 packets a
        /// tick and windows from 2 to 10⁴ packets.
        #[test]
        fn reno_closed_form_matches_stepping(
            cwnd in 2.0f64..10_000.0,
            ssthresh in prop_oneof![Just(None), (2.0f64..10_000.0).prop_map(Some)],
            rwnd in 2.0f64..12_000.0,
            a in 0.01f64..500.0,
            k in 0u64..20_000,
        ) {
            let s0 = reno_state(cwnd, ssthresh, rwnd);
            let mut stepped = s0.clone();
            for _ in 0..k {
                stepped.on_progress(a);
            }
            let mut jumped = s0.clone();
            jumped.advance(k, a);
            let err = (jumped.cwnd_pkts - stepped.cwnd_pkts).abs() / stepped.cwnd_pkts;
            prop_assert!(
                err <= 1e-6,
                "{s0:?}, a = {a}, k = {k}: closed {} vs stepped {}",
                jumped.cwnd_pkts,
                stepped.cwnd_pkts
            );
        }

        /// UDT's closed form equals `k` SYN ticks of `on_tick` up to float
        /// rounding, across every decade of the increase formula and with
        /// or without a loss pending in the current SYN.
        #[test]
        fn udt_closed_form_matches_stepping(
            rate in 1.0f64..2e6,
            bw in 1e6f64..4e10,
            lossy in any::<bool>(),
            k in 0u64..20_000,
        ) {
            let s0 = udt_state(rate, bw, lossy);
            let mut stepped = s0.clone();
            for _ in 0..k {
                stepped.on_tick(UDT_SYN_SECS);
            }
            let mut jumped = s0.clone();
            jumped.advance(k, UDT_SYN_SECS);
            let err = (jumped.rate_pps - stepped.rate_pps).abs() / stepped.rate_pps;
            prop_assert!(
                err <= 1e-9,
                "{s0:?}, k = {k}: closed {} vs stepped {}",
                jumped.rate_pps,
                stepped.rate_pps
            );
            prop_assert_eq!(jumped.loss_this_syn, stepped.loss_this_syn);
            prop_assert_eq!(jumped.syn_accum, stepped.syn_accum);
        }

        /// `ticks_to_exceed` names the tick at which stepping first takes
        /// the desired rate past the target, to within one tick, for both
        /// kinds; `None` only when stepping never gets there.
        #[test]
        fn ticks_to_exceed_matches_stepping(
            cwnd in 2.0f64..6_000.0,
            ssthresh in prop_oneof![Just(None), (2.0f64..6_000.0).prop_map(Some)],
            a in 1.0f64..400.0,
            rate in 1.0f64..5e5,
            bw in 1e8f64..2e10,
            lossy in any::<bool>(),
            rise in 0.0f64..0.5,
        ) {
            const LIMIT: u64 = 50_000;
            let dt = UDT_SYN_SECS;
            let ccs = [
                CongestionControl::Reno(reno_state(cwnd, ssthresh, 3801.0)),
                CongestionControl::Udt(udt_state(rate, bw, lossy)),
            ];
            for cc in ccs {
                let target = cc.desired_rate_bps() * (1.0 + rise);
                let bytes = a * MSS_BYTES;
                let mut stepped = cc.clone();
                let mut first = None;
                for k in 0..=LIMIT {
                    if stepped.desired_rate_bps() > target {
                        first = Some(k);
                        break;
                    }
                    stepped.on_tick(dt, bytes);
                }
                let predicted = cc.ticks_to_exceed(target, dt, bytes);
                match (first, predicted) {
                    (Some(s), Some(p)) => prop_assert!(
                        s.abs_diff(p) <= 1,
                        "{cc:?} past {target}: stepping {s}, closed form {p}"
                    ),
                    (None, Some(p)) => prop_assert!(p >= LIMIT, "{cc:?}: {p} but never"),
                    (Some(s), None) => prop_assert!(false, "{cc:?}: stepping {s}, closed form never"),
                    (None, None) => {}
                }
            }
        }
    }

    #[test]
    fn closed_forms_leave_constant_alone() {
        let mut cc = CongestionControl::Constant { rate_bps: 5e6 };
        cc.advance_ticks(1_000, UDT_SYN_SECS, 1e6);
        assert_eq!(cc.desired_rate_bps(), 5e6);
        assert_eq!(cc.ticks_to_exceed(5e6, UDT_SYN_SECS, 1e6), None);
        assert_eq!(cc.ticks_to_exceed(4e6, UDT_SYN_SECS, 1e6), Some(0));
    }

    #[test]
    fn reno_at_rwnd_never_exceeds_it() {
        let mut s = RenoState::new(0.104);
        s.cwnd_pkts = s.rwnd_pkts;
        let cap = s.desired_rate_bps();
        assert_eq!(s.ticks_to_exceed(cap, 365.0), None);
        s.advance(1_000_000, 365.0);
        assert_eq!(s.cwnd_pkts, s.rwnd_pkts);
    }

    #[test]
    fn reno_recovers_after_loss() {
        // Sanity-check the AIMD sawtooth: loss then growth back.
        let mut cc = CongestionControl::reno(0.1);
        for _ in 0..20 {
            let pkts = cc.desired_rate_bps() * 0.1 / (MSS_BYTES * 8.0);
            cc.on_tick(0.1, pkts * MSS_BYTES);
        }
        let peak = cc.desired_rate_bps();
        cc.on_loss();
        let post = cc.desired_rate_bps();
        assert!(post < peak);
        for _ in 0..200 {
            let pkts = cc.desired_rate_bps() * 0.1 / (MSS_BYTES * 8.0);
            cc.on_tick(0.1, pkts * MSS_BYTES);
        }
        assert!(cc.desired_rate_bps() > post);
    }
}
