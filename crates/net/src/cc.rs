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
        self.cwnd_pkts.min(self.rwnd_pkts) * MSS_BYTES * 8.0 / self.rtt_secs
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
        let avail_bps = self.bw_estimate_bps - self.rate_pps * MSS_BYTES * 8.0;
        if avail_bps <= 0.0 {
            1.0 / MSS_BYTES
        } else {
            let quantized = 10f64.powf(avail_bps.log10().ceil());
            (quantized * 1.5e-6 / MSS_BYTES).max(1.0 / MSS_BYTES)
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
