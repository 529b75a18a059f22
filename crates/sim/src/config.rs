//! Simulator configuration.

use crate::fault::{FaultEvent, RetryPolicy};
use fractanet_telemetry::{MetricsConfig, Telemetry};

/// Tunables for one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Input-FIFO depth per channel, in flits (the ServerNet router's
    /// per-port input buffer). [`SimConfig::INFINITE_DEPTH`] removes
    /// the bound entirely — useful for isolating routing-level effects
    /// from buffer-level backpressure.
    pub buffer_depth: u32,
    /// Credit round-trip delay in cycles. The downstream FIFO returns
    /// one credit per departing flit; with delay `d` the upstream
    /// arbiter sees that credit `d + 1` cycles after the flit leaves
    /// (one cycle of forward latency is implicit in the commit
    /// ordering). `0` — the default — reproduces the historical
    /// instantaneous start-of-cycle space check bit-for-bit.
    pub credit_delay: u64,
    /// Flits per packet (a 64-byte ServerNet packet at one byte per
    /// flit cycle ≈ 16–64 flits; 16 keeps tests fast).
    pub packet_flits: u32,
    /// Hard stop, in cycles.
    pub max_cycles: u64,
    /// Consecutive all-idle cycles (with traffic in flight) before the
    /// wait-for graph is consulted for a deadlock verdict.
    pub stall_threshold: u64,
    /// Cycles of warm-up excluded from latency statistics.
    pub warmup_cycles: u64,
    /// RNG seed (simulations are fully deterministic given the seed).
    pub seed: u64,
    /// Scheduled link/router outages, applied live during the run.
    pub faults: Vec<FaultEvent>,
    /// End-to-end retry discipline for packets lost to outages.
    pub retry: RetryPolicy,
    /// Flit-level tracing and channel telemetry (off by default; when
    /// off the engine creates no recorder and pays one predictable
    /// branch per instrumentation site).
    pub telemetry: Telemetry,
    /// Live metrics: counters, sliding-window latency histograms and
    /// per-traffic-class SLO accounting, sampled every N cycles at the
    /// serial commit point (off by default; provably inert — results
    /// are bit-identical with metrics on or off at every thread
    /// width).
    pub metrics: MetricsConfig,
    /// When `true`, a sender whose ACK timeout expires while its worm
    /// is still in flight speculatively retransmits a *copy* (the
    /// ServerNet timeout race) instead of waiting for a teardown. Off
    /// by default: only the chaos/gray-failure paths exercise it.
    pub ack_retransmit: bool,
    /// Destination-side duplicate suppression by per-pair sequence
    /// number. On by default; disabling it models a broken end-node
    /// (double deliveries) and exists for the chaos harness to shrink
    /// against.
    pub dedup: bool,
    /// Worker threads for the sharded engine. `1` (the default) scans
    /// on the calling thread; values above 1 may shard the per-cycle
    /// scans over live VCs and queued sources across scoped worker
    /// threads. Results are bit-identical for every thread count — the
    /// knob trades wall-clock for cores, never semantics. A cycle whose
    /// live work is too small to repay the fork/join (fewer than 20 000
    /// live VCs plus queued sources in release builds) stays on the
    /// calling thread; any other cycle forks into `threads` shards.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_depth: 4,
            credit_delay: 0,
            packet_flits: 16,
            max_cycles: 50_000,
            stall_threshold: 1_000,
            warmup_cycles: 0,
            seed: 0xF2AC7A,
            faults: Vec::new(),
            retry: RetryPolicy::default(),
            telemetry: Telemetry::off(),
            metrics: MetricsConfig::off(),
            ack_retransmit: false,
            dedup: true,
            threads: 1,
        }
    }
}

impl SimConfig {
    /// Sentinel FIFO depth meaning "unbounded buffers".
    pub const INFINITE_DEPTH: u32 = u32::MAX;

    /// Builder-style buffer depth.
    pub fn with_buffer_depth(mut self, depth: u32) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Builder-style unbounded input FIFOs.
    pub fn with_infinite_buffers(mut self) -> Self {
        self.buffer_depth = Self::INFINITE_DEPTH;
        self
    }

    /// Builder-style credit round-trip delay.
    pub fn with_credit_delay(mut self, cycles: u64) -> Self {
        self.credit_delay = cycles;
        self
    }

    /// Builder-style packet length.
    pub fn with_packet_flits(mut self, flits: u32) -> Self {
        self.packet_flits = flits;
        self
    }

    /// Builder-style cycle limit.
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Builder-style warm-up window.
    pub fn with_warmup(mut self, cycles: u64) -> Self {
        self.warmup_cycles = cycles;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds one scheduled outage.
    pub fn with_fault(mut self, fault: FaultEvent) -> Self {
        self.faults.push(fault);
        self
    }

    /// Replaces the whole fault schedule.
    pub fn with_faults(mut self, faults: Vec<FaultEvent>) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style telemetry configuration.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builder-style live-metrics configuration.
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Builder-style speculative ACK-timeout retransmission.
    pub fn with_ack_retransmit(mut self, on: bool) -> Self {
        self.ack_retransmit = on;
        self
    }

    /// Builder-style duplicate suppression (testing-only to disable).
    pub fn with_dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// Builder-style worker-thread count for the sharded engine.
    /// `0` is normalized to `1` (one shard, no worker threads).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.buffer_depth >= 1);
        assert!(c.packet_flits >= 2, "need at least head + tail");
        assert!(c.stall_threshold < c.max_cycles);
        assert!(!c.ack_retransmit, "speculative retransmit is opt-in");
        assert!(c.dedup, "duplicate suppression is on by default");
        assert_eq!(c.threads, 1, "one shard is the default");
        assert_eq!(c.credit_delay, 0, "instantaneous credits by default");
    }

    #[test]
    fn infinite_depth_is_the_sentinel() {
        let c = SimConfig::default().with_infinite_buffers();
        assert_eq!(c.buffer_depth, SimConfig::INFINITE_DEPTH);
        assert_eq!(SimConfig::default().with_credit_delay(3).credit_delay, 3);
    }

    #[test]
    fn threads_builder_normalizes_zero() {
        assert_eq!(SimConfig::default().with_threads(0).threads, 1);
        assert_eq!(SimConfig::default().with_threads(8).threads, 8);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::default()
            .with_buffer_depth(8)
            .with_packet_flits(32)
            .with_max_cycles(1_000)
            .with_warmup(100)
            .with_seed(7);
        assert_eq!(c.buffer_depth, 8);
        assert_eq!(c.packet_flits, 32);
        assert_eq!(c.max_cycles, 1_000);
        assert_eq!(c.warmup_cycles, 100);
        assert_eq!(c.seed, 7);
    }
}
