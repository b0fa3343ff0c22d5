//! The control system: conventional blocking message-passing processors.
//!
//! "Each processor is in one of three states: performing useful operations, performing
//! local memory access, or waiting for a response to a message it has sent. In this
//! third state, the processor is considered to be idle." (Section 4.2.)
//!
//! Each node alternates between a run of local work and a blocked wait of one network
//! round trip. Issuing the remote access itself costs one cycle of busy (but unproductive)
//! time, which also guarantees the simulation makes forward progress even with a
//! zero-latency network. Nodes are independent: the paper's flat-latency network has no
//! contention, and remote requests are serviced by the destination's memory without
//! consuming its processor.
//!
//! [`run_control`] exploits that independence: it is a **per-node kernel** that runs
//! each node on its own, as a plain loop (run → issue → wait for the reply → run),
//! because a node only ever has one pending event. It skips the destination draws,
//! whose values cannot change a flat latency, and otherwise makes the same draws with
//! the same expressions as [`ControlSystem`], the discrete-event reference model, so
//! the two agree bit for bit.

use crate::config::ParcelConfig;
use crate::network::NetworkModel;
use crate::outcome::{NodeOutcome, SystemOutcome};
use crate::runs::RunSampler;
use desim::prelude::*;

/// Events of the control-system model.
#[derive(Debug, Clone, Copy)]
pub enum ControlEvent {
    /// Node finished a run of local work and issued a remote request.
    RunDone(usize),
    /// The reply to node's outstanding remote request arrived.
    ReplyArrived(usize),
}

#[derive(Debug, Clone, Copy, Default)]
enum Phase {
    /// Executing a run that will complete `ops` operations over `cycles` cycles.
    Busy {
        started_cycles: f64,
        ops: u64,
        cycles: f64,
    },
    /// Blocked waiting for a remote reply.
    Waiting,
    /// Past the horizon / never started.
    #[default]
    Done,
}

#[derive(Default)]
struct ControlNode {
    phase: Phase,
    work_ops: u64,
    busy_cycles: f64,
    remote_accesses: u64,
}

impl ControlNode {
    /// Start a run at `now_cycles`, drawing it from `stream`. Returns the delay until
    /// it completes, or `None` (and goes `Done`) when the horizon has already passed.
    fn start_run(
        &mut self,
        config: &ParcelConfig,
        sampler: &RunSampler,
        stream: &mut RandomStream,
        now_cycles: f64,
    ) -> Option<SimDuration> {
        let remaining = (config.horizon_cycles - now_cycles).max(0.0);
        if remaining <= 0.0 {
            self.phase = Phase::Done;
            return None;
        }
        let (run, _ends_remote) = sampler.sample_run(remaining, stream);
        self.phase = Phase::Busy {
            started_cycles: now_cycles,
            ops: run.ops,
            cycles: run.cycles,
        };
        Some(SimDuration::from_ns_f64(run.cycles * config.cycle_ns))
    }

    /// Credit the run that completed at `now_cycles`. Unless the horizon has passed,
    /// issue the remote request (one busy cycle) and block: returns whether it did.
    fn finish_run(&mut self, horizon_cycles: f64, now_cycles: f64) -> bool {
        if let Phase::Busy { ops, cycles, .. } = self.phase {
            self.work_ops += ops;
            self.busy_cycles += cycles;
        }
        if (horizon_cycles - now_cycles).max(0.0) <= 0.0 {
            self.phase = Phase::Done;
            return false;
        }
        self.remote_accesses += 1;
        self.busy_cycles += 1.0;
        self.phase = Phase::Waiting;
        true
    }

    /// The node's accounting at `horizon`, pro-rating a run the horizon cut off.
    fn outcome(&self, horizon: f64) -> NodeOutcome {
        let mut work = self.work_ops;
        let mut busy = self.busy_cycles;
        match self.phase {
            Phase::Busy {
                started_cycles,
                ops,
                cycles,
            } => {
                let elapsed = (horizon - started_cycles).max(0.0).min(cycles);
                busy += elapsed;
                if cycles > 0.0 {
                    work += (ops as f64 * elapsed / cycles).floor() as u64;
                }
            }
            Phase::Waiting | Phase::Done => {}
        }
        NodeOutcome {
            work_ops: work,
            busy_cycles: busy.min(horizon),
            idle_cycles: (horizon - busy).max(0.0),
            remote_accesses: self.remote_accesses,
        }
    }
}

/// Discrete-event model of the control system: the reference model for
/// [`run_control`].
pub struct ControlSystem {
    config: ParcelConfig,
    sampler: RunSampler,
    network: Box<dyn NetworkModel + Send>,
    nodes: Vec<ControlNode>,
    streams: Vec<RandomStream>,
    dest_stream: RandomStream,
}

impl ControlSystem {
    /// Build the model with the paper's flat-latency network.
    pub fn new(config: ParcelConfig, seed: u64) -> Self {
        let latency = config.latency_cycles;
        Self::with_network(
            config,
            Box::new(crate::network::FlatLatency::new(latency)),
            seed,
        )
    }

    /// Build the model with an explicit network model.
    pub fn with_network(
        config: ParcelConfig,
        network: Box<dyn NetworkModel + Send>,
        seed: u64,
    ) -> Self {
        config
            .validate()
            // audit:allow(unwrap-in-library): constructor contract — an invalid config is a caller bug and fails loudly
            .expect("invalid parcel-study configuration");
        ControlSystem {
            sampler: RunSampler::new(&config),
            network,
            nodes: (0..config.nodes).map(|_| ControlNode::default()).collect(),
            streams: (0..config.nodes)
                .map(|i| RandomStream::new(seed, 0x1000 + i as u64))
                .collect(),
            dest_stream: RandomStream::new(seed, 0xDE57),
            config,
        }
    }

    fn cycles_of(&self, t: SimTime) -> f64 {
        t.as_ns_f64() / self.config.cycle_ns
    }

    /// One-way latency of the remote access issued by `src`. In a single-node system a
    /// "remote" access targets memory outside the modeled array (the remote fraction
    /// and latency are independent parameters in the paper), so the configured latency
    /// still applies.
    fn one_way_latency(&mut self, src: usize) -> f64 {
        let n = self.config.nodes;
        if n <= 1 {
            return self.config.latency_cycles;
        }
        let mut d = self.dest_stream.below(n as u64 - 1) as usize;
        if d >= src {
            d += 1;
        }
        self.network.latency_cycles(src, d)
    }

    fn start_run(&mut self, node: usize, now: SimTime, sched: &mut Scheduler<ControlEvent>) {
        let now_cycles = self.cycles_of(now);
        if let Some(delay) = self.nodes[node].start_run(
            &self.config,
            &self.sampler,
            &mut self.streams[node],
            now_cycles,
        ) {
            sched.schedule_in(delay, ControlEvent::RunDone(node));
        }
    }

    /// Seed the initial run of every node.
    pub fn start(&mut self, sched: &mut Scheduler<ControlEvent>) {
        for node in 0..self.config.nodes {
            self.start_run(node, SimTime::ZERO, sched);
        }
    }

    /// Collect the outcome, pro-rating any period cut off by the horizon.
    pub fn outcome(&self) -> SystemOutcome {
        let horizon = self.config.horizon_cycles;
        let nodes = self.nodes.iter().map(|n| n.outcome(horizon)).collect();
        SystemOutcome::from_nodes(horizon, nodes)
    }
}

impl Model for ControlSystem {
    type Event = ControlEvent;

    fn handle(&mut self, now: SimTime, event: ControlEvent, sched: &mut Scheduler<ControlEvent>) {
        match event {
            ControlEvent::RunDone(node) => {
                let now_cycles = self.cycles_of(now);
                if !self.nodes[node].finish_run(self.config.horizon_cycles, now_cycles) {
                    return;
                }
                // Block for the issue cycle plus the round trip.
                let round_trip = 2.0 * self.one_way_latency(node);
                sched.schedule_in(
                    SimDuration::from_ns_f64((1.0 + round_trip) * self.config.cycle_ns),
                    ControlEvent::ReplyArrived(node),
                );
            }
            ControlEvent::ReplyArrived(node) => {
                self.start_run(node, now, sched);
            }
        }
    }
}

/// Run the control system to its horizon on the paper's flat-latency network, one
/// node at a time (the per-node kernel; see the module docs). Bit-identical to
/// [`ControlSystem`] run on the engine.
///
/// # Panics
///
/// If `config` does not validate.
pub fn run_control(config: ParcelConfig, seed: u64) -> SystemOutcome {
    config
        .validate()
        // audit:allow(unwrap-in-library): constructor contract — an invalid config is a caller bug and fails loudly
        .expect("invalid parcel-study configuration");
    let sampler = RunSampler::new(&config);
    let horizon = SimTime::from_ns_f64(config.horizon_ns());
    let reply = SimDuration::from_ns_f64((1.0 + 2.0 * config.latency_cycles) * config.cycle_ns);
    let nodes = (0..config.nodes)
        .map(|node| {
            let mut stream = RandomStream::new(seed, 0x1000 + node as u64);
            let mut state = ControlNode::default();
            // The node's one pending event lies `delay` after the last one: a
            // `RunDone` while `Busy`, a `ReplyArrived` while `Waiting`, none once
            // `Done`.
            let mut at = SimTime::ZERO;
            let mut delay = state.start_run(&config, &sampler, &mut stream, 0.0);
            while let Some(d) = delay {
                at += d;
                if at > horizon {
                    break;
                }
                let now_cycles = at.as_ns_f64() / config.cycle_ns;
                delay = if let Phase::Waiting = state.phase {
                    state.start_run(&config, &sampler, &mut stream, now_cycles)
                } else {
                    state
                        .finish_run(config.horizon_cycles, now_cycles)
                        .then_some(reply)
                };
            }
            state.outcome(config.horizon_cycles)
        })
        .collect();
    SystemOutcome::from_nodes(config.horizon_cycles, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> ParcelConfig {
        ParcelConfig {
            nodes: 4,
            horizon_cycles: 200_000.0,
            ..Default::default()
        }
    }

    #[test]
    fn idle_fraction_matches_run_latency_ratio() {
        // Utilization of a blocking node is R / (R + 1 + 2L).
        let config = ParcelConfig {
            latency_cycles: 500.0,
            remote_fraction: 0.3,
            ..base_config()
        };
        let out = run_control(config, 11);
        let r = config.expected_run_cycles();
        let expect_busy = (r + 1.0) / (r + 1.0 + config.round_trip_cycles());
        let busy_frac = out.busy_fraction();
        assert!(
            (busy_frac - expect_busy).abs() < 0.05,
            "busy fraction {busy_frac} vs expected {expect_busy}"
        );
        assert!((out.idle_fraction() + busy_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_remote_accesses_means_no_idle_time() {
        let config = ParcelConfig {
            remote_fraction: 0.0,
            ..base_config()
        };
        let out = run_control(config, 3);
        assert!(out.idle_fraction() < 1e-9, "idle {}", out.idle_fraction());
        assert_eq!(out.total_remote_accesses, 0);
        assert!(out.total_work_ops > 0);
    }

    #[test]
    fn higher_latency_means_less_work() {
        let near = run_control(
            ParcelConfig {
                latency_cycles: 10.0,
                ..base_config()
            },
            5,
        );
        let far = run_control(
            ParcelConfig {
                latency_cycles: 5_000.0,
                ..base_config()
            },
            5,
        );
        assert!(
            far.total_work_ops < near.total_work_ops / 2,
            "far {} near {}",
            far.total_work_ops,
            near.total_work_ops
        );
    }

    #[test]
    fn work_scales_linearly_with_nodes() {
        // Nodes are independent, so the per-node work rate is the same regardless of
        // the system size (up to sampling noise). One run+block period is ~2100 cycles
        // here, so the horizon must be long enough that a single node completes a few
        // thousand runs — at 500k cycles (~230 runs) the per-node rate still wobbles
        // by ~7% and the 10% bound below is under-powered.
        let cfg = ParcelConfig {
            horizon_cycles: 5_000_000.0,
            ..base_config()
        };
        let one = run_control(ParcelConfig { nodes: 1, ..cfg }, 7);
        let eight = run_control(ParcelConfig { nodes: 8, ..cfg }, 7);
        let ratio = eight.work_rate() / one.work_rate();
        assert!(
            (ratio - 1.0).abs() < 0.1,
            "per-node work-rate ratio {ratio}"
        );
    }

    #[test]
    fn busy_plus_idle_equals_horizon_per_node() {
        let out = run_control(base_config(), 13);
        for n in &out.nodes {
            assert!((n.busy_cycles + n.idle_cycles - base_config().horizon_cycles).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_latency_network_still_makes_progress() {
        let config = ParcelConfig {
            latency_cycles: 0.0,
            remote_fraction: 0.5,
            ..base_config()
        };
        let out = run_control(config, 17);
        assert!(out.total_work_ops > 0);
        // With zero latency the only non-work time is the 1-cycle issue per remote access.
        assert!(out.idle_fraction() < 0.05);
    }

    #[test]
    fn zero_remote_closed_form_matches_the_engine_bitwise() {
        // With no remote accesses one run fills the horizon, and the outcome has a
        // closed form up to the sub-tick residue between the horizon and its tick.
        // The kernel must reproduce the engine's outcome exactly across clock rates,
        // horizons and node counts. Both a zero remote fraction and a zero memory
        // fraction make the remote probability zero.
        let mut checked = 0;
        for (cycle_ns, horizon_cycles) in [(1.0, 100_000.0), (0.7, 123_456.789), (3.3, 99_999.5)] {
            for nodes in [1usize, 4] {
                for (remote_fraction, memory_fraction) in [(0.0, 0.3), (0.5, 0.0)] {
                    let config = ParcelConfig {
                        nodes,
                        cycle_ns,
                        horizon_cycles,
                        remote_fraction,
                        mix: pim_workload::InstructionMix::with_memory_fraction(memory_fraction),
                        ..Default::default()
                    };
                    assert!(config.remote_prob_per_op() <= 0.0);
                    let fast = run_control(config, 77);
                    let mut sim = Simulation::new(ControlSystem::new(config, 77));
                    sim.set_horizon(SimTime::from_ns_f64(config.horizon_ns()));
                    sim.init(|m, sched| m.start(sched));
                    sim.run();
                    let slow = sim.model().outcome();
                    assert_eq!(fast, slow, "config {config:?}");
                    for (a, b) in fast.nodes.iter().zip(&slow.nodes) {
                        assert_eq!(a.busy_cycles.to_bits(), b.busy_cycles.to_bits());
                        assert_eq!(a.idle_cycles.to_bits(), b.idle_cycles.to_bits());
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 3 * 2 * 2);
    }
}
