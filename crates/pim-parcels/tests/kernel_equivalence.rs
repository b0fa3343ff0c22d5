//! The per-node kernels behind `run_test` and `run_control` against the
//! discrete-event reference models (`TestSystem`, `ControlSystem`) run on the
//! engine: every `NodeOutcome` field must agree bit for bit.

use desim::prelude::{SimTime, Simulation};
use desim::random::mix_seed;
use pim_parcels::prelude::*;
use pim_workload::InstructionMix;
use proptest::prelude::*;

/// The test system on the engine: the paper's flat network, memory-side servicing.
fn engine_test(config: ParcelConfig, seed: u64) -> SystemOutcome {
    let mut sim = Simulation::new(TestSystem::new(config, seed));
    sim.set_horizon(SimTime::from_ns_f64(config.horizon_ns()));
    sim.init(|m, sched| m.start(sched));
    sim.run();
    sim.model().outcome()
}

/// The control system on the engine.
fn engine_control(config: ParcelConfig, seed: u64) -> SystemOutcome {
    let mut sim = Simulation::new(ControlSystem::new(config, seed));
    sim.set_horizon(SimTime::from_ns_f64(config.horizon_ns()));
    sim.init(|m, sched| m.start(sched));
    sim.run();
    sim.model().outcome()
}

/// Every field of an outcome, floats as their bit patterns.
fn bits(out: &SystemOutcome) -> (u64, u64, u64, Vec<[u64; 4]>) {
    let nodes = out
        .nodes
        .iter()
        .map(|n| {
            [
                n.work_ops,
                n.busy_cycles.to_bits(),
                n.idle_cycles.to_bits(),
                n.remote_accesses,
            ]
        })
        .collect();
    (
        out.horizon_cycles.to_bits(),
        out.total_work_ops,
        out.total_remote_accesses,
        nodes,
    )
}

/// Run both kernels and both reference models at `seed` and require bitwise equality.
fn assert_kernels_match(config: ParcelConfig, seed: u64) {
    assert_eq!(
        bits(&run_test(config, seed)),
        bits(&engine_test(config, seed)),
        "test system, seed {seed}, {config:?}"
    );
    assert_eq!(
        bits(&run_control(config, seed)),
        bits(&engine_control(config, seed)),
        "control system, seed {seed}, {config:?}"
    );
}

/// `edges[sel]` when `sel` indexes one, otherwise the generated `value`: puts the
/// boundary values of an axis in a fixed share of the cases.
fn edge_or(sel: u32, value: f64, edges: &[f64]) -> f64 {
    edges.get(sel as usize).copied().unwrap_or(value)
}

/// Small configurations with the boundary values drawn often: zero latency, zero
/// overhead, remote fraction 0 and 1, memory fraction 0 and 1, clock periods other
/// than 1 ns (down to one engine tick), and horizons that fall between ticks.
fn edge_config() -> impl Strategy<Value = ParcelConfig> {
    (
        (1usize..5, 1usize..18),
        (0u32..4, 0.0f64..1.0),
        (0u32..4, 0.0f64..1.0),
        (0u32..3, 0.0f64..2_000.0),
        (0u32..2, 0.0f64..16.0),
        (0u32..4, 0.001f64..5.0),
        1.0f64..5_000.0,
    )
        .prop_map(
            |((nodes, parallelism), remote, memory, latency, overhead, cycle, horizon)| {
                ParcelConfig {
                    nodes,
                    parallelism,
                    remote_fraction: edge_or(remote.0, remote.1, &[0.0, 1.0]),
                    mix: InstructionMix::with_memory_fraction(edge_or(
                        memory.0,
                        memory.1,
                        &[0.0, 1.0],
                    )),
                    // Besides zero, a short fractional latency (round trips of a few
                    // ticks, often tying with service completions) or a long one.
                    latency_cycles: edge_or(latency.0, latency.1, &[0.0, latency.1 / 40.0]),
                    parcel_overhead_cycles: edge_or(overhead.0, overhead.1, &[0.0]),
                    cycle_ns: edge_or(cycle.0, cycle.1, &[1.0, 0.001, 0.3]),
                    horizon_cycles: horizon,
                    ..Default::default()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Each kernel reproduces its reference model exactly on arbitrary small configs.
    #[test]
    fn kernels_equal_the_engine_bitwise(config in edge_config(), seed in any::<u64>()) {
        assert_kernels_match(config, seed);
    }
}

/// The seed the scenario catalog gives builtin `name` at the default base seed
/// (`pim_harness::SeedPolicy::scenario_seed` over `pim_harness::DEFAULT_SEED`).
fn catalog_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    mix_seed(h, 0x5C_2004)
}

#[test]
#[ignore = "minutes in a debug build; run with `cargo test --release -p pim-parcels -- --ignored`"]
fn kernels_equal_the_engine_on_the_full_figure_11_and_12_grids() {
    // Pinned in crates/pim-harness/tests/golden/figure11.json.
    assert_eq!(catalog_seed("figure11"), 8_487_634_487_685_490_488);
    let grids = [
        ("figure11", LatencyHidingSpec::figure11().configs()),
        ("figure12", IdleTimeSpec::figure12().configs()),
    ];
    for (name, configs) in grids {
        let seed = catalog_seed(name);
        for (i, config) in configs.into_iter().enumerate() {
            // `evaluate_point` / `evaluate_idle_point` seed the two systems so.
            let test_seed = point_seed(seed, i);
            let control_seed = test_seed.wrapping_add(0x5EED);
            assert_eq!(
                bits(&run_test(config, test_seed)),
                bits(&engine_test(config, test_seed)),
                "{name} point {i}: test system"
            );
            assert_eq!(
                bits(&run_control(config, control_seed)),
                bits(&engine_control(config, control_seed)),
                "{name} point {i}: control system"
            );
        }
    }
}
