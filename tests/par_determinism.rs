//! Determinism of the pfdbg-par thread-pool layer: across random
//! netlists, the parallel offline flow (cut enumeration, sharded BDD
//! construction) and the sharded SCG specialization must be
//! **byte-identical** to the serial flow at every thread count.

use parameterized_fpga_debug::circuits::{generate, GenParams};
use parameterized_fpga_debug::core::{
    offline, prepare_instrumented, InstrumentConfig, OfflineConfig,
};
use parameterized_fpga_debug::util::BitVec;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = GenParams> {
    // Small circuits: each case runs the full offline flow three times
    // (1, 2 and 8 threads), so the generator stays modest.
    (4usize..10, 2usize..6, 20usize..60, 3usize..6, 0usize..4, any::<u64>()).prop_map(
        |(n_inputs, n_outputs, n_gates, depth, n_latches, seed)| GenParams {
            n_inputs,
            n_outputs,
            n_gates: n_gates.max(depth),
            depth,
            n_latches,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The whole offline flow — mapping, placement, routing,
    /// generalized-bitstream construction — then SCG specialization,
    /// compared between 1, 2 and 8 worker threads.
    #[test]
    fn parallel_offline_flow_is_deterministic(p in arb_params()) {
        let design = generate(&p);
        let (_, _, inst) = prepare_instrumented(
            &design,
            &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
            6,
        )
        .unwrap();
        let run = |threads: usize| {
            offline(&inst, &OfflineConfig { threads, ..Default::default() }).unwrap()
        };
        let base = run(1);
        let base_scg = base.scg.as_ref().unwrap();
        let base_tpar = base.tpar.as_ref().unwrap();
        let n = inst.annotations.len();
        // A handful of parameter vectors: all-zero plus single-bit
        // selections spread over the parameter space.
        let vectors: Vec<BitVec> = (0..4)
            .map(|i| {
                let mut v = BitVec::zeros(n);
                if i > 0 && n > 0 {
                    v.set((i * 7) % n, true);
                }
                v
            })
            .collect();
        for threads in [2usize, 8] {
            let off = run(threads);
            let scg = off.scg.as_ref().unwrap();
            let tp = off.tpar.as_ref().unwrap();
            // Routing converged identically...
            prop_assert_eq!(tp.stats.wires_used, base_tpar.stats.wires_used);
            prop_assert_eq!(tp.stats.n_switches, base_tpar.stats.n_switches);
            // ...the merged BDD tables match...
            prop_assert_eq!(scg.manager().n_nodes(), base_scg.manager().n_nodes());
            prop_assert_eq!(
                scg.generalized().n_tunable(),
                base_scg.generalized().n_tunable()
            );
            // ...and every specialization is byte-identical.
            for v in &vectors {
                prop_assert_eq!(scg.specialize(v), base_scg.specialize(v));
            }
        }
    }
}
