//! Alignment scales with the number of misaligned kernels.
//!
//! Each camera of `camera_bank(n)` carries one misaligned `Subtract`
//! (median vs. convolution halos), and the alignment pass fixes one
//! misalignment per round. A bank of nine or more cameras therefore needs
//! more rounds than any fixed cap; it must compile, and simulate
//! identically on the sequential and the parallel engine.

use bp_apps::{apps, BIG, FAST};
use bp_compiler::{compile, CompileOptions, Compiled, MappingKind};
use bp_sim::{ParallelTimedSimulator, SimConfig, TimedSimulator};

fn compile_bank(cameras: usize) -> Compiled {
    let app = apps::camera_bank(cameras, BIG, FAST);
    let opts = CompileOptions {
        mapping: MappingKind::OneToOne,
        ..Default::default()
    };
    compile(&app.graph, &opts).unwrap_or_else(|e| panic!("camera_bank({cameras}): {e}"))
}

#[test]
fn banks_beyond_eight_cameras_compile() {
    for cameras in [9usize, 16] {
        let compiled = compile_bank(cameras);
        let subtracts_aligned = compiled
            .report
            .align
            .inserted
            .iter()
            .filter(|a| a.for_input.0.starts_with("Subtract"))
            .map(|a| &a.for_input.0)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(
            subtracts_aligned, cameras,
            "camera_bank({cameras}): every camera's Subtract needs its own trim"
        );
    }
}

#[test]
fn bank_of_nine_is_engine_invariant() {
    let compiled = compile_bank(9);
    let config = SimConfig::new(2);
    let seq = TimedSimulator::new(&compiled.graph, &compiled.mapping, config.clone())
        .expect("instantiate sequential")
        .run()
        .expect("sequential run");
    let par = ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config, 2)
        .expect("instantiate parallel")
        .run()
        .expect("parallel run");
    assert!(seq.node_firings.iter().sum::<u64>() > 0);
    assert_eq!(seq.fingerprint(), par.fingerprint());
}
