//! Golden datapoints: every deterministic simulated fact of the test profile
//! (output and launch-DAG hashes, every `ProfileReport` field, cycles on four
//! devices, per app × variant) must match the committed
//! `tests/golden/datapoints.txt`. The record is checked on the bytecode VM
//! and again on the tree walker, so it is also the cross-executor parity
//! gate for every app and every quick-space candidate. After a change that
//! means to move simulated behaviour, regenerate the record with
//! `cargo run --release -p dpcons-bench --bin reproduce -- golden`.

use dpcons::ir::{engine_override, set_engine_override, ExecEngine};
use dpcons_bench::{golden_diff, golden_path, golden_record};

#[test]
fn simulated_facts_match_the_committed_record() {
    let path = golden_path();
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    // The override is process-global; this is the only test in its binary.
    let ambient = engine_override();
    for (name, engine) in [("bytecode VM", ExecEngine::Bytecode), ("tree", ExecEngine::Tree)] {
        set_engine_override(Some(engine));
        let fresh = golden_record();
        set_engine_override(ambient);
        if let Err(e) = golden_diff(&committed, &fresh) {
            panic!(
                "golden datapoint mismatch on the {name} executor: {e}\n\
                 (regenerate with `reproduce golden` if intended)"
            );
        }
    }
}
