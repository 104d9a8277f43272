//! Golden datapoints: every deterministic simulated fact of the test profile
//! (output and launch-DAG hashes, every `ProfileReport` field, cycles on four
//! devices, per app × variant) must match the committed
//! `tests/golden/datapoints.txt`. Under `DPCONS_INTERP=tree` the same record
//! is the cross-executor parity gate. After a change that means to move
//! simulated behaviour, regenerate the record with
//! `cargo run --release -p dpcons-bench --bin reproduce -- golden`.

use dpcons_bench::{golden_diff, golden_path, golden_record};

#[test]
fn simulated_facts_match_the_committed_record() {
    let path = golden_path();
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if let Err(e) = golden_diff(&committed, &golden_record()) {
        panic!("golden datapoint mismatch: {e}\n(regenerate with `reproduce golden` if intended)");
    }
}
