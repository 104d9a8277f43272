//! Figure 6's `exhaustive` column is a search over the row's launch shapes
//! *and* its policies, so no policy of the row can beat it.

use dpcons_apps::{Profile, RunConfig};
use dpcons_bench::fig6_rows;

#[test]
fn fig6_exhaustive_is_never_beaten_by_a_policy() {
    let (rows, faults) = fig6_rows(Profile::Test, &RunConfig::default());
    assert!(faults.is_empty(), "{faults:?}");
    assert_eq!(rows.len(), 6, "two datasets x three granularities");
    for r in &rows {
        let best = r.exhaustive.expect("some run of the row is oracle-exact");
        for &(p, cycles) in &r.policies {
            let cycles = cycles.expect("every policy runs at the test profile");
            let row = format!("{} {}-level", r.dataset, r.granularity.label());
            assert!(best <= cycles, "{row}: exhaustive {best} > {} {cycles}", p.label());
        }
    }
}
