//! Degraded-environment coverage: broken filesystems, racing writers and
//! malformed inputs must downgrade gracefully — memory-only caching, typed
//! errors — never panic or abort a sweep.

use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use dpcons_apps::{datasets, Profile, RunConfig, Sssp};
use dpcons_core::{Granularity, KnobSpace};
use dpcons_sim::{parse_fleet, AllocKind, FleetSpecError, GpuConfig};
use dpcons_tune::{
    fleet_sweep, tune, Budget, Cache, FleetError, FleetOptions, TuneError, TuneOptions,
};

/// `Cache`'s memory layer is process-global and tests run in parallel: every
/// test that clears it, or expects a hit from it, holds this lock.
static MEMORY_LAYER: Mutex<()> = Mutex::new(());

fn memory_layer() -> MutexGuard<'static, ()> {
    MEMORY_LAYER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sssp() -> Sssp {
    Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0)
}

fn tiny_space() -> KnobSpace {
    KnobSpace {
        granularities: Granularity::ALL.to_vec(),
        buffers: vec![AllocKind::PreAlloc, AllocKind::Halloc],
        per_buffer_sizes: vec![None],
        configs: vec![None, Some((13, 64))],
    }
}

fn opts() -> TuneOptions {
    TuneOptions {
        base: RunConfig::default(),
        space: tiny_space(),
        budget: Budget::default(),
        with_baselines: false,
        cache: None,
    }
}

#[test]
fn unwritable_cache_dir_degrades_to_memory_only_with_one_warning() {
    let _memory = memory_layer();
    // A regular *file* used as the cache directory: `create_dir_all` fails on
    // every platform, regardless of privileges (chmod tricks don't bite when
    // tests run as root).
    let blocker = std::env::temp_dir().join(format!("dpcons-notadir-{}", std::process::id()));
    std::fs::write(&blocker, "occupies the path").expect("blocker file");

    let cache = Cache::new(Some(blocker.clone()));
    assert!(!cache.disk_disabled());
    let app = sssp();
    let mut o = opts();
    o.base.threshold += 29; // unique cache key within this test binary
    o.cache = Some(cache.clone());
    let fresh = tune(&app, &o).expect("a broken cache never fails a sweep");
    assert!(!fresh.from_cache);
    assert!(cache.disk_disabled(), "a failed write must flip the handle to memory-only");
    // The memory layer still works.
    assert_eq!(cache.get(fresh.key).as_ref(), Some(&fresh));
    // Further sweeps stay memory-only and don't error.
    let warm = tune(&app, &o).expect("warm sweep");
    assert!(warm.from_cache);
    assert_eq!(warm, fresh);

    // The degradation warning was already emitted (warn_once returns false
    // for a key that has fired; its at-most-once contract is tested in obs).
    let key = format!("tune.cache.disk-disabled:{}", blocker.display());
    assert!(
        !dpcons_obs::warn_once(&key, "probe"),
        "the cache must have emitted its single degradation warning"
    );

    // A clone shares the degraded state — no second warning storm.
    assert!(cache.clone().disk_disabled());
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn truncated_and_stale_schema_cache_files_are_misses_and_quarantined() {
    let _memory = memory_layer();
    let app = sssp();
    let dir = std::env::temp_dir().join(format!("dpcons-truncated-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut o = opts();
    o.base.threshold += 21; // unique cache key within this test binary
    o.cache = Some(Cache::new(Some(dir.clone())));

    let fresh = tune(&app, &o).expect("sweep");
    assert!(!fresh.from_cache);
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "tune"))
        .expect("the sweep wrote one cache file");
    let mut corrupt = entry.clone().into_os_string();
    corrupt.push(".corrupt");
    let full = std::fs::read_to_string(&entry).expect("read entry");

    // Two ways an entry goes bad. Chopped mid-payload, the envelope length no
    // longer matches. Left behind by an older build, the envelope is intact
    // (`dpcons-cache v1`, right checksum) around a schema-4 payload — which
    // must never be parsed as a report.
    let stale_payload = fresh.to_text().replacen("dpcons-tune v5", "dpcons-tune v4", 1);
    assert_ne!(stale_payload, fresh.to_text());
    let stale = format!(
        "dpcons-cache v1 {:016x} {}\n{stale_payload}",
        dpcons_tune::fnv1a(stale_payload.as_bytes()),
        stale_payload.len()
    );
    for (what, bad) in [("truncated", &full[..full.len() / 2]), ("stale-schema", &stale[..])] {
        std::fs::write(&entry, bad).expect("damage the entry");
        Cache::clear_memory();
        let recomputed = tune(&app, &o).expect("sweep over a bad entry");
        assert!(!recomputed.from_cache, "{what} entry must be a miss, not a parse panic");
        assert_eq!(recomputed.to_text(), fresh.to_text());
        assert_eq!(
            std::fs::read_to_string(&corrupt).expect("the bad file is kept for post-mortem"),
            bad,
            "quarantine preserves the {what} bytes verbatim"
        );
        // The recompute rewrote a healthy entry in place; it serves cold now.
        Cache::clear_memory();
        assert!(tune(&app, &o).expect("warm sweep").from_cache);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_puts_of_one_key_keep_the_disk_layer() {
    let _memory = memory_layer();
    let dir = std::env::temp_dir().join(format!("dpcons-putrace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut o = opts();
    o.base.threshold += 37; // unique cache key within this test binary
    let report = tune(&sssp(), &o).expect("sweep");

    // Each round, four threads released together put the same entry
    // through a fresh handle (a disabled one stays disabled). Writers that
    // shared one temp file name truncated each other's file, and the losing
    // rename turned the disk layer off.
    for round in 0..50 {
        let cache = Cache::new(Some(dir.clone()));
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    cache.put(report.key, &report)
                });
            }
        });
        assert!(!cache.disk_disabled(), "round {round}: a racing put disabled the disk layer");
        Cache::clear_memory();
        assert_eq!(cache.get(report.key).as_ref(), Some(&report), "round {round}: disk hit");
    }
    let leftovers = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .count();
    assert_eq!(leftovers, 0, "every temp file was renamed into place");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_budget_sweeps_return_typed_errors_not_panics() {
    let app = sssp();
    let mut o = opts();
    o.budget.max_evals = Some(0);
    assert!(matches!(tune(&app, &o).unwrap_err(), TuneError::InvalidBudget { .. }));

    let fo = FleetOptions {
        base: RunConfig::default(),
        space: tiny_space(),
        budget: Budget { max_evals: Some(0), ..Budget::default() },
        fleet: vec![GpuConfig::k20c()],
        cache: None,
    };
    assert!(matches!(
        fleet_sweep(&app, &fo).unwrap_err(),
        FleetError::Tune(TuneError::InvalidBudget { .. })
    ));
}

#[test]
fn unknown_fleet_device_is_a_typed_error() {
    match parse_fleet("k20c,atlantis9000") {
        Err(FleetSpecError::Unknown { name }) => assert_eq!(name, "atlantis9000"),
        other => panic!("expected Unknown device error, got {other:?}"),
    }
}

#[test]
fn empty_fleet_is_a_typed_error() {
    let app = sssp();
    let fo = FleetOptions {
        base: RunConfig::default(),
        space: tiny_space(),
        budget: Budget::default(),
        fleet: Vec::new(),
        cache: None,
    };
    assert_eq!(fleet_sweep(&app, &fo).unwrap_err(), FleetError::EmptyFleet);
}
