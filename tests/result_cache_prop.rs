//! Property suite for the content-addressed result cache (`sm_bench::cas`)
//! and the delta-simulation paths built on it.
//!
//! Covered properties:
//!
//! * key determinism — identical inputs always hash to the same key;
//! * key sensitivity — changing any single field of the keyed tuple (fault
//!   plan seed, policy, bank count, DRAM rate, ...) changes the key;
//! * warm byte-identity — a sweep served from the cache is byte-identical
//!   to the cold run at 1 and at 4 worker threads;
//! * corruption rejection — truncated or bit-flipped cache files are
//!   evicted and silently recomputed, never trusted;
//! * delta dispatch — a 90%-overlapping grid only simulates the missing
//!   cells (verified by the session miss count);
//! * service overlap — two overlapping `serve` requests in one process
//!   return identical results, the second answered from cache.

use std::fs;
use std::path::PathBuf;

use shortcut_mining::accel::AccelConfig;
use shortcut_mining::bench::cas::{cell_key, CacheSession, ResultCache, SweepCtx};
use shortcut_mining::bench::experiments::chaos_grid;
use shortcut_mining::bench::json::to_json;
use shortcut_mining::bench::service::{run_serve, ServeOptions};
use shortcut_mining::core::parallel::set_threads;
use shortcut_mining::core::{FaultPlan, Policy};
use shortcut_mining::model::zoo;

/// A sweep context that consults `cache` (or nothing) and nothing else.
fn cached<'a, U>(cache: Option<&'a CacheSession<'a>>) -> SweepCtx<'a, U> {
    SweepCtx {
        cache,
        ..SweepCtx::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sm-prop-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The keyed tuple shape used by the chaos sweeps: everything that
/// determines a cell result participates in the hash.
#[derive(serde::Serialize)]
struct KeyInputs {
    network: String,
    config: AccelConfig,
    policy: Policy,
    plan: FaultPlan,
}

fn inputs() -> KeyInputs {
    KeyInputs {
        network: "toy_residual".into(),
        config: AccelConfig::default(),
        policy: Policy::shortcut_mining(),
        plan: FaultPlan::new(42).with_dram_faults(0.05),
    }
}

#[test]
fn identical_inputs_produce_identical_keys() {
    for _ in 0..3 {
        assert_eq!(
            cell_key("chaos-point", &inputs()).unwrap(),
            cell_key("chaos-point", &inputs()).unwrap()
        );
    }
}

#[test]
fn any_single_differing_field_changes_the_key() {
    let base = cell_key("chaos-point", &inputs()).unwrap();

    // Fault-plan seed.
    let mut v = inputs();
    v.plan = FaultPlan::new(43).with_dram_faults(0.05);
    assert_ne!(base, cell_key("chaos-point", &v).unwrap(), "seed");

    // Fault-plan DRAM rate.
    let mut v = inputs();
    v.plan = FaultPlan::new(42).with_dram_faults(0.06);
    assert_ne!(base, cell_key("chaos-point", &v).unwrap(), "dram rate");

    // Policy.
    let mut v = inputs();
    v.policy = Policy::baseline();
    assert_ne!(base, cell_key("chaos-point", &v).unwrap(), "policy");

    // Bank count.
    let mut v = inputs();
    v.config.sram.fm_pool.bank_count += 1;
    assert_ne!(base, cell_key("chaos-point", &v).unwrap(), "bank count");

    // Network name.
    let mut v = inputs();
    v.network = "resnet34".into();
    assert_ne!(base, cell_key("chaos-point", &v).unwrap(), "network");

    // Cell kind namespaces otherwise-identical inputs.
    assert_ne!(
        base,
        cell_key("chaos-grid-cell", &inputs()).unwrap(),
        "kind"
    );
}

/// Thread count is process-global, so one test owns every property that
/// exercises the worker pool: warm byte-identity at 1 and 4 threads, the
/// 90%-overlap delta dispatch, and corruption recovery.
#[test]
fn warm_runs_are_byte_identical_and_delta_dispatch_only_misses() {
    let net = zoo::toy_residual(1);
    let cfg = AccelConfig::default();
    let fractions = [0.0, 0.1, 0.3, 0.5, 0.7];
    let rates = [0.0, 0.05];
    let dir = tmp_dir("warm");
    let store = ResultCache::open(&dir).unwrap();

    let run = |cache: Option<&ResultCache>| {
        let session = cache.map(|c| c.session());
        let grid = chaos_grid(
            &net,
            cfg,
            7,
            &fractions,
            &rates,
            Some(8),
            cached(session.as_ref()),
        )
        .unwrap();
        let stats = session.map(|s| s.stats());
        (to_json(&grid).unwrap(), stats)
    };

    for threads in [1usize, 4] {
        set_threads(Some(threads));
        let uncached = run(None).0;
        let (cold, cold_stats) = run(Some(&store));
        let (warm, warm_stats) = run(Some(&store));
        assert_eq!(cold, uncached, "caching must not change output");
        assert_eq!(cold, warm, "warm run differs at {threads} threads");
        let warm_stats = warm_stats.unwrap();
        assert_eq!(warm_stats.misses, 0, "warm run recomputed cells");
        assert_eq!(warm_stats.hits, 10);
        // The first pass at 1 thread populates the store; the cold pass at
        // 4 threads is then fully warm, which is exactly the cross-thread
        // reuse the content hash promises.
        let _ = cold_stats;
    }

    // 90% overlap: one new fraction row (2 cells) on top of 8 shared cells.
    set_threads(Some(4));
    let grown = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9];
    let session = store.session();
    let grid = chaos_grid(
        &net,
        cfg,
        7,
        &grown,
        &rates,
        Some(8),
        cached(Some(&session)),
    )
    .unwrap();
    let stats = session.stats();
    assert_eq!(
        stats.misses, 2,
        "only the two new cells may be simulated: {stats:?}"
    );
    assert_eq!(stats.hits, 10);
    // The delta-run grid matches a from-scratch run of the grown grid.
    let fresh = chaos_grid(&net, cfg, 7, &grown, &rates, Some(8), cached(None)).unwrap();
    assert_eq!(to_json(&grid).unwrap(), to_json(&fresh).unwrap());

    // Corruption: truncate one entry, bit-flip another. Both are rejected,
    // evicted, recomputed, and the output stays byte-identical.
    let entry_dir = dir.join("v1");
    let mut entries: Vec<PathBuf> = fs::read_dir(&entry_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert!(entries.len() >= 12, "expected one file per cell");
    let truncated = &entries[0];
    let flipped = &entries[1];
    let keep = fs::read(truncated).unwrap();
    fs::write(truncated, &keep[..keep.len() / 2]).unwrap();
    let mut bytes = fs::read(flipped).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(flipped, bytes).unwrap();

    let session = store.session();
    let regrown = chaos_grid(
        &net,
        cfg,
        7,
        &grown,
        &rates,
        Some(8),
        cached(Some(&session)),
    )
    .unwrap();
    let stats = session.stats();
    assert_eq!(to_json(&regrown).unwrap(), to_json(&fresh).unwrap());
    assert_eq!(
        stats.evictions, 2,
        "both corrupt entries evicted: {stats:?}"
    );
    assert_eq!(stats.misses, 2, "both corrupt entries recomputed");
    assert_eq!(stats.hits, 10);

    // The evicted entries were rewritten: a final pass is all hits again.
    let session = store.session();
    chaos_grid(
        &net,
        cfg,
        7,
        &grown,
        &rates,
        Some(8),
        cached(Some(&session)),
    )
    .unwrap();
    assert_eq!(session.stats().misses, 0);

    set_threads(None);
    let _ = fs::remove_dir_all(&dir);
}

/// Two sessions racing on the same corrupted entry: corruption is evicted
/// exactly once (the loser's redundant removal is not double-counted), and
/// neither session ever observes mismatched bytes — only a miss followed by
/// a clean recompute.
#[test]
fn concurrent_sessions_evict_a_corrupt_entry_exactly_once() {
    let dir = tmp_dir("race");
    let store = ResultCache::open(&dir).unwrap();
    let key = cell_key("prop-race", &inputs()).unwrap();
    let value: Vec<f64> = vec![1.0, 2.5, 4.0];
    store.session().put(key, &value);

    // Bit-flip the payload so the checksum rejects it.
    let entry = dir.join("v1").join(format!("{}.json", key.hex()));
    let mut bytes = fs::read(&entry).unwrap();
    let last = bytes.len() - 2; // stay off the trailing newline
    bytes[last] ^= 0x01;
    fs::write(&entry, bytes).unwrap();

    let barrier = std::sync::Barrier::new(2);
    let probe = || {
        let session = store.session();
        barrier.wait();
        let got: Option<Vec<f64>> = session.get(key);
        // Whoever saw the corruption recomputes and republishes.
        if got.is_none() {
            session.put(key, &value);
        }
        (got, session.stats())
    };
    let (got_a, stats_a, got_b, stats_b) = std::thread::scope(|scope| {
        let a = scope.spawn(probe);
        let b = scope.spawn(probe);
        let (got_a, stats_a) = a.join().unwrap();
        let (got_b, stats_b) = b.join().unwrap();
        (got_a, stats_a, got_b, stats_b)
    });

    // Corrupted bytes are never served: each session saw a miss or the
    // true value (when the other's recompute landed first), never garbage.
    for got in [&got_a, &got_b] {
        assert!(got.is_none() || got.as_ref() == Some(&value), "{got:?}");
    }
    assert!(
        got_a.is_none() || got_b.is_none(),
        "at least one session must have observed the corruption"
    );
    // The single corrupt file is evicted exactly once across both sessions.
    assert_eq!(
        stats_a.evictions + stats_b.evictions,
        1,
        "a: {stats_a:?}, b: {stats_b:?}"
    );

    // The store converged: a fresh read returns the original bytes.
    let session = store.session();
    let after: Option<Vec<f64>> = session.get(key);
    assert_eq!(after, Some(value));
    assert_eq!(session.stats().evictions, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_overlapping_requests_from_cache() {
    let dir = tmp_dir("serve");
    let store = ResultCache::open(&dir).unwrap();
    let r1 = r#"{"id":"a","kind":"chaos-grid","network":"toy_residual","seed":7,"fractions":[0.0,0.3],"rates":[0.0,0.2]}"#;
    // 50% overlap: shares the 0.0/0.3 × 0.0 column, adds a 0.1 rate.
    let r2 = r#"{"id":"b","kind":"chaos-grid","network":"toy_residual","seed":7,"fractions":[0.0,0.3],"rates":[0.0,0.1]}"#;
    let mut out = Vec::new();
    run_serve(
        format!("{r1}\n{r2}\n{r1}\n").as_bytes(),
        &mut out,
        &store,
        &ServeOptions::default(),
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let dones: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"done""#))
        .collect();
    assert_eq!(dones.len(), 3);
    assert!(dones[0].contains(r#""hits":0"#) && dones[0].contains(r#""misses":4"#));
    // Second request shares two cells with the first.
    assert!(dones[1].contains(r#""hits":2"#) && dones[1].contains(r#""misses":2"#));
    // The repeat of the first request is answered entirely from cache, and
    // its result payload is byte-identical to the cold answer.
    assert!(dones[2].contains(r#""hits":4"#) && dones[2].contains(r#""misses":0"#));
    let result = |l: &str| {
        l.split(r#""result":"#)
            .nth(1)
            .unwrap()
            .split(r#","cache":"#)
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(result(dones[0]), result(dones[2]));
    let _ = fs::remove_dir_all(&dir);
}
