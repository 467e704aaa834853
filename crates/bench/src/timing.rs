//! Wall-clock timing harness behind `smctl bench`.
//!
//! Measures the three performance claims of the parallel-sweep work and
//! writes them into one serializable [`BenchReport`] (committed as
//! `BENCH_parallel.json`):
//!
//! 1. the full evaluation suite ([`all_tables`]) serial vs on `n` workers,
//!    including a byte-identity check of the rendered tables;
//! 2. the golden convolution kernel, direct loop vs im2col + blocked GEMM;
//! 3. the tiling planner, cold vs memoized.
//!
//! Times are medians of a few repetitions — the workloads are long enough
//! that scheduling noise is small relative to the effect sizes (2×–10×).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use sm_accel::tiling::{plan_cache_clear, plan_conv_cached, ConvDims, PlanCacheSnapshot, TileCaps};
use sm_accel::AccelConfig;
use sm_core::parallel::set_threads;
use sm_tensor::ops::{conv2d, conv2d_im2col, gemm_kernel, gemm_nt, gemm_nt_micro, Conv2dParams};
use sm_tensor::{Shape4, Tensor};

use crate::cas::{ResultCache, SweepCtx};
use crate::experiments::{all_tables, chaos_grid};

/// The headline replay GEMM shape: the 64-channel 56×56 3×3 convolution of
/// the ResNet mid-network, lowered by im2col — `rows` output positions by
/// `cols` patch elements against `m` filters. This is the shape the nightly
/// microkernel speedup floor is asserted on.
pub const HEADLINE_GEMM: (usize, usize, usize) = (56 * 56, 64 * 3 * 3, 64);

/// Timing results for one `smctl bench` run. All times in milliseconds.
///
/// The struct both serializes (the committed `BENCH_parallel.json`) and
/// deserializes; fields added after the first artifacts shipped carry
/// `#[serde(default)]` so old reports keep parsing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Worker count used for the parallel suite run.
    pub threads: usize,
    /// Cores the OS actually offers this process. When this is 1 (pinned
    /// CI containers), `suite_speedup` measures pure threading overhead —
    /// expect ≤ 1× there and near-linear scaling on real multi-core hosts.
    pub available_cores: usize,
    /// Full experiment suite, one worker.
    pub suite_serial_ms: f64,
    /// Full experiment suite, `threads` workers.
    pub suite_parallel_ms: f64,
    /// `suite_serial_ms / suite_parallel_ms`.
    pub suite_speedup: f64,
    /// Whether the serial and parallel suite rendered identical bytes.
    pub suite_outputs_identical: bool,
    /// Direct-loop convolution on the reference workload.
    pub conv_naive_ms: f64,
    /// im2col + blocked-GEMM convolution on the same workload.
    pub conv_im2col_ms: f64,
    /// `conv_naive_ms / conv_im2col_ms`.
    pub conv_speedup: f64,
    /// Scalar cache-blocked `gemm_nt` on the headline replay shape
    /// ([`HEADLINE_GEMM`]). Zero in reports from builds that predate the
    /// microkernel.
    #[serde(default)]
    pub gemm_scalar_ms: f64,
    /// Packed register-blocked `gemm_nt_micro` on the same shape.
    #[serde(default)]
    pub gemm_micro_ms: f64,
    /// `gemm_scalar_ms / gemm_micro_ms` — the number the nightly
    /// `--assert-conv-speedup` floor guards.
    #[serde(default)]
    pub gemm_micro_speedup: f64,
    /// Build of the microkernel this CPU selected: `"avx2"` or
    /// `"portable"`. Empty in reports from builds that had one build only.
    #[serde(default)]
    pub gemm_kernel: String,
    /// Tiling planner over the key set with an empty cache.
    pub plan_cold_ms: f64,
    /// The same key set replayed against the warm cache.
    pub plan_warm_ms: f64,
    /// `plan_cold_ms / plan_warm_ms`.
    pub plan_speedup: f64,
    /// Cache hits observed during the warm replay.
    pub plan_cache_hits: u64,
    /// Plan-cache misses observed during the warm replay (scoped via
    /// [`PlanCacheSnapshot`]; expected 0).
    #[serde(default)]
    pub plan_cache_misses: u64,
    /// Reference chaos grid simulated against an empty result cache.
    #[serde(default)]
    pub result_cold_ms: f64,
    /// The same grid replayed against the warm result cache.
    #[serde(default)]
    pub result_warm_ms: f64,
    /// `result_cold_ms / result_warm_ms` — the number the nightly
    /// `--assert-warm-speedup` floor guards.
    #[serde(default)]
    pub result_warm_speedup: f64,
    /// Result-cache hits observed during the warm replay.
    #[serde(default)]
    pub result_cache_hits: u64,
    /// Result-cache misses observed during the cold run (one per cell).
    #[serde(default)]
    pub result_cache_misses: u64,
    /// Payload bytes the cold run wrote into the result cache.
    #[serde(default)]
    pub result_cache_bytes_written: u64,
    /// Payload bytes the warm replay read back from the result cache.
    #[serde(default)]
    pub result_cache_bytes_read: u64,
    /// Whether the warm replay reproduced the cold grid exactly.
    #[serde(default)]
    pub result_warm_identical: bool,
    /// Provenance note for readers of the committed artifact: when the host
    /// offers a single core (pinned CI container, as for the committed
    /// `BENCH_parallel.json`), `suite_speedup` can only measure threading
    /// overhead, not a parallel win.
    pub provenance: String,
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Runs the full harness at `threads` parallel workers.
///
/// Restores the process-wide thread setting to "unset" before returning, so
/// callers see default behavior afterwards.
pub fn run_bench(threads: usize) -> BenchReport {
    let cfg = AccelConfig::default();

    // 1. Experiment suite, serial vs parallel.
    let render =
        |tables: &[crate::report::Table]| -> String { tables.iter().map(|t| t.render()).collect() };
    set_threads(Some(1));
    let mut serial_out = String::new();
    let suite_serial_ms = median_ms(3, || serial_out = render(&all_tables(cfg)));
    set_threads(Some(threads));
    let mut parallel_out = String::new();
    let suite_parallel_ms = median_ms(3, || parallel_out = render(&all_tables(cfg)));

    // 2. Convolution kernel: a mid-network ResNet-ish layer shape. Sections
    // 2 and 2b compare kernels, so they run on one worker: the microkernel's
    // row-slab split would otherwise fold the core count into both speedups.
    set_threads(Some(1));
    let input = Tensor::random(Shape4::new(1, 64, 56, 56), 7);
    let weights = Tensor::random(Shape4::new(64, 64, 3, 3), 8);
    let params = Conv2dParams::new(3, 1, 1);
    let conv_naive_ms = median_ms(3, || {
        conv2d(&input, &weights, None, params).expect("reference conv");
    });
    let conv_im2col_ms = median_ms(3, || {
        conv2d_im2col(&input, &weights, None, params).expect("lowered conv");
    });

    // 2b. The GEMM kernels head to head on the headline replay shape —
    // same matrices, scalar oracle vs packed microkernel.
    let (rows, cols, m) = HEADLINE_GEMM;
    let a = Tensor::random(Shape4::new(1, 1, rows, cols), 9).into_vec();
    let b = Tensor::random(Shape4::new(1, 1, m, cols), 10).into_vec();
    let gemm_scalar_ms = median_ms(3, || {
        gemm_nt(&a, &b, rows, cols, m);
    });
    let gemm_micro_ms = median_ms(3, || {
        gemm_nt_micro(&a, &b, rows, cols, m);
    });
    set_threads(None);

    // 3. Tiling planner, cold vs memoized, over a realistic key set.
    let caps = TileCaps {
        ifm_bytes: cfg.sram.fm_bytes() / 4,
        ofm_bytes: cfg.sram.fm_bytes() / 4,
        weight_tile_bytes: 64 * 1024,
        weight_total_bytes: 128 * 1024,
    };
    let keys: Vec<ConvDims> = (0..64)
        .map(|i| ConvDims {
            batch: 1,
            in_c: 32 + 8 * (i % 8),
            in_h: 28 + (i / 8),
            in_w: 28 + (i / 8),
            out_c: 64,
            out_h: 28 + (i / 8),
            out_w: 28 + (i / 8),
            kernel: 3,
            stride: 1,
            pad: 1,
        })
        .collect();
    let plan_all = || {
        for &dims in &keys {
            plan_conv_cached(dims, caps, cfg.pe_rows, cfg.pe_cols, cfg.elem_bytes);
        }
    };
    plan_cache_clear();
    let t0 = Instant::now();
    plan_all();
    let plan_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_snapshot = PlanCacheSnapshot::take();
    let plan_warm_ms = median_ms(5, plan_all);
    let (plan_hits, plan_misses) = warm_snapshot.delta();

    // 4. Result cache: the headline chaos grid pair (ResNet-34 +
    // SqueezeNet, the `smctl chaos --grid` networks) over a dense
    // fraction × rate plane, cold vs warm against a throwaway store — the
    // sweep-level analogue of the plan-cache pair. 60 cells amortize the
    // per-sweep network fingerprint so the warm replay measures cache
    // reads against real simulation time; the warm number is a median of
    // replays (the cache stays warm) to damp filesystem noise, while cold
    // is necessarily single-shot.
    let cache_dir = std::env::temp_dir().join(format!("sm-bench-cas-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let store = ResultCache::open(&cache_dir).expect("temp result-cache dir");
    let bench_nets = [
        sm_model::zoo::resnet34(1),
        sm_model::zoo::squeezenet_v10_simple_bypass(1),
    ];
    let run_grids = |session| {
        bench_nets
            .iter()
            .map(|net| {
                let ctx = SweepCtx {
                    cache: Some(session),
                    ..SweepCtx::default()
                };
                let fractions = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5];
                let rates = [0.0, 0.01, 0.05, 0.1, 0.2];
                chaos_grid(net, cfg, 5, &fractions, &rates, Some(8), ctx)
                    .expect("a sweep without a cancel source cannot be cancelled")
            })
            .collect::<Vec<_>>()
    };
    let cold_session = store.session();
    let t0 = Instant::now();
    let cold_grid = run_grids(&cold_session);
    let result_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_probe = store.session();
    let result_warm_ms = median_ms(3, || {
        run_grids(&warm_probe);
    });
    let warm_session = store.session();
    let warm_grid = run_grids(&warm_session);
    let (cold_stats, warm_stats) = (cold_session.stats(), warm_session.stats());
    let _ = std::fs::remove_dir_all(&cache_dir);

    let available_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let provenance = if available_cores == 1 {
        format!(
            "measured in a 1-core container: suite_speedup reflects threading \
             overhead at {threads} workers, not a parallel win"
        )
    } else {
        format!("measured on {available_cores} cores with {threads} workers")
    };
    BenchReport {
        threads,
        available_cores,
        suite_serial_ms,
        suite_parallel_ms,
        suite_speedup: suite_serial_ms / suite_parallel_ms,
        suite_outputs_identical: serial_out == parallel_out,
        conv_naive_ms,
        conv_im2col_ms,
        conv_speedup: conv_naive_ms / conv_im2col_ms,
        gemm_scalar_ms,
        gemm_micro_ms,
        gemm_micro_speedup: gemm_scalar_ms / gemm_micro_ms,
        gemm_kernel: gemm_kernel().to_string(),
        plan_cold_ms,
        plan_warm_ms,
        plan_speedup: plan_cold_ms / plan_warm_ms,
        plan_cache_hits: plan_hits,
        plan_cache_misses: plan_misses,
        result_cold_ms,
        result_warm_ms,
        result_warm_speedup: result_cold_ms / result_warm_ms,
        result_cache_hits: warm_stats.hits,
        result_cache_misses: cold_stats.misses,
        result_cache_bytes_written: cold_stats.bytes_written,
        result_cache_bytes_read: warm_stats.bytes_read,
        result_warm_identical: warm_grid == cold_grid,
        provenance,
    }
}

impl BenchReport {
    /// Human-readable summary (the `smctl bench` stdout).
    pub fn summary(&self) -> String {
        format!(
            "suite: {:.0} ms serial -> {:.0} ms on {} threads, {} core(s) ({:.2}x, outputs identical: {})\n\
             conv 64x56x56 k3: {:.1} ms direct -> {:.1} ms im2col+gemm ({:.2}x)\n\
             gemm 3136x576x64: {:.1} ms scalar -> {:.1} ms {} microkernel ({:.2}x)\n\
             tiling plans: {:.3} ms cold -> {:.3} ms warm ({:.1}x, {} hits / {} misses)\n\
             result cache: {:.1} ms cold -> {:.1} ms warm ({:.1}x, {} hits / {} misses, \
             {} B written / {} B read, identical: {})\n\
             provenance: {}\n",
            self.suite_serial_ms,
            self.suite_parallel_ms,
            self.threads,
            self.available_cores,
            self.suite_speedup,
            self.suite_outputs_identical,
            self.conv_naive_ms,
            self.conv_im2col_ms,
            self.conv_speedup,
            self.gemm_scalar_ms,
            self.gemm_micro_ms,
            self.gemm_kernel,
            self.gemm_micro_speedup,
            self.plan_cold_ms,
            self.plan_warm_ms,
            self.plan_speedup,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.result_cold_ms,
            self.result_warm_ms,
            self.result_warm_speedup,
            self.result_cache_hits,
            self.result_cache_misses,
            self.result_cache_bytes_written,
            self.result_cache_bytes_read,
            self.result_warm_identical,
            self.provenance,
        )
    }

    /// Checks asserted performance floors, as wired to the `smctl bench`
    /// `--assert-*` flags (the nightly regression gate).
    ///
    /// * `conv_floor` — minimum `gemm_micro_speedup` (microkernel over the
    ///   scalar oracle on the headline replay shape).
    /// * `suite_floor` — minimum `suite_speedup`; skipped when the host
    ///   offers a single core, where the parallel run can only measure
    ///   threading overhead (the 1-core-container blind spot).
    /// * `warm_floor` — minimum `result_warm_speedup` (warm result-cache
    ///   sweep over the cold run of the same grid). Also requires the warm
    ///   replay to have reproduced the cold grid exactly.
    /// * `require_identical` — serial and parallel suite bytes must match.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message naming the first floor that failed.
    pub fn assert_floors(
        &self,
        conv_floor: Option<f64>,
        suite_floor: Option<f64>,
        warm_floor: Option<f64>,
        require_identical: bool,
    ) -> Result<(), String> {
        if require_identical && !self.suite_outputs_identical {
            return Err(
                "suite outputs differ between serial and parallel runs (determinism \
                 regression)"
                    .to_string(),
            );
        }
        if let Some(floor) = conv_floor {
            if self.gemm_micro_speedup < floor {
                return Err(format!(
                    "gemm microkernel speedup {:.2}x is below the asserted floor {floor:.2}x \
                     ({:.1} ms scalar vs {:.1} ms microkernel)",
                    self.gemm_micro_speedup, self.gemm_scalar_ms, self.gemm_micro_ms
                ));
            }
        }
        if let Some(floor) = suite_floor {
            if self.available_cores == 1 {
                // Single-core host: the parallel suite cannot beat serial,
                // only measure overhead. Asserting a floor here would fail
                // every pinned CI container, so the floor is waived.
            } else if self.suite_speedup < floor {
                return Err(format!(
                    "parallel suite speedup {:.2}x is below the asserted floor {floor:.2}x \
                     on {} cores",
                    self.suite_speedup, self.available_cores
                ));
            }
        }
        if let Some(floor) = warm_floor {
            if !self.result_warm_identical {
                return Err(
                    "warm result-cache sweep diverged from the cold run (cache-correctness \
                     regression)"
                        .to_string(),
                );
            }
            if self.result_warm_speedup < floor {
                return Err(format!(
                    "warm result-cache sweep speedup {:.2}x is below the asserted floor \
                     {floor:.2}x ({:.1} ms cold vs {:.1} ms warm)",
                    self.result_warm_speedup, self.result_cold_ms, self.result_warm_ms
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{from_json, to_json};

    #[test]
    fn median_is_stable_under_reordering() {
        let mut calls = 0u32;
        let ms = median_ms(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(ms >= 0.0);
    }

    fn report(cores: usize) -> BenchReport {
        BenchReport {
            threads: 4,
            available_cores: cores,
            suite_serial_ms: 1000.0,
            suite_parallel_ms: 2000.0,
            suite_speedup: 0.5,
            suite_outputs_identical: true,
            conv_naive_ms: 100.0,
            conv_im2col_ms: 20.0,
            conv_speedup: 5.0,
            gemm_scalar_ms: 120.0,
            gemm_micro_ms: 20.0,
            gemm_micro_speedup: 6.0,
            gemm_kernel: "avx2".into(),
            plan_cold_ms: 1.0,
            plan_warm_ms: 0.1,
            plan_speedup: 10.0,
            plan_cache_hits: 64,
            plan_cache_misses: 0,
            result_cold_ms: 500.0,
            result_warm_ms: 10.0,
            result_warm_speedup: 50.0,
            result_cache_hits: 9,
            result_cache_misses: 9,
            result_cache_bytes_written: 2048,
            result_cache_bytes_read: 2048,
            result_warm_identical: true,
            provenance: "test".into(),
        }
    }

    #[test]
    fn conv_floor_passes_and_fails_around_the_measured_speedup() {
        let r = report(1);
        assert!(r.assert_floors(Some(4.0), None, None, false).is_ok());
        let err = r.assert_floors(Some(8.0), None, None, false).unwrap_err();
        assert!(err.contains("below the asserted floor"), "{err}");
    }

    #[test]
    fn suite_floor_is_waived_on_a_single_core_host() {
        // suite_speedup 0.5 would fail any floor, but one core waives it.
        assert!(report(1)
            .assert_floors(None, Some(1.5), None, false)
            .is_ok());
        let err = report(4)
            .assert_floors(None, Some(1.5), None, false)
            .unwrap_err();
        assert!(err.contains("parallel suite speedup"), "{err}");
    }

    #[test]
    fn identity_assertion_catches_divergent_outputs() {
        let mut r = report(4);
        assert!(r.assert_floors(None, None, None, true).is_ok());
        r.suite_outputs_identical = false;
        let err = r.assert_floors(None, None, None, true).unwrap_err();
        assert!(err.contains("determinism"), "{err}");
    }

    #[test]
    fn warm_floor_guards_speedup_and_byte_identity() {
        let mut r = report(1);
        assert!(r.assert_floors(None, None, Some(5.0), false).is_ok());
        let err = r.assert_floors(None, None, Some(100.0), false).unwrap_err();
        assert!(err.contains("warm result-cache sweep speedup"), "{err}");
        r.result_warm_identical = false;
        let err = r.assert_floors(None, None, Some(5.0), false).unwrap_err();
        assert!(err.contains("cache-correctness"), "{err}");
    }

    #[test]
    fn report_json_round_trips_with_the_new_fields() {
        let r = report(2);
        let body = to_json(&r).unwrap();
        assert!(body.contains("\"gemm_micro_speedup\":6"));
        assert!(body.contains("\"result_warm_speedup\":50"));
        let back: BenchReport = from_json(&body).unwrap();
        assert_eq!(back.gemm_scalar_ms, r.gemm_scalar_ms);
        assert_eq!(back.gemm_micro_speedup, r.gemm_micro_speedup);
        assert_eq!(back.gemm_kernel, r.gemm_kernel);
        assert_eq!(back.plan_cache_hits, r.plan_cache_hits);
        assert_eq!(back.result_cache_hits, r.result_cache_hits);
        assert!(back.result_warm_identical);
    }

    #[test]
    fn pre_result_cache_reports_still_parse() {
        // A report serialized before the result-cache fields existed: they
        // must default to zero/false instead of failing the parse.
        let r = report(2);
        let mut body = to_json(&r).unwrap();
        for field in [
            "\"plan_cache_misses\":0,",
            "\"result_cold_ms\":500,",
            "\"result_warm_ms\":10,",
            "\"result_warm_speedup\":50,",
            "\"result_cache_hits\":9,",
            "\"result_cache_misses\":9,",
            "\"result_cache_bytes_written\":2048,",
            "\"result_cache_bytes_read\":2048,",
            "\"result_warm_identical\":true,",
        ] {
            assert!(
                body.contains(field),
                "fixture drifted: {field} not in {body}"
            );
            body = body.replace(field, "");
        }
        let back: BenchReport = from_json(&body).unwrap();
        assert_eq!(back.result_cold_ms, 0.0);
        assert_eq!(back.result_cache_hits, 0);
        assert!(!back.result_warm_identical);
        assert_eq!(back.plan_cache_hits, 64);
    }

    #[test]
    fn pre_microkernel_reports_still_parse() {
        // A report serialized before the gemm_* fields existed: they must
        // default to zero instead of failing the parse.
        let r = report(2);
        let mut body = to_json(&r).unwrap();
        for field in [
            "\"gemm_scalar_ms\":120,",
            "\"gemm_micro_ms\":20,",
            "\"gemm_micro_speedup\":6,",
            "\"gemm_kernel\":\"avx2\",",
        ] {
            assert!(
                body.contains(field),
                "fixture drifted: {field} not in {body}"
            );
            body = body.replace(field, "");
        }
        let back: BenchReport = from_json(&body).unwrap();
        assert_eq!(back.gemm_scalar_ms, 0.0);
        assert_eq!(back.gemm_micro_ms, 0.0);
        assert_eq!(back.gemm_micro_speedup, 0.0);
        assert_eq!(back.gemm_kernel, "");
        assert_eq!(back.suite_serial_ms, 1000.0);
        assert_eq!(back.provenance, "test");
    }

    #[test]
    fn committed_report_parses_without_a_kernel_name() {
        let body = include_str!("../../../BENCH_parallel.json");
        let back: BenchReport = from_json(body).unwrap();
        assert_eq!(back.gemm_kernel, "");
        assert!(back.gemm_micro_speedup > 1.0);
    }
}
