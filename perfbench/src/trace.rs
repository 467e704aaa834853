//! The traced run (`--trace 1`): per-layer metrics, each timed around
//! calls into one crate's public functions from this file set.
//!
//! Every traced run measures every layer, so each prints the same metric
//! set: the verify networks drive sm-tensor and the golden executor, the
//! figure networks and one regeneration drive sm-accel, sm-core and the
//! table builders, and the seed's request list (served fresh and
//! overlapping) drives lowering, the result cache and the service.
//! `trace.wall_s` is the workload's own fixed job run with spans on;
//! against the untraced `wall_s` it gives the tracing overhead.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use sm_accel::tiling::{plan_cache_clear, PlanCacheSnapshot};
use sm_accel::{AccelConfig, BaselineAccelerator, FusedLayerAccelerator};
use sm_bench::cas::{cell_key, content_fingerprint, ResultCache};
use sm_bench::experiments::all_tables;
use sm_bench::json::parse_value_document;
use sm_core::functional::verify_value_preservation;
use sm_core::{Policy, ShortcutMiner, SimOptions};
use sm_model::exec::GoldenExecutor;
use sm_model::{zoo, LayerKind, Network};
use sm_tensor::ops::{gemm_nt_micro, im2col, Conv2dParams};

use crate::serve::{Sweep, SweepVisitor};
use crate::util::{mean, median, ms_since, percentile, Report, WorkDir};
use crate::{figures, serve, verify, Workload};

/// Repetitions of the sub-millisecond simulator probes; medians reported.
const SIM_REPS: usize = 9;
/// Repetitions of the table-builder probes; medians reported.
const TABLE_REPS: usize = 3;
/// Overlap jobs per traced run; `cas.hit_ratio` is their median, and
/// `cas.hit_ratio_range` their max − min.
const SERVE_JOBS: usize = 3;

/// Checks made by the traced run (counted into `attempted` / `failed`).
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

pub fn run(workload: Workload, seed: u64) -> Result<Report, String> {
    let mut checks = Checks::default();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();

    let own_wall = match workload {
        Workload::Figures => traced_figures_job(&mut checks),
        Workload::Verify => traced_verify_job(seed, &mut checks),
    };
    metrics.push(("trace.wall_s", own_wall, "s"));
    probe_verify(seed, &mut checks, &mut metrics);
    probe_figures(&mut checks, &mut metrics);
    probe_serve(seed, &mut checks, &mut metrics)?;

    let mut report = Report::new(checks.attempted, checks.failed);
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
    Ok(report)
}

/// The `figures` job with one span around each of its two table sets.
fn traced_figures_job(checks: &mut Checks) -> f64 {
    let cfg = AccelConfig::default();
    let t_job = Instant::now();
    for _ in 0..figures::REGENS_PER_JOB {
        let ((mut rendered, paper_ms), (ext, ext_ms)) = table_sets(cfg);
        println!("# span all_tables {paper_ms:.3} ms, ext_tables {ext_ms:.3} ms");
        rendered.extend(ext);
        checks.note(figures::matches_reference(&rendered));
    }
    t_job.elapsed().as_secs_f64()
}

/// The `verify` job with one span per verify call.
fn traced_verify_job(seed: u64, checks: &mut Checks) -> f64 {
    let nets = verify::networks();
    let t_job = Instant::now();
    for (slot, &net) in verify::JOB.iter().enumerate() {
        let t0 = Instant::now();
        let ok = verify::verify(&nets[net], verify::golden_seed(seed, 0, slot));
        println!(
            "# span verify {} {:.3} ms",
            verify::NETWORKS[net],
            ms_since(t0)
        );
        checks.note(ok);
    }
    t_job.elapsed().as_secs_f64()
}

/// Rendered paper tables and extension tables, each with its time in ms.
fn table_sets(cfg: AccelConfig) -> ((Vec<String>, f64), (Vec<String>, f64)) {
    let t0 = Instant::now();
    let paper: Vec<String> = all_tables(cfg).iter().map(|t| t.render()).collect();
    let paper_ms = ms_since(t0);
    let t0 = Instant::now();
    let ext: Vec<String> = figures::ext_tables(cfg)
        .iter()
        .map(|t| t.render())
        .collect();
    ((paper, paper_ms), (ext, ms_since(t0)))
}

/// sm-tensor and sm-model on the verify networks, plus the sm-core replay
/// inferred as the verify call's remaining self time. Prints the
/// per-layer table (`# layer` lines).
fn probe_verify(
    seed: u64,
    checks: &mut Checks,
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let cfg = AccelConfig::default();
    let (mut im2col_ms, mut gemm_ms, mut gemm_macs) = (0.0, 0.0, 0u64);
    let (mut golden_ms, mut eval_conv_ms, mut eval_other_ms, mut replay_ms) = (0.0, 0.0, 0.0, 0.0);
    println!("# layer\tnetwork\tlayer\tkind\tmacs\teval_ms");
    for (i, net) in verify::networks().iter().enumerate() {
        let golden_seed = verify::golden_seed(seed, 0, i);
        let exec = GoldenExecutor::new(net, golden_seed);
        let t0 = Instant::now();
        let golden = exec.run();
        let net_golden_ms = ms_since(t0);
        golden_ms += net_golden_ms;
        let Ok(golden) = golden else {
            checks.note(false);
            continue;
        };
        for layer in &net.layers()[1..] {
            let operands: Vec<_> = layer.inputs.iter().map(|p| &golden[p.index()]).collect();
            let t0 = Instant::now();
            let out = exec.eval(layer.id, &operands);
            let ms = ms_since(t0);
            checks.note(out.is_ok_and(|o| o.max_abs_diff(&golden[layer.id.index()]) == Ok(0.0)));
            let macs = layer.macs(&net.in_shapes(layer.id));
            println!(
                "# layer\t{}\t{}\t{}\t{macs}\t{ms:.3}",
                net.name(),
                layer.name,
                layer.kind.mnemonic()
            );
            if let LayerKind::Conv(spec) = layer.kind {
                eval_conv_ms += ms;
                let params = Conv2dParams::new(spec.kernel, spec.stride, spec.pad);
                let t0 = Instant::now();
                let lowered = im2col(&golden[layer.inputs[0].index()], params);
                im2col_ms += ms_since(t0);
                let (Ok((a, rows, cols)), Ok(Some(w))) = (lowered, exec.try_weights(layer.id))
                else {
                    checks.note(false);
                    continue;
                };
                let m = spec.out_channels;
                let t0 = Instant::now();
                std::hint::black_box(gemm_nt_micro(&a, w.as_slice(), rows, cols, m));
                gemm_ms += ms_since(t0);
                gemm_macs += (rows * cols * m) as u64;
            } else {
                eval_other_ms += ms;
            }
        }
        drop(golden);
        let sim_ms = median_ms(SIM_REPS, || {
            std::hint::black_box(
                ShortcutMiner::new(cfg, Policy::shortcut_mining())
                    .try_simulate(net, &SimOptions::default())
                    .is_ok(),
            );
        });
        let t0 = Instant::now();
        let ok =
            verify_value_preservation(net, cfg, Policy::shortcut_mining(), golden_seed).is_ok();
        replay_ms += ms_since(t0) - net_golden_ms - sim_ms;
        checks.note(ok);
    }
    metrics.extend([
        ("tensor.im2col_ms", im2col_ms, "ms"),
        ("tensor.gemm_ms", gemm_ms, "ms"),
        (
            "tensor.gemm_gmac_s",
            gemm_macs as f64 / (gemm_ms * 1e-3) / 1e9,
            "GMAC/s",
        ),
        ("model.golden_ms", golden_ms, "ms"),
        ("model.eval_conv_ms", eval_conv_ms, "ms"),
        ("model.eval_other_ms", eval_other_ms, "ms"),
        ("core.replay_ms", replay_ms, "ms"),
    ]);
}

/// Median wall time of `reps` calls, in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms_since(t0)
        })
        .collect();
    median(&times)
}

/// sm-accel, sm-core and the table builders on the figure networks.
fn probe_figures(checks: &mut Checks, metrics: &mut Vec<(&'static str, f64, &'static str)>) {
    let cfg = AccelConfig::default();
    let nets = zoo::evaluated_networks(1);
    // Mean over the figure networks of each one's median time, in µs.
    let mut per_net_us = |f: &dyn Fn(&Network) -> bool| -> f64 {
        let us: Vec<f64> = nets
            .iter()
            .map(|n| {
                let mut ok = true;
                let ms = median_ms(SIM_REPS, || ok &= f(n));
                checks.note(ok);
                ms * 1e3
            })
            .collect();
        mean(&us)
    };
    let baseline_us = per_net_us(&|n| BaselineAccelerator::new(cfg).try_simulate(n).is_ok());
    let fused_us = per_net_us(&|n| FusedLayerAccelerator::new(cfg).try_simulate(n).is_ok());
    let sim_us = per_net_us(&|n| {
        ShortcutMiner::new(cfg, Policy::shortcut_mining())
            .try_simulate(n, &SimOptions::default())
            .is_ok()
    });
    let layers: usize = nets.iter().map(Network::len).sum();

    // A probe, not an op: its tables are checked by the `figures` job.
    plan_cache_clear();
    let snap = PlanCacheSnapshot::take();
    std::hint::black_box(figures::regenerate(cfg));
    let (hits, misses) = snap.delta();
    let plan_calls = hits + misses;

    let mut paper_ms = Vec::new();
    let mut ext_ms = Vec::new();
    for _ in 0..TABLE_REPS {
        let ((_, p), (_, e)) = table_sets(cfg);
        paper_ms.push(p);
        ext_ms.push(e);
    }
    let nproc = sm_core::parallel::threads();
    sm_core::parallel::set_threads(Some(1));
    let serial_ms = median_ms(TABLE_REPS, || {
        std::hint::black_box(figures::regenerate(cfg));
    });
    sm_core::parallel::set_threads(Some(nproc));
    let pooled_ms = median_ms(TABLE_REPS, || {
        std::hint::black_box(figures::regenerate(cfg));
    });

    metrics.extend([
        ("accel.baseline_us", baseline_us, "us"),
        ("accel.fused_us", fused_us, "us"),
        ("accel.plan_calls", plan_calls as f64, "count"),
        (
            "accel.plan_hit_ratio",
            hits as f64 / plan_calls.max(1) as f64,
            "ratio",
        ),
        ("core.sim_us", sim_us, "us"),
        (
            "core.sim_layers_per_s",
            layers as f64 / nets.len() as f64 / (sim_us * 1e-6),
            "1/s",
        ),
        ("core.pool_speedup", serial_ms / pooled_ms, "x"),
        ("bench.all_tables_ms", median(&paper_ms), "ms"),
        ("bench.ext_tables_ms", median(&ext_ms), "ms"),
    ]);
}

/// Per-request sweep and result-cache timings.
#[derive(Debug, Default)]
struct SweepTimes {
    nocache_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    put_us: Vec<f64>,
    get_us: Vec<f64>,
}

/// Runs each visited sweep with no session, with a session on an empty
/// store and with a session on the now-warm store, then puts and gets its
/// cells under fresh keys.
struct SweepProbe<'a> {
    store: &'a ResultCache,
    tag: usize,
    times: &'a mut SweepTimes,
    checks: &'a mut Checks,
}

impl SweepVisitor for SweepProbe<'_> {
    fn visit<U: Clone + Serialize + Deserialize>(&mut self, sweep: &Sweep<'_, U>) {
        let mut cells: Vec<U> = Vec::new();
        let t0 = Instant::now();
        sweep(None, &mut |c| cells.push(c.clone()));
        self.times.nocache_ms.push(ms_since(t0));
        for warm in [false, true] {
            let session = self.store.session();
            let t0 = Instant::now();
            sweep(Some(&session), &mut |_| {});
            let ms = ms_since(t0);
            if warm {
                self.times.warm_ms.push(ms);
                self.checks.note(session.stats().misses == 0);
            } else {
                self.times.cold_ms.push(ms);
            }
        }
        let session = self.store.session();
        for (i, cell) in cells.iter().enumerate() {
            let key = cell_key("perfbench-probe", &(self.tag, i)).expect("probe keys serialize");
            let t0 = Instant::now();
            session.put(key, cell);
            self.times.put_us.push(ms_since(t0) * 1e3);
            let t0 = Instant::now();
            let back: Option<U> = session.get(key);
            self.times.get_us.push(ms_since(t0) * 1e3);
            self.checks.note(back.is_some());
        }
    }
}

/// sm-model lowering, sm-bench parsing/fingerprinting/sweeps, the result
/// cache and the service.
///
/// The per-request probes run on the first lap of the seed's request list.
/// The fresh schedule (two laps, every cell a miss) is served once for the
/// service latencies and the store's write side. The overlap schedule
/// (the first lap, each request three times) is served [`SERVE_JOBS`]
/// times: its third copies read the store, and its in-flight duplicates
/// expose the `cached`-flag divergence and the spread of hits.
fn probe_serve(
    seed: u64,
    checks: &mut Checks,
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
) -> Result<(), String> {
    let work = WorkDir::create("trace").map_err(|e| format!("work dir: {e}"))?;
    let specs = serve::distinct_specs(seed, serve::FRESH_REQUESTS);
    let lap = &specs[..serve::OVERLAP_DISTINCT];
    let (mut parse_us, mut lower_us, mut fingerprint_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut times = SweepTimes::default();
    let store = ResultCache::open(&work.store("probe")).map_err(|e| format!("open store: {e}"))?;
    for (tag, spec) in lap.iter().enumerate() {
        let line = spec.line();
        let t0 = Instant::now();
        checks.note(parse_value_document(&line).is_ok());
        parse_us.push(ms_since(t0) * 1e3);
        let t0 = Instant::now();
        let net = spec.lower();
        lower_us.push(ms_since(t0) * 1e3);
        let Ok(net) = net else {
            checks.note(false);
            continue;
        };
        let t0 = Instant::now();
        checks.note(content_fingerprint(&net).is_ok());
        fingerprint_us.push(ms_since(t0) * 1e3);
        let mut probe = SweepProbe {
            store: &store,
            tag,
            times: &mut times,
            checks,
        };
        serve::visit_sweep(spec, &net, &mut probe);
    }

    let window = sm_core::parallel::threads();
    // Serves `sends` `jobs` times, checking each job against the replay.
    let mut serve_jobs = |sends: &[serve::Outgoing], fresh: bool, jobs: usize| {
        let want = serve::reference(sends, &work.store("jobs"))?;
        let mut served = Vec::new();
        for _ in 0..jobs {
            let job = serve::run_job(sends, &work.store("jobs"), window)?;
            let c = serve::check(&job.blocks, &want, fresh);
            checks.attempted += job.blocks.len() as u64;
            checks.failed += c.failed;
            served.push((job, c));
        }
        Ok::<_, String>(served)
    };

    let fresh = serve_jobs(&serve::schedule(false, &specs), true, 1)?;
    let (fresh, _) = &fresh[0];
    let blocks = &fresh.blocks;
    let queue_ms: Vec<f64> = blocks
        .iter()
        .filter_map(serve::Block::queue_wait_ms)
        .collect();
    let first_cell_ms: Vec<f64> = blocks
        .iter()
        .filter_map(serve::Block::first_cell_ms)
        .collect();
    let bytes: Vec<f64> = blocks.iter().map(|b| b.bytes() as f64).collect();
    let request_ms: Vec<f64> = blocks.iter().filter_map(serve::Block::latency_ms).collect();

    let overlap = serve_jobs(&serve::schedule(true, lap), false, SERVE_JOBS)?;
    let hit_ratios: Vec<f64> = overlap
        .iter()
        .map(|(j, _)| j.stats.hits as f64 / (j.stats.hits + j.stats.misses).max(1) as f64)
        .collect();
    let read: Vec<f64> = overlap
        .iter()
        .map(|(j, _)| j.stats.bytes_read as f64)
        .collect();
    let overlap_s: Vec<f64> = overlap.iter().map(|(j, _)| j.wall_s).collect();
    let cells: u64 = overlap.iter().map(|(_, c)| c.cells).sum();
    let divergent: u64 = overlap.iter().map(|(_, c)| c.flag_divergent).sum();
    let hit_range = hit_ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - hit_ratios.iter().cloned().fold(f64::INFINITY, f64::min);

    metrics.extend([
        ("model.lower_us", mean(&lower_us), "us"),
        ("bench.json_parse_us", mean(&parse_us), "us"),
        ("bench.fingerprint_us", mean(&fingerprint_us), "us"),
        ("bench.sweep_nocache_ms", mean(&times.nocache_ms), "ms"),
        ("bench.sweep_cached_ms", mean(&times.cold_ms), "ms"),
        ("cas.put_us", mean(&times.put_us), "us"),
        ("cas.get_us", mean(&times.get_us), "us"),
        ("cas.hit_ratio", median(&hit_ratios), "ratio"),
        ("cas.hit_ratio_range", hit_range, "ratio"),
        ("cas.bytes_written", fresh.stats.bytes_written as f64, "B"),
        ("cas.bytes_read", median(&read), "B"),
        (
            "cas.warm_over_nocache",
            times.nocache_ms.iter().sum::<f64>() / times.warm_ms.iter().sum::<f64>(),
            "x",
        ),
        ("service.fresh_job_s", fresh.wall_s, "s"),
        ("service.request_p50_ms", percentile(&request_ms, 0.5), "ms"),
        ("service.request_p90_ms", percentile(&request_ms, 0.9), "ms"),
        ("service.overlap_job_s", median(&overlap_s), "s"),
        ("service.queue_wait_ms", median(&queue_ms), "ms"),
        ("service.first_cell_ms", median(&first_cell_ms), "ms"),
        ("service.out_bytes_per_req", mean(&bytes), "B"),
        (
            "service.cached_flag_divergence",
            divergent as f64 / cells.max(1) as f64,
            "ratio",
        ),
    ]);
    Ok(())
}
