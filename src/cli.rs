//! Command-line interface logic for the `smctl` binary.
//!
//! Parsing and command execution live here (unit-testable); `src/bin/smctl.rs`
//! is a thin `main`. No argument-parsing dependency: the grammar is four
//! subcommands with a handful of `--key value` options.
//!
//! ```text
//! smctl networks
//! smctl compare <network> [--capacity <KiB>] [--batch <n>] [--policy <name>]
//! smctl analyze <network> [--batch <n>]
//! smctl verify  <network> [--seed <n>]
//! ```

use std::fmt;

use sm_accel::AccelConfig;
use sm_bench::cas::{CacheSession, SweepCtx};
use sm_bench::report::Table;
use sm_core::functional::verify_value_preservation;
use sm_core::parallel::Cancelled;
use sm_core::{analysis, Experiment, Policy, SpillOrder};
use sm_model::stats::NetworkStats;
use sm_model::{zoo, Network};

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List available networks with their statistics.
    Networks,
    /// Baseline-vs-policy comparison on one network.
    Compare {
        /// Network name (see [`network_by_name`]).
        network: String,
        /// Feature-map SRAM capacity override in KiB.
        capacity_kib: Option<u64>,
        /// Batch size (default 1).
        batch: usize,
        /// Policy name (default `shortcut-mining`).
        policy: Policy,
        /// Emit the two `RunStats` as a JSON document instead of text.
        json: bool,
    },
    /// Reuse bounds and capacity planning for one network.
    Analyze {
        /// Network name.
        network: String,
        /// Batch size (default 1).
        batch: usize,
    },
    /// Value-preservation check (tiny networks only — golden execution).
    Verify {
        /// Network name.
        network: String,
        /// Input/weight seed (default 42).
        seed: u64,
    },
    /// Capacity sweep: traffic reduction and speedup from 64 KiB to 4 MiB.
    Sweep {
        /// Network name.
        network: String,
        /// Batch size (default 1).
        batch: usize,
    },
    /// Per-layer traffic/cycle report under both architectures.
    Layers {
        /// Network name.
        network: String,
        /// Batch size (default 1).
        batch: usize,
    },
    /// Graceful-degradation sweep under injected faults.
    Chaos {
        /// Network name, or `headline` for ResNet-34 + SqueezeNet.
        network: String,
        /// Batch size (default 1).
        batch: usize,
        /// Fault-plan seed (default 42).
        seed: u64,
        /// Per-attempt DRAM failure probability (default 0.01).
        dram_rate: f64,
        /// Retry budget override (`--retry-budget`; default: plan default).
        retry_budget: Option<u32>,
        /// Run the retry-budget sensitivity study instead of the
        /// bank-failure sweep.
        budget_sweep: bool,
        /// Run the 2-D bank-failure × DRAM-fault grid instead of the 1-D
        /// bank-failure sweep.
        grid: bool,
        /// Site-strike rates (`--site-rate <p,p,...>`) extending the grid
        /// to a 3-D bank × DRAM × site volume.
        site_rates: Option<Vec<f64>>,
        /// Run the control-path study instead: BCU mapping-table strikes
        /// under SECDED ECC across the recovery-policy ladder.
        control_path: bool,
        /// Run the scheduler-state study instead: retention-table / pin-set
        /// / spill-queue strikes across all four recovery tiers including
        /// checkpoint/rollback.
        scheduler: bool,
        /// Persistent content-addressed result cache directory
        /// (`--cache-dir`): cells already in the cache are loaded instead of
        /// re-simulated, and computed cells are written back.
        cache_dir: Option<String>,
        /// Ignore the result cache even when `--cache-dir` is given.
        no_cache: bool,
        /// Load the network from a graph JSON file (`--net-file`) instead of
        /// the zoo; replaces the network name and fixes the batch.
        net_file: Option<String>,
        /// Emit the degradation curves as a JSON document instead of text.
        json: bool,
    },
    /// Per-layer performance telemetry: cycle/stall breakdown, occupancy,
    /// and (under injected faults) per-layer DUE vulnerability.
    Report {
        /// Network name.
        network: String,
        /// Batch size (default 1).
        batch: usize,
        /// Policy name (default `shortcut-mining`).
        policy: Policy,
        /// Emit one record per layer instead of the run-level totals.
        per_layer: bool,
        /// Emit JSON instead of a text table.
        json: bool,
        /// Fault-plan seed (default 42; only used when faults are active).
        seed: u64,
        /// Per-attempt DRAM failure probability (default 0 — fault-free).
        dram_rate: f64,
        /// Site-strike rate on the weight SRAM and PE array (ECC-protected,
        /// refetch recovery), populating the per-layer DUE column.
        site_rate: Option<f64>,
        /// Load the network from a graph JSON file (`--net-file`) instead of
        /// the zoo; replaces the network name and fixes the batch.
        net_file: Option<String>,
    },
    /// Export a zoo network as a graph JSON document (`sm-graph-v1`).
    Export {
        /// Network name.
        network: String,
        /// Batch size baked into the exported input shape (default 1).
        batch: usize,
        /// Write the document here instead of printing it.
        out: Option<String>,
    },
    /// Wall-clock timing harness: parallel suite, conv kernels, plan cache.
    Bench {
        /// Output path for the JSON report (default `BENCH_parallel.json`).
        out: String,
        /// Fail unless the conv microkernel speedup over scalar `gemm_nt`
        /// reaches this floor.
        assert_conv_speedup: Option<f64>,
        /// Fail unless the parallel suite speedup reaches this floor
        /// (skipped automatically on a single-core host).
        assert_suite_speedup: Option<f64>,
        /// Fail unless the parallel suite output is byte-identical to the
        /// serial run.
        assert_suite_identical: bool,
        /// Fail unless the warm result-cache sweep speedup over the cold
        /// run reaches this floor (also enforces warm/cold byte-identity).
        assert_warm_speedup: Option<f64>,
    },
    /// Resident sweep service: newline-delimited JSON requests on stdin,
    /// streamed JSON events on stdout, one shared result cache.
    Serve {
        /// Result-cache directory shared by every request (default: a
        /// `smctl-cache` directory under the system temp dir).
        cache_dir: Option<String>,
        /// Maximum concurrently executing requests (`--max-inflight`;
        /// default: the worker-thread count).
        max_inflight: Option<usize>,
        /// Deadline applied to requests without their own `deadline_ms`
        /// field (`--default-deadline-ms`).
        default_deadline_ms: Option<u64>,
        /// Bound on on-disk cache size in bytes (`--cache-max-bytes`);
        /// least-recently-used entries are evicted past the bound.
        cache_max_bytes: Option<u64>,
        /// Uniform injected I/O fault rate for the store
        /// (`--io-fault-rate`, testing/soak only).
        io_fault_rate: Option<f64>,
        /// Seed for the injected-fault plan (`--io-fault-seed`,
        /// default 42).
        io_fault_seed: u64,
        /// Pin `ms` fields to 0 so outputs compare bytewise
        /// (`--deterministic`).
        deterministic: bool,
    },
}

/// CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
smctl — Shortcut Mining simulator CLI

USAGE:
  smctl networks
  smctl compare <network> [--capacity <KiB>] [--batch <n>] [--policy <name>] [--json]
  smctl analyze <network> [--batch <n>]
  smctl verify  <network> [--seed <n>]
  smctl sweep   <network> [--batch <n>]
  smctl layers  <network> [--batch <n>]
  smctl chaos   [<network>|headline] [--net-file <path>] [--batch <n>]
                [--seed <n>] [--dram-rate <p>]
                [--retry-budget <n>] [--budget-sweep] [--grid]
                [--site-rate <p,p,...>] [--control-path] [--scheduler]
                [--cache-dir <path>] [--no-cache] [--json]
                (network defaults to `headline` = ResNet-34 + SqueezeNet)
  smctl report  [<network>] [--net-file <path>] [--batch <n>] [--policy <name>]
                [--per-layer] [--seed <n>] [--dram-rate <p>] [--site-rate <p>]
                [--json]
  smctl export  <network> [--batch <n>] [--out <path>]
                (emit the network as a graph JSON document; such documents —
                including hand-written DAGs the zoo cannot express — feed
                back in through --net-file)
  smctl bench   [--out <path>] [--assert-conv-speedup <x>]
                [--assert-suite-speedup <x>] [--assert-suite-identical]
                [--assert-warm-speedup <x>]
  smctl serve   [--cache-dir <path>] [--max-inflight <n>]
                [--default-deadline-ms <ms>] [--cache-max-bytes <n>]
                [--io-fault-rate <p>] [--io-fault-seed <n>] [--deterministic]
                (newline-delimited JSON sweep requests on stdin, streamed
                JSON events on stdout; see sm_bench::service docs)

Every command also accepts --threads <n> (worker count for parallel
sweeps; SM_THREADS environment variable is the fallback, default = all
cores). Output is byte-identical at any thread count.

POLICIES:
  baseline | reuse-disabled | swap-only | mining-only | shortcut-mining
  shortcut-mining-copy-swap | shortcut-mining-nearest-spill

NETWORKS:
  run `smctl networks` for the list (resnet18/34/50/101/152, plain18/34,
  squeezenet_v10[_simple_bypass|_complex_bypass], squeezenet_v11, vgg16,
  alexnet, googlenet, densenet121/169, mobilenet_v1/v2, toy_residual,
  resnet_tiny20, squeezenet_tiny, densenet_tiny4, mobilenet_tiny)";

/// Resolves a network by CLI name (thin wrapper over [`zoo::try_by_name`],
/// the shared registry).
pub fn network_by_name(name: &str, batch: usize) -> Option<Network> {
    zoo::try_by_name(name, batch).ok()
}

/// Loads a network from a graph JSON file (`sm-graph-v1`; see
/// [`sm_model::graph`]). Shortcut structure — adds, concats, arbitrary skip
/// distances — is detected from the lowered schedule, so an ingested network
/// behaves exactly like a zoo one downstream.
pub fn load_net_file(path: &str) -> Result<Network, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read network graph {path}: {e}")))?;
    sm_model::graph::load(&text)
        .map_err(|e| CliError(format!("cannot load network graph {path}: {e}")))
}

/// Resolves a policy by CLI name.
pub fn policy_by_name(name: &str) -> Option<Policy> {
    Some(match name {
        "baseline" => Policy::baseline(),
        "reuse-disabled" => Policy::reuse_disabled(),
        "swap-only" => Policy::swap_only(),
        "mining-only" => Policy::mining_only(),
        "shortcut-mining" => Policy::shortcut_mining(),
        "shortcut-mining-copy-swap" => Policy::shortcut_mining().with_swap_by_copy(),
        "shortcut-mining-nearest-spill" => {
            Policy::shortcut_mining().with_spill_order(SpillOrder::NearestJunctionFirst)
        }
        _ => return None,
    })
}

fn take_value<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<&'a str, CliError> {
    args.next()
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a user-facing [`CliError`] on unknown commands, flags, networks
/// or malformed numbers.
pub fn parse<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Command, CliError> {
    let mut it = args.into_iter();
    let cmd = it.next().ok_or_else(|| CliError(USAGE.to_string()))?;
    match cmd {
        "networks" => Ok(Command::Networks),
        "serve" => {
            let mut cache_dir = None;
            let mut max_inflight = None;
            let mut default_deadline_ms = None;
            let mut cache_max_bytes = None;
            let mut io_fault_rate = None;
            let mut io_fault_seed = 42;
            let mut deterministic = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--cache-dir" => cache_dir = Some(take_value(&mut it, flag)?.to_string()),
                    "--deterministic" => deterministic = true,
                    "--max-inflight" => {
                        let v = take_value(&mut it, flag)?;
                        max_inflight =
                            Some(v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                                CliError(format!(
                                    "invalid max inflight {v:?} (positive integer expected)"
                                ))
                            })?);
                    }
                    "--default-deadline-ms" => {
                        let v = take_value(&mut it, flag)?;
                        default_deadline_ms = Some(v.parse::<u64>().map_err(|_| {
                            CliError(format!("invalid deadline {v:?} (milliseconds expected)"))
                        })?);
                    }
                    "--cache-max-bytes" => {
                        let v = take_value(&mut it, flag)?;
                        cache_max_bytes =
                            Some(v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                                CliError(format!(
                                    "invalid cache bound {v:?} (positive byte count expected)"
                                ))
                            })?);
                    }
                    "--io-fault-rate" => {
                        let v = take_value(&mut it, flag)?;
                        io_fault_rate = Some(
                            v.parse::<f64>()
                                .ok()
                                .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
                                .ok_or_else(|| {
                                    CliError(format!(
                                        "invalid fault rate {v:?} (probability in [0, 1] expected)"
                                    ))
                                })?,
                        );
                    }
                    "--io-fault-seed" => {
                        let v = take_value(&mut it, flag)?;
                        io_fault_seed = v.parse::<u64>().map_err(|_| {
                            CliError(format!("invalid fault seed {v:?} (integer expected)"))
                        })?;
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Serve {
                cache_dir,
                max_inflight,
                default_deadline_ms,
                cache_max_bytes,
                io_fault_rate,
                io_fault_seed,
                deterministic,
            })
        }
        "bench" => {
            let mut out = "BENCH_parallel.json".to_string();
            let mut assert_conv_speedup = None;
            let mut assert_suite_speedup = None;
            let mut assert_suite_identical = false;
            let mut assert_warm_speedup = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--out" => out = take_value(&mut it, flag)?.to_string(),
                    "--assert-suite-identical" => assert_suite_identical = true,
                    "--assert-conv-speedup"
                    | "--assert-suite-speedup"
                    | "--assert-warm-speedup" => {
                        let v = take_value(&mut it, flag)?;
                        let floor = v
                            .parse::<f64>()
                            .ok()
                            .filter(|f| f.is_finite() && *f > 0.0)
                            .ok_or_else(|| {
                                CliError(format!(
                                    "invalid speedup floor {v:?} (positive number expected)"
                                ))
                            })?;
                        match flag {
                            "--assert-conv-speedup" => assert_conv_speedup = Some(floor),
                            "--assert-suite-speedup" => assert_suite_speedup = Some(floor),
                            _ => assert_warm_speedup = Some(floor),
                        }
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            Ok(Command::Bench {
                out,
                assert_conv_speedup,
                assert_suite_speedup,
                assert_suite_identical,
                assert_warm_speedup,
            })
        }
        "export" => {
            let network = it
                .next()
                .ok_or_else(|| CliError("export requires a network name".to_string()))?;
            let mut batch = 1usize;
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--out" => out = Some(take_value(&mut it, flag)?.to_string()),
                    "--batch" => {
                        let v = take_value(&mut it, flag)?;
                        batch = v
                            .parse()
                            .ok()
                            .filter(|&b: &usize| b > 0)
                            .ok_or_else(|| CliError(format!("invalid batch {v:?}")))?;
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            if network_by_name(network, 1).is_none() {
                return Err(CliError(format!(
                    "unknown network {network:?} — run `smctl networks`"
                )));
            }
            Ok(Command::Export {
                network: network.to_string(),
                batch,
                out,
            })
        }
        "compare" | "analyze" | "verify" | "sweep" | "layers" | "chaos" | "report" => {
            // `chaos` may omit the network (or lead with a flag): it
            // defaults to the headline pair. `report` may lead with a flag
            // too, for the `--net-file` form.
            let first = match it.next() {
                Some(arg) => arg,
                None if cmd == "chaos" => "headline",
                None => return Err(CliError(format!("{cmd} requires a network name"))),
            };
            let (network, pending_flag) = if first.starts_with("--") && cmd == "chaos" {
                ("headline".to_string(), Some(first))
            } else if first.starts_with("--") && cmd == "report" {
                (String::new(), Some(first))
            } else {
                (first.to_string(), None)
            };
            let mut it = pending_flag.into_iter().chain(it);
            let mut capacity_kib = None;
            let mut batch = 1usize;
            let mut policy = Policy::shortcut_mining();
            let mut seed = 42u64;
            let mut json = false;
            let mut dram_rate = 0.01f64;
            let mut retry_budget = None;
            let mut budget_sweep = false;
            let mut grid = false;
            let mut site_rates = None;
            let mut control_path = false;
            let mut scheduler = false;
            let mut per_layer = false;
            let mut dram_rate_given = false;
            let mut cache_dir = None;
            let mut no_cache = false;
            let mut net_file = None;
            let mut batch_given = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--json" => json = true,
                    "--per-layer" => per_layer = true,
                    "--no-cache" => no_cache = true,
                    "--cache-dir" => cache_dir = Some(take_value(&mut it, flag)?.to_string()),
                    "--net-file" => net_file = Some(take_value(&mut it, flag)?.to_string()),
                    "--budget-sweep" => budget_sweep = true,
                    "--grid" => grid = true,
                    "--control-path" => control_path = true,
                    "--scheduler" => scheduler = true,
                    "--site-rate" => {
                        let v = take_value(&mut it, flag)?;
                        let rates = v
                            .split(',')
                            .map(|s| {
                                s.trim()
                                    .parse::<f64>()
                                    .ok()
                                    .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
                                    .ok_or_else(|| {
                                        CliError(format!(
                                            "invalid site rate {s:?} (probability in [0, 1] \
                                             expected)"
                                        ))
                                    })
                            })
                            .collect::<Result<Vec<f64>, CliError>>()?;
                        site_rates = Some(rates);
                    }
                    "--retry-budget" => {
                        let v = take_value(&mut it, flag)?;
                        retry_budget = Some(v.parse().map_err(|_| {
                            CliError(format!("invalid retry budget {v:?} (integer expected)"))
                        })?);
                    }
                    "--capacity" => {
                        let v = take_value(&mut it, flag)?;
                        capacity_kib = Some(v.parse().map_err(|_| {
                            CliError(format!("invalid capacity {v:?} (KiB expected)"))
                        })?);
                    }
                    "--batch" => {
                        let v = take_value(&mut it, flag)?;
                        batch = v
                            .parse()
                            .ok()
                            .filter(|&b: &usize| b > 0)
                            .ok_or_else(|| CliError(format!("invalid batch {v:?}")))?;
                        batch_given = true;
                    }
                    "--policy" => {
                        let v = take_value(&mut it, flag)?;
                        policy = policy_by_name(v)
                            .ok_or_else(|| CliError(format!("unknown policy {v:?}")))?;
                    }
                    "--seed" => {
                        let v = take_value(&mut it, flag)?;
                        seed = v
                            .parse()
                            .map_err(|_| CliError(format!("invalid seed {v:?}")))?;
                    }
                    "--dram-rate" => {
                        let v = take_value(&mut it, flag)?;
                        dram_rate = v.parse().map_err(|_| {
                            CliError(format!("invalid dram rate {v:?} (probability expected)"))
                        })?;
                        dram_rate_given = true;
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
            }
            let headline = cmd == "chaos" && network == "headline";
            if net_file.is_some() {
                if !matches!(cmd, "chaos" | "report") {
                    return Err(CliError(
                        "--net-file is only supported by `report` and `chaos`".into(),
                    ));
                }
                if batch_given {
                    return Err(CliError(
                        "--batch cannot be combined with --net-file (the batch is \
                         part of the graph's input shape)"
                            .into(),
                    ));
                }
                if !network.is_empty() && !headline {
                    return Err(CliError(
                        "--net-file replaces the network name; drop one of the two".into(),
                    ));
                }
            } else if network.is_empty() {
                return Err(CliError(format!("{cmd} requires a network name")));
            } else if !headline && network_by_name(&network, 1).is_none() {
                return Err(CliError(format!(
                    "unknown network {network:?} — run `smctl networks`"
                )));
            }
            if cmd == "chaos" && site_rates.is_some() && !grid {
                return Err(CliError("--site-rate requires --grid".into()));
            }
            Ok(match cmd {
                "report" => {
                    let site_rate = match site_rates.as_deref() {
                        None => None,
                        Some([s]) => Some(*s),
                        Some(_) => {
                            return Err(CliError("report takes a single --site-rate value".into()))
                        }
                    };
                    Command::Report {
                        network,
                        batch,
                        policy,
                        per_layer,
                        json,
                        seed,
                        // Reports are fault-free unless a rate is requested
                        // (the chaos default of 0.01 does not apply here).
                        dram_rate: if dram_rate_given { dram_rate } else { 0.0 },
                        site_rate,
                        net_file,
                    }
                }
                "compare" => Command::Compare {
                    network,
                    capacity_kib,
                    batch,
                    policy,
                    json,
                },
                "analyze" => Command::Analyze { network, batch },
                "sweep" => Command::Sweep { network, batch },
                "layers" => Command::Layers { network, batch },
                "chaos" => Command::Chaos {
                    network,
                    batch,
                    seed,
                    dram_rate,
                    retry_budget,
                    budget_sweep,
                    grid,
                    site_rates,
                    control_path,
                    scheduler,
                    cache_dir,
                    no_cache,
                    net_file,
                    json,
                },
                _ => Command::Verify { network, seed },
            })
        }
        other => Err(CliError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

/// Executes a command, returning the report text.
///
/// # Errors
///
/// Returns a [`CliError`] when a verification fails or a network cannot be
/// built at the requested batch.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    match cmd {
        Command::Networks => {
            let _ = writeln!(
                out,
                "{:30} {:>7} {:>9} {:>10} {:>15}",
                "network", "layers", "GMACs", "params(M)", "shortcut share"
            );
            for net in zoo::extended_networks(1) {
                let s = NetworkStats::of(&net);
                let _ = writeln!(
                    out,
                    "{:30} {:>7} {:>9.2} {:>10.1} {:>14.1}%",
                    net.name(),
                    s.layer_count,
                    s.macs as f64 / 1e9,
                    s.weight_elems as f64 / 1e6,
                    100.0 * s.shortcut_share()
                );
            }
        }
        Command::Compare {
            network,
            capacity_kib,
            batch,
            policy,
            json,
        } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let mut cfg = AccelConfig::default();
            if let Some(kib) = capacity_kib {
                cfg = cfg.with_fm_capacity(kib * 1024);
            }
            let exp = Experiment::new(cfg);
            let base = exp.run(&net, Policy::baseline());
            let run = exp.run(&net, *policy);
            if *json {
                let doc = (&base, &run);
                let body = sm_bench::json::to_json(&doc).map_err(|e| CliError(e.to_string()))?;
                let _ = writeln!(out, "{body}");
                return Ok(out);
            }
            let _ = writeln!(
                out,
                "{} batch {} | fm SRAM {} KiB",
                net.name(),
                batch,
                cfg.sram.fm_bytes() / 1024
            );
            for s in [&base, &run] {
                let _ = writeln!(
                    out,
                    "{:28} fm {:9.2} MiB  total {:9.2} MiB  {:7.1} GOP/s  {:7.1} img/s",
                    s.architecture,
                    s.fm_traffic_bytes() as f64 / (1 << 20) as f64,
                    s.total_traffic_bytes() as f64 / (1 << 20) as f64,
                    s.throughput_gops(),
                    s.images_per_second()
                );
            }
            let _ = writeln!(
                out,
                "reduction {:.1}%  speedup {:.2}x",
                100.0 * (1.0 - run.fm_traffic_ratio(&base)),
                run.speedup_over(&base)
            );
        }
        Command::Analyze { network, batch } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let cfg = AccelConfig::default();
            let bounds = analysis::ReuseBounds::of(&net, cfg, Policy::shortcut_mining())
                .map_err(|e| CliError(format!("analysis failed: {e}")))?;
            let cap95 = analysis::capacity_for_fraction(&net, cfg, Policy::shortcut_mining(), 0.95)
                .map_err(|e| CliError(format!("analysis failed: {e}")))?;
            let _ = writeln!(out, "{} batch {batch}", net.name());
            let _ = writeln!(
                out,
                "peak live set:        {} KiB",
                bounds.peak_live_bytes / 1024
            );
            let _ = writeln!(
                out,
                "ideal reduction:      {:.1}%",
                100.0 * bounds.ideal_reduction
            );
            let _ = writeln!(
                out,
                "configured reduction: {:.1}% at {} KiB",
                100.0 * bounds.configured_reduction,
                cfg.sram.fm_bytes() / 1024
            );
            match cap95 {
                Some(c) => {
                    let _ = writeln!(out, "capacity for 95% of ideal: {} KiB", c / 1024);
                }
                None => {
                    let _ = writeln!(out, "capacity for 95% of ideal: unreachable");
                }
            }
        }
        Command::Sweep { network, batch } => {
            let _ = writeln!(
                out,
                "{:>10}  {:>10}  {:>8}  {:>12}",
                "KiB", "reduction", "speedup", "fm MiB mined"
            );
            for kib in [64u64, 128, 256, 320, 512, 1024, 2048, 4096] {
                let net = network_by_name(network, *batch)
                    .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
                let exp = Experiment::new(AccelConfig::default().with_fm_capacity(kib * 1024));
                let base = exp.run(&net, Policy::baseline());
                let mined = exp.run(&net, Policy::shortcut_mining());
                let _ = writeln!(
                    out,
                    "{:>10}  {:>9.1}%  {:>7.2}x  {:>12.2}",
                    kib,
                    100.0 * (1.0 - mined.fm_traffic_ratio(&base)),
                    mined.speedup_over(&base),
                    mined.fm_traffic_bytes() as f64 / (1 << 20) as f64
                );
            }
        }
        Command::Layers { network, batch } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let exp = Experiment::new(AccelConfig::default());
            let base = exp.run(&net, Policy::baseline());
            let mined = exp.run(&net, Policy::shortcut_mining());
            let _ = writeln!(
                out,
                "{:24} {:>7} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6}",
                "layer",
                "kind",
                "base KiB",
                "base kcyc",
                "bound",
                "mined KiB",
                "mined kcyc",
                "bound"
            );
            let bound_tag = |c: &sm_accel::cycles::LayerCycles| match c.bound_by() {
                sm_accel::cycles::Bound::Compute => "comp",
                sm_accel::cycles::Bound::FeatureMapTraffic => "fm",
                sm_accel::cycles::Bound::WeightTraffic => "wgt",
            };
            for (b, m) in base.layers.iter().zip(&mined.layers) {
                let _ = writeln!(
                    out,
                    "{:24} {:>7} | {:>10.1} {:>10.1} {:>6} | {:>10.1} {:>10.1} {:>6}",
                    b.name,
                    b.kind,
                    b.traffic.feature_map() as f64 / 1024.0,
                    b.cycles.total as f64 / 1e3,
                    bound_tag(&b.cycles),
                    m.traffic.feature_map() as f64 / 1024.0,
                    m.cycles.total as f64 / 1e3,
                    bound_tag(&m.cycles),
                );
            }
        }
        Command::Chaos {
            network,
            batch,
            seed,
            dram_rate,
            retry_budget,
            budget_sweep,
            grid,
            site_rates,
            control_path,
            scheduler,
            cache_dir,
            no_cache,
            net_file,
            json,
        } => {
            use sm_bench::experiments::{
                self as ex, CONTROL_PATH_POLICIES, DEFAULT_CONTROL_PATH_RATES, DEFAULT_FRACTIONS,
                DEFAULT_GRID_FRACTIONS, DEFAULT_GRID_RATES, DEFAULT_RETRY_BUDGETS,
                DEFAULT_SCHEDULER_RATES, SCHEDULER_POLICIES,
            };
            let nets: Vec<Network> = if let Some(path) = net_file {
                vec![load_net_file(path)?]
            } else if network == "headline" {
                vec![
                    zoo::resnet34(*batch),
                    zoo::squeezenet_v10_simple_bypass(*batch),
                ]
            } else {
                vec![network_by_name(network, *batch)
                    .ok_or_else(|| CliError(format!("unknown network {network:?}")))?]
            };
            // The result cache only engages when a directory is named, so
            // plain runs stay free of filesystem side effects.
            let store = match (cache_dir, *no_cache) {
                (Some(dir), false) => Some(
                    sm_bench::cas::ResultCache::open(std::path::Path::new(dir))
                        .map_err(|e| CliError(format!("cannot open cache at {dir}: {e}")))?,
                ),
                _ => None,
            };
            let session = store.as_ref().map(|s| s.session());
            let cache = session.as_ref();
            let report = ChaosReport {
                nets: &nets,
                cache,
                json: *json,
            };
            let (cfg, seed, budget) = (AccelConfig::default(), *seed, *retry_budget);
            macro_rules! ctx {
                () => {
                    SweepCtx {
                        cache,
                        ..SweepCtx::default()
                    }
                };
            }
            let body = if *scheduler {
                let (policies, rates) = (&SCHEDULER_POLICIES, &DEFAULT_SCHEDULER_RATES);
                report.render(
                    |net| ex::scheduler(net, cfg, seed, policies, rates, budget, ctx!()),
                    |s| vec![s.table()],
                )
            } else if *control_path {
                let (policies, rates) = (&CONTROL_PATH_POLICIES, &DEFAULT_CONTROL_PATH_RATES);
                report.render(
                    |net| ex::control_path(net, cfg, seed, policies, rates, budget, ctx!()),
                    |s| vec![s.table()],
                )
            } else if let (true, Some(sites)) = (*grid, site_rates.as_deref()) {
                let (fractions, rates) = (&DEFAULT_GRID_FRACTIONS, &DEFAULT_GRID_RATES);
                report.render(
                    |net| ex::chaos_grid3(net, cfg, seed, fractions, rates, sites, budget, ctx!()),
                    |g| g.tables(),
                )
            } else if *grid {
                let (fractions, rates) = (&DEFAULT_GRID_FRACTIONS, &DEFAULT_GRID_RATES);
                report.render(
                    |net| ex::chaos_grid(net, cfg, seed, fractions, rates, budget, ctx!()),
                    |g| vec![g.table()],
                )
            } else if *budget_sweep {
                let budgets = &DEFAULT_RETRY_BUDGETS;
                report.render(
                    |net| ex::retry_budget(net, cfg, seed, *dram_rate, budgets, ctx!()),
                    |s| vec![s.table()],
                )
            } else {
                let fractions = &DEFAULT_FRACTIONS;
                report.render(
                    |net| ex::chaos_curve(net, cfg, seed, fractions, *dram_rate, budget, ctx!()),
                    |c| vec![c.table()],
                )
            };
            out.push_str(&body?);
        }
        Command::Report {
            network,
            batch,
            policy,
            per_layer,
            json,
            seed,
            dram_rate,
            site_rate,
            net_file,
        } => {
            use sm_core::{FaultPlan, Protection, RecoveryPolicy, SimOptions};
            let net = match net_file {
                Some(path) => load_net_file(path)?,
                None => network_by_name(network, *batch)
                    .ok_or_else(|| CliError(format!("unknown network {network:?}")))?,
            };
            let exp = Experiment::new(AccelConfig::default());
            let faults_active = *dram_rate > 0.0 || site_rate.is_some();
            let stats = if faults_active {
                if !policy.logical_buffers {
                    return Err(CliError(
                        "fault-attributed reports need a logical-buffer policy \
                         (the baseline accelerator has no fault model)"
                            .into(),
                    ));
                }
                let mut plan = FaultPlan::new(*seed).with_dram_faults(*dram_rate);
                if let Some(s) = site_rate {
                    // ECC with a visible DUE mass and refetch recovery: the
                    // configuration that makes the per-layer DUE column
                    // meaningful without aborting the run.
                    plan = plan
                        .with_weight_faults(*s, Protection::Ecc)
                        .with_pe_faults(*s, Protection::Ecc)
                        .with_multi_bit(0.2, 0.05)
                        .with_recovery(RecoveryPolicy::RefetchTile);
                }
                exp.run_checked(&net, *policy, &SimOptions::with_faults(plan))
                    .map_err(|e| CliError(format!("report run failed: {e}")))?
                    .stats
            } else {
                exp.run(&net, *policy)
            };
            if *json {
                let body = if *per_layer {
                    sm_bench::json::to_json(&stats.layers).map_err(|e| CliError(e.to_string()))?
                } else {
                    sm_bench::json::to_json(&stats).map_err(|e| CliError(e.to_string()))?
                };
                let _ = writeln!(out, "{body}");
                return Ok(out);
            }
            let _ = writeln!(
                out,
                "{} batch {} | {} | total {:.2} Mcycles",
                stats.network,
                stats.batch,
                stats.architecture,
                stats.total_cycles as f64 / 1e6
            );
            if *per_layer {
                let _ = writeln!(
                    out,
                    "{:24} {:>7} | {:>10} {:>10} {:>9} {:>9} {:>5} {:>6}",
                    "layer",
                    "kind",
                    "comp kcyc",
                    "dram kcyc",
                    "rtry kcyc",
                    "bank kcyc",
                    "DUEs",
                    "occ%"
                );
                for l in &stats.layers {
                    let p = &l.perf;
                    let _ = writeln!(
                        out,
                        "{:24} {:>7} | {:>10.1} {:>10.1} {:>9.1} {:>9.1} {:>5} {:>5.1}%",
                        l.name,
                        l.kind,
                        p.compute_cycles as f64 / 1e3,
                        p.dram_stall_cycles as f64 / 1e3,
                        p.retry_stall_cycles as f64 / 1e3,
                        p.bank_conflict_stall_cycles as f64 / 1e3,
                        p.due_events,
                        100.0 * p.occupancy,
                    );
                }
            }
            let (mut comp, mut dram, mut rtry, mut bank, mut dues) = (0u64, 0u64, 0u64, 0u64, 0u64);
            for l in &stats.layers {
                comp += l.perf.compute_cycles;
                dram += l.perf.dram_stall_cycles;
                rtry += l.perf.retry_stall_cycles;
                bank += l.perf.bank_conflict_stall_cycles;
                dues += l.perf.due_events;
            }
            let _ = writeln!(
                out,
                "totals: compute {:.2} Mcyc | dram stall {:.2} Mcyc | retry stall {:.2} Mcyc \
                 | bank-conflict {:.2} Mcyc | DUEs {} | occupancy {:.1}%",
                comp as f64 / 1e6,
                dram as f64 / 1e6,
                rtry as f64 / 1e6,
                bank as f64 / 1e6,
                dues,
                100.0 * comp as f64 / stats.total_cycles.max(1) as f64,
            );
        }
        Command::Export {
            network,
            batch,
            out: path,
        } => {
            let net = network_by_name(network, *batch)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            let body = sm_model::graph::export_json(&net);
            match path {
                Some(p) => {
                    std::fs::write(p, body.as_bytes())
                        .map_err(|e| CliError(format!("cannot write {p}: {e}")))?;
                    let report = sm_model::graph::ShortcutReport::of(&net);
                    let _ = writeln!(
                        out,
                        "{}: graph written to {p} ({} layers, {} add / {} concat \
                         junctions, max skip {})",
                        net.name(),
                        net.layers().len() - 1,
                        report.adds(),
                        report.concats(),
                        report.max_skip(),
                    );
                }
                // Bare export prints the document itself so it can be piped.
                None => {
                    let _ = writeln!(out, "{body}");
                }
            }
        }
        Command::Bench {
            out: path,
            assert_conv_speedup,
            assert_suite_speedup,
            assert_suite_identical,
            assert_warm_speedup,
        } => {
            let threads = sm_core::parallel::threads().max(2);
            let report = sm_bench::timing::run_bench(threads);
            let body = sm_bench::json::to_json(&report).map_err(|e| CliError(e.to_string()))?;
            std::fs::write(path, body.as_bytes())
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            let _ = write!(out, "{}", report.summary());
            let _ = writeln!(out, "report written to {path}");
            report
                .assert_floors(
                    *assert_conv_speedup,
                    *assert_suite_speedup,
                    *assert_warm_speedup,
                    *assert_suite_identical,
                )
                .map_err(CliError)?;
            if assert_conv_speedup.is_some()
                || assert_suite_speedup.is_some()
                || assert_warm_speedup.is_some()
                || *assert_suite_identical
            {
                let _ = writeln!(out, "all asserted floors hold");
            }
        }
        Command::Serve {
            cache_dir,
            max_inflight,
            default_deadline_ms,
            cache_max_bytes,
            io_fault_rate,
            io_fault_seed,
            deterministic,
        } => {
            let dir = cache_dir
                .clone()
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| std::env::temp_dir().join("smctl-cache"));
            let store_options = sm_bench::cas::StoreOptions {
                max_bytes: *cache_max_bytes,
                faults: io_fault_rate
                    .map(|rate| sm_bench::iofault::IoFaultPlan::uniform(*io_fault_seed, rate)),
            };
            let store = sm_bench::cas::ResultCache::open_with(&dir, store_options)
                .map_err(|e| CliError(format!("cannot open cache at {}: {e}", dir.display())))?;
            let serve_options = sm_bench::service::ServeOptions {
                max_inflight: max_inflight.unwrap_or(0), // 0 = worker-thread count
                default_deadline_ms: *default_deadline_ms,
                deterministic_timing: *deterministic,
            };
            // Events stream straight to stdout as cells complete; the
            // returned report stays empty. The unlocked stdout handle is
            // Send, which the emitter thread requires.
            let stdin = std::io::stdin();
            sm_bench::service::run_serve(stdin.lock(), std::io::stdout(), &store, &serve_options)
                .map_err(|e| CliError(format!("serve failed: {e}")))?;
        }
        Command::Verify { network, seed } => {
            let net = network_by_name(network, 1)
                .ok_or_else(|| CliError(format!("unknown network {network:?}")))?;
            verify_value_preservation(
                &net,
                AccelConfig::default(),
                Policy::shortcut_mining(),
                *seed,
            )
            .map_err(|e| CliError(format!("value preservation FAILED: {e}")))?;
            let _ = writeln!(
                out,
                "{}: value preservation OK (seed {seed}) — outputs bit-identical to the golden model",
                net.name()
            );
        }
    }
    Ok(out)
}

/// One `smctl chaos` run over its networks: the shared tail of every chaos
/// mode.
struct ChaosReport<'a> {
    nets: &'a [Network],
    cache: Option<&'a CacheSession<'a>>,
    json: bool,
}

impl ChaosReport<'_> {
    /// Runs `sweep` on every network and renders the results: one JSON
    /// array, or each result's `tables` followed by the cache-stats line.
    /// The stats line goes to text output only: JSON output must stay
    /// byte-identical between cold and warm runs.
    fn render<S: serde::Serialize>(
        &self,
        sweep: impl Fn(&Network) -> Result<S, Cancelled>,
        tables: impl Fn(&S) -> Vec<Table>,
    ) -> Result<String, CliError> {
        use std::fmt::Write as _;
        let results = self
            .nets
            .iter()
            .map(sweep)
            .collect::<Result<Vec<S>, Cancelled>>()
            .map_err(|e| CliError(e.to_string()))?;
        if self.json {
            let body = sm_bench::json::to_json(&results).map_err(|e| CliError(e.to_string()))?;
            return Ok(format!("{body}\n"));
        }
        let mut out = String::new();
        for table in results.iter().flat_map(tables) {
            let _ = writeln!(out, "{}", table.render());
        }
        if let Some(st) = self.cache.map(CacheSession::stats) {
            let _ = writeln!(
                out,
                "result cache: {} hits, {} misses, {} evictions, {} B read, {} B written",
                st.hits, st.misses, st.evictions, st.bytes_read, st.bytes_written
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_compare_with_flags() {
        let cmd = parse([
            "compare",
            "resnet34",
            "--capacity",
            "512",
            "--batch",
            "2",
            "--policy",
            "swap-only",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Compare {
                network: "resnet34".into(),
                capacity_kib: Some(512),
                batch: 2,
                policy: Policy::swap_only(),
                json: false,
            }
        );
    }

    #[test]
    fn rejects_unknown_things() {
        assert!(parse(["frobnicate"]).is_err());
        assert!(parse(["compare"]).is_err());
        assert!(parse(["compare", "notanet"]).is_err());
        assert!(parse(["compare", "resnet34", "--policy", "nope"]).is_err());
        assert!(parse(["compare", "resnet34", "--capacity", "abc"]).is_err());
        assert!(parse(["compare", "resnet34", "--capacity"]).is_err());
        assert!(parse(["compare", "resnet34", "--wat", "1"]).is_err());
        assert!(parse([]).is_err());
    }

    #[test]
    fn networks_command_lists_the_zoo() {
        let out = execute(&Command::Networks).unwrap();
        for name in ["resnet152", "densenet121", "googlenet", "vgg16"] {
            assert!(out.contains(name), "{name} missing");
        }
    }

    #[test]
    fn compare_runs_end_to_end() {
        let out = execute(&parse(["compare", "toy_residual"]).unwrap()).unwrap();
        assert!(out.contains("baseline"));
        assert!(out.contains("shortcut-mining"));
        assert!(out.contains("reduction"));
    }

    #[test]
    fn analyze_reports_bounds() {
        let out = execute(&parse(["analyze", "resnet_tiny20"]).unwrap()).unwrap();
        assert!(out.contains("peak live set"));
        assert!(out.contains("ideal reduction"));
    }

    #[test]
    fn verify_accepts_tiny_rejects_unknown() {
        let ok = execute(&parse(["verify", "squeezenet_tiny"]).unwrap()).unwrap();
        assert!(ok.contains("value preservation OK"));
        let err = parse(["verify", "no_such_net"]).unwrap_err();
        assert!(err.0.contains("unknown network"));
    }

    #[test]
    fn sweep_runs_and_is_monotone() {
        let out = execute(&parse(["sweep", "resnet_tiny20"]).unwrap()).unwrap();
        assert!(out.contains("4096"));
        assert!(out.lines().count() >= 9);
    }

    #[test]
    fn layers_report_covers_every_layer() {
        let out = execute(&parse(["layers", "toy_residual"]).unwrap()).unwrap();
        assert!(out.contains("c1"));
        assert!(out.contains("add"));
        // Header + 5 layers.
        assert!(out.lines().count() >= 6);
    }

    #[test]
    fn chaos_parses_and_runs_on_a_tiny_network() {
        let cmd = parse([
            "chaos",
            "toy_residual",
            "--seed",
            "7",
            "--dram-rate",
            "0.05",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                network: "toy_residual".into(),
                batch: 1,
                seed: 7,
                dram_rate: 0.05,
                retry_budget: None,
                budget_sweep: false,
                grid: false,
                site_rates: None,
                control_path: false,
                scheduler: false,
                cache_dir: None,
                no_cache: false,
                net_file: None,
                json: false,
            }
        );
        let out = execute(&cmd).unwrap();
        assert!(out.contains("chaos degradation"));
        assert!(out.contains("ok"));
    }

    #[test]
    fn chaos_headline_emits_json_for_both_networks() {
        let out = execute(&parse(["chaos", "headline", "--json"]).unwrap()).unwrap();
        assert!(out.trim_start().starts_with('['));
        assert!(out.contains(r#""network":"resnet34""#));
        assert!(out.contains(r#""network":"squeezenet_v10_simple_bypass""#));
        assert!(out.contains(r#""fail_fraction":"#));
        assert!(out.contains(r#""throughput_gops":"#));
        // `headline` is chaos-only.
        assert!(parse(["compare", "headline"]).is_err());
    }

    #[test]
    fn chaos_budget_flags_parse_and_sweep_runs() {
        let cmd = parse([
            "chaos",
            "toy_residual",
            "--retry-budget",
            "5",
            "--budget-sweep",
            "--dram-rate",
            "0.2",
        ])
        .unwrap();
        match &cmd {
            Command::Chaos {
                retry_budget,
                budget_sweep,
                ..
            } => {
                assert_eq!(*retry_budget, Some(5));
                assert!(budget_sweep);
            }
            other => panic!("parsed {other:?}"),
        }
        let out = execute(&cmd).unwrap();
        assert!(out.contains("retry-budget sensitivity"));
        assert!(parse(["chaos", "toy_residual", "--retry-budget", "x"]).is_err());
    }

    #[test]
    fn chaos_grid_parses_runs_and_emits_json() {
        let cmd = parse(["chaos", "toy_residual", "--grid", "--dram-rate", "0.2"]).unwrap();
        match &cmd {
            Command::Chaos { grid, .. } => assert!(grid),
            other => panic!("parsed {other:?}"),
        }
        let out = execute(&cmd).unwrap();
        assert!(out.contains("chaos degradation grid"));
        assert!(out.contains("banks failed"));
        let json_out =
            execute(&parse(["chaos", "toy_residual", "--grid", "--json"]).unwrap()).unwrap();
        assert!(json_out.trim_start().starts_with('['));
        assert!(json_out.contains(r#""bank_fail_fraction":"#));
        assert!(json_out.contains(r#""dram_fault_rate":"#));
    }

    #[test]
    fn chaos_grid3_parses_runs_and_emits_json() {
        let cmd = parse(["chaos", "toy_residual", "--grid", "--site-rate", "0.0,0.5"]).unwrap();
        match &cmd {
            Command::Chaos {
                grid, site_rates, ..
            } => {
                assert!(grid);
                assert_eq!(site_rates.as_deref(), Some(&[0.0, 0.5][..]));
            }
            other => panic!("parsed {other:?}"),
        }
        let out = execute(&cmd).unwrap();
        assert!(out.contains("site rate 0.5"));
        assert!(out.contains("banks failed"));
        let json_out = execute(
            &parse([
                "chaos",
                "toy_residual",
                "--grid",
                "--site-rate",
                "0.5",
                "--json",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(json_out.contains(r#""site_fault_rate":"#));
        // Malformed lists and a bare --site-rate are rejected.
        assert!(parse(["chaos", "toy_residual", "--grid", "--site-rate", "x"]).is_err());
        assert!(parse(["chaos", "toy_residual", "--grid", "--site-rate", "1.5"]).is_err());
        assert!(parse(["chaos", "toy_residual", "--site-rate", "0.1"]).is_err());
    }

    #[test]
    fn chaos_control_path_defaults_to_headline_and_reports_policies() {
        // A flag right after `chaos` (or nothing at all) defaults the
        // network to the headline pair.
        match parse(["chaos", "--control-path"]).unwrap() {
            Command::Chaos {
                network,
                control_path,
                ..
            } => {
                assert_eq!(network, "headline");
                assert!(control_path);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(["chaos"]).unwrap(),
            Command::Chaos { network, .. } if network == "headline"
        ));
        // Other commands still require an explicit network.
        assert!(parse(["analyze"]).is_err());
        // Run on a tiny network to keep the test fast.
        let out =
            execute(&parse(["chaos", "toy_residual", "--control-path", "--seed", "11"]).unwrap())
                .unwrap();
        assert!(out.contains("control-path degradation"));
        for policy in ["Abort", "RefetchTile", "RecomputeLayer"] {
            assert!(out.contains(policy), "missing {policy}:\n{out}");
        }
        let json_out =
            execute(&parse(["chaos", "toy_residual", "--control-path", "--json"]).unwrap())
                .unwrap();
        assert!(json_out.contains(r#""recovered_recompute":"#));
    }

    #[test]
    fn chaos_scheduler_reports_all_four_tiers() {
        // A flag right after `chaos` defaults the network to the headline
        // pair, same as --control-path.
        match parse(["chaos", "--scheduler"]).unwrap() {
            Command::Chaos {
                network, scheduler, ..
            } => {
                assert_eq!(network, "headline");
                assert!(scheduler);
            }
            other => panic!("parsed {other:?}"),
        }
        // Run on a tiny network to keep the test fast.
        let out =
            execute(&parse(["chaos", "toy_residual", "--scheduler", "--seed", "13"]).unwrap())
                .unwrap();
        assert!(out.contains("scheduler-state degradation"));
        for policy in ["Abort", "RefetchTile", "RecomputeLayer", "Checkpoint"] {
            assert!(out.contains(policy), "missing {policy}:\n{out}");
        }
        let json_out =
            execute(&parse(["chaos", "toy_residual", "--scheduler", "--json"]).unwrap()).unwrap();
        assert!(json_out.contains(r#""recovered_rollback":"#));
        assert!(json_out.contains(r#""scheduler_fault_rate":"#));
    }

    #[test]
    fn bench_command_parses() {
        assert_eq!(
            parse(["bench"]).unwrap(),
            Command::Bench {
                out: "BENCH_parallel.json".into(),
                assert_conv_speedup: None,
                assert_suite_speedup: None,
                assert_suite_identical: false,
                assert_warm_speedup: None,
            }
        );
        assert_eq!(
            parse([
                "bench",
                "--out",
                "/tmp/b.json",
                "--assert-conv-speedup",
                "4",
                "--assert-suite-speedup",
                "1.2",
                "--assert-suite-identical",
            ])
            .unwrap(),
            Command::Bench {
                out: "/tmp/b.json".into(),
                assert_conv_speedup: Some(4.0),
                assert_suite_speedup: Some(1.2),
                assert_suite_identical: true,
                assert_warm_speedup: None,
            }
        );
        assert!(parse(["bench", "--wat"]).is_err());
        assert!(parse(["bench", "--assert-conv-speedup", "zero"]).is_err());
        assert!(parse(["bench", "--assert-conv-speedup", "-1"]).is_err());
        assert!(parse(["bench", "--assert-suite-speedup"]).is_err());
    }

    #[test]
    fn report_command_parses_and_runs_per_layer() {
        let cmd = parse(["report", "toy_residual", "--per-layer"]).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                network: "toy_residual".into(),
                batch: 1,
                policy: Policy::shortcut_mining(),
                per_layer: true,
                json: false,
                seed: 42,
                dram_rate: 0.0,
                site_rate: None,
                net_file: None,
            }
        );
        let out = execute(&cmd).unwrap();
        assert!(out.contains("comp kcyc"));
        assert!(out.contains("c1"));
        assert!(out.contains("totals:"));
        // report requires an explicit network and a single site rate.
        assert!(parse(["report"]).is_err());
        assert!(parse(["report", "toy_residual", "--site-rate", "0.1,0.2"]).is_err());
    }

    #[test]
    fn report_emits_per_layer_perf_json() {
        let out =
            execute(&parse(["report", "resnet_tiny20", "--per-layer", "--json"]).unwrap()).unwrap();
        assert!(out.trim_start().starts_with('['));
        for field in [
            r#""compute_cycles":"#,
            r#""dram_stall_cycles":"#,
            r#""retry_stall_cycles":"#,
            r#""bank_conflict_stall_cycles":"#,
            r#""due_events":"#,
            r#""occupancy":"#,
        ] {
            assert!(out.contains(field), "missing {field}");
        }
    }

    #[test]
    fn report_attributes_faults_per_layer() {
        // A hot DRAM fault rate guarantees at least one retried transfer on
        // a tiny network, which must surface as per-layer retry stall.
        let out = execute(
            &parse([
                "report",
                "toy_residual",
                "--dram-rate",
                "0.2",
                "--per-layer",
                "--json",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains(r#""retry_stall_cycles":"#));
        let total_retry: u64 = out
            .split(r#""retry_stall_cycles":"#)
            .skip(1)
            .filter_map(|s| {
                s.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|d| d.parse::<u64>().ok())
            })
            .sum();
        assert!(total_retry > 0, "expected nonzero retry stall:\n{out}");
        // Baseline policy cannot host the fault model.
        let err = execute(
            &parse([
                "report",
                "toy_residual",
                "--policy",
                "baseline",
                "--dram-rate",
                "0.5",
            ])
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.0.contains("logical-buffer"));
    }

    #[test]
    fn serve_and_warm_floor_flags_parse() {
        assert_eq!(
            parse(["serve"]).unwrap(),
            Command::Serve {
                cache_dir: None,
                max_inflight: None,
                default_deadline_ms: None,
                cache_max_bytes: None,
                io_fault_rate: None,
                io_fault_seed: 42,
                deterministic: false,
            }
        );
        assert_eq!(
            parse([
                "serve",
                "--cache-dir",
                "/tmp/c",
                "--max-inflight",
                "4",
                "--default-deadline-ms",
                "500",
                "--cache-max-bytes",
                "65536",
                "--io-fault-rate",
                "0.2",
                "--io-fault-seed",
                "7",
                "--deterministic",
            ])
            .unwrap(),
            Command::Serve {
                cache_dir: Some("/tmp/c".into()),
                max_inflight: Some(4),
                default_deadline_ms: Some(500),
                cache_max_bytes: Some(65536),
                io_fault_rate: Some(0.2),
                io_fault_seed: 7,
                deterministic: true,
            }
        );
        assert!(parse(["serve", "--wat"]).is_err());
        assert!(parse(["serve", "--cache-dir"]).is_err());
        assert!(parse(["serve", "--max-inflight", "0"]).is_err());
        assert!(parse(["serve", "--cache-max-bytes", "0"]).is_err());
        assert!(parse(["serve", "--io-fault-rate", "1.5"]).is_err());
        match parse(["bench", "--assert-warm-speedup", "3"]).unwrap() {
            Command::Bench {
                assert_warm_speedup,
                ..
            } => assert_eq!(assert_warm_speedup, Some(3.0)),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(["bench", "--assert-warm-speedup", "-2"]).is_err());
    }

    #[test]
    fn chaos_cache_dir_makes_warm_runs_byte_identical() {
        let dir = std::env::temp_dir().join(format!("smctl-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap();
        let cached = parse([
            "chaos",
            "toy_residual",
            "--grid",
            "--json",
            "--cache-dir",
            dir_s,
        ])
        .unwrap();
        let cold = execute(&cached).unwrap();
        let warm = execute(&cached).unwrap();
        assert_eq!(cold, warm, "warm JSON must be byte-identical to cold");
        // The cache leaves output identical to an uncached run.
        let plain =
            execute(&parse(["chaos", "toy_residual", "--grid", "--json"]).unwrap()).unwrap();
        assert_eq!(cold, plain);
        // Text output surfaces the cache counters; this third run over the
        // same grid is all hits.
        let txt =
            execute(&parse(["chaos", "toy_residual", "--grid", "--cache-dir", dir_s]).unwrap())
                .unwrap();
        assert!(txt.contains("result cache:"), "{txt}");
        assert!(txt.contains("0 misses"), "{txt}");
        // --no-cache wins over --cache-dir: no cache, no stats line.
        let off = execute(
            &parse([
                "chaos",
                "toy_residual",
                "--grid",
                "--no-cache",
                "--cache-dir",
                dir_s,
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(!off.contains("result cache:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_advertised_policy_resolves() {
        for p in [
            "baseline",
            "reuse-disabled",
            "swap-only",
            "mining-only",
            "shortcut-mining",
            "shortcut-mining-copy-swap",
            "shortcut-mining-nearest-spill",
        ] {
            assert!(policy_by_name(p).is_some(), "{p}");
        }
    }

    #[test]
    fn export_and_net_file_round_trip() {
        // Bare export prints the document itself.
        let doc = execute(&parse(["export", "toy_residual"]).unwrap()).unwrap();
        assert!(doc.contains("\"format\":\"sm-graph-v1\""));

        let dir = std::env::temp_dir().join(format!("smctl-export-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.json");
        let p = path.to_str().unwrap();
        let msg = execute(&parse(["export", "toy_residual", "--out", p]).unwrap()).unwrap();
        assert!(msg.contains("graph written"));
        assert!(msg.contains("junctions"));

        // A report driven by the exported file is byte-identical to the
        // zoo-driven one: ingestion reproduces the schedule exactly.
        let via_file = execute(&parse(["report", "--net-file", p, "--json"]).unwrap()).unwrap();
        let via_zoo = execute(&parse(["report", "toy_residual", "--json"]).unwrap()).unwrap();
        assert_eq!(via_file, via_zoo);

        // Malformed documents surface as typed CLI errors, not panics.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, b"{\"format\":\"sm-graph-v1\"").unwrap();
        let err =
            execute(&parse(["report", "--net-file", bad.to_str().unwrap()]).unwrap()).unwrap_err();
        assert!(err.0.contains("cannot load network graph"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn net_file_flag_is_guarded() {
        // --net-file replaces the network name and bakes in the batch.
        assert!(parse(["report", "toy_residual", "--net-file", "x.json"]).is_err());
        assert!(parse(["report", "--net-file", "x.json", "--batch", "2"]).is_err());
        // Only report and chaos take it.
        assert!(parse(["compare", "toy_residual", "--net-file", "x.json"]).is_err());
        // chaos takes it in place of the headline default, not alongside a
        // named network.
        assert!(parse(["chaos", "--net-file", "x.json"]).is_ok());
        assert!(parse(["chaos", "toy_residual", "--net-file", "x.json"]).is_err());
        // export validates its network name up front.
        assert!(parse(["export"]).is_err());
        assert!(parse(["export", "notanet"]).is_err());
        assert!(parse(["export", "toy_residual", "--wat"]).is_err());
        // A missing file is a CliError, not a panic.
        let err =
            execute(&parse(["report", "--net-file", "/nonexistent/x.json"]).unwrap()).unwrap_err();
        assert!(err.0.contains("cannot read network graph"), "{err}");
    }
}
