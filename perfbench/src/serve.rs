//! Request transcripts through `sm_bench::service::run_serve`, in-process,
//! for the traced run's serve layers.
//!
//! A closed loop keeps `nproc` requests outstanding against a server with
//! `max_inflight` = `nproc`: the input hands the server its next line only
//! once an earlier request's `done` line has reached the output sink. A
//! request is timed from the moment its line is handed over to the moment
//! its `done` line reaches the sink. Every job serves its request list
//! against an empty store.
//!
//! * Fresh: every request once. Seeds and axes are chosen so that no two
//!   cells share a cache key: every cell misses and is written.
//! * Overlap: each distinct request twice back to back (the copies are in
//!   flight together) and once more after both completed.
//!
//! Each request's event order and `data`/`result` payloads are checked
//! against a `max_inflight` 1 sequential replay of the same list. The
//! `cached` flag is provenance, not data: its disagreement with the replay
//! is reported (`service.cached_flag_divergence`), not counted as a
//! failure — except on the fresh list, where any cached cell breaks the
//! list's construction and fails the request.

use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use sm_accel::AccelConfig;
use sm_bench::cas::{CacheSession, CacheStats, ResultCache};
use sm_bench::experiments::{
    chaos_degradation_with_budget_cached, chaos_grid_cached, compare_cells,
    control_path_sweep_cached, retry_budget_sweep_cached, scheduler_sweep_cached,
    CONTROL_PATH_POLICIES, DEFAULT_CONTROL_PATH_RATES, DEFAULT_FRACTIONS, DEFAULT_GRID_FRACTIONS,
    DEFAULT_GRID_RATES, DEFAULT_RETRY_BUDGETS, DEFAULT_SCHEDULER_RATES, SCHEDULER_POLICIES,
};
use sm_bench::json::to_json;
use sm_bench::service::{run_serve, ServeOptions};
use sm_model::{graph, zoo, Network};

use crate::util::SplitMix64;

/// Every sweep kind the service offers except the 3-D grid.
const KINDS: [&str; 7] = [
    "chaos-grid",
    "chaos-curve",
    "control-path",
    "scheduler",
    "retry-budget",
    "compare",
    "capacity-sweep",
];

/// ResNet-18/34/50 and the SqueezeNet variants.
const NETWORKS: [&str; 7] = [
    "resnet18",
    "resnet34",
    "resnet50",
    "squeezenet_v10",
    "squeezenet_v10_simple_bypass",
    "squeezenet_v10_complex_bypass",
    "squeezenet_v11",
];

/// Fig. 14's capacity axis without the default 320 KiB, so capacity-sweep
/// cells never share a key with compare cells.
const CAPACITIES_KIB: [u64; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// One lap: every (kind, network) pair once.
const LAP: usize = KINDS.len() * NETWORKS.len();
/// Requests of the fresh schedule: two laps.
pub const FRESH_REQUESTS: usize = 2 * LAP;
/// Distinct requests of the overlap schedule (one lap, the first lap of
/// the fresh list); each is sent three times.
pub const OVERLAP_DISTINCT: usize = LAP;

/// One generated request.
#[derive(Debug, Clone)]
pub struct Spec {
    id: String,
    kind: &'static str,
    network: &'static str,
    batch: usize,
    seed: u64,
    /// The network as an inline `sm-graph-v1` document.
    graph: Option<String>,
    capacities_kib: Option<Vec<u64>>,
}

impl Spec {
    /// The request line the server receives.
    pub fn line(&self) -> String {
        let mut fields = vec![
            format!(r#""id":{}"#, quoted(&self.id)),
            format!(r#""kind":{}"#, quoted(self.kind)),
        ];
        match &self.graph {
            Some(doc) => fields.push(format!(r#""graph":{}"#, quoted(doc))),
            None => {
                fields.push(format!(r#""network":{}"#, quoted(self.network)));
                fields.push(format!(r#""batch":{}"#, self.batch));
            }
        }
        fields.push(format!(r#""seed":{}"#, self.seed));
        if let Some(caps) = &self.capacities_kib {
            let caps: Vec<String> = caps.iter().map(u64::to_string).collect();
            fields.push(format!(r#""capacities_kib":[{}]"#, caps.join(",")));
        }
        format!("{{{}}}", fields.join(","))
    }

    /// The network the server lowers this request to.
    pub fn lower(&self) -> Result<Network, String> {
        match &self.graph {
            Some(doc) => graph::load(doc).map_err(|e| e.to_string()),
            None => zoo::try_by_name(self.network, self.batch).map_err(|e| e.to_string()),
        }
    }
}

fn quoted(s: &str) -> String {
    to_json(&s).expect("string serialization is infallible")
}

/// `n` distinct requests drawn from `seed`.
///
/// Request `i` has kind `i % 7` and, in round `r = i / 7`, network
/// `perm[(r + kind) % 7]`, so every round mixes all kinds over distinct
/// networks and every lap of 7 rounds holds each (kind, network) pair once.
/// Cell keys never repeat: chaos kinds get distinct fault seeds, compare
/// requests on the same network differ in batch (one per lap), capacity
/// sweeps on the same network differ in their capacity axis. Every third
/// request carries its network as an inline graph document.
pub fn distinct_specs(seed: u64, n: usize) -> Vec<Spec> {
    let mut rng = SplitMix64::new(seed);
    let mut perm: Vec<usize> = (0..NETWORKS.len()).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let seed_base = rng.next_u64() >> 24;
    let graph_phase = rng.below(3);
    (0..n)
        .map(|i| {
            let kind = i % KINDS.len();
            let round = i / KINDS.len();
            let network = NETWORKS[perm[(round + kind) % NETWORKS.len()]];
            let lap = round / NETWORKS.len();
            let batch = if KINDS[kind] == "compare" { 1 + lap } else { 1 };
            let capacities_kib = (KINDS[kind] == "capacity-sweep")
                .then(|| CAPACITIES_KIB.iter().map(|c| c + lap as u64).collect());
            let graph = (i + graph_phase).is_multiple_of(3).then(|| {
                graph::export_json(&zoo::try_by_name(network, batch).expect("zoo network builds"))
            });
            Spec {
                id: format!("r{i}"),
                kind: KINDS[kind],
                network,
                batch,
                seed: seed_base + i as u64,
                graph,
                capacities_kib,
            }
        })
        .collect()
}

/// One line handed to the server, optionally only after an earlier send
/// (by position) has completed.
#[derive(Debug, Clone)]
pub struct Outgoing {
    line: String,
    after: Option<usize>,
}

/// The workload's send order: each request once (`fresh`), or per pair of
/// distinct requests `a a b b a b` with each third copy gated on the
/// second (`overlap`).
pub fn schedule(overlap: bool, specs: &[Spec]) -> Vec<Outgoing> {
    let lines: Vec<String> = specs.iter().map(Spec::line).collect();
    if !overlap {
        return lines
            .into_iter()
            .map(|line| Outgoing { line, after: None })
            .collect();
    }
    let mut sends = Vec::new();
    for pair in lines.chunks(2) {
        let mut second_copy = Vec::new();
        for line in pair {
            sends.push(Outgoing {
                line: line.clone(),
                after: None,
            });
            second_copy.push(sends.len());
            sends.push(Outgoing {
                line: line.clone(),
                after: None,
            });
        }
        for (line, after) in pair.iter().zip(second_copy) {
            sends.push(Outgoing {
                line: line.clone(),
                after: Some(after),
            });
        }
    }
    sends
}

/// Closed-loop bookkeeping shared by the input (server's reader thread)
/// and the sink (server's emitter thread).
struct Loop {
    state: Mutex<LoopState>,
    changed: Condvar,
}

struct LoopState {
    outstanding: usize,
    done: Vec<bool>,
}

/// The server's input: hands out the next line only when fewer than
/// `window` requests are outstanding and its gate (if any) has completed.
struct ClosedLoopInput<'a> {
    sends: &'a [Outgoing],
    lp: &'a Loop,
    window: usize,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    sent_at: Vec<Instant>,
}

impl Read for ClosedLoopInput<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ClosedLoopInput<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() && self.next < self.sends.len() {
            let send = &self.sends[self.next];
            let mut st = self.lp.state.lock().expect("loop lock");
            while st.outstanding >= self.window || send.after.is_some_and(|a| !st.done[a]) {
                st = self.lp.changed.wait(st).expect("loop lock");
            }
            st.outstanding += 1;
            drop(st);
            self.buf.clear();
            self.buf.extend_from_slice(send.line.as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
            self.next += 1;
            self.sent_at.push(Instant::now());
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The `"event"` value of a service line.
fn event_of(line: &str) -> &str {
    line.split_once(r#""event":""#)
        .and_then(|(_, rest)| rest.split('"').next())
        .unwrap_or("")
}

/// The server's output: timestamps each complete line, and on a request's
/// terminal line (`done` / `error`) frees its closed-loop slot.
struct Sink<'a> {
    lp: &'a Loop,
    pending: Vec<u8>,
    lines: Vec<(Instant, String)>,
    block: usize,
}

impl Write for Sink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
            let now = Instant::now();
            let raw: Vec<u8> = self.pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
            let terminal = matches!(event_of(&line), "done" | "error");
            self.lines.push((now, line));
            if terminal {
                let mut st = self.lp.state.lock().expect("loop lock");
                if let Some(d) = st.done.get_mut(self.block) {
                    *d = true;
                }
                st.outstanding = st.outstanding.saturating_sub(1);
                drop(st);
                self.block += 1;
                self.lp.changed.notify_all();
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One request's events as they reached the sink.
#[derive(Debug, Default)]
pub struct Block {
    sent: Option<Instant>,
    lines: Vec<(Instant, String)>,
}

impl Block {
    fn at(&self, event: &str) -> Option<Instant> {
        self.lines
            .iter()
            .find(|(_, l)| event_of(l) == event)
            .map(|(t, _)| *t)
    }

    fn since_sent_ms(&self, t: Option<Instant>) -> Option<f64> {
        Some(t?.duration_since(self.sent?).as_secs_f64() * 1e3)
    }

    /// Send → terminal line.
    pub fn latency_ms(&self) -> Option<f64> {
        self.since_sent_ms(self.lines.last().map(|(t, _)| *t))
    }

    /// Send → `accepted` line.
    pub fn queue_wait_ms(&self) -> Option<f64> {
        self.since_sent_ms(self.at("accepted"))
    }

    /// Send → first `cell` line.
    pub fn first_cell_ms(&self) -> Option<f64> {
        self.since_sent_ms(self.at("cell"))
    }

    pub fn bytes(&self) -> usize {
        self.lines.iter().map(|(_, l)| l.len() + 1).sum()
    }
}

/// Splits a transcript into per-request blocks (admission order), each
/// ending at its terminal line.
fn blocks(lines: Vec<(Instant, String)>, sent: &[Instant]) -> Vec<Block> {
    let mut out = vec![Block::default()];
    for (t, line) in lines {
        let terminal = matches!(event_of(&line), "done" | "error");
        out.last_mut().expect("non-empty").lines.push((t, line));
        if terminal {
            out.push(Block::default());
        }
    }
    out.pop();
    for (b, &s) in out.iter_mut().zip(sent) {
        b.sent = Some(s);
    }
    out
}

/// One served job.
pub struct Job {
    pub wall_s: f64,
    pub blocks: Vec<Block>,
    pub stats: CacheStats,
}

/// Serves `sends` through `run_serve` against an empty store at `dir`,
/// keeping `window` requests outstanding.
pub fn run_job(sends: &[Outgoing], dir: &Path, window: usize) -> Result<Job, String> {
    let store = ResultCache::open(dir).map_err(|e| format!("open store {dir:?}: {e}"))?;
    let lp = Loop {
        state: Mutex::new(LoopState {
            outstanding: 0,
            done: vec![false; sends.len()],
        }),
        changed: Condvar::new(),
    };
    let mut input = ClosedLoopInput {
        sends,
        lp: &lp,
        window: window.max(1),
        next: 0,
        buf: Vec::new(),
        pos: 0,
        sent_at: Vec::with_capacity(sends.len()),
    };
    let mut sink = Sink {
        lp: &lp,
        pending: Vec::new(),
        lines: Vec::new(),
        block: 0,
    };
    let options = ServeOptions {
        max_inflight: window.max(1),
        ..ServeOptions::default()
    };
    let t0 = Instant::now();
    run_serve(&mut input, &mut sink, &store, &options).map_err(|e| format!("serve: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Job {
        wall_s,
        blocks: blocks(sink.lines, &input.sent_at),
        stats: store.stats(),
    })
}

/// Sequential (`max_inflight` 1) replay of the same list, one line after
/// another, against an empty store: the reference transcript.
pub fn reference(sends: &[Outgoing], dir: &Path) -> Result<Vec<Vec<String>>, String> {
    let store = ResultCache::open(dir).map_err(|e| format!("open store {dir:?}: {e}"))?;
    let input: String = sends.iter().map(|s| format!("{}\n", s.line)).collect();
    let mut out = Vec::new();
    let options = ServeOptions {
        max_inflight: 1,
        deterministic_timing: true,
        ..ServeOptions::default()
    };
    run_serve(input.as_bytes(), &mut out, &store, &options).map_err(|e| format!("serve: {e}"))?;
    let text = String::from_utf8(out).map_err(|e| e.to_string())?;
    let now = Instant::now();
    let lines = text.lines().map(|l| (now, l.to_string())).collect();
    Ok(blocks(lines, &[])
        .into_iter()
        .map(|b| b.lines.into_iter().map(|(_, l)| l).collect())
        .collect())
}

/// A line with its provenance removed, plus the `cached` flag of a cell.
fn comparable(line: &str) -> (String, Option<bool>) {
    match event_of(line) {
        "cell" => {
            for (pat, flag) in [(r#","cached":true"#, true), (r#","cached":false"#, false)] {
                if let Some(i) = line.find(pat) {
                    return (
                        format!("{}{}", &line[..i], &line[i + pat.len()..]),
                        Some(flag),
                    );
                }
            }
            (line.to_string(), None)
        }
        // `ms` is wall clock and `cache` is per-session provenance.
        "done" => match (
            line.find(r#","ms":"#),
            line.find(r#","result":"#),
            line.rfind(r#","cache":{"#),
        ) {
            (Some(ms), Some(res), Some(cache)) if ms < res && res < cache => {
                (format!("{}{}", &line[..ms], &line[res..cache]), None)
            }
            _ => (line.to_string(), None),
        },
        _ => (line.to_string(), None),
    }
}

/// The check of one job against the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Check {
    pub failed: u64,
    pub cells: u64,
    pub flag_divergent: u64,
}

pub fn check(job: &[Block], want: &[Vec<String>], fresh: bool) -> Check {
    let mut c = Check::default();
    if job.len() != want.len() {
        c.failed += job.len().abs_diff(want.len()) as u64;
    }
    for (got, want) in job.iter().zip(want) {
        let mut ok = got.lines.len() == want.len() && event_of(&want[want.len() - 1]) == "done";
        for ((_, g), w) in got.lines.iter().zip(want) {
            let (g, g_flag) = comparable(g);
            let (w, w_flag) = comparable(w);
            ok &= g == w;
            if let (Some(gf), Some(wf)) = (g_flag, w_flag) {
                c.cells += 1;
                c.flag_divergent += u64::from(gf != wf);
                ok &= !(fresh && gf);
            }
        }
        c.failed += u64::from(!ok);
    }
    c
}

/// The service's default `dram_rate` for chaos-curve and retry-budget.
const DRAM_RATE: f64 = 0.01;

/// A request's sweep: called with an optional cache session and a per-cell
/// callback.
pub type Sweep<'a, U> = dyn Fn(Option<&CacheSession<'_>>, &mut dyn FnMut(&U)) + 'a;

/// Receives a request's sweep, with the cell type as a type parameter.
pub trait SweepVisitor {
    fn visit<U: Clone + Serialize + Deserialize>(&mut self, sweep: &Sweep<'_, U>);
}

/// Hands `v` the `*_cached` sweep that `spec` names, called directly with
/// the service's default axes (the same cells `run_serve` computes).
pub fn visit_sweep(spec: &Spec, net: &Network, v: &mut impl SweepVisitor) {
    let cfg = AccelConfig::default();
    let seed = spec.seed;
    let nets = [net.clone()];
    match spec.kind {
        "chaos-curve" => v.visit(&|s, f| {
            let f = |_, _, c: &_| f(c);
            chaos_degradation_with_budget_cached(
                net,
                cfg,
                seed,
                &DEFAULT_FRACTIONS,
                DRAM_RATE,
                None,
                s,
                f,
            );
        }),
        "chaos-grid" => v.visit(&|s, f| {
            let f = |_, _, c: &_| f(c);
            chaos_grid_cached(
                net,
                cfg,
                seed,
                &DEFAULT_GRID_FRACTIONS,
                &DEFAULT_GRID_RATES,
                None,
                s,
                f,
            );
        }),
        "control-path" => v.visit(&|s, f| {
            let (policies, rates) = (&CONTROL_PATH_POLICIES, &DEFAULT_CONTROL_PATH_RATES);
            control_path_sweep_cached(net, cfg, seed, policies, rates, None, s, |_, _, c| f(c));
        }),
        "scheduler" => v.visit(&|s, f| {
            let (policies, rates) = (&SCHEDULER_POLICIES, &DEFAULT_SCHEDULER_RATES);
            scheduler_sweep_cached(net, cfg, seed, policies, rates, None, s, |_, _, c| f(c));
        }),
        "retry-budget" => v.visit(&|s, f| {
            let f = |_, _, c: &_| f(c);
            retry_budget_sweep_cached(net, cfg, seed, DRAM_RATE, &DEFAULT_RETRY_BUDGETS, s, f);
        }),
        "compare" => v.visit(&|s, f| {
            compare_cells(cfg, &nets, s, |_, _, c| f(c));
        }),
        "capacity-sweep" => v.visit(&|s, f| {
            for &kib in spec.capacities_kib.as_deref().unwrap_or_default() {
                compare_cells(cfg.with_fm_capacity(kib * 1024), &nets, s, |_, _, c| f(c));
            }
        }),
        other => unreachable!("the generator emits only known kinds, got {other}"),
    }
}
