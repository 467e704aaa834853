//! Resident sweep service behind `smctl serve`.
//!
//! A long-running process reads newline-delimited JSON sweep requests from
//! its input, schedules the missing cells largest-cost-first over the
//! existing worker pool ([`sm_core::parallel`]), and streams JSON events
//! back as cells complete. All requests share one content-addressed
//! [`ResultCache`], so a second request overlapping a first is answered
//! almost entirely from cache (delta simulation); each request gets its own
//! [`CacheSession`](crate::cas::CacheSession) so concurrent clients see
//! unsmeared per-request hit rates.
//!
//! # Protocol
//!
//! One request per line:
//!
//! ```json
//! {"id":"r1","kind":"chaos-grid","network":"toy_residual","seed":7}
//! ```
//!
//! Fields: `id` (any string, echoed on every response), `kind` (see below),
//! `network` (zoo name; see `smctl networks`), and optional `batch`
//! (default 1), `seed` (default 42), `dram_rate` (default 0.01),
//! `retry_budget`, `fractions`, `rates`, `site_rates`, `budgets`,
//! `capacities_kib` — each overriding the sweep's default axis — plus:
//!
//! * `deadline_ms` — per-request deadline; an overrunning sweep is
//!   cancelled at cell granularity and answered with a typed
//!   `{"event":"error","reason":"deadline"}` instead of hanging the line.
//! * `graph` — an inline `sm-graph-v1` document **as a JSON string**
//!   (i.e. the document itself JSON-escaped), lowered via
//!   [`sm_model::graph::load`]; takes precedence over `net_file` and
//!   `network`.
//! * `net_file` — path to a graph document on the server's filesystem.
//!
//! Ingested networks fold their full content fingerprint
//! ([`crate::cas::content_fingerprint`]) into every cell key, so two
//! different graphs sharing a name never alias in the store. For `graph` /
//! `net_file` requests the `batch` field is ignored — the batch is baked
//! into the document's input shape.
//!
//! Every kind is one sweep function, called with one [`SweepCtx`]: the
//! request's cache session, its cancel check and a `cell`-event stream.
//!
//! | kind | sweep | cell type |
//! |---|---|---|
//! | `chaos-curve` | [`chaos_curve`] | `ChaosPoint` |
//! | `chaos-grid` | [`chaos_grid`] | `ChaosGridCell` |
//! | `chaos-grid3` | [`chaos_grid3`] | `ChaosGrid3Cell` |
//! | `control-path` | [`control_path`] | `ControlPathPoint` |
//! | `scheduler` | [`scheduler`] | `SchedulerPoint` |
//! | `retry-budget` | [`retry_budget`] | `RetryBudgetPoint` |
//! | `compare` | [`compare`] (one config) | `ComparisonCell` |
//! | `capacity-sweep` | [`compare`] (one config per capacity) | `ComparisonCell` |
//!
//! # Concurrency and the deterministic mux
//!
//! Up to [`ServeOptions::max_inflight`] requests execute concurrently.
//! Every request writes its events to a private queue, and a single
//! emitter thread drains those queues **in request-admission order**: all
//! of request 1's events, then all of request 2's, and so on. Each
//! request's stream is internally ordered (`accepted` → `cell` in index
//! order → `done`/`error`), so the *entire output* is byte-identical to
//! sequential serving at any `max_inflight` and any worker-thread count —
//! interleaving buys wall-clock overlap, not output nondeterminism.
//!
//! ```json
//! {"id":"r1","event":"accepted","kind":"chaos-grid"}
//! {"id":"r1","event":"cell","index":0,"cached":false,"data":{...}}
//! {"id":"r1","event":"done","ms":12.5,"result":{...},"cache":{"hits":0,"misses":12,...}}
//! ```
//!
//! (`ms` is wall-clock; [`ServeOptions::deterministic_timing`] pins it to
//! `0.000` so whole outputs can be compared bytewise across runs.)
//!
//! Malformed or unserviceable requests produce a single
//! `{"id":...,"event":"error","reason":...,"message":...}` line
//! (`reason` ∈ `bad-request` / `unserviceable` / `deadline` /
//! `write-failed`) and the service keeps reading. EOF on the input ends
//! the service.
//!
//! # Client failures and store health
//!
//! The first failed client write latches: the request in flight is
//! cancelled at cell granularity (no point simulating for a dead pipe),
//! remaining output is discarded, and `run_serve` returns the original
//! write error after unwinding. Storage-health transitions of the shared
//! store (Healthy → Degraded → Offline, see
//! [`StoreHealth`](crate::cas::StoreHealth)) are surfaced in-band as
//! `{"id":...,"event":"health","state":...}` events attributed to the
//! request that observed the transition.

use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;

use sm_accel::AccelConfig;
use sm_core::parallel::{threads, Cancelled};
use sm_model::{graph, zoo, Network};

use crate::cas::{ResultCache, SweepCtx};
use crate::experiments::{
    chaos_curve, chaos_grid, chaos_grid3, compare, control_path, retry_budget, scheduler,
    CONTROL_PATH_POLICIES, DEFAULT_CONTROL_PATH_RATES, DEFAULT_FRACTIONS, DEFAULT_GRID_FRACTIONS,
    DEFAULT_GRID_RATES, DEFAULT_GRID_SITE_RATES, DEFAULT_RETRY_BUDGETS, DEFAULT_SCHEDULER_RATES,
    SCHEDULER_POLICIES,
};
use crate::json::{parse_value_document, to_json};

/// Default capacity axis (KiB) for `capacity-sweep` requests — matches the
/// Fig. 14 sweep.
pub const DEFAULT_CAPACITIES_KIB: [u64; 8] = [64, 128, 256, 320, 512, 1024, 2048, 4096];

/// Service configuration for [`run_serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Maximum concurrently executing requests; `0` = worker-thread count
    /// ([`sm_core::parallel::threads`]). The default is `1` (sequential).
    pub max_inflight: usize,
    /// Deadline applied to requests that don't carry their own
    /// `deadline_ms` field. `None` = no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Emit `"ms":0.000` in `done` events so whole outputs are bytewise
    /// comparable across runs (the CI serve smoke relies on this).
    pub deterministic_timing: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_inflight: 1,
            default_deadline_ms: None,
            deterministic_timing: false,
        }
    }
}

/// One parsed sweep request.
#[derive(Debug, Clone)]
struct Request {
    id: String,
    kind: String,
    network: String,
    batch: usize,
    seed: u64,
    dram_rate: f64,
    retry_budget: Option<u32>,
    fractions: Option<Vec<f64>>,
    rates: Option<Vec<f64>>,
    site_rates: Option<Vec<f64>>,
    budgets: Option<Vec<u32>>,
    capacities_kib: Option<Vec<u64>>,
    deadline_ms: Option<u64>,
    net_file: Option<String>,
    graph: Option<String>,
}

fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let value = parse_value_document(line).map_err(|e| (String::new(), e.to_string()))?;
    // The id is recovered first so even a shape error can be attributed.
    let id: String = value.field_opt("id").ok().flatten().unwrap_or_default();
    let fail = |msg: String| (id.clone(), msg);
    let kind: String = value.field("kind").map_err(|e| fail(e.to_string()))?;
    let network: String = value
        .field_opt("network")
        .map_err(|e| fail(e.to_string()))?
        .unwrap_or_default();
    Ok(Request {
        kind,
        network,
        batch: value
            .field_opt("batch")
            .map_err(|e| fail(e.to_string()))?
            .unwrap_or(1),
        seed: value
            .field_opt("seed")
            .map_err(|e| fail(e.to_string()))?
            .unwrap_or(42),
        dram_rate: value
            .field_opt("dram_rate")
            .map_err(|e| fail(e.to_string()))?
            .unwrap_or(0.01),
        retry_budget: value
            .field_opt("retry_budget")
            .map_err(|e| fail(e.to_string()))?,
        fractions: value
            .field_opt("fractions")
            .map_err(|e| fail(e.to_string()))?,
        rates: value.field_opt("rates").map_err(|e| fail(e.to_string()))?,
        site_rates: value
            .field_opt("site_rates")
            .map_err(|e| fail(e.to_string()))?,
        budgets: value
            .field_opt("budgets")
            .map_err(|e| fail(e.to_string()))?,
        capacities_kib: value
            .field_opt("capacities_kib")
            .map_err(|e| fail(e.to_string()))?,
        deadline_ms: value
            .field_opt("deadline_ms")
            .map_err(|e| fail(e.to_string()))?,
        net_file: value
            .field_opt("net_file")
            .map_err(|e| fail(e.to_string()))?,
        graph: value.field_opt("graph").map_err(|e| fail(e.to_string()))?,
        id,
    })
}

fn emit(out: &mut impl Write, line: &str) -> io::Result<()> {
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    // Streaming is the point of the service: every event is visible to the
    // client the moment its cell completes.
    out.flush()
}

fn quoted(s: &str) -> String {
    to_json(&s).expect("string serialization is infallible")
}

fn error_line(id: &str, reason: &str, message: &str) -> String {
    format!(
        r#"{{"id":{},"event":"error","reason":{},"message":{}}}"#,
        quoted(id),
        quoted(reason),
        quoted(message)
    )
}

/// Counting semaphore bounding concurrently executing requests.
struct Inflight {
    slots: Mutex<usize>,
    freed: Condvar,
}

impl Inflight {
    fn new(slots: usize) -> Inflight {
        Inflight {
            slots: Mutex::new(slots.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut slots = self.slots.lock().expect("inflight lock");
        while *slots == 0 {
            slots = self.freed.wait(slots).expect("inflight lock");
        }
        *slots -= 1;
    }

    fn release(&self) {
        *self.slots.lock().expect("inflight lock") += 1;
        self.freed.notify_one();
    }
}

/// Serves sweep requests from `input` until EOF, writing JSON event lines
/// to `output`. All requests share `store`; each gets a fresh session. Up
/// to `options.max_inflight` requests execute concurrently, with output
/// muxed deterministically in request-admission order (see the module
/// docs — the bytes are identical to sequential serving).
///
/// # Errors
///
/// Returns the first I/O error raised by `input` or `output` (after
/// cancelling in-flight work). Request-level failures — bad JSON, unknown
/// kinds or networks, missed deadlines — are reported in-band as typed
/// `error` events and do not stop the service.
pub fn run_serve(
    input: impl BufRead,
    output: impl Write + Send,
    store: &ResultCache,
    options: &ServeOptions,
) -> io::Result<()> {
    let max_inflight = if options.max_inflight == 0 {
        threads()
    } else {
        options.max_inflight
    };
    // First client-write failure: latched as the master cancel signal for
    // every in-flight request and returned from run_serve.
    let write_failed = AtomicBool::new(false);
    let write_error: Mutex<Option<io::Error>> = Mutex::new(None);
    // Store-health transitions already surfaced to the client.
    let last_health = AtomicU64::new(0);
    let inflight = Inflight::new(max_inflight);
    // The mux: per-request line queues, drained in admission order.
    let (mux_tx, mux_rx) = mpsc::channel::<mpsc::Receiver<String>>();
    let mut input_error: Option<io::Error> = None;

    std::thread::scope(|scope| {
        let write_failed = &write_failed;
        let write_error = &write_error;
        let last_health = &last_health;
        let inflight = &inflight;
        scope.spawn({
            let mut output = output;
            move || {
                for rx in mux_rx {
                    for line in rx {
                        if write_failed.load(Ordering::Relaxed) {
                            continue; // drain and discard for a dead client
                        }
                        if let Err(e) = emit(&mut output, &line) {
                            write_failed.store(true, Ordering::Relaxed);
                            *write_error.lock().expect("write-error lock") = Some(e);
                        }
                    }
                }
            }
        });
        for line in input.lines() {
            if write_failed.load(Ordering::Relaxed) {
                break;
            }
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    input_error = Some(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let (tx, rx) = mpsc::channel::<String>();
            if mux_tx.send(rx).is_err() {
                break;
            }
            let req = match parse_request(&line) {
                Ok(req) => req,
                Err((id, msg)) => {
                    let _ = tx.send(error_line(&id, "bad-request", &msg));
                    continue;
                }
            };
            let _ = tx.send(format!(
                r#"{{"id":{},"event":"accepted","kind":{}}}"#,
                quoted(&req.id),
                quoted(&req.kind)
            ));
            // Admission order is fixed above (the mux already holds this
            // request's queue); the semaphore only bounds execution.
            inflight.acquire();
            scope.spawn(move || {
                handle_request(&req, store, &tx, options, write_failed, last_health);
                inflight.release();
            });
        }
        drop(mux_tx);
    });

    if let Some(e) = write_error.lock().expect("write-error lock").take() {
        return Err(e);
    }
    if let Some(e) = input_error {
        return Err(e);
    }
    Ok(())
}

/// Resolves the request's network: inline `graph` document, then
/// `net_file`, then zoo name. Ingested graphs carry their batch in the
/// input shape; zoo names use the request's `batch` field.
fn resolve_network(req: &Request) -> Result<Network, String> {
    if let Some(doc) = &req.graph {
        return graph::load(doc).map_err(|e| format!("invalid inline graph: {e}"));
    }
    if let Some(path) = &req.net_file {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read net_file {path:?}: {e}"))?;
        return graph::load(&text).map_err(|e| format!("invalid network file {path:?}: {e}"));
    }
    zoo::try_by_name(&req.network, req.batch).map_err(|e| {
        format!(
            "unknown network {:?} at batch {}: {e}",
            req.network, req.batch
        )
    })
}

/// Surfaces a store-health transition (at most once per transition across
/// all requests) as an in-band `health` event on this request's stream.
fn maybe_emit_health(
    store: &ResultCache,
    tx: &mpsc::Sender<String>,
    last_health: &AtomicU64,
    id: &str,
) {
    let (state, transitions) = store.health_snapshot();
    let seen = last_health.fetch_max(transitions, Ordering::Relaxed);
    if seen < transitions {
        let _ = tx.send(format!(
            r#"{{"id":{},"event":"health","state":{},"transitions":{transitions}}}"#,
            quoted(id),
            quoted(state.as_str())
        ));
    }
}

fn handle_request(
    req: &Request,
    store: &ResultCache,
    tx: &mpsc::Sender<String>,
    options: &ServeOptions,
    write_failed: &AtomicBool,
    last_health: &AtomicU64,
) {
    let t0 = Instant::now();
    let deadline_ms = req.deadline_ms.or(options.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
    let net = match resolve_network(req) {
        Ok(net) => net,
        Err(msg) => {
            let _ = tx.send(error_line(&req.id, "unserviceable", &msg));
            return;
        }
    };
    let session = store.session();
    // Master cancel: a dead client or an expired deadline stops the sweep
    // at the next cell boundary.
    let cancel = move || {
        write_failed.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d)
    };
    // Every kind runs under the same context: the request's cache session
    // and cancel check, and cell events streamed as the frontier advances,
    // each followed by a health check so store-state transitions surface
    // promptly.
    macro_rules! ctx {
        () => {
            SweepCtx {
                cache: Some(&session),
                cancel: Some(&cancel),
                on_cell: Box::new(|index, cached, data: &_| {
                    let payload = to_json(data).expect("cell serialization is infallible");
                    let _ = tx.send(format!(
                        r#"{{"id":{},"event":"cell","index":{index},"cached":{cached},"data":{payload}}}"#,
                        quoted(&req.id)
                    ));
                    maybe_emit_health(store, tx, last_health, &req.id);
                }),
            }
        };
    }
    let (cfg, seed, budget) = (AccelConfig::default(), req.seed, req.retry_budget);
    let fractions = |default: &'static [f64]| req.fractions.as_deref().unwrap_or(default);
    let rates = |default: &'static [f64]| req.rates.as_deref().unwrap_or(default);
    let net_only = std::slice::from_ref(&net);
    let result: Result<String, Cancelled> = match req.kind.as_str() {
        "chaos-curve" => {
            let fractions = fractions(&DEFAULT_FRACTIONS);
            chaos_curve(&net, cfg, seed, fractions, req.dram_rate, budget, ctx!()).map(serialize)
        }
        "chaos-grid" => {
            let (f, r) = (
                fractions(&DEFAULT_GRID_FRACTIONS),
                rates(&DEFAULT_GRID_RATES),
            );
            chaos_grid(&net, cfg, seed, f, r, budget, ctx!()).map(serialize)
        }
        "chaos-grid3" => {
            let (f, r) = (
                fractions(&DEFAULT_GRID_FRACTIONS),
                rates(&DEFAULT_GRID_RATES),
            );
            let s = req
                .site_rates
                .as_deref()
                .unwrap_or(&DEFAULT_GRID_SITE_RATES);
            chaos_grid3(&net, cfg, seed, f, r, s, budget, ctx!()).map(serialize)
        }
        "control-path" => {
            let (policies, rates) = (&CONTROL_PATH_POLICIES, rates(&DEFAULT_CONTROL_PATH_RATES));
            control_path(&net, cfg, seed, policies, rates, budget, ctx!()).map(serialize)
        }
        "scheduler" => {
            let (policies, rates) = (&SCHEDULER_POLICIES, rates(&DEFAULT_SCHEDULER_RATES));
            scheduler(&net, cfg, seed, policies, rates, budget, ctx!()).map(serialize)
        }
        "retry-budget" => {
            let budgets = req.budgets.as_deref().unwrap_or(&DEFAULT_RETRY_BUDGETS);
            retry_budget(&net, cfg, seed, req.dram_rate, budgets, ctx!()).map(serialize)
        }
        "compare" => compare(&[cfg], net_only, ctx!()).map(serialize),
        "capacity-sweep" => {
            let caps = req
                .capacities_kib
                .as_deref()
                .unwrap_or(&DEFAULT_CAPACITIES_KIB);
            let configs: Vec<AccelConfig> = caps
                .iter()
                .map(|&kib| cfg.with_fm_capacity(kib * 1024))
                .collect();
            compare(&configs, net_only, ctx!()).map(serialize)
        }
        other => {
            let _ = tx.send(error_line(
                &req.id,
                "unserviceable",
                &format!(
                    "unknown kind {other:?} (expected chaos-curve, chaos-grid, chaos-grid3, \
                     control-path, scheduler, retry-budget, compare, or capacity-sweep)"
                ),
            ));
            return;
        }
    };
    let result = match result {
        Ok(result) => result,
        Err(Cancelled) => {
            let (reason, msg) = if write_failed.load(Ordering::Relaxed) {
                (
                    "write-failed",
                    "client write failed; request aborted".to_string(),
                )
            } else {
                (
                    "deadline",
                    format!("deadline of {} ms exceeded", deadline_ms.unwrap_or(0)),
                )
            };
            let _ = tx.send(error_line(&req.id, reason, &msg));
            return;
        }
    };
    // A transition on the final put would otherwise go unreported.
    maybe_emit_health(store, tx, last_health, &req.id);
    let cache = to_json(&session.stats()).expect("stats serialization is infallible");
    let ms = if options.deterministic_timing {
        0.0
    } else {
        t0.elapsed().as_secs_f64() * 1e3
    };
    let _ = tx.send(format!(
        r#"{{"id":{},"event":"done","ms":{ms:.3},"result":{result},"cache":{cache}}}"#,
        quoted(&req.id)
    ));
}

fn serialize<T: Serialize>(value: T) -> String {
    to_json(&value).expect("sweep result serialization is infallible")
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn tmp_store(tag: &str) -> ResultCache {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("sm-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(&dir).unwrap()
    }

    fn serve(store: &ResultCache, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        run_serve(input.as_bytes(), &mut out, store, &ServeOptions::default()).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn streams_cells_then_done_and_second_request_hits_cache() {
        let store = tmp_store("overlap");
        let req = r#"{"id":"r1","kind":"chaos-grid","network":"toy_residual","seed":7,"fractions":[0.0,0.3],"rates":[0.0,0.2]}"#;
        let lines = serve(&store, &format!("{req}\n{}\n", req.replace("r1", "r2")));

        // Request r1: accepted, 4 cell events (all computed), done.
        assert!(lines[0].contains(r#""id":"r1","event":"accepted","kind":"chaos-grid""#));
        let r1_cells: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(r#""id":"r1","event":"cell""#))
            .collect();
        assert_eq!(r1_cells.len(), 4);
        assert!(r1_cells.iter().all(|l| l.contains(r#""cached":false"#)));
        let r1_done = lines
            .iter()
            .find(|l| l.contains(r#""id":"r1","event":"done""#))
            .unwrap();
        assert!(r1_done.contains(r#""misses":4"#));

        // Request r2 overlaps 100%: every cell cached, zero misses.
        let r2_cells: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(r#""id":"r2","event":"cell""#))
            .collect();
        assert_eq!(r2_cells.len(), 4);
        assert!(r2_cells.iter().all(|l| l.contains(r#""cached":true"#)));
        let r2_done = lines
            .iter()
            .find(|l| l.contains(r#""id":"r2","event":"done""#))
            .unwrap();
        assert!(r2_done.contains(r#""hits":4"#));
        assert!(r2_done.contains(r#""misses":0"#));

        // Byte-identical results across the two requests.
        let payload = |l: &str| {
            l.split(r#""result":"#)
                .nth(1)
                .unwrap()
                .split(r#","cache":"#)
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(payload(r1_done), payload(r2_done));
    }

    #[test]
    fn cell_events_arrive_in_index_order() {
        let store = tmp_store("order");
        let lines = serve(
            &store,
            r#"{"id":"q","kind":"retry-budget","network":"toy_residual","dram_rate":0.2,"budgets":[0,1,2]}"#,
        );
        let indices: Vec<usize> = lines
            .iter()
            .filter(|l| l.contains(r#""event":"cell""#))
            .map(|l| {
                l.split(r#""index":"#)
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn bad_requests_get_error_events_and_the_service_keeps_going() {
        let store = tmp_store("errors");
        let input = "not json\n\
                     {\"id\":\"a\",\"kind\":\"wat\",\"network\":\"toy_residual\"}\n\
                     {\"id\":\"b\",\"kind\":\"compare\",\"network\":\"nope\"}\n\
                     {\"id\":\"c\",\"kind\":\"compare\",\"network\":\"toy_residual\"}\n";
        let lines = serve(&store, input);
        assert!(lines[0].contains(r#""id":"","event":"error""#));
        assert!(lines[0].contains(r#""reason":"bad-request""#));
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"a","event":"error""#)
                && l.contains(r#""reason":"unserviceable""#)
                && l.contains("unknown kind")));
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"b","event":"error""#) && l.contains("unknown network")));
        assert!(lines
            .iter()
            .any(|l| l.contains(r#""id":"c","event":"done""#)));
    }

    #[test]
    fn capacity_sweep_shares_cells_with_compare() {
        let store = tmp_store("share");
        // The capacity sweep at 512 KiB and a compare at the default config
        // are distinct cells; re-running the sweep hits every one.
        let sweep = r#"{"id":"s1","kind":"capacity-sweep","network":"toy_residual","capacities_kib":[64,512]}"#;
        let lines = serve(&store, &format!("{sweep}\n{}\n", sweep.replace("s1", "s2")));
        let done = |id: &str| {
            lines
                .iter()
                .find(|l| l.contains(&format!(r#""id":"{id}","event":"done""#)))
                .unwrap()
                .clone()
        };
        assert!(done("s1").contains(r#""misses":2"#));
        assert!(done("s2").contains(r#""hits":2"#));
        assert!(done("s2").contains(r#""misses":0"#));
    }

    #[test]
    fn expired_deadline_cancels_with_a_typed_error_and_zero_cells() {
        let store = tmp_store("deadline");
        let lines = serve(
            &store,
            r#"{"id":"d","kind":"chaos-grid","network":"toy_residual","deadline_ms":0}"#,
        );
        assert!(lines[0].contains(r#""id":"d","event":"accepted""#));
        let error = lines
            .iter()
            .find(|l| l.contains(r#""event":"error""#))
            .expect("deadline error emitted");
        assert!(error.contains(r#""reason":"deadline""#), "{error}");
        assert!(
            !lines.iter().any(|l| l.contains(r#""event":"cell""#)),
            "deadline 0 must emit zero cells"
        );
        assert!(!lines.iter().any(|l| l.contains(r#""event":"done""#)));
        // The same request without the deadline completes normally.
        let ok = serve(
            &store,
            r#"{"id":"d2","kind":"chaos-grid","network":"toy_residual"}"#,
        );
        assert!(ok.iter().any(|l| l.contains(r#""id":"d2","event":"done""#)));
    }

    #[test]
    fn inline_graph_and_net_file_requests_are_served() {
        let store = tmp_store("graph");
        let net = zoo::toy_residual(1);
        let doc = graph::export_json(&net);

        // Inline graph: the document travels as a JSON string field.
        let inline = format!(r#"{{"id":"g1","kind":"compare","graph":{}}}"#, quoted(&doc));
        // net_file: same document from the server's filesystem.
        let path = std::env::temp_dir().join(format!("sm-serve-graph-{}.json", std::process::id()));
        std::fs::write(&path, &doc).unwrap();
        let from_file = format!(
            r#"{{"id":"g2","kind":"compare","net_file":{}}}"#,
            quoted(&path.to_string_lossy())
        );
        // Zoo request for the same network: must share the cache cells,
        // because the ingested graph round-trips to the identical network.
        let by_name = r#"{"id":"g3","kind":"compare","network":"toy_residual"}"#;

        let lines = serve(&store, &format!("{inline}\n{from_file}\n{by_name}\n"));
        let done = |id: &str| {
            lines
                .iter()
                .find(|l| l.contains(&format!(r#""id":"{id}","event":"done""#)))
                .unwrap_or_else(|| panic!("no done for {id}: {lines:?}"))
                .clone()
        };
        assert!(done("g1").contains(r#""misses":1"#));
        assert!(done("g2").contains(r#""hits":1"#), "{}", done("g2"));
        assert!(done("g3").contains(r#""hits":1"#), "{}", done("g3"));
        // A *different* graph with the same name must not alias: rename-proof
        // keys come from the content fingerprint.
        let other = graph::export_json(&zoo::toy_residual(2));
        let aliased = format!(
            r#"{{"id":"g4","kind":"compare","graph":{}}}"#,
            quoted(&other)
        );
        let lines = serve(&store, &format!("{aliased}\n"));
        let g4 = lines
            .iter()
            .find(|l| l.contains(r#""id":"g4","event":"done""#))
            .unwrap();
        assert!(g4.contains(r#""misses":1"#), "{g4}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interleaved_serving_is_byte_identical_to_sequential() {
        let store_seq = tmp_store("mux-seq");
        let store_par = tmp_store("mux-par");
        let reqs: String = (0..4)
            .map(|i| {
                format!(
                    r#"{{"id":"m{i}","kind":"chaos-curve","network":"toy_residual","seed":{i},"fractions":[0.0,0.2]}}"#,
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        let opts_seq = ServeOptions {
            deterministic_timing: true,
            ..ServeOptions::default()
        };
        let opts_par = ServeOptions {
            max_inflight: 4,
            deterministic_timing: true,
            ..ServeOptions::default()
        };
        let mut seq = Vec::new();
        run_serve(reqs.as_bytes(), &mut seq, &store_seq, &opts_seq).unwrap();
        let mut par = Vec::new();
        run_serve(reqs.as_bytes(), &mut par, &store_par, &opts_par).unwrap();
        assert_eq!(
            String::from_utf8(seq).unwrap(),
            String::from_utf8(par).unwrap(),
            "the admission-order mux must make interleaving invisible"
        );
    }

    /// A writer that fails with `BrokenPipe` after a byte budget — the
    /// closed-client-pipe case.
    struct FailingWriter {
        budget: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget < buf.len() {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "client went away",
                ));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn client_write_failure_aborts_the_request_and_surfaces_the_error() {
        let store = tmp_store("write-fail");
        // The pipe closes immediately: even the `accepted` line fails.
        // The old service swallowed this (`let _ = emit(...)`) and kept
        // simulating for a dead client; now the first failure latches and
        // run_serve reports it.
        let out = FailingWriter { budget: 0 };
        let err = run_serve(
            r#"{"id":"w","kind":"chaos-grid","network":"toy_residual"}"#.as_bytes(),
            out,
            &store,
            &ServeOptions::default(),
        )
        .expect_err("the latched write error must surface");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
