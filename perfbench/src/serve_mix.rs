//! The `hexd_mix` workload: an in-process `hexd` on a Unix socket, with
//! the daemon's shipped defaults (`ServeConfig::from_knobs()`, overriding
//! only the address and the cache directory), and two closed-loop clients
//! that each wait for a reply before sending the next query.
//!
//! Every query is a Table-1 skew point (50×20, 16 runs, one of the four
//! scenarios); the plan is in [`crate::mix`]. A traced run alternates
//! untraced and traced blocks, then rebuilds a sample of the traced cold
//! queries outside the daemon, one layer call at a time (canonical
//! encoding, hash, frame codecs, a private cache, the batch fold and the
//! table), so that the part of cold latency no layer accounts for shows
//! as `serve.unattributed_ms`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use hex_analysis::reduce::{batch_skews, skew_summary_table, ObservedSkewReducer};
use hex_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use hex_serve::{serve, Cache, Client, Lookup, Query, QueryKind, ServeConfig, ServerHandle};
use hex_sim::canon::{decode_spec, encode_spec, engine_version};

use crate::mix::{derive, ClientPlan, Point, Step, QUERY_RUNS};
use crate::stats::{median, windowed_rate};
use crate::sweep::{fold_layer_values, traced_fold};
use crate::trace::{Span, Tracer};
use crate::{op_span, Args, Outcome, RATE_WINDOWS, RECONCILE_TOLERANCE_PCT};

/// The layer calls a cold query makes, one entry per call: the daemon
/// decodes the spec twice, on admission and in the worker.
const COLD_PATH: [&str; 11] = [
    "canon.encode",
    "protocol.request_codec",
    "canon.decode",
    "canon.decode",
    "canon.hash",
    "cache.load_miss",
    "spec.grid_build",
    "batch",
    "emit",
    "cache.store",
    "protocol.response_codec",
];

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: u64 = 9;
/// Cold payloads compared with an in-process `batch_skews` computation.
const REFERENCE_CHECKS: usize = 4;
/// Traced cold queries rebuilt layer by layer outside the daemon.
const REBUILDS: usize = 24;
/// `sun_path` holds 108 bytes including the terminator.
const MAX_SOCKET_PATH: usize = 100;
/// Seed stream of the set-up's warm-up queries.
const WARM_UP: u64 = 2;
/// Warm-up queries per set-up, one per scenario.
const WARM_UPS: usize = 4;

/// A running daemon that is shut down, and whose socket and cache are
/// removed, when dropped — on every exit path, unwinding included.
struct Daemon {
    handle: Option<ServerHandle>,
    dir: PathBuf,
    addr: String,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let socket = dir.join("hexd.sock");
        let addr = format!("unix:{}", socket.display());
        if socket.as_os_str().len() > MAX_SOCKET_PATH {
            return Err(format!(
                "socket path {} is longer than {MAX_SOCKET_PATH} bytes; run from a shorter directory",
                socket.display()
            ));
        }
        let mut daemon = Daemon {
            handle: None,
            dir,
            addr,
        };
        std::fs::create_dir_all(&daemon.dir)
            .map_err(|e| format!("create {}: {e}", daemon.dir.display()))?;
        let mut cfg = ServeConfig::from_knobs();
        cfg.addr = daemon.addr.clone();
        cfg.cache_dir = daemon.dir.join("cache");
        daemon.handle = Some(serve(cfg).map_err(|e| format!("hexd failed to start: {e}"))?);
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The block barrier of the two clients. Whoever arrives last decides
/// whether the measurement is over; a client that leaves (finished or
/// panicking) releases the other.
struct Rendezvous {
    state: Mutex<(u64, usize, bool, bool)>, // generation, arrived, stop, someone left
    turn: Condvar,
    parties: usize,
    deadline: Instant,
}

impl Rendezvous {
    fn new(parties: usize, deadline: Instant) -> Rendezvous {
        Rendezvous {
            state: Mutex::new((0, 0, false, false)),
            turn: Condvar::new(),
            parties,
            deadline,
        }
    }

    /// Wait for the other clients; true means stop.
    fn sync(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.3 {
            return true;
        }
        s.1 += 1;
        if s.1 == self.parties {
            *s = (s.0 + 1, 0, Instant::now() >= self.deadline, false);
            self.turn.notify_all();
            return s.2;
        }
        let generation = s.0;
        while s.0 == generation && !s.3 {
            s = self.turn.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.2 || s.3
    }

    fn leave(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).3 = true;
        self.turn.notify_all();
    }
}

struct Leave<'a>(&'a Rendezvous);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        self.0.leave();
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failures: Vec<String>,
    /// (latency in s, sent in a traced block) per cold and warm query.
    cold: Vec<(f64, bool)>,
    warm: Vec<(f64, bool)>,
    /// Reply bytes of every point this client sent as new.
    payloads: BTreeMap<Point, Vec<u8>>,
    /// Points of the cold queries sent in traced blocks, in order.
    traced_cold: Vec<Point>,
    /// (start, end, runs computed for it) of every answered query; a
    /// coalesced point's runs are split between its two senders.
    ops: Vec<(f64, f64, f64)>,
}

fn client_loop(
    c: u64,
    start: Instant,
    client: &mut Client,
    seed: u64,
    rdv: &Rendezvous,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let _leave = Leave(rdv);
    let mut plan = ClientPlan::new(seed, c);
    let mut log = ClientLog::default();
    let mut seq = 0u64;
    for block in 0u64.. {
        if rdv.sync() {
            break;
        }
        let traced = tracer.filter(|_| block % 2 == 1);
        if let (Some(tr), 0) = (traced, c) {
            let t0 = Instant::now();
            let pong = client.ping();
            tr.record(Span {
                id: block,
                name: "serve.ping",
                start_ns: tr.at(t0),
                end_ns: tr.now(),
                ..Span::default()
            });
            if let Err(e) = pong {
                log.failures.push(format!("client {c}: ping failed: {e}"));
            }
        }
        for step in plan.next_block() {
            let (point, cold, runs) = match step {
                Step::Coalesce(p) => (p, true, QUERY_RUNS as f64 / 2.0),
                Step::Cold(p) => (p, true, QUERY_RUNS as f64),
                Step::Warm(p) => (p, false, 0.0),
            };
            let t0 = Instant::now();
            let reply = client.query(QueryKind::Skew, 0, &point.spec());
            let secs = t0.elapsed().as_secs_f64();
            if let Some(tr) = traced {
                tr.record(Span {
                    id: (c << 32) | seq,
                    name: if cold { "query.cold" } else { "query.warm" },
                    start_ns: tr.at(t0),
                    end_ns: tr.now(),
                    ..Span::default()
                });
            }
            seq += 1;
            log.attempted += 1;
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    log.failures.push(format!("client {c}: query failed: {e}"));
                    continue;
                }
            };
            log.ops.push(op_span(start, t0, runs));
            if cold {
                log.cold.push((secs, traced.is_some()));
                if traced.is_some() {
                    log.traced_cold.push(point);
                }
                log.payloads.insert(point, reply.payload);
            } else {
                log.warm.push((secs, traced.is_some()));
                if log.payloads.get(&point) != Some(&reply.payload) {
                    log.failures.push(format!(
                        "client {c}: warm reply for seed {} differs from its cold reply",
                        point.seed
                    ));
                }
            }
        }
    }
    log
}

/// Start a daemon, connect both clients, ping them, and send one
/// warm-up query per scenario ([`WARM_UPS`] computations).
fn set_up(dir: &Path, seed: u64, k: u64) -> Result<(Daemon, Vec<Client>), String> {
    let daemon = Daemon::start(dir.join(format!("d{k}")))?;
    let mut clients = Vec::new();
    for _ in 0..2 {
        let mut client =
            Client::connect(&daemon.addr).map_err(|e| format!("connect {}: {e}", daemon.addr))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        clients.push(client);
    }
    for scenario in 0..WARM_UPS as u8 {
        let warm_up = Point {
            seed: derive(seed, WARM_UP, k),
            scenario,
        };
        clients[0]
            .query(QueryKind::Skew, 0, &warm_up.spec())
            .map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok((daemon, clients))
}

/// Read one counter from the daemon's `stats` JSON.
fn stat(json: &str, key: &str) -> Result<f64, String> {
    let tail = json
        .split(&format!("\"{key}\":"))
        .nth(1)
        .ok_or_else(|| format!("stats reply lacks {key}: {json}"))?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .map_err(|_| format!("stats reply has a malformed {key}: {json}"))
}

pub fn run(args: &Args, threads: usize, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        // Tear the previous daemon down outside the timed region.
        drop(live.take());
        let t = Instant::now();
        live = Some(set_up(&args.dir, args.seed, k)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (daemon, mut clients) = live.expect("at least one set-up");

    let start = Instant::now();
    let rdv = Rendezvous::new(2, start + Duration::from_secs(args.seconds));
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let rdv = &rdv;
                s.spawn(move || client_loop(c as u64, start, client, args.seed, rdv, tracer))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let stats = clients[0]
        .stats_json()
        .map_err(|e| format!("stats: {e}"))
        .map(|b| String::from_utf8_lossy(&b).into_owned())?;
    drop(clients);

    let mut out = Outcome::default();
    for log in &logs {
        out.attempted += log.attempted;
        for f in &log.failures {
            out.fail(f.clone());
        }
    }
    // Coalesced points: both clients must have received the same bytes.
    for (point, bytes) in &logs[0].payloads {
        if logs[1].payloads.get(point).is_some_and(|b| b != bytes) {
            out.fail(format!(
                "coalesced seed {}: the clients got different bytes",
                point.seed
            ));
        }
    }
    // Cold payloads against an in-process computation, one per scenario.
    let mut by_scenario = BTreeMap::new();
    for (point, bytes) in &logs[0].payloads {
        by_scenario.entry(point.scenario).or_insert((*point, bytes));
    }
    for (point, bytes) in by_scenario.into_values().take(REFERENCE_CHECKS) {
        let local = skew_summary_table(&batch_skews(&point.spec().threads(threads), 0)).to_json();
        if local.as_bytes() != bytes.as_slice() {
            out.fail(format!(
                "seed {}: the daemon's payload differs from batch_skews",
                point.seed
            ));
        }
    }
    // Dedup: one computation per distinct new point, plus the warm-ups.
    let distinct: BTreeSet<&Point> = logs.iter().flat_map(|l| l.payloads.keys()).collect();
    let computations = stat(&stats, "computations")?;
    if computations != (distinct.len() + WARM_UPS) as f64 {
        out.fail(format!(
            "hexd ran {computations} computations for {} distinct new points and {WARM_UPS} \
             warm-ups",
            distinct.len()
        ));
    }
    let rejected = stat(&stats, "rejected")?;
    for _ in 0..rejected as u64 {
        out.fail("hexd answered busy".to_string());
    }

    let cold: Vec<f64> = logs.iter().flat_map(|l| &l.cold).map(|s| s.0).collect();
    let warm: Vec<f64> = logs.iter().flat_map(|l| &l.warm).map(|s| s.0).collect();
    out.put("setup_s", median(&setups));
    let ops: Vec<_> = logs.iter().flat_map(|l| l.ops.iter().copied()).collect();
    let queries: Vec<_> = ops.iter().map(|&(s, e, _)| (s, e, 1.0)).collect();
    out.put("queries_per_s", windowed_rate(&queries, wall, RATE_WINDOWS));
    out.put("runs_per_s", windowed_rate(&ops, wall, RATE_WINDOWS));
    out.latencies(&cold, &warm);

    if let Some(tr) = tracer {
        // A coalesced point is cold for both clients; rebuild it once.
        let mut seen = BTreeSet::new();
        let traced_cold: Vec<Point> = logs
            .iter()
            .flat_map(|l| l.traced_cold.iter().copied())
            .filter(|p| seen.insert(*p))
            .collect();
        let payloads = |p: &Point| logs.iter().find_map(|l| l.payloads.get(p));
        let mut cache = Cache::open(daemon.dir.join("private-cache"), 0)
            .map_err(|e| format!("open a private cache: {e}"))?;
        let n = REBUILDS.min(traced_cold.len());
        for i in 0..n {
            let point = traced_cold[i * traced_cold.len() / n];
            let bytes = rebuild(tr, &mut cache, i as u64, point, threads)?;
            if payloads(&point) != Some(&bytes) {
                out.fail(format!(
                    "seed {}: the rebuilt payload differs from the daemon's",
                    point.seed
                ));
            }
        }
        let t = tr.finish();
        // Each rebuilt query's cold path, in ms.
        let mut rebuilt = BTreeMap::new();
        for s in &t.spans {
            if let Some(root) = s.parent.filter(|&p| t.spans[p].name == "rebuild") {
                if COLD_PATH.contains(&s.name) {
                    *rebuilt.entry(root).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
                }
            }
        }
        let rebuilt: Vec<f64> = rebuilt.into_values().collect();
        fold_layer_values(&t, threads, &mut |n, v| out.put(n, v));
        let med = |name: &str| median(&t.durations_us(name));
        for (metric, span) in [
            ("canon.encode_us", "canon.encode"),
            ("canon.decode_us", "canon.decode"),
            ("canon.hash_us", "canon.hash"),
            ("protocol.request_codec_us", "protocol.request_codec"),
            ("protocol.response_codec_us", "protocol.response_codec"),
            ("serve.ping_us", "serve.ping"),
            ("cache.load_hit_us", "cache.load_hit"),
            ("cache.load_miss_us", "cache.load_miss"),
            ("cache.store_us", "cache.store"),
        ] {
            out.put(metric, med(span));
        }
        let hits = stat(&stats, "cache_hits")?;
        let coalesced = stat(&stats, "coalesced")?;
        out.put("cache.hit_ratio", hits / (hits + computations + coalesced));
        out.put("cache.entries", stat(&stats, "cache_entries")?);
        out.put("serve.computations", computations);
        out.put("serve.coalesced", coalesced);
        out.put("serve.rejected", rejected);
        let split = |traced: bool| -> Vec<f64> {
            logs.iter()
                .flat_map(|l| &l.cold)
                .filter(|s| s.1 == traced)
                .map(|s| s.0 * 1e3)
                .collect()
        };
        let (plain, traced) = (median(&split(false)), median(&split(true)));
        // Cold latency the daemon's layer calls, made one at a time outside
        // it, do not account for: queueing, socket hand-offs and the other
        // client's work on the same cores.
        let unattributed_ms = traced - median(&rebuilt);
        out.put("serve.unattributed_ms", unattributed_ms);
        out.put("campaign.unrecovered_midway", 0.0);

        out.put("trace.overhead_pct", 100.0 * (traced - plain) / plain);
        let layers_ms: f64 = COLD_PATH.iter().map(|n| med(n) / 1e3).sum();
        let reconcile_pct = 100.0 * (plain - (layers_ms + unattributed_ms)) / plain;
        if reconcile_pct.abs() > RECONCILE_TOLERANCE_PCT {
            out.fail(format!(
                "rebuilt layers plus unattributed time miss cold p50 by {reconcile_pct:.1}%"
            ));
        }
        out.put("trace.reconcile_pct", reconcile_pct);
        out.put("trace.spans", t.spans.len() as f64);
        out.trace = Some(t);
    }
    drop(daemon);
    Ok(out)
}

/// Rebuild one cold query outside the daemon, one span per layer call
/// under a `rebuild` span, in the order the daemon makes them (the
/// [`COLD_PATH`]), and return its payload.
fn rebuild(
    tr: &Tracer,
    cache: &mut Cache,
    i: u64,
    point: Point,
    threads: usize,
) -> Result<Vec<u8>, String> {
    let id = (1 << 48) | i;
    let root = tr.open("rebuild", id, None);
    let spec = point.spec();
    let spec_bytes = tr.time("canon.encode", id, root, || encode_spec(&spec));
    let query = Query {
        kind: QueryKind::Skew,
        h: 0,
        spec_bytes,
    };
    let request = Request::Query(query.clone());
    let echoed = tr.time("protocol.request_codec", id, root, || {
        decode_request(&encode_request(&request))
    });
    if echoed.as_ref() != Ok(&request) {
        return Err("request frame codec did not round-trip".to_string());
    }
    for _ in 0..2 {
        tr.time("canon.decode", id, root, || decode_spec(&query.spec_bytes))?;
    }
    let hash = tr.time("canon.hash", id, root, || query.hash());
    if tr.time("cache.load_miss", id, root, || cache.load(hash)) != Lookup::Miss {
        return Err(format!("private cache already held seed {}", point.seed));
    }
    let spec = decode_spec(&query.spec_bytes)?.threads(threads);
    let grid = tr.time("spec.grid_build", id, root, || spec.hex_grid());
    let reducer = ObservedSkewReducer::new(&grid, 0);
    let acc = traced_fold(&spec, &grid, &reducer, tr, id, root);
    let payload = tr.time("emit", id, root, || {
        skew_summary_table(&acc).to_json().into_bytes()
    });
    tr.time("cache.store", id, root, || cache.store(hash, &payload))
        .map_err(|e| format!("private cache store: {e}"))?;
    let reply = Response::Ok {
        cached: false,
        engine: engine_version(),
        query_hash: hash,
        payload: payload.clone(),
    };
    let echoed = tr.time("protocol.response_codec", id, root, || {
        decode_response(&encode_response(&reply))
    });
    if echoed.as_ref() != Ok(&reply) {
        return Err("response frame codec did not round-trip".to_string());
    }
    // Off the cold path: the daemon derives run inputs inside the fold.
    tr.time("spec.materialize", id, root, || spec.materialize(0));
    // Off the cold path: what the next (warm) query for it would cost.
    if tr.time("cache.load_hit", id, root, || cache.load(hash)) != Lookup::Hit(payload.clone()) {
        return Err(format!("private cache lost seed {}", point.seed));
    }
    tr.close(root);
    Ok(payload)
}
