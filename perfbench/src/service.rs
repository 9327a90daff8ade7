//! The `service-open` workload: `gumbo_service::server::serve` in this
//! process on a `SimDfs`, driven open-loop by two tenants on two
//! connections.
//!
//! The server runs one dispatcher, so it evaluates one request at a
//! time. Every submission shares one DFS namespace (ROADMAP: tenant
//! isolation), so with two dispatchers distinct queries that define the
//! same output name race, and a random few replies per thousand carry
//! the other query's answer: a failure count that differs from run to
//! run. The leak is shown deterministically instead, by
//! [`isolation_probe`] in every run.
//!
//! The service runs on the in-memory DFS because on a shared machine the
//! durable DFS's fsync per committed relation swings request latency by
//! tens of percent from one run to the next; the durable commit path is
//! measured by `nested-durable` instead.
//!
//! Requests are due on a fixed schedule (`RATE_PER_S` in total, the
//! connections alternating). Each connection has a sender thread that
//! writes every request at its due time without waiting for replies, and
//! a reader thread that collects the replies in order. Latency runs from
//! the due time to the last frame, so a stall delays every request
//! queued behind it. Every reply is compared with the naive evaluator's
//! answer; a mismatch, an error frame or a refusal is a failed request.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gumbo_common::{Database, GumboError, Relation, Result};
use gumbo_core::{EvalOptions, GumboEngine};
use gumbo_datagen::queries;
use gumbo_mr::{EngineConfig, ExecutorKind, MemBudget};
use gumbo_obs::json::Json;
use gumbo_obs::now_ns;
use gumbo_sched::{PlacementPolicy, SchedulerConfig};
use gumbo_service::protocol::{Frame, Request};
use gumbo_service::server::{serve, ServeConfig};
use gumbo_sgf::{parse_program, NaiveEvaluator};
use gumbo_storage::{Dfs, SimDfs};

use crate::batch::{oracle_outputs, parse_ms};
use crate::probe::{Op, Recorder, TimedDfs};
use crate::stats::{median, mib, peak_rss_mb, quantile, reset_peak_rss, samples_beyond};
use crate::{Args, Report};

/// Guard tuples per relation of the served database.
pub const TUPLES: usize = 2_000;
/// Offered load, requests per second over both connections. A request's
/// evaluation takes about 33 ms at the median, so the dispatcher is busy
/// well under half the time.
pub const RATE_PER_S: f64 = 8.0;
/// Dispatchers of the served engine (each runs `parallel:1`).
pub const DISPATCHERS: usize = 1;
/// The two tenants and their fair-share weights, one per connection.
pub const TENANTS: [(&str, f64); 2] = [("t1", 1.0), ("t2", 2.0)];
/// Set-ups per run (the median is `setup_s`). One lasts about 50 ms, so
/// a run takes many to steady the median.
pub const SETUP_REPS: usize = 40;
/// How long a reader waits for the next frame before the run is invalid.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One query of the mix, with its expected answer.
pub struct MixQuery {
    pub name: String,
    pub text: String,
    pub oracle: Vec<Relation>,
}

/// The request mix, in the order requests cycle through it. A1, A3 and
/// B2 all define `Out`; C3 and C4 share `Z11`–`Z21`.
pub fn mix() -> [gumbo_datagen::Workload; 6] {
    [
        queries::a1(),
        queries::a3(),
        queries::b2(),
        queries::c2(),
        queries::c3(),
        queries::c4(),
    ]
}

/// `workloads` with their expected answers over `db`.
pub fn mix_queries(workloads: &[gumbo_datagen::Workload], db: &Database) -> Result<Vec<MixQuery>> {
    workloads
        .iter()
        .map(|w| {
            Ok(MixQuery {
                name: w.name.clone(),
                text: w.query.to_string(),
                oracle: oracle_outputs(&w.query, db)?,
            })
        })
        .collect()
}

/// The service's engine: `parallel:1` per dispatcher, one job at a time
/// on the DAG scheduler, no 1-ROUND fusion (the CLI `serve` defaults).
pub fn engine() -> GumboEngine {
    GumboEngine::with_executor(
        EngineConfig::default(),
        ExecutorKind::Parallel { threads: 1 },
        EvalOptions {
            enable_one_round: false,
            ..EvalOptions::default()
        }
        .with_scheduler(SchedulerConfig {
            max_concurrent_jobs: 1,
            threads_per_job: 1,
            mem_budget: MemBudget::UNLIMITED,
            placement: PlacementPolicy::Fifo,
            core_budget: 0,
        }),
    )
}

/// What the sender knows about one request.
struct Sent {
    mix: usize,
    due_ns: u64,
    sent_ns: u64,
}

/// Modeled statistics of one reply: net time, total time, communication
/// bytes, jobs, mean estimate error.
type Modeled = (f64, f64, u64, u64, f64);

/// One answered (or failed) request.
struct Reply {
    mix: usize,
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    /// `(queued, admitted, completed)` server timestamps.
    stamps: Option<(u64, u64, u64)>,
    modeled: Option<Modeled>,
    ok: bool,
}

impl Reply {
    fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
}

/// The mean over the mix of each query's median latency, in ms. The mix
/// is half light (A1, A3, B2) and half heavy (C2, C3, C4) queries, so the
/// plain median of all requests sits in the gap between the two modes
/// and jumps from run to run; per-query medians do not.
fn mix_latency_ms(replies: &[Reply], mix_len: usize) -> f64 {
    let per_query: Vec<f64> = (0..mix_len)
        .map(|m| {
            let lat: Vec<f64> = replies
                .iter()
                .filter(|r| r.mix == m)
                .map(Reply::latency_ms)
                .collect();
            median(&lat)
        })
        .collect();
    per_query.iter().sum::<f64>() / mix_len as f64
}

/// Outcome of one open-loop phase against one server.
struct Phase {
    replies: Vec<Reply>,
    /// Scheduled requests without a reply (not sent, or the reader gave
    /// up on them).
    lost: u64,
    accepted: u64,
    completed: u64,
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> std::io::Result<(Vec<Relation>, Option<Json>)> {
    let mut relations: Vec<Relation> = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let frame = Frame::parse(&line).map_err(std::io::Error::other)?;
        match frame {
            Frame::Rel { name, arity, .. } => relations.push(Relation::new(name, arity)),
            Frame::Rows { name, rows } => {
                let rel = relations
                    .iter_mut()
                    .rev()
                    .find(|r| r.name().as_str() == name)
                    .ok_or_else(|| std::io::Error::other("rows for an undeclared relation"))?;
                for tuple in rows {
                    rel.insert(tuple).map_err(std::io::Error::other)?;
                }
            }
            Frame::Stats { report } => return Ok((relations, Some(report))),
            Frame::Error { .. } => return Ok((relations, None)),
            other => return Err(std::io::Error::other(format!("unexpected frame {other:?}"))),
        }
    }
}

fn stamps_of(report: &Json) -> Option<(u64, u64, u64)> {
    let get = |k: &str| report.get(k).and_then(Json::as_u64);
    Some((get("queued_ns")?, get("admitted_ns")?, get("completed_ns")?))
}

fn modeled_of(report: &Json) -> Option<Modeled> {
    let stats = report.get("stats")?;
    Some((
        stats.get("net_time")?.as_f64()?,
        stats.get("total_time")?.as_f64()?,
        stats.get("communication_bytes")?.as_u64()?,
        stats.get("num_jobs")?.as_u64()?,
        stats
            .get("mean_estimate_error")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    ))
}

/// Serve `dfs` and drive it open-loop for `seconds`.
fn phase(dfs: Arc<dyn Dfs>, mix: &Arc<Vec<MixQuery>>, seconds: f64) -> std::io::Result<Phase> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let handle = serve(
        listener,
        dfs,
        engine(),
        ServeConfig {
            queue_capacity: 64,
            max_in_flight: DISPATCHERS,
            default_weight: 1.0,
        },
    )?;
    let total = ((seconds * RATE_PER_S).round() as usize).max(mix.len());
    let interval_ns = (1e9 / RATE_PER_S) as u64;
    let mut threads: Vec<std::thread::JoinHandle<Vec<Reply>>> = Vec::new();
    let start = Instant::now() + Duration::from_millis(50);
    let start_ns = now_ns() + 50_000_000;
    for (conn, (tenant, weight)) in TENANTS.iter().enumerate() {
        let stream = TcpStream::connect(handle.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let (tx, rx) = mpsc::channel::<Sent>();
        let requests: Vec<(usize, usize, String)> = (conn..total)
            .step_by(TENANTS.len())
            .map(|g| {
                let mut line = Request::Query {
                    tenant: tenant.to_string(),
                    weight: Some(*weight),
                    sgf: mix[g % mix.len()].text.clone(),
                }
                .to_line();
                line.push('\n');
                (g, g % mix.len(), line)
            })
            .collect();
        threads.push(std::thread::spawn(move || {
            for (g, mix, line) in requests {
                let offset = g as u64 * interval_ns;
                let due = start + Duration::from_nanos(offset);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent_ns = now_ns();
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
                let sent = Sent {
                    mix,
                    due_ns: start_ns + offset,
                    sent_ns,
                };
                if tx.send(sent).is_err() {
                    break;
                }
            }
            Vec::new()
        }));
        let mix = Arc::clone(mix);
        threads.push(std::thread::spawn(move || {
            let mut replies = Vec::new();
            for sent in rx {
                match read_reply(&mut reader) {
                    Ok((relations, report)) => {
                        let done_ns = now_ns();
                        let ok = report.is_some() && relations == mix[sent.mix].oracle;
                        replies.push(Reply {
                            mix: sent.mix,
                            due_ns: sent.due_ns,
                            sent_ns: sent.sent_ns,
                            done_ns,
                            stamps: report.as_ref().and_then(stamps_of),
                            modeled: report.as_ref().and_then(modeled_of),
                            ok,
                        });
                    }
                    Err(_) => break,
                }
            }
            replies
        }));
    }
    let mut replies = Vec::new();
    for t in threads {
        replies.extend(t.join().expect("client thread"));
    }
    let lost = (total - replies.len()) as u64;
    handle.shutdown();
    let summary = handle.join();
    replies.sort_by_key(|r| r.due_ns);
    Ok(Phase {
        replies,
        lost,
        accepted: summary.accepted,
        completed: summary.completed,
    })
}

/// The probe's second request: tenant t2 reads `Out`, which is no base
/// relation but the output tenant t1's A1 just wrote.
pub const PROBE_QUERY: &str = "Peek := SELECT (x, y, z, w) FROM Out(x, y, z, w);";

/// Outcome of the tenant-isolation probe.
pub struct Probe {
    pub attempted: u64,
    pub failed: u64,
    /// Rows t2 got back from t1's output (`None`: an error frame).
    pub leaked_rows: Option<usize>,
}

/// The tenant-isolation probe, on a server of its own over a fresh copy
/// of `db`. Tenant t1 asks A1 (`mix[0]`, which defines `Out`) and waits
/// for the reply; then tenant t2 asks [`PROBE_QUERY`]. The oracle, which
/// sees only the base relations, rejects that query, since its guard
/// `Out` does not exist, so the expected reply is an error frame. While
/// every submission shares one namespace, t2 gets t1's answer instead,
/// and that reply counts as failed. The requests are sequential, so the
/// outcome is the same in every run.
pub fn isolation_probe(db: &Database, mix: &[MixQuery]) -> std::io::Result<Probe> {
    let peek = parse_program(PROBE_QUERY).map_err(std::io::Error::other)?;
    if NaiveEvaluator::new().evaluate_sgf_all(&peek, db).is_ok() {
        return Err(std::io::Error::other(
            "the probe's guard is a base relation",
        ));
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let handle = serve(
        listener,
        Arc::new(SimDfs::from_database(db)),
        engine(),
        ServeConfig {
            queue_capacity: 64,
            max_in_flight: DISPATCHERS,
            default_weight: 1.0,
        },
    )?;
    let steps = [
        (TENANTS[0], mix[0].text.as_str(), Some(&mix[0].oracle)),
        (TENANTS[1], PROBE_QUERY, None),
    ];
    let mut probe = Probe {
        attempted: 0,
        failed: 0,
        leaked_rows: None,
    };
    let mut outcome = Ok(());
    for ((tenant, weight), sgf, expected) in steps {
        let asked = TcpStream::connect(handle.addr()).and_then(|stream| {
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            let mut line = Request::Query {
                tenant: tenant.to_string(),
                weight: Some(weight),
                sgf: sgf.to_string(),
            }
            .to_line();
            line.push('\n');
            stream.try_clone()?.write_all(line.as_bytes())?;
            read_reply(&mut BufReader::new(stream))
        });
        let (relations, report) = match asked {
            Ok(reply) => reply,
            Err(e) => {
                outcome = Err(e);
                break;
            }
        };
        probe.attempted += 1;
        let ok = match expected {
            Some(oracle) => report.is_some() && relations == *oracle,
            None => report.is_none(),
        };
        if !ok {
            probe.failed += 1;
        }
        if sgf == PROBE_QUERY {
            probe.leaked_rows = report.map(|_| relations.iter().map(Relation::len).sum());
        }
    }
    handle.shutdown();
    let summary = handle.join();
    outcome?;
    if summary.accepted != summary.completed {
        return Err(std::io::Error::other("the probe's server lost work"));
    }
    Ok(probe)
}

fn service_err(e: std::io::Error) -> GumboError {
    GumboError::Storage(format!("service connection: {e}"))
}

/// Run `service-open` for `args.seconds`.
pub fn run(args: &Args) -> Result<Report> {
    let mut report = Report::default();
    let data = queries::c3().with_tuples(TUPLES);
    let mix_workloads = mix();

    // Set-up: datagen + oracle for the whole mix + load into the DFS.
    let mut setup_s = Vec::new();
    let mut datagen_s = Vec::new();
    let mut oracle_s = Vec::new();
    let mut load_s = Vec::new();
    let mut served: Option<(Arc<dyn Dfs>, Vec<MixQuery>, Database)> = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        let t = Instant::now();
        let db = data.spec.database(args.seed);
        let t_oracle = Instant::now();
        let mix = mix_queries(&mix_workloads, &db)?;
        let t_load = Instant::now();
        let dfs = SimDfs::from_database(&db);
        let end = Instant::now();
        setup_s.push((end - t).as_secs_f64());
        datagen_s.push((t_oracle - t).as_secs_f64());
        oracle_s.push((t_load - t_oracle).as_secs_f64());
        load_s.push((end - t_load).as_secs_f64());
        served = Some((Arc::new(dfs), mix, db));
    }
    let (dfs, mix, db) = served.expect("at least one set-up");
    let probe = isolation_probe(&db, &mix).map_err(service_err)?;
    drop(db);
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    report.note(&format!(
        "isolation probe: t2 asked for t1's output Out and got {}; {} of {} probe requests failed",
        match probe.leaked_rows {
            Some(rows) => format!("{rows} rows of it (the cross-tenant leak)"),
            None => "an error frame".to_string(),
        },
        probe.failed,
        probe.attempted
    ));
    let mix = Arc::new(mix);
    let rss_reset = reset_peak_rss();

    // Measure: one untraced phase; in a traced run, half the time
    // untraced and half behind the storage timers.
    let seconds = args.seconds as f64;
    let plain = phase(
        Arc::clone(&dfs),
        &mix,
        if args.trace { seconds / 2.0 } else { seconds },
    )
    .map_err(service_err)?;
    let peak_rss = peak_rss_mb();
    let rec = Arc::new(Recorder::default());
    let (traced, cache0, cache1, read_mb, written_mb) = if args.trace {
        let (c0, r0, w0) = (dfs.cache_stats(), dfs.bytes_read(), dfs.bytes_written());
        let timed: Arc<dyn Dfs> = Arc::new(TimedDfs::new(Arc::clone(&dfs), Arc::clone(&rec)));
        let p = phase(timed, &mix, seconds / 2.0).map_err(service_err)?;
        let read = mib(dfs.bytes_read().as_bytes() - r0.as_bytes());
        let written = mib(dfs.bytes_written().as_bytes() - w0.as_bytes());
        (Some(p), c0, dfs.cache_stats(), read, written)
    } else {
        (None, dfs.cache_stats(), dfs.cache_stats(), 0.0, 0.0)
    };

    // Count and check every request of every phase.
    let phases: Vec<&Phase> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let interval_ns = (1e9 / RATE_PER_S) as u64;
    let mut reference: Vec<Option<Modeled>> = vec![None; mix.len()];
    let mut late_ms: f64 = 0.0;
    for p in &phases {
        report.attempted += p.replies.len() as u64 + p.lost;
        report.failed += p.lost;
        if p.lost > 0 {
            report.fail(&format!("{} requests got no reply", p.lost));
        }
        if p.accepted != p.completed {
            report.fail(&format!(
                "drain lost work: accepted {} != completed {}",
                p.accepted, p.completed
            ));
        }
        for r in &p.replies {
            late_ms = late_ms.max((r.sent_ns.saturating_sub(r.due_ns)) as f64 / 1e6);
            if !r.ok {
                report.failed += 1;
                continue;
            }
            // Correct replies must carry identical modeled statistics.
            match (&reference[r.mix], r.modeled) {
                (None, m) => reference[r.mix] = m,
                (Some(a), Some(b)) if *a == b => {}
                (Some(a), b) => report.fail(&format!(
                    "{}: modeled statistics changed ({a:?} vs {b:?})",
                    mix[r.mix].name
                )),
            }
        }
    }
    if late_ms > interval_ns as f64 / 1e6 {
        report.fail(&format!(
            "invalid run: the generator fell {late_ms:.1} ms behind its schedule"
        ));
    }
    let Some(modeled) = reference.iter().copied().collect::<Option<Vec<_>>>() else {
        report.fail("a query of the mix never got a correct reply");
        return Ok(report);
    };

    let latencies = |p: &Phase| -> Vec<f64> { p.replies.iter().map(Reply::latency_ms).collect() };
    let lat = latencies(&plain);
    report.e2e("setup_s", median(&setup_s));
    report.e2e("query_s", mix_latency_ms(&plain.replies, mix.len()) / 1e3);
    report.e2e("peak_rss_mb", peak_rss);
    report.e2e("net_model_s", modeled.iter().map(|m| m.0).sum());
    report.e2e("total_model_s", modeled.iter().map(|m| m.1).sum());
    report.e2e(
        "comm_model_gb",
        modeled.iter().map(|m| m.2 as f64).sum::<f64>() / 1e9,
    );
    report.extra("ingest_s", median(&load_s), "s");
    report.extra("svc_p50_ms", median(&lat), "ms");
    report.extra("svc_p95_ms", quantile(&lat, 0.95), "ms");
    report.note(&format!(
        "offered {RATE_PER_S} req/s open loop on {} connections; {} replies, {} beyond p95; \
         failed {} of {} attempted; generator at most {late_ms:.3} ms late; peak RSS {}",
        TENANTS.len(),
        lat.len(),
        samples_beyond(lat.len(), 0.95),
        report.failed,
        report.attempted,
        if rss_reset {
            "reset after set-up"
        } else {
            "over the whole process (reset unavailable)"
        }
    ));

    if let Some(tp) = &traced {
        let all: Vec<&Reply> = phases.iter().flat_map(|p| &p.replies).collect();
        let stamped: Vec<(&Reply, (u64, u64, u64))> = all
            .iter()
            .filter_map(|r| r.stamps.map(|s| (*r, s)))
            .collect();
        let wait_ms: Vec<f64> = stamped
            .iter()
            .map(|(_, s)| (s.1 - s.0) as f64 / 1e6)
            .collect();
        let eval_ms: Vec<f64> = stamped
            .iter()
            .map(|(_, s)| (s.2 - s.1) as f64 / 1e6)
            .collect();
        let transport_ms: Vec<f64> = stamped
            .iter()
            .map(|(r, s)| ((r.done_ns - r.sent_ns) as f64 - (s.2 - s.0) as f64) / 1e6)
            .collect();
        let all_lat: Vec<f64> = all.iter().map(|r| r.latency_ms()).collect();
        let requests = tp.replies.len().max(1) as f64;
        let per_request = |v: f64| v / requests;

        report.layer("datagen.gen_s", median(&datagen_s));
        report.layer("sgf.oracle_s", median(&oracle_s));
        let parse: Vec<f64> = mix.iter().map(|m| parse_ms(&m.text)).collect();
        report.layer(
            "sgf.parse_ms",
            parse.iter().sum::<f64>() / parse.len() as f64,
        );
        report.layer("core.jobs", modeled.iter().map(|m| m.3 as f64).sum());
        report.layer(
            "core.estimate_error",
            modeled.iter().map(|m| m.4).sum::<f64>() / modeled.len() as f64,
        );
        report.layer("storage.ingest_s", median(&load_s));
        report.layer("storage.store_s", per_request(rec.busy_s(Op::Store)));
        report.layer(
            "storage.store_calls",
            per_request(rec.calls(Op::Store) as f64),
        );
        report.layer("storage.written_mb", per_request(written_mb));
        report.layer("storage.fetch_s", per_request(rec.busy_s(Op::Fetch)));
        report.layer(
            "storage.fetch_calls",
            per_request(rec.calls(Op::Fetch) as f64),
        );
        report.layer("storage.read_mb", per_request(read_mb));
        let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
        if hits + misses > 0 {
            report.layer(
                "storage.cache_hit_rate",
                hits as f64 / (hits + misses) as f64,
            );
        }
        report.layer("storage.cache_misses", per_request(misses as f64));
        report.layer(
            "storage.cache_evictions",
            per_request((cache1.evictions - cache0.evictions) as f64),
        );
        report.layer("sched.queue_wait_p50_ms", median(&wait_ms));
        report.layer("sched.queue_wait_p95_ms", quantile(&wait_ms, 0.95));
        report.layer("service.eval_ms", median(&eval_ms));
        report.layer("service.transport_ms", median(&transport_ms));
        report.layer("service.generator_late_ms", late_ms);
        report.layer("service.latency_p95_ms", quantile(&all_lat, 0.95));
        report.layer(
            "obs.trace_overhead",
            mix_latency_ms(&tp.replies, mix.len()) / mix_latency_ms(&plain.replies, mix.len())
                - 1.0,
        );
        // The request-level split of the median traced request: queue
        // wait and server-side evaluation are timed by the server's own
        // stamps; connection wait, parse, admission and streaming are the
        // untraced remainder.
        let mut by_latency: Vec<&Reply> =
            tp.replies.iter().filter(|r| r.stamps.is_some()).collect();
        by_latency.sort_by(|a, b| a.latency_ms().total_cmp(&b.latency_ms()));
        if let Some(r) = by_latency.get(by_latency.len().saturating_sub(1) / 2) {
            let (q, a, c) = r.stamps.expect("filtered");
            let window = (r.done_ns - r.due_ns) as f64 / 1e9;
            let wait = (a - q) as f64 / 1e9;
            let eval = (c - a) as f64 / 1e9;
            report.layer("traced.query_s", window);
            report.layer("split.sched_s", wait);
            report.layer("split.service_s", eval);
            report.layer("untraced_s", window - wait - eval);
        }
    }
    Ok(report)
}
