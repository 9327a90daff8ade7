//! The resident query server: thread-per-connection front end, bounded
//! fair-share admission, streaming replies, graceful drain.
//!
//! ```text
//! TcpListener ── handler thread per connection
//!                   │  parse request, estimate cost (sort_cost)
//!                   ▼
//!             AdmissionQueue  (bounded; estimate-weighted fair share)
//!                   │  admit
//!                   ▼
//!             dispatcher pool (max_in_flight threads)
//!                   │  engine.eval().on(runtime).run(dfs, query)
//!                   ▼
//!             reply channel ── handler streams rel/frame/stats lines
//! ```
//!
//! Every dispatcher evaluates through the *same* engine/runtime code
//! path as the one-shot CLI — plans route through the DAG scheduler when
//! the engine's options say so — which is what makes service answers
//! byte-identical to direct evaluation.
//!
//! **Drain** (a `shutdown` request, [`ServerHandle::shutdown`], or a
//! SIGTERM via [`crate::install_signal_drain`]): the accept loop stops,
//! the queue closes (new submissions are refused with an error frame),
//! dispatchers finish every already-accepted submission, handlers stream
//! every reply, the DFS flushes, and the server exits with
//! `accepted == completed` — zero lost work.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gumbo_common::Relation;
use gumbo_core::GumboEngine;
use gumbo_mr::{Executor, ProgramStats};
use gumbo_sched::{AdmissionConfig, AdmissionQueue, QueuedEntry, SubmissionReport};
use gumbo_sgf::{parse_program, SgfQuery};
use gumbo_storage::Dfs;

use crate::protocol::{relation_frames, report_to_json, Frame, Request};
use crate::{
    drain_requested, SVC_ADMITTED, SVC_COMPLETED, SVC_CONNECTIONS, SVC_FRAMES, SVC_QUEUE_DEPTH,
    SVC_SUBMITTED,
};

/// Longest request line a connection may send, newline included. A
/// longer line gets one `error` frame and the connection closes, so no
/// client can grow a handler's buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Server sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bounded admission-queue capacity (submits block when full).
    pub queue_capacity: usize,
    /// Dispatcher threads = submissions evaluated concurrently.
    pub max_in_flight: usize,
    /// Weight for tenants that never declare one.
    pub default_weight: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_in_flight: 2,
            default_weight: 1.0,
        }
    }
}

/// What the server counted over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Submissions accepted into the admission queue.
    pub accepted: u64,
    /// Submissions fully processed (reply delivered to its handler).
    /// Equal to `accepted` after a clean drain — zero lost work.
    pub completed: u64,
}

/// One accepted query waiting in (or admitted from) the queue.
struct Work {
    query: SgfQuery,
    reply: mpsc::Sender<Result<Outcome, String>>,
}

/// A finished submission, ready to stream back.
struct Outcome {
    report: SubmissionReport,
    estimated_cost: f64,
    relations: Vec<Arc<Relation>>,
}

/// State shared by the supervisor, handlers, and dispatchers.
struct Shared {
    engine: GumboEngine,
    runtime: Box<dyn Executor>,
    dfs: Arc<dyn Dfs>,
    queue: AdmissionQueue<Work>,
    /// Set once a drain begins (shutdown request, handle, or signal).
    draining: AtomicBool,
    /// Submissions fully processed (outcome handed to the handler).
    completed: AtomicU64,
    /// Connections accepted.
    connections: AtomicU64,
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] + [`ServerHandle::join`] (or send the
/// protocol's `shutdown` request).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Submissions accepted into the queue so far.
    pub fn accepted(&self) -> u64 {
        self.shared.queue.accepted()
    }

    /// Submissions fully processed so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::SeqCst)
    }

    /// Begin a graceful drain (idempotent): stop accepting, finish the
    /// backlog, flush the DFS.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Wait for the server to finish draining and return its counters.
    pub fn join(self) -> ServeSummary {
        self.supervisor.join().expect("server supervisor panicked")
    }
}

impl Shared {
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            gumbo_obs::event("svc:drain", |f| {
                f.u64("accepted", self.queue.accepted());
                f.u64("completed", self.completed.load(Ordering::SeqCst));
            });
        }
        self.queue.close();
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || drain_requested()
    }
}

/// Start serving on `listener`. The engine's options decide the
/// evaluation path (scheduler config, worker count, budget) exactly as
/// they do for one-shot evaluation; `dfs` holds the base relations and
/// receives every committed output.
pub fn serve(
    listener: TcpListener,
    dfs: Arc<dyn Dfs>,
    engine: GumboEngine,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        runtime: engine.runtime(),
        engine,
        dfs,
        queue: AdmissionQueue::new(AdmissionConfig {
            capacity: config.queue_capacity,
            default_weight: config.default_weight,
        }),
        draining: AtomicBool::new(false),
        completed: AtomicU64::new(0),
        connections: AtomicU64::new(0),
    });

    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("gumbo-serve".into())
            .spawn(move || supervise(listener, shared, config))
            .expect("spawn supervisor thread")
    };

    Ok(ServerHandle {
        addr,
        shared,
        supervisor,
    })
}

/// The supervisor: accept loop + lifecycle. Owns the dispatcher pool
/// and the handler thread registry; returns the final counters after
/// the drain completes.
fn supervise(listener: TcpListener, shared: Arc<Shared>, config: ServeConfig) -> ServeSummary {
    let dispatchers: Vec<JoinHandle<()>> = (0..config.max_in_flight.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("gumbo-dispatch-{i}"))
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher thread")
        })
        .collect();
    let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());

    while !shared.is_draining() {
        match listener.accept() {
            Ok((stream, peer)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                SVC_CONNECTIONS.incr();
                gumbo_obs::event("svc:accept", |f| {
                    f.str("peer", &peer.to_string());
                });
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("gumbo-conn".into())
                    .spawn(move || handle_connection(stream, &shared))
                    .expect("spawn connection handler");
                handlers
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    // Drain: no new connections; refuse new submissions; finish the
    // backlog; let every handler stream its replies out.
    shared.begin_drain();
    for d in dispatchers {
        let _ = d.join();
    }
    for h in handlers.into_inner().unwrap_or_else(|e| e.into_inner()) {
        let _ = h.join();
    }
    // Everything is committed — make it durable before reporting done.
    let _ = shared.dfs.flush();
    ServeSummary {
        connections: shared.connections.load(Ordering::SeqCst),
        accepted: shared.queue.accepted(),
        completed: shared.completed.load(Ordering::SeqCst),
    }
}

/// A dispatcher: admit fairly, evaluate, reply. Exits when the queue is
/// closed *and* fully drained, so every accepted submission completes.
fn dispatch_loop(shared: &Shared) {
    while let Some(entry) = shared.queue.admit() {
        SVC_ADMITTED.incr();
        SVC_QUEUE_DEPTH.set(shared.queue.depth() as u64);
        gumbo_obs::event("svc:admit", |f| {
            f.str("tenant", &entry.tenant);
            f.f64("weight", entry.weight);
            f.f64("estimated_cost", entry.estimated_cost);
            f.u64(
                "queue_wait_ns",
                entry.admitted_ns.saturating_sub(entry.queued_ns),
            );
        });
        let started = Instant::now();
        // A panicking evaluation must not take the dispatcher down with
        // it: the client gets an `error` frame, the submission counts as
        // completed, and the loop keeps admitting.
        let outcome = catch_unwind(AssertUnwindSafe(|| evaluate(shared, &entry)))
            .unwrap_or_else(|panic| Err(format!("internal error: {}", panic_message(&*panic))));
        let outcome = outcome.map(|(stats, completed_ns, relations)| Outcome {
            report: SubmissionReport {
                tenant: entry.tenant.clone(),
                stats,
                wall_seconds: started.elapsed().as_secs_f64(),
                queued_ns: entry.queued_ns,
                admitted_ns: entry.admitted_ns,
                completed_ns,
            },
            estimated_cost: entry.estimated_cost,
            relations,
        });
        gumbo_obs::event("svc:complete", |f| {
            f.str("tenant", &entry.tenant);
            f.bool("ok", outcome.is_ok());
        });
        // The handler may have hung up (client died mid-wait); the
        // submission still counts as completed — the work committed.
        let _ = entry.payload.reply.send(outcome);
        SVC_COMPLETED.incr();
        shared.completed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Evaluate one admitted submission, then collect every output relation
/// (final and intermediate Zs) for streaming, in query order. Also
/// returns when the last job committed (monotonic ns, obs epoch).
fn evaluate(
    shared: &Shared,
    entry: &QueuedEntry<Work>,
) -> Result<(ProgramStats, u64, Vec<Arc<Relation>>), String> {
    let query = &entry.payload.query;
    let stats = shared
        .engine
        .eval()
        .on(&*shared.runtime)
        .run(&*shared.dfs, query)
        .map_err(|e| e.to_string())?;
    let completed_ns = gumbo_obs::now_ns();
    let relations = query
        .output_names()
        .iter()
        .map(|name| shared.dfs.peek(name))
        .collect::<gumbo_common::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    Ok((stats, completed_ns, relations))
}

/// The message a panic was raised with, when it carried one.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("evaluation panicked")
}

/// Estimate a query's remaining work for admission: the estimation
/// layer's total plan cost under the engine's chosen sort. Falls back
/// to the subquery count when estimation fails — unestimated work is
/// still charged something.
fn admission_cost(shared: &Shared, query: &SgfQuery) -> f64 {
    shared
        .engine
        .sort_for(&*shared.dfs, query)
        .and_then(|sort| shared.engine.sort_cost(&*shared.dfs, query, &sort))
        .unwrap_or_else(|_| query.queries().len() as f64)
}

/// One connection: read request lines, answer each. Returns (closing
/// the connection) on EOF, protocol errors at the transport level, or
/// when a drain begins while the line is idle.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    // A finite read timeout lets idle handlers notice the drain.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        // read_until may time out mid-line; partial bytes stay in `line`
        // across retries, so requests are never torn. Each read may take
        // at most one byte past the cap, which marks the line too long.
        loop {
            let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
            match (&mut reader).take(room).read_until(b'\n', &mut line) {
                Ok(0) => return,
                Ok(_) if line.len() > MAX_REQUEST_LINE => {
                    refuse_long_line(reader, writer);
                    return;
                }
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if shared.is_draining() && line.is_empty() {
                        // Idle connection during a drain: hang up so the
                        // supervisor can finish joining handlers.
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            let message = "request line is not UTF-8".to_string();
            if write_frame(&mut writer, &Frame::Error { message }).is_err() {
                return;
            }
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        match Request::parse(text) {
            Ok(Request::Ping) => {
                if write_frame(&mut writer, &Frame::Pong).is_err() {
                    return;
                }
            }
            Ok(Request::Shutdown) => {
                serve_shutdown(&mut writer, shared);
                return;
            }
            Ok(Request::Query {
                tenant,
                weight,
                sgf,
            }) => {
                if !serve_query(&mut writer, shared, &tenant, weight, &sgf) {
                    return;
                }
            }
            Err(message) => {
                if write_frame(&mut writer, &Frame::Error { message }).is_err() {
                    return;
                }
            }
        }
    }
}

/// Answer an over-long request line: one `error` frame, then close. The
/// unread rest of the line is discarded for a moment first, because
/// closing a socket with unread input resets the connection, and a reset
/// can overtake the error frame before the client reads it.
fn refuse_long_line(mut reader: BufReader<TcpStream>, mut writer: TcpStream) {
    let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
    if write_frame(&mut writer, &Frame::Error { message }).is_err() {
        return;
    }
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Answer one query request. Returns false when the connection is dead.
fn serve_query(
    writer: &mut TcpStream,
    shared: &Shared,
    tenant: &str,
    weight: Option<f64>,
    sgf: &str,
) -> bool {
    let query = match parse_program(sgf) {
        Ok(q) => q,
        Err(e) => {
            return write_frame(
                writer,
                &Frame::Error {
                    message: format!("bad SGF program: {e}"),
                },
            )
            .is_ok();
        }
    };
    let estimated_cost = admission_cost(shared, &query);
    SVC_SUBMITTED.incr();
    gumbo_obs::event("svc:submit", |f| {
        f.str("tenant", tenant);
        f.f64("estimated_cost", estimated_cost);
        f.u64("queue_depth", shared.queue.depth() as u64);
    });
    let (reply_tx, reply_rx) = mpsc::channel();
    let work = Work {
        query,
        reply: reply_tx,
    };
    if shared
        .queue
        .submit(tenant, weight, estimated_cost, work)
        .is_err()
    {
        return write_frame(
            writer,
            &Frame::Error {
                message: "server is draining; submission refused".into(),
            },
        )
        .is_ok();
    }
    SVC_QUEUE_DEPTH.set(shared.queue.depth() as u64);
    // The dispatcher pool always drains the queue (even during
    // shutdown), so this receive terminates.
    match reply_rx.recv() {
        Ok(Ok(outcome)) => {
            for relation in &outcome.relations {
                for frame in relation_frames(relation) {
                    if matches!(frame, Frame::Rows { .. }) {
                        SVC_FRAMES.incr();
                        gumbo_obs::event("svc:stream", |f| {
                            f.str("tenant", tenant);
                            f.str("relation", relation.name().as_str());
                        });
                    }
                    if write_frame(writer, &frame).is_err() {
                        return false;
                    }
                }
            }
            let report = report_to_json(&outcome.report, outcome.estimated_cost);
            write_frame(writer, &Frame::Stats { report }).is_ok()
        }
        Ok(Err(message)) => write_frame(writer, &Frame::Error { message }).is_ok(),
        Err(_) => write_frame(
            writer,
            &Frame::Error {
                message: "internal error: dispatcher dropped the reply".into(),
            },
        )
        .is_ok(),
    }
}

/// Answer a shutdown request: begin the drain, wait for every accepted
/// submission to complete, then acknowledge with the final counters.
fn serve_shutdown(writer: &mut TcpStream, shared: &Shared) {
    shared.begin_drain();
    loop {
        let accepted = shared.queue.accepted();
        let completed = shared.completed.load(Ordering::SeqCst);
        if completed >= accepted {
            let _ = write_frame(
                writer,
                &Frame::Bye {
                    accepted,
                    completed,
                },
            );
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn write_frame(writer: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    let mut text = frame.to_line();
    text.push('\n');
    writer.write_all(text.as_bytes())
}
