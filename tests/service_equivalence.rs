//! Service-level equivalence: answers streamed by the resident query
//! service (`gumbo::service`) must be **byte-identical** to direct
//! engine evaluation, for every query preset, both storage backends,
//! and under concurrent multi-tenant load.
//!
//! Also covered here: the drain invariant (a shutdown mid-workload
//! loses zero accepted submissions), restart durability for a
//! file-backed service, the per-submission timestamp chain
//! (`queued_ns <= admitted_ns <= completed_ns`), and hostile or failing
//! work: an over-long request line and a panicking evaluation each cost
//! one `error` frame, never the server.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gumbo::common::RelationName;
use gumbo::datagen::queries;
use gumbo::prelude::*;
use gumbo::service::Frame;

const TUPLES: usize = 150;
const SEED: u64 = 7;

fn presets() -> Vec<gumbo::datagen::Workload> {
    let mut all = vec![
        queries::a1(),
        queries::a2(),
        queries::a3(),
        queries::a4(),
        queries::a5(),
        queries::b1(),
        queries::b2(),
    ];
    all.extend(queries::figure6());
    all
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("gumbo-svc-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The engine both sides of every comparison use: DAG scheduler (the
/// service's production path).
fn engine() -> GumboEngine {
    GumboEngine::with_executor(
        EngineConfig::default(),
        ExecutorKind::default(),
        EvalOptions {
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 3,
                ..SchedulerConfig::default()
            }),
            ..EvalOptions::default()
        },
    )
}

/// Direct evaluation: every output relation (intermediates included),
/// in the query's output order.
fn direct_answers(db: &Database, query: &SgfQuery) -> Vec<Relation> {
    let dfs = SimDfs::from_database(db);
    engine().evaluate(&dfs, query).unwrap();
    query
        .output_names()
        .iter()
        .map(|name| (*dfs.peek(name).unwrap()).clone())
        .collect()
}

fn start_server(dfs: Arc<dyn Dfs>, config: ServeConfig) -> ServerHandle {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    serve(listener, dfs, engine(), config).unwrap()
}

fn assert_same_relations(label: &str, got: &[Relation], want: &[Relation]) {
    assert_eq!(
        got.len(),
        want.len(),
        "{label}: streamed {} relations, direct evaluation produced {}",
        got.len(),
        want.len(),
    );
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.name(), w.name(), "{label}: relation order differs");
        assert_eq!(
            g,
            w,
            "{label}: relation {} differs from direct eval",
            g.name()
        );
    }
}

/// Every preset, three concurrent tenants each: streamed answers equal
/// direct evaluation, and the reports carry a monotonic timestamp chain.
#[test]
fn streamed_answers_match_direct_evaluation_for_every_preset() {
    for workload in presets() {
        let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
        let want = direct_answers(&db, &workload.query);

        let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::from_database(&db));
        let handle = start_server(dfs, ServeConfig::default());
        let addr = handle.addr();
        let sgf = workload.query.to_string();

        std::thread::scope(|scope| {
            for t in 0..3 {
                let sgf = &sgf;
                let want = &want;
                let name = &workload.name;
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    let reply = client
                        .query(&format!("tenant-{t}"), None, sgf)
                        .unwrap_or_else(|e| panic!("{name} tenant-{t}: {e}"));
                    assert_same_relations(&format!("{name} tenant-{t}"), &reply.relations, want);
                    let queued = reply.queued_ns().unwrap();
                    let admitted = reply.admitted_ns().unwrap();
                    let completed = reply.completed_ns().unwrap();
                    assert!(
                        queued <= admitted && admitted <= completed,
                        "{name}: timestamps not monotonic: {queued} {admitted} {completed}"
                    );
                    assert_eq!(reply.queue_wait_ns().unwrap(), admitted - queued);
                });
            }
        });

        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.accepted, 3, "{}: accepted", workload.name);
        assert_eq!(summary.completed, 3, "{}: completed", workload.name);
        assert_eq!(summary.connections, 3, "{}: connections", workload.name);
    }
}

/// Both backends on representative presets (one flat, one nested): the
/// service serves byte-identical answers from the in-memory and the
/// durable file store.
#[test]
fn both_backends_serve_identical_answers() {
    for workload in [queries::a1(), queries::c1()] {
        let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
        // One reference: answers are backend-invariant.
        let want = direct_answers(&db, &workload.query);
        let sgf = workload.query.to_string();

        for backend in ["sim", "file"] {
            let label = format!("{} ({backend})", workload.name);
            let root = temp_root(&format!("{}-{backend}", workload.name));
            let dfs: Arc<dyn Dfs> = match backend {
                "sim" => Arc::new(SimDfs::from_database(&db)),
                _ => Arc::new(FileDfs::from_database(&root, DEFAULT_CACHE_BYTES, &db).unwrap()),
            };
            let handle = start_server(dfs, ServeConfig::default());
            let mut client = ServiceClient::connect(handle.addr()).unwrap();
            let reply = client
                .query("matrix", None, &sgf)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_same_relations(&label, &reply.relations, &want);
            let (accepted, completed) = client.shutdown().unwrap();
            assert_eq!((accepted, completed), (1, 1), "{label}");
            handle.join();
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// The drain invariant: shut the server down while a backlog is queued
/// behind a single dispatcher — every accepted submission still
/// completes and streams its full reply. Zero lost work.
#[test]
fn drain_mid_workload_completes_every_accepted_submission() {
    const CLIENTS: usize = 6;
    let workload = queries::a2();
    let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
    let want = direct_answers(&db, &workload.query);

    let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::from_database(&db));
    // One dispatcher: submissions queue up behind each other, so the
    // shutdown below genuinely races a non-empty backlog.
    let handle = start_server(
        dfs,
        ServeConfig {
            max_in_flight: 1,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();
    let sgf = workload.query.to_string();

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let sgf = &sgf;
                let want = &want;
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    let reply = client
                        .query(&format!("tenant-{}", t % 3), None, sgf)
                        .unwrap_or_else(|e| panic!("client {t}: {e}"));
                    assert_same_relations(&format!("client {t}"), &reply.relations, want);
                })
            })
            .collect();

        // Wait until the queue has accepted the full workload, then pull
        // the plug while most of it is still pending.
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.accepted() < CLIENTS as u64 {
            assert!(Instant::now() < deadline, "submissions never all arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.shutdown();

        for w in workers {
            w.join().unwrap();
        }
    });

    let summary = handle.join();
    assert_eq!(summary.accepted, CLIENTS as u64);
    assert_eq!(
        summary.completed, summary.accepted,
        "drain lost accepted work: {summary:?}"
    );
}

/// Restart durability: a file-backed service is shut down, the root
/// reopened cold, and a fresh server must serve the exact same answers
/// from the durable state alone.
#[test]
fn file_backed_service_survives_restart() {
    let workload = queries::a3();
    let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
    let root = temp_root("restart");
    let sgf = workload.query.to_string();

    let first = {
        let dfs: Arc<dyn Dfs> =
            Arc::new(FileDfs::from_database(&root, DEFAULT_CACHE_BYTES, &db).unwrap());
        let handle = start_server(dfs, ServeConfig::default());
        let mut client = ServiceClient::connect(handle.addr()).unwrap();
        let reply = client.query("durable", None, &sgf).unwrap();
        client.shutdown().unwrap();
        handle.join();
        reply.relations
    }; // server gone; only the on-disk state survives

    assert!(
        root.join("MANIFEST").is_file(),
        "drained file-backed server must leave a MANIFEST"
    );

    // Cold reopen: no database reload — the durable store alone must
    // already hold the base relations and the committed answers.
    let reopened: Arc<dyn Dfs> = Arc::new(FileDfs::open(&root, DEFAULT_CACHE_BYTES).unwrap());
    for rel in &first {
        assert_eq!(
            reopened.peek(rel.name()).unwrap().as_ref(),
            rel,
            "relation {} changed across restart",
            rel.name(),
        );
    }
    let handle = start_server(reopened, ServeConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    let reply = client.query("durable", None, &sgf).unwrap();
    assert_same_relations("after restart", &reply.relations, &first);
    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// Protocol edges that don't deserve their own server: ping, a bad SGF
/// program, and a submission refused after the drain began.
#[test]
fn protocol_errors_and_liveness() {
    let workload = queries::a1();
    let db = workload.spec.clone().with_tuples(50).database(SEED);
    let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::from_database(&db));
    let handle = start_server(dfs, ServeConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    client.ping().unwrap();
    let err = client.query("edge", None, "THIS IS NOT SGF").unwrap_err();
    assert!(
        matches!(err, ServiceError::Remote(ref m) if m.contains("bad SGF")),
        "expected a remote parse error, got {err}"
    );
    // The connection survives a rejected program.
    client.ping().unwrap();

    handle.shutdown();
    let err = client
        .query("edge", None, &workload.query.to_string())
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::Remote(ref m) if m.contains("draining")),
        "expected a draining refusal, got {err}"
    );
    drop(client);
    let summary = handle.join();
    assert_eq!(summary.accepted, 0);
    assert_eq!(summary.completed, 0);
}

/// A request line past the cap (2 MiB, no newline) gets one `error`
/// frame and its connection closes; a second connection is still served,
/// and the drain accounts for every accepted submission.
#[test]
fn over_long_request_line_is_refused() {
    // 2 MiB: twice the cap.
    const LINE: usize = 2 * gumbo::service::server::MAX_REQUEST_LINE;
    let workload = queries::a1();
    let db = workload.spec.clone().with_tuples(50).database(SEED);
    let want = direct_answers(&db, &workload.query);
    let handle = start_server(Arc::new(SimDfs::from_database(&db)), ServeConfig::default());

    let mut hostile = std::net::TcpStream::connect(handle.addr()).unwrap();
    hostile
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // The server may stop reading once the cap is passed; what matters is
    // the frame it answers with.
    let _ = hostile.write_all(&vec![b'x'; LINE]);
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Frame::parse(&line).unwrap() {
        Frame::Error { message } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "connection must close after the refusal, got {line:?}"
    );
    drop(reader);

    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    let reply = client
        .query("polite", None, &workload.query.to_string())
        .unwrap();
    assert_same_relations("after refusal", &reply.relations, &want);
    drop(client);

    handle.shutdown();
    let summary = handle.join();
    assert_eq!(summary.connections, 2);
    assert_eq!((summary.accepted, summary.completed), (1, 1));
}

/// A [`SimDfs`] that panics when asked to store one named relation: a
/// stand-in for any bug that panics inside an evaluation.
#[derive(Debug)]
struct PanicOnStore {
    inner: SimDfs,
    poisoned: &'static str,
}

impl Dfs for PanicOnStore {
    fn backend(&self) -> &'static str {
        Dfs::backend(&self.inner)
    }
    fn store(&self, relation: Relation) -> Result<ByteSize> {
        if relation.name().as_str() == self.poisoned {
            panic!("refusing to store {}", self.poisoned);
        }
        Dfs::store(&self.inner, relation)
    }
    fn read(&self, name: &RelationName) -> Result<Arc<Relation>> {
        Dfs::read(&self.inner, name)
    }
    fn peek(&self, name: &RelationName) -> Result<Arc<Relation>> {
        Dfs::peek(&self.inner, name)
    }
    fn scan(&self, name: &RelationName) -> Result<RelationScan> {
        Dfs::scan(&self.inner, name)
    }
    fn file_bytes(&self, name: &RelationName) -> Result<ByteSize> {
        Dfs::file_bytes(&self.inner, name)
    }
    fn exists(&self, name: &RelationName) -> bool {
        Dfs::exists(&self.inner, name)
    }
    fn delete(&self, name: &RelationName) -> Result<bool> {
        Dfs::delete(&self.inner, name)
    }
    fn file_names(&self) -> Vec<RelationName> {
        Dfs::file_names(&self.inner)
    }
    fn bytes_read(&self) -> ByteSize {
        Dfs::bytes_read(&self.inner)
    }
    fn bytes_written(&self) -> ByteSize {
        Dfs::bytes_written(&self.inner)
    }
    fn reset_counters(&self) {
        Dfs::reset_counters(&self.inner)
    }
}

/// A panicking evaluation costs its client one `error` frame. The lone
/// dispatcher survives to answer the next query correctly, and the
/// drain still reports `accepted == completed`. The doomed program has
/// two jobs, so the scheduler's other worker is waiting on the one that
/// panics.
#[test]
fn panicking_job_gets_an_error_frame_and_the_dispatcher_survives() {
    let workload = queries::a1();
    let db = workload.spec.clone().with_tuples(50).database(SEED);
    let want = direct_answers(&db, &workload.query);
    let dfs: Arc<dyn Dfs> = Arc::new(PanicOnStore {
        inner: SimDfs::from_database(&db),
        poisoned: "Boom",
    });
    let handle = start_server(
        dfs,
        ServeConfig {
            max_in_flight: 1,
            ..ServeConfig::default()
        },
    );
    // Read timeouts turn a dead dispatcher into a failure, not a hang.
    let timeout = Some(Duration::from_secs(60));

    let mut doomed = ServiceClient::connect(handle.addr()).unwrap();
    doomed.set_read_timeout(timeout).unwrap();
    let err = doomed
        .query(
            "doomed",
            None,
            "Boom := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE S(x) AND NOT T(y);",
        )
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::Remote(ref m) if m.contains("refusing to store Boom")),
        "expected the panic as a remote error, got {err}"
    );

    let mut next = ServiceClient::connect(handle.addr()).unwrap();
    next.set_read_timeout(timeout).unwrap();
    let reply = next
        .query("next", None, &workload.query.to_string())
        .unwrap_or_else(|e| panic!("query after the panic: {e}"));
    assert_same_relations("after the panic", &reply.relations, &want);
    drop((doomed, next));

    handle.shutdown();
    let summary = handle.join();
    assert_eq!((summary.accepted, summary.completed), (2, 2));
}
