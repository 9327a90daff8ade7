//! The gumbo-serve wire protocol: line-delimited JSON over TCP.
//!
//! Every message is one JSON object on one `\n`-terminated line, built
//! on the workspace's own [`Json`] vocabulary (no external serializer).
//!
//! ## Requests (client → server)
//!
//! ```text
//! {"type":"query","tenant":T,"sgf":SGF}            evaluate an SGF program
//! {"type":"query","tenant":T,"weight":W,"sgf":SGF} …declaring T's weight
//! {"type":"ping"}                                  liveness probe
//! {"type":"shutdown"}                              drain and stop the server
//! ```
//!
//! ## Responses (server → client)
//!
//! A `query` is answered by a stream of frames, ending with `stats` (on
//! success) or `error`:
//!
//! ```text
//! {"type":"rel","name":N,"arity":A,"rows":R}       one per output relation
//! {"type":"frame","name":N,"rows":[[v,…],…]}       ≤ FRAME_ROWS rows per line
//! {"type":"stats","report":{…}}                    per-submission report, ends the reply
//! {"type":"error","message":M}                     terminal failure, ends the reply
//! {"type":"pong"}                                  answers ping
//! {"type":"bye","accepted":A,"completed":C}        answers shutdown, after the drain
//! ```
//!
//! Values encode as JSON numbers when exact (`|i| ≤ 2⁵³`), as
//! `{"i":"…decimal…"}` for larger integers (floats would silently round
//! them), and as JSON strings for strings. Relations stream in the
//! [`Relation`]'s sorted tuple order, so a reply is byte-reproducible.

use gumbo_common::{Relation, Tuple, Value};
use gumbo_obs::json::Json;
use gumbo_sched::SubmissionReport;

/// Rows per `frame` line: small enough to keep lines readable and
/// interleave progress, large enough to amortize the JSON framing.
pub const FRAME_ROWS: usize = 256;

/// Largest integer magnitude an f64-backed JSON number holds exactly.
const EXACT_INT: i64 = 1 << 53;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate an SGF program for a tenant (optionally declaring the
    /// tenant's fair-share weight).
    Query {
        /// The submitting tenant's label.
        tenant: String,
        /// Fair-share weight to declare for the tenant, if any.
        weight: Option<f64>,
        /// The SGF program text (the paper's SQL-like syntax).
        sgf: String,
    },
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain and stop the server.
    Shutdown,
}

impl Request {
    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let json = match self {
            Request::Query {
                tenant,
                weight,
                sgf,
            } => {
                let mut fields = vec![
                    ("type", Json::Str("query".into())),
                    ("tenant", Json::Str(tenant.clone())),
                ];
                if let Some(w) = weight {
                    fields.push(("weight", Json::Num(*w)));
                }
                fields.push(("sgf", Json::Str(sgf.clone())));
                Json::obj(fields)
            }
            Request::Ping => Json::obj([("type", Json::Str("ping".into()))]),
            Request::Shutdown => Json::obj([("type", Json::Str("shutdown".into()))]),
        };
        json.to_string()
    }

    /// Decode one wire line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line.trim()).map_err(|e| format!("bad request JSON: {e}"))?;
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or("request is missing \"type\"")?;
        match kind {
            "query" => {
                let tenant = json
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or("query is missing \"tenant\"")?
                    .to_string();
                let weight = json.get("weight").and_then(Json::as_f64);
                if let Some(w) = weight {
                    if !w.is_finite() || w <= 0.0 {
                        return Err(format!("weight must be a positive number, got {w}"));
                    }
                }
                let sgf = json
                    .get("sgf")
                    .and_then(Json::as_str)
                    .ok_or("query is missing \"sgf\"")?
                    .to_string();
                Ok(Request::Query {
                    tenant,
                    weight,
                    sgf,
                })
            }
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

/// A parsed server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Header for one output relation about to stream.
    Rel {
        /// Relation name.
        name: String,
        /// Relation arity.
        arity: usize,
        /// Total rows that will stream for this relation.
        rows: u64,
    },
    /// A chunk of rows of the named relation, in sorted order.
    Rows {
        /// Relation name.
        name: String,
        /// The rows.
        rows: Vec<Tuple>,
    },
    /// Terminal success frame: the per-submission report.
    Stats {
        /// The report object (see [`report_to_json`]).
        report: Json,
    },
    /// Terminal failure frame.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Answer to a ping.
    Pong,
    /// Answer to a shutdown, sent after the drain finishes.
    Bye {
        /// Submissions accepted over the server's lifetime.
        accepted: u64,
        /// Submissions fully completed (must equal `accepted`).
        completed: u64,
    },
}

impl Frame {
    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let json = match self {
            Frame::Rel { name, arity, rows } => Json::obj([
                ("type", Json::Str("rel".into())),
                ("name", Json::Str(name.clone())),
                ("arity", Json::Int(*arity as u64)),
                ("rows", Json::Int(*rows)),
            ]),
            Frame::Rows { name, rows } => Json::obj([
                ("type", Json::Str("frame".into())),
                ("name", Json::Str(name.clone())),
                ("rows", Json::Arr(rows.iter().map(tuple_to_json).collect())),
            ]),
            Frame::Stats { report } => Json::obj([
                ("type", Json::Str("stats".into())),
                ("report", report.clone()),
            ]),
            Frame::Error { message } => Json::obj([
                ("type", Json::Str("error".into())),
                ("message", Json::Str(message.clone())),
            ]),
            Frame::Pong => Json::obj([("type", Json::Str("pong".into()))]),
            Frame::Bye {
                accepted,
                completed,
            } => Json::obj([
                ("type", Json::Str("bye".into())),
                ("accepted", Json::Int(*accepted)),
                ("completed", Json::Int(*completed)),
            ]),
        };
        json.to_string()
    }

    /// Decode one wire line.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let json = Json::parse(line.trim()).map_err(|e| format!("bad frame JSON: {e}"))?;
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or("frame is missing \"type\"")?;
        match kind {
            "rel" => Ok(Frame::Rel {
                name: json
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("rel frame is missing \"name\"")?
                    .to_string(),
                arity: json
                    .get("arity")
                    .and_then(Json::as_u64)
                    .ok_or("rel frame is missing \"arity\"")? as usize,
                rows: json
                    .get("rows")
                    .and_then(Json::as_u64)
                    .ok_or("rel frame is missing \"rows\"")?,
            }),
            "frame" => {
                let name = json
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("frame is missing \"name\"")?
                    .to_string();
                let rows = json
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or("frame is missing \"rows\"")?
                    .iter()
                    .map(tuple_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Frame::Rows { name, rows })
            }
            "stats" => Ok(Frame::Stats {
                report: json
                    .get("report")
                    .cloned()
                    .ok_or("stats frame is missing \"report\"")?,
            }),
            "error" => Ok(Frame::Error {
                message: json
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error frame is missing \"message\"")?
                    .to_string(),
            }),
            "pong" => Ok(Frame::Pong),
            "bye" => Ok(Frame::Bye {
                accepted: json
                    .get("accepted")
                    .and_then(Json::as_u64)
                    .ok_or("bye frame is missing \"accepted\"")?,
                completed: json
                    .get("completed")
                    .and_then(Json::as_u64)
                    .ok_or("bye frame is missing \"completed\"")?,
            }),
            other => Err(format!("unknown frame type {other:?}")),
        }
    }
}

/// Encode one value: exact-in-f64 integers as numbers, larger integers
/// as `{"i":"…"}` (a float would silently round them), strings as
/// strings.
pub fn value_to_json(value: &Value) -> Json {
    match value {
        Value::Int(i) if (0..=EXACT_INT).contains(i) => Json::Int(*i as u64),
        Value::Int(i) if (-EXACT_INT..0).contains(i) => Json::Num(*i as f64),
        Value::Int(i) => Json::obj([("i", Json::Str(i.to_string()))]),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

/// Decode one value (inverse of [`value_to_json`]).
pub fn value_from_json(json: &Json) -> Result<Value, String> {
    match json {
        Json::Int(u) => i64::try_from(*u)
            .map(Value::Int)
            .map_err(|_| format!("integer {u} overflows i64")),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() <= EXACT_INT as f64 {
                Ok(Value::Int(*n as i64))
            } else {
                Err(format!("non-integral value {n} in a tuple"))
            }
        }
        Json::Str(s) => Ok(Value::str(s)),
        Json::Obj(_) => {
            let digits = json
                .get("i")
                .and_then(Json::as_str)
                .ok_or("tuple value object without an \"i\" field")?;
            digits
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad wide integer {digits:?}: {e}"))
        }
        other => Err(format!("unsupported tuple value {other}")),
    }
}

fn tuple_to_json(tuple: &Tuple) -> Json {
    Json::Arr(tuple.values().iter().map(value_to_json).collect())
}

fn tuple_from_json(json: &Json) -> Result<Tuple, String> {
    let values = json
        .as_arr()
        .ok_or("tuple is not an array")?
        .iter()
        .map(value_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Tuple::new(values))
}

/// Split a relation into the frames that stream it: one [`Frame::Rel`]
/// header, then [`Frame::Rows`] chunks of at most [`FRAME_ROWS`] rows in
/// the relation's sorted order.
pub fn relation_frames(relation: &Relation) -> Vec<Frame> {
    let mut frames = vec![Frame::Rel {
        name: relation.name().to_string(),
        arity: relation.arity(),
        rows: relation.len() as u64,
    }];
    let mut chunk = Vec::with_capacity(FRAME_ROWS.min(relation.len()));
    for tuple in relation.iter() {
        chunk.push(tuple.clone());
        if chunk.len() == FRAME_ROWS {
            frames.push(Frame::Rows {
                name: relation.name().to_string(),
                rows: std::mem::take(&mut chunk),
            });
        }
    }
    if !chunk.is_empty() {
        frames.push(Frame::Rows {
            name: relation.name().to_string(),
            rows: chunk,
        });
    }
    frames
}

/// Lower a [`gumbo_mr::ProgramStats`] to one JSON document: the paper's
/// four metrics, the spill counters, the predicted
/// DAG net time, the per-job calibration ledger, and — for file-backed
/// runs — the DFS block-cache counters. This is the single stats
/// vocabulary: `gumbo-cli --stats-json` and the service's `stats` frame
/// both emit it.
pub fn stats_to_json(
    stats: &gumbo_mr::ProgramStats,
    cache: Option<&gumbo_storage::CacheStats>,
) -> Json {
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    let jobs: Vec<Json> = stats
        .jobs
        .iter()
        .map(|j| {
            Json::obj([
                ("name", Json::Str(j.name.clone())),
                ("round", Json::Int(j.round as u64)),
                ("total_cost", Json::Num(j.total_cost)),
                ("map_cost", Json::Num(j.map_cost)),
                ("reduce_cost", Json::Num(j.reduce_cost)),
                ("output_tuples", Json::Int(j.output_tuples)),
                ("input_bytes", Json::Int(j.input_bytes().0)),
                ("communication_bytes", Json::Int(j.communication_bytes().0)),
                ("output_bytes", Json::Int(j.output_bytes().0)),
                ("spilled_bytes", Json::Int(j.spilled_bytes)),
                ("spilled_disk_bytes", Json::Int(j.spilled_disk_bytes)),
                ("spill_files", Json::Int(j.spill_files)),
                ("spill_merge_passes", Json::Int(j.spill_merge_passes)),
                ("estimated_cost", opt(j.estimated_cost)),
                ("estimate_error", opt(j.estimate_error())),
            ])
        })
        .collect();
    let mut fields = vec![
        ("net_time", Json::Num(stats.net_time())),
        ("total_time", Json::Num(stats.total_time())),
        ("input_bytes", Json::Int(stats.input_bytes().0)),
        (
            "communication_bytes",
            Json::Int(stats.communication_bytes().0),
        ),
        ("num_jobs", Json::Int(stats.num_jobs() as u64)),
        ("num_rounds", Json::Int(stats.num_rounds() as u64)),
        ("predicted_net_time", opt(stats.predicted_net_time)),
        ("spilled_bytes", Json::Int(stats.spilled_bytes())),
        ("spilled_disk_bytes", Json::Int(stats.spilled_disk_bytes())),
        ("spill_files", Json::Int(stats.spill_files())),
        ("spill_merge_passes", Json::Int(stats.spill_merge_passes())),
        ("mean_estimate_error", opt(stats.mean_estimate_error())),
        ("jobs", Json::Arr(jobs)),
    ];
    if let Some(c) = cache {
        fields.push((
            "dfs_cache",
            Json::obj([
                ("capacity_bytes", Json::Int(c.capacity_bytes)),
                ("hits", Json::Int(c.hits)),
                ("misses", Json::Int(c.misses)),
                ("evictions", Json::Int(c.evictions)),
                ("cached_bytes", Json::Int(c.cached_bytes)),
                ("hit_rate", opt(c.hit_rate())),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Lower a [`SubmissionReport`] (plus the admission-time estimated cost)
/// to the `stats` frame's report object: tenant, the three monotonic
/// timestamps, derived waits, and the full program stats document.
pub fn report_to_json(report: &SubmissionReport, estimated_cost: f64) -> Json {
    Json::obj([
        ("tenant", Json::Str(report.tenant.clone())),
        ("queued_ns", Json::Int(report.queued_ns)),
        ("admitted_ns", Json::Int(report.admitted_ns)),
        ("completed_ns", Json::Int(report.completed_ns)),
        ("queue_wait_ns", Json::Int(report.queue_wait_ns())),
        ("service_ns", Json::Int(report.service_ns())),
        ("wall_seconds", Json::Num(report.wall_seconds)),
        ("estimated_cost", Json::Num(estimated_cost)),
        ("stats", stats_to_json(&report.stats, None)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Query {
                tenant: "t1".into(),
                weight: Some(4.0),
                sgf: "Out(x) :- R(x,y) & S(y)".into(),
            },
            Request::Query {
                tenant: "a \"quoted\" tenant".into(),
                weight: None,
                sgf: "line1\nline2".into(),
            },
            Request::Ping,
            Request::Shutdown,
        ] {
            let line = request.to_line();
            assert!(!line.contains('\n'), "one request per line: {line:?}");
            assert_eq!(Request::parse(&line).unwrap(), request);
        }
    }

    #[test]
    fn frames_round_trip() {
        let rel = Relation::from_tuples(
            "Out",
            2,
            [
                Tuple::from_ints(&[1, 2]),
                Tuple::from_ints(&[-3, 4]),
                Tuple::new(vec![Value::Int(i64::MAX), Value::str("x")]),
            ],
        )
        .unwrap();
        for frame in relation_frames(&rel) {
            let line = frame.to_line();
            assert!(!line.contains('\n'), "one frame per line: {line:?}");
            assert_eq!(Frame::parse(&line).unwrap(), frame);
        }
    }

    #[test]
    fn values_round_trip_exactly() {
        for v in [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(EXACT_INT),
            Value::Int(-EXACT_INT + 1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::str(""),
            Value::str("tab\tand \"quote\""),
        ] {
            let json = value_to_json(&v);
            // Through the actual wire text, not just the Json tree.
            let wire = Json::parse(&json.to_string()).unwrap();
            assert_eq!(value_from_json(&wire).unwrap(), v, "via {json}");
        }
    }

    #[test]
    fn relation_frames_chunk_and_preserve_order() {
        let rel = Relation::from_tuples(
            "Big",
            1,
            (0..(FRAME_ROWS as i64 * 2 + 7)).map(|i| Tuple::from_ints(&[i])),
        )
        .unwrap();
        let frames = relation_frames(&rel);
        assert!(matches!(&frames[0], Frame::Rel { rows, .. } if *rows == rel.len() as u64));
        let mut rebuilt = Relation::new("Big", 1);
        let mut streamed = Vec::new();
        for frame in &frames[1..] {
            match frame {
                Frame::Rows { rows, .. } => {
                    assert!(rows.len() <= FRAME_ROWS);
                    for t in rows {
                        streamed.push(t.clone());
                        rebuilt.insert(t.clone()).unwrap();
                    }
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // Streamed in sorted order (the Relation's canonical iteration),
        // and the rebuild is the identical relation.
        assert!(streamed.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rebuilt, rel);
    }
}
