//! `trace-check` — validate a trace file emitted by `gumbo-cli --trace`.
//!
//! Usage: `trace-check PATH [--format chrome|jsonl]`
//!
//! For Chrome traces the whole file must parse as a JSON array of
//! trace events, within every `tid` lane the `B`/`E` phase events must
//! balance like brackets (each `E` closes the most recent open `B` with
//! the same name), and every event name must come from the known span/
//! instant vocabulary below — a renamed or typo'd emitter fails here
//! instead of silently producing an unrecognizable trace. For JSONL
//! traces every line must parse as a JSON object carrying `ts_ns`,
//! `lane`, `ph`, and `name`, with the same name validation.
//!
//! Exits 0 and prints a one-line summary on success; prints the first
//! problem to stderr and exits 1 otherwise. CI runs this against the
//! trace artifact so a malformed exporter fails the build, not the
//! person who later loads the file into Perfetto.

use std::process::ExitCode;

use gumbo::obs::json::Json;
use gumbo::obs::TraceFormat;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("trace-check: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut path: Option<&str> = None;
    let mut format = TraceFormat::Chrome;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| "--format requires a value".to_string())?;
                format = TraceFormat::parse(value)?;
                i += 2;
            }
            "--help" | "-h" => {
                return Ok("usage: trace-check PATH [--format chrome|jsonl]".to_string());
            }
            arg if arg.starts_with("--") => return Err(format!("unknown flag {arg:?}")),
            arg => {
                if path.replace(arg).is_some() {
                    return Err("expected exactly one PATH argument".to_string());
                }
                i += 1;
            }
        }
    }
    let path = path.ok_or_else(|| "usage: trace-check PATH [--format chrome|jsonl]".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    match format {
        TraceFormat::Chrome => check_chrome(&text),
        TraceFormat::Jsonl => check_jsonl(&text),
    }
}

/// Every span name the engine emits (`B`/`E` pairs). Grown alongside the
/// emitters — an unknown name in a trace means an emitter changed without
/// updating the checker (or the file is not a gumbo trace).
const KNOWN_SPANS: &[&str] = &[
    "execute",
    "job",
    "plan",
    "map",
    "map:task",
    "shuffle:flush",
    "reduce",
    "reduce:task",
    "commit",
    "spill:run",
    "spill:merge",
    "dfs.store",
];

/// Every instant-event name (`i` phase): scheduler lifecycle, budget and
/// DFS scan markers.
const KNOWN_INSTANTS: &[&str] = &[
    "sched:submit",
    "sched:admit",
    "sched:ready",
    "sched:claim",
    "sched:complete",
    "sched:threads_assigned",
    "budget:exhausted",
    "spill:run",
    "dfs.scan",
    "svc:accept",
    "svc:submit",
    "svc:admit",
    "svc:stream",
    "svc:complete",
    "svc:drain",
];

fn check_name(idx: usize, ph: &str, name: &str) -> Result<(), String> {
    let known = match ph {
        "i" => KNOWN_INSTANTS,
        _ => KNOWN_SPANS,
    };
    if known.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "event {idx}: unknown {} name {name:?}",
            if ph == "i" { "instant" } else { "span" }
        ))
    }
}

/// Validate a Chrome trace-event file: one JSON array, balanced `B`/`E`
/// per `tid` lane with matching names, LIFO order, known names only.
fn check_chrome(text: &str) -> Result<String, String> {
    let root = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = root.as_arr().ok_or("top-level value is not an array")?;
    // One open-span stack per tid; Chrome nesting is per-thread LIFO.
    let mut stacks: Vec<(u64, Vec<String>)> = Vec::new();
    let mut spans = 0u64;
    let mut instants = 0u64;
    for (idx, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing \"ph\""))?;
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing \"name\""))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {idx}: missing \"tid\""))?;
        if event.get("ts").and_then(Json::as_f64).is_none() {
            return Err(format!("event {idx}: missing \"ts\""));
        }
        check_name(idx, ph, name)?;
        let stack = match stacks.iter_mut().find(|(lane, _)| *lane == tid) {
            Some((_, stack)) => stack,
            None => {
                stacks.push((tid, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let open = stack.pop().ok_or_else(|| {
                    format!("event {idx}: \"E\" {name:?} with no open span on tid {tid}")
                })?;
                if open != name {
                    return Err(format!(
                        "event {idx}: \"E\" {name:?} closes open span {open:?} on tid {tid}"
                    ));
                }
                spans += 1;
            }
            "i" => instants += 1,
            other => return Err(format!("event {idx}: unexpected phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed span {open:?} on tid {tid}"));
        }
    }
    Ok(format!(
        "ok: {spans} spans, {instants} instants across {} lanes",
        stacks.len()
    ))
}

/// Validate a JSONL trace: every line is a JSON object with the fields
/// the sink promises.
fn check_jsonl(text: &str) -> Result<String, String> {
    let mut lines = 0u64;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event =
            Json::parse(line).map_err(|e| format!("line {}: invalid JSON: {e}", idx + 1))?;
        for key in ["ts_ns", "lane", "ph", "name"] {
            if event.get(key).is_none() {
                return Err(format!("line {}: missing {key:?}", idx + 1));
            }
        }
        let ph = event.get("ph").and_then(Json::as_str).unwrap_or("");
        let name = event.get("name").and_then(Json::as_str).unwrap_or("");
        check_name(idx + 1, ph, name)?;
        lines += 1;
    }
    Ok(format!("ok: {lines} events"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: &str, name: &str) -> String {
        format!(r#"{{"ph":"{ph}","name":"{name}","tid":1,"ts":1.0}}"#)
    }

    #[test]
    fn chrome_rejects_unknown_span_names() {
        let text = format!("[{},{}]", ev("B", "map:warp"), ev("E", "map:warp"));
        let err = check_chrome(&text).unwrap_err();
        assert!(err.contains("unknown span name"), "{err}");
    }

    #[test]
    fn chrome_rejects_span_name_as_instant() {
        let err = check_chrome(&format!("[{}]", ev("i", "map:task"))).unwrap_err();
        assert!(err.contains("unknown instant name"), "{err}");
    }

    #[test]
    fn jsonl_validates_names_too() {
        let good = r#"{"ts_ns":1,"lane":1,"ph":"B","name":"shuffle:flush"}
{"ts_ns":2,"lane":1,"ph":"E","name":"shuffle:flush"}"#;
        assert!(check_jsonl(good).is_ok());
        let bad = r#"{"ts_ns":1,"lane":1,"ph":"B","name":"mystery"}"#;
        assert!(check_jsonl(bad).unwrap_err().contains("unknown span name"));
    }
}
