//! Docs rot: every `--flag` the README passes to `gumbo-cli` must appear
//! in the binary's own usage text (one-shot mode and each subcommand), so
//! deleting or renaming a flag fails here until the docs follow.

use std::collections::BTreeSet;
use std::process::Command;

/// The usage text of one `gumbo-cli ... --help` invocation. Usage goes to
/// stderr with a nonzero exit, like any other argument error.
fn usage(subcommand: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gumbo-cli"));
    cmd.args(subcommand).arg("--help");
    let out = cmd.output().expect("run gumbo-cli --help");
    let text = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(text.contains("usage: gumbo-cli"), "no usage text: {text:?}");
    text
}

/// `--flag` tokens in `text`.
fn flags(text: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("--") {
        let name: String = rest[at + 2..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
            .collect();
        if name.starts_with(|c: char| c.is_ascii_alphabetic()) {
            found.insert(format!("--{name}"));
        }
        rest = &rest[at + 2 + name.len()..];
    }
    found
}

/// Flags on README lines that invoke `gumbo-cli`, with each invocation's
/// `\`-continued lines. On `cargo run ... --bin gumbo-cli` lines only the
/// text after the binary name counts: the flags before it are cargo's.
fn readme_flags() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("read README.md");
    let mut found = BTreeSet::new();
    let mut continued = false;
    for line in readme.lines() {
        if line.contains("gumbo-cli") {
            let tail = match line.find("--bin gumbo-cli") {
                Some(at) => &line[at + "--bin gumbo-cli".len()..],
                None => line,
            };
            found.extend(flags(tail));
        } else if continued {
            found.extend(flags(line));
        } else {
            continue;
        }
        continued = line.trim_end().ends_with('\\');
    }
    found
}

#[test]
fn readme_gumbo_cli_flags_exist_in_usage() {
    let usage: String = [None, Some("serve"), Some("query"), Some("shutdown")]
        .into_iter()
        .map(usage)
        .collect();
    let known = flags(&usage);
    let documented = readme_flags();
    assert!(
        documented.len() >= 10,
        "README parse found too few gumbo-cli flags: {documented:?}"
    );
    let stale: Vec<&String> = documented.difference(&known).collect();
    assert!(
        stale.is_empty(),
        "README passes gumbo-cli flags its usage text does not list: {stale:?}"
    );
}
