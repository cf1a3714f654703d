//! Restart over a directory an older release left behind. Such a
//! `KBP_SERVICE_CACHE_DIR` holds persisted scenario definitions next to
//! `.kbps` artifact-cache session files, which no release reads any
//! more. A daemon started over it must restore the definition, ignore
//! the session files (valid and corrupt alike, leaving them untouched),
//! and answer the golden batch and a job on the defined scenario
//! byte-identically to a fresh daemon that was sent the definition.
//!
//! `data/old_cache_dir` was written by a release that still had the
//! cache: one `define` of the bit-transmission DSL example, one solve of
//! it, then a graceful shutdown.

use kbp_service::json::{obj, Json};
use kbp_service::DefinitionStore;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};

const INPUT: &str = include_str!("data/smoke_input.jsonl");
const GOLDEN: &str = include_str!("data/smoke_golden.jsonl");
const OLD_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/old_cache_dir");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kbpd-restart-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

/// Spawns `kbpd --listen` over `dir` with every ambient `KBP_SERVICE_*`
/// variable removed, so the test pins the configuration it runs under.
fn spawn_daemon(dir: &Path) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kbpd"));
    for (var, _) in std::env::vars() {
        if var.starts_with("KBP_SERVICE_") {
            cmd.env_remove(var);
        }
    }
    cmd.env("KBP_SERVICE_WORKERS", "2");
    cmd.env("KBP_SERVICE_CACHE_DIR", dir);
    let mut child = cmd
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("kbpd spawns");
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout piped");
    let announce = BufReader::new(stdout)
        .lines()
        .next()
        .expect("announce line")
        .expect("announce reads");
    let addr = announce
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("address in announce")
        .to_string();
    Daemon { child, stdin, addr }
}

impl Daemon {
    /// Sends `lines` on one connection and reads one response per line.
    fn round_trip(&self, lines: &[String]) -> Vec<String> {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        for line in lines {
            writeln!(stream, "{line}").expect("write");
        }
        stream.shutdown(Shutdown::Write).expect("half-close");
        let responses: Vec<String> = BufReader::new(stream)
            .lines()
            .map(|line| line.expect("read"))
            .collect();
        assert_eq!(responses.len(), lines.len(), "{responses:?}");
        responses
    }

    fn shutdown(mut self) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("kbpd exits");
        assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    }
}

/// Every file of `dir` with its bytes, sorted by name.
fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf8 name");
            (name, std::fs::read(entry.path()).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn restart_over_an_old_directory_restores_definitions_and_ignores_sessions() {
    let old = Path::new(OLD_DIR);
    let records = DefinitionStore::open(old)
        .expect("fixture opens")
        .load_definitions()
        .expect("fixture lists");
    let [(fingerprint, record)] = records.as_slice() else {
        panic!("the fixture holds exactly one definition: {records:?}");
    };
    let sessions = std::fs::read_dir(old)
        .expect("fixture dir")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "kbps"))
        })
        .count();
    assert_eq!(sessions, 1, "the fixture holds a valid session file");

    // The old directory, plus a corrupt session file.
    let dir = temp_dir("old");
    for (name, bytes) in contents(old) {
        std::fs::write(dir.join(name), bytes).expect("copy fixture");
    }
    std::fs::write(dir.join("00000000deadbeef.kbps"), b"not a session").expect("write garbage");
    let before = contents(&dir);

    let batch: Vec<String> = INPUT.lines().map(str::to_string).collect();
    let golden: Vec<String> = GOLDEN.lines().map(str::to_string).collect();
    let solve = format!(
        "{{\"id\":7,\"kind\":\"solve\",\"scenario\":\"{}\"}}",
        record.name
    );

    // A fresh daemon, sent the same definition over the wire.
    let fresh_dir = temp_dir("fresh");
    let fresh = spawn_daemon(&fresh_dir);
    let define = obj(vec![
        ("op", Json::Str("define".into())),
        ("id", Json::U64(1)),
        ("name", Json::Str(record.name.clone())),
        ("source", Json::Str(record.source.clone())),
        ("client", Json::Str(record.owner.clone())),
    ])
    .to_line();
    let defined = fresh.round_trip(&[define]);
    assert!(
        defined[0].contains(&format!("\"fingerprint\":{fingerprint},")),
        "the define fingerprint names the old file: {defined:?}"
    );
    let mut fresh_answers = fresh.round_trip(&batch);
    fresh_answers.extend(fresh.round_trip(std::slice::from_ref(&solve)));
    fresh.shutdown();
    assert_eq!(fresh_answers[..batch.len()], golden[..]);
    assert!(
        fresh_answers[batch.len()].contains("\"ok\":true"),
        "{fresh_answers:?}"
    );

    // The daemon over the old directory: definition restored, session
    // files ignored, every answer byte-identical.
    let restarted = spawn_daemon(&dir);
    let mut answers = restarted.round_trip(&batch);
    answers.extend(restarted.round_trip(std::slice::from_ref(&solve)));
    let metrics = restarted.round_trip(&["{\"kind\":\"metrics\",\"id\":9}".to_string()]);
    restarted.shutdown();
    assert_eq!(answers, fresh_answers);
    assert!(
        metrics[0].contains("\"definitions\":{\"active\":1,\"restored\":1,"),
        "{metrics:?}"
    );
    assert!(!metrics[0].contains("\"cache\""), "{metrics:?}");
    assert_eq!(
        contents(&dir),
        before,
        "the old files are left exactly as they were"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}
