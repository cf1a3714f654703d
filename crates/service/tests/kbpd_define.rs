//! End-to-end coverage for the `define` wire op: a client registers a
//! DSL scenario over TCP, solves it bit-identically to the compiled-in
//! registry version, and the definition survives a restart of the
//! daemon (fresh `Server` over the same definitions directory).

use kbp_service::json::{obj, parse as parse_json, Json};
use kbp_service::{Server, ServerHandle, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;

fn start(config: ServiceConfig) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", Service::new(config)).expect("bind");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (handle, thread)
}

fn send_lines(addr: SocketAddr, lines: &[String]) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in lines {
        writeln!(stream, "{line}").expect("write");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|line| parse_json(&line.expect("read")).expect("json"))
        .collect()
}

fn dsl_source() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/dsl/bit_transmission.kbp"
    );
    std::fs::read_to_string(path).expect("bit_transmission example exists")
}

fn define_line(id: u64, name: &str, source: &str, client: &str) -> String {
    obj(vec![
        ("op", Json::Str("define".into())),
        ("id", Json::U64(id)),
        ("name", Json::Str(name.into())),
        ("source", Json::Str(source.into())),
        ("client", Json::Str(client.into())),
    ])
    .to_line()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbpd-define-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The solve of a `define`d scenario must match the registry scenario's
/// response on every field except the echoed name.
fn assert_same_solution(registry: &Json, defined: &Json, defined_name: &str) {
    let (Json::Obj(registry), Json::Obj(defined)) = (registry, defined) else {
        panic!("solve responses must be objects");
    };
    assert_eq!(registry.len(), defined.len());
    for ((rk, rv), (dk, dv)) in registry.iter().zip(defined.iter()) {
        assert_eq!(rk, dk, "field order must match");
        match rk.as_str() {
            "scenario" => assert_eq!(dv, &Json::Str(defined_name.into())),
            "id" => {}
            _ => assert_eq!(rv, dv, "field '{rk}' differs"),
        }
    }
}

#[test]
fn define_solve_and_warm_restart_over_tcp() {
    let dir = temp_dir("restart");
    let source = dsl_source();
    let config = || {
        ServiceConfig::new()
            .workers(2)
            .client_definitions(1)
            .cache_dir(Some(dir.clone()))
    };

    let first_solve;
    {
        let (handle, thread) = start(config());
        let responses = send_lines(
            handle.addr(),
            &[
                define_line(1, "bit_transmission_dsl", &source, "tenant-a"),
                r#"{"id":2,"kind":"solve","scenario":"bit_transmission"}"#.into(),
                r#"{"id":3,"kind":"solve","scenario":"bit_transmission_dsl"}"#.into(),
            ],
        );
        assert_eq!(responses.len(), 3);
        let defined = &responses[0];
        assert_eq!(defined.get("ok"), Some(&Json::Bool(true)), "{defined:?}");
        assert_eq!(defined.get("kind"), Some(&Json::Str("define".into())));
        assert_eq!(
            defined.get("scenario"),
            Some(&Json::Str("bit_transmission_dsl".into()))
        );
        assert_same_solution(&responses[1], &responses[2], "bit_transmission_dsl");
        first_solve = responses[2].clone();

        // Admission failures over the wire: registry shadowing, quota,
        // and compile errors all answer typed kinds on a live socket.
        let rejected = send_lines(
            handle.addr(),
            &[
                define_line(4, "bit_transmission", &source, "tenant-a"),
                define_line(5, "second_name", &source, "tenant-a"),
                obj(vec![
                    ("op", Json::Str("define".into())),
                    ("id", Json::U64(6)),
                    (
                        "source",
                        Json::Str("scenario broken {\n  agents a\n}\n".into()),
                    ),
                ])
                .to_line(),
            ],
        );
        let kinds: Vec<Option<&str>> = rejected
            .iter()
            .map(|r| {
                r.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                Some("name_reserved"),
                Some("definition_quota"),
                Some("invalid_program"),
            ]
        );
        let diags = rejected[2]
            .get("error")
            .and_then(|e| e.get("diagnostics"))
            .expect("invalid_program carries diagnostics");
        let Json::Arr(diags) = diags else {
            panic!("diagnostics must be an array");
        };
        assert!(!diags.is_empty());
        assert!(diags[0].get("line").and_then(Json::as_u64).is_some());
        assert!(diags[0].get("col").and_then(Json::as_u64).is_some());

        handle.shutdown();
        thread.join().expect("join").expect("run");
    }

    // Restart: a fresh server over the same definitions directory
    // answers the defined name without any client re-defining it, and
    // the solution is byte-for-byte the pre-restart one.
    {
        let (handle, thread) = start(config());
        let responses = send_lines(
            handle.addr(),
            &[
                r#"{"id":3,"kind":"solve","scenario":"bit_transmission_dsl"}"#.into(),
                r#"{"kind":"metrics"}"#.into(),
            ],
        );
        assert_eq!(responses[0].to_line(), first_solve.to_line());
        let defs = responses[1]
            .get("definitions")
            .expect("metrics surface the definitions block");
        assert_eq!(defs.get("active").and_then(Json::as_u64), Some(1));
        assert_eq!(defs.get("restored").and_then(Json::as_u64), Some(1));
        handle.shutdown();
        thread.join().expect("join").expect("run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
