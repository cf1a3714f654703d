//! `kbpd` — the knowledge-based-program batch daemon.
//!
//! Two modes, one wire protocol (JSON lines, responses in per-client
//! request order) and one serving path (the connection plane):
//!
//! * **stdin/stdout** (default): reads requests on stdin, answers on
//!   stdout, exits 0 at end of input — or once stdout's reader has gone
//!   away. The original batch mode, served as one pipe connection that
//!   is exempt from the per-client quota and the connection protection
//!   policies.
//! * **`--listen ADDR`**: serves the same protocol over TCP to many
//!   concurrent clients, with per-client admission quotas and a
//!   connection cap. Prints one `{"kind":"listening","addr":...}` line
//!   on stdout, then serves until stdin reaches EOF (the graceful
//!   shutdown signal: stop accepting, drain every admitted job, exit 0).
//!
//! Every job solves cold; the only state kept across requests, and
//! across restarts when `KBP_SERVICE_CACHE_DIR` is set, is the table of
//! `define`d scenarios.
//!
//! Exits 2 on a malformed configuration (typed error on stderr) — a
//! typo in any `KBP_*` variable refuses to start rather than silently
//! serving with a default the operator did not choose.
//!
//! ```text
//! $ printf '%s\n' '{"id":1,"kind":"solve","scenario":"bit_transmission"}' | kbpd
//! {"id":1,"ok":true,"kind":"solve",...}
//! ```

use kbp_service::{serve_stream, Server, Service, ServiceConfig};
use std::io::{Read, Write};

fn main() {
    let mut listen: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", USAGE);
                return;
            }
            "--listen" => {
                let Some(addr) = args.next() else {
                    eprintln!("kbpd: --listen needs an address (e.g. 127.0.0.1:7469)");
                    std::process::exit(2);
                };
                listen = Some(addr);
            }
            other => {
                eprintln!("kbpd: unexpected argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }
    let config = match ServiceConfig::from_env() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("kbpd: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    let service = match Service::try_new(config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("kbpd: definitions directory unavailable: {e}");
            std::process::exit(2);
        }
    };

    match listen {
        None => serve_stream(service, std::io::stdin(), std::io::stdout()),
        Some(addr) => {
            let server = match Server::bind(addr.as_str(), service) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("kbpd: cannot listen on {addr}: {e}");
                    std::process::exit(2);
                }
            };
            // Announce the bound address (meaningful with :0) so
            // harnesses can connect without racing the bind.
            println!(
                "{{\"ok\":true,\"kind\":\"listening\",\"addr\":\"{}\"}}",
                server.local_addr()
            );
            let _ = std::io::stdout().flush();
            // Graceful shutdown signal: stdin EOF. Survives until the
            // parent closes the pipe (or the terminal hangs up).
            let handle = server.handle();
            std::thread::spawn(move || {
                let mut sink = [0u8; 4096];
                let mut stdin = std::io::stdin();
                while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                handle.shutdown();
            });
            if let Err(e) = server.run() {
                eprintln!("kbpd: listener failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

const USAGE: &str = "\
kbpd - knowledge-based-program batch daemon

Default mode reads one JSON job per line on stdin and writes one JSON
response per line on stdout in request order; exits 0 at end of input,
or when the reader of stdout goes away. The stdin pipe is exempt from
the per-client quota and the idle/write policies (connections only).
With --listen ADDR the same protocol is served over TCP to many clients
(responses ordered per connection); stdin EOF shuts down gracefully,
draining every admitted job. Every job solves cold.

Usage:
  kbpd                  stdin/stdout batch mode
  kbpd --listen ADDR    TCP mode (e.g. --listen 127.0.0.1:7469; :0 picks
                        a port, announced on stdout)

Request:  {\"id\":1,\"kind\":\"solve|enumerate|check|fault_lattice\",
           \"scenario\":\"<registry name>\",\"horizon\":N,
           \"fault\":\"none|loss|crash-stop|loss+crash-stop\",\"fault_seed\":N,
           \"client\":\"<tenant token>\" (optional; scopes quotas/metrics,
                     defaults to the peer address, never echoed back),
           \"budget\":{\"deadline_ms\":N,\"max_layer_points\":N,
                     \"max_guard_evaluations\":N,\"max_memory_bytes\":N}}
Monitor:  {\"op\":\"stats\"}  {\"kind\":\"health\"}  {\"kind\":\"metrics\"}
Define:   {\"op\":\"define\",\"id\":N,\"source\":\"<.kbp scenario text>\",
           \"name\":\"<wire name>\" (optional; defaults to the declared name),
           \"client\":\"<tenant token>\" (optional; definitions are owned and
                     quota'd per client)}
          registers a DSL scenario so later jobs can solve it by name;
          compile errors answer kind invalid_program with line/column
          diagnostics. Definitions persist across restarts when
          KBP_SERVICE_CACHE_DIR is set.

Environment (malformed values refuse startup with a typed error):
  KBP_SERVICE_WORKERS          worker threads (default: available parallelism)
  KBP_SERVICE_QUEUE            queue capacity (default 64); overflow answers queue_full
  KBP_SERVICE_CACHE_DIR        definitions directory: define'd scenarios are
                               saved there and reloaded at startup
  KBP_SERVICE_CLIENT_PENDING   per-client unanswered-request quota (default 16)
  KBP_SERVICE_CLIENT_DEFINITIONS  per-client defined-scenario quota
                               (default 8; 0 disables)
  KBP_SERVICE_MAX_CONNECTIONS  concurrent connections in --listen mode (default 32)
  KBP_SERVICE_MAX_LINE         request-line byte bound (default 1048576)
  KBP_SERVICE_IDLE_TIMEOUT_MS  close idle connections after this many ms
                               (default 300000; 0 disables)
  KBP_SERVICE_WRITE_BUDGET_BYTES  per-connection unflushed-response bound
                               (default 4194304; 0 disables); a slow
                               reader is closed with a write_budget notice
  KBP_SERVICE_WRITE_STALL_MS   close if a nonempty write buffer makes no
                               progress for this long (default 30000;
                               0 disables)
";
