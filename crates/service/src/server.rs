//! The serving front end: `kbpd --listen` over TCP ([`Server`]) and
//! `kbpd`'s stdin/stdout mode ([`serve_stream`]). Both run one routine:
//! spawn a worker pool over a shared bounded [`JobQueue`], run the
//! event-driven plane of [`crate::plane`] inline — over a `TcpListener`,
//! or over one pipe connection and no listener — then close the queue
//! and join the workers. The plane answers
//! in per-connection request order however the pool schedules.
//!
//! # Thread inventory
//!
//! PR 6 spent `2 + workers + 2·connections` threads (accept loop,
//! stdin watcher, pool, and a reader/writer pair per connection), so
//! the connection cap was really a thread budget. Now the count is
//! `1 + workers` (the plane runs inline on the serving thread) plus
//! whatever the embedding binary adds — independent of how many
//! connections are open. Idle connections cost one map entry. Stdin
//! mode adds the pipe's forwarding thread: `2 + workers`.
//!
//! Admission control is layered and fully typed: the shared queue
//! rejects with [`QueueFull`] when the daemon is saturated, the
//! tenant-scoped pending quota (keyed by the request's optional
//! `client` token, falling back to the peer address) rejects with
//! `quota_exceeded`, the connection cap refuses with
//! `too_many_connections`, and the plane's protection policies (idle
//! timeout, read deadline, write budget, write stall) close with a
//! best-effort typed notice and a metrics counter. A client is never
//! silently dropped. The stdin pipe is the operator's own: only the
//! queue bound applies to it.
//!
//! # Drain-on-shutdown argument
//!
//! Every admitted job increments a global in-flight count that only
//! the plane decrements, on receipt of the worker's completion — even
//! when the owning connection was force-closed meanwhile (the response
//! is then counted `responses_dropped` instead of delivered).
//! [`ServerHandle::shutdown`] flips the plane into draining mode: stop
//! accepting, admit nothing new, read-and-discard inbound bytes (so a
//! close cannot RST away buffered responses), flush what is owed, and
//! exit exactly when no connections and no in-flight jobs remain. Then
//! the queue is closed and the workers join.
//! So "run returned" *is* the proof that every accepted request was
//! answered or explicitly counted dropped. Stdin mode needs no shutdown
//! signal: its plane exits the same way once the pipe has closed.

use crate::job::JobRequest;
use crate::plane::{run_plane, Completion, PendingTable, Pipe, PlaneShared};
use crate::queue::JobQueue;
use crate::service::Service;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A job admitted to the shared queue, labelled with everything the
/// worker needs to answer it: the owning connection, its request index
/// there (reorder key), and the client identity whose quota slot to
/// return.
pub(crate) struct QueuedJob {
    pub(crate) job: JobRequest,
    pub(crate) conn: u64,
    pub(crate) index: usize,
    pub(crate) client: String,
}

/// The TCP front end. Bind with [`Server::bind`], then [`Server::run`]
/// until a [`ServerHandle::shutdown`] (or listener error).
#[derive(Debug)]
pub struct Server {
    service: Arc<Service>,
    listener: TcpListener,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

/// A cloneable shutdown handle for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address (useful with `--listen 127.0.0.1:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown: the server stops accepting, drains
    /// every admitted job (delivering where the connection survives,
    /// counting drops where it does not), before [`Server::run`]
    /// returns. Idempotent. The plane notices the flag
    /// on its next pass, at most one 1 ms tick later — no wake-up
    /// connection needed.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds the listener and takes ownership of the service.
    ///
    /// # Errors
    ///
    /// Any `TcpListener::bind` failure (address in use, permission, …).
    pub fn bind<A: ToSocketAddrs>(addr: A, service: Service) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            service: Arc::new(service),
            listener,
            local_addr,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A shutdown handle usable from any thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            addr: self.local_addr,
        }
    }

    /// Serves until shutdown. Consumes the server; when this returns,
    /// every accepted request has been answered (or counted dropped
    /// against a force-closed connection), and all threads are joined.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection and per-line problems
    /// are typed responses or counted closes, never a dead server.
    pub fn run(self) -> std::io::Result<()> {
        serve(&self.service, Some(&self.listener), None, &self.stop)
    }
}

/// Serves the line protocol over a byte stream pair — `kbpd`'s
/// stdin/stdout mode — as one pipe connection of the plane, exempt from
/// the per-client quota and the protection policies. Returns once the
/// input has ended and every request has been
/// answered in order, or once the output has failed and no job is in
/// flight. In the latter case the thread forwarding `input` may stay
/// blocked in `read`.
pub fn serve_stream<R, W>(service: Service, input: R, output: W)
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let pipe: Pipe = (Box::new(input), Box::new(output));
    let stop = AtomicBool::new(false);
    // Without a listener the plane has no fallible step.
    let _ = serve(&Arc::new(service), None, Some(pipe), &stop);
}

/// The one serving routine: spawn the pool, run the plane, close the
/// queue, join the workers.
fn serve(
    service: &Arc<Service>,
    listener: Option<&TcpListener>,
    pipe: Option<Pipe>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let config = service.config();
    let queue = Arc::new(JobQueue::new(config.queue_capacity, config.retry_after_ms));
    let shared = Arc::new(PlaneShared::new());
    let pending = Arc::new(PendingTable::new());
    let workers = spawn_workers(service, &queue, &shared, &pending, config.workers);
    // The plane runs inline: this thread IS the connection plane.
    let result = run_plane(service, &queue, listener, pipe, &shared, &pending, stop);
    // The plane has exited with zero in-flight jobs: nothing new can be
    // admitted. Close the queue so workers drain and exit.
    queue.close();
    for worker in workers {
        let _ = worker.join();
    }
    result
}

fn spawn_workers(
    service: &Arc<Service>,
    queue: &Arc<JobQueue<QueuedJob>>,
    shared: &Arc<PlaneShared>,
    pending: &Arc<PendingTable>,
    count: usize,
) -> Vec<JoinHandle<()>> {
    (0..count.max(1))
        .map(|_| {
            let service = Arc::clone(service);
            let queue = Arc::clone(queue);
            let shared = Arc::clone(shared);
            let pending = Arc::clone(pending);
            std::thread::spawn(move || {
                while let Some(queued) = queue.pop() {
                    let QueuedJob {
                        job,
                        conn,
                        index,
                        client,
                    } = queued;
                    let line = service.execute(&job).to_line();
                    // Deliver first, then return the quota slot: the
                    // slot frees only once the answer is on its way.
                    shared.deliver(Completion { conn, index, line });
                    pending.release(&client);
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse as parse_json, Json};
    use crate::service::ServiceConfig;
    use std::io::{BufRead, BufReader};
    use std::net::{Shutdown, TcpStream};
    use std::time::Duration;

    fn start(config: ServiceConfig) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
        let server = Server::bind("127.0.0.1:0", Service::new(config)).expect("bind");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        (handle, thread)
    }

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for line in lines {
            writeln!(stream, "{line}").expect("write");
        }
        stream.shutdown(Shutdown::Write).expect("half-close");
        BufReader::new(stream)
            .lines()
            .collect::<Result<Vec<_>, _>>()
            .expect("read responses")
    }

    #[test]
    fn serves_jobs_in_request_order_over_tcp() {
        let (handle, thread) = start(ServiceConfig::new().workers(3));
        let responses = send_lines(
            handle.addr(),
            &[
                r#"{"id":10,"kind":"solve","scenario":"zoo_plain"}"#,
                r#"{"id":11,"kind":"solve","scenario":"bit_transmission"}"#,
                r#"{"kind":"health"}"#,
                r#"{"id":12,"kind":"solve","scenario":"zoo_plain"}"#,
            ],
        );
        let ids: Vec<Option<u64>> = responses
            .iter()
            .map(|line| {
                parse_json(line)
                    .expect("json")
                    .get("id")
                    .and_then(Json::as_u64)
            })
            .collect();
        assert_eq!(ids, vec![Some(10), Some(11), None, Some(12)]);
        handle.shutdown();
        thread.join().expect("join").expect("run");
    }

    #[test]
    fn two_clients_interleave_without_crosstalk() {
        let (handle, thread) = start(ServiceConfig::new().workers(4));
        let addr = handle.addr();
        let a = std::thread::spawn(move || {
            send_lines(
                addr,
                &[
                    r#"{"id":1,"kind":"solve","scenario":"zoo_plain"}"#,
                    r#"{"id":2,"kind":"solve","scenario":"muddy_children_3"}"#,
                ],
            )
        });
        let b = std::thread::spawn(move || {
            send_lines(
                addr,
                &[
                    r#"{"id":100,"kind":"solve","scenario":"bit_transmission"}"#,
                    r#"{"id":101,"kind":"solve","scenario":"zoo_plain"}"#,
                ],
            )
        });
        let a = a.join().expect("client a");
        let b = b.join().expect("client b");
        let ids = |lines: &[String]| -> Vec<u64> {
            lines
                .iter()
                .map(|l| {
                    parse_json(l)
                        .expect("json")
                        .get("id")
                        .and_then(Json::as_u64)
                        .expect("id")
                })
                .collect()
        };
        assert_eq!(ids(&a), vec![1, 2], "client a sees only its ids, in order");
        assert_eq!(ids(&b), vec![100, 101], "client b likewise");
        handle.shutdown();
        thread.join().expect("join").expect("run");
    }

    #[test]
    fn malformed_lines_get_typed_responses_with_id_hints() {
        let (handle, thread) = start(ServiceConfig::new().workers(1).max_line(256));
        let big = format!(
            r#"{{"id":1,"kind":"solve","scenario":"{}"}}"#,
            "x".repeat(400)
        );
        let responses = send_lines(
            handle.addr(),
            &[
                "this is not json",
                r#"{"id":77,"kind":"dance","scenario":"zoo_plain"}"#,
                &big,
                r#"{"id":5,"kind":"solve","scenario":"zoo_plain"}"#,
            ],
        );
        assert_eq!(responses.len(), 4, "every line is answered: {responses:?}");
        let parsed: Vec<Json> = responses
            .iter()
            .map(|l| parse_json(l).expect("json"))
            .collect();
        assert_eq!(parsed[0].get("id"), Some(&Json::Null));
        let kind = |v: &Json| v.get("error").and_then(|e| e.get("kind").cloned());
        assert_eq!(kind(&parsed[0]), Some(Json::Str("parse".into())));
        // Parseable JSON with a bad field: the id comes back.
        assert_eq!(parsed[1].get("id").and_then(Json::as_u64), Some(77));
        assert_eq!(kind(&parsed[1]), Some(Json::Str("unknown_kind".into())));
        assert_eq!(kind(&parsed[2]), Some(Json::Str("oversized".into())));
        assert_eq!(parsed[3].get("ok"), Some(&Json::Bool(true)));
        handle.shutdown();
        thread.join().expect("join").expect("run");
    }

    #[test]
    fn quota_rejections_are_typed_and_the_connection_survives() {
        // One worker, quota 1, and a queue big enough that only the
        // quota can reject: the first job occupies the quota slot while
        // burst jobs arrive, so at least one burst job must be rejected
        // with quota_exceeded — and later requests still get answers.
        let (handle, thread) = start(
            ServiceConfig::new()
                .workers(1)
                .queue_capacity(64)
                .client_pending(1),
        );
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        for id in 0..8 {
            writeln!(
                stream,
                r#"{{"id":{id},"kind":"solve","scenario":"muddy_children_3"}}"#
            )
            .expect("write");
        }
        stream.shutdown(Shutdown::Write).expect("half-close");
        let responses: Vec<String> = BufReader::new(stream)
            .lines()
            .collect::<Result<Vec<_>, _>>()
            .expect("read");
        assert_eq!(responses.len(), 8, "no request goes unanswered");
        let parsed: Vec<Json> = responses
            .iter()
            .map(|l| parse_json(l).expect("json"))
            .collect();
        for (i, response) in parsed.iter().enumerate() {
            assert_eq!(
                response.get("id").and_then(Json::as_u64),
                Some(i as u64),
                "per-connection order"
            );
        }
        let rejected: Vec<&Json> = parsed
            .iter()
            .filter(|r| {
                r.get("error")
                    .and_then(|e| e.get("kind"))
                    .is_some_and(|k| k == &Json::Str("quota_exceeded".into()))
            })
            .collect();
        assert!(
            !rejected.is_empty(),
            "an 8-deep burst against quota 1 must trip the quota: {responses:?}"
        );
        for r in &rejected {
            let error = r.get("error").expect("error");
            assert_eq!(error.get("limit").and_then(Json::as_u64), Some(1));
        }
        assert!(
            parsed
                .iter()
                .any(|r| r.get("ok") == Some(&Json::Bool(true))),
            "the quota slot itself is served"
        );
        handle.shutdown();
        thread.join().expect("join").expect("run");
    }

    #[test]
    fn connection_cap_refuses_with_a_typed_line() {
        let (handle, thread) = start(ServiceConfig::new().workers(1).max_connections(1));
        // Occupy the single slot with an idle connection.
        let holder = TcpStream::connect(handle.addr()).expect("connect holder");
        // Give the accept loop a moment to register it.
        std::thread::sleep(Duration::from_millis(100));
        let refused = TcpStream::connect(handle.addr()).expect("connect refused");
        let mut lines = BufReader::new(refused).lines();
        let line = lines.next().expect("refusal line").expect("read");
        let parsed = parse_json(&line).expect("json");
        assert_eq!(
            parsed.get("error").and_then(|e| e.get("kind")),
            Some(&Json::Str("too_many_connections".into()))
        );
        assert!(lines.next().is_none(), "refused connection is closed");
        drop(holder);
        handle.shutdown();
        thread.join().expect("join").expect("run");
    }

    #[test]
    fn shutdown_drains_inflight_jobs() {
        let (handle, thread) = start(ServiceConfig::new().workers(1));
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        for id in 0..5 {
            writeln!(
                stream,
                r#"{{"id":{id},"kind":"solve","scenario":"bit_transmission"}}"#
            )
            .expect("write");
        }
        stream.flush().expect("flush");
        // Shut down while jobs are (likely) still queued behind the
        // single worker. Every admitted job must still be answered.
        std::thread::sleep(Duration::from_millis(50));
        handle.shutdown();
        thread.join().expect("join").expect("run");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let responses: Vec<String> = BufReader::new(stream)
            .lines()
            .collect::<Result<Vec<_>, _>>()
            .expect("read");
        assert_eq!(
            responses.len(),
            5,
            "drain answered everything: {responses:?}"
        );
        for (i, line) in responses.iter().enumerate() {
            let parsed = parse_json(line).expect("json");
            assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        }
    }
}
