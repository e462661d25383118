//! Transport abstraction: length-framed [`Message`] channels over any
//! blocking byte stream.
//!
//! The wire protocol ([`crate::protocol`]) is transport-agnostic; this
//! module supplies the stream layer beneath it:
//!
//! * [`Transport`] — one bidirectional message channel to a peer. Two
//!   implementations ship: [`ChildTransport`] (a spawned worker process's
//!   stdin/stdout pipes — the original stdio path, refactored behind the
//!   trait with identical framing bytes) and [`TcpTransport`]
//!   (`TcpStream` with `TCP_NODELAY`, optional read timeouts, and graceful
//!   EOF surfacing as `UnexpectedEof` so the coordinator classifies a
//!   vanished peer as worker-lost, not protocol corruption).
//!   [`StdioTransport`] is the worker-side half of the pipe pair.
//! * [`Listener`] — accepts inbound transports; [`TcpTransportListener`]
//!   wraps `std::net::TcpListener` for the `campaign --daemon` service,
//!   which remote workers dial with `--register`.
//! * [`Connector`] — how the coordinator engine obtains (and re-obtains,
//!   after a crash) the transport for one slot of a one-shot run:
//!   [`ProcessConnector`] spawns a local worker process.

use crate::protocol::{read_message, read_message_capped, write_message, Message};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

/// Environment variable carrying the worker's pool slot index to a spawned
/// process (diagnostic; the authoritative slot travels in the coordinator's
/// [`crate::protocol::Hello`]).
pub const WORKER_ID_ENV: &str = "QISMET_CLUSTER_WORKER_ID";

/// One blocking, bidirectional message channel to a peer.
///
/// Implementations frame every message identically (see
/// [`crate::protocol`]); only the byte stream underneath differs.
pub trait Transport: Send {
    /// Writes one framed message and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying stream (broken pipe,
    /// connection reset).
    fn send(&mut self, msg: &Message) -> io::Result<()>;

    /// Reads one framed message, blocking until it arrives.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when the peer closed the channel
    /// cleanly between messages; [`io::ErrorKind::InvalidData`] on framing
    /// corruption; timeout kinds when a read deadline (set via
    /// [`Transport::set_read_timeout`]) expires.
    fn recv(&mut self) -> io::Result<Message>;

    /// [`Transport::recv`] for a peer not yet authenticated: a frame
    /// claiming more than `max_bytes` is refused with
    /// [`io::ErrorKind::InvalidData`] before its body is read. Channels that
    /// carry whole messages, not bytes, ignore the cap.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv`], plus `InvalidData` for an over-cap frame.
    fn recv_capped(&mut self, max_bytes: usize) -> io::Result<Message> {
        let _ = max_bytes;
        self.recv()
    }

    /// Peer label for diagnostics (`"process 1234"`, `"127.0.0.1:9000"`).
    fn peer(&self) -> String;

    /// Bounds how long [`Transport::recv`] may block (`None` = forever).
    /// Transports without deadline support (pipes) accept and ignore it.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let _ = timeout;
        Ok(())
    }

    /// Writes raw bytes to the stream without framing them, then flushes.
    ///
    /// This deliberately bypasses the protocol layer; it exists so the
    /// [`chaos`](crate::chaos) fault injector can emit truncated or
    /// corrupted frames that the *peer's* parser must survive. Production
    /// code paths never call it.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] for transports that cannot expose
    /// their raw stream; otherwise propagates write failures.
    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        let _ = bytes;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport does not expose a raw byte stream",
        ))
    }
}

/// Accepts inbound [`Transport`] sessions (the service-daemon side).
pub trait Listener: Send {
    /// Blocks until the next peer connects.
    ///
    /// # Errors
    ///
    /// Propagates accept failures from the underlying listener.
    fn accept(&mut self) -> io::Result<Box<dyn Transport>>;

    /// The address this listener is bound to, for operator-facing logs.
    fn local_addr(&self) -> io::Result<String>;
}

// ---------------------------------------------------------------------------
// Child-process (stdio pipe) transport
// ---------------------------------------------------------------------------

/// How to launch one local worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerLaunch {
    /// Executable to spawn (typically `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments that put the binary into worker mode for the same campaign
    /// the coordinator expanded (grid flags plus `--worker`).
    pub args: Vec<String>,
}

impl WorkerLaunch {
    /// A launch spec; the worker inherits the parent's environment.
    pub fn new(program: PathBuf, args: Vec<String>) -> Self {
        WorkerLaunch { program, args }
    }
}

/// Coordinator-side transport over a spawned worker process's stdio pipes.
///
/// Pipes have no kernel-level read deadline, so a dedicated reader thread
/// owns the child's stdout and forwards parsed frames over an in-process
/// channel; [`Transport::recv`] then honors
/// [`Transport::set_read_timeout`] via a bounded channel wait. That makes a
/// *hung* local worker (process alive, frames stopped) detectable exactly
/// like a hung TCP peer.
///
/// Dropping the transport kills and reaps the child (which unblocks and
/// joins the reader thread), so an errored session can never leak a zombie
/// worker.
#[derive(Debug)]
pub struct ChildTransport {
    child: Child,
    stdin: ChildStdin,
    frames: Receiver<io::Result<Message>>,
    reader: Option<std::thread::JoinHandle<()>>,
    read_timeout: Option<Duration>,
}

impl ChildTransport {
    /// Spawns `launch` with piped stdio, tagging the process with its pool
    /// slot via [`WORKER_ID_ENV`].
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure.
    pub fn spawn(launch: &WorkerLaunch, worker: usize) -> io::Result<Self> {
        let mut cmd = Command::new(&launch.program);
        cmd.args(&launch.args)
            .env(WORKER_ID_ENV, worker.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            loop {
                let frame = read_message(&mut stdout);
                let ends_stream = frame.is_err();
                if tx.send(frame).is_err() || ends_stream {
                    // Receiver gone, or the pipe itself ended (EOF/error):
                    // either way the stream is over.
                    return;
                }
            }
        });
        Ok(ChildTransport {
            child,
            stdin,
            frames,
            reader: Some(reader),
            read_timeout: None,
        })
    }
}

impl ChildTransport {
    /// Waits for the worker to exit on its own (after a `Shutdown`).
    ///
    /// # Errors
    ///
    /// Propagates the wait failure.
    pub fn wait(&mut self) -> io::Result<std::process::ExitStatus> {
        self.child.wait()
    }
}

impl Transport for ChildTransport {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        write_message(&mut self.stdin, msg)
    }

    fn recv(&mut self) -> io::Result<Message> {
        let closed = || io::Error::new(io::ErrorKind::UnexpectedEof, "message channel closed");
        match self.read_timeout {
            Some(deadline) => match self.frames.recv_timeout(deadline) {
                Ok(frame) => frame,
                Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no frame within the {deadline:?} read deadline"),
                )),
                Err(RecvTimeoutError::Disconnected) => Err(closed()),
            },
            None => self.frames.recv().unwrap_or_else(|_| Err(closed())),
        }
    }

    fn peer(&self) -> String {
        format!("process {}", self.child.id())
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stdin.write_all(bytes)?;
        self.stdin.flush()
    }
}

impl Drop for ChildTransport {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Reaping closed the pipe, so the reader's next read errors out and
        // the thread exits; the join can only be brief.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Worker-side transport over the process's own stdin/stdout (the other
/// half of [`ChildTransport`]). Stdout belongs to the protocol while this
/// exists — workers must log to stderr only.
#[derive(Debug)]
pub struct StdioTransport {
    reader: BufReader<io::Stdin>,
    writer: io::Stdout,
}

impl StdioTransport {
    /// A transport over this process's stdin/stdout.
    pub fn new() -> Self {
        StdioTransport {
            reader: BufReader::new(io::stdin()),
            writer: io::stdout(),
        }
    }
}

impl Default for StdioTransport {
    fn default() -> Self {
        StdioTransport::new()
    }
}

impl Transport for StdioTransport {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        write_message(&mut self.writer, msg)
    }

    fn recv(&mut self) -> io::Result<Message> {
        read_message(&mut self.reader)
    }

    fn peer(&self) -> String {
        "stdio".to_string()
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// Transport over a TCP stream (`TCP_NODELAY` set — the protocol is
/// latency-bound request/response, not throughput-bound).
#[derive(Debug)]
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: String,
}

impl TcpTransport {
    /// Wraps an established stream (server side: fresh from `accept`).
    ///
    /// # Errors
    ///
    /// Propagates socket-option or handle-duplication failures.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Ok(TcpTransport {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            peer,
        })
    }

    /// Dials `addr` (`host:port`), bounding the connection attempt by
    /// `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates resolution and connection failures (every resolved
    /// address is tried; the last failure is returned).
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Self> {
        let mut last_err = None;
        for sock_addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock_addr, timeout) {
                Ok(stream) => return TcpTransport::from_stream(stream),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!("{addr} resolved to no addresses"),
            )
        }))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &Message) -> io::Result<()> {
        write_message(&mut self.writer, msg)
    }

    fn recv(&mut self) -> io::Result<Message> {
        read_message(&mut self.reader)
    }

    fn recv_capped(&mut self, max_bytes: usize) -> io::Result<Message> {
        read_message_capped(&mut self.reader, max_bytes)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        // reader and writer share one socket, so one setsockopt covers both.
        self.writer.set_read_timeout(timeout)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }
}

/// TCP listener for the `campaign --daemon` service.
#[derive(Debug)]
pub struct TcpTransportListener {
    inner: TcpListener,
}

impl TcpTransportListener {
    /// Binds `addr` (`host:port`; port 0 picks a free one — read it back
    /// via [`TcpTransportListener::socket_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(TcpTransportListener {
            inner: TcpListener::bind(addr)?,
        })
    }

    /// The bound socket address (resolved port included).
    ///
    /// # Errors
    ///
    /// Propagates the lookup failure.
    pub fn socket_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

impl Listener for TcpTransportListener {
    fn accept(&mut self) -> io::Result<Box<dyn Transport>> {
        let (stream, _) = self.inner.accept()?;
        Ok(Box::new(TcpTransport::from_stream(stream)?))
    }

    fn local_addr(&self) -> io::Result<String> {
        self.inner.local_addr().map(|a| a.to_string())
    }
}

// ---------------------------------------------------------------------------
// Connectors
// ---------------------------------------------------------------------------

/// How the coordinator engine obtains the transport for one slot of a
/// one-shot run.
///
/// `connect` is called again after a channel loss — for a process worker
/// that is a respawn. A slot whose connector keeps failing past its
/// respawn budget is declared lost and its unfinished work re-dispatched
/// to the surviving slots.
pub trait Connector: Send + Sync {
    /// Establishes (or re-establishes) the session for pool slot `worker`.
    ///
    /// # Errors
    ///
    /// Propagates spawn/dial failures; the engine treats them like a lost
    /// channel (they consume respawn budget, they are not fatal).
    fn connect(&self, worker: usize) -> io::Result<Box<dyn Transport>>;

    /// Human-readable description for diagnostics.
    fn describe(&self) -> String;
}

/// Spawns a local worker process per session.
#[derive(Debug, Clone)]
pub struct ProcessConnector {
    /// The worker launch spec.
    pub launch: WorkerLaunch,
}

impl Connector for ProcessConnector {
    fn connect(&self, worker: usize) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(ChildTransport::spawn(&self.launch, worker)?))
    }

    fn describe(&self) -> String {
        format!("process worker ({})", self.launch.program.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Assign, Hello};

    fn hello(worker_id: usize) -> Message {
        Message::Hello(Hello {
            worker_id,
            fingerprint: 0xf00d,
            spec_count: 9,
            token: "t".into(),
            threads: 2,
            build: crate::protocol::BuildStamp::local(false),
        })
    }

    #[test]
    fn tcp_roundtrips_messages_both_ways() {
        let mut listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut t = listener.accept().unwrap();
            let got = t.recv().unwrap();
            t.send(&got).unwrap();
            let next = t.recv().unwrap();
            t.send(&next).unwrap();
        });
        let mut client = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        client.send(&hello(3)).unwrap();
        assert_eq!(client.recv().unwrap(), hello(3));
        let assign = Message::Assign(Assign {
            indices: vec![0, 4, 8],
        });
        client.send(&assign).unwrap();
        assert_eq!(client.recv().unwrap(), assign);
        server.join().unwrap();
    }

    #[test]
    fn tcp_peer_close_is_a_clean_eof() {
        let mut listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let t = listener.accept().unwrap();
            drop(t); // close immediately
        });
        let mut client = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        let err = client.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn tcp_read_timeout_expires_instead_of_hanging() {
        let mut listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let t = listener.accept().unwrap();
            // Hold the connection open, send nothing.
            std::thread::sleep(Duration::from_millis(400));
            drop(t);
        });
        let mut client = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let err = client.recv().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn connect_to_unbound_port_fails() {
        // Bind-then-drop guarantees the port is closed.
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        assert!(TcpTransport::connect(&addr, Duration::from_millis(500)).is_err());
    }
}
