//! Connection transports: an in-process duplex pipe for deterministic
//! tests and a loopback/LAN TCP listener for real clients.
//!
//! Both sides of every transport are plain [`io::Read`] + [`io::Write`]
//! byte streams, so the frame layer ([`crate::wire`]) and everything
//! above it is transport-agnostic. The server's reactor registers each
//! [`Listener`] and every accepted [`EventConn`] for readiness, switches
//! accepted connections to nonblocking mode, and drives them all from
//! one thread; clients use the same streams in blocking mode.
//!
//! Readiness reaches the reactor through exactly one kind of fd: TCP
//! sockets are polled directly, and every other event source (duplex
//! pipes, the in-proc listener, handler completions) notifies a
//! [`ReadySignal`], whose waker fd sits in the same `poll(2)` set.

use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};

/// A source of inbound connections the server can accept from.
pub(crate) trait Listener: Send + 'static {
    /// The byte-stream type a successful accept yields.
    type Conn: EventConn;

    /// Takes the next pending connection without blocking. `Ok(None)`
    /// means none is queued; `Err` means the listener itself is dead and
    /// nothing further can arrive.
    fn try_accept(&self) -> io::Result<Option<Self::Conn>>;

    /// Registers the listener with a reactor's [`ReadySignal`] and reports
    /// how inbound connections announce themselves.
    fn register(&self, signal: &Arc<ReadySignal>, token: usize) -> Readiness;

    /// Human-readable endpoint label, for logs and stats.
    fn label(&self) -> String;
}

// ---------------------------------------------------------------------------
// Readiness signaling.

/// A shared wakeup queue: a deduplicated token set plus a self-pipe whose
/// read end the reactor keeps in its `poll(2)` set.
///
/// Producers (duplex-pipe writes and closes, in-proc connects, handler
/// completions, the drain) call [`ReadySignal::notify`] with the token the
/// reactor assigned them. The set going from empty to non-empty writes
/// one byte to the pipe, which ends the reactor's `poll(2)` park; the
/// reactor then [`drain`](ReadySignal::drain)s the pipe and the set.
pub(crate) struct ReadySignal {
    tokens: Mutex<Vec<usize>>,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl ReadySignal {
    /// A fresh signal with no pending tokens.
    pub(crate) fn new() -> io::Result<Arc<ReadySignal>> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Arc::new(ReadySignal {
            tokens: Mutex::new(Vec::new()),
            wake_tx,
            wake_rx,
        }))
    }

    /// The fd that turns readable while tokens are pending.
    pub(crate) fn fd(&self) -> RawFd {
        self.wake_rx.as_raw_fd()
    }

    /// Marks `token` ready and wakes the reactor. Idempotent while
    /// pending: a burst of writes to one connection costs one wakeup.
    pub(crate) fn notify(&self, token: usize) {
        let mut tokens = self.tokens.lock().expect("ready-signal lock poisoned");
        if tokens.contains(&token) {
            return;
        }
        tokens.push(token);
        if tokens.len() == 1 {
            // `WouldBlock` means the pipe is full: a wake is already
            // pending, which is all this byte would have said.
            let _ = (&self.wake_tx).write(&[1]);
        }
    }

    /// Takes every pending token without blocking. The pipe is read dry
    /// *before* the set is taken, so a notify racing this call either
    /// lands in the taken set or writes a fresh byte for the next park.
    pub(crate) fn drain(&self) -> Vec<usize> {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        std::mem::take(&mut *self.tokens.lock().expect("ready-signal lock poisoned"))
    }
}

/// How an event source announces readiness to the reactor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Readiness {
    /// An OS file descriptor the reactor includes in its `poll(2)` set.
    Fd(RawFd),
    /// The source pushes its token into the registered [`ReadySignal`]
    /// whenever bytes arrive or the peer hangs up.
    Wake,
}

/// A connection the reactor can drive without a dedicated thread: it can
/// be switched to nonblocking I/O and it can report (or wire up) a
/// readiness source.
///
/// The blocking `io::Read`/`io::Write` impls stay untouched — the
/// thread-per-request client side and any code outside the reactor keep
/// using the same streams in blocking mode.
pub(crate) trait EventConn: io::Read + io::Write + Send + 'static {
    /// Switches the connection to nonblocking mode: reads and writes that
    /// would park a thread fail with `ErrorKind::WouldBlock` instead.
    fn set_event_mode(&mut self) -> io::Result<()>;

    /// Registers readiness delivery for this connection under `token` and
    /// reports which mechanism the reactor should watch. Implementations
    /// backed by [`ReadySignal`] must handle the registration race: bytes
    /// that arrived (or a hangup that happened) *before* registration
    /// still produce an immediate notify.
    fn register(&mut self, signal: &Arc<ReadySignal>, token: usize) -> io::Result<Readiness>;
}

// ---------------------------------------------------------------------------
// In-process duplex transport.

/// One direction of a duplex pipe: a byte queue with a closed flag, plus
/// an optional reactor waker fired on every state change a reader could
/// care about (bytes arriving, peer hanging up).
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
    waker: Mutex<Option<(Arc<ReadySignal>, usize)>>,
}

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.readable.notify_all();
        self.wake();
    }

    /// Fires the registered reactor waker, if any. Called with no pipe
    /// lock held, so the signal's own lock never nests inside ours.
    fn wake(&self) {
        if let Some((signal, token)) = &*self.waker.lock().unwrap() {
            signal.notify(*token);
        }
    }
}

/// One endpoint of an in-process duplex byte stream, created in pairs
/// (an [`InProcConnector`] hands out the client end). Reads block until
/// the peer writes or hangs up (or fail with `WouldBlock` once the
/// server's reactor switches its end to event mode); dropping an
/// endpoint closes both directions (the peer sees EOF on read and
/// `BrokenPipe` on write), exactly like a socket.
pub struct DuplexStream {
    read: Arc<Pipe>,
    write: Arc<Pipe>,
    nonblocking: bool,
}

/// A connected pair of in-process byte streams.
pub(crate) fn duplex() -> (DuplexStream, DuplexStream) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        DuplexStream {
            read: Arc::clone(&a),
            write: Arc::clone(&b),
            nonblocking: false,
        },
        DuplexStream {
            read: b,
            write: a,
            nonblocking: false,
        },
    )
}

impl io::Read for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.read.state.lock().unwrap();
        while st.buf.is_empty() {
            if st.closed {
                return Ok(0); // EOF: peer hung up and the queue is drained.
            }
            if self.nonblocking {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "duplex has no bytes buffered",
                ));
            }
            st = self.read.readable.wait(st).unwrap();
        }
        let n = buf.len().min(st.buf.len());
        for slot in buf.iter_mut().take(n) {
            *slot = st.buf.pop_front().expect("n bounded by queue length");
        }
        Ok(n)
    }
}

impl io::Write for DuplexStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.write.state.lock().unwrap();
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "duplex peer hung up",
            ));
        }
        st.buf.extend(buf);
        drop(st);
        self.write.readable.notify_all();
        self.write.wake();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        // Close both directions: the peer's reads see EOF once drained,
        // and its writes fail fast instead of filling a dead queue.
        self.read.close();
        self.write.close();
    }
}

impl EventConn for DuplexStream {
    fn set_event_mode(&mut self) -> io::Result<()> {
        self.nonblocking = true;
        Ok(())
    }

    fn register(&mut self, signal: &Arc<ReadySignal>, token: usize) -> io::Result<Readiness> {
        *self.read.waker.lock().unwrap() = Some((Arc::clone(signal), token));
        // Registration race: bytes the peer wrote (or a hangup that
        // landed) before the waker existed fired into the void — replay
        // them as an immediate notify so the reactor's first tick sees
        // this connection as ready.
        let st = self.read.state.lock().unwrap();
        if !st.buf.is_empty() || st.closed {
            drop(st);
            signal.notify(token);
        }
        Ok(Readiness::Wake)
    }
}

impl EventConn for TcpStream {
    fn set_event_mode(&mut self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    fn register(&mut self, _signal: &Arc<ReadySignal>, _token: usize) -> io::Result<Readiness> {
        Ok(Readiness::Fd(self.as_raw_fd()))
    }
}

/// The accepting end of the in-process transport.
pub(crate) struct InProcListener {
    rx: Receiver<DuplexStream>,
    waker: Arc<Mutex<Option<(Arc<ReadySignal>, usize)>>>,
}

/// The connecting end of the in-process transport; cloneable, so many
/// client threads can dial the same listener.
#[derive(Clone)]
pub struct InProcConnector {
    tx: Sender<DuplexStream>,
    waker: Arc<Mutex<Option<(Arc<ReadySignal>, usize)>>>,
}

/// An in-process listener/connector pair.
pub(crate) fn in_proc() -> (InProcListener, InProcConnector) {
    let (tx, rx) = channel::unbounded();
    let waker = Arc::new(Mutex::new(None));
    (
        InProcListener {
            rx,
            waker: Arc::clone(&waker),
        },
        InProcConnector { tx, waker },
    )
}

impl InProcConnector {
    /// Dials the listener, returning the client end of a fresh duplex
    /// stream. Fails with `ConnectionRefused` once the listener is gone.
    pub fn connect(&self) -> io::Result<DuplexStream> {
        let (client, server) = duplex();
        self.tx.send(server).map_err(|_| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "in-process listener is gone",
            )
        })?;
        if let Some((signal, token)) = &*self.waker.lock().unwrap() {
            signal.notify(*token);
        }
        Ok(client)
    }
}

impl Listener for InProcListener {
    type Conn = DuplexStream;

    fn try_accept(&self) -> io::Result<Option<DuplexStream>> {
        match self.rx.try_recv() {
            Ok(conn) => Ok(Some(conn)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "every in-process connector was dropped",
            )),
        }
    }

    fn register(&self, signal: &Arc<ReadySignal>, token: usize) -> Readiness {
        *self.waker.lock().unwrap() = Some((Arc::clone(signal), token));
        // Connections queued before registration would otherwise wait for
        // an unrelated wakeup; replay them.
        if !self.rx.is_empty() {
            signal.notify(token);
        }
        Readiness::Wake
    }

    fn label(&self) -> String {
        "in-proc".to_string()
    }
}

// ---------------------------------------------------------------------------
// TCP transport.

/// A TCP listener adapter: the reactor polls the listener's fd and every
/// accepted stream's fd, and accepted streams get `TCP_NODELAY` (the
/// protocol is request/response with small frames).
pub(crate) struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Binds to `addr` (use port 0 for an ephemeral port) with a
    /// nonblocking listener, ready for readiness-driven accepts.
    pub(crate) fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking at the listener only: accepted streams start out
        // blocking, and the reactor switches each to event mode.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }

    /// The bound address (the actual port, when bound to port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Listener for TcpTransport {
    type Conn = TcpStream;

    fn try_accept(&self) -> io::Result<Option<TcpStream>> {
        match self.listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(Some(stream))
            }
            // The listener fd is level-triggered in the poll set: an
            // interrupted accept is retried on the next wakeup.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn register(&self, _signal: &Arc<ReadySignal>, _token: usize) -> Readiness {
        Readiness::Fd(self.listener.as_raw_fd())
    }

    fn label(&self) -> String {
        format!("tcp://{}", self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_carries_bytes_both_ways_and_eofs_on_drop() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");

        drop(b);
        assert_eq!(a.read(&mut buf).unwrap(), 0, "EOF after peer drop");
        assert!(a.write_all(b"x").is_err(), "write to dead peer fails");
    }

    #[test]
    fn duplex_read_blocks_until_write() {
        let (mut a, mut b) = duplex();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        a.write_all(b"abc").unwrap();
        assert_eq!(&reader.join().unwrap(), b"abc");
    }

    #[test]
    fn in_proc_listener_try_accept_is_empty_then_accepts() {
        let (listener, connector) = in_proc();
        assert!(listener.try_accept().unwrap().is_none(), "nothing queued");
        let mut client = connector.connect().unwrap();
        let mut server = listener.try_accept().unwrap().expect("queued connection");
        client.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");

        drop(connector);
        assert!(listener.try_accept().is_err(), "every connector dropped");
    }

    #[test]
    fn duplex_event_mode_returns_wouldblock_and_wakes_on_traffic() {
        let (mut client, mut server) = duplex();
        let signal = ReadySignal::new().unwrap();
        server.set_event_mode().unwrap();
        assert_eq!(server.register(&signal, 7).unwrap(), Readiness::Wake);

        // Nothing buffered: a nonblocking read refuses instead of parking.
        let mut buf = [0u8; 8];
        assert_eq!(
            server.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert!(signal.drain().is_empty(), "no traffic, no wakeup");

        // A peer write fires exactly one wakeup, however many chunks land.
        client.write_all(b"ab").unwrap();
        client.write_all(b"cd").unwrap();
        assert_eq!(signal.drain(), vec![7]);
        assert_eq!(server.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"abcd");

        // Hangup also wakes, and reads see EOF, not WouldBlock.
        drop(client);
        assert_eq!(signal.drain(), vec![7]);
        assert_eq!(server.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn duplex_registration_replays_missed_events() {
        // Bytes written before the waker existed must still notify.
        let (mut client, mut server) = duplex();
        client.write_all(b"early").unwrap();
        let signal = ReadySignal::new().unwrap();
        server.set_event_mode().unwrap();
        server.register(&signal, 3).unwrap();
        assert_eq!(signal.drain(), vec![3], "pre-registration bytes replay");

        // Same for a hangup that landed before registration.
        let (client2, mut server2) = duplex();
        drop(client2);
        server2.set_event_mode().unwrap();
        server2.register(&signal, 4).unwrap();
        assert_eq!(signal.drain(), vec![4], "pre-registration hangup replays");
    }

    #[test]
    fn in_proc_listener_registration_wakes_on_connect() {
        let (listener, connector) = in_proc();
        let signal = ReadySignal::new().unwrap();
        assert_eq!(listener.register(&signal, 0), Readiness::Wake);
        assert!(signal.drain().is_empty());

        let _client = connector.connect().unwrap();
        assert_eq!(signal.drain(), vec![0]);
        assert!(listener.try_accept().unwrap().is_some());

        // Backlogged connections replay on (re-)registration too.
        let (listener2, connector2) = in_proc();
        let _early = connector2.connect().unwrap();
        listener2.register(&signal, 9);
        assert_eq!(signal.drain(), vec![9]);
    }

    #[test]
    fn ready_signal_dedups_pending_tokens() {
        let signal = ReadySignal::new().unwrap();
        signal.notify(5);
        signal.notify(5);
        signal.notify(2);
        assert_eq!(signal.drain(), vec![5, 2]);
        assert!(signal.drain().is_empty());
    }

    /// Reads whatever wake bytes are pending, without blocking.
    fn wake_bytes(signal: &ReadySignal) -> usize {
        let mut sink = [0u8; 8];
        match (&signal.wake_rx).read(&mut sink) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
            Err(e) => panic!("waker read failed: {e}"),
        }
    }

    /// The waker fd is readable exactly while a wake is pending: one byte
    /// per empty-to-non-empty transition of the token set, consumed by
    /// `drain`.
    #[test]
    fn ready_signal_fd_carries_one_byte_per_pending_batch() {
        let signal = ReadySignal::new().unwrap();
        assert_eq!(signal.fd(), signal.wake_rx.as_raw_fd());
        signal.notify(3);
        signal.notify(4);
        signal.notify(3);
        assert_eq!(wake_bytes(&signal), 1, "one byte per batch");

        // The set is still non-empty, so this notify writes nothing; the
        // drain takes all three and leaves the pipe dry.
        signal.notify(6);
        assert_eq!(signal.drain(), vec![3, 4, 6]);
        assert_eq!(wake_bytes(&signal), 0, "no wake byte without a new batch");

        // A drain re-arms the pipe: the next notify writes a fresh byte,
        // and a drain consumes it.
        signal.notify(3);
        assert_eq!(signal.drain(), vec![3]);
        assert_eq!(wake_bytes(&signal), 0, "drain reads the pipe dry");
        signal.notify(8);
        assert_eq!(wake_bytes(&signal), 1);
    }

    #[test]
    fn tcp_transport_accepts_loopback() {
        let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
        assert!(transport.try_accept().unwrap().is_none(), "empty backlog");
        let addr = transport.local_addr();
        // Connect and write to completion first, so the connection sits in
        // the listener's backlog before the nonblocking accept runs.
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"hello").unwrap();
        })
        .join()
        .unwrap();
        let mut conn = transport.try_accept().unwrap().expect("backlogged client");
        let mut buf = [0u8; 5];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }
}
