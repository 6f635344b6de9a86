//! Connection-oriented transports: in-process and TCP.
//!
//! SCBR's roles (producer, router, client) talk over a [`Transport`]. The
//! in-process implementation gives deterministic, dependency-free tests and
//! benchmarks; the TCP implementation lets the examples run as separate
//! processes, standing in for the prototype's ZeroMQ sockets.

use crate::error::NetError;
use crate::frame;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A bidirectional, message-oriented connection.
///
/// Implementations are `Sync` so one connection can be shared between a
/// blocking reader thread and writers (`Arc<dyn Connection>`).
pub trait Connection: Send + Sync {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer is gone.
    fn send(&self, frame: &[u8]) -> Result<(), NetError>;

    /// Blocks until one frame arrives.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer closed the connection.
    fn recv(&self) -> Result<Vec<u8>, NetError>;

    /// Waits up to `timeout` for a frame; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the peer closed the connection.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError>;
}

/// Accepts incoming connections.
pub trait Listener: Send {
    /// Blocks until a peer connects.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if the endpoint was shut down.
    fn accept(&self) -> Result<Box<dyn Connection>, NetError>;
}

/// A factory of listeners and outgoing connections, keyed by endpoint name.
pub trait Transport {
    /// Binds a named endpoint.
    ///
    /// # Errors
    ///
    /// [`NetError::AddressInUse`] if the name is taken, or I/O errors.
    fn bind(&self, name: &str) -> Result<Box<dyn Listener>, NetError>;

    /// Connects to a named endpoint.
    ///
    /// # Errors
    ///
    /// [`NetError::NoSuchEndpoint`] if nothing is bound under `name`.
    fn connect(&self, name: &str) -> Result<Box<dyn Connection>, NetError>;
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// Takes `lock` over even if a holder panicked: every value behind this
/// module's locks (a channel end, a buffered stream, the endpoint
/// registry) stays usable.
fn lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One side of an in-process connection.
#[derive(Debug)]
pub struct InProcConnection {
    tx: Sender<Vec<u8>>,
    /// Behind a lock because [`Connection`] is `Sync` and a std receiver
    /// is not; one reader at a time is all a connection ever has.
    rx: Mutex<Receiver<Vec<u8>>>,
}

impl InProcConnection {
    fn new(tx: Sender<Vec<u8>>, rx: Receiver<Vec<u8>>) -> Self {
        InProcConnection { tx, rx: Mutex::new(rx) }
    }
}

impl Connection for InProcConnection {
    fn send(&self, frame: &[u8]) -> Result<(), NetError> {
        self.tx.send(frame.to_vec()).map_err(|_| NetError::Disconnected)
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        lock(&self.rx).recv().map_err(|_| NetError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

/// Listener side of an in-process endpoint.
#[derive(Debug)]
pub struct InProcListener {
    incoming: Receiver<InProcConnection>,
}

impl Listener for InProcListener {
    fn accept(&self) -> Result<Box<dyn Connection>, NetError> {
        self.incoming
            .recv()
            .map(|c| Box::new(c) as Box<dyn Connection>)
            .map_err(|_| NetError::Disconnected)
    }
}

/// A named in-process network: endpoints live in a shared registry.
///
/// Cloning shares the registry, so hand clones to each role/thread.
#[derive(Debug, Clone, Default)]
pub struct InProcNetwork {
    registry: Arc<Mutex<HashMap<String, Sender<InProcConnection>>>>,
}

impl InProcNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        InProcNetwork::default()
    }
}

impl Transport for InProcNetwork {
    fn bind(&self, name: &str) -> Result<Box<dyn Listener>, NetError> {
        let mut reg = lock(&self.registry);
        if reg.contains_key(name) {
            return Err(NetError::AddressInUse { name: name.to_owned() });
        }
        let (tx, rx) = channel();
        reg.insert(name.to_owned(), tx);
        Ok(Box::new(InProcListener { incoming: rx }))
    }

    fn connect(&self, name: &str) -> Result<Box<dyn Connection>, NetError> {
        let reg = lock(&self.registry);
        let acceptor =
            reg.get(name).ok_or_else(|| NetError::NoSuchEndpoint { name: name.to_owned() })?;
        let (a_tx, b_rx) = channel();
        let (b_tx, a_rx) = channel();
        acceptor.send(InProcConnection::new(b_tx, b_rx)).map_err(|_| NetError::Disconnected)?;
        Ok(Box::new(InProcConnection::new(a_tx, a_rx)))
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// A TCP connection carrying length-prefixed frames.
#[derive(Debug)]
pub struct TcpConnection {
    reader: Mutex<BufReader<TcpStream>>,
    writer: Mutex<BufWriter<TcpStream>>,
}

impl TcpConnection {
    fn from_stream(stream: TcpStream) -> Result<Self, NetError> {
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(TcpConnection { reader: Mutex::new(reader), writer: Mutex::new(writer) })
    }
}

impl Connection for TcpConnection {
    fn send(&self, payload: &[u8]) -> Result<(), NetError> {
        frame::write_frame(&mut *lock(&self.writer), payload)
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        frame::read_frame(&mut *lock(&self.reader))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        let mut reader = lock(&self.reader);
        // A zero duration means "disable timeouts" to the socket API;
        // callers mean "poll", so clamp to the shortest representable wait.
        let timeout = timeout.max(Duration::from_millis(1));
        reader.get_ref().set_read_timeout(Some(timeout))?;
        let result = match frame::read_frame(&mut *reader) {
            Ok(f) => Ok(Some(f)),
            Err(NetError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        };
        reader.get_ref().set_read_timeout(None)?;
        result
    }
}

/// Listener for TCP endpoints.
#[derive(Debug)]
pub struct TcpEndpointListener {
    listener: TcpListener,
}

impl Listener for TcpEndpointListener {
    fn accept(&self) -> Result<Box<dyn Connection>, NetError> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true).ok();
        Ok(Box::new(TcpConnection::from_stream(stream)?))
    }
}

/// TCP transport: endpoint names are socket addresses (`host:port`).
#[derive(Debug, Clone, Default)]
pub struct TcpTransport;

impl TcpTransport {
    /// Creates the transport.
    pub fn new() -> Self {
        TcpTransport
    }

    /// Binds to an OS-assigned port on localhost, returning the listener
    /// and the address to hand to peers.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_ephemeral(&self) -> Result<(Box<dyn Listener>, String), NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        Ok((Box::new(TcpEndpointListener { listener }), addr))
    }
}

impl Transport for TcpTransport {
    fn bind(&self, name: &str) -> Result<Box<dyn Listener>, NetError> {
        let listener = TcpListener::bind(name)?;
        Ok(Box::new(TcpEndpointListener { listener }))
    }

    fn connect(&self, name: &str) -> Result<Box<dyn Connection>, NetError> {
        let mut last_err = None;
        for addr in name
            .to_socket_addrs()
            .map_err(|_| NetError::NoSuchEndpoint { name: name.to_owned() })?
        {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    return Ok(Box::new(TcpConnection::from_stream(stream)?));
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .map(NetError::Io)
            .unwrap_or(NetError::NoSuchEndpoint { name: name.to_owned() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn inproc_round_trip() {
        let net = InProcNetwork::new();
        let listener = net.bind("svc").unwrap();
        let client = net.connect("svc").unwrap();
        let server = listener.accept().unwrap();
        client.send(b"ping").unwrap();
        assert_eq!(server.recv().unwrap(), b"ping");
        server.send(b"pong").unwrap();
        assert_eq!(client.recv().unwrap(), b"pong");
    }

    #[test]
    fn inproc_double_bind_rejected() {
        let net = InProcNetwork::new();
        let _l = net.bind("svc").unwrap();
        assert!(matches!(net.bind("svc"), Err(NetError::AddressInUse { .. })));
    }

    #[test]
    fn inproc_connect_unknown_fails() {
        let net = InProcNetwork::new();
        assert!(matches!(net.connect("ghost"), Err(NetError::NoSuchEndpoint { .. })));
    }

    #[test]
    fn inproc_disconnect_detected() {
        let net = InProcNetwork::new();
        let listener = net.bind("svc").unwrap();
        let client = net.connect("svc").unwrap();
        let server = listener.accept().unwrap();
        drop(client);
        assert!(matches!(server.recv(), Err(NetError::Disconnected)));
    }

    #[test]
    fn inproc_recv_timeout() {
        let net = InProcNetwork::new();
        let _listener = net.bind("svc").unwrap();
        let client = net.connect("svc").unwrap();
        let got = client.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn inproc_multiple_clients() {
        let net = InProcNetwork::new();
        let listener = net.bind("svc").unwrap();
        let c1 = net.connect("svc").unwrap();
        let c2 = net.connect("svc").unwrap();
        c1.send(b"from-1").unwrap();
        c2.send(b"from-2").unwrap();
        let s1 = listener.accept().unwrap();
        let s2 = listener.accept().unwrap();
        assert_eq!(s1.recv().unwrap(), b"from-1");
        assert_eq!(s2.recv().unwrap(), b"from-2");
    }

    #[test]
    fn lock_survives_a_panicking_holder() {
        let registry = Arc::new(Mutex::new(0));
        let held = registry.clone();
        let _ = thread::spawn(move || {
            let _guard = lock(&held);
            panic!("poison attempt");
        })
        .join();
        *lock(&registry) += 1;
        assert_eq!(*lock(&registry), 1);
    }

    #[test]
    fn tcp_round_trip() {
        let transport = TcpTransport::new();
        let (listener, addr) = transport.bind_ephemeral().unwrap();
        let handle = thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let msg = conn.recv().unwrap();
            conn.send(&msg).unwrap(); // echo
        });
        let client = transport.connect(&addr).unwrap();
        client.send(b"hello over tcp").unwrap();
        assert_eq!(client.recv().unwrap(), b"hello over tcp");
        handle.join().unwrap();
    }

    #[test]
    fn tcp_connect_refused() {
        let transport = TcpTransport::new();
        // Port 1 on localhost is essentially never listening.
        assert!(transport.connect("127.0.0.1:1").is_err());
    }

    #[test]
    fn tcp_disconnect_detected() {
        let transport = TcpTransport::new();
        let (listener, addr) = transport.bind_ephemeral().unwrap();
        let client = transport.connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        drop(client);
        assert!(matches!(server.recv(), Err(NetError::Disconnected)));
    }
}
