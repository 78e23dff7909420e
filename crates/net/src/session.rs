//! Per-connection session registry.
//!
//! Every accepted connection becomes a [`Session`] with a server-assigned
//! id (reported in [`crate::proto::Response::Pong`] and usable for
//! tracing), the peer address, a request counter, the count of replies it
//! is owed and the one lock on its write half. The registry keeps
//! a clone of each connection's [`TcpStream`] so graceful shutdown can
//! half-close the **read** side of every live connection at once: readers
//! see EOF and stop producing work, while writer threads keep flushing
//! responses for requests already in flight — the drain half of the
//! shutdown contract.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One live connection's identity and counters.
#[derive(Debug)]
pub struct Session {
    /// Server-assigned id, unique for the server's lifetime.
    pub id: u64,
    /// Peer address the connection arrived from.
    pub peer: Option<SocketAddr>,
    stream: TcpStream,
    /// The write half: the connection's writer thread and its reader's
    /// own replies both write through this one lock.
    writer: Mutex<TcpStream>,
    requests: AtomicU64,
    owed: AtomicUsize,
}

impl Session {
    /// Requests this session has submitted (any plane, admitted or not).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Bumps the per-session request counter.
    pub fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Replies this session is owed and that are not written yet: queued
    /// behind the executor, held for a commit, or handed to the writer.
    /// Zero means every reply to an earlier request is on the wire.
    pub fn owed(&self) -> usize {
        self.owed.load(Ordering::Acquire)
    }

    /// Counts one more reply owed. Only the connection's reader counts
    /// up, so a reader that reads zero knows it stays zero.
    pub(crate) fn owe(&self) {
        self.owed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `written` owed replies as written; returns the count before.
    pub(crate) fn paid(&self, written: usize) -> usize {
        self.owed.fetch_sub(written, Ordering::Release)
    }

    /// Writes `bytes` whole to the peer under the write-half lock.
    pub(crate) fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        // A writer that panicked mid-write leaves nothing half-updated
        // behind the lock: the socket is all it guards.
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        writer.write_all(bytes)
    }
}

/// Registry of live sessions; shared between the accept loop, the
/// connection threads, and graceful shutdown.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    next_id: AtomicU64,
    ever: AtomicU64,
    active: Mutex<HashMap<u64, Arc<Session>>>,
}

impl SessionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(SessionRegistry::default())
    }

    /// The live sessions. A thread that panicked holding the lock left the
    /// map whole: each insert and remove is one call.
    fn active(&self) -> MutexGuard<'_, HashMap<u64, Arc<Session>>> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a freshly accepted connection, assigning its session id
    /// and turning `TCP_NODELAY` on: responses are small and each is
    /// written whole, so waiting to coalesce them only adds latency. The
    /// session keeps two clones of the stream: one for shutdown
    /// signalling, one as its write half.
    pub fn register(&self, stream: &TcpStream) -> std::io::Result<Arc<Session>> {
        stream.set_nodelay(true)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.ever.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session {
            id,
            peer: stream.peer_addr().ok(),
            stream: stream.try_clone()?,
            writer: Mutex::new(stream.try_clone()?),
            requests: AtomicU64::new(0),
            owed: AtomicUsize::new(0),
        });
        self.active().insert(id, Arc::clone(&session));
        Ok(session)
    }

    /// Removes a closed connection from the registry.
    pub fn unregister(&self, id: u64) {
        self.active().remove(&id);
    }

    /// Sessions currently connected.
    pub fn active_count(&self) -> usize {
        self.active().len()
    }

    /// Sessions ever accepted.
    pub fn total_count(&self) -> u64 {
        self.ever.load(Ordering::Relaxed)
    }

    /// Half-closes the read side of every live connection: each reader
    /// thread sees EOF at its next frame boundary and submits nothing
    /// more, while responses already queued still flush out the write
    /// side. Errors are ignored — a racing disconnect achieves the goal.
    pub fn shutdown_reads(&self) {
        for session in self.active().values() {
            let _ = session.stream.shutdown(Shutdown::Read);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn ids_are_unique_and_counts_track_lifecycle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let registry = SessionRegistry::new();

        let _c1 = TcpStream::connect(addr).expect("connect");
        let (s1, _) = listener.accept().expect("accept");
        let _c2 = TcpStream::connect(addr).expect("connect");
        let (s2, _) = listener.accept().expect("accept");

        let a = registry.register(&s1).expect("register");
        let b = registry.register(&s2).expect("register");
        assert_ne!(a.id, b.id);
        // The option is the socket's, so the accepted stream and the
        // registry's clone of it both report it.
        assert!(s1.nodelay().expect("nodelay") && a.stream.nodelay().expect("nodelay"));
        assert!(b.stream.nodelay().expect("nodelay"));
        assert_eq!(registry.active_count(), 2);
        assert_eq!(registry.total_count(), 2);

        a.note_request();
        a.note_request();
        assert_eq!(a.requests(), 2);

        registry.unregister(a.id);
        assert_eq!(registry.active_count(), 1);
        assert_eq!(registry.total_count(), 2, "ever-count is monotonic");
    }
}
