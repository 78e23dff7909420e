//! Length-prefixed framing with a versioned header.
//!
//! Every message on an `ssa_net` connection travels as one frame:
//!
//! ```text
//! [ len: u32 LE ][ version: u8 ][ kind: u8 ][ request_id: u64 LE ][ payload … ]
//! ```
//!
//! `len` counts everything after itself (header tail + payload, so
//! `10 + payload.len()`); `version` is [`PROTO_VERSION`]; `kind` tags the
//! frame as a request or a response; `request_id` is chosen by the client
//! and echoed verbatim on the matching response so pipelined requests can
//! be correlated. The payload encoding is the concern of
//! [`crate::proto`] — this module only moves opaque byte vectors.
//!
//! Robustness rules (exercised by the hostile-input tests in
//! `tests/framing.rs`):
//!
//! * `len` is validated **before** any allocation: a prefix larger than
//!   [`MAX_FRAME`] is rejected with [`FrameError::TooLarge`] — a hostile
//!   peer cannot make the server allocate 4 GiB by sending five bytes.
//! * A prefix smaller than the fixed header tail is
//!   [`FrameError::TooShort`].
//! * A version or kind byte we do not understand is a typed error, never a
//!   panic.
//! * EOF cleanly between frames is `Ok(None)`; EOF mid-frame is an
//!   [`FrameError::Io`] with [`std::io::ErrorKind::UnexpectedEof`].

use std::io::{self, Read, Write};

/// Protocol version spoken by this build; peers reject anything else.
/// Version 2 added typed user attributes on `Serve`/`ServeBatch` and the
/// targeting-source field on `AddCampaign`; version 3 made an
/// operation-carrying request's payload the operation body the
/// write-ahead log stores (renumbering the request tags, and adding the
/// purchase model to `AddCampaign` and the default models to `Configure`).
/// Frames of an older version decode to [`FrameError::Version`], never a
/// panic or a misread.
pub const PROTO_VERSION: u8 = 3;

/// Hard ceiling on `len` (header tail + payload), in bytes. Large enough
/// for a `ServeBatch` of several hundred thousand queries; small enough
/// that a hostile length prefix cannot cause a huge allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes of header covered by `len` ahead of the payload:
/// version (1) + kind (1) + request id (8).
pub const HEADER_TAIL: u32 = 10;

/// Whether a frame carries a request or a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, FrameError> {
        match b {
            0 => Ok(FrameKind::Request),
            1 => Ok(FrameKind::Response),
            other => Err(FrameError::UnknownKind(other)),
        }
    }
}

/// A decoded frame: header fields plus the still-opaque payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Request or response.
    pub kind: FrameKind,
    /// Client-chosen correlation id, echoed on responses.
    pub request_id: u64,
    /// Message payload; decoded by [`crate::proto`].
    pub payload: Vec<u8>,
}

/// Typed framing failure. `Io` carries only the [`std::io::ErrorKind`] so
/// the error stays `Clone + PartialEq` (the underlying `io::Error` is
/// neither).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The transport failed mid-frame (includes `UnexpectedEof` for a
    /// connection dropped inside a frame).
    Io(io::ErrorKind),
    /// The length prefix exceeded [`MAX_FRAME`]; rejected before
    /// allocating.
    TooLarge {
        /// The hostile or corrupt length prefix.
        len: u32,
        /// The configured ceiling ([`MAX_FRAME`]).
        max: u32,
    },
    /// The length prefix cannot even cover the fixed header tail.
    TooShort {
        /// The declared length.
        len: u32,
    },
    /// The peer speaks a protocol version we do not.
    Version {
        /// The version byte received.
        got: u8,
    },
    /// The kind byte was neither request nor response.
    UnknownKind(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(kind) => write!(f, "transport error: {kind}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
            FrameError::TooShort { len } => {
                write!(f, "frame length {len} is shorter than the frame header")
            }
            FrameError::Version { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (expected {PROTO_VERSION})"
                )
            }
            FrameError::UnknownKind(b) => write!(f, "unknown frame kind byte {b:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

/// Encodes a frame into a byte vector (one buffer, one `write_all` — no
/// short-write seams for a concurrent reader to observe).
pub fn encode_frame(kind: FrameKind, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let len = HEADER_TAIL + payload.len() as u32;
    let mut buf = Vec::with_capacity(4 + len as usize);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(PROTO_VERSION);
    buf.push(kind.to_byte());
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Writes one frame to `w`.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
) -> Result<(), FrameError> {
    w.write_all(&encode_frame(kind, request_id, payload))?;
    Ok(())
}

/// Reads one frame from `r`.
///
/// Returns `Ok(None)` on a clean EOF *before* the first length byte (the
/// peer closed between frames); any other truncation is
/// `Err(FrameError::Io(UnexpectedEof))`. The length prefix is validated
/// against [`MAX_FRAME`] before the payload buffer is allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Option<RawFrame>, FrameError> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    if len < HEADER_TAIL {
        return Err(FrameError::TooShort { len });
    }
    let mut head = [0u8; HEADER_TAIL as usize];
    r.read_exact(&mut head)?;
    let version = head[0];
    if version != PROTO_VERSION {
        return Err(FrameError::Version { got: version });
    }
    let kind = FrameKind::from_byte(head[1])?;
    let request_id = u64::from_le_bytes(head[2..10].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; (len - HEADER_TAIL) as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(RawFrame {
        kind,
        request_id,
        payload,
    }))
}

enum ReadOutcome {
    Filled,
    CleanEof,
}

/// `read_exact`, except EOF before the *first* byte is a clean outcome
/// rather than an error.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::CleanEof),
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let buf = encode_frame(FrameKind::Request, 42, b"hello");
        let frame = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(
            frame,
            RawFrame {
                kind: FrameKind::Request,
                request_id: 42,
                payload: b"hello".to_vec(),
            }
        );
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(read_frame(&mut [].as_slice()), Ok(None));
    }

    #[test]
    fn truncated_header_is_unexpected_eof() {
        let buf = encode_frame(FrameKind::Response, 1, b"abc");
        for cut in 1..buf.len() {
            assert_eq!(
                read_frame(&mut buf[..cut].to_vec().as_slice()),
                Err(FrameError::Io(io::ErrorKind::UnexpectedEof)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::TooLarge {
                len: u32::MAX,
                max: MAX_FRAME
            })
        );
    }

    #[test]
    fn undersized_prefix_rejected() {
        let buf = 3u32.to_le_bytes().to_vec();
        assert_eq!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::TooShort { len: 3 })
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = encode_frame(FrameKind::Request, 7, b"");
        buf[4] = 99;
        assert_eq!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Version { got: 99 })
        );
        // A well-formed frame from an older protocol (1: pre-targeting,
        // 2: its own request tag table) is a typed rejection too, not a
        // misread of the new layout.
        for old in [1, 2] {
            buf[4] = old;
            assert_eq!(
                read_frame(&mut buf.as_slice()),
                Err(FrameError::Version { got: old })
            );
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = encode_frame(FrameKind::Request, 7, b"");
        buf[5] = 7;
        assert_eq!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::UnknownKind(7))
        );
    }

    /// A transport that hands out one arrived burst per `read` and counts
    /// the calls.
    struct Bursts {
        bursts: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Bursts {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(burst) = self.bursts.front_mut() else {
                return Ok(0);
            };
            let n = burst.len().min(buf.len());
            buf[..n].copy_from_slice(&burst[..n]);
            burst.drain(..n);
            if burst.is_empty() {
                self.bursts.pop_front();
            }
            Ok(n)
        }
    }

    /// Reads every frame of `bursts` the way the connection reader and
    /// `Client` do — through a `BufReader` — and returns the `read` calls
    /// it took, the one that saw EOF included.
    fn buffered_reads(bursts: Vec<Vec<u8>>, frames: usize) -> usize {
        let mut reader = io::BufReader::new(Bursts {
            bursts: bursts.into(),
            reads: 0,
        });
        for id in 0..frames as u64 {
            let frame = read_frame(&mut reader).unwrap().expect("a frame");
            assert_eq!((frame.request_id, frame.payload.len()), (id, 70));
        }
        assert_eq!(read_frame(&mut reader), Ok(None));
        reader.get_ref().reads
    }

    #[test]
    fn a_buffered_frame_costs_at_most_one_read_and_a_burst_shares_one() {
        let frames = 48;
        let frame = |id| encode_frame(FrameKind::Request, id, &[7; 70]);
        // One frame per arrival: one read each (three unbuffered — length,
        // header, payload), plus the read that sees EOF.
        let one_by_one = (0..frames).map(frame).collect();
        assert_eq!(
            buffered_reads(one_by_one, frames as usize),
            frames as usize + 1
        );
        // Pipelined frames that arrived together share a read.
        let in_bursts: Vec<Vec<u8>> = (0..frames)
            .step_by(16)
            .map(|first| (first..first + 16).flat_map(frame).collect())
            .collect();
        assert_eq!(buffered_reads(in_bursts, frames as usize), 3 + 1);
        // And without the buffer, for the record.
        let mut bare = Bursts {
            bursts: (0..frames).map(frame).collect(),
            reads: 0,
        };
        while read_frame(&mut bare).unwrap().is_some() {}
        assert_eq!(bare.reads, 3 * frames as usize + 1);
    }
}
