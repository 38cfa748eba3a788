//! The length-prefixed binary wire protocol: typed frames and a pure,
//! incremental codec. No I/O lives here — [`crate::edge`] does the
//! sockets; this module only turns bytes into [`Frame`]s and back.
//!
//! ## Frame format
//!
//! Every frame is `u32 length (LE) ‖ u8 type ‖ payload`, where `length`
//! counts the type byte plus the payload. Lengths above [`MAX_FRAME`]
//! are refused with [`WireError::FrameTooLarge`] *before* any
//! allocation, so a hostile 4 GiB length prefix costs nothing. All
//! integers are little-endian; variable-length word vectors carry a
//! `u32` count.
//!
//! The session opens with a handshake: the client sends
//! [`Frame::Hello`] (the `b"CFMW"` magic plus its protocol version) and
//! the server answers [`Frame::Welcome`] with the machine geometry.
//! Submissions carry a client-chosen `request_id` that the matching
//! [`Frame::Response`] or [`Frame::Reject`] echoes, so clients may
//! pipeline arbitrarily many requests per connection.
//!
//! ## Versioning rules
//!
//! Same contract as the snapshot codec (`docs/checkpoint-restore.md`):
//! the version is bumped on **any** change to frame layout, a frame is
//! never reinterpreted across versions, and a decoder refuses foreign
//! versions with a typed [`WireError::VersionMismatch`] rather than
//! guessing. There is exactly one version today, [`PROTOCOL_VERSION`].
//!
//! ## Decoder guarantees
//!
//! [`Decoder::next_frame`] never panics on hostile input: arbitrary
//! bytes, truncated frames, oversized lengths, bad discriminants, and
//! stale versions all surface as a typed [`WireError`] (the root-crate
//! `tests/wire.rs` proptests pin this). Errors are not recoverable
//! within a stream — after an error the connection is dead by contract,
//! which is what makes the framing unambiguous.

use std::fmt;

use cfm_core::op::{BlockTransform, Completion, OpKind, Operation, Outcome};
use cfm_core::Word;

use crate::request::{Reject, Request, Response};

/// First four payload bytes of every [`Frame::Hello`].
pub const MAGIC: [u8; 4] = *b"CFMW";

/// The one protocol version this build speaks. Bumped on any layout
/// change; never reinterpreted.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on `length` (type byte + payload). Larger prefixes are
/// refused before allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a byte stream could not be decoded. Every variant is typed and
/// total — hostile input can never panic the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A complete frame's payload ended before a field did.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        got: usize,
    },
    /// A Hello frame did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes received instead.
        got: [u8; 4],
    },
    /// A Hello frame spoke a different protocol version.
    VersionMismatch {
        /// Version the peer offered.
        got: u16,
        /// Version this build speaks ([`PROTOCOL_VERSION`]).
        want: u16,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// The offered length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// The frame-type byte is not one this version defines.
    UnknownFrameType {
        /// The offending type byte.
        ty: u8,
    },
    /// An enum discriminant inside a payload is out of range.
    UnknownTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A frame decoded cleanly but left unconsumed payload bytes — the
    /// peer and this decoder disagree about the layout, which is never
    /// safe to ignore.
    TrailingBytes {
        /// The frame type involved.
        ty: u8,
        /// Unconsumed byte count.
        extra: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// Which field was being decoded.
        what: &'static str,
    },
}

impl WireError {
    /// Stable numeric code, carried by [`Frame::Error`] so the peer can
    /// match on the cause without parsing prose.
    pub fn code(&self) -> u16 {
        match self {
            WireError::Truncated { .. } => 1,
            WireError::BadMagic { .. } => 2,
            WireError::VersionMismatch { .. } => 3,
            WireError::FrameTooLarge { .. } => 4,
            WireError::UnknownFrameType { .. } => 5,
            WireError::UnknownTag { .. } => 6,
            WireError::TrailingBytes { .. } => 7,
            WireError::BadUtf8 { .. } => 8,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "payload truncated (needed {needed} bytes, had {got})")
            }
            WireError::BadMagic { got } => write!(f, "bad magic {got:?} (want {MAGIC:?})"),
            WireError::VersionMismatch { got, want } => {
                write!(f, "protocol version {got} not spoken here (want {want})")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            WireError::UnknownFrameType { ty } => write!(f, "unknown frame type {ty}"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::TrailingBytes { ty, extra } => {
                write!(f, "frame type {ty} left {extra} trailing bytes")
            }
            WireError::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// One protocol frame. `Submit` carries the *same* [`Request`] struct
/// the in-process [`crate::Service::submit`] admits, and
/// `Response` carries the same [`Response`] tickets resolve to — the
/// codec round-trips the service's own types, there is no parallel
/// wire-side model.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server session opener: magic + version.
    Hello {
        /// The client's protocol version.
        version: u16,
    },
    /// Server → client handshake reply: version + machine geometry.
    Welcome {
        /// The server's protocol version.
        version: u16,
        /// Words per block (= memory banks).
        banks: u32,
        /// Blocks of shared memory.
        offsets: u32,
        /// Processor lanes.
        processors: u32,
    },
    /// Client → server: one request, tagged for pipelining.
    Submit {
        /// Client-chosen correlation ID, echoed by the reply.
        request_id: u64,
        /// The request envelope (identical to the in-process type).
        request: Request,
    },
    /// Server → client: a fulfilled request.
    Response {
        /// Echo of the submit's correlation ID.
        request_id: u64,
        /// The service's response (identical to the in-process type).
        response: Response,
    },
    /// Server → client: a request refused with typed backpressure
    /// (including `retry_after_slots` hints where the variant carries
    /// one).
    Reject {
        /// Echo of the submit's correlation ID (0 for connection-level
        /// shedding that refuses work before reading a submit).
        request_id: u64,
        /// The typed rejection (identical to the in-process type).
        reject: Reject,
    },
    /// Client → server: ask for a metrics snapshot.
    MetricsRequest,
    /// Server → client: the byte-stable metrics JSON
    /// ([`crate::MetricsSnapshot::to_json`]).
    Metrics {
        /// The JSON document.
        json: String,
    },
    /// Client → server: no more submits on this connection; flush every
    /// outstanding response, then confirm with [`Frame::Drained`].
    Drain,
    /// Server → client: drain complete, connection closing.
    Drained,
    /// Server → client: the connection is being dropped for a protocol
    /// error (the typed [`WireError`] code plus prose).
    Error {
        /// [`WireError::code`] of the cause.
        code: u16,
        /// Human-readable rendering of the cause.
        message: String,
    },
}

const TY_HELLO: u8 = 1;
const TY_WELCOME: u8 = 2;
const TY_SUBMIT: u8 = 3;
const TY_RESPONSE: u8 = 4;
const TY_REJECT: u8 = 5;
const TY_METRICS_REQUEST: u8 = 6;
const TY_METRICS: u8 = 7;
const TY_DRAIN: u8 = 8;
const TY_DRAINED: u8 = 9;
const TY_ERROR: u8 = 10;

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_words(out: &mut Vec<u8>, words: &[Word]) {
    out.reserve(4 + 8 * words.len());
    put_u32(out, words.len() as u32);
    for w in words {
        put_u64(out, *w);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_operation(out: &mut Vec<u8>, op: &Operation) {
    match op {
        Operation::Read { offset } => {
            out.push(0);
            put_u64(out, *offset as u64);
        }
        Operation::Write { offset, data } => {
            out.push(1);
            put_u64(out, *offset as u64);
            put_words(out, data);
        }
        Operation::Swap { offset, data } => {
            out.push(2);
            put_u64(out, *offset as u64);
            put_words(out, data);
        }
        Operation::Rmw { offset, transform } => {
            out.push(3);
            put_u64(out, *offset as u64);
            match transform {
                BlockTransform::FetchAdd { word, delta } => {
                    out.push(0);
                    put_u64(out, *word as u64);
                    put_u64(out, *delta);
                }
                BlockTransform::TestAndSet { word } => {
                    out.push(1);
                    put_u64(out, *word as u64);
                }
                BlockTransform::MultipleTestAndSet { pattern } => {
                    out.push(2);
                    put_words(out, pattern);
                }
                BlockTransform::ClearBits { pattern } => {
                    out.push(3);
                    put_words(out, pattern);
                }
            }
        }
    }
}

fn put_reject(out: &mut Vec<u8>, reject: &Reject) {
    match reject {
        Reject::QueueFull {
            tenant,
            capacity,
            retry_after_slots,
        } => {
            out.push(0);
            put_u64(out, *tenant as u64);
            put_u64(out, *capacity as u64);
            put_u64(out, *retry_after_slots);
        }
        Reject::Overloaded {
            queued,
            limit,
            retry_after_slots,
        } => {
            out.push(1);
            put_u64(out, *queued as u64);
            put_u64(out, *limit as u64);
            put_u64(out, *retry_after_slots);
        }
        Reject::ShuttingDown => out.push(2),
        Reject::UnknownTenant { tenant } => {
            out.push(3);
            put_u64(out, *tenant as u64);
        }
        Reject::NoSuchBlock { offset, offsets } => {
            out.push(4);
            put_u64(out, *offset as u64);
            put_u64(out, *offsets as u64);
        }
        Reject::WrongBlockLength { got, want } => {
            out.push(5);
            put_u64(out, *got as u64);
            put_u64(out, *want as u64);
        }
        Reject::Migrating {
            tenant,
            retry_after_slots,
        } => {
            out.push(9);
            put_u64(out, *tenant as u64);
            put_u64(out, *retry_after_slots);
        }
    }
}

fn put_completion(out: &mut Vec<u8>, c: &Completion) {
    put_u64(out, c.proc as u64);
    out.push(match c.kind {
        OpKind::Read => 0,
        OpKind::Write => 1,
        OpKind::Swap => 2,
        OpKind::Rmw => 3,
    });
    put_u64(out, c.offset as u64);
    match &c.data {
        None => out.push(0),
        Some(words) => {
            out.push(1);
            put_words(out, words);
        }
    }
    put_u64(out, c.issued_at);
    put_u64(out, c.completed_at);
    put_u32(out, c.restarts);
    out.push(match c.outcome {
        Outcome::Completed => 0,
        Outcome::Overwritten => 1,
        Outcome::TransientFault => 2,
    });
    out.push(u8::from(c.torn));
}

/// Append `frame`, fully framed (length prefix included), to `out`.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0); // length backpatched below
    match frame {
        Frame::Hello { version } => {
            out.push(TY_HELLO);
            out.extend_from_slice(&MAGIC);
            put_u16(out, *version);
        }
        Frame::Welcome {
            version,
            banks,
            offsets,
            processors,
        } => {
            out.push(TY_WELCOME);
            put_u16(out, *version);
            put_u32(out, *banks);
            put_u32(out, *offsets);
            put_u32(out, *processors);
        }
        Frame::Submit {
            request_id,
            request,
        } => {
            out.push(TY_SUBMIT);
            put_u64(out, *request_id);
            put_u64(out, request.tenant as u64);
            put_operation(out, &request.op);
        }
        Frame::Response {
            request_id,
            response,
        } => {
            out.push(TY_RESPONSE);
            put_u64(out, *request_id);
            put_u64(out, response.tenant as u64);
            put_completion(out, &response.completion);
            put_u64(out, response.queued_ns);
            put_u64(out, response.total_ns);
        }
        Frame::Reject { request_id, reject } => {
            out.push(TY_REJECT);
            put_u64(out, *request_id);
            put_reject(out, reject);
        }
        Frame::MetricsRequest => out.push(TY_METRICS_REQUEST),
        Frame::Metrics { json } => {
            out.push(TY_METRICS);
            put_str(out, json);
        }
        Frame::Drain => out.push(TY_DRAIN),
        Frame::Drained => out.push(TY_DRAINED),
        Frame::Error { code, message } => {
            out.push(TY_ERROR);
            put_u16(out, *code);
            put_str(out, message);
        }
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encode `frame` into a fresh buffer (length prefix included).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(frame, &mut out);
    out
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// Bounds-checked reader over one frame's payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` count, then that many words, decoded into one buffer of
    /// exactly that size.
    fn words(&mut self) -> Result<Box<[Word]>, WireError> {
        let n = self.u32()? as usize;
        // A hostile count cannot exceed what the (already capped)
        // payload physically holds — `take` checks before allocating.
        let needed = n.checked_mul(8).ok_or(WireError::Truncated {
            needed: usize::MAX,
            got: self.remaining(),
        })?;
        let bytes = self.take(needed)?;
        let mut words = Vec::with_capacity(n);
        words.extend(
            bytes
                .chunks_exact(8)
                .map(|w| Word::from_le_bytes(w.try_into().unwrap())),
        );
        Ok(words.into_boxed_slice())
    }

    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { what, tag }),
        }
    }
}

fn take_operation(c: &mut Cursor<'_>) -> Result<Operation, WireError> {
    let tag = c.u8()?;
    let offset = c.u64()? as usize;
    Ok(match tag {
        0 => Operation::Read { offset },
        1 => Operation::Write {
            offset,
            data: c.words()?,
        },
        2 => Operation::Swap {
            offset,
            data: c.words()?,
        },
        3 => {
            let ttag = c.u8()?;
            let transform = match ttag {
                0 => BlockTransform::FetchAdd {
                    word: c.u64()? as usize,
                    delta: c.u64()?,
                },
                1 => BlockTransform::TestAndSet {
                    word: c.u64()? as usize,
                },
                2 => BlockTransform::MultipleTestAndSet {
                    pattern: c.words()?,
                },
                3 => BlockTransform::ClearBits {
                    pattern: c.words()?,
                },
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "block transform",
                        tag,
                    })
                }
            };
            Operation::Rmw { offset, transform }
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "operation",
                tag,
            })
        }
    })
}

fn take_reject(c: &mut Cursor<'_>) -> Result<Reject, WireError> {
    Ok(match c.u8()? {
        0 => Reject::QueueFull {
            tenant: c.u64()? as usize,
            capacity: c.u64()? as usize,
            retry_after_slots: c.u64()?,
        },
        1 => Reject::Overloaded {
            queued: c.u64()? as usize,
            limit: c.u64()? as usize,
            retry_after_slots: c.u64()?,
        },
        2 => Reject::ShuttingDown,
        3 => Reject::UnknownTenant {
            tenant: c.u64()? as usize,
        },
        4 => Reject::NoSuchBlock {
            offset: c.u64()? as usize,
            offsets: c.u64()? as usize,
        },
        5 => Reject::WrongBlockLength {
            got: c.u64()? as usize,
            want: c.u64()? as usize,
        },
        9 => Reject::Migrating {
            tenant: c.u64()? as usize,
            retry_after_slots: c.u64()?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "reject",
                tag,
            })
        }
    })
}

fn take_completion(c: &mut Cursor<'_>) -> Result<Completion, WireError> {
    let proc = c.u64()? as usize;
    let kind = match c.u8()? {
        0 => OpKind::Read,
        1 => OpKind::Write,
        2 => OpKind::Swap,
        3 => OpKind::Rmw,
        tag => {
            return Err(WireError::UnknownTag {
                what: "op kind",
                tag,
            })
        }
    };
    let offset = c.u64()? as usize;
    let data = match c.u8()? {
        0 => None,
        1 => Some(c.words()?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "data option",
                tag,
            })
        }
    };
    let issued_at = c.u64()?;
    let completed_at = c.u64()?;
    let restarts = c.u32()?;
    let outcome = match c.u8()? {
        0 => Outcome::Completed,
        1 => Outcome::Overwritten,
        2 => Outcome::TransientFault,
        tag => {
            return Err(WireError::UnknownTag {
                what: "outcome",
                tag,
            })
        }
    };
    let torn = c.bool("torn")?;
    Ok(Completion {
        proc,
        kind,
        offset,
        data,
        issued_at,
        completed_at,
        restarts,
        outcome,
        torn,
    })
}

/// Decode one complete frame body (`type byte ‖ payload`, length prefix
/// already stripped and validated). Strict: trailing bytes are a typed
/// error, stale Hello versions are refused here.
pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(body);
    let ty = c.u8()?;
    let frame = match ty {
        TY_HELLO => {
            let magic: [u8; 4] = c.take(4)?.try_into().unwrap();
            if magic != MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = c.u16()?;
            if version != PROTOCOL_VERSION {
                return Err(WireError::VersionMismatch {
                    got: version,
                    want: PROTOCOL_VERSION,
                });
            }
            Frame::Hello { version }
        }
        TY_WELCOME => Frame::Welcome {
            version: c.u16()?,
            banks: c.u32()?,
            offsets: c.u32()?,
            processors: c.u32()?,
        },
        TY_SUBMIT => Frame::Submit {
            request_id: c.u64()?,
            request: Request {
                tenant: c.u64()? as usize,
                op: take_operation(&mut c)?,
            },
        },
        TY_RESPONSE => Frame::Response {
            request_id: c.u64()?,
            response: Response {
                tenant: c.u64()? as usize,
                completion: take_completion(&mut c)?,
                queued_ns: c.u64()?,
                total_ns: c.u64()?,
            },
        },
        TY_REJECT => Frame::Reject {
            request_id: c.u64()?,
            reject: take_reject(&mut c)?,
        },
        TY_METRICS_REQUEST => Frame::MetricsRequest,
        TY_METRICS => Frame::Metrics {
            json: c.string("metrics json")?,
        },
        TY_DRAIN => Frame::Drain,
        TY_DRAINED => Frame::Drained,
        TY_ERROR => Frame::Error {
            code: c.u16()?,
            message: c.string("error message")?,
        },
        ty => return Err(WireError::UnknownFrameType { ty }),
    };
    if c.remaining() > 0 {
        return Err(WireError::TrailingBytes {
            ty,
            extra: c.remaining(),
        });
    }
    Ok(frame)
}

/// Incremental frame decoder: feed it bytes as they arrive, pull
/// complete frames out. One per connection.
///
/// ```
/// use cfm_serve::wire::{encode, Decoder, Frame, PROTOCOL_VERSION};
///
/// let mut dec = Decoder::new();
/// let bytes = encode(&Frame::Hello { version: PROTOCOL_VERSION });
/// dec.feed(&bytes[..3]); // partial delivery
/// assert_eq!(dec.next_frame().unwrap(), None);
/// dec.feed(&bytes[3..]);
/// assert_eq!(
///     dec.next_frame().unwrap(),
///     Some(Frame::Hello { version: PROTOCOL_VERSION })
/// );
/// ```
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Append newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the consumed prefix dominates.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame, `Ok(None)` if more bytes are needed, or
    /// a typed error (after which the stream must be abandoned).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(WireError::FrameTooLarge {
                len,
                max: MAX_FRAME,
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = decode_body(&avail[4..4 + len])?;
        self.pos += 4 + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut dec = Decoder::new();
        dec.feed(&encode(&frame));
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip(Frame::Welcome {
            version: 1,
            banks: 16,
            offsets: 64,
            processors: 16,
        });
        round_trip(Frame::Submit {
            request_id: 7,
            request: Request::new(2, Operation::write(5, vec![1, 2, 3, 4])),
        });
        round_trip(Frame::Submit {
            request_id: 8,
            request: Request::new(
                0,
                Operation::Rmw {
                    offset: 3,
                    transform: BlockTransform::FetchAdd { word: 1, delta: 9 },
                },
            ),
        });
        round_trip(Frame::Response {
            request_id: 9,
            response: Response {
                tenant: 1,
                completion: Completion {
                    proc: 3,
                    kind: OpKind::Swap,
                    offset: 12,
                    data: Some(vec![5; 4].into_boxed_slice()),
                    issued_at: 100,
                    completed_at: 107,
                    restarts: 1,
                    outcome: Outcome::Completed,
                    torn: false,
                },
                queued_ns: 250,
                total_ns: 900,
            },
        });
        round_trip(Frame::Reject {
            request_id: 10,
            reject: Reject::QueueFull {
                tenant: 4,
                capacity: 64,
                retry_after_slots: 18,
            },
        });
        round_trip(Frame::Reject {
            request_id: 11,
            reject: Reject::Overloaded {
                queued: 512,
                limit: 512,
                retry_after_slots: 33,
            },
        });
        round_trip(Frame::MetricsRequest);
        round_trip(Frame::Metrics {
            json: "{\n  \"completed\": 3\n}\n".into(),
        });
        round_trip(Frame::Drain);
        round_trip(Frame::Drained);
        round_trip(Frame::Error {
            code: 3,
            message: "protocol version 9 not spoken here (want 1)".into(),
        });
    }

    #[test]
    fn stale_version_is_typed() {
        let mut bytes = Vec::new();
        encode_into(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            &mut bytes,
        );
        // Version field is the last two bytes of the Hello body.
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&99u16.to_le_bytes());
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::VersionMismatch { got: 99, want: 1 })
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        bytes[5] = b'X'; // first magic byte (after length + type)
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_frame(), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn oversized_length_is_refused_before_allocation() {
        let mut dec = Decoder::new();
        dec.feed(&(u32::MAX).to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME,
            })
        );
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut bytes = encode(&Frame::Drain);
        // Claim one extra payload byte and supply it.
        bytes[0..4].copy_from_slice(&2u32.to_le_bytes());
        bytes.push(0xAB);
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::TrailingBytes {
                ty: TY_DRAIN,
                extra: 1
            })
        );
    }

    #[test]
    fn hostile_word_count_is_refused_before_allocating() {
        let mut body = encode(&Frame::Submit {
            request_id: 1,
            request: Request::new(0, Operation::write(2, vec![7; 2])),
        })
        .split_off(4);
        // type, request id, tenant, op tag, offset: the count follows.
        let count_at = 1 + 8 + 8 + 1 + 8;
        body[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_body(&body),
            Err(WireError::Truncated {
                needed: u32::MAX as usize * 8,
                got: 16,
            })
        );
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut dec = Decoder::new();
        let mut bytes = Vec::new();
        for id in 0..10u64 {
            encode_into(
                &Frame::Submit {
                    request_id: id,
                    request: Request::new(0, Operation::read(id as usize)),
                },
                &mut bytes,
            );
        }
        dec.feed(&bytes);
        for id in 0..10u64 {
            match dec.next_frame().unwrap() {
                Some(Frame::Submit { request_id, .. }) => assert_eq!(request_id, id),
                other => panic!("expected submit, got {other:?}"),
            }
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }
}
