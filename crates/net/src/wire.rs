//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message travels as one frame: a little-endian `u32` payload
//! length followed by the payload. Requests and responses are
//! self-describing (both carry the opcode), so a decoder needs no
//! per-connection state beyond the byte stream itself, and a pipelined
//! client matches responses to requests by the 64-bit request id it
//! chose.
//!
//! ```text
//! frame    := len:u32 payload[len]            len <= MAX_FRAME
//! request  := req_id:u64 opcode:u8 body
//!   lookup := key:u64
//!   insert := key:u64 value:u64
//!   update := key:u64 value:u64
//!   remove := key:u64
//!   scan   := start:u64 count:u32             count <= MAX_SCAN
//!   shutdown :=                                (graceful drain)
//! response := req_id:u64 opcode:u8 status:u8 body
//!   status Ok:       lookup -> value:u64, scan -> n:u32 (key:u64 value:u64)^n
//!   status Miss:     empty (absent key / duplicate insert)
//!   status Overload: empty (admission control shed the request)
//!   status Bad:      empty (malformed frame; connection closes)
//!   status Draining: empty (server is shutting down)
//! ```
//!
//! Decoding is incremental: [`FrameBuf`] accumulates raw bytes from the
//! socket and yields complete payloads regardless of how the stream was
//! split into reads. Malformed input of any kind — oversized frames,
//! unknown opcodes, truncated or over-long bodies, absurd scan counts —
//! returns a [`WireError`] instead of panicking, and the server answers
//! with [`Status::Bad`] before closing the connection.
//!
//! The operation contract itself is `index_api`'s: [`ReqOp`] is
//! [`Op`] in wire form (a bounded `u32` scan count, plus the `Shutdown`
//! control message) and a [`Response`] is an [`Outcome`] in wire form
//! ([`Response::of`]). Both conversions live here and nowhere else.

use index_api::{Op, Outcome};

/// Largest accepted frame payload (1 MiB bounds a scan response).
pub const MAX_FRAME: usize = 1 << 20;
/// Largest accepted scan count per request.
pub const MAX_SCAN: u32 = 65_536;

/// Operation selector carried by every request and echoed by the
/// response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Point lookup.
    Lookup = 1,
    /// Insert (fails on a present key).
    Insert = 2,
    /// Update (fails on an absent key).
    Update = 3,
    /// Remove (fails on an absent key).
    Remove = 4,
    /// Range scan from a start key.
    Scan = 5,
    /// Ask the server to drain and exit (admin).
    Shutdown = 6,
}

impl Opcode {
    fn from_u8(b: u8) -> Result<Opcode, WireError> {
        Ok(match b {
            1 => Opcode::Lookup,
            2 => Opcode::Insert,
            3 => Opcode::Update,
            4 => Opcode::Remove,
            5 => Opcode::Scan,
            6 => Opcode::Shutdown,
            other => return Err(WireError::BadOpcode(other)),
        })
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The operation was applied / the key was found.
    Ok = 0,
    /// Clean negative outcome: absent key, duplicate insert.
    Miss = 1,
    /// Load-shed error code: admission control refused the request.
    Overload = 2,
    /// The request could not be parsed; the connection will close.
    Bad = 3,
    /// The server is draining and no longer accepts new work.
    Draining = 4,
}

impl Status {
    fn from_u8(b: u8) -> Result<Status, WireError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::Miss,
            2 => Status::Overload,
            3 => Status::Bad,
            4 => Status::Draining,
            other => return Err(WireError::BadStatus(other)),
        })
    }
}

/// Everything that can be wrong with bytes coming off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame length prefix exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown status byte.
    BadStatus(u8),
    /// Payload shorter than the fixed part of its message.
    Truncated,
    /// Payload longer than its message (trailing garbage).
    Trailing(usize),
    /// Scan count exceeds [`MAX_SCAN`].
    ScanTooLarge(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversize(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            WireError::BadOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            WireError::BadStatus(b) => write!(f, "unknown status {b:#04x}"),
            WireError::Truncated => write!(f, "truncated message body"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message body"),
            WireError::ScanTooLarge(n) => write!(f, "scan count {n} exceeds {MAX_SCAN}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id echoed by the response (pipelining).
    pub req_id: u64,
    /// The operation.
    pub op: ReqOp,
}

/// The operation part of a [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOp {
    /// Point lookup of `key`.
    Lookup(u64),
    /// Insert `key -> value`.
    Insert(u64, u64),
    /// Update `key -> value`.
    Update(u64, u64),
    /// Remove `key`.
    Remove(u64),
    /// Scan `count` records from `start`.
    Scan(u64, u32),
    /// Graceful-drain control message.
    Shutdown,
}

impl ReqOp {
    /// The wire opcode of this operation.
    pub fn opcode(&self) -> Opcode {
        match self {
            ReqOp::Lookup(..) => Opcode::Lookup,
            ReqOp::Insert(..) => Opcode::Insert,
            ReqOp::Update(..) => Opcode::Update,
            ReqOp::Remove(..) => Opcode::Remove,
            ReqOp::Scan(..) => Opcode::Scan,
            ReqOp::Shutdown => Opcode::Shutdown,
        }
    }

    /// The index operation this request carries (`None` for the
    /// `Shutdown` control message).
    pub fn op(&self) -> Option<Op> {
        Some(match *self {
            ReqOp::Lookup(k) => Op::Lookup(k),
            ReqOp::Insert(k, v) => Op::Insert(k, v),
            ReqOp::Update(k, v) => Op::Update(k, v),
            ReqOp::Remove(k) => Op::Remove(k),
            ReqOp::Scan(k, n) => Op::Scan(k, n as usize),
            ReqOp::Shutdown => return None,
        })
    }
}

/// The one place an operation becomes a request: a scan longer than
/// [`MAX_SCAN`] has no wire form, because the server would refuse the
/// frame and close the connection.
impl TryFrom<Op> for ReqOp {
    type Error = WireError;

    fn try_from(op: Op) -> Result<ReqOp, WireError> {
        Ok(match op {
            Op::Lookup(k) => ReqOp::Lookup(k),
            Op::Insert(k, v) => ReqOp::Insert(k, v),
            Op::Update(k, v) => ReqOp::Update(k, v),
            Op::Remove(k) => ReqOp::Remove(k),
            Op::Scan(k, n) => match u32::try_from(n) {
                Ok(count) if count <= MAX_SCAN => ReqOp::Scan(k, count),
                too_long => return Err(WireError::ScanTooLarge(too_long.unwrap_or(u32::MAX))),
            },
        })
    }
}

/// One server response (echoes `req_id` and the opcode it answers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub req_id: u64,
    /// Echoed opcode.
    pub op: Opcode,
    /// Outcome.
    pub status: Status,
    /// Lookup hit value.
    pub value: Option<u64>,
    /// Scan hit records.
    pub pairs: Vec<(u64, u64)>,
}

impl Response {
    /// A body-less response (write acks, misses, errors).
    pub fn basic(req_id: u64, op: Opcode, status: Status) -> Response {
        Response {
            req_id,
            op,
            status,
            value: None,
            pairs: Vec::new(),
        }
    }

    /// The response that carries `outcome` of request `req_id`: the
    /// server builds its answers with it, a checking client what it
    /// expects to read. A refused write and an absent key are `Miss`,
    /// everything else `Ok`; the rows move into the response.
    pub fn of(req_id: u64, op: Opcode, outcome: Outcome) -> Response {
        let hit = |yes| if yes { Status::Ok } else { Status::Miss };
        let (status, value, pairs) = match outcome {
            Outcome::Acked(applied) => (hit(applied), None, Vec::new()),
            Outcome::Value(v) => (hit(v.is_some()), v, Vec::new()),
            Outcome::Rows(rows) => (Status::Ok, None, rows),
        };
        Response {
            req_id,
            op,
            status,
            value,
            pairs,
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.at).ok_or(WireError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.at.checked_add(4).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(WireError::Truncated)?;
        self.at = end;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.at.checked_add(8).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(WireError::Truncated)?;
        self.at = end;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.at;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(left))
        }
    }
}

/// Append one length-prefixed frame holding `payload` built by `f`.
fn frame(out: &mut Vec<u8>, f: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    put_u32(out, 0);
    f(out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

impl Request {
    /// Append this request as one frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        frame(out, |b| {
            put_u64(b, self.req_id);
            b.push(self.op.opcode() as u8);
            match self.op {
                ReqOp::Lookup(k) | ReqOp::Remove(k) => put_u64(b, k),
                ReqOp::Insert(k, v) | ReqOp::Update(k, v) => {
                    put_u64(b, k);
                    put_u64(b, v);
                }
                ReqOp::Scan(start, count) => {
                    put_u64(b, start);
                    put_u32(b, count);
                }
                ReqOp::Shutdown => {}
            }
        });
    }

    /// Decode one request from a complete frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut c = Cursor::new(payload);
        let req_id = c.u64()?;
        let op = match Opcode::from_u8(c.u8()?)? {
            Opcode::Lookup => ReqOp::Lookup(c.u64()?),
            Opcode::Insert => ReqOp::Insert(c.u64()?, c.u64()?),
            Opcode::Update => ReqOp::Update(c.u64()?, c.u64()?),
            Opcode::Remove => ReqOp::Remove(c.u64()?),
            Opcode::Scan => {
                let start = c.u64()?;
                let count = c.u32()?;
                if count > MAX_SCAN {
                    return Err(WireError::ScanTooLarge(count));
                }
                ReqOp::Scan(start, count)
            }
            Opcode::Shutdown => ReqOp::Shutdown,
        };
        c.finish()?;
        Ok(Request { req_id, op })
    }
}

impl Response {
    /// Append this response as one frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        frame(out, |b| {
            put_u64(b, self.req_id);
            b.push(self.op as u8);
            b.push(self.status as u8);
            if self.status == Status::Ok {
                match self.op {
                    Opcode::Lookup => put_u64(b, self.value.unwrap_or(0)),
                    Opcode::Scan => {
                        put_u32(b, self.pairs.len() as u32);
                        for &(k, v) in &self.pairs {
                            put_u64(b, k);
                            put_u64(b, v);
                        }
                    }
                    _ => {}
                }
            }
        });
    }

    /// Decode one response from a complete frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(payload);
        let req_id = c.u64()?;
        let op = Opcode::from_u8(c.u8()?)?;
        let status = Status::from_u8(c.u8()?)?;
        let mut value = None;
        let mut pairs = Vec::new();
        if status == Status::Ok {
            match op {
                Opcode::Lookup => value = Some(c.u64()?),
                Opcode::Scan => {
                    let n = c.u32()?;
                    if n > MAX_SCAN {
                        return Err(WireError::ScanTooLarge(n));
                    }
                    pairs.reserve(n as usize);
                    for _ in 0..n {
                        pairs.push((c.u64()?, c.u64()?));
                    }
                }
                _ => {}
            }
        }
        c.finish()?;
        Ok(Response {
            req_id,
            op,
            status,
            value,
            pairs,
        })
    }
}

/// Incremental frame reassembly over an arbitrarily-split byte stream.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    at: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Feed raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the consumed prefix dominates.
        if self.at > 4096 && self.at * 2 > self.buf.len() {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Whether the next frame is fully buffered (or its length prefix
    /// is, and oversized: [`FrameBuf::next_frame`] reports that).
    pub fn has_frame(&self) -> bool {
        let avail = self.pending();
        avail >= 4 && {
            let len = u32::from_le_bytes(self.buf[self.at..self.at + 4].try_into().unwrap());
            len as usize > MAX_FRAME || avail >= 4 + len as usize
        }
    }

    /// Pop the next complete frame payload, if one is fully buffered.
    /// An oversized length prefix is a protocol error (the stream is
    /// unrecoverable past it, so the caller must close the connection).
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = self.buf.len() - self.at;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.at..self.at + 4].try_into().unwrap());
        if len as usize > MAX_FRAME {
            return Err(WireError::Oversize(len));
        }
        if avail < 4 + len as usize {
            return Ok(None);
        }
        let start = self.at + 4;
        self.at = start + len as usize;
        Ok(Some(&self.buf[start..self.at]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(op: ReqOp) {
        let req = Request { req_id: 77, op };
        let mut bytes = Vec::new();
        req.encode_into(&mut bytes);
        let mut fb = FrameBuf::new();
        fb.push(&bytes);
        let payload = fb.next_frame().unwrap().unwrap().to_vec();
        assert_eq!(Request::decode(&payload).unwrap(), req);
        assert!(fb.next_frame().unwrap().is_none());
        // Every request but `Shutdown` is an index operation, and that
        // operation's wire form is the request.
        assert_eq!(op.op().is_none(), op == ReqOp::Shutdown);
        if let Some(index_op) = op.op() {
            assert_eq!(ReqOp::try_from(index_op), Ok(op));
        }
    }

    #[test]
    fn request_roundtrip_all_ops() {
        roundtrip_req(ReqOp::Lookup(5));
        roundtrip_req(ReqOp::Insert(1, 2));
        roundtrip_req(ReqOp::Update(u64::MAX, 0));
        roundtrip_req(ReqOp::Remove(9));
        roundtrip_req(ReqOp::Scan(3, 100));
        roundtrip_req(ReqOp::Shutdown);
    }

    #[test]
    fn response_roundtrip_with_bodies() {
        for r in [
            Response {
                req_id: 1,
                op: Opcode::Lookup,
                status: Status::Ok,
                value: Some(42),
                pairs: Vec::new(),
            },
            Response {
                req_id: 2,
                op: Opcode::Scan,
                status: Status::Ok,
                value: None,
                pairs: vec![(1, 10), (2, 20)],
            },
            Response::basic(3, Opcode::Insert, Status::Miss),
            Response::basic(4, Opcode::Update, Status::Overload),
            Response::basic(5, Opcode::Remove, Status::Draining),
        ] {
            let mut bytes = Vec::new();
            r.encode_into(&mut bytes);
            let mut fb = FrameBuf::new();
            fb.push(&bytes);
            let payload = fb.next_frame().unwrap().unwrap().to_vec();
            assert_eq!(Response::decode(&payload).unwrap(), r);
        }
    }

    #[test]
    fn split_boundaries_do_not_matter() {
        let mut bytes = Vec::new();
        for i in 0..10u64 {
            Request {
                req_id: i,
                op: ReqOp::Insert(i, i * 2),
            }
            .encode_into(&mut bytes);
        }
        // Feed one byte at a time: every frame still comes out intact.
        let mut fb = FrameBuf::new();
        let mut seen = 0u64;
        for &b in &bytes {
            fb.push(&[b]);
            while let Some(p) = fb.next_frame().unwrap() {
                let req = Request::decode(p).unwrap();
                assert_eq!(req.req_id, seen);
                seen += 1;
            }
        }
        assert_eq!(seen, 10);
    }

    #[test]
    fn malformed_frames_error_not_panic() {
        // Oversized length prefix.
        let mut fb = FrameBuf::new();
        fb.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(WireError::Oversize(_))));

        // Unknown opcode.
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        p.push(0xEE);
        assert_eq!(Request::decode(&p), Err(WireError::BadOpcode(0xEE)));

        // Truncated body.
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        p.push(Opcode::Insert as u8);
        put_u64(&mut p, 7);
        assert_eq!(Request::decode(&p), Err(WireError::Truncated));

        // Trailing garbage.
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        p.push(Opcode::Remove as u8);
        put_u64(&mut p, 7);
        p.push(0);
        assert_eq!(Request::decode(&p), Err(WireError::Trailing(1)));

        // Absurd scan count.
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        p.push(Opcode::Scan as u8);
        put_u64(&mut p, 0);
        put_u32(&mut p, MAX_SCAN + 1);
        assert_eq!(
            Request::decode(&p),
            Err(WireError::ScanTooLarge(MAX_SCAN + 1))
        );
    }
}
