//! HTTP/2 frame codec (RFC 7540 §4, §6).
//!
//! All ten frame types are supported. Frames are decoded from plain byte
//! buffers and encoded into any [`WireSink`]; DATA payloads are carried as
//! *lengths* — `put_zeros(len)` on the way out — because the testbed
//! replays body bytes as counted placeholders (the record database knows
//! the real sizes; the wire never needs the content itself). A frame is
//! generic over what holds its header-block fragment ([`FrameOf`]): the
//! connection parses and queues frames whose fragment is a slice of the
//! buffer it already sits in, and [`Frame`] — the fragment as owned
//! [`Bytes`] — is what tests and scripted peers build and compare.

use crate::sansio::WireSink;
use bytes::Bytes;

/// The 9-octet frame header length.
pub(crate) const FRAME_HEADER_LEN: usize = 9;
/// Default and minimum SETTINGS_MAX_FRAME_SIZE.
pub const DEFAULT_MAX_FRAME_SIZE: usize = 16_384;
/// Default flow-control window (connection and stream).
pub const DEFAULT_WINDOW: i64 = 65_535;
/// The client connection preface (§3.5).
pub const PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Frame type registry (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameType {
    Data,
    Headers,
    Priority,
    RstStream,
    Settings,
    PushPromise,
    Ping,
    GoAway,
    WindowUpdate,
    Continuation,
}

impl FrameType {
    fn code(self) -> u8 {
        match self {
            FrameType::Data => 0x0,
            FrameType::Headers => 0x1,
            FrameType::Priority => 0x2,
            FrameType::RstStream => 0x3,
            FrameType::Settings => 0x4,
            FrameType::PushPromise => 0x5,
            FrameType::Ping => 0x6,
            FrameType::GoAway => 0x7,
            FrameType::WindowUpdate => 0x8,
            FrameType::Continuation => 0x9,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0x0 => FrameType::Data,
            0x1 => FrameType::Headers,
            0x2 => FrameType::Priority,
            0x3 => FrameType::RstStream,
            0x4 => FrameType::Settings,
            0x5 => FrameType::PushPromise,
            0x6 => FrameType::Ping,
            0x7 => FrameType::GoAway,
            0x8 => FrameType::WindowUpdate,
            0x9 => FrameType::Continuation,
            _ => return None,
        })
    }
}

/// Error codes (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    NoError,
    ProtocolError,
    InternalError,
    FlowControlError,
    SettingsTimeout,
    StreamClosed,
    FrameSizeError,
    RefusedStream,
    Cancel,
    CompressionError,
    ConnectError,
    EnhanceYourCalm,
    InadequateSecurity,
    Http11Required,
}

impl ErrorCode {
    /// Wire representation.
    pub fn code(self) -> u32 {
        match self {
            ErrorCode::NoError => 0x0,
            ErrorCode::ProtocolError => 0x1,
            ErrorCode::InternalError => 0x2,
            ErrorCode::FlowControlError => 0x3,
            ErrorCode::SettingsTimeout => 0x4,
            ErrorCode::StreamClosed => 0x5,
            ErrorCode::FrameSizeError => 0x6,
            ErrorCode::RefusedStream => 0x7,
            ErrorCode::Cancel => 0x8,
            ErrorCode::CompressionError => 0x9,
            ErrorCode::ConnectError => 0xa,
            ErrorCode::EnhanceYourCalm => 0xb,
            ErrorCode::InadequateSecurity => 0xc,
            ErrorCode::Http11Required => 0xd,
        }
    }

    /// Parse a wire code; unknown codes map to `InternalError` per §7.
    pub fn from_code(code: u32) -> Self {
        match code {
            0x0 => ErrorCode::NoError,
            0x1 => ErrorCode::ProtocolError,
            0x2 => ErrorCode::InternalError,
            0x3 => ErrorCode::FlowControlError,
            0x4 => ErrorCode::SettingsTimeout,
            0x5 => ErrorCode::StreamClosed,
            0x6 => ErrorCode::FrameSizeError,
            0x7 => ErrorCode::RefusedStream,
            0x8 => ErrorCode::Cancel,
            0x9 => ErrorCode::CompressionError,
            0xa => ErrorCode::ConnectError,
            0xb => ErrorCode::EnhanceYourCalm,
            0xc => ErrorCode::InadequateSecurity,
            0xd => ErrorCode::Http11Required,
            _ => ErrorCode::InternalError,
        }
    }
}

/// SETTINGS parameters (§6.5.2). `None` means "not present in this frame".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Settings {
    /// SETTINGS_HEADER_TABLE_SIZE (0x1).
    pub header_table_size: Option<u32>,
    /// SETTINGS_ENABLE_PUSH (0x2) — the paper's §2.1 "no push" switch.
    pub enable_push: Option<bool>,
    /// SETTINGS_MAX_CONCURRENT_STREAMS (0x3).
    pub max_concurrent_streams: Option<u32>,
    /// SETTINGS_INITIAL_WINDOW_SIZE (0x4).
    pub initial_window_size: Option<u32>,
    /// SETTINGS_MAX_FRAME_SIZE (0x5).
    pub max_frame_size: Option<u32>,
    /// SETTINGS_MAX_HEADER_LIST_SIZE (0x6).
    pub max_header_list_size: Option<u32>,
}

/// A stream dependency (§5.3.1): parent stream, weight 1..=256, exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrioritySpec {
    /// Stream this one depends on (0 = root).
    pub depends_on: u32,
    /// Weight in 1..=256.
    pub weight: u16,
    /// Exclusive dependency flag.
    pub exclusive: bool,
}

impl Default for PrioritySpec {
    fn default() -> Self {
        // §5.3.5: default priority — depend on root with weight 16.
        PrioritySpec { depends_on: 0, weight: 16, exclusive: false }
    }
}

/// An HTTP/2 frame that owns its header-block fragment.
pub type Frame = FrameOf<Bytes>;

/// An HTTP/2 frame whose header-block fragment borrows the buffer the
/// frame was parsed from (or will be encoded from).
pub(crate) type FrameRef<'a> = FrameOf<&'a [u8]>;

/// A parsed HTTP/2 frame; `B` holds a header-block fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameOf<B> {
    /// DATA: `len` payload octets (content is opaque filler).
    Data { stream: u32, len: usize, end_stream: bool },
    /// HEADERS with a header block fragment.
    Headers {
        stream: u32,
        block: B,
        end_stream: bool,
        end_headers: bool,
        priority: Option<PrioritySpec>,
    },
    /// PRIORITY.
    Priority { stream: u32, spec: PrioritySpec },
    /// RST_STREAM.
    RstStream { stream: u32, code: ErrorCode },
    /// SETTINGS (ack == true ⇒ empty payload).
    Settings { ack: bool, settings: Settings },
    /// PUSH_PROMISE reserving `promised` with a request header block.
    PushPromise { stream: u32, promised: u32, block: B, end_headers: bool },
    /// PING.
    Ping { ack: bool, payload: [u8; 8] },
    /// GOAWAY.
    GoAway { last_stream: u32, code: ErrorCode },
    /// WINDOW_UPDATE.
    WindowUpdate { stream: u32, increment: u32 },
    /// CONTINUATION of a header block.
    Continuation { stream: u32, block: B, end_headers: bool },
}

/// Frame decode errors; most are connection errors per §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet (not an error; retry after more input).
    Incomplete,
    /// Unknown frame type (§4.1 says ignore; surfaced so callers can skip).
    UnknownType { skip: usize },
    /// Frame violates the protocol.
    Protocol(&'static str),
    /// Frame exceeds SETTINGS_MAX_FRAME_SIZE.
    TooLarge,
}

fn put_u32<W: WireSink + ?Sized>(out: &mut W, v: u32) {
    out.put_slice(&v.to_be_bytes());
}

/// The 5-octet priority section (§6.3): dependency with its exclusive
/// bit, then the weight as 0..=255.
fn put_priority<W: WireSink + ?Sized>(out: &mut W, spec: &PrioritySpec) {
    let dep = (spec.depends_on & 0x7fff_ffff) | if spec.exclusive { 0x8000_0000 } else { 0 };
    let [d0, d1, d2, d3] = dep.to_be_bytes();
    out.put_slice(&[d0, d1, d2, d3, (spec.weight - 1) as u8]);
}

/// The 9-octet frame header (§4.1), built on the stack and appended in
/// one write: a sink pays its per-call cost once, not per octet.
fn header<W: WireSink + ?Sized>(out: &mut W, len: usize, ty: FrameType, flags: u8, stream: u32) {
    let [s0, s1, s2, s3] = (stream & 0x7fff_ffff).to_be_bytes();
    out.put_slice(&[
        (len >> 16) as u8,
        (len >> 8) as u8,
        len as u8,
        ty.code(),
        flags,
        s0,
        s1,
        s2,
        s3,
    ]);
}

/// The fields of a 9-octet frame header (§4.1), before the type is
/// looked up or the payload is in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameHead {
    /// Payload length.
    pub(crate) len: usize,
    /// Frame type code, possibly unknown.
    pub(crate) ty: u8,
    pub(crate) flags: u8,
    /// Stream identifier, reserved bit cleared.
    pub(crate) stream: u32,
}

impl FrameHead {
    /// The header at the start of `buf`; `None` until nine octets are in.
    pub(crate) fn parse(buf: &[u8]) -> Option<FrameHead> {
        let head = buf.first_chunk::<FRAME_HEADER_LEN>()?;
        Some(FrameHead {
            len: ((head[0] as usize) << 16) | ((head[1] as usize) << 8) | head[2] as usize,
            ty: head[3],
            flags: head[4],
            stream: u32::from_be_bytes([head[5], head[6], head[7], head[8]]) & 0x7fff_ffff,
        })
    }

    /// Whether this announces a DATA frame.
    pub(crate) fn is_data(&self) -> bool {
        self.ty == FrameType::Data.code()
    }

    /// The DATA frame this header announces. The payload is opaque (a
    /// PADDED frame's padding counts as payload, as flow control counts
    /// it), so the header alone decides the frame; the connection still
    /// acts on it only once the last payload octet is in.
    pub(crate) fn data<B>(&self) -> Result<FrameOf<B>, FrameError> {
        if self.stream == 0 {
            return Err(FrameError::Protocol("DATA on stream 0"));
        }
        Ok(FrameOf::Data { stream: self.stream, len: self.len, end_stream: self.flags & 0x1 != 0 })
    }
}

impl<B: AsRef<[u8]>> FrameOf<B> {
    /// Serialize this frame into any [`WireSink`] (a `Vec<u8>` for one):
    /// everything through `put_slice` except a DATA payload, which is
    /// `put_zeros(len)` — filler of the declared length. The wire bytes
    /// are identical whichever sink is used.
    pub fn encode<W: WireSink + ?Sized>(&self, out: &mut W) {
        match self {
            FrameOf::Data { stream, len, end_stream } => {
                header(out, *len, FrameType::Data, if *end_stream { 0x1 } else { 0 }, *stream);
                out.put_zeros(*len);
            }
            FrameOf::Headers { stream, block, end_stream, end_headers, priority } => {
                let mut flags = 0u8;
                if *end_stream {
                    flags |= 0x1;
                }
                if *end_headers {
                    flags |= 0x4;
                }
                let extra = if priority.is_some() {
                    flags |= 0x20;
                    5
                } else {
                    0
                };
                let block = block.as_ref();
                header(out, block.len() + extra, FrameType::Headers, flags, *stream);
                if let Some(p) = priority {
                    put_priority(out, p);
                }
                out.put_slice(block);
            }
            FrameOf::Priority { stream, spec } => {
                header(out, 5, FrameType::Priority, 0, *stream);
                put_priority(out, spec);
            }
            FrameOf::RstStream { stream, code } => {
                header(out, 4, FrameType::RstStream, 0, *stream);
                put_u32(out, code.code());
            }
            FrameOf::Settings { ack, settings } => {
                // Six defined settings at six octets each: a stack buffer
                // keeps connection setup allocation-free.
                fn put(buf: &mut [u8; 36], n: &mut usize, id: u16, v: u32) {
                    buf[*n..*n + 2].copy_from_slice(&id.to_be_bytes());
                    buf[*n + 2..*n + 6].copy_from_slice(&v.to_be_bytes());
                    *n += 6;
                }
                let mut payload = [0u8; 36];
                let mut n = 0usize;
                if !ack {
                    if let Some(v) = settings.header_table_size {
                        put(&mut payload, &mut n, 0x1, v);
                    }
                    if let Some(v) = settings.enable_push {
                        put(&mut payload, &mut n, 0x2, v as u32);
                    }
                    if let Some(v) = settings.max_concurrent_streams {
                        put(&mut payload, &mut n, 0x3, v);
                    }
                    if let Some(v) = settings.initial_window_size {
                        put(&mut payload, &mut n, 0x4, v);
                    }
                    if let Some(v) = settings.max_frame_size {
                        put(&mut payload, &mut n, 0x5, v);
                    }
                    if let Some(v) = settings.max_header_list_size {
                        put(&mut payload, &mut n, 0x6, v);
                    }
                }
                header(out, n, FrameType::Settings, if *ack { 0x1 } else { 0 }, 0);
                out.put_slice(&payload[..n]);
            }
            FrameOf::PushPromise { stream, promised, block, end_headers } => {
                let flags = if *end_headers { 0x4 } else { 0 };
                let block = block.as_ref();
                header(out, block.len() + 4, FrameType::PushPromise, flags, *stream);
                put_u32(out, promised & 0x7fff_ffff);
                out.put_slice(block);
            }
            FrameOf::Ping { ack, payload } => {
                header(out, 8, FrameType::Ping, if *ack { 0x1 } else { 0 }, 0);
                out.put_slice(payload);
            }
            FrameOf::GoAway { last_stream, code } => {
                header(out, 8, FrameType::GoAway, 0, 0);
                put_u32(out, last_stream & 0x7fff_ffff);
                put_u32(out, code.code());
            }
            FrameOf::WindowUpdate { stream, increment } => {
                header(out, 4, FrameType::WindowUpdate, 0, *stream);
                put_u32(out, increment & 0x7fff_ffff);
            }
            FrameOf::Continuation { stream, block, end_headers } => {
                let flags = if *end_headers { 0x4 } else { 0 };
                let block = block.as_ref();
                header(out, block.len(), FrameType::Continuation, flags, *stream);
                out.put_slice(block);
            }
        }
    }
}

impl Frame {
    /// Try to decode one frame from the start of `buf`, copying a
    /// header-block fragment into [`Bytes`] of its own.
    ///
    /// On success returns the frame and the number of bytes consumed.
    pub fn decode(buf: &[u8], max_frame_size: usize) -> Result<(Frame, usize), FrameError> {
        let Some(head) = FrameHead::parse(buf) else {
            return Err(FrameError::Incomplete);
        };
        if head.len > max_frame_size {
            return Err(FrameError::TooLarge);
        }
        let total = FRAME_HEADER_LEN + head.len;
        if buf.len() < total {
            return Err(FrameError::Incomplete);
        }
        let frame = Frame::parse(head, &buf[FRAME_HEADER_LEN..total], Bytes::copy_from_slice)?;
        Ok((frame, total))
    }
}

impl<B> FrameOf<B> {
    /// The frame `head` announces, parsed from its complete `payload`;
    /// `block` turns the header-block fragment's octets into a `B`.
    pub(crate) fn parse<'a>(
        head: FrameHead,
        payload: &'a [u8],
        block: impl FnOnce(&'a [u8]) -> B,
    ) -> Result<Self, FrameError> {
        let FrameHead { len, ty, flags, stream } = head;
        debug_assert_eq!(len, payload.len());
        let ty = match FrameType::from_code(ty) {
            Some(t) => t,
            None => return Err(FrameError::UnknownType { skip: FRAME_HEADER_LEN + len }),
        };
        let frame = match ty {
            FrameType::Data => head.data()?,
            FrameType::Headers => {
                if stream == 0 {
                    return Err(FrameError::Protocol("HEADERS on stream 0"));
                }
                let mut body = payload;
                // Padding (§6.2) — not produced by us but handled.
                if flags & 0x8 != 0 {
                    let pad = *body.first().ok_or(FrameError::Protocol("empty padded"))? as usize;
                    body = &body[1..];
                    if pad >= body.len() {
                        return Err(FrameError::Protocol("padding too long"));
                    }
                    body = &body[..body.len() - pad];
                }
                let priority = if flags & 0x20 != 0 {
                    if body.len() < 5 {
                        return Err(FrameError::Protocol("short priority section"));
                    }
                    let dep = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
                    let spec = PrioritySpec {
                        depends_on: dep & 0x7fff_ffff,
                        weight: body[4] as u16 + 1,
                        exclusive: dep & 0x8000_0000 != 0,
                    };
                    body = &body[5..];
                    Some(spec)
                } else {
                    None
                };
                FrameOf::Headers {
                    stream,
                    block: block(body),
                    end_stream: flags & 0x1 != 0,
                    end_headers: flags & 0x4 != 0,
                    priority,
                }
            }
            FrameType::Priority => {
                if len != 5 {
                    return Err(FrameError::Protocol("PRIORITY length != 5"));
                }
                let dep = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
                FrameOf::Priority {
                    stream,
                    spec: PrioritySpec {
                        depends_on: dep & 0x7fff_ffff,
                        weight: payload[4] as u16 + 1,
                        exclusive: dep & 0x8000_0000 != 0,
                    },
                }
            }
            FrameType::RstStream => {
                if len != 4 {
                    return Err(FrameError::Protocol("RST_STREAM length != 4"));
                }
                let code = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
                FrameOf::RstStream { stream, code: ErrorCode::from_code(code) }
            }
            FrameType::Settings => {
                if stream != 0 {
                    return Err(FrameError::Protocol("SETTINGS on nonzero stream"));
                }
                if !len.is_multiple_of(6) {
                    return Err(FrameError::Protocol("SETTINGS length % 6"));
                }
                let mut settings = Settings::default();
                for chunk in payload.chunks_exact(6) {
                    let id = u16::from_be_bytes([chunk[0], chunk[1]]);
                    let v = u32::from_be_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
                    match id {
                        0x1 => settings.header_table_size = Some(v),
                        0x2 => settings.enable_push = Some(v != 0),
                        0x3 => settings.max_concurrent_streams = Some(v),
                        0x4 => settings.initial_window_size = Some(v),
                        0x5 => settings.max_frame_size = Some(v),
                        0x6 => settings.max_header_list_size = Some(v),
                        _ => {} // §6.5.2: ignore unknown settings
                    }
                }
                FrameOf::Settings { ack: flags & 0x1 != 0, settings }
            }
            FrameType::PushPromise => {
                if len < 4 {
                    return Err(FrameError::Protocol("short PUSH_PROMISE"));
                }
                let promised = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]])
                    & 0x7fff_ffff;
                FrameOf::PushPromise {
                    stream,
                    promised,
                    block: block(&payload[4..]),
                    end_headers: flags & 0x4 != 0,
                }
            }
            FrameType::Ping => {
                if len != 8 {
                    return Err(FrameError::Protocol("PING length != 8"));
                }
                let mut p = [0u8; 8];
                p.copy_from_slice(payload);
                FrameOf::Ping { ack: flags & 0x1 != 0, payload: p }
            }
            FrameType::GoAway => {
                if len < 8 {
                    return Err(FrameError::Protocol("short GOAWAY"));
                }
                let last = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]])
                    & 0x7fff_ffff;
                let code = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]);
                FrameOf::GoAway { last_stream: last, code: ErrorCode::from_code(code) }
            }
            FrameType::WindowUpdate => {
                if len != 4 {
                    return Err(FrameError::Protocol("WINDOW_UPDATE length != 4"));
                }
                let inc = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]])
                    & 0x7fff_ffff;
                if inc == 0 {
                    return Err(FrameError::Protocol("zero WINDOW_UPDATE"));
                }
                FrameOf::WindowUpdate { stream, increment: inc }
            }
            FrameType::Continuation => FrameOf::Continuation {
                stream,
                block: block(payload),
                end_headers: flags & 0x4 != 0,
            },
        };
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_u24(out: &mut Vec<u8>, v: usize) {
        out.extend_from_slice(&(v as u32).to_be_bytes()[1..]);
    }

    fn round_trip(f: Frame) {
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let (g, used) = Frame::decode(&buf, DEFAULT_MAX_FRAME_SIZE).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(g, f);
    }

    #[test]
    fn data_round_trip() {
        round_trip(Frame::Data { stream: 1, len: 1000, end_stream: true });
        round_trip(Frame::Data { stream: 3, len: 0, end_stream: false });
    }

    #[test]
    fn headers_round_trip_with_priority() {
        round_trip(Frame::Headers {
            stream: 5,
            block: vec![0x82, 0x86].into(),
            end_stream: false,
            end_headers: true,
            priority: Some(PrioritySpec { depends_on: 3, weight: 256, exclusive: true }),
        });
        round_trip(Frame::Headers {
            stream: 1,
            block: Bytes::new(),
            end_stream: true,
            end_headers: false,
            priority: None,
        });
    }

    #[test]
    fn priority_round_trip() {
        round_trip(Frame::Priority {
            stream: 7,
            spec: PrioritySpec { depends_on: 0, weight: 1, exclusive: false },
        });
    }

    #[test]
    fn rst_settings_ping_goaway_window_update() {
        round_trip(Frame::RstStream { stream: 9, code: ErrorCode::Cancel });
        round_trip(Frame::Settings {
            ack: false,
            settings: Settings {
                enable_push: Some(false),
                initial_window_size: Some(1 << 20),
                max_frame_size: Some(16384),
                ..Default::default()
            },
        });
        round_trip(Frame::Settings { ack: true, settings: Settings::default() });
        round_trip(Frame::Ping { ack: false, payload: [1, 2, 3, 4, 5, 6, 7, 8] });
        round_trip(Frame::GoAway { last_stream: 13, code: ErrorCode::NoError });
        round_trip(Frame::WindowUpdate { stream: 0, increment: 0x7fff_ffff });
    }

    #[test]
    fn push_promise_round_trip() {
        round_trip(Frame::PushPromise {
            stream: 1,
            promised: 2,
            block: vec![0x82, 0x84, 0x87].into(),
            end_headers: true,
        });
    }

    #[test]
    fn continuation_round_trip() {
        round_trip(Frame::Continuation {
            stream: 1,
            block: vec![9; 100].into(),
            end_headers: true,
        });
    }

    #[test]
    fn incomplete_input() {
        let f = Frame::Data { stream: 1, len: 100, end_stream: false };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        for cut in [0, 5, 8, 50, buf.len() - 1] {
            assert_eq!(
                Frame::decode(&buf[..cut], DEFAULT_MAX_FRAME_SIZE).unwrap_err(),
                FrameError::Incomplete
            );
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let f = Frame::Data { stream: 1, len: 20_000, end_stream: false };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(Frame::decode(&buf, 16_384).unwrap_err(), FrameError::TooLarge);
        assert!(Frame::decode(&buf, 20_000).is_ok());
    }

    #[test]
    fn unknown_type_is_skippable() {
        let mut buf = Vec::new();
        put_u24(&mut buf, 3);
        buf.push(0xbe); // unknown type
        buf.push(0);
        put_u32(&mut buf, 0);
        buf.extend_from_slice(&[1, 2, 3]);
        match Frame::decode(&buf, DEFAULT_MAX_FRAME_SIZE) {
            Err(FrameError::UnknownType { skip }) => assert_eq!(skip, buf.len()),
            other => panic!("expected UnknownType, got {other:?}"),
        }
    }

    #[test]
    fn weight_bounds_encode_as_minus_one() {
        // Weight 1..=256 maps to wire 0..=255.
        let f = Frame::Priority {
            stream: 3,
            spec: PrioritySpec { depends_on: 1, weight: 220, exclusive: false },
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf[FRAME_HEADER_LEN + 4], 219);
    }

    #[test]
    fn zero_window_update_rejected() {
        let mut buf = Vec::new();
        put_u24(&mut buf, 4);
        buf.push(0x8);
        buf.push(0);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 0);
        assert!(matches!(
            Frame::decode(&buf, DEFAULT_MAX_FRAME_SIZE),
            Err(FrameError::Protocol(_))
        ));
    }

    #[test]
    fn settings_ignores_unknown_ids() {
        let mut buf = Vec::new();
        put_u24(&mut buf, 12);
        buf.push(0x4);
        buf.push(0);
        put_u32(&mut buf, 0);
        buf.extend_from_slice(&0x2u16.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&0xffu16.to_be_bytes()); // unknown id
        buf.extend_from_slice(&7u32.to_be_bytes());
        let (f, _) = Frame::decode(&buf, DEFAULT_MAX_FRAME_SIZE).unwrap();
        match f {
            Frame::Settings { ack, settings } => {
                assert!(!ack);
                assert_eq!(settings.enable_push, Some(true));
                assert_eq!(settings.max_concurrent_streams, None);
            }
            other => panic!("expected SETTINGS, got {other:?}"),
        }
    }
}
