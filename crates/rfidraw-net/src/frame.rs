//! Byte-level wire framing: newline-delimited JSON (wire v2) and the
//! length-prefixed binary encoding (wire v3), with protocol negotiation
//! by first byte.
//!
//! # Binary frame layout (wire v3)
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0xF3 0x52  (0xF3 cannot start JSON/UTF-8 text)
//! 2       1     version      0x03
//! 3       1     type tag     message discriminant (0 = JSON fallback)
//! 4       4     payload len  u32, little-endian
//! 8       len   payload      message fields, little-endian (codec is the
//!                            consumer's business; this layer is bytes only)
//! ```
//!
//! # Negotiation
//!
//! A connection's protocol is decided by the first byte the peer sends:
//! [`MAGIC`]`[0]` selects binary framing for the whole connection, anything
//! else selects newline-JSON. Replies always use the connection's
//! negotiated mode, so a v2 client and a v3 client can share one port
//! without configuration. Inside a binary connection, message types
//! without a binary payload codec ride in a frame with type tag 0 whose
//! payload is the JSON envelope line — so v3 is a superset of v2, not a
//! fork.
//!
//! # Error discipline
//!
//! JSON mode can always resynchronize at the next newline, so a malformed
//! line is per-frame recoverable. Binary mode cannot resync after a bad
//! header (the length prefix is the only thing delimiting frames), so
//! [`FrameError::BadMagic`] / [`FrameError::BadVersion`] /
//! [`FrameError::Oversized`] are terminal for the connection: the owner
//! should send one error frame and close. A buffer that ends mid-frame is
//! not an error — it is exactly the partial-frame reassembly case the
//! decoder exists for (and is counted, for telemetry).

/// Binary frame magic. The first byte is deliberately not valid ASCII or
/// UTF-8 lead text so it can never be confused with a JSON line.
pub const MAGIC: [u8; 2] = [0xF3, 0x52];

/// The binary framing version this build speaks.
pub const BINARY_VERSION: u8 = 3;

/// Binary frame header length (magic + version + tag + length prefix).
pub const HEADER_LEN: usize = 8;

/// Default cap on a declared payload length. A frame that declares more is
/// hostile or corrupt; honoring it would let one peer allocate gigabytes.
pub const DEFAULT_MAX_PAYLOAD: usize = 4 << 20;

/// Which protocol a connection speaks (decided by its first byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// No bytes seen yet.
    #[default]
    Unknown,
    /// Newline-delimited JSON (wire v2).
    Json,
    /// Length-prefixed binary (wire v3).
    Binary,
}

/// One complete inbound frame, still undecoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawFrame {
    /// A JSON line (newline stripped).
    Json(String),
    /// A binary frame: type tag + payload bytes.
    Binary(BinFrame),
}

/// A binary frame's contents (header already validated and stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinFrame {
    /// The message discriminant (0 = JSON-fallback payload).
    pub tag: u8,
    /// The little-endian payload.
    pub payload: Vec<u8>,
}

/// Unrecoverable framing failures (see the module docs for why binary
/// framing errors are terminal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes of a binary frame were not [`MAGIC`].
    BadMagic {
        /// The bytes received instead.
        got: [u8; 2],
    },
    /// The version byte was not [`BINARY_VERSION`].
    BadVersion {
        /// The version the peer sent.
        got: u8,
    },
    /// The declared payload length exceeds the configured cap.
    Oversized {
        /// The declared length.
        declared: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// A JSON line exceeded the configured cap without a newline (same
    /// resource-exhaustion refusal, text flavor).
    LineTooLong {
        /// The cap it exceeded.
        max: usize,
    },
    /// A JSON line was not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {:#04x} {:#04x} (expected {:#04x} {:#04x})",
                    got[0], got[1], MAGIC[0], MAGIC[1])
            }
            FrameError::BadVersion { got } => {
                write!(f, "unsupported binary framing version {got} (this build speaks {BINARY_VERSION})")
            }
            FrameError::Oversized { declared, max } => {
                write!(f, "declared payload of {declared} bytes exceeds the {max}-byte frame cap")
            }
            FrameError::LineTooLong { max } => {
                write!(f, "JSON line exceeds the {max}-byte frame cap without a newline")
            }
            FrameError::NotUtf8 => write!(f, "JSON frame is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one binary frame (header + payload).
pub fn encode_binary_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(BINARY_VERSION);
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// An incremental frame reassembler: feed it bytes as they arrive, pop
/// complete frames out. One per connection.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically so a pinned
    /// slow reader cannot grow the buffer without bound).
    head: usize,
    mode: WireMode,
    max_payload: usize,
    partial_resumes: u64,
    poisoned: bool,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_PAYLOAD)
    }
}

impl FrameDecoder {
    /// A decoder with the given payload/line cap.
    pub fn new(max_payload: usize) -> Self {
        Self {
            buf: Vec::new(),
            head: 0,
            mode: WireMode::Unknown,
            max_payload,
            partial_resumes: 0,
            poisoned: false,
        }
    }

    /// A decoder pinned to a known mode (clients know what they speak; the
    /// server-side decoder infers from the first byte instead).
    pub fn with_mode(mode: WireMode, max_payload: usize) -> Self {
        let mut d = Self::new(max_payload);
        d.mode = mode;
        d
    }

    /// The negotiated protocol (`Unknown` until the first byte arrives).
    pub fn mode(&self) -> WireMode {
        self.mode
    }

    /// How many reads arrived while a frame was still incomplete — the
    /// partial-frame reassembly count surfaced in telemetry.
    pub fn partial_resumes(&self) -> u64 {
        self.partial_resumes
    }

    /// Whether bytes of an incomplete frame are pending (an EOF now is a
    /// mid-frame disconnect).
    pub fn has_partial(&self) -> bool {
        self.head < self.buf.len()
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if self.has_partial() {
            self.partial_resumes += 1;
        }
        if self.head > 0 && self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
        if self.mode == WireMode::Unknown {
            let first = if self.buf.is_empty() { bytes[0] } else { self.buf[0] };
            self.mode = if first == MAGIC[0] { WireMode::Binary } else { WireMode::Json };
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed. After an `Err` the decoder is poisoned (binary framing
    /// cannot resynchronize) and keeps returning the same refusal.
    pub fn next(&mut self) -> Result<Option<RawFrame>, FrameError> {
        if self.poisoned {
            return Err(FrameError::BadMagic { got: [0, 0] });
        }
        let frame = match self.mode {
            WireMode::Unknown => Ok(None),
            WireMode::Json => self.next_json(),
            WireMode::Binary => self.next_binary(),
        };
        if frame.is_err() {
            self.poisoned = true;
        }
        if self.head > 0 && self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
        frame
    }

    fn next_json(&mut self) -> Result<Option<RawFrame>, FrameError> {
        loop {
            let pending = &self.buf[self.head..];
            match pending.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let line_bytes = &pending[..nl];
                    let line = std::str::from_utf8(line_bytes)
                        .map_err(|_| FrameError::NotUtf8)?
                        .trim_end_matches('\r')
                        .to_string();
                    self.head += nl + 1;
                    // Blank keep-alive lines are not frames. Skip them in a
                    // loop, not by recursion: one read can carry tens of
                    // thousands.
                    if !line.trim().is_empty() {
                        return Ok(Some(RawFrame::Json(line)));
                    }
                }
                None if pending.len() > self.max_payload => {
                    return Err(FrameError::LineTooLong { max: self.max_payload });
                }
                None => return Ok(None),
            }
        }
    }

    fn next_binary(&mut self) -> Result<Option<RawFrame>, FrameError> {
        let pending = &self.buf[self.head..];
        if pending.len() < HEADER_LEN {
            // Even a truncated header can prove itself hostile early.
            if !pending.is_empty() && pending[0] != MAGIC[0] {
                return Err(FrameError::BadMagic { got: [pending[0], 0] });
            }
            if pending.len() >= 2 && pending[1] != MAGIC[1] {
                return Err(FrameError::BadMagic { got: [pending[0], pending[1]] });
            }
            if pending.len() >= 3 && pending[2] != BINARY_VERSION {
                return Err(FrameError::BadVersion { got: pending[2] });
            }
            return Ok(None);
        }
        if pending[..2] != MAGIC {
            return Err(FrameError::BadMagic { got: [pending[0], pending[1]] });
        }
        if pending[2] != BINARY_VERSION {
            return Err(FrameError::BadVersion { got: pending[2] });
        }
        let tag = pending[3];
        let len = u32::from_le_bytes(pending[4..8].try_into().expect("4 bytes")) as usize;
        if len > self.max_payload {
            return Err(FrameError::Oversized { declared: len, max: self.max_payload });
        }
        if pending.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = pending[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.head += HEADER_LEN + len;
        Ok(Some(RawFrame::Binary(BinFrame { tag, payload })))
    }
}

// ---------------------------------------------------------------------------
// Little-endian payload cursors for the consumers' codecs.
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over a binary payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data` from the start.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameTruncated> {
        if self.remaining() < n {
            return Err(FrameTruncated { needed: n, had: self.remaining() });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameTruncated> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameTruncated> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameTruncated> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian IEEE-754 `f64` (bit-exact by construction).
    pub fn f64(&mut self) -> Result<f64, FrameTruncated> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads exactly `N` raw bytes.
    pub fn bytes<const N: usize>(&mut self) -> Result<[u8; N], FrameTruncated> {
        Ok(self.take(N)?.try_into().expect("sized take"))
    }
}

/// A payload ended before the field it promised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTruncated {
    /// Bytes the next field needed.
    pub needed: usize,
    /// Bytes that were left.
    pub had: usize,
}

impl std::fmt::Display for FrameTruncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload truncated: field needs {} bytes, {} left", self.needed, self.had)
    }
}

impl std::error::Error for FrameTruncated {}

/// A little-endian writer building a binary payload.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer with a capacity hint.
    pub fn with_capacity(n: usize) -> Self {
        Self { buf: Vec::with_capacity(n) }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64` (bit-exact by construction).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The finished payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// FNV-1a over `key`, reduced to a shard index. This is the registry's
/// session-placement function: a tag's EPC always lands on the same shard,
/// so sessions never migrate and shard workers need no global lock.
pub fn shard_index(key: &[u8], shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_split_and_strip() {
        let mut d = FrameDecoder::default();
        d.feed(b"{\"a\":1}\n\n{\"b\":2}\r\n");
        assert_eq!(d.mode(), WireMode::Json);
        assert_eq!(d.next().unwrap(), Some(RawFrame::Json("{\"a\":1}".to_string())));
        assert_eq!(d.next().unwrap(), Some(RawFrame::Json("{\"b\":2}".to_string())));
        assert_eq!(d.next().unwrap(), None);
        assert!(!d.has_partial());
    }

    #[test]
    fn binary_frames_roundtrip_byte_by_byte() {
        let frame = encode_binary_frame(7, &[1, 2, 3, 4, 5]);
        let mut d = FrameDecoder::default();
        // Worst-case fragmentation: one byte per read.
        for b in &frame {
            d.feed(std::slice::from_ref(b));
        }
        assert_eq!(d.mode(), WireMode::Binary);
        assert_eq!(
            d.next().unwrap(),
            Some(RawFrame::Binary(BinFrame { tag: 7, payload: vec![1, 2, 3, 4, 5] }))
        );
        assert_eq!(d.next().unwrap(), None);
        // Every feed after the first resumed a partial frame.
        assert_eq!(d.partial_resumes(), frame.len() as u64 - 1);
    }

    #[test]
    fn interleaved_frames_in_one_read() {
        let mut bytes = encode_binary_frame(1, b"x");
        bytes.extend_from_slice(&encode_binary_frame(2, b""));
        bytes.extend_from_slice(&encode_binary_frame(3, &vec![9; 300]));
        let mut d = FrameDecoder::default();
        d.feed(&bytes);
        let tags: Vec<u8> = std::iter::from_fn(|| d.next().unwrap())
            .map(|f| match f {
                RawFrame::Binary(b) => b.tag,
                RawFrame::Json(_) => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(d.partial_resumes(), 0, "single read, nothing to resume");
    }

    #[test]
    fn bad_magic_is_terminal() {
        let mut d = FrameDecoder::with_mode(WireMode::Binary, DEFAULT_MAX_PAYLOAD);
        d.feed(&[0xF3, 0x99]);
        assert_eq!(d.next(), Err(FrameError::BadMagic { got: [0xF3, 0x99] }));
        // Poisoned: stays refused even if valid bytes follow.
        d.feed(&encode_binary_frame(1, b"ok"));
        assert!(d.next().is_err());
    }

    #[test]
    fn bad_version_detected_before_full_header() {
        let mut d = FrameDecoder::default();
        d.feed(&[MAGIC[0], MAGIC[1], 9]);
        assert_eq!(d.next(), Err(FrameError::BadVersion { got: 9 }));
    }

    #[test]
    fn oversized_declared_length_is_refused_without_allocating() {
        let mut d = FrameDecoder::new(1024);
        let mut h = Vec::new();
        h.extend_from_slice(&MAGIC);
        h.push(BINARY_VERSION);
        h.push(1);
        h.extend_from_slice(&u32::MAX.to_le_bytes());
        d.feed(&h);
        assert_eq!(
            d.next(),
            Err(FrameError::Oversized { declared: u32::MAX as usize, max: 1024 })
        );
    }

    #[test]
    fn truncated_length_prefix_waits_then_eof_is_detectable() {
        let mut d = FrameDecoder::default();
        d.feed(&[MAGIC[0], MAGIC[1], BINARY_VERSION, 1, 0x04, 0x00]);
        assert_eq!(d.next().unwrap(), None, "incomplete header just waits");
        assert!(d.has_partial(), "an EOF here is a mid-frame disconnect");
    }

    #[test]
    fn a_read_of_blank_lines_does_not_overflow_the_stack() {
        // Twice the reactor's default 64 KiB read, on a stack far smaller
        // than a thread's default 2 MiB.
        let next = std::thread::Builder::new()
            .stack_size(64 << 10)
            .spawn(|| {
                let mut d = FrameDecoder::default();
                d.feed(&[b'\n'; 128 << 10]);
                d.feed(b"{}\n");
                d.next()
            })
            .expect("spawn decoder thread")
            .join()
            .expect("decoder thread");
        assert_eq!(next, Ok(Some(RawFrame::Json("{}".to_string()))));
    }

    #[test]
    fn long_json_line_without_newline_is_refused() {
        let mut d = FrameDecoder::new(64);
        d.feed(&[b'{'; 100]);
        assert_eq!(d.next(), Err(FrameError::LineTooLong { max: 64 }));
    }

    #[test]
    fn byte_cursors_roundtrip_and_bound_check() {
        let mut w = ByteWriter::with_capacity(32);
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.1 + 0.2);
        w.bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64 + 0.2).to_bits());
        assert_eq!(r.bytes::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err(), "reads past the end are refused, not UB");
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let key = [0x30, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7];
        for shards in [1usize, 2, 7, 8, 64] {
            let i = shard_index(&key, shards);
            assert!(i < shards);
            assert_eq!(i, shard_index(&key, shards), "placement must be deterministic");
        }
        // Distinct keys spread (sanity, not uniformity proof).
        let hits: std::collections::BTreeSet<usize> =
            (0..64u32).map(|i| shard_index(&i.to_be_bytes(), 8)).collect();
        assert!(hits.len() >= 4, "64 keys over 8 shards should hit several shards");
    }
}
