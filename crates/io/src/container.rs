//! The chunked container format.
//!
//! Layout:
//! ```text
//! magic   8 bytes  "LQIO\x01\0\0\n"
//! u32 LE  header JSON length
//! bytes   header JSON (name, dtype, shape, chunk_bytes, metadata)
//! repeat per chunk:
//!   u64 LE  payload length
//!   bytes   payload
//!   u32 LE  CRC-32C(payload)
//! ```

use crate::crc32c::crc32c;
use crate::IoError;
use obs::{Json, Registry};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;

/// File magic.
pub const MAGIC: [u8; 8] = *b"LQIO\x01\0\0\n";

/// Copy the first `N` bytes of a slice into an array. Callers guarantee
/// `b.len() >= N` by an explicit bounds check, which keeps the header and
/// framing decode free of `unwrap`/`expect` panic sites.
fn le_array<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&b[..N]);
    a
}

/// Pool chunk length for a parallel loop over `len` items: 64 pool tasks
/// at any length, derived from `len` only.
fn fixed_grain(len: usize) -> usize {
    len.div_ceil(64).max(1)
}

/// CRC-32C of every chunk's bytes (`bytes` picks them out of an item), on
/// the pool, in chunk order.
fn chunk_crcs<C: Sync>(chunks: &[C], bytes: impl Fn(&C) -> &[u8] + Sync + Send) -> Vec<u32> {
    let mut crcs = vec![0u32; chunks.len()];
    rayon::for_each_chunk_mut(&mut crcs, fixed_grain(chunks.len()), |base, out| {
        for (crc, c) in out.iter_mut().zip(&chunks[base..]) {
            *crc = crc32c(bytes(c));
        }
    });
    crcs
}

/// Default chunk payload size.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// Container header, stored as JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    /// Dataset name (e.g. `"gauge"`, `"propagator_column"`).
    pub name: String,
    /// Element type: `"f64"` or `"f32"`.
    pub dtype: String,
    /// Logical shape (e.g. `[x, y, z, t, 4, 18]` for a gauge field).
    pub shape: Vec<usize>,
    /// Number of payload chunks that follow.
    pub n_chunks: usize,
    /// Free-form metadata.
    pub metadata: BTreeMap<String, String>,
}

impl Header {
    /// A header for a payload still to be framed (`n_chunks` is fixed when
    /// it is written).
    pub(crate) fn new(
        name: &str,
        dtype: &str,
        shape: Vec<usize>,
        metadata: BTreeMap<String, String>,
    ) -> Self {
        Header {
            name: name.into(),
            dtype: dtype.into(),
            shape,
            n_chunks: 0,
            metadata,
        }
    }

    /// `Ok` if the payload is `payload_len` bytes of `dtype` elements, as
    /// many as the shape holds.
    pub(crate) fn check_payload(&self, dtype: &str, payload_len: usize) -> Result<(), IoError> {
        if self.dtype != dtype {
            return Err(IoError::ShapeMismatch(format!(
                "expected dtype {dtype}, file has {}",
                self.dtype
            )));
        }
        if self.expected_payload_bytes() != Some(payload_len) {
            return Err(IoError::Format("payload length != shape".into()));
        }
        Ok(())
    }

    /// Bytes per element for the known dtypes.
    pub fn element_size(&self) -> Option<usize> {
        match self.dtype.as_str() {
            "f64" => Some(8),
            "f32" => Some(4),
            _ => None,
        }
    }

    /// Payload size in bytes implied by shape × dtype (`None` for unknown
    /// dtypes).
    pub fn expected_payload_bytes(&self) -> Option<usize> {
        self.element_size()
            .map(|e| e * self.shape.iter().product::<usize>())
    }

    /// Encode as the on-disk header JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("dtype", Json::from(self.dtype.as_str())),
            (
                "shape",
                Json::Arr(self.shape.iter().map(|&d| Json::from(d)).collect()),
            ),
            ("n_chunks", Json::from(self.n_chunks)),
            ("metadata", Json::from(&self.metadata)),
        ])
    }

    /// Decode from header JSON, validating every field's type.
    pub fn from_json(j: &Json) -> Result<Header, IoError> {
        let bad = |what: &str| IoError::Format(format!("header: {what}"));
        let usize_field =
            |v: &Json, what: &str| v.as_u64().map(|n| n as usize).ok_or_else(|| bad(what));
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing name"))?;
        let dtype = j
            .get("dtype")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing dtype"))?;
        let shape = j
            .get("shape")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing shape"))?
            .iter()
            .map(|v| usize_field(v, "bad shape entry"))
            .collect::<Result<Vec<usize>, IoError>>()?;
        // Eight bytes is the widest dtype: every byte count the shape
        // implies fits in `usize`, so no later product can overflow.
        if shape
            .iter()
            .try_fold(8usize, |n, &d| n.checked_mul(d))
            .is_none()
        {
            return Err(bad("shape overflows"));
        }
        let n_chunks = usize_field(
            j.get("n_chunks").ok_or_else(|| bad("missing n_chunks"))?,
            "bad n_chunks",
        )?;
        let mut metadata = BTreeMap::new();
        for (k, v) in j
            .get("metadata")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("missing metadata"))?
        {
            metadata.insert(
                k.clone(),
                v.as_str()
                    .ok_or_else(|| bad("non-string metadata value"))?
                    .to_string(),
            );
        }
        Ok(Header {
            name: name.to_string(),
            dtype: dtype.to_string(),
            shape,
            n_chunks,
            metadata,
        })
    }
}

/// A parsed container: header plus the raw little-endian payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Container {
    /// Header.
    pub header: Header,
    /// Concatenated payload bytes.
    pub payload: Vec<u8>,
}

impl Container {
    /// Decode the payload as little-endian `f64`s.
    pub fn to_f64(&self) -> Result<Vec<f64>, IoError> {
        self.header.check_payload("f64", self.payload.len())?;
        Ok(Payload::whole(&self.payload).decode_vec(|b| f64::from_le_bytes(*b)))
    }

    /// Decode the payload as little-endian `f32`s.
    pub fn to_f32(&self) -> Result<Vec<f32>, IoError> {
        self.header.check_payload("f32", self.payload.len())?;
        Ok(Payload::whole(&self.payload).decode_vec(|b| f32::from_le_bytes(*b)))
    }

    /// Build a container from `f64` values.
    pub fn from_f64(
        name: &str,
        shape: Vec<usize>,
        values: &[f64],
        metadata: BTreeMap<String, String>,
    ) -> Self {
        assert_eq!(values.len(), shape.iter().product::<usize>());
        let mut payload = vec![0u8; values.len() * 8];
        fill_records(0, &mut payload, |i, b| *b = values[i].to_le_bytes());
        Self {
            header: Header::new(name, "f64", shape, metadata),
            payload,
        }
    }

    /// Build a container from `f32` values.
    pub fn from_f32(
        name: &str,
        shape: Vec<usize>,
        values: &[f32],
        metadata: BTreeMap<String, String>,
    ) -> Self {
        assert_eq!(values.len(), shape.iter().product::<usize>());
        let mut payload = vec![0u8; values.len() * 4];
        fill_records(0, &mut payload, |i, b| *b = values[i].to_le_bytes());
        Self {
            header: Header::new(name, "f32", shape, metadata),
            payload,
        }
    }
}

/// Fill `out` with the payload bytes from offset `at` on, for a payload of
/// `N`-byte records with record `i` encoded by `encode(i, record)`. A record
/// cut by either end of `out` (a chunk boundary) is encoded whole into a
/// stack buffer and its share copied over.
pub(crate) fn fill_records<const N: usize>(
    at: usize,
    mut out: &mut [u8],
    encode: impl Fn(usize, &mut [u8; N]),
) {
    let mut rec = at / N;
    let skip = at % N;
    if skip != 0 {
        let mut buf = [0u8; N];
        encode(rec, &mut buf);
        let take = (N - skip).min(out.len());
        let (head, rest) = out.split_at_mut(take);
        head.copy_from_slice(&buf[skip..skip + take]);
        out = rest;
        rec += 1;
    }
    let (whole, tail) = out.as_chunks_mut::<N>();
    for b in whole {
        encode(rec, b);
        rec += 1;
    }
    if !tail.is_empty() {
        let mut buf = [0u8; N];
        encode(rec, &mut buf);
        let n = tail.len();
        tail.copy_from_slice(&buf[..n]);
    }
}

/// Write the container image of a `payload_len`-byte payload to `path` in
/// one write. The image is framed in place: each chunk record's length, its
/// payload, put there by `fill(payload offset, bytes)`, and its CRC-32C are
/// written by one pool task, so no payload is staged anywhere else.
pub(crate) fn write_framed(
    path: &Path,
    mut header: Header,
    payload_len: usize,
    fill: impl Fn(usize, &mut [u8]) + Sync + Send,
) -> Result<(), IoError> {
    header.n_chunks = payload_len.div_ceil(DEFAULT_CHUNK_BYTES);
    let json = header.to_json().to_string().into_bytes();
    let body = 12 + json.len();
    let mut image = vec![0u8; body + payload_len + 12 * header.n_chunks];
    image[..8].copy_from_slice(&MAGIC);
    image[8..12].copy_from_slice(&(json.len() as u32).to_le_bytes());
    image[12..body].copy_from_slice(&json);
    let record = 8 + DEFAULT_CHUNK_BYTES + 4;
    rayon::for_each_chunk_mut(&mut image[body..], record, |at, rec| {
        let (len, rest) = rec.split_at_mut(8);
        let (payload, crc) = rest.split_at_mut(rest.len() - 4);
        len.copy_from_slice(&(payload.len() as u64).to_le_bytes());
        fill(at / record * DEFAULT_CHUNK_BYTES, payload);
        crc.copy_from_slice(&crc32c(payload).to_le_bytes());
    });
    std::fs::write(path, &image)?;
    let reg = Registry::current();
    reg.counter("io.containers_written").inc();
    reg.counter("io.bytes_written").add(image.len() as u64);
    Ok(())
}

/// Write a container to `path`: its payload framed into checksummed chunks.
pub fn write_container(path: &Path, container: &Container) -> Result<(), IoError> {
    let payload = &container.payload;
    write_framed(path, container.header.clone(), payload.len(), |at, out| {
        out.copy_from_slice(&payload[at..at + out.len()])
    })
}

/// The payload of a verified container, as its chunks' payloads in file
/// order, borrowed from the image: readers decode from here straight into
/// their destination, with no concatenated copy.
pub(crate) struct Payload<'a> {
    /// `(payload offset, bytes)` per chunk.
    chunks: Vec<(usize, &'a [u8])>,
    len: usize,
}

impl<'a> Payload<'a> {
    fn new(parts: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut len = 0;
        let chunks = parts
            .into_iter()
            .map(|c| {
                len += c.len();
                (len - c.len(), c)
            })
            .collect();
        Self { chunks, len }
    }

    /// A payload held in one piece.
    pub(crate) fn whole(bytes: &'a [u8]) -> Self {
        Self::new([bytes])
    }

    /// Total payload bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The payload concatenated into one owned vector.
    fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for (_, c) in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// Call `f` on each of the `count` `N`-byte records from payload offset
    /// `at` on, in order. A record split across chunks is joined in a stack
    /// buffer; every other record is borrowed in place.
    pub(crate) fn for_each_record<const N: usize>(
        &self,
        mut at: usize,
        count: usize,
        mut f: impl FnMut(&[u8; N]),
    ) {
        assert!(
            at <= self.len && count <= (self.len - at) / N,
            "records past the payload"
        );
        let end = at + count * N;
        let (mut buf, mut filled) = ([0u8; N], 0);
        let first = self.chunks.partition_point(|&(start, _)| start <= at);
        for &(start, bytes) in &self.chunks[first.saturating_sub(1)..] {
            if at == end {
                break;
            }
            let mut src = &bytes[at - start..bytes.len().min(end - start)];
            at += src.len();
            if filled > 0 {
                let n = src.len().min(N - filled);
                buf[filled..filled + n].copy_from_slice(&src[..n]);
                (filled, src) = (filled + n, &src[n..]);
                if filled < N {
                    continue;
                }
                f(&buf);
            }
            let (whole, tail) = src.as_chunks::<N>();
            whole.iter().for_each(&mut f);
            buf[..tail.len()].copy_from_slice(tail);
            filled = tail.len();
        }
    }

    /// `out[i] = decode(record i)` for the payload's leading `out.len()`
    /// `N`-byte records, on the pool.
    pub(crate) fn decode_into<T: Send, const N: usize>(
        &self,
        out: &mut [T],
        decode: impl Fn(&[u8; N]) -> T + Sync + Send,
    ) {
        rayon::for_each_chunk_mut(out, fixed_grain(out.len()), |base, chunk| {
            let n = chunk.len();
            let mut slots = chunk.iter_mut();
            self.for_each_record(base * N, n, |r| {
                if let Some(slot) = slots.next() {
                    *slot = decode(r);
                }
            });
        });
    }

    /// Every `N`-byte record of the payload decoded, on the pool.
    pub(crate) fn decode_vec<T: Copy + Default + Send, const N: usize>(
        &self,
        decode: impl Fn(&[u8; N]) -> T + Sync + Send,
    ) -> Vec<T> {
        let mut out = vec![T::default(); self.len / N];
        self.decode_into(&mut out, decode);
        out
    }
}

/// Read only the header of a container (no payload, no checksum work) —
/// what a workflow manager uses to inventory files cheaply.
pub fn read_header(path: &Path) -> Result<Header, IoError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(IoError::Format("bad magic".into()));
    }
    let mut len4 = [0u8; 4];
    file.read_exact(&mut len4)?;
    // Grown as bytes arrive, not sized from the length field, so a corrupt
    // length costs no more memory than the file holds.
    let hlen = u32::from_le_bytes(len4) as usize;
    let mut hbytes = Vec::new();
    file.take(hlen as u64).read_to_end(&mut hbytes)?;
    if hbytes.len() != hlen {
        return Err(IoError::Format("truncated header".into()));
    }
    let text =
        std::str::from_utf8(&hbytes).map_err(|_| IoError::Format("header: not utf-8".into()))?;
    let json = Json::parse(text).map_err(|e| IoError::Format(format!("header: {e}")))?;
    Header::from_json(&json)
}

/// Parse the header from the front of `bytes`; returns the header and the
/// offset where the first chunk record begins.
fn parse_header_bytes(bytes: &[u8]) -> Result<(Header, usize), IoError> {
    if bytes.len() < 12 {
        return Err(IoError::Format("truncated before header".into()));
    }
    if bytes[..8] != MAGIC {
        return Err(IoError::Format("bad magic".into()));
    }
    let hlen = u32::from_le_bytes(le_array(&bytes[8..12])) as usize;
    let hend = 12usize
        .checked_add(hlen)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| IoError::Format("truncated header".into()))?;
    let text = std::str::from_utf8(&bytes[12..hend])
        .map_err(|_| IoError::Format("header: not utf-8".into()))?;
    let json = Json::parse(text).map_err(|e| IoError::Format(format!("header: {e}")))?;
    Ok((Header::from_json(&json)?, hend))
}

/// Per-chunk record slices carved out of a raw container image, and the
/// offset where the last one ends. For a chunk whose length field runs past
/// the end of the buffer (truncation, or a corrupted length), carving stops
/// and the remaining chunks are absent.
fn carve_chunks<'a>(
    bytes: &'a [u8],
    header: &Header,
    start: usize,
) -> (Vec<(&'a [u8], u32)>, usize) {
    // A record is at least 12 bytes, which bounds the count the header may
    // claim by what the buffer can hold.
    let mut out = Vec::with_capacity(header.n_chunks.min((bytes.len() - start) / 12));
    let mut off = start;
    for _ in 0..header.n_chunks {
        let Some(len_end) = off.checked_add(8).filter(|&e| e <= bytes.len()) else {
            break;
        };
        let clen = u64::from_le_bytes(le_array(&bytes[off..len_end])) as usize;
        let Some(crc_end) = len_end
            .checked_add(clen)
            .and_then(|p| p.checked_add(4))
            .filter(|&e| e <= bytes.len())
        else {
            break;
        };
        let payload = &bytes[len_end..len_end + clen];
        let crc = u32::from_le_bytes(le_array(&bytes[len_end + clen..crc_end]));
        out.push((payload, crc));
        off = crc_end;
    }
    (out, off)
}

/// Verify a container image: its header, its framing, and every chunk's
/// CRC-32C, each chunk checked in place on the pool (the strict path: any
/// missing or corrupt chunk is an error). Returns the header and the chunk
/// payloads, still in the image.
pub(crate) fn verify(bytes: &[u8]) -> Result<(Header, Payload<'_>), IoError> {
    let (header, start) = parse_header_bytes(bytes)?;
    let (chunks, end) = carve_chunks(bytes, &header, start);
    if chunks.len() != header.n_chunks {
        return Err(IoError::Format(format!(
            "truncated: {} of {} chunks present",
            chunks.len(),
            header.n_chunks
        )));
    }
    if end != bytes.len() {
        return Err(IoError::Format(format!(
            "{} bytes after the last chunk",
            bytes.len() - end
        )));
    }

    // The lowest corrupt chunk is reported.
    let crcs = chunk_crcs(&chunks, |(c, _)| c);
    let bad = chunks
        .iter()
        .zip(&crcs)
        .position(|((_, want), got)| want != got);
    if let Some(chunk) = bad {
        Registry::current().counter("io.checksum_failures").inc();
        return Err(IoError::ChecksumMismatch { chunk });
    }

    let reg = Registry::current();
    reg.counter("io.containers_read").inc();
    reg.counter("io.bytes_read").add(bytes.len() as u64);
    Ok((header, Payload::new(chunks.into_iter().map(|(c, _)| c))))
}

/// Read the container at `path`, verify it, and hand its header and chunk
/// payloads to `decode`.
pub(crate) fn read_verified<T>(
    path: &Path,
    decode: impl FnOnce(Header, &Payload) -> Result<T, IoError>,
) -> Result<T, IoError> {
    let bytes = std::fs::read(path)?;
    let (header, payload) = verify(&bytes)?;
    decode(header, &payload)
}

/// Parse and verify a container from an in-memory image (the strict path:
/// any missing or corrupt chunk is an error).
pub fn parse_container(bytes: &[u8]) -> Result<Container, IoError> {
    let (header, payload) = verify(bytes)?;
    Ok(Container {
        header,
        payload: payload.to_vec(),
    })
}

/// Read and verify a container from `path`.
pub fn read_container(path: &Path) -> Result<Container, IoError> {
    parse_container(&std::fs::read(path)?)
}

/// Is this error worth re-reading the file for? Checksum mismatches and I/O
/// errors can be transient (a flaky read path, a file still landing from a
/// burst buffer); structural format errors are deterministic.
fn is_retryable(err: &IoError) -> bool {
    matches!(err, IoError::ChecksumMismatch { .. } | IoError::Io(_))
}

/// Read a container with up to `max_retries` additional attempts when the
/// read fails with a retryable error (checksum mismatch or I/O error).
///
/// Returns the container and the number of attempts consumed (1 = clean
/// first read). Persistent corruption still surfaces as `Err` after the
/// retry budget — callers can then fall back to [`salvage_container`].
pub fn read_container_with_retry(
    path: &Path,
    max_retries: usize,
) -> Result<(Container, usize), IoError> {
    read_container_retrying(max_retries, || std::fs::read(path).map_err(IoError::from))
}

/// Retry core of [`read_container_with_retry`], generic over the byte
/// source so tests (and remote transports) can inject transient faults.
pub fn read_container_retrying(
    max_retries: usize,
    mut fetch: impl FnMut() -> Result<Vec<u8>, IoError>,
) -> Result<(Container, usize), IoError> {
    let mut attempt = 0;
    loop {
        attempt += 1;
        let result = fetch().and_then(|bytes| parse_container(&bytes));
        match result {
            Ok(c) => return Ok((c, attempt)),
            Err(e) if is_retryable(&e) && attempt <= max_retries => {
                Registry::current().counter("io.crc_retries").inc();
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A partially recovered container: corrupt or missing chunks are zero-filled
/// in `payload` and recorded as lost byte ranges.
#[derive(Clone, Debug)]
pub struct SalvagedContainer {
    /// Header (must parse intact for salvage to be possible at all).
    pub header: Header,
    /// Payload with lost regions zero-filled.
    pub payload: Vec<u8>,
    /// Half-open byte ranges `[start, end)` of `payload` that did not
    /// survive (checksum mismatch or truncation). Empty means the file was
    /// fully intact.
    pub lost_ranges: Vec<(usize, usize)>,
    /// Chunks whose checksum failed (truncated chunks are not listed here —
    /// they show up only in `lost_ranges`).
    pub corrupt_chunks: Vec<usize>,
}

impl SalvagedContainer {
    /// Whether every chunk survived.
    pub fn is_complete(&self) -> bool {
        self.lost_ranges.is_empty()
    }

    /// Total bytes lost.
    pub fn lost_bytes(&self) -> usize {
        self.lost_ranges.iter().map(|(a, b)| b - a).sum()
    }

    /// Convert to a [`Container`] — `Ok` only if nothing was lost.
    pub fn into_container(self) -> Result<Container, IoError> {
        if !self.lost_ranges.is_empty() {
            return Err(IoError::ChecksumMismatch {
                chunk: self.corrupt_chunks.first().copied().unwrap_or(0),
            });
        }
        Ok(Container {
            header: self.header,
            payload: self.payload,
        })
    }
}

/// Salvage as much of a container as possible from an in-memory image.
///
/// The header must be intact (otherwise nothing is interpretable and this
/// returns `Err`). Each chunk is then verified independently: chunks with a
/// bad CRC are zero-filled, and a truncated tail (or a corrupted chunk
/// length that runs past the end of the file) loses everything from that
/// point on. The payload is padded with zeros to the size implied by the
/// header's shape and dtype so downstream decoding still works; a shape
/// promising more bytes than the header's `n_chunks` can carry at
/// [`DEFAULT_CHUNK_BYTES`] (all [`write_container`] writes) is
/// [`IoError::Format`], so a hostile shape cannot size the padding.
pub fn salvage_container_bytes(bytes: &[u8]) -> Result<SalvagedContainer, IoError> {
    let (header, start) = parse_header_bytes(bytes)?;
    let carried = header.n_chunks.saturating_mul(DEFAULT_CHUNK_BYTES);
    if let Some(expected) = header.expected_payload_bytes().filter(|&e| e > carried) {
        return Err(IoError::Format(format!(
            "header: shape promises {expected} B, more than its {} chunks carry",
            header.n_chunks
        )));
    }
    let (chunks, _) = carve_chunks(bytes, &header, start);

    let crcs = chunk_crcs(&chunks, |(c, _)| c);

    let mut payload = Vec::new();
    let mut lost_ranges: Vec<(usize, usize)> = Vec::new();
    let mut corrupt_chunks = Vec::new();
    for (i, ((chunk, want), got)) in chunks.iter().zip(&crcs).enumerate() {
        let at = payload.len();
        if want == got {
            payload.extend_from_slice(chunk);
        } else {
            corrupt_chunks.push(i);
            lost_ranges.push((at, at + chunk.len()));
            payload.resize(at + chunk.len(), 0);
        }
    }

    // Truncated tail: pad out to the size the header promises.
    if let Some(expected) = header.expected_payload_bytes() {
        if payload.len() < expected {
            lost_ranges.push((payload.len(), expected));
            payload.resize(expected, 0);
        }
    }

    // Merge adjacent lost ranges so callers see contiguous holes.
    lost_ranges.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(lost_ranges.len());
    for (a, b) in lost_ranges {
        match merged.last_mut() {
            Some((_, e)) if *e >= a => *e = (*e).max(b),
            _ => merged.push((a, b)),
        }
    }

    let reg = Registry::current();
    reg.counter("io.salvage.calls").inc();
    reg.counter("io.salvage.corrupt_chunks")
        .add(corrupt_chunks.len() as u64);
    reg.counter("io.salvage.lost_bytes")
        .add(merged.iter().map(|(a, b)| (b - a) as u64).sum());
    Ok(SalvagedContainer {
        header,
        payload,
        lost_ranges: merged,
        corrupt_chunks,
    })
}

/// Salvage as much of the container at `path` as possible — see
/// [`salvage_container_bytes`].
pub fn salvage_container(path: &Path) -> Result<SalvagedContainer, IoError> {
    salvage_container_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lattice_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn f64_round_trip() {
        let vals: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let c = Container::from_f64("test", vec![100, 100], &vals, BTreeMap::new());
        let path = tmp("roundtrip_f64.lqio");
        write_container(&path, &c).unwrap();
        let back = read_container(&path).unwrap();
        assert_eq!(back.to_f64().unwrap(), vals);
        assert_eq!(back.header.shape, vec![100, 100]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_round_trip_with_metadata() {
        let vals: Vec<f32> = (0..513).map(|i| i as f32 * 0.5).collect();
        let mut md = BTreeMap::new();
        md.insert("beta".into(), "5.7".into());
        md.insert("config".into(), "42".into());
        let c = Container::from_f32("cfg", vec![513], &vals, md.clone());
        let path = tmp("roundtrip_f32.lqio");
        write_container(&path, &c).unwrap();
        let back = read_container(&path).unwrap();
        assert_eq!(back.to_f32().unwrap(), vals);
        assert_eq!(back.header.metadata, md);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let vals: Vec<f64> = (0..300_000).map(|i| i as f64).collect();
        let c = Container::from_f64("big", vec![300_000], &vals, BTreeMap::new());
        let path = tmp("corrupt.lqio");
        write_container(&path, &c).unwrap();
        // Flip one byte in the middle of the payload region.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match read_container(&path) {
            Err(IoError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum failure, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_only_read_skips_payload() {
        let vals: Vec<f64> = (0..50_000).map(|i| i as f64).collect();
        let mut md = BTreeMap::new();
        md.insert("config".into(), "7".into());
        let c = Container::from_f64("inventory", vec![50_000], &vals, md);
        let path = tmp("header_only.lqio");
        write_container(&path, &c).unwrap();
        let h = read_header(&path).unwrap();
        assert_eq!(h.name, "inventory");
        assert_eq!(h.shape, vec![50_000]);
        assert_eq!(h.metadata.get("config").map(String::as_str), Some("7"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("badmagic.lqio");
        std::fs::write(&path, b"NOTAFILE plus junk").unwrap();
        assert!(matches!(read_container(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deeply_nested_header_is_a_format_error() {
        let header = "[".repeat(100_000);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
        bytes.extend_from_slice(header.as_bytes());
        assert!(matches!(parse_container(&bytes), Err(IoError::Format(_))));
        let path = tmp("nested_header.lqio");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_header(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    /// A container image with a hand-written header and chunk payloads,
    /// each record framed and checksummed as `write_container` frames it.
    fn image(header: &str, chunks: &[&[u8]]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
        bytes.extend_from_slice(header.as_bytes());
        for c in chunks {
            bytes.extend_from_slice(&(c.len() as u64).to_le_bytes());
            bytes.extend_from_slice(c);
            bytes.extend_from_slice(&crc32c(c).to_le_bytes());
        }
        bytes
    }

    fn header(shape: &str, n_chunks: &str) -> String {
        format!(
            r#"{{"name":"x","dtype":"f64","shape":{shape},"n_chunks":{n_chunks},"metadata":{{}}}}"#
        )
    }

    #[test]
    fn oversized_chunk_count_is_a_format_error() {
        let bytes = image(&header("[4]", "100000000000"), &[]);
        assert!(matches!(parse_container(&bytes), Err(IoError::Format(_))));
    }

    #[test]
    fn overflowing_shape_is_a_format_error() {
        let bytes = image(&header("[4294967296, 4294967296, 16]", "0"), &[]);
        assert!(matches!(parse_container(&bytes), Err(IoError::Format(_))));
    }

    #[test]
    fn salvage_of_a_shape_its_chunks_cannot_carry_is_a_format_error() {
        let bytes = image(&header("[1048576, 1048576, 16]", "0"), &[]);
        assert!(matches!(
            salvage_container_bytes(&bytes),
            Err(IoError::Format(_))
        ));
    }

    #[test]
    fn oversized_header_length_is_a_format_error() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(header("[1]", "0").as_bytes());
        assert!(matches!(parse_container(&bytes), Err(IoError::Format(_))));
        let path = tmp("oversized_header.lqio");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_header(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_single_bit_flip_panics_or_changes_the_data() {
        let vals: Vec<f64> = (0..6).map(|i| i as f64 * 1.5).collect();
        let payload: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (a, b) = payload.split_at(24);
        let bytes = image(&header("[6]", "2"), &[a, b]);
        assert_eq!(parse_container(&bytes).unwrap().to_f64().unwrap(), vals);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // A flip in the name or metadata may still parse; the data may not
            // change.
            if let Ok(c) = parse_container(&flipped) {
                assert_eq!(c.payload, payload, "bit {bit}");
                assert!(c.to_f64().map_or(true, |v| v == vals), "bit {bit}");
            }
        }
    }

    #[test]
    fn dtype_mismatch_is_rejected() {
        let vals: Vec<f64> = vec![1.0, 2.0];
        let c = Container::from_f64("x", vec![2], &vals, BTreeMap::new());
        let path = tmp("dtype.lqio");
        write_container(&path, &c).unwrap();
        let back = read_container(&path).unwrap();
        assert!(back.to_f32().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_recovers_from_a_transient_bit_flip() {
        let vals: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let c = Container::from_f64("flaky", vec![4096], &vals, BTreeMap::new());
        let path = tmp("retry.lqio");
        write_container(&path, &c).unwrap();
        let good = std::fs::read(&path).unwrap();

        // First fetch sees a flipped bit; subsequent fetches are clean —
        // models a transient read-path fault rather than media corruption.
        let mut calls = 0;
        let (back, attempts) = read_container_retrying(3, || {
            calls += 1;
            let mut b = good.clone();
            if calls == 1 {
                let mid = b.len() / 2;
                b[mid] ^= 0x01;
            }
            Ok(b)
        })
        .unwrap();
        assert_eq!(attempts, 2);
        assert_eq!(back.to_f64().unwrap(), vals);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_error() {
        let vals: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let c = Container::from_f64("dead", vec![4096], &vals, BTreeMap::new());
        let path = tmp("retry_dead.lqio");
        write_container(&path, &c).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // Corruption is on the media: every re-read sees it.
        match read_container_with_retry(&path, 2) {
            Err(IoError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum failure, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_recovers_intact_chunks_and_reports_the_hole() {
        let n = (DEFAULT_CHUNK_BYTES * 3) / 8;
        let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let c = Container::from_f64("salvage", vec![n], &vals, BTreeMap::new());
        let path = tmp("salvage.lqio");
        write_container(&path, &c).unwrap();

        // Corrupt a byte inside the second chunk's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let chunk1_payload = 12 + header_len + 8 + DEFAULT_CHUNK_BYTES + 4 + 8 + 100;
        bytes[chunk1_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let s = salvage_container(&path).unwrap();
        assert!(!s.is_complete());
        assert_eq!(s.corrupt_chunks, vec![1]);
        assert_eq!(
            s.lost_ranges,
            vec![(DEFAULT_CHUNK_BYTES, 2 * DEFAULT_CHUNK_BYTES)]
        );
        assert_eq!(s.payload.len(), n * 8);

        // Chunks 0 and 2 decode to the original values; the hole is zeros.
        let per_chunk = DEFAULT_CHUNK_BYTES / 8;
        let decoded: Vec<f64> = s
            .payload
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(decoded[..per_chunk], vals[..per_chunk]);
        assert_eq!(decoded[2 * per_chunk..], vals[2 * per_chunk..]);
        assert!(decoded[per_chunk..2 * per_chunk].iter().all(|&v| v == 0.0));

        // Strict conversion refuses the incomplete data.
        assert!(s.into_container().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_pads_a_truncated_file() {
        let n = (DEFAULT_CHUNK_BYTES * 2) / 8;
        let vals: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let c = Container::from_f64("trunc", vec![n], &vals, BTreeMap::new());
        let path = tmp("trunc.lqio");
        write_container(&path, &c).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut the file in the middle of the second chunk.
        let cut = bytes.len() - DEFAULT_CHUNK_BYTES / 2;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        // The strict reader refuses truncated files…
        assert!(read_container(&path).is_err());
        // …while salvage keeps the first chunk and pads the tail.
        let s = salvage_container(&path).unwrap();
        assert_eq!(s.payload.len(), n * 8);
        assert_eq!(s.lost_ranges, vec![(DEFAULT_CHUNK_BYTES, n * 8)]);
        let first: Vec<f64> = s.payload[..DEFAULT_CHUNK_BYTES]
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(first, vals[..DEFAULT_CHUNK_BYTES / 8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_of_a_clean_file_is_complete() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let c = Container::from_f64("clean", vec![1000], &vals, BTreeMap::new());
        let path = tmp("salvage_clean.lqio");
        write_container(&path, &c).unwrap();
        let s = salvage_container(&path).unwrap();
        assert!(s.is_complete());
        assert_eq!(s.lost_bytes(), 0);
        let back = s.into_container().unwrap();
        assert_eq!(back.to_f64().unwrap(), vals);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_structural_boundary_returns_err() {
        let n = (DEFAULT_CHUNK_BYTES * 3 / 2) / 8;
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let c = Container::from_f64("cut", vec![n], &vals, BTreeMap::new());
        let path = tmp("cut.lqio");
        write_container(&path, &c).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;

        // Cuts landing mid-magic, mid-header-length, mid-header-JSON,
        // mid-chunk-length, mid-payload, and mid-CRC must all surface as a
        // structured error — never a panic.
        let chunk0 = 12 + header_len;
        for cut in [
            4,                                    // inside the magic
            10,                                   // inside the header length field
            12 + header_len / 2,                  // inside the header JSON
            chunk0 + 4,                           // inside the first chunk's length
            chunk0 + 8 + 100,                     // inside the first payload
            chunk0 + 8 + DEFAULT_CHUNK_BYTES + 2, // inside the first CRC
            bytes.len() - 2,                      // inside the final CRC
        ] {
            let err = parse_container(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail, got {err:?}");
        }
        // …and an untruncated image still parses.
        assert_eq!(parse_container(&bytes).unwrap().to_f64().unwrap(), vals);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_lowest_corrupt_chunk_is_reported() {
        // Five 16-byte chunks; chunks 1 and 3 each get one flipped byte.
        let payload: Vec<u8> = (0..80).collect();
        let chunks: Vec<&[u8]> = payload.chunks(16).collect();
        let h = header("[10]", "5");
        let mut bytes = image(&h, &chunks);
        for k in [3, 1] {
            bytes[12 + h.len() + k * (8 + 16 + 4) + 8 + 5] ^= 0x40;
        }
        assert!(matches!(
            parse_container(&bytes),
            Err(IoError::ChecksumMismatch { chunk: 1 })
        ));
        let s = salvage_container_bytes(&bytes).unwrap();
        assert_eq!(s.corrupt_chunks, vec![1, 3]);
        assert_eq!(s.lost_ranges, vec![(16, 32), (48, 64)]);
    }

    /// Record `i` of 24 bytes holds the bytes `24 i .. 24 i + 24` (mod 256).
    fn counting_record(i: usize, b: &mut [u8; 24]) {
        for (k, x) in b.iter_mut().enumerate() {
            *x = (i * 24 + k) as u8;
        }
    }

    #[test]
    fn a_record_fills_the_same_bytes_however_the_chunks_cut_it() {
        let mut whole = vec![0u8; 240];
        fill_records(0, &mut whole, counting_record);
        assert!(whole.iter().enumerate().all(|(j, &b)| b == j as u8));
        for at in 0..240 {
            for len in [0, 1, 5, 23, 24, 25, 100] {
                if at + len <= 240 {
                    let mut out = vec![0u8; len];
                    fill_records(at, &mut out, counting_record);
                    assert_eq!(out, whole[at..at + len], "at {at}, len {len}");
                }
            }
        }
    }

    #[test]
    fn a_record_reads_the_same_bytes_however_the_chunks_cut_it() {
        let bytes: Vec<u8> = (0..=255).collect();
        let mut parts = Vec::new();
        let mut at = 0;
        for n in [0, 5, 1, 0, 50, 7, 3, 126, 64, 0] {
            parts.push(&bytes[at..at + n]);
            at += n;
        }
        assert_eq!(at, bytes.len());
        let (split, whole) = (Payload::new(parts), Payload::whole(&bytes));
        let records = |p: &Payload, first: usize, count: usize| {
            let mut out = Vec::new();
            p.for_each_record::<24>(first * 24, count, |r| out.push(*r));
            out
        };
        for first in 0..=10 {
            for count in 0..=10 - first {
                let want: Vec<[u8; 24]> = (first..first + count)
                    .map(|i| std::array::from_fn(|k| (i * 24 + k) as u8))
                    .collect();
                assert_eq!(records(&split, first, count), want);
                assert_eq!(records(&whole, first, count), want);
            }
        }
        let mut out = [[0u8; 24]; 10];
        split.decode_into(&mut out, |r: &[u8; 24]| *r);
        assert_eq!(out.to_vec(), records(&whole, 0, 10));
    }

    #[test]
    fn multi_chunk_files_work() {
        // 3.5 chunks worth of data.
        let n = (DEFAULT_CHUNK_BYTES * 7 / 2) / 8;
        let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let c = Container::from_f64("multi", vec![n], &vals, BTreeMap::new());
        let path = tmp("multichunk.lqio");
        write_container(&path, &c).unwrap();
        let back = read_container(&path).unwrap();
        assert_eq!(back.header.n_chunks, 4);
        assert_eq!(back.to_f64().unwrap(), vals);
        std::fs::remove_file(&path).ok();
    }
}
