//! Binary wire codec for SCBR data types.
//!
//! A small hand-rolled format, also the body encoding of every wire
//! message ([`crate::protocol::messages`]). All integers are big-endian;
//! strings and byte blobs are length-prefixed with `u32`.

use crate::error::ScbrError;
use crate::ids::{ClientId, KeyEpoch, SubscriptionId};
use crate::predicate::Op;
use crate::publication::PublicationSpec;
use crate::subscription::SubscriptionSpec;
use crate::value::Value;

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a big-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a big-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a big-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a big-endian i64.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes an f64 as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Cursor-based binary reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ScbrError> {
        if self.buf.len() - self.pos < n {
            return Err(ScbrError::Codec { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ScbrError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, ScbrError> {
        Ok(u16::from_be_bytes(self.take(2, "u16")?.try_into().expect("2 bytes")))
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, ScbrError> {
        Ok(u32::from_be_bytes(self.take(4, "u32")?.try_into().expect("4 bytes")))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, ScbrError> {
        Ok(u64::from_be_bytes(self.take(8, "u64")?.try_into().expect("8 bytes")))
    }

    /// Reads a big-endian i64.
    pub fn i64(&mut self) -> Result<i64, ScbrError> {
        Ok(i64::from_be_bytes(self.take(8, "i64")?.try_into().expect("8 bytes")))
    }

    /// Reads an f64 bit pattern.
    pub fn f64(&mut self) -> Result<f64, ScbrError> {
        Ok(f64::from_be_bytes(self.take(8, "f64")?.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte blob, borrowing from the input.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], ScbrError> {
        let len = self.u32()? as usize;
        self.take(len, "bytes body")
    }

    /// Reads a length-prefixed UTF-8 string, borrowing from the input.
    pub fn str_ref(&mut self) -> Result<&'a str, ScbrError> {
        std::str::from_utf8(self.bytes_ref()?)
            .map_err(|_| ScbrError::Codec { context: "utf-8 string" })
    }

    /// Reads a length-prefixed byte blob into an owned `Vec`.
    pub fn bytes(&mut self) -> Result<Vec<u8>, ScbrError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string into an owned `String`.
    pub fn str(&mut self) -> Result<String, ScbrError> {
        Ok(self.str_ref()?.to_owned())
    }
}

// Value encoding tags.
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Encodes a [`Value`].
pub fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(TAG_INT).i64(*i);
        }
        Value::Float(x) => {
            w.u8(TAG_FLOAT).f64(*x);
        }
        Value::Str(s) => {
            w.u8(TAG_STR).str(s);
        }
    }
}

/// Decodes a [`Value`].
///
/// # Errors
///
/// [`ScbrError::Codec`] on truncation or an unknown tag.
pub fn read_value(r: &mut Reader<'_>) -> Result<Value, ScbrError> {
    match r.u8()? {
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_FLOAT => Ok(Value::Float(r.f64()?)),
        TAG_STR => Ok(Value::Str(r.str()?)),
        _ => Err(ScbrError::Codec { context: "value tag" }),
    }
}

fn op_tag(op: Op) -> u8 {
    match op {
        Op::Eq => 1,
        Op::Lt => 2,
        Op::Le => 3,
        Op::Gt => 4,
        Op::Ge => 5,
    }
}

fn tag_op(tag: u8) -> Result<Op, ScbrError> {
    Ok(match tag {
        1 => Op::Eq,
        2 => Op::Lt,
        3 => Op::Le,
        4 => Op::Gt,
        5 => Op::Ge,
        _ => return Err(ScbrError::Codec { context: "op tag" }),
    })
}

/// Encodes a [`SubscriptionSpec`] to bytes.
pub fn encode_subscription(spec: &SubscriptionSpec) -> Vec<u8> {
    let mut w = Writer::new();
    w.u16(spec.predicates().len() as u16);
    for p in spec.predicates() {
        w.str(&p.attr).u8(op_tag(p.op));
        write_value(&mut w, &p.value);
    }
    w.into_bytes()
}

/// Decodes a [`SubscriptionSpec`].
///
/// # Errors
///
/// [`ScbrError::Codec`] on malformed input or trailing bytes.
pub fn decode_subscription(bytes: &[u8]) -> Result<SubscriptionSpec, ScbrError> {
    let mut r = Reader::new(bytes);
    let n = r.u16()? as usize;
    let mut spec = SubscriptionSpec::new();
    for _ in 0..n {
        let attr = r.str()?;
        let op = tag_op(r.u8()?)?;
        let value = read_value(&mut r)?;
        spec = spec.with(&attr, op, value);
    }
    if !r.is_exhausted() {
        return Err(ScbrError::Codec { context: "subscription trailing bytes" });
    }
    Ok(spec)
}

/// Encodes only the header of a publication (what SCBR encrypts under SK).
pub fn encode_header(spec: &PublicationSpec) -> Vec<u8> {
    let mut w = Writer::new();
    w.u16(spec.header().len() as u16);
    for (name, value) in spec.header() {
        w.str(name);
        write_value(&mut w, value);
    }
    w.into_bytes()
}

/// Decodes a header encoded by [`encode_header`] into a payload-less
/// [`PublicationSpec`].
///
/// # Errors
///
/// [`ScbrError::Codec`] on malformed input or trailing bytes.
// lint: allow(SL08, codec_never_panics in tests/proptests.rs fuzzes it)
pub fn decode_header(bytes: &[u8]) -> Result<PublicationSpec, ScbrError> {
    let mut r = Reader::new(bytes);
    let n = r.u16()? as usize;
    let mut spec = PublicationSpec::new();
    for _ in 0..n {
        let name = r.str()?;
        let value = read_value(&mut r)?;
        spec = spec.attr(&name, value);
    }
    if !r.is_exhausted() {
        return Err(ScbrError::Codec { context: "header trailing bytes" });
    }
    Ok(spec)
}

/// Decodes a wire header straight into a reusable [`crate::publication::CompiledHeader`]:
/// attribute names are looked up in `schema` without building `String`s
/// and string values are FNV-hashed in place, so steady-state decoding
/// performs no heap allocation (beyond the entry buffer's one-time
/// growth).
///
/// Names the schema does not know are skipped, never interned: only a
/// subscription interns a name, so no constraint tests an unknown one,
/// and a header cannot grow the schema. That matters because headers are
/// unauthenticated AES-CTR: a host that flips ciphertext bits can mint
/// fresh names at will.
///
/// Otherwise equivalent to [`decode_header`] followed by
/// [`PublicationSpec::compile_header`]: NaN values, an attribute named
/// twice (known or not), malformed bytes and trailing bytes are all
/// rejected, and entries come out sorted by attribute id. On error
/// `header` is left empty.
///
/// # Errors
///
/// [`ScbrError::Codec`] on malformed input;
/// [`ScbrError::InvalidPublication`] on NaN or duplicate attributes.
pub fn decode_header_into(
    bytes: &[u8],
    schema: &crate::attr::AttrSchema,
    header: &mut crate::publication::CompiledHeader,
) -> Result<(), ScbrError> {
    let (entries, unknown) = header.decode_buffers();
    let result = decode_header_entries(bytes, schema, entries, unknown);
    unknown.clear();
    if result.is_err() {
        entries.clear();
    }
    result
}

fn decode_header_entries(
    bytes: &[u8],
    schema: &crate::attr::AttrSchema,
    entries: &mut Vec<(crate::attr::AttrId, crate::value::Scalar)>,
    unknown: &mut Vec<std::ops::Range<usize>>,
) -> Result<(), ScbrError> {
    use crate::value::{fnv1a, Scalar};
    entries.clear();
    unknown.clear();
    let mut r = Reader::new(bytes);
    let n = r.u16()? as usize;
    for _ in 0..n {
        let name = r.str_ref()?;
        let scalar = match r.u8()? {
            TAG_INT => Scalar::Int(r.i64()?),
            TAG_FLOAT => {
                let f = r.f64()?;
                if f.is_nan() {
                    return Err(ScbrError::InvalidPublication { reason: "nan attribute value" });
                }
                Scalar::Float(f)
            }
            TAG_STR => Scalar::Str(fnv1a(r.str_ref()?.as_bytes())),
            _ => return Err(ScbrError::Codec { context: "value tag" }),
        };
        let duplicate = match schema.lookup(name) {
            Some(id) if entries.iter().all(|(a, _)| *a != id) => {
                entries.push((id, scalar));
                false
            }
            Some(_) => true,
            // An unknown name can only repeat an earlier unknown one,
            // whose bytes its range still points at.
            None => {
                let name = name.as_bytes();
                let repeated = unknown.iter().any(|earlier| &bytes[earlier.clone()] == name);
                // `name` borrows from `bytes`, so its offset is exact.
                let start = name.as_ptr() as usize - bytes.as_ptr() as usize;
                unknown.push(start..start + name.len());
                repeated
            }
        };
        if duplicate {
            return Err(ScbrError::InvalidPublication { reason: "duplicate attribute" });
        }
    }
    if !r.is_exhausted() {
        return Err(ScbrError::Codec { context: "header trailing bytes" });
    }
    entries.sort_unstable_by_key(|(a, _)| *a);
    Ok(())
}

/// Encodes the registration body a producer signs and forwards to routers:
/// subscription bytes plus routing metadata visible to the enclave.
pub fn encode_registration(
    sub: &SubscriptionSpec,
    id: SubscriptionId,
    client: ClientId,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(id.0).u64(client.0);
    w.bytes(&encode_subscription(sub));
    w.into_bytes()
}

/// Decodes a registration body.
///
/// # Errors
///
/// [`ScbrError::Codec`] on malformed input.
pub fn decode_registration(
    bytes: &[u8],
) -> Result<(SubscriptionSpec, SubscriptionId, ClientId), ScbrError> {
    let mut r = Reader::new(bytes);
    let id = SubscriptionId(r.u64()?);
    let client = ClientId(r.u64()?);
    let body = r.bytes()?;
    if !r.is_exhausted() {
        return Err(ScbrError::Codec { context: "registration trailing bytes" });
    }
    Ok((decode_subscription(&body)?, id, client))
}

/// Tag byte opening an unregistration body: keeps the two envelope body
/// formats (registration vs unregistration) from ever decoding as each
/// other, even though both travel `{body}SK` + producer signature.
const UNREGISTRATION_TAG: u8 = 0x55;

/// Encodes the unregistration body a producer signs and forwards to
/// routers: which subscription to retire, on behalf of which client.
pub fn encode_unregistration(id: SubscriptionId, client: ClientId) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(UNREGISTRATION_TAG).u64(id.0).u64(client.0);
    w.into_bytes()
}

/// Decodes an unregistration body.
///
/// # Errors
///
/// [`ScbrError::Codec`] on malformed input (including a registration body
/// passed by mistake — the tag byte differs).
pub fn decode_unregistration(bytes: &[u8]) -> Result<(SubscriptionId, ClientId), ScbrError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != UNREGISTRATION_TAG {
        return Err(ScbrError::Codec { context: "unregistration tag" });
    }
    let id = SubscriptionId(r.u64()?);
    let client = ClientId(r.u64()?);
    if !r.is_exhausted() {
        return Err(ScbrError::Codec { context: "unregistration trailing bytes" });
    }
    Ok((id, client))
}

/// Encodes a published message: encrypted header, key epoch and payload
/// ciphertext.
pub fn encode_publish(header_ct: &[u8], epoch: KeyEpoch, payload_ct: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(header_ct).u64(epoch.0).bytes(payload_ct);
    w.into_bytes()
}

/// Decodes a published message.
///
/// # Errors
///
/// [`ScbrError::Codec`] on malformed input.
// lint: allow(SL08, codec_never_panics in tests/proptests.rs fuzzes it)
pub fn decode_publish(bytes: &[u8]) -> Result<(Vec<u8>, KeyEpoch, Vec<u8>), ScbrError> {
    let mut r = Reader::new(bytes);
    let header_ct = r.bytes()?;
    let epoch = KeyEpoch(r.u64()?);
    let payload_ct = r.bytes()?;
    if !r.is_exhausted() {
        return Err(ScbrError::Codec { context: "publish trailing bytes" });
    }
    Ok((header_ct, epoch, payload_ct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40).i64(-5).f64(2.5).str("hé").bytes(&[1, 2]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "hé");
        assert_eq!(r.bytes().unwrap(), vec![1, 2]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_fail() {
        let mut r = Reader::new(&[0, 0, 0, 5, 1, 2]); // claims 5 bytes, has 2
        assert!(r.bytes().is_err());
        let mut r2 = Reader::new(&[1]);
        assert!(r2.u32().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        assert!(Reader::new(&buf).str().is_err());
    }

    #[test]
    fn value_round_trips() {
        for v in [Value::Int(-7), Value::Float(3.25), Value::Str("HAL".into())] {
            let mut w = Writer::new();
            write_value(&mut w, &v);
            let buf = w.into_bytes();
            assert_eq!(read_value(&mut Reader::new(&buf)).unwrap(), v);
        }
    }

    #[test]
    fn unknown_value_tag_rejected() {
        assert!(read_value(&mut Reader::new(&[9])).is_err());
    }

    #[test]
    fn subscription_round_trip() {
        let spec =
            SubscriptionSpec::new().eq("symbol", "HAL").lt("price", 50.0).ge("volume", 1000i64);
        let bytes = encode_subscription(&spec);
        assert_eq!(decode_subscription(&bytes).unwrap(), spec);
    }

    #[test]
    fn empty_subscription_round_trip() {
        let spec = SubscriptionSpec::new();
        assert_eq!(decode_subscription(&encode_subscription(&spec)).unwrap(), spec);
    }

    #[test]
    fn subscription_trailing_bytes_rejected() {
        let mut bytes = encode_subscription(&SubscriptionSpec::new().eq("a", 1i64));
        bytes.push(0);
        assert!(decode_subscription(&bytes).is_err());
    }

    #[test]
    fn header_round_trip() {
        let spec = PublicationSpec::new()
            .attr("symbol", "INTC")
            .attr("open", 35.2)
            .attr("volume", 1_000_000i64);
        let decoded = decode_header(&encode_header(&spec)).unwrap();
        assert_eq!(decoded.header(), spec.header());
        assert!(decoded.payload_bytes().is_empty(), "payload travels separately");
    }

    #[test]
    fn decode_header_into_matches_compile_path() {
        let schema = crate::attr::AttrSchema::new();
        let spec = PublicationSpec::new()
            .attr("symbol", "INTC")
            .attr("open", 35.2)
            .attr("volume", 1_000_000i64);
        let bytes = encode_header(&spec);
        let via_compile = decode_header(&bytes).unwrap().compile_header(&schema).unwrap();
        let mut reused = crate::publication::CompiledHeader::empty();
        decode_header_into(&bytes, &schema, &mut reused).unwrap();
        assert_eq!(reused, via_compile);
        // Reuse: a second decode fully replaces the first header's entries.
        let bytes2 = encode_header(&PublicationSpec::new().attr("open", 1i64));
        decode_header_into(&bytes2, &schema, &mut reused).unwrap();
        assert_eq!(reused.len(), 1);
    }

    #[test]
    fn decode_header_into_rejects_bad_input_and_clears() {
        let schema = crate::attr::AttrSchema::new();
        let mut header = crate::publication::CompiledHeader::empty();
        let nan = encode_header(&PublicationSpec::new().attr("x", f64::NAN));
        assert!(decode_header_into(&nan, &schema, &mut header).is_err());
        assert!(header.is_empty());
        let dup = encode_header(&PublicationSpec::new().attr("x", 1i64).attr("x", 2i64));
        assert!(decode_header_into(&dup, &schema, &mut header).is_err());
        assert!(header.is_empty());
        let mut trailing = encode_header(&PublicationSpec::new().attr("x", 1i64));
        trailing.push(0);
        assert!(decode_header_into(&trailing, &schema, &mut header).is_err());
        assert!(header.is_empty());
    }

    #[test]
    fn decode_header_into_skips_unknown_names_without_interning() {
        let schema = crate::attr::AttrSchema::new();
        let price = schema.intern("price");
        let mut header = crate::publication::CompiledHeader::empty();
        let bytes = encode_header(
            &PublicationSpec::new().attr("fresh", 1i64).attr("price", 2.5).attr("other", "x"),
        );
        decode_header_into(&bytes, &schema, &mut header).unwrap();
        assert_eq!(header.entries(), &[(price, crate::value::Scalar::Float(2.5))]);
        assert_eq!(schema.len(), 1, "decoding interned a name");
        // An attribute named twice is refused whether the schema knows it
        // or not, and whatever lies between the two.
        for twice in [
            PublicationSpec::new().attr("fresh", 1i64).attr("price", 2.0).attr("fresh", "y"),
            PublicationSpec::new().attr("price", 1i64).attr("fresh", 2.0).attr("price", 3i64),
        ] {
            let bytes = encode_header(&twice);
            assert!(matches!(
                decode_header_into(&bytes, &schema, &mut header),
                Err(ScbrError::InvalidPublication { reason: "duplicate attribute" })
            ));
            assert!(header.is_empty());
        }
        assert_eq!(schema.len(), 1);
    }

    #[test]
    fn registration_round_trip() {
        let spec = SubscriptionSpec::new().eq("symbol", "HAL");
        let bytes = encode_registration(&spec, SubscriptionId(42), ClientId(7));
        let (back, id, client) = decode_registration(&bytes).unwrap();
        assert_eq!(back, spec);
        assert_eq!(id, SubscriptionId(42));
        assert_eq!(client, ClientId(7));
    }

    #[test]
    fn unregistration_round_trip() {
        let bytes = encode_unregistration(SubscriptionId(42), ClientId(7));
        assert_eq!(decode_unregistration(&bytes).unwrap(), (SubscriptionId(42), ClientId(7)));
    }

    #[test]
    fn unregistration_and_registration_bodies_never_cross_decode() {
        let reg = encode_registration(
            &SubscriptionSpec::new().eq("s", 1i64),
            SubscriptionId(1),
            ClientId(2),
        );
        assert!(decode_unregistration(&reg).is_err(), "registration body is not an unregistration");
        let unreg = encode_unregistration(SubscriptionId(1), ClientId(2));
        assert!(decode_registration(&unreg).is_err(), "unregistration body is not a registration");
        // Truncation and trailing bytes are rejected too.
        assert!(decode_unregistration(&unreg[..unreg.len() - 1]).is_err());
        let mut extended = unreg.clone();
        extended.push(0);
        assert!(decode_unregistration(&extended).is_err());
    }

    #[test]
    fn publish_round_trip() {
        let bytes = encode_publish(b"header-ct", KeyEpoch(3), b"payload-ct");
        let (h, e, p) = decode_publish(&bytes).unwrap();
        assert_eq!(h, b"header-ct");
        assert_eq!(e, KeyEpoch(3));
        assert_eq!(p, b"payload-ct");
    }

    #[test]
    fn publish_truncation_rejected() {
        let bytes = encode_publish(b"h", KeyEpoch(1), b"p");
        assert!(decode_publish(&bytes[..bytes.len() - 1]).is_err());
    }
}
