//! Publications: header (filterable attributes) plus opaque payload.
//!
//! Following the paper's model (§3.2), a message is a *header* — named
//! attribute/value pairs the CBR engine filters on — and a *payload* that
//! is opaque to SCBR (it is encrypted under a group key the router never
//! sees).

use crate::attr::{AttrId, AttrSchema};
use crate::error::ScbrError;
use crate::value::{Scalar, Value};
use std::ops::Range;

/// A wire-level publication: named header attributes and an opaque payload.
///
/// ```
/// use scbr_enclave::publication::PublicationSpec;
///
/// let quote = PublicationSpec::new()
///     .attr("symbol", "HAL")
///     .attr("price", 49.5)
///     .payload(b"full quote details".to_vec());
/// assert_eq!(quote.header().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PublicationSpec {
    header: Vec<(String, Value)>,
    payload: Vec<u8>,
}

impl PublicationSpec {
    /// An empty publication.
    pub fn new() -> Self {
        PublicationSpec::default()
    }

    /// Adds a header attribute.
    #[must_use]
    pub fn attr(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.header.push((name.to_owned(), value.into()));
        self
    }

    /// Sets the opaque payload.
    #[must_use]
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Header attributes in authoring order.
    pub fn header(&self) -> &[(String, Value)] {
        &self.header
    }

    /// The opaque payload.
    pub fn payload_bytes(&self) -> &[u8] {
        &self.payload
    }

    /// Compiles the header against `schema` for matching.
    ///
    /// # Errors
    ///
    /// [`ScbrError::InvalidPublication`] on NaN values or duplicate
    /// attribute names.
    pub fn compile_header(&self, schema: &AttrSchema) -> Result<CompiledHeader, ScbrError> {
        let mut entries: Vec<(AttrId, Scalar)> = Vec::with_capacity(self.header.len());
        for (name, value) in &self.header {
            if value.is_nan() {
                return Err(ScbrError::InvalidPublication { reason: "nan attribute value" });
            }
            let id = schema.intern(name);
            if entries.iter().any(|(a, _)| *a == id) {
                return Err(ScbrError::InvalidPublication { reason: "duplicate attribute" });
            }
            entries.push((id, value.to_scalar()));
        }
        entries.sort_by_key(|(a, _)| *a);
        Ok(CompiledHeader { entries, unknown: Vec::new() })
    }
}

/// A compiled header: `(attribute, scalar)` pairs sorted by attribute id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledHeader {
    entries: Vec<(AttrId, Scalar)>,
    /// Byte ranges of the wire names the schema does not know, which the
    /// in-place decode keeps to refuse one named twice; empty between
    /// decodes.
    unknown: Vec<Range<usize>>,
}

impl CompiledHeader {
    /// An empty header. Pair with [`crate::codec::decode_header_into`] to
    /// reuse one header's buffer across decodes on the hot path.
    pub fn empty() -> Self {
        CompiledHeader::default()
    }

    /// Mutable access to the entry buffer and the unknown-name ranges for
    /// the in-place decode path.
    pub(crate) fn decode_buffers(
        &mut self,
    ) -> (&mut Vec<(AttrId, Scalar)>, &mut Vec<Range<usize>>) {
        (&mut self.entries, &mut self.unknown)
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(AttrId, Scalar)] {
        &self.entries
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the header carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the scalar for `attr`.
    pub fn get(&self, attr: AttrId) -> Option<&Scalar> {
        self.entries.binary_search_by_key(&attr, |(a, _)| *a).ok().map(|i| &self.entries[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_sorts_by_attr_id() {
        let schema = AttrSchema::new();
        // Intern in one order, author in another.
        schema.intern("a");
        schema.intern("b");
        let spec = PublicationSpec::new().attr("b", 2i64).attr("a", 1i64);
        let header = spec.compile_header(&schema).unwrap();
        let ids: Vec<u16> = header.entries().iter().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn get_by_attr() {
        let schema = AttrSchema::new();
        let spec = PublicationSpec::new().attr("price", 9.5).attr("symbol", "HAL");
        let header = spec.compile_header(&schema).unwrap();
        let price = schema.lookup("price").unwrap();
        assert!(matches!(header.get(price), Some(Scalar::Float(v)) if *v == 9.5));
        assert!(header.get(AttrId(99)).is_none());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let schema = AttrSchema::new();
        let spec = PublicationSpec::new().attr("x", 1i64).attr("x", 2i64);
        assert!(spec.compile_header(&schema).is_err());
    }

    #[test]
    fn nan_rejected() {
        let schema = AttrSchema::new();
        let spec = PublicationSpec::new().attr("x", f64::NAN);
        assert!(spec.compile_header(&schema).is_err());
    }

    #[test]
    fn payload_is_preserved() {
        let spec = PublicationSpec::new().payload(vec![1, 2, 3]);
        assert_eq!(spec.payload_bytes(), &[1, 2, 3]);
    }

    #[test]
    fn empty_header_compiles() {
        let schema = AttrSchema::new();
        let header = PublicationSpec::new().compile_header(&schema).unwrap();
        assert!(header.is_empty());
        assert_eq!(header.len(), 0);
    }
}
