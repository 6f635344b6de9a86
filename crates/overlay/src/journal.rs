//! The broker's redo journal and the framing of the host file it is
//! flushed into.
//!
//! Between two checkpoints the enclave-resident core appends one entry
//! per admitted and per retired registration to a [`Journal`]; a
//! checkpoint seals the pending entries as one *delta* and hands it to
//! the host, which appends it to the recovery file. A restart reads the
//! entries back ([`RedoReader`]) and redoes them on top of the base
//! record. Entries are logical — "this registration was admitted from
//! there", "that id was retired from there" — never table rows: redo
//! runs the same covering and uncovering code as live traffic, so there
//! is nothing physical to keep in step. Admissions and retirements both
//! append; a base is written only by the compaction rule (by size or by
//! retired quarter, see `Broker::checkpoint`).
//!
//! An admission is journalled with its **opened registration body**
//! beside the producer's envelope: the envelope is what neighbours are
//! replayed later, but only `SK` opens it, and a relaunched enclave redoes
//! its journal before it is re-attested and handed `SK` again.

use crate::broker::Origin;
use scbr::codec::{Reader, Writer};
use scbr::ids::SubscriptionId;
use scbr::ScbrError;

const ADMIT: u8 = 1;
const REMOVE: u8 = 2;

/// Writes an [`Origin`] (shared with the base record's live set).
pub(crate) fn write_origin(w: &mut Writer, origin: Origin) {
    match origin {
        Origin::Local => {
            w.u8(0);
        }
        Origin::Link(n) => {
            w.u8(1).u64(n as u64);
        }
    }
}

/// Reads an [`Origin`] written by [`write_origin`].
pub(crate) fn read_origin(r: &mut Reader<'_>) -> Result<Origin, ScbrError> {
    match r.u8()? {
        0 => Ok(Origin::Local),
        1 => Ok(Origin::Link(r.u64()? as usize)),
        _ => Err(ScbrError::Codec { context: "recovery origin tag" }),
    }
}

/// Admissions and retirements since the last checkpoint, already in
/// their sealed-delta encoding. Volatile: it dies with the enclave,
/// exactly like the mutations it describes. No `Debug`: the buffer holds
/// opened registration bodies.
#[derive(Default)]
pub(crate) struct Journal {
    buf: Vec<u8>,
}

impl Journal {
    /// Records an admission: where it entered, whether it was a
    /// neighbour-replay re-admission (which decides how a covering prune
    /// is counted), the opened body and the envelope.
    pub(crate) fn admit(&mut self, origin: Origin, replay: bool, body: &[u8], envelope: &[u8]) {
        let mut w = Writer::new();
        w.u8(ADMIT);
        write_origin(&mut w, origin);
        w.u8(u8::from(replay)).bytes(body).bytes(envelope);
        self.buf.extend_from_slice(&w.into_bytes());
    }

    /// Records a retirement: the id, and where the removal entered (the
    /// link that already knows and is not told again).
    pub(crate) fn remove(&mut self, id: SubscriptionId, origin: Origin) {
        let mut w = Writer::new();
        w.u8(REMOVE).u64(id.0);
        write_origin(&mut w, origin);
        self.buf.extend_from_slice(&w.into_bytes());
    }

    /// Pending bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Hands over the pending entries as one delta payload.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Forgets the pending entries (a fresh base already contains them).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }
}

/// One journalled mutation, borrowed from a delta payload.
pub(crate) enum Redo<'a> {
    Admit { origin: Origin, replay: bool, body: &'a [u8], envelope: &'a [u8] },
    Remove { id: SubscriptionId, origin: Origin },
}

/// Reads a delta payload back, entry by entry.
pub(crate) struct RedoReader<'a> {
    r: Reader<'a>,
}

impl<'a> RedoReader<'a> {
    pub(crate) fn new(delta: &'a [u8]) -> Self {
        RedoReader { r: Reader::new(delta) }
    }

    /// The next entry, `None` at the end of the payload.
    pub(crate) fn next(&mut self) -> Result<Option<Redo<'a>>, ScbrError> {
        if self.r.is_exhausted() {
            return Ok(None);
        }
        let r = &mut self.r;
        Ok(Some(match r.u8()? {
            ADMIT => Redo::Admit {
                origin: read_origin(r)?,
                replay: r.u8()? != 0,
                body: r.bytes_ref()?,
                envelope: r.bytes_ref()?,
            },
            REMOVE => Redo::Remove { id: SubscriptionId(r.u64()?), origin: read_origin(r)? },
            _ => return Err(ScbrError::Codec { context: "recovery journal entry kind" }),
        }))
    }
}

/// Appends one entry — `u32` big-endian length, then the blob — to the
/// host's recovery file.
pub(crate) fn append_entry(file: &mut Vec<u8>, blob: &[u8]) {
    file.extend_from_slice(&(blob.len() as u32).to_be_bytes());
    file.extend_from_slice(blob);
}

/// Splits a recovery file into its entries (the first is the base). The
/// file comes from the untrusted disk: lengths are checked against what
/// is actually there and nothing is copied.
pub(crate) fn split_entries(file: &[u8]) -> Result<Vec<&[u8]>, ScbrError> {
    let mut r = Reader::new(file);
    let mut entries = Vec::new();
    while !r.is_exhausted() {
        entries.push(r.bytes_ref()?);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_round_trips_through_a_delta_payload() {
        let mut journal = Journal::default();
        journal.admit(Origin::Link(3), true, b"body", b"envelope");
        journal.remove(SubscriptionId(7), Origin::Link(2));
        journal.admit(Origin::Local, false, b"", b"e");
        let admissions = journal.len();
        journal.remove(SubscriptionId(u64::MAX), Origin::Local);
        assert_eq!(journal.len(), admissions + 10, "a local retirement is ten bytes");
        let delta = journal.take();
        assert_eq!(journal.len(), 0, "taking the delta empties the journal");

        let mut redo = RedoReader::new(&delta);
        assert!(matches!(
            redo.next().unwrap(),
            Some(Redo::Admit {
                origin: Origin::Link(3),
                replay: true,
                body: b"body",
                envelope: b"envelope"
            })
        ));
        assert!(matches!(
            redo.next().unwrap(),
            Some(Redo::Remove { id: SubscriptionId(7), origin: Origin::Link(2) })
        ));
        assert!(matches!(
            redo.next().unwrap(),
            Some(Redo::Admit { origin: Origin::Local, replay: false, body: b"", envelope: b"e" })
        ));
        assert!(matches!(
            redo.next().unwrap(),
            Some(Redo::Remove { id: SubscriptionId(u64::MAX), origin: Origin::Local })
        ));
        assert!(redo.next().unwrap().is_none());
    }

    #[test]
    fn malformed_deltas_and_files_are_errors_not_panics() {
        assert!(RedoReader::new(&[7]).next().is_err(), "unknown entry kind");
        assert!(RedoReader::new(&[ADMIT, 0, 0, 0, 0, 0, 9]).next().is_err(), "truncated body");
        assert!(RedoReader::new(&[ADMIT, 1, 2]).next().is_err(), "truncated origin");
        assert!(RedoReader::new(&[REMOVE, 0, 0, 0, 0, 0, 0, 7]).next().is_err(), "truncated id");
        let removal = [REMOVE, 0, 0, 0, 0, 0, 0, 0, 7, 1, 0, 0, 0, 0, 0, 0, 0, 2];
        assert!(RedoReader::new(&removal).next().unwrap().is_some());
        assert!(RedoReader::new(&removal[..9]).next().is_err(), "missing origin");
        assert!(RedoReader::new(&removal[..13]).next().is_err(), "truncated origin link");
        assert!(
            RedoReader::new(&[REMOVE, 0, 0, 0, 0, 0, 0, 0, 7, 9]).next().is_err(),
            "origin tag"
        );
        assert!(RedoReader::new(&[3]).next().is_err(), "the kind after the last one");

        let mut file = Vec::new();
        append_entry(&mut file, b"base");
        append_entry(&mut file, b"");
        append_entry(&mut file, b"delta");
        assert_eq!(split_entries(&file).unwrap(), vec![&b"base"[..], &b""[..], &b"delta"[..]]);
        assert!(split_entries(&[]).unwrap().is_empty());
        file.pop();
        assert!(split_entries(&file).is_err(), "entry longer than the file");
        assert!(split_entries(&[0xff, 0xff, 0xff, 0xff, 1]).is_err(), "absurd length");
    }
}
