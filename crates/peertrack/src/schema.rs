//! The wire schema: each message, frame and WAL record is declared once,
//! and its encoder, decoder and model size follow from the declaration.
//!
//! A [`Field`] has one canonical encoding. `put` writes it through
//! [`ByteBuf`]; `get` reads it back through the checked [`Reader`], so
//! no decoder can index past its input; `MIN` is its shortest encoding,
//! which a vector's count is checked against before anything is
//! allocated; and `model` is the size §V-A charges for it — the encoding
//! minus vector length prefixes, which the accounting model carries in
//! the header's reserved bytes.
//!
//! [`wire_enum!`](crate::wire_enum) declares an enum as `Variant = tag`
//! with unit, one-field tuple or named fields, in wire order, and
//! derives `tag`, `put_fields`, `get_fields` and `model` from it;
//! [`wire_struct!`](crate::wire_struct) derives a struct's [`Field`]
//! from its field list. `Msg`, the daemon's `Frame` and `WalRecord`, and
//! every record inside them are declared this way.
//!
//! An option takes one of three forms, fixed by its type:
//! * a presence byte over a zero-filled body, so the option is fixed
//!   width ([`Link`], [`SiteId`], [`SimTime`]);
//! * a bare presence byte, the body only when present ([`IopRecord`],
//!   `String`);
//! * [`Prefix`]'s `0xFF` length sentinel over 8 zero bytes.
//!
//! Byte strings (`Vec<u8>`, `String`, an embedded [`Wire`]) carry a
//! `u32` count bounded by the bytes that follow it rather than by
//! [`MAX_VECTOR_LEN`](crate::codec::MAX_VECTOR_LEN): they never allocate
//! more than their input, and a site's canonical state may pass a
//! million bytes.
//!
//! Every primitive is `#[inline]` (all but `Id::put`, which says why):
//! the workspace builds with `lto = "off"`, and the daemon's codecs live
//! in another crate.

use crate::bytebuf::{ByteBuf, Reader};
use crate::codec::{self, DecodeError};
use crate::messages::Wire;
use crate::store::{IndexEntry, IopRecord, Link};
use ids::{Id, Prefix, ID_BYTES};
use moods::{ObjectId, SiteId, Visit};
use simnet::SimTime;

/// A value with one canonical wire encoding.
pub trait Field: Sized {
    /// Bytes of the shortest encoding.
    const MIN: usize;
    /// Append the encoding.
    fn put(&self, buf: &mut ByteBuf);
    /// Read one encoding.
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
    /// Modeled bytes: the encoding minus vector length prefixes.
    fn model(&self) -> usize;
}

/// Fixed-width fields, whose model is their width.
macro_rules! fixed {
    ($($t:ty: $min:expr, |$v:ident, $buf:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Field for $t {
            const MIN: usize = $min;
            #[inline]
            fn put(&self, $buf: &mut ByteBuf) {
                let $v = self;
                $put
            }
            #[inline]
            fn get($r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                $get
            }
            #[inline]
            fn model(&self) -> usize {
                $min
            }
        }
    )*};
}

fixed! {
    bool: 1, |v, buf| buf.put_u8(u8::from(*v)), |r| Ok(r.u8()? == 1);
    u32: 4, |v, buf| buf.put_u32(*v), |r| r.u32();
    u64: 8, |v, buf| buf.put_u64(*v), |r| r.u64();
    // Travels as a `u32`; a value past `u16` names nothing and must not
    // be narrowed into something that exists.
    u16: 4, |v, buf| buf.put_u32(u32::from(*v)), |r| {
        let v = r.u32()?;
        u16::try_from(v).map_err(|_| DecodeError::OutOfRange(v))
    };
    SiteId: 4, |v, buf| buf.put_u32(v.0), |r| r.u32().map(SiteId);
    SimTime: 8, |v, buf| buf.put_u64(v.as_micros()), |r| r.u64().map(SimTime::from_micros);
    ObjectId: ID_BYTES, |v, buf| v.0.put(buf), |r| Id::get(r).map(ObjectId);
    Prefix: 9, |v, buf| buf.put_slice(&v.wire_bytes()), |r| {
        Prefix::from_wire_bytes(r.array()?).map_err(DecodeError::BadPrefix)
    };
    // Absence is an over-long length byte: the option is as wide as the
    // prefix.
    Option<Prefix>: 9, |v, buf| match v {
        Some(p) => p.put(buf),
        None => {
            buf.put_u8(0xFF);
            buf.put_bytes(0, 8);
        }
    }, |r| {
        let raw = r.array::<9>()?;
        if raw[0] == 0xFF {
            return Ok(None);
        }
        Prefix::from_wire_bytes(raw).map(Some).map_err(DecodeError::BadPrefix)
    };
}

/// `put` is not `#[inline]`: in this small body `Vec::extend_from_slice`
/// meets a constant length and becomes a reserve and a 20-byte copy,
/// which callers then inline. Inlined into a codec's element loop first,
/// it stays an out-of-line call and a `memcpy` per id.
impl Field for Id {
    const MIN: usize = ID_BYTES;
    fn put(&self, buf: &mut ByteBuf) {
        buf.put_slice(&self.0);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.array().map(|a| Id(*a))
    }
    #[inline]
    fn model(&self) -> usize {
        ID_BYTES
    }
}

/// How an `Option` of this type goes on the wire: a presence byte, then
/// the body — zero-filled when absent if `PADDED`, omitted otherwise.
pub trait Optional: Field {
    /// Whether an absent value still spends `MIN` zero bytes.
    const PADDED: bool;
}

impl Optional for Link {
    const PADDED: bool = true;
}
impl Optional for SiteId {
    const PADDED: bool = true;
}
impl Optional for SimTime {
    const PADDED: bool = true;
}
impl Optional for IopRecord {
    const PADDED: bool = false;
}
impl Optional for String {
    const PADDED: bool = false;
}

impl<T: Optional> Field for Option<T> {
    const MIN: usize = 1 + if T::PADDED { T::MIN } else { 0 };
    #[inline]
    fn put(&self, buf: &mut ByteBuf) {
        match self {
            Some(v) => {
                buf.put_u8(1);
                v.put(buf);
            }
            None => buf.put_bytes(0, Self::MIN),
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let present = r.u8()? == 1;
        if !present && !T::PADDED {
            return Ok(None);
        }
        let v = T::get(r)?;
        Ok(present.then_some(v))
    }
    #[inline]
    fn model(&self) -> usize {
        self.as_ref().map_or(Self::MIN, |v| 1 + v.model())
    }
}

/// A vector: a `u32` count, then the elements. Decoding checks the
/// count against [`MAX_VECTOR_LEN`](crate::codec::MAX_VECTOR_LEN) and
/// against `count · T::MIN` bytes remaining before it allocates.
impl<T: Field> Field for Vec<T> {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, buf: &mut ByteBuf) {
        put_seq(buf, self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.vec(T::MIN, T::get)
    }
    #[inline]
    fn model(&self) -> usize {
        self.iter().map(T::model).sum()
    }
}

/// Append `items` as a vector (the encoding of `Vec<T>`).
#[inline]
pub fn put_seq<T: Field>(buf: &mut ByteBuf, items: &[T]) {
    buf.put_u32(items.len() as u32);
    for item in items {
        item.put(buf);
    }
}

/// A byte string.
impl Field for Vec<u8> {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, buf: &mut ByteBuf) {
        buf.put_u32(self.len() as u32);
        buf.put_slice(self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.bytes().map(<[u8]>::to_vec)
    }
    #[inline]
    fn model(&self) -> usize {
        self.len()
    }
}

/// A UTF-8 byte string.
impl Field for String {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, buf: &mut ByteBuf) {
        buf.put_u32(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| DecodeError::BadString)
    }
    #[inline]
    fn model(&self) -> usize {
        self.len()
    }
}

/// A sequenced payload: a byte string holding `codec::encode(msg, seq)`,
/// decoded where it lies, which must fill it exactly.
impl Field for Wire {
    const MIN: usize = 4;
    #[inline]
    fn put(&self, buf: &mut ByteBuf) {
        let raw = codec::encode(&self.msg, self.seq);
        buf.put_u32(raw.len() as u32);
        buf.put_slice(&raw);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (msg, seq) = codec::decode(r.bytes()?)?;
        Ok(Wire { seq, msg })
    }
    #[inline]
    fn model(&self) -> usize {
        self.wire_size()
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    #[inline]
    fn put(&self, buf: &mut ByteBuf) {
        self.0.put(buf);
        self.1.put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
    #[inline]
    fn model(&self) -> usize {
        self.0.model() + self.1.model()
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    const MIN: usize = A::MIN + B::MIN + C::MIN;
    #[inline]
    fn put(&self, buf: &mut ByteBuf) {
        self.0.put(buf);
        self.1.put(buf);
        self.2.put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
    #[inline]
    fn model(&self) -> usize {
        self.0.model() + self.1.model() + self.2.model()
    }
}

/// Derive a struct's [`Field`] from its fields, listed in wire order
/// with their types: `wire_struct! { Link { site: SiteId, time: SimTime } }`.
#[macro_export]
macro_rules! wire_struct {
    ($($name:ident { $($field:ident: $ty:ty),* $(,)? })*) => {$(
        impl $crate::schema::Field for $name {
            const MIN: usize = 0 $(+ <$ty as $crate::schema::Field>::MIN)*;
            #[inline]
            fn put(&self, buf: &mut $crate::bytebuf::ByteBuf) {
                $(<$ty as $crate::schema::Field>::put(&self.$field, buf);)*
            }
            #[inline]
            fn get(
                r: &mut $crate::bytebuf::Reader<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok($name { $($field: <$ty as $crate::schema::Field>::get(r)?),* })
            }
            #[inline]
            fn model(&self) -> usize {
                0 $(+ <$ty as $crate::schema::Field>::model(&self.$field))*
            }
        }
    )*};
}

wire_struct! {
    Link { site: SiteId, time: SimTime }
    IndexEntry { site: SiteId, time: SimTime, prev: Option<Link> }
    IopRecord { arrived: SimTime, from: Option<Link>, to: Option<Link> }
    Visit { site: SiteId, arrived: SimTime, departed: Option<SimTime> }
}

/// One object's visit records at one site, in arrival order. Decoding
/// refuses a vector out of that order ([`DecodeError::Unsorted`]): the
/// repository and the query planner binary-search it, so a peer's or a
/// snapshot's bytes must not hand them one unsorted. A site's snapshot
/// and the daemon's history reply both carry it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History(pub Vec<IopRecord>);

impl Field for History {
    const MIN: usize = <Vec<IopRecord>>::MIN;
    #[inline]
    fn put(&self, buf: &mut ByteBuf) {
        self.0.put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let records = <Vec<IopRecord>>::get(r)?;
        if !records.is_sorted_by_key(|rec| rec.arrived) {
            return Err(DecodeError::Unsorted);
        }
        Ok(History(records))
    }
    #[inline]
    fn model(&self) -> usize {
        self.0.model()
    }
}

/// Declare an enum whose variants are `Variant = tag` with unit,
/// one-field tuple or named fields, each field in wire order, and derive
/// from the declaration:
/// * `tag(&self) -> u8`;
/// * `put_fields(&self, &mut ByteBuf)`, the fields without the tag;
/// * `get_fields(tag, &mut Reader, unknown) -> Result<Self, E>`, with
///   `unknown(tag)` the error for a tag no variant carries;
/// * `model(&self) -> usize`, the fields' modeled bytes.
///
/// Two variants with one tag do not compile. The caller frames the tag:
/// `Msg` in its 16-byte header, `Frame` and `WalRecord` as a kind byte.
#[macro_export]
macro_rules! wire_enum {
    (@pat $name:ident $variant:ident $x:ident) => { $name::$variant };
    (@pat $name:ident $variant:ident $x:ident ($t:ty)) => { $name::$variant($x) };
    (@pat $name:ident $variant:ident $x:ident { $($f:ident),* }) => {
        $name::$variant { $($f),* }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $(($tty:ty))?
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)? })?
                = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $(($tty))? $({ $($(#[$fmeta])* $field: $fty),* })?,
            )*
        }

        impl $name {
            /// The variant's tag on the wire.
            pub fn tag(&self) -> u8 {
                match self {
                    $($name::$variant { .. } => $tag,)*
                }
            }

            /// Append the variant's fields, without its tag.
            #[inline]
            pub fn put_fields(&self, buf: &mut $crate::bytebuf::ByteBuf) {
                match self {
                    $($crate::wire_enum!(@pat $name $variant value $(($tty))? $({ $($field),* })?) => {
                        $(<$tty as $crate::schema::Field>::put(value, buf);)?
                        $($(<$fty as $crate::schema::Field>::put($field, buf);)*)?
                    })*
                }
            }

            /// Read the fields of the variant tagged `tag`; a tag no
            /// variant carries is `unknown(tag)`.
            #[inline]
            pub fn get_fields<E: From<$crate::codec::DecodeError>>(
                tag: u8,
                r: &mut $crate::bytebuf::Reader<'_>,
                unknown: impl FnOnce(u8) -> E,
            ) -> Result<Self, E> {
                #[deny(unreachable_patterns)]
                let v = match tag {
                    $($tag => $name::$variant
                        $((<$tty as $crate::schema::Field>::get(r)?))?
                        $({ $($field: <$fty as $crate::schema::Field>::get(r)?),* })?,)*
                    _ => return Err(unknown(tag)),
                };
                Ok(v)
            }

            /// Modeled bytes of the fields: their encoding minus vector
            /// length prefixes.
            #[inline]
            pub fn model(&self) -> usize {
                match self {
                    $($crate::wire_enum!(@pat $name $variant value $(($tty))? $({ $($field),* })?) => {
                        0 $(+ <$tty as $crate::schema::Field>::model(value))?
                            $($(+ <$fty as $crate::schema::Field>::model($field))*)?
                    })*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MAX_VECTOR_LEN;
    use proptiny::hex;

    fn bytes<T: Field>(v: &T) -> Vec<u8> {
        let mut buf = ByteBuf::new();
        v.put(&mut buf);
        buf.into_vec()
    }

    fn back<T: Field>(raw: &[u8]) -> Result<T, DecodeError> {
        let mut r = Reader::new(raw);
        let v = T::get(&mut r)?;
        r.finish().map(|()| v)
    }

    #[test]
    fn the_three_option_forms() {
        let link = Link { site: SiteId(1), time: SimTime::from_micros(2) };
        // A presence byte over a zero-filled body: fixed width.
        assert_eq!(hex(&bytes(&Some(link))), "01000000010000000000000002");
        assert_eq!(bytes(&None::<Link>), [0; 13]);
        assert_eq!(bytes(&None::<SiteId>), [0; 5]);
        assert_eq!(bytes(&None::<SimTime>), [0; 9]);
        assert_eq!(back::<Option<Link>>(&bytes(&Some(link))), Ok(Some(link)));
        assert_eq!(back::<Option<Link>>(&[0; 13]), Ok(None));
        // A bare presence byte.
        assert_eq!(bytes(&None::<IopRecord>), [0]);
        assert_eq!(bytes(&None::<String>), [0]);
        assert_eq!(hex(&bytes(&Some("ab".to_string()))), "01000000026162");
        assert_eq!(back::<Option<String>>(&[0]), Ok(None));
        // The prefix's over-long length sentinel.
        assert_eq!(hex(&bytes(&None::<Prefix>)), "ff0000000000000000");
        assert_eq!(back::<Option<Prefix>>(&bytes(&None::<Prefix>)), Ok(None));
        let p = Prefix::from_bit_str("101");
        assert_eq!(back::<Option<Prefix>>(&bytes(&Some(p))), Ok(Some(p)));
        assert_eq!(<Option<Link>>::MIN, 13);
        assert_eq!(<Option<IopRecord>>::MIN, 1);
        assert_eq!(<Option<Prefix>>::MIN, 9);
    }

    #[test]
    fn u16_travels_as_u32_and_is_never_narrowed() {
        assert_eq!(bytes(&7u16), [0, 0, 0, 7]);
        assert_eq!(back::<u16>(&[0, 0, 0xFF, 0xFF]), Ok(u16::MAX));
        assert_eq!(back::<u16>(&65_536u32.to_be_bytes()), Err(DecodeError::OutOfRange(65_536)));
    }

    #[test]
    fn byte_strings_are_bounded_by_their_input_not_the_vector_cap() {
        let big = vec![7u8; MAX_VECTOR_LEN + 1];
        assert_eq!(back::<Vec<u8>>(&bytes(&big)), Ok(big));
        let claim = u32::MAX.to_be_bytes();
        assert_eq!(back::<Vec<u8>>(&claim), Err(DecodeError::Truncated));
        assert_eq!(back::<String>(&claim), Err(DecodeError::Truncated));
        assert_eq!(back::<Vec<u32>>(&claim), Err(DecodeError::TooLong(u32::MAX)));
        assert_eq!(back::<String>(&[0, 0, 0, 1, 0xFF]), Err(DecodeError::BadString));
    }

    #[test]
    fn model_is_the_encoding_minus_vector_length_prefixes() {
        let link = Link { site: SiteId(3), time: SimTime::from_micros(4) };
        let o = ObjectId::from_raw(b"o");
        let v: Vec<(ObjectId, Option<Link>)> = vec![(o, Some(link)), (o, None)];
        assert_eq!(v.model(), bytes(&v).len() - 4);
        assert_eq!(v.model(), 2 * <(ObjectId, Option<Link>)>::MIN);
        let rec = IopRecord { arrived: SimTime::from_micros(1), from: None, to: Some(link) };
        let nested: Vec<Option<IopRecord>> = vec![Some(rec), None];
        assert_eq!(nested.model(), bytes(&nested).len() - 4);
        assert_eq!(back::<Vec<Option<IopRecord>>>(&bytes(&nested)), Ok(nested));
    }
}
