//! A compact, dependency-free binary codec for object states.
//!
//! Chroma stores object states as byte buffers; a type becomes storable
//! by implementing [`Stored`], which packs and unpacks its own state the
//! way the paper's persistent classes do. The format is
//! non-self-describing (like bincode): both ends must agree on the type,
//! which they always do — the store only ever decodes into the type that
//! encoded the buffer.
//!
//! | type | encoding |
//! |---|---|
//! | `u8`/`i8` | 1 byte |
//! | `u16`/`i16` | 2 bytes, little-endian |
//! | `u32`/`i32`/`f32` | 4 bytes, little-endian |
//! | `u64`/`i64`/`f64` | 8 bytes, little-endian |
//! | `u128`/`i128` | 16 bytes, little-endian |
//! | `bool` | 1 byte, `0` or `1` |
//! | `char` | its scalar value as a `u32` |
//! | `String` | `u64` byte length, then UTF-8 bytes |
//! | `Vec<T>` | `u64` element count, then each element |
//! | `BTreeMap<K, V>` | `u64` entry count, then key, value per entry in key order |
//! | `Option<T>` | tag byte `0` (none) or `1` followed by the value |
//! | `()` | nothing |
//! | tuples, [`stored!`](crate::stored) structs | fields in declaration order |
//! | [`stored!`](crate::stored) enums | `u32` variant index in declaration order, then the variant's fields |
//!
//! Decoding is strict: a bool byte, option tag, UTF-8 string, `char`
//! scalar or variant index outside its range is
//! [`CodecError::InvalidValue`], input that ends early is
//! [`CodecError::UnexpectedEnd`] (a length prefix is checked against
//! the remaining input before anything that size is allocated), and
//! input left over is [`CodecError::TrailingBytes`].
//!
//! # Examples
//!
//! ```
//! use chroma_store::codec::{from_bytes, to_bytes};
//! use chroma_store::stored;
//!
//! stored! {
//!     #[derive(PartialEq, Debug)]
//!     struct Account {
//!         owner: String,
//!         balance: i64,
//!     }
//! }
//!
//! # fn main() -> Result<(), chroma_store::codec::CodecError> {
//! let account = Account { owner: "ada".into(), balance: 120 };
//! let bytes = to_bytes(&account)?;
//! assert_eq!(bytes.len(), 8 + 3 + 8);
//! let back: Account = from_bytes(&bytes)?;
//! assert_eq!(back, account);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors produced while decoding object states.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix, tag, scalar or variant index was out of range.
    InvalidValue(String),
    /// Trailing bytes remained after decoding the value.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::InvalidValue(what) => write!(f, "invalid encoded value: {what}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl Error for CodecError {}

/// A value that packs itself into, and unpacks itself from, the
/// codec's byte format (see the [module docs](self) for the layout).
///
/// Implemented for the primitives, `String`, `Vec`, `Option`, `()`,
/// tuples up to four elements and `BTreeMap`; application structs and
/// enums get it from [`stored!`](crate::stored).
pub trait Stored: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past
    /// the bytes consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] on truncated input,
    /// [`CodecError::InvalidValue`] on an out-of-range byte pattern.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Appends the elements of `items` back to back (the body of a
    /// `Vec<Self>`, after its count). Element by element unless a type
    /// has a bulk layout — `u8` copies the slice in one go.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decodes `len` elements written by
    /// [`encode_slice`](Stored::encode_slice). The up-front reservation
    /// is capped at 4096 elements, so a hostile count allocates no more
    /// than that before the input runs out.
    ///
    /// # Errors
    ///
    /// As [`decode`](Stored::decode), for any element.
    fn decode_vec(len: usize, input: &mut &[u8]) -> Result<Vec<Self>, CodecError> {
        let mut items = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            items.push(Self::decode(input)?);
        }
        Ok(items)
    }
}

/// Encodes a value to bytes.
///
/// # Errors
///
/// None: every [`Stored`] value encodes. The `Result` is kept so
/// callers written against a fallible codec compile unchanged.
pub fn to_bytes<T: Stored>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    value.encode(&mut out);
    Ok(out)
}

/// Decodes a value from bytes produced by [`to_bytes`] for the same type.
///
/// # Errors
///
/// Returns [`CodecError`] on truncated input, out-of-range values, or
/// trailing bytes.
pub fn from_bytes<T: Stored>(mut bytes: &[u8]) -> Result<T, CodecError> {
    let value = T::decode(&mut bytes)?;
    if bytes.is_empty() {
        Ok(value)
    } else {
        Err(CodecError::TrailingBytes(bytes.len()))
    }
}

/// Splits `n` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::UnexpectedEnd);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

fn encode_len(len: usize, out: &mut Vec<u8>) {
    (len as u64).encode(out);
}

fn decode_len(input: &mut &[u8]) -> Result<usize, CodecError> {
    let len = u64::decode(input)?;
    usize::try_from(len).map_err(|_| CodecError::InvalidValue(format!("length {len}")))
}

macro_rules! stored_le {
    ($($ty:ty),*) => {$(
        impl Stored for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let (bytes, rest) = input
                    .split_first_chunk()
                    .ok_or(CodecError::UnexpectedEnd)?;
                *input = rest;
                Ok(<$ty>::from_le_bytes(*bytes))
            }
        }
    )*};
}

stored_le!(i8, i16, i32, i64, i128, u16, u32, u64, u128, f32, f64);

impl Stored for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(take(input, 1)?[0])
    }

    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn decode_vec(len: usize, input: &mut &[u8]) -> Result<Vec<u8>, CodecError> {
        Ok(take(input, len)?.to_vec())
    }
}

impl Stored for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::InvalidValue(format!("bool byte {other}"))),
        }
    }
}

impl Stored for char {
    fn encode(&self, out: &mut Vec<u8>) {
        u32::from(*self).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let raw = u32::decode(input)?;
        char::from_u32(raw).ok_or_else(|| CodecError::InvalidValue(format!("char scalar {raw:#x}")))
    }
}

impl Stored for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = decode_len(input)?;
        let bytes = take(input, len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| CodecError::InvalidValue(format!("utf-8: {e}")))
    }
}

impl<T: Stored> Stored for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        T::encode_slice(self, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = decode_len(input)?;
        T::decode_vec(len, input)
    }
}

impl<T: Stored> Stored for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(CodecError::InvalidValue(format!("option tag {other}"))),
        }
    }
}

impl<K: Stored + Ord, V: Stored> Stored for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = decode_len(input)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode(input)?;
            map.insert(key, V::decode(input)?);
        }
        Ok(map)
    }
}

impl Stored for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

macro_rules! stored_tuple {
    ($($name:ident $field:ident),+) => {
        impl<$($name: Stored),+> Stored for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($field,)+) = self;
                $($field.encode(out);)+
            }

            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    };
}

stored_tuple!(A a);
stored_tuple!(A a, B b);
stored_tuple!(A a, B b, C c);
stored_tuple!(A a, B b, C c, D d);

/// Declares a struct or enum and implements [`Stored`] for it.
///
/// A struct (named fields) encodes its fields in declaration order. An
/// enum encodes a `u32` variant index in declaration order, then the
/// variant's fields in order; it may mix unit, tuple (up to eight
/// fields) and struct variants. Attributes and doc comments on the type,
/// its fields and its variants are kept. Generic types are not
/// supported.
///
/// # Examples
///
/// ```
/// use chroma_store::codec::{from_bytes, to_bytes};
/// use chroma_store::stored;
///
/// stored! {
///     /// A request to a key-value service.
///     #[derive(PartialEq, Debug)]
///     pub enum Request {
///         /// Store a value.
///         Put(u64, Vec<u8>),
///         /// Move a value.
///         Move { from: u64, to: u64 },
///         /// Liveness probe.
///         Ping,
///     }
/// }
///
/// let bytes = to_bytes(&Request::Ping).unwrap();
/// assert_eq!(bytes, 2u32.to_le_bytes());
/// let put = Request::Put(7, vec![1, 2]);
/// assert_eq!(from_bytes::<Request>(&to_bytes(&put).unwrap()), Ok(put));
/// ```
#[macro_export]
macro_rules! stored {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $fty ),*
        }

        impl $crate::codec::Stored for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $( $crate::codec::Stored::encode(&self.$field, out); )*
            }

            fn decode(input: &mut &[u8]) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                ::std::result::Result::Ok($name {
                    $( $field: $crate::codec::Stored::decode(input)? ),*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $( ( $($tty:ty),* $(,)? ) )?
                $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $( ( $($tty),* ) )?
                $( { $( $(#[$fmeta])* $field : $fty ),* } )?
            ),*
        }

        impl $crate::codec::Stored for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                // a fieldless twin whose discriminants are the indices
                enum Index { $($variant),* }
                $(
                    $crate::__stored_variant!(
                        self, out, Index::$variant as u32, $variant
                        $( ( $($tty),* ) )? $( { $($field),* } )?
                    );
                )*
            }

            fn decode(input: &mut &[u8]) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                enum Index { $($variant),* }
                let index = <u32 as $crate::codec::Stored>::decode(input)?;
                $(
                    if index == Index::$variant as u32 {
                        return ::std::result::Result::Ok(Self::$variant
                            $( ( $( <$tty as $crate::codec::Stored>::decode(input)? ),* ) )?
                            $( { $( $field: $crate::codec::Stored::decode(input)? ),* } )?
                        );
                    }
                )*
                ::std::result::Result::Err($crate::codec::CodecError::InvalidValue(
                    ::std::format!("variant index {index} of {}", stringify!($name)),
                ))
            }
        }
    };
}

/// Encodes `self` if it is the given variant: index, then fields. One
/// statement per variant of a [`stored!`] enum; tuple-variant fields
/// are bound to names drawn from a fixed pool.
#[doc(hidden)]
#[macro_export]
macro_rules! __stored_variant {
    ($self:ident, $out:ident, $index:expr, $variant:ident) => {
        if let Self::$variant = $self {
            $crate::codec::Stored::encode(&$index, $out);
        }
    };
    ($self:ident, $out:ident, $index:expr, $variant:ident { $($field:ident),* }) => {
        if let Self::$variant { $($field),* } = $self {
            $crate::codec::Stored::encode(&$index, $out);
            $( $crate::codec::Stored::encode($field, $out); )*
        }
    };
    ($self:ident, $out:ident, $index:expr, $variant:ident ( $($ty:ty),* )) => {
        $crate::__stored_variant!(
            @bind $self, $out, $index, $variant, [], [f0 f1 f2 f3 f4 f5 f6 f7], [$($ty),*]
        )
    };
    (@bind $self:ident, $out:ident, $index:expr, $variant:ident,
        [$($bound:ident)*], [$($pool:ident)*], []) => {
        if let Self::$variant($($bound),*) = $self {
            $crate::codec::Stored::encode(&$index, $out);
            $( $crate::codec::Stored::encode($bound, $out); )*
        }
    };
    (@bind $self:ident, $out:ident, $index:expr, $variant:ident,
        [$($bound:ident)*], [$next:ident $($pool:ident)*], [$ty:ty $(, $rest:ty)*]) => {
        $crate::__stored_variant!(
            @bind $self, $out, $index, $variant, [$($bound)* $next], [$($pool)*], [$($rest),*]
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn round_trip<T>(value: T)
    where
        T: Stored + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(&value).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(true);
        round_trip(false);
        round_trip(-5i8);
        round_trip(12345i16);
        round_trip(-7_000_000i32);
        round_trip(i64::MIN);
        round_trip(u64::MAX);
        round_trip(3.5f32);
        round_trip(-2.25f64);
        round_trip('λ');
        round_trip(String::from("hello, world"));
        round_trip(String::new());
    }

    #[test]
    fn collections_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip(Some(42u8));
        round_trip(Option::<u8>::None);
        round_trip((1u8, String::from("x"), vec![true, false]));
        let mut map = BTreeMap::new();
        map.insert(String::from("a"), 1i64);
        map.insert(String::from("b"), -2i64);
        round_trip(map);
    }

    crate::stored! {
        #[derive(PartialEq, Debug)]
        enum Shape {
            Point,
            Circle(f64),
            Rect { w: u32, h: u32 },
        }
    }

    crate::stored! {
        #[derive(PartialEq, Debug)]
        struct Nested {
            name: String,
            shapes: Vec<Shape>,
            tag: Option<Vec<Nested>>,
        }
    }

    #[test]
    fn enums_and_nested_structs_round_trip() {
        round_trip(Shape::Point);
        round_trip(Shape::Circle(2.5));
        round_trip(Shape::Rect { w: 3, h: 4 });
        round_trip(Nested {
            name: "outer".into(),
            shapes: vec![Shape::Point, Shape::Rect { w: 1, h: 2 }],
            tag: Some(vec![Nested {
                name: "inner".into(),
                shapes: vec![],
                tag: None,
            }]),
        });
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = to_bytes(&12345u64).unwrap();
        let err = from_bytes::<u64>(&bytes[..4]).unwrap_err();
        assert_eq!(err, CodecError::UnexpectedEnd);
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(0xFF);
        let err = from_bytes::<u8>(&bytes).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes(1));
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let err = from_bytes::<bool>(&[7]).unwrap_err();
        assert!(matches!(err, CodecError::InvalidValue(_)));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        // length 1, byte 0xFF: not valid UTF-8.
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.push(0xFF);
        let err = from_bytes::<String>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::InvalidValue(_)));
    }

    #[test]
    fn display_is_informative() {
        assert!(CodecError::UnexpectedEnd.to_string().contains("end"));
        assert!(CodecError::TrailingBytes(3).to_string().contains('3'));
    }
}
