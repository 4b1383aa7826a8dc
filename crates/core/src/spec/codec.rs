//! The field-table codec: every spec config and report record states its
//! wire keys once, in one table, and gets its writer, its reader and its
//! unknown-key guard from that table.
//!
//! * [`Field`] — a wire kind: how one field's value is written to and read
//!   from a [`Json`] value. Scalars, strings, vectors and nested records
//!   are kinds of their own; `Ratio`, `Us` and `Tts` are range-checked `f64`
//!   kinds for report payloads; `Omit`, `OrDefault`, `Option` and
//!   `Derived` say when a key may be absent.
//! * [`Record`] — a struct with a field table, declared with the
//!   crate-internal `record!` macro: one line per key, in wire order. The
//!   macro builds the struct literal directly, so a table that misses a
//!   field does not compile.
//! * `tagged!` — a tag → record table for the tagged unions
//!   (`BackendSpec` by `backend`, `ArrivalProcess` by `process`,
//!   `SchedPolicy` by `name`), and `named!` for enums written as their
//!   `name()`.
//!
//! Every string goes through the one escaper in [`super::json`], and
//! numbers print in their shortest round-trip form, so decoding a record
//! and encoding it again reproduces its bytes.

use super::json::Json;
use super::SpecError;
use std::marker::PhantomData;

/// A wire kind: how one record field is written and read.
pub trait Field {
    /// The Rust value the kind carries.
    type Value;

    /// Whether the key is written at all (`Derived` fields are not).
    const ON_WIRE: bool = true;

    /// Renders a value.
    fn to_json(value: &Self::Value) -> Json;

    /// Reads a value; `key` and `ctx` name it in errors.
    ///
    /// # Errors
    /// Returns a [`SpecError`] for a mistyped or out-of-range value.
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<Self::Value, SpecError>;

    /// Renders the field of a record; `None` leaves the key out.
    fn write(value: &Self::Value) -> Option<Json> {
        Some(Self::to_json(value))
    }

    /// Reads the field of a record from its key's value (`None` when the
    /// key is absent).
    ///
    /// # Errors
    /// Returns a [`SpecError`] for a missing, mistyped or out-of-range
    /// field.
    fn read(json: Option<&Json>, key: &str, ctx: &str) -> Result<Self::Value, SpecError> {
        match json {
            Some(json) => Self::from_json(json, key, ctx),
            None => Err(SpecError::new(ctx, format!("missing field \"{key}\""))),
        }
    }
}

/// A struct with a field table (declared with the `record!` macro).
pub trait Record: Sized {
    /// The table's keys in wire order, each with its kind's
    /// [`Field::ON_WIRE`].
    const FIELDS: &'static [(&'static str, bool)];

    /// Appends the record's written fields, in table order.
    fn write_fields(&self, out: &mut Vec<(String, Json)>);

    /// Reads every field from an object whose keys are already checked.
    ///
    /// # Errors
    /// Returns the first missing, mistyped or out-of-range field.
    fn read_fields(json: &Json, ctx: &str) -> Result<Self, SpecError>;

    /// Renders the record as a JSON object.
    fn encode(&self) -> Json {
        let mut fields = Vec::new();
        self.write_fields(&mut fields);
        Json::Obj(fields)
    }

    /// Reads a record object, rejecting keys outside the table.
    ///
    /// # Errors
    /// Returns a [`SpecError`] naming an unknown key or the first bad
    /// field.
    fn decode(json: &Json, ctx: &str) -> Result<Self, SpecError> {
        check_keys(json, Self::FIELDS, &[], ctx)?;
        Self::read_fields(json, ctx)
    }
}

/// Rejects a non-object and any key that is neither a `tags` key nor an
/// on-wire key of `fields` — the typo guard for hand-written documents.
///
/// # Errors
/// Names the first unknown key and the expected ones.
pub(crate) fn check_keys(
    json: &Json,
    fields: &[(&str, bool)],
    tags: &[&str],
    ctx: &str,
) -> Result<(), SpecError> {
    let Json::Obj(entries) = json else {
        return Err(SpecError::new(ctx, "expected an object"));
    };
    let known = || {
        tags.iter()
            .copied()
            .chain(fields.iter().filter(|(_, on)| *on).map(|(key, _)| *key))
    };
    match entries.iter().find(|(key, _)| !known().any(|k| k == key)) {
        Some((key, _)) => Err(SpecError::new(
            ctx,
            format!(
                "unknown field \"{key}\" (expected one of: {})",
                known().collect::<Vec<_>>().join(", ")
            ),
        )),
        None => Ok(()),
    }
}

/// Renders `record` behind a fixed document tag (`"bench": "shard"`,
/// `"checkpoint": "hqw"`), which comes first.
pub(crate) fn encode_tagged((tag, value): (&str, &str), record: &impl Record) -> Json {
    let mut fields = vec![(tag.to_string(), Json::Str(value.to_string()))];
    record.write_fields(&mut fields);
    Json::Obj(fields)
}

/// Reads a record behind a fixed document tag; a document without that tag
/// value is rejected with `wrong` before its fields are looked at.
///
/// # Errors
/// Returns `wrong`, an unknown key or the first bad field.
pub(crate) fn decode_tagged<R: Record>(
    json: &Json,
    (tag, value): (&str, &str),
    wrong: &str,
    ctx: &str,
) -> Result<R, SpecError> {
    if json.get(tag).and_then(Json::as_str) != Some(value) {
        return Err(SpecError::new(ctx, wrong));
    }
    check_keys(json, R::FIELDS, &[tag], ctx)?;
    R::read_fields(json, ctx)
}

/// The tag string of a tagged-union object.
///
/// # Errors
/// Returns a [`SpecError`] for a non-object or a missing or non-string tag.
pub(crate) fn tag_of<'a>(json: &'a Json, tag: &str, ctx: &str) -> Result<&'a str, SpecError> {
    if !matches!(json, Json::Obj(_)) {
        return Err(SpecError::new(ctx, "expected an object"));
    }
    let value = json
        .get(tag)
        .ok_or_else(|| SpecError::new(ctx, format!("missing field \"{tag}\"")))?;
    value.as_str().ok_or_else(|| must_be(tag, ctx, "a string"))
}

fn must_be(key: &str, ctx: &str, what: &str) -> SpecError {
    SpecError::new(ctx, format!("field \"{key}\" must be {what}"))
}

/// A kind read straight from one [`Json`] variant.
macro_rules! scalar {
    ($ty:ty, $variant:ident, $as:ident, $what:literal) => {
        impl Field for $ty {
            type Value = $ty;
            fn to_json(value: &$ty) -> Json {
                Json::$variant(value.clone())
            }
            fn from_json(json: &Json, key: &str, ctx: &str) -> Result<$ty, SpecError> {
                json.$as()
                    .map(Into::into)
                    .ok_or_else(|| must_be(key, ctx, $what))
            }
        }
    };
}

scalar!(u64, UInt, as_u64, "an unsigned integer");
scalar!(f64, Float, as_f64, "a number");
scalar!(bool, Bool, as_bool, "a boolean");
scalar!(String, Str, as_str, "a string");

/// An unsigned integer kind narrower than the wire's `u64`.
macro_rules! narrow {
    ($ty:ident) => {
        impl Field for $ty {
            type Value = $ty;
            fn to_json(value: &$ty) -> Json {
                Json::UInt(*value as u64)
            }
            fn from_json(json: &Json, key: &str, ctx: &str) -> Result<$ty, SpecError> {
                $ty::try_from(u64::from_json(json, key, ctx)?).map_err(|_| {
                    SpecError::new(
                        ctx,
                        format!("field \"{key}\" overflows {}", stringify!($ty)),
                    )
                })
            }
        }
    };
}

narrow!(usize);
narrow!(u32);

/// A JSON subtree kept as is (an embedded spec, a record payload).
impl Field for Json {
    type Value = Json;
    fn to_json(value: &Json) -> Json {
        value.clone()
    }
    fn from_json(json: &Json, _: &str, _: &str) -> Result<Json, SpecError> {
        Ok(json.clone())
    }
}

/// An array; element `i` of key `k` is read as key `k[i]`.
impl<K: Field> Field for Vec<K> {
    type Value = Vec<K::Value>;
    fn to_json(value: &Self::Value) -> Json {
        Json::Arr(value.iter().map(K::to_json).collect())
    }
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<Self::Value, SpecError> {
        json.as_arr()
            .ok_or_else(|| must_be(key, ctx, "an array"))?
            .iter()
            .enumerate()
            .map(|(i, item)| K::from_json(item, &format!("{key}[{i}]"), ctx))
            .collect()
    }
}

/// An optional value: `null` in an array, an absent key in a record.
impl<K: Field> Field for Option<K> {
    type Value = Option<K::Value>;
    fn to_json(value: &Self::Value) -> Json {
        value.as_ref().map_or(Json::Null, K::to_json)
    }
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<Self::Value, SpecError> {
        match json {
            Json::Null => Ok(None),
            json => K::from_json(json, key, ctx).map(Some),
        }
    }
    fn write(value: &Self::Value) -> Option<Json> {
        value.as_ref().map(K::to_json)
    }
    fn read(json: Option<&Json>, key: &str, ctx: &str) -> Result<Self::Value, SpecError> {
        json.map_or(Ok(None), |json| Self::from_json(json, key, ctx))
    }
}

/// A report rate (an error or miss rate): a number in `[0, 1]`, so a merged
/// shard or resumed checkpoint cannot carry an impossible rate into a
/// report.
pub(crate) struct Ratio;

impl Field for Ratio {
    type Value = f64;
    fn to_json(value: &f64) -> Json {
        Json::Float(*value)
    }
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<f64, SpecError> {
        let v = f64::from_json(json, key, ctx)?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(must_be(key, ctx, &format!("a ratio in [0, 1], got {v}")))
        }
    }
}

/// A report duration (a latency or service time, µs): finite and
/// non-negative.
pub(crate) struct Us;

impl Field for Us {
    type Value = f64;
    fn to_json(value: &f64) -> Json {
        Json::Float(*value)
    }
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<f64, SpecError> {
        let v = f64::from_json(json, key, ctx)?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(must_be(
                key,
                ctx,
                &format!("a non-negative duration in us, got {v}"),
            ))
        }
    }
}

/// A time-to-solution (µs): a duration as [`Us`], or infinite when no read
/// found the ground state — written as `null`.
pub(crate) struct Tts;

impl Field for Tts {
    type Value = f64;
    fn to_json(value: &f64) -> Json {
        if value.is_infinite() {
            Json::Null
        } else {
            Json::Float(*value)
        }
    }
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<f64, SpecError> {
        match json {
            Json::Null => Ok(f64::INFINITY),
            json => Us::from_json(json, key, ctx),
        }
    }
}

/// Kind `K`, left out when the value is its default and read as the
/// default when absent — how fields added after a format shipped keep the
/// older documents' bytes.
pub(crate) struct Omit<K>(PhantomData<K>);

impl<K: Field> Field for Omit<K>
where
    K::Value: Default + PartialEq,
{
    type Value = K::Value;
    fn to_json(value: &K::Value) -> Json {
        K::to_json(value)
    }
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<K::Value, SpecError> {
        K::from_json(json, key, ctx)
    }
    fn write(value: &K::Value) -> Option<Json> {
        (*value != K::Value::default()).then(|| K::to_json(value))
    }
    fn read(json: Option<&Json>, key: &str, ctx: &str) -> Result<K::Value, SpecError> {
        json.map_or_else(
            || Ok(K::Value::default()),
            |json| K::from_json(json, key, ctx),
        )
    }
}

/// Kind `K`, always written but read as the default when absent.
pub(crate) struct OrDefault<K>(PhantomData<K>);

impl<K: Field> Field for OrDefault<K>
where
    K::Value: Default + PartialEq,
{
    type Value = K::Value;
    fn to_json(value: &K::Value) -> Json {
        K::to_json(value)
    }
    fn from_json(json: &Json, key: &str, ctx: &str) -> Result<K::Value, SpecError> {
        K::from_json(json, key, ctx)
    }
    fn read(json: Option<&Json>, key: &str, ctx: &str) -> Result<K::Value, SpecError> {
        Omit::<K>::read(json, key, ctx)
    }
}

/// A field that is not on the wire: never written, rejected as an unknown
/// key, and read as its default for the decoder's caller to fill in from
/// context (a stream cell's frame count comes from its spec).
pub(crate) struct Derived<T>(PhantomData<T>);

impl<T: Default> Field for Derived<T> {
    type Value = T;
    const ON_WIRE: bool = false;
    fn to_json(_: &T) -> Json {
        Json::Null
    }
    fn from_json(_: &Json, _: &str, _: &str) -> Result<T, SpecError> {
        Ok(T::default())
    }
    fn write(_: &T) -> Option<Json> {
        None
    }
    fn read(_: Option<&Json>, _: &str, _: &str) -> Result<T, SpecError> {
        Ok(T::default())
    }
}

/// The wire key of a table line: the field name, or its `as "key"`
/// rename.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident, $key:literal) => {
        $key
    };
}
pub(crate) use wire_key;

/// Declares a struct's field table: one `field: Kind` line per key, in wire
/// order (`field as "key": Kind` renames). Implements [`Record`] and makes
/// the struct a [`Field`] kind of its own; a nested record's errors name it
/// `ctx.key`. Prefixed with `struct`, it also declares the struct — a
/// private wire form whose field types are their own kinds.
macro_rules! record {
    ($(#[$meta:meta])* struct $ty:ident { $( $field:ident $(as $key:literal)? : $kind:ty ),* $(,)? }) => {
        $(#[$meta])*
        struct $ty { $( $field: $kind ),* }
        $crate::spec::codec::record!($ty { $( $field $(as $key)? : $kind ),* });
    };
    ($ty:ident { $( $field:ident $(as $key:literal)? : $kind:ty ),* $(,)? }) => {
        impl $crate::spec::codec::Record for $ty {
            const FIELDS: &'static [(&'static str, bool)] = &[$((
                $crate::spec::codec::wire_key!($field $(, $key)?),
                <$kind as $crate::spec::codec::Field>::ON_WIRE,
            )),*];

            fn write_fields(&self, out: &mut Vec<(String, $crate::spec::json::Json)>) {
                $(
                    if let Some(v) = <$kind as $crate::spec::codec::Field>::write(&self.$field) {
                        out.push(($crate::spec::codec::wire_key!($field $(, $key)?).to_string(), v));
                    }
                )*
            }

            fn read_fields(
                json: &$crate::spec::json::Json,
                ctx: &str,
            ) -> Result<Self, $crate::spec::SpecError> {
                Ok($ty {$(
                    $field: {
                        let key = $crate::spec::codec::wire_key!($field $(, $key)?);
                        <$kind as $crate::spec::codec::Field>::read(json.get(key), key, ctx)?
                    },
                )*})
            }
        }

        impl $crate::spec::codec::Field for $ty {
            type Value = $ty;
            fn to_json(value: &$ty) -> $crate::spec::json::Json {
                $crate::spec::codec::Record::encode(value)
            }
            fn from_json(
                json: &$crate::spec::json::Json,
                key: &str,
                ctx: &str,
            ) -> Result<$ty, $crate::spec::SpecError> {
                $crate::spec::codec::Record::decode(json, &format!("{ctx}.{key}"))
            }
        }
    };
}
pub(crate) use record;

/// Declares a tagged union's tag → record table: the object carries the
/// variant's `tag` key first, then the variant's fields. Variants either
/// wrap a [`Record`] (`"tag" => Variant(Inner)`) or carry their own field
/// list (`"tag" => Variant { field: Kind }`).
macro_rules! tagged {
    ($ty:ident by $tag:literal, $what:literal {
        $( $name:literal => $variant:ident($inner:ty) ),* $(,)?
    }) => {
        impl $crate::spec::codec::Field for $ty {
            type Value = $ty;
            fn to_json(value: &$ty) -> $crate::spec::json::Json {
                match value {
                    $( $ty::$variant(inner) => $crate::spec::codec::encode_tagged(($tag, $name), inner), )*
                }
            }
            fn from_json(
                json: &$crate::spec::json::Json,
                key: &str,
                ctx: &str,
            ) -> Result<$ty, $crate::spec::SpecError> {
                use $crate::spec::codec::{check_keys, tag_of, Record};
                let ctx = &format!("{ctx}.{key}");
                match tag_of(json, $tag, ctx)? {
                    $( $name => {
                        check_keys(json, <$inner>::FIELDS, &[$tag], ctx)?;
                        Ok($ty::$variant(<$inner>::read_fields(json, ctx)?))
                    } )*
                    other => Err($crate::spec::SpecError::new(
                        ctx.as_str(),
                        format!("unknown {} '{other}'", $what),
                    )),
                }
            }
        }
    };
    ($ty:ident by $tag:literal, $what:literal {
        $( $name:literal => $variant:ident { $( $field:ident : $kind:ty ),* } ),* $(,)?
    }) => {
        impl $crate::spec::codec::Field for $ty {
            type Value = $ty;
            fn to_json(value: &$ty) -> $crate::spec::json::Json {
                use $crate::spec::json::Json;
                let (name, fields): (&str, Vec<(&str, Option<Json>)>) = match value {
                    $( $ty::$variant { $($field),* } => ($name, vec![$(
                        (stringify!($field), <$kind as $crate::spec::codec::Field>::write($field)),
                    )*]), )*
                };
                let mut out = vec![($tag.to_string(), Json::Str(name.to_string()))];
                out.extend(
                    fields
                        .into_iter()
                        .filter_map(|(key, value)| Some((key.to_string(), value?))),
                );
                Json::Obj(out)
            }
            fn from_json(
                json: &$crate::spec::json::Json,
                key: &str,
                ctx: &str,
            ) -> Result<$ty, $crate::spec::SpecError> {
                use $crate::spec::codec::{check_keys, tag_of, Field};
                let ctx = &format!("{ctx}.{key}");
                match tag_of(json, $tag, ctx)? {
                    $( $name => {
                        check_keys(
                            json,
                            &[$((stringify!($field), <$kind as Field>::ON_WIRE)),*],
                            &[$tag],
                            ctx,
                        )?;
                        Ok($ty::$variant {$(
                            $field: <$kind as Field>::read(
                                json.get(stringify!($field)),
                                stringify!($field),
                                ctx,
                            )?,
                        )*})
                    } )*
                    other => Err($crate::spec::SpecError::new(
                        ctx.as_str(),
                        format!("unknown {} '{other}'", $what),
                    )),
                }
            }
        }
    };
}
pub(crate) use tagged;

/// Makes an enum with `name()` / `from_name()` a [`Field`] kind written as
/// its name; `$what` names it in the unknown-value error.
macro_rules! named {
    ($ty:ident, $what:literal) => {
        impl $crate::spec::codec::Field for $ty {
            type Value = $ty;
            fn to_json(value: &$ty) -> $crate::spec::json::Json {
                $crate::spec::json::Json::Str(value.name().to_string())
            }
            fn from_json(
                json: &$crate::spec::json::Json,
                key: &str,
                ctx: &str,
            ) -> Result<$ty, $crate::spec::SpecError> {
                let name = <String as $crate::spec::codec::Field>::from_json(json, key, ctx)?;
                $ty::from_name(&name).ok_or_else(|| {
                    $crate::spec::SpecError::new(ctx, format!("unknown {} '{name}'", $what))
                })
            }
        }
    };
}
pub(crate) use named;
