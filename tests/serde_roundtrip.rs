//! Serde round-trips for the data-structure types: formulas, vocabularies
//! and protocols survive serialization — the artifacts a user would save
//! to disk (a derived protocol, a program, a spec).
//!
//! The sanctioned dependency set has no serializer crate, so the `bin`
//! module below implements a minimal positional binary codec over serde's
//! data model; it exercises every `Serialize`/`Deserialize` derive in the
//! workspace end to end.

use kbp_logic::random::{random_formula, FormulaConfig, SplitMix64};
use kbp_logic::{Agent, Formula, Vocabulary};
use kbp_systems::{ActionId, MapProtocol, Obs};
use proptest::prelude::*;

fn json_roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let encoded = bin::to_hex(value).expect("serializes");
    bin::from_hex(&encoded).expect("deserializes")
}

/// A tiny self-describing binary format (hex-encoded) covering exactly
/// the serde data model subset our derives emit. It exists so the
/// round-trip tests do not require an external serializer crate.
mod bin {
    use serde::de::DeserializeOwned;
    use serde::Serialize;

    pub fn to_hex<T: Serialize>(value: &T) -> Result<String, String> {
        let mut out = Vec::new();
        let mut ser = ser::Bin { out: &mut out };
        value.serialize(&mut ser).map_err(|e| e.0)?;
        Ok(out.iter().map(|b| format!("{b:02x}")).collect())
    }

    pub fn from_hex<T: DeserializeOwned>(s: &str) -> Result<T, String> {
        let bytes: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let mut de = de::Bin {
            input: &bytes,
            pos: 0,
        };
        T::deserialize(&mut de).map_err(|e| e.0)
    }

    #[derive(Debug)]
    pub struct Error(pub String);

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }
    impl std::error::Error for Error {}
    impl serde::ser::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }
    impl serde::de::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    mod ser {
        use super::Error;
        use serde::ser::*;

        pub struct Bin<'a> {
            pub out: &'a mut Vec<u8>,
        }

        impl Bin<'_> {
            fn put_u64(&mut self, v: u64) {
                self.out.extend_from_slice(&v.to_le_bytes());
            }
            fn put_bytes(&mut self, b: &[u8]) {
                self.put_u64(b.len() as u64);
                self.out.extend_from_slice(b);
            }
        }

        macro_rules! fwd_int {
            ($name:ident, $t:ty) => {
                fn $name(self, v: $t) -> Result<(), Error> {
                    self.put_u64(v as u64);
                    Ok(())
                }
            };
        }

        impl<'a, 'b> Serializer for &'a mut Bin<'b> {
            type Ok = ();
            type Error = Error;
            type SerializeSeq = Self;
            type SerializeTuple = Self;
            type SerializeTupleStruct = Self;
            type SerializeTupleVariant = Self;
            type SerializeMap = Self;
            type SerializeStruct = Self;
            type SerializeStructVariant = Self;

            fn serialize_bool(self, v: bool) -> Result<(), Error> {
                self.out.push(u8::from(v));
                Ok(())
            }
            fwd_int!(serialize_i8, i8);
            fwd_int!(serialize_i16, i16);
            fwd_int!(serialize_i32, i32);
            fwd_int!(serialize_i64, i64);
            fwd_int!(serialize_u8, u8);
            fwd_int!(serialize_u16, u16);
            fwd_int!(serialize_u32, u32);
            fwd_int!(serialize_u64, u64);
            fn serialize_f32(self, v: f32) -> Result<(), Error> {
                self.put_u64(u64::from(v.to_bits()));
                Ok(())
            }
            fn serialize_f64(self, v: f64) -> Result<(), Error> {
                self.put_u64(v.to_bits());
                Ok(())
            }
            fn serialize_char(self, v: char) -> Result<(), Error> {
                self.put_u64(v as u64);
                Ok(())
            }
            fn serialize_str(self, v: &str) -> Result<(), Error> {
                self.put_bytes(v.as_bytes());
                Ok(())
            }
            fn serialize_bytes(self, v: &[u8]) -> Result<(), Error> {
                self.put_bytes(v);
                Ok(())
            }
            fn serialize_none(self) -> Result<(), Error> {
                self.out.push(0);
                Ok(())
            }
            fn serialize_some<T: ?Sized + serde::Serialize>(self, value: &T) -> Result<(), Error> {
                self.out.push(1);
                value.serialize(self)
            }
            fn serialize_unit(self) -> Result<(), Error> {
                Ok(())
            }
            fn serialize_unit_struct(self, _: &'static str) -> Result<(), Error> {
                Ok(())
            }
            fn serialize_unit_variant(
                self,
                _: &'static str,
                idx: u32,
                _: &'static str,
            ) -> Result<(), Error> {
                self.put_u64(u64::from(idx));
                Ok(())
            }
            fn serialize_newtype_struct<T: ?Sized + serde::Serialize>(
                self,
                _: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                value.serialize(self)
            }
            fn serialize_newtype_variant<T: ?Sized + serde::Serialize>(
                self,
                _: &'static str,
                idx: u32,
                _: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                self.put_u64(u64::from(idx));
                value.serialize(self)
            }
            fn serialize_seq(self, len: Option<usize>) -> Result<Self, Error> {
                let len = len.ok_or_else(|| Error("need length".into()))?;
                self.put_u64(len as u64);
                Ok(self)
            }
            fn serialize_tuple(self, _: usize) -> Result<Self, Error> {
                Ok(self)
            }
            fn serialize_tuple_struct(self, _: &'static str, _: usize) -> Result<Self, Error> {
                Ok(self)
            }
            fn serialize_tuple_variant(
                self,
                _: &'static str,
                idx: u32,
                _: &'static str,
                _: usize,
            ) -> Result<Self, Error> {
                self.put_u64(u64::from(idx));
                Ok(self)
            }
            fn serialize_map(self, len: Option<usize>) -> Result<Self, Error> {
                let len = len.ok_or_else(|| Error("need length".into()))?;
                self.put_u64(len as u64);
                Ok(self)
            }
            fn serialize_struct(self, _: &'static str, _: usize) -> Result<Self, Error> {
                Ok(self)
            }
            fn serialize_struct_variant(
                self,
                _: &'static str,
                idx: u32,
                _: &'static str,
                _: usize,
            ) -> Result<Self, Error> {
                self.put_u64(u64::from(idx));
                Ok(self)
            }
        }

        macro_rules! impl_compound {
            ($trait:ident, $fn:ident) => {
                impl $trait for &mut Bin<'_> {
                    type Ok = ();
                    type Error = Error;
                    fn $fn<T: ?Sized + serde::Serialize>(
                        &mut self,
                        value: &T,
                    ) -> Result<(), Error> {
                        value.serialize(&mut **self)
                    }
                    fn end(self) -> Result<(), Error> {
                        Ok(())
                    }
                }
            };
        }
        impl_compound!(SerializeSeq, serialize_element);
        impl_compound!(SerializeTuple, serialize_element);
        impl_compound!(SerializeTupleStruct, serialize_field);
        impl_compound!(SerializeTupleVariant, serialize_field);

        impl SerializeMap for &mut Bin<'_> {
            type Ok = ();
            type Error = Error;
            fn serialize_key<T: ?Sized + serde::Serialize>(
                &mut self,
                key: &T,
            ) -> Result<(), Error> {
                key.serialize(&mut **self)
            }
            fn serialize_value<T: ?Sized + serde::Serialize>(
                &mut self,
                value: &T,
            ) -> Result<(), Error> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Error> {
                Ok(())
            }
        }
        impl SerializeStruct for &mut Bin<'_> {
            type Ok = ();
            type Error = Error;
            fn serialize_field<T: ?Sized + serde::Serialize>(
                &mut self,
                _: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Error> {
                Ok(())
            }
        }
        impl SerializeStructVariant for &mut Bin<'_> {
            type Ok = ();
            type Error = Error;
            fn serialize_field<T: ?Sized + serde::Serialize>(
                &mut self,
                _: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Error> {
                Ok(())
            }
        }
    }

    mod de {
        use super::Error;
        use serde::de::*;

        pub struct Bin<'de> {
            pub input: &'de [u8],
            pub pos: usize,
        }

        impl<'de> Bin<'de> {
            fn take(&mut self, n: usize) -> Result<&'de [u8], Error> {
                if self.pos + n > self.input.len() {
                    return Err(Error("unexpected end".into()));
                }
                let s = &self.input[self.pos..self.pos + n];
                self.pos += n;
                Ok(s)
            }
            fn get_u64(&mut self) -> Result<u64, Error> {
                let b = self.take(8)?;
                Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
            }
            fn get_bytes(&mut self) -> Result<&'de [u8], Error> {
                let len = self.get_u64()? as usize;
                self.take(len)
            }
        }

        macro_rules! de_int {
            ($name:ident, $visit:ident, $t:ty) => {
                fn $name<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                    let v = self.get_u64()?;
                    visitor.$visit(v as $t)
                }
            };
        }

        impl<'de> Deserializer<'de> for &mut Bin<'de> {
            type Error = Error;

            fn deserialize_any<V: Visitor<'de>>(self, _: V) -> Result<V::Value, Error> {
                Err(Error("format is not self-describing".into()))
            }
            fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let b = self.take(1)?[0];
                visitor.visit_bool(b != 0)
            }
            de_int!(deserialize_i8, visit_i8, i8);
            de_int!(deserialize_i16, visit_i16, i16);
            de_int!(deserialize_i32, visit_i32, i32);
            de_int!(deserialize_i64, visit_i64, i64);
            de_int!(deserialize_u8, visit_u8, u8);
            de_int!(deserialize_u16, visit_u16, u16);
            de_int!(deserialize_u32, visit_u32, u32);
            de_int!(deserialize_u64, visit_u64, u64);
            fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let v = self.get_u64()?;
                visitor.visit_f32(f32::from_bits(v as u32))
            }
            fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let v = self.get_u64()?;
                visitor.visit_f64(f64::from_bits(v))
            }
            fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let v = self.get_u64()?;
                visitor
                    .visit_char(char::from_u32(v as u32).ok_or_else(|| Error("bad char".into()))?)
            }
            fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let b = self.get_bytes()?;
                visitor.visit_str(std::str::from_utf8(b).map_err(|e| Error(e.to_string()))?)
            }
            fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                self.deserialize_str(visitor)
            }
            fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let b = self.get_bytes()?;
                visitor.visit_bytes(b)
            }
            fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                self.deserialize_bytes(visitor)
            }
            fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let tag = self.take(1)?[0];
                if tag == 0 {
                    visitor.visit_none()
                } else {
                    visitor.visit_some(self)
                }
            }
            fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                visitor.visit_unit()
            }
            fn deserialize_unit_struct<V: Visitor<'de>>(
                self,
                _: &'static str,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_unit()
            }
            fn deserialize_newtype_struct<V: Visitor<'de>>(
                self,
                _: &'static str,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_newtype_struct(self)
            }
            fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let len = self.get_u64()? as usize;
                visitor.visit_seq(Counted {
                    de: self,
                    left: len,
                })
            }
            fn deserialize_tuple<V: Visitor<'de>>(
                self,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self,
                    left: len,
                })
            }
            fn deserialize_tuple_struct<V: Visitor<'de>>(
                self,
                _: &'static str,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Error> {
                self.deserialize_tuple(len, visitor)
            }
            fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let len = self.get_u64()? as usize;
                visitor.visit_map(Counted {
                    de: self,
                    left: len,
                })
            }
            fn deserialize_struct<V: Visitor<'de>>(
                self,
                _: &'static str,
                fields: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self,
                    left: fields.len(),
                })
            }
            fn deserialize_enum<V: Visitor<'de>>(
                self,
                _: &'static str,
                _: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_enum(Enum { de: self })
            }
            fn deserialize_identifier<V: Visitor<'de>>(self, _: V) -> Result<V::Value, Error> {
                Err(Error("identifiers are positional".into()))
            }
            fn deserialize_ignored_any<V: Visitor<'de>>(self, _: V) -> Result<V::Value, Error> {
                Err(Error("cannot skip in positional format".into()))
            }
        }

        struct Counted<'a, 'de> {
            de: &'a mut Bin<'de>,
            left: usize,
        }

        impl<'de> SeqAccess<'de> for Counted<'_, 'de> {
            type Error = Error;
            fn next_element_seed<T: DeserializeSeed<'de>>(
                &mut self,
                seed: T,
            ) -> Result<Option<T::Value>, Error> {
                if self.left == 0 {
                    return Ok(None);
                }
                self.left -= 1;
                seed.deserialize(&mut *self.de).map(Some)
            }
            fn size_hint(&self) -> Option<usize> {
                Some(self.left)
            }
        }

        impl<'de> MapAccess<'de> for Counted<'_, 'de> {
            type Error = Error;
            fn next_key_seed<K: DeserializeSeed<'de>>(
                &mut self,
                seed: K,
            ) -> Result<Option<K::Value>, Error> {
                if self.left == 0 {
                    return Ok(None);
                }
                self.left -= 1;
                seed.deserialize(&mut *self.de).map(Some)
            }
            fn next_value_seed<V: DeserializeSeed<'de>>(
                &mut self,
                seed: V,
            ) -> Result<V::Value, Error> {
                seed.deserialize(&mut *self.de)
            }
        }

        struct Enum<'a, 'de> {
            de: &'a mut Bin<'de>,
        }

        impl<'de> EnumAccess<'de> for Enum<'_, 'de> {
            type Error = Error;
            type Variant = Self;
            fn variant_seed<V: DeserializeSeed<'de>>(
                self,
                seed: V,
            ) -> Result<(V::Value, Self), Error> {
                let idx = self.de.get_u64()? as u32;
                let val = seed.deserialize(serde::de::value::U32Deserializer::new(idx))?;
                Ok((val, self))
            }
        }

        impl<'de> VariantAccess<'de> for Enum<'_, 'de> {
            type Error = Error;
            fn unit_variant(self) -> Result<(), Error> {
                Ok(())
            }
            fn newtype_variant_seed<T: DeserializeSeed<'de>>(
                self,
                seed: T,
            ) -> Result<T::Value, Error> {
                seed.deserialize(self.de)
            }
            fn tuple_variant<V: Visitor<'de>>(
                self,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self.de,
                    left: len,
                })
            }
            fn struct_variant<V: Visitor<'de>>(
                self,
                fields: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Error> {
                visitor.visit_seq(Counted {
                    de: self.de,
                    left: fields.len(),
                })
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn formulas_roundtrip(seed in any::<u64>(), temporal in any::<bool>()) {
        let cfg = FormulaConfig {
            props: 4,
            agents: 3,
            max_depth: 6,
            temporal,
            groups: true,
        };
        let f = random_formula(&mut SplitMix64::new(seed), &cfg);
        let back: Formula = json_roundtrip(&f);
        prop_assert_eq!(f, back);
    }
}

#[test]
fn vocabulary_roundtrips() {
    let mut voc = Vocabulary::new();
    voc.add_agent("alice");
    voc.add_agent("bob");
    voc.add_prop("rain");
    voc.add_prop("wet");
    let back: Vocabulary = json_roundtrip(&voc);
    assert_eq!(voc, back);
    assert_eq!(back.agent("bob"), Some(Agent::new(1)));
}

#[test]
fn protocols_roundtrip() {
    let mut proto = MapProtocol::new(vec![ActionId(0)]);
    proto.set_agent_default(Agent::new(1), vec![ActionId(2)]);
    proto.insert(Agent::new(0), vec![Obs(1), Obs(2)], vec![ActionId(1)]);
    proto.insert(Agent::new(1), vec![Obs(0)], vec![ActionId(0), ActionId(2)]);
    let back: MapProtocol = json_roundtrip(&proto);
    assert_eq!(proto, back);
}

#[test]
fn solve_diagnostics_roundtrip() {
    // The solver's diagnostic types are savable artifacts too: a budget
    // report can be persisted next to the partial protocol it explains.
    let stats = {
        let sc = kbp_scenarios::muddy_children::MuddyChildren::new(3);
        let ctx = sc.context();
        let kbp = sc.kbp();
        let solution = kbp_core::SyncSolver::new(&ctx, &kbp)
            .horizon(4)
            .solve()
            .expect("solves");
        solution.stats()
    };
    let back: kbp_core::SolveStats = json_roundtrip(&stats);
    assert_eq!(stats, back);

    let layer = kbp_core::LayerStats {
        layer: 3,
        points: 17,
        guard_evaluations: 51,
        protocol_entries: 9,
        shards: 1,
        gen_quotient_worlds: 5,
        gen_quotient_ratio: 294,
    };
    let back: kbp_core::LayerStats = json_roundtrip(&layer);
    assert_eq!(layer, back);

    for resource in [
        kbp_core::Resource::Deadline,
        kbp_core::Resource::LayerPoints,
        kbp_core::Resource::GuardEvaluations,
        kbp_core::Resource::Memory,
        kbp_core::Resource::Nodes,
        kbp_core::Resource::Branches,
        kbp_core::Resource::Solutions,
    ] {
        let exhausted = kbp_core::BudgetExhausted {
            resource,
            at_layer: 2,
        };
        let back: kbp_core::BudgetExhausted = json_roundtrip(&exhausted);
        assert_eq!(exhausted, back);
    }
}

#[test]
fn kbp_roundtrips() {
    let a = Agent::new(0);
    let kbp = kbp_core::Kbp::builder()
        .clause(
            a,
            Formula::knows(a, Formula::prop(kbp_logic::PropId::new(0))),
            ActionId(1),
        )
        .default_action(a, ActionId(0))
        .build();
    let back: kbp_core::Kbp = json_roundtrip(&kbp);
    assert_eq!(kbp, back);
}
