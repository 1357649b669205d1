//! Declare a record once: counters, configs and tag enums whose merge and
//! JSON follow from the field (or variant) list, plus the range checks
//! their `validated()` constructors share.

/// Checks one probability field: finite and in `[0, 1]`. Shared by every
/// fault-profile `validated()` constructor in the workspace.
pub fn check_rate(field: &'static str, value: f64) -> Result<f64, String> {
    if value.is_nan() {
        return Err(format!("{field} is NaN"));
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(format!("{field} = {value} is outside [0, 1]"));
    }
    Ok(value)
}

/// Checks one multiplicative factor field: finite and `>= 1` (a slowdown
/// multiplier below 1 would turn a fault into a speedup).
pub fn check_factor(field: &'static str, value: f64) -> Result<f64, String> {
    if !value.is_finite() {
        return Err(format!("{field} = {value} is not finite"));
    }
    if value < 1.0 {
        return Err(format!("{field} = {value} is below 1"));
    }
    Ok(value)
}

/// Declares a counter, config or tag-enum record once.
///
/// Each fault plane and the serving stack adds a counter struct to the
/// episode report and a config struct to the run overrides. [`record!`]
/// takes the struct exactly as it would be written by hand — docs,
/// derives, `pub` fields, field order — and generates the code that would
/// otherwise repeat every field name:
///
/// * `counter` — a field-wise `merge(&mut self, other: &Self)` (`+=` per
///   field; every field type must be `AddAssign`);
/// * `config` — [`crate::ToJson`]/[`crate::FromJson`] keyed by field name
///   in declaration order, with parsing going through the type's own
///   `validated(self) -> Result<Self, String>`;
/// * `tags` — for a unit enum written `Variant = "tag"`, a `tag()` accessor
///   and the JSON string form, from that single list.
///
/// ```
/// use embodied_profiler::{record, FromJson, JsonValue, ToJson};
///
/// record! {
///     counter;
///     /// Widgets seen.
///     #[derive(Debug, Default)]
///     pub struct WidgetStats {
///         /// Widgets built.
///         pub built: u64,
///         /// Widgets scrapped.
///         pub scrapped: u64,
///     }
/// }
///
/// record! {
///     tags;
///     /// Widget colour.
///     #[derive(Debug, Clone, Copy, PartialEq)]
///     pub enum Colour {
///         /// Red widgets.
///         Red = "red",
///         /// Blue widgets.
///         Blue = "blue",
///     }
/// }
///
/// record! {
///     config;
///     /// How widgets are made.
///     #[derive(Debug, Clone, PartialEq)]
///     pub struct WidgetConfig {
///         /// Scrap probability.
///         pub scrap_rate: f64,
///         /// Paint colour.
///         pub colour: Colour,
///     }
/// }
///
/// impl WidgetConfig {
///     fn validated(self) -> Result<Self, String> {
///         embodied_profiler::check_rate("scrap_rate", self.scrap_rate)?;
///         Ok(self)
///     }
/// }
///
/// let mut total = WidgetStats { built: 2, scrapped: 1 };
/// total.merge(&WidgetStats { built: 3, scrapped: 0 });
/// assert_eq!((total.built, total.scrapped), (5, 1));
///
/// let config = WidgetConfig { scrap_rate: 0.25, colour: Colour::Blue };
/// assert_eq!(
///     config.to_json().to_string(),
///     "{\n  \"scrap_rate\": 0.25,\n  \"colour\": \"blue\"\n}"
/// );
/// assert_eq!(WidgetConfig::from_json(&config.to_json()), Ok(config));
/// let bad = JsonValue::parse(r#"{"scrap_rate": 2, "colour": "red"}"#).unwrap();
/// let err = WidgetConfig::from_json(&bad).unwrap_err().to_string();
/// assert!(err.starts_with("WidgetConfig: scrap_rate"));
/// ```
#[macro_export]
macro_rules! record {
    (
        counter;
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$field_meta])* $field_vis $field: $ty, )*
        }

        impl $name {
            /// Merges counters from another episode slice, field by field.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
            }
        }
    };
    (
        config;
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$field_meta])* $field_vis $field: $ty, )*
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::JsonValue {
                $crate::JsonValue::Object(vec![
                    $( (stringify!($field).into(), $crate::ToJson::to_json(&self.$field)), )*
                ])
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::JsonError> {
                let context =
                    |e: &dyn ::std::fmt::Display| $crate::JsonError::msg(
                        format!("{}: {e}", stringify!($name)),
                    );
                $name {
                    $( $field: value.decode(stringify!($field)).map_err(|e| context(&e))?, )*
                }
                .validated()
                .map_err(|e| context(&e))
            }
        }
    };
    (
        tags;
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$variant_meta:meta])* $variant:ident = $tag:literal ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$variant_meta])* $variant, )+
        }

        impl $name {
            /// The variant's tag: its JSON form.
            pub fn tag(self) -> &'static str {
                match self {
                    $( $name::$variant => $tag, )+
                }
            }
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::JsonValue {
                $crate::JsonValue::Str(self.tag().into())
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(value: &$crate::JsonValue) -> Result<Self, $crate::JsonError> {
                match value.as_str() {
                    $( Some($tag) => Ok($name::$variant), )+
                    _ => Err($crate::JsonError::msg(format!(
                        "{}: expected one of {}, got {value}",
                        stringify!($name),
                        [$($tag),+].join("/"),
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FromJson, JsonValue, SimDuration, ToJson};

    record! {
        counter;
        #[derive(Debug, Clone, Default, PartialEq)]
        struct Counts {
            hits: u64,
            cost: f64,
            wait: SimDuration,
        }
    }

    record! {
        tags;
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Mode {
            Fast = "fast",
            Slow = "slow-mode",
        }
    }

    record! {
        config;
        #[derive(Debug, Clone, PartialEq)]
        struct Knobs {
            rate: f64,
            window: Option<SimDuration>,
            slots: u32,
            mode: Mode,
        }
    }

    impl Knobs {
        fn validated(self) -> Result<Self, String> {
            check_rate("rate", self.rate)?;
            Ok(self)
        }
    }

    #[test]
    fn counter_merge_adds_every_field() {
        let mut a = Counts {
            hits: 1,
            cost: 0.5,
            wait: SimDuration::from_secs(1),
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            Counts {
                hits: 2,
                cost: 1.0,
                wait: SimDuration::from_secs(2),
            }
        );
    }

    #[test]
    fn config_json_is_keyed_by_field_in_order_and_validated() {
        let k = Knobs {
            rate: 0.5,
            window: None,
            slots: 3,
            mode: Mode::Slow,
        };
        let json = k.to_json();
        assert_eq!(
            json.to_string(),
            "{\n  \"rate\": 0.5,\n  \"window\": null,\n  \"slots\": 3,\n  \"mode\": \"slow-mode\"\n}"
        );
        assert_eq!(Knobs::from_json(&json), Ok(k));

        let bad =
            JsonValue::parse(r#"{"rate": 2, "window": null, "slots": 3, "mode": "fast"}"#).unwrap();
        let err = Knobs::from_json(&bad).unwrap_err().to_string();
        assert_eq!(err, "Knobs: rate = 2 is outside [0, 1]");

        let missing = JsonValue::parse(r#"{"rate": 0.1}"#).unwrap();
        let err = Knobs::from_json(&missing).unwrap_err().to_string();
        assert_eq!(err, "Knobs: missing field `window`");

        let wrong = JsonValue::parse(r#"{"rate": 0.1, "window": 5, "slots": 3, "mode": "medium"}"#)
            .unwrap();
        let err = Knobs::from_json(&wrong).unwrap_err().to_string();
        assert!(err.starts_with("Knobs: field `mode`: Mode: expected one of fast/slow-mode"));
    }

    #[test]
    fn tags_round_trip_and_reject_unknowns() {
        for mode in [Mode::Fast, Mode::Slow] {
            assert_eq!(Mode::from_json(&mode.to_json()), Ok(mode));
        }
        assert_eq!(Mode::Slow.tag(), "slow-mode");
        assert!(Mode::from_json(&JsonValue::Str("Fast".into())).is_err());
        assert!(Mode::from_json(&JsonValue::Num(1.0)).is_err());
    }

    #[test]
    fn checks_reject_out_of_range_values() {
        assert!(check_rate("p", 0.0).is_ok() && check_rate("p", 1.0).is_ok());
        assert!(check_rate("p", f64::NAN).unwrap_err().contains("NaN"));
        assert!(check_rate("p", -0.1).unwrap_err().contains("outside"));
        assert!(check_factor("f", 1.0).is_ok());
        assert!(check_factor("f", 0.9).is_err());
        assert!(check_factor("f", f64::INFINITY).is_err());
    }
}
