//! The [`Snapshot`] trait: a uniform, enumerable view of counter
//! structs, and the [`counters!`](crate::counters) macro that declares
//! one.

/// A structure whose state can be enumerated as named metrics.
///
/// The simulator accumulates counters in several terminal structs
/// (`CacheStats`, `CompStats`, `DoppStats`, `LlcCounters`,
/// `ServeStats`). Each is declared once with
/// [`counters!`](crate::counters), which generates this impl from the
/// same field list as the struct itself, so a counter cannot be left
/// out of the JSON export or the lockstep oracle's divergence
/// cross-check. `metrics` enumerates *every* integer field (derived
/// values may follow), so a `zip` over two snapshots of the same type
/// compares the structs exhaustively.
pub trait Snapshot {
    /// Every integer metric as `(name, value)`, in a fixed order that
    /// is identical across instances of the same type.
    fn metrics(&self) -> Vec<(String, u64)>;

    /// Floating-point metrics, for structs (like error statistics)
    /// whose natural domain is not integral. Empty by default.
    fn float_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Declare a counter set: a struct of `u64` counters, each named once.
///
/// The struct gets `pub <field>: u64` fields in the order written,
/// `Clone, Copy, Debug, Default, PartialEq, Eq`, `AddAssign`, and:
///
/// * `names()` / `values()` — every stored counter in declaration
///   order, nested sets flattened after the set's own counters under
///   `<field>.`; `from_values` inverts `values`, and `LEN` is their
///   length;
/// * `checked_delta(&earlier)` — the counters accumulated since an
///   older snapshot, `None` if any counter went backwards;
/// * [`Snapshot`]: the own counters, then the `derived` methods (each
///   `fn(&self) -> u64`), then the nested sets' stored counters;
///   `float_metrics` lists the `float` methods (each `fn(&self) -> f64`)
///   when there are any.
///
/// Derived values, rates and `Display` stay hand-written methods; the
/// clauses after the struct only name them.
///
/// ```
/// use dg_obs::Snapshot;
///
/// dg_obs::counters! {
///     /// Lookups at one structure.
///     pub struct Probes {
///         /// Lookups that hit.
///         hits,
///         /// Lookups that missed.
///         misses,
///     }
/// }
///
/// let p = Probes { hits: 3, misses: 1 };
/// assert_eq!(Probes::names(), ["hits", "misses"]);
/// assert_eq!(p.metrics(), [("hits".to_string(), 3), ("misses".to_string(), 1)]);
/// assert_eq!(Probes::from_values(&p.values()), p);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field:ident,
            )+
        }
        $(derived $($derived:ident),+;)?
        $(float $($float:ident),+;)?
        $(
            $(#[$nested_meta:meta])*
            nested $nested:ident: $nested_ty:ty;
        )*
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[$field_meta])*
                pub $field: u64,
            )+
            $(
                $(#[$nested_meta])*
                pub $nested: $nested_ty,
            )*
        }

        // A counter set need not use every accessor.
        #[allow(dead_code)]
        impl $name {
            /// Number of this set's own counters.
            const OWN: usize = [$(stringify!($field)),+].len();

            /// Number of stored counters, nested sets' included.
            pub const LEN: usize = Self::OWN $(+ <$nested_ty>::LEN)*;

            /// Every stored counter's name, in [`Self::values`] order.
            pub fn names() -> Vec<String> {
                [$(stringify!($field)),+]
                    .map(String::from)
                    .into_iter()
                    $(.chain(<$nested_ty>::names().iter().map(|n| format!("{}.{n}", stringify!($nested)))))*
                    .collect()
            }

            /// Every stored counter: this set's, then each nested set's.
            pub fn values(&self) -> Vec<u64> {
                [$(self.$field),+].into_iter()$(.chain(self.$nested.values()))*.collect()
            }

            /// The counter set whose [`Self::values`] are `values`.
            ///
            /// # Panics
            ///
            /// Panics unless `values.len() == Self::LEN`.
            pub fn from_values(values: &[u64]) -> Self {
                assert_eq!(values.len(), Self::LEN, "{} has {} counters", stringify!($name), Self::LEN);
                let mut at = 0;
                let mut take = |n: usize| {
                    at += n;
                    &values[at - n..at]
                };
                $name {
                    $($field: take(1)[0],)+
                    $($nested: <$nested_ty>::from_values(take(<$nested_ty>::LEN)),)*
                }
            }

            /// Counters accumulated since `earlier`. Every counter is
            /// monotone between resets, so `None` (some counter went
            /// backwards) means `earlier` is not an older snapshot of
            /// these counters.
            pub fn checked_delta(&self, earlier: &Self) -> Option<Self> {
                Some($name {
                    $($field: self.$field.checked_sub(earlier.$field)?,)+
                    $($nested: self.$nested.checked_delta(&earlier.$nested)?,)*
                })
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                $(self.$field += rhs.$field;)+
                $(self.$nested += rhs.$nested;)*
            }
        }

        impl $crate::Snapshot for $name {
            fn metrics(&self) -> Vec<(String, u64)> {
                let mut metrics: Vec<(String, u64)> =
                    Self::names().into_iter().zip(self.values()).collect();
                // Derived values sit between the own and the nested counters.
                let derived = [$($((stringify!($derived).to_string(), self.$derived()),)+)?];
                metrics.splice(Self::OWN..Self::OWN, derived);
                metrics
            }
            $(
                fn float_metrics(&self) -> Vec<(&'static str, f64)> {
                    vec![$((stringify!($float), self.$float()),)+]
                }
            )?
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! {
        /// A flat set with a derived and a float metric.
        struct Flat {
            /// First.
            a,
            /// Second.
            b,
            /// Third.
            c,
        }
        derived sum;
        float half;
    }

    impl Flat {
        fn sum(&self) -> u64 {
            self.a + self.b + self.c
        }

        fn half(&self) -> f64 {
            self.a as f64 / 2.0
        }
    }

    crate::counters! {
        /// A set with two nested sets.
        struct Outer {
            /// Own counter.
            x,
        }
        /// First nested set.
        nested left: Flat;
        /// Second nested set.
        nested right: Flat;
    }

    /// A distinct value per counter, 1..=LEN in declaration order.
    fn numbered() -> Outer {
        Outer::from_values(&(1..=Outer::LEN as u64).collect::<Vec<_>>())
    }

    #[test]
    fn metrics_name_every_counter_once_in_order() {
        let o = numbered();
        assert_eq!(Outer::LEN, 7);
        assert_eq!(o.left, Flat { a: 2, b: 3, c: 4 });
        assert_eq!(o.right, Flat { a: 5, b: 6, c: 7 });
        let names = ["x", "left.a", "left.b", "left.c", "right.a", "right.b", "right.c"];
        let expected: Vec<(String, u64)> = names.iter().map(|n| n.to_string()).zip(1..).collect();
        assert_eq!(o.metrics(), expected, "nested sets contribute stored counters only");
        assert_eq!(Outer::names(), names);

        let f = o.left;
        assert_eq!(
            f.metrics(),
            [("a", 2), ("b", 3), ("c", 4), ("sum", 9)].map(|(n, v)| (n.to_string(), v))
        );
        assert_eq!(f.float_metrics(), [("half", 1.0)]);
    }

    #[test]
    fn default_float_metrics_is_empty() {
        assert!(Outer::default().float_metrics().is_empty());
    }

    #[test]
    fn values_round_trip() {
        let o = numbered();
        assert_eq!(o.values(), (1..=7).collect::<Vec<_>>());
        assert_eq!(Outer::from_values(&o.values()), o);
        assert_eq!(Outer::from_values(&[0; 7]), Outer::default());
    }

    #[test]
    #[should_panic(expected = "Outer has 7 counters")]
    fn from_values_rejects_a_wrong_length() {
        Outer::from_values(&[0; 6]);
    }

    #[test]
    fn add_assign_and_checked_delta_are_inverse() {
        let earlier = numbered();
        let inc = Outer { x: 10, right: Flat { b: 4, ..Flat::default() }, ..Outer::default() };
        let mut later = earlier;
        later += inc;
        assert_eq!(later.values(), [11, 2, 3, 4, 5, 10, 7]);
        assert_eq!(later.checked_delta(&earlier), Some(inc));
        assert_eq!(later.checked_delta(&later), Some(Outer::default()));
        assert_eq!(earlier.checked_delta(&later), None, "reversed snapshots are rejected");
        let mut nested_only = earlier;
        nested_only.right.c -= 1;
        assert_eq!(nested_only.checked_delta(&earlier), None, "a nested counter went backwards");
    }
}
