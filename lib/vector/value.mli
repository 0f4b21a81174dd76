(** Dynamically-typed scalar values.

    Used at the boundaries of the engine (constants in expressions, query
    results, catalog metadata). The hot paths never manipulate [Value.t]:
    vectorized kernels dispatch on the column type once and then work on
    monomorphic arrays. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Null

val dtype : t -> Dtype.t option
(** [None] for [Null]. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order: [Null] sorts first; values of different types compare by
    type order (Int < Float < Bool < String) except Int/Float which compare
    numerically. *)

val is_null : t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Checked accessor; raises [Invalid_argument] on type mismatch. *)

val as_int : t -> int

val to_float : t -> float
(** Numeric coercion: [Int] and [Float] both convert; others raise. *)
