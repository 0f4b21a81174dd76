type t =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Null

let dtype = function
  | Int _ -> Some Dtype.Int
  | Float _ -> Some Dtype.Float
  | Bool _ -> Some Dtype.Bool
  | String _ -> Some Dtype.String
  | Null -> None

let is_null = function Null -> true | _ -> false

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Bool x, Bool y -> x = y
  | String x, String y -> String.equal x y
  | Null, Null -> true
  | (Int _ | Float _ | Bool _ | String _ | Null), _ -> false

let rank = function
  | Null -> 0
  | Int _ -> 1
  | Float _ -> 1 (* numeric values compare with each other *)
  | Bool _ -> 2
  | String _ -> 3

let compare a b =
  match a, b with
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Bool x, Bool y -> Stdlib.compare x y
  | String x, String y -> String.compare x y
  | a, b -> Stdlib.compare (rank a) (rank b)

let to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Bool b -> string_of_bool b
  | String s -> s
  | Null -> "NULL"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let as_int = function
  | Int i -> i
  | v -> invalid_arg ("Value.as_int: " ^ to_string v)

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> invalid_arg ("Value.to_float: " ^ to_string v)
