open Raw_vector
open Raw_storage

(* ---------- generation ---------- *)

let write_file ~path ?(sep = ',') ~header ~rows () =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let sep_s = String.make 1 sep in
      let put fields = output_string oc (String.concat sep_s fields); output_char oc '\n' in
      (match header with Some h -> put h | None -> ());
      Seq.iter put rows)

let render_value (v : Value.t) =
  match v with
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.3f" f
  | Bool b -> if b then "1" else "0"
  | String s -> s
  | Null -> ""

let generate ~path ?(sep = ',') ~n_rows ~dtypes ~seed () =
  let st = Random.State.make [| seed |] in
  let words = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot" |] in
  let render dt =
    match (dt : Dtype.t) with
    | Int -> string_of_int (Random.State.int st 1_000_000_000)
    | Float -> Printf.sprintf "%.3f" (Random.State.float st 1e9)
    | Bool -> if Random.State.bool st then "1" else "0"
    | String ->
      words.(Random.State.int st (Array.length words))
      ^ string_of_int (Random.State.int st 1000)
  in
  let rows =
    Seq.init n_rows (fun _ -> Array.to_list (Array.map render dtypes))
  in
  write_file ~path ~sep ~header:None ~rows ()

(* ---------- fast parsers ----------

   Decode failures raise the typed Scan_errors.Error with the field's own
   byte offset; scan kernels catch it and re-attribute to (row offset,
   source column) before recording or re-raising under the active error
   policy. Malformed data is user input, not a programmer error, so none
   of these paths use failwith/assert. *)

(* copy-accounting sites, precomputed once so the profiled path does not
   allocate; each Prof_gate.copy is one domain-local read + branch when
   profiling is off. "csv.field" charges string materialization of parsed
   fields; "csv.value" charges the slow-path numeric/bool decoders that
   fall back to an intermediate string. *)
let site_field = Prof_gate.site "csv.field"
let site_value = Prof_gate.site "csv.value"

let bad_int ~pos = Scan_errors.fail ~offset:pos ~field:(-1) ~cause:"bad int"
let bad_float ~pos = Scan_errors.fail ~offset:pos ~field:(-1) ~cause:"bad float"
let bad_bool ~pos = Scan_errors.fail ~offset:pos ~field:(-1) ~cause:"bad bool"

(* More than 18 digits may overflow the 63-bit int: accumulate negatively
   (|min_int| > max_int) and reject any step that would pass min_int. *)
let parse_int_long buf ~pos i0 stop neg =
  let acc = ref 0 in
  for i = i0 to stop - 1 do
    let c = Char.code (Bytes.unsafe_get buf i) - Char.code '0' in
    if c < 0 || c > 9 || !acc < (min_int + c) / 10 then bad_int ~pos;
    acc := (!acc * 10) - c
  done;
  if neg then !acc else if !acc = min_int then bad_int ~pos else - !acc

let parse_int buf pos len =
  if len = 0 then bad_int ~pos;
  let stop = pos + len in
  let neg = Bytes.unsafe_get buf pos = '-' in
  let i0 = if neg || Bytes.unsafe_get buf pos = '+' then pos + 1 else pos in
  if i0 >= stop then bad_int ~pos;
  (* up to 18 digits always fit, so the common case pays one compare *)
  if stop - i0 > 18 then parse_int_long buf ~pos i0 stop neg
  else begin
    let acc = ref 0 in
    for i = i0 to stop - 1 do
      let c = Char.code (Bytes.unsafe_get buf i) - Char.code '0' in
      if c < 0 || c > 9 then bad_int ~pos;
      acc := (!acc * 10) + c
    done;
    if neg then - !acc else !acc
  end

(* 10^0 .. 10^22: every entry is an exact double *)
let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

let parse_float_slow buf pos len =
  Prof_gate.copy site_value len;
  match float_of_string_opt (Bytes.sub_string buf pos len) with
  | Some f -> f
  | None -> bad_float ~pos

(* Clinger's fast path: digits accumulate into an integer mantissa that
   stays exact below 2^53 (every decimal of at most 15 significant digits
   does), and one division by an exact 10^k, k <= 22, is then correctly
   rounded. Anything else — more digits, exponents, odd syntax — takes the
   correctly rounded [float_of_string] path. *)
let parse_float buf pos len =
  if len = 0 then bad_float ~pos;
  let stop = pos + len in
  let neg = Bytes.unsafe_get buf pos = '-' in
  let i0 = if neg || Bytes.unsafe_get buf pos = '+' then pos + 1 else pos in
  let i = ref i0 in
  let mantissa = ref 0. in
  (* integer part *)
  let continue_ = ref true in
  while !continue_ && !i < stop do
    let c = Bytes.unsafe_get buf !i in
    if c >= '0' && c <= '9' then begin
      mantissa := (!mantissa *. 10.) +. float_of_int (Char.code c - 48);
      incr i
    end
    else continue_ := false
  done;
  let int_digits = !i - i0 in
  (* fraction *)
  let frac_digits =
    if !i < stop && Bytes.unsafe_get buf !i = '.' then begin
      incr i;
      let f0 = !i in
      let continue_ = ref true in
      while !continue_ && !i < stop do
        let c = Bytes.unsafe_get buf !i in
        if c >= '0' && c <= '9' then begin
          mantissa := (!mantissa *. 10.) +. float_of_int (Char.code c - 48);
          incr i
        end
        else continue_ := false
      done;
      !i - f0
    end
    else 0
  in
  if
    !i < stop
    || int_digits + frac_digits = 0
    || frac_digits >= Array.length pow10
    || !mantissa >= 9007199254740992. (* 2^53 *)
  then parse_float_slow buf pos len
  else
    let f = !mantissa /. Array.unsafe_get pow10 frac_digits in
    if neg then -. f else f

let parse_bool buf pos len =
  if len = 1 then
    match Bytes.get buf pos with
    | '1' | 't' | 'T' -> true
    | '0' | 'f' | 'F' -> false
    | _ -> bad_bool ~pos
  else begin
    Prof_gate.copy site_value len;
    match String.lowercase_ascii (Bytes.sub_string buf pos len) with
    | "true" -> true
    | "false" -> false
    | _ -> bad_bool ~pos
  end

let parse_string buf pos len =
  Prof_gate.copy site_field len;
  Bytes.sub_string buf pos len

(* ---------- stop-byte scanning ----------

   SWAR ("SIMD within a register", Zhang's speculative fast path): test 8
   bytes per step for a stop byte, then finish byte by byte. [has_byte w m]
   is nonzero iff some byte of [w] equals the byte repeated in [m] — the
   has-zero-byte test on [w lxor m], exact as a yes/no answer. Which byte
   matched is left to the byte loop, so byte order does not matter. *)

let ones = 0x0101_0101_0101_0101L
let highs = 0x8080_8080_8080_8080L
let splat c = Int64.mul ones (Int64.of_int (Char.code c))
let nl_mask = splat '\n'
let cr_mask = splat '\r'

let[@inline] has_byte w m =
  let x = Int64.logxor w m in
  Int64.logand (Int64.logand (Int64.sub x ones) (Int64.lognot x)) highs

(* First index in [pos, limit) holding [sep], '\n' or '\r'; [limit] if none. *)
let find_stop buf pos limit sep =
  let sep_mask = splat sep in
  let i = ref pos in
  while
    !i + 8 <= limit
    &&
    let w = Bytes.get_int64_le buf !i in
    Int64.logor (has_byte w sep_mask)
      (Int64.logor (has_byte w nl_mask) (has_byte w cr_mask))
    = 0L
  do
    i := !i + 8
  done;
  while
    !i < limit
    &&
    let c = Bytes.unsafe_get buf !i in
    c <> sep && c <> '\n' && c <> '\r'
  do
    incr i
  done;
  !i

(* First index in [pos, limit) holding '\n'; [limit] if none. *)
let find_newline buf pos limit =
  let i = ref pos in
  while !i + 8 <= limit && has_byte (Bytes.get_int64_le buf !i) nl_mask = 0L do
    i := !i + 8
  done;
  while !i < limit && Bytes.unsafe_get buf !i <> '\n' do
    incr i
  done;
  !i

(* ---------- navigation ---------- *)

module Cursor = struct
  type t = {
    file : Mmap_file.t;
    buf : Bytes.t;
    len : int;
    sep : char;
    mutable pos : int;
  }

  let create ?(sep = ',') ?(pos = 0) ?limit file =
    let len =
      match limit with
      | Some l -> min l (Mmap_file.length file)
      | None -> Mmap_file.length file
    in
    { file; buf = Mmap_file.bytes file; len; sep; pos }

  let file t = t.file
  let sep t = t.sep
  let pos t = t.pos
  let seek t p = t.pos <- p
  let at_eof t = t.pos >= t.len

  (* A field ends at the separator, at a line terminator ('\r' of a CRLF
     ending or a bare '\n'), or at EOF. At a terminator or EOF the field is
     empty and the cursor does not move — this is how an empty final field
     ("a,b,") parses, with [skip_line] consuming the terminator. Returns the
     field's end and advances past the separator, if there is one. *)
  let[@inline] scan_field t =
    let start = t.pos in
    let stop = find_stop t.buf start t.len t.sep in
    if stop > start || stop < t.len then
      Mmap_file.touch t.file start (stop - start + 1);
    if stop < t.len && Bytes.unsafe_get t.buf stop = t.sep then t.pos <- stop + 1
    else t.pos <- stop;
    stop

  let next_field t =
    let start = t.pos in
    (start, scan_field t - start)

  let skip_field t = ignore (scan_field t)

  let skip_fields t n = for _ = 1 to n do ignore (scan_field t) done

  let at_end_of_line t =
    t.pos >= t.len
    ||
    let c = Bytes.unsafe_get t.buf t.pos in
    c = '\n' || c = '\r'

  let skip_line t =
    let start = t.pos in
    t.pos <- min (find_newline t.buf start t.len + 1) t.len;
    Mmap_file.touch t.file start (t.pos - start)
end

let count_rows file =
  let buf = Mmap_file.bytes file in
  let len = Mmap_file.length file in
  let n = ref 0 in
  let i = ref (find_newline buf 0 len) in
  while !i < len do
    incr n;
    i := find_newline buf (!i + 1) len
  done;
  if len > 0 && Bytes.get buf (len - 1) <> '\n' then incr n;
  !n

(* ---------- morsels ---------- *)

(* Row-aligned byte ranges for a morsel-driven parallel scan: cut the file
   into ~[n] equal spans, then push each cut forward to just past the next
   newline so every morsel holds whole rows. The boundary probe reads raw
   bytes without page accounting — it inspects O(n) positions, not the file.
   Ranges are non-empty, ordered, and partition [0, length). A file of fewer
   rows than [n] yields fewer ranges. *)
let row_aligned_ranges file ~n =
  let len = Mmap_file.length file in
  let buf = Mmap_file.bytes file in
  if len = 0 then []
  else if n <= 1 then [ (0, len) ]
  else begin
    let target = (len + n - 1) / n in
    let rec go start acc =
      if start >= len then List.rev acc
      else begin
        let cut = start + target in
        if cut >= len then List.rev ((start, len) :: acc)
        else begin
          let i = ref cut in
          while !i < len && Bytes.unsafe_get buf !i <> '\n' do incr i done;
          let stop = min (!i + 1) len in
          go stop ((start, stop) :: acc)
        end
      end
    in
    go 0 []
  end
