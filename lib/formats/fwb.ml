open Raw_vector
open Raw_storage

type layout = {
  dtypes : Dtype.t array;
  offsets : int array;
  row_size : int;
}

let layout dtypes =
  let n = Array.length dtypes in
  let offsets = Array.make n 0 in
  let off = ref 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- !off;
    match Dtype.fixed_width dtypes.(i) with
    | Some w -> off := !off + w
    | None ->
      invalid_arg
        (Printf.sprintf "Fwb.layout: field %d has variable-width type %s" i
           (Dtype.to_string dtypes.(i)))
  done;
  { dtypes; offsets; row_size = !off }

let row_size l = l.row_size
let field_offset l i = l.offsets.(i)
let dtypes l = l.dtypes
let n_fields l = Array.length l.dtypes

let offset_of l ~row ~field = (row * l.row_size) + l.offsets.(field)

let n_rows_floor l file =
  let len = Mmap_file.length file in
  if l.row_size = 0 then 0 else len / l.row_size

let trailing_bytes l file =
  let len = Mmap_file.length file in
  if l.row_size = 0 then 0 else len mod l.row_size

let n_rows l file =
  let len = Mmap_file.length file in
  if l.row_size = 0 then 0
  else begin
    (* a ragged length is malformed user data (e.g. a truncated write or a
       short read), not a programmer error: raise the typed scan error so
       policies can degrade to [n_rows_floor] whole rows *)
    if len mod l.row_size <> 0 then
      Scan_errors.fail
        ~offset:(len - (len mod l.row_size))
        ~field:(-1) ~cause:"fwb: trailing bytes";
    len / l.row_size
  end

let read_int file pos =
  Mmap_file.touch file pos 8;
  Int64.to_int (Bytes.get_int64_le (Mmap_file.bytes file) pos)

let read_float file pos =
  Mmap_file.touch file pos 8;
  Int64.float_of_bits (Bytes.get_int64_le (Mmap_file.bytes file) pos)

let read_bool file pos =
  Mmap_file.touch file pos 1;
  Bytes.get (Mmap_file.bytes file) pos <> '\000'

let write_field buf off (dt : Dtype.t) (v : Value.t) =
  match dt, v with
  | Int, Int x -> Bytes.set_int64_le buf off (Int64.of_int x)
  | Float, Float x -> Bytes.set_int64_le buf off (Int64.bits_of_float x)
  | Float, Int x ->
    Bytes.set_int64_le buf off (Int64.bits_of_float (float_of_int x))
  | Bool, Bool x -> Bytes.set buf off (if x then '\001' else '\000')
  | _, _ ->
    invalid_arg
      (Printf.sprintf "Fwb.write_file: %s field given %s" (Dtype.to_string dt)
         (Value.to_string v))

let write_file ~path l rows =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let buf = Bytes.create l.row_size in
      Seq.iter
        (fun row ->
          if Array.length row <> n_fields l then
            invalid_arg "Fwb.write_file: row arity mismatch";
          Array.iteri (fun i v -> write_field buf l.offsets.(i) l.dtypes.(i) v) row;
          output_bytes oc buf)
        rows)

let row_values ~path:_ ~n_rows ~dtypes ~seed =
  (* Mirrors Csv.generate's distributions so CSV and FWB files built with the
     same seed hold the same logical data. Strings are excluded upstream. *)
  fun () ->
    let st = Random.State.make [| seed |] in
    let words = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot" |] in
    let gen dt : Value.t =
      match (dt : Dtype.t) with
      | Int -> Int (Random.State.int st 1_000_000_000)
      | Float ->
        (* round to 3 decimals like the CSV rendering, so both formats agree *)
        let x = Random.State.float st 1e9 in
        Float (Float.of_string (Printf.sprintf "%.3f" x))
      | Bool -> Bool (Random.State.bool st)
      | String ->
        String
          (words.(Random.State.int st (Array.length words))
          ^ string_of_int (Random.State.int st 1000))
    in
    let rec next i () =
      if i >= n_rows then Seq.Nil
      else Seq.Cons (Array.map gen dtypes, next (i + 1))
    in
    next 0 ()

let generate ~path ~n_rows ~dtypes ~seed () =
  write_file ~path (layout dtypes) (row_values ~path ~n_rows ~dtypes ~seed)
