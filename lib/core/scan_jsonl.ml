open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

let path_of schema i = String.split_on_char '.' (Schema.name schema i)

(* One cause per column type, whichever kernel meets the clash. *)
let type_clash (dt : Dtype.t) s =
  let what =
    match dt with Int -> "Int" | Float -> "Float" | Bool -> "Bool" | String -> "String"
  in
  Scan_errors.fail ~offset:s ~field:(-1)
    ~cause:("json: string value in " ^ what ^ " column")

(* copy-accounting site: unquoted/unescaped string values materialize via
   Bytes.sub_string (escaped ones are charged inside Jsonl.unescape) *)
let site_value = Prof_gate.site "jsonl.value"

let sub_copy buf s l =
  Prof_gate.copy site_value l;
  Bytes.sub_string buf s l

(* Under [Null_fill] every emitter is wrapped: a failed conversion records
   the error against its schema column and emits NULL instead (the parse
   raises before anything reaches the builder, so no rollback is needed).
   Under the other policies conversion errors escape to the caller. *)
let protect ~policy col b f =
  match (policy : Scan_errors.policy) with
  | Fail_fast | Skip_row -> f
  | Null_fill ->
    fun k s l ->
      (try f k s l
       with Scan_errors.Error e ->
         Scan_errors.record ~offset:e.offset ~field:col ~cause:e.cause;
         Builder.add_null b)

(* JIT: one monomorphic emitter closure per wanted path, conversion baked
   in. *)
let jit_emitters ~policy buf schema needed builders =
  List.map2
    (fun i b ->
      protect ~policy i b
        (match Schema.dtype schema i with
         | Dtype.Int -> (
             fun (kind : Jsonl.Extract.kind) s l ->
               match kind with
               | Scalar -> Builder.add_int b (Csv.parse_int buf s l)
               | Nul -> Builder.add_null b
               | Quoted _ -> type_clash Dtype.Int s)
         | Dtype.Float -> (
             fun kind s l ->
               match kind with
               | Scalar -> Builder.add_float b (Csv.parse_float buf s l)
               | Nul -> Builder.add_null b
               | Quoted _ -> type_clash Dtype.Float s)
         | Dtype.Bool -> (
             fun kind s l ->
               match kind with
               | Scalar -> Builder.add_bool b (Csv.parse_bool buf s l)
               | Nul -> Builder.add_null b
               | Quoted _ -> type_clash Dtype.Bool s)
         | Dtype.String -> (
             fun kind s l ->
               match kind with
               | Quoted false -> Builder.add_string b (sub_copy buf s l)
               | Quoted true -> Builder.add_string b (Jsonl.unescape buf s l)
               | Nul -> Builder.add_null b
               | Scalar -> Builder.add_string b (sub_copy buf s l))))
    needed builders

(* Interpreted: the payload is the slot index; every emitted value looks up
   the schema and dispatches — the general-purpose operator's behaviour. *)
let interp_emit ~policy buf schema needed builders =
  let slots = Array.of_list needed in
  let bs = Array.of_list builders in
  let emit slot (kind : Jsonl.Extract.kind) s l =
    let b = bs.(slot) in
    match Schema.dtype schema slots.(slot), kind with
    | _, Nul -> Builder.add_null b
    | Dtype.Int, Scalar -> Builder.add_int b (Csv.parse_int buf s l)
    | Dtype.Float, Scalar -> Builder.add_float b (Csv.parse_float buf s l)
    | Dtype.Bool, Scalar -> Builder.add_bool b (Csv.parse_bool buf s l)
    | Dtype.String, Quoted false -> Builder.add_string b (sub_copy buf s l)
    | Dtype.String, Quoted true -> Builder.add_string b (Jsonl.unescape buf s l)
    | Dtype.String, Scalar -> Builder.add_string b (sub_copy buf s l)
    | dt, Quoted _ -> type_clash dt s
  in
  match (policy : Scan_errors.policy) with
  | Fail_fast | Skip_row -> emit
  | Null_fill ->
    fun slot k s l ->
      (try emit slot k s l
       with Scan_errors.Error e ->
         Scan_errors.record ~offset:e.offset ~field:slots.(slot) ~cause:e.cause;
         Builder.add_null bs.(slot))

let make_kernel ~mode ~policy ~file ~schema ~needed =
  let buf = Mmap_file.bytes file in
  let builders =
    List.map (fun i -> Builder.create ~capacity:1024 (Schema.dtype schema i)) needed
  in
  let paths = List.map (fun i -> path_of schema i) needed in
  let run_row =
    match (mode : Scan_csv.mode) with
    | Jit ->
      let emitters = jit_emitters ~policy buf schema needed builders in
      let trie =
        Jsonl.Extract.compile (List.map2 (fun p e -> (p, e)) paths emitters)
      in
      fun pos -> Jsonl.Extract.run buf ~pos ~wanted:trie ~emit:(fun f k s l -> f k s l)
    | Interpreted ->
      let emit = interp_emit ~policy buf schema needed builders in
      let trie =
        Jsonl.Extract.compile (List.mapi (fun slot p -> (p, slot)) paths)
      in
      fun pos -> Jsonl.Extract.run buf ~pos ~wanted:trie ~emit
  in
  let n_rows = ref 0 in
  let row_at pos =
    let next = run_row pos in
    Mmap_file.touch file pos (next - pos);
    incr n_rows;
    (* absent fields become NULL *)
    List.iter
      (fun b -> if Builder.length b < !n_rows then Builder.add_null b)
      builders;
    next
  in
  (builders, row_at, n_rows)

let finish builders needed n_rows n_cols_touched =
  Metrics.add Metrics.jsonl_values_extracted (n_rows * n_cols_touched);
  Metrics.add Metrics.scan_values_built (n_rows * List.length needed);
  Array.of_list (List.map Builder.to_column builders)

let skip_ws buf len p =
  let i = ref p in
  while
    !i < len
    && (match Bytes.unsafe_get buf !i with
        | ' ' | '\t' | '\n' | '\r' -> true
        | _ -> false)
  do
    incr i
  done;
  !i

(* Resync point after a structurally broken row: the next line. *)
let next_line buf len p =
  let i = ref p in
  while !i < len && Bytes.unsafe_get buf !i <> '\n' do
    incr i
  done;
  min len (!i + 1)

let seq_scan_fast ~mode ~file ~schema ~needed () =
  let builders, row_at, n_rows =
    make_kernel ~mode ~policy:Scan_errors.Fail_fast ~file ~schema ~needed
  in
  let buf = Mmap_file.bytes file in
  let len = Mmap_file.length file in
  let starts = Buffer_int.create () in
  let tick = Cancel.batch_checker (Cancel.current ()) in
  let pos = ref (skip_ws buf len 0) in
  while !pos < len do
    tick ();
    Buffer_int.add starts !pos;
    pos := skip_ws buf len (row_at !pos)
  done;
  (finish builders needed !n_rows (List.length needed), Buffer_int.contents starts)

(* The policy-parametric kernel. [Skip_row] scans (and therefore validates)
   every schema column — row identity must not depend on the queried
   columns — and drops a row on any structural or conversion error, rolling
   its partial builder state back. [Null_fill] keeps every physical row:
   conversion errors are nulled in the emitters; a structurally broken row
   yields all-NULL values and resyncs at the next line. *)
let seq_scan_safe ~mode ~policy ?(record = true) ~file ~schema ~needed () =
  let skip = policy = Scan_errors.Skip_row in
  let scan_cols =
    if skip then List.init (Schema.arity schema) (fun i -> i) else needed
  in
  let builders, row_at, n_rows =
    make_kernel ~mode ~policy ~file ~schema ~needed:scan_cols
  in
  let buf = Mmap_file.bytes file in
  let len = Mmap_file.length file in
  let starts = Buffer_int.create () in
  let tick = Cancel.batch_checker (Cancel.current ()) in
  let skipped = ref 0 in
  let pos = ref (skip_ws buf len 0) in
  while !pos < len do
    tick ();
    let start = !pos in
    match row_at start with
    | next ->
      Buffer_int.add starts start;
      pos := skip_ws buf len next
    | exception Scan_errors.Error e ->
      if record then
        Scan_errors.record ~offset:start ~field:e.field ~cause:e.cause;
      let next = next_line buf len start in
      Mmap_file.touch file start (next - start);
      (* roll back whatever the broken row already emitted *)
      List.iter (fun b -> Builder.truncate b !n_rows) builders;
      if skip then incr skipped
      else begin
        n_rows := !n_rows + 1;
        List.iter Builder.add_null builders;
        Buffer_int.add starts start
      end;
      pos := skip_ws buf len next
  done;
  if !skipped > 0 then Metrics.add Metrics.scan_rows_skipped !skipped;
  let columns = finish builders scan_cols !n_rows (List.length scan_cols) in
  let columns =
    if skip then Array.of_list (List.map (fun c -> columns.(c)) needed)
    else columns
  in
  (columns, Buffer_int.contents starts)

let seq_scan ~mode ?(policy = Scan_errors.Fail_fast) ~file ~schema ~needed () =
  match policy with
  | Scan_errors.Fail_fast -> seq_scan_fast ~mode ~file ~schema ~needed ()
  | Scan_errors.Skip_row | Scan_errors.Null_fill ->
    seq_scan_safe ~mode ~policy ~file ~schema ~needed ()

let valid_row_starts ~file ~schema ?(record = false) () =
  snd
    (seq_scan_safe ~mode:Interpreted ~policy:Scan_errors.Skip_row ~record ~file
       ~schema ~needed:[] ())

let fetch ~mode ?(policy = Scan_errors.Fail_fast) ~file ~schema ~row_starts
    ~cols ~rowids () =
  let builders, row_at, n_rows =
    make_kernel ~mode ~policy ~file ~schema ~needed:cols
  in
  let tick = Cancel.batch_checker (Cancel.current ()) in
  Array.iter
    (fun r ->
      tick ();
      match row_at row_starts.(r) with
      | _ -> ()
      | exception Scan_errors.Error e ->
        (* [Skip_row] row ids only name validated rows; a structural error
           there is real. Under [Null_fill] the row exists but is broken:
           record it and fetch NULLs. *)
        if policy <> Scan_errors.Null_fill then raise (Scan_errors.Error e);
        Scan_errors.record ~offset:row_starts.(r) ~field:e.field ~cause:e.cause;
        List.iter (fun b -> Builder.truncate b !n_rows) builders;
        n_rows := !n_rows + 1;
        List.iter Builder.add_null builders)
    rowids;
  finish builders cols (Array.length rowids) (List.length cols)

(* ------------------------------------------------------------------ *)
(* Flattened child tables over arrays of objects                       *)
(* ------------------------------------------------------------------ *)

let array_index ~file ~row_starts ~array_path =
  let buf = Mmap_file.bytes file in
  let parents = Buffer_int.create () in
  let positions = Buffer_int.create () in
  Array.iteri
    (fun row start ->
      let stop =
        Jsonl.Extract.iter_array_objects buf ~pos:start ~path:array_path
          ~f:(fun pos ->
            Buffer_int.add parents row;
            Buffer_int.add positions pos)
      in
      Mmap_file.touch file start (stop - start))
    row_starts;
  (Buffer_int.contents parents, Buffer_int.contents positions)

let scan_array ~mode ?(policy = Scan_errors.Fail_fast) ~file ~schema
    ~index:(parents, positions) ~needed ~rowids () =
  let ids =
    match rowids with
    | Some ids -> ids
    | None -> Array.init (Array.length parents) (fun i -> i)
  in
  (* schema column 0 is the parent row id; element fields start at 1 *)
  let elem_cols = List.filter (fun c -> c > 0) needed in
  let builders, row_at, n_rows =
    make_kernel ~mode ~policy ~file ~schema ~needed:elem_cols
  in
  (* Element identity is pinned by the parent-side array index, so a child
     table can never drop rows without invalidating it: both lenient
     policies degrade a structurally broken element to all-NULL fields. *)
  Array.iter
    (fun r ->
      match row_at positions.(r) with
      | _ -> ()
      | exception Scan_errors.Error e ->
        if policy = Scan_errors.Fail_fast then raise (Scan_errors.Error e);
        Scan_errors.record ~offset:positions.(r) ~field:e.field ~cause:e.cause;
        List.iter (fun b -> Builder.truncate b !n_rows) builders;
        n_rows := !n_rows + 1;
        List.iter Builder.add_null builders)
    ids;
  let elem_columns =
    finish builders elem_cols (Array.length ids) (List.length elem_cols)
  in
  Array.of_list
    (List.map
       (fun c ->
         if c = 0 then
           Column.of_int_array (Array.map (fun r -> parents.(r)) ids)
         else
           let rec find k = function
             | [] -> assert false
             | c' :: _ when c' = c -> elem_columns.(k)
             | _ :: rest -> find (k + 1) rest
           in
           find 0 elem_cols)
       needed)
