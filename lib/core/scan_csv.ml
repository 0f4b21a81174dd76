open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

type mode = Interpreted | Jit

let mode_to_string = function Interpreted -> "interp" | Jit -> "jit"

(* ------------------------------------------------------------------ *)
(* The field program                                                   *)
(* ------------------------------------------------------------------ *)

(* One query's per-row work over source columns [first..last], as data.
   A run of untouched fields is one [Skip]; every other column is a
   [Field]: tokenized, recorded into the positional map when [track]ed,
   then converted into a builder, validated and discarded (Skip_row's
   schema-wide row check), or kept only as a position. *)
type use = Position | Convert of Dtype.t * Builder.t | Validate of Dtype.t
type step = Skip of int | Field of { col : int; track : bool; use : use }

type program = {
  policy : Scan_errors.policy;
  first : int;
  width : int;  (** fields tokenized per row: [last - first + 1] *)
  steps : step array;
  builders : Builder.t list;  (** in [needed] order *)
}

let program ~policy ~schema ~needed ~tracked ~first =
  let src i = (Schema.field schema i).Schema.source_index in
  let conv =
    List.map
      (fun i ->
        let dt = Schema.dtype schema i in
        (src i, (dt, Builder.create ~capacity:1024 dt)))
      needed
  in
  (* Skip_row checks every schema column: row identity must not depend on
     which columns a query reads, or positional maps, cached row counts and
     the shred pool would disagree between queries *)
  let checks =
    if policy <> Scan_errors.Skip_row then []
    else List.init (Schema.arity schema) (fun i -> (src i, Schema.dtype schema i))
  in
  let last =
    List.fold_left max (-1) (tracked @ List.map fst conv @ List.map fst checks)
  in
  let steps = ref [] and run = ref 0 in
  let flush () = if !run > 0 then steps := Skip !run :: !steps; run := 0 in
  let emit s = flush (); steps := s :: !steps in
  for col = first to last do
    let track = List.mem col tracked in
    match List.assoc_opt col conv, List.assoc_opt col checks with
    | Some (dt, b), _ -> emit (Field { col; track; use = Convert (dt, b) })
    | None, Some (Dtype.(Int | Float | Bool) as dt) ->
      emit (Field { col; track; use = Validate dt })
    | None, _ -> if track then emit (Field { col; track; use = Position }) else incr run
  done;
  flush ();
  {
    policy;
    first;
    width = max 0 (last - first + 1);
    steps = Array.of_list (List.rev !steps);
    builders = List.map (fun (_, (_, b)) -> b) conv;
  }

(* Work counters: a finished row tokenized [width] fields and converted one
   value per builder; a row dropped at [col] stopped there. *)
let count p ~rows ~dropped_at =
  let partial (tok, conv) col =
    let before = function
      | Field { col = c; use = Convert _; _ } when c < col -> 1
      | _ -> 0
    in
    ( tok + col - p.first + 1,
      conv + Array.fold_left (fun n s -> n + before s) 0 p.steps )
  in
  let tok, conv = List.fold_left partial (0, 0) dropped_at in
  let n_conv = rows * List.length p.builders + conv in
  Metrics.add Metrics.csv_fields_tokenized ((rows * p.width) + tok);
  Metrics.add Metrics.csv_values_converted n_conv;
  Metrics.add Metrics.scan_values_built n_conv

(* ------------------------------------------------------------------ *)
(* Two compilations                                                    *)
(* ------------------------------------------------------------------ *)

(* Skip_row's verdict on a row: the source column and cause of the field
   that sank it. *)
exception Drop of int * string

(* Interpreted: the data type is dispatched per field. *)
let decode buf (dt : Dtype.t) b p l =
  match dt with
  | Int -> Builder.add_int b (Csv.parse_int buf p l)
  | Float -> Builder.add_float b (Csv.parse_float buf p l)
  | Bool -> Builder.add_bool b (Csv.parse_bool buf p l)
  | String -> Builder.add_string b (Csv.parse_string buf p l)

(* Skip_row's validation, in both modes: a row check, not a hot path. *)
let check buf (dt : Dtype.t) p l =
  match dt with
  | Int -> ignore (Csv.parse_int buf p l)
  | Float -> ignore (Csv.parse_float buf p l)
  | Bool -> ignore (Csv.parse_bool buf p l)
  | String -> ()

(* Jit: the conversion is selected once, when the kernel is composed. *)
let converter buf (dt : Dtype.t) b : int -> int -> unit =
  match dt with
  | Int -> fun p l -> Builder.add_int b (Csv.parse_int buf p l)
  | Float -> fun p l -> Builder.add_float b (Csv.parse_float buf p l)
  | Bool -> fun p l -> Builder.add_bool b (Csv.parse_bool buf p l)
  | String -> fun p l -> Builder.add_string b (Csv.parse_string buf p l)

(* A bad field under the program's policy: Fail_fast lets the typed error
   escape, Skip_row sinks the row, Null_fill records the field against its
   row ([locate] runs on this path only) and decodes it to NULL. *)
let on_error p ~locate col b (e : Scan_errors.sample) =
  match p.policy, b with
  | Scan_errors.Skip_row, _ -> raise (Drop (col, e.cause))
  | Null_fill, Some b ->
    Scan_errors.record ~offset:(locate ()) ~field:col ~cause:e.cause;
    Builder.add_null b
  | _ -> raise (Scan_errors.Error e)

(* The Jit body of a field's [use]: conversion baked in, and a handler only
   when the policy has one. *)
let jit_use p ~buf ~locate col use =
  let guard b f =
    match p.policy with
    | Scan_errors.Fail_fast -> f
    | Skip_row | Null_fill ->
      fun pos len ->
        try f pos len with Scan_errors.Error e -> on_error p ~locate col b e
  in
  match use with
  | Position -> None
  | Convert (dt, b) -> Some (guard (Some b) (converter buf dt b))
  | Validate dt -> Some (guard None (check buf dt))

let compile ~mode p ~file ~cur ~pm ~locate =
  let buf = Mmap_file.bytes file in
  match mode with
  | Interpreted ->
    (* walk the program per row: per-step and per-field dispatch, and an
       error check around every decode *)
    let run = function
      | Skip n -> for _ = 1 to n do Csv.Cursor.skip_field cur done
      | Field { col; track; use } -> (
        let pos, len = Csv.Cursor.next_field cur in
        (match pm with
         | Some pm when track -> Posmap.Build.record pm ~col ~pos ~len
         | _ -> ());
        match use with
        | Position -> ()
        | Convert (dt, b) -> (
          try decode buf dt b pos len
          with Scan_errors.Error e -> on_error p ~locate col (Some b) e)
        | Validate dt -> (
          try check buf dt pos len
          with Scan_errors.Error e -> on_error p ~locate col None e))
    in
    fun () -> Array.iter run p.steps
  | Jit ->
    (* compose one closure per step into the "generated" row function *)
    let record col =
      match pm with
      | Some pm -> fun pos len -> Posmap.Build.record pm ~col ~pos ~len
      | None -> fun _ _ -> ()
    in
    let step = function
      | Skip 1 -> fun () -> Csv.Cursor.skip_field cur
      | Skip n -> fun () -> Csv.Cursor.skip_fields cur n
      | Field { col; track; use } -> (
        let r = record col in
        match track, jit_use p ~buf ~locate col use with
        | false, Some f ->
          fun () ->
            let pos, len = Csv.Cursor.next_field cur in
            f pos len
        | true, Some f ->
          fun () ->
            let pos, len = Csv.Cursor.next_field cur in
            r pos len;
            f pos len
        | _, None ->
          fun () ->
            let pos, len = Csv.Cursor.next_field cur in
            r pos len)
    in
    let rec compose = function
      | [] -> fun () -> ()
      | [ f ] -> f
      | f :: rest ->
        let g = compose rest in
        fun () ->
          f ();
          g ()
    in
    compose (List.map step (Array.to_list p.steps))

(* ------------------------------------------------------------------ *)
(* Row source 1: a cursor over a byte range                            *)
(* ------------------------------------------------------------------ *)

let scan ~mode ~policy ~record ?range ~file ~sep ~schema ~needed ~tracked () =
  let lo, hi =
    match range with Some r -> r | None -> (0, Mmap_file.length file)
  in
  let cur = Csv.Cursor.create ~sep ~pos:lo ~limit:hi file in
  let p = program ~policy ~schema ~needed ~tracked ~first:0 in
  let pm = if tracked = [] then None else Some (Posmap.Build.create ~tracked) in
  let row_start = ref lo in
  let row = compile ~mode p ~file ~cur ~pm ~locate:(fun () -> !row_start) in
  let tick = Cancel.batch_checker (Cancel.current ()) in
  let rows = ref 0 and dropped_at = ref [] in
  while not (Csv.Cursor.at_eof cur) do
    tick ();
    row_start := Csv.Cursor.pos cur;
    (match row () with
     | () ->
       Option.iter Posmap.Build.end_row pm;
       incr rows
     | exception Drop (col, cause) ->
       (* drop the whole row, rolling back whatever it recorded *)
       if record then Scan_errors.record ~offset:!row_start ~field:col ~cause;
       List.iter (fun b -> Builder.truncate b !rows) p.builders;
       Option.iter Posmap.Build.abort_row pm;
       dropped_at := col :: !dropped_at);
    Csv.Cursor.skip_line cur
  done;
  count p ~rows:!rows ~dropped_at:!dropped_at;
  if !dropped_at <> [] then
    Metrics.add Metrics.scan_rows_skipped (List.length !dropped_at);
  ( Array.of_list (List.map Builder.to_column p.builders),
    Option.map Posmap.Build.finish pm,
    !rows )

let seq_scan ~mode ?(policy = Scan_errors.Fail_fast) ?range ~file ~sep ~schema
    ~needed ~tracked () =
  let cols, pm, _ =
    scan ~mode ~policy ~record:true ?range ~file ~sep ~schema ~needed ~tracked ()
  in
  (cols, pm)

(* The catalog sizes a table once; the passes that produce data do the
   reporting, so this one records only on request. *)
let count_valid_rows ~file ~sep ~schema ?(record = false) () =
  let _, _, n =
    scan ~mode:Jit ~policy:Scan_errors.Skip_row ~record ~file ~sep ~schema
      ~needed:[] ~tracked:[] ()
  in
  n

(* Each worker domain runs the sequential scan over one row-aligned byte
   range against a private Mmap_file view; the coordinator concatenates
   column segments in morsel order, stitches posmap segments (positions are
   absolute, so no shifting), and absorbs per-view page counters. *)
let par_scan ~mode ?(policy = Scan_errors.Fail_fast) ~parallelism ~file ~sep
    ~schema ~needed ~tracked () =
  let ranges =
    if parallelism <= 1 then [] else Csv.row_aligned_ranges file ~n:parallelism
  in
  match ranges with
  | [] | [ _ ] -> seq_scan ~mode ~policy ~file ~sep ~schema ~needed ~tracked ()
  | ranges ->
    let parts =
      Morsel.map_domains
        (fun range ->
          let view = Mmap_file.fork_view file in
          let cols, pm =
            seq_scan ~mode ~policy ~range ~file:view ~sep ~schema ~needed
              ~tracked ()
          in
          (cols, pm, view))
        ranges
    in
    List.iter (fun (_, _, view) -> Mmap_file.absorb ~into:file view) parts;
    let n_cols =
      match parts with (cols, _, _) :: _ -> Array.length cols | [] -> 0
    in
    let columns =
      Array.init n_cols (fun k ->
          Column.concat (List.map (fun (cols, _, _) -> cols.(k)) parts))
    in
    let pm =
      match List.filter_map (fun (_, pm, _) -> pm) parts with
      | [] -> None
      | segs -> Some (Posmap.concat segs)
    in
    (columns, pm)

(* ------------------------------------------------------------------ *)
(* Row source 2: a positional-map seek plus a start column             *)
(* ------------------------------------------------------------------ *)

let first_source schema cols =
  match List.map (fun i -> (Schema.field schema i).Schema.source_index) cols with
  | [] -> invalid_arg "Scan_csv.fetch: no columns"
  | s :: rest -> List.fold_left min s rest

let can_fetch ~schema ~posmap ~cols =
  cols <> []
  && Option.is_some
       (Posmap.nearest_at_or_before posmap (first_source schema cols))

(* Byte offset of the row holding [pos]: rows are newline-delimited and no
   field spans a newline. *)
let line_start buf pos =
  let i = ref pos in
  while !i > 0 && Bytes.get buf (!i - 1) <> '\n' do decr i done;
  !i

let fetch ~mode ?(policy = Scan_errors.Fail_fast) ~file ~sep ~schema ~posmap
    ~cols ~rowids () =
  let tcol, positions =
    match Posmap.nearest_at_or_before posmap (first_source schema cols) with
    | Some x -> x
    | None -> failwith "Scan_csv.fetch: positional map cannot reach column"
  in
  (* Skip_row row ids only name rows its scan validated schema-wide, so
     they fetch like Fail_fast *)
  let policy =
    if policy = Scan_errors.Null_fill then policy else Scan_errors.Fail_fast
  in
  let p = program ~policy ~schema ~needed:cols ~tracked:[] ~first:tcol in
  let r = ref 0 in
  let locate () =
    if Posmap.is_tracked posmap 0 then Posmap.position posmap ~row:!r ~col:0
    else line_start (Mmap_file.bytes file) positions.(!r)
  in
  let tick = Cancel.batch_checker (Cancel.current ()) in
  let n = Array.length rowids in
  (match mode, p.steps, Posmap.lengths posmap tcol with
   | Jit, [| Field { col; use; _ } |], Some lens ->
     (* a single tracked column with recorded lengths needs no tokenizing
        at all — the paper's "custom atoi" case *)
     let f = Option.get (jit_use p ~buf:(Mmap_file.bytes file) ~locate col use) in
     for k = 0 to n - 1 do
       tick ();
       r := rowids.(k);
       let pos = positions.(!r) and len = lens.(!r) in
       Mmap_file.touch file pos len;
       f pos len
     done
   | _ ->
     let cur = Csv.Cursor.create ~sep file in
     let row = compile ~mode p ~file ~cur ~pm:None ~locate in
     for k = 0 to n - 1 do
       tick ();
       r := rowids.(k);
       Csv.Cursor.seek cur positions.(!r);
       row ()
     done);
  count p ~rows:n ~dropped_at:[];
  Array.of_list (List.map Builder.to_column p.builders)
