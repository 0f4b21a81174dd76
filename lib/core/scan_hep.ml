open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

(* [rowids] are always actual entry ids; [policy] only governs what a full
   enumeration ([rowids = None]) means. A HEP record whose structure is
   corrupt has no recoverable fields — the record boundary itself is gone —
   so {e both} lenient policies enumerate the structurally valid entries
   ([Null_fill] degrades to skip; see DESIGN.md) and record the rest. *)
let entry_ids ~policy reader = function
  | Some ids -> ids
  | None ->
    (match (policy : Scan_errors.policy) with
     | Fail_fast -> Array.init (Hep.Reader.n_events reader) (fun i -> i)
     | Skip_row | Null_fill ->
       Hep.Reader.record_invalid_entries reader;
       Hep.Reader.valid_entries reader)

(* One schema column's read, selected once per table kind: events read
   entry fields; particle rows map through the (entry, item) index. *)
type reader = Ints of (int -> int) | Floats of (int -> float)

let event_reader reader = function
  | 0 -> Ints (Hep.Reader.read_event_id reader)
  | 1 -> Ints (Hep.Reader.read_run_number reader)
  | _ -> invalid_arg "Scan_hep.scan_events: bad column"

let particle_reader reader coll (entry_of, item_of) col =
  let read field =
    Floats
      (fun r ->
        Hep.Reader.read_particle_field reader ~entry:entry_of.(r) coll
          ~item:item_of.(r) field)
  in
  match col with
  | 0 -> Ints (fun r -> Hep.Reader.read_event_id reader entry_of.(r))
  | 1 -> read Hep.Pt
  | 2 -> read Hep.Eta
  | 3 -> read Hep.Phi
  | _ -> invalid_arg "Scan_hep.scan_particles: bad column"

(* Read [readers] at record ids [ids]. Inline land-mask checks, as in
   Scan_fwb: a dead branch when the cancel token is inactive. *)
let scan ~mode readers ids =
  let n = Array.length ids in
  let cancel = Cancel.current () in
  let live = Cancel.active cancel in
  let column r =
    Cancel.check cancel;
    match (mode : Scan_csv.mode), r with
    | Jit, Ints f ->
      (* monomorphic loops over the selected reader *)
      let a = Array.make n 0 in
      for k = 0 to n - 1 do
        if live && k land 0xFFF = 0xFFF then Cancel.check cancel;
        a.(k) <- f ids.(k)
      done;
      Column.of_int_array a
    | Jit, Floats f ->
      let a = Array.make n 0. in
      for k = 0 to n - 1 do
        if live && k land 0xFFF = 0xFFF then Cancel.check cancel;
        a.(k) <- f ids.(k)
      done;
      Column.of_float_array a
    | Interpreted, _ ->
      (* general-purpose: the reader's type dispatched per value *)
      let b =
        Builder.create ~capacity:n
          (match r with Ints _ -> Dtype.Int | Floats _ -> Dtype.Float)
      in
      for k = 0 to n - 1 do
        if live && k land 0xFFF = 0xFFF then Cancel.check cancel;
        match r with
        | Ints f -> Builder.add_int b (f ids.(k))
        | Floats f -> Builder.add_float b (f ids.(k))
      done;
      Builder.to_column b
  in
  let out = List.map column readers in
  Metrics.add Metrics.hep_fields_read (n * List.length readers);
  Metrics.add Metrics.scan_values_built (n * List.length readers);
  if live then Metrics.add Metrics.scan_rows_scanned n;
  Array.of_list out

(* Morsel-driven parallel scan over the record index (entry ids, or dense
   particle row ids): contiguous slices of [ids], one worker domain per
   slice against a forked reader, columns concatenated in slice order —
   bit-identical to the sequential scan. *)
let par ~parallelism ~reader ids scan_with =
  let slices =
    if parallelism <= 1 then []
    else Morsel.split_range ~lo:0 ~hi:(Array.length ids) ~n:parallelism
  in
  match slices with
  | [] | [ _ ] -> scan_with reader ids
  | slices ->
    let parts =
      Morsel.map_domains
        (fun (lo, hi) ->
          let r = Hep.Reader.fork_view reader in
          (scan_with r (Array.sub ids lo (hi - lo)), r))
        slices
    in
    List.iter
      (fun (_, r) ->
        Mmap_file.absorb ~into:(Hep.Reader.file reader) (Hep.Reader.file r))
      parts;
    let n_cols = match parts with (cols, _) :: _ -> Array.length cols | [] -> 0 in
    Array.init n_cols (fun k ->
        Column.concat (List.map (fun (cols, _) -> cols.(k)) parts))

let par_scan_events ~mode ?(policy = Scan_errors.Fail_fast) ~parallelism
    ~reader ~needed ~rowids () =
  (* resolve the enumeration (and its error recording) exactly once *)
  par ~parallelism ~reader (entry_ids ~policy reader rowids) (fun r ids ->
      scan ~mode (List.map (event_reader r) needed) ids)

let scan_events ~mode ?policy ~reader ~needed ~rowids () =
  par_scan_events ~mode ?policy ~parallelism:1 ~reader ~needed ~rowids ()

let par_scan_particles ~mode ~parallelism ~reader ~coll ~index ~needed ~rowids
    =
  let ids =
    match rowids with
    | Some ids -> ids
    | None -> Array.init (Array.length (fst index)) Fun.id
  in
  par ~parallelism ~reader ids (fun r ids ->
      scan ~mode (List.map (particle_reader r coll index) needed) ids)

let scan_particles ~mode ~reader ~coll ~index ~needed ~rowids =
  par_scan_particles ~mode ~parallelism:1 ~reader ~coll ~index ~needed ~rowids
