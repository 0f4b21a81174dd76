(* Property-based tests (qcheck) on core data structures and invariants. *)

open Raw_vector
open Test_util

module Gen = QCheck2.Gen

(* ---------------- parsers ---------------- *)

let prop_parse_int =
  qtest "csv.parse_int inverts string_of_int" Gen.int (fun i ->
      let s = string_of_int i in
      Raw_formats.Csv.parse_int (Bytes.of_string s) 0 (String.length s) = i)

let prop_parse_float =
  qtest "csv.parse_float matches float_of_string on %.6f"
    (Gen.float_bound_inclusive 1e12)
    (fun x ->
      let s = Printf.sprintf "%.6f" x in
      let got = Raw_formats.Csv.parse_float (Bytes.of_string s) 0 (String.length s) in
      Float.abs (got -. float_of_string s) <= 1e-9 *. Float.max 1.0 (Float.abs x))

(* ---------------- selection vectors ---------------- *)

let mask_gen = Gen.array_size (Gen.int_range 0 200) Gen.bool

let prop_sel_partition =
  qtest "sel + complement partition the index space" mask_gen (fun mask ->
      let n = Array.length mask in
      let s = Sel.of_bool_mask mask in
      let c = Sel.complement s n in
      Sel.length s + Sel.length c = n
      && Array.for_all (fun i -> mask.(i)) (Sel.to_array s)
      && Array.for_all (fun i -> not mask.(i)) (Sel.to_array c))

let prop_sel_compose =
  qtest "sel compose = indexed lookup" mask_gen (fun mask ->
      let inner = Sel.of_bool_mask mask in
      let k = Sel.length inner in
      if k = 0 then true
      else begin
        let outer = Sel.of_array (Array.init ((k + 1) / 2) (fun i -> i * 2)) in
        let composed = Sel.compose outer inner in
        Array.for_all
          (fun j -> Sel.get composed j = Sel.get inner (Sel.get outer j))
          (Array.init (Sel.length composed) Fun.id)
      end)

(* ---------------- LRU ---------------- *)

let lru_ops_gen =
  Gen.list_size (Gen.int_range 0 300)
    (Gen.pair (Gen.int_range 0 20) (Gen.int_range 0 2))

let prop_lru_bounded =
  qtest "lru never exceeds capacity and serves last write" lru_ops_gen (fun ops ->
      let l = Raw_storage.Lru.create ~capacity:8 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, op) ->
          (match op with
           | 0 ->
             ignore (Raw_storage.Lru.add l k k);
             Hashtbl.replace model k k
           | 1 -> ignore (Raw_storage.Lru.find l k)
           | _ ->
             Raw_storage.Lru.remove l k;
             Hashtbl.remove model k);
          Raw_storage.Lru.length l <= 8
          &&
          (* anything in the LRU must carry the modelled value *)
          match Raw_storage.Lru.peek l k with
          | None -> true
          | Some v -> Hashtbl.find_opt model k = Some v)
        ops)

(* ---------------- column gather/scatter ---------------- *)

let prop_gather_scatter =
  qtest "scatter then gather is identity"
    (Gen.array_size (Gen.int_range 1 100) Gen.int)
    (fun values ->
      let n = Array.length values in
      let packed = Column.of_int_array values in
      let idx = Array.init n (fun i -> i) in
      (* scatter into a sparse destination twice as large, at even slots *)
      let dst =
        Column.invalidate_all (Column.of_int_array (Array.make (2 * n) 0))
      in
      let even = Array.map (fun i -> 2 * i) idx in
      Column.scatter dst even packed;
      Column.equal (Column.gather dst even) packed)

(* ---------------- kernels vs naive model ---------------- *)

let cmp_gen =
  Gen.oneofl
    [ Kernels.Lt; Kernels.Le; Kernels.Gt; Kernels.Ge; Kernels.Eq; Kernels.Ne ]

let cmp_fn (op : Kernels.cmp) a b =
  match op with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

let prop_filter_const =
  qtest "filter_const agrees with list filter"
    (Gen.triple cmp_gen (Gen.array_size (Gen.int_range 0 200) (Gen.int_range (-50) 50))
       (Gen.int_range (-50) 50))
    (fun (op, values, x) ->
      let col = Column.of_int_array values in
      let got = Sel.to_array (Kernels.filter_const op col (Int x) None) in
      let want =
        Array.of_list
          (List.filteri (fun _ _ -> true)
             (List.filter_map
                (fun i -> if cmp_fn op values.(i) x then Some i else None)
                (List.init (Array.length values) Fun.id)))
      in
      got = want)

let prop_aggregate =
  qtest "aggregates agree with folds"
    (Gen.array_size (Gen.int_range 1 200) (Gen.int_range (-1000) 1000))
    (fun values ->
      let col = Column.of_int_array values in
      let l = Array.to_list values in
      Kernels.aggregate Kernels.Max col None = Int (List.fold_left max min_int l)
      && Kernels.aggregate Kernels.Min col None = Int (List.fold_left min max_int l)
      && Kernels.aggregate Kernels.Sum col None = Int (List.fold_left ( + ) 0 l)
      && Kernels.aggregate Kernels.Count col None = Int (List.length l))

(* ---------------- hash join vs nested loop ---------------- *)

let prop_hash_join =
  qtest "hash_join equals nested-loop join" ~count:50
    (Gen.pair
       (Gen.array_size (Gen.int_range 0 40) (Gen.int_range 0 10))
       (Gen.array_size (Gen.int_range 0 40) (Gen.int_range 0 10)))
    (fun (probe, build) ->
      let open Raw_engine in
      let mk a = Operator.of_chunks [ Chunk.of_columns [ Column.of_int_array a ] ] in
      let op =
        Operator.hash_join ~build:(mk build) ~probe:(mk probe)
          ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0)
      in
      let got =
        List.init (Chunk.n_rows (Operator.to_chunk op)) Fun.id |> List.length
      in
      (* recompute, since to_chunk drains: rebuild operators *)
      let op2 =
        Operator.hash_join ~build:(mk build) ~probe:(mk probe)
          ~build_key:(Expr.col 0) ~probe_key:(Expr.col 0)
      in
      let rows = rows_of_chunk (Operator.to_chunk op2) in
      let naive =
        List.concat_map
          (fun p ->
            List.filter_map
              (fun b -> if p = b then Some [ Value.Int p; Value.Int b ] else None)
              (Array.to_list build))
          (Array.to_list probe)
        |> List.sort Stdlib.compare
      in
      got = List.length naive && rows = naive)

let small_grid_gen =
  Gen.pair (Gen.int_range 1 30) (Gen.int_range 1 8)

(* ---------------- scan kernels: interp == jit == naive reader ---------------- *)

(* Run [f], returning its result plus the Io_stats work-counter delta it
   caused (timing entries excluded: the per-domain wall-clock breakdown and
   latency histograms — morsel.seconds has one observation per morsel and
   wall-clock-dependent buckets — are timings, not work, and legitimately
   vary with parallelism). *)
let timing_key k =
  String.starts_with ~prefix:"par.domain" k
  (* one segment per morsel: the stitch count is the morsel count *)
  || k = "posmap.segments_merged"
  ||
  match Raw_obs.Metrics.owner k with
  | Some m -> Raw_obs.Metrics.kind m = Raw_obs.Metrics.Histogram
  | None -> false

let delta_counters f =
  let before = Raw_storage.Io_stats.snapshot () in
  let r = f () in
  let after = Raw_storage.Io_stats.snapshot () in
  let d =
    List.filter_map
      (fun (k, v) ->
        if timing_key k then None
        else
          let v0 =
            match List.assoc_opt k before with Some x -> x | None -> 0.
          in
          if v -. v0 <> 0. then Some (k, v -. v0) else None)
      after
  in
  (r, d)

let posmap_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Raw_formats.Posmap.tracked a = Raw_formats.Posmap.tracked b
    && Raw_formats.Posmap.n_rows a = Raw_formats.Posmap.n_rows b
    && Array.for_all
         (fun c ->
           Raw_formats.Posmap.positions a c = Raw_formats.Posmap.positions b c
           && Raw_formats.Posmap.lengths a c = Raw_formats.Posmap.lengths b c)
         (Raw_formats.Posmap.tracked a)
  | _ -> false

module Scan_errors = Raw_storage.Scan_errors
module Scan_csv = Raw_core.Scan_csv

(* A generated table: [n] rows of mixed-type columns, the queried and
   tracked columns, an error policy, and byte mutations ([] = clean rows).
   Mutations spare '\n' and '\r' and write printable ASCII, so the row
   structure survives them. *)
type table = {
  n : int;
  dts : Dtype.t list;
  needed : int list;
  tracked : int list;
  policy : Scan_errors.policy;
  muts : (int * int) list;
}

let table_gen =
  let open Gen in
  let* n = int_range 1 30
  and* dts = list_size (int_range 1 8) (oneofl Dtype.[ Int; Float; Bool; String ])
  and* policy = oneofl Scan_errors.[ Fail_fast; Skip_row; Null_fill ]
  and* muts =
    oneof
      [ return []; list_size (int_range 1 8) (pair (int_bound 4096) (int_range 33 126)) ]
  in
  let m = List.length dts in
  let* needed = list_size (return m) bool
  and* tracked = list_size (return m) bool
  and* t0 = int_bound (m - 1) in
  let pick mask = List.filteri (fun i _ -> List.nth mask i) (List.init m Fun.id) in
  let tracked = List.sort_uniq compare (t0 :: pick tracked) in
  return { n; dts; needed = pick needed; tracked; policy; muts }

let show_table t =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "n=%d dts=[%s] needed=[%s] tracked=[%s] policy=%s muts=[%s]" t.n
    (String.concat ";" (List.map Dtype.to_string t.dts))
    (ints t.needed) (ints t.tracked)
    (Scan_errors.policy_to_string t.policy)
    (String.concat ";" (List.map (fun (p, c) -> Printf.sprintf "%d:%c" p (Char.chr c)) t.muts))

let cell (dt : Dtype.t) r c =
  match dt with
  | Int -> string_of_int ((r * 31) + (c * 7) - 50)
  | Float -> Printf.sprintf "%d.%d" ((r * 3) + c) (r mod 4 * 25)
  | Bool -> if (r + c) mod 2 = 0 then "1" else "0"
  | String -> Printf.sprintf "s%d_%d" r c

let value (dt : Dtype.t) r c =
  let s = cell dt r c in
  match dt with
  | Int -> Value.Int (int_of_string s)
  | Float -> Value.Float (float_of_string s)
  | Bool -> Value.Bool (s = "1")
  | String -> Value.String s

let mutate t bytes =
  let b = Bytes.of_string bytes in
  if Bytes.length b > 0 then
    List.iter
      (fun (pos, ch) ->
        let pos = pos mod Bytes.length b in
        match Bytes.get b pos with
        | '\n' | '\r' -> ()
        | _ -> Bytes.set b pos (Char.chr ch))
      t.muts;
  Bytes.to_string b

(* The fault_ prefix opts these files into the fault-injection CI job's
   media corruption (RAW_FAULT_ONLY=fault_). *)
let write_file suffix text =
  let path = fresh_path ("_fault_modes" ^ suffix) in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  path

let csv_text t =
  String.concat ""
    (List.init t.n (fun r ->
         String.concat "," (List.mapi (fun c dt -> cell dt r c) t.dts) ^ "\n"))

let schema_of dts = Schema.of_pairs (List.mapi (fun i dt -> (Printf.sprintf "c%d" i, dt)) dts)

let clean_file t file =
  t.muts = []
  && Raw_storage.Mmap_file.injected_flips file = 0
  && Raw_storage.Mmap_file.injected_truncated_bytes file = 0

(* Bit-identical columns (a mutated FWB float may be a NaN). *)
let same_col a b =
  Column.length a = Column.length b
  && Dtype.equal (Column.dtype a) (Column.dtype b)
  && List.for_all
       (fun i ->
         match Column.get a i, Column.get b i with
         | Value.Float x, Value.Float y -> Float.equal x y
         | x, y -> Value.equal x y)
       (List.init (Column.length a) Fun.id)

let same_cols a b = Array.length a = Array.length b && Array.for_all2 same_col a b

let work_keys =
  [ "csv.fields_tokenized"; "csv.values_converted"; "fwb.values_read"; "scan.values_built" ]

(* [f]'s outcome (its value or typed error), the errors it recorded and
   its work-counter deltas. *)
let observe f =
  Scan_errors.reset ();
  let r, d =
    delta_counters (fun () ->
        match f () with v -> Ok v | exception Scan_errors.Error e -> Error e)
  in
  let errs = Scan_errors.snapshot () in
  Scan_errors.reset ();
  (r, errs, List.filter (fun (k, _) -> List.mem k work_keys) d)

(* Both modes, same outcome, errors and work. *)
let modes_agree same run =
  let ri, ei, wi = run Scan_csv.Interpreted in
  let rj, ej, wj = run Scan_csv.Jit in
  (match ri, rj with
   | Ok a, Ok b -> same a b
   | Error a, Error b -> a = b
   | _ -> false)
  && ei = ej && wi = wj

(* Both properties run every policy on clean and byte-mutated rows, mixed
   column types and a non-empty tracked set, over CSV and its FWB twin. *)
let mode_test name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name ~print:show_table table_gen f)

let prop_scan_modes_agree =
  mode_test "interpreted and JIT CSV scans agree with a naive reader"
    (fun t ->
      let m = List.length t.dts in
      let schema = schema_of t.dts in
      let text = csv_text t in
      let path = write_file ".csv" (mutate t text) in
      let file = Raw_storage.Mmap_file.open_file path in
      let scan mode =
        observe (fun () ->
            Scan_csv.seq_scan ~mode ~policy:t.policy ~file ~sep:',' ~schema
              ~needed:t.needed ~tracked:t.tracked ())
      in
      let naive () =
        (* each row's field offsets, recomputed from the clean text *)
        let row_starts = Array.make t.n 0 and starts = Array.make_matrix t.n m 0 in
        let pos = ref 0 in
        for r = 0 to t.n - 1 do
          row_starts.(r) <- !pos;
          List.iteri
            (fun c dt ->
              starts.(r).(c) <- !pos;
              pos := !pos + String.length (cell dt r c) + 1)
            t.dts
        done;
        match scan Scan_csv.Jit with
        | Ok (cols, Some pm), errs, _ ->
          Scan_errors.is_empty errs
          && List.for_all2
               (fun c col ->
                 let dt = List.nth t.dts c in
                 same_col col (Column.of_values dt (List.init t.n (fun r -> value dt r c))))
               t.needed (Array.to_list cols)
          && List.for_all
               (fun c ->
                 Raw_formats.Posmap.positions pm c = Array.init t.n (fun r -> starts.(r).(c))
                 && Raw_formats.Posmap.lengths pm c
                    = Some
                        (Array.init t.n (fun r ->
                             String.length (cell (List.nth t.dts c) r c))))
               t.tracked
        | _ -> false
      in
      (* the FWB twin: strings become ints, mutations hit the binary rows *)
      let fdts = List.map (function Dtype.String -> Dtype.Int | dt -> dt) t.dts in
      let layout = Raw_formats.Fwb.layout (Array.of_list fdts) in
      let fpath = fresh_path "_fault_modes.fwb" in
      Raw_formats.Fwb.write_file ~path:fpath layout
        (Seq.init t.n (fun r -> Array.of_list (List.mapi (fun c dt -> value dt r c) fdts)));
      let fpath =
        write_file ".fwb" (mutate t (In_channel.with_open_bin fpath In_channel.input_all))
      in
      let ffile = Raw_storage.Mmap_file.open_file fpath in
      let fschema = schema_of fdts in
      let fwb mode =
        observe (fun () ->
            Raw_core.Scan_fwb.seq_scan ~mode ~policy:t.policy ~file:ffile ~layout
              ~schema:fschema ~needed:t.needed ())
      in
      let fwb_naive () =
        match fwb Scan_csv.Jit with
        | Ok cols, _, _ ->
          List.for_all2
            (fun c col ->
              let dt = List.nth fdts c in
              same_col col (Column.of_values dt (List.init t.n (fun r -> value dt r c))))
            t.needed (Array.to_list cols)
        | Error _, _, _ -> false
      in
      modes_agree
        (fun (ca, pa) (cb, pb) -> same_cols ca cb && posmap_equal pa pb)
        scan
      && modes_agree same_cols fwb
      && ((not (clean_file t file)) || naive ())
      && ((not (clean_file t ffile)) || fwb_naive ()))

let prop_fetch_matches_scan =
  mode_test "posmap fetch agrees with full scan"
    (fun t ->
      let schema = schema_of t.dts in
      let all = List.init (List.length t.dts) Fun.id in
      let path = write_file ".csv" (mutate t (csv_text t)) in
      let file = Raw_storage.Mmap_file.open_file path in
      let fetch_csv =
        match
          observe (fun () ->
              Scan_csv.seq_scan ~mode:Scan_csv.Jit ~policy:t.policy ~file ~sep:','
                ~schema ~needed:all ~tracked:t.tracked ())
        with
        | Error _, _, _ -> true (* fail-fast on a bad field: nothing to fetch *)
        | Ok (full, pm), scanned, _ ->
          let pm = Option.get pm in
          let rowids =
            Array.of_list
              (List.filter (fun r -> r mod 2 = 1)
                 (List.init (Raw_formats.Posmap.n_rows pm) Fun.id))
          in
          let cols =
            List.filter
              (fun c -> Scan_csv.can_fetch ~schema ~posmap:pm ~cols:[ c ])
              t.needed
          in
          let fetch mode =
            observe (fun () ->
                Scan_csv.fetch ~mode ~policy:t.policy ~file ~sep:',' ~schema
                  ~posmap:pm ~cols ~rowids ())
          in
          cols = []
          || modes_agree same_cols fetch
             &&
             match fetch Scan_csv.Jit with
             | Ok got, errs, _ ->
               List.for_all2
                 (fun c col -> same_col (Column.gather full.(c) rowids) col)
                 cols (Array.to_list got)
               (* the fetch records each bad field at the row offset the
                  scan recorded it at *)
               && (scanned.total > Scan_errors.max_samples
                  || List.for_all (fun s -> List.mem s scanned.samples) errs.samples)
             | Error _, _, _ -> false
      in
      let fdts = List.map (function Dtype.String -> Dtype.Int | dt -> dt) t.dts in
      let layout = Raw_formats.Fwb.layout (Array.of_list fdts) in
      let text =
        let p = fresh_path ".fwb" in
        Raw_formats.Fwb.write_file ~path:p layout
          (Seq.init t.n (fun r -> Array.of_list (List.mapi (fun c dt -> value dt r c) fdts)));
        In_channel.with_open_bin p In_channel.input_all
      in
      let ffile = Raw_storage.Mmap_file.open_file (write_file ".fwb" (mutate t text)) in
      let fschema = schema_of fdts in
      let fetch_fwb =
        match
          observe (fun () ->
              Raw_core.Scan_fwb.seq_scan ~mode:Scan_csv.Jit ~policy:t.policy
                ~file:ffile ~layout ~schema:fschema ~needed:all ())
        with
        | Error _, _, _ -> true (* ragged under fail-fast *)
        | Ok full, _, _ ->
          let rowids =
            Array.of_list
              (List.filter (fun r -> r mod 3 <> 1)
                 (List.init (Column.length full.(0)) Fun.id))
          in
          let fetch mode =
            observe (fun () ->
                Raw_core.Scan_fwb.fetch ~mode ~file:ffile ~layout ~schema:fschema
                  ~cols:t.needed ~rowids)
          in
          modes_agree same_cols fetch
          &&
          match fetch Scan_csv.Jit with
          | Ok got, _, _ ->
            List.for_all2
              (fun c col -> same_col (Column.gather full.(c) rowids) col)
              t.needed (Array.to_list got)
          | Error _, _, _ -> false
      in
      fetch_csv && fetch_fwb)

(* ---------------- FWB roundtrip ---------------- *)

let prop_fwb_roundtrip =
  qtest "fwb write/read roundtrip" ~count:40
    (Gen.list_size (Gen.int_range 1 50) (Gen.pair Gen.int Gen.float))
    (fun rows ->
      let layout = Raw_formats.Fwb.layout [| Dtype.Int; Dtype.Float |] in
      let path = fresh_path ".fwb" in
      Raw_formats.Fwb.write_file ~path layout
        (List.to_seq (List.map (fun (i, f) -> [| Value.Int i; Value.Float f |]) rows));
      let file = Raw_storage.Mmap_file.open_file path in
      List.for_all
        (fun (row, (i, f)) ->
          Raw_formats.Fwb.read_int file (Raw_formats.Fwb.offset_of layout ~row ~field:0) = i
          &&
          let g =
            Raw_formats.Fwb.read_float file
              (Raw_formats.Fwb.offset_of layout ~row ~field:1)
          in
          (Float.is_nan f && Float.is_nan g) || g = f)
        (List.mapi (fun row x -> (row, x)) rows))

(* ---------------- HEP roundtrip ---------------- *)

let particle_gen =
  Gen.map
    (fun ((pt, eta), phi) -> { Raw_formats.Hep.pt; eta; phi })
    (Gen.pair (Gen.pair (Gen.float_bound_inclusive 100.) (Gen.float_bound_inclusive 2.5))
       (Gen.float_bound_inclusive 3.14))

let event_gen i =
  Gen.map
    (fun (((run, mu), el), jet) ->
      {
        Raw_formats.Hep.event_id = i;
        run_number = run;
        aux = Array.map (fun (p : Raw_formats.Hep.particle) -> p.phi) mu;
        muons = mu;
        electrons = el;
        jets = jet;
      })
    (Gen.pair
       (Gen.pair
          (Gen.pair (Gen.int_range 0 100) (Gen.array_size (Gen.int_range 0 5) particle_gen))
          (Gen.array_size (Gen.int_range 0 5) particle_gen))
       (Gen.array_size (Gen.int_range 0 5) particle_gen))

let events_gen =
  Gen.sized (fun n ->
      let n = min (max n 1) 20 in
      Gen.flatten_l (List.init n event_gen))

let prop_hep_roundtrip =
  qtest "hep write/read roundtrip" ~count:30 events_gen (fun events ->
      let path = fresh_path ".hep" in
      Raw_formats.Hep.write_file ~path (List.to_seq events);
      let r = Raw_formats.Hep.Reader.open_file path in
      Raw_formats.Hep.Reader.n_events r = List.length events
      && List.for_all
           (fun (i, (e : Raw_formats.Hep.event)) ->
             let got = Raw_formats.Hep.Reader.get_entry r i in
             got = e)
           (List.mapi (fun i e -> (i, e)) events))

(* ---------------- group_by vs naive model ---------------- *)

let prop_group_by =
  qtest "group_by sums agree with a naive fold" ~count:60
    (Gen.list_size (Gen.int_range 0 150)
       (Gen.pair (Gen.int_range 0 8) (Gen.int_range (-100) 100)))
    (fun pairs ->
      let open Raw_engine in
      let keys = Column.of_int_array (Array.of_list (List.map fst pairs)) in
      let vals = Column.of_int_array (Array.of_list (List.map snd pairs)) in
      let op =
        Operator.group_by ~keys:[ Expr.col 0 ]
          ~aggs:[ (Kernels.Sum, Expr.col 1); (Kernels.Count, Expr.col 1) ]
          (Operator.of_chunks
             (if pairs = [] then []
              else [ Chunk.of_columns [ keys; vals ] ]))
      in
      let got = rows_of_chunk (Operator.to_chunk op) in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (k, v) ->
          let s, c = Option.value (Hashtbl.find_opt model k) ~default:(0, 0) in
          Hashtbl.replace model k (s + v, c + 1))
        pairs;
      let want =
        Hashtbl.fold
          (fun k (s, c) acc -> [ Value.Int k; Value.Int s; Value.Int c ] :: acc)
          model []
        |> List.sort Stdlib.compare
      in
      got = want)

(* ---------------- column concat ---------------- *)

let prop_concat =
  qtest "Column.concat equals element-wise append"
    (Gen.pair (Gen.array_size (Gen.int_range 0 50) Gen.int)
       (Gen.array_size (Gen.int_range 1 50) Gen.int))
    (fun (a, b) ->
      let ca = Column.of_int_array a and cb = Column.of_int_array b in
      Column.equal
        (Column.concat (if Array.length a = 0 then [ cb ] else [ ca; cb ]))
        (Column.of_int_array (if Array.length a = 0 then b else Array.append a b)))

(* ---------------- jsonl extraction vs reference parser ---------------- *)

let json_scalar_gen =
  Gen.oneof
    [
      Gen.map (fun i -> Value.Int i) (Gen.int_range (-1000000) 1000000);
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun s -> Value.String s) (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12));
    ]

let prop_jsonl_extract =
  qtest "jsonl extraction agrees with the reference parser" ~count:60
    (Gen.list_size (Gen.int_range 1 6)
       (Gen.pair (Gen.int_range 0 9) json_scalar_gen))
    (fun fields ->
      (* unique single-letter field names a..j *)
      let fields =
        List.sort_uniq (fun (a, _) (b, _) -> Stdlib.compare a b) fields
        |> List.map (fun (i, v) -> (String.make 1 (Char.chr (97 + i)), v))
      in
      let path = fresh_path ".jsonl" in
      Raw_formats.Jsonl.write_file ~path (List.to_seq [ fields ]);
      let line =
        String.trim (In_channel.with_open_bin path In_channel.input_all)
      in
      match Raw_formats.Jsonl.parse line with
      | Raw_formats.Jsonl.Object parsed ->
        List.for_all
          (fun (name, v) ->
            match (List.assoc_opt name parsed, (v : Value.t)) with
            | Some (Raw_formats.Jsonl.Number x), Value.Int i ->
              x = float_of_int i
            | Some (Raw_formats.Jsonl.Bool b), Value.Bool b' -> b = b'
            | Some (Raw_formats.Jsonl.String s), Value.String s' -> s = s'
            | _ -> false)
          fields
      | _ -> false)

(* ---------------- btree range vs naive filter ---------------- *)

let prop_btree =
  qtest "btree range equals naive filter" ~count:60
    (Gen.pair
       (Gen.list_size (Gen.int_range 0 300) (Gen.int_range 0 500))
       (Gen.pair (Gen.int_range 0 500) (Gen.int_range 0 500)))
    (fun (keys, (a, b)) ->
      let lo = min a b and hi = max a b in
      let entries =
        List.sort Stdlib.compare keys
        |> List.mapi (fun i k -> (k, i))
        |> Array.of_list
      in
      let bytes, meta = Raw_formats.Btree.serialize ~fanout:7 entries in
      let file = Raw_storage.Mmap_file.of_bytes ~name:"t" bytes in
      let got =
        Array.to_list (Raw_formats.Btree.range file ~base:0 meta ~lo ~hi)
      in
      let want =
        Array.to_list entries
        |> List.filter (fun (k, _) -> k >= lo && k <= hi)
        |> List.map snd
      in
      got = want)

(* ---------------- CSV edge corpora ---------------- *)

(* Line-ending / final-field corner cases through both scan modes: CRLF
   endings, a missing trailing newline, and an empty final field. *)
let prop_csv_edges =
  qtest "csv edge corpora agree across scan modes" ~count:60
    (Gen.triple (Gen.int_range 1 20) Gen.bool
       (Gen.oneofl [ `Trail; `No_trail; `Empty_last ]))
    (fun (n, crlf, ending) ->
      let ints = List.init n (fun r -> (r * 31) - 7) in
      let strs =
        List.init n (fun r ->
            match ending with
            | `Empty_last -> ""
            | _ -> Printf.sprintf "s%d" r)
      in
      let eol = if crlf then "\r\n" else "\n" in
      let body =
        List.map2 (fun i s -> string_of_int i ^ "," ^ s) ints strs
        |> String.concat eol
      in
      let text = if ending = `No_trail then body else body ^ eol in
      let path = fresh_path ".csv" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc text);
      let file = Raw_storage.Mmap_file.open_file path in
      let schema =
        Schema.of_pairs [ ("a", Dtype.Int); ("b", Dtype.String) ]
      in
      let run mode =
        fst
          (Raw_core.Scan_csv.seq_scan ~mode ~file ~sep:',' ~schema
             ~needed:[ 0; 1 ] ~tracked:[] ())
      in
      let interp = run Raw_core.Scan_csv.Interpreted in
      let jit = run Raw_core.Scan_csv.Jit in
      let want_a = Column.of_int_array (Array.of_list ints) in
      let want_b =
        Column.of_values Dtype.String (List.map (fun s -> Value.String s) strs)
      in
      Column.equal interp.(0) want_a
      && Column.equal interp.(1) want_b
      && Column.equal jit.(0) want_a
      && Column.equal jit.(1) want_b)

(* ---------------- parallel scans vs sequential ---------------- *)

let mode_gen = Gen.oneofl [ Raw_core.Scan_csv.Interpreted; Raw_core.Scan_csv.Jit ]

let prop_parallel_csv =
  qtest "parallel CSV scan is bit-identical to sequential" ~count:10
    (Gen.pair small_grid_gen mode_gen)
    (fun ((n, m), mode) ->
      let rows = List.init n (fun r -> List.init m (fun c -> (r * 17) + c)) in
      let path = write_csv_rows rows in
      let schema = Schema.of_pairs (int_cols m) in
      let needed = List.init m Fun.id in
      let tracked = Raw_formats.Posmap.every_k ~k:2 ~n_cols:m in
      let run parallelism =
        let file = Raw_storage.Mmap_file.open_file path in
        delta_counters (fun () ->
            Raw_core.Scan_csv.par_scan ~mode ~parallelism ~file ~sep:','
              ~schema ~needed ~tracked ())
      in
      let (c1, p1), d1 = run 1 in
      let (c4, p4), d4 = run 4 in
      Array.for_all2 Column.equal c1 c4 && posmap_equal p1 p4 && d1 = d4)

let prop_parallel_fwb =
  qtest "parallel FWB scan is bit-identical to sequential" ~count:10
    (Gen.pair (Gen.int_range 1 200) mode_gen)
    (fun (n, mode) ->
      let layout =
        Raw_formats.Fwb.layout [| Dtype.Int; Dtype.Float; Dtype.Bool |]
      in
      let path = fresh_path ".fwb" in
      Raw_formats.Fwb.write_file ~path layout
        (Seq.init n (fun i ->
             [|
               Value.Int (i * 3);
               Value.Float (float_of_int i /. 7.);
               Value.Bool (i mod 2 = 0);
             |]));
      let schema =
        Schema.of_pairs
          [ ("a", Dtype.Int); ("b", Dtype.Float); ("c", Dtype.Bool) ]
      in
      let run parallelism =
        let file = Raw_storage.Mmap_file.open_file path in
        delta_counters (fun () ->
            Raw_core.Scan_fwb.par_scan ~mode ~parallelism ~file ~layout
              ~schema ~needed:[ 0; 1; 2 ] ())
      in
      let c1, d1 = run 1 in
      let c4, d4 = run 4 in
      Array.for_all2 Column.equal c1 c4 && d1 = d4)

let prop_parallel_hep =
  qtest "parallel HEP scans are bit-identical to sequential" ~count:10
    events_gen
    (fun events ->
      let path = fresh_path ".hep" in
      Raw_formats.Hep.write_file ~path (List.to_seq events);
      (* flattened muon index, entry/item per dense particle row *)
      let pairs =
        List.concat
          (List.mapi
             (fun e (ev : Raw_formats.Hep.event) ->
               List.init (Array.length ev.muons) (fun i -> (e, i)))
             events)
      in
      let index =
        ( Array.of_list (List.map fst pairs),
          Array.of_list (List.map snd pairs) )
      in
      let run_events parallelism =
        let r = Raw_formats.Hep.Reader.open_file path in
        delta_counters (fun () ->
            Raw_core.Scan_hep.par_scan_events ~mode:Raw_core.Scan_csv.Jit
              ~parallelism ~reader:r ~needed:[ 0; 1 ] ~rowids:None ())
      in
      let run_particles parallelism =
        let r = Raw_formats.Hep.Reader.open_file path in
        delta_counters (fun () ->
            Raw_core.Scan_hep.par_scan_particles
              ~mode:Raw_core.Scan_csv.Interpreted ~parallelism ~reader:r
              ~coll:Raw_formats.Hep.Muons ~index ~needed:[ 0; 1; 2; 3 ]
              ~rowids:None)
      in
      let e1, de1 = run_events 1 in
      let e4, de4 = run_events 4 in
      let p1, dp1 = run_particles 1 in
      let p4, dp4 = run_particles 4 in
      Array.for_all2 Column.equal e1 e4
      && de1 = de4
      && Array.for_all2 Column.equal p1 p4
      && dp1 = dp4)

(* ---------------- io_stats merge algebra ---------------- *)

(* The morsel coordinator folds worker snapshots into its own table; the
   result must not depend on how the workers' deltas are grouped or
   ordered. Values are quarter-integers so float addition is exact and the
   property is about the merge, not rounding. *)
let snap_gen =
  Gen.list_size (Gen.int_range 0 10)
    (Gen.pair
       (Gen.oneofl [ "m.a"; "m.b"; "m.c"; "m.d" ])
       (Gen.map (fun i -> float_of_int i /. 4.) (Gen.int_range 0 400)))

(* Each merge runs in a fresh domain: Io_stats tables are domain-local,
   so a spawned domain starts empty. *)
let merged snaps =
  Domain.join
    (Domain.spawn (fun () ->
         List.iter Raw_storage.Io_stats.merge snaps;
         Raw_storage.Io_stats.snapshot ()))

let prop_io_stats_merge =
  qtest "io_stats merge is associative and order-insensitive" ~count:30
    (Gen.triple snap_gen snap_gen snap_gen)
    (fun (a, b, c) ->
      let abc = merged [ a; b; c ] in
      abc = merged [ c; a; b ]
      && abc = merged [ merged [ a; b ]; c ]
      && abc = merged [ a; merged [ b; c ] ])

(* ---------------- end-to-end: SQL vs naive model ---------------- *)

let prop_sql_selection =
  qtest "SELECT MAX WHERE agrees with list model" ~count:30
    (Gen.pair (Gen.list_size (Gen.int_range 1 80) (Gen.int_range 0 1000))
       (Gen.int_range 0 1000))
    (fun (values, x) ->
      let rows = List.map (fun v -> [ v; v * 2 ]) values in
      let path = write_csv_rows rows in
      let db = Raw_core.Raw_db.create () in
      Raw_core.Raw_db.register_csv db ~name:"t" ~path
        ~columns:[ ("a", Dtype.Int); ("b", Dtype.Int) ] ();
      let got =
        Raw_core.Raw_db.scalar db
          (Printf.sprintf "SELECT MAX(b) FROM t WHERE a < %d" x)
      in
      let qualifying = List.filter (fun v -> v < x) values in
      let want =
        match qualifying with
        | [] -> Value.Null
        | l -> Value.Int (2 * List.fold_left max min_int l)
      in
      Value.equal got want)

let suites =
  [
    ( "props",
      [
        prop_parse_int;
        prop_parse_float;
        prop_sel_partition;
        prop_sel_compose;
        prop_lru_bounded;
        prop_gather_scatter;
        prop_filter_const;
        prop_aggregate;
        prop_hash_join;
        prop_scan_modes_agree;
        prop_fetch_matches_scan;
        prop_fwb_roundtrip;
        prop_hep_roundtrip;
        prop_group_by;
        prop_concat;
        prop_jsonl_extract;
        prop_btree;
        prop_csv_edges;
        prop_parallel_csv;
        prop_parallel_fwb;
        prop_parallel_hep;
        prop_io_stats_merge;
        prop_sql_selection;
      ] );
  ]
