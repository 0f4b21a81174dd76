(* The traced run (--trace 1): per-layer self time and work counts,
   measured from outside the engine.

   1. Replay: the workload's own seeded ops, in process, twice on
      identical fresh set-ups. The untraced pass calls Raw_db.query; the
      traced pass splits each op into spans around public calls:
        op -> storage.open (Catalog.file) -> sql.parse (Parser.parse)
           -> core.bind (Sql_binder.bind) -> core.plan (Planner.plan)
           -> engine.execute (Operator.to_chunk)
      Every traced answer must equal the untraced one and the reference.
      Work counts are Io_stats / Mmap_file / Gc.quick_stat deltas around
      the traced ops. The wall-time difference of the two passes is the
      tracing overhead.
   2. Probes: standalone calls into the format and scan kernels on the
      workload's seed files, in each mode.
   3. Served: the workload's statements through a `rawq serve` child;
      client-side request spans with the server's own timing object as
      children, plus stats deltas. serve-mixed runs its two-session mix
      here; the other workloads send their first ops twice (first pass
      computes, second is answered from the result cache).

   Spans are kept in memory and written, with a per-layer table, under
   .perfbench_data/traces/ when the run ends. End-to-end numbers never
   come from this run. *)

open Raw_vector
open Raw_storage
open Raw_formats
open Raw_core
module J = Raw_obs.Jsons

(* ---- spans ---- *)

type span = { id : int; op : int; parent : int; name : string; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_id = ref 0

let record ~op ~parent name t0 t1 =
  incr next_id;
  spans := { id = !next_id; op; parent; name; t0; t1 } :: !spans;
  !next_id

let span ~op ~parent name f =
  incr next_id;
  let id = !next_id in
  let t0 = Util.now () in
  let r = f id in
  spans := { id; op; parent; name; t0; t1 = Util.now () } :: !spans;
  r

(* Per span name: (count, total self seconds). Self time is a span's
   duration minus the time its children cover (children of one span are
   sequential here, so their durations add up). *)
let layers () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace child s.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Float.max 0.
          (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id))
      in
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, t +. self))
    !spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let self_ms_per_op name ~ops =
  match List.assoc_opt name (layers ()) with
  | Some (_, t) when ops > 0 -> t *. 1000. /. float_of_int ops
  | _ -> 0.

let export ~workload ~seed ~overhead_pct =
  let dir = Filename.concat Data.root "traces" in
  Data.mkdir_p dir;
  let base = Filename.concat dir (Printf.sprintf "%s-s%d" workload seed) in
  let all = List.rev !spans in
  let epoch = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  Out_channel.with_open_bin (base ^ ".spans.jsonl") (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"op\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
            s.id s.op s.parent s.name
            ((s.t0 -. epoch) *. 1e6)
            ((s.t1 -. epoch) *. 1e6))
        all);
  let ls = layers () in
  let total = List.fold_left (fun a (_, (_, t)) -> a +. t) 0. ls in
  let table =
    Printf.sprintf "per-layer self time, %s seed %d\n%-16s %8s %12s %7s\n" workload seed
      "layer" "count" "self_ms" "ratio"
    ^ String.concat ""
        (List.map
           (fun (name, (n, t)) ->
             Printf.sprintf "%-16s %8d %12.3f %7.4f\n" name n (t *. 1000.)
               (if total > 0. then t /. total else 0.))
           ls)
    ^ Printf.sprintf "trace.overhead_pct %.3f\n" overhead_pct
  in
  Out_channel.with_open_bin (base ^ ".layers.txt") (fun oc -> output_string oc table);
  print_string table;
  Printf.printf "spans: %s.spans.jsonl (%d spans)\n" base (List.length all)

(* ---- 1. in-process replay ---- *)

let counter_keys =
  [ "csv.fields_tokenized"; "csv.values_converted"; "fwb.values_read";
    "posmap.entries"; "scan.values_built"; "pool.values_gathered"; "pool.hits";
    "pool.misses"; "tmpl.hits"; "tmpl.misses"; "filter.rows_in"; "filter.rows_out" ]

let counters () =
  let s = Io_stats.snapshot () in
  List.map (fun k -> (k, Option.value ~default:0. (List.assoc_opt k s))) counter_keys

let major_words () = (Gc.quick_stat ()).Gc.major_words

type work = {
  mutable faults : int;
  mutable hits : int;
  mutable words : float;
  mutable counts : (string * float) list;
}

let entry_file db table = (Catalog.get (Raw_db.catalog db) table).Catalog.file

let traced_op ~op_id db (op : Ops.op) work =
  let cat = Raw_db.catalog db in
  Option.iter Mmap_file.reset_counters (entry_file db op.table);
  let w0 = major_words () in
  let chunk =
    span ~op:op_id ~parent:0 "op" (fun root ->
        let sp name f = span ~op:op_id ~parent:root name (fun _ -> f ()) in
        sp "storage.open" (fun () -> ignore (Catalog.file cat (Catalog.get cat op.table)));
        let ast = sp "sql.parse" (fun () -> Raw_sql.Parser.parse (Ops.sql op)) in
        let logical = sp "core.bind" (fun () -> Sql_binder.bind cat ast) in
        let plan, _ = sp "core.plan" (fun () -> Planner.plan cat (Raw_db.options db) logical) in
        sp "engine.execute" (fun () -> Raw_engine.Operator.to_chunk plan))
  in
  work.words <- work.words +. (major_words () -. w0);
  Option.iter
    (fun f ->
      work.faults <- work.faults + Mmap_file.faults f;
      work.hits <- work.hits + Mmap_file.hits f)
    (entry_file db op.table);
  ignore (Template_cache.take_charged_seconds (Catalog.templates cat));
  Inproc.scalar_of_chunk chunk

type replay = {
  ops : int;
  failed : int;
  overhead_pct : float;
  work : work;
}

(* Expected answer of an in-process op (log statements read version 0). *)
let expect (op : Ops.op) = op.expect.(0)

let replay workload seed ~seconds =
  let ops = Ops.load workload seed in
  let warmup = Ops.section "warmup" ops and main = Ops.section "s0" ops in
  let failed = ref 0 in
  (* untraced pass: as many ops as fit in [seconds] *)
  let untraced = ref [] and u_wall = ref 0. in
  let db = fst (Inproc.setup workload seed warmup) in
  let n, _ =
    Inproc.loop workload seed db main ~seconds ~on_op:(fun s ->
        u_wall := !u_wall +. (s.Inproc.ms /. 1000.);
        if not s.ok then incr failed;
        untraced := s.value :: !untraced)
  in
  let untraced = Array.of_list (List.rev !untraced) in
  (* traced pass: the same ops on an identical fresh set-up *)
  let db = fst (Inproc.setup workload seed warmup) in
  let c0 = counters () in
  let work = { faults = 0; hits = 0; words = 0.; counts = [] } in
  let t_wall = ref 0. in
  for i = 0 to n - 1 do
    let op = main.(i mod Array.length main) in
    let db = Inproc.engine_for workload seed db op in
    let t0 = Util.now () in
    let v =
      match traced_op ~op_id:(i + 1) db op work with
      | v -> v
      | exception e -> Util.log "%s: %s" (Ops.sql op) (Printexc.to_string e); None
    in
    t_wall := !t_wall +. (Util.now () -. t0);
    if not (Inproc.matches v (expect op) && v = untraced.(i)) then begin
      Util.log "traced answer differs for %s" (Ops.sql op);
      incr failed
    end
  done;
  let c1 = counters () in
  work.counts <- List.map2 (fun (k, a) (_, b) -> (k, b -. a)) c0 c1;
  {
    ops = 2 * n;
    failed = !failed;
    overhead_pct = (if !u_wall > 0. then 100. *. ((!t_wall /. !u_wall) -. 1.) else 0.);
    work;
  }

(* ---- 2. kernel probes ---- *)

let median_of k f = Util.median (List.init k (fun _ -> snd (Util.time f)))

type probes = {
  tokenize_ms : float;
  parse_float_ns : float;
  float_mismatches : int;
  seq_jit_ms : float;
  seq_interp_ms : float;
  fetch_ms : float;
  fwb_seq_ms : float;
  fwb_fetch_ms : float;
}

(* The rows with col0 < x, from a col0 column. *)
let rowids_below col x =
  let acc = ref [] in
  for r = Column.length col - 1 downto 0 do
    match Column.get col r with Value.Int v when v < x -> acc := r :: !acc | _ -> ()
  done;
  Array.of_list !acc

let probes seed (first : Ops.op) =
  let reps = 3 in
  let db = Raw_db.create () in
  List.iter (Inproc.register db seed) [ "t30"; "b30" ];
  (* CSV: the cold query's shape — col0 read, every 10th column tracked *)
  let t30 = Mmap_file.open_file (Data.t30 seed) in
  let schema = Raw_db.describe db "t30" in
  let tokenize () =
    let c = Csv.Cursor.create t30 in
    while not (Csv.Cursor.at_eof c) do
      Csv.Cursor.skip_fields c 30;
      Csv.Cursor.skip_line c
    done
  in
  let seq mode () =
    Scan_csv.seq_scan ~mode ~file:t30 ~sep:',' ~schema ~needed:[ 0 ]
      ~tracked:[ 0; 10; 20 ] ()
  in
  let cols, posmap = seq Scan_csv.Jit () in
  let posmap = Option.get posmap in
  (* the first op's predicate, and its column folded onto t30/b30's 30 *)
  let k = 1 + (first.k mod 29) and x = first.x in
  let rowids = rowids_below cols.(0) x in
  let fetch () =
    Scan_csv.fetch ~mode:Scan_csv.Jit ~file:t30 ~sep:',' ~schema ~posmap ~cols:[ k ]
      ~rowids ()
  in
  (* FWB: the same shape on b30 *)
  let b30 = Mmap_file.open_file (Data.b30 seed) in
  let layout = Fwb.layout (Data.ints 30) and bschema = Raw_db.describe db "b30" in
  let fwb_seq () =
    Scan_fwb.seq_scan ~mode:Scan_csv.Jit ~file:b30 ~layout ~schema:bschema ~needed:[ 0 ] ()
  in
  let browids = rowids_below (fwb_seq ()).(0) x in
  let fwb_fetch () =
    Scan_fwb.fetch ~mode:Scan_csv.Jit ~file:b30 ~layout ~schema:bschema ~cols:[ k ]
      ~rowids:browids
  in
  (* float parsing over both precisions of q120's float columns *)
  let q120 = Mmap_file.open_file (Data.q120 seed) in
  let bytes = Mmap_file.bytes q120 in
  let spans = ref [] in
  let col = ref 0 and start = ref 0 in
  for i = 0 to Mmap_file.length q120 - 1 do
    match Bytes.get bytes i with
    | (',' | '\n') as ch ->
      if !col >= 60 then spans := (!start, i - !start) :: !spans;
      start := i + 1;
      if ch = ',' then incr col else col := 0
    | _ -> ()
  done;
  let spans = Array.of_list !spans in
  let mismatches =
    Array.fold_left
      (fun n (p, l) ->
        if Float.equal (Csv.parse_float bytes p l) (float_of_string (Bytes.sub_string bytes p l))
        then n
        else n + 1)
      0 spans
  in
  let parse_all () = Array.iter (fun (p, l) -> ignore (Csv.parse_float bytes p l)) spans in
  let ms f = 1000. *. median_of reps (fun () -> ignore (f ())) in
  {
    tokenize_ms = ms tokenize;
    parse_float_ns = 1e9 *. median_of reps parse_all /. float_of_int (Array.length spans);
    float_mismatches = mismatches;
    seq_jit_ms = ms (seq Scan_csv.Jit);
    seq_interp_ms = ms (seq Scan_csv.Interpreted);
    fetch_ms = ms fetch;
    fwb_seq_ms = ms fwb_seq;
    fwb_fetch_ms = ms fwb_fetch;
  }

(* ---- 3. served ---- *)

type served = {
  requests : int;
  s_failed : int;
  ping_ms : float;
  read_ms : float;
  queue_ms : float;
  execute_ms : float;
  hit_ms : float;
  miss_ms : float;
  batch_size : float;
  result_hit_ratio : float;
  stmt_hit_ratio : float;
  invalidations : float;
}

let request_spans (samples : Serve.sample list) ~base =
  List.iteri
    (fun i (s : Serve.sample) ->
      let op = base + i in
      let t1 = s.t0 +. (s.ms /. 1000.) in
      let root = record ~op ~parent:0 "serve.request" s.t0 t1 in
      match s.timing with
      | None -> ()
      | Some tm ->
        let a = s.t0 +. tm.read in
        let b = a +. tm.queue in
        ignore (record ~op ~parent:root "serve.read" s.t0 a);
        ignore (record ~op ~parent:root "serve.queue" a b);
        ignore (record ~op ~parent:root "serve.execute" b (b +. tm.execute)))
    samples

let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.

let served workload seed ~seconds =
  let ops = Ops.load workload seed in
  let s, c, log, (_, _, warm_failed) =
    Serve.setup ~tables:(Serve.tables workload seed) seed
      (if workload = "serve-mixed" then Ops.section "warmup" ops else [||])
      0
  in
  let ping_ms =
    Util.median
      (List.init 50 (fun _ -> 1000. *. snd (Util.time (fun () -> ignore (Server.Client.ping c))))
      )
  in
  let before = Serve.stats_counters c in
  let samples, hits, misses, rewrites =
    if workload = "serve-mixed" then begin
      let results, _ =
        Serve.run_sessions ~socket:s.Serve.socket ~log
          ~streams:[| Ops.section "s0" ops; Ops.section "s1" ops |] ~seconds
      in
      let all = List.concat (Array.to_list results) in
      let of_cls p = List.filter (fun (x : Serve.sample) -> p x.cls) all in
      (all, of_cls (fun c -> c = Ops.Hot || c = Ops.Log), of_cls (fun c -> c = Ops.Distinct),
       Atomic.get log.Serve.version)
    end
    else begin
      let first = Array.sub (Ops.section "s0" ops) 0 40 in
      let pass () = Array.to_list (Array.map (Serve.request c) first) in
      let misses = pass () in
      let hits = pass () in
      (misses @ hits, hits, misses, 0)
    end
  in
  let after = Serve.stats_counters c in
  Serve.teardown (s, c, log);
  let d k =
    Option.value ~default:0. (List.assoc_opt k after)
    -. Option.value ~default:0. (List.assoc_opt k before)
  in
  request_spans samples ~base:1_000_000;
  let mean f =
    let xs = List.filter_map (fun (x : Serve.sample) -> Option.map f x.timing) samples in
    if xs = [] then 0. else 1000. *. List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let p50 l = Util.median (List.map (fun (x : Serve.sample) -> x.ms) l) in
  let invalidations = d "cache.invalidations" in
  let inval_ok =
    workload <> "serve-mixed"
    || (invalidations <= float_of_int rewrites && invalidations >= float_of_int (rewrites - 1))
  in
  if not inval_ok then
    Util.log "%g invalidations for %d log rewrites" invalidations rewrites;
  {
    requests = List.length samples;
    s_failed =
      warm_failed
      + List.length (List.filter (fun (x : Serve.sample) -> not x.ok) samples)
      + if inval_ok then 0 else 1;
    ping_ms;
    read_ms = mean (fun t -> t.Serve.read);
    queue_ms = mean (fun t -> t.Serve.queue);
    execute_ms = mean (fun t -> t.Serve.execute);
    hit_ms = p50 hits;
    miss_ms = p50 misses;
    batch_size = (let b = d "server.batches" in if b > 0. then d "server.batched_queries" /. b else 0.);
    result_hit_ratio = ratio (d "cache.result.hits") (d "cache.result.misses");
    stmt_hit_ratio = ratio (d "cache.stmt.hits") (d "cache.stmt.misses");
    invalidations;
  }

(* ---- the run ---- *)

let run workload seed seconds =
  let r = replay workload seed ~seconds:(seconds /. 4.) in
  let first = (Ops.section "s0" (Ops.load workload seed)).(0) in
  let p = probes seed first in
  let s = served workload seed ~seconds:(seconds /. 3.) in
  export ~workload ~seed ~overhead_pct:r.overhead_pct;
  let per_op = float_of_int (r.ops / 2) in
  let count k = Option.value ~default:0. (List.assoc_opt k r.work.counts) in
  let per k = count k /. per_op in
  let self name = self_ms_per_op name ~ops:(r.ops / 2) in
  Util.result_line ~correct:(r.failed + s.s_failed = 0)
    ~attempted:(r.ops + s.requests) ~failed:(r.failed + s.s_failed)
    [
      ("storage.open_ms", "ms", self "storage.open");
      ("storage.page_faults", "count", float_of_int r.work.faults /. per_op);
      ("storage.page_hits", "count", float_of_int r.work.hits /. per_op);
      ("storage.major_words", "words", r.work.words /. per_op);
      ("csv.tokenize_ms", "ms", p.tokenize_ms);
      ("csv.parse_float_ns", "ns", p.parse_float_ns);
      ("csv.parse_float_mismatches", "count", float_of_int p.float_mismatches);
      ("csv.fields_tokenized", "count", per "csv.fields_tokenized");
      ("csv.values_converted", "count", per "csv.values_converted");
      ("fwb.values_read", "count", per "fwb.values_read");
      ("posmap.entries", "count", per "posmap.entries");
      ("scan.csv_seq_jit_ms", "ms", p.seq_jit_ms);
      ("scan.csv_seq_interp_ms", "ms", p.seq_interp_ms);
      ("scan.csv_fetch_ms", "ms", p.fetch_ms);
      ("scan.fwb_seq_ms", "ms", p.fwb_seq_ms);
      ("scan.fwb_fetch_ms", "ms", p.fwb_fetch_ms);
      ("scan.values_built", "count", per "scan.values_built");
      ("tmpl.hit_ratio", "ratio", ratio (count "tmpl.hits") (count "tmpl.misses"));
      ("pool.hit_ratio", "ratio", ratio (count "pool.hits") (count "pool.misses"));
      ("pool.values_gathered", "count", per "pool.values_gathered");
      ("sql.parse_us", "us", 1000. *. self "sql.parse");
      ("core.bind_us", "us", 1000. *. self "core.bind");
      ("core.plan_ms", "ms", self "core.plan");
      ("engine.execute_ms", "ms", self "engine.execute");
      ( "filter.selectivity", "ratio",
        let i = count "filter.rows_in" in
        if i > 0. then count "filter.rows_out" /. i else 0. );
      ("serve.ping_ms", "ms", s.ping_ms);
      ("serve.read_ms", "ms", s.read_ms);
      ("serve.queue_ms", "ms", s.queue_ms);
      ("serve.execute_ms", "ms", s.execute_ms);
      ("serve.hit_ms", "ms", s.hit_ms);
      ("serve.miss_ms", "ms", s.miss_ms);
      ("serve.batch_size", "count", s.batch_size);
      ("cache.result.hit_ratio", "ratio", s.result_hit_ratio);
      ("cache.stmt.hit_ratio", "ratio", s.stmt_hit_ratio);
      ("cache.invalidations", "count", s.invalidations);
      ("trace.overhead_pct", "%", r.overhead_pct);
    ]
