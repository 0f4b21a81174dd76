(* The in-process workloads: cold-csv and warm-session (and, in the traced
   run, serve-mixed's statements). Each query goes through the public
   Raw_db entry point; latency is wall clock only, so the simulated I/O and
   compile seconds never leak into it. *)

open Raw_vector
open Raw_core

let register db seed table =
  let csv name path dtypes =
    Raw_db.register_csv db ~name ~path ~columns:(Data.colnames dtypes) ()
  in
  match table with
  | "t30" -> csv "t30" (Data.t30 seed) (Data.ints 30)
  | "q120" -> csv "q120" (Data.q120 seed) Data.q120_dtypes
  | "b30" ->
    Raw_db.register_fwb db ~name:"b30" ~path:(Data.b30 seed)
      ~columns:(Data.colnames (Data.ints 30))
  | "log" -> csv "log" (Data.log_version seed 0) (Data.ints 30)
  | t -> invalid_arg ("no table " ^ t)

let tables = function
  | "cold-csv" -> [ "t30" ]
  | "warm-session" -> [ "t30"; "q120"; "b30" ]
  | _ -> [ "t30"; "log" ]

let fresh_db workload seed =
  let db = Raw_db.create () in
  List.iter (register db seed) (tables workload);
  Raw_db.drop_file_caches db;
  db

(* The single value of a one-row, one-column result. *)
let scalar_of_chunk c =
  if Chunk.n_rows c <> 1 || Chunk.n_cols c <> 1 then None
  else Some (Column.get (Chunk.column c 0) 0)

let matches (v : Value.t option) (a : Data.answer) =
  match (v, a) with
  | Some Null, Null -> true
  | Some (Int n), I m -> n = m
  | Some (Float f), F g -> Float.equal f g
  | _ -> false

(* The engine an op runs on. cold-csv builds a fresh one with a cold
   simulated page cache, after collecting the previous one, so each op
   starts from the heap a one-shot process would have; warm-session forgets
   the data state (not the templates) at each episode start. Both happen
   outside the op's timing. *)
let engine_for workload seed db (op : Ops.op) =
  if workload = "cold-csv" then begin
    Gc.full_major ();
    fresh_db workload seed
  end
  else begin
    if op.reset then Raw_db.forget_data_state db;
    db
  end

type sample = { ms : float; ok : bool; value : Value.t option }

(* Run one op; errors count as failures and never abort the run. *)
let run_op db (op : Ops.op) =
  let sql = Ops.sql op in
  let t0 = Util.now () in
  match Raw_db.query db sql with
  | r ->
    let ms = (Util.now () -. t0) *. 1000. in
    let value = scalar_of_chunk r.Executor.chunk in
    ({ ms; ok = matches value op.expect.(0); value }, Some r)
  | exception e ->
    Util.log "%s failed: %s" sql (Printexc.to_string e);
    ({ ms = (Util.now () -. t0) *. 1000.; ok = false; value = None }, None)

(* Set-up: engine creation and registration, then the warm-up ops.
   Returns the engine and (seconds, simulated I/O seconds, failed ops). *)
let setup workload seed warmup =
  Gc.full_major ();
  let t0 = Util.now () in
  let db = fresh_db workload seed in
  let io = ref 0. and failed = ref 0 in
  Array.iter
    (fun op ->
      match run_op (engine_for workload seed db op) op with
      | s, Some r ->
        io := !io +. r.Executor.io_seconds;
        if not s.ok then incr failed
      | _, None -> incr failed)
    warmup;
  (db, (Util.now () -. t0, !io, !failed))

(* warm-session episodes take about this long on the reference 2-core
   machine. *)
let episode_seconds = 3.5

(* The timed loop: ops in sequence order until [seconds] have passed.
   warm-session instead measures a fixed number of whole episodes,
   [seconds / episode_seconds] of them. Each episode rescans t30 and q120
   once (their positional maps were forgotten), so a run that stopped on
   the clock would vary its number of rescans, and with it the tail and
   the throughput. With 6 to 10 episodes the 11th-largest latency is one
   of the q120 rescans, a steady amount of work (7 episodes at 25 s). *)
let loop workload seed db ops ~seconds ~on_op =
  let n = Array.length ops in
  let t0 = Util.now () in
  let i = ref 0 in
  let more =
    if workload = "warm-session" then
      let last = max 1 (int_of_float (seconds /. episode_seconds)) * Ops.warm_episode in
      fun () -> !i < last
    else fun () -> Util.now () -. t0 < seconds
  in
  while more () do
    let op = ops.(!i mod n) in
    on_op (fst (run_op (engine_for workload seed db op) op));
    incr i
  done;
  (!i, Util.now () -. t0)
