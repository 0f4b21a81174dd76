(* The repository benchmark. See README.md for the workloads and metrics.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   prints a human-readable account, then as its last stdout line one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones, with --trace 1 the per-layer ones
   from the traced run (Traced). *)

let setups = 3

type e2e = {
  setup_s : float list;
  io_s : float list;
  latencies : float list;  (** ms, one per timed op *)
  ops : int;
  failed : int;
  wall : float;
  rss_mb : float;
}

let report ~workload (r : e2e) =
  let p50 = Util.median r.latencies in
  let tail, pct = Util.tail r.latencies in
  Printf.printf "workload %s: %d ops in %.3f s, %d failed\n" workload r.ops r.wall
    r.failed;
  Printf.printf "  setup_s        %.4f (median of %d set-ups)\n" (Util.median r.setup_s)
    (List.length r.setup_s);
  Printf.printf "  query_ms.p50   %.4f (n=%d)\n" p50 (List.length r.latencies);
  Printf.printf "  query_ms.tail  %.4f (p%.2f of n=%d)\n" tail pct (List.length r.latencies);
  Printf.printf "  qps            %.4f\n" (float_of_int r.ops /. r.wall);
  Printf.printf "  peak_rss_mb    %.3f\n" r.rss_mb;
  Printf.printf "  io_sim_s       %.6f (simulated, per set-up)\n%!" (Util.median r.io_s);
  Util.result_line ~correct:(r.failed = 0) ~attempted:r.ops ~failed:r.failed
    [
      ("setup_s", "s", Util.median r.setup_s);
      ("query_ms.p50", "ms", p50);
      ("query_ms.tail", "ms", tail);
      ("qps", "1/s", float_of_int r.ops /. r.wall);
      ("peak_rss_mb", "MB", r.rss_mb);
      ("io_sim_s", "s", Util.median r.io_s);
    ]

let inproc workload seed seconds =
  let ops = Ops.load workload seed in
  let warmup = Ops.section "warmup" ops and main = Ops.section "s0" ops in
  (* only the last set-up's engine stays alive for the timed loop *)
  let earlier = List.init (setups - 1) (fun _ -> snd (Inproc.setup workload seed warmup)) in
  let db, m = Inproc.setup workload seed warmup in
  let runs = earlier @ [ m ] in
  let lat = ref [] and failed = ref 0 in
  let n, wall =
    Inproc.loop workload seed db main ~seconds ~on_op:(fun s ->
        lat := s.Inproc.ms :: !lat;
        if not s.ok then incr failed)
  in
  {
    setup_s = List.map (fun (t, _, _) -> t) runs;
    io_s = List.map (fun (_, io, _) -> io) runs;
    latencies = !lat;
    ops = n;
    failed = !failed + List.fold_left (fun a (_, _, f) -> a + f) 0 runs;
    wall;
    rss_mb = Util.peak_rss_mb "self";
  }

let serve_streams ops = [| Ops.section "s0" ops; Ops.section "s1" ops |]

let serve workload seed seconds =
  let ops = Ops.load workload seed in
  let warmup = Ops.section "warmup" ops in
  let tables = Serve.tables workload seed in
  (* only the last set-up's server stays up for the timed loop *)
  let earlier =
    List.init (setups - 1) (fun i ->
        let s, c, log, m = Serve.setup ~tables seed warmup i in
        Serve.teardown (s, c, log);
        m)
  in
  let s, c, log, m = Serve.setup ~tables seed warmup (setups - 1) in
  let runs = earlier @ [ m ] in
  let results, wall =
    Serve.run_sessions ~socket:s.Serve.socket ~log ~streams:(serve_streams ops) ~seconds
  in
  let rss_mb = Serve.peak_rss_mb s in
  Serve.teardown (s, c, log);
  let all = List.concat (Array.to_list results) in
  let split cls = List.filter_map (fun (x : Serve.sample) -> if x.cls = cls then Some x.ms else None) all in
  List.iter
    (fun (name, cls) ->
      let xs = split cls in
      let t, p = Util.tail xs in
      Printf.printf "  %-8s n=%d p50=%.4f ms tail=%.4f ms (p%.2f)\n" name (List.length xs)
        (Util.median xs) t p)
    [ ("hit", Ops.Hot); ("log", Ops.Log); ("miss", Ops.Distinct) ];
  {
    setup_s = List.map (fun (t, _, _) -> t) runs;
    io_s = List.map (fun (_, io, _) -> io) runs;
    latencies = List.map (fun (x : Serve.sample) -> x.ms) all;
    ops = List.length all;
    failed =
      List.length (List.filter (fun (x : Serve.sample) -> not x.ok) all)
      + List.fold_left (fun a (_, _, f) -> a + f) 0 runs;
    wall;
    rss_mb;
  }

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload cold-csv|warm-session|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let prepare workload seed ~traced =
  Data.prune ~keep:3;
  let argv =
    [| Sys.executable_name; "prepare"; workload; string_of_int seed;
       (if traced then "1" else "0") |]
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Unix.utimes (Data.dir seed) 0. 0.
  | _ -> failwith "input preparation failed"

let () =
  match Array.to_list Sys.argv with
  | [ _; "prepare"; workload; seed; traced ] ->
    let seed = int_of_string seed in
    Ops.prepare workload seed;
    if traced = "1" then
      (* the traced run probes every layer, FWB and float parsing included *)
      List.iter (fun f -> ignore (f seed)) [ Data.t30; Data.q120; Data.b30 ]
  | _ :: args ->
    let rec parse acc = function
      | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let workload = get "workload" in
    let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
    let traced = get "trace" = "1" in
    if not (List.mem workload Ops.workloads) then usage ();
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
    prepare workload seed ~traced;
    let line =
      if traced then Traced.run workload seed seconds
      else if workload = "serve-mixed" then report ~workload (serve workload seed seconds)
      else report ~workload (inproc workload seed seconds)
    in
    print_endline line
  | [] -> usage ()
