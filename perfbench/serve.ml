(* serve-mixed: the shipped `rawq serve` binary as a child process, driven
   by closed-loop client sessions over its Unix socket.

   Lifecycle: spawn, wait for the readiness line, ping, warm up; at the end
   read the child's VmHWM, ask it to shut down, wait for it and remove the
   socket. An exit hook kills a child that is still alive, so an
   interrupted benchmark leaves no server behind. A server that dies
   mid-run turns the remaining requests into failed operations: every
   round trip has a timeout and a refused connection fails fast. *)

open Raw_core
module Client = Server.Client
module J = Raw_obs.Jsons

let rawq () =
  let here = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.dirname here) (Filename.concat "bin" "rawq.exe")

type server = { pid : int; socket : string }

let live : server list ref = ref []
let temps : string list ref = ref []
let remove p = try Sys.remove p with Sys_error _ -> ()

let kill_live () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
      List.iter remove [ s.socket; s.socket ^ ".out" ])
    !live;
  live := [];
  List.iter remove !temps;
  temps := []

let () = at_exit kill_live

let schema dtypes =
  String.concat ","
    (List.map
       (fun (n, d) -> n ^ ":" ^ Raw_vector.Dtype.to_string d)
       (Data.colnames dtypes))

(* [tables] are (flag, name, path, dtypes), flag "--csv" or "--fwb". *)
let spawn ~socket tables =
  remove socket;
  let args =
    List.concat_map
      (fun (flag, name, path, dtypes) ->
        [ flag; Printf.sprintf "%s=%s@%s" name path (schema dtypes) ])
      tables
  in
  let argv = Array.of_list ((rawq () :: "serve" :: args) @ [ "--socket"; socket ]) in
  let out_path = socket ^ ".out" in
  let out = Unix.openfile out_path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out Unix.stderr in
  Unix.close out;
  let s = { pid; socket } in
  live := s :: !live;
  (* readiness: the server flushes "rawq: serving ..." before it listens *)
  let deadline = Util.now () +. 60. in
  let rec wait_ready () =
    let text = In_channel.with_open_bin out_path In_channel.input_all in
    if String.starts_with ~prefix:"rawq: serving" text then ()
    else if Util.now () > deadline || fst (Unix.waitpid [ WNOHANG ] pid) <> 0 then
      failwith "rawq serve did not become ready"
    else (Unix.sleepf 0.002; wait_ready ())
  in
  wait_ready ();
  let rec connect tries =
    match Client.connect ~connect_timeout:5. ~request_timeout:60. socket with
    | c -> c
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.01;
      connect (tries - 1)
  in
  let c = connect 500 in
  (match Client.ping c with
   | Ok _ -> ()
   | Error e -> failwith ("ping: " ^ Client.err_to_string e));
  (s, c)

let peak_rss_mb s = Util.peak_rss_mb (string_of_int s.pid)

let stop s c =
  ignore (Client.shutdown c);
  Client.close c;
  let deadline = Util.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Util.now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ -> Unix.kill s.pid Sys.sigkill; ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  List.iter remove [ s.socket; s.socket ^ ".out" ]

(* A counter from the Prometheus exposition of the metrics op. *)
let exposition_counter c name =
  match Client.metrics c with
  | Error _ -> nan
  | Ok j -> (
    match Option.bind (J.member "exposition" j) J.to_string_opt with
    | None -> nan
    | Some text ->
      let prefix = name ^ " " in
      List.fold_left
        (fun acc l ->
          if String.starts_with ~prefix l then
            float_of_string
              (String.sub l (String.length prefix)
                 (String.length l - String.length prefix))
          else acc)
        0. (String.split_on_char '\n' text))

let stats_counters c =
  match Client.stats c with
  | Error _ -> []
  | Ok j -> (
    match J.member "counters" j with
    | Some (J.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float_opt v)) kvs
    | _ -> [])

(* ---- requests ---- *)

let value_of_response j =
  match J.member "rows" j with
  | Some (J.List [ J.List [ v ] ]) -> Some v
  | _ -> None

let matches v (a : Data.answer) =
  match (v, a) with
  | Some J.Null, Null -> true
  | Some (J.Int n), I m -> n = m
  | Some (J.Float f), F g -> Float.equal f g
  | Some (J.Int n), F g -> Float.equal (float_of_int n) g
  | _ -> false

(* The server's own split of a request, from the response. *)
type timing = { read : float; queue : float; execute : float }

type sample = { cls : Ops.cls; ms : float; ok : bool; t0 : float; timing : timing option }

let timing_of j =
  match J.member "timing" j with
  | None -> None
  | Some t ->
    let f k = Option.value ~default:0. (Option.bind (J.member k t) J.to_float_opt) in
    Some { read = f "read_s"; queue = f "queue_s"; execute = f "execute_s" }

(* The log table: pre-generated versions, installed by hard link + atomic
   rename, so a rewrite costs O(1) and never competes with the server. *)
type log = { live_path : string; seed : int; version : int Atomic.t; m : Mutex.t }

let install log v =
  let tmp = log.live_path ^ ".next" in
  remove tmp;
  Unix.link (Data.log_version log.seed (v mod Data.log_versions)) tmp;
  Unix.rename tmp log.live_path

let rewrite log =
  Mutex.protect log.m (fun () ->
      let v = Atomic.get log.version + 1 in
      install log v;
      Atomic.set log.version v)

(* One request. For log statements any version live during the round trip
   is a correct answer. *)
let request ?log c (op : Ops.op) =
  let v0 = match log with Some l -> Atomic.get l.version | None -> 0 in
  let t0 = Util.now () in
  let r = Client.query c (Ops.sql op) in
  let ms = (Util.now () -. t0) *. 1000. in
  let v1 = match log with Some l -> Atomic.get l.version | None -> 0 in
  match r with
  | Error e ->
    Util.log "%s: %s" (Ops.sql op) (Client.err_to_string e);
    { cls = op.cls; ms; ok = false; t0; timing = None }
  | Ok j ->
    let value = value_of_response j in
    let ok =
      J.member "ok" j = Some (J.Bool true)
      &&
      if op.cls = Log then
        List.exists
          (fun v -> matches value op.expect.(v mod Data.log_versions))
          (List.init (v1 - v0 + 1) (fun i -> v0 + i))
      else matches value op.expect.(0)
    in
    if not ok then Util.log "wrong answer for %s" (Ops.sql op);
    { cls = op.cls; ms; ok; t0; timing = timing_of j }

let rewrite_every = 150

(* Closed loop: [sessions] threads, each its own connection and op stream,
   no think time. Every [rewrite_every] requests (all sessions together)
   the requesting thread installs the next log version. *)
let run_sessions ~socket ~log ~streams ~seconds =
  let count = Atomic.make 0 in
  let deadline = Util.now () +. seconds in
  let results = Array.map (fun _ -> []) streams in
  let session i =
    let (ops : Ops.op array) = streams.(i) in
    let n = Array.length ops in
    let conn = ref None in
    let get_conn () =
      match !conn with
      | Some c -> Some c
      | None -> (
        match Client.connect ~connect_timeout:5. ~request_timeout:30. socket with
        | c -> conn := Some c; Some c
        | exception Unix.Unix_error _ -> None)
    in
    let acc = ref [] in
    let k = ref 0 in
    while Util.now () < deadline do
      let (op : Ops.op) = ops.(!k mod n) in
      let no = Atomic.fetch_and_add count 1 in
      if no > 0 && no mod rewrite_every = 0 then rewrite log;
      let s =
        match get_conn () with
        | None ->
          Unix.sleepf 0.001;
          { cls = op.cls; ms = 0.; ok = false; t0 = Util.now (); timing = None }
        | Some c ->
          let s = request ~log c op in
          if s.timing = None && not s.ok then begin
            Client.close c;
            conn := None
          end;
          s
      in
      acc := s :: !acc;
      incr k
    done;
    Option.iter Client.close !conn;
    results.(i) <- List.rev !acc
  in
  let t0 = Util.now () in
  let threads = Array.mapi (fun i _ -> Thread.create session i) streams in
  Array.iter Thread.join threads;
  (results, Util.now () -. t0)

(* ---- set-up and teardown ---- *)

(* The tables each workload serves; the log path is filled in per set-up. *)
let tables workload seed =
  let t30 = ("--csv", "t30", Data.t30 seed, Data.ints 30) in
  match workload with
  | "cold-csv" -> [ t30 ]
  | "warm-session" ->
    [ t30; ("--csv", "q120", Data.q120 seed, Data.q120_dtypes);
      ("--fwb", "b30", Data.b30 seed, Data.ints 30) ]
  | _ -> [ t30; ("--csv", "log", "", Data.ints 30) ]

(* Spawn, readiness, ping, warm-up statements: the timed set-up. Returns
   the server, its control connection, the log table, and (set-up
   seconds, simulated I/O seconds charged by the server so far, failed
   warm-up requests). *)
let setup ~tables seed warmup i =
  let name suffix =
    Filename.concat Data.root (Printf.sprintf "run-%d-%d.%s" (Unix.getpid ()) i suffix)
  in
  let log = { live_path = name "log.csv"; seed; version = Atomic.make 0; m = Mutex.create () } in
  let tables =
    List.map (fun (f, n, p, d) -> if n = "log" then (f, n, log.live_path, d) else (f, n, p, d)) tables
  in
  if List.exists (fun (_, n, _, _) -> n = "log") tables then begin
    temps := log.live_path :: !temps;
    install log 0
  end;
  let t0 = Util.now () in
  let s, c = spawn ~socket:(name "sock") tables in
  let failed =
    Array.fold_left (fun n op -> if (request ~log c op).ok then n else n + 1) 0 warmup
  in
  let seconds = Util.now () -. t0 in
  let io = exposition_counter c "raw_io_simulated_seconds_total" in
  (s, c, log, (seconds, io, failed))

let teardown (s, c, log) =
  stop s c;
  remove log.live_path;
  temps := List.filter (( <> ) log.live_path) !temps
