(* e27 — cost of continuous telemetry on the serving hot path.

   PR 9 turns the server's observability from "ask and it computes" into
   "always on": a ticker thread snapshotting the metrics registry into
   the window ring, a span tree built for every request, a timing object
   serialized into every response, and the slowest-trace ring updated at
   request end. All of that must be close to free, or the default knobs
   (telemetry_tick = 1 s, trace_retain = 32) would tax every deployment.

   The measurement is a duel, same design as e26's armor gate: a
   telemetry-heavy server (tick cranked to 50 ms, tracing on, plus a
   poller session fetching stats + metrics + trace five times a second —
   a deliberately attached [rawq top]) races a telemetry-off server
   (tick 0, retain 0) through the identical 32-session workload in the
   same wall-clock window, so load spikes hit both sides equally and the
   throughput ratio self-normalizes. The best per-duel ratio over
   [duels] rounds must stay above [gate_fraction] (overhead <= 2%), with
   one re-measure retry for stray scheduler spikes. Every response is
   still verified against the one-shot oracle. *)

open Raw_core

let duels = 2

(* telemetry-on throughput must stay within 2% of telemetry-off *)
let gate_fraction = 0.98

let telemetry_on_config =
  { Config.default with Config.telemetry_tick = 0.05; trace_retain = 32 }

let telemetry_off_config =
  { Config.default with Config.telemetry_tick = 0.; trace_retain = 0 }

let e27 () =
  Bench_util.header "e27 — telemetry overhead"
    "telemetry-on (50 ms ticks, tracing, polled stats/metrics/trace) vs \
     telemetry-off, same-window duel";
  let oracle_db = Bench_util.db_q30 () in
  Raw_db.register_csv oracle_db ~name:"t120" ~path:(Bench_util.q120_csv ())
    ~columns:(Bench_util.colnames_mixed Bench_util.q120_dtypes) ();
  let t30_sorted = Exp_serve.sorted_col0 oracle_db "t30" in
  let t120_sorted = Exp_serve.sorted_col0 oracle_db "t120" in
  let count_below = Exp_serve.count_below in
  let failures = ref 0 in
  let fail_mutex = Mutex.create () in
  let note_failure msg =
    Mutex.protect fail_mutex (fun () ->
        incr failures;
        if !failures <= 5 then Printf.eprintf "  e27 FAIL: %s\n%!" msg)
  in
  (* a live poller on the on side: a deliberately attached [rawq top] *)
  let duel =
    Exp_chaos.duel ~label:"telemetry" ~on_config:telemetry_on_config
      ~off_config:telemetry_off_config
      ~poll:(fun c ->
        ignore (Server.Client.stats c);
        ignore (Server.Client.metrics c);
        ignore (Server.Client.trace c))
      ~note_failure ~t30_sorted ~t120_sorted ~count_below
  in
  let on_best, off_best = Exp_chaos.best_duel ~duels ~gate_fraction duel in
  if on_best.Exp_chaos.qps < gate_fraction *. off_best.Exp_chaos.qps then begin
    Printf.eprintf
      "e27: telemetry-on throughput %.1f q/s is below %.0f%% of \
       telemetry-off %.1f q/s in every same-window duel — continuous \
       telemetry is taxing the hot path\n\
       %!"
      on_best.Exp_chaos.qps
      (100. *. gate_fraction)
      off_best.Exp_chaos.qps;
    exit 1
  end;
  Printf.printf
    "  gate ok: telemetry-on %.1f q/s >= %.0f%% of telemetry-off %.1f in a \
     duel\n\
     %!"
    on_best.Exp_chaos.qps
    (100. *. gate_fraction)
    off_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.telemetry_on.qps" on_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.telemetry_on.p99_ms"
    on_best.Exp_chaos.p99_ms;
  Bench_util.record_metric ~name:"serve.telemetry_off.qps"
    off_best.Exp_chaos.qps;
  Bench_util.record_metric ~name:"serve.telemetry_off.p99_ms"
    off_best.Exp_chaos.p99_ms;
  Bench_util.record_metric ~name:"serve.telemetry.duel_ratio"
    (on_best.Exp_chaos.qps /. off_best.Exp_chaos.qps);
  let nq = Exp_chaos.sessions * Exp_chaos.queries_per_client in
  Bench_util.record_raw_sample ~label:"serve telemetry=on"
    ~wall_seconds:on_best.Exp_chaos.wall ~result_rows:nq ();
  Bench_util.record_raw_sample ~label:"serve telemetry=off"
    ~wall_seconds:off_best.Exp_chaos.wall ~result_rows:nq ();
  if !failures > 0 then begin
    Printf.eprintf "e27: %d wrong or failed response(s)\n%!" !failures;
    exit 1
  end;
  Printf.printf
    "  all well-formed responses verified against one-shot oracle\n%!"
