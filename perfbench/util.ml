(* Clocks, order statistics, process memory and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has at least ten samples beyond it:
   the 11th-largest sample, reported with its percentile. With fewer than
   11 samples it is the maximum (percentile 100). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 100.)
  else if n < 11 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* Peak resident set ("VmHWM") of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> nan
          | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> go ()
        in
        go ())

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* Seeded streams: one [Random.State] per (seed, purpose). *)
let rng seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

(* Zipf(1) over [0, n): rank r has weight 1/(r+1). *)
let zipf_sampler n =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cum.(r) <- !acc
  done;
  fun st ->
    let u = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* The result line. Values keep all their digits; JSON has no nan/inf. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let m =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
