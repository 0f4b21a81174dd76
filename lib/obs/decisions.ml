(* The adaptive-decision audit log: every point where the engine chooses a
   path — JIT vs interpreted kernel, posmap build/use/miss, shred reuse,
   template cache hit vs compile, cost-model strategy resolution,
   governance degradation — records what it chose and the inputs it chose
   from. Like Trace, the ambient handle is domain-local and absent by
   default, so a disabled log costs one DLS read per site. The buffer is
   bounded: a scan that fetches thousands of chunks cannot turn the log
   into a second result set (drops are counted). *)

type record = {
  site : string;
  choice : string;
  inputs : (string * string) list;
}

type handle = {
  mutex : Mutex.t;
  cap : int;
  mutable recorded : record list; (* reverse order *)
  mutable count : int;
  mutable dropped : int;
}

let key : handle option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create ?(cap = 4096) () =
  { mutex = Mutex.create (); cap; recorded = []; count = 0; dropped = 0 }

let with_handle h f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some h);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let enabled () = Domain.DLS.get key <> None

let fork () = Domain.DLS.get key

let record ~site ~choice inputs =
  match Domain.DLS.get key with
  | None -> ()
  | Some h ->
    Mutex.protect h.mutex (fun () ->
        if h.count < h.cap then begin
          h.recorded <- { site; choice; inputs } :: h.recorded;
          h.count <- h.count + 1
        end
        else begin
          h.dropped <- h.dropped + 1;
          Raw_storage.Io_stats.incr "obs.decisions_dropped"
        end)

let records h = Mutex.protect h.mutex (fun () -> List.rev h.recorded)
let dropped h = Mutex.protect h.mutex (fun () -> h.dropped)

let by_site records site = List.filter (fun r -> r.site = site) records

let pp ppf r =
  Format.fprintf ppf "%s: %s" r.site r.choice;
  if r.inputs <> [] then
    Format.fprintf ppf " (%s)"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) r.inputs))
