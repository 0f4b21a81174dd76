(** Adaptive-decision audit log.

    Records {e why} a query took the path it took: each decision site names
    itself, the choice it made, and the inputs the choice was made from
    (cost-model estimates, cache keys, pressure signals). Tests assert on
    these instead of inferring intent from counters; [rawq --analyze]
    prints them after the result.

    The ambient handle is domain-local and absent by default —
    {!record} without one is a single read and a branch. The buffer is
    bounded ([cap], default 4096); drops are counted under
    [obs.decisions_dropped]. *)

type record = {
  site : string;  (** e.g. ["template_cache"], ["planner.adaptive"] *)
  choice : string;  (** e.g. ["hit"], ["compile"], ["multishreds"] *)
  inputs : (string * string) list;
}

type handle

val create : ?cap:int -> unit -> handle

val with_handle : handle -> (unit -> 'a) -> 'a
(** Install as this domain's ambient log for the duration of the
    callback. *)

val enabled : unit -> bool

val fork : unit -> handle option
(** The ambient handle, for installing into a worker domain (the buffer is
    shared and mutex-protected). *)

val record : site:string -> choice:string -> (string * string) list -> unit
(** Append to the ambient log; no-op when none is installed. *)

val records : handle -> record list
(** In recording order (worker interleavings are scheduler-dependent;
    sort or filter by {!record.site} for deterministic assertions). *)

val dropped : handle -> int
val by_site : record list -> string -> record list
val pp : Format.formatter -> record -> unit
