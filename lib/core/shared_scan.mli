(** Shared scans: one raw-file traversal feeding N concurrent queries.

    The server groups the queries of one batch — those that queued while
    the previous batch executed — by the raw file they read; a group
    executes as {e one} query over the union of the members' scan
    columns, then replays the materialized columns as each member's
    scan-output stream. Members therefore cost one traversal + cheap
    in-memory operator evaluation instead of N traversals — the paper's
    repeated-access economics applied across concurrent clients instead of
    across time.

    The union traversal is an ordinary {!Raw_db.run_plan}: admission, the
    configured deadline, profiling, io/compile accounting, the history
    record and empty-result shaping apply to it exactly as to a one-shot
    query. This module only computes the union and replays members.

    Results are bit-identical to running each member alone: all members
    share one table and one error policy, so the master pass enumerates
    exactly the row set each private scan would have, in the same order;
    plans are positional, so projecting the union into a member's
    scan-column order reproduces its private scan output exactly (the
    equivalence the server test asserts with {!Raw_vector.Chunk.equal}). *)

open Raw_vector

val shareable_table : Logical.t -> string option
(** [Some table] iff the plan reads exactly one table and contains no
    join — the shapes a shared pass can serve. *)

type member_result = { chunk : Chunk.t; schema : Schema.t }

type group_result = {
  results : member_result list;  (** in the order the plans were given *)
  rows_scanned : int;  (** rows enumerated by the single shared pass *)
  wall_seconds : float;
}

val run_group : Raw_db.t -> Logical.t list -> group_result
(** Execute a group of shareable plans over one traversal. All plans must
    be {!shareable_table} on the {e same} table ([Invalid_argument]
    otherwise). Errors of the union run propagate unchanged — a
    {!Raw_storage.Resource_error} (deadline, cancelled, overloaded) is
    the whole group's verdict. The caller runs groups one at a time (the
    engine's adaptive state is single-writer). *)
