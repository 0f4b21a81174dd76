(** CSV scan kernels: the general-purpose (in-situ) and JIT access paths
    (paper §4.1), written once.

    Each query builds one {e field program} from its schema, requested
    columns, tracked columns and error policy: per row, a list of steps
    over source columns — skip a run of fields, record a field into the
    positional map, convert it into a column builder, or (under
    [Skip_row]) validate it and discard it. The program is then compiled
    once by [mode]:

    - {b Interpreted} walks the program at run time: a dispatch per step,
      a data-type dispatch per field and an error check around every
      decode — the NoDB-style general-purpose operator and the branches
      the paper blames for in-situ overhead.
    - {b Jit} composes one monomorphic closure per step: skip runs fused,
      conversions baked in, position recording only where a tracked
      column sits. This is the closure-specialization analogue of the
      paper's generated C++ (see DESIGN.md §1).

    The policy is compiled in too: [Fail_fast] kernels carry no handler,
    [Null_fill] ones a per-field handler, [Skip_row] ones a row drop. A
    sequential scan and a positional fetch run the same program and differ
    only in their row source: a cursor over a byte range, or a
    positional-map seek plus a start column.

    Kernels report work through {!Raw_storage.Io_stats} counters
    [csv.fields_tokenized], [csv.values_converted], [scan.values_built]. *)

open Raw_vector
open Raw_storage
open Raw_formats

type mode = Interpreted | Jit

val mode_to_string : mode -> string

val seq_scan :
  mode:mode ->
  ?policy:Scan_errors.policy ->
  ?range:int * int ->
  file:Mmap_file.t ->
  sep:char ->
  schema:Schema.t ->
  needed:int list ->
  tracked:int list ->
  unit ->
  Column.t array * Posmap.t option
(** Full sequential scan. [needed] are schema indexes (result columns follow
    their order); [tracked] are source-column ordinals to record into a
    fresh positional map ([[]] = build none). Field lengths are recorded for
    tracked columns, enabling the length-aware parse in {!fetch}. [range]
    restricts the scan to a row-aligned byte range [(lo, hi)] (a morsel);
    recorded positions stay absolute.

    [policy] (default [Fail_fast]) selects the error handling. [Fail_fast]
    lets the typed {!Raw_storage.Scan_errors.Error} propagate on the first
    malformed field. [Skip_row] validates {e every} schema column per row —
    row identity must not depend on the queried columns — and drops bad
    rows, rolling their builder and posmap entries back; [Null_fill] keeps
    every physical row and decodes bad requested fields to NULL. Both
    record into {!Raw_storage.Scan_errors}, at the byte offset of the
    row. *)

val count_valid_rows :
  file:Mmap_file.t ->
  sep:char ->
  schema:Schema.t ->
  ?record:bool ->
  unit ->
  int
(** How many rows a [Skip_row] scan of this file yields: it runs the same
    field program, so cached row counts, positional maps and scan results
    always agree. [record] (default [false]) says whether the pass also
    records the errors it encounters. *)

val par_scan :
  mode:mode ->
  ?policy:Scan_errors.policy ->
  parallelism:int ->
  file:Mmap_file.t ->
  sep:char ->
  schema:Schema.t ->
  needed:int list ->
  tracked:int list ->
  unit ->
  Column.t array * Posmap.t option
(** Morsel-driven parallel scan: {!Raw_formats.Csv.row_aligned_ranges}
    morsels, one {!seq_scan} per morsel on its own domain against a forked
    file view, results stitched in morsel order. Bit-identical to
    [seq_scan] at any [parallelism]; [parallelism <= 1] {e is} [seq_scan].
    Morsel boundaries are structural (newlines), so they are unaffected by
    row validity: a [Skip_row] parallel scan drops exactly the rows the
    sequential one drops, and the stitched posmap matches. Worker-domain
    error records are merged deterministically by {!Morsel.map_domains}. *)

val fetch :
  mode:mode ->
  ?policy:Scan_errors.policy ->
  file:Mmap_file.t ->
  sep:char ->
  schema:Schema.t ->
  posmap:Posmap.t ->
  cols:int list ->
  rowids:int array ->
  unit ->
  Column.t array
(** Positional fetch of one or more schema columns for the given row ids
    (ascending columns; any row order — callers choose, and pay the
    locality consequences, paper §5.3.2). For each row the kernel jumps to
    the tracked column at or before the first requested column and parses
    incrementally; multiple requested columns share one pass over the row
    (multi-column shreds, §5.3.1). Raises [Failure] if the positional map
    tracks nothing at or before the first column.

    Under [Null_fill] bad fields decode to NULL and are recorded at the
    byte offset of their row, as {!seq_scan} records them. [Skip_row]
    fetches like [Fail_fast]: its row ids only name rows the scan already
    validated schema-wide. *)

val can_fetch : schema:Schema.t -> posmap:Posmap.t -> cols:int list -> bool
(** Whether {!fetch} would succeed (some tracked column at or before the
    first requested column's source ordinal). [cols] are schema indexes. *)
