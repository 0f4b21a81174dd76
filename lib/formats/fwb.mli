(** FWB — fixed-width binary: the paper's "custom binary format" (§4.2).

    Every field is serialized from its C representation at a fixed width
    (ints and floats: 8 bytes little-endian; bools: 1 byte), so the byte
    location of any data element is computed, not discovered:
    [row * row_size + field_offset]. A JIT access path bakes these constants
    into the scan kernel; no positional map is ever needed. Strings are not
    representable (by design — the format exists to model deterministic
    layouts such as FITS). *)

open Raw_vector
open Raw_storage

type layout

val layout : Dtype.t array -> layout
(** Raises [Invalid_argument] if any column is [String]. *)

val row_size : layout -> int
val field_offset : layout -> int -> int
val dtypes : layout -> Dtype.t array

val offset_of : layout -> row:int -> field:int -> int
(** The paper's formula: [row * row_size + field_offset]. *)

val n_rows : layout -> Mmap_file.t -> int
(** [file_length / row_size]; raises the typed
    [Raw_storage.Scan_errors.Error] (cause ["fwb: trailing bytes"]) if the
    file size is not a whole number of rows — a truncated write or short
    read, i.e. malformed user data rather than a programmer error. *)

val n_rows_floor : layout -> Mmap_file.t -> int
(** Whole rows only: [file_length / row_size] rounded down. What the
    [Skip_row]/[Null_fill] policies scan of a ragged file. *)

val trailing_bytes : layout -> Mmap_file.t -> int
(** [file_length mod row_size] — nonzero iff the file is ragged. *)

(** {1 Reading}

    Typed point readers over a memory-mapped file; each accounts its access
    to the simulated page cache. *)

val read_int : Mmap_file.t -> int -> int
val read_float : Mmap_file.t -> int -> float
val read_bool : Mmap_file.t -> int -> bool

(** {1 Writing} *)

val write_file : path:string -> layout -> Value.t array Seq.t -> unit
(** Each array is one row matching the layout. Raises on arity or type
    mismatch. *)

val generate :
  path:string -> n_rows:int -> dtypes:Dtype.t array -> seed:int -> unit -> unit
(** Same value distributions as {!Csv.generate} and, for equal seeds and
    dtypes, the {e same data} — the paper generates its CSV and binary files
    from one dataset. *)

val row_values :
  path:string -> n_rows:int -> dtypes:Dtype.t array -> seed:int ->
  Value.t array Seq.t
(** The deterministic value stream used by {!generate} (exposed so tests and
    CSV generation can share it). [path] is unused except for API symmetry. *)
