open Raw_vector
open Raw_storage
open Raw_formats
module Metrics = Raw_obs.Metrics

(* FWB values cannot fail to decode — every fixed-width slot is a valid
   int/float/bool bit pattern — so the only malformation is a ragged file
   length. [Fail_fast] raises on it ({!Raw_formats.Fwb.n_rows}); the
   lenient policies scan the whole rows and record the tail once per
   enumerating pass. *)
let row_bound ~policy layout file =
  match (policy : Scan_errors.policy) with
  | Fail_fast -> Fwb.n_rows layout file
  | Skip_row | Null_fill ->
    let tb = Fwb.trailing_bytes layout file in
    if tb > 0 then
      Scan_errors.record
        ~offset:(Mmap_file.length file - tb)
        ~field:(-1) ~cause:"fwb: trailing bytes";
    Fwb.n_rows_floor layout file

(* The row source: a contiguous range [lo, hi) or explicit row ids. *)
type rows = Range of int * int | Ids of int array

let n_of = function Range (lo, hi) -> hi - lo | Ids ids -> Array.length ids

let[@inline] row_at src k =
  match src with Range (lo, _) -> lo + k | Ids ids -> Array.unsafe_get ids k

(* One reader for every access: [cols] (schema indexes) at the rows of
   [src], result in [cols] order. *)
let read ~mode ~file ~layout ~schema ~cols src =
  let n = n_of src in
  let field i = (Schema.field schema i).Schema.source_index in
  let out =
    match (mode : Scan_csv.mode) with
    | Interpreted ->
      (* row-major; per value, a layout lookup and a data-type dispatch *)
      let builders =
        List.map (fun i -> Builder.create ~capacity:(max n 1) (Schema.dtype schema i)) cols
      in
      let tick = Cancel.batch_checker (Cancel.current ()) in
      for k = 0 to n - 1 do
        tick ();
        let row = row_at src k in
        List.iter2
          (fun i b ->
            let pos = Fwb.offset_of layout ~row ~field:(field i) in
            Builder.add_value b
              (match Schema.dtype schema i with
               | Dtype.Int -> Value.Int (Fwb.read_int file pos)
               | Dtype.Float -> Value.Float (Fwb.read_float file pos)
               | Dtype.Bool -> Value.Bool (Fwb.read_bool file pos)
               | Dtype.String -> invalid_arg "Scan_fwb: String column in FWB"))
          cols builders
      done;
      List.map Builder.to_column builders
    | Jit ->
      (* the paper's "inject the binary offsets into the code": base offset
         and stride baked into one monomorphic loop per column; with an
         inactive token [live] is false and the land-mask check folds to
         one dead branch *)
      let rs = Fwb.row_size layout in
      let cancel = Cancel.current () in
      let live = Cancel.active cancel in
      let column i =
        Cancel.check cancel;
        let off0 = Fwb.field_offset layout (field i) in
        match Schema.dtype schema i with
        | Dtype.Int ->
          let a = Array.make n 0 in
          for k = 0 to n - 1 do
            if live && k land 0xFFF = 0xFFF then Cancel.check cancel;
            a.(k) <- Fwb.read_int file (off0 + (row_at src k * rs))
          done;
          Column.of_int_array a
        | Dtype.Float ->
          let a = Array.make n 0. in
          for k = 0 to n - 1 do
            if live && k land 0xFFF = 0xFFF then Cancel.check cancel;
            a.(k) <- Fwb.read_float file (off0 + (row_at src k * rs))
          done;
          Column.of_float_array a
        | Dtype.Bool ->
          let a = Array.make n false in
          for k = 0 to n - 1 do
            if live && k land 0xFFF = 0xFFF then Cancel.check cancel;
            a.(k) <- Fwb.read_bool file (off0 + (row_at src k * rs))
          done;
          Column.of_bool_array a
        | Dtype.String -> invalid_arg "Scan_fwb: String column in FWB"
      in
      let out = List.map column cols in
      if live then Metrics.add Metrics.scan_rows_scanned n;
      out
  in
  Metrics.add Metrics.fwb_values_read (n * List.length cols);
  Metrics.add Metrics.scan_values_built (n * List.length cols);
  Array.of_list out

let seq_scan ~mode ?(policy = Scan_errors.Fail_fast) ?rows ~file ~layout
    ~schema ~needed () =
  let lo, hi =
    match rows with Some r -> r | None -> (0, row_bound ~policy layout file)
  in
  read ~mode ~file ~layout ~schema ~cols:needed (Range (lo, hi))

let fetch ~mode ~file ~layout ~schema ~cols ~rowids =
  read ~mode ~file ~layout ~schema ~cols (Ids rowids)

(* Morsel-driven parallel scan: contiguous row ranges (fixed arithmetic),
   one sequential read per range on its own domain, columns concatenated
   in range order. Bit-identical to the sequential scan. *)
let par_scan ~mode ?(policy = Scan_errors.Fail_fast) ~parallelism ~file
    ~layout ~schema ~needed () =
  let bound = row_bound ~policy layout file in
  let ranges =
    if parallelism <= 1 then []
    else Morsel.split_range ~lo:0 ~hi:bound ~n:parallelism
  in
  match ranges with
  | [] | [ _ ] ->
    seq_scan ~mode ~rows:(0, bound) ~file ~layout ~schema ~needed ()
  | ranges ->
    let parts =
      Morsel.map_domains
        (fun rows ->
          let view = Mmap_file.fork_view file in
          let cols = seq_scan ~mode ~rows ~file:view ~layout ~schema ~needed () in
          (cols, view))
        ranges
    in
    List.iter (fun (_, view) -> Mmap_file.absorb ~into:file view) parts;
    let n_cols = match parts with (cols, _) :: _ -> Array.length cols | [] -> 0 in
    Array.init n_cols (fun k ->
        Column.concat (List.map (fun (cols, _) -> cols.(k)) parts))
