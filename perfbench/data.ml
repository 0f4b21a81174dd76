(* Seeded inputs and their reference answers.

   Every file is written through the engine's public writers
   (Csv.generate, Fwb.generate, Csv.write_file) into
   .perfbench_data/s<seed>/ under the current directory, and reused while
   it is there. The reference answers come from this module's own reading
   of the written files: ints through [int_of_string], floats through
   [float_of_string] (correctly rounded), FWB slots as little-endian int64.
   Row counts carry a small seeded jitter so that file sizes, and with them
   the simulated I/O, differ from seed to seed. *)

open Raw_vector
open Raw_formats

let root = ".perfbench_data"
let dir seed = Filename.concat root (Printf.sprintf "s%d" seed)
let path seed name = Filename.concat (dir seed) name

let mkdir_p d =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go d

(* Keep the inputs of the few most recently used seeds only. *)
let prune ~keep =
  if Sys.file_exists root then begin
    let dirs =
      Sys.readdir root |> Array.to_list
      |> List.filter (fun d -> String.length d > 1 && d.[0] = 's')
      |> List.map (fun d -> Filename.concat root d)
      |> List.filter Sys.is_directory
      |> List.map (fun d -> ((Unix.stat d).Unix.st_mtime, d))
      |> List.sort (fun a b -> compare b a)
    in
    List.iteri
      (fun i (_, d) ->
        if i >= keep then begin
          Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
          Unix.rmdir d
        end)
      dirs
  end

(* Generate [name] unless present; writes go to a temporary name first so
   an interrupted run never leaves a truncated input behind, and are synced
   so their write-back does not overlap the measurement. *)
let cached seed name gen =
  let p = path seed name in
  if not (Sys.file_exists p) then begin
    mkdir_p (dir seed);
    let tmp = p ^ ".tmp" in
    gen tmp;
    let fd = Unix.openfile tmp [ O_RDWR ] 0 in
    Unix.fsync fd;
    Unix.close fd;
    Unix.rename tmp p
  end;
  p

let jitter seed salt span = Random.State.int (Util.rng seed salt) span

(* ---- the tables ---- *)

let t30_rows seed = 200_000 + jitter seed "t30.rows" 2_000
let b30_rows seed = 200_000 + jitter seed "b30.rows" 2_000
let q120_rows seed = 25_000 + jitter seed "q120.rows" 500
let log_rows seed v = 20_000 + jitter seed ("log.rows" ^ string_of_int v) 500
let log_versions = 8
let ints n = Array.make n Dtype.Int
let sub_seed seed salt = Hashtbl.hash (seed, salt)

let t30 seed =
  cached seed "t30.csv" (fun p ->
      Csv.generate ~path:p ~n_rows:(t30_rows seed) ~dtypes:(ints 30)
        ~seed:(sub_seed seed "t30") ())

let b30 seed =
  cached seed "b30.fwb" (fun p ->
      Fwb.generate ~path:p ~n_rows:(b30_rows seed)
        ~dtypes:(ints 30) ~seed:(sub_seed seed "b30") ())

let log_version seed v =
  cached seed (Printf.sprintf "log-v%d.csv" v) (fun p ->
      Csv.generate ~path:p ~n_rows:(log_rows seed v) ~dtypes:(ints 30)
        ~seed:(sub_seed seed ("log" ^ string_of_int v)) ())

(* q120: col0..col59 int, col60..col89 float as the generator writes them
   ("%.3f"), col90..col119 float at 17 significant digits. *)
let q120_dtypes = Array.init 120 (fun i -> if i < 60 then Dtype.Int else Float)

let q120 seed =
  cached seed "q120.csv" (fun p ->
      let st = Util.rng seed "q120" in
      let row _ =
        List.init 120 (fun i ->
            if i < 60 then string_of_int (Random.State.int st 1_000_000_000)
            else if i < 90 then Printf.sprintf "%.3f" (Random.State.float st 1e9)
            else Printf.sprintf "%.17g" (Random.State.float st 1e9))
      in
      Csv.write_file ~path:p ~header:None
        ~rows:(Seq.init (q120_rows seed) row) ())

let colnames dtypes =
  Array.to_list (Array.mapi (fun i d -> (Printf.sprintf "col%d" i, d)) dtypes)

(* ---- reading the files back ---- *)

let read_file p = In_channel.with_open_bin p In_channel.input_all

(* Rows of comma-separated fields, each field handed to [f ~col text]. *)
let iter_csv p f =
  let s = read_file p in
  let n = String.length s in
  let row = ref 0 and col = ref 0 and start = ref 0 in
  for i = 0 to n - 1 do
    match s.[i] with
    | ',' ->
      f ~row:!row ~col:!col (String.sub s !start (i - !start));
      incr col;
      start := i + 1
    | '\n' ->
      f ~row:!row ~col:!col (String.sub s !start (i - !start));
      incr row;
      col := 0;
      start := i + 1
    | _ -> ()
  done;
  !row

(* One array per schema column, read independently of the engine. *)
type column = Ints of int array | Floats of float array

let read_csv_columns p dtypes ~rows =
  let cols =
    Array.map
      (function
        | Dtype.Int -> Ints (Array.make rows 0)
        | _ -> Floats (Array.make rows 0.))
      dtypes
  in
  let got =
    iter_csv p (fun ~row ~col text ->
        match cols.(col) with
        | Ints a -> a.(row) <- int_of_string text
        | Floats a -> a.(row) <- float_of_string text)
  in
  assert (got = rows);
  cols

let read_fwb_columns p ~ncols ~rows =
  let s = read_file p in
  assert (String.length s = rows * ncols * 8);
  Array.init ncols (fun c ->
      Ints
        (Array.init rows (fun r ->
             Int64.to_int (String.get_int64_le s (((r * ncols) + c) * 8)))))

(* ---- reference answers for [AGG(colK) ... WHERE col0 < X] ---- *)

type answer = Null | I of int | F of float

type oracle = {
  sorted0 : int array;  (* col0, ascending *)
  order : int array;  (* row ids in col0 order *)
  cols : column array;
  prefix : (string * int, answer array) Hashtbl.t;
}

let oracle cols =
  let c0 = match cols.(0) with Ints a -> a | Floats _ -> assert false in
  let order = Array.init (Array.length c0) Fun.id in
  Array.stable_sort (fun a b -> compare c0.(a) c0.(b)) order;
  {
    sorted0 = Array.map (fun r -> c0.(r)) order;
    order;
    cols;
    prefix = Hashtbl.create 64;
  }

let count_below a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let prefix o agg k =
  match Hashtbl.find_opt o.prefix (agg, k) with
  | Some p -> p
  | None ->
    let n = Array.length o.order in
    let p = Array.make n Null in
    (match (agg, o.cols.(k)) with
     | "MAX", Ints a ->
       let m = ref min_int in
       Array.iteri (fun i r -> m := max !m a.(r); p.(i) <- I !m) o.order
     | "SUM", Ints a ->
       let s = ref 0 in
       Array.iteri (fun i r -> s := !s + a.(r); p.(i) <- I !s) o.order
     | "MAX", Floats a ->
       let m = ref neg_infinity in
       Array.iteri (fun i r -> m := Float.max !m a.(r); p.(i) <- F !m) o.order
     | _ -> invalid_arg ("no reference for " ^ agg));
    Hashtbl.replace o.prefix (agg, k) p;
    p

(* [agg] is "MAX", "SUM" or "COUNT" (COUNT means COUNT( * )). *)
let answer o ~agg ~k ~x =
  let c = count_below o.sorted0 x in
  if agg = "COUNT" then I c
  else if c = 0 then Null
  else (prefix o agg k).(c - 1)

let table_oracle seed = function
  | "t30" -> oracle (read_csv_columns (t30 seed) (ints 30) ~rows:(t30_rows seed))
  | "b30" -> oracle (read_fwb_columns (b30 seed) ~ncols:30 ~rows:(b30_rows seed))
  | "q120" ->
    oracle (read_csv_columns (q120 seed) q120_dtypes ~rows:(q120_rows seed))
  | t -> invalid_arg ("no table " ^ t)

let log_oracle seed v =
  oracle (read_csv_columns (log_version seed v) (ints 30) ~rows:(log_rows seed v))
