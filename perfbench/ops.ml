(* The seeded operation sequences of the three workloads, with their
   reference answers.

   [prepare] runs in a child process of its own (see Bench), so that the
   reference data never counts towards the peak memory of the process that
   executes the queries. It writes one line per operation to
   .perfbench_data/s<seed>/<workload>.ops; the measuring process only reads
   that file. *)

type cls =
  | Cold  (** cold-csv: a first query on a fresh engine *)
  | Warm  (** warm-session: a query on the long-lived engine *)
  | Hot  (** serve-mixed: a statement from the fixed hot set *)
  | Distinct  (** serve-mixed: a distinct predicate *)
  | Log  (** serve-mixed: a hot statement on the rewritten log table *)

let cls_to_string = function
  | Cold -> "cold"
  | Warm -> "warm"
  | Hot -> "hot"
  | Distinct -> "distinct"
  | Log -> "log"

let cls_of_string = function
  | "cold" -> Cold
  | "warm" -> Warm
  | "hot" -> Hot
  | "distinct" -> Distinct
  | "log" -> Log
  | s -> failwith ("ops: bad class " ^ s)

type op = {
  section : string;  (** "warmup", or the session that runs it ("s0", "s1") *)
  cls : cls;
  reset : bool;  (** warm-session: forget data state before this op *)
  table : string;
  agg : string;  (** MAX, SUM or COUNT *)
  k : int;
  x : int;
  expect : Data.answer array;
      (** one answer; for [Log] ops one per log version *)
}

let sql op =
  let target = if op.agg = "COUNT" then "*" else Printf.sprintf "col%d" op.k in
  Printf.sprintf "SELECT %s(%s) FROM %s WHERE col0 < %d" op.agg target op.table
    op.x

(* ---- workload shapes ---- *)

let workloads = [ "cold-csv"; "warm-session"; "serve-mixed" ]
let cold_ops = 400
let warm_ops = 40_000
let warm_episode = 125
let serve_ops_per_session = 40_000
let serve_hot = 12
let serve_log_stmts = 4
let serve_miss_cols = 4
let rand_x st = Random.State.int st 1_000_000_000

(* warm-session: t30 40%, b30 30%, q120 30% of ops; columns by Zipf rank.
   The rank order is fixed, not seeded (rank r is column 37r mod n, which
   interleaves q120's int and float columns), so a seed changes the
   predicates and the op order but not which kind of column is hot. The
   17-significant-digit float columns of q120 (col90..col119) are walked by
   the tokenizer but never aggregated: MAX over them returns wrong answers
   today (Csv.parse_float is off by an ulp on such input), and the
   float-parse probe of the traced run reports that defect instead. *)
let warm_tables = [| ("t30", 30); ("b30", 30); ("q120", 90) |]

let warm_gen seed salt =
  let st = Util.rng seed salt in
  let zipfs = Array.map (fun (_, n) -> Util.zipf_sampler n) warm_tables in
  fun ?table:ti ~section ~reset () ->
    let u = Random.State.float st 1. in
    let ti =
      match ti with
      | Some ti -> ti
      | None -> if u < 0.4 then 0 else if u < 0.7 then 1 else 2
    in
    let table, n = warm_tables.(ti) in
    let k = 37 * zipfs.(ti) st mod n in
    let is_float = table = "q120" && k >= 60 in
    let agg = if is_float || Random.State.bool st then "MAX" else "SUM" in
    { section; cls = Warm; reset; table; agg; k; x = rand_x st; expect = [||] }

let sequence workload seed =
  match workload with
  | "cold-csv" ->
    let st = Util.rng seed "cold" in
    let op section =
      { section; cls = Cold; reset = false; table = "t30"; agg = "MAX";
        k = Random.State.int st 30; x = rand_x st; expect = [||] }
    in
    op "warmup" :: List.init cold_ops (fun _ -> op "s0")
  | "warm-session" ->
    let warm = warm_gen seed "warm.warmup" in
    let main = warm_gen seed "warm" in
    (* warm-up: one first query per table *)
    List.init 3 (fun t -> warm ~table:t ~section:"warmup" ~reset:false ())
    @ List.init warm_ops (fun i ->
          main ~section:"s0" ~reset:(i mod warm_episode = 0) ())
  | "serve-mixed" ->
    let st = Util.rng seed "serve" in
    let stmt cls table agg ~k =
      { section = "warmup"; cls; reset = false; table; agg; k; x = rand_x st;
        expect = [||] }
    in
    let aggs = [| "MAX"; "SUM"; "COUNT" |] in
    let hot =
      Array.init serve_hot (fun i ->
          stmt Hot "t30" aggs.(i mod 3) ~k:(Random.State.int st 30))
    in
    let logs =
      Array.init serve_log_stmts (fun i ->
          stmt Log "log" aggs.(i mod 3) ~k:(Random.State.int st 30))
    in
    (* distinct predicates aggregate a few columns that the warm-up loads
       completely, so a miss is engine work over pooled shreds, not a
       first read of a raw column *)
    let miss_cols = Array.init serve_miss_cols (fun _ -> 1 + Random.State.int st 29) in
    let seen = Hashtbl.create 4096 in
    let rec distinct section =
      let agg = if Random.State.bool st then "COUNT" else "MAX" in
      let k = miss_cols.(Random.State.int st serve_miss_cols) in
      let op = { (stmt Distinct "t30" agg ~k) with section } in
      if Hashtbl.mem seen op.x then distinct section
      else (Hashtbl.add seen op.x (); op)
    in
    let load_all k = { (stmt Distinct "t30" "MAX" ~k) with x = 1_000_000_000 } in
    let session s =
      let st = Util.rng seed ("serve.s" ^ string_of_int s) in
      let section = "s" ^ string_of_int s in
      List.init serve_ops_per_session (fun _ ->
          let u = Random.State.float st 1. in
          if u < 0.80 then { (hot.(Random.State.int st serve_hot)) with section }
          else if u < 0.95 then distinct section
          else { (logs.(Random.State.int st serve_log_stmts)) with section })
    in
    Array.to_list hot @ Array.to_list logs
    @ List.map load_all (Array.to_list miss_cols)
    @ List.init 8 (fun _ -> distinct "warmup")
    @ session 0 @ session 1
  | w -> failwith ("unknown workload " ^ w)

(* ---- reference answers and the ops file ---- *)

(* Bump when the sequences change, so cached ops files are regenerated. *)
let version = 5
let file workload seed = Data.path seed (Printf.sprintf "%s-v%d.ops" workload version)

let encode_answer = function
  | Data.Null -> "N"
  | I n -> "i" ^ string_of_int n
  | F f -> Printf.sprintf "f%h" f

let decode_answer s =
  match s.[0] with
  | 'N' -> Data.Null
  | 'i' -> I (int_of_string (String.sub s 1 (String.length s - 1)))
  | 'f' -> F (float_of_string (String.sub s 1 (String.length s - 1)))
  | _ -> failwith ("ops: bad answer " ^ s)

let prepare workload seed =
  Data.mkdir_p (Data.dir seed);
  let ops = sequence workload seed in
  let oracles = Hashtbl.create 4 in
  let table_oracle t =
    match Hashtbl.find_opt oracles t with
    | Some o -> o
    | None ->
      let o = Data.table_oracle seed t in
      Hashtbl.add oracles t o;
      o
  in
  let log_oracles =
    if workload = "serve-mixed" then
      Array.init Data.log_versions (fun v -> Data.log_oracle seed v)
    else [||]
  in
  let with_answers op =
    let ans o = Data.answer o ~agg:op.agg ~k:op.k ~x:op.x in
    let expect =
      if op.table = "log" then Array.map ans log_oracles
      else [| ans (table_oracle op.table) |]
    in
    { op with expect }
  in
  Data.cached seed (Filename.basename (file workload seed)) (fun p ->
      Out_channel.with_open_bin p (fun oc ->
          List.iter
            (fun op ->
              let op = with_answers op in
              Printf.fprintf oc "%s\t%s\t%b\t%s\t%s\t%d\t%d\t%s\n" op.section
                (cls_to_string op.cls) op.reset op.table op.agg op.k op.x
                (String.concat "|"
                   (Array.to_list (Array.map encode_answer op.expect))))
            ops))
  |> ignore

let load workload seed =
  In_channel.with_open_bin (file workload seed) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ section; cls; reset; table; agg; k; x; expect ] ->
           {
             section;
             cls = cls_of_string cls;
             reset = bool_of_string reset;
             table;
             agg;
             k = int_of_string k;
             x = int_of_string x;
             expect =
               Array.of_list
                 (List.map decode_answer (String.split_on_char '|' expect));
           }
         | _ -> failwith ("ops: bad line " ^ line))

let section name ops = Array.of_list (List.filter (fun o -> o.section = name) ops)
