(* See shared_scan.mli. The shared pass materializes the union of the
   group's scan columns once, then replays it as per-member chunk streams
   — the member plans never touch the raw file. Correctness rests on two
   invariants: (1) all members share one table and one error policy, so
   the master scan enumerates exactly the row set each would have seen;
   (2) logical plans are positional, so projecting the union chunk into a
   member's scan-column order reproduces its scan output bit for bit. *)

open Raw_vector
open Raw_engine

type member_result = { chunk : Chunk.t; schema : Schema.t }

type group_result = {
  results : member_result list; (* in submission order *)
  rows_scanned : int;
  wall_seconds : float;
}

(* Only single-table, join-free plans share a pass: a join reads two
   files, and its build side must be fully drained before the probe side
   streams, which breaks the one-traversal-feeds-all shape. *)
let shareable_table plan =
  match Logical.scans plan with [ (t, _) ] -> Some t | _ -> None

(* Evaluate one member plan over the materialized union chunks. The
   lowering mirrors the planner's operator emission for non-scan nodes;
   Scan nodes become projections of the shared pass. *)
let eval_member ~chunk_rows ~union ~master plan schema =
  let feed columns =
    (* a column-less scan (count star) still needs the row count, which a
       chunk derives from its columns: feed the union's first column *)
    let columns = match columns with [] -> [ List.hd union ] | cs -> cs in
    let positions =
      List.map (fun c -> Option.get (List.find_index (( = ) c) union)) columns
    in
    Operator.of_chunk ~chunk_rows (Chunk.project master positions)
  in
  let rec go = function
    | Logical.Scan { columns; _ } -> feed columns
    | Logical.Filter (e, c) -> Operator.filter e (go c)
    | Logical.Project (items, c) -> Operator.project (List.map fst items) (go c)
    | Logical.Aggregate { keys; aggs; input } ->
      let aggs = List.map (fun (a : Logical.agg_spec) -> (a.op, a.expr)) aggs in
      let inp = go input in
      if keys = [] then Operator.aggregate aggs inp
      else Operator.group_by ~keys:(List.map Expr.col keys) ~aggs inp
    | Logical.Order_by (specs, c) -> Operator.sort ~by:specs (go c)
    | Logical.Limit (n, c) -> Operator.limit n (go c)
    | Logical.Join _ -> invalid_arg "Shared_scan: join plans are not shareable"
  in
  { chunk = Executor.drain schema (go plan); schema }

let run_group db plans =
  let cat = Raw_db.catalog db in
  let table =
    match List.sort_uniq compare (List.map shareable_table plans) with
    | [ Some t ] -> t
    | _ -> invalid_arg "Shared_scan.run_group: plans must share one table"
  in
  let t0 = Raw_storage.Timing.now () in
  let union =
    match
      List.sort_uniq compare
        (List.concat_map (fun p -> List.concat_map snd (Logical.scans p)) plans)
    with
    | [] -> [ 0 ] (* every member is count-star-shaped: row count still needed *)
    | cs -> cs
  in
  let schemas = List.map (Logical.output_schema cat) plans in
  (* one traversal of the raw file: an ordinary query over the union scan,
     with everything a one-shot query gets (admission, deadline, the
     session's posmaps, shreds and JIT templates, io/compile accounting,
     history) *)
  let master =
    (Raw_db.run_plan db (Logical.Scan { table; columns = union }))
      .Executor.chunk
  in
  let chunk_rows = (Catalog.config cat).Config.chunk_rows in
  let results =
    List.map2 (eval_member ~chunk_rows ~union ~master) plans schemas
  in
  {
    results;
    rows_scanned = Chunk.n_rows master;
    wall_seconds = Raw_storage.Timing.now () -. t0;
  }
