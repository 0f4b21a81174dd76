open Raw_storage

(* ---------------- Lru ---------------- *)

let lru_tests =
  [
    Alcotest.test_case "basic add/find" `Quick (fun () ->
        let l = Lru.create () in
        ignore (Lru.add l "a" 1);
        Alcotest.(check (option int)) "found" (Some 1) (Lru.find l "a");
        Alcotest.(check (option int)) "missing" None (Lru.find l "b"));
    Alcotest.test_case "capacity evicts least-recently-used" `Quick (fun () ->
        let l = Lru.create ~capacity:2 () in
        ignore (Lru.add l 1 "one");
        ignore (Lru.add l 2 "two");
        ignore (Lru.find l 1);
        (* 2 is now LRU *)
        let evicted = Lru.add l 3 "three" in
        Alcotest.(check bool) "evicted 2" true (evicted = [ (2, "two") ]);
        Alcotest.(check bool) "1 kept" true (Lru.mem l 1);
        Alcotest.(check bool) "3 kept" true (Lru.mem l 3));
    Alcotest.test_case "peek and mem do not touch recency" `Quick (fun () ->
        let l = Lru.create ~capacity:2 () in
        ignore (Lru.add l 1 ());
        ignore (Lru.add l 2 ());
        ignore (Lru.peek l 1);
        ignore (Lru.mem l 1);
        let evicted = Lru.add l 3 () in
        Alcotest.(check bool) "1 evicted despite peek" true (evicted = [ (1, ()) ]));
    Alcotest.test_case "replace keeps size and updates value" `Quick (fun () ->
        let l = Lru.create ~capacity:2 () in
        ignore (Lru.add l "k" 1);
        ignore (Lru.add l "k" 2);
        Alcotest.(check int) "size" 1 (Lru.length l);
        Alcotest.(check (option int)) "updated" (Some 2) (Lru.find l "k"));
    Alcotest.test_case "remove and clear" `Quick (fun () ->
        let l = Lru.create () in
        ignore (Lru.add l 1 ());
        ignore (Lru.add l 2 ());
        Lru.remove l 1;
        Alcotest.(check bool) "gone" false (Lru.mem l 1);
        Lru.clear l;
        Alcotest.(check int) "empty" 0 (Lru.length l));
    Alcotest.test_case "keys MRU-first" `Quick (fun () ->
        let l = Lru.create () in
        ignore (Lru.add l 1 ());
        ignore (Lru.add l 2 ());
        ignore (Lru.add l 3 ());
        ignore (Lru.find l 1);
        Alcotest.(check (list int)) "order" [ 1; 3; 2 ] (Lru.keys l));
    Alcotest.test_case "capacity zero rejects" `Quick (fun () ->
        let l = Lru.create ~capacity:0 () in
        let evicted = Lru.add l 1 "x" in
        Alcotest.(check bool) "bounced" true (evicted = [ (1, "x") ]);
        Alcotest.(check int) "never stored" 0 (Lru.length l));
    Alcotest.test_case "negative capacity rejected" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Lru.create: negative capacity")
          (fun () -> ignore (Lru.create ~capacity:(-1) () : (int, int) Lru.t)));
    Alcotest.test_case "fold visits MRU first" `Quick (fun () ->
        let l = Lru.create () in
        ignore (Lru.add l 1 10);
        ignore (Lru.add l 2 20);
        let order = List.rev (Lru.fold (fun k _ acc -> k :: acc) l []) in
        Alcotest.(check (list int)) "order" [ 2; 1 ] order);
  ]

(* ---------------- Mmap_file ---------------- *)

let mk_file ?config n =
  Mmap_file.of_bytes ?config ~name:"test" (Bytes.make n 'x')

let small_pages ?(residency_capacity = None) () =
  { Mmap_file.Config.page_size = 16; io_seconds_per_page = 0.001;
    residency_capacity }

let mmap_tests =
  [
    Alcotest.test_case "first touch faults, second hits" `Quick (fun () ->
        let f = mk_file ~config:(small_pages ()) 64 in
        Mmap_file.touch f 0 4;
        Alcotest.(check int) "fault" 1 (Mmap_file.faults f);
        Mmap_file.touch f 4 4;
        Alcotest.(check int) "still one fault" 1 (Mmap_file.faults f);
        (* hits count page visits: staying inside page 0 is no new visit *)
        Alcotest.(check int) "hit" 0 (Mmap_file.hits f);
        Mmap_file.touch f 16 1;
        Mmap_file.touch f 8 1;
        Alcotest.(check int) "revisit hits" 1 (Mmap_file.hits f));
    Alcotest.test_case "span across pages faults each page" `Quick (fun () ->
        let f = mk_file ~config:(small_pages ()) 64 in
        Mmap_file.touch f 10 20;
        (* bytes 10..29 => pages 0 and 1 *)
        Alcotest.(check int) "two faults" 2 (Mmap_file.faults f);
        Alcotest.(check int) "resident" 2 (Mmap_file.resident_pages f));
    Alcotest.test_case "simulated io accumulates per fault" `Quick (fun () ->
        let f = mk_file ~config:(small_pages ()) 64 in
        Mmap_file.touch f 0 64;
        Alcotest.(check (float 1e-9)) "4 pages" 0.004
          (Mmap_file.simulated_io_seconds f));
    Alcotest.test_case "drop_cache makes pages cold again" `Quick (fun () ->
        let f = mk_file ~config:(small_pages ()) 32 in
        Mmap_file.touch f 0 32;
        Mmap_file.drop_cache f;
        Alcotest.(check int) "counters reset" 0 (Mmap_file.faults f);
        Mmap_file.touch f 0 8;
        Alcotest.(check int) "faults again" 1 (Mmap_file.faults f));
    Alcotest.test_case "reset_counters keeps residency" `Quick (fun () ->
        let f = mk_file ~config:(small_pages ()) 32 in
        Mmap_file.touch f 0 32;
        Mmap_file.reset_counters f;
        Mmap_file.touch f 0 8;
        Alcotest.(check int) "warm: no new faults" 0 (Mmap_file.faults f);
        Alcotest.(check int) "warm hit" 1 (Mmap_file.hits f));
    Alcotest.test_case "bounded residency refaults after eviction" `Quick (fun () ->
        let config = small_pages ~residency_capacity:(Some 2) () in
        let f = mk_file ~config 64 in
        (* touch pages 0,1,2 (capacity 2): page 0 evicted *)
        Mmap_file.touch f 0 1;
        Mmap_file.touch f 16 1;
        Mmap_file.touch f 32 1;
        Alcotest.(check int) "resident bounded" 2 (Mmap_file.resident_pages f);
        Mmap_file.touch f 48 1;
        (* avoid last-page fast path *)
        Mmap_file.touch f 0 1;
        Alcotest.(check int) "page 0 refaults" 5 (Mmap_file.faults f));
    Alcotest.test_case "out-of-range touch clamps" `Quick (fun () ->
        let f = mk_file ~config:(small_pages ()) 32 in
        Mmap_file.touch f (-5) 100;
        Alcotest.(check int) "only real pages" 2 (Mmap_file.faults f));
    Alcotest.test_case "fork_view isolates counters, absorb merges" `Quick
      (fun () ->
        let f = mk_file ~config:(small_pages ()) 64 in
        Mmap_file.touch f 0 16;
        (* page 0 resident *)
        let v = Mmap_file.fork_view f in
        Mmap_file.touch v 0 16;
        (* warm in the view, cold counters start at 0 *)
        Alcotest.(check int) "view hit" 1 (Mmap_file.hits v);
        Alcotest.(check int) "view no fault" 0 (Mmap_file.faults v);
        Mmap_file.touch v 16 16;
        Alcotest.(check int) "view fault" 1 (Mmap_file.faults v);
        (* parent untouched so far *)
        Alcotest.(check int) "parent faults unchanged" 1 (Mmap_file.faults f);
        Alcotest.(check int) "parent resident unchanged" 1
          (Mmap_file.resident_pages f);
        Mmap_file.absorb ~into:f v;
        Alcotest.(check int) "faults summed" 2 (Mmap_file.faults f);
        Alcotest.(check int) "hits summed" 1 (Mmap_file.hits f);
        Alcotest.(check int) "residency unioned" 2 (Mmap_file.resident_pages f);
        (* page 1 now warm in the parent *)
        Mmap_file.touch f 16 1;
        Alcotest.(check int) "no refault after absorb" 2 (Mmap_file.faults f));
    Alcotest.test_case "fork_view/absorb with bounded residency" `Quick
      (fun () ->
        let config = small_pages ~residency_capacity:(Some 2) () in
        let f = mk_file ~config 64 in
        Mmap_file.touch f 0 1;
        let v = Mmap_file.fork_view f in
        Mmap_file.touch v 16 1;
        Mmap_file.touch v 32 1;
        (* view holds pages 16.. and 32..; capacity 2 evicted page 0 *)
        Mmap_file.absorb ~into:f v;
        Alcotest.(check bool) "resident within capacity" true
          (Mmap_file.resident_pages f <= 2));
    Alcotest.test_case "open_file reads contents" `Quick (fun () ->
        let path = Test_util.fresh_path ".bin" in
        let oc = open_out_bin path in
        output_string oc "hello world";
        close_out oc;
        let f = Mmap_file.open_file path in
        Alcotest.(check int) "length" 11 (Mmap_file.length f);
        Alcotest.(check string) "contents" "hello world"
          (Bytes.to_string (Mmap_file.bytes f)));
  ]

(* ---------------- page accounting vs a reference model ---------------- *)

(* The naive model visits every page of every range, with no fast path:
   a resident page is a hit (and becomes most recently used), any other a
   fault. Only a revisit of the page visited last is free, which is what
   "hits count page visits" means. Residency is an MRU-first page list,
   capped for Bounded(k). *)
module Model = struct
  type t = {
    cap : int option;
    mutable pages : int list;  (* MRU first *)
    mutable faults : int;
    mutable hits : int;
    mutable last : int;
  }

  let create cap = { cap; pages = []; faults = 0; hits = 0; last = -1 }
  let fork m = { m with faults = 0; hits = 0; last = -1 }

  let add m p =
    m.pages <- p :: List.filter (( <> ) p) m.pages;
    match m.cap with
    | Some k when List.length m.pages > k ->
      m.pages <- List.filteri (fun i _ -> i < k) m.pages
    | _ -> ()

  let touch m ~ps ~length pos len =
    if len > 0 && length > 0 then begin
      let clamp x = min (max x 0) (length - 1) in
      for p = clamp pos / ps to clamp (pos + len - 1) / ps do
        if p <> m.last then begin
          m.last <- p;
          if List.mem p m.pages then m.hits <- m.hits + 1
          else m.faults <- m.faults + 1;
          add m p
        end
      done
    end

  let absorb ~into v =
    into.faults <- into.faults + v.faults;
    into.hits <- into.hits + v.hits;
    List.iter (fun p -> if not (List.mem p into.pages) then add into p)
      (List.rev v.pages);
    into.last <- -1

  let drop m =
    m.pages <- [];
    m.faults <- 0;
    m.hits <- 0;
    m.last <- -1
end

type page_op =
  | Touch of int * int
  | Views of (int * int) list list  (* fork one view per list, absorb in order *)
  | Drop

let page_ops_gen =
  let open QCheck2.Gen in
  let touch = pair (int_range (-8) 140) (int_range (-2) 40) in
  let touches = list_size (int_range 0 12) touch in
  list_size (int_range 1 40)
    (frequency
       [
         (8, map (fun (p, l) -> Touch (p, l)) touch);
         (2, map (fun ts -> Views ts) (oneofl [ 1; 4 ] >>= fun k -> list_repeat k touches));
         (1, pure Drop);
       ])

let page_io = 0.00037

let run_page_ops ~cap ~length ops =
  let ps = 16 in
  let config =
    { Mmap_file.Config.page_size = ps; io_seconds_per_page = page_io;
      residency_capacity = cap }
  in
  let f = Mmap_file.of_bytes ~config ~name:"model" (Bytes.make length 'x') in
  let m = Model.create cap in
  let agree what m f =
    let ok =
      Mmap_file.faults f = m.Model.faults
      && Mmap_file.hits f = m.Model.hits
      && Mmap_file.resident_pages f = List.length m.Model.pages
      && Int64.equal
           (Int64.bits_of_float (Mmap_file.simulated_io_seconds f))
           (Int64.bits_of_float (float_of_int m.Model.faults *. page_io))
    in
    if not ok then
      QCheck2.Test.fail_reportf
        "%s: faults %d/%d hits %d/%d resident %d/%d" what
        (Mmap_file.faults f) m.Model.faults (Mmap_file.hits f) m.Model.hits
        (Mmap_file.resident_pages f) (List.length m.Model.pages)
  in
  List.iter
    (function
      | Touch (pos, len) ->
        Mmap_file.touch f pos len;
        Model.touch m ~ps ~length pos len;
        agree "touch" m f
      | Drop ->
        Mmap_file.drop_cache f;
        Model.drop m;
        agree "drop_cache" m f
      | Views per_view ->
        (* one view per worker: at parallelism 4 the views really run on
           their own domains, as in a morsel-parallel scan *)
        let views = List.map (fun ts -> (Mmap_file.fork_view f, ts)) per_view in
        let run (v, ts) = List.iter (fun (pos, len) -> Mmap_file.touch v pos len) ts in
        (match views with
         | [ one ] -> run one
         | _ -> List.iter Domain.join (List.map (fun w -> Domain.spawn (fun () -> run w)) views));
        let models = List.map (fun ts -> (Model.fork m, ts)) per_view in
        List.iter2
          (fun (v, _) (mv, ts) ->
            List.iter (fun (pos, len) -> Model.touch mv ~ps ~length pos len) ts;
            agree "view" mv v;
            Mmap_file.absorb ~into:f v;
            Model.absorb ~into:m mv;
            agree "absorb" m f)
          views models)
    ops;
  true

let model_tests =
  List.concat_map
    (fun (label, cap) ->
      [
        Test_util.qtest ~count:150
          (Printf.sprintf "%s residency agrees with the naive page model" label)
          QCheck2.Gen.(pair (int_range 0 130) page_ops_gen)
          (fun (length, ops) -> run_page_ops ~cap ~length ops);
      ])
    [ ("bitmap", None); ("bounded(1)", Some 1); ("bounded(3)", Some 3) ]

(* ---------------- Io_stats / Timing ---------------- *)

let stats_tests =
  [
    Alcotest.test_case "counters add and reset" `Quick (fun () ->
        Io_stats.reset "test.counter";
        Io_stats.incr "test.counter";
        Io_stats.add "test.counter" 4;
        Alcotest.(check int) "value" 5 (Io_stats.get "test.counter");
        Io_stats.reset "test.counter";
        Alcotest.(check int) "reset" 0 (Io_stats.get "test.counter"));
    Alcotest.test_case "float counters" `Quick (fun () ->
        Io_stats.reset "test.float";
        Io_stats.add_float "test.float" 0.5;
        Io_stats.add_float "test.float" 0.25;
        Alcotest.(check (float 1e-9)) "value" 0.75 (Io_stats.get_float "test.float"));
    Alcotest.test_case "get rounds to nearest" `Quick (fun () ->
        (* accumulated float error must not truncate a whole count away *)
        Io_stats.reset "test.round";
        for _ = 1 to 10 do Io_stats.add_float "test.round" 0.1 done;
        Alcotest.(check int) "0.1 x 10 = 1" 1 (Io_stats.get "test.round");
        Alcotest.(check (float 1e-12)) "get_float exact"
          (0.1 *. 10.) (Io_stats.get_float "test.round");
        Io_stats.reset "test.round";
        Io_stats.add_float "test.round" 2.4;
        Alcotest.(check int) "2.4 -> 2" 2 (Io_stats.get "test.round");
        Io_stats.add_float "test.round" 0.2;
        Alcotest.(check int) "2.6 -> 3" 3 (Io_stats.get "test.round"));
    Alcotest.test_case "merge adds deltas into this domain" `Quick (fun () ->
        Io_stats.reset "test.merge.a";
        Io_stats.reset "test.merge.b";
        Io_stats.add "test.merge.a" 2;
        Io_stats.merge [ ("test.merge.a", 3.); ("test.merge.b", 0.5) ];
        Alcotest.(check int) "existing summed" 5 (Io_stats.get "test.merge.a");
        Alcotest.(check (float 1e-9)) "new created" 0.5
          (Io_stats.get_float "test.merge.b"));
    Alcotest.test_case "counters are domain-local" `Quick (fun () ->
        Io_stats.reset "test.dls";
        Io_stats.add "test.dls" 7;
        let seen_in_child =
          Domain.join
            (Domain.spawn (fun () ->
                 let before = Io_stats.get "test.dls" in
                 Io_stats.add "test.dls" 100;
                 before))
        in
        Alcotest.(check int) "child starts from zero" 0 seen_in_child;
        Alcotest.(check int) "parent unaffected" 7 (Io_stats.get "test.dls"));
    Alcotest.test_case "snapshot sorted and includes counter" `Quick (fun () ->
        Io_stats.reset_all ();
        Io_stats.add "test.b" 1;
        Io_stats.add "test.a" 2;
        let snap = List.filter (fun (k, _) -> String.length k > 5 && String.sub k 0 5 = "test.") (Io_stats.snapshot ()) in
        Alcotest.(check bool) "sorted" true
          (List.map fst snap = List.sort String.compare (List.map fst snap)));
    Alcotest.test_case "span accumulates" `Quick (fun () ->
        let s = Timing.Span.create "phase" in
        Timing.Span.add s 0.5;
        Timing.Span.add s 0.25;
        Alcotest.(check (float 1e-9)) "total" 0.75 (Timing.Span.total s);
        Timing.Span.reset s;
        Alcotest.(check (float 1e-9)) "reset" 0. (Timing.Span.total s));
    Alcotest.test_case "time measures and returns" `Quick (fun () ->
        let r, dt = Timing.time (fun () -> 42) in
        Alcotest.(check int) "result" 42 r;
        Alcotest.(check bool) "non-negative" true (dt >= 0.));
  ]

let suites =
  [
    ("storage.lru", lru_tests);
    ("storage.mmap", mmap_tests);
    ("storage.page_model", model_tests);
    ("storage.stats", stats_tests);
  ]
