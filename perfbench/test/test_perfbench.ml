(* Tests of the benchmark itself: metric naming, seeded inputs, the
   correctness gate, the percentile rule and cross-domain allocation
   counting. *)

open Perfbench

let read path = In_channel.with_open_text path In_channel.input_all

let json path =
  match Obs.Json.parse (read path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

let names_of key j =
  match Obs.Json.member key j with
  | Some (Obs.Json.List l) ->
      List.map
        (fun m ->
          match Obs.Json.member "name" m with
          | Some (Obs.Json.Str s) -> s
          | _ -> Alcotest.fail "metric without a name")
        l
  | _ -> Alcotest.failf "no %s list" key

let e2e_names = List.map (fun (m : Catalog.e2e) -> m.Catalog.name) Catalog.end_to_end
let layer_names = List.map (fun (m : Catalog.layer) -> m.Catalog.lname) Catalog.per_layer

let valid_unit u =
  String.length u >= 1
  && String.length u <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       u

let test_names () =
  let all = e2e_names @ layer_names @ Catalog.all_workloads in
  List.iter
    (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (Catalog.valid_name n))
    all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq String.compare all));
  List.iter
    (fun (m : Catalog.layer) ->
      Alcotest.(check bool) ("valid unit of " ^ m.Catalog.lname) true (valid_unit m.Catalog.lunit))
    Catalog.per_layer;
  List.iter
    (fun (m : Catalog.e2e) ->
      Alcotest.(check bool) ("valid unit of " ^ m.Catalog.name) true (valid_unit m.Catalog.unit_))
    Catalog.end_to_end;
  Alcotest.(check bool) "invalid name rejected" false (Catalog.valid_name "a b");
  Alcotest.(check bool) "leading dot rejected" false (Catalog.valid_name ".a")

(* BENCHMARK.json and METRICS.json list exactly the catalogue. *)
let test_files_agree () =
  List.iter
    (fun path ->
      let j = json path in
      Alcotest.(check (list string)) (path ^ " end_to_end") e2e_names (names_of "end_to_end" j);
      Alcotest.(check (list string)) (path ^ " per_layer") layer_names (names_of "per_layer" j);
      Alcotest.(check (list string)) (path ^ " workloads") Catalog.all_workloads
        (names_of "workloads" j))
    [ "../../BENCHMARK.json"; "../METRICS.json" ];
  Alcotest.(check bool) "METRICS.json is the printed catalogue" true
    (Obs.Json.equal (json "../METRICS.json") (Catalog.to_json ()))

let test_seeded_inputs () =
  let horizon = Sim.Units.ms 2 in
  let hm seed = Host_mix.input ~seed ~horizon in
  let rk seed = Rack_sharded.input ~seed ~horizon in
  let st seed = Nic_steer.input ~seed ~horizon in
  let same a b = Stdlib.( = ) a b in
  Alcotest.(check bool) "host-mix: same seed" true (same (hm 3) (hm 3));
  Alcotest.(check bool) "host-mix: other seed" false (same (hm 3) (hm 4));
  Alcotest.(check bool) "rack: same seed" true (same (rk 3) (rk 3));
  Alcotest.(check bool) "rack: other seed" false (same (rk 3) (rk 4));
  Alcotest.(check bool) "steer: same seed" true (same (st 3) (st 3));
  Alcotest.(check bool) "steer: other seed" false (same (st 3) (st 4));
  let g = (hm 3).Host_mix.gen in
  Alcotest.(check bool) "arrivals start at t=0 and rise" true
    (g.Gen.at.(0) > 0
    && Array.for_all2 ( <= ) (Array.sub g.Gen.at 0 (Array.length g.Gen.at - 1))
         (Array.sub g.Gen.at 1 (Array.length g.Gen.at - 1)))

let small w reference =
  Runner.run ~min_rounds:1 ~size:Runner.Small ~seed:Catalog.default_seed ~seconds:0.
    ~trace:false ~reference w

(* A wrong reference digest turns every operation of the run into a
   failure; the right one passes. *)
let test_gate () =
  List.iter
    (fun w ->
      let ok = small w None in
      Alcotest.(check bool) (w.Runner.name ^ " passes unreferenced") true ok.Runner.correct;
      Alcotest.(check int) (w.Runner.name ^ " no failures") 0 ok.Runner.failed;
      let good = small w (Some ok.Runner.digest) in
      Alcotest.(check bool) (w.Runner.name ^ " matches its own digest") true good.Runner.correct;
      let bad = small w (Some ("not the digest" :: List.tl ok.Runner.digest)) in
      Alcotest.(check bool) (w.Runner.name ^ " wrong reference fails") false bad.Runner.correct;
      Alcotest.(check int) (w.Runner.name ^ " every operation failed") bad.Runner.attempted
        bad.Runner.failed)
    Runner.workloads

let test_percentile () =
  let s n = Array.init n (fun i -> i) in
  Alcotest.(check bool) "p99 of 1000: 9 beyond, not printed" true
    (Option.is_none (Stats.percentile ~p:0.99 (s 1000)));
  Alcotest.(check bool) "p99 of 1100: printed" true
    (Option.is_some (Stats.percentile ~p:0.99 (s 1100)));
  Alcotest.(check bool) "p50 of 20: 9 beyond, not printed" true
    (Option.is_none (Stats.percentile ~p:0.5 (s 20)));
  Alcotest.(check (option (float 1e-9))) "p50 of 21" (Some 10.)
    (Stats.percentile ~p:0.5 (s 21));
  Alcotest.(check bool) "empty" true (Option.is_none (Stats.percentile ~p:0.5 [||]))

(* Allocation is summed over every domain: the 2-domain rack is never
   counted below the identical 1-domain simulation. *)
let test_alloc_domains () =
  let input = Rack_sharded.input ~seed:5 ~horizon:(Sim.Units.ms 1) in
  let one = Rack_sharded.round ~domains:1 input in
  let two = Rack_sharded.round ~domains:2 input in
  Alcotest.(check (list string)) "same results" one.Round.digest two.Round.digest;
  Alcotest.(check bool)
    (Printf.sprintf "2-domain words %.0f >= 1-domain words %.0f" two.Round.cost.Host.words
       one.Round.cost.Host.words)
    true
    (two.Round.cost.Host.words >= one.Round.cost.Host.words)

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "files agree" `Quick test_files_agree;
        ] );
      ("inputs", [ Alcotest.test_case "seeded" `Quick test_seeded_inputs ]);
      ("gate", [ Alcotest.test_case "reference digest" `Quick test_gate ]);
      ("stats", [ Alcotest.test_case "percentile rule" `Quick test_percentile ]);
      ("alloc", [ Alcotest.test_case "all domains" `Quick test_alloc_domains ]);
    ]
