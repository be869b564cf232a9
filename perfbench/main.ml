(* Command-line entry of the benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints human-readable notes, then one JSON line with the run's
   correctness, operation counts and metrics. Exits 1 when a check
   fails (digest, conservation, determinism), 2 on bad usage. *)

let () =
  let workload = ref "" and seed = ref Perfbench.Catalog.default_seed in
  let seconds = ref 10. and trace = ref 0 in
  let write_ref = ref false and catalog = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--write-ref", Arg.Set write_ref, " record the default seed's digest as the reference");
      ("--catalog", Arg.Set catalog, " print the metric catalogue as JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !catalog then begin
    print_endline (Obs.Json.to_string (Perfbench.Catalog.to_json ()));
    exit 0
  end;
  let w =
    match Perfbench.Runner.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let ref_file = Filename.concat "perfbench/ref" (w.Perfbench.Runner.name ^ ".txt") in
  let checked = !seed = Perfbench.Catalog.default_seed in
  let reference =
    if checked && not !write_ref then
      match In_channel.with_open_text ref_file In_channel.input_all with
      | text ->
          Some (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))
      | exception Sys_error e ->
          prerr_endline ("missing reference digest: " ^ e);
          exit 2
    else None
  in
  let r =
    Perfbench.Runner.run ~size:Perfbench.Runner.Full ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1) ~reference w
  in
  List.iter print_endline r.Perfbench.Runner.notes;
  if !write_ref && checked && r.Perfbench.Runner.correct then
    Out_channel.with_open_text ref_file (fun oc ->
        List.iter
          (fun l -> output_string oc (l ^ "\n"))
          r.Perfbench.Runner.digest);
  print_endline (Perfbench.Runner.json r);
  exit (if r.Perfbench.Runner.correct then 0 else 1)
