(* Cross-stack integration tests: the paper's comparative claims, as
   assertions. Absolute numbers are simulator outputs; the *orderings*
   are what the paper predicts and what these tests pin down. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

type run = {
  recorder : Harness.Recorder.t;
  kernel : Osmodel.Kernel.t;
  counters : Sim.Counter.group;
  horizon : Sim.Units.time;
}

let horizon = Sim.Units.ms 30

(* Run one stack against an open-loop uniform workload over [nservices]
   echo services and return the measurements. *)
let run_stack ~stack ~ncores ~nservices ~rate ?(payload = 64) ?(zipf_s = 0.)
    ?(min_workers = 1) () =
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let setup = Workload.Scenario.echo_fleet ~n:nservices () in
  let egress = Harness.Recorder.egress recorder in
  let driver, kernel, counters =
    match stack with
    | `Lauberhorn mirror_mode ->
        let s =
          Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian
            ~ncores ~mirror_mode
            ~services:
              (List.mapi
                 (fun i def ->
                   Lauberhorn.Stack.spec ~min_workers ~max_workers:2
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        ( Lauberhorn.Stack.driver s,
          Lauberhorn.Stack.kernel s,
          Lauberhorn.Stack.counters s )
    | `Linux ->
        let s =
          Baseline.Linux_stack.create engine
            ~profile:Coherence.Interconnect.pcie_enzian ~ncores
            ~services:
              (List.mapi
                 (fun i def ->
                   Baseline.Linux_stack.spec
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        ( Baseline.Linux_stack.driver s,
          Baseline.Linux_stack.kernel s,
          Baseline.Linux_stack.counters s )
    | `Static ->
        let s =
          Lauberhorn.Static_stack.create engine
            ~cfg:
              (Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian
                 (Sim.Units.us 50))
            ~ncores
            ~services:
              (List.mapi
                 (fun i def ->
                   Lauberhorn.Static_stack.spec
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        ( Lauberhorn.Static_stack.driver s,
          Lauberhorn.Static_stack.kernel s,
          Lauberhorn.Static_stack.counters s )
    | `Bypass ->
        let s =
          Baseline.Bypass_stack.create engine
            ~profile:Coherence.Interconnect.pcie_enzian ~ncores
            ~services:
              (List.mapi
                 (fun i def ->
                   Baseline.Bypass_stack.spec
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        (* Flush idle-spin windows right before the horizon so the
           ledgers are complete when we read them. *)
        ignore
          (Sim.Engine.schedule_at engine ~at:(horizon + Sim.Units.ms 9)
             (fun () -> Baseline.Bypass_stack.flush_spin s));
        ( Baseline.Bypass_stack.driver s,
          Baseline.Bypass_stack.kernel s,
          Baseline.Bypass_stack.counters s )
  in
  let rng = Sim.Rng.create ~seed:1234 in
  Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
    (fun ~seq ->
      let pick =
        if zipf_s > 0. then
          Workload.Rpc_mix.zipf_pick rng ~services:nservices ~s:zipf_s
        else Workload.Rpc_mix.uniform_pick rng ~services:nservices
      in
      let svc = pick.Workload.Rpc_mix.service_idx in
      Harness.Traffic.inject recorder driver
        ~rpc_id:(Int64.of_int seq)
        ~service_id:(Workload.Scenario.service_id_of setup ~service_idx:svc)
        ~method_id:0
        ~port:(Workload.Scenario.port_of setup ~service_idx:svc)
        (Rpc.Value.Blob (Bytes.make payload 'w')));
  Sim.Engine.run engine ~until:(horizon + Sim.Units.ms 10);
  { recorder; kernel; counters; horizon = horizon + Sim.Units.ms 10 }

let p50 r = Sim.Histogram.quantile (Harness.Recorder.latencies r.recorder) 0.5
let p99 r = Sim.Histogram.quantile (Harness.Recorder.latencies r.recorder) 0.99

let spin_total r =
  List.fold_left
    (fun acc a -> acc + Osmodel.Cpu_account.charged a Osmodel.Cpu_account.Spin)
    0
    (Osmodel.Kernel.accounts r.kernel)

let stall_total r =
  List.fold_left
    (fun acc a ->
      acc + Osmodel.Cpu_account.charged a Osmodel.Cpu_account.Stall)
    0
    (Osmodel.Kernel.accounts r.kernel)

(* ---------- E6: latency ordering at light-to-moderate load ---------- *)

let test_latency_ordering () =
  let args = (4, 1, 100_000.) in
  let ncores, nservices, rate = args in
  let lau =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores
      ~nservices ~rate ()
  in
  let lin = run_stack ~stack:`Linux ~ncores ~nservices ~rate () in
  let byp = run_stack ~stack:`Bypass ~ncores ~nservices ~rate () in
  checkb
    (Printf.sprintf "lauberhorn (%d) < bypass (%d)" (p50 lau) (p50 byp))
    true (p50 lau < p50 byp);
  checkb
    (Printf.sprintf "bypass (%d) < linux (%d)" (p50 byp) (p50 lin))
    true (p50 byp < p50 lin);
  (* Nothing lost anywhere. *)
  List.iter
    (fun r ->
      checki "conservation"
        (Harness.Recorder.sent r.recorder)
        (Harness.Recorder.completed r.recorder))
    [ lau; lin; byp ]

(* ---------- E8: energy (spin vs stall) ---------- *)

let test_energy_no_spinning () =
  let ncores, nservices, rate = (4, 1, 50_000.) in
  let lau =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores
      ~nservices ~rate ()
  in
  let byp = run_stack ~stack:`Bypass ~ncores ~nservices ~rate () in
  checki "lauberhorn never spins" 0 (spin_total lau);
  (* Bypass burns most of 4 cores x 40ms spinning at this low load. *)
  checkb "bypass spins heavily" true (spin_total byp > Sim.Units.ms 50);
  (* Lauberhorn's waiting shows up as stalled loads instead. *)
  checkb "lauberhorn stalls instead" true (stall_total lau > Sim.Units.ms 10)

(* ---------- E5: TRYAGAIN timeout controls idle bus traffic ---------- *)

let test_tryagain_timeout_monotone () =
  let tries timeout =
    let engine = Sim.Engine.create () in
    let recorder = Harness.Recorder.create engine in
    let stack =
      Lauberhorn.Stack.create engine
        ~cfg:(Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian timeout)
        ~ncores:4
        ~services:
          [ Lauberhorn.Stack.spec ~port:7000 (Rpc.Interface.echo_service ~id:1) ]
        ~egress:(Harness.Recorder.egress recorder)
        ()
    in
    Sim.Engine.run engine ~until:(Sim.Units.ms 60);
    Coherence.Home_agent.tryagains (Lauberhorn.Stack.home_agent stack)
  in
  let fast = tries (Sim.Units.us 100) in
  let mid = tries (Sim.Units.ms 1) in
  let slow = tries (Sim.Units.ms 15) in
  checkb
    (Printf.sprintf "monotone: %d > %d > %d" fast mid slow)
    true
    (fast > mid && mid > slow);
  (* At the paper's 15ms setting an idle 60ms run has single-digit
     tryagains per parked line: effectively zero polling. *)
  checkb "15ms is near-zero traffic" true (slow < 40)

(* ---------- E3 ablation: push mirror vs query ---------- *)

let test_mirror_push_beats_query () =
  let ncores, nservices, rate = (4, 1, 100_000.) in
  let push =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores
      ~nservices ~rate ()
  in
  let query =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Query) ~ncores
      ~nservices ~rate ()
  in
  (* Querying the host at dispatch time costs an MMIO read on every
     request: ~1.1us extra on the Enzian profile. *)
  checkb
    (Printf.sprintf "push p50 %d + margin < query p50 %d" (p50 push)
       (p50 query))
    true
    (p50 push + 800 < p50 query)

(* ---------- E7: dynamic workload, many services, skew ---------- *)

let test_dynamic_skewed_services () =
  (* 32 services, strongly Zipf-skewed, on 8 cores, at a rate that
     saturates the bypass poller stuck with the hottest service (static
     binding) while leaving plenty of aggregate capacity. Lauberhorn
     activates workers on demand and shares all cores. *)
  let ncores, nservices, rate = (8, 32, 1_300_000.) in
  let lau =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores
      ~nservices ~rate ~zipf_s:1.6 ~min_workers:0 ()
  in
  let byp =
    run_stack ~stack:`Bypass ~ncores ~nservices ~rate ~zipf_s:1.6 ()
  in
  (* Bypass pins 12 services onto 4 pollers; the hot services share one
     poller with cold ones and head-of-line block. Lauberhorn shares
     all cores. *)
  checkb "lauberhorn completes everything" true
    (Harness.Recorder.completed lau.recorder
    = Harness.Recorder.sent lau.recorder);
  checkb
    (Printf.sprintf "tail: lauberhorn %d < bypass %d" (p99 lau) (p99 byp))
    true
    (p99 lau < p99 byp)

(* ---------- E4: DMA crossover visible end-to-end ---------- *)

let test_large_payloads_still_complete () =
  let lau =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores:4
      ~nservices:1 ~rate:5_000. ~payload:16_384 ()
  in
  checki "conservation"
    (Harness.Recorder.sent lau.recorder)
    (Harness.Recorder.completed lau.recorder);
  checkb "large payloads slower than small band" true
    (p50 lau > Sim.Units.us 3)

(* ---------- Ablation: coherent interconnect vs OS integration ------- *)

let test_static_ablation () =
  (* Single hot service at low load: the static coherent NIC matches
     Lauberhorn (the interconnect is doing the work). *)
  let lau_hot =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores:4
      ~nservices:1 ~rate:100_000. ()
  in
  let static_hot =
    run_stack ~stack:`Static ~ncores:4 ~nservices:1 ~rate:100_000. ()
  in
  checkb
    (Printf.sprintf "static p50 %d within 20%% of lauberhorn %d"
       (p50 static_hot) (p50 lau_hot))
    true
    (abs (p50 static_hot - p50 lau_hot) * 5 <= p50 lau_hot);
  (* Dynamic skewed mix: without OS integration the static split's tail
     explodes even though the fast path is identical. *)
  let lau_dyn =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores:8
      ~nservices:32 ~rate:1_000_000. ~zipf_s:1.6 ~min_workers:0 ()
  in
  let static_dyn =
    run_stack ~stack:`Static ~ncores:8 ~nservices:32 ~rate:1_000_000.
      ~zipf_s:1.6 ()
  in
  checkb
    (Printf.sprintf "dynamic tail: static %d >> lauberhorn %d"
       (p99 static_dyn) (p99 lau_dyn))
    true
    (p99 static_dyn > 3 * p99 lau_dyn)

(* E13: under 5% wire loss in each direction, every stack still
   completes every RPC — the client's retry layer masks the loss — and
   the retransmit counter shows the recovery actually ran. *)
let test_lossy_runs_complete () =
  let plan =
    Fault.Plan.make ~seed:9 ~wire:(Fault.Plan.link ~drop:0.05 ()) ()
  in
  List.iter
    (fun flavour ->
      let m =
        Experiments.Common.lossy_run ~ncores:4 ~rate:50_000.
          ~horizon:(Sim.Units.ms 5) ~plan flavour
      in
      let name = Experiments.Common.flavour_name flavour in
      checkb (name ^ ": sent some") true (m.Experiments.Common.sent > 0);
      checki
        (name ^ ": all completed")
        m.Experiments.Common.sent m.Experiments.Common.completed;
      checkb
        (name ^ ": retransmits nonzero")
        true
        (Experiments.Common.counter m "retransmits" > 0))
    [
      Experiments.Common.Linux Coherence.Interconnect.pcie_enzian;
      Experiments.Common.Bypass Coherence.Interconnect.pcie_enzian;
      Experiments.Common.Lauberhorn
        (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
    ]

(* ---------- The shared receive-path core, on every stack ---------- *)

let all_flavours =
  [
    Experiments.Common.Lauberhorn
      (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
    Experiments.Common.Static Lauberhorn.Config.enzian;
    Experiments.Common.Linux Coherence.Interconnect.pcie_enzian;
    Experiments.Common.Bypass Coherence.Interconnect.pcie_enzian;
  ]

(* One kv service (id 1) on port 7000. *)
let kv_server flavour ~egress =
  let engine = Sim.Engine.create () in
  let setup =
    {
      Workload.Scenario.defs = [ Rpc.Interface.kv_service ~id:1 () ];
      ports = [| 7000 |];
    }
  in
  Experiments.Common.make_server ~ncores:4 ~engine ~egress flavour setup

(* A reply carries its request's service and method ids, so a client
   that picks the reply schema by (service, method) decodes a [put]
   (method 1) as [()] on every stack. *)
let test_reply_echoes_request_ids () =
  List.iter
    (fun flavour ->
      let name = Experiments.Common.flavour_name flavour in
      let client = ref None in
      let server =
        kv_server flavour ~egress:(fun f ->
            Option.iter (fun c -> Harness.Client.on_reply c f) !client)
      in
      let engine = server.Experiments.Common.engine in
      let c =
        Harness.Client.create engine
          ~send:server.Experiments.Common.driver.Harness.Driver.ingress ()
      in
      client := Some c;
      Harness.Client.expect c ~service_id:1 ~method_id:1 Rpc.Schema.Unit;
      let got = ref None in
      ignore
        (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10) (fun () ->
             Harness.Client.call c ~service_id:1 ~method_id:1 ~port:7000
               (Rpc.Value.Tuple
                  [ Rpc.Value.Str "k"; Rpc.Value.Blob (Bytes.of_string "v") ])
               (fun v -> got := Some v)));
      Sim.Engine.run engine ~until:(Sim.Units.ms 2);
      checki (name ^ ": no client errors") 0 (Harness.Client.errors c);
      checkb (name ^ ": put returned ()") true
        (match !got with Some Rpc.Value.Unit -> true | Some _ | None -> false))
    all_flavours

(* Classify rejects: each input carries exactly one defect, bumps
   exactly its own counter, and nothing leaves the server. *)
let test_classify_rejects_counted () =
  let frame ~port payload =
    Net.Frame.make ~src:(Harness.Traffic.client_endpoint ())
      ~dst:(Harness.Traffic.server_endpoint ~port) payload
  in
  let request ~method_id body =
    Rpc.Wire_format.encode
      {
        Rpc.Wire_format.rpc_id = 1L;
        service_id = 1;
        method_id;
        kind = Rpc.Wire_format.Request;
        ctx = None;
        body;
      }
  in
  let key = Rpc.Codec.encode (Rpc.Value.Str "k") in
  let cases =
    [
      ("rx_bad_rpc", frame ~port:7000 (Bytes.of_string "not an rpc header"));
      ("rx_no_service", frame ~port:7001 (request ~method_id:0 key));
      ("rx_no_method", frame ~port:7000 (request ~method_id:9 key));
      (* [get] takes a string; an empty body is not one. *)
      ("rx_bad_args", frame ~port:7000 (request ~method_id:0 Bytes.empty));
    ]
  in
  List.iter
    (fun flavour ->
      List.iter
        (fun (counter, f) ->
          let name = Experiments.Common.flavour_name flavour ^ " " ^ counter in
          let sent = ref 0 in
          let server = kv_server flavour ~egress:(fun _ -> incr sent) in
          let engine = server.Experiments.Common.engine in
          let driver = server.Experiments.Common.driver in
          ignore
            (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10)
               (fun () -> driver.Harness.Driver.ingress f));
          Sim.Engine.run engine ~until:(Sim.Units.ms 1);
          List.iter
            (fun (other, _) ->
              checki
                (name ^ ": " ^ other)
                (if String.equal other counter then 1 else 0)
                (Sim.Counter.value
                   (Sim.Counter.counter driver.Harness.Driver.counters other)))
            cases;
          checki (name ^ ": no frame leaves") 0 !sent)
        cases)
    all_flavours

let () =
  Alcotest.run "integration"
    [
      ( "comparative",
        [
          Alcotest.test_case "latency ordering (E6)" `Slow
            test_latency_ordering;
          Alcotest.test_case "energy: no spinning (E8)" `Slow
            test_energy_no_spinning;
          Alcotest.test_case "tryagain timeout monotone (E5)" `Slow
            test_tryagain_timeout_monotone;
          Alcotest.test_case "mirror push beats query (E3)" `Slow
            test_mirror_push_beats_query;
          Alcotest.test_case "dynamic skewed services (E7)" `Slow
            test_dynamic_skewed_services;
          Alcotest.test_case "large payloads complete (E4)" `Slow
            test_large_payloads_still_complete;
          Alcotest.test_case "static-split ablation" `Slow
            test_static_ablation;
          Alcotest.test_case "lossy runs complete (E13)" `Slow
            test_lossy_runs_complete;
        ] );
      ( "receive-path core",
        [
          Alcotest.test_case "replies echo request ids" `Quick
            test_reply_echoes_request_ids;
          Alcotest.test_case "classify rejects counted" `Quick
            test_classify_rejects_counted;
        ] );
    ]
