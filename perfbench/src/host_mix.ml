(* host-mix: the paper's end-system comparison (E7 shape). One host,
   8 simulated cores, 32 Zipf(1.6) echo services, open-loop Poisson
   load at 600k RPC/s with 90% 64 B and 10% 1400 B payloads. The same
   input is replayed through each receive-path stack in turn. *)

module C = Experiments.Common

let name = "host-mix"
let services = 32
let ncores = 8
let zipf_s = 1.6
let rate_per_s = 300_000.
let handler_time = Sim.Units.ns 500
let drain = Sim.Units.ms 10

type spec = { short : string; flavour : C.flavour; min_workers : int }

(* The E7 configurations: Lauberhorn may retire every worker of an idle
   service; the static ablation time-shares its pinned cores with a
   50 us park. *)
let specs =
  [
    {
      short = "linux";
      flavour = C.Linux Coherence.Interconnect.pcie_enzian;
      min_workers = 1;
    };
    {
      short = "bypass";
      flavour = C.Bypass Coherence.Interconnect.pcie_enzian;
      min_workers = 1;
    };
    {
      short = "ccnic-static";
      flavour =
        C.Static
          (Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian
             (Sim.Units.us 50));
      min_workers = 1;
    };
    {
      short = "lauberhorn";
      flavour =
        C.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
      min_workers = 0;
    };
  ]

let flavours = List.map (fun s -> s.short) specs

type input = { gen : Gen.host_mix; horizon : Sim.Units.time }

let input ~seed ~horizon =
  {
    gen =
      Gen.host_mix ~seed ~rate_per_s ~horizon ~services ~zipf_s
        ~large_share:0.1 ~small:64 ~large:1400;
    horizon;
  }

(* Per-stack layer observations of a traced segment. *)
let observe p spec (one : Single.t) =
  let per = Stats.per in
  let completed = one.Single.part.Round.seg.Round.completed in
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name
         (Sim.Counter.to_list one.Single.server.C.driver.Harness.Driver.counters))
  in
  match one.Single.server.C.lauberhorn with
  | Some st ->
      let ha = Lauberhorn.Stack.home_agent st in
      Round.Probe.set p "coherence.fills_per_rpc.lauberhorn"
        (per (Coherence.Home_agent.fills ha) completed);
      Round.Probe.set p "coherence.tryagain_per_rpc.lauberhorn"
        (per (Coherence.Home_agent.tryagains ha) completed);
      Round.Probe.set p "stack.lauberhorn.worker_activations_per_krpc"
        (1000. *. per (counter "worker_activate") completed);
      Round.Probe.set p "stack.lauberhorn.slow_path_dispatch_per_krpc"
        (1000. *. per (counter "slow_path_dispatch") completed)
  | None ->
      (* The static stack's home agent has no accessor; its try-again
         count is published as a derived metric. *)
      if String.equal spec.short "ccnic-static" then
        Round.Probe.set p "coherence.tryagain_per_rpc.ccnic-static"
          (per
             (Option.value ~default:0
                (List.assoc_opt "ha_tryagains" (Obs.Metrics.to_list one.Single.metrics)))
             completed)

let segment ?probe input spec =
  let g = input.gen in
  let setup = Workload.Scenario.echo_fleet ~n:services ~handler_time () in
  let one =
    Single.run ?probe ~name:spec.short ~flavour:spec.short
      ~expected:(Array.length g.Gen.at) ~until:(input.horizon + drain)
      ~make:(fun tap metrics ->
        C.make_server ~ncores ~min_workers:spec.min_workers ~max_workers:2 ?tap
          ~metrics spec.flavour setup)
      (fun server ->
        Gen.drive server.C.engine g.Gen.at (fun i ->
            C.inject_blob server ~seq:(i + 1) ~service_idx:g.Gen.service.(i)
              ~bytes:g.Gen.bytes.(i)))
  in
  Option.iter (fun p -> observe p spec one) probe;
  one.Single.part

(* sim_p50/p99 come from the Lauberhorn stack, the paper's subject. *)
let round ?probe input =
  let parts = List.map (segment ?probe input) specs in
  let lat =
    match List.find_opt (fun (p : Round.part) -> String.equal p.Round.seg.Round.name "lauberhorn") parts with
    | Some p -> p.Round.lat
    | None -> [||]
  in
  Round.of_parts ~lat parts
