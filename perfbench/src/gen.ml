(* Seeded input generation. Every workload input is a pure function of
   the seed and the horizon; the simulated system only ever sees the
   arrays built here. Each field draws from its own stream, so adding
   a field cannot perturb the others. *)

let stream ~seed ~tag = Sim.Rng.create ~seed:((seed * 1_000_003) + tag)

(* Open-loop Poisson arrival instants (ns) in [0, horizon], starting at
   t=0 with no warm-up delay. *)
let poisson ~seed ~rate_per_s ~horizon =
  let rng = stream ~seed ~tag:1 in
  let mean = 1e9 /. rate_per_s in
  let out = Stats.Buf.create () in
  let rec go t =
    let t = t + max 1 (int_of_float (Sim.Rng.exponential rng ~mean)) in
    if t <= horizon then begin
      Stats.Buf.push out t;
      go t
    end
  in
  go 0;
  Stats.Buf.to_array out

type host_mix = { at : int array; service : int array; bytes : int array }

let host_mix ~seed ~rate_per_s ~horizon ~services ~zipf_s ~large_share
    ~small ~large =
  let at = poisson ~seed ~rate_per_s ~horizon in
  let n = Array.length at in
  let svc_rng = stream ~seed ~tag:2 and size_rng = stream ~seed ~tag:3 in
  let service =
    Array.init n (fun _ -> Workload.Dist.zipf svc_rng ~n:services ~s:zipf_s)
  in
  let bytes =
    Array.init n (fun _ ->
        if Sim.Rng.float size_rng < large_share then large else small)
  in
  { at; service; bytes }

type rack = { calls : int array }

let rack ~seed ~rate_per_s ~horizon =
  { calls = poisson ~seed ~rate_per_s ~horizon }

type steer = { sat : int array; key : int array; flow : int array }

let steer ~seed ~rate_per_s ~horizon ~keys ~zipf_s ~flows =
  let sat = poisson ~seed ~rate_per_s ~horizon in
  let n = Array.length sat in
  let key_rng = stream ~seed ~tag:4 and flow_rng = stream ~seed ~tag:5 in
  let key =
    Array.init n (fun _ -> Workload.Dist.zipf key_rng ~n:keys ~s:zipf_s)
  in
  let flow = Array.init n (fun _ -> Sim.Rng.int flow_rng ~bound:flows) in
  { sat; key; flow }

(* Drive [fire i] at [at.(i)] on [engine], one pending arrival at a
   time (the next is scheduled when the current fires), exactly as an
   open-loop generator would. [shift] moves the whole schedule earlier. *)
let drive ?(first = 0) ?(last = -1) ?(shift = 0) engine at fire =
  let last = if last < 0 then Array.length at - 1 else last in
  let rec arm i =
    if i <= last then
      ignore
        (Sim.Engine.schedule_at engine ~at:(at.(i) - shift) (fun () ->
             fire i;
             arm (i + 1)))
  in
  arm first
