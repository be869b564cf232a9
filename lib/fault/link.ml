type t = {
  engine : Sim.Engine.t;
  plan : Plan.link;
  rng : Sim.Rng.t;
  deliver : Net.Frame.t -> unit;
  mutable scratch : bytes;  (* corruption-model workspace, reused *)
  mutable seen : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable scripted : int;
  mutable corrupt_rejected : int;
  mutable corrupt_delivered : int;
  mutable duplicated : int;
  mutable reordered : int;
}

let create engine ~plan ~rng ~deliver () =
  {
    engine;
    plan;
    rng;
    deliver;
    scratch = Bytes.create 0;
    seen = 0;
    delivered = 0;
    dropped = 0;
    scripted = 0;
    corrupt_rejected = 0;
    corrupt_delivered = 0;
    duplicated = 0;
    reordered = 0;
  }

(* The Ethernet header and min-frame padding are only FCS-protected on a
   real wire, and this model (like the parser) has no FCS — so to model
   "corruption is caught" honestly we flip within the IPv4+UDP region
   the existing checksums cover. The UDP checksum field itself is
   excluded: flipping it could produce 0x0000, which reads as "checksum
   absent". The redirect target is the UDP length high byte, which a
   flip always drives out of range (Bad_length). *)
let flip_checksummed rng ~ip_payload_len (s : Net.Slice.t) =
  let lo = Net.Ethernet.header_size in
  let hi =
    min (Net.Slice.length s) (lo + Net.Ipv4.header_size + ip_payload_len)
  in
  let i = lo + Sim.Rng.int rng ~bound:(max 1 (hi - lo)) in
  let udp_csum = lo + Net.Ipv4.header_size + 6 in
  let i =
    if i = udp_csum || i = udp_csum + 1 then lo + Net.Ipv4.header_size + 4
    else i
  in
  let j = s.Net.Slice.off + i in
  Bytes.set s.Net.Slice.base j
    (Char.chr (Char.code (Bytes.get s.Net.Slice.base j) lxor 0xff))

let extra_delay t =
  let bound = max 1 t.plan.Plan.reorder_delay in
  1 + Sim.Rng.int t.rng ~bound

let emit t frame =
  t.delivered <- t.delivered + 1;
  t.deliver frame

let send t frame =
  t.seen <- t.seen + 1;
  let p = t.plan in
  if List.mem t.seen p.Plan.drop_nth then t.scripted <- t.scripted + 1
  else if p.Plan.drop > 0. && Sim.Rng.float t.rng < p.Plan.drop then
    t.dropped <- t.dropped + 1
  else if p.Plan.corrupt > 0. && Sim.Rng.float t.rng < p.Plan.corrupt then begin
    let size = Net.Frame.wire_size frame in
    if Bytes.length t.scratch < size then t.scratch <- Bytes.create size;
    let s = Net.Frame.encode_into frame t.scratch in
    flip_checksummed t.rng ~ip_payload_len:frame.Net.Frame.ip.Net.Ipv4.payload_len s;
    match Net.Frame.parse_slice s with
    | Error _ -> t.corrupt_rejected <- t.corrupt_rejected + 1
    | Ok v ->
        (* Tripwire: flip_checksummed should make this unreachable. *)
        t.corrupt_delivered <- t.corrupt_delivered + 1;
        emit t (Net.Frame.of_view v)
  end
  else begin
    let dup =
      p.Plan.duplicate > 0. && Sim.Rng.float t.rng < p.Plan.duplicate
    in
    let delay =
      if p.Plan.reorder > 0. && Sim.Rng.float t.rng < p.Plan.reorder then begin
        t.reordered <- t.reordered + 1;
        extra_delay t
      end
      else 0
    in
    if delay = 0 then emit t frame
    else
      ignore
        (Sim.Engine.schedule_after t.engine ~after:delay (fun () ->
             emit t frame));
    if dup then begin
      t.duplicated <- t.duplicated + 1;
      let after = delay + extra_delay t in
      ignore
        (Sim.Engine.schedule_after t.engine ~after (fun () -> emit t frame))
    end
  end

let seen t = t.seen
let delivered t = t.delivered
let dropped t = t.dropped
let duplicated t = t.duplicated
let reordered t = t.reordered

let counters t ~prefix =
  [
    (prefix ^ "seen", t.seen);
    (prefix ^ "delivered", t.delivered);
    (prefix ^ "dropped", t.dropped);
    (prefix ^ "scripted_drops", t.scripted);
    (prefix ^ "corrupt_rejected", t.corrupt_rejected);
    (prefix ^ "corrupt_delivered", t.corrupt_delivered);
    (prefix ^ "duplicated", t.duplicated);
    (prefix ^ "reordered", t.reordered);
  ]
