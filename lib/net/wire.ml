type t = {
  engine : Sim.Engine.t;
  gbps : float;
  propagation : Sim.Units.duration;
  loss : float;
  corruption : float;
  rng : Sim.Rng.t;
  deliver : Frame.t -> unit;
  mutable scratch : bytes;  (* corruption-model workspace, reused *)
  mutable free_at : Sim.Units.time;
  mutable frames : int;
  mutable lost : int;
  mutable corrupted : int;
}

let overhead_bytes = 24 (* 7 preamble + 1 SFD + 4 FCS + 12 IPG *)

let serialization_delay ~gbps ~bytes =
  if gbps <= 0. then invalid_arg "Wire.serialization_delay: rate <= 0";
  let bits = float_of_int ((bytes + overhead_bytes) * 8) in
  int_of_float (Float.round (bits /. gbps))

let create engine ~gbps ~propagation ?(loss = 0.) ?(corruption = 0.)
    ?(seed = 0x5eed) ~deliver () =
  if gbps <= 0. then invalid_arg "Wire.create: rate <= 0";
  if propagation < 0 then invalid_arg "Wire.create: negative propagation";
  if loss < 0. || loss > 1. then invalid_arg "Wire.create: loss out of [0,1]";
  if corruption < 0. || corruption > 1. then
    invalid_arg "Wire.create: corruption out of [0,1]";
  {
    engine;
    gbps;
    propagation;
    loss;
    corruption;
    rng = Sim.Rng.create ~seed;
    deliver;
    scratch = Bytes.create 0;
    free_at = 0;
    frames = 0;
    lost = 0;
    corrupted = 0;
  }

let transmit t frame =
  let size = Frame.wire_size frame in
  let start = max (Sim.Engine.now t.engine) t.free_at in
  let tx_done = start + serialization_delay ~gbps:t.gbps ~bytes:size in
  t.free_at <- tx_done;
  t.frames <- t.frames + 1;
  let arrival = tx_done + t.propagation in
  if t.loss > 0. && Sim.Rng.float t.rng < t.loss then t.lost <- t.lost + 1
  else if t.corruption > 0. && Sim.Rng.float t.rng < t.corruption then begin
    (* Flip one random byte of the encoded frame and re-parse: the
       checksums almost always reject it (receiver drop); if the flip
       lands in padding or payload bytes covered only by a checksum the
       receiver skips, the corrupted frame goes through. *)
    if Bytes.length t.scratch < size then t.scratch <- Bytes.create size;
    let s = Frame.encode_into frame t.scratch in
    let i = s.Slice.off + Sim.Rng.int t.rng ~bound:(Slice.length s) in
    Bytes.set t.scratch i
      (Char.chr (Char.code (Bytes.get t.scratch i) lxor 0xff));
    match Frame.parse_slice s with
    | Ok v ->
        (* The scratch is reused for the next frame, so detach. *)
        let f = Frame.of_view v in
        ignore
          (Sim.Engine.schedule_at t.engine ~at:arrival (fun () ->
               t.deliver f))
    | Error _ -> t.corrupted <- t.corrupted + 1
  end
  else
    ignore
      (Sim.Engine.schedule_at t.engine ~at:arrival (fun () ->
           t.deliver frame))

let frames_sent t = t.frames
let frames_lost t = t.lost
let frames_corrupted t = t.corrupted
